"""The stream engine: sessions of frames over one persistent worker fleet.

The paper's frame-level speedup comes from double buffering — frame
*k+1* moves while frame *k* computes.  This module is the one engine
that does it.  :class:`StreamBroker` owns a pool of persistent band
workers and multiplexes admitted *sessions* onto it; the single-stream
:class:`~repro.parallel.ring.RingEngine` is the same broker running one
session per stream.

- Each admitted session gets a private ring of ``depth`` shared-memory
  frame slots; **admission control** caps the total slots across
  sessions at a configurable ``slot_budget``, so one host's
  memory/latency envelope is a parameter, not an accident.
- A per-session **feeder thread** copies frames into free slots — when
  a session's consumer lags, its feeder blocks on its own free list
  (**per-stream backpressure**) without slowing anyone else — and
  submits each frame's band work items.
- Band items wait in per-session queues drained in **weighted
  round-robin** order (:class:`_FairScheduler`): the feeders and the
  collector move them into the fleet queue whenever fewer than
  ``max_inflight_bands`` are outstanding, so a stalled or slow stream
  cannot starve the others and priority streams get proportionally
  more of the fleet.
- One worker function, :func:`_worker_main`, serves every session.  It
  attaches a session's slots and tables lazily, caching tables by the
  :class:`~repro.video.frameplan.FramePlan` publication key — sessions
  sharing a calibration share one
  :class:`~repro.parallel.shmseg.SharedTables` publication (fed from
  one single-flight :class:`~repro.core.lutcache.LUTCache`), attached
  once per worker.  A band that raises posts its exception type and
  message back, and the session fails with a
  :class:`~repro.errors.StreamError` naming the worker, the band and
  the cause.
- A **collector thread** routes band completions back to sessions;
  each :class:`StreamSession` yields its frames **strictly in input
  order** no matter how the fleet interleaved the bands.

Every session's plane set — per-plane tables, slot shapes and band
work items — comes from its :class:`~repro.video.frameplan.FramePlan`.

Telemetry, with ``<ns>`` = ``serve`` for the broker and ``ring`` for
the ring engine:

- workers: ``<ns>.bands`` (plus ``<ns>.bands{plane="..."}`` on planar
  sessions), ``<ns>.band_seconds``,
  ``<ns>.worker.<rank>.busy_seconds`` and ``<ns>.band`` spans on
  ``<ns>-worker-<rank>`` tracks;
- feeders: ``<ns>.frames``, ``<ns>.slot_wait_seconds``,
  ``<ns>.in_flight`` and ``<ns>.decode`` spans; the collector:
  ``<ns>.deliver_wait_seconds`` and ``<ns>.deliver`` spans;
- delivery: ``frame.e2e_latency_seconds`` (hand-over to delivery),
  ``stream.deadline_miss`` against the session's ``deadline_s`` and
  one ``frame.lifecycle`` span per frame on the ``<ns>-frames`` track.
  Broker sessions also count ``stream.frames`` and the per-stream
  labelled series (``stream.frames{stream="cam0"}``,
  ``frame.e2e_latency_seconds{stream="cam0"}``,
  ``stream.deadline_miss{stream="cam0"}``, ``<ns>.in_flight{stream=
  "cam0"}`` — see :func:`repro.obs.export.labeled`);
- fleet: ``<ns>.workers`` / ``<ns>.slot_budget`` /
  ``<ns>.active_streams`` / ``<ns>.slots_used`` gauges and
  ``<ns>.sessions`` / ``<ns>.admission_rejects`` counters.

All of it is scrapeable live from a
:class:`~repro.obs.live.MetricsServer`.  A
:class:`~repro.obs.flightrec.FlightRecorder` keeps the last decode,
band and delivery events plus the spans workers ship back; when a
worker dies it is dumped to a JSON file whose path travels on
:attr:`~repro.errors.StreamError.flight_dump`.  A session with a
``stall_timeout_s`` (the ring's watchdog) counts ``stream.stalls`` and
dumps the recorder when bands are outstanding but none has completed
for that long.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import pickle
import queue as _queue
import threading
import time
from collections import deque

import numpy as np

from ..core.image import Frame
from ..core.lutcache import LUTCache
from ..errors import AdmissionError, ScheduleError, StreamError
from ..obs.export import labeled
from ..obs.flightrec import FlightRecorder
from ..obs.logsetup import get_logger
from ..obs.telemetry import get_telemetry
from ..video.frameplan import PIXFMTS, FramePlan

__all__ = ["StreamBroker", "StreamSession", "DEFAULT_SLOT_BUDGET"]

log = get_logger(__name__)

#: default total slot budget (the admission-control cap): the sum of
#: every admitted session's ``depth`` may not exceed it.
DEFAULT_SLOT_BUDGET = 16

#: queue poll interval (seconds) shared by all engine threads.
_POLL_S = 0.2


# ----------------------------------------------------------------------
# fair scheduling
# ----------------------------------------------------------------------
class _FairScheduler:
    """Weighted round-robin over per-stream band deques.

    Pure data structure (caller provides locking): ``push`` appends a
    work item to a stream's deque, ``pop`` returns the next item under
    weighted round-robin — the cursor stream may dispatch up to
    ``weight`` consecutive items before the turn passes on, so with
    weights 2:1 a backlogged pair of streams dispatches bands 2:1.
    """

    def __init__(self):
        self._queues: dict = {}
        self._weights: dict = {}
        self._order: list = []
        self._cursor = 0
        self._credit = 0

    def add_stream(self, sid, weight: int = 1) -> None:
        if weight < 1:
            raise ScheduleError(f"stream weight must be >= 1, got {weight}")
        self._queues[sid] = deque()
        self._weights[sid] = int(weight)
        self._order.append(sid)

    def remove_stream(self, sid) -> None:
        if sid not in self._queues:
            return
        pos = self._order.index(sid)
        del self._order[pos]
        del self._queues[sid]
        del self._weights[sid]
        if pos < self._cursor:
            self._cursor -= 1
        if self._cursor >= len(self._order):
            self._cursor = 0
        self._credit = 0

    def push(self, sid, item) -> None:
        self._queues[sid].append(item)

    def pop(self):
        """Next ``(sid, item)`` under weighted round-robin, or ``None``."""
        n = len(self._order)
        for _ in range(n + 1):
            if not self._order:
                return None
            if self._cursor >= len(self._order):
                self._cursor = 0
            sid = self._order[self._cursor]
            q = self._queues[sid]
            if q and self._credit < self._weights[sid]:
                self._credit += 1
                return sid, q.popleft()
            self._cursor += 1
            self._credit = 0
        return None

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _close_segments(segments) -> None:
    for shm in segments:
        try:
            shm.close()
        except Exception:  # pragma: no cover - already closed
            pass


def _worker_main(rank, ns, task_q, done_q, ctrl_q, telemetry_enabled):
    """Fleet worker: pull ``(sid, seq, slot, plane, row0, row1, desc)``.

    Attachments are lazy and cached: the first band of a session maps
    its slots, and its tables unless a session with the same
    publication key already did (``desc`` is the pickled ``(key,
    label, table_spec, table_meta, slot_specs)``, unpickled only on
    attach).  A planar publication
    yields one LUT per plane and labels the band spans and
    ``<ns>.bands{plane=...}`` counters with the plane names.
    ``ctrl_q`` broadcasts ``("forget", sid)`` when a session closes so
    the worker drops its slot mappings.

    Every band posts ``(sid, seq, slot, rows, rank, telemetry_delta,
    error)``.  A band that raised — a kernel fault, or segments already
    unlinked under a closed session — posts ``rows=-1`` and ``error =
    (where, cause)`` naming the plane and rows and the exception type
    and message; the collector decides whether anyone still cares.
    """
    from ..parallel.shmseg import (attach_any_slot, attach_planar_tables,
                                   init_worker_telemetry, worker_delta)
    from ..video.yuv import plane_names_for

    init_worker_telemetry(telemetry_enabled)
    tables: dict = {}    # key -> (segments, per-plane luts, plane labels)
    sessions: dict = {}  # sid -> (segments, slots, table entry, label)
    track = f"{ns}-worker-{rank}"

    def attach(sid, desc):
        key, label, table_spec, table_meta, slot_specs = pickle.loads(desc)
        entry = tables.get(key)
        if entry is None:
            segs, luts = attach_planar_tables(table_spec, table_meta)
            planes = None
            if "chroma" in table_meta:
                planes = [(n, labeled(f"{ns}.bands", plane=n))
                          for n in plane_names_for(table_meta["pixfmt"])]
            entry = tables[key] = (segs, luts, planes)
        slot_segs, slots = [], []
        for spec in slot_specs:
            segs, srcs, dsts = attach_any_slot(spec)
            slot_segs += segs
            slots.append((srcs, dsts))
        sessions[sid] = (slot_segs, slots, entry, label)
        return sessions[sid]

    def forget(sid):
        entry = sessions.pop(sid, None)
        if entry is not None:
            _close_segments(entry[0])

    try:
        while True:
            while True:  # drain control messages first
                try:
                    _, sid = ctrl_q.get_nowait()
                except _queue.Empty:
                    break
                forget(sid)
            try:
                item = task_q.get(timeout=_POLL_S)
            except _queue.Empty:
                continue
            if item is None:
                break
            sid, seq, slot, plane, row0, row1, desc = item
            tel = get_telemetry()
            wall0 = time.time() if tel.enabled else 0.0
            t0 = time.perf_counter() if tel.enabled else 0.0
            try:
                _, slots, (_, luts, planes), label = (sessions.get(sid)
                                                      or attach(sid, desc))
                srcs, dsts = slots[slot]
                lut = luts[plane]
                lut.apply_rows_into(srcs[plane], row0, row1,
                                    dsts[plane][row0:row1])
            except Exception as exc:
                forget(sid)
                done_q.put((sid, seq, slot, -1, rank, None,
                            (f"plane {plane}, rows {row0}-{row1}",
                             f"{type(exc).__name__}: {exc}")))
                continue
            delta = None
            if tel.enabled:
                dt = time.perf_counter() - t0
                tel.counter(f"{ns}.bands").inc()
                tel.counter(f"{ns}.worker.{rank}.busy_seconds").inc(dt)
                tel.histogram(f"{ns}.band_seconds").observe(dt)
                args = {"frame_id": seq, "rows": row1 - row0,
                        "tier": lut.tier}
                if label is not None:
                    args["stream"] = label
                if planes:
                    args["plane"] = planes[plane][0]
                    tel.counter(planes[plane][1]).inc()
                tel.add_span(f"{ns}.band", wall0, dt, cat=ns, tid=track,
                             args=args)
                delta = worker_delta()
            done_q.put((sid, seq, slot, row1 - row0, rank, delta, None))
    finally:
        for entry in list(sessions.values()) + list(tables.values()):
            _close_segments(entry[0])


# ----------------------------------------------------------------------
# session
# ----------------------------------------------------------------------
class StreamSession:
    """One admitted stream: iterate it for strictly in-order frames.

    Created by :meth:`StreamBroker.open` (and per stream by
    :meth:`~repro.parallel.ring.RingEngine.stream`) — not directly.
    The session is an iterator (and context manager); ``close()``
    releases its slots back to the broker's budget immediately.  With
    ``copy=True`` (the broker default — the safe mode when several
    threads drain several sessions) every yielded frame owns its data;
    ``copy=False`` yields zero-copy views of the session's slot buffers
    that are recycled when the consumer advances.
    """

    def __init__(self, broker: "StreamBroker", sid: int, name: str,
                 source, plan: FramePlan, slots, depth: int, *,
                 weight: int = 1, copy: bool = True, deadline_s=None,
                 stall_timeout_s=None, label: str | None = None,
                 owns_slots: bool = True):
        self.broker = broker
        self.sid = sid
        self.name = name
        self.depth = depth
        self.weight = weight
        self.copy = copy
        self.deadline_s = deadline_s
        self.stall_timeout_s = stall_timeout_s
        self.delivered = 0
        #: high-water mark of simultaneously occupied slots
        self.max_in_flight = 0
        self._source = source
        self._plan = plan
        self._slots = slots
        self._bands = plan.bands(broker.workers, broker.schedule, broker.chunk)
        self._owns_slots = owns_slots
        self._label = label
        self._desc = None  # pickled worker attach recipe, set on admission
        ns = broker._ns
        self._in_flight_name = (labeled(f"{ns}.in_flight", stream=label)
                                if label else f"{ns}.in_flight")
        self._cond = threading.Condition()
        self._free: _queue.Queue = _queue.Queue()
        for i in range(len(slots)):
            self._free.put(i)
        self._pending = [0] * len(slots)      # outstanding bands per slot
        self._slot_items = [None] * len(slots)
        self._completed: dict = {}            # seq -> slot
        self._decode_t0: dict = {}            # seq -> hand-over wall time
        self._produced = None
        self._error: BaseException | None = None
        self._closed = False
        self._next_seq = 0
        self._held_slot = None
        self._feeder = None
        self._exhausted = False
        self._last_progress = time.monotonic()  # watchdog: last completion
        self._stalled = False                   # one warning+dump per episode

    def _start(self) -> None:
        """Launch the feeder — only after the broker has registered the
        session (scheduler + routing map), else early bands are lost."""
        self._feeder = threading.Thread(
            target=self._feed, name=f"{self.broker._ns}-feed-{self.name}",
            daemon=True)
        self._feeder.start()

    # -- feeder thread -------------------------------------------------
    def _feed(self):
        broker = self.broker
        tel, ns = broker._tel, broker._ns
        seq = 0
        it = iter(self._source)
        try:
            while not self._closed and not broker._abort.is_set():
                try:
                    item = next(it)
                except StopIteration:
                    break
                t_dec = time.time()  # frame handed over: latency starts
                t0 = time.perf_counter()
                planes = self._plan.planes_of(item)
                slot0 = self._slots[0]
                if (planes[0].shape != slot0.plane_shapes[0]
                        or planes[0].dtype != slot0.dtype):
                    raise ScheduleError(
                        f"stream {self.name!r} frame "
                        f"{planes[0].shape}/{planes[0].dtype} does not match "
                        f"session geometry {slot0.plane_shapes[0]}/"
                        f"{slot0.dtype}")
                t1 = time.perf_counter()
                while True:  # per-stream backpressure: block on OUR ring
                    try:
                        slot = self._free.get(timeout=_POLL_S)
                        break
                    except _queue.Empty:
                        if self._closed or broker._abort.is_set():
                            return
                t2 = time.perf_counter()
                for view, plane in zip(self._slots[slot].src_views, planes):
                    np.copyto(view, plane)
                in_flight = len(self._slots) - self._free.qsize()
                with self._cond:
                    if not any(self._pending):
                        self._last_progress = time.monotonic()
                    self._pending[slot] = len(self._bands)
                    self._slot_items[slot] = (item if isinstance(item, Frame)
                                              else None)
                    self._decode_t0[seq] = t_dec
                    self.max_in_flight = max(self.max_in_flight, in_flight)
                broker.flightrec.record("decode", stream=self.name,
                                        frame_id=seq, slot=slot)
                if tel.enabled:
                    tel.counter(f"{ns}.frames").inc()
                    tel.histogram(f"{ns}.slot_wait_seconds").observe(t2 - t1)
                    tel.gauge(self._in_flight_name).set(in_flight)
                    tel.add_span(f"{ns}.decode", t_dec,
                                 time.perf_counter() - t0, cat=ns,
                                 tid=f"{ns}-decode",
                                 args={"frame_id": seq, "slot": slot})
                broker._submit(self.sid, [(seq, slot, p, r0, r1)
                                          for p, r0, r1 in self._bands])
                seq += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised by consumer
            self._fail(exc)
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # pragma: no cover - source cleanup
                    pass
            with self._cond:
                if self._produced is None:
                    self._produced = seq
                self._cond.notify_all()

    # -- collector callbacks -------------------------------------------
    def _band_done(self, seq, slot):
        with self._cond:
            if self._closed:
                return
            self._last_progress = time.monotonic()
            self._stalled = False
            self._pending[slot] -= 1
            if self._pending[slot] == 0:
                self._completed[seq] = slot
                self._cond.notify_all()

    def _fail(self, exc: BaseException):
        with self._cond:
            if self._error is None:
                self._error = exc
            self._cond.notify_all()

    # -- consumer ------------------------------------------------------
    def __iter__(self):
        return self

    def __next__(self):
        broker = self.broker
        with self._cond:
            if self._exhausted:
                raise StopIteration
            if self._held_slot is not None:
                # consumer advanced past the zero-copy view: recycle
                self._recycle(self._held_slot)
                self._held_slot = None
            while True:
                if self._error is not None:
                    raise self._error
                if broker._error is not None:
                    raise broker._error
                if self._closed:
                    # slots are already released: never deliver from them
                    raise StreamError(
                        f"stream session {self.name!r} was closed")
                if self._next_seq in self._completed:
                    break
                if (self._produced is not None
                        and self._next_seq >= self._produced):
                    self._exhausted = True
                    break
                self._cond.wait(_POLL_S)
                self._watchdog()
            if not self._exhausted:
                seq = self._next_seq
                slot = self._completed.pop(seq)
                planes = self._slots[slot].dst_views
                item = self._slot_items[slot]
                if self.copy:
                    planes = tuple(p.copy() for p in planes)
                    self._recycle(slot)
                else:
                    self._held_slot = slot
                t_dec0 = self._decode_t0.pop(seq)
                self._next_seq += 1
                self.delivered += 1
        if self._exhausted:
            self.close()
            raise StopIteration
        self._account(seq, slot, t_dec0)
        return self._plan.wrap(item, planes)

    def _account(self, seq, slot, t_dec0):
        """Deadline, lineage and latency bookkeeping of one delivery."""
        e2e = time.time() - t_dec0
        miss = self.deadline_s is not None and e2e > self.deadline_s
        rec = self.broker.flightrec
        rec.record("deliver", stream=self.name, frame_id=seq, slot=slot,
                   e2e_s=round(e2e, 6))
        if miss:
            rec.record("deadline_miss", stream=self.name, frame_id=seq,
                       e2e_s=round(e2e, 6), deadline_s=self.deadline_s)
        tel = self.broker._tel
        if not tel.enabled:
            return
        tel.histogram("frame.e2e_latency_seconds").observe(e2e)
        tel.add_span("frame.lifecycle", t_dec0, e2e, cat="frame",
                     tid=f"{self.broker._ns}-frames",
                     args={"frame_id": seq, "slot": slot})
        tel.gauge(self._in_flight_name).set(
            len(self._slots) - self._free.qsize())
        if miss:
            tel.counter("stream.deadline_miss").inc()
        label = self._label
        if label:
            tel.counter("stream.frames").inc()
            tel.counter(labeled("stream.frames", stream=label)).inc()
            tel.histogram(labeled("frame.e2e_latency_seconds",
                                  stream=label)).observe(e2e)
            if miss:
                tel.counter(labeled("stream.deadline_miss",
                                    stream=label)).inc()

    def _watchdog(self):
        """Stall check (caller holds ``_cond``): bands outstanding but
        none completed for ``stall_timeout_s`` -> count, warn, dump
        (once per stall episode)."""
        if self.stall_timeout_s is None or self._stalled:
            return
        outstanding = sum(self._pending)
        waited_s = time.monotonic() - self._last_progress
        if not outstanding or waited_s <= self.stall_timeout_s:
            return
        self._stalled = True
        dump = self.broker.flightrec.dump(
            "stall", error=f"no band completion for {waited_s:.2f}s "
                           f"({outstanding} bands outstanding)",
            event={"kind": "stall", "stream": self.name,
                   "waited_s": round(waited_s, 3),
                   "outstanding_bands": outstanding,
                   "next_frame_id": self._next_seq})
        if self.broker._tel.enabled:
            self.broker._tel.counter("stream.stalls").inc()
        log.warning(
            "%s stall: no band completion for %.2fs with %d bands "
            "outstanding (next frame %d); flight recorder dump: %s",
            self.name, waited_s, outstanding, self._next_seq,
            dump or "<unwritable>")

    def _recycle(self, slot):
        self._slot_items[slot] = None
        self._free.put(slot)

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release this session's slots back to the budget (idempotent).

        In-flight bands finish against unlinked (harmless) segments;
        workers are told to drop their cached mappings.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if self._held_slot is not None:
                self._recycle(self._held_slot)
                self._held_slot = None
            self._cond.notify_all()
        if self._feeder is not None and self._feeder is not threading.current_thread():
            self._feeder.join(timeout=2.0)
        self.broker._session_closed(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def stats(self) -> dict:
        return {
            "name": self.name,
            "delivered": self.delivered,
            "depth": self.depth,
            "weight": self.weight,
            "closed": self._closed,
        }


# ----------------------------------------------------------------------
# broker
# ----------------------------------------------------------------------
class StreamBroker:
    """Admission-controlled multi-stream front end over one worker fleet.

    Parameters
    ----------
    workers:
        Persistent worker-process count shared by every session.
    slot_budget:
        Total shared-memory frame slots across all admitted sessions
        (each session takes ``depth`` of them for its lifetime);
        :meth:`open` raises :class:`~repro.errors.AdmissionError` when
        the budget cannot cover another session.
    schedule, chunk:
        Band-granularity policy applied per session (see
        :func:`repro.parallel.partition.plan_bands`).
    context:
        Multiprocessing start method (``fork`` default).
    lut_cache:
        Optional shared :class:`~repro.core.lutcache.LUTCache`; one is
        created when omitted.  Sessions opened against the same
        calibration (field + build parameters + kernel tier) share one
        built LUT *and* one shared-memory table publication.
    max_inflight_bands:
        Cap on dispatched-but-uncompleted band items (default
        ``4 * workers``); keeps the fleet queue short so round-robin
        fairness acts at band granularity instead of deep in a FIFO.

    Telemetry is captured at construction time
    (:func:`~repro.obs.telemetry.get_telemetry`), as worker processes
    fork here — enable/scope a registry *before* building the broker.
    A dead worker dumps the flight recorder into the system temp
    directory.
    """

    #: metric/track namespace of this front end (``ring`` for the ring)
    _ns = "serve"

    def __init__(self, workers: int = 2, slot_budget: int = DEFAULT_SLOT_BUDGET,
                 schedule: str = "dynamic", chunk: int | None = None,
                 context: str = "fork", lut_cache: LUTCache | None = None,
                 max_inflight_bands: int | None = None):
        if workers < 1:
            raise ScheduleError(f"workers must be >= 1, got {workers}")
        if slot_budget < 1:
            raise ScheduleError(f"slot_budget must be >= 1, got {slot_budget}")
        if max_inflight_bands is not None and max_inflight_bands < 1:
            raise ScheduleError(
                f"max_inflight_bands must be >= 1, got {max_inflight_bands}")
        ns = self._ns
        self.workers = workers
        self.slot_budget = slot_budget
        self.schedule = schedule
        self.chunk = chunk
        self.lut_cache = lut_cache if lut_cache is not None else LUTCache()
        self.flightrec = FlightRecorder()
        self.sessions_admitted = 0
        self.admission_rejects = 0
        self._tel = get_telemetry()
        self._lock = threading.Lock()
        self._sessions: dict = {}          # sid -> StreamSession
        self._tables: dict = {}            # plan key -> (SharedTables, lut)
        self._slots_used = 0
        self._sid_gen = itertools.count()
        self._error: BaseException | None = None
        self._closed = False
        self._abort = threading.Event()
        self._sched = _FairScheduler()
        self._sched_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cap = (max_inflight_bands if max_inflight_bands
                              is not None else 4 * workers)

        from ..parallel.shmseg import ensure_resource_tracker
        ensure_resource_tracker()  # workers must inherit ONE tracker
        ctx = mp.get_context(context)
        self._task_q = ctx.Queue()
        self._done_q = ctx.Queue()
        self._ctrl_qs = [ctx.Queue() for _ in range(workers)]
        self._tel.gauge(f"{ns}.workers").set(workers)
        self._tel.gauge(f"{ns}.slot_budget").set(slot_budget)
        log.debug("starting %d %s workers (%s, budget %d slots)",
                  workers, ns, context, slot_budget)
        self._procs = []
        for rank in range(workers):
            p = ctx.Process(
                target=_worker_main,
                args=(rank, ns, self._task_q, self._done_q,
                      self._ctrl_qs[rank], self._tel.enabled),
                daemon=True, name=f"{ns}-worker-{rank}")
            p.start()
            self._procs.append(p)
        self._collector = threading.Thread(
            target=self._collect, name=f"{ns}-collect", daemon=True)
        self._collector.start()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def open(self, frames, field, *, name: str | None = None,
             method: str = "bilinear", border: str = "constant",
             fill: float = 0.0, kernel: str = "numpy", depth: int = 2,
             weight: int = 1, copy: bool = True,
             deadline_s: float | None = None,
             pixfmt: str = "rgb",
             out_size: tuple | None = None) -> StreamSession:
        """Admit a stream session; raises
        :class:`~repro.errors.AdmissionError` when ``depth`` slots do
        not fit the remaining budget.

        The first frame is pulled eagerly to size the session's slots
        (like :meth:`RingEngine.for_stream`), then corrected like the
        rest.  ``weight`` sets the session's share of the fleet under
        backlog (weighted round-robin); ``deadline_s`` arms the
        per-frame latency SLO counted by
        ``stream.deadline_miss{stream="<name>"}``.

        The session's tables, slot shapes and band plan come from one
        :class:`~repro.video.frameplan.FramePlan` built through the
        broker's shared :class:`~repro.core.lutcache.LUTCache`.
        ``pixfmt="yuv420"`` admits a planar session: ``frames`` must
        yield :class:`~repro.video.yuv.YUV420Frame` items whose luma
        geometry matches ``field``; a half-resolution chroma LUT is
        derived through the same cache, every frame is scheduled as
        per-plane bands over the fleet, and the session yields
        corrected :class:`YUV420Frame`\\ s with no RGB conversion
        anywhere on the path.  ``pixfmt="nv12"`` is the same planar
        pipeline over :class:`~repro.video.yuv.NV12Frame` items — the
        interleaved UV plane runs as one 2-channel band set (plane 1)
        against the same half-resolution chroma tables.

        ``out_size=(width, height)`` delivers at a smaller size
        through a **fused** correct+downscale table: the area-style
        downscale map is composed with ``field`` (per plane on planar
        sessions) via :meth:`~repro.core.lutcache.LUTCache
        .get_composed`, so every frame pays one gather pass whose
        traffic scales with the delivered size, and concurrent opens
        of the same composition build the table once.
        """
        if depth < 1:
            raise ScheduleError(f"depth must be >= 1, got {depth}")
        if pixfmt not in PIXFMTS:
            raise ScheduleError(
                f"unknown pixfmt {pixfmt!r}; known: {', '.join(PIXFMTS)}")
        sid, name = self._reserve(name, depth)
        try:
            # single-flight shared build: concurrent opens on one
            # calibration build (and publish) exactly once
            plan = FramePlan.for_field(
                field, pixfmt=pixfmt, out_size=out_size, method=method,
                border=border, fill=fill, kernel=kernel,
                lut_cache=self.lut_cache)
            it = iter(frames)
            slots = []
            for first in it:
                planes = plan.planes_of(first)
                slots = plan.slots(planes[0].shape, planes[0].dtype, depth)
                it = itertools.chain([first], it)
                break
            return self._admit(StreamSession(
                self, sid, name, it, plan, slots, depth, weight=weight,
                copy=copy, deadline_s=deadline_s, label=name))
        except BaseException:
            with self._lock:
                self._slots_used -= depth
            raise

    def _reserve(self, name, depth):
        """Book ``depth`` slots of the budget; returns ``(sid, name)``."""
        with self._lock:
            if self._closed:
                raise ScheduleError("stream broker already closed")
            if self._error is not None:
                raise self._error
            sid = next(self._sid_gen)
            if name is None:
                name = f"stream-{sid}"
            if self._slots_used + depth > self.slot_budget:
                self.admission_rejects += 1
                self._tel.counter(f"{self._ns}.admission_rejects").inc()
                raise AdmissionError(
                    f"cannot admit stream {name!r}: needs {depth} slots but "
                    f"only {self.slot_budget - self._slots_used} of "
                    f"{self.slot_budget} remain "
                    f"({len(self._sessions)} active sessions)")
            self._slots_used += depth
        return sid, name

    def _publish(self, plan: FramePlan):
        """The plan's shared tables, published once per key."""
        with self._lock:
            entry = self._tables.get(plan.key)
            if entry is None:
                entry = self._tables[plan.key] = (plan.publish(), plan.lut)
        return entry[0]

    def _admit(self, session: StreamSession) -> StreamSession:
        """Register a reserved session and start its feeder."""
        if session._slots:
            tables = self._publish(session._plan)
            # pickled once here, not with every band item
            session._desc = pickle.dumps(
                (session._plan.key, session._label, tables.spec, tables.meta,
                 [s.spec for s in session._slots]))
        with self._lock:
            self._sessions[session.sid] = session
            self.sessions_admitted += 1
        with self._sched_lock:
            self._sched.add_stream(session.sid, session.weight)
        session._start()  # feeder may push bands from here on
        ns = self._ns
        self._tel.gauge(f"{ns}.active_streams").set(len(self._sessions))
        self._tel.gauge(f"{ns}.slots_used").set(self._slots_used)
        self._tel.counter(f"{ns}.sessions").inc()
        log.debug("admitted stream %r (sid %d, depth %d, weight %d): "
                  "%d/%d slots in use", session.name, session.sid,
                  session.depth, session.weight, self._slots_used,
                  self.slot_budget)
        return session

    # ------------------------------------------------------------------
    # internals: scheduling + collection
    # ------------------------------------------------------------------
    def _submit(self, sid, bands) -> None:
        """Queue a frame's band items (feeder side) and dispatch."""
        with self._sched_lock:
            if sid not in self._sched._queues:
                return  # session removed while its feeder raced us
            for band in bands:
                self._sched.push(sid, band)
            self._pump()

    def _pump(self) -> None:
        """Move band items into the fleet queue, in round-robin order,
        while under the in-flight cap (caller holds ``_sched_lock``)."""
        while self._inflight < self._inflight_cap:
            picked = self._sched.pop()
            if picked is None:
                return
            sid, (seq, slot, plane, row0, row1) = picked
            session = self._sessions.get(sid)
            if session is None or session.closed:
                continue
            try:
                self._task_q.put((sid, seq, slot, plane, row0, row1,
                                  session._desc))
            except Exception:  # pragma: no cover - queue torn down
                return
            self._inflight += 1

    def _collect(self):
        tel, ns = self._tel, self._ns
        last_live_check = time.monotonic()
        while not self._abort.is_set():
            # a dead worker must be noticed even while the healthy
            # workers keep the completion queue busy (its in-flight
            # band is lost, so its frame would stall forever)
            if time.monotonic() - last_live_check > _POLL_S:
                self._check_workers()
                last_live_check = time.monotonic()
            t_wait = time.time()
            t0 = time.perf_counter()
            try:
                sid, seq, slot, rows, rank, delta, error = self._done_q.get(
                    timeout=_POLL_S)
            except _queue.Empty:
                continue
            with self._sched_lock:
                self._inflight -= 1
                self._pump()
            rec = self.flightrec
            rec.record("band_done", frame_id=seq, slot=slot, rows=rows,
                       worker=rank)
            if delta:
                for span in delta.get("spans", ()):
                    rec.record_span(span)
            if tel.enabled:
                dt = time.perf_counter() - t0
                tel.histogram(f"{ns}.deliver_wait_seconds").observe(dt)
                if delta:
                    tel.merge(delta)
                tel.add_span(f"{ns}.deliver", t_wait, dt, cat=ns,
                             tid=f"{ns}-deliver", args={"frame_id": seq})
            session = self._sessions.get(sid)
            if session is None:
                continue  # closed session's stale band: nobody cares
            if error is not None:
                where, cause = error
                session._fail(StreamError(
                    f"band (frame {seq}, slot {slot}, {where}) of stream "
                    f"{session.name!r} failed in {ns}-worker-{rank}: "
                    f"{cause}"))
                continue
            session._band_done(seq, slot)

    def _check_workers(self):
        for p in self._procs:
            if not p.is_alive():
                message = f"{p.name} died with exit code {p.exitcode} mid-stream"
                dump = self.flightrec.dump(
                    "worker-crash", error=message,
                    event={"kind": "worker_crash", "worker": p.name,
                           "exitcode": p.exitcode})
                if dump:
                    message += f" (flight recorder dump: {dump})"
                exc = StreamError(message, flight_dump=dump or None)
                log.error("%s", exc)
                self._error = exc
                with self._lock:
                    sessions = list(self._sessions.values())
                for s in sessions:
                    s._fail(exc)
                self._abort.set()
                return

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _session_closed(self, session: StreamSession) -> None:
        with self._lock:
            existed = self._sessions.pop(session.sid, None) is not None
            if existed:
                self._slots_used -= session.depth
        if not existed:
            return
        with self._sched_lock:
            self._sched.remove_stream(session.sid)
        for q in self._ctrl_qs:
            try:
                q.put(("forget", session.sid))
            except Exception:  # pragma: no cover - queue torn down
                pass
        if session._owns_slots:
            for seg in session._slots:
                seg.release()
        self._tel.gauge(f"{self._ns}.active_streams").set(len(self._sessions))
        self._tel.gauge(f"{self._ns}.slots_used").set(self._slots_used)

    @property
    def slots_used(self) -> int:
        with self._lock:
            return self._slots_used

    @property
    def active_streams(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict:
        with self._lock:
            sessions = list(self._sessions.values())
            slots_used = self._slots_used
        return {
            "workers": self.workers,
            "slot_budget": self.slot_budget,
            "slots_used": slots_used,
            "active_streams": len(sessions),
            "sessions_admitted": self.sessions_admitted,
            "admission_rejects": self.admission_rejects,
            "streams": [s.stats() for s in sessions],
            "lut_cache": self.lut_cache.stats(),
        }

    def close(self) -> None:
        """Close every session, stop the fleet, unlink all segments."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            sessions = list(self._sessions.values())
        for s in sessions:
            s.close()
        self._abort.set()
        self._collector.join(timeout=2.0)
        try:  # drop stale band items so pills are reached promptly
            while True:
                self._task_q.get_nowait()
        except (_queue.Empty, OSError, ValueError):
            pass
        for p in self._procs:
            if p.is_alive():
                try:
                    self._task_q.put(None)
                except Exception:  # pragma: no cover - queue torn down
                    pass
        for p in self._procs:
            p.join(timeout=2.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        for q in [self._task_q, self._done_q] + self._ctrl_qs:
            q.cancel_join_thread()
            q.close()
        for tables, _ in self._tables.values():
            tables.release()
        self._tables.clear()
        self._tel.gauge(f"{self._ns}.active_streams").set(0)
        self._tel.gauge(f"{self._ns}.slots_used").set(0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
