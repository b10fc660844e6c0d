"""Single-stream streaming engine: a broker with one session.

The paper's Cell BE result rests on double buffering — DMA of tile
*k+1* overlaps computation of tile *k*.  A fork-join executor such as
:class:`~repro.parallel.threadpool.ThreadedExecutor` does not have that
property at frame granularity: ``run`` dispatches one frame's bands,
waits for all of them, and returns before the next frame may even be
decoded.  :class:`RingEngine` lifts the overlap into the shipping host
pipeline; it is the package's one process engine.

It is a :class:`~repro.serve.broker.StreamBroker` that runs one session
per stream over its own fleet, so the ring and the multi-stream broker
share one worker function, one feeder / collector / in-order delivery
core and one crash-handling path:

- a bounded **frame ring** of ``depth`` shared-memory slots (input and
  output planes, sized once at construction from the
  :class:`~repro.video.frameplan.FramePlan` of the given tables);
- a feeder thread copies source frames into free slots and blocks
  while the ring is full (backpressure: memory stays bounded at
  ``depth`` frames no matter how slow the consumer is);
- **persistent worker processes** pull ``(slot, plane, band)`` items
  from one shared queue — frame *k+1*'s bands start the moment a
  worker frees up, with no barrier at frame edges, so the
  ``dynamic``/``guided`` policies that
  :func:`repro.parallel.schedule.simulate` models are executed here,
  not simulated (:func:`plan_bands` only chooses the granularity).
  Planar (yuv420/nv12) rings schedule full-height luma bands next to
  half-height chroma bands, so the fleet interleaves planes and frames
  freely;
- :meth:`RingEngine.stream` yields frames strictly in input order
  while later frames keep computing behind it.

Telemetry uses the ``ring`` namespace of the shared core (see
:mod:`repro.serve.broker`): ``ring.depth`` / ``ring.in_flight`` gauges,
``ring.slot_wait_seconds`` / ``ring.band_seconds`` /
``ring.deliver_wait_seconds`` histograms, ``ring.frames`` /
``ring.bands`` (``ring.bands{plane=...}`` on planar rings) counters,
per-worker ``ring.worker.<rank>.busy_seconds``, and spans on
``ring-decode`` / ``ring-worker-<rank>`` / ``ring-deliver`` tracks plus
one ``frame.lifecycle`` span per frame on ``ring-frames`` — the
frame-level analogue of the modeled F5 DMA-overlap experiment.

SLO enforcement: ``deadline_s`` counts deliveries whose end-to-end
latency exceeded the per-frame deadline (``stream.deadline_miss``);
``stall_timeout_s`` arms the watchdog — when bands are outstanding but
none has completed for that long it increments ``stream.stalls``, logs
a structured warning and dumps the flight recorder, which a worker
crash dumps too; the dump path travels on
:attr:`~repro.errors.StreamError.flight_dump`.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..errors import ScheduleError
from ..core.image import Frame
from ..core.remap import RemapLUT
from ..obs.flightrec import DEFAULT_FLIGHT_CAPACITY, FlightRecorder
from ..serve.broker import StreamBroker, StreamSession
from ..video.frameplan import FramePlan
from ..video.yuv import NV12Frame, YUV420Frame
from .partition import RING_SCHEDULES, plan_bands

__all__ = ["RingEngine", "ring_stream", "plan_bands", "MAX_RING_DEPTH",
           "RING_SCHEDULES"]

#: hard cap on ring depth — each slot holds a full input + output frame
#: in shared memory, so unbounded depth is an unbounded allocation.
MAX_RING_DEPTH = 32


class RingEngine(StreamBroker):
    """Bounded shared-memory frame ring with persistent band workers.

    Parameters
    ----------
    lut:
        The frozen remap table (published once into shared memory).
    frame_shape, frame_dtype:
        Geometry of the source frames (fixed for the engine's life —
        the ring slots are sized once); the luma shape on planar rings.
    workers:
        Persistent worker-process count.
    depth:
        Ring slots, i.e. maximum frames in flight (decode + compute +
        undelivered).  ``depth=1`` degenerates to fork-join behaviour;
        ``depth>=2`` gives frame-level double buffering.  Capped at
        :data:`MAX_RING_DEPTH` since each slot owns a full input +
        output frame of shared memory.
    schedule, chunk:
        Band-granularity policy; see :func:`plan_bands`.
    context:
        Multiprocessing start method (``fork`` default, ``spawn``
        supported).
    deadline_s:
        Per-frame latency SLO: deliveries whose hand-over-to-delivery
        latency exceeds this many seconds increment the
        ``stream.deadline_miss`` counter.  ``None`` (default) disables
        the check.
    stall_timeout_s:
        Watchdog: when bands are outstanding but none has completed
        for this many seconds, increment ``stream.stalls``, log a
        warning and dump the flight recorder (once per stall episode).
        ``None`` (default) disables the watchdog.
    flight_dir, flight_capacity:
        Where crash/stall flight-recorder dumps land (default: the
        system temp dir) and how many trailing events the recorder
        keeps.
    chroma_lut, pixfmt:
        A half-resolution chroma table makes the ring planar;
        ``pixfmt`` (``yuv420`` or ``nv12``) names the plane layout.

    Use as a context manager, or call :meth:`close` — though dropping
    an engine without closing it is safe too: every segment group
    carries a GC/atexit finalizer (see :mod:`repro.parallel.shmseg`).
    """

    name = "ring"
    _ns = "ring"

    def __init__(self, lut: RemapLUT, frame_shape, frame_dtype=np.uint8,
                 workers: int = 2, depth: int = 2, schedule: str = "dynamic",
                 chunk: int | None = None, context: str = "fork",
                 deadline_s: float | None = None,
                 stall_timeout_s: float | None = None,
                 flight_dir=None,
                 flight_capacity: int = DEFAULT_FLIGHT_CAPACITY,
                 chroma_lut: RemapLUT | None = None,
                 pixfmt: str = "yuv420"):
        if workers < 1:
            raise ScheduleError(f"workers must be >= 1, got {workers}")
        if depth < 1:
            raise ScheduleError(f"depth must be >= 1, got {depth}")
        if deadline_s is not None and not deadline_s > 0:
            raise ScheduleError(f"deadline_s must be > 0, got {deadline_s}")
        if stall_timeout_s is not None and not stall_timeout_s > 0:
            raise ScheduleError(
                f"stall_timeout_s must be > 0, got {stall_timeout_s}")
        if depth > MAX_RING_DEPTH:
            raise ScheduleError(
                f"depth {depth} exceeds MAX_RING_DEPTH ({MAX_RING_DEPTH}); "
                f"each slot allocates a full frame pair in shared memory")
        self.plan = FramePlan.from_luts(lut, chroma_lut, pixfmt)
        self.frame_shape = tuple(frame_shape)
        self.frame_dtype = np.dtype(frame_dtype)
        #: band items as ``(plane, row0, row1)`` — per-plane on planar
        #: rings (luma bands over the full output height, chroma bands
        #: over half), a single plane 0 otherwise.
        self.bands = self.plan.bands(workers, schedule, chunk)
        self._slots = self.plan.slots(self.frame_shape, self.frame_dtype,
                                      depth)
        # publish before the fleet forks: post-fork allocations in the
        # parent would break copy-on-write sharing with the workers
        tables = self.plan.publish()
        self.depth = depth
        self.deadline_s = deadline_s
        self.stall_timeout_s = stall_timeout_s
        #: high-water mark of simultaneously occupied slots (observable
        #: backpressure witness; also exported as the ``ring.in_flight``
        #: gauge).
        self.max_in_flight = 0
        self._streaming = False
        # one session has no fairness to protect, so every band of
        # every slot may be queued at once, as the frames arrive
        super().__init__(workers=workers, slot_budget=depth,
                         schedule=schedule, chunk=chunk, context=context,
                         max_inflight_bands=depth * len(self.bands))
        self.flightrec = FlightRecorder(capacity=flight_capacity,
                                        directory=flight_dir)
        self._tables[self.plan.key] = (tables, lut)
        self._tel.gauge("ring.depth").set(depth)

    @property
    def _segment_groups(self) -> list:
        """Every shared segment group the ring owns (slots + tables)."""
        return list(self._slots) + [t for t, _ in self._tables.values()]

    def close(self):
        """Stop workers and unlink every shared segment (idempotent)."""
        super().close()
        for slot in self._slots:
            slot.release()

    # ------------------------------------------------------------------
    def stream(self, frames, copy: bool = False):
        """Correct ``frames`` through the ring; yield strictly in order.

        Parameters
        ----------
        frames:
            Iterable of ndarrays or :class:`~repro.core.image.Frame`
            (or planar frames on a planar ring) matching the bound
            geometry.
        copy:
            When false (default) each yielded frame aliases the slot's
            shared output buffer, which is recycled when the consumer
            advances — consume or copy before the next iteration, like
            any zero-copy decoder API.  When true each frame owns its
            data and the slot recycles immediately.

        Raises
        ------
        StreamError
            If a worker dies or a band fails mid-stream (all shared
            segments are released first).
        ScheduleError
            On geometry mismatch or concurrent/closed use.
        """
        if self._closed:
            raise ScheduleError("ring engine already closed")
        if self._streaming:
            raise ScheduleError("ring engine supports one active stream at a time")
        self._streaming = True
        session = None
        clean = False
        try:
            sid, name = self._reserve(self.name, self.depth)
            session = self._admit(StreamSession(
                self, sid, name, frames, self.plan, self._slots, self.depth,
                copy=copy, deadline_s=self.deadline_s,
                stall_timeout_s=self.stall_timeout_s, owns_slots=False))
            yield from session
            clean = True
        finally:
            self._streaming = False
            if session is not None:
                self.max_in_flight = max(self.max_in_flight,
                                         session.max_in_flight)
            if not clean:
                # abandoned or failed mid-stream: stale band tasks may
                # still reference slots — the engine cannot be reused.
                self.close()

    # ------------------------------------------------------------------
    @classmethod
    def for_stream(cls, lut: RemapLUT, first_frame, **kwargs) -> "RingEngine":
        """Build an engine sized from the first frame of a stream.

        A :class:`~repro.video.yuv.YUV420Frame` or
        :class:`~repro.video.yuv.NV12Frame` first frame selects the
        planar ring (pass ``chroma_lut=`` alongside); NV12 pins
        ``pixfmt="nv12"`` so band scheduling uses the single
        interleaved chroma plane.
        """
        if isinstance(first_frame, (YUV420Frame, NV12Frame)):
            if kwargs.get("chroma_lut") is None:
                raise ScheduleError(
                    f"{type(first_frame).__name__} streams need a "
                    "chroma_lut for the planar ring")
            kwargs.setdefault(
                "pixfmt",
                "nv12" if isinstance(first_frame, NV12Frame) else "yuv420")
            return cls(lut, first_frame.y.shape, first_frame.y.dtype, **kwargs)
        data = first_frame.data if isinstance(first_frame, Frame) else np.asarray(first_frame)
        return cls(lut, data.shape, data.dtype, **kwargs)


def ring_stream(lut: RemapLUT, frames, copy: bool = False, **kwargs):
    """One-shot helper: build a ring from the stream's first frame,
    run the whole stream through it, and close the engine.

    The geometry is taken from the first frame (the engine binds to
    fixed shapes), so the source iterable may be a generator.  YUV420
    and NV12 sources (with ``chroma_lut=``) run through the planar
    ring and yield :class:`~repro.video.yuv.YUV420Frame` /
    :class:`~repro.video.yuv.NV12Frame` results respectively.
    """
    it = iter(frames)
    try:
        first = next(it)
    except StopIteration:
        return
    engine = RingEngine.for_stream(lut, first, **kwargs)
    with engine:
        yield from engine.stream(chain([first], it), copy=copy)
