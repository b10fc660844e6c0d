"""wall-nv12-4cam-serve: four 1280x720 NV12 cameras through one
``StreamBroker`` (via ``MultiStreamCorrector``), each delivered at
640x360 through fused tables, drained with ``merged``.

The fused kernel is small while every 1.38 MB frame is copied into
shared memory and banded across sessions, so broker, IPC and
scheduling dominate.

The gated workload is a closed loop: every camera hands over its next
frame as soon as its session's feeder asks, so the run measures the
broker's capacity.  ``open_loop=True`` runs the cameras on a fixed
schedule instead (about half of that capacity) and checks that the
generator kept up; on a 2-vCPU VM its latency swings with the host's
thread wake-up latency from run to run (see README.md).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.compose import downscale_field
from repro.core.lutcache import LUTCache
from repro.core.mapping import chroma_half_field
from repro.serve.service import MultiStreamCorrector
from repro.video.stream import corrected_stream
from repro.video.synth import urban
from repro.video.yuv import NV12Frame

from common import (Calibration, MemorySampler, Oracle, Outcome, Phases,
                    Tracer, median, pct, delivery_rate, slope, timed_median)

W, H = 1280, 720
OUT = (640, 360)
CAMS = 4
CAL_OF = (0, 0, 1, 1)        # two calibration pairs
# Open loop only: mean frames/s per camera (36 offered, about half the
# ~72 frames/s the closed loop measures) and per-camera rate factors,
# assigned by seed.  Unequal rates sweep the cameras' relative phases
# through every alignment within a run, so queueing between cameras
# does not hinge on the seeded phase offsets.
RATE = 9.0
RATE_FACTORS = (0.85, 0.95, 1.05, 1.15)
POOL = 4
SETUPS = 5
WORKERS = 2
WARMUP_S = 4.0
LEAD_S = 0.05                # schedule starts this long after set-up
# A run is invalid when the generator woke this late (p95) or when the
# backlog grew faster than this share of the offered rate.
LATE_LIMIT_MS = 20.0
BACKLOG_LIMIT = 0.02


class _Anchor:
    """Start signal shared by the camera sources of one set-up."""

    def __init__(self):
        self.event = threading.Event()
        self.t0 = None
        self.abort = False

    def go(self, t0=None, abort=False):
        self.t0, self.abort = t0, abort
        self.event.set()


class _Camera:
    """Frame source of one camera (runs in its feeder thread).

    Frame 0 is the set-up frame that ``open`` pulls at once.  Open loop
    (``rate`` given): frame ``i >= 1`` is due at
    ``t0 + phase + (i - 1) / rate`` and is handed over no earlier.
    Closed loop (``rate`` None): each frame is due when the feeder asks
    for it, until the anchor aborts.  ``due``, ``call`` (when the feeder
    asked) and ``given`` (when it was handed over) are recorded per
    frame.
    """

    def __init__(self, cam, pool, anchor, rate, phase, seconds,
                 corrupt=None):
        self.cam, self.pool, self.anchor = cam, pool, anchor
        self.rate, self.phase, self.corrupt = rate, phase, corrupt
        self.frames = 1 + int(np.ceil(seconds * rate)) if rate else None
        self.due, self.call, self.given = [None], [None], [None]

    def frame(self, i):
        f = self.pool[(self.cam + i) % len(self.pool)]
        if i == self.corrupt:
            f = NV12Frame(255 - f.y, f.uv)
        return f

    def __iter__(self):
        yield self.frame(0)
        self.anchor.event.wait()
        i = 1
        while not self.anchor.abort and (self.frames is None
                                         or i < self.frames):
            call = time.perf_counter()
            due = call
            if self.rate:
                due = self.anchor.t0 + self.phase + (i - 1) / self.rate
                if due > call:
                    time.sleep(due - call)
            self.due.append(due)
            self.call.append(call)
            self.given.append(time.perf_counter())
            yield self.frame(i)
            i += 1


def run(seed, seconds, trace, corrupt=None, probe_gbps=None,
        open_loop=False):
    rng = np.random.default_rng(seed)
    cals = [Calibration.draw(rng, W, H, zoom=0.5),
            Calibration.draw(rng, W, H, zoom=0.65)]
    rates = RATE * rng.permutation(RATE_FACTORS)
    phase_off = rng.uniform(0.0, 1.0 / rates)
    pool = [NV12Frame.from_rgb(np.stack(
        [urban(W, H, seed=int(s)) for s in rng.integers(0, 2 ** 31, 3)],
        axis=-1)) for _ in range(POOL)]

    tracer = Tracer(enabled=trace)
    oracle = Oracle()
    out = Outcome(oracle, tracer)

    # Oracle: the sync engine on every pool frame, per calibration.
    for c, cal in enumerate(cals):
        ref_field = cal.build_field(Tracer())
        for p, ref in enumerate(corrected_stream(
                pool, ref_field, engine="sync", copy=True, pixfmt="nv12",
                out_size=OUT)):
            oracle.refs[(c, p)] = ref.planes
    del ref_field

    def key(cam, i):
        return (CAL_OF[cam], (cam + i) % POOL)

    phases = Phases(seconds, trace, WARMUP_S)
    mem = MemorySampler()
    mem.sample()
    setup_times = []
    svc = merged = anchor = cams = fields = None
    for rep in range(SETUPS):
        if svc is not None:
            anchor.go(abort=True)
            merged.close()
            svc.close()
            svc = merged = cams = fields = None
        anchor = _Anchor()
        fid = f"setup{rep}"
        t0 = time.perf_counter()
        with tracer.span("setup", fid):
            # Workers fork first, from the smallest parent.
            with tracer.span("serve.broker_start", fid):
                svc = MultiStreamCorrector(workers=WORKERS,
                                           lut_cache=LUTCache())
            fields = [cal.build_field(tracer, fid) for cal in cals]
            cams, sessions = [], []
            for c in range(CAMS):
                cams.append(_Camera(c, pool, anchor,
                                    rates[c] if open_loop else None,
                                    phase_off[c],
                                    sum(phases.lengths),
                                    corrupt if c == 0 else None))
                with tracer.span("serve.open", fid):
                    sessions.append(svc.open_stream(
                        cams[c], fields[CAL_OF[c]], name=str(c),
                        pixfmt="nv12", out_size=OUT))
            merged = svc.merged(sessions)
            firsts = {}
            with tracer.span("serve.first_frames", fid):
                while len(firsts) < CAMS:
                    name, frame = next(merged)
                    firsts[int(name)] = frame
        setup_times.append(time.perf_counter() - t0)
        for c, frame in firsts.items():
            oracle.check(key(c, 0), frame.planes)
        mem.sample()
    cache_stats = svc.broker.lut_cache.stats()

    # Timed schedule on the last set-up's service.
    tracer.enabled = False
    t_del = [[None] for _ in range(CAMS)]       # per camera, per frame
    t_start = time.perf_counter() + LEAD_S
    phases.start(t_start)
    anchor.go(t_start)
    traced_from = phases.bounds(Phases.TRACED)[0] if trace else None
    error = None
    try:
        while True:
            with tracer.span("serve.next"):
                try:
                    name, frame = next(merged)
                except StopIteration:
                    break
            now = time.perf_counter()
            c = int(name)
            i = len(t_del[c])
            t_del[c].append(now)
            with tracer.span("oracle.compare", (c, i)):
                oracle.check(key(c, i), frame.planes)
            mem.maybe()
            if not open_loop and now >= phases.bounds(phases.count - 1)[1]:
                anchor.abort = True      # closed loop: drain what is in flight
            tracer.enabled = trace and time.perf_counter() >= traced_from
    except Exception as exc:  # a stream failure fails the frames not seen
        error = f"serve stream raised {type(exc).__name__}: {exc}"
    finally:
        merged.close()
        svc.close()
    missing = sum((cam.frames or len(cam.given)) - len(t_del[c])
                  for c, cam in enumerate(cams))
    oracle.fail(error or "frames never delivered",
                count=max(missing, 1) if error else missing, attempted=True)
    mem.sample()

    def frames_in(phase):
        lo, hi = phases.bounds(phase)
        return [(c, i) for c in range(CAMS)
                for i in range(1, len(t_del[c]))
                if lo <= cams[c].due[i] < hi]

    def validity(ids, phase):
        """Generator lateness (p95, ms) and backlog growth (frames/s)."""
        late = [(cams[c].given[i] - max(cams[c].due[i], cams[c].call[i]))
                * 1e3 for c, i in ids]
        lo, hi = phases.bounds(phase)
        dues = np.sort([cams[c].due[i] for c, i in ids])
        dels = np.sort([t_del[c][i] for c, i in ids])
        backlog = (np.searchsorted(dues, dels, side="right")
                   - np.arange(1, len(dels) + 1))
        return pct(late, 95), slope(dels - lo, backlog)

    timed = frames_in(Phases.UNTRACED)
    fps = delivery_rate([t_del[c][i] for c, i in timed])
    lat = [t_del[c][i] - cams[c].due[i] for c, i in timed]
    if open_loop:
        offered = float(sum(rates))
        late_p95, backlog_slope = validity(timed, Phases.UNTRACED)
        out.notes = [f"loadgen late p95 {late_p95:.3f} ms, backlog slope "
                     f"{backlog_slope:.4f} frames/s (untraced phase)"]
        if late_p95 > LATE_LIMIT_MS \
                or backlog_slope > BACKLOG_LIMIT * offered:
            out.invalid = (f"open loop not sustained: generator late p95 "
                           f"{late_p95:.2f} ms (limit {LATE_LIMIT_MS}), "
                           f"backlog slope {backlog_slope:.3f} frames/s "
                           f"(limit {BACKLOG_LIMIT * offered:.3f})")
        loop = f"open loop, offered {offered:g} frames/s"
        what = "due time to delivery"
    else:
        loop = "closed loop, 1 client per camera"
        what = "source hand-over to delivery"
    out.metric("fps", fps, "frames/s",
               f"n={len(timed)} frames, {loop}, {CAMS} cameras")
    out.latency(lat, what)
    out.setup(setup_times, mem)
    if not trace or oracle.failed:
        return out

    # ---- per-layer, from the traced phase and same-run probes --------
    traced = frames_in(Phases.TRACED)
    admit_ms, service_ms, per_cam = [], [], [[] for _ in range(CAMS)]
    for c, i in traced:
        cam = cams[c]
        tracer.add("serve.admit_wait", cam.due[i], cam.given[i], (c, i))
        tracer.add("serve.service", cam.given[i], t_del[c][i], (c, i))
        admit_ms.append((cam.given[i] - cam.due[i]) * 1e3)
        service_ms.append((t_del[c][i] - cam.given[i]) * 1e3)
        per_cam[c].append(t_del[c][i] - cam.due[i])
    n = len(traced)
    out.span_layers({
        "mapping.field_build_s": "mapping.perspective_map",
        "serve.open_s": "serve.open",
    })
    out.layer("serve.admit_wait_ms_p50", pct(admit_ms, 50), "ms", f"n={n}")
    out.layer("serve.admit_wait_ms_p95", pct(admit_ms, 95), "ms", f"n={n}")
    out.layer("serve.service_ms_p50", pct(service_ms, 50), "ms", f"n={n}")
    out.layer("serve.service_ms_p95", pct(service_ms, 95), "ms", f"n={n}")
    cam_p50 = [median(x) for x in per_cam]
    out.layer("serve.stream_skew", max(cam_p50) / min(cam_p50), "ratio",
              "max / min per-camera p50 latency")
    if open_loop:
        late_p95, backlog_slope = validity(traced, Phases.TRACED)
        out.layer("loadgen.late_p95_ms", late_p95, "ms", f"n={n}")
        out.layer("loadgen.backlog_slope", backlog_slope, "frames/s",
                  "least-squares slope of due-minus-delivered")

    # Kernel: the same fused tables, applied in-process to pool frames.
    cache = LUTCache()
    tables = []
    for field in fields:
        fh, fw = field.shape
        outer = downscale_field(OUT[0], OUT[1], fw, fh, prefilter=False)
        outer_c = downscale_field(OUT[0] // 2, OUT[1] // 2, fw // 2,
                                  fh // 2, prefilter=False)
        tables.append((cache.get_composed(outer, field),
                       cache.get_composed(outer_c, chroma_half_field(field),
                                          fill=128.0)))
    y_out = np.empty(OUT[::-1], np.uint8)
    uv_out = np.empty((OUT[1] // 2, OUT[0] // 2, 2), np.uint8)

    def apply(luma, chroma, f):
        luma.apply_into(f.y, y_out)
        chroma.apply_into(f.uv, uv_out)

    apply_s = median([timed_median(lambda t=t, f=f: apply(*t, f), 5)
                      for t in tables for f in pool])
    luma, chroma = tables[0]
    out.kernel(luma.traffic_per_frame()["total_bytes"]
               + chroma.traffic_per_frame(channels=2)["total_bytes"],
               apply_s, sum(l.nbytes for t in tables for l in t), probe_gbps)

    field = fields[0]
    fh, fw = field.shape
    outer = downscale_field(OUT[0], OUT[1], fw, fh, prefilter=False)
    out.layer("lutcache.key_ms", timed_median(
        lambda: LUTCache.key_for_composed(outer, field), 3) * 1e3, "ms",
        "probe: key_for_composed of a camera's luma table, p50 of 3")
    probe = LUTCache()
    t0 = time.perf_counter()
    probe.get_composed(outer, field)
    out.layer("lutcache.get_miss_ms", (time.perf_counter() - t0) * 1e3, "ms",
              "probe: first get_composed on a fresh cache")
    out.layer("lutcache.get_hit_ms", timed_median(
        lambda: probe.get_composed(outer, field), 3) * 1e3, "ms",
        "probe: p50 of 3 repeated get_composed")
    out.cache_ratio(cache_stats, "the broker's opens")
    out.layer("shm.bytes_peak", mem.shm_peak, "bytes", "/dev/shm above start")
    out.overhead(lat, [t_del[c][i] - cams[c].due[i] for c, i in traced])
    return out
