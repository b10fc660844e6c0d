"""batch-rgb720-ring: closed loop of 1280x720 RGB frames through
``corrected_stream(engine="ring", workers=2)``.

The kernel carries most of the work (a full-size 3-channel gather on a
23 MB table); ring dispatch, slot wait and in-order delivery sit on
every frame, and no cache or compose work runs after set-up.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.lutcache import LUTCache
from repro.core.remap import RemapLUT
from repro.video.stream import corrected_stream
from repro.video.synth import urban

from common import (Calibration, MemorySampler, Oracle, Outcome, Phases,
                    Tracer, median, pct, delivery_rate, timed_median)

W, H = 1280, 720
POOL = 4
SETUPS = 5
WORKERS = 2
WARMUP_S = 1.0


class _Source:
    """The frame source the ring pulls from (in the ring's decode thread).

    Records when each frame is handed over (``t_yield``) and when the
    ring comes back for the next one (``t_resume``).
    """

    def __init__(self, pool, corrupt=None):
        self.pool = pool
        self.corrupt = corrupt
        self.stop = False
        self.t_yield = []
        self.t_resume = []

    def __iter__(self):
        i = 0
        while not self.stop:
            frame = self.pool[i % len(self.pool)]
            if i == self.corrupt:
                frame = 255 - frame
            self.t_yield.append(time.perf_counter())
            yield frame
            self.t_resume.append(time.perf_counter())
            i += 1


def run(seed, seconds, trace, corrupt=None, probe_gbps=None):
    rng = np.random.default_rng(seed)
    cal = Calibration.draw(rng, W, H, zoom=0.5)
    scene_seeds = rng.integers(0, 2 ** 31, size=(POOL, 3))
    pool = [np.stack([urban(W, H, seed=int(s)) for s in seeds], axis=-1)
            for seeds in scene_seeds]

    tracer = Tracer(enabled=trace)
    oracle = Oracle()
    out = Outcome(oracle, tracer)

    # Oracle: the sync engine on every pool frame, before any timing.
    ref_field = cal.build_field(Tracer())
    oracle.refs = {i: (ref,) for i, ref in enumerate(
        corrected_stream(pool, ref_field, engine="sync", copy=True))}
    del ref_field

    mem = MemorySampler()
    mem.sample()
    setup_times = []
    stream = src = field = None
    for rep in range(SETUPS):
        if stream is not None:
            stream.close()
        src = _Source(pool, corrupt)
        fid = f"setup{rep}"
        t0 = time.perf_counter()
        with tracer.span("setup", fid):
            field = cal.build_field(tracer, fid)
            stream = corrected_stream(src, field, engine="ring",
                                      workers=WORKERS)
            with tracer.span("ring.first_frame", fid):
                first = next(stream)
        setup_times.append(time.perf_counter() - t0)
        oracle.check(0, (first,))
        mem.sample()

    # Timed loop on the last set-up's stream.
    phases = Phases(seconds, trace, WARMUP_S)
    tracer.enabled = False
    delivered = {p: [] for p in range(phases.count)}   # phase -> frame ids
    t_del = [time.perf_counter()]
    phases.start(t_del[0])
    i = 1
    error = None
    try:
        while True:
            with tracer.span("ring.next", i):
                try:
                    frame = next(stream)
                except StopIteration:
                    break
            now = time.perf_counter()
            t_del.append(now)
            phase = phases.at(now)
            if phase >= phases.count:
                src.stop = True          # drain what is in flight
                phase = phases.count - 1
            delivered[phase].append(i)
            with tracer.span("oracle.compare", i):
                oracle.check(i % POOL, (frame,))
            mem.maybe()
            tracer.enabled = trace and phases.at(time.perf_counter()) \
                == Phases.TRACED
            i += 1
    except Exception as exc:  # a stream failure fails the frames not seen
        error = f"ring stream raised {type(exc).__name__}: {exc}"
    finally:
        stream.close()
    missing = len(src.t_yield) - i
    oracle.fail(error or "frames pulled by the ring but never delivered",
                count=max(missing, 1) if error else missing, attempted=True)
    mem.sample()

    def latencies(ids):
        return [t_del[k] - src.t_yield[k] for k in ids]

    timed = delivered[Phases.UNTRACED]
    fps = delivery_rate([t_del[k] for k in timed])
    out.metric("fps", fps, "frames/s",
               f"n={len(timed)} frames, closed loop, {WORKERS} workers")
    out.latency(latencies(timed), "source yield to delivery")
    out.setup(setup_times, mem)
    if not trace or oracle.failed:
        return out

    # ---- per-layer, from the traced phase and same-run probes --------
    traced = delivered[Phases.TRACED]
    for k in traced:
        tracer.add("ring.service", src.t_yield[k], t_del[k], fid=k)
        if k < len(src.t_resume):
            tracer.add("ring.pull_gap", src.t_yield[k], src.t_resume[k], k)
    service_ms = [x * 1e3 for x in latencies(traced)]
    gaps_ms = [(src.t_resume[k] - src.t_yield[k]) * 1e3 for k in traced
               if k < len(src.t_resume)]
    out.span_layers({
        "mapping.field_build_s": "mapping.perspective_map",
        "ring.start_s": "ring.first_frame",
    })
    out.layer("ring.service_ms_p50", pct(service_ms, 50), "ms",
              f"n={len(service_ms)}")
    out.layer("ring.service_ms_p95", pct(service_ms, 95), "ms",
              f"n={len(service_ms)}")
    out.layer("ring.pull_gap_ms", median(gaps_ms), "ms",
              f"p50 of n={len(gaps_ms)}")

    lut = RemapLUT(field)
    dst = np.empty_like(pool[0])
    apply_s = median([timed_median(lambda f=f: lut.apply_into(f, dst), 3)
                      for f in pool])
    out.kernel(lut.traffic_per_frame(channels=3)["total_bytes"], apply_s,
               lut.nbytes, probe_gbps)
    out.layer("ring.speedup_vs_inline", fps * apply_s, "ratio",
              "untraced fps / (1 / kernel.apply)")

    cache = LUTCache(capacity=2)
    out.layer("lutcache.key_ms",
              timed_median(lambda: LUTCache.key_for(field), 3) * 1e3, "ms",
              "probe: key_for on the stream's field, p50 of 3")
    t0 = time.perf_counter()
    cache.get(field)
    out.layer("lutcache.get_miss_ms", (time.perf_counter() - t0) * 1e3, "ms",
              "probe: first get on a fresh cache")
    out.layer("lutcache.get_hit_ms",
              timed_median(lambda: cache.get(field), 3) * 1e3, "ms",
              "probe: p50 of 3 repeated gets")
    out.cache_ratio(cache.stats(), "probe")
    out.layer("shm.bytes_peak", mem.shm_peak, "bytes", "/dev/shm above start")
    out.overhead(latencies(timed), latencies(traced))
    return out
