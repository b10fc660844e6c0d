"""roi-patrol-1080: closed loop of 640x360 ROI views of a 1920x1080
luma source.

Every K frames the view switches to another of P seeded ROIs: the
switch calls ``LUTCache.get_composed(crop_field(...), undistort)`` on a
memory cache smaller than P, then frames go through ``apply_into``.
The set-up path (fingerprint, compose, table build, eviction) carries
most of the work; the kernel is small.

The switch order is a seeded tour of all P poses, each tour step
followed by two revisits of poses seen within the last three steps.
Under LRU with capacity C < P - 3 every tour step misses and every
revisit hits, so from the second cycle on each cycle makes exactly
P misses and 2P hits whatever the seed.  The first cycle is the
warm-up; phases end on cycle boundaries, so the timed phases always
see that mix (and p95 latency lands inside the hit switches).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.compose import composed_lut, crop_field
from repro.core.lutcache import LUTCache
from repro.video.synth import urban

from common import (Calibration, MemorySampler, Oracle, Outcome, Phases,
                    Tracer, delivery_rate, median, timed_median)

W, H = 1920, 1080
RW, RH = 640, 360
K = 10          # frames per view
P = 12          # distinct ROIs
CAPACITY = 8    # memory-cache entries, < P
POOL = 3
SETUPS = 5


def _poses(rng):
    poses = []
    for _ in range(P):
        scale = float(rng.uniform(0.9, 1.1))
        x0 = float(rng.uniform(0, W - 1 - (RW - 1) * scale))
        y0 = float(rng.uniform(0, H - 1 - (RH - 1) * scale))
        poses.append((x0, y0, scale))
    return poses


def _cycle(rng):
    tour = [int(p) for p in rng.permutation(P)]
    cycle = []
    for k, pose in enumerate(tour):
        recent = [tour[(k - j) % P] for j in (1, 2, 3)]
        r1, r2 = rng.choice(recent, size=2, replace=False)
        cycle += [pose, int(r1), int(r2)]
    return cycle


def run(seed, seconds, trace, corrupt=None, probe_gbps=None):
    rng = np.random.default_rng(seed)
    cal = Calibration.draw(rng, W, H, zoom=0.5)
    poses = _poses(rng)
    cycle = _cycle(rng)
    pool = [urban(W, H, seed=int(s)) for s in rng.integers(0, 2 ** 31, POOL)]

    def crop(pose_id):
        x0, y0, scale = poses[pose_id]
        return crop_field(RW, RH, x0, y0, W, H, scale=scale)

    tracer = Tracer(enabled=trace)
    oracle = Oracle()
    out = Outcome(oracle, tracer)

    # Oracle: a fresh (uncached) composed table per pose, every pool frame.
    ref_field = cal.build_field(Tracer())
    for p in range(P):
        lut = composed_lut(crop(p), ref_field)
        for f, frame in enumerate(pool):
            oracle.refs[(p, f)] = (lut.apply(frame),)
    del ref_field, lut

    mem = MemorySampler()
    mem.sample()
    dst = np.empty((RH, RW), np.uint8)
    setup_times = []
    for rep in range(SETUPS):
        fid = f"setup{rep}"
        t0 = time.perf_counter()
        with tracer.span("setup", fid):
            field = cal.build_field(tracer, fid)
            cache = LUTCache(capacity=CAPACITY)
            with tracer.span("lutcache.get_composed", fid):
                lut = cache.get_composed(crop(cycle[0]), field)
            with tracer.span("kernel.apply_into", fid):
                lut.apply_into(pool[0], dst)
        setup_times.append(time.perf_counter() - t0)
        oracle.check((cycle[0], 0), (dst,))
        mem.sample()

    # Timed loop: whole cycles; warm-up is the first cycle.
    phases = Phases(seconds, trace, 0.0)
    tracer.enabled = False
    frames_per_cycle = K * len(cycle)
    t_src, t_del = [0.0], [time.perf_counter()]
    lookups = []                      # (frame, hit?) per switch
    phase_frames = {p: [] for p in range(phases.count)}
    phase_stats = {}
    k, phase = 1, Phases.WARMUP
    t_phase = None
    try:
        while True:
            if k % frames_per_cycle == 0:           # cycle boundary
                now = time.perf_counter()
                if phase == Phases.WARMUP or now - t_phase >= phases.lengths[phase]:
                    if phase != Phases.WARMUP:
                        phase_stats[phase] = (phase_stats[phase], cache.stats())
                    phase += 1
                    if phase == phases.count:
                        break
                    t_phase = now
                    phase_stats[phase] = cache.stats()
                    tracer.enabled = trace and phase == Phases.TRACED
            t_src.append(time.perf_counter())
            with tracer.span("frame", k):
                frame = pool[k % POOL]
                if k == corrupt:
                    frame = 255 - frame
                if k % K == 0:
                    hits = cache.hits
                    with tracer.span("lutcache.get_composed", k):
                        with tracer.span("compose.crop_field", k):
                            outer = crop(cycle[(k // K) % len(cycle)])
                        lut = cache.get_composed(outer, field)
                    lookups.append((k, cache.hits > hits))
                with tracer.span("kernel.apply_into", k):
                    lut.apply_into(frame, dst)
            t_del.append(time.perf_counter())
            with tracer.span("oracle.compare", k):
                oracle.check((cycle[(k // K) % len(cycle)], k % POOL), (dst,))
            if phase:
                phase_frames[phase].append(k)
            mem.maybe()
            k += 1
    except Exception as exc:  # a failing call fails the frame it served
        oracle.fail(f"frame {k} raised {type(exc).__name__}: {exc}",
                    attempted=True)
    mem.sample()

    def latencies(ids):
        return [t_del[j] - t_src[j] for j in ids]

    timed = phase_frames[Phases.UNTRACED]
    out.metric("fps", delivery_rate([t_del[j] for j in timed]), "frames/s",
               f"n={len(timed)} frames, closed loop, 1 client, "
               f"{len(timed) // frames_per_cycle} cycles of {len(cycle)} "
               f"switches every {K} frames")
    out.latency(latencies(timed), "source pull to delivery")
    out.setup(setup_times, mem)
    if not trace or oracle.failed:
        return out

    # ---- per-layer, from the traced phase and same-run probes --------
    traced = phase_frames[Phases.TRACED]
    first = traced[0]
    hit_frames = {j for j, hit in lookups if hit}
    hit_ms, miss_ms = [], []
    for name, t0, t1, _parent, fid in tracer.spans:
        if name == "lutcache.get_composed" and isinstance(fid, int) \
                and fid >= first:
            (hit_ms if fid in hit_frames else miss_ms).append((t1 - t0) * 1e3)
    out.layer("lutcache.get_hit_ms", median(hit_ms), "ms",
              f"p50 of n={len(hit_ms)} switches")
    out.layer("lutcache.get_miss_ms", median(miss_ms), "ms",
              f"p50 of n={len(miss_ms)} switches")
    before, after = phase_stats[Phases.TRACED]
    out.cache_ratio({key: after[key] - before[key]
                     for key in ("hits", "misses")}, "traced phase")
    outer = crop(cycle[0])
    out.layer("lutcache.key_ms", timed_median(
        lambda: LUTCache.key_for_composed(outer, field), 3) * 1e3, "ms",
        "probe: key_for_composed of one ROI, p50 of 3")
    out.span_layers({
        "mapping.field_build_s": "mapping.perspective_map",
    })
    apply_s = [t1 - t0 for name, t0, t1, _parent, fid in tracer.spans
               if name == "kernel.apply_into" and isinstance(fid, int)]
    out.kernel(lut.traffic_per_frame()["total_bytes"], median(apply_s),
               lut.nbytes * len(cache), probe_gbps)
    out.layer("shm.bytes_peak", mem.shm_peak, "bytes", "/dev/shm above start")
    out.overhead(latencies(timed), latencies(traced))
    return out
