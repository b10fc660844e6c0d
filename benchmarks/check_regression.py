#!/usr/bin/env python
"""Fast perf-regression gate for the fused LUT kernel.

Smoke-runs the two experiments most sensitive to the remap hot path
(F7 LUT-vs-OTF and F1 multicore scaling) at VGA so their invariants
still hold, then times the fused bilinear apply on a 1080p frame and
compares it against the pre-compact-layout baseline recorded in
``BENCH_baseline.json`` at the repo root.  The same measurement doubles
as the telemetry overhead gate: with the global registry disabled (the
default), ``apply_into`` must stay within ``overhead_tolerance`` (5%)
of the pre-telemetry ``fused_apply_into_s`` baseline.

As a side effect the gate writes ``BENCH_metrics.json`` next to the
baseline: a telemetry snapshot of an instrumented VGA correction run,
so CI archives the counter/histogram shape alongside the timings.

The kernel-tier gate times the numpy/fixed/compiled ladder on the same
bilinear uint8 workload and enforces the Q-format quality floor
(``KERNEL_PSNR_MIN`` dB vs the float oracle) everywhere; the
``COMPILED_SPEEDUP_MIN`` (2x) compiled-vs-fused gate is enforced only
on hosts with numba installed and enough cores, auto-skipping
elsewhere.  Measurements land in ``BENCH_kernels.json`` with the host
core count and numba version in the metadata.

The streaming gate runs the same 1080p bilinear workload through the
fork-join :class:`ThreadedExecutor` (``run`` dispatches one frame's
bands and joins them) and the persistent-worker :class:`RingEngine`
and requires the ring to win by
``STREAM_SPEEDUP_MIN`` (1.3x).  That ratio is only meaningful with
real cores, so the full gate is enforced when ``os.cpu_count() >= 4``
(the CI reference machine); on smaller hosts — and always under
``--smoke`` — a reduced configuration runs instead, enforcing only
correctness and a conservative fps floor.  Either way the measured
numbers land in ``BENCH_stream.json`` (with a ``mode`` field saying
which gate ran) so CI archives the streaming trend alongside the
kernel timings.

The multi-stream serve gate drives 4 and 16 concurrent sessions of
value-encoded VGA frames through one shared :mod:`repro.serve` worker
fleet and compares the aggregate throughput against a single
sequentially-multiplexed stream over the same frames.  Full mode
(>= 4 cores) enforces ``SERVE_SPEEDUP_MIN`` (1.5x); the reduced smoke
enforces strict per-stream in-order delivery plus a conservative
aggregate fps floor.  Numbers land in ``BENCH_serve.json``.

The fused correct+downscale gate builds the composed single-pass table
for a 4K -> 1080p delivery (VGA -> QVGA under ``--smoke``) and races
it against the naive correct-then-downscale pipeline: the composed
table must gather ``FUSED_BYTES_RATIO_MIN`` (1.8x) fewer bytes and —
on the CI reference machine — win the wall clock by
``FUSED_SPEEDUP_MIN`` (1.5x), while staying above the
``FUSED_PSNR_MIN`` (40 dB) quality floor against the two-pass
reference (or within 1 dB of it when both are scored against the
float-precision gold render).  Numbers land in ``BENCH_fused.json``.

The live-surface gate runs a small instrumented ring stream with the
stall watchdog armed and scrapes its ``/metrics`` and ``/health``
endpoints over HTTP mid-run: the exposition must parse, the per-frame
e2e latency histogram must be populated, and ``stream.stalls`` must
stay 0.  It is a separate leg so the timing gates above keep measuring
the uninstrumented hot path.

Exit status 0 = no regression; 1 = the fused kernel has become slower
than the old per-tap kernel it replaced, telemetry leaked overhead
into the disabled hot path, the ring lost its streaming advantage, or
an invariant broke.

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_regression.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.experiments import f1_multicore_scaling, f7_lut_vs_otf  # noqa: E402
from repro.bench.harness import capture_metrics, standard_field, resolution  # noqa: E402
from repro.core.remap import RemapLUT                            # noqa: E402
from repro.obs import write_metrics                              # noqa: E402
from repro.video import synth                                    # noqa: E402

BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_baseline.json")
METRICS_PATH = os.path.join(REPO_ROOT, "BENCH_metrics.json")
STREAM_PATH = os.path.join(REPO_ROOT, "BENCH_stream.json")
KERNELS_PATH = os.path.join(REPO_ROOT, "BENCH_kernels.json")
SERVE_PATH = os.path.join(REPO_ROOT, "BENCH_serve.json")
YUV_PATH = os.path.join(REPO_ROOT, "BENCH_yuv.json")
FUSED_PATH = os.path.join(REPO_ROOT, "BENCH_fused.json")
REPEATS = 5

#: compiled tier must beat the fused numpy kernel by this factor on
#: 1080p bilinear uint8 (enforced only where numba is installed and the
#: full configuration runs; the smoke fallback records without gating).
COMPILED_SPEEDUP_MIN = 2.0
#: quality floor for the Q-format tiers vs the float oracle (dB).
KERNEL_PSNR_MIN = 40.0

#: full streaming gate: ring must beat fork-join by this factor on the
#: CI reference machine (1080p bilinear, 64 frames, 4 workers).
STREAM_SPEEDUP_MIN = 1.3
#: cores needed for the speedup ratio to mean anything; below this the
#: reduced smoke configuration runs instead.
STREAM_FULL_MIN_CORES = 4
#: conservative end-to-end floor for the reduced smoke (VGA, 2 workers)
STREAM_SMOKE_FPS_FLOOR = 2.0

#: full multi-stream gate: the broker's aggregate throughput must beat
#: a single sequentially-multiplexed stream by this factor on the CI
#: reference machine (VGA bilinear, shared calibration).
SERVE_SPEEDUP_MIN = 1.5
#: conservative aggregate floor for the reduced smoke (1-core CI).
SERVE_SMOKE_FPS_FLOOR = 2.0

#: planar YUV420 gate: bytes actually touched per frame (gather traffic
#: plus output stores) must shrink by this factor vs correcting the
#: same content as packed RGB — the zero-copy no-conversion payoff.
YUV_BYTES_RATIO_MIN = 1.7
#: reconciliation gate: the measured per-frame DMA ledger (actual LUT
#: index spans per band, table bytes, output bytes) must land within
#: this relative error of ``CellModel.planar_dma_profile``.
YUV_DMA_TOLERANCE = 0.15

#: fused correct+downscale gate: the composed single-pass table must
#: gather this many times fewer bytes than correct-then-downscale on
#: the same content (enforced in both full and smoke modes — the ratio
#: is a property of the tables, not the host).
FUSED_BYTES_RATIO_MIN = 1.8
#: full fused gate: single-pass wall clock must beat the two-pass
#: pipeline by this factor on the CI reference machine (4K -> 1080p).
FUSED_SPEEDUP_MIN = 1.5
#: conservative wall-clock floor for the reduced smoke configuration.
FUSED_SMOKE_SPEEDUP_FLOOR = 1.2
#: quality floor: fused output vs the two-pass reference (dB).  A
#: fused result that misses the absolute floor still passes if it sits
#: within ``FUSED_PSNR_DELTA_MAX`` dB of the two-pass pipeline when
#: both are scored against the float-precision gold render.
FUSED_PSNR_MIN = 40.0
FUSED_PSNR_DELTA_MAX = 1.0


def _check(label: str, ok: bool, detail: str) -> bool:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def smoke_experiments() -> bool:
    """The cheap invariant sweep: both experiments still tell their story."""
    print("== smoke: F7 LUT vs on-the-fly (VGA) ==")
    t7 = f7_lut_vs_otf(res="VGA")
    adv = dict(zip(t7.column("platform"), t7.column("lut_advantage")))
    ok = _check("sequential favours LUT", adv["sequential"] > 1.5,
                f"advantage {adv['sequential']:.2f}")
    ok &= _check("host(numpy) favours LUT", adv["host(numpy)"] > 1.5,
                 f"advantage {adv['host(numpy)']:.2f}")

    print("== smoke: F1 multicore scaling (VGA) ==")
    t1 = f1_multicore_scaling(resolutions=("VGA",))
    speedups = t1.column("speedup")
    ok &= _check("parallel speedup positive", all(s > 0 for s in speedups),
                 f"min speedup {min(speedups):.2f}")
    return ok


def time_fused_apply() -> float:
    """Best-of-N fused bilinear apply on a 1080p frame (steady state)."""
    w, h = resolution("1080p")
    field = standard_field(w, h)
    frame = synth.urban(w, h)
    lut = RemapLUT(field, method="bilinear")
    out = np.empty(lut.out_shape, dtype=frame.dtype)
    lut.apply_into(frame, out)  # warmup: derive + cache the weight table
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        lut.apply_into(frame, out)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_stream(full: bool) -> dict:
    """Time fork-join vs ring on the same streaming workload.

    Both engines see an identical frame source (panning crops of an
    urban world — a stand-in decode step with real per-frame cost) and
    the same prebuilt LUT, so the measured ratio isolates the engine:
    per-frame fork-join barriers vs persistent workers with frame-level
    overlap.
    """
    from repro.parallel.ring import RingEngine
    from repro.parallel.threadpool import ThreadedExecutor
    from repro.video.stream import panning_crops

    if full:
        res, frames_n, workers, depth = "1080p", 64, 4, 4
    else:
        res, frames_n, workers, depth = "VGA", 12, 2, 2
    w, h = resolution(res)
    field = standard_field(w, h)
    lut = RemapLUT(field, method="bilinear")
    world = synth.urban(w + 128, h + 128)

    def source():
        return panning_crops(world, w, h, frames_n, step=16)

    reference = lut.apply(next(source()))

    ex = ThreadedExecutor(workers=workers, bands_per_worker=2)
    try:
        out = np.empty(lut.out_shape, dtype=np.uint8)
        ex.run(lut, next(source()), out=out)  # warmup (pool + weight table)
        t0 = time.perf_counter()
        for frame in source():
            ex.run(lut, frame, out=out)
        forkjoin_s = time.perf_counter() - t0
    finally:
        ex.close()

    engine = RingEngine(lut, (h, w), np.uint8, workers=workers, depth=depth,
                        schedule="dynamic")
    try:
        first = None
        delivered = 0
        t0 = time.perf_counter()
        for corrected in engine.stream(source()):
            if first is None:
                first = corrected.copy()
            delivered += 1
        ring_s = time.perf_counter() - t0
    finally:
        engine.close()

    return {
        "mode": "full" if full else "smoke",
        "cpu_count": os.cpu_count(),
        "resolution": res,
        "frames": frames_n,
        "workers": workers,
        "depth": depth,
        "schedule": "dynamic",
        "method": "bilinear",
        "forkjoin_engine": ex.name,
        "forkjoin_fps": frames_n / forkjoin_s,
        "ring_fps": delivered / ring_s,
        "ring_speedup": forkjoin_s / ring_s,
        "ring_max_in_flight": engine.max_in_flight,
        "delivered": delivered,
        "first_frame_exact": bool(np.array_equal(first, reference)),
        "speedup_gate": STREAM_SPEEDUP_MIN if full else None,
        "fps_floor": None if full else STREAM_SMOKE_FPS_FLOOR,
    }


def bench_kernels(full: bool) -> dict:
    """Time the kernel-tier ladder on one bilinear uint8 workload.

    Measures every tier executable on this host (numpy always, fixed
    always, compiled when numba imports) on the same LUT and frame,
    plus the fixed-tier PSNR against the float oracle — the number the
    quality gate enforces.  Full mode uses the 1080p gate workload;
    smoke drops to VGA.
    """
    from repro.core.kernel_tiers import (
        DEFAULT_FRAC_BITS, available_tiers, kernel_tier, numba_available,
        numba_version)
    from repro.core.quality import psnr

    res = "1080p" if full else "VGA"
    w, h = resolution(res)
    field = standard_field(w, h)
    frame = synth.urban(w, h)
    base = RemapLUT(field, method="bilinear")

    # float oracle: the numpy tier run at float precision, rounded the
    # way the integer epilogue rounds
    oracle_f = base.apply(frame.astype(np.float32))
    oracle = np.clip(np.rint(oracle_f), 0, 255).astype(np.uint8)

    timings = {}
    outputs = {}
    for tier in available_tiers():
        lut = base.with_tier(tier)
        out = np.empty(lut.out_shape, dtype=frame.dtype)
        lut.apply_into(frame, out)  # warmup (derive tables / JIT)
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            lut.apply_into(frame, out)
            best = min(best, time.perf_counter() - t0)
        timings[tier] = best
        outputs[tier] = out.copy()

    result = {
        "mode": "full" if full else "smoke",
        "resolution": res,
        "method": "bilinear",
        "dtype": "uint8",
        "frac_bits": DEFAULT_FRAC_BITS,
        "cpu_count": os.cpu_count(),
        "numba_available": numba_available(),
        "numba_version": numba_version(),
        "best_tier": kernel_tier(),
        "tiers_measured": sorted(timings),
        "tier_seconds": {t: timings[t] for t in sorted(timings)},
        "psnr_fixed_db": float(psnr(oracle, outputs["fixed"])),
        "fixed_vs_numpy_exact": bool(
            np.abs(outputs["fixed"].astype(np.int16)
                   - outputs["numpy"].astype(np.int16)).max() <= 1),
    }
    if "compiled" in timings:
        result["compiled_speedup_vs_numpy"] = timings["numpy"] / timings["compiled"]
        result["psnr_compiled_db"] = float(psnr(oracle, outputs["compiled"]))
        result["compiled_matches_fixed"] = bool(
            np.array_equal(outputs["compiled"], outputs["fixed"]))
    return result


def check_kernels(smoke: bool) -> bool:
    """The kernel-tier ladder gate; writes ``BENCH_kernels.json``.

    The PSNR floor is enforced everywhere (the fixed tier runs on any
    host and is bit-exact with the compiled tier).  The compiled
    speedup gate is enforced only in full mode on a host with numba —
    elsewhere it auto-skips (recorded, not gated), matching the
    CI legs that run without the ``[speed]`` extra.
    """
    from repro.core.kernel_tiers import numba_available

    full = not smoke and (os.cpu_count() or 1) >= STREAM_FULL_MIN_CORES
    print(f"== kernel tiers: numpy / fixed / compiled "
          f"({'full gate' if full else 'reduced smoke'}) ==")
    result = bench_kernels(full)
    with open(KERNELS_PATH, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    ok = _check(f"fixed tier PSNR >= {KERNEL_PSNR_MIN} dB vs float oracle",
                result["psnr_fixed_db"] >= KERNEL_PSNR_MIN,
                f"{result['psnr_fixed_db']:.1f} dB at Q{result['frac_bits']}")
    ok &= _check("fixed tier within 1 LSB of numpy tier",
                 result["fixed_vs_numpy_exact"], "max |delta| <= 1")
    if numba_available():
        ok &= _check("compiled tier bit-exact with fixed tier",
                     result["compiled_matches_fixed"], "identical outputs")
        detail = (f"compiled {result['tier_seconds']['compiled'] * 1e3:.1f} ms "
                  f"vs numpy {result['tier_seconds']['numpy'] * 1e3:.1f} ms "
                  f"({result['compiled_speedup_vs_numpy']:.2f}x)")
        if full:
            ok &= _check(f"compiled beats fused numpy by {COMPILED_SPEEDUP_MIN}x",
                         result["compiled_speedup_vs_numpy"] >= COMPILED_SPEEDUP_MIN,
                         detail)
        else:
            _check("compiled speedup (recorded, not gated)", True, detail)
    else:
        print("  [skip] compiled tier: numba not installed "
              "(pip install repro[speed])")
    print(f"  -> {os.path.relpath(KERNELS_PATH, REPO_ROOT)} "
          f"(mode={result['mode']})")
    return ok


def check_stream(smoke: bool) -> bool:
    """The streaming throughput gate; writes ``BENCH_stream.json``."""
    full = not smoke and (os.cpu_count() or 1) >= STREAM_FULL_MIN_CORES
    print(f"== streaming: ring vs fork-join "
          f"({'full gate' if full else 'reduced smoke'}) ==")
    result = bench_stream(full)
    with open(STREAM_PATH, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    ok = _check("ring delivered every frame",
                result["delivered"] == result["frames"],
                f"{result['delivered']}/{result['frames']}")
    ok &= _check("ring output matches sequential kernel",
                 result["first_frame_exact"], "first frame exact")
    ok &= _check("ring kept frames in flight",
                 result["ring_max_in_flight"] >= 2,
                 f"max in flight {result['ring_max_in_flight']} "
                 f"(depth {result['depth']})")
    detail = (f"ring {result['ring_fps']:.1f} fps vs fork-join "
              f"{result['forkjoin_fps']:.1f} fps "
              f"({result['ring_speedup']:.2f}x)")
    if full:
        ok &= _check(f"ring beats fork-join by {STREAM_SPEEDUP_MIN}x",
                     result["ring_speedup"] >= STREAM_SPEEDUP_MIN, detail)
    else:
        ok &= _check(f"ring above {STREAM_SMOKE_FPS_FLOOR} fps floor",
                     result["ring_fps"] >= STREAM_SMOKE_FPS_FLOOR, detail)
    print(f"  -> {os.path.relpath(STREAM_PATH, REPO_ROOT)} "
          f"(mode={result['mode']})")
    return ok


def bench_serve(full: bool) -> dict:
    """Time the multi-stream broker against sequential multiplexing.

    Both sides correct the identical set of frames (N streams of
    value-encoded constant VGA frames, one shared calibration).  The
    baseline drains the streams round-robin through one inline fused
    kernel — what a host without :mod:`repro.serve` would do — while
    the broker multiplexes all N sessions onto one shared worker
    fleet.  Strict per-stream ordering is verified on every delivered
    frame (the centre pixel encodes ``(stream, index)``), so the gate
    is a correctness check even where the speedup is not enforced.
    """
    from repro.serve import MultiStreamCorrector

    res = "VGA"
    w, h = resolution(res)
    field = standard_field(w, h)
    lut = RemapLUT(field, method="bilinear")
    workers = 4 if full else 2
    per_stream = {4: 16, 16: 4} if full else {4: 3, 16: 2}

    def value(sid, k):
        return (sid * 29 + k) % 251

    def const_frames(sid, n):
        for k in range(n):
            yield np.full((h, w), value(sid, k), dtype=np.uint8)

    lut.apply_into(np.full((h, w), 7, dtype=np.uint8),
                   np.empty(lut.out_shape, dtype=np.uint8))  # warmup
    cy, cx = lut.out_shape[0] // 2, lut.out_shape[1] // 2
    runs = []
    for streams in (4, 16):
        n = per_stream[streams]
        total = streams * n

        # baseline: one thread, one kernel, streams drained round-robin
        out = np.empty(lut.out_shape, dtype=np.uint8)
        t0 = time.perf_counter()
        for k in range(n):
            for sid in range(streams):
                lut.apply_into(np.full((h, w), value(sid, k), dtype=np.uint8),
                               out)
        seq_s = time.perf_counter() - t0

        order_ok = True
        with MultiStreamCorrector(workers=workers,
                                  slot_budget=2 * streams) as svc:
            sessions = [svc.open_stream(const_frames(i, n), field,
                                        name=f"s{i}")
                        for i in range(streams)]
            seen = {s.name: [] for s in sessions}
            t0 = time.perf_counter()
            for name, frame in svc.merged(sessions):
                seen[name].append(int(frame[cy, cx]))
            serve_s = time.perf_counter() - t0
        for i in range(streams):
            if seen[f"s{i}"] != [value(i, k) for k in range(n)]:
                order_ok = False
        runs.append({
            "streams": streams,
            "frames_per_stream": n,
            "total_frames": total,
            "sequential_fps": total / seq_s,
            "aggregate_fps": total / serve_s,
            "speedup_vs_sequential": seq_s / serve_s,
            "in_order": order_ok,
        })

    return {
        "mode": "full" if full else "smoke",
        "cpu_count": os.cpu_count(),
        "resolution": res,
        "method": "bilinear",
        "workers": workers,
        "runs": runs,
        "speedup_gate": SERVE_SPEEDUP_MIN if full else None,
        "fps_floor": None if full else SERVE_SMOKE_FPS_FLOOR,
    }


def check_serve(smoke: bool) -> bool:
    """The multi-stream service gate; writes ``BENCH_serve.json``.

    Full mode (>= ``STREAM_FULL_MIN_CORES`` cores, no ``--smoke``)
    enforces ``SERVE_SPEEDUP_MIN`` aggregate speedup over sequential
    multiplexing at 4 and 16 concurrent streams; the reduced smoke
    enforces strict per-stream ordering plus a conservative aggregate
    fps floor, so 1-core CI still catches a broken or glacial broker.
    """
    full = not smoke and (os.cpu_count() or 1) >= STREAM_FULL_MIN_CORES
    print(f"== multi-stream serve: broker vs sequential multiplex "
          f"({'full gate' if full else 'reduced smoke'}) ==")
    result = bench_serve(full)
    with open(SERVE_PATH, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    ok = True
    for run in result["runs"]:
        streams = run["streams"]
        ok &= _check(f"{streams} streams strictly in order per stream",
                     run["in_order"],
                     f"{run['total_frames']} frames through "
                     f"{result['workers']} workers")
        detail = (f"aggregate {run['aggregate_fps']:.1f} fps vs sequential "
                  f"{run['sequential_fps']:.1f} fps "
                  f"({run['speedup_vs_sequential']:.2f}x)")
        if full:
            ok &= _check(
                f"{streams} streams beat sequential by {SERVE_SPEEDUP_MIN}x",
                run["speedup_vs_sequential"] >= SERVE_SPEEDUP_MIN, detail)
        else:
            ok &= _check(
                f"{streams} streams above {SERVE_SMOKE_FPS_FLOOR} fps floor",
                run["aggregate_fps"] >= SERVE_SMOKE_FPS_FLOOR, detail)
    print(f"  -> {os.path.relpath(SERVE_PATH, REPO_ROOT)} "
          f"(mode={result['mode']})")
    return ok


def _measured_dma_ledger(lut, tile_rows: int, pixel_bytes: int = 1) -> dict:
    """Per-frame DMA bytes a banded engine actually needs, from the LUT.

    Walks the concrete gather table in ``tile_rows`` output bands: each
    band's source traffic is the byte span of the source bounding box
    its taps really address (what a DMA engine would fetch), plus the
    band's share of the table itself and its output stores.  This is
    the measured side of the reconciliation against
    :meth:`CellModel.planar_dma_profile`, which computes the same
    ledger analytically from the coordinate field.
    """
    oh, ow = lut.out_shape
    sw = lut.src_shape[1]
    idx = lut.indices
    mask = None if lut.mask is None else np.asarray(lut.mask).reshape(-1)
    src_bytes = 0
    tiles = 0
    for r0 in range(0, oh, tile_rows):
        r1 = min(oh, r0 + tile_rows)
        sel = idx[r0 * ow:r1 * ow]
        if mask is not None:
            sel = sel[mask[r0 * ow:r1 * ow]]
        tiles += 1
        if sel.size == 0:
            continue
        rows = sel // sw
        cols = sel % sw
        src_bytes += (int(rows.max()) - int(rows.min()) + 1) \
            * (int(cols.max()) - int(cols.min()) + 1) * pixel_bytes
    n = idx.shape[0]
    lut_bytes = n * lut.entry_bytes()
    out_bytes = n * pixel_bytes
    return {
        "tiles": tiles,
        "src_bytes": src_bytes,
        "lut_bytes": lut_bytes,
        "out_bytes": out_bytes,
        "total_bytes": src_bytes + lut_bytes + out_bytes,
    }


def bench_yuv(full: bool) -> dict:
    """Measure the planar YUV420 fast path against the packed baseline.

    Four independent facts go into ``BENCH_yuv.json``: per-plane
    bit-exactness against the single-plane oracle, the bytes-touched
    ratio vs packed RGB on identical content, in-order delivery of
    per-plane bands under both the ring engine and a broker session,
    and the measured-vs-modeled DMA ledger reconciliation.
    """
    from repro.accel.cellbe import CellModel
    from repro.accel.platform import Workload
    from repro.serve.broker import StreamBroker
    from repro.video.stream import corrected_stream
    from repro.video.yuv import YUV420Frame, YUVCorrector

    res = "1080p" if full else "VGA"
    w, h = resolution(res)
    field = standard_field(w, h)
    corr = YUVCorrector.from_field(field)
    oh, ow = corr.luma_lut.out_shape

    y = synth.urban(w, h)
    u = np.linspace(96, 160, w // 2, dtype=np.float64)[None, :] \
        * np.ones((h // 2, 1))
    v = np.linspace(160, 96, h // 2, dtype=np.float64)[:, None] \
        * np.ones((1, w // 2))
    frame = YUV420Frame(y, u.astype(np.uint8), v.astype(np.uint8))

    # per-plane result vs the single-plane oracle (same LUTs, one
    # plane at a time through the public apply)
    out = corr.correct(frame, copy=True)
    plane_exact = (np.array_equal(out.y, corr.luma_lut.apply(frame.y))
                   and np.array_equal(out.u, corr.chroma_lut.apply(frame.u))
                   and np.array_equal(out.v, corr.chroma_lut.apply(frame.v)))

    # bytes actually touched: gather traffic + output stores, planar
    # vs the same content corrected as packed RGB through one LUT
    _, snap_yuv = capture_metrics(corr.correct, frame)
    yuv_bytes = (snap_yuv["counters"]["remap.bytes_gathered"]
                 + out.y.nbytes + out.u.nbytes + out.v.nbytes)
    rgb = frame.to_rgb()
    rgb_out = np.empty((oh, ow, 3), dtype=np.uint8)
    _, snap_rgb = capture_metrics(corr.luma_lut.apply_into, rgb, rgb_out)
    rgb_bytes = (snap_rgb["counters"]["remap.bytes_gathered"]
                 + rgb_out.nbytes)
    bytes_ratio = rgb_bytes / yuv_bytes

    # in-order delivery of per-plane bands: value-encoded frames
    # through the planar ring engine and a planar broker session
    n_frames = 8 if full else 6

    def value(k):
        return (k * 37 + 11) % 251

    def frames_src():
        for k in range(n_frames):
            yield YUV420Frame(
                np.full((h, w), value(k), dtype=np.uint8),
                np.full((h // 2, w // 2), 90, dtype=np.uint8),
                np.full((h // 2, w // 2), 170, dtype=np.uint8))

    expected = [corr.correct(f, copy=True) for f in frames_src()]

    def in_order(got):
        if len(got) != n_frames:
            return False
        return all(
            np.array_equal(g.y, e.y) and np.array_equal(g.u, e.u)
            and np.array_equal(g.v, e.v)
            for g, e in zip(got, expected))

    ring_got = list(corrected_stream(frames_src(), field, pixfmt="yuv420",
                                     engine="ring", workers=2, depth=2,
                                     copy=True))
    ring_in_order = in_order(ring_got)

    with StreamBroker(workers=2, slot_budget=4) as broker:
        serve_got = list(broker.open(frames_src(), field, name="yuv-gate",
                                     pixfmt="yuv420", depth=2))
    serve_in_order = in_order(serve_got)

    # measured-vs-modeled DMA ledger, identical tiling on both sides
    tile_rows = 64
    model = CellModel()
    wl_y = Workload.from_field(field,
                               lut_entry_bytes=corr.luma_lut.entry_bytes())
    wl_c = Workload.from_field(corr.chroma_field,
                               lut_entry_bytes=corr.chroma_lut.entry_bytes())
    modeled = model.planar_dma_profile({"y": wl_y, "u": wl_c, "v": wl_c},
                                       tile_rows=tile_rows)
    meas_y = _measured_dma_ledger(corr.luma_lut, tile_rows)
    meas_c = _measured_dma_ledger(corr.chroma_lut, max(1, tile_rows // 2))
    measured_total = meas_y["total_bytes"] + 2 * meas_c["total_bytes"]
    dma_rel_err = abs(measured_total - modeled["total_bytes"]) \
        / modeled["total_bytes"]

    return {
        "mode": "full" if full else "smoke",
        "cpu_count": os.cpu_count(),
        "resolution": res,
        "frames": n_frames,
        "method": "bilinear",
        "plane_exact": plane_exact,
        "yuv_bytes_per_frame": int(yuv_bytes),
        "rgb_bytes_per_frame": int(rgb_bytes),
        "bytes_ratio": bytes_ratio,
        "bytes_ratio_gate": YUV_BYTES_RATIO_MIN,
        "ring_in_order": ring_in_order,
        "serve_in_order": serve_in_order,
        "tile_rows": tile_rows,
        "measured_dma_bytes": int(measured_total),
        "modeled_dma_bytes": int(modeled["total_bytes"]),
        "dma_rel_err": dma_rel_err,
        "dma_tolerance": YUV_DMA_TOLERANCE,
        "measured_planes": {"y": meas_y, "u": meas_c, "v": meas_c},
        "modeled_planes": {k: {kk: vv for kk, vv in p.items()}
                           for k, p in modeled["planes"].items()},
    }


def check_yuv(smoke: bool) -> bool:
    """The planar YUV420 gate; writes ``BENCH_yuv.json``."""
    full = not smoke and (os.cpu_count() or 1) >= STREAM_FULL_MIN_CORES
    print(f"== planar yuv420: bytes touched, ordering, DMA ledger "
          f"({'full 1080p' if full else 'reduced smoke VGA'}) ==")
    result = bench_yuv(full)
    with open(YUV_PATH, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    ok = _check("per-plane output bit-exact vs single-plane oracle",
                result["plane_exact"], "y, u, v all equal")
    ok &= _check(
        f"planar touches {YUV_BYTES_RATIO_MIN}x fewer bytes than RGB",
        result["bytes_ratio"] >= YUV_BYTES_RATIO_MIN,
        f"rgb {result['rgb_bytes_per_frame'] / 1e6:.1f} MB vs yuv "
        f"{result['yuv_bytes_per_frame'] / 1e6:.1f} MB per frame "
        f"({result['bytes_ratio']:.2f}x)")
    ok &= _check("ring delivers planar frames in order",
                 result["ring_in_order"],
                 f"{result['frames']} frames, per-plane bands")
    ok &= _check("broker session delivers planar frames in order",
                 result["serve_in_order"],
                 f"{result['frames']} frames through the shared fleet")
    ok &= _check(
        f"measured DMA within {YUV_DMA_TOLERANCE:.0%} of Cell model",
        result["dma_rel_err"] <= YUV_DMA_TOLERANCE,
        f"measured {result['measured_dma_bytes'] / 1e6:.2f} MB vs modeled "
        f"{result['modeled_dma_bytes'] / 1e6:.2f} MB "
        f"({result['dma_rel_err']:.1%} off)")
    print(f"  -> {os.path.relpath(YUV_PATH, REPO_ROOT)} "
          f"(mode={result['mode']})")
    return ok


def bench_fused(full: bool) -> dict:
    """Fused correct+downscale vs the two-pass pipeline on one frame.

    Builds the composed correct-then-downscale table (one gather at the
    delivered resolution) and races it against the naive pipeline that
    corrects at full resolution and then resamples the intermediate.
    Three facts go into ``BENCH_fused.json``: the bytes-gathered ratio
    (the fused table reads the source once at output density; the
    two-pass reads full-res gathers plus the intermediate), the
    wall-clock speedup, and the quality of the fused output against
    the two-pass reference and the float-precision gold render.  The
    modeled counterpart (``CellModel.fused_dma_profile``) is recorded
    alongside for the accelerator narrative.
    """
    from repro.accel.cellbe import CellModel
    from repro.accel.platform import Workload
    from repro.core.compose import compose_fields, downscale_field
    from repro.core.quality import psnr

    if full:
        w, h, ow, oh = 3840, 2160, 1920, 1080
        res = "4K->1080p"
    else:
        w, h, ow, oh = 640, 480, 320, 240
        res = "VGA->QVGA"
    # zoom=1.0: the composed map stays well-sampled everywhere, so the
    # fused single gather tracks the two-pass reference above the
    # absolute PSNR floor (heavy rim compression at wider zooms costs
    # ~3 dB and is covered by the gold-delta fallback instead).
    field = standard_field(w, h, zoom=1.0)
    frame = synth.urban(w, h)
    outer = downscale_field(ow, oh, w, h, prefilter=False)

    lut_corr = RemapLUT(field, method="bilinear")
    lut_down = RemapLUT(outer, method="bilinear")
    fused_field = compose_fields(outer, field)
    lut_fused = RemapLUT(fused_field, method="bilinear")

    mid = np.empty(lut_corr.out_shape, dtype=np.uint8)
    out_two = np.empty(lut_down.out_shape, dtype=np.uint8)
    out_fused = np.empty(lut_fused.out_shape, dtype=np.uint8)

    def two_pass():
        lut_corr.apply_into(frame, mid)
        lut_down.apply_into(mid, out_two)

    # bytes actually gathered by each side (instrumented single run)
    _, snap_two = capture_metrics(two_pass)
    two_bytes = snap_two["counters"]["remap.bytes_gathered"]
    _, snap_fused = capture_metrics(lut_fused.apply_into, frame, out_fused)
    fused_bytes = snap_fused["counters"]["remap.bytes_gathered"]
    bytes_ratio = two_bytes / fused_bytes

    # steady-state wall clock, best of REPEATS
    two_s = fused_s = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        two_pass()
        two_s = min(two_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        lut_fused.apply_into(frame, out_fused)
        fused_s = min(fused_s, time.perf_counter() - t0)

    # quality: fused vs the two-pass reference, plus both sides scored
    # against the float-precision gold render (no intermediate
    # quantization) for the delta fallback
    gold_f = lut_down.apply(lut_corr.apply(frame.astype(np.float32)))
    gold = np.clip(np.rint(gold_f), 0, 255).astype(np.uint8)
    psnr_vs_two = float(psnr(out_two, out_fused))
    psnr_two_gold = float(psnr(gold, out_two))
    psnr_fused_gold = float(psnr(gold, out_fused))

    # modeled DMA ledger of the same trade for the Cell narrative
    model = CellModel().fused_dma_profile(
        Workload.from_field(fused_field,
                            lut_entry_bytes=lut_fused.entry_bytes()),
        {"correct": Workload.from_field(
            field, lut_entry_bytes=lut_corr.entry_bytes()),
         "downscale": Workload.from_field(
             outer, lut_entry_bytes=lut_down.entry_bytes())})

    return {
        "mode": "full" if full else "smoke",
        "cpu_count": os.cpu_count(),
        "resolution": res,
        "src_size": [w, h],
        "out_size": [ow, oh],
        "method": "bilinear",
        "zoom": 1.0,
        "two_pass_s": two_s,
        "fused_s": fused_s,
        "speedup": two_s / fused_s,
        "two_pass_bytes_gathered": int(two_bytes),
        "fused_bytes_gathered": int(fused_bytes),
        "bytes_ratio": bytes_ratio,
        "psnr_fused_vs_two_pass_db": psnr_vs_two,
        "psnr_two_pass_gold_db": psnr_two_gold,
        "psnr_fused_gold_db": psnr_fused_gold,
        "modeled_savings_ratio": model["savings_ratio"],
        "modeled_fused_bytes": int(model["fused"]["total_bytes"]),
        "modeled_staged_bytes": int(model["staged_total_bytes"]),
        "bytes_ratio_gate": FUSED_BYTES_RATIO_MIN,
        "speedup_gate": FUSED_SPEEDUP_MIN if full
        else FUSED_SMOKE_SPEEDUP_FLOOR,
        "psnr_gate": FUSED_PSNR_MIN,
    }


def check_fused(smoke: bool) -> bool:
    """The fused correct+downscale gate; writes ``BENCH_fused.json``.

    The bytes-gathered ratio and the quality floor are enforced in
    both modes (they are properties of the tables, not the host); the
    ``FUSED_SPEEDUP_MIN`` wall-clock gate runs at 4K -> 1080p on the
    CI reference machine, with a conservative
    ``FUSED_SMOKE_SPEEDUP_FLOOR`` on the reduced configuration.
    """
    full = not smoke and (os.cpu_count() or 1) >= STREAM_FULL_MIN_CORES
    print(f"== fused correct+downscale vs two-pass "
          f"({'full 4K->1080p' if full else 'reduced smoke VGA->QVGA'}) ==")
    result = bench_fused(full)
    with open(FUSED_PATH, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    ok = _check(
        f"fused gathers {FUSED_BYTES_RATIO_MIN}x fewer bytes",
        result["bytes_ratio"] >= FUSED_BYTES_RATIO_MIN,
        f"two-pass {result['two_pass_bytes_gathered'] / 1e6:.1f} MB vs "
        f"fused {result['fused_bytes_gathered'] / 1e6:.1f} MB "
        f"({result['bytes_ratio']:.2f}x)")
    gate = FUSED_SPEEDUP_MIN if full else FUSED_SMOKE_SPEEDUP_FLOOR
    ok &= _check(
        f"fused beats two-pass wall clock by {gate}x",
        result["speedup"] >= gate,
        f"two-pass {result['two_pass_s'] * 1e3:.1f} ms vs fused "
        f"{result['fused_s'] * 1e3:.1f} ms ({result['speedup']:.2f}x)")
    quality_ok = (result["psnr_fused_vs_two_pass_db"] >= FUSED_PSNR_MIN
                  or result["psnr_fused_gold_db"]
                  >= result["psnr_two_pass_gold_db"] - FUSED_PSNR_DELTA_MAX)
    ok &= _check(
        f"fused within {FUSED_PSNR_MIN} dB floor or "
        f"{FUSED_PSNR_DELTA_MAX} dB of two-pass vs gold",
        quality_ok,
        f"{result['psnr_fused_vs_two_pass_db']:.1f} dB vs two-pass "
        f"(gold: fused {result['psnr_fused_gold_db']:.1f} dB, "
        f"two-pass {result['psnr_two_pass_gold_db']:.1f} dB)")
    _check("modeled DMA savings (recorded, not gated)", True,
           f"staged {result['modeled_staged_bytes'] / 1e6:.1f} MB vs fused "
           f"{result['modeled_fused_bytes'] / 1e6:.1f} MB "
           f"({result['modeled_savings_ratio']:.2f}x)")
    print(f"  -> {os.path.relpath(FUSED_PATH, REPO_ROOT)} "
          f"(mode={result['mode']})")
    return ok


def check_live_surface() -> bool:
    """The live observability gate: scrape a streaming run in-process.

    Runs a small ring stream (VGA, endless-safe frame count) with the
    stall watchdog armed and a :class:`MetricsServer` pinned to the
    run's registry, scrapes ``/metrics`` and ``/health`` over real HTTP
    mid-run, and checks the exposition parses, the e2e latency
    histogram is populated, and the watchdog never fired
    (``stream.stalls == 0``).  Deliberately separate from the timing
    legs above so the 5% disabled-overhead budget and the 1.3x
    ring-vs-forkjoin gate measure the uninstrumented hot path.
    """
    import json as _json
    import urllib.request

    from repro.obs import MetricsServer, parse_prometheus_text
    from repro.obs.telemetry import Telemetry, scoped
    from repro.video.stream import corrected_stream, panning_crops

    print("== live observability surface (ring + /metrics + /health) ==")
    w, h = resolution("VGA")
    field = standard_field(w, h)
    world = synth.urban(w + 64, h + 64)
    frames = panning_crops(world, w, h, 8, step=16)

    with scoped(Telemetry()) as tel, \
            MetricsServer(telemetry=tel, port=0) as server:
        delivered = 0
        metrics_text = health = None
        for _ in corrected_stream(frames, field, engine="ring", workers=2,
                                  depth=2, stall_timeout_s=30.0):
            delivered += 1
            if delivered == 4:  # scrape mid-stream, frames in flight
                with urllib.request.urlopen(server.url + "/metrics") as r:
                    metrics_text = r.read().decode()
                with urllib.request.urlopen(server.url + "/health") as r:
                    health = _json.loads(r.read().decode())
        snap = tel.snapshot()

    series = parse_prometheus_text(metrics_text)
    ok = _check("ring delivered every frame", delivered == 8,
                f"{delivered}/8")
    ok &= _check("/metrics parses and carries e2e latency",
                 "repro_frame_e2e_latency_seconds_count" in series,
                 f"{len(series)} series at scrape time")
    ok &= _check("/health reports ok", health is not None
                 and health.get("status") == "ok",
                 f"status={health.get('status') if health else '<none>'}")
    stalls = snap["counters"].get("stream.stalls", 0)
    ok &= _check("no watchdog fires", stalls == 0,
                 f"stream.stalls={stalls}")
    e2e = snap["histograms"].get("frame.e2e_latency_seconds", {})
    ok &= _check("e2e histogram complete", e2e.get("count") == 8,
                 f"count={e2e.get('count')}")
    return ok


def emit_metrics_snapshot() -> dict:
    """Instrumented VGA correction run -> telemetry snapshot on disk."""
    w, h = resolution("VGA")
    field = standard_field(w, h)
    frame = synth.urban(w, h)
    lut = RemapLUT(field, method="bilinear")
    out = np.empty(lut.out_shape, dtype=frame.dtype)

    def run():
        for _ in range(3):
            lut.apply_into(frame, out)

    _, snap = capture_metrics(run)
    write_metrics(snap, METRICS_PATH)
    return snap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="force the reduced streaming configuration "
                             "(small frames, fps floor instead of the 1.3x "
                             "gate) regardless of core count")
    args = parser.parse_args()
    with open(BASELINE_PATH) as fh:
        base = json.load(fh)

    ok = smoke_experiments()

    print("== fused apply vs seed baseline (1080p bilinear) ==")
    measured = time_fused_apply()
    seed = float(base["seed_apply_s"])
    ok &= _check("fused apply beats seed kernel", measured < seed,
                 f"measured {measured * 1e3:.1f} ms vs seed {seed * 1e3:.1f} ms "
                 f"({seed / measured:.2f}x)")

    print("== disabled-telemetry overhead vs pre-telemetry baseline ==")
    into_base = float(base["fused_apply_into_s"])
    tol = float(base.get("overhead_tolerance", 0.05))
    budget = into_base * (1.0 + tol)
    ok &= _check("disabled telemetry within budget", measured <= budget,
                 f"measured {measured * 1e3:.1f} ms vs budget {budget * 1e3:.1f} ms "
                 f"(baseline {into_base * 1e3:.1f} ms + {tol * 100:.0f}%)")

    print("== compact LUT entry sizes vs seed layout ==")
    for method in ("nearest", "bilinear", "bicubic"):
        entry = RemapLUT.entry_bytes_for(method)
        seed_entry = float(base["entry_bytes_seed"][method])
        ok &= _check(f"{method} entry >= 40% smaller", entry <= 0.6 * seed_entry,
                     f"{entry} B vs seed {seed_entry:.0f} B")

    ok &= check_kernels(smoke=args.smoke)

    ok &= check_stream(smoke=args.smoke)

    ok &= check_serve(smoke=args.smoke)

    ok &= check_yuv(smoke=args.smoke)

    ok &= check_fused(smoke=args.smoke)

    ok &= check_live_surface()

    print("== metrics snapshot ==")
    snap = emit_metrics_snapshot()
    frames = snap["counters"].get("remap.frames", 0)
    ok &= _check("snapshot recorded frames", frames > 0,
                 f"remap.frames={frames} -> {os.path.relpath(METRICS_PATH, REPO_ROOT)}")

    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
