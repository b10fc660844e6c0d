#!/usr/bin/env python
"""Same-run A/B: the tiled planar gather-MAC loop vs the row-major loop.

    PYTHONPATH=src python benchmarks/kernel_loop_ab.py [--pairs N]

Times ``RemapLUT.apply_into`` (the shipping loop) against the
row-major reference kernels kept in ``tests/test_gather_mac.py`` (the
float ``_accumulate`` + ``_store_epilogue`` pair and the Q-format
``q_apply_block`` the loop replaced, with their scratch reused across
calls as the replaced kernel's pool did, and the fixed tier walking
64-row blocks as it did) on the same frame and table,
for the numpy and fixed tiers, at 1080p gray and 720p RGB bilinear.
Calls alternate order pair by pair; the speedup is the median of the
per-pair time ratios with a bootstrap 95% CI
(:func:`repro.bench.stats.robust_summary`).  Each pair's outputs are
checked bit-identical first.  Prints one markdown table row per case.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))

from repro.bench.harness import standard_field  # noqa: E402
from repro.bench.stats import robust_summary  # noqa: E402
from repro.core.remap import RemapLUT  # noqa: E402
from test_gather_mac import _reference  # noqa: E402

CASES = (("1080p gray", 1920, 1080, 1), ("720p RGB", 1280, 720, 3))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def ab(width, height, channels, tier, pairs):
    field = standard_field(width, height)
    lut = RemapLUT(field, method="bilinear", tier=tier)
    shape = (height, width) if channels == 1 else (height, width, channels)
    image = np.random.default_rng(0).integers(0, 256, shape, dtype=np.uint8)
    out = np.empty_like(image)
    scratch = {}
    new = lambda: lut.apply_into(image, out)  # noqa: E731
    ref = lambda: _reference(tier, lut, image, 0, height, scratch,  # noqa: E731
                             block_rows=None if tier == "numpy" else 64)
    new()
    if not np.array_equal(ref(), out):
        raise SystemExit(f"{tier} {width}x{height}: outputs differ")
    t_new, t_ref = np.empty(pairs), np.empty(pairs)
    for i in range(pairs):
        if i % 2:
            t_new[i], t_ref[i] = _timed(new), _timed(ref)
        else:
            t_ref[i], t_new[i] = _timed(ref), _timed(new)
    return (robust_summary(t_ref), robust_summary(t_new),
            robust_summary(t_ref / t_new))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=21)
    args = parser.parse_args(argv)
    print("| case | tier | row-major ms | tiled planar ms | speedup [95% CI] |")
    print("|---|---|---|---|---|")
    for name, w, h, c in CASES:
        for tier in ("numpy", "fixed"):
            ref, new, ratio = ab(w, h, c, tier, args.pairs)
            print(f"| {name} | {tier} | {ref.median * 1e3:.1f} | "
                  f"{new.median * 1e3:.1f} | {ratio.median:.2f}x "
                  f"[{ratio.ci_low:.2f}, {ratio.ci_high:.2f}] |", flush=True)


if __name__ == "__main__":
    main()
