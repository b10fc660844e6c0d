"""The correction system's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload built from ``--seed``, checks every delivered frame
bit-exact against a reference computed before timing, and prints each
metric with its unit and sample count, then one JSON result line:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  A trace run also writes its spans and per-layer self
times to ``.bench_out/`` in the checkout.

Exit codes: 0 all frames correct; 1 a frame failed; 2 the program's
sources are missing or the arguments are wrong; 3 the run was invalid
(an open loop that was not sustained) and reports no latency.

See ``perfbench/README.md`` for the workloads and what each metric is
expected to move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: workload name -> (module, options).  The gated ones must match
#: BENCHMARK.json; ``wall-nv12-4cam-serve-open`` is the open-loop
#: variant, run by hand (see README.md).
WORKLOADS = {
    "batch-rgb720-ring": ("batch_ring", {}),
    "wall-nv12-4cam-serve": ("wall_serve", {}),
    "roi-patrol-1080": ("roi_patrol", {}),
    "wall-nv12-4cam-serve-open": ("wall_serve", {"open_loop": True}),
}

#: metric name -> unit, in the order printed.  Must match BENCHMARK.json.
END_TO_END = {
    "fps": "frames/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "rss_peak_mb": "MiB",
}
PER_LAYER = {
    "probe.copy_gbps": "GB/s",
    "mapping.field_build_s": "s",
    "lutcache.key_ms": "ms",
    "lutcache.get_hit_ms": "ms",
    "lutcache.get_miss_ms": "ms",
    "lutcache.hit_ratio": "ratio",
    "kernel.apply_ms": "ms",
    "kernel.bytes_per_frame": "bytes",
    "kernel.gbps": "GB/s",
    "kernel.bw_frac": "ratio",
    "lut.bytes": "bytes",
    "ring.start_s": "s",
    "ring.service_ms_p50": "ms",
    "ring.service_ms_p95": "ms",
    "ring.pull_gap_ms": "ms",
    "ring.speedup_vs_inline": "ratio",
    "shm.bytes_peak": "bytes",
    "serve.open_s": "s",
    "serve.admit_wait_ms_p50": "ms",
    "serve.admit_wait_ms_p95": "ms",
    "serve.service_ms_p50": "ms",
    "serve.service_ms_p95": "ms",
    "serve.stream_skew": "ratio",
    "loadgen.late_p95_ms": "ms",
    "loadgen.backlog_slope": "frames/s",
    "trace.overhead_frac": "ratio",
}


def _import_program():
    """Put the checkout's ``src`` first on the path and import ``repro``
    from there; anything else (no sources, an installed copy) is an
    error, so the benchmark never measures a program it did not find in
    its own checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=None,
                        help="self-test: corrupt the source frame with this "
                             "index (must show up as a failed frame)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    module, options = WORKLOADS[args.workload]
    workload = importlib.import_module(module)
    trace = bool(args.trace)

    from common import copy_gbps
    probe = copy_gbps() if trace else None
    out = workload.run(args.seed, args.seconds, trace, corrupt=args.corrupt,
                       probe_gbps=probe, **options)
    oracle = out.oracle
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {int(trace)}")
    for note in out.notes:
        print(note)
    if out.invalid:
        print(f"run invalid, no latency reported: {out.invalid}")
        return 3

    ratio = oracle.failed / oracle.attempted if oracle.attempted else 1.0
    print(f"frames_failed_ratio {ratio:.6g} ({oracle.failed} of "
          f"{oracle.attempted} frames failed)")
    if oracle.first_failure:
        print(f"first failure: {oracle.first_failure}")
    if trace:
        out.layer("probe.copy_gbps", probe, "GB/s",
                  "np.copyto of 256 MiB, read+write bytes, p50 of 5")
        for name, unit in PER_LAYER.items():
            if name not in out.layers:
                out.layer(name, 0.0, unit, "layer not exercised by this "
                                           "workload")
        path = os.path.join(ROOT, ".bench_out",
                            f"trace-{args.workload}-seed{args.seed}.json")
        table = out.write_trace(path)
        print(f"spans written to {path}")
        print("self time per span (count, total s, self s):")
        for name, row in table.items():
            print(f"  {name:28s} {row['count']:6d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
    catalog, got = (PER_LAYER, out.layers) if trace else (END_TO_END, out.e2e)
    metrics = {}
    for name, unit in catalog.items():
        value, got_unit, note = got[name]
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit}, expected {unit}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit} ({note})")
    correct = oracle.failed == 0
    print(json.dumps({"correct": correct, "attempted": oracle.attempted,
                      "failed": oracle.failed, "metrics": metrics}))
    return 0 if correct else 1


def _stop_resource_tracker():
    """Stop and reap multiprocessing's resource tracker, which the
    program's shared-memory segments start, so no process of the run
    outlives it."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_resource_tracker()
    sys.exit(code)
