"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Checks that:

1. ``BENCHMARK.json`` lists exactly the metrics and units ``run.py``
   prints;
2. on every workload, one deliberately corrupted source frame shows up
   as a failed frame: a non-zero ``frames_failed_ratio``, ``correct``
   false and exit code 1;
3. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
   (no program sources) the command exits non-zero without a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORRUPT = 12      # frame index inside every workload's warm-up


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_catalog():
    sys.path.insert(0, HERE)
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, catalog in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != catalog:
            return f"BENCHMARK.json {key} differs from run.py"
    names = {w["name"] for w in bench["workloads"]}
    if not names <= set(run.WORKLOADS):
        return "BENCHMARK.json names a workload run.py does not know"
    return None


def check_corruption(workload):
    p = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "2",
             "--trace", "0", "--corrupt", str(CORRUPT))
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"{workload}: no result line (exit {p.returncode})\n{p.stderr}"
    ratio = [l for l in lines if l.startswith("frames_failed_ratio ")]
    if p.returncode != 1 or result["correct"] or result["failed"] < 1 \
            or not ratio or float(ratio[0].split()[1]) <= 0:
        return (f"{workload}: corrupted frame not reported (exit "
                f"{p.returncode}, {lines[-1]})")
    return None


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = _run(bare, "--workload", "roi-patrol-1080", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        return f"bare directory: exit {p.returncode}, output {p.stdout!r}"
    return None


def main():
    failures = [check_catalog(), check_bare_directory()]
    sys.path.insert(0, HERE)
    import run
    failures += [check_corruption(w) for w in run.WORKLOADS]
    failures = [f for f in failures if f]
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
