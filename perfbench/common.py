"""Shared plumbing of the benchmark: seeded calibration, span tracer,
memory sampler, bandwidth probe, oracle bookkeeping and statistics.

Everything here runs in the benchmark process and only calls the
public API of :mod:`repro`; nothing in the program is instrumented.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import nullcontext

import numpy as np

from repro.core.intrinsics import CameraIntrinsics, FisheyeIntrinsics
from repro.core.lens import make_lens
from repro.core.mapping import perspective_map

# Seconds between memory samples in a timed loop; a sample reads /proc
# for every process, so it must stay rare next to a frame.
SAMPLE_EVERY_S = 0.25


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def pct(values, q):
    """``q``-th percentile (linear interpolation); 0.0 for no samples."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) \
        if len(values) else 0.0


def median(values):
    return pct(values, 50)


def slope(xs, ys):
    """Least-squares slope of ``ys`` over ``xs`` (0.0 if degenerate)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2 or np.ptp(xs) == 0:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
class Calibration:
    """Sensor intrinsics plus lens plus output view: everything a field
    build needs, drawn from the seed.

    ``zoom``, ``yaw`` and ``pitch`` are jittered in narrow ranges so
    every seed gives a different but equally costly correction.
    """

    def __init__(self, width, height, zoom, yaw=0.0, pitch=0.0):
        self.width, self.height = width, height
        self.zoom, self.yaw, self.pitch = zoom, yaw, pitch

    @classmethod
    def draw(cls, rng, width, height, zoom):
        return cls(width, height,
                   zoom=zoom * float(rng.uniform(0.96, 1.04)),
                   yaw=float(rng.uniform(-0.03, 0.03)),
                   pitch=float(rng.uniform(-0.03, 0.03)))

    def build_field(self, tracer, fid=None):
        """Calibration objects, then :func:`perspective_map`, each a span.

        Built from scratch on every call (nothing memoized), so set-up
        is cold however often a run repeats it.
        """
        with tracer.span("calibration", fid):
            w, h = self.width, self.height
            focal = (min(w, h) / 2.0 - 1.0) / (np.pi / 2.0)
            sensor = FisheyeIntrinsics.centered(w, h, focal=focal)
            lens = make_lens("equidistant", focal)
            fo = float(lens.magnification(1e-4)) * self.zoom
            out = CameraIntrinsics(fx=fo, fy=fo, cx=(w - 1) / 2.0,
                                   cy=(h - 1) / 2.0, width=w, height=h)
        with tracer.span("mapping.perspective_map", fid):
            return perspective_map(sensor, lens, out, yaw=self.yaw,
                                   pitch=self.pitch)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer, self.rec = tracer, rec

    def __enter__(self):
        stack = self.tracer._stack()
        self.rec[3] = stack[-1] if stack else None
        self.rec[1] = time.perf_counter()
        with self.tracer._lock:
            idx = len(self.tracer.spans)
            self.tracer.spans.append(self.rec)
        stack.append(idx)
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack().pop()
        return False


class Tracer:
    """Spans around calls into the program's layers.

    A span is ``[name, start, end, parent_index, frame_id]``; the
    parent is the innermost open span of the same thread, and spans of
    one frame (or stream set-up) share ``frame_id``.  Spans stay in
    memory until :meth:`write`.  Disabled, :meth:`span` returns one
    shared no-op context, so the untraced runs pay one call per site.
    """

    def __init__(self, enabled=False):
        self.enabled = enabled
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fid=None):
        if not self.enabled:
            return _NULL
        return _Span(self, [name, 0.0, 0.0, None, fid])

    def add(self, name, start, end, fid=None):
        """Record a span measured elsewhere (e.g. across threads)."""
        if self.enabled:
            with self._lock:
                self.spans.append([name, start, end, None, fid])

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self):
        """Per span name: ``(count, total_s, self_s)``.

        Self time is a span's duration minus the union of the intervals
        its child spans cover.
        """
        children = {}
        for s in self.spans:
            if s[3] is not None:
                children.setdefault(s[3], []).append((s[1], s[2]))
        out = {}
        for idx, (name, t0, t1, _parent, _fid) in enumerate(self.spans):
            covered, cursor = 0.0, t0
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, cursor), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            n, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (n + 1, total + (t1 - t0), own + (t1 - t0 - covered))
        return out

    def write(self, path, extra):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        table = {k: {"count": n, "total_s": tot, "self_s": own}
                 for k, (n, tot, own) in sorted(self.self_times().items())}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "frame_id"],
                       "spans": self.spans, "self_time": table, **extra}, fh)
        return table


# ----------------------------------------------------------------------
# memory sampling (from outside the program)
# ----------------------------------------------------------------------
def _descendants(pid):
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids = [int(k) for k in fh.read().split()]
        except OSError:
            continue
        for k in kids:
            out.append(k)
            out.extend(_descendants(k))
    return out


def _pss_kb(pid):
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _shm_used():
    st = os.statvfs("/dev/shm")
    return (st.f_blocks - st.f_bfree) * st.f_frsize


class MemorySampler:
    """Peak memory of the benchmark process tree and of ``/dev/shm``.

    Memory is the summed proportional set size (``Pss`` of
    ``/proc/<pid>/smaps_rollup``) of this process and every descendant
    (the ring or broker workers), so pages the processes share — forked
    copy-on-write pages and shared-memory segments — count once.
    ``/dev/shm`` use is the filesystem's used bytes above the level
    seen when the sampler was made.  :meth:`maybe` samples at most every
    :data:`SAMPLE_EVERY_S`; :meth:`sample` always does.
    """

    def __init__(self):
        self.shm_base = _shm_used()
        self.rss_peak_kb = 0
        self.shm_peak = 0
        self.samples = 0
        self._next = 0.0

    def sample(self):
        me = os.getpid()
        kb = sum(_pss_kb(p) for p in [me] + _descendants(me))
        self.rss_peak_kb = max(self.rss_peak_kb, kb)
        self.shm_peak = max(self.shm_peak, _shm_used() - self.shm_base)
        self.samples += 1
        self._next = time.perf_counter() + SAMPLE_EVERY_S

    def maybe(self):
        if time.perf_counter() >= self._next:
            self.sample()


# ----------------------------------------------------------------------
# host bandwidth probe
# ----------------------------------------------------------------------
PROBE_BYTES = 256 * 2 ** 20


def copy_gbps(reps=5):
    """Same-run ``np.copyto`` bandwidth, GB/s of bytes read plus written.

    Two ``PROBE_BYTES`` (256 MiB) arrays; the median of ``reps`` copies.
    The host reports a 300 MiB L3, so each array is below the 4x-LLC
    size the metrics guide asks for; 2 x 1.2 GiB would dominate the
    memory of a shared host.  Source plus destination (512 MiB) still
    exceed the LLC, and each copy streams past it.
    """
    src = np.ones(PROBE_BYTES, dtype=np.uint8)
    dst = np.zeros_like(src)
    return 2 * PROBE_BYTES / timed_median(lambda: np.copyto(dst, src),
                                          reps) / 1e9


def timed_median(fn, reps):
    """Median wall time of ``reps`` calls of ``fn`` in seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


# ----------------------------------------------------------------------
# output oracle
# ----------------------------------------------------------------------
class Oracle:
    """Bit-exact comparison of delivered frames against references.

    ``check(key, planes)`` compares a delivered frame's planes with the
    reference planes stored under ``key``; a mismatch, a missing frame
    or an exception is a failed frame.
    """

    def __init__(self):
        self.refs = {}
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def check(self, key, planes):
        self.attempted += 1
        ref = self.refs[key]
        if len(ref) != len(planes) or not all(
                r.shape == p.shape and np.array_equal(r, p)
                for r, p in zip(ref, planes)):
            self.fail(f"frame {key!r} differs from its reference")
            return False
        return True

    def fail(self, why, count=1, attempted=False):
        """Count ``count`` failed frames; ``attempted`` also counts them
        as attempted (frames that never reached :meth:`check`)."""
        if count <= 0:
            return
        if self.failed == 0:
            self.first_failure = why
        self.failed += count
        if attempted:
            self.attempted += count


class Outcome:
    """What one workload run measured.

    ``e2e`` and ``layers`` map a metric name to ``(value, unit, note)``;
    the note states the sample count or how the value was obtained.
    ``invalid`` is set when the run's own validity checks fail.
    """

    def __init__(self, oracle, tracer):
        self.oracle = oracle
        self.tracer = tracer
        self.e2e = {}
        self.layers = {}
        self.invalid = None
        self.notes = []

    def metric(self, name, value, unit, note=""):
        self.e2e[name] = (float(value), unit, note)

    def layer(self, name, value, unit, note=""):
        self.layers[name] = (float(value), unit, note)

    def latency(self, latencies_s, what):
        n = len(latencies_s)
        ms = [x * 1e3 for x in latencies_s]
        self.metric("latency_p50_ms", pct(ms, 50), "ms", f"n={n} {what}")
        self.metric("latency_p95_ms", pct(ms, 95), "ms",
                    f"n={n}, {n - int(0.95 * n)} beyond p95")

    def setup(self, setup_times, mem):
        self.metric("setup_s", median(setup_times), "s",
                    f"median of n={len(setup_times)} cold set-ups: "
                    + ", ".join(f"{t:.4f}" for t in setup_times))
        self.metric("rss_peak_mb", mem.rss_peak_kb / 1024.0, "MiB",
                    f"peak summed Pss of the process tree, n={mem.samples} "
                    "samples")

    def kernel(self, bytes_per_frame, apply_s, lut_bytes, probe_gbps):
        """The kernel ledger: measured apply time, computed bytes."""
        gbps = bytes_per_frame / apply_s / 1e9
        self.layer("kernel.apply_ms", apply_s * 1e3, "ms",
                   "in-process apply on the run's frames and tables")
        self.layer("kernel.bytes_per_frame", bytes_per_frame, "bytes",
                   "computed from traffic_per_frame, not measured")
        self.layer("kernel.gbps", gbps, "GB/s",
                   "computed bytes / measured apply time")
        self.layer("kernel.bw_frac", gbps / probe_gbps, "ratio",
                   "kernel.gbps / probe.copy_gbps")
        self.layer("lut.bytes", lut_bytes, "bytes",
                   "RemapLUT.nbytes of the tables in use")

    def cache_ratio(self, stats, how):
        lookups = stats["hits"] + stats["misses"]
        self.layer("lutcache.hit_ratio",
                   stats["hits"] / lookups if lookups else 0.0, "ratio",
                   f"{how}: {stats['hits']} hits / {lookups} lookups "
                   "(LUTCache.stats())")

    def overhead(self, untraced_lat, traced_lat):
        self.layer("trace.overhead_frac",
                   float(np.mean(traced_lat)) / float(np.mean(untraced_lat))
                   - 1.0, "ratio",
                   "mean frame latency, traced vs untraced phase")

    def write_trace(self, path):
        """Write the spans out; return the per-span self-time table."""
        return self.tracer.write(path, {"layers": self.layers})

    def span_layers(self, spans):
        """Per-layer set-up times: ``metric -> span name``, the p50 of
        that span's durations in seconds."""
        for metric, span in spans.items():
            d = self.tracer.durations(span)
            self.layer(metric, median(d), "s", f"p50 of n={len(d)}")


# ----------------------------------------------------------------------
# run phases
# ----------------------------------------------------------------------
class Phases:
    """Back-to-back timed phases of one run.

    Always a warm-up (not measured) and the untraced phase that gives
    the end-to-end metrics; a trace run appends a traced phase of the
    same length, which gives the per-layer metrics and, against the
    untraced phase, the tracing overhead.
    """

    WARMUP, UNTRACED, TRACED = 0, 1, 2

    def __init__(self, seconds, trace, warmup_s):
        self.lengths = [warmup_s, seconds] + ([seconds] if trace else [])
        self.t0 = None

    def start(self, t0):
        self.t0 = t0

    @property
    def count(self):
        return len(self.lengths)

    def bounds(self, phase):
        start = self.t0 + sum(self.lengths[:phase])
        return start, start + self.lengths[phase]

    def at(self, t):
        """Phase index of time ``t``; ``count`` once every phase ended."""
        edge = self.t0
        for i, length in enumerate(self.lengths):
            edge += length
            if t < edge:
                return i
        return self.count


def delivery_rate(times):
    """Frames per second over delivery times: (n - 1) / (last - first)."""
    if len(times) < 2:
        return 0.0
    return (len(times) - 1) / (max(times) - min(times))
