"""The kernel-tier ladder: numpy → fixed-point → compiled.

The remap hot path exists at three rungs, all executing the *same*
compact LUT tables (int32 tap offsets + per-axis fractions):

``numpy``
    Float gather-multiply-accumulate (float32, float64 for float64
    frames) — always available.
``fixed``
    Q-format integer arithmetic (quantized ``int16`` weights,
    wide-integer accumulate, single-shift round) — the
    :class:`~repro.core.fixedpoint.FixedPointLUT` model promoted to a
    shipping execution path.  Bit-faithful to what a DSP/SPE kernel
    computes; integer frames only.

Both run the one loop :func:`gather_mac`: output rows in tiles of
:data:`DEFAULT_TILE_ROWS`, raw source samples gathered per tile (no
conversion pass over the source), multiply-accumulate and epilogue on
planar ``(C, n)`` tiles, pooled tile-sized scratch.
``compiled``
    The same Q-format arithmetic jitted by Numba
    (:mod:`repro.accel.compiled`): ``njit(parallel=True)`` over 2-D
    output tiles, no per-tap ufunc dispatch, no float conversion pass
    over the source.  Requires the optional ``repro[speed]`` extra.

Selection rules
---------------
:func:`resolve_tier` maps a user request to an executable tier:

- ``auto`` picks ``compiled`` when numba imports, else ``numpy``
  (the pure-numpy ``fixed`` tier trades precision for accelerator
  fidelity, not speed, so ``auto`` never picks it silently);
- an explicit ``compiled`` request without numba falls back to
  ``numpy`` and logs a one-time warning (never raises: an uninstalled
  optional extra must not take down a pipeline);
- ``numpy``/``fixed`` always resolve to themselves.

Q tiers operate on integer frames; float frames silently use the
``numpy`` path per-frame (full precision is the only sensible meaning
of a float pipeline).
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from ..errors import KernelTierError

__all__ = [
    "KERNEL_TIERS",
    "KERNEL_CHOICES",
    "DEFAULT_FRAC_BITS",
    "DEFAULT_TILE_ROWS",
    "kernel_tier",
    "available_tiers",
    "resolve_tier",
    "numba_available",
    "numba_version",
    "ScratchPool",
    "TAP_GROUP",
    "gather_mac",
]

#: executable tiers, in ladder order (slowest/most-general first).
KERNEL_TIERS = ("numpy", "fixed", "compiled")

#: what callers may request (``auto`` resolves to the best available).
KERNEL_CHOICES = ("auto",) + KERNEL_TIERS

#: Q-format precision of the shipping fixed/compiled tiers.  Q12 keeps
#: the quantization error far below the uint8 LSB (PSNR >= 40 dB vs the
#: float oracle, enforced by the regression gate) while leaving int16
#: headroom for the bicubic overshoot range.
DEFAULT_FRAC_BITS = 12

#: row height of the numpy/fixed tiers' tile walk: each tile's index
#: block, gathered samples and planar accumulator stay cache-resident
#: (the host-kernel application of the paper's F6 tile study; 32 rows
#: measured fastest of 16/32/64 at 720p RGB and 1080p gray).
DEFAULT_TILE_ROWS = 32

_warned_fallback = False


def numba_available() -> bool:
    """True when the optional numba dependency imports cleanly."""
    from ..accel import compiled
    return compiled.numba_available()


def numba_version():
    """Installed numba version string, or ``None``."""
    from ..accel import compiled
    return compiled.numba_version()


def available_tiers() -> tuple:
    """The tiers executable in this environment, ladder order."""
    if numba_available():
        return KERNEL_TIERS
    return KERNEL_TIERS[:2]


def kernel_tier() -> str:
    """Capability probe: the best tier available right now.

    ``compiled`` when numba imports, else ``numpy`` — the same answer
    ``resolve_tier("auto")`` gives, exposed as a probe so callers and
    benchmarks can report which path a host will run.
    """
    return "compiled" if numba_available() else "numpy"


def resolve_tier(requested: str, *, quiet: bool = False) -> str:
    """Map a requested tier to one executable here (see module docs).

    Parameters
    ----------
    requested:
        One of :data:`KERNEL_CHOICES`.
    quiet:
        Suppress the one-time compiled→numpy fallback warning (used by
        probes that only ask hypothetically).
    """
    global _warned_fallback
    if requested not in KERNEL_CHOICES:
        raise KernelTierError(
            f"unknown kernel tier {requested!r}; known: {KERNEL_CHOICES}")
    if requested == "auto":
        return kernel_tier()
    if requested == "compiled" and not numba_available():
        if not _warned_fallback and not quiet:
            _warned_fallback = True
            from ..obs.logsetup import get_logger
            get_logger(__name__).warning(
                "kernel tier 'compiled' requested but numba is not "
                "installed; falling back to the numpy tier "
                "(pip install repro[speed] to enable it)")
        return "numpy"
    return requested


# ----------------------------------------------------------------------
# the tiled planar gather-MAC loop (numpy and fixed tiers)
# ----------------------------------------------------------------------
class ScratchPool:
    """Thread-safe pool of tile-sized scratch buffer sets.

    :func:`gather_mac` borrows one set per call and returns it
    afterwards, so a steady-state stream touches the allocator only on
    its first frame.  Each LUT owns one pool, so its scratch goes with
    it.  A set is keyed by its ``(size, dtype)`` specs — concurrent
    band workers with equal tile shapes each get their own.
    """

    _MAX_PER_KEY = 8  # bound idle memory under bursty concurrency

    def __init__(self):
        self._lock = threading.Lock()
        self._free = {}

    def acquire(self, specs):
        with self._lock:
            stack = self._free.get(specs)
            if stack:
                return stack.pop()
        return tuple(np.empty(size, dtype=dtype) for size, dtype in specs)

    def release(self, specs, buffers):
        with self._lock:
            stack = self._free.setdefault(specs, [])
            if len(stack) < self._MAX_PER_KEY:
                stack.append(buffers)


#: taps gathered per ``take`` pass: a whole bilinear footprint, a
#: quarter of a bicubic one (bounds the tile working set).
TAP_GROUP = 4

_NO_SPAN = contextlib.nullcontext()


def _span(tel, name):
    return _NO_SPAN if tel is None else tel.span(name, cat="kernel")


def gather_mac(flat, idx, wtab, out, pool, *, frac_bits=None, fill=0,
               invalid=None, tel=None):
    """Row-tiled planar gather-multiply-accumulate (numpy/fixed tiers).

    Walks the output in tiles of :data:`DEFAULT_TILE_ROWS` rows.  Per
    tile and per group of :data:`TAP_GROUP` taps it gathers the *raw*
    source samples the tile's LUT entries name (one ``take``), moves
    them to planar ``(taps, C, n)`` accumulator layout in the same pass
    that converts them, and multiply-accumulates each channel plane
    against the tap-major weight rows — long contiguous inner loops.
    The epilogue (fill, round, clip) runs planar too; the tile is cast
    planar and stored interleaved into ``out`` in one pass per channel.

    Float (``frac_bits=None``): ``sum(sample * w)`` in the accumulator
    dtype, fill, then ``rint`` and clip for integer frames.  Q format
    (``frac_bits`` given): wide-integer ``sum(sample * qw)``, ``+half``
    and one arithmetic shift, clip, then fill — bit-exact with
    :class:`~repro.core.fixedpoint.FixedPointLUT`.  Taps accumulate in
    index order, so the float sum is the same sequence of float32
    operations whatever the tiling.

    Parameters
    ----------
    flat:
        ``(H*W, C)`` C-contiguous source samples in their own dtype
        (no conversion pass over the source).
    idx:
        ``(n, taps)`` flat tap offsets of the requested output rows.
    wtab:
        ``(taps, n)`` weight rows (float32, or int16 Q weights), or
        ``None`` for an unweighted float nearest gather.
    out:
        ``(rows, W_out[, C])`` destination of the source dtype, any
        strides; ``rows * W_out == n``.
    pool:
        The caller's :class:`ScratchPool`.
    frac_bits:
        Q-format shift, or ``None`` for the float loop.
    fill, invalid:
        Fill value and ``(n,)`` bool invalid-pixel mask (or ``None``).
    tel:
        A stage-detail telemetry registry: the loop then emits
        ``remap.gather`` / ``remap.interpolate`` / ``remap.store`` spans.
    """
    taps = idx.shape[1]
    channels = flat.shape[1]
    rows, width = out.shape[:2]
    q = frac_bits is not None
    if q:
        # int32 covers 1-byte samples at Q14 with 16 taps; wider
        # samples need int64
        acc_dtype = np.dtype(np.int64 if flat.dtype.itemsize > 1 else np.int32)
    else:
        # float32 (the embedded-precision baseline); float64 frames
        # keep their precision
        acc_dtype = np.dtype(np.float64 if flat.dtype == np.float64
                             else np.float32)
    group = min(taps, TAP_GROUP)
    tile_rows = min(rows, DEFAULT_TILE_ROWS)
    tile = tile_rows * width
    convert_w = wtab is not None and wtab.dtype != acc_dtype
    info = np.iinfo(out.dtype) if np.issubdtype(out.dtype, np.integer) else None
    # a group's index block is dead once its samples are gathered, so
    # their planar copy reuses its memory (``shared``, sized in intp
    # words per output pixel)
    intp = np.dtype(np.intp)
    plane_words = -(-(group * channels * acc_dtype.itemsize) // intp.itemsize)
    specs = ((tile * max(group, plane_words), intp.str),
             (tile * group * channels, flat.dtype.str),
             (tile * channels if taps > group else 0, acc_dtype.str),
             (tile if convert_w else 0, acc_dtype.str))
    bufs = pool.acquire(specs)
    try:
        shared, raw, acc_buf, w_buf = bufs
        work = shared.view(acc_dtype)
        for r0 in range(0, rows, tile_rows):
            r1 = min(r0 + tile_rows, rows)
            p0, p1 = r0 * width, r1 * width
            n = p1 - p0
            for k0 in range(0, taps, group):
                m = min(group, taps - k0)
                with _span(tel, "remap.gather"):
                    ti = shared[:n * m]
                    np.copyto(ti.reshape(n, m), idx[p0:p1, k0:k0 + m])
                    g = raw[:n * m * channels].reshape(n * m, channels)
                    flat.take(ti, axis=0, out=g, mode="clip")
                    planes = work[:m * channels * n].reshape(m, channels, n)
                    np.copyto(planes, g.reshape(n, m, channels)
                              .transpose(1, 2, 0), casting="unsafe")
                if k0 == 0:
                    # the first group accumulates into its own tap-0
                    # plane unless later groups will overwrite it
                    acc = (planes[0] if taps == group
                           else acc_buf[:channels * n].reshape(channels, n))
                if wtab is None:
                    continue
                with _span(tel, "remap.interpolate"):
                    for j in range(m):
                        w = wtab[k0 + j, p0:p1]
                        if convert_w:
                            w = w_buf[:n]
                            np.copyto(w, wtab[k0 + j, p0:p1])
                        if k0 + j == 0:
                            np.multiply(planes[0], w, out=acc, dtype=acc_dtype)
                        else:
                            np.multiply(planes[j], w, out=planes[j],
                                        dtype=acc_dtype)
                            np.add(acc, planes[j], out=acc, dtype=acc_dtype)
            with _span(tel, "remap.store"):
                inv = None if invalid is None else invalid[p0:p1]
                if inv is not None and not inv.any():
                    inv = None
                if not q:
                    if inv is not None:
                        np.copyto(acc, fill, where=inv)
                    if info is not None:
                        np.rint(acc, out=acc)
                        np.clip(acc, info.min, info.max, out=acc)
                else:
                    np.add(acc, acc_dtype.type(1 << (frac_bits - 1)), out=acc)
                    np.right_shift(acc, frac_bits, out=acc)
                    np.clip(acc, info.min, info.max, out=acc)
                    if inv is not None:
                        np.copyto(acc, fill, where=inv)
                dst = out[r0:r1]
                if channels == 1:
                    np.copyto(dst, acc.reshape(dst.shape), casting="unsafe")
                else:
                    # cast planar into the (source-dtype) gather buffer,
                    # then interleave one channel plane at a time
                    cast = raw[:channels * n].reshape(channels, n)
                    np.copyto(cast, acc, casting="unsafe")
                    for c in range(channels):
                        np.copyto(dst[..., c], cast[c].reshape(dst.shape[:2]))
    finally:
        pool.release(specs, bufs)
    return out
