"""Fixed-point remap LUTs — the embedded/accelerator representation.

Hardware accelerators (and the SPE/SIMD paths of the target paper's
study) do not interpolate in float: weights are quantized to ``Q``
fractional bits, accumulation happens in wide integers, and the result
is rounded with a single shift.  Quantization shrinks the LUT (less DMA
traffic, more tiles per local store) at the cost of bounded rounding
error.  :class:`FixedPointLUT` implements exactly that arithmetic so
the F12 benchmark can sweep precision vs quality vs bandwidth.

Since the kernel-tier work this is no longer only a modeled study:
the same Q-format arithmetic is a *shipping* execution path.
:meth:`FixedPointLUT.apply` (and its zero-copy twins
:meth:`~FixedPointLUT.apply_into` / :meth:`~FixedPointLUT
.apply_rows_into`) run the tiled planar gather-MAC loop in
:mod:`repro.core.kernel_tiers`, and :class:`~repro.core.remap.RemapLUT`
executes the identical arithmetic when switched to its ``fixed`` or
``compiled`` tier — bit-exact across all three entry points.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpolationError, MappingError
from .kernel_tiers import ScratchPool, gather_mac
from .mapping import RemapField
from .remap import RemapLUT

__all__ = ["FixedPointLUT", "quantize_weights", "max_abs_weight_error"]


def quantize_weights(weights, frac_bits: int):
    """Quantize interpolation weights to signed fixed point.

    Weights are scaled by ``2**frac_bits``, rounded to nearest, and
    each pixel's tap set is re-balanced so the quantized weights still
    sum to exactly ``2**frac_bits`` (otherwise flat image regions would
    drift in brightness).  The correction is applied to the largest tap
    of each pixel, which minimizes relative error.

    Parameters
    ----------
    weights:
        ``(N, taps)`` float weights, rows summing to ~1 (all-zero rows
        — masked-out pixels — are preserved as zero).
    frac_bits:
        Fractional bits, 1..14 (int16 storage with headroom for the
        bicubic overshoot range [-0.0625, 1.0625]).

    Returns
    -------
    ndarray of int16, shape ``(N, taps)``.
    """
    if not 1 <= frac_bits <= 14:
        raise InterpolationError(f"frac_bits must be 1..14, got {frac_bits}")
    weights = np.asarray(weights, dtype=np.float64)
    scale = 1 << frac_bits
    q = np.rint(weights * scale).astype(np.int32)
    target = np.rint(weights.sum(axis=1) * scale).astype(np.int32)  # 0 or scale
    deficit = target - q.sum(axis=1)
    # push the rounding residue onto each row's largest-magnitude tap
    rows = np.arange(q.shape[0])
    top = np.abs(q).argmax(axis=1)
    q[rows, top] += deficit
    return q.astype(np.int16)


def max_abs_weight_error(weights, frac_bits: int) -> float:
    """Largest absolute weight error introduced by quantization."""
    q = quantize_weights(weights, frac_bits).astype(np.float64) / (1 << frac_bits)
    return float(np.abs(q - np.asarray(weights, dtype=np.float64)).max())


class FixedPointLUT:
    """Integer-arithmetic remap LUT derived from a float field.

    Parameters
    ----------
    field:
        The backward coordinate field.
    method:
        ``nearest``, ``bilinear`` or ``bicubic``.
    frac_bits:
        Weight precision in fractional bits (Q-format).
    index_dtype:
        Integer dtype for the flat gather indices; ``np.int32`` covers
        frames up to 2 Gpixel and is what a 32-bit DMA descriptor holds.
    border, fill:
        As for :class:`~repro.core.remap.RemapLUT`.
    """

    def __init__(self, field: RemapField, method: str = "bilinear",
                 frac_bits: int = 8, index_dtype=np.int32,
                 border: str = "constant", fill: int = 0):
        base = RemapLUT(field, method=method, border=border, fill=fill)
        max_index = field.src_width * field.src_height - 1
        if max_index > np.iinfo(index_dtype).max:
            raise MappingError(
                f"{np.dtype(index_dtype).name} cannot index a "
                f"{field.src_width}x{field.src_height} source frame")
        self.method = method
        self.frac_bits = int(frac_bits)
        self.fill = int(fill)
        self.out_shape = base.out_shape
        self.src_shape = base.src_shape
        self.mask = base.mask
        self.indices = base.indices.astype(index_dtype)
        self.qweights = quantize_weights(base.weights, frac_bits)
        self._qw_t = None    # lazily (taps, N) transposed view for the engine
        self._inv = None     # lazily ~mask
        self._pool = ScratchPool()

    # the scratch pool is per-process state; drop it when pickled
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._pool = ScratchPool()

    @property
    def taps(self) -> int:
        return self.indices.shape[1]

    @property
    def nbytes(self) -> int:
        n = self.indices.nbytes + self.qweights.nbytes
        if self.mask is not None:
            n += self.mask.nbytes
        return n

    def entry_bytes(self) -> int:
        """Bytes of table data per output pixel (host layout)."""
        per = self.indices.dtype.itemsize * self.taps + self.qweights.dtype.itemsize * self.taps
        if self.mask is not None:
            per += 1
        return per

    def packed_entry_bytes(self) -> float:
        """Bytes per output pixel of the *deployed* packed layout.

        Hardware tables store one base offset (32 bits) plus the two
        per-axis fractions at ``frac_bits`` each; tap offsets and the
        full weight set are reconstructed on-chip.  Bicubic needs the
        same fractions (weights are polynomial in them); nearest needs
        no fractions at all.
        """
        frac_fields = 0 if self.method == "nearest" else 2
        return (32 + frac_fields * self.frac_bits) / 8.0

    # ------------------------------------------------------------------
    # execution (the shared tiled gather-MAC loop)
    # ------------------------------------------------------------------
    def _qw_transposed(self):
        if self._qw_t is None:
            self._qw_t = np.ascontiguousarray(self.qweights.T)
        return self._qw_t

    def _invalid_mask(self):
        if self.mask is None:
            return None
        if self._inv is None:
            self._inv = ~self.mask
        return self._inv

    def _run(self, image, row0=None, row1=None, out=None):
        image = np.asarray(image)
        if not np.issubdtype(image.dtype, np.integer):
            raise MappingError("FixedPointLUT operates on integer frames")
        if image.shape[:2] != self.src_shape:
            raise MappingError(
                f"frame {image.shape[:2]} does not match LUT source {self.src_shape}")
        squeeze = image.ndim == 2
        flat = np.ascontiguousarray(
            image.reshape(self.src_shape[0] * self.src_shape[1], -1))
        w_out = self.out_shape[1]
        if row0 is None:
            sl = slice(None)
            shape2d = self.out_shape
        else:
            sl = slice(row0 * w_out, row1 * w_out)
            shape2d = (row1 - row0, w_out)
        channels = flat.shape[1]
        expected = shape2d if squeeze else shape2d + (channels,)
        if out is not None and (out.shape != expected or out.dtype != image.dtype):
            raise MappingError(
                f"output buffer {out.shape}/{out.dtype} does not match "
                f"{expected}/{image.dtype}")
        result = out if out is not None else np.empty(expected, dtype=image.dtype)
        invalid = self._invalid_mask()
        if invalid is not None and row0 is not None:
            invalid = invalid[sl]
        return gather_mac(flat, self.indices[sl], self._qw_transposed()[:, sl],
                          result, self._pool, frac_bits=self.frac_bits,
                          fill=self.fill, invalid=invalid)

    def apply(self, image, out=None):
        """Correct an integer frame entirely in integer arithmetic.

        Accumulates ``sum(tap * qweight)`` in int32/int64 and rounds
        with a single arithmetic shift — bit-exact with what a DSP or
        SPE fixed-point kernel computes, and with
        :class:`~repro.core.remap.RemapLUT` running on its ``fixed``
        or ``compiled`` tier.
        """
        return self._run(image, out=out)

    def apply_into(self, image, out):
        """Correct one frame straight into ``out`` (required, validated) —
        the zero-copy streaming twin of :meth:`apply`."""
        if out is None:
            raise MappingError("apply_into requires a destination buffer")
        return self._run(image, out=out)

    def apply_rows_into(self, image, row0: int, row1: int, out):
        """Correct output rows ``[row0, row1)`` into ``out`` — the band
        primitive the tile-parallel executors use."""
        if not 0 <= row0 < row1 <= self.out_shape[0]:
            raise MappingError(
                f"bad row range [{row0}, {row1}) for output {self.out_shape}")
        if out is None:
            raise MappingError("apply_rows_into requires a destination buffer")
        return self._run(image, row0=row0, row1=row1, out=out)
