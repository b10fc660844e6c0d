"""Tests: the tiled planar gather-MAC loop of the numpy and fixed tiers.

The loop must reproduce, bit for bit, the row-major kernel it replaced:
the float ``_accumulate`` + ``_store_epilogue`` pair (gather every tap
from a float copy of the whole source, multiply-accumulate ``(n, C)``
blocks, fill, round, clip, cast) and the Q-format ``q_apply_block``.
Both are kept here as test-local references and swept over method x
border x fill x channels x dtype x tier x entry point, with tile and
tap-group sizes small enough that bands straddle tile boundaries.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import interpolation as interp
from repro.core import kernel_tiers
from repro.core.fixedpoint import FixedPointLUT
from repro.core.mapping import RemapField, chroma_half_field, identity_map
from repro.core.remap import RemapLUT
from repro.obs.telemetry import Telemetry, scoped

pytestmark = pytest.mark.tier1

DTYPES = (np.uint8, np.uint16, np.int32, np.float32, np.float64)


# ----------------------------------------------------------------------
# the row-major reference kernels (the code the loop replaced)
# ----------------------------------------------------------------------
def _buffers(scratch, n, channels, dtype):
    """The reference's ``(acc, scratch)`` pair: fresh, or reused from a
    dict (as the replaced kernel's pool did) when one is passed."""
    key = (n, channels, np.dtype(dtype).str)
    if scratch is None or key not in scratch:
        pair = (np.empty((n, channels), dtype=dtype),
                np.empty((n, channels), dtype=dtype))
        if scratch is None:
            return pair
        scratch[key] = pair
    return scratch[key]


def _ref_float(lut, image, row0, row1, scratch=None):
    image = np.asarray(image)
    acc_dtype = np.float64 if image.dtype == np.float64 else np.float32
    flat = image.reshape(lut.src_shape[0] * lut.src_shape[1], -1)
    flat = flat.astype(acc_dtype, copy=False)
    w_out = lut.out_shape[1]
    sl = slice(row0 * w_out, row1 * w_out)
    idx = lut.indices[sl]
    acc, scratch = _buffers(scratch, idx.shape[0], flat.shape[1], acc_dtype)
    wtab = lut._weight_table()
    if wtab is None:
        flat.take(idx[:, 0], axis=0, out=acc, mode="clip")
    else:
        wtab = wtab[:, sl]
        flat.take(idx[:, 0], axis=0, out=scratch, mode="clip")
        np.multiply(scratch, wtab[0][:, None], out=acc)
        for k in range(1, idx.shape[1]):
            flat.take(idx[:, k], axis=0, out=scratch, mode="clip")
            np.multiply(scratch, wtab[k][:, None], out=scratch)
            np.add(acc, scratch, out=acc)
    invalid = lut._invalid_mask()
    if invalid is not None:
        np.copyto(acc, lut.fill, where=invalid[sl][:, None])
    if np.issubdtype(image.dtype, np.integer):
        info = np.iinfo(image.dtype)
        np.rint(acc, out=acc)
        np.clip(acc, info.min, info.max, out=acc)
    view = acc.reshape((row1 - row0, w_out, flat.shape[1]))
    if image.ndim == 2:
        view = view[..., 0]
    return view.astype(image.dtype)


def _ref_q(indices, qw_t, frac_bits, fill, invalid, out_shape, image,
           row0, row1, scratch=None, block_rows=None):
    """``q_apply_block`` over the rows, in blocks of ``block_rows`` (the
    replaced fixed tier walked 64-row blocks; ``None``: one block)."""
    image = np.asarray(image)
    acc_dtype = np.int64 if image.dtype.itemsize > 1 else np.int32
    flat = image.reshape(image.shape[0] * image.shape[1], -1)
    flat = flat.astype(acc_dtype, copy=False)
    w_out = out_shape[1]
    shape = (row1 - row0, w_out) if image.ndim == 2 else \
        (row1 - row0, w_out, flat.shape[1])
    out = np.empty(shape, dtype=image.dtype)
    out_flat = out.reshape(-1, flat.shape[1])
    info = np.iinfo(image.dtype)
    step = (row1 - row0) if block_rows is None else block_rows
    for b0 in range(row0, row1, step):
        sl = slice(b0 * w_out, min(b0 + step, row1) * w_out)
        idx, qw = indices[sl], qw_t[:, sl]
        acc, scratch_k = _buffers(scratch, idx.shape[0], flat.shape[1],
                                  acc_dtype)
        flat.take(idx[:, 0], axis=0, out=scratch_k, mode="clip")
        np.multiply(scratch_k, qw[0][:, None], out=acc)
        for k in range(1, idx.shape[1]):
            flat.take(idx[:, k], axis=0, out=scratch_k, mode="clip")
            np.multiply(scratch_k, qw[k][:, None], out=scratch_k)
            np.add(acc, scratch_k, out=acc)
        np.add(acc, acc.dtype.type(1 << (frac_bits - 1)), out=acc)
        np.right_shift(acc, frac_bits, out=acc)
        np.clip(acc, info.min, info.max, out=acc)
        if invalid is not None:
            acc[invalid[sl]] = fill
        np.copyto(out_flat[sl.start - row0 * w_out:sl.stop - row0 * w_out],
                  acc, casting="unsafe")
    return out


def _reference(impl, lut, image, row0, row1, scratch=None, block_rows=None):
    if impl == "fixedpoint":
        return _ref_q(lut.indices, lut._qw_transposed(), lut.frac_bits,
                      lut.fill, lut._invalid_mask(), lut.out_shape, image,
                      row0, row1, scratch, block_rows)
    if impl == "fixed" and np.issubdtype(image.dtype, np.integer):
        return _ref_q(lut.indices, lut._qweight_table(), lut.frac_bits,
                      int(round(lut.fill)), lut._invalid_mask(),
                      lut.out_shape, image, row0, row1, scratch, block_rows)
    # float frames take the numpy path on every tier
    return _ref_float(lut, image, row0, row1, scratch)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def _case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src_h, src_w = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    out_h, out_w = draw(st.integers(1, 11)), draw(st.integers(1, 7))
    # coordinates reach past every border; some pixels have no source
    map_x = rng.uniform(-2.5, src_w + 1.5, (out_h, out_w))
    map_y = rng.uniform(-2.5, src_h + 1.5, (out_h, out_w))
    holes = rng.random((out_h, out_w)) < 0.1
    map_x[holes] = np.nan
    field = RemapField(map_x, map_y, src_w, src_h)
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    impl = draw(st.sampled_from(("numpy", "fixed", "fixedpoint")))
    if impl == "fixedpoint" and dtype.kind == "f":
        impl = "fixed"
    channels = draw(st.sampled_from((1, 2, 3)))
    shape = (src_h, src_w) if channels == 1 else (src_h, src_w, channels)
    if dtype.kind == "f":
        image = (rng.standard_normal(shape) * 300.0).astype(dtype)
    else:
        info = np.iinfo(dtype)
        image = rng.integers(info.min, info.max, shape, dtype=dtype,
                             endpoint=True)
    # entry point: full frame, or a random split into bands
    entry = draw(st.sampled_from(("apply", "apply_into", "apply_rows_into")))
    cuts = sorted(set(draw(st.lists(st.integers(1, max(1, out_h - 1)),
                                    max_size=4))) - {out_h})
    return dict(
        field=field, image=image, impl=impl, entry=entry,
        bounds=[0] + cuts + [out_h],
        method=draw(st.sampled_from(interp.METHODS)),
        border=draw(st.sampled_from(interp.BORDER_MODES)),
        fill=draw(st.sampled_from((0.0, 9.6, 200.0, -7.0, 300.0))),
        frac_bits=draw(st.sampled_from((8, 12, 14))),
        tile_rows=draw(st.sampled_from((1, 2, 3,
                                        kernel_tiers.DEFAULT_TILE_ROWS))),
        tap_group=draw(st.sampled_from((1, 3, kernel_tiers.TAP_GROUP))),
        strided_out=draw(st.booleans()),
    )


def _build(case):
    if case["impl"] == "fixedpoint":
        return FixedPointLUT(case["field"], method=case["method"],
                             frac_bits=case["frac_bits"],
                             border=case["border"], fill=int(case["fill"]))
    return RemapLUT(case["field"], method=case["method"],
                    border=case["border"], fill=case["fill"],
                    tier=case["impl"], frac_bits=case["frac_bits"])


def _empty(shape, dtype, strided):
    if not strided:
        return np.empty(shape, dtype=dtype)
    return np.empty((shape[0], 2 * shape[1]) + shape[2:], dtype=dtype)[:, ::2]


@settings(max_examples=200, deadline=None)
@given(_case())
def test_loop_bit_identical_to_row_major_reference(case):
    lut = _build(case)
    image = case["image"]
    out_h = lut.out_shape[0]
    want = _reference(case["impl"], lut, image, 0, out_h,
                      block_rows=case["tile_rows"])
    with mock.patch.object(kernel_tiers, "DEFAULT_TILE_ROWS",
                           case["tile_rows"]), \
            mock.patch.object(kernel_tiers, "TAP_GROUP", case["tap_group"]):
        if case["entry"] == "apply":
            got = lut.apply(image)
        elif case["entry"] == "apply_into":
            got = _empty(want.shape, want.dtype, case["strided_out"])
            assert lut.apply_into(image, got) is got
        else:
            got = _empty(want.shape, want.dtype, case["strided_out"])
            bounds = case["bounds"]
            for r0, r1 in zip(bounds[:-1], bounds[1:]):
                lut.apply_rows_into(image, r0, r1, got[r0:r1])
                band = _reference(case["impl"], lut, image, r0, r1)
                assert band.tobytes() == want[r0:r1].tobytes()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# remap.bytes_gathered counts source-sample bytes
# ----------------------------------------------------------------------
def _gathered(lut, image):
    tel = Telemetry()
    with scoped(tel):
        lut.apply(image)
    return tel.snapshot()["counters"]["remap.bytes_gathered"]


@pytest.mark.parametrize("tier", ["numpy", "fixed"])
@pytest.mark.parametrize("case", ["rgb8", "gray16", "nv12_uv"])
def test_bytes_gathered_matches_traffic_ledger(case, tier):
    rng = np.random.default_rng(3)
    field = identity_map(64, 48)
    if case == "rgb8":
        image = rng.integers(0, 256, (48, 64, 3), dtype=np.uint8)
    elif case == "gray16":
        image = rng.integers(0, 65536, (48, 64), dtype=np.uint16)
    else:  # the interleaved chroma plane of an NV12 frame
        field = chroma_half_field(field)
        image = rng.integers(0, 256, (24, 32, 2), dtype=np.uint8)
    lut = RemapLUT(field, method="bilinear", tier=tier)
    channels = 1 if image.ndim == 2 else image.shape[2]
    ledger = lut.traffic_per_frame(channels=channels,
                                   pixel_bytes=image.dtype.itemsize)
    assert _gathered(lut, image) == ledger["gather_bytes"]
    if case == "rgb8":
        assert ledger["gather_bytes"] == 36864


# ----------------------------------------------------------------------
# stage spans and scratch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", ["numpy", "fixed"])
def test_stage_detail_spans_from_the_loop(small_field, rgb_image, tier):
    lut = RemapLUT(small_field, method="bilinear", tier=tier)
    plain = lut.apply(rgb_image)
    tel = Telemetry(stage_detail=True)
    with scoped(tel):
        traced = lut.apply(rgb_image)
    np.testing.assert_array_equal(traced, plain)
    for stage in ("remap.gather", "remap.interpolate", "remap.store"):
        assert tel.span_total(stage) > 0


def test_pool_holds_tile_sized_buffers_only(small_field, rgb_image):
    lut = RemapLUT(small_field, method="bilinear")
    with mock.patch.object(kernel_tiers, "DEFAULT_TILE_ROWS", 8):
        lut.apply(rgb_image)
    h, w = lut.out_shape
    tile_bytes = 8 * w * lut.taps * 3 * 4  # float32 planes of one tile
    held = [buf for stack in lut._pool._free.values()
            for bufs in stack for buf in bufs]
    assert held and max(b.nbytes for b in held) <= tile_bytes
    assert tile_bytes < h * w * 3 * 4  # smaller than one full-frame plane
