"""Thread/process executor tests: parallel result == sequential result.

The process cases run the one process engine, :class:`RingEngine`,
with a single slot — its fork-join configuration."""

import numpy as np
import pytest

from repro.core.remap import RemapLUT
from repro.parallel.ring import RingEngine
from repro.parallel.simd import AVX2, SPU, SSE2, apply_lanewise, simd_speedup
from repro.parallel.threadpool import ThreadedExecutor
from repro.errors import PlatformError, ScheduleError


class TestThreadedExecutor:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_sequential(self, workers, small_field, random_image):
        lut = RemapLUT(small_field, method="bilinear")
        expected = lut.apply(random_image)
        with ThreadedExecutor(workers=workers, bands_per_worker=3) as ex:
            out = ex.run(lut, random_image)
        np.testing.assert_array_equal(out, expected)

    def test_weighted_bands(self, tilted_field, random_image):
        lut = RemapLUT(tilted_field)
        expected = lut.apply(random_image)
        with ThreadedExecutor(workers=2, weighted=True) as ex:
            np.testing.assert_array_equal(ex.run(lut, random_image), expected)

    def test_rgb(self, small_field, rgb_image):
        lut = RemapLUT(small_field)
        with ThreadedExecutor(workers=2) as ex:
            out = ex.run(lut, rgb_image)
        np.testing.assert_array_equal(out, lut.apply(rgb_image))

    def test_out_buffer(self, small_field, random_image):
        lut = RemapLUT(small_field)
        buf = np.empty((64, 64), dtype=np.uint8)
        with ThreadedExecutor(workers=2) as ex:
            out = ex.run(lut, random_image, out=buf)
        assert out is buf

    def test_bad_out_buffer(self, small_field, random_image):
        lut = RemapLUT(small_field)
        with ThreadedExecutor(workers=2) as ex:
            with pytest.raises(ScheduleError):
                ex.run(lut, random_image, out=np.empty((5, 5), dtype=np.uint8))

    def test_out_buffer_must_match_frame(self, small_field, random_image,
                                         rgb_image):
        """``run`` accepts exactly the out buffers ``RemapLUT.apply`` does:
        a wrong dtype or a missing channel axis is refused up front, not
        silently cast or left to fail inside a worker thread."""
        lut = RemapLUT(small_field)
        with ThreadedExecutor(workers=2) as ex:
            with pytest.raises(ScheduleError):
                ex.run(lut, random_image,
                       out=np.empty((64, 64), dtype=np.float32))
            with pytest.raises(ScheduleError):
                ex.run(lut, rgb_image, out=np.empty((64, 64), dtype=np.uint8))

    def test_close_idempotent(self, small_field):
        ex = ThreadedExecutor(workers=2)
        ex.close()
        ex.close()

    def test_validation(self):
        with pytest.raises(ScheduleError):
            ThreadedExecutor(workers=0)
        with pytest.raises(ScheduleError):
            ThreadedExecutor(bands_per_worker=0)

    def test_streaming_via_corrector(self, small_field, rng):
        from repro.core.pipeline import FisheyeCorrector

        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8) for _ in range(3)]
        seq = FisheyeCorrector(small_field)
        with ThreadedExecutor(workers=2) as ex:
            par = FisheyeCorrector(small_field, executor=ex)
            for f in frames:
                np.testing.assert_array_equal(par.correct(f), seq.correct(f))


def _one_slot_ring(lut, frame_shape, **kwargs):
    """The process engine in its fork-join configuration: one ring slot,
    so each frame's bands are dispatched and joined before the next."""
    kwargs.setdefault("workers", 2)
    return RingEngine(lut, frame_shape, depth=1, **kwargs)


def _run(engine, frame):
    """Correct one frame as one stream (fork-join use of the engine)."""
    (out,) = engine.stream([frame], copy=True)
    return out


class TestProcessExecutor:
    """Frame-at-a-time use of the process engine (a one-slot ring)."""

    def test_matches_sequential(self, small_field, random_image):
        lut = RemapLUT(small_field)
        expected = lut.apply(random_image)
        with _one_slot_ring(lut, random_image.shape) as engine:
            out = _run(engine, random_image)
        np.testing.assert_array_equal(out, expected)

    def test_multiple_frames(self, small_field, rng):
        lut = RemapLUT(small_field)
        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8) for _ in range(3)]
        with _one_slot_ring(lut, (64, 64)) as engine:
            for f in frames:
                np.testing.assert_array_equal(_run(engine, f), lut.apply(f))

    def test_wrong_frame_rejected(self, small_field):
        lut = RemapLUT(small_field)
        with _one_slot_ring(lut, (64, 64), workers=1) as engine:
            with pytest.raises(ScheduleError, match="geometry"):
                _run(engine, np.zeros((64, 64), dtype=np.float32))

    def test_closed_executor_rejects_work(self, small_field, random_image):
        lut = RemapLUT(small_field)
        with _one_slot_ring(lut, (64, 64), workers=1) as engine:
            _run(engine, random_image)
        with pytest.raises(ScheduleError, match="closed"):
            _run(engine, random_image)


class TestSharedMemoryExecutor:
    """The one-slot ring's shared-memory tables and frame slots."""

    @pytest.mark.parametrize("method", ["nearest", "bilinear", "bicubic"])
    def test_matches_sequential(self, method, small_field, random_image):
        lut = RemapLUT(small_field, method=method)
        expected = lut.apply(random_image)
        with _one_slot_ring(lut, random_image.shape) as engine:
            out = _run(engine, random_image)
        np.testing.assert_array_equal(out, expected)

    def test_matches_threaded(self, tilted_field, random_image):
        lut = RemapLUT(tilted_field, fill=33.0)
        assert not lut.mask.all()  # some output pixels take the fill
        with ThreadedExecutor(workers=2) as tex:
            want = tex.run(lut, random_image)
        with _one_slot_ring(lut, (64, 64)) as engine:
            got = _run(engine, random_image)
        np.testing.assert_array_equal(got, want)

    def test_rgb_and_out_buffer(self, small_field, rgb_image):
        lut = RemapLUT(small_field)
        with _one_slot_ring(lut, rgb_image.shape) as engine:
            (slot,) = engine._slots
            for out in engine.stream([rgb_image]):
                # zero-copy delivery: the frame is the slot's output plane
                assert np.shares_memory(out, slot.dst_views[0])
                np.testing.assert_array_equal(out, lut.apply(rgb_image))

    def test_multiple_frames_reuse_segments(self, small_field, rng):
        lut = RemapLUT(small_field)
        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8)
                  for _ in range(3)]
        with _one_slot_ring(lut, (64, 64)) as engine:
            names = [shm.name for group in engine._segment_groups
                     for shm in group._shms]
            for f in frames:
                np.testing.assert_array_equal(_run(engine, f), lut.apply(f))
            assert [shm.name for group in engine._segment_groups
                    for shm in group._shms] == names

    def test_spawn_context(self, small_field, random_image):
        lut = RemapLUT(small_field)
        with _one_slot_ring(lut, (64, 64), workers=1,
                            context="spawn") as engine:
            out = _run(engine, random_image)
        np.testing.assert_array_equal(out, lut.apply(random_image))

    def test_close_idempotent_and_rejects_work(self, small_field, random_image):
        lut = RemapLUT(small_field)
        engine = _one_slot_ring(lut, (64, 64), workers=1)
        engine.close()
        engine.close()
        with pytest.raises(ScheduleError):
            _run(engine, random_image)


class TestSIMDModel:
    def test_lanewise_matches_whole_array(self):
        values = np.linspace(0, 10, 37)
        for lanes in (1, 4, 8):
            out = apply_lanewise(np.sin, values, lanes)
            np.testing.assert_allclose(out, np.sin(values), rtol=1e-12)

    def test_lanewise_empty(self):
        out = apply_lanewise(lambda x: x * 2, np.array([]), 4)
        assert out.size == 0

    def test_lanewise_validation(self):
        with pytest.raises(PlatformError):
            apply_lanewise(np.sin, np.zeros(4), 0)
        with pytest.raises(PlatformError):
            apply_lanewise(np.sin, np.zeros((2, 2)), 4)

    def test_gather_limits_speedup(self):
        # with gathers, a gather-less ISA cannot reach its lane count
        s = simd_speedup(SSE2, arith_ops=11.0, gather_ops=4.0)
        assert 1.0 < s < SSE2.lanes

    def test_hardware_gather_helps(self):
        no_gather = simd_speedup(SSE2, 11.0, 4.0)
        hw_gather = simd_speedup(AVX2, 11.0, 4.0)
        assert hw_gather > no_gather

    def test_pure_arithmetic_reaches_lanes(self):
        s = simd_speedup(SSE2, arith_ops=100.0, gather_ops=0.0)
        assert s == pytest.approx(SSE2.lanes, rel=0.01)

    def test_fma_counts(self):
        assert simd_speedup(SPU, 20.0, 0.0) > simd_speedup(SSE2, 20.0, 0.0)

    def test_zero_ops_neutral(self):
        assert simd_speedup(SSE2, 0.0, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(PlatformError):
            simd_speedup(SSE2, -1.0, 0.0)
