"""Tests: shared-memory segment lifecycle survives crashes and GC.

The ring engine publishes named POSIX segments; losing track of one
leaks it until reboot and makes Python's resource tracker print
warnings at interpreter exit.  These tests pin the hardened lifecycle:
finalizers release segments under fork and spawn, after worker crashes,
and even when an engine is dropped without ``close()`` — with a
*subprocess* asserting that nothing survives to the tracker's shutdown
sweep.
"""

import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.remap import RemapLUT
from repro.parallel.ring import RingEngine
from repro.parallel.shmseg import (
    PlanarFrameSegments,
    SharedTables,
    attach_planar_tables,
    release_segments,
    share_array,
)

pytestmark = pytest.mark.tier1


def _segment_names(engine):
    return [shm.name for group in engine._segment_groups
            for shm in group._shms]


def _assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestSegmentGroups:
    def test_release_is_idempotent(self):
        seg = PlanarFrameSegments([(8, 8)], np.uint8, [(8, 8)])
        name = seg.src_shm.name
        seg.release()
        assert seg.released
        seg.release()  # second call is a no-op
        _assert_unlinked([name])

    def test_gc_releases_segments(self):
        seg = PlanarFrameSegments([(8, 8)], np.uint8, [(8, 8)])
        names = [seg.src_shm.name, seg.dst_shm.name]
        del seg
        _assert_unlinked(names)

    def test_release_segments_tolerates_missing(self):
        shm, _ = share_array(np.arange(4))
        release_segments([shm])
        release_segments([shm])  # already unlinked: must not raise

    def test_shared_tables_roundtrip(self, small_field, random_image):
        lut = RemapLUT(small_field, method="bilinear")
        tables = SharedTables(lut)
        segments, (attached,) = attach_planar_tables(tables.spec, tables.meta)
        try:
            np.testing.assert_array_equal(attached.apply(random_image),
                                          lut.apply(random_image))
        finally:
            for shm in segments:
                shm.close()
            tables.release()


class TestExecutorLifecycle:
    # one-slot rings (the fork-join configuration) closed after a frame
    # ran, so the workers hold attachments; the ids are the names these
    # two cases have always been reported under
    @pytest.mark.parametrize("context", [
        pytest.param("fork", id="ProcessExecutor"),
        pytest.param("spawn", id="SharedMemoryExecutor"),
    ])
    def test_close_unlinks_every_segment(self, small_field, random_image,
                                         context):
        lut = RemapLUT(small_field, method="bilinear")
        engine = RingEngine(lut, (64, 64), workers=1, depth=1,
                            context=context)
        names = _segment_names(engine)
        assert names
        (out,) = engine.stream([random_image], copy=True)
        np.testing.assert_array_equal(out, lut.apply(random_image))
        engine.close()
        _assert_unlinked(names)

    def test_dropped_executor_unlinks_via_gc(self, small_field):
        lut = RemapLUT(small_field, method="bilinear")
        engine = RingEngine(lut, (64, 64), workers=1, depth=2)
        names = _segment_names(engine)
        assert names
        procs = list(engine._procs)
        del engine  # no close(): the finalizers must still fire
        import gc
        gc.collect()
        _assert_unlinked(names)
        for p in procs:
            p.join(timeout=5.0)
            assert not p.is_alive()

    def test_ring_close_unlinks_every_segment(self, small_field):
        lut = RemapLUT(small_field, method="bilinear")
        engine = RingEngine(lut, (64, 64), workers=1, depth=2)
        names = _segment_names(engine)
        engine.close()
        _assert_unlinked(names)


# Run inside a subprocess: start a stream on a process engine, kill a
# worker mid-stream, then exit WITHOUT close() — the tracker's shutdown
# sweep must find nothing to warn about, and the segments must be gone.
_CRASH_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    from repro.core.intrinsics import CameraIntrinsics, FisheyeIntrinsics
    from repro.core.lens import EquidistantLens
    from repro.core.mapping import perspective_map
    from repro.core.remap import RemapLUT
    from repro.parallel.ring import RingEngine
    from repro.serve.broker import StreamBroker

    SIZE = 64
    circle = SIZE / 2.0 - 1.0
    sensor = FisheyeIntrinsics.centered(SIZE, SIZE, focal=circle / (np.pi / 2.0))
    lens = EquidistantLens(sensor.focal)
    focal = sensor.focal * 0.5
    out = CameraIntrinsics(fx=focal, fy=focal, cx=(SIZE - 1) / 2.0,
                           cy=(SIZE - 1) / 2.0, width=SIZE, height=SIZE)
    field = perspective_map(sensor, lens, out)
    lut = RemapLUT(field, method="bilinear")
    frame = np.arange(SIZE * SIZE, dtype=np.uint8).reshape(SIZE, SIZE)

    def endless():
        while True:  # only the crash can end this stream
            yield frame

    {body}

    print("NAMES:" + ",".join(names))
    sys.stdout.flush()
    # deliberately no close(): rely on finalizers + atexit
""")


_RING_BODY = """
engine = RingEngine(lut, (SIZE, SIZE), workers=2, depth=2, context="{context}")
try:
    for k, _ in enumerate(engine.stream(endless())):
        if k == 1:
            engine._procs[0].terminate()
except Exception as exc:
    assert type(exc).__name__ == "StreamError", exc
names = [shm.name for group in engine._segment_groups for shm in group._shms]
"""

# the broker's session slots and tables, named before the crash: a
# failed session releases its slots right away
_BROKER_BODY = """
broker = StreamBroker(workers=2, context="{context}")
session = broker.open(endless(), field, depth=2, copy=False)
groups = list(session._slots) + [t for t, _ in broker._tables.values()]
names = [shm.name for group in groups for shm in group._shms]
try:
    for k, _ in enumerate(session):
        if k == 1:
            broker._procs[0].terminate()
except Exception as exc:
    assert type(exc).__name__ == "StreamError", exc
"""


def _run_crash_script(body, context):
    script = _CRASH_SCRIPT.format(body=body.format(context=context))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names_line = [l for l in proc.stdout.splitlines() if l.startswith("NAMES:")]
    assert names_line, proc.stdout
    names = [n for n in names_line[0][len("NAMES:"):].split(",") if n]
    assert names
    return names, proc.stderr


class TestCrashedWorkerLeavesNoLeak:
    """The regression test the lifecycle hardening exists for."""

    @pytest.mark.parametrize("context", ["fork", "spawn"])
    def test_executor_crash_no_tracker_warnings(self, context):
        """A crashed worker of the multi-stream broker's fleet."""
        names, stderr = _run_crash_script(_BROKER_BODY, context)
        assert "resource_tracker" not in stderr, stderr
        assert "leaked" not in stderr, stderr
        _assert_unlinked(names)

    @pytest.mark.parametrize("context", ["fork", "spawn"])
    def test_ring_crash_no_tracker_warnings(self, context):
        names, stderr = _run_crash_script(_RING_BODY, context)
        assert "resource_tracker" not in stderr, stderr
        assert "leaked" not in stderr, stderr
        _assert_unlinked(names)


class TestEarlyStreamClose:
    """Abandoning a ring stream mid-flight must tear everything down.

    Regression tests for the early-close leak: a consumer that breaks
    out of ``corrected_stream(engine="ring")`` (or closes the generator
    explicitly) used to leave the persistent workers running and every
    shared segment linked until interpreter exit.
    """

    def _engine_and_stream(self, small_field):
        lut = RemapLUT(small_field, method="bilinear")
        engine = RingEngine(lut, (64, 64), workers=2, depth=2)
        frame = np.zeros((64, 64), dtype=np.uint8)

        def endless():
            while True:
                yield frame

        return engine, engine.stream(endless())

    def test_generator_close_stops_workers_and_unlinks(self, small_field):
        engine, gen = self._engine_and_stream(small_field)
        names = _segment_names(engine)
        next(gen)
        next(gen)
        gen.close()  # early abandon: consumer walks away mid-stream
        assert engine._closed
        for p in engine._procs:
            p.join(timeout=5.0)
            assert not p.is_alive()
        _assert_unlinked(names)

    def test_break_out_of_for_loop_unlinks(self, small_field):
        engine, gen = self._engine_and_stream(small_field)
        names = _segment_names(engine)
        for k, _ in enumerate(gen):
            if k == 1:
                break
        del gen  # the for-loop's GeneratorExit path, then GC
        import gc
        gc.collect()
        assert engine._closed
        _assert_unlinked(names)

    def test_corrected_stream_early_close_tears_down_ring(self, small_field,
                                                          monkeypatch):
        from repro.parallel import ring as ring_mod
        from repro.video.stream import corrected_stream

        engines = []
        real_for_stream = RingEngine.for_stream.__func__

        def spy_for_stream(cls, lut, first_frame, **kwargs):
            engine = real_for_stream(cls, lut, first_frame, **kwargs)
            engines.append(engine)
            return engine

        monkeypatch.setattr(ring_mod.RingEngine, "for_stream",
                            classmethod(spy_for_stream))
        frame = np.zeros((64, 64), dtype=np.uint8)

        def endless():
            while True:
                yield frame

        gen = corrected_stream(endless(), small_field, engine="ring",
                               workers=2, depth=2)
        next(gen)
        next(gen)
        gen.close()
        assert len(engines) == 1
        engine = engines[0]
        assert engine._closed
        names = _segment_names(engine)
        for p in engine._procs:
            p.join(timeout=5.0)
            assert not p.is_alive()
        _assert_unlinked(names)

    def test_exception_in_consumer_loop_unlinks(self, small_field):
        from repro.video.stream import corrected_stream

        frame = np.zeros((64, 64), dtype=np.uint8)

        def endless():
            while True:
                yield frame

        gen = corrected_stream(endless(), small_field, engine="ring",
                               workers=1, depth=2)
        with pytest.raises(KeyboardInterrupt):
            for k, _ in enumerate(gen):
                if k == 2:
                    raise KeyboardInterrupt
        gen.close()
        import gc
        gc.collect()
        leftover = [p for p in __import__("multiprocessing").active_children()
                    if p.name.startswith("ring-worker-")]
        for p in leftover:
            p.join(timeout=5.0)
        assert not [p for p in leftover if p.is_alive()]
