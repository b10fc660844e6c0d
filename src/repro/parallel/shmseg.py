"""Shared-memory segment plumbing for the process engine.

The streaming engine (:mod:`~repro.parallel.ring` and the
:mod:`~repro.serve.broker` it is built on) keeps the fragile parts in
one place here:

- **publication** of numpy arrays and whole LUT table sets into named
  POSIX shared-memory segments (:func:`share_array`,
  :class:`SharedTables`, :class:`PlanarFrameSegments`);
- **attachment** from worker processes (:func:`attach_segment`,
  :func:`attach_planar_slot`, :func:`attach_planar_tables`);
- **lifecycle hardening**: every parent-owned segment group is wired to
  a :func:`weakref.finalize` finalizer, which Python also runs at
  interpreter exit (atexit), so segments are unlinked even when an
  engine is dropped without ``close()`` or a worker crashes mid-run —
  no ``resource_tracker`` leak warnings survive either event;
- the worker-side **telemetry bootstrap/drain** pair
  (:func:`init_worker_telemetry`, :func:`worker_delta`) that lets each
  child keep a private registry and ship pure deltas back over the
  result channel.

Resource-tracker model: both ``fork`` and ``spawn`` children inherit
the parent's tracker process (spawn passes the tracker fd through its
preparation data), so a worker's attach-time registration deduplicates
into the same name set the parent's create-time registration lives in.
The parent's finalizer is therefore the single owner of the unlink —
workers must *never* unregister (that would strip the shared entry and
make the parent's unlink race the tracker), and with the finalizer in
place the tracker's shutdown sweep finds nothing to warn about even
after a crashed worker or an engine dropped without ``close()``.
"""

from __future__ import annotations

import weakref
from multiprocessing import shared_memory

import numpy as np

from ..core.kernel_tiers import DEFAULT_FRAC_BITS
from ..core.remap import RemapLUT
from ..obs.telemetry import Telemetry, get_telemetry, set_telemetry

__all__ = [
    "share_array",
    "attach_segment",
    "release_segments",
    "ensure_resource_tracker",
    "PlanarFrameSegments",
    "attach_planar_slot",
    "SharedTables",
    "attach_planar_tables",
    "init_worker_telemetry",
    "worker_delta",
]

#: key prefix under which a chroma LUT's tables live inside a planar
#: :class:`SharedTables` spec (one spec, two LUTs).
_CHROMA_PREFIX = "c:"


def ensure_resource_tracker() -> None:
    """Start the resource-tracker process now (idempotent).

    Engines that fork workers *before* creating any shared segment
    (the serve broker admits sessions after its fleet is up) must force
    the tracker into existence first — otherwise each child spawns its
    own tracker on first attach and warns at exit about "leaked"
    segments the parent already unlinked.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - platform without the tracker
        pass


# ----------------------------------------------------------------------
# worker-side telemetry bootstrap
# ----------------------------------------------------------------------
def init_worker_telemetry(enabled: bool) -> None:
    """Give this worker its own registry (fork *and* spawn safe).

    The worker registry starts empty and is drained after every work
    unit, so each result carries a pure counter/histogram delta that
    the parent folds in with
    :meth:`~repro.obs.telemetry.Telemetry.merge` — no shared state, no
    locks across processes.
    """
    if enabled:
        set_telemetry(Telemetry())


def worker_delta():
    """Drain this worker's registry: the delta shipped with a result."""
    tel = get_telemetry()
    return tel.drain() if tel.enabled else None


# ----------------------------------------------------------------------
# segment creation / attachment
# ----------------------------------------------------------------------
def share_array(arr):
    """Copy ``arr`` into a fresh named segment; returns (shm, view)."""
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return shm, view


def attach_segment(name: str):
    """Attach to an existing named segment from a worker process.

    The attach-time registration lands in the parent's inherited
    resource tracker, where it deduplicates against the create-time
    entry (the tracker's cache is a name set).  The parent's finalizer
    owns the unlink; workers only ever ``close()`` their mapping.
    """
    return shared_memory.SharedMemory(name=name)


def release_segments(shms) -> None:
    """Close + unlink segments, tolerating repeats and races.

    Used as the finalizer callback for every parent-owned segment
    group; safe to run from ``close()``, from GC, and from atexit, in
    any order (``unlink`` of an already-unlinked segment is ignored).
    """
    for shm in shms:
        try:
            shm.close()
        except Exception:  # pragma: no cover - buffer already released
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - platform quirks
            pass


class _SegmentGroup:
    """A set of parent-owned segments with a crash-proof finalizer."""

    def __init__(self, shms):
        self._shms = list(shms)
        self._finalizer = weakref.finalize(self, release_segments, self._shms)

    @property
    def released(self) -> bool:
        return not self._finalizer.alive

    def release(self) -> None:
        """Unlink now (idempotent; also runs via GC/atexit otherwise)."""
        self._finalizer()


def _plane_views(buf, plane_shapes, dtype):
    """Carve per-plane views out of one packed segment buffer."""
    views = []
    offset = 0
    for shape in plane_shapes:
        views.append(np.ndarray(tuple(shape), dtype=dtype, buffer=buf,
                                offset=offset))
        offset += int(np.prod(shape)) * dtype.itemsize
    return tuple(views)


class PlanarFrameSegments(_SegmentGroup):
    """One multi-plane source + destination shared buffer pair.

    The engine's one frame-slot format: all of a frame's planes are
    packed into **one** shared-memory allocation per side, laid out
    back to back — a gray or RGB frame is a single plane, a YUV420
    frame its full-resolution Y and half-resolution U and V in
    :data:`~repro.video.yuv.PLANE_NAMES` order.  One segment pair per
    ring slot regardless of plane count, with per-plane views carved
    out at fixed offsets.  Workers address ``(slot, plane)`` pairs, so
    two workers can gather the Y band of frame *N* while a third
    finishes the chroma of frame *N-1*.
    """

    def __init__(self, plane_shapes, frame_dtype, out_plane_shapes):
        frame_dtype = np.dtype(frame_dtype)
        self.plane_shapes = tuple(tuple(s) for s in plane_shapes)
        self.out_plane_shapes = tuple(tuple(s) for s in out_plane_shapes)
        self.dtype = frame_dtype
        nbytes_src = sum(int(np.prod(s)) for s in self.plane_shapes) \
            * frame_dtype.itemsize
        nbytes_dst = sum(int(np.prod(s)) for s in self.out_plane_shapes) \
            * frame_dtype.itemsize
        self.src_shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes_src))
        self.dst_shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes_dst))
        self.src_views = _plane_views(self.src_shm.buf, self.plane_shapes,
                                      frame_dtype)
        self.dst_views = _plane_views(self.dst_shm.buf, self.out_plane_shapes,
                                      frame_dtype)
        super().__init__([self.src_shm, self.dst_shm])

    @property
    def spec(self):
        """Picklable attach recipe (see :func:`attach_planar_slot`)."""
        return (self.src_shm.name, self.plane_shapes,
                self.dst_shm.name, self.out_plane_shapes, self.dtype.str)

    def release(self):
        self.src_views = None
        self.dst_views = None
        super().release()


def attach_planar_slot(spec):
    """Worker side of :attr:`PlanarFrameSegments.spec`.

    Returns ``(segments, src_views, dst_views)`` with one view per
    plane on each side.  The caller keeps ``segments`` alive (and
    ``close()``\\ s them when done) — the parent owns the unlink.
    """
    src_name, plane_shapes, dst_name, out_plane_shapes, dtype_str = spec
    dtype = np.dtype(dtype_str)
    src_shm = attach_segment(src_name)
    dst_shm = attach_segment(dst_name)
    src_views = _plane_views(src_shm.buf, plane_shapes, dtype)
    dst_views = _plane_views(dst_shm.buf, out_plane_shapes, dtype)
    return [src_shm, dst_shm], src_views, dst_views


def _lut_meta(lut: RemapLUT) -> dict:
    return {
        "out_shape": lut.out_shape,
        "src_shape": lut.src_shape,
        "method": lut.method,
        "border": lut.border,
        "fill": lut.fill,
        "tier": lut.tier,
        "frac_bits": lut.frac_bits,
    }


class SharedTables(_SegmentGroup):
    """The LUT's compact tables published once into named segments.

    ``spec`` maps table keys to ``(segment_name, shape, dtype_str)``
    triples and ``meta`` carries the scalar LUT parameters — together
    they are everything a worker needs to rebuild a zero-copy
    :class:`~repro.core.remap.RemapLUT` with :func:`attach_planar_tables`.

    With a ``chroma`` LUT the publication becomes *planar*: the chroma
    tables join the same spec under :data:`_CHROMA_PREFIX`-prefixed
    keys and ``meta["chroma"]`` carries the chroma LUT's scalars — one
    spec, one segment group, two zero-copy LUTs on the worker side.
    ``pixfmt`` records which planar layout the tables serve
    (``"yuv420"``: three planes, u/v sharing the chroma LUT;
    ``"nv12"``: two planes, the chroma LUT applied once to the
    interleaved UV view) so the worker side recovers the
    right per-plane LUT tuple without guessing.
    """

    def __init__(self, lut: RemapLUT, chroma: RemapLUT | None = None,
                 pixfmt: str = "yuv420"):
        shms = []
        self.spec = {}

        def publish(key, arr):
            shm, _ = share_array(arr)
            shms.append(shm)
            self.spec[key] = (shm.name, tuple(arr.shape), arr.dtype.str)

        def publish_lut(lut, prefix=""):
            publish(prefix + "indices", lut.indices)
            if lut.fracs is not None:
                publish(prefix + "fracs", lut.fracs)
                publish(prefix + "wtab", lut._weight_table())
            if lut.mask is not None:
                publish(prefix + "mask", np.asarray(lut.mask))
            if lut.tier != "numpy":
                # quantize once in the parent; workers map the same table
                publish(prefix + "qwtab", lut._qweight_table())

        publish_lut(lut)
        self.meta = _lut_meta(lut)
        if chroma is not None:
            publish_lut(chroma, _CHROMA_PREFIX)
            self.meta["chroma"] = _lut_meta(chroma)
            self.meta["pixfmt"] = pixfmt
        super().__init__(shms)


def _attach_lut(spec, meta, segments, prefix=""):
    """Attach one LUT's tables out of a (possibly planar) spec."""
    arrays = {}
    for key, (name, shape, dtype_str) in spec.items():
        if prefix:
            if not key.startswith(prefix):
                continue
            key = key[len(prefix):]
        elif key.startswith(_CHROMA_PREFIX):
            continue
        shm = attach_segment(name)
        segments.append(shm)
        arrays[key] = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str),
                                 buffer=shm.buf)
    lut = RemapLUT.from_tables(
        arrays["indices"], arrays.get("fracs"), arrays.get("mask"),
        out_shape=meta["out_shape"], src_shape=meta["src_shape"],
        method=meta["method"], border=meta["border"],
        fill=meta["fill"], weight_table=arrays.get("wtab"),
        tier=meta.get("tier", "numpy"),
        frac_bits=meta.get("frac_bits", DEFAULT_FRAC_BITS),
        qweight_table=arrays.get("qwtab"))
    return lut


def attach_planar_tables(spec, meta):
    """Attach a publication as its per-plane LUT tuple.

    Returns ``(segments, luts)`` where ``luts`` matches
    ``meta["pixfmt"]``: for ``"yuv420"`` (the default)
    ``(luma, chroma, chroma)`` in :data:`~repro.video.yuv.PLANE_NAMES`
    order, for ``"nv12"`` ``(luma, chroma)`` in
    :data:`~repro.video.yuv.NV12_PLANE_NAMES` order — the single
    chroma LUT serves the interleaved UV plane as one 2-channel apply.
    A publication without chroma tables yields the one-plane ``(lut,)``.
    """
    segments = []
    luma = _attach_lut(spec, meta, segments)
    if "chroma" not in meta:
        return segments, (luma,)
    chroma = _attach_lut(spec, meta["chroma"], segments, _CHROMA_PREFIX)
    if meta.get("pixfmt", "yuv420") == "nv12":
        return segments, (luma, chroma)
    return segments, (luma, chroma, chroma)
