"""The one place a correction request becomes a set of planes.

Every streaming front end corrects a frame as a set of *planes* — one
packed plane for ``rgb``, ``y``/``u``/``v`` for ``yuv420``, ``y``/``uv``
for ``nv12`` — each with its own remap table, output shape and band
work items.  :class:`FramePlan` derives all of them from one request
(field, pixel format, optional fused ``out_size``, build parameters,
kernel tier, LUT cache), so :func:`~repro.video.stream.corrected_stream`
(sync and ring), :class:`~repro.serve.broker.StreamBroker`,
:class:`~repro.parallel.ring.RingEngine` and
:class:`~repro.video.yuv.YUVCorrector` cannot disagree about a plane:

- **tables** — per-plane LUTs fetched through the
  :class:`~repro.core.lutcache.LUTCache` at the requested kernel tier.
  A planar format's chroma table is built from the luma field's
  half-resolution twin (:func:`~repro.core.mapping.chroma_half_field`);
  with ``out_size`` every table is a fused correct+downscale
  composition at the delivered size;
- **shapes** — per-plane source and output shapes, which size the
  engines' shared-memory slots and the sync path's output pool;
- **bands** — ``(plane, row0, row1)`` work items: chroma planes run at
  half height with the chunk halved;
- **key** — the shared-table publication key under which a worker
  fleet attaches the tables once per calibration.
"""

from __future__ import annotations

import numpy as np

from ..core.image import Frame
from ..core.kernel_tiers import resolve_tier
from ..core.lutcache import LUTCache
from ..core.mapping import chroma_half_field
from ..core.remap import RemapLUT
from ..errors import ImageFormatError, ScheduleError
from .yuv import NV12Frame, YUV420Frame, plane_names_for

__all__ = ["FramePlan", "PIXFMTS"]

#: pixel formats every front end accepts.
PIXFMTS = ("rgb", "yuv420", "nv12")

_FRAME_CLS = {"yuv420": YUV420Frame, "nv12": NV12Frame}


class FramePlan:
    """Per-plane tables, shapes, bands and publication key of a stream.

    Build one with :meth:`for_field` (from a coordinate field) or
    :meth:`from_luts` (around tables built elsewhere).

    Attributes
    ----------
    pixfmt:
        ``"rgb"``, ``"yuv420"`` or ``"nv12"``.
    luts:
        Per-plane LUTs in plane order (I420's ``u`` and ``v`` share one
        chroma table).
    planar:
        Whether the format has separate chroma planes.
    plane_names:
        The ``plane=`` labels of a planar format; ``()`` for rgb.
    frame_cls:
        :class:`~repro.video.yuv.YUV420Frame` /
        :class:`~repro.video.yuv.NV12Frame`, or ``None`` for rgb.
    """

    def __init__(self, pixfmt: str, luts, key):
        self.pixfmt = pixfmt
        self.luts = tuple(luts)
        self.planar = pixfmt != "rgb"
        self.plane_names = plane_names_for(pixfmt) if self.planar else ()
        self.frame_cls = _FRAME_CLS.get(pixfmt)
        self._key = key

    # ------------------------------------------------------------------
    @classmethod
    def for_field(cls, field, pixfmt: str = "rgb", out_size=None,
                  method: str = "bilinear", border: str = "constant",
                  fill: float = 0.0, kernel: str = "numpy", lut_cache=None,
                  chroma_fill: float = 128) -> "FramePlan":
        """Plan the planes of a stream corrected through ``field``.

        ``field`` is the full-resolution (luma) geometry.  Chroma
        tables always interpolate bilinearly (their resolution is
        already halved) and fill out-of-view pixels with
        ``chroma_fill`` (128 = neutral).  ``out_size=(width, height)``
        builds every table as the plain 4-tap fused composition of the
        correction with an area downscale to that size (exact 2x2 box
        at 2:1; see ``docs/kernel.md``).
        """
        if pixfmt not in PIXFMTS:
            raise ImageFormatError(
                f"unknown pixfmt {pixfmt!r}; known: {', '.join(PIXFMTS)}")
        planar = pixfmt != "rgb"
        if out_size is not None:
            ow, oh = int(out_size[0]), int(out_size[1])
            if ow < 2 or oh < 2:
                raise ImageFormatError(
                    f"out_size must be at least 2x2, got {ow}x{oh}")
            if planar and (ow % 2 or oh % 2):
                raise ImageFormatError(
                    f"planar out_size must be even, got {ow}x{oh}")
        tier = resolve_tier(kernel)
        requests = [(field, method, fill, 1)]
        if planar:
            requests.append((chroma_half_field(field), "bilinear",
                             chroma_fill, 2))
        tables = []
        for f, m, fl, scale in requests:
            if out_size is None:
                lut = (lut_cache.get(f, method=m, border=border, fill=fl)
                       if lut_cache is not None
                       else RemapLUT(f, method=m, border=border, fill=fl))
            else:
                from ..core.compose import composed_lut, downscale_field
                fh, fw = f.shape
                outer = downscale_field(ow // scale, oh // scale, fw, fh,
                                        prefilter=False)
                lut = composed_lut(outer, f, method=m, border=border,
                                   fill=fl, cache=lut_cache)
            # non-mutating clone: cached tables stay tier-neutral
            tables.append(lut.with_tier(tier))
        if pixfmt == "yuv420":
            tables.append(tables[1])

        def key():
            return (LUTCache.key_for(field, method, border, fill)
                    + f"|{tier}" + (f"|{pixfmt}" if planar else "")
                    + (f"|fused{ow}x{oh}" if out_size is not None else ""))

        return cls(pixfmt, tables, key)

    @classmethod
    def from_luts(cls, lut: RemapLUT, chroma_lut: RemapLUT | None = None,
                  pixfmt: str = "yuv420") -> "FramePlan":
        """Plan around prebuilt tables.

        Without ``chroma_lut`` the plan is rgb; with it, ``pixfmt``
        names the planar layout and the chroma table must be the
        half-resolution twin of ``lut`` on both sides.
        """
        if chroma_lut is None:
            return cls("rgb", (lut,), f"lut:{id(lut):x}")
        if pixfmt not in ("yuv420", "nv12"):
            raise ScheduleError(
                f"planar plans support yuv420/nv12, got {pixfmt!r}")
        for side in ("src_shape", "out_shape"):
            h, w = getattr(lut, side)
            if getattr(chroma_lut, side) != (h // 2, w // 2):
                raise ScheduleError(
                    f"chroma LUT {side} {getattr(chroma_lut, side)} is not "
                    f"half the luma {getattr(lut, side)}")
        luts = ((lut, chroma_lut, chroma_lut) if pixfmt == "yuv420"
                else (lut, chroma_lut))
        return cls(pixfmt, luts, f"lut:{id(lut):x}:{id(chroma_lut):x}:{pixfmt}")

    # ------------------------------------------------------------------
    @property
    def lut(self) -> RemapLUT:
        """The full-resolution (luma, or packed rgb) table."""
        return self.luts[0]

    @property
    def chroma_lut(self) -> RemapLUT | None:
        return self.luts[1] if self.planar else None

    @property
    def key(self) -> str:
        """Shared-table publication key.

        Computed on first use: for a field-built plan it hashes the
        field, which only the engines that publish tables need.
        """
        if callable(self._key):
            self._key = self._key()
        return self._key

    def publish(self):
        """Publish the tables into shared memory (one segment group)."""
        from ..parallel.shmseg import SharedTables
        if self.planar:
            return SharedTables(self.lut, chroma=self.chroma_lut,
                                pixfmt=self.pixfmt)
        return SharedTables(self.lut)

    # ------------------------------------------------------------------
    def src_shapes(self, frame_shape) -> tuple:
        """Per-plane source shapes of frames whose first plane (packed
        frame or luma) has ``frame_shape``."""
        frame_shape = tuple(frame_shape)
        if frame_shape[:2] != self.lut.src_shape:
            raise ScheduleError(
                f"frame shape {frame_shape} does not match LUT source "
                f"{self.lut.src_shape}")
        if self.planar:
            if len(frame_shape) != 2:
                raise ScheduleError(
                    f"planar luma shapes are 2-D, got {frame_shape}")
            return self.frame_cls.plane_shapes(*frame_shape)
        return (frame_shape,)

    def out_shapes(self, src_shapes) -> tuple:
        """Per-plane output shapes for the given source plane shapes."""
        if self.planar:
            return self.frame_cls.plane_shapes(*self.lut.out_shape)
        return (self.lut.out_shape + tuple(src_shapes[0][2:]),)

    def slots(self, frame_shape, dtype, depth: int) -> list:
        """``depth`` shared-memory frame slots (input + output planes)."""
        from ..parallel.shmseg import PlanarFrameSegments
        src = self.src_shapes(frame_shape)
        out = self.out_shapes(src)
        return [PlanarFrameSegments(src, dtype, out) for _ in range(depth)]

    def bands(self, workers: int, schedule: str = "dynamic",
              chunk: int | None = None) -> list:
        """``(plane, row0, row1)`` work items of one frame (see
        :func:`~repro.parallel.partition.plan_bands`)."""
        from ..parallel.partition import plan_bands
        bands = [(0, r0, r1) for r0, r1 in
                 plan_bands(self.lut.out_shape[0], workers, schedule, chunk)]
        if self.planar:
            half = plan_bands(self.chroma_lut.out_shape[0], workers, schedule,
                              None if chunk is None else max(1, chunk // 2))
            bands += [(p, r0, r1) for p in range(1, len(self.luts))
                      for r0, r1 in half]
        return bands

    # ------------------------------------------------------------------
    def planes_of(self, item) -> tuple:
        """The planes of one stream item, checked against the format."""
        if self.planar:
            if not isinstance(item, self.frame_cls):
                raise ScheduleError(
                    f"pixfmt={self.pixfmt!r} streams expect "
                    f"{self.frame_cls.__name__} items, "
                    f"got {type(item).__name__}")
            return item.planes
        return (item.data if isinstance(item, Frame) else np.asarray(item),)

    def wrap(self, item, planes):
        """Package corrected ``planes`` as the kind of ``item``; a
        :class:`~repro.core.image.Frame` keeps its metadata."""
        if self.planar:
            return self.frame_cls(*planes)
        return item.with_data(planes[0]) if isinstance(item, Frame) \
            else planes[0]
