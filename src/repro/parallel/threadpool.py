"""Real shared-memory parallel executors for the remap kernel.

:class:`ThreadedExecutor` runs the tile kernel on a
``ThreadPoolExecutor``.  The heavy work inside each tile is numpy
fancy-indexing and arithmetic, which releases the GIL, so on a real
multicore machine this scales like the paper's pthreads version (see
the same-run engine table in ``docs/parallelization.md``).

Tiles are row bands: each worker writes a disjoint slice of the shared
output array, so no synchronization beyond the final join is needed —
the same ownership argument the paper makes for its data decomposition.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ..errors import ScheduleError
from ..core.remap import RemapLUT
from ..obs.logsetup import get_logger
from ..obs.telemetry import get_telemetry
from .partition import row_bands, row_bands_weighted

__all__ = ["ThreadedExecutor"]

log = get_logger(__name__)


class ThreadedExecutor:
    """Tile-parallel LUT application on a thread pool.

    Parameters
    ----------
    workers:
        Thread count (>= 1).
    bands_per_worker:
        Work units per worker; more bands improve dynamic balance at
        the cost of dispatch overhead.
    weighted:
        If true, cut bands by estimated cost (valid-pixel count) rather
        than by row count.
    """

    name = "threaded"

    def __init__(self, workers: int = 4, bands_per_worker: int = 4,
                 weighted: bool = False):
        if workers < 1:
            raise ScheduleError(f"workers must be >= 1, got {workers}")
        if bands_per_worker < 1:
            raise ScheduleError(f"bands_per_worker must be >= 1, got {bands_per_worker}")
        self.workers = workers
        self.bands_per_worker = bands_per_worker
        self.weighted = weighted
        self._pool = None

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            log.debug("starting thread pool: %d workers", self.workers)
            self._pool = ThreadPoolExecutor(max_workers=self.workers,
                                            thread_name_prefix="remap")
        return self._pool

    def close(self):
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            log.debug("shutting down thread pool")
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self):
        self._ensure_pool()
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    def _tiles_for(self, lut: RemapLUT):
        h, w = lut.out_shape
        count = min(h, self.workers * self.bands_per_worker)
        if self.weighted and lut.mask is not None:
            return row_bands_weighted(lut.mask.reshape(h, w), count)
        return row_bands(h, w, count)

    def run(self, lut: RemapLUT, image, out=None):
        """Apply ``lut`` to ``image`` with tile-parallel workers.

        ``out`` must match the corrected frame exactly (shape including
        channels, and the frame's dtype), as :meth:`RemapLUT.apply`
        requires; a mismatch raises before any band runs.
        """
        image = np.asarray(image)
        channels = image.shape[2:] if image.ndim == 3 else ()
        expected = lut.out_shape + channels
        if out is None:
            out = np.empty(expected, dtype=image.dtype)
        elif out.shape != expected or out.dtype != image.dtype:
            raise ScheduleError(
                f"output buffer {out.shape}/{out.dtype} does not match "
                f"{expected}/{image.dtype}")

        tiles = self._tiles_for(lut)
        pool = self._ensure_pool()
        tel = get_telemetry()
        t_frame = time.perf_counter() if tel.enabled else 0.0

        if tel.enabled:
            band_secs = []

            def worker(tile):
                t0 = time.perf_counter()
                out[tile.row0:tile.row1] = lut.apply_rows(image, tile.row0, tile.row1)
                dt = time.perf_counter() - t0
                tel.histogram("executor.band_seconds").observe(dt)
                band_secs.append(dt)
        else:
            def worker(tile):
                out[tile.row0:tile.row1] = lut.apply_rows(image, tile.row0, tile.row1)

        futures = [pool.submit(worker, t) for t in tiles]
        done, _ = wait(futures)
        for f in done:
            f.result()  # re-raise worker exceptions
        if tel.enabled:
            dt = time.perf_counter() - t_frame
            tel.counter("executor.frames").inc()
            tel.counter("executor.bands").inc(len(tiles))
            tel.histogram("executor.frame_seconds").observe(dt)
            tel.add_span("executor.frame", time.time() - dt, dt, cat=self.name,
                         args={"bands": len(tiles)})
            # dispatch + join cost on top of an ideal parallel schedule
            tel.histogram("executor.fanout_seconds").observe(
                max(0.0, dt - sum(band_secs) / self.workers))
        return out
