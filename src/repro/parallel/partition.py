"""Domain decomposition of the output frame into work units.

The correction kernel is embarrassingly parallel over *output* pixels;
how the output is cut determines load balance (out-of-FOV corner tiles
are nearly free), source-side locality (small tiles touch a compact
source window) and the per-unit overhead (sync, DMA setup).  Three
classic decompositions are provided:

- :func:`row_bands` — one contiguous band of rows per unit,
- :func:`blocks` — a 2-D grid of rectangular tiles,
- :func:`row_bands_weighted` — contiguous bands balanced by a per-row
  cost estimate instead of row count (Section 4's answer to the
  out-of-FOV imbalance).

:func:`plan_bands` cuts the streaming engines' band work items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PartitionError, ScheduleError

__all__ = ["Tile", "row_bands", "blocks", "row_bands_weighted", "tile_weights",
           "plan_bands", "RING_SCHEDULES"]

#: band-scheduling policies the streaming engines execute
#: (schedule.simulate models the same three; ``static_cyclic`` is
#: meaningless on a shared queue).
RING_SCHEDULES = ("static", "dynamic", "guided")


@dataclass(frozen=True)
class Tile:
    """A rectangular output region ``[row0, row1) x [col0, col1)``."""

    row0: int
    row1: int
    col0: int
    col1: int

    def __post_init__(self):
        if not (0 <= self.row0 < self.row1 and 0 <= self.col0 < self.col1):
            raise PartitionError(f"degenerate tile {self!r}")

    @property
    def height(self) -> int:
        return self.row1 - self.row0

    @property
    def width(self) -> int:
        return self.col1 - self.col0

    @property
    def pixels(self) -> int:
        return self.height * self.width


def row_bands(height: int, width: int, count: int):
    """Split ``height`` rows into ``count`` contiguous bands.

    Remainder rows go to the leading bands so sizes differ by at most
    one row.  ``count`` may exceed ``height``; empty bands are simply
    not emitted.
    """
    if height <= 0 or width <= 0:
        raise PartitionError(f"domain must be positive, got {height}x{width}")
    if count <= 0:
        raise PartitionError(f"band count must be positive, got {count}")
    base, extra = divmod(height, count)
    tiles = []
    row = 0
    for i in range(count):
        h = base + (1 if i < extra else 0)
        if h == 0:
            continue
        tiles.append(Tile(row, row + h, 0, width))
        row += h
    return tiles


def blocks(height: int, width: int, tile_h: int, tile_w: int):
    """Cut the output into a grid of ``tile_h x tile_w`` blocks.

    Edge tiles are clipped to the frame, so every output pixel belongs
    to exactly one tile.
    """
    if height <= 0 or width <= 0:
        raise PartitionError(f"domain must be positive, got {height}x{width}")
    if tile_h <= 0 or tile_w <= 0:
        raise PartitionError(f"tile size must be positive, got {tile_h}x{tile_w}")
    tiles = []
    for r in range(0, height, tile_h):
        for c in range(0, width, tile_w):
            tiles.append(Tile(r, min(r + tile_h, height), c, min(c + tile_w, width)))
    return tiles


def tile_weights(valid_mask: np.ndarray, tiles, base_cost: float = 0.1):
    """Relative cost of each tile from the map's validity mask.

    A valid output pixel costs 1 unit (gather + interpolate); an
    out-of-FOV pixel costs ``base_cost`` (just the fill store).  This
    is the estimate both the weighted partitioner and the schedulers
    consume.
    """
    valid_mask = np.asarray(valid_mask, dtype=bool)
    if not 0.0 <= base_cost <= 1.0:
        raise PartitionError(f"base_cost must be in [0, 1], got {base_cost}")
    weights = np.empty(len(tiles), dtype=np.float64)
    for i, t in enumerate(tiles):
        sub = valid_mask[t.row0:t.row1, t.col0:t.col1]
        valid = float(sub.sum())
        weights[i] = valid + base_cost * (sub.size - valid)
    return weights


def row_bands_weighted(valid_mask: np.ndarray, count: int, base_cost: float = 0.1):
    """Contiguous row bands with approximately equal total *cost*.

    Greedy prefix cut: walk rows accumulating cost and close a band
    whenever the running sum reaches the ideal share of the remaining
    work.  Guarantees exactly ``min(count, height)`` non-empty bands
    covering every row once.
    """
    valid_mask = np.asarray(valid_mask, dtype=bool)
    if valid_mask.ndim != 2:
        raise PartitionError(f"valid_mask must be 2-D, got shape {valid_mask.shape}")
    if count <= 0:
        raise PartitionError(f"band count must be positive, got {count}")
    height, width = valid_mask.shape
    count = min(count, height)
    valid_per_row = valid_mask.sum(axis=1).astype(np.float64)
    row_cost = valid_per_row + base_cost * (width - valid_per_row)

    tiles = []
    row = 0
    remaining = float(row_cost.sum())
    for band in range(count):
        bands_left = count - band
        rows_left = height - row
        if band == count - 1:
            h = rows_left
        else:
            # Each remaining band must still get at least one row.
            max_h = rows_left - (bands_left - 1)
            target = remaining / bands_left
            acc = 0.0
            h = 0
            while h < max_h:
                acc += row_cost[row + h]
                h += 1
                if acc >= target:
                    break
        tiles.append(Tile(row, row + h, 0, width))
        remaining -= float(row_cost[row:row + h].sum())
        row += h
    return tiles


def plan_bands(height: int, workers: int, schedule: str = "dynamic",
               chunk: int | None = None):
    """Cut ``height`` output rows into ``(row0, row1)`` work items.

    All policies execute on the shared work queue (workers pull the
    next item when free); the policy chooses granularity:

    ``static``
        One contiguous band per worker — the fork-join executors'
        layout, kept for apples-to-apples comparisons.
    ``dynamic``
        Fixed ``chunk``-row bands (default ``height // (8 * workers)``,
        at least 1): many small units, best balance on skewed maps.
    ``guided``
        Geometrically shrinking bands, ``max(chunk, remaining / (2 *
        workers))`` rows each — fewer dispatches than ``dynamic`` with
        nearly its balance (the same formula
        :func:`repro.parallel.schedule.simulate` replays).
    """
    if height < 1:
        raise ScheduleError(f"height must be >= 1, got {height}")
    if workers < 1:
        raise ScheduleError(f"workers must be >= 1, got {workers}")
    if schedule not in RING_SCHEDULES:
        raise ScheduleError(
            f"unknown ring schedule {schedule!r}; known: {RING_SCHEDULES}")
    if schedule == "static":
        return [(t.row0, t.row1) for t in row_bands(height, 1, workers)]
    if chunk is None:
        chunk = max(1, height // (8 * workers))
    if chunk < 1:
        raise ScheduleError(f"chunk must be >= 1, got {chunk}")
    if schedule == "dynamic":
        return [(r0, min(r0 + chunk, height)) for r0 in range(0, height, chunk)]
    bands = []
    row, remaining = 0, height
    while row < height:
        size = min(max(chunk, math.ceil(remaining / (2 * workers))), height - row)
        bands.append((row, row + size))
        row += size
        remaining -= size
    return bands
