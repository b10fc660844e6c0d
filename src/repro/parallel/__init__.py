"""Parallelization layer: decomposition, scheduling, real executors.

- :mod:`~repro.parallel.partition` — cutting the output frame into
  tiles/bands (including cost-weighted cuts),
- :mod:`~repro.parallel.schedule` — deterministic replay of
  static/dynamic/guided loop schedules,
- :mod:`~repro.parallel.threadpool` — the fork-join thread executor
  for the remap kernel (the paper's pthreads rung),
- :mod:`~repro.parallel.stream` — the in-process software-pipelined
  stream (decode / correct / deliver on threads),
- :mod:`~repro.parallel.ring` — the one process engine: persistent
  workers over a shared-memory frame ring (frame-level double
  buffering, dynamic band scheduling),
- :mod:`~repro.parallel.shmseg` — the shared-segment plumbing the
  process engine is built on,
- :mod:`~repro.parallel.simd` — the SIMD vectorization model.
"""

from .partition import Tile, blocks, row_bands, row_bands_weighted, tile_weights
from .ring import MAX_RING_DEPTH, RING_SCHEDULES, RingEngine, plan_bands, ring_stream
from .schedule import SCHEDULES, Assignment, cyclic_chunks, simulate, static_chunks
from .simd import AVX2, SPU, SSE2, VectorISA, apply_lanewise, simd_speedup
from .stream import MAX_STREAM_DEPTH, pipelined_stream
from .threadpool import ThreadedExecutor

__all__ = [
    "Tile",
    "row_bands",
    "row_bands_weighted",
    "blocks",
    "tile_weights",
    "Assignment",
    "simulate",
    "static_chunks",
    "cyclic_chunks",
    "SCHEDULES",
    "VectorISA",
    "SSE2",
    "SPU",
    "AVX2",
    "simd_speedup",
    "apply_lanewise",
    "ThreadedExecutor",
    "pipelined_stream",
    "MAX_STREAM_DEPTH",
    "RingEngine",
    "ring_stream",
    "plan_bands",
    "MAX_RING_DEPTH",
    "RING_SCHEDULES",
]
