"""Tests: every engine x pixfmt x fused x tier combination matches sync.

The ring and the serve broker must deliver exactly what the in-process
``engine="sync"`` path delivers, for packed RGB, planar I420 and NV12,
at full size and through a fused correct+downscale table, on the
float (``numpy``) and the fixed-point (``fixed``) kernel tiers.  One
broker serves every broker case so the fleet forks once.
"""

import numpy as np
import pytest

from repro.serve.broker import StreamBroker
from repro.video.stream import corrected_stream
from repro.video.yuv import NV12Frame, YUV420Frame

pytestmark = pytest.mark.tier1

FRAMES = 3
SIZE = 64


def _frames(pixfmt, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(FRAMES):
        if pixfmt == "rgb":
            out.append(rng.integers(0, 256, (SIZE, SIZE, 3), dtype=np.uint8))
            continue
        planes = [rng.integers(0, 256, s, dtype=np.uint8)
                  for s in YUV420Frame.plane_shapes(SIZE, SIZE)]
        frame = YUV420Frame(*planes)
        out.append(NV12Frame.from_yuv420(frame) if pixfmt == "nv12"
                   else frame)
    return out


def _planes(item):
    return item.planes if hasattr(item, "planes") else (np.asarray(item),)


@pytest.fixture(scope="module")
def broker():
    with StreamBroker(workers=2, slot_budget=4) as b:
        yield b


@pytest.mark.parametrize("kernel", ["numpy", "fixed"])
@pytest.mark.parametrize("out_size", [None, (32, 32)],
                         ids=["full", "fused"])
@pytest.mark.parametrize("pixfmt", ["rgb", "yuv420", "nv12"])
@pytest.mark.parametrize("engine", ["ring", "broker"])
def test_engine_matches_sync(engine, pixfmt, out_size, kernel, small_field,
                             request):
    frames = _frames(pixfmt, seed=7)
    common = dict(pixfmt=pixfmt, out_size=out_size, kernel=kernel)
    want = list(corrected_stream(iter(frames), small_field, copy=True,
                                 **common))
    if engine == "ring":
        got = list(corrected_stream(iter(frames), small_field, copy=True,
                                    engine="ring", workers=2, depth=2,
                                    **common))
    else:
        b = request.getfixturevalue("broker")
        got = list(b.open(iter(frames), small_field, depth=2, **common))
    assert len(got) == len(want) == FRAMES
    for g, w in zip(got, want):
        assert type(g) is type(w)
        for gp, wp in zip(_planes(g), _planes(w)):
            assert gp.shape == wp.shape
            np.testing.assert_array_equal(gp, wp)
