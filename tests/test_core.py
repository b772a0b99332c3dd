import numpy as np
import pytest

from brickeval import (
    BRICK_LIBRARY,
    Brick,
    BrickStructure,
    OrientedDim,
    UnknownDimension,
    WorldConfig,
    analyze,
    library_lookup,
    make_brick,
    rasterize,
)
from helpers import oracle_voxels, random_structure

EXPECTED_LIBRARY = [
    (2, 4), (4, 2), (2, 6), (6, 2), (1, 2), (2, 1), (1, 4), (4, 1),
    (1, 6), (6, 1), (1, 8), (8, 1), (1, 1), (2, 2),
]


def test_library_has_exactly_14_variants():
    assert [(d.h, d.w) for d in BRICK_LIBRARY] == EXPECTED_LIBRARY
    assert len(set(BRICK_LIBRARY)) == 14


def test_library_lookup_valid():
    d = library_lookup(1, 4)
    assert (d.h, d.w) == (1, 4)
    assert library_lookup(8, 1).area == 8


@pytest.mark.parametrize("h,w", [(3, 3), (3, 5), (0, 1), (2, 8), (8, 2), (16, 1)])
def test_library_lookup_rejects_unknown(h, w):
    with pytest.raises(UnknownDimension):
        library_lookup(h, w)
    with pytest.raises(UnknownDimension):
        OrientedDim(h, w)


def test_world_config_defaults_and_validation():
    w = WorldConfig()
    assert w.shape == (20, 20, 20)
    assert w.n_voxels == 8000
    assert w.contains(19, 19, 19) and not w.contains(20, 0, 0)
    with pytest.raises(ValueError):
        WorldConfig(0, 20, 20)


def brick_voxels(brick, world):
    # A lone brick's voxels and in-bounds verdict, from the library.
    s = BrickStructure((brick,))
    counts = rasterize(s, world).counts
    assert counts.max(initial=0) <= 1
    return {tuple(int(c) for c in v) for v in np.argwhere(counts)}, analyze(s, world).fully_in_bounds


def test_brick_voxels_in_bounds(world):
    vox, ok = brick_voxels(make_brick(1, 4, 5, 6, 0), world)
    assert vox == {(5, 6, 0), (5, 7, 0), (5, 8, 0), (5, 9, 0)}
    assert ok


def test_brick_voxels_clipped_at_boundary(world):
    b = make_brick(2, 4, 19, 18, 0)
    vox, ok = brick_voxels(b, world)
    assert vox == oracle_voxels(b, world)
    assert vox == {(19, 18, 0), (19, 19, 0)}
    assert not ok


def test_brick_voxels_above_world(world):
    vox, ok = brick_voxels(make_brick(2, 2, 0, 0, 20), world)
    assert vox == set() and not ok


def test_brick_voxels_matches_oracle_randomly(world):
    rng = np.random.default_rng(11)
    for _ in range(50):
        for b in random_structure(rng, world, 8, in_bounds=False):
            vox, ok = brick_voxels(b, world)
            assert vox == oracle_voxels(b, world)
            assert ok == (len(vox) == b.dim.area)


def test_brick_voxels_full_when_in_bounds(world):
    rng = np.random.default_rng(12)
    for _ in range(50):
        for b in random_structure(rng, world, 8, in_bounds=True):
            vox, ok = brick_voxels(b, world)
            assert ok and len(vox) == b.dim.area


def test_make_brick_rejects_negative_anchor():
    with pytest.raises(ValueError):
        make_brick(1, 1, -1, 0, 0)
    with pytest.raises(ValueError):
        make_brick(1, 1, 0, 0, -2)


def test_brick_equality_and_fields():
    a = Brick(library_lookup(2, 4), 1, 2, 3)
    b = make_brick(2, 4, 1, 2, 3)
    assert a == b
    assert (a.h, a.w, a.x, a.y, a.z) == (2, 4, 1, 2, 3)
    vox, _ = brick_voxels(a, WorldConfig())
    assert vox == {(u, v, 3) for u in (1, 2) for v in (2, 3, 4, 5)}
