"""Greedy legalizer and random target generation."""

import hashlib

import numpy as np
import pytest

from brickeval import (
    ConstructorOptions,
    DimensionMismatch,
    WorldConfig,
    analyze,
    interlock_score,
    legalize,
    random_target,
    rasterize,
)

from brickeval.construct import _dim_priority
from helpers import oracle_legalize, oracle_priority


def assert_exact_cover(structure, target, world):
    a = analyze(structure, world)
    assert a.n_col == 0
    assert a.fully_in_bounds
    assert np.array_equal(rasterize(structure, world).occupied, target)


# ------------------------------------------------------------------- legalize


def test_empty_grid(world):
    assert len(legalize(np.zeros(world.shape, dtype=bool), world=world)) == 0


def test_single_voxel(world):
    grid = np.zeros(world.shape, dtype=bool)
    grid[3, 4, 5] = True
    s = legalize(grid, world=world)
    assert [(b.h, b.w, b.x, b.y, b.z) for b in s] == [(1, 1, 3, 4, 5)]


def test_two_by_eight_slab(world):
    # Largest-area-first greedy grabs the 12-cell brick before any
    # 8-cell one, leaving a 2x2 remainder: exact cover in two bricks.
    grid = np.zeros(world.shape, dtype=bool)
    grid[0:2, 0:8, 0] = True
    s = legalize(grid, world=world)
    assert [(b.h, b.w, b.x, b.y, b.z) for b in s] == [(2, 6, 0, 0, 0), (2, 2, 0, 6, 0)]
    assert_exact_cover(s, grid, world)


def test_exact_cover_on_random_blobs(world):
    rng = np.random.default_rng(61)
    for _ in range(25):
        grid = rng.random(world.shape) < rng.uniform(0.02, 0.3)
        s = legalize(grid, world=world)
        assert_exact_cover(s, grid, world)


def test_exact_cover_on_generated_targets(world):
    for seed in range(8):
        grid = random_target(seed=seed, grounded=bool(seed % 2), world=world)
        s = legalize(grid, ConstructorOptions(stagger=bool(seed % 3)), world)
        assert_exact_cover(s, grid, world)


def test_legalize_deterministic(world):
    grid = random_target(seed=7, world=world)
    opts = ConstructorOptions(stagger=True, seed=3)
    assert legalize(grid, opts, world) == legalize(grid, opts, world)


def test_legalize_rejects_wrong_shape(world):
    with pytest.raises(ValueError):
        legalize(np.zeros((6, 6, 6), dtype=bool), world=world)
    with pytest.raises(DimensionMismatch, match=r"^target shape \(6, 6, 6\) does not match world"):
        legalize(np.zeros((6, 6, 6), dtype=bool), world=world)


def test_dim_priority_matches_oracle():
    for seed in range(200):
        assert [(d.h, d.w) for d in _dim_priority(ConstructorOptions(seed=seed))] == oracle_priority(seed)


def test_full_layer_no_stagger_golden(world):
    # Aligned 20x20x2 slab: every layer tiles identically, so no brick
    # ever bridges two supports.
    slab = np.zeros(world.shape, dtype=bool)
    slab[:, :, 0:2] = True
    s = legalize(slab, ConstructorOptions(stagger=False), world)
    assert len(s) == 68
    assert interlock_score(s) == 0.0
    assert_exact_cover(s, slab, world)


def test_stagger_goldens(world):
    # Offsetting alternate layers shifts seams so upper bricks bridge.
    # Counts and scores frozen from this build (seed 0 defaults).
    slab = np.zeros(world.shape, dtype=bool)
    slab[0:10, 0:10, 0:4] = True
    plain = legalize(slab, ConstructorOptions(stagger=False), world)
    shifted = legalize(slab, ConstructorOptions(stagger=True), world)
    assert (len(plain), interlock_score(plain)) == (36, 0.0)
    assert (len(shifted), interlock_score(shifted)) == (46, 0.7837837837837838)
    assert_exact_cover(shifted, slab, world)

    wide = np.zeros(world.shape, dtype=bool)
    wide[:, :, 0:2] = True
    shifted_wide = legalize(wide, ConstructorOptions(stagger=True), world)
    assert (len(shifted_wide), interlock_score(shifted_wide)) == (77, 0.9069767441860465)
    assert_exact_cover(shifted_wide, wide, world)


def test_stagger_beats_plain_on_slabs(world):
    for dims in ((8, 8, 3), (12, 6, 2), (20, 20, 2)):
        slab = np.zeros(world.shape, dtype=bool)
        slab[0:dims[0], 0:dims[1], 0:dims[2]] = True
        plain = legalize(slab, ConstructorOptions(stagger=False), world)
        shifted = legalize(slab, ConstructorOptions(stagger=True), world)
        assert interlock_score(shifted) > interlock_score(plain)


def test_seed_changes_tie_breaks_only(world):
    # Different seeds permute equal-area bricks but never break cover.
    grid = random_target(seed=11, world=world)
    for seed in range(4):
        s = legalize(grid, ConstructorOptions(seed=seed), world)
        assert_exact_cover(s, grid, world)


DIFF_WORLDS = (
    WorldConfig(1, 1, 1),
    WorldConfig(1, 9, 2),
    WorldConfig(5, 7, 3),
    WorldConfig(7, 12, 4),
    WorldConfig(4, 63, 3),
    WorldConfig(3, 64, 3),
    WorldConfig(6, 65, 2),
    WorldConfig(5, 100, 2),
    WorldConfig(20, 20, 20),
)


def test_legalize_matches_oracle():
    # Same bricks in the same order as the cell-by-cell greedy, for every
    # option set, fill level and world, including rows wider than 63 and
    # full layers, where a brick must not reach past the world's edge.
    rng = np.random.default_rng(404)
    for world in DIFF_WORLDS:
        for fill in (0.0, 0.05, 0.3, 0.6, 0.9, 1.0):
            for grounded in (False, True):
                if grounded:
                    grid = random_target(int(rng.integers(1 << 30)), fill_prob=fill, grounded=True, world=world)
                else:
                    grid = rng.random(world.shape) < fill
                for stagger in (False, True):
                    seed = int(rng.integers(6))
                    opts = ConstructorOptions(stagger=stagger, seed=seed)
                    expected = oracle_legalize(grid, world, stagger, seed)
                    assert legalize(grid, opts, world) == expected, (world, fill, grounded, opts)


# -------------------------------------------------------------- random_target


def test_zero_fill_is_empty(world):
    assert not random_target(seed=0, fill_prob=0.0, world=world).any()


@pytest.mark.parametrize("max_components", [0, -5])
def test_target_needs_a_component(world, max_components):
    with pytest.raises(ValueError, match="max_components"):
        random_target(seed=0, max_components=max_components, world=world)


def test_target_deterministic(world):
    a = random_target(seed=123, grounded=True, world=world)
    b = random_target(seed=123, grounded=True, world=world)
    assert np.array_equal(a, b)
    c = random_target(seed=124, grounded=True, world=world)
    assert not np.array_equal(a, c)


# sha256 prefixes of random_target(seed, fill_prob, grounded, world).tobytes(),
# so generated fixtures stay the same from one version to the next.
PINNED_TARGETS = {
    (0, False): ("388c8cb00329d890", "920232511c3ec6c3"),
    (0, True): ("94773bf1d838bbbf", "b8ad40d97d6b7bea"),
    (17, False): ("44b9ff105d821dd1", "7708e5dc38e43e6f"),
    (17, True): ("823387e2d9040a0f", "bec61f8d3b0d71de"),
    (901, False): ("2181c68dc529b9b5", "6179aa1e1e9e5d7f"),
    (901, True): ("d8050c33f26adb2e", "80d6199f91e61c36"),
}


@pytest.mark.parametrize("seed, grounded", sorted(PINNED_TARGETS))
def test_target_digests_are_pinned(seed, grounded):
    cases = ((WorldConfig(), 0.15), (WorldConfig(7, 70, 3), 0.6))
    digests = tuple(
        hashlib.sha256(random_target(seed, fill_prob=fill, grounded=grounded, world=world).tobytes())
        .hexdigest()[:16]
        for world, fill in cases
    )
    assert digests == PINNED_TARGETS[seed, grounded]


def test_target_shape_and_dtype(world):
    t = random_target(seed=5, world=world)
    assert t.shape == world.shape and t.dtype == bool
    assert t.any()


def test_grounded_columns_reach_floor(world):
    # Grounded targets have no overhangs: every voxel sits on another
    # occupied voxel or the ground.
    for seed in range(10):
        t = random_target(seed=seed, grounded=True, world=world)
        assert not (t[:, :, 1:] & ~t[:, :, :-1]).any()


def test_grounded_target_legalizes_connected(world):
    t = random_target(seed=1, grounded=True, world=world)
    s = legalize(t, world=world)
    a = analyze(s, world)
    assert a.conn_score == 1.0
    assert a.disconnected_count == 0
