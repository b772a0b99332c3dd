"""Reward terms, gating, and the composed score."""

import math
import tracemalloc

import numpy as np
import pytest

from brickeval import (
    FAILED_CONSTRUCTION,
    DimensionMismatch,
    WorldConfig,
    analyze,
    interlock_score,
    parse_structure,
    rasterize,
    reward_collision,
    reward_shape,
    score_completion,
    serialize_structure,
)
from brickeval.analysis import analyze_chunk
from brickeval.rewards import RewardBreakdown, score_terms

from helpers import collision_free_structure, oracle_analysis, oracle_iou, oracle_occupied, random_structure


# ------------------------------------------------------------ reward_collision


@pytest.mark.parametrize("n_col,expected", [(0, 0.0), (1, -2.0), (3, -6.0), (5, -10.0), (500, -10.0)])
def test_collision_penalty(n_col, expected):
    assert reward_collision(n_col) == expected


def test_collision_penalty_never_negative_zero():
    r = reward_collision(0)
    assert r == 0.0 and math.copysign(1.0, r) == 1.0


def test_collision_penalty_drop_formula():
    # Adding k colliding voxels costs exactly min(2k, 10 + r_before).
    rng = np.random.default_rng(31)
    for _ in range(200):
        n0 = int(rng.integers(0, 12))
        k = int(rng.integers(0, 12))
        before = reward_collision(n0)
        after = reward_collision(n0 + k)
        assert before - after == min(2 * k, 10 + before)


# ---------------------------------------------------------------- reward_shape


def test_shape_identity(world):
    g = np.zeros(world.shape, dtype=bool)
    g[1:3, 4:6, 0:2] = True
    assert reward_shape(g, g.copy()) == (5.0, 1.0)


def test_shape_disjoint(world):
    a = np.zeros(world.shape, dtype=bool)
    b = np.zeros(world.shape, dtype=bool)
    a[0, 0, 0] = True
    b[5, 5, 5] = True
    assert reward_shape(a, b) == (0.0, 0.0)


def test_shape_half_overlap(world):
    # 4 generated voxels inside an 8-voxel target: IoU = 4/8.
    target = np.zeros(world.shape, dtype=bool)
    target[0:2, 0:4, 0] = True
    gen = np.zeros(world.shape, dtype=bool)
    gen[0:2, 0:2, 0] = True
    assert reward_shape(gen, target) == (2.5, 0.5)


def test_shape_both_empty(world):
    z = np.zeros(world.shape, dtype=bool)
    assert reward_shape(z, z.copy()) == (0.0, 0.0)


def test_shape_dimension_mismatch(world):
    a = np.zeros(world.shape, dtype=bool)
    b = np.zeros((6, 6, 6), dtype=bool)
    with pytest.raises(DimensionMismatch):
        reward_shape(a, b)


def test_shape_matches_oracle():
    rng = np.random.default_rng(32)
    for _ in range(50):
        a = rng.random((8, 8, 8)) < 0.3
        b = rng.random((8, 8, 8)) < 0.3
        r, iou = reward_shape(a, b)
        assert iou == oracle_iou(a, b)
        assert r == 5.0 * iou


# ------------------------------------------------------------ score_completion


def test_perfect_fixture_scores_ten(world, perfect_fixture):
    target = rasterize(perfect_fixture, world) > 0
    rb = score_completion(serialize_structure(perfect_fixture), target, world)
    assert (rb.r_col, rb.r_shape, rb.r_inter, rb.r_conn, rb.total) == (0.0, 5.0, 3.0, 2.0, 10.0)
    assert rb.feasible and rb.in_bounds and not rb.parse_failed
    assert rb.iou == 1.0 and rb.n_col == 0 and rb.brick_count == 3


def test_empty_completion_fails(world):
    target = np.zeros(world.shape, dtype=bool)
    rb = score_completion("", target, world)
    assert rb == FAILED_CONSTRUCTION
    assert (rb.total, rb.r_col, rb.r_shape, rb.r_inter, rb.r_conn) == (-10.0, -10.0, 0.0, 0.0, 0.0)
    assert rb.parse_failed and not rb.feasible and rb.brick_count == 0


def test_malformed_completion_fails(world):
    target = np.zeros(world.shape, dtype=bool)
    assert score_completion("2x2 (0, 0, 0,)", target, world) == FAILED_CONSTRUCTION
    assert score_completion("nonsense", target, world) == FAILED_CONSTRUCTION


def test_full_overlap_scores_minus_three(world):
    # Two identical 2x2 bricks on a matching 4-voxel target:
    # n_col=4 so r_col=-8, shape still perfect, gated terms zero.
    target = np.zeros(world.shape, dtype=bool)
    target[0:2, 0:2, 0] = True
    rb = score_completion("2x2 (0,0,0)\n2x2 (0,0,0)", target, world)
    assert rb.n_col == 4
    assert (rb.r_col, rb.r_shape, rb.r_inter, rb.r_conn) == (-8.0, 5.0, 0.0, 0.0)
    assert rb.total == -3.0
    assert not rb.feasible and rb.in_bounds


def test_out_of_bounds_gates_structural_terms(world):
    # Partially out of bounds: no collisions, shape kept, gates shut.
    target = np.zeros(world.shape, dtype=bool)
    target[19, 18:20, 0] = True
    rb = score_completion("2x4 (19,18,0)", target, world)
    assert rb.n_col == 0 and not rb.in_bounds and not rb.feasible
    assert rb.r_col == 0.0
    assert rb.r_shape == 5.0  # clipped raster equals the 2-voxel target
    assert rb.r_inter == 0.0 and rb.r_conn == 0.0


def test_shape_not_gated_by_collisions(world):
    target = np.zeros(world.shape, dtype=bool)
    target[0:2, 0:2, 0] = True
    clean = score_completion("2x2 (0,0,0)", target, world)
    collided = score_completion("2x2 (0,0,0)\n1x1 (0,0,0)", target, world)
    assert collided.r_shape == clean.r_shape == 5.0
    assert collided.r_inter == 0.0 and clean.r_conn == 2.0


def test_wrong_target_shape_raises(world):
    # Whether the completion parses must not decide if a bad target is caught.
    bad, good = np.zeros((6, 6, 6), dtype=bool), np.zeros(world.shape, dtype=bool)
    for completion in ("", "nonsense", "1x1 (0,0,0)"):
        with pytest.raises(DimensionMismatch):
            score_completion(completion, bad, world)
        with pytest.raises(DimensionMismatch):
            score_terms(["1x1 (0,0,0)", completion], [good, bad], world)
    structure = parse_structure("1x1 (0,0,0)")[0]
    with pytest.raises(DimensionMismatch):
        analyze_chunk([None, structure, None], [good, good, bad], world)
    assert analyze_chunk([None, structure, None], [good] * 3, world, full=False) == [
        None, (analyze(structure, world)._replace(seam_coverage=None, is_connected=None), 0.0), None]


def test_self_iou_is_one(world):
    rng = np.random.default_rng(33)
    for _ in range(20):
        s = collision_free_structure(rng, world, 15)
        target = rasterize(s, world) > 0
        rb = score_completion(serialize_structure(s), target, world)
        assert rb.iou == 1.0 and rb.r_shape == 5.0
        assert rb.feasible


def test_total_is_sum_and_bounded(world):
    rng = np.random.default_rng(34)
    for i in range(100):
        s = random_structure(rng, world, 12, in_bounds=False)
        target = rng.random(world.shape) < 0.1
        rb = score_completion(serialize_structure(s), target, world)
        assert rb.total == rb.r_col + rb.r_shape + rb.r_inter + rb.r_conn
        assert -10.0 <= rb.total <= 10.0
        assert 0.0 <= rb.iou <= 1.0


def test_breakdown_fields_are_plain_python(world):
    target = np.zeros(world.shape, dtype=bool)
    target[0, 0, 0] = True
    rb = score_completion("1x1 (0,0,0)", target, world)
    for value in (rb.r_col, rb.r_shape, rb.r_inter, rb.r_conn, rb.total, rb.iou):
        assert type(value) is float
    assert type(rb.n_col) is int and type(rb.brick_count) is int
    assert type(rb.feasible) is bool and type(rb.in_bounds) is bool


def test_gating_soundness_fuzz(world):
    # Collision-free builds in a small world stack, so their feasible
    # scores are fractional as well as 0 and 1.
    rng = np.random.default_rng(35)
    small = WorldConfig(6, 6, 4)
    fractional = 0
    for _ in range(60):
        for w, s in ((world, random_structure(rng, world, 10, in_bounds=False)),
                     (small, collision_free_structure(rng, small, 12))):
            rb = score_completion(serialize_structure(s), np.zeros(w.shape, dtype=bool), w)
            if rb.n_col > 0 or not rb.in_bounds:
                assert rb.r_inter == 0.0 and rb.r_conn == 0.0
            else:
                assert rb.feasible
                assert rb.r_inter == 3.0 * interlock_score(s, w)
                assert rb.r_conn == 2.0 * analyze(s, w).conn_score
                fractional += rb.r_inter % 3.0 != 0.0 and rb.r_conn % 2.0 != 0.0
    assert fractional >= 10


def test_small_world_scoring():
    # Lone ground brick: perfect shape and connectivity, but nothing to
    # interlock, so the interlock term stays zero.
    tiny = WorldConfig(6, 6, 6)
    target = np.zeros(tiny.shape, dtype=bool)
    target[0:2, 0:2, 0] = True
    rb = score_completion("2x2 (0,0,0)", target, tiny)
    assert (rb.r_col, rb.r_shape, rb.r_inter, rb.r_conn) == (0.0, 5.0, 0.0, 2.0)
    assert rb.total == 7.0 and rb.feasible


def oracle_breakdown(structure, target, world):
    # The README's reward table, term by term, on the oracles' analysis.
    a = oracle_analysis(structure, world)
    iou = oracle_iou(oracle_occupied(structure, world), target)
    feasible = a["n_col"] == 0 and a["fully_in_bounds"]
    terms = (max(-10.0, -2.0 * a["n_col"]), 5.0 * iou, 3.0 * a["interlock_score"] * feasible,
             2.0 * a["conn_score"] * feasible)
    return RewardBreakdown(*terms, sum(terms), False, feasible, iou, a["n_col"], a["fully_in_bounds"], len(structure))


def test_what_the_reward_pays_for(world):
    # The README's worked example: an 8x8 slab on layer 0 as the target,
    # its exact build of 16 2x2 bricks, and that build with bricks added.
    target = np.zeros(world.shape, dtype=bool)
    target[:8, :8, 0] = True
    exact = [f"2x2 ({x},{y},0)" for x in range(0, 8, 2) for y in range(0, 8, 2)]
    staggered = [f"2x2 ({x},{y},1)" for x in (1, 3, 5) for y in (1, 3, 5)]
    builds = {
        "exact": (exact, (0.0, 5.0, 0.0, 2.0), 7.0, 1.0, True),
        "staggered": (exact + staggered, (0.0, 3.2, 3.0, 2.0), 8.2, 0.64, True),
        "floating": (exact + ["1x1 (15,15,3)"], (0.0, 5 * 64 / 65, 0.0, 2 * 64 / 65), 6.8923, 64 / 65, True),
        "colliding": (exact + ["2x2 (0,0,0)"], (-8.0, 5.0, 0.0, 0.0), -3.0, 1.0, False),
        "past the world": (exact + ["2x4 (19,0,0)"], (0.0, 5 * 64 / 68, 0.0, 0.0), 4.7059, 64 / 68, False),
    }
    for name, (tokens, terms, total, iou, feasible) in builds.items():
        text = "\n".join(tokens)
        rb = score_completion(text, target, world)
        assert rb == oracle_breakdown(parse_structure(text)[0], target, world), name
        assert (rb.r_col, rb.r_shape, rb.r_inter, rb.r_conn) == pytest.approx(terms), name
        assert (rb.total, rb.iou, rb.feasible) == (pytest.approx(total, abs=1e-4), pytest.approx(iou), feasible), name


def test_one_brick_in_a_large_world_costs_its_cells_not_the_world():
    # Memory per request follows the structure's cells: beyond the target
    # grid the caller holds, scoring one brick in a 128^3 world (2 MiB of
    # target) allocates well under 1 MiB.
    world = WorldConfig(128, 128, 128)
    target = np.zeros(world.shape, dtype=bool)
    target[3:5, 5:9, 0] = True
    target[100, 100, 100] = True
    score_completion("2x4 (3,5,0)", target, world)  # warm caches
    tracemalloc.start()
    try:
        rb = score_completion("2x4 (3,5,0)", target, world)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rb.iou == 8 / 9 and rb.feasible and rb.r_conn == 2.0
    # rasterize returns the world's counts: one int64 grid (16 MiB here), allocated once.
    tracemalloc.start()
    try:
        counts = rasterize(parse_structure("2x4 (3,5,0)")[0], world)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.dtype == np.int64 and counts.nbytes == 16 << 20 and peak < 17 << 20
    assert int(counts.sum()) == int(counts[3:5, 5:9, 0].sum()) == 8
