"""Rasterization, collisions, connectivity, interlock, and seam coverage."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from brickeval import analysis, rewards
from brickeval import (
    BrickStructure,
    WorldConfig,
    analyze,
    analyze_with_occupancy,
    Brick,
    collision_stats,
    interlock_score,
    make_brick,
    parse_structure,
    random_target,
    rasterize,
    reward_shape,
    score_completion,
    serialize_structure,
)
from brickeval.analysis import _Geometry, analyze_chunk
from brickeval.rewards import score_completions

from helpers import (
    collision_free_structure,
    oracle_connectivity,
    oracle_counts,
    oracle_interlock,
    oracle_supports_below,
    oracle_voxels,
    random_structure,
)


def struct(*specs):
    return BrickStructure(tuple(make_brick(*s) for s in specs))


def support_edges(s, world):
    upper, lower = _Geometry(s.columns, world).support()
    return list(zip(upper.tolist(), lower.tolist()))


def far_layers(rng, s):
    # Lift every layer from a random one up by a large amount, so the
    # lifted layers stay stacked but lie past the world and far from the
    # rest, and move some bricks to x anchors at or past 2**63.
    cut = int(rng.integers(1, 4))
    lift = int(rng.choice([10**12, 2**63 + 1, 10**30]))
    shift = int(rng.choice([2**63, 10**40]))
    return BrickStructure(tuple(
        Brick(b.dim, b.x + (shift if b.y % 3 == 0 else 0), b.y, b.z + (lift if b.z >= cut else 0))
        for b in s
    ))


# ---------------------------------------------------------------- rasterize


def test_rasterize_direct_overlap(world):
    f = rasterize(struct((1, 1, 0, 0, 0), (1, 1, 0, 0, 0)), world)
    assert f.counts[0, 0, 0] == 2
    assert f.counts.sum() == 2


def test_rasterize_single_1x4(world):
    f = rasterize(struct((1, 4, 5, 6, 0)), world)
    hits = {tuple(v) for v in np.argwhere(f.counts == 1)}
    assert hits == {(5, 6, 0), (5, 7, 0), (5, 8, 0), (5, 9, 0)}
    assert f.counts.sum() == 4


def test_rasterize_empty(world):
    f = rasterize(BrickStructure(()), world)
    assert f.counts.shape == world.shape
    assert not f.counts.any()


def test_occupied_matches_counts(world):
    rng = np.random.default_rng(21)
    for _ in range(20):
        f = rasterize(random_structure(rng, world, 12, in_bounds=False), world)
        assert np.array_equal(f.occupied, f.counts > 0)


def test_count_conservation(world):
    # Sum of counts equals the sum of in-bounds footprint areas.
    rng = np.random.default_rng(22)
    for _ in range(30):
        s = random_structure(rng, world, 15, in_bounds=False)
        f = rasterize(s, world)
        expected = oracle_counts(s, world)
        assert int(f.counts.sum()) == sum(expected.values())
        for v, c in expected.items():
            assert f.counts[v] == c


# ---------------------------------------------------------- collision_stats


def test_collision_two_1x1_same_cell(world):
    n, cells = collision_stats(rasterize(struct((1, 1, 3, 3, 3), (1, 1, 3, 3, 3)), world))
    assert (n, cells) == (1, [(3, 3, 3)])


def test_collision_offset_2x2(world):
    n, cells = collision_stats(rasterize(struct((2, 2, 0, 0, 0), (2, 2, 1, 1, 0)), world))
    assert (n, cells) == (1, [(1, 1, 0)])


def test_collision_free(world):
    rng = np.random.default_rng(23)
    s = collision_free_structure(rng, world, 20)
    assert collision_stats(rasterize(s, world)) == (0, [])


def test_collision_list_sorted(world):
    rng = np.random.default_rng(24)
    for _ in range(20):
        s = random_structure(rng, world, 15)
        n, cells = collision_stats(rasterize(s, world))
        assert cells == sorted(cells)
        assert n == len(cells)
        assert n == sum(1 for c in oracle_counts(s, world).values() if c > 1)


# ------------------------------------------------------------ support graph


def test_support_edge_adjacent_layers(world):
    assert support_edges(struct((1, 2, 0, 0, 0), (1, 2, 0, 0, 1)), world) == [(1, 0)]


def test_no_edge_across_layer_gap(world):
    assert support_edges(struct((1, 2, 0, 0, 0), (1, 2, 0, 0, 2)), world) == []


def test_bridge_has_two_supports(world, perfect_fixture):
    assert support_edges(perfect_fixture, world) == [(2, 0), (2, 1)]


def test_support_graph_matches_oracle(world):
    # Edges run from each brick to the bricks one layer below it, also
    # on layers past the world and on layers far apart.
    tiny = WorldConfig(5, 5, 3)
    rng = np.random.default_rng(25)
    for k in range(120):
        w = world if k < 40 else tiny
        if k < 40:
            s = random_structure(rng, w, 10, in_bounds=False)
        else:
            s = random_structure(rng, w, 20, in_bounds=bool(k % 2), min_bricks=8)
        if k >= 80:
            s = far_layers(rng, s)
        edges = support_edges(s, w)
        for i in range(len(s)):
            assert [j for u, j in edges if u == i] == oracle_supports_below(s, i, w)


# ---------------------------------------------------------------- grounding


def grounding(a):
    return a.occupied_count, a.disconnected_count, a.is_connected


def test_grounded_singleton(world):
    assert grounding(analyze(struct((1, 1, 0, 0, 0)), world)) == (1, 0, True)


def test_floating_singleton(world):
    a = analyze(struct((1, 1, 0, 0, 5)), world)
    assert grounding(a) == (1, 1, False)
    assert a.conn_score == 0.0


def test_floating_brick_ratio(world):
    s = struct((2, 2, 0, 0, 0), (1, 1, 10, 10, 3))
    a = analyze(s, world)
    assert grounding(a) == (5, 1, False)
    assert a.conn_score == 0.8
    assert not a.is_connected


def test_connected_requires_single_component(world):
    # Two grounded towers: nothing floats, but the graph splits in two.
    s = struct((1, 1, 0, 0, 0), (1, 1, 5, 5, 0))
    a = analyze(s, world)
    assert a.conn_score == 1.0
    assert not a.is_connected


def test_perfect_fixture_connected(world, perfect_fixture):
    a = analyze(perfect_fixture, world)
    assert a.is_connected
    assert a.conn_score == 1.0
    assert a.disconnected_count == 0


def test_connectivity_matches_oracle(world):
    rng = np.random.default_rng(26)
    for _ in range(60):
        s = random_structure(rng, world, 10, in_bounds=False)
        a = analyze(s, world)
        occ, dis, conn, is_conn = oracle_connectivity(s, world)
        assert (a.occupied_count, a.disconnected_count) == (occ, dis)
        assert a.conn_score == conn
        assert a.is_connected == is_conn


# ---------------------------------------------------------------- interlock


def test_tower_not_interlocked():
    s = struct(*((1, 1, 0, 0, z) for z in range(5)))
    assert interlock_score(s) == 0.0


def test_bridge_fully_interlocked(perfect_fixture):
    assert interlock_score(perfect_fixture) == 1.0


def test_ground_only_denominator_clamped(world):
    s = struct((2, 2, 0, 0, 0), (2, 2, 4, 4, 0))
    assert interlock_score(s) == 0.0
    assert analyze(s, world).interlock_score == 0.0
    assert interlock_score(BrickStructure(())) == 0.0
    assert interlock_score(BrickStructure(()), world) == 0.0


def test_interlock_matches_oracle(world):
    rng = np.random.default_rng(27)
    for _ in range(60):
        s = random_structure(rng, world, 10, in_bounds=False)
        assert interlock_score(s) == oracle_interlock(s, None)
        assert analyze(s, world).interlock_score == oracle_interlock(s, world)


def test_interlock_huge_anchors_and_far_layers(world):
    tiny = WorldConfig(5, 5, 3)
    rng = np.random.default_rng(31)
    for _ in range(60):
        s = far_layers(rng, random_structure(rng, tiny, 20, in_bounds=True, min_bricks=8))
        assert interlock_score(s) == oracle_interlock(s, None)
        assert interlock_score(s, tiny) == oracle_interlock(s, tiny)
    # A bridge over two bricks, alone and lifted to layers far past the
    # world, with anchors far past 2**63.
    base = 2**64 + 5
    for z in (0, 10**12, 2**63):
        bridge = struct((1, 2, base, base, z), (1, 2, base, base + 2, z), (1, 4, base, base, z + 1))
        assert interlock_score(bridge) == (1.0 if z == 0 else 1 / 3)
        assert interlock_score(bridge, world) == 0.0
    # An 8-long brick ends just before the next anchor: no support.
    for far in (0, 2**64):
        s = struct((8, 1, far, 0, 0), (1, 1, far + 8, 0, 0), (8, 1, far + 8, 0, 1))
        assert interlock_score(s) == oracle_interlock(s, None) == 0.0


def test_clipping_changes_support(world):
    # Unclipped footprints overlap at x=21..25; in-world cells do not.
    s = struct((8, 1, 18, 0, 0), (8, 1, 21, 0, 1))
    assert interlock_score(s) == 0.0  # one support, not two
    assert oracle_supports_below(s, 1, None) == [0]
    assert support_edges(s, world) == []
    # The second support of the upper brick lies wholly outside the world.
    s = struct((1, 1, 17, 0, 0), (8, 1, 21, 0, 0), (8, 1, 17, 0, 1))
    assert interlock_score(s) == 1.0
    assert interlock_score(s, world) == 0.0
    assert support_edges(s, world) == [(2, 0)]


# ------------------------------------------------------------ seam coverage


def test_seam_covered_by_bridge(world, perfect_fixture):
    assert analyze(perfect_fixture, world).seam_coverage == 1.0


def test_seam_uncovered(world):
    s = struct((1, 2, 0, 0, 0), (1, 2, 0, 2, 0))
    assert analyze(s, world).seam_coverage == 0.0


def test_seam_vacuous_single_brick(world):
    assert analyze(struct((2, 4, 3, 3, 3)), world).seam_coverage == 1.0


def test_seam_same_brick_cells_not_seams(world):
    # Adjacent voxels of one brick never count.
    assert analyze(struct((2, 6, 0, 0, 0)), world).seam_coverage == 1.0


def test_seam_top_layer_excluded(world):
    # z=19 has no layer above, so its seams fall outside the total.
    s = struct((1, 2, 0, 0, 19), (1, 2, 0, 2, 19))
    assert analyze(s, world).seam_coverage == 1.0


def test_seam_partial(world):
    # Two abutting pairs, only one bridged.
    s = struct(
        (1, 2, 0, 0, 0), (1, 2, 0, 2, 0),
        (1, 2, 5, 0, 0), (1, 2, 5, 2, 0),
        (1, 4, 0, 0, 1),
    )
    assert analyze(s, world).seam_coverage == 0.5


def test_seam_owner_is_lowest_index(world):
    # Colliding voxel (0,1,0) belongs to whichever brick comes first, so
    # brick order can change the seam set. Values frozen from this build.
    a = make_brick(1, 2, 0, 0, 0)
    b = make_brick(1, 1, 0, 1, 0)
    c = make_brick(1, 1, 0, 2, 0)
    d = make_brick(1, 2, 0, 0, 1)
    assert analyze(BrickStructure((a, b, c, d)), world).seam_coverage == 0.0
    assert analyze(BrickStructure((b, a, c, d)), world).seam_coverage == 0.5


# ----------------------------------------------------------- whole analysis


def test_empty_structure_analysis(world):
    a = analyze(BrickStructure(()), world)
    assert a.n_col == 0
    assert a.fully_in_bounds
    assert a.occupied_count == 0
    assert a.disconnected_count == 0
    assert a.conn_score == 1.0
    assert not a.is_connected
    assert a.interlock_score == 0.0
    assert a.seam_coverage == 1.0
    assert a.brick_count == 0


def test_analyze_with_occupancy_consistent(world):
    rng = np.random.default_rng(28)
    for _ in range(20):
        s = random_structure(rng, world, 12, in_bounds=False)
        a, occ = analyze_with_occupancy(s, world)
        assert a == analyze(s, world)
        assert np.array_equal(occ, rasterize(s, world).occupied)
        assert a.occupied_count == int(occ.sum())


def test_in_bounds_flag(world):
    assert analyze(struct((2, 4, 16, 18, 19)), world).fully_in_bounds is False
    assert analyze(struct((2, 4, 18, 16, 19)), world).fully_in_bounds is True
    assert analyze(struct((1, 1, 0, 0, 20)), world).fully_in_bounds is False


def test_permutation_invariance_collision_free(world):
    # Without collisions every score ignores brick order (the seam owner
    # rule only matters when voxels are shared).
    rng = np.random.default_rng(29)
    for _ in range(15):
        s = collision_free_structure(rng, world, 12)
        base = analyze(s, world)
        for _ in range(3):
            perm = rng.permutation(len(s))
            shuffled = BrickStructure(tuple(s[int(i)] for i in perm))
            assert analyze(shuffled, world) == base


def test_order_invariant_fields_with_collisions(world):
    # Everything except seam coverage stays order-invariant even when
    # bricks overlap.
    rng = np.random.default_rng(30)
    for _ in range(15):
        s = random_structure(rng, world, 12, in_bounds=False)
        base = analyze(s, world)
        perm = rng.permutation(len(s))
        shuffled = BrickStructure(tuple(s[int(i)] for i in perm))
        other = analyze(shuffled, world)
        assert (other.n_col, other.occupied_count, other.disconnected_count) == (
            base.n_col,
            base.occupied_count,
            base.disconnected_count,
        )
        assert other.conn_score == base.conn_score
        assert other.interlock_score == base.interlock_score
        assert other.is_connected == base.is_connected


def test_huge_anchors_do_not_crash(world):
    s = struct((1, 1, 10**40, 0, 0), (2, 4, 0, 10**18, 10**18), (1, 1, 0, 0, 0))
    a = analyze(s, world)
    assert not a.fully_in_bounds
    assert a.occupied_count == 1
    assert a.n_col == 0


def test_small_world(world):
    # Same structure, tighter world: clipping changes the verdicts.
    tiny = WorldConfig(6, 6, 6)
    s = struct((2, 4, 4, 4, 0), (1, 1, 4, 4, 1))
    assert analyze(s, tiny).occupied_count == 5
    assert not analyze(s, tiny).fully_in_bounds
    assert analyze(s, world).occupied_count == 9
    assert analyze(s, world).fully_in_bounds


# ------------------------------------------------------------------ columns

HUGE = (2**63 - 1, 2**63, 10**30)


def huge_values(rng, s):
    # Move about a third of the bricks on each axis by one huge amount
    # per axis, so the moved bricks keep their overlaps and stacking.
    big = [HUGE[int(rng.integers(len(HUGE)))] for _ in range(3)]
    moved = rng.random((len(s), 3)) < 0.35
    return BrickStructure(tuple(
        Brick(b.dim, *(v + d * m for v, d, m in zip((b.x, b.y, b.z), big, row.tolist())))
        for b, row in zip(s, moved)
    ))


def test_columns_and_tuples_analyze_alike():
    # Parsed structures carry columns (object arrays when a value passes
    # int64), tuple-built ones build them: both must give the same
    # analysis as each other and as the oracles.
    worlds = (WorldConfig(1, 1, 1), WorldConfig(20, 20, 20), WorldConfig(5, 5, 3), WorldConfig(3, 7, 2))
    rng = np.random.default_rng(43)
    dtypes = set()
    for i in range(600):
        world = worlds[i % len(worlds)]
        s = random_structure(rng, world, 12, in_bounds=i % 5 == 0)
        if i % 3 == 0:
            s = huge_values(rng, s)
        parsed, report = parse_structure(serialize_structure(s, ("one_per_line", "comma_inline")[i % 2]))
        assert report.parsed_ok and parsed == s
        dtypes.add(parsed.columns.dtype)
        twin = BrickStructure(s.bricks)
        a, occupied = analyze_with_occupancy(parsed, world)
        b, occupied_twin = analyze_with_occupancy(twin, world)
        assert a == b and np.array_equal(occupied, occupied_twin)

        counts = oracle_counts(s, world)
        assert set(counts) == {tuple(v) for v in np.argwhere(occupied).tolist()}
        assert a.n_col == sum(c > 1 for c in counts.values())
        assert a.fully_in_bounds == all(len(oracle_voxels(x, world)) == x.dim.area for x in s)
        connectivity = (a.occupied_count, a.disconnected_count, a.conn_score, a.is_connected)
        assert connectivity == oracle_connectivity(s, world)
        assert a.brick_count == len(s)

        clipped = oracle_interlock(s, world)
        assert a.interlock_score == interlock_score(parsed, world) == interlock_score(twin, world) == clipped
        free = oracle_interlock(s, None)
        assert interlock_score(parsed) == interlock_score(twin) == free
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


# -------------------------------------------------------------------- chunks


def chunk_builds(rng, world, k, first_kind):
    # Light and dense builds of every awkward kind, mixed in one chunk.
    builds = []
    for i in range(k):
        kind = (first_kind + i) % 6
        s = random_structure(rng, world, 300 if kind == 5 else 12, in_bounds=kind % 2 == 0)
        if kind == 1:  # parsed back, so its columns are an object array
            s = parse_structure(serialize_structure(huge_values(rng, s)))[0]
        elif kind == 2:  # colliding
            s = BrickStructure(s.bricks + s.bricks[: int(rng.integers(1, 4))])
        elif kind == 3:  # wholly outside the world's x or y extent
            dx, dy = (world.dim_x, 0) if i % 2 else (0, world.dim_y)
            s = BrickStructure(tuple(Brick(b.dim, b.x + dx, b.y + dy, b.z) for b in s))
        builds.append(s)
    return builds


def assert_chunk_pass_equals_single_passes(builds, targets, world):
    for s, target, (a, iou) in zip(builds, targets, analyze_chunk(builds, targets, world), strict=True):
        b, occupied = analyze_with_occupancy(s, world)
        want = (*vars(b).values(), reward_shape(occupied, target)[1])
        assert (*vars(a).values(), iou) == want
        assert [type(v) for v in (*vars(a).values(), iou)] == [type(v) for v in want]


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(7, 70, 3), WorldConfig(5, 7, 3),
                                   WorldConfig(1, 1, 1)], ids=str)
@pytest.mark.parametrize("k", [2, 7, 32])
def test_chunk_pass_equals_single_passes(world, k):
    rng = np.random.default_rng([k, world.n_voxels])
    grids = [random_target(seed, grounded=bool(seed % 2), world=world) for seed in range(4)]
    dtypes = set()
    for chunk in range(6):
        builds = chunk_builds(rng, world, k, chunk * k)
        dtypes.update(s.columns.dtype for s in builds)
        assert_chunk_pass_equals_single_passes(builds, [grids[int(rng.integers(4))] for _ in builds], world)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    # No cell of the chunk inside the world's x/y extent, and no brick at all.
    outside = [struct((1, 1, world.dim_x, 0, 0), (2, 2, 0, world.dim_y, 0)), struct((1, 1, 0, world.dim_y, 0))]
    assert_chunk_pass_equals_single_passes(outside, grids[:2], world)
    assert_chunk_pass_equals_single_passes([BrickStructure(())] * 2, grids[:2], world)


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(7, 70, 3), WorldConfig(5, 7, 3)], ids=str)
def test_reward_path_skips_only_the_seam_pass(world, monkeypatch):
    # Light, dense (300 bricks), huge-integer, colliding, out-of-bounds and
    # empty builds, scored alone and as one chunk.
    rng = np.random.default_rng([15, world.n_voxels])
    grids = [random_target(seed, grounded=bool(seed % 2), world=world) for seed in range(4)]
    builds = chunk_builds(rng, world, 24, 0) + [BrickStructure(())]
    texts = [serialize_structure(s) for s in builds]
    targets = [grids[i % 4] for i in range(len(builds))]
    alone = [score_completion(text, target, world) for text, target in zip(texts, targets)]
    chunked = score_completions(texts, targets, world)
    with_seams = analyze_chunk(builds, targets, world)
    grids_with_seams = [analyze_with_occupancy(s, world)[0] for s in builds]

    def no_seam_pass(*args):
        raise AssertionError("seam pass called")

    chunk_calls = []

    def chunk(*args, **kwargs):
        chunk_calls.append(kwargs)
        return analyze_chunk(*args, **kwargs)

    monkeypatch.setattr(analysis, "_seam_score", no_seam_pass)
    monkeypatch.setattr(rewards, "analyze_chunk", chunk)
    assert [score_completion(text, target, world) for text, target in zip(texts, targets)] == alone
    assert score_completions(texts, targets, world) == chunked == alone
    assert chunk_calls == [{"seams": False}] * len(chunk_calls)
    with pytest.raises(AssertionError, match="seam pass called"):
        analyze(builds[0], world)

    results = analyze_chunk(builds, targets, world, seams=False)
    for (a, iou), (b, iou_b) in zip(results, with_seams, strict=True):
        assert a.seam_coverage is None and b.seam_coverage is not None
        assert (replace(a, seam_coverage=b.seam_coverage), iou) == (b, iou_b)
    for s, b in zip(builds, grids_with_seams):
        a = analyze_with_occupancy(s, world, seams=False)[0]
        assert a.seam_coverage is None and replace(a, seam_coverage=b.seam_coverage) == b


def oracle_cells(builds, world, with_ids):
    # Every clipped footprint cell, brick by brick, then x, then y, by a
    # double loop over the whole footprint; a pair flag is set when the
    # cell's +x (+y) neighbor is a cell of the same brick.
    dim_x, dim_y, dim_z = world.shape
    cells = {name: [] for name in ("brick", "column", "pair_x", "pair_y", "voxel", "vbrick", "lin")}
    index = 0
    for sid, s in enumerate(builds):
        for b in s:
            x1, y1 = min(b.x + b.h, dim_x), min(b.y + b.w, dim_y)
            for u in range(b.x, b.x + b.h):
                for v in range(b.y, b.y + b.w):
                    if u >= dim_x or v >= dim_y:
                        continue
                    column = u * dim_y + v + (sid * dim_x * dim_y if with_ids else 0)
                    voxel = 0 <= b.z < dim_z
                    cells["brick"].append(index)
                    cells["column"].append(column)
                    cells["pair_x"].append(u + 1 < x1)
                    cells["pair_y"].append(v + 1 < y1)
                    cells["voxel"].append(voxel)
                    if voxel:
                        cells["vbrick"].append(index)
                        cells["lin"].append(column * dim_z + b.z)
            index += 1
    return cells


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(7, 70, 3), WorldConfig(5, 7, 3),
                                   WorldConfig(1, 1, 1)], ids=str)
def test_cell_builder_enumerates_clipped_footprints(world):
    rng = np.random.default_rng([5, world.n_voxels])
    dtypes = set()
    for chunk in range(4):
        builds = chunk_builds(rng, world, 6, chunk * 6)
        dtypes.update(s.columns.dtype for s in builds)
        cases = [([s], None) for s in builds]
        sid = np.repeat(np.arange(len(builds)), [len(s) for s in builds])
        cases.append((builds, sid))
        for group, structure in cases:
            geom = _Geometry(np.concatenate([s.columns for s in group]), world, structure)
            for name, want in oracle_cells(group, world, structure is not None).items():
                got = getattr(geom, name)
                assert got.tolist() == want, name
                assert got.dtype == (bool if name in ("pair_x", "pair_y", "voxel") else np.int64), name
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_chunk_pass_memory_grows_with_cells_not_world():
    world = WorldConfig(64, 64, 64)
    builds = [struct((1, 1, i, i, i)) for i in range(32)]
    targets = [np.zeros(world.shape, dtype=bool) for _ in builds]
    analyze_chunk(builds, targets, world)  # warm caches
    tracemalloc.start()
    try:
        analyze_chunk(builds, targets, world)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
