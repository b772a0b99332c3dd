"""Rasterization, collisions, connectivity, interlock, and seam coverage."""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from brickeval import analysis, rewards
from brickeval import (
    BRICK_LIBRARY,
    BrickStructure,
    ConstructorOptions,
    WorldConfig,
    analyze,
    analyze_with_occupancy,
    Brick,
    collision_stats,
    encode_target_voxels,
    interlock_score,
    legalize,
    make_brick,
    parse_structure,
    random_target,
    rasterize,
    score_completion,
    serialize_structure,
)
from brickeval.analysis import StructureAnalysis, _Geometry, analyze_chunk
from brickeval.cli import cli_dispatch
from brickeval.rewards import RewardBreakdown, reward_terms, score_terms
from brickeval.service import max_line_bytes

from helpers import (
    collision_free_structure,
    oracle_analysis,
    oracle_connectivity,
    oracle_counts,
    oracle_footprint,
    oracle_interlock,
    oracle_iou,
    oracle_occupied,
    oracle_seam_coverage,
    oracle_supports_below,
    oracle_voxels,
    random_structure,
)


def struct(*specs):
    return BrickStructure(tuple(make_brick(*s) for s in specs))


def support_edges(s, world):
    # The support graph's edges as a set, sorted: the join may repeat an edge.
    geom = _Geometry(s.columns, world)
    upper, lower, *_ = geom.support(geom.sorted_cells())
    return sorted(set(zip(upper.tolist(), lower.tolist())))


def rests_on(s, world):
    # Per brick, from support's bounds: 0, 1 or 2 for no brick below, one, or two or more.
    geom = _Geometry(s.columns, world)
    _, _, least, greatest = geom.support(geom.sorted_cells())
    return ((greatest >= 0).astype(int) + (least < greatest)).tolist()


def oracle_rests_on(s, world):
    return [min(len(oracle_supports_below(s, i, world)), 2) for i in range(len(s))]


def stacked_copies(rng, s):
    # Copies of the first brick, and copies of it one layer up: two runs
    # of several bricks on the same cells, one resting on the other.
    b = s[0]
    below, above = (int(c) for c in rng.integers(1, 5, size=2))
    return BrickStructure(s.bricks + (b,) * below + (Brick(b.dim, b.x, b.y, b.z + 1),) * above)


def shares_a_cell(s, world):
    # Two bricks on one layer whose clipped footprints overlap, in the world or not.
    return any(a.z == b.z and oracle_footprint(a, world) & oracle_footprint(b, world)
               for i, a in enumerate(s) for b in s.bricks[i + 1:])


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
    counts = rasterize(struct((1, 1, 0, 0, 0), (1, 1, 0, 0, 0)), world)
    assert counts[0, 0, 0] == 2
    assert counts.sum() == 2


def test_rasterize_single_1x4(world):
    counts = rasterize(struct((1, 4, 5, 6, 0)), world)
    hits = {tuple(v) for v in np.argwhere(counts == 1)}
    assert hits == {(5, 6, 0), (5, 7, 0), (5, 8, 0), (5, 9, 0)}
    assert counts.sum() == 4


def test_rasterize_empty(world):
    counts = rasterize(BrickStructure(()), world)
    assert isinstance(counts, np.ndarray) and counts.dtype == np.int64
    assert counts.shape == world.shape
    assert not counts.any()


def test_count_conservation(world):
    # Sum of counts equals the sum of in-bounds footprint areas.
    rng = np.random.default_rng(22)
    for _ in range(30):
        s = random_structure(rng, world, 15, in_bounds=False)
        counts = rasterize(s, world)
        assert isinstance(counts, np.ndarray) and counts.dtype == np.int64
        assert counts.shape == world.shape
        expected = oracle_counts(s, world)
        assert int(counts.sum()) == sum(expected.values())
        for v, c in expected.items():
            assert counts[v] == c


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
    s = struct((1, 2, 0, 0, 0), (1, 2, 0, 0, 1))
    assert support_edges(s, world) == [(1, 0)]
    assert rests_on(s, world) == oracle_rests_on(s, world) == [0, 1]


def test_no_edge_across_layer_gap(world):
    assert support_edges(struct((1, 2, 0, 0, 0), (1, 2, 0, 0, 2)), world) == []


def test_bridge_has_two_supports(world, perfect_fixture):
    assert support_edges(perfect_fixture, world) == [(2, 0), (2, 1)]
    assert rests_on(perfect_fixture, world) == oracle_rests_on(perfect_fixture, world) == [0, 0, 2]


def test_support_graph_matches_oracle(world):
    # Edges run from each brick to the bricks one layer below it, also
    # on layers past the world and on layers far apart, and may repeat.
    # With no two bricks on one cell their set is the oracle's exactly.
    # Otherwise each cell is joined to the first brick of the run below
    # it, and each but a run's first to the first brick of the run above:
    # every edge is a support, and a brick has an edge iff it has a
    # support. A brick's bounds are the least and greatest of its
    # supports, so its least is below its greatest iff it has two
    # supports or more.
    tiny = WorldConfig(5, 5, 3)
    rng = np.random.default_rng(25)
    kinds = set()
    for k in range(120):
        w = world if k < 40 else tiny
        if k < 40:
            s = random_structure(rng, w, 10, in_bounds=False)
        else:
            s = random_structure(rng, w, 20, in_bounds=bool(k % 2), min_bricks=8)
        if k % 3 == 2:
            s = stacked_copies(rng, s)
        if k >= 80:
            s = far_layers(rng, s)
        geom = _Geometry(s.columns, w)
        upper, lower, least, greatest = geom.support(geom.sorted_cells())
        edges = set(zip(upper.tolist(), lower.tolist()))
        collides = shares_a_cell(s, w)
        kinds.add(collides)
        for i in range(len(s)):
            got, want = sorted(j for u, j in edges if u == i), oracle_supports_below(s, i, w)
            if collides:
                assert set(got) <= set(want) and bool(got) == bool(want)
            else:
                assert got == want
            assert (least[i], greatest[i]) == (min(want, default=len(s)), max(want, default=-1))
            assert (greatest[i] >= 0) == bool(want)
            assert (least[i] < greatest[i]) == (len(want) >= 2)
    assert kinds == {False, True}


def lines_run(module, fn, *args, **kwargs):
    """fn(*args, **kwargs), and how many lines of module it executed."""
    lines = [0]

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != module.__file__:
            return None
        if event == "line":
            lines[0] += 1
        return tracer

    sys.settrace(tracer)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.settrace(None)
    return result, lines[0]


def test_copies_of_one_brick_analyze_like_the_oracles(world):
    # A completion that repeats one line puts thousands of bricks on one
    # cell, one run of the sorted cells. The join reaches each brick
    # directly under a brick, and its bounds say that only the top brick
    # rests on two or more. It takes no Python step per copy: the pass
    # runs as many lines of analysis for 3000 copies as for two.
    def build(copies):
        return struct(*[(2, 4, 0, 0, 0)] * copies, (1, 1, 5, 5, 0), *[(1, 1, 5, 5, 1)] * copies, (2, 2, 0, 0, 1))

    target = np.zeros(world.shape, dtype=bool)
    lines, fields = {}, {}
    for copies in (2, 300, 3000):
        s = build(copies)
        got, lines[copies, True] = lines_run(analysis, analyze, s, world)
        _, lines[copies, False] = lines_run(analysis, analyze_chunk, [s, s], [target] * 2, world, full=False)
        assert analyze_chunk([s], [target], world)[0][0] == got
        top = 2 * copies + 1
        edges = [(u, copies) for u in range(copies + 1, top)] + [(top, j) for j in range(copies)]
        assert support_edges(s, world) == edges
        rests = rests_on(s, world)
        assert rests == [0] * (copies + 1) + [1] * copies + [2]
        # Only the top brick interlocks; the oracles are quadratic, so they check the smaller builds.
        fields[copies] = {**got._asdict(), "interlock_score": None, "brick_count": None}
        assert got.interlock_score == 1 / (copies + 1) and got.brick_count == len(s)
        if copies < 3000:
            assert got._asdict() == oracle_analysis(s, world)
            assert rests == oracle_rests_on(s, world)
    assert fields[3000] == fields[300] == fields[2]
    assert lines[3000, True] == lines[2, True] and lines[3000, False] == lines[2, False]


def hostile_line_completion(world):
    # The completion of a request line just under max_line_bytes: 2x6
    # bricks placed at random in the 20^3 world, 72,298 bricks, about
    # 740,000 cells, most of them colliding.
    rng = np.random.default_rng(11)
    tokens = [f"2x6 ({x},{y},{z})" for x, y, z in rng.integers(0, 20, (80000, 3)).tolist()]
    room = max_line_bytes(world) - len(json.dumps({"id": "h", "completion": "", "target_points": "(0,0,0)"}))
    count = np.searchsorted(np.cumsum([len(t) + 2 for t in tokens]) - 2, room)  # "\n" is two bytes in JSON
    completion = "\n".join(tokens[:count])
    assert len(json.dumps({"id": "h", "completion": completion, "target_points": "(0,0,0)"})) < max_line_bytes(world)
    return completion


def hostile_line_structure(world):
    completion = hostile_line_completion(world)
    s, report = parse_structure(completion)
    assert report.parsed_ok and len(s) == completion.count("\n") + 1 > 72000
    return s


def test_one_hostile_line_scores_in_bounded_memory(world):
    # The reward-mode pass on the hostile line traced a peak of 38.2 MiB:
    # every voxel collides, so the build is infeasible, its bricks need no
    # component labels, and the pass takes the one-cell join alone. It was
    # 60.1 MiB while the reward mode joined the runs as stars. The bound
    # leaves about 5% above the measured peak.
    s = hostile_line_structure(world)
    count = len(s)
    target = np.zeros(world.shape, dtype=bool)
    want = analyze_chunk([s], [target], world, full=False)  # warm caches
    tracemalloc.start()
    try:
        got = analyze_chunk([s], [target], world, full=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and got[0][0].brick_count == count
    assert peak < 40.1 * (1 << 20), peak / (1 << 20)


def test_one_hostile_line_geometry_in_bounded_memory(world):
    # The footprint enumeration on the hostile line traced a peak of
    # 23.0 MiB, against 32.8 MiB while every per-cell temporary of a
    # divmod enumeration was alive at once; it keeps 14.2 MiB.
    s = hostile_line_structure(world)
    _Geometry(s.columns, world)  # warm caches
    tracemalloc.start()
    try:
        geom = _Geometry(s.columns, world)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert geom.column.size > 700_000
    assert peak < 25.0 * (1 << 20), peak / (1 << 20)


def test_eval_of_hostile_pairs_in_bounded_memory(world, tmp_path):
    # eval once batched 32 pairs whatever their size, so its traced peak grew
    # by a hostile pass per hostile pair: 227.8 MiB for two against 113.3 for
    # one. Now a batch holds at most max_line_bytes of pairs, or one pair.
    line = json.dumps({"completion": hostile_line_completion(world),
                       "target_voxels": encode_target_voxels(np.zeros(world.shape, dtype=bool))})
    peaks = []
    for count in (1, 2):
        pairs = tmp_path / f"pairs{count}.jsonl"
        pairs.write_text((line + "\n") * count)
        argv = ["eval", "--pairs", str(pairs), "--out", str(tmp_path / "report.jsonl")]
        if count == 1:
            assert cli_dispatch(argv) == 0  # warm caches
        tracemalloc.start()
        try:
            assert cli_dispatch(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0], [peak / (1 << 20) for peak in peaks]


def test_copies_stacked_on_copies_cost_their_cells(world):
    # 2,000 copies on one cell over 2,000 on the cell below: every upper
    # copy rests on 2,000 bricks, yet the join makes about one edge a
    # cell, not one per pair of copies (4e6 edges, over 200 MiB).
    s = parse_structure("1x1 (0,0,0)\n" * 2000 + "1x1 (0,0,1)\n" * 2000)[0]
    analyze(s, world)  # warm caches
    tracemalloc.start()
    try:
        got = analyze(s, world)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    small = parse_structure("1x1 (0,0,0)\n" * 3 + "1x1 (0,0,1)\n" * 2)[0]
    assert got._asdict() == {**oracle_analysis(small, world), "brick_count": 4000}
    assert got.interlock_score == 1.0 and got.n_col == 2 and got.is_connected


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


EMPTY_ANALYSIS = StructureAnalysis(
    n_col=0,
    fully_in_bounds=True,
    occupied_count=0,
    disconnected_count=0,
    conn_score=1.0,
    is_connected=False,
    interlock_score=0.0,
    seam_coverage=1.0,
    brick_count=0,
)


def test_empty_structure_analysis(world):
    # The empty build through every entry point, and in chunks alone,
    # beside another empty build, among real builds and among failed
    # parses (None), in full and in the reward mode.
    empty = BrickStructure(())
    assert analyze(empty, world) == EMPTY_ANALYSIS
    a, occupied = analyze_with_occupancy(empty, world)
    assert a == EMPTY_ANALYSIS
    assert occupied.shape == world.shape and not occupied.any()
    assert interlock_score(empty) == interlock_score(empty, world) == 0.0
    counts = rasterize(empty, world)
    assert counts.shape == world.shape and not counts.any()

    rng = np.random.default_rng(427)
    real = [random_structure(rng, world, 12) for _ in range(2)]
    target = random_target(0, grounded=True, world=world)
    for chunk in ([empty], [empty, empty], [real[0], empty, real[1], empty], [None, None], [None, empty, None]):
        for full in (True, False):
            want = EMPTY_ANALYSIS if full else EMPTY_ANALYSIS._replace(seam_coverage=None, is_connected=None)
            results = analyze_chunk(chunk, [target] * len(chunk), world, full=full)
            for s, result in zip(chunk, results, strict=True):
                if s is None:
                    assert result is None
                elif len(s):
                    assert result == analyze_chunk([s], [target], world, full=full)[0]
                else:
                    assert result == (want, 0.0)


def test_analyze_with_occupancy_consistent(world):
    rng = np.random.default_rng(28)
    for _ in range(20):
        s = random_structure(rng, world, 12, in_bounds=False)
        a, occ = analyze_with_occupancy(s, world)
        assert a == analyze(s, world)
        assert np.array_equal(occ, rasterize(s, world) > 0)
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


def test_cell_keys_across_2_63_stay_exact():
    # Three 1x1 bricks stacked on layers 0 to 2 at columns near 2**63 // 5:
    # with a layer span of 5, the cell keys of column 2**63 // 5 lie on
    # either side of 2**63, and those of the columns around it on one side.
    world = WorldConfig(3 * 2**31, 3 * 2**31, 4)
    for dc in range(-2, 3):
        x, y = divmod(2**63 // 5 + dc, world.dim_y)
        s = struct(*[(1, 1, x, y, z) for z in range(3)])
        assert analyze(s, world)._asdict() == oracle_analysis(s, world), dc
        assert interlock_score(s, world) == oracle_interlock(s, world), dc


@pytest.mark.parametrize("size", [2**63, 2**64])
@pytest.mark.parametrize("axis", range(3))
def test_world_dimension_past_int64(axis, size):
    shape = [20, 20, 20]
    shape[axis] = size
    world = WorldConfig(*shape)
    s = struct((1, 2, 0, 0, 0), (1, 2, 0, 1, 1), (2, 2, 1, 0, 0))
    assert analyze(s, world)._asdict() == oracle_analysis(s, world)
    assert interlock_score(s, world) == oracle_interlock(s, world)


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
        kind = (first_kind + i) % 7
        s = random_structure(rng, world, 300 if kind == 5 else 12, in_bounds=kind % 2 == 0)
        if kind == 1:  # parsed back, so its columns are an object array
            s = parse_structure(serialize_structure(huge_values(rng, s)))[0]
        elif kind == 2:  # colliding
            s = BrickStructure(s.bricks + s.bricks[: int(rng.integers(1, 4))])
        elif kind == 3:  # wholly outside the world's x or y extent
            dx, dy = (world.dim_x, 0) if i % 2 else (0, world.dim_y)
            s = BrickStructure(tuple(Brick(b.dim, b.x + dx, b.y + dy, b.z) for b in s))
        elif kind == 6:  # copies stacked on copies
            s = stacked_copies(rng, s)
        builds.append(s)
    return builds


FOUR_WORLDS = [WorldConfig(20, 20, 20), WorldConfig(7, 70, 3), WorldConfig(5, 7, 3), WorldConfig(1, 1, 1)]


def assert_chunk_pass_matches_oracles(builds, targets, world):
    # Every field and the IoU against the oracles, with the types a
    # StructureAnalysis declares; a chunk also gives what each of its
    # structures gives alone, where no structure id is in the cell keys.
    chunked = analyze_chunk(builds, targets, world)
    for s, target, (a, iou) in zip(builds, targets, chunked, strict=True):
        want = oracle_analysis(s, world)
        assert a._asdict() == want
        assert iou == oracle_iou(oracle_occupied(s, world), target)
        assert [type(v) for v in (*a, iou)] == [int, bool, int, int, float, bool, float, float, int, float]
        assert analyze_chunk([s], [target], world) == [(a, iou)]


@pytest.mark.parametrize("world", FOUR_WORLDS, ids=str)
@pytest.mark.parametrize("k", [2, 7, 32])
def test_chunk_pass_equals_single_passes(world, k):
    rng = np.random.default_rng([k, world.n_voxels])
    grids = [random_target(seed, grounded=bool(seed % 2), world=world) for seed in range(4)]
    dtypes = set()
    for chunk in range(6):
        builds = chunk_builds(rng, world, k, chunk * k)
        dtypes.update(s.columns.dtype for s in builds)
        assert_chunk_pass_matches_oracles(builds, [grids[int(rng.integers(4))] for _ in builds], world)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    # No cell of the chunk inside the world's x/y extent, and no brick at all.
    outside = [struct((1, 1, world.dim_x, 0, 0), (2, 2, 0, world.dim_y, 0)), struct((1, 1, 0, world.dim_y, 0))]
    assert_chunk_pass_matches_oracles(outside, grids[:2], world)
    assert_chunk_pass_matches_oracles([BrickStructure(())] * 2, grids[:2], world)


@pytest.mark.parametrize("top,largest_key", [(1, 2**16 - 1), (2, 2**16 + 16383)])
def test_cell_keys_on_each_side_of_16_bits(top, largest_key):
    # Bricks on the far corner column of a 128x128x4 world, on layers 0
    # to 1, give the largest cell key 65,535, the last that fits in 16
    # bits; on layers 0 to 2 it is 81,919. Seeded bricks near the origin
    # and near column 13,107, where keys on layers 0 to 2 pass 2**16,
    # rest on each other; colliding copies make runs of equal keys, and
    # a chunk of three carries structure ids in its keys.
    world = WorldConfig(128, 128, 4)
    rng = np.random.default_rng(top)
    dims = [(1, 1), (2, 2), (2, 4), (4, 2), (1, 8)]
    base = [(2, 4, 126, 124, 0), (1, 1, 127, 127, 0), (4, 2, 124, 126, top), (1, 1, 127, 127, top)] + [
        (*dims[int(rng.integers(len(dims)))], int(rng.integers(x, x + 4)), int(rng.integers(y, y + 8)),
         int(rng.integers(top + 1)))
        for x, y in ((0, 0), (100, 46)) for _ in range(12)
    ]
    builds = [struct(*base), struct(*base, *[(1, 1, 127, 127, 0)] * 3, *[(1, 1, 127, 127, top)] * 2, *base[4:8]),
              struct(*base[::-1], *base[-3:])]
    for s in builds:
        assert _Geometry(s.columns, world).sorted_cells()[0].max() == largest_key
        a, occupied = analyze_with_occupancy(s, world)
        assert a._asdict() == oracle_analysis(s, world)
        assert (occupied == oracle_occupied(s, world)).all()
    assert_chunk_pass_matches_oracles(builds, [oracle_occupied(s, world) for s in builds[::-1]], world)


@pytest.mark.parametrize("world", FOUR_WORLDS, ids=str)
def test_seam_coverage_matches_oracle(world):
    # Light, dense, huge-integer, colliding and out-of-bounds builds, alone and as one chunk.
    rng = np.random.default_rng([16, world.n_voxels])
    target = np.zeros(world.shape, dtype=bool)
    for chunk in range(4):
        builds = chunk_builds(rng, world, 12, chunk)
        want = [oracle_seam_coverage(s, world) for s in builds]
        assert [analyze(s, world).seam_coverage for s in builds] == want
        assert [a.seam_coverage for a, _ in analyze_chunk(builds, [target] * len(builds), world)] == want


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(7, 70, 3), WorldConfig(5, 7, 3)], ids=str)
def test_reward_path_skips_seams_and_infeasible_support(world, monkeypatch):
    # Light, dense (300 bricks), huge-integer, colliding, out-of-bounds and
    # empty builds, scored alone and as one chunk. The reward mode leaves
    # out seam coverage and connectedness, and on an infeasible build,
    # whose support no reward reads, the support fields too.
    rng = np.random.default_rng([15, world.n_voxels])
    grids = [random_target(seed, grounded=bool(seed % 2), world=world) for seed in range(4)]
    builds = chunk_builds(rng, world, 24, 0) + [BrickStructure(())]
    texts = [serialize_structure(s) for s in builds]
    targets = [grids[i % 4] for i in range(len(builds))]
    alone = [score_completion(text, target, world) for text, target in zip(texts, targets)]
    chunked = [RewardBreakdown(*terms) for terms in score_terms(texts, targets, world)]
    in_full = analyze_chunk(builds, targets, world)
    for s, target, breakdown in zip(builds[:-1], targets, alone):
        want = StructureAnalysis(**oracle_analysis(s, world))
        assert breakdown == RewardBreakdown(*reward_terms(want, oracle_iou(oracle_occupied(s, world), target)))

    def no_seam_pass(*args):
        raise AssertionError("seam pass called")

    chunk_calls = []

    def chunk(*args, **kwargs):
        chunk_calls.append(kwargs)
        return analyze_chunk(*args, **kwargs)

    monkeypatch.setattr(analysis, "_seam_coverage", no_seam_pass)
    monkeypatch.setattr(rewards, "analyze_chunk", chunk)
    assert [score_completion(text, target, world) for text, target in zip(texts, targets)] == alone
    assert [RewardBreakdown(*terms) for terms in score_terms(texts, targets, world)] == chunked == alone
    assert chunk_calls and chunk_calls == [{"full": False}] * len(chunk_calls)
    with pytest.raises(AssertionError, match="seam pass called"):
        analyze(builds[0], world)

    results = analyze_chunk(builds, targets, world, full=False)
    kinds = set()
    for (a, iou), (b, iou_b) in zip(results, in_full, strict=True):
        feasible = b.n_col == 0 and b.fully_in_bounds
        kinds.add(feasible)
        skipped = ["seam_coverage", "is_connected"]
        if not feasible:
            skipped += ["disconnected_count", "conn_score", "interlock_score"]
        assert all(getattr(a, field) is None and getattr(b, field) is not None for field in skipped)
        assert (a._replace(**{field: getattr(b, field) for field in skipped}), iou) == (b, iou_b)
    assert kinds == {False, True}


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(7, 70, 3)], ids=str)
def test_reward_path_labels_components_only_when_a_brick_rests_on_nothing(world, monkeypatch):
    # Light and dense legalized builds of grounded targets, with colliding
    # copies, and the empty build (which no completion parses to): every
    # brick off the ground rests on one below. Each light and dense build
    # again with a 1x1 brick one layer over its lowest column's top, which
    # rests on nothing.
    empty = BrickStructure(())
    grounded, floating, targets = [], [], []
    for seed, fill in enumerate((0.02, 0.3)):
        target = random_target(seed, fill_prob=fill, grounded=True, world=world)
        s = legalize(target, ConstructorOptions(stagger=bool(seed)), world)
        height = target.sum(axis=2)
        x, y = np.unravel_index(np.argmin(height), height.shape)
        assert height[x, y] + 1 < world.dim_z
        grounded += [s, BrickStructure(s.bricks + s.bricks[-3:])]
        floating.append(BrickStructure(s.bricks + (make_brick(1, 1, int(x), int(y), int(height[x, y]) + 1),)))
        targets += [target, target]

    def no_labels(*args):
        raise AssertionError("component labels computed")

    with monkeypatch.context() as m:
        m.setattr(analysis, "_components", no_labels)
        texts = [serialize_structure(s) for s in grounded]
        scored = [RewardBreakdown(*terms) for terms in score_terms(texts, targets, world)]
        assert [score_completion(text, target, world) for text, target in zip(texts, targets)] == scored
        assert analyze_chunk([empty, *grounded], [targets[0], *targets], world, full=False)[0] == (
            EMPTY_ANALYSIS._replace(seam_coverage=None, is_connected=None), 0.0)
        for s in floating:
            for call in (lambda: score_completion(serialize_structure(s), targets[1], world),
                         lambda: interlock_score(s, world), lambda: interlock_score(s)):
                with pytest.raises(AssertionError, match="component labels"):
                    call()
        with pytest.raises(AssertionError, match="component labels"):
            analyze(grounded[1], world)
    # interlock_score runs analyze, which labels the components.
    interlock = [(interlock_score(s, world), interlock_score(s)) for s in grounded]
    assert interlock_score(empty, world) == interlock_score(empty) == 0.0
    floating_targets = targets[1::2]
    floating_texts = [serialize_structure(s) for s in floating]
    scored += [RewardBreakdown(*terms) for terms in score_terms(floating_texts, floating_targets, world)]
    interlock += [(interlock_score(s, world), interlock_score(s)) for s in floating]

    for s, target, breakdown, pair in zip(grounded + floating, targets + floating_targets, scored, interlock,
                                          strict=True):
        want = oracle_analysis(s, world)
        iou = oracle_iou(oracle_occupied(s, world), target)
        assert breakdown == RewardBreakdown(*reward_terms(StructureAnalysis(**want), iou))
        assert pair == (want["interlock_score"], oracle_interlock(s, None))
        assert analyze(s, world).is_connected == want["is_connected"]
    # Each floating brick is ungrounded, and a feasible build pays for it.
    assert all(b.feasible and b.r_conn < 2.0 for b in scored[len(grounded):])


def oracle_cells(builds, world, with_ids):
    # Every clipped footprint cell, brick by brick, then x, then y, by a
    # double loop over the whole footprint; a pair flag is set when the
    # cell's +x (+y) neighbor is a cell of the same brick.
    dim_x, dim_y, dim_z = world.shape
    cells = {name: [] for name in ("brick", "column", "pair_x", "pair_y", "lin")}
    index = 0
    for sid, s in enumerate(builds):
        for b in s:
            x1, y1 = min(b.x + b.h, dim_x), min(b.y + b.w, dim_y)
            for u in range(b.x, b.x + b.h):
                for v in range(b.y, b.y + b.w):
                    if u >= dim_x or v >= dim_y:
                        continue
                    column = u * dim_y + v + (sid * dim_x * dim_y if with_ids else 0)
                    cells["brick"].append(index)
                    cells["column"].append(column)
                    cells["pair_x"].append(u + 1 < x1)
                    cells["pair_y"].append(v + 1 < y1)
                    if 0 <= b.z < dim_z:
                        cells["lin"].append(column * dim_z + b.z)
            index += 1
    return cells


@pytest.mark.parametrize("world", FOUR_WORLDS, ids=str)
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
                assert got.dtype == (bool if name in ("pair_x", "pair_y") else np.int64), name
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_cell_offset_tables_cover_every_clipped_footprint():
    # A clipped footprint is no wider and holds no more cells than its
    # brick, so rows of _CELLS entries hold every cell's offsets.
    cells = analysis._CELLS
    assert cells > max(max(d.h, d.w) for d in BRICK_LIBRARY)
    assert cells > max(d.area for d in BRICK_LIBRARY)
    for cw in range(1, cells):
        for i in range(cells):
            assert (analysis._DX[cw * cells + i], analysis._DY[cw * cells + i]) == divmod(i, cw)


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
