"""Acceptance gate: thirteen checks, one printed verdict line each.

Each test prints "[criterion NN] PASS/FAIL - ..." on the real stdout
(bypassing capture) and then asserts, so a full run always shows one
line per criterion. Bounds are pinned in the assertions; nothing here
is tolerance-tuned at runtime.
"""

import json
import subprocess
import time

import numpy as np

from brickeval import (
    BRICK_LIBRARY,
    BrickStructure,
    ConstructorOptions,
    WorldConfig,
    analyze,
    build_prompt,
    decode_target_voxels,
    encode_target_voxels,
    interlock_score,
    legalize,
    make_brick,
    parse_structure,
    random_target,
    rasterize,
    reward_collision,
    reward_shape,
    score_completion,
    serialize_structure,
)
from brickeval.metrics import SampleMetrics, aggregate

from helpers import (
    collision_free_structure,
    oracle_connectivity,
    oracle_interlock,
    oracle_iou,
    random_structure,
)
from servers import serve_process

WORLD = WorldConfig()


def verdict(capsys, num, description, ok):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num}: {description}"


def test_c01_reward_total_range(capsys):
    rng = np.random.default_rng(101)
    targets = [rng.random(WORLD.shape) < p for p in
               (0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 0.95, 1.0)]
    ascii_pool = rng.integers(0, 256, size=400_000, dtype=np.uint8).tobytes().decode("latin-1")
    start = time.perf_counter()
    ok = True
    for i in range(10_000):
        kind = i % 5
        if kind == 0:
            text = serialize_structure(random_structure(rng, WORLD, 10, in_bounds=False))
        elif kind == 1:
            text = serialize_structure(random_structure(rng, WORLD, 6), "comma_inline")
        elif kind == 2:
            at = int(rng.integers(0, len(ascii_pool) - 64))
            text = ascii_pool[at:at + int(rng.integers(0, 64))]
        elif kind == 3:
            text = serialize_structure(random_structure(rng, WORLD, 5)) + "\nbroken line"
        else:
            text = "" if i % 2 else "   \n  "
        rb = score_completion(text, targets[i % len(targets)], WORLD)
        if not (-10.0 <= rb.total <= 10.0):
            ok = False
            break
    elapsed = time.perf_counter() - start
    verdict(capsys, 1,
            f"10000 fuzzed pairs all score within [-10, 10] in {elapsed:.1f}s (< 30s)",
            ok and elapsed < 30.0)


def test_c02_collision_penalty_formula(capsys):
    ok = all(reward_collision(n) == float(max(-10, -2 * n)) for n in range(101))
    verdict(capsys, 2, "reward_collision(n) == max(-10, -2n) for n in 0..100", ok)


def test_c03_maximum_reward_witness(capsys, perfect_fixture):
    target = rasterize(perfect_fixture, WORLD) > 0
    rb = score_completion(serialize_structure(perfect_fixture), target, WORLD)
    parts = (rb.r_col, rb.r_shape, rb.r_inter, rb.r_conn, rb.total)
    verdict(capsys, 3,
            f"perfect fixture scores exactly (0, 5, 3, 2, 10), got {parts}",
            parts == (0.0, 5.0, 3.0, 2.0, 10.0))


def test_c04_infeasible_structures_gated(capsys):
    rng = np.random.default_rng(104)
    target = np.zeros(WORLD.shape, dtype=bool)
    ok = True
    for i in range(1000):
        base = list(collision_free_structure(rng, WORLD, 10))
        if i % 2 == 0:
            base.append(base[int(rng.integers(len(base)))])  # duplicate: collision
        else:
            base.append(make_brick(2, 4, 19, int(rng.integers(18, 24)), 0))  # out of bounds
        rb = score_completion(serialize_structure(BrickStructure(tuple(base))), target, WORLD)
        if rb.n_col == 0 and rb.in_bounds:
            ok = False  # corruption failed to corrupt
            break
        if rb.r_inter != 0.0 or rb.r_conn != 0.0 or rb.feasible:
            ok = False
            break
    verdict(capsys, 4, "1000 corrupted structures all have r_inter = r_conn = 0", ok)


def _tiny_world_samples():
    tiny = WorldConfig(6, 6, 6)
    rng = np.random.default_rng(105)
    for i in range(5000):
        yield tiny, random_structure(rng, tiny, 8, in_bounds=bool(i % 2))


def test_c05_interlock_matches_brute_force(capsys):
    start = time.perf_counter()
    ok = True
    for tiny, s in _tiny_world_samples():
        if analyze(s, tiny).interlock_score != oracle_interlock(s, tiny):
            ok = False
            break
        if interlock_score(s) != oracle_interlock(s, None):
            ok = False
            break
    elapsed = time.perf_counter() - start
    verdict(capsys, 5,
            f"interlock equals brute force on 5000 samples (<=8 bricks, 6^3) in {elapsed:.1f}s (< 60s)",
            ok and elapsed < 60.0)


def test_c06_connectivity_matches_oracle(capsys):
    ok = True
    for tiny, s in _tiny_world_samples():
        a = analyze(s, tiny)
        occ, dis, conn, is_conn = oracle_connectivity(s, tiny)
        if (a.occupied_count, a.disconnected_count) != (occ, dis):
            ok = False
            break
        if a.conn_score != conn or a.is_connected != is_conn:
            ok = False
            break
    verdict(capsys, 6, "conn_score equals 1 - |D|/max(|O|,1) via independent BFS on the same 5000 samples", ok)


def test_c07_iou_matches_brute_force(capsys):
    rng = np.random.default_rng(107)
    worst = 0.0
    for i in range(1000):
        a = rng.random(WORLD.shape) < rng.uniform(0, 1)
        b = rng.random(WORLD.shape) < rng.uniform(0, 1)
        _, iou = reward_shape(a, b)
        worst = max(worst, abs(iou - oracle_iou(a, b)))
    verdict(capsys, 7,
            f"IoU matches voxel counting on 1000 grid pairs, max |diff| = {worst:.2e} (<= 1e-12)",
            worst <= 1e-12)


def test_c08_parser_round_trip_and_fuzz(capsys):
    rng = np.random.default_rng(108)
    ok = True
    for i in range(1000):
        s = random_structure(rng, WORLD, 20, in_bounds=bool(i % 2))
        for layout in ("one_per_line", "comma_inline"):
            parsed, report = parse_structure(serialize_structure(s, layout))
            if not report.parsed_ok or tuple(parsed) != tuple(s):
                ok = False
    pool = rng.integers(0, 256, size=2_000_000, dtype=np.uint8).tobytes().decode("latin-1")
    for i in range(100_000):
        at = (i * 19) % (len(pool) - 64)
        structure, report = parse_structure(pool[at:at + (i % 60)])
        if not hasattr(report, "parsed_ok") or report.parsed_ok not in (True, False):
            ok = False
            break
    verdict(capsys, 8, "1000 structures round-trip in both layouts; 100000-string fuzz always yields a report", ok)


def test_c09_brick_library_constants(capsys):
    expected = [(2, 4), (4, 2), (2, 6), (6, 2), (1, 2), (2, 1), (1, 4), (4, 1),
                (1, 6), (6, 1), (1, 8), (8, 1), (1, 1), (2, 2)]
    ok = [(d.h, d.w) for d in BRICK_LIBRARY] == expected and len(BRICK_LIBRARY) == 14
    prompt = build_prompt(np.zeros(WORLD.shape, dtype=bool))
    ok = ok and prompt.startswith("Create a LEGO model of the input 3D point cloud.")
    verdict(capsys, 9, "library is exactly the 14 oriented variants; prompt opens with the fixed sentence", ok)


def test_c10_constructor_guarantees(capsys):
    ok = True
    for i in range(500):
        grounded = i % 2 == 1
        target = random_target(seed=20_000 + i, fill_prob=0.02 + (i % 9) * 0.02,
                               grounded=grounded, world=WORLD)
        s = legalize(target, ConstructorOptions(stagger=bool(i % 3)), WORLD)
        a = analyze(s, WORLD)
        _, iou = reward_shape(rasterize(s, WORLD) > 0, target)
        if a.n_col != 0 or not a.fully_in_bounds or iou != 1.0:
            ok = False
            break
        if grounded and target.any() and a.conn_score != 1.0:
            ok = False
            break
    verdict(capsys, 10, "500 legalized targets: n_col = 0, in bounds, IoU = 1.0; grounded ones fully connected", ok)


def test_c11_codec_round_trip(capsys):
    rng = np.random.default_rng(111)
    ok = True
    for _ in range(1000):
        grid = rng.random(WORLD.shape) < rng.uniform(0, 1)
        if not np.array_equal(decode_target_voxels(encode_target_voxels(grid), WORLD), grid):
            ok = False
            break
    verdict(capsys, 11, "codec round-trips 1000 random 20^3 grids exactly", ok)


def _dense_corpus(n_structures=40, max_bricks=700):
    structures = []
    seed = 30_000
    while len(structures) < n_structures:
        target = random_target(seed=seed, fill_prob=0.5, grounded=True, world=WORLD)
        seed += 1
        s = legalize(target, ConstructorOptions(stagger=True), WORLD)
        if 0 < len(s) <= max_bricks:
            structures.append(s)
    texts = [serialize_structure(s) for s in structures]
    grids = [rasterize(s, WORLD) > 0 for s in structures]
    return structures, texts, grids


def test_c12_throughput(capsys):
    structures, texts, grids = _dense_corpus()
    assert all(len(s) <= 700 for s in structures)

    start = time.perf_counter()
    for i in range(1000):
        rb = score_completion(texts[i % 40], grids[i % 40], WORLD)
        assert not rb.parse_failed
    scoring_s = time.perf_counter() - start

    # Service load: light-but-nontrivial requests (<= 60 bricks). The
    # dense-corpus compute bound is the scoring check above. Most of the
    # service figure is still scoring (score_completion's parse, analysis
    # and IoU); JSON, the target codec, dispatch and process start-up
    # make up the rest.
    rng = np.random.default_rng(112)
    light = [collision_free_structure(rng, WORLD, 60) for _ in range(50)]
    light_texts = [serialize_structure(s) for s in light]
    encoded = [encode_target_voxels(rasterize(s, WORLD) > 0) for s in light]
    requests = "\n".join(
        json.dumps({"id": f"t{i}", "completion": light_texts[i % 50],
                    "target_voxels": encoded[i % 50]})
        for i in range(5000)
    ) + "\n"
    start = time.perf_counter()
    with serve_process("--threads", "4", stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True) as proc:
        stdout, _ = proc.communicate(requests, timeout=300)
    serve_s = time.perf_counter() - start
    rate = 5000 / serve_s
    ok = (scoring_s <= 5.0 and proc.returncode == 0
          and len(stdout.splitlines()) == 5000 and rate >= 1000.0)
    verdict(capsys, 12,
            f"1000 dense structures scored in {scoring_s:.2f}s (<= 5s); "
            f"stdio service at {rate:.0f} req/s (>= 1000)",
            ok)


def test_c13_aggregate_semantics(capsys):
    # Ten synthetic samples; every aggregate recomputed longhand below.
    # Fields: parsed, coll_free, n_col, iou, conn, is_conn, inter, seam,
    # in_bounds, bricks, seconds.
    rows = [
        (True,  True,  0, 1.0,    1.0,   True,  1.0,   1.0,   True,  10, 0.25),
        (True,  True,  0, 0.75,   0.875, False, 0.5,   0.75,  True,  20, 0.50),
        (True,  False, 2, 0.625,  1.0,   True,  0.25,  0.5,   True,  30, 0.75),
        (True,  False, 7, 0.375,  0.5,   False, 0.0,   0.25,  False, 40, 1.00),
        (True,  True,  0, 0.25,   0.0,   False, 1.0,   1.0,   False, 50, 1.25),
        (True,  True,  0, 0.0,    1.0,   True,  0.75,  0.0,   True,  60, 1.50),
        (False, False, 0, 0.0,    0.0,   False, 0.0,   0.0,   False, 0,  1.75),
        (False, False, 0, 0.0,    0.0,   False, 0.0,   0.0,   False, 0,  2.00),
        (True,  True,  0, 0.5,    0.25,  False, 0.125, 0.375, True,  70, 2.25),
        (True,  False, 1, 0.3125, 0.75,  True,  0.0,   0.625, False, 80, 2.50),
    ]
    rep = aggregate([SampleMetrics(*r) for r in rows])
    ok = (
        rep.n_total == 10
        and rep.parse_rate == 8 / 10
        and rep.coll_free_rate == 5 / 10
        and rep.mean_coll_voxels == (0 + 0 + 2 + 7 + 0 + 0 + 0 + 1) / 8
        and rep.mean_voxel_iou == (1.0 + 0.75 + 0.625 + 0.375 + 0.25 + 0.0 + 0.5 + 0.3125) / 8
        and rep.conn_ratio == (1.0 + 0.875 + 1.0 + 0.5 + 0.0 + 1.0 + 0.25 + 0.75) / 8
        and rep.connected_rate == 4 / 8
        and rep.interlock_score == (1.0 + 0.5 + 0.25 + 0.0 + 1.0 + 0.75 + 0.125 + 0.0) / 8
        and rep.seam_cov == (1.0 + 0.75 + 0.5 + 0.25 + 1.0 + 0.0 + 0.375 + 0.625) / 8
        and rep.in_bounds_rate == 5 / 8
        and rep.mean_bricks == (10 + 20 + 30 + 40 + 50 + 60 + 70 + 80) / 8
        and rep.avg_time_s == (0.25 + 0.50 + 0.75 + 1.00 + 1.25 + 1.50
                               + 1.75 + 2.00 + 2.25 + 2.50) / 10
    )
    verdict(capsys, 13, "10-sample corpus aggregates match the longhand recomputation exactly", ok)
