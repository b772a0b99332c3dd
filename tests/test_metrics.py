"""Per-sample metrics, corpus aggregation, and report emission."""

import json

import numpy as np
import pytest

from brickeval import (
    DimensionMismatch,
    EmptyInput,
    SampleMetrics,
    aggregate,
    emit_report,
    rasterize,
    sample_metrics,
    serialize_structure,
)

from helpers import random_structure


def metrics_for(structure, world, wall_time_s=0.0):
    target = rasterize(structure, world).occupied
    return sample_metrics(serialize_structure(structure), target, world, wall_time_s)


# ------------------------------------------------------------- sample_metrics


def test_perfect_fixture_sample(world, perfect_fixture):
    m = metrics_for(perfect_fixture, world)
    assert m.parsed and m.collision_free and m.in_bounds
    assert m.n_col == 0
    assert m.voxel_iou == 1.0
    assert m.conn_ratio == 1.0 and m.is_connected
    assert m.interlock == 1.0
    assert m.seam_cov == 1.0
    assert m.brick_count == 3


def test_unparsed_sample_zeroed(world):
    target = np.zeros(world.shape, dtype=bool)
    m = sample_metrics("", target, world, 0.25)
    assert not m.parsed
    assert not m.collision_free and not m.in_bounds and not m.is_connected
    assert m.n_col == 0 and m.brick_count == 0
    assert m.voxel_iou == m.conn_ratio == m.interlock == m.seam_cov == 0.0
    assert m.wall_time_s == 0.25


def test_wrong_target_shape_raises_parsed_or_not(world):
    # Whether the completion parses must not decide if a bad target is caught.
    target = np.zeros((6, 6, 6), dtype=bool)
    for completion in ("", "nonsense", "1x1 (0,0,0)"):
        with pytest.raises(DimensionMismatch):
            sample_metrics(completion, target, world)


def test_floating_brick_sample(world):
    target = np.zeros(world.shape, dtype=bool)
    target[0, 0, 5] = True
    m = sample_metrics("1x1 (0,0,5)", target, world, 0.0)
    assert m.parsed and m.collision_free
    assert m.voxel_iou == 1.0
    assert m.conn_ratio == 0.0 and not m.is_connected


def test_collision_free_flag_tracks_n_col(world):
    rng = np.random.default_rng(41)
    target = np.zeros(world.shape, dtype=bool)
    for _ in range(40):
        s = random_structure(rng, world, 10, in_bounds=False)
        m = sample_metrics(serialize_structure(s), target, world, 0.0)
        assert m.collision_free == (m.n_col == 0)


# ------------------------------------------------------------------ aggregate


def test_aggregate_requires_samples():
    with pytest.raises(EmptyInput):
        aggregate([])


def test_mixed_denominators(world, perfect_fixture):
    target = np.zeros(world.shape, dtype=bool)
    samples = [metrics_for(perfect_fixture, world, 0.5), sample_metrics("", target, world, 1.5)]
    rep = aggregate(samples)
    assert rep.n_total == 2
    assert rep.parse_rate == 0.5
    assert rep.coll_free_rate == 0.5  # over all samples, not just parsed
    assert rep.mean_bricks == 3.0  # over the single parsed sample
    assert rep.in_bounds_rate == 1.0  # over parsed
    assert rep.mean_voxel_iou == 1.0
    assert rep.avg_time_s == 1.0  # over all


def test_all_perfect(world, perfect_fixture):
    rep = aggregate([metrics_for(perfect_fixture, world) for _ in range(5)])
    assert rep.parse_rate == 1.0
    assert rep.coll_free_rate == 1.0
    assert rep.mean_voxel_iou == 1.0
    assert rep.conn_ratio == 1.0
    assert rep.connected_rate == 1.0
    assert rep.interlock_score == 1.0
    assert rep.seam_cov == 1.0
    assert rep.in_bounds_rate == 1.0
    assert rep.mean_bricks == 3.0
    assert rep.mean_coll_voxels == 0.0


def test_nothing_parsed_reports_absent(world):
    target = np.zeros(world.shape, dtype=bool)
    rep = aggregate([sample_metrics("junk", target, world, 0.0) for _ in range(3)])
    assert rep.parse_rate == 0.0 and rep.coll_free_rate == 0.0
    for field in (
        rep.mean_coll_voxels,
        rep.mean_voxel_iou,
        rep.conn_ratio,
        rep.connected_rate,
        rep.interlock_score,
        rep.seam_cov,
        rep.in_bounds_rate,
        rep.mean_bricks,
    ):
        assert field is None
    assert rep.avg_time_s == 0.0


def test_hand_computed_aggregate():
    # Three synthetic samples; every mean recomputed by hand below.
    a = SampleMetrics(True, True, 0, 0.5, 1.0, True, 0.25, 1.0, True, 4, 0.1)
    b = SampleMetrics(True, False, 3, 0.25, 0.5, False, 0.0, 0.5, False, 10, 0.3)
    c = SampleMetrics(False, False, 0, 0.0, 0.0, False, 0.0, 0.0, False, 0, 0.2)
    rep = aggregate([a, b, c])
    assert rep.n_total == 3
    assert rep.parse_rate == 2 / 3
    assert rep.coll_free_rate == 1 / 3          # only a, over N=3
    assert rep.mean_coll_voxels == 1.5          # (0+3)/2 parsed
    assert rep.mean_voxel_iou == 0.375          # (0.5+0.25)/2
    assert rep.conn_ratio == 0.75               # (1.0+0.5)/2
    assert rep.connected_rate == 0.5            # a only
    assert rep.interlock_score == 0.125         # (0.25+0)/2
    assert rep.seam_cov == 0.75                 # (1.0+0.5)/2
    assert rep.in_bounds_rate == 0.5            # a of {a,b}
    assert rep.mean_bricks == 7.0               # (4+10)/2
    assert rep.avg_time_s == pytest.approx((0.1 + 0.3 + 0.2) / 3)


def test_aggregate_order_invariant(world):
    rng = np.random.default_rng(42)
    target = np.zeros(world.shape, dtype=bool)
    samples = [
        sample_metrics(serialize_structure(random_structure(rng, world, 8, in_bounds=False)), target, world, float(i))
        for i in range(12)
    ]
    samples += [sample_metrics("", target, world, 0.0)]
    base = aggregate(samples)
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(samples))
        assert aggregate([samples[int(i)] for i in order]) == base


def test_aggregate_replication_stable(world, perfect_fixture):
    target = np.zeros(world.shape, dtype=bool)
    samples = [metrics_for(perfect_fixture, world, 0.5), sample_metrics("", target, world, 1.0)]
    base = aggregate(samples)
    for k in (2, 3, 7):
        rep = aggregate(samples * k)
        assert rep.n_total == base.n_total * k
        for name, value in base.__dict__.items():
            if name != "n_total":
                assert getattr(rep, name) == pytest.approx(value)


# ---------------------------------------------------------------- emit_report


def test_structured_records_round_trip(world, perfect_fixture):
    samples = [metrics_for(perfect_fixture, world, 0.5)]
    rep = aggregate(samples)
    payload = emit_report(rep, samples, "structured_records")
    lines = payload.decode("utf-8").splitlines()
    assert len(lines) == 2
    first, last = json.loads(lines[0]), json.loads(lines[1])
    assert first["record"] == "sample" and first["brick_count"] == 3
    assert last["record"] == "aggregate" and last["mean_bricks"] == 3.0


def test_tabular_column_order(world, perfect_fixture):
    samples = [metrics_for(perfect_fixture, world)]
    text = emit_report(aggregate(samples), samples, "tabular_text").decode("utf-8")
    header = text.splitlines()[0]
    cols = [
        "Coll.-Free Rate",
        "Voxel IoU",
        "Conn. Ratio",
        "Interlock. Score",
        "Seam Cov.",
        "Mean Bricks",
        "Avg. Time",
    ]
    positions = [header.index(c) for c in cols]
    assert positions == sorted(positions)


def test_tabular_absent_fields_dashed(world):
    target = np.zeros(world.shape, dtype=bool)
    samples = [sample_metrics("", target, world, 0.0)]
    text = emit_report(aggregate(samples), samples, "tabular_text").decode("utf-8")
    row = text.splitlines()[1]
    assert "-" in row.split()


def test_emit_deterministic(world, perfect_fixture):
    samples = [metrics_for(perfect_fixture, world, 0.25)]
    rep = aggregate(samples)
    for fmt in ("structured_records", "tabular_text"):
        assert emit_report(rep, samples, fmt) == emit_report(rep, samples, fmt)


def test_emit_unknown_format(world, perfect_fixture):
    samples = [metrics_for(perfect_fixture, world)]
    with pytest.raises(ValueError):
        emit_report(aggregate(samples), samples, "yaml")
