"""CLI subcommands: exit codes, I/O conventions, and global flags."""

import json

import numpy as np
import pytest

from brickeval import (
    WorldConfig,
    decode_target_voxels,
    encode_target_voxels,
    parse_structure,
    rasterize,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval.cli import cli_dispatch


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- parse


def test_parse_valid(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("1x2 (0,0,0)\n2x2 (5,5,0)\n")
    code, out, _ = run(capsys, "parse", "--completion", str(f))
    assert code == 0
    rec = json.loads(out)
    assert rec["parsed_ok"] is True
    assert rec["bricks"] == ["1x2 (0,0,0)", "2x2 (5,5,0)"]
    assert rec["malformed_lines"] == []


def test_parse_malformed_lines_reported(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("1x2 (0,0,0)\nwhat\n")
    code, out, _ = run(capsys, "parse", "--completion", str(f))
    assert code == 0  # parsing happened; the report carries the verdict
    rec = json.loads(out)
    assert rec["parsed_ok"] is False
    (entry,) = rec["malformed_lines"]
    assert entry[0] == 2 and entry[1] == "what"


def test_parse_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "parse", "--completion", str(tmp_path / "nope.txt"))
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------- score


def score_files(tmp_path, perfect_fixture, target_kind="voxels"):
    world = WorldConfig()
    target = rasterize(perfect_fixture, world).occupied
    tfile = tmp_path / "target.txt"
    if target_kind == "voxels":
        tfile.write_text(encode_target_voxels(target))
    else:
        tfile.write_text(serialize_pointcloud(target))
    cfile = tmp_path / "completion.txt"
    cfile.write_text(serialize_structure(perfect_fixture))
    return tfile, cfile


def test_score_with_voxel_target(tmp_path, capsys, perfect_fixture):
    tfile, cfile = score_files(tmp_path, perfect_fixture)
    code, out, _ = run(capsys, "score", "--target", str(tfile), "--completion", str(cfile))
    assert code == 0
    rec = json.loads(out)
    assert rec["total"] == 10.0 and rec["feasible"] is True


def test_score_with_point_target(tmp_path, capsys, perfect_fixture):
    # The target file format is auto-detected.
    tfile, cfile = score_files(tmp_path, perfect_fixture, target_kind="points")
    code, out, _ = run(capsys, "score", "--target", str(tfile), "--completion", str(cfile))
    assert code == 0
    assert json.loads(out)["total"] == 10.0


def test_score_undecodable_target(tmp_path, capsys):
    tfile = tmp_path / "bad.txt"
    tfile.write_text("neither codec nor points")
    cfile = tmp_path / "c.txt"
    cfile.write_text("1x1 (0,0,0)")
    code, _, err = run(capsys, "score", "--target", str(tfile), "--completion", str(cfile))
    assert code == 2 and "error:" in err


# ----------------------------------------------------------------------- eval


def pairs_file(tmp_path, perfect_fixture, extra_lines=()):
    world = WorldConfig()
    target = encode_target_voxels(rasterize(perfect_fixture, world).occupied)
    rows = [json.dumps({
        "completion": serialize_structure(perfect_fixture),
        "target_voxels": target,
        "wall_time_s": 0.5,
    })]
    rows.extend(extra_lines)
    f = tmp_path / "pairs.jsonl"
    f.write_text("\n".join(rows) + "\n")
    return f


def test_eval_records(tmp_path, capsys, perfect_fixture):
    f = pairs_file(tmp_path, perfect_fixture)
    code, out, _ = run(capsys, "eval", "--pairs", str(f))
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0])["record"] == "sample"
    agg = json.loads(lines[-1])
    assert agg["record"] == "aggregate"
    assert agg["mean_voxel_iou"] == 1.0 and agg["n_total"] == 1


def test_eval_tabular_to_file(tmp_path, capsys, perfect_fixture):
    f = pairs_file(tmp_path, perfect_fixture)
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "eval", "--pairs", str(f), "--format", "tabular",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert "Coll.-Free Rate" in text and "Mean Bricks" in text


def test_eval_point_targets(tmp_path, capsys):
    row = json.dumps({"completion": "1x1 (0,0,0)", "target_points": "(0,0,0)"})
    f = tmp_path / "pairs.jsonl"
    f.write_text(row + "\n")
    code, out, _ = run(capsys, "eval", "--pairs", str(f))
    assert code == 0
    assert json.loads(out.splitlines()[-1])["mean_voxel_iou"] == 1.0


def test_eval_check_pass_and_fail(tmp_path, capsys, perfect_fixture):
    f = pairs_file(tmp_path, perfect_fixture)
    code, _, _ = run(capsys, "eval", "--pairs", str(f), "--check", "mean_voxel_iou >= 1.0")
    assert code == 0
    code, _, err = run(capsys, "eval", "--pairs", str(f), "--check", "mean_bricks > 5")
    assert code == 3 and "check failed" in err


def test_eval_check_on_absent_field_fails(tmp_path, capsys):
    f = tmp_path / "pairs.jsonl"
    f.write_text(json.dumps({"completion": "junk", "target_points": "(0,0,0)"}) + "\n")
    code, _, err = run(capsys, "eval", "--pairs", str(f), "--check", "mean_bricks >= 0")
    assert code == 3 and "check failed" in err


def test_eval_bad_check_syntax(tmp_path, capsys, perfect_fixture):
    f = pairs_file(tmp_path, perfect_fixture)
    code, _, _ = run(capsys, "eval", "--pairs", str(f), "--check", "mean_bricks !!! 3")
    assert code == 1
    code, _, _ = run(capsys, "eval", "--pairs", str(f), "--check", "no_such_field > 0")
    assert code == 1


def test_eval_bad_pair_record(tmp_path, capsys, perfect_fixture):
    f = pairs_file(tmp_path, perfect_fixture, extra_lines=["{\"completion\": 5}"])
    code, _, err = run(capsys, "eval", "--pairs", str(f))
    assert code == 2 and "bad pair record" in err


def assert_data_error(code, err):
    # Exit 2 with one "error:" line, not a traceback.
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("field, value", [
    ("completion", 5),
    ("completion", ["1x1 (0,0,0)"]),
    ("target_voxels", 5),
    ("target_points", 5),
    ("target_points", ["(0,0,0)"]),
])
def test_eval_pair_fields_must_be_strings(tmp_path, capsys, field, value):
    row = {"completion": "1x1 (0,0,0)", field: value}
    if not field.startswith("target"):
        row["target_points"] = "(0,0,0)"
    f = tmp_path / "pairs.jsonl"
    f.write_text(json.dumps(row) + "\n")
    code, _, err = run(capsys, "eval", "--pairs", str(f))
    assert_data_error(code, err)
    assert "bad pair record" in err


@pytest.mark.parametrize("wall", ['"nan"', '"inf"', "-1", "1e400"])
def test_eval_rejects_non_finite_or_negative_wall_time(tmp_path, capsys, wall):
    # NaN would reach the records as "avg_time_s": NaN, which is not JSON.
    f = tmp_path / "pairs.jsonl"
    f.write_text('{"completion": "2x4 (0,0,0)", "target_points": "(0,0,0)", '
                 f'"wall_time_s": {wall}}}\n')
    code, out, err = run(capsys, "eval", "--pairs", str(f), "--format", "records")
    assert_data_error(code, err)
    assert "bad pair record" in err and out == ""


def test_eval_rejects_pair_with_both_targets(tmp_path, capsys):
    # The service answers bad_request for this record; eval must not score it.
    row = {"completion": "2x4 (0,0,0)", "target_points": "(0,0,0)",
           "target_voxels": encode_target_voxels(np.zeros(WorldConfig().shape, dtype=bool))}
    f = tmp_path / "pairs.jsonl"
    f.write_text(json.dumps(row) + "\n")
    code, out, err = run(capsys, "eval", "--pairs", str(f))
    assert_data_error(code, err)
    assert "bad pair record" in err and out == ""


NOT_UTF8 = b"1x1 (0,0,0)\n\xff\xfe\n"


@pytest.mark.parametrize("command", ["parse", "score-target", "score-completion", "eval", "construct", "convert"])
def test_non_utf8_input_is_data_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    good = tmp_path / "good.txt"
    good.write_text("(0,0,0)")
    argv = {
        "parse": ["parse", "--completion", str(bad)],
        "score-target": ["score", "--target", str(bad), "--completion", str(good)],
        "score-completion": ["score", "--target", str(good), "--completion", str(bad)],
        "eval": ["eval", "--pairs", str(bad)],
        "construct": ["construct", "--grid", str(bad)],
        "convert": ["convert", "--input", str(bad), "--output", str(tmp_path / "out.jsonl")],
    }[command]
    code, _, err = run(capsys, *argv)
    assert_data_error(code, err)
    assert "UTF-8" in err


def test_eval_empty_pairs(tmp_path, capsys):
    f = tmp_path / "pairs.jsonl"
    f.write_text("\n")
    code, _, err = run(capsys, "eval", "--pairs", str(f))
    assert code == 2 and "no pairs" in err


# -------------------------------------------------------------------- convert


def test_convert_counts(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"bricks": "1x1 (0,0,0)"}) + "\n")
    dst = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "convert", "--input", str(src), "--output", str(dst))
    assert code == 0 and out.strip() == "1"
    assert json.loads(dst.read_text())["assistant"] == "1x1 (0,0,0)"


# ------------------------------------------------------------------ construct


def test_construct_round_trip(tmp_path, capsys):
    world = WorldConfig()
    grid = np.zeros(world.shape, dtype=bool)
    grid[0:2, 0:8, 0] = True
    gfile = tmp_path / "grid.txt"
    gfile.write_text(encode_target_voxels(grid))
    code, out, _ = run(capsys, "construct", "--grid", str(gfile))
    assert code == 0
    structure, report = parse_structure(out)
    assert report.parsed_ok
    assert np.array_equal(rasterize(structure, world).occupied, grid)


def test_construct_empty_grid(tmp_path, capsys):
    world = WorldConfig()
    gfile = tmp_path / "grid.txt"
    gfile.write_text(encode_target_voxels(np.zeros(world.shape, dtype=bool)))
    code, out, _ = run(capsys, "construct", "--grid", str(gfile))
    assert code == 0 and out == ""


# --------------------------------------------------------------- gen-fixtures


def test_gen_fixtures_then_eval(tmp_path, capsys):
    out_path = tmp_path / "pairs.jsonl"
    code, _, _ = run(capsys, "gen-fixtures", "--count", "4", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4
    world = WorldConfig()
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"completion", "target_voxels"}
        decode_target_voxels(rec["target_voxels"], world)
    code, out, _ = run(capsys, "eval", "--pairs", str(out_path),
                       "--check", "coll_free_rate >= 1.0",
                       "--check", "mean_voxel_iou >= 1.0")
    assert code == 0


def test_gen_fixtures_seed_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "gen-fixtures", "--count", "2", "--seed", "9", "--out", str(a))[0] == 0
    assert run(capsys, "--seed", "9", "gen-fixtures", "--count", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------- global flags


def test_world_flag_both_positions(tmp_path, capsys):
    grid = np.zeros((6, 6, 6), dtype=bool)
    grid[0, 0, 0] = True
    gfile = tmp_path / "grid.txt"
    gfile.write_text(encode_target_voxels(grid))
    before = run(capsys, "--world", "6,6,6", "construct", "--grid", str(gfile))
    after = run(capsys, "construct", "--world", "6,6,6", "--grid", str(gfile))
    assert before[0] == after[0] == 0
    assert before[1] == after[1] == "1x1 (0,0,0)\n"


def test_bad_world_flag(capsys):
    code, _, err = run(capsys, "--world", "20,20", "parse", "--completion", "-")
    assert code == 1 and "error:" in err


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_missing_required_flag(capsys):
    assert run(capsys, "score", "--target", "x")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
