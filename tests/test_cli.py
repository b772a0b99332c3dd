"""CLI subcommands: exit codes, I/O conventions, and global flags."""

import io
import json
import os
import socket
import subprocess
import sys
import threading
from dataclasses import asdict
from functools import cache

import numpy as np
import pytest

from brickeval import (
    DEFAULT_WORLD,
    BrickStructure,
    ConstructorOptions,
    WorldConfig,
    aggregate,
    decode_target_voxels,
    encode_target_voxels,
    legalize,
    make_brick,
    parse_structure,
    random_target,
    rasterize,
    sample_metrics,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval import cli
from brickeval.cli import cli_dispatch
from brickeval.metrics import sample_metrics_batch
from brickeval.service import max_line_bytes


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, data: bytes):
    # What Python gives on POSIX in the POSIX locale: lines split at "\n" only,
    # and undecodable bytes become surrogates.
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
                             newline="\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    return stdin


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


def test_parse_prints_exact_tokens_past_int64(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text(f"1x2 ({2**63},0,0)\n2x2 (5,{10**30},{2**64 + 1})\n")
    code, out, _ = run(capsys, "parse", "--completion", str(f))
    assert code == 0
    rec = json.loads(out)
    assert rec["parsed_ok"] is True
    assert rec["bricks"] == [f"1x2 ({2**63},0,0)", f"2x2 (5,{10**30},{2**64 + 1})"]


def test_long_bad_brick_token_is_reported_once(tmp_path, capsys):
    # The report gives a malformed token whole once, as its text; its reason
    # quotes the start and the length, so the report stays near the input's size.
    f = tmp_path / "c.txt"
    f.write_text("x" * 1_000_000)
    code, out, _ = run(capsys, "parse", "--completion", str(f))
    assert code == 0
    assert len(out.encode()) < 1.01 * 1_000_000
    (entry,) = json.loads(out)["malformed_lines"]
    assert entry[1] == "x" * 1_000_000 and "(1000000 characters)" in entry[2]


def test_parse_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "parse", "--completion", str(tmp_path / "nope.txt"))
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------- score


def score_files(tmp_path, perfect_fixture, target_kind="voxels"):
    world = WorldConfig()
    target = rasterize(perfect_fixture, world) > 0
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


@pytest.mark.parametrize("command", ["score", "construct"])
def test_target_for_another_world_names_the_codec_error(tmp_path, capsys, command):
    # A grid encoded for 10^3 read at the default 20^3 world fails as a
    # grid and as a point list; the message names both causes.
    tfile = tmp_path / "t.txt"
    tfile.write_text(encode_target_voxels(np.zeros((10, 10, 10), dtype=bool)))
    cfile = tmp_path / "c.txt"
    cfile.write_text("1x1 (0,0,0)")
    argv = (["score", "--target", str(tfile), "--completion", str(cfile)] if command == "score"
            else ["construct", "--grid", str(tfile)])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "neither an encoded grid (expected 8000 voxel bytes, got 1000) nor a point list (" in err


@pytest.mark.parametrize("command", ["score", "construct", "eval"])
def test_long_bad_point_list_is_quoted_short(tmp_path, capsys, command):
    # A target of a million "x" is no point list: the error line quotes
    # its start and gives its length, and does not echo it whole.
    text = "x" * 1_000_000
    tfile = tmp_path / "t.txt"
    cfile = tmp_path / "c.txt"
    cfile.write_text("1x1 (0,0,0)")
    if command == "eval":
        tfile.write_text(json.dumps({"completion": "1x1 (0,0,0)", "target_points": text}) + "\n")
        argv = ["eval", "--pairs", str(tfile)]
    else:
        tfile.write_text(text)
        argv = (["score", "--target", str(tfile), "--completion", str(cfile)] if command == "score"
                else ["construct", "--grid", str(tfile)])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n") and len(err.encode()) < 1024
    assert "not a point list: 'xxxx" in err and "(1000000 characters)" in err


# ----------------------------------------------------------------------- eval


def pairs_file(tmp_path, perfect_fixture, extra_lines=()):
    world = WorldConfig()
    target = encode_target_voxels(rasterize(perfect_fixture, world) > 0)
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
    # A bad constraint is a usage error found before any file is read or written.
    f = pairs_file(tmp_path, perfect_fixture)
    out_path = tmp_path / "r.jsonl"
    code, _, err = run(capsys, "eval", "--pairs", str(f), "--out", str(out_path),
                       "--check", "mean_bricks !!! 3")
    assert code == 1 and err.startswith("error:") and "mean_bricks !!! 3" in err
    assert not out_path.exists()
    code, _, _ = run(capsys, "eval", "--pairs", str(f), "--check", "no_such_field > 0")
    assert code == 1
    code, _, err = run(capsys, "eval", "--pairs", str(f), "--check", "mean_bricks > 100000",
                       "--check", "bogus > 1")
    assert code == 1 and "bogus" in err and "check failed" not in err
    code, _, err = run(capsys, "eval", "--pairs", str(tmp_path / "missing.jsonl"),
                       "--check", "bogus > 1")
    assert code == 1 and "bogus" in err


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"], ids=["U+2028", "U+2029", "U+0085"])
def test_eval_frames_pairs_at_newline_only(tmp_path, capsys, perfect_fixture, sep):
    # JSON allows these raw inside a string, so they must not end a record.
    row = json.dumps({"completion": serialize_structure(perfect_fixture) + sep,
                      "target_points": "(0,0,0)"}, ensure_ascii=False)
    assert sep in row
    f = tmp_path / "pairs.jsonl"
    f.write_text(row + "\r\n" + row + "\n", encoding="utf-8", newline="")
    code, out, err = run(capsys, "eval", "--pairs", str(f))
    assert code == 0, err
    assert json.loads(out.splitlines()[-1])["n_total"] == 2


def test_eval_bad_pair_record(tmp_path, capsys, perfect_fixture):
    deep = '{"completion": ' + "[" * 5000 + "]" * 5000 + ', "target_points": "(0,0,0)"}'
    for bad in ('{"completion": 5}', deep):
        f = pairs_file(tmp_path, perfect_fixture, extra_lines=[bad])
        code, _, err = run(capsys, "eval", "--pairs", str(f))
        assert_data_error(code, err)
        assert "bad pair record" in err


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


@pytest.mark.parametrize("wall", ['"nan"', '"inf"', "-1", "1e400", '"1.5"', "true",
                                  pytest.param("1" + "0" * 400, id="int-past-float")])
def test_eval_rejects_non_finite_or_negative_wall_time(tmp_path, capsys, wall):
    # NaN would reach the records as "avg_time_s": NaN, which is not JSON.
    # Only a JSON number is a number: not a string, not a boolean, and not
    # an integer too large for a float.
    f = tmp_path / "pairs.jsonl"
    f.write_text('{"completion": "2x4 (0,0,0)", "target_points": "(0,0,0)", '
                 f'"wall_time_s": {wall}}}\n')
    code, out, err = run(capsys, "eval", "--pairs", str(f), "--format", "records")
    assert_data_error(code, err)
    assert "bad pair record" in err and out == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_eval_mean_wall_time_stays_finite(tmp_path, capsys):
    # Two finite wall times whose sum overflows: their mean is finite, and
    # the records stay JSON.
    row = json.dumps({"completion": "1x1 (0,0,0)", "target_points": "(0,0,0)", "wall_time_s": 1e308})
    f = tmp_path / "pairs.jsonl"
    f.write_text(row + "\n" + row + "\n")
    code, out, _ = run(capsys, "eval", "--pairs", str(f), "--format", "records")
    assert code == 0
    assert json.loads(out.splitlines()[-1], parse_constant=_reject_constant)["avg_time_s"] == 1e308
    code, _, err = run(capsys, "eval", "--pairs", str(f), "--check", "avg_time_s < 10")
    assert code == 3 and "avg_time_s=1e+308" in err


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


@pytest.mark.parametrize("command", ["parse", "score-completion", "eval", "construct"])
def test_non_utf8_stdin_is_data_error(tmp_path, monkeypatch, capsys, command):
    # The same bytes are the same error whether given by path or on stdin.
    good = tmp_path / "good.txt"
    good.write_text("(0,0,0)")
    argv = {
        "parse": ["parse", "--completion", "-"],
        "score-completion": ["score", "--target", str(good), "--completion", "-"],
        "eval": ["eval", "--pairs", "-"],
        "construct": ["construct", "--grid", "-"],
    }[command]
    feed_stdin(monkeypatch, NOT_UTF8)
    code, _, err = run(capsys, *argv)
    assert_data_error(code, err)
    assert "UTF-8" in err


@pytest.mark.parametrize("source", ["path", "stdin"])
def test_eval_cr_framed_pairs_are_one_bad_record(tmp_path, monkeypatch, capsys, source):
    # Pairs are framed at "\n" only, so two records joined by a bare "\r" are one bad line.
    row = json.dumps({"completion": "1x1 (0,0,0)", "target_points": "(0,0,0)"})
    data = (row + "\r" + row + "\r").encode("utf-8")
    f = tmp_path / "pairs.jsonl"
    f.write_bytes(data)
    feed_stdin(monkeypatch, data)
    code, out, err = run(capsys, "eval", "--pairs", str(f) if source == "path" else "-")
    assert_data_error(code, err)
    assert "bad pair record" in err and out == ""


def test_eval_empty_pairs(tmp_path, capsys):
    f = tmp_path / "pairs.jsonl"
    f.write_text("\n")
    code, _, err = run(capsys, "eval", "--pairs", str(f))
    assert code == 2 and "no pairs" in err


# The kinds of perfbench's eval mix, plus dense builds (over 1/16 of the
# world's voxels in brick area), anchors past int64, and builds padded with
# 400 KB of trailing blanks, of which three pass a chunk's byte bound.
EVAL_KINDS = ("valid", "points_target", "colliding", "malformed", "empty", "out_of_bounds", "dense", "huge",
              "padded")


@cache
def eval_corpus(world: WorldConfig) -> tuple[tuple[str, np.ndarray, float], ...]:
    """65 pairs as (JSON line, target grid, wall time), every kind in every run of 9."""
    rng = np.random.default_rng([3, world.n_voxels])
    pairs = []
    for i in range(65):
        kind = EVAL_KINDS[i % len(EVAL_KINDS)]
        fill = 0.5 if kind == "dense" else 0.02
        target = random_target(int(rng.integers(1 << 31)), fill_prob=fill, grounded=True, world=world)
        bricks = legalize(target, ConstructorOptions(stagger=bool(i % 3)), world).bricks
        if kind == "colliding":
            bricks += bricks[-1:]
        elif kind == "out_of_bounds":
            bricks += (make_brick(8, 1, world.dim_x - 3, i % world.dim_y, world.dim_z - 1),)
        elif kind == "huge":
            bricks += (make_brick(1, 2, 2**64 + i, 0, 0),)
        text = serialize_structure(BrickStructure(bricks))
        if kind == "malformed":
            text = "3x3 (1,1,0)\n" + text
        elif kind == "empty":
            text = ""
        elif kind == "padded":
            text += " " * 400_000
        wall = float(rng.uniform(0.0, 3.0))
        pair = {"completion": text, "wall_time_s": wall}
        if kind == "points_target":
            pair["target_points"] = serialize_pointcloud(target)
        else:
            pair["target_voxels"] = encode_target_voxels(target)
        pairs.append((json.dumps(pair), target, wall))
    return tuple(pairs)


@pytest.mark.parametrize("world", [WorldConfig(20, 20, 20), WorldConfig(7, 70, 3)], ids=str)
@pytest.mark.parametrize("size", [1, 2, 31, 32, 33, 65])
def test_eval_records_equal_one_pair_metrics(tmp_path, capsys, monkeypatch, world, size):
    # eval scores its pairs in chunks by the service's rule; the records must
    # be those of one sample_metrics call per pair, byte for byte.
    pairs = eval_corpus(world)[:size]
    batches = []

    def record(completions, *args):
        batches.append(len(completions))
        return sample_metrics_batch(completions, *args)

    monkeypatch.setattr(cli, "sample_metrics_batch", record)
    samples = [sample_metrics(json.loads(line)["completion"], target, world, wall) for line, target, wall in pairs]
    want = [json.dumps({"record": "sample", **asdict(m)}) for m in samples]
    want.append(json.dumps({"record": "aggregate", **asdict(aggregate(samples))}))
    f = tmp_path / "pairs.jsonl"
    f.write_text("".join(line + "\n" for line, _, _ in pairs))
    out = tmp_path / "records.jsonl"
    code, _, err = run(capsys, "--world", ",".join(map(str, world.shape)), "eval", "--pairs", str(f),
                       "--out", str(out))
    assert code == 0, err
    assert out.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")
    # A batch holds at most 32 pairs and max_line_bytes of pair text, or one pair.
    assert sum(batches) == size
    ends = np.cumsum(batches)
    for count, end in zip(batches, ends):
        text = sum(len(line) for line, _, _ in pairs[end - count:end])
        assert count == 1 or count <= 32 and text <= max_line_bytes(world), (batches, text)


def test_eval_bad_pair_in_second_chunk_writes_nothing(tmp_path, capsys):
    lines = [line for line, _, _ in eval_corpus(WorldConfig(20, 20, 20))]
    lines[39] = '{"completion": 5}'
    f = tmp_path / "pairs.jsonl"
    f.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "records.jsonl"
    code, stdout, err = run(capsys, "eval", "--pairs", str(f), "--out", str(out))
    assert_data_error(code, err)
    assert f"{f}:40: bad pair record" in err and stdout == ""
    assert not out.exists()


# -------------------------------------------------------------------- convert


def test_convert_counts(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"bricks": "1x1 (0,0,0)"}) + "\n")
    dst = tmp_path / "out.jsonl"
    code, out, _ = run(capsys, "convert", "--input", str(src), "--output", str(dst))
    assert code == 0 and out.strip() == "1"
    assert json.loads(dst.read_text())["assistant"] == "1x1 (0,0,0)"


@pytest.mark.parametrize("bad_line", [1, 5001])
def test_convert_data_error_keeps_existing_output(tmp_path, capsys, bad_line):
    # A corpus that fails part way leaves --output as it was, not truncated
    # to the records before the bad line, and leaves no temporary file.
    lines = [json.dumps({"bricks": f"1x1 ({i % 20},0,0)"}).encode() for i in range(5010)]
    lines[bad_line - 1] = b'{"bricks": "\xff"}'
    src = tmp_path / "in.jsonl"
    src.write_bytes(b"\n".join(lines) + b"\n")
    dst = tmp_path / "out.jsonl"
    dst.write_bytes(b"earlier records\n")
    code, out, err = run(capsys, "convert", "--input", str(src), "--output", str(dst))
    assert_data_error(code, err)
    assert "UTF-8" in err and out == ""
    assert dst.read_bytes() == b"earlier records\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "out.jsonl"]


def test_convert_replaces_existing_output(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"bricks": "1x1 (0,0,0)"}) + "\n")
    dst = tmp_path / "out.jsonl"
    dst.write_text("a much longer earlier file\n" * 100)
    code, out, _ = run(capsys, "convert", "--input", str(src), "--output", str(dst))
    assert code == 0 and out.strip() == "1"
    assert [json.loads(line)["assistant"] for line in dst.read_text().splitlines()] == ["1x1 (0,0,0)"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "out.jsonl"]


def test_convert_writes_through_symlink_and_into_pipe(tmp_path, capsys):
    # A symlinked output keeps its link and its target gets the records; a
    # pipe cannot be replaced, so it is written in place.
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"bricks": "1x1 (0,0,0)"}) + "\n")
    target, link = tmp_path / "records.jsonl", tmp_path / "link.jsonl"
    target.write_text("old\n")
    link.symlink_to(target)
    code, _, _ = run(capsys, "convert", "--input", str(src), "--output", str(link))
    assert code == 0 and link.is_symlink() and json.loads(target.read_text())["assistant"] == "1x1 (0,0,0)"
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    code, _, _ = run(capsys, "convert", "--input", str(src), "--output", str(pipe))
    reader.join(timeout=30)
    assert code == 0 and received == [target.read_text()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "link.jsonl", "pipe", "records.jsonl"]


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
    assert np.array_equal(rasterize(structure, world) > 0, grid)


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


def test_gen_fixtures_count_zero_writes_empty_corpus(tmp_path, capsys):
    assert run(capsys, "gen-fixtures", "--count", "0") == (0, "", "")
    out_path = tmp_path / "pairs.jsonl"
    assert run(capsys, "gen-fixtures", "--count", "0", "--out", str(out_path)) == (0, "", "")
    assert out_path.read_bytes() == b""


@pytest.mark.parametrize("fill", ["nan", "inf", "-inf", "1.5", "1e308", "-0.5"])
def test_gen_fixtures_rejects_non_finite_fill_prob(tmp_path, capsys, fill):
    code, out, err = run(capsys, "gen-fixtures", f"--fill-prob={fill}", "--out", str(tmp_path / "p.jsonl"))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "--fill-prob" in err
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_gen_fixtures_rejects_max_components_below_one(tmp_path, capsys, value):
    code, out, err = run(capsys, "gen-fixtures", "--max-components", value, "--out", str(tmp_path / "p.jsonl"))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "--max-components" in err
    assert not (tmp_path / "p.jsonl").exists()


# ---------------------------------------------------------------------- serve


@pytest.mark.parametrize("port, code", [("busy", 2), ("70000", 1), ("-1", 1)])
def test_serve_tcp_bad_port_is_one_error_line(port, code):
    # A port in use is an I/O error and one out of range a usage error; neither a traceback.
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        if port == "busy":
            port = str(busy.getsockname()[1])
        proc = subprocess.run(
            [sys.executable, "-m", "brickeval", "serve", "--transport", "tcp", "--port", port],
            capture_output=True, text=True, timeout=60,
        )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


# --------------------------------------------------------------- global flags


# The global flags each command reads; any other is a usage error.
READS = {
    "parse": (),
    "score": ("--world",),
    "eval": ("--world",),
    "convert": ("--world",),
    "construct": ("--world", "--seed"),
    "gen-fixtures": ("--world", "--seed"),
    "serve": ("--world", "--threads"),
}
FLAG_VALUES = {"--world": "6,6,6", "--seed": "9", "--threads": "3"}


def command_argv(command, tmp_path):
    """A run of command that reads and writes only under tmp_path."""
    points = tmp_path / "points.txt"
    points.write_text("(0,0,0)")
    completion = tmp_path / "c.txt"
    completion.write_text("1x1 (0,0,0)\n")
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"completion": "1x1 (0,0,0)", "target_points": "(0,0,0)"}) + "\n")
    layouts = tmp_path / "layouts.jsonl"
    layouts.write_text(json.dumps({"bricks": "1x1 (0,0,0)"}) + "\n")
    out = str(tmp_path / "out.txt")
    return {
        "parse": ["parse", "--completion", str(completion)],
        "score": ["score", "--target", str(points), "--completion", str(completion)],
        "eval": ["eval", "--pairs", str(pairs), "--out", out],
        "convert": ["convert", "--input", str(layouts), "--output", out],
        "construct": ["construct", "--grid", str(points), "--out", out],
        "gen-fixtures": ["gen-fixtures", "--count", "1", "--out", out],
        "serve": ["serve"],
    }[command]


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("flag, value, expected", [
    ("--world", "6,6,6", WorldConfig(6, 6, 6)),
    ("--seed", "9", 9),
    ("--threads", "3", 3),
])
def test_global_flag_reaches_command(tmp_path, monkeypatch, capsys, flag, value, expected, before):
    # A flag given on one side of the subcommand is neither lost nor reset by
    # the other side, and the flags not given keep their defaults.
    seen = {}

    def fake_serve(transport, port, host, world, threads):
        seen.update(world=world, threads=threads)
        return 0

    def fake_convert(src, dst, mode, world):
        seen.update(world=world)
        return 0

    real_points, real_legalize = cli.parse_pointcloud, cli.legalize

    def spy_points(text, world):
        seen.update(world=world)
        return real_points(text, world)

    def spy_legalize(grid, opts, world):
        seen.update(seed=opts.seed, world=world)
        return real_legalize(grid, opts, world)

    monkeypatch.setattr(cli, "serve_rewards", fake_serve)
    monkeypatch.setattr(cli, "convert_corpus", fake_convert)
    monkeypatch.setattr(cli, "parse_pointcloud", spy_points)
    monkeypatch.setattr(cli, "legalize", spy_legalize)
    defaults = {"--world": DEFAULT_WORLD, "--seed": 0, "--threads": 1}
    for command, reads in READS.items():
        if flag not in reads:
            continue
        seen.clear()
        argv = command_argv(command, tmp_path)
        argv = [flag, value, *argv] if before else [*argv, flag, value]
        code, _, err = run(capsys, *argv)
        assert code == 0, (command, err)
        want = {name[2:]: expected if name == flag else defaults[name] for name in reads}
        assert seen == want, command


UNREAD = [(command, flag) for command, reads in READS.items() for flag in FLAG_VALUES if flag not in reads]


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
def test_unread_global_flag_is_usage_error(tmp_path, monkeypatch, capsys, command, flag, before):
    # A flag the command would ignore is refused, on either side, before anything runs.
    argv = command_argv(command, tmp_path)
    argv = [flag, FLAG_VALUES[flag], *argv] if before else [*argv, flag, FLAG_VALUES[flag]]
    files = sorted(os.listdir(tmp_path))
    stdin = feed_stdin(monkeypatch, b"")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and flag in err, err
    assert sorted(os.listdir(tmp_path)) == files
    assert stdin.buffer.tell() == 0


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_the_global_flags_read(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert [flag for flag in FLAG_VALUES if f"{flag} " in out] == list(READS[command])


@pytest.mark.parametrize("argv", [
    ["construct", "--seed", "-1"],
    ["--seed", "-3", "gen-fixtures"],
    ["gen-fixtures", "--seed", "-3"],
    ["gen-fixtures", "--count", "-2"],
    ["gen-fixtures", "--seed", "1.5"],
    ["gen-fixtures", "--count", "ten"],
], ids=["construct-seed", "seed-before", "seed", "count", "seed-not-int", "count-not-int"])
def test_seed_and_count_must_be_non_negative_integers(tmp_path, capsys, argv):
    grid = np.zeros(WorldConfig().shape, dtype=bool)
    grid[0, 0, 0] = True
    gfile = tmp_path / "grid.txt"
    gfile.write_text(encode_target_voxels(grid))
    out_path = tmp_path / "out.txt"
    extra = ["--grid", str(gfile)] if "construct" in argv else []
    code, out, err = run(capsys, *argv, *extra, "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "invalid" not in err  # not argparse's "invalid <function> value"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["convert", "--input", "in.jsonl", "--output", "-"],
    ["convert", "--input", "-", "--output", "out.jsonl"],
    ["score", "--target", "-", "--completion", "-"],
], ids=["convert-output", "convert-input", "score-both-stdin"])
def test_dash_a_command_cannot_honour_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    # Rejected before anything is read or written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.jsonl").write_text(json.dumps({"bricks": "1x1 (0,0,0)"}) + "\n")
    stdin = feed_stdin(monkeypatch, b"(0,0,0)\n")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["in.jsonl"]
    assert stdin.buffer.tell() == 0


def test_world_flag_both_positions(tmp_path, capsys):
    grid = np.zeros((6, 6, 6), dtype=bool)
    grid[0, 0, 0] = True
    gfile = tmp_path / "grid.txt"
    gfile.write_text(encode_target_voxels(grid))
    before = run(capsys, "--world", "6,6,6", "construct", "--grid", str(gfile))
    after = run(capsys, "construct", "--world", "6,6,6", "--grid", str(gfile))
    assert before[0] == after[0] == 0
    assert before[1] == after[1] == "1x1 (0,0,0)\n"


def test_bad_world_flag(capsys, tmp_path):
    code, _, err = run(capsys, "--world", "20,20", "construct", "--grid", "-")
    assert code == 1 and "error:" in err
    # A world numpy cannot allocate is a usage error too: one line, no traceback.
    target = tmp_path / "target.txt"
    target.write_text("(0,0,0)\n")
    completion = tmp_path / "completion.txt"
    completion.write_text("1x1 (0,0,0)\n")
    request = json.dumps({"id": "a", "completion": "1x1 (0,0,0)", "target_points": "(0,0,0)"}) + "\n"
    for world in ("100000,100000,100000", "3000000000,3000000000,2"):
        for argv in (["score", "--target", str(target), "--completion", str(completion)],
                     ["construct", "--grid", str(target)]):
            code, out, err = run(capsys, "--world", world, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1, err
        # serve reads its requests from stdin, which pytest's capture gives no file descriptor.
        proc = subprocess.run([sys.executable, "-m", "brickeval", "serve", "--world", world],
                              input=request, capture_output=True, text=True, timeout=60)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_missing_required_flag(capsys):
    assert run(capsys, "score", "--target", "x")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
