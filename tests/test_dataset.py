"""Target-voxel codec, training records, and corpus conversion."""

import base64
import json
import logging
import tracemalloc
import zlib

import numpy as np
import pytest

from brickeval import (
    PROMPT_TEMPLATE,
    SYSTEM_PROMPT,
    BadBase64,
    BadCompression,
    BadLength,
    BadValue,
    BrickStructure,
    InfeasibleStructure,
    WorldConfig,
    build_grpo_record,
    build_sft_record,
    convert_corpus,
    decode_target_voxels,
    encode_target_voxels,
    make_brick,
    parse_pointcloud,
    parse_structure,
    rasterize,
    score_completion,
    serialize_structure,
)
from brickeval.service import handle_request_line

from helpers import collision_free_structure, oracle_decode_voxels


# ---------------------------------------------------------------------- codec


def test_all_zero_round_trip(world):
    grid = np.zeros(world.shape, dtype=bool)
    assert np.array_equal(decode_target_voxels(encode_target_voxels(grid), world), grid)


def test_single_voxel_is_byte_zero(world):
    grid = np.zeros(world.shape, dtype=bool)
    grid[0, 0, 0] = True
    raw = zlib.decompress(base64.b64decode(encode_target_voxels(grid)))
    assert raw[0] == 1 and sum(raw) == 1


@pytest.mark.parametrize("voxel,idx", [((0, 0, 1), 1), ((0, 1, 0), 20), ((1, 0, 0), 400), ((2, 3, 4), 864)])
def test_linear_index_layout(world, voxel, idx):
    # idx = (x*dim_y + y)*dim_z + z
    grid = np.zeros(world.shape, dtype=bool)
    grid[voxel] = True
    raw = zlib.decompress(base64.b64decode(encode_target_voxels(grid)))
    assert raw[idx] == 1 and sum(raw) == 1


def test_random_round_trips(world):
    rng = np.random.default_rng(51)
    for _ in range(50):
        grid = rng.random(world.shape) < rng.uniform(0, 0.5)
        s = encode_target_voxels(grid)
        assert np.array_equal(decode_target_voxels(s, world), grid)
        assert np.array_equal(oracle_decode_voxels(s, world), grid)


def test_encode_deterministic(world):
    grid = np.random.default_rng(52).random(world.shape) < 0.2
    assert encode_target_voxels(grid) == encode_target_voxels(grid.copy())


def test_encode_accepts_int_grids(world):
    grid = np.zeros(world.shape, dtype=np.int64)
    grid[4, 5, 6] = 1
    decoded = decode_target_voxels(encode_target_voxels(grid), world)
    assert decoded[4, 5, 6] and decoded.sum() == 1


def test_decode_bad_base64(world):
    with pytest.raises(BadBase64):
        decode_target_voxels("not base64!!!", world)
    with pytest.raises(BadBase64):
        decode_target_voxels("AAA", world)  # bad padding


def test_decode_bad_compression(world):
    with pytest.raises(BadCompression):
        decode_target_voxels(base64.b64encode(b"plainly not zlib").decode(), world)
    # Truncated but valid base64 of a valid stream, cut early, midway and
    # inside the trailing checksum.
    raw = base64.b64decode(encode_target_voxels(np.ones(world.shape, dtype=bool)))
    for cut in (10, len(raw) // 2, len(raw) - 2):
        with pytest.raises(BadCompression):
            decode_target_voxels(base64.b64encode(raw[:cut]).decode(), world)


def test_decode_bad_length(world):
    short = base64.b64encode(zlib.compress(b"\x00" * 7999)).decode()
    with pytest.raises(BadLength):
        decode_target_voxels(short, world)
    long = base64.b64encode(zlib.compress(b"\x00" * 8001)).decode()
    with pytest.raises(BadLength):
        decode_target_voxels(long, world)


def zlib_bomb(n_bytes):
    # A stream of n_bytes zeros, compressed piecewise so no copy is made.
    comp = zlib.compressobj()
    chunk = b"\x00" * (1 << 20)
    data = b"".join(comp.compress(chunk) for _ in range(n_bytes >> 20))
    return base64.b64encode(data + comp.flush()).decode()


def test_decode_bomb_is_bounded(world):
    bomb = zlib_bomb(64 << 20)
    line = json.dumps({"id": "z", "completion": "", "target_voxels": bomb})
    tracemalloc.start()
    try:
        rec = json.loads(handle_request_line(line, world))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec == {"id": "z", "error_code": "bad_target_encoding"}
    assert peak < 8 << 20  # the request line and its decoded base64, not the 64 MiB
    with pytest.raises(BadLength):
        decode_target_voxels(bomb, world)


def test_decode_accepts_trailing_bytes(world):
    grid = np.random.default_rng(54).random(world.shape) < 0.3
    raw = base64.b64decode(encode_target_voxels(grid)) + b"trailing"
    assert np.array_equal(decode_target_voxels(base64.b64encode(raw).decode(), world), grid)


def test_decode_bad_value(world):
    raw = bytearray(world.n_voxels)
    raw[17] = 2
    bad = base64.b64encode(zlib.compress(bytes(raw))).decode()
    with pytest.raises(BadValue):
        decode_target_voxels(bad, world)


def test_decode_other_world_size():
    tiny = WorldConfig(3, 4, 5)
    grid = np.random.default_rng(53).random(tiny.shape) < 0.4
    assert np.array_equal(decode_target_voxels(encode_target_voxels(grid), tiny), grid)


# -------------------------------------------------------------------- records


def test_sft_record_perfect_fixture(world, perfect_fixture):
    rec = build_sft_record(perfect_fixture, world)
    assert rec.system == SYSTEM_PROMPT
    assert rec.user.startswith(PROMPT_TEMPLATE)
    assert len(rec.assistant.splitlines()) == 3
    parsed, report = parse_structure(rec.assistant)
    assert report.parsed_ok
    assert tuple(parsed) == tuple(perfect_fixture)


def test_sft_record_single_brick(world):
    s = BrickStructure((make_brick(1, 1, 0, 0, 0),))
    rec = build_sft_record(s, world)
    assert rec.assistant == "1x1 (0,0,0)"
    assert "(0,0,0)" in rec.user


def test_sft_pairing_property(world):
    # The point list in the prompt names exactly the structure's voxels.
    rng = np.random.default_rng(54)
    for _ in range(20):
        s = collision_free_structure(rng, world, 12)
        rec = build_sft_record(s, world)
        points_text = rec.user[len(PROMPT_TEMPLATE):]
        grid = parse_pointcloud(points_text, world)
        assert np.array_equal(grid, rasterize(s, world) > 0)


def test_grpo_record_perfect_fixture(world, perfect_fixture):
    rec = build_grpo_record(perfect_fixture, world)
    assert rec.system == SYSTEM_PROMPT
    assert not hasattr(rec, "assistant")
    assert decode_target_voxels(rec.target_voxels, world).sum() == 8


def test_grpo_record_single_brick(world):
    rec = build_grpo_record(BrickStructure((make_brick(1, 1, 0, 0, 0),)), world)
    assert decode_target_voxels(rec.target_voxels, world).sum() == 1


def test_grpo_cross_module_iou(world):
    rng = np.random.default_rng(55)
    for _ in range(10):
        s = collision_free_structure(rng, world, 10)
        rec = build_grpo_record(s, world)
        target = decode_target_voxels(rec.target_voxels, world)
        rb = score_completion(serialize_structure(s), target, world)
        assert rb.iou == 1.0


def test_infeasible_structures_rejected(world):
    with pytest.raises(InfeasibleStructure):
        build_sft_record(BrickStructure(()), world)
    colliding = BrickStructure((make_brick(2, 2, 0, 0, 0), make_brick(2, 2, 0, 0, 0)))
    with pytest.raises(InfeasibleStructure):
        build_sft_record(colliding, world)
    oob = BrickStructure((make_brick(2, 4, 19, 18, 0),))
    with pytest.raises(InfeasibleStructure):
        build_grpo_record(oob, world)


# ------------------------------------------------------------- convert_corpus


def write_corpus(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def test_convert_three_valid(tmp_path, world):
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    write_corpus(src, [
        {"bricks": "1x1 (0,0,0)"},
        {"bricks": "2x2 (5,5,0)\n2x2 (5,5,1)"},
        {"bricks": "1x4 (0,0,0), 4x1 (10,10,0)"},
    ])
    assert convert_corpus(str(src), str(dst), "sft", world) == 3
    lines = dst.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"system", "user", "assistant"}
        assert parse_structure(rec["assistant"])[1].parsed_ok


def test_convert_skips_and_logs(tmp_path, world, caplog):
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    write_corpus(src, [
        {"bricks": "1x1 (0,0,0)"},
        {"bricks": "1x1 (0,0,0)\n1x1 (0,0,0)"},  # collision
        {"wrong_key": True},
        {"bricks": "garbage"},
        {"bricks": "2x2 (0,0,1)"},  # floating is fine, only feasibility gates
        # Lines 6-8: bricks that are not text are unreadable, not unparsed.
        {"bricks": ["2x4 (0,0,0)"]},
        {"bricks": 5},
        {"bricks": None},
    ])
    # Past the integer digit limit, and nested past the recursion limit.
    with src.open("a", encoding="utf-8") as f:
        f.write('{"bricks": "1x1 (0,0,0)", "n": ' + "7" * 5000 + "}\n")
        f.write('{"bricks": ' + "[" * 5000 + "]" * 5000 + "}\n")
    with caplog.at_level(logging.WARNING, logger="brickeval.dataset"):
        count = convert_corpus(str(src), str(dst), "sft", world)
    assert count == 2
    assert len(dst.read_text().splitlines()) == 2
    assert len(caplog.records) == 8
    messages = {r.getMessage().split(":")[0]: r.getMessage() for r in caplog.records}
    for line in (6, 7, 8):
        assert "unreadable record (bricks must be a string)" in messages[f"line {line}"]


@pytest.mark.parametrize("end, count, skips", [("\r", 0, 1), ("\r\n", 2, 0)], ids=["CR", "CRLF"])
def test_convert_frames_at_newline_only(tmp_path, world, caplog, end, count, skips):
    # As in the service and eval, a bare "\r" does not end a record.
    src = tmp_path / "in.jsonl"
    rows = [json.dumps({"bricks": "1x1 (0,0,0)"}), json.dumps({"bricks": "2x2 (5,5,0)"})]
    src.write_bytes("".join(row + end for row in rows).encode("utf-8"))
    dst = tmp_path / "out.jsonl"
    with caplog.at_level(logging.WARNING, logger="brickeval.dataset"):
        assert convert_corpus(str(src), str(dst), "sft", world) == count
    assert len(dst.read_text().splitlines()) == count
    assert len(caplog.records) == skips


def test_convert_grpo_mode(tmp_path, world):
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    write_corpus(src, [{"bricks": "2x4 (3,3,0)"}])
    assert convert_corpus(str(src), str(dst), "grpo", world) == 1
    rec = json.loads(dst.read_text())
    assert set(rec) == {"system", "user", "target_voxels"}
    assert decode_target_voxels(rec["target_voxels"], world).sum() == 8


def test_convert_idempotent(tmp_path, world):
    src = tmp_path / "in.jsonl"
    write_corpus(src, [{"bricks": "1x2 (0,0,0)"}, {"bricks": "6x1 (9,9,0)"}])
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    convert_corpus(str(src), str(a), "grpo", world)
    convert_corpus(str(src), str(b), "grpo", world)
    assert a.read_bytes() == b.read_bytes()


def test_convert_unknown_mode(tmp_path):
    with pytest.raises(ValueError):
        convert_corpus(str(tmp_path / "x"), str(tmp_path / "y"), "rlhf")


def test_convert_missing_input(tmp_path):
    with pytest.raises(OSError):
        convert_corpus(str(tmp_path / "absent.jsonl"), str(tmp_path / "out.jsonl"))
