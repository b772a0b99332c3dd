"""Reward service: request handling, concurrency, stdio, and TCP."""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from brickeval import (
    encode_target_voxels,
    rasterize,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval.core import DEFAULT_WORLD
from brickeval.service import RewardTCPServer, handle_request_line, serve_lines

WORLD = DEFAULT_WORLD


def fixture_request(perfect_fixture, request_id="r1", **extra):
    target = rasterize(perfect_fixture, WORLD).occupied
    req = {
        "id": request_id,
        "completion": serialize_structure(perfect_fixture),
        "target_voxels": encode_target_voxels(target),
    }
    req.update(extra)
    return json.dumps(req)


# --------------------------------------------------------- handle_request_line


def test_perfect_fixture_response(perfect_fixture):
    rec = json.loads(handle_request_line(fixture_request(perfect_fixture), WORLD))
    assert rec["id"] == "r1"
    assert rec["total"] == 10.0
    assert rec["parse_failed"] is False and rec["feasible"] is True
    assert rec["brick_count"] == 3


def test_response_field_order(perfect_fixture):
    rec = json.loads(handle_request_line(fixture_request(perfect_fixture), WORLD))
    assert list(rec) == [
        "id", "total", "r_col", "r_shape", "r_inter", "r_conn",
        "iou", "n_col", "parse_failed", "feasible", "in_bounds", "brick_count",
    ]


def test_empty_completion(perfect_fixture):
    line = fixture_request(perfect_fixture, completion="")
    rec = json.loads(handle_request_line(line, WORLD))
    assert rec["total"] == -10.0 and rec["parse_failed"] is True


def test_target_points_transport(perfect_fixture):
    target = rasterize(perfect_fixture, WORLD).occupied
    line = json.dumps({
        "id": "p",
        "completion": serialize_structure(perfect_fixture),
        "target_points": serialize_pointcloud(target),
    })
    rec = json.loads(handle_request_line(line, WORLD))
    assert rec["total"] == 10.0 and rec["iou"] == 1.0


def test_not_json_is_bad_request():
    rec = json.loads(handle_request_line("not json at all", WORLD))
    assert rec == {"id": None, "error_code": "bad_request"}


def test_byte_lines_decode_as_utf8(perfect_fixture):
    line = fixture_request(perfect_fixture)
    assert handle_request_line(line.encode("utf-8"), WORLD) == handle_request_line(line, WORLD)
    for bad in (b"\xff\n", b'{"id": "\xc3("}', line.encode("utf-8")[:-1] + b"\x80}"):
        rec = json.loads(handle_request_line(bad, WORLD))
        assert rec == {"id": None, "error_code": "bad_request"}


def test_non_object_is_bad_request():
    assert json.loads(handle_request_line("[1, 2]", WORLD))["error_code"] == "bad_request"


def test_non_string_id_is_unrecoverable():
    line = json.dumps({"id": 7, "completion": "", "target_points": "(0,0,0)"})
    rec = json.loads(handle_request_line(line, WORLD))
    assert rec == {"id": None, "error_code": "bad_request"}


def test_missing_completion(perfect_fixture):
    line = json.dumps({"id": "x", "target_points": "(0,0,0)"})
    rec = json.loads(handle_request_line(line, WORLD))
    assert rec == {"id": "x", "error_code": "bad_request"}


def test_both_targets_rejected(perfect_fixture):
    line = fixture_request(perfect_fixture, target_points="(0,0,0)")
    rec = json.loads(handle_request_line(line, WORLD))
    assert rec["error_code"] == "bad_request" and rec["id"] == "r1"


def test_neither_target_rejected():
    line = json.dumps({"id": "x", "completion": "1x1 (0,0,0)"})
    assert json.loads(handle_request_line(line, WORLD))["error_code"] == "bad_request"


def test_bad_voxel_string():
    line = json.dumps({"id": "v", "completion": "", "target_voxels": "@@@"})
    rec = json.loads(handle_request_line(line, WORLD))
    assert rec == {"id": "v", "error_code": "bad_target_encoding"}


def test_bad_point_text():
    for points in ("(1,2)", "(0,0,0) junk", "(99,0,0)"):
        line = json.dumps({"id": "p", "completion": "", "target_points": points})
        rec = json.loads(handle_request_line(line, WORLD))
        assert rec["error_code"] == "bad_target_encoding"


# ------------------------------------------------------------------ serve_lines


def request_batch(perfect_fixture, n):
    lines = []
    for i in range(n):
        if i % 4 == 3:
            lines.append("garbage line")
        else:
            lines.append(fixture_request(perfect_fixture, request_id=f"req-{i}"))
    return lines


def test_sequential_serving_preserves_order(perfect_fixture):
    out = []
    lines = request_batch(perfect_fixture, 8) + ["", "   "]
    serve_lines(iter(lines), out.append, WORLD, threads=1)
    assert len(out) == 8  # blank lines skipped
    ids = [json.loads(t)["id"] for t in out]
    assert ids == ["req-0", "req-1", "req-2", None, "req-4", "req-5", "req-6", None]


def test_threaded_serving_matches_sequential(perfect_fixture):
    lines = request_batch(perfect_fixture, 40)
    seq, par = [], []
    serve_lines(iter(lines), seq.append, WORLD, threads=1)
    serve_lines(iter(lines), par.append, WORLD, threads=4, max_pending=8)
    assert sorted(par) == sorted(seq)
    assert len(par) == 40


def test_backpressure_bounds_intake(perfect_fixture):
    # With the writer blocked, the reader may only run ahead by the
    # in-flight budget.
    consumed = []
    gate = threading.Event()

    def lines():
        for i in range(100):
            consumed.append(i)
            yield fixture_request(perfect_fixture, request_id=f"bp-{i}")

    def write_line(text):
        gate.wait(timeout=30)

    worker = threading.Thread(
        target=serve_lines,
        args=(lines(), write_line, WORLD),
        kwargs={"threads": 2, "max_pending": 8},
        daemon=True,
    )
    worker.start()
    deadline = time.monotonic() + 5
    last = -1
    while time.monotonic() < deadline:
        if len(consumed) == last and len(consumed) >= 8:
            break
        last = len(consumed)
        time.sleep(0.05)
    stalled_at = len(consumed)
    gate.set()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert stalled_at <= 10  # budget 8, plus one blocked submit and one buffered line
    assert len(consumed) == 100


# ------------------------------------------------------------------ transports


def test_stdio_subprocess_round_trip(perfect_fixture):
    lines = [
        fixture_request(perfect_fixture, request_id="a"),
        "junk",
        json.dumps({"id": "b", "completion": "", "target_points": "(0,0,0)"}),
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "brickeval", "serve", "--transport", "stdio"],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    out = [json.loads(l) for l in proc.stdout.splitlines()]
    assert len(out) == 3
    assert out[0]["id"] == "a" and out[0]["total"] == 10.0
    assert out[1] == {"id": None, "error_code": "bad_request"}
    assert out[2]["id"] == "b" and out[2]["total"] == -10.0


def invalid_utf8_requests(perfect_fixture):
    return b"".join((
        fixture_request(perfect_fixture, request_id="before").encode("utf-8") + b"\n",
        b'{"id": "bad", "completion": "\xff"}\n',
        fixture_request(perfect_fixture, request_id="after").encode("utf-8") + b"\n",
    ))


def assert_invalid_utf8_answered(data):
    out = [json.loads(l) for l in data.decode("utf-8").splitlines()]
    assert len(out) == 3
    assert out[0]["id"] == "before" and out[0]["total"] == 10.0
    assert out[1] == {"id": None, "error_code": "bad_request"}
    assert out[2]["id"] == "after" and out[2]["total"] == 10.0


def test_stdio_survives_invalid_utf8(perfect_fixture):
    # Strict stdio decoding must not matter: lines are read as bytes.
    proc = subprocess.run(
        [sys.executable, "-m", "brickeval", "serve", "--transport", "stdio"],
        input=invalid_utf8_requests(perfect_fixture),
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert proc.returncode == 0, proc.stderr
    assert_invalid_utf8_answered(proc.stdout)


def tcp_exchange(server, payload):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        with socket.create_connection((host, port), timeout=30) as conn:
            conn.sendall(payload)
            conn.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    return data
                data += chunk
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_tcp_survives_invalid_utf8(perfect_fixture):
    server = RewardTCPServer(("127.0.0.1", 0), WORLD, threads=1)
    assert_invalid_utf8_answered(tcp_exchange(server, invalid_utf8_requests(perfect_fixture)))


def test_tcp_round_trip(perfect_fixture):
    server = RewardTCPServer(("127.0.0.1", 0), WORLD, threads=2)
    payload = fixture_request(perfect_fixture, request_id="tcp-1") + "\n"
    rec = json.loads(tcp_exchange(server, payload.encode("utf-8")).decode("utf-8"))
    assert rec["id"] == "tcp-1" and rec["total"] == 10.0
