"""Reward service: request handling, concurrency, stdio, and TCP."""

import io
import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np

from brickeval import (
    encode_target_voxels,
    rasterize,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval.core import DEFAULT_WORLD
from brickeval.service import (
    RewardTCPServer,
    Workers,
    handle_request_line,
    max_line_bytes,
    read_lines,
    serve_lines,
)

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


def wait_up(workers, timeout=60):
    deadline = time.monotonic() + timeout
    while not workers.up():
        assert time.monotonic() < deadline, "no worker started"
        time.sleep(0.02)


def test_lone_request_answered_while_input_open(perfect_fixture):
    # Once workers are up, a line with none of its stream at the workers
    # must be answered before more input arrives, and so must a burst.
    feed = queue.Queue()
    answers = queue.Queue()
    workers = Workers(2)
    try:
        wait_up(workers)
        server = threading.Thread(
            target=serve_lines,
            args=(iter(feed.get, None), answers.put, WORLD),
            kwargs={"workers": workers},
            daemon=True,
        )
        server.start()
        feed.put(fixture_request(perfect_fixture, request_id="lone"))
        assert json.loads(answers.get(timeout=30))["id"] == "lone"
        for i in range(3):
            feed.put(fixture_request(perfect_fixture, request_id=f"burst-{i}"))
        ids = {json.loads(answers.get(timeout=30))["id"] for _ in range(3)}
        assert ids == {"burst-0", "burst-1", "burst-2"}
        assert server.is_alive()  # input is still open
        feed.put(None)
        server.join(timeout=30)
        assert not server.is_alive()
    finally:
        workers.close()


def test_running_workers_match_sequential(perfect_fixture):
    lines = request_batch(perfect_fixture, 40)
    seq, par = [], []
    serve_lines(iter(lines), seq.append, WORLD, threads=1)
    workers = Workers(2)
    try:
        wait_up(workers)
        serve_lines(iter(lines), par.append, WORLD, workers=workers)
    finally:
        workers.close()
    assert sorted(par) == sorted(seq)


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


def test_tcp_connections_share_workers(perfect_fixture):
    # Two connections at once on one server with two workers: both are
    # answered in full, and the lines of both reach the shared workers.
    server = RewardTCPServer(("127.0.0.1", 0), WORLD, threads=2)
    workers = server.workers
    scored = []
    score = workers.score

    def recording_score(world, lines, done, failed):
        scored.extend(json.loads(line)["id"] for line in lines)
        score(world, lines, done, failed)

    workers.score = recording_score
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        wait_up(workers)
        conns = [socket.create_connection(server.server_address, timeout=30) for _ in range(2)]
        payloads = [
            "".join(fixture_request(perfect_fixture, request_id=f"c{c}-{i}") + "\n" for i in range(16))
            for c in range(2)
        ]
        for conn, payload in zip(conns, payloads):
            conn.sendall(payload.encode("utf-8"))
        for c, conn in enumerate(conns):
            with conn:
                conn.shutdown(socket.SHUT_WR)
                data = b""
                while chunk := conn.recv(65536):
                    data += chunk
            out = [json.loads(line) for line in data.decode("utf-8").splitlines()]
            assert sorted(rec["id"] for rec in out) == sorted(f"c{c}-{i}" for i in range(16))
            assert all(rec["total"] == 10.0 for rec in out)
        assert server.workers is workers
        assert {name.split("-")[0] for name in scored} == {"c0", "c1"}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ------------------------------------------------------------ line length bound


def test_line_bound_admits_largest_valid_request():
    # A full-world point list with a full-world completion, every brick 1x1.
    full = np.ones(WORLD.shape, dtype=bool)
    bricks = "\n".join(f"1x1 ({x},{y},{z})" for x, y, z in np.argwhere(full).tolist())
    line = json.dumps({"id": "big", "completion": bricks, "target_points": serialize_pointcloud(full)})
    assert len(line) < max_line_bytes(WORLD)
    assert max_line_bytes(WORLD) >= 1 << 20


def test_read_lines_cuts_at_bound():
    limit = max_line_bytes(WORLD)
    exact = b"x" * limit + b"\n"
    over = b"y" * (limit + 1) + b"\n"
    tail = b"z" * (limit + 1)  # over-long and unterminated at end of input
    out = list(read_lines(io.BytesIO(b"a\n" + exact + over + b"b\n" + over + tail), WORLD))
    assert out[0] == b"a\n" and out[1] == exact and out[3] == b"b\n"
    for marker in (out[2], out[4], out[5]):
        assert len(marker) < 64
        assert json.loads(handle_request_line(marker, WORLD)) == {"id": None, "error_code": "bad_request"}
    assert len(out) == 6
    assert list(read_lines(io.BytesIO(b"z" * limit), WORLD)) == [b"z" * limit]


class _Endless(io.RawIOBase):
    """A stream of one request line of `size` bytes, made up as it is read."""

    def __init__(self, head, size, tail):
        self.head, self.left, self.tail = head, size, tail

    def readable(self):
        return True

    def readinto(self, buf):
        if self.head:
            n = min(len(buf), len(self.head))
            buf[:n], self.head = self.head[:n], self.head[n:]
            return n
        if self.left:
            n = min(len(buf), self.left)
            buf[:n] = b" " * n
            self.left -= n
            return n
        n = min(len(buf), len(self.tail))
        buf[:n], self.tail = self.tail[:n], self.tail[n:]
        return n


def test_over_long_line_is_never_buffered_whole(perfect_fixture):
    after = fixture_request(perfect_fixture, request_id="after").encode("utf-8") + b"\n"
    stream = io.BufferedReader(_Endless(b'{"id": "huge", "completion": "', 64 << 20, b'"}\n' + after))
    tracemalloc.start()
    try:
        out = []
        serve_lines(read_lines(stream, WORLD), out.append, WORLD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * max_line_bytes(WORLD)
    assert json.loads(out[0]) == {"id": None, "error_code": "bad_request"}
    assert json.loads(out[1])["id"] == "after" and len(out) == 2


def over_long_requests(perfect_fixture):
    pad = b" " * max_line_bytes(WORLD)
    return b"".join((
        fixture_request(perfect_fixture, request_id="before").encode("utf-8") + b"\n",
        b'{"id": "long", "completion": ""' + pad + b'}\n',
        fixture_request(perfect_fixture, request_id="after").encode("utf-8") + b"\n",
    ))


def assert_over_long_answered(data):
    out = [json.loads(l) for l in data.decode("utf-8").splitlines()]
    assert len(out) == 3
    assert out[0]["id"] == "before" and out[0]["total"] == 10.0
    assert out[1] == {"id": None, "error_code": "bad_request"}
    assert out[2]["id"] == "after" and out[2]["total"] == 10.0


def test_stdio_answers_over_long_line(perfect_fixture):
    proc = subprocess.run(
        [sys.executable, "-m", "brickeval", "serve", "--transport", "stdio"],
        input=over_long_requests(perfect_fixture),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert_over_long_answered(proc.stdout)


def test_tcp_answers_over_long_line(perfect_fixture):
    server = RewardTCPServer(("127.0.0.1", 0), WORLD, threads=1)
    assert_over_long_answered(tcp_exchange(server, over_long_requests(perfect_fixture)))
