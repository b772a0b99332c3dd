"""Reward service: request handling, concurrency, stdio, and TCP."""

import io
import json
import multiprocessing
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import cache

import numpy as np
import pytest

from brickeval import (
    BrickStructure,
    ConstructorOptions,
    encode_target_voxels,
    legalize,
    make_brick,
    random_target,
    rasterize,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval import service
from brickeval.core import DEFAULT_WORLD
from brickeval.service import (
    RewardTCPServer,
    handle_request_line,
    max_line_bytes,
    read_lines,
    serve_lines,
    start_workers,
)
from test_golden import _requests as golden_requests

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


# Lines json.loads fails on with other errors than JSONDecodeError: an
# integer past the interpreter's digit limit (ValueError) and arrays nested
# past the recursion limit (RecursionError).
HUGE_INT_LINE = '{"id": "huge", "n": ' + "7" * 5000 + "}"
DEEP_LINE = "[" * 5000 + "]" * 5000


def test_not_json_is_bad_request():
    for line in ("not json at all", HUGE_INT_LINE, DEEP_LINE):
        rec = json.loads(handle_request_line(line, WORLD))
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


# ------------------------------------------------------------------- chunks

ROLLOUT_KINDS = ("valid", "comma_inline", "points_target", "colliding", "out_of_bounds",
                 "malformed", "empty", "bad_json", "wrong_world", "dense")


@cache
def rollout_requests() -> tuple[str, ...]:
    """Requests of every kind in perfbench's rollout mix, plus dense builds (fill 0.5; the rest fill 0.01)."""
    rng = np.random.default_rng(12)
    lines = []
    for i in range(80):
        kind = ROLLOUT_KINDS[i % len(ROLLOUT_KINDS)]
        fill = 0.5 if kind == "dense" else 0.01
        target = random_target(int(rng.integers(1 << 31)), fill_prob=fill, grounded=True, world=WORLD)
        bricks = legalize(target, ConstructorOptions(stagger=bool(i % 3)), WORLD).bricks
        if kind == "colliding":
            bricks += bricks[-1:]
        elif kind == "out_of_bounds":
            bricks += (make_brick(8, 1, WORLD.dim_x - 3, i % WORLD.dim_y, WORLD.dim_z - 1),)
        text = serialize_structure(BrickStructure(bricks), "comma_inline" if kind == "comma_inline" else "one_per_line")
        if kind == "malformed":
            text = "3x3 (1,1,0)\n" + text
        elif kind == "empty":
            text = ""
        request = {"id": f"m{i}", "completion": text}
        if kind == "points_target":
            request["target_points"] = serialize_pointcloud(target)
        elif kind == "wrong_world":
            request["target_voxels"] = encode_target_voxels(rng.random((10, 10, 10)) < 0.1)
        else:
            request["target_voxels"] = encode_target_voxels(target)
        line = json.dumps(request)
        lines.append(line[: len(line) // 2] if kind == "bad_json" else line)
    return tuple(lines)


@pytest.mark.parametrize("size", [1, 2, 7, 32])
def test_chunk_responses_equal_single_line_responses(size):
    # The golden digest serves one line at a time, so it never sees a chunk.
    lines = list(golden_requests()) + list(rollout_requests())
    lines = [lines[i] for i in np.random.default_rng(size).permutation(len(lines))]
    for lo in range(0, len(lines), size):
        chunk = lines[lo:lo + size]
        assert service._handle_chunk(WORLD, chunk) == [handle_request_line(line, WORLD) for line in chunk]


def test_chunk_whose_batch_raises_is_answered_line_by_line(monkeypatch, capsys):
    calls = []

    def fail(*args):
        calls.append(args)
        raise RuntimeError("batch failed")

    lines = list(rollout_requests()[:32])
    want = [handle_request_line(line, WORLD) for line in lines]
    monkeypatch.setattr(service, "score_completions", fail)
    assert service._handle_chunk(WORLD, lines) == want
    assert len(calls) == 1
    captured = capsys.readouterr()
    assert captured.err.count("RuntimeError: batch failed") == 1 and captured.out == ""


def test_internal_error_is_logged_and_answered_bad_request(perfect_fixture, monkeypatch, capsys):
    # A raise inside scoring is a program bug: its traceback goes to stderr,
    # and the wire answer is still bad_request with the id.
    def boom(*args):
        raise RuntimeError("boom")

    line = fixture_request(perfect_fixture, request_id="x")
    monkeypatch.setattr(service, "score_completion", boom)
    assert handle_request_line(line, WORLD) == json.dumps({"id": "x", "error_code": "bad_request"})
    captured = capsys.readouterr()
    assert "RuntimeError: boom" in captured.err and captured.out == ""


def test_bad_requests_log_nothing(capsys):
    # Bad requests are the client's fault, so none of the golden stream's
    # malformed, mistyped or undecodable lines writes to stderr.
    out = []
    serve_lines(golden_requests(), out.append, WORLD, threads=1)
    assert len(out) == 200
    assert any('"bad_request"' in r for r in out) and any('"bad_target_encoding"' in r for r in out)
    assert capsys.readouterr().err == ""


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


def test_threaded_serving_matches_sequential(perfect_fixture, monkeypatch):
    lines = request_batch(perfect_fixture, 40)
    seq, par = [], []
    serve_lines(iter(lines), seq.append, WORLD, threads=1)
    monkeypatch.setattr(service, "_MAX_PENDING", 8)
    serve_lines(iter(lines), par.append, WORLD, threads=4)
    assert sorted(par) == sorted(seq)
    assert len(par) == 40


def test_backpressure_bounds_intake(perfect_fixture, monkeypatch):
    # With the writer blocked, the reader may only run ahead by the
    # in-flight budget.
    monkeypatch.setattr(service, "_MAX_PENDING", 8)
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
        kwargs={"threads": 2},
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
    workers.submit(int).result(timeout=timeout)


def test_lone_request_answered_while_input_open(perfect_fixture):
    # Once workers are up, a line with none of its stream at the workers
    # must be answered before more input arrives, and so must a burst.
    feed = queue.Queue()
    answers = queue.Queue()
    workers = start_workers(2)
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
        workers.shutdown(wait=False, cancel_futures=True)


def test_one_worker_imports_no_process_machinery():
    # Only a multi-worker service pays for importing the pool.
    code = "import sys, brickeval.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_running_workers_match_sequential(perfect_fixture):
    lines = request_batch(perfect_fixture, 40)
    seq, par = [], []
    serve_lines(iter(lines), seq.append, WORLD, threads=1)
    workers = start_workers(2)
    try:
        wait_up(workers)
        serve_lines(iter(lines), par.append, WORLD, workers=workers)
    finally:
        workers.shutdown(wait=False, cancel_futures=True)
    assert sorted(par) == sorted(seq)


def dense_requests(n, prefix):
    # 450-700 bricks each, so a chunk of 32 keeps a worker busy for over 100 ms.
    builds, seed = [], 30_000
    while len(builds) < 8:
        target = random_target(seed=seed, fill_prob=0.5, grounded=True, world=WORLD)
        seed += 1
        s = legalize(target, ConstructorOptions(stagger=True), WORLD)
        if 450 <= len(s) <= 700:
            builds.append((serialize_structure(s), encode_target_voxels(rasterize(s, WORLD).occupied)))
    return [
        json.dumps({"id": f"{prefix}-{i}", "completion": builds[i % 8][0], "target_voxels": builds[i % 8][1]})
        for i in range(n)
    ]


def serve_in_thread(lines, workers):
    out = []
    server = threading.Thread(
        target=serve_lines, args=(lines, out.append, WORLD), kwargs={"workers": workers}, daemon=True
    )
    server.start()
    return server, out


BROKEN_POOL_LINE = "worker pool broken: the serving process now scores the chunks\n"


def test_dead_workers_do_not_hang_the_stream(capsys):
    # Kill every worker with chunks in flight: the lost chunks and all
    # later ones are scored in the serving process, on this stream and on
    # the next one that uses the broken pool. Each stream says so once on
    # stderr and nothing else on either output.
    lines = dense_requests(80, "d")
    seq = []
    serve_lines(iter(lines), seq.append, WORLD)
    before = set(multiprocessing.active_children())
    workers = start_workers(2)
    try:
        started = [p for p in multiprocessing.active_children() if p not in before]
        assert len(started) == 2
        wait_up(workers)
        feed = queue.Queue()
        server, out = serve_in_thread(iter(feed.get, None), workers)
        for line in lines[:64]:
            feed.put(line)
        time.sleep(0.05)
        for process in started:
            os.kill(process.pid, signal.SIGKILL)
        for line in lines[64:]:
            feed.put(line)
        feed.put(None)
        server.join(timeout=30)
        assert not server.is_alive(), f"hung at {len(out)} of {len(lines)} responses"
        assert sorted(json.loads(r)["id"] for r in out) == sorted(f"d-{i}" for i in range(80))
        assert sorted(out) == sorted(seq)
        assert capsys.readouterr() == ("", BROKEN_POOL_LINE)
        server, again = serve_in_thread(iter(lines[:40]), workers)
        server.join(timeout=30)
        assert not server.is_alive()
        assert sorted(again) == sorted(seq[:40])
        assert capsys.readouterr() == ("", BROKEN_POOL_LINE)
    finally:
        workers.shutdown(wait=False, cancel_futures=True)


# ------------------------------------------------------------------ transports


def test_stdio_subprocess_round_trip(perfect_fixture):
    lines = [
        fixture_request(perfect_fixture, request_id="a"),
        "junk",
        json.dumps({"id": "b", "completion": "", "target_points": "(0,0,0)"}),
    ]
    for threads in ([], ["--threads", "0"]):  # a count below 1 serves inline
        proc = subprocess.run(
            [sys.executable, "-m", "brickeval", "serve", "--transport", "stdio", *threads],
            input="\n".join(lines) + "\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = [json.loads(l) for l in proc.stdout.splitlines()]
        assert len(out) == 3
        assert out[0]["id"] == "a" and out[0]["total"] == 10.0
        assert out[1] == {"id": None, "error_code": "bad_request"}
        assert out[2]["id"] == "b" and out[2]["total"] == -10.0


def invalid_utf8_requests(perfect_fixture):
    # Each unreadable line sits between requests that must still be answered.
    return b"".join((
        fixture_request(perfect_fixture, request_id="before").encode("utf-8") + b"\n",
        b'{"id": "bad", "completion": "\xff"}\n',
        fixture_request(perfect_fixture, request_id="between").encode("utf-8") + b"\n",
        HUGE_INT_LINE.encode("ascii") + b"\n",
        DEEP_LINE.encode("ascii") + b"\n",
        fixture_request(perfect_fixture, request_id="after").encode("utf-8") + b"\n",
    ))


def assert_invalid_utf8_answered(data):
    out = [json.loads(l) for l in data.decode("utf-8").splitlines()]
    assert len(out) == 6
    for i, request_id in ((0, "before"), (2, "between"), (5, "after")):
        assert out[i]["id"] == request_id and out[i]["total"] == 10.0
    for i in (1, 3, 4):
        assert out[i] == {"id": None, "error_code": "bad_request"}


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


def test_tcp_bind_failure_is_os_error():
    # The failed-bind cleanup must not hide EADDRINUSE behind an AttributeError.
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        with pytest.raises(OSError):
            RewardTCPServer(busy.getsockname(), WORLD, threads=2)


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
    wait_up(workers)
    scored = []
    submit = workers.submit

    def recording_submit(fn, world, lines):
        scored.extend(json.loads(line)["id"] for line in lines)
        return submit(fn, world, lines)

    workers.submit = recording_submit
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
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
