"""Reward service: request handling, concurrency, stdio, and TCP."""

import importlib.util
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
from concurrent.futures import Future
from dataclasses import astuple
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from brickeval import (
    BrickStructure,
    ConstructorOptions,
    RewardBreakdown,
    encode_target_voxels,
    legalize,
    make_brick,
    random_target,
    rasterize,
    score_completion,
    serialize_pointcloud,
    serialize_structure,
)
from brickeval import service
from brickeval.core import DEFAULT_WORLD
from brickeval.service import (
    RewardTCPServer,
    _handle_chunk,
    handle_request_line,
    max_line_bytes,
    read_lines,
    serve_lines,
    start_workers,
)
from servers import group_members, ready_workers, serve_process, wait_until
from test_golden import _requests as golden_requests

WORLD = DEFAULT_WORLD


def fixture_request(perfect_fixture, request_id="r1", **extra):
    target = rasterize(perfect_fixture, WORLD) > 0
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


def dumped_response(request_id, breakdown):
    # What json.dumps writes for a scored request: the id, then the breakdown's fields in wire order.
    names = ("total", "r_col", "r_shape", "r_inter", "r_conn", "iou", "n_col",
             "parse_failed", "feasible", "in_bounds", "brick_count")
    return json.dumps({"id": request_id, **{name: getattr(breakdown, name) for name in names}})


def perfbench_inputs():
    # perfbench's seeded request generators, loaded from their file.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_response_template_writes_what_json_dumps_writes():
    inputs = perfbench_inputs()
    pool = inputs.rollout_pool(7, inputs.ROLLOUT_MIX, 300)
    lines = [request.line(f"r{i}") for i, request in enumerate(pool)] + list(golden_requests())
    scored = 0
    for line in lines:
        request = service._read_request(line, WORLD)
        if not isinstance(request, str):
            request_id, completion, target = request
            want = dumped_response(request_id, score_completion(completion, target, WORLD))
            assert handle_request_line(line, WORLD) == want
            scored += 1
    assert scored > 350
    # Floats whose repr json keeps as it is, and ids that json escapes.
    for i, value in enumerate((-0.0, 1e-05, 2 / 3, 5e-324, 1e16)):
        breakdown = RewardBreakdown(r_col=value, r_shape=value, r_inter=-value, r_conn=value, total=value,
                                    parse_failed=i % 2 == 0, feasible=i % 2 == 1, iou=value, n_col=i,
                                    in_bounds=i < 2, brick_count=i * 1000)
        for request_id in ('say "hi"', "back\\slash", "Grüße, 積木", "line\u2028separator", ""):
            assert service._response(request_id, astuple(breakdown)) == dumped_response(request_id, breakdown)


def test_empty_completion(perfect_fixture):
    line = fixture_request(perfect_fixture, completion="")
    rec = json.loads(handle_request_line(line, WORLD))
    assert rec["total"] == -10.0 and rec["parse_failed"] is True


def test_target_points_transport(perfect_fixture):
    target = rasterize(perfect_fixture, WORLD) > 0
    line = json.dumps({
        "id": "p",
        "completion": serialize_structure(perfect_fixture),
        "target_points": serialize_pointcloud(target),
    })
    rec = json.loads(handle_request_line(line, WORLD))
    assert rec["total"] == 10.0 and rec["iou"] == 1.0


def test_copies_stacked_on_copies_fill_one_line():
    # About the most bricks one request line holds: 40,000 copies of a
    # brick over 40,000 on the cell below. Each upper copy rests on 40,000
    # bricks, yet the line is answered at a cost that follows its cells
    # (about 100 MiB traced, nearly all of it the parser's), not the
    # 1.6e9 pairs of an upper and a lower copy.
    target = np.zeros(WORLD.shape, dtype=bool)
    target[0, 0, :2] = True
    line = json.dumps({
        "id": "stack",
        "completion": "1x1 (0,0,0)\n" * 40_000 + "1x1 (0,0,1)\n" * 40_000,
        "target_voxels": encode_target_voxels(target),
    })
    assert len(line) <= max_line_bytes(WORLD)
    tracemalloc.start()
    try:
        rec = json.loads(handle_request_line(line, WORLD))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 20
    assert (rec["id"], rec["total"], rec["r_col"], rec["iou"], rec["n_col"]) == ("stack", 1.0, -4.0, 1.0, 2)
    assert rec["feasible"] is False and rec["brick_count"] == 80_000


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
    monkeypatch.setattr(service, "score_terms", fail)
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
    for i, blank in enumerate(["", "   ", "\t\r\n", b"\n"]):
        lines.insert(11 * i, blank)  # blank lines get no response at any worker count
    seq, par = [], []
    serve_lines(iter(lines), seq.append, WORLD, threads=1)
    monkeypatch.setattr(service, "_MAX_PENDING", 8)
    serve_lines(iter(lines), par.append, WORLD, threads=4)
    assert sorted(par) == sorted(seq)
    assert len(par) == len(seq) == 40


def stalled_intake(perfect_fixture, n, at_least):
    """Serve n same-sized requests with two workers while the writer is blocked.

    Returns how many lines the reader had taken when it stalled, and the
    responses written once the writer was let go.
    """
    consumed, written = [], []
    gate = threading.Event()

    def lines():
        for i in range(n):
            consumed.append(i)
            yield fixture_request(perfect_fixture, request_id=f"bp-{i:03}")

    def write_line(text):
        gate.wait(timeout=30)
        written.append(text)

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
        if len(consumed) == last and len(consumed) >= at_least:
            break
        last = len(consumed)
        time.sleep(0.05)
    stalled_at = len(consumed)
    gate.set()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert len(consumed) == n
    return stalled_at, written


def test_backpressure_bounds_intake(perfect_fixture, monkeypatch):
    # With the writer blocked, the reader may only run ahead by the
    # in-flight budget.
    monkeypatch.setattr(service, "_MAX_PENDING", 8)
    stalled_at, _ = stalled_intake(perfect_fixture, 100, 8)
    assert stalled_at <= 10  # budget 8, plus one blocked submit and one buffered line


def test_byte_budget_bounds_intake(perfect_fixture, monkeypatch):
    # Lines in flight hold at most _MAX_PENDING_BYTES between them, and a
    # line longer than all of it is admitted alone, so it is answered too.
    size = len(fixture_request(perfect_fixture, request_id="bp-000"))
    for budget, most in ((4 * size, 4), (size // 2, 1)):
        monkeypatch.setattr(service, "_MAX_PENDING_BYTES", budget)
        stalled_at, written = stalled_intake(perfect_fixture, 40, most)
        assert stalled_at <= most + 2  # plus one blocked submit and one buffered line
        assert sorted(json.loads(r)["id"] for r in written) == [f"bp-{i:03}" for i in range(40)]


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/status"), reason="reads peak memory from /proc")
def test_client_that_stops_reading_bounds_server_memory():
    # Tiny requests fill the response pipe with their answers (the pipe is
    # shrunk to one page, so the default pipe size does not decide how many
    # that takes), then 130 requests of about 1 MB each arrive while the
    # client reads nothing. The server may hold only its in-flight bytes of them
    # (8 MiB); with a budget in lines alone it peaked at 188 MiB, against
    # 46 MiB here. Once the client reads, every request is answered.
    import fcntl

    with serve_process("--threads", "2", stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL) as proc:
        answer = b'{"id": null, "error_code": "bad_request"}\n'
        tiny = fcntl.fcntl(proc.stdout.fileno(), fcntl.F_SETPIPE_SZ, 1) // len(answer) + 1
        padding = b"x" * 1_000_000
        sent = []

        def send():
            try:
                proc.stdin.writelines([b"{}\n"] * tiny)
                for i in range(130):
                    proc.stdin.write(b'{"id": "b%d", "completion": "%s"}\n' % (i, padding))
                    sent.append(i)
                proc.stdin.flush()
            except (BrokenPipeError, ValueError):  # the server died, or stdin was closed
                pass

        writer = threading.Thread(target=send, daemon=True)
        try:
            writer.start()
            last = -1
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and (len(sent) != last or not sent):
                last = len(sent)
                time.sleep(1.0)  # the server stops reading once its budget is full
            assert 0 < len(sent) < 130
            answered = [json.loads(proc.stdout.readline()) for _ in range(tiny + 130)]
            with open(f"/proc/{proc.pid}/status") as f:
                peak_mib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            writer.join(timeout=10)
    assert answered.count(json.loads(answer)) == tiny
    assert sorted(r["id"] for r in answered if r["id"]) == sorted(f"b{i}" for i in range(130))
    assert peak_mib < 80


def wait_up(workers, timeout=60):
    pool, _ = workers
    pool.submit(int).result(timeout=timeout)


def test_lone_request_answered_while_input_open(perfect_fixture):
    # Once workers are up, a line with none of its stream at the workers
    # must be answered before more input arrives, and so must a burst.
    feed = queue.Queue()
    answers = queue.Queue()
    with start_workers(2) as workers:
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


class HandPool:
    """A stand-in pool of workers whose chunks the test finishes by hand."""

    def __init__(self):
        self.chunks, self.futures = [], []

    def submit(self, fn, world, lines):
        self.chunks.append(list(lines))
        self.futures.append(Future())
        return self.futures[-1]

    def finish(self, i):
        self.futures[i].set_result(_handle_chunk(WORLD, self.chunks[i]))


def wait_for(condition, timeout=30):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def test_pump_holds_lines_while_every_worker_is_busy(perfect_fixture):
    # Lines that arrive while both workers hold one of the stream's chunks
    # wait for a worker, so they go as one chunk, not as they trickle in;
    # CHUNK_SIZE of them go at once. A lone line with nothing at the
    # workers is scored in the serving thread.
    lines = request_batch(perfect_fixture, 125)
    feed, taken = queue.Queue(), [0]
    gate, writing = threading.Event(), threading.Event()
    out = []

    def stream():
        while (line := feed.get()) is not None:
            yield line
            taken[0] += 1  # the reader asked for the next line: this one is queued

    def write_line(text):
        writing.set()
        gate.wait(timeout=30)
        out.append(text)

    def send(lo, hi):
        for line in lines[lo:hi]:
            feed.put(line)
        wait_for(lambda: taken[0] == hi)

    pool = HandPool()
    server = threading.Thread(target=serve_lines, args=(stream(), write_line, WORLD),
                              kwargs={"workers": (pool, 2)}, daemon=True)
    server.start()
    try:
        feed.put(lines[0])
        assert writing.wait(timeout=30)
        assert pool.chunks == []  # the lone line was scored here
        send(1, 65)  # queued behind the lone line's write
        gate.set()
        wait_for(lambda: len(pool.chunks) == 2)
        assert [len(c) for c in pool.chunks] == [32, 32]
        send(65, 85)
        time.sleep(0.2)
        assert len(pool.chunks) == 2  # both workers are busy: the 20 lines wait
        pool.finish(0)
        wait_for(lambda: len(pool.chunks) == 3)
        assert pool.chunks[2] == lines[65:85]
        send(85, 125)
        wait_for(lambda: len(pool.chunks) == 4)
        assert pool.chunks[3] == lines[85:117]
        time.sleep(0.2)
        assert len(pool.chunks) == 4
        feed.put(None)
        for i in range(1, 5):
            wait_for(lambda: len(pool.chunks) > i)
            pool.finish(i)
        server.join(timeout=30)
        assert not server.is_alive()
    finally:
        gate.set()
        feed.put(None)
    assert [len(c) for c in pool.chunks] == [32, 32, 20, 32, 8]
    seq = []
    serve_lines(iter(lines), seq.append, WORLD, threads=1)
    assert sorted(out) == sorted(seq)


def test_pump_caps_a_chunk_at_the_line_bound():
    # Eight lines just under max_line_bytes fit the 8 MiB in-flight budget
    # together, but a chunk holds at most max_line_bytes between its lines,
    # so each of them goes to the pool alone.
    limit = max_line_bytes(WORLD)

    def long_line(i):
        head = f'{{"id": "long-{i}", "completion": "", "target_points": ""'
        return head + " " * (limit - 64 - len(head) - 1) + "}"

    lines = [json.dumps({"id": "lone", "completion": "", "target_points": ""})]
    lines += [long_line(i) for i in range(8)]
    assert all(limit - 64 == len(line) for line in lines[1:])
    feed, taken = queue.Queue(), [0]
    gate, writing = threading.Event(), threading.Event()
    out = []

    def stream():
        while (line := feed.get()) is not None:
            yield line
            taken[0] += 1

    def write_line(text):
        writing.set()
        gate.wait(timeout=30)
        out.append(text)

    pool = HandPool()
    server = threading.Thread(target=serve_lines, args=(stream(), write_line, WORLD),
                              kwargs={"workers": (pool, 2)}, daemon=True)
    server.start()
    try:
        feed.put(lines[0])
        assert writing.wait(timeout=30)  # the lone line is scored here and its write waits
        for line in lines[1:]:
            feed.put(line)
        wait_for(lambda: taken[0] == len(lines))  # all eight are in flight at once
        gate.set()
        feed.put(None)
        finished = 0
        while len(out) < len(lines):
            wait_for(lambda: len(pool.chunks) > finished or len(out) == len(lines))
            for chunk in pool.chunks[finished:]:
                assert sum(map(len, chunk)) <= limit, [len(c) for c in pool.chunks]
                pool.finish(finished)
                finished += 1
        server.join(timeout=30)
        assert not server.is_alive()
    finally:
        gate.set()
        feed.put(None)
    # Each of the first seven leaves as soon as the next one is pending; the
    # last goes to a worker, or is scored here when it finds none of the
    # stream's chunks at the workers.
    assert pool.chunks[:7] == [[line] for line in lines[1:8]]
    assert sorted(json.loads(text)["id"] for text in out) == sorted(["lone"] + [f"long-{i}" for i in range(8)])


def test_one_lone_line_at_a_time_is_scored_in_the_serving_process(perfect_fixture, monkeypatch):
    # Two streams share the workers, as TCP connections do. While stream
    # 0's lone line is scored in the serving process, stream 1's lone line
    # goes to the workers, so heavy lines of many connections are not all
    # scored in the serving process at once.
    scoring, release = threading.Event(), threading.Event()
    handle_chunk = service._handle_chunk

    def blocking_handle_chunk(world, lines):
        scoring.set()
        release.wait(timeout=30)
        return handle_chunk(world, lines)

    monkeypatch.setattr(service, "_handle_chunk", blocking_handle_chunk)
    pool = HandPool()
    lines = [fixture_request(perfect_fixture, request_id=f"s{i}") for i in range(2)]
    outs = [[], []]
    streams = [threading.Thread(target=serve_lines, args=([line], out.append, WORLD),
                                kwargs={"workers": (pool, 2)}, daemon=True) for line, out in zip(lines, outs)]
    try:
        streams[0].start()
        assert scoring.wait(timeout=30)
        streams[1].start()
        wait_for(lambda: pool.chunks == [[lines[1]]], timeout=5)
        pool.finish(0)
    finally:
        release.set()
    for stream in streams:
        stream.join(timeout=30)
        assert not stream.is_alive()
    assert outs == [[handle_request_line(line, WORLD)] for line in lines]


class InlinePool:
    """A stand-in pool that scores each chunk as it is submitted."""

    def __init__(self):
        self.chunks = 0

    def submit(self, fn, world, lines):
        self.chunks += 1
        future = Future()
        future.set_result(_handle_chunk(world, lines))
        return future


def test_lone_lines_of_many_streams_are_scored_here_one_at_a_time(perfect_fixture, monkeypatch):
    # Eight streams, more than the cores, under a short switch interval:
    # no two lone lines are ever scored in the serving process at once.
    handle_chunk = service._handle_chunk
    count_lock = threading.Lock()
    here, most = [0], [0]

    def counting_handle_chunk(world, lines):
        with count_lock:
            here[0] += 1
            most[0] = max(most[0], here[0])
        try:
            time.sleep(0.001)
            return handle_chunk(world, lines)
        finally:
            with count_lock:
                here[0] -= 1

    def paced(lines):  # one line at a time, so that most lines are lone
        for line in lines:
            time.sleep(0.002)
            yield line

    monkeypatch.setattr(service, "_handle_chunk", counting_handle_chunk)
    pool = InlinePool()
    batches = [[fixture_request(perfect_fixture, request_id=f"s{s}-{i}") for i in range(20)] for s in range(8)]
    outs = [[] for _ in batches]
    streams = [threading.Thread(target=serve_lines, args=(paced(lines), out.append, WORLD),
                                kwargs={"workers": (pool, 2)}, daemon=True) for lines, out in zip(batches, outs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for stream in streams:
            stream.start()
        for stream in streams:
            stream.join(timeout=60)
            assert not stream.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert most[0] == 1 and pool.chunks > 0  # scored here, one at a time, and at the pool
    assert [sorted(out) for out in outs] == [sorted(handle_request_line(line, WORLD) for line in lines)
                                             for lines in batches]


def test_pump_answers_every_line_read_before_input_fails(perfect_fixture):
    # A TCP connection reset surfaces as an OSError from the line reader:
    # every line read before it is answered, then serve_lines raises it.
    lines = request_batch(perfect_fixture, 40)

    def failing_input():
        yield from lines
        raise ConnectionResetError("connection reset")

    out = []
    with start_workers(2) as workers:
        with pytest.raises(ConnectionResetError):
            serve_lines(failing_input(), out.append, WORLD, workers=workers)
    seq = []
    serve_lines(iter(lines), seq.append, WORLD)
    assert sorted(out) == sorted(seq)


def test_pump_stops_reading_when_a_write_fails(perfect_fixture):
    # A client that goes away breaks the pipe: serve_lines raises the
    # write's error, and the reader stops taking lines from an endless
    # input within the in-flight budget.
    line = fixture_request(perfect_fixture)
    taken, reader = [0], []

    def endless_input():
        reader.append(threading.current_thread())
        while True:
            taken[0] += 1
            yield line

    written = []

    def write_line(text):
        if len(written) == 5:
            raise BrokenPipeError("reader went away")
        written.append(text)

    with start_workers(2) as workers:
        with pytest.raises(BrokenPipeError):
            serve_lines(endless_input(), write_line, WORLD, workers=workers)
    reader[0].join(timeout=30)
    assert not reader[0].is_alive()
    assert 5 < taken[0] <= service._MAX_PENDING + 1


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
    with start_workers(2) as workers:
        wait_up(workers)
        serve_lines(iter(lines), par.append, WORLD, workers=workers)
    assert sorted(par) == sorted(seq)


def dense_requests(n, prefix):
    # 450-700 bricks each, so a chunk of 32 keeps a worker busy for over 100 ms.
    builds, seed = [], 30_000
    while len(builds) < 8:
        target = random_target(seed=seed, fill_prob=0.5, grounded=True, world=WORLD)
        seed += 1
        s = legalize(target, ConstructorOptions(stagger=True), WORLD)
        if 450 <= len(s) <= 700:
            builds.append((serialize_structure(s), encode_target_voxels(rasterize(s, WORLD) > 0)))
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
    with start_workers(2) as workers:
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


def pool_size(threads):
    # The workers `serve --threads` starts: none when it scores in the serving process.
    count = service._worker_count(threads)
    return count if count > 1 else 0


def wait_serving(proc, transport, threads, stderr):
    # Until a stdio server has answered a request or a TCP one listens, and its pool's workers are ready.
    if transport == "stdio":
        proc.stdin.write(b'{"id": "up", "completion": "1x1 (0,0,0)", "target_points": "(0,0,0)"}\n')
        proc.stdin.flush()
        assert json.loads(proc.stdout.readline())["id"] == "up"
    else:
        assert wait_until(lambda: b"listening on" in stderr.read_bytes(), 60)
    assert wait_until(lambda: len(ready_workers(proc)) == pool_size(threads), 60)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads the server's processes from /proc")
@pytest.mark.parametrize("transport", ["stdio", "tcp"])
def test_sigterm_stops_serve_and_its_workers(transport, tmp_path):
    # subprocess.terminate(), docker stop and systemd all send SIGTERM. It once
    # killed the server (exit -15) and left its two workers and the resource
    # tracker running, so a trainer that restarted its reward server leaked
    # three processes each time. Now it stops the server as Ctrl-C does.
    stderr = tmp_path / "stderr"
    with open(stderr, "wb") as err, serve_process("--transport", transport, "--threads", "2", stdin=subprocess.PIPE,
                                                  stdout=subprocess.PIPE, stderr=err) as proc:
        wait_serving(proc, transport, 2, stderr)
        proc.terminate()
        assert proc.wait(timeout=30) == 0
        assert wait_until(lambda: not group_members(proc.pid), 10), group_members(proc.pid)
    errors = stderr.read_bytes()
    assert b"Traceback" not in errors, errors.decode(errors="replace")


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads the server's processes from /proc")
@pytest.mark.parametrize("threads", [1, 2])
def test_ctrl_c_stops_stdio_serve_quietly(threads, tmp_path):
    # Ctrl-C signals the terminal's whole foreground group. The stdio server
    # once died of it with a KeyboardInterrupt traceback (exit -2), and at two
    # workers about one run in two by SIGABRT (exit -6): the interpreter could
    # not close stdin at exit while the reader thread still waited in it.
    stderr = tmp_path / "stderr"
    for _ in range(3 if threads > 1 else 1):
        with open(stderr, "wb") as err, serve_process("--threads", str(threads), stdin=subprocess.PIPE,
                                                      stdout=subprocess.PIPE, stderr=err) as proc:
            wait_serving(proc, "stdio", threads, stderr)
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=30) == 0
            assert wait_until(lambda: not group_members(proc.pid), 10), group_members(proc.pid)
            assert proc.stdout.read() == b""
        errors = stderr.read_bytes()
        assert errors == b"", errors.decode(errors="replace")


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
    server = RewardTCPServer(("127.0.0.1", 0), WORLD)
    assert_invalid_utf8_answered(tcp_exchange(server, invalid_utf8_requests(perfect_fixture)))


def test_tcp_bind_failure_is_os_error():
    # A port in use is an OSError (EADDRINUSE), and the service binds
    # before it starts its pool, so no worker is spawned for it.
    before = set(multiprocessing.active_children())
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        with pytest.raises(OSError):
            RewardTCPServer(busy.getsockname(), WORLD)
        host, port = busy.getsockname()
        with pytest.raises(OSError):
            service.serve_rewards("tcp", port, host, WORLD, threads=2)
    assert set(multiprocessing.active_children()) == before


def test_tcp_round_trip(perfect_fixture):
    payload = fixture_request(perfect_fixture, request_id="tcp-1") + "\n"
    with start_workers(2) as workers:
        server = RewardTCPServer(("127.0.0.1", 0), WORLD, workers)
        rec = json.loads(tcp_exchange(server, payload.encode("utf-8")).decode("utf-8"))
    assert rec["id"] == "tcp-1" and rec["total"] == 10.0


def test_tcp_connections_share_workers(perfect_fixture):
    # Two connections at once on one server with two workers: both are
    # answered in full, and the lines of both reach the shared workers.
    with start_workers(2) as workers:
        server = RewardTCPServer(("127.0.0.1", 0), WORLD, workers)
        pool, _ = workers
        wait_up(workers)
        scored = []
        submit = pool.submit

        def recording_submit(fn, world, lines):
            scored.extend(json.loads(line)["id"] for line in lines)
            return submit(fn, world, lines)

        pool.submit = recording_submit
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
    server = RewardTCPServer(("127.0.0.1", 0), WORLD)
    assert_over_long_answered(tcp_exchange(server, over_long_requests(perfect_fixture)))
