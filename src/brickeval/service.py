"""Streaming reward service: newline-delimited JSON over stdio or TCP.

Each request line is a JSON object {"id", "completion", and exactly one
of "target_voxels" (codec string) or "target_points" (point-token
text)}. Each response line echoes the id with the reward breakdown, or
{"id", "error_code"} where error_code is "bad_request" (unreadable or
mistyped request, a line that is not UTF-8 among them; id is null when
it cannot be recovered) or "bad_target_encoding" (target failed to
decode). Both transports read bytes and decode each line on its own, so
one bad line costs only its own response. A line longer than
max_line_bytes(world) is answered {"id": null, "error_code":
"bad_request"}; it is read and dropped in bounded pieces, never held
whole. Scoring is pure, so responses are byte-identical for identical
request lines. A request is scored for its reward terms only: no term
reads seam coverage, so the service never computes it (analyze and
eval still do).

With one worker (the default) requests are scored in order in the
serving thread. With N > 1 (capped at the usable CPU cores, since
scoring is CPU-bound), a pool of that many spawned processes scores
them: request lines go to a free worker in chunks of whatever has
arrived (at most 32 lines), so nothing waits for a chunk to fill and a
burst is sent in few messages. A worker reads each line of a chunk on
its own and hands the completions to rewards.score_completions, which
parses each of them and analyzes the chunk's light structures (brick
area at most 1/16 of the world's voxels) in one batched pass when there
are two or more; a lone line, a lone light structure and every denser
structure are scored alone, as with one worker, and every response is
the one handle_request_line gives. A lone request while none of its
stream's requests is at a worker is scored in the serving process
instead. Responses may then leave in a different order than the
requests arrived; ids are the correlation key. A TCP server shares one
pool among all its connections. If a worker dies, the pool is broken
for good: the serving process scores the chunks it lost and every
later one itself, so the stream is still answered in full, at the
speed of one worker, and says so once per stream in a line on stderr.
An exception raised while scoring is a program bug, not a bad request:
its traceback goes to stderr, and the request is still answered
bad_request with its id. Nothing but responses goes to stdout. In
either mode at most 128 requests are in flight, so a slow reader
throttles intake. End of input flushes pending responses and exits
cleanly.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socketserver
import sys
import threading
import traceback
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

from .core import WorldConfig, DEFAULT_WORLD
from .dataset import BadRecord, CodecError, decode_target_voxels, read_pair, read_record
from .rewards import CHUNK_SIZE, RewardBreakdown, score_completion, score_completions
from .tokens import MalformedPointToken, OutOfWorldCoordinate, parse_pointcloud

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    import numpy as np

_MAX_PENDING = 128  # requests in flight before intake stalls
# Stands in for a line over the length bound: it is not UTF-8, so it is
# answered as any undecodable line is, with bad_request and a null id.
_OVER_LONG = b"\xff over-long line"
_RESPONSE_FIELDS = (
    "total",
    "r_col",
    "r_shape",
    "r_inter",
    "r_conn",
    "iou",
    "n_col",
    "parse_failed",
    "feasible",
    "in_bounds",
    "brick_count",
)


def _error(request_id: str | None, code: str) -> str:
    return json.dumps({"id": request_id, "error_code": code})


def _response(request_id: str, breakdown: RewardBreakdown) -> str:
    record: dict = {"id": request_id}
    for name in _RESPONSE_FIELDS:
        record[name] = getattr(breakdown, name)
    return json.dumps(record)


def _read_request(line: str | bytes, world: WorldConfig) -> str | tuple[str, str, np.ndarray]:
    """A request line's error response, or its id, completion and decoded target."""
    try:
        obj = read_record(line)
    except BadRecord:
        return _error(None, "bad_request")
    request_id = obj.get("id")
    if not isinstance(request_id, str):
        return _error(None, "bad_request")
    try:
        completion, voxels, points = read_pair(obj)
    except BadRecord:
        return _error(request_id, "bad_request")
    try:
        target = (decode_target_voxels(voxels, world) if voxels is not None
                  else parse_pointcloud(points, world))
    except (CodecError, MalformedPointToken, OutOfWorldCoordinate):
        return _error(request_id, "bad_target_encoding")
    return request_id, completion, target


def handle_request_line(line: str | bytes, world: WorldConfig) -> str:
    """Score one request line, text or strict UTF-8 bytes; never raises."""
    request = _read_request(line, world)
    if isinstance(request, str):
        return request
    request_id, completion, target = request
    try:
        return _response(request_id, score_completion(completion, target, world))
    except Exception:  # a program bug, not a bad request: the traceback says which
        traceback.print_exc()
        return _error(request_id, "bad_request")


def max_line_bytes(world: WorldConfig) -> int:
    """Longest request line read, newline excluded: 1 MiB or 64 bytes a voxel, if more.

    A full-world point list with a full-world completion of 1x1 bricks
    takes about 25 bytes a voxel (200 KB in a 20x20x20 world), so every
    valid request fits.
    """
    return max(1 << 20, 64 * world.n_voxels)


def read_lines(stream: BinaryIO, world: WorldConfig) -> Iterator[bytes]:
    """Lines of a byte stream, none longer than max_line_bytes(world).

    An over-long line comes out as a short line answered bad_request;
    the rest of it is read up to its newline in bounded pieces and dropped.
    """
    limit = max_line_bytes(world)
    while line := stream.readline(limit + 1):
        if len(line) > limit and not line.endswith(b"\n"):
            while line and not line.endswith(b"\n"):
                line = stream.readline(limit)
            line = _OVER_LONG
        yield line


def _handle_chunk(world: WorldConfig, lines: list[str | bytes]) -> list[str]:
    """handle_request_line's response to each line, with the lines' completions scored together.

    Each line is read as handle_request_line reads it; score_completions
    then parses and scores the completions of all readable lines in one
    call, which analyzes the light ones in one pass. If that call raises,
    its traceback goes to stderr and each of its lines is answered by
    handle_request_line.
    """
    responses = [_read_request(line, world) for line in lines]
    scored = [i for i, request in enumerate(responses) if not isinstance(request, str)]
    try:
        breakdowns = score_completions([responses[i][1] for i in scored],
                                       [responses[i][2] for i in scored], world)
    except Exception:
        traceback.print_exc()
        breakdowns = None
    for k, i in enumerate(scored):
        responses[i] = (handle_request_line(lines[i], world) if breakdowns is None
                        else _response(responses[i][0], breakdowns[k]))
    return responses


def _worker_init() -> None:
    # The serving process owns shutdown; workers just stop with it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_count(threads: int) -> int:
    """Scoring processes worth running for a requested count: no more than usable cores.

    Scoring is CPU-bound, so workers beyond the cores only take turns.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    return max(1, min(threads, cores))


def start_workers(count: int) -> ProcessPoolExecutor:
    """A pool of count spawned processes that score chunks of request lines.

    Spawning starts each worker from a fresh interpreter, which is safe
    whatever threads the serving process runs, but a worker needs a few
    hundred milliseconds to import the scorer, so all of them are started
    now. A script that starts workers must do so under
    `if __name__ == "__main__":`, since each worker imports the script's
    main module again.
    """
    import multiprocessing  # only a multi-worker service pays for these
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(count, mp_context=spawn, initializer=_worker_init)
    for _ in range(count):
        pool.submit(int)  # a submit that finds no idle worker starts one
    return pool


def serve_lines(
    lines: Iterable[str | bytes],
    write_line: Callable[[str], None],
    world: WorldConfig = DEFAULT_WORLD,
    threads: int = 1,
    workers: ProcessPoolExecutor | None = None,
) -> None:
    """Pump request lines through the scorer; blocks until input ends.

    Blank lines are skipped. With a worker pool passed in, or when
    _worker_count(threads) > 1, lines are scored in worker processes and
    responses are written as they finish.
    """
    own = workers is None
    if own and _worker_count(threads) <= 1:
        for line in lines:
            if line.strip():
                write_line(handle_request_line(line, world))
        return
    if own:
        workers = start_workers(_worker_count(threads))
    try:
        _pump(lines, write_line, world, workers)
    finally:
        if own:
            workers.shutdown(wait=False, cancel_futures=True)


def _pump(
    lines: Iterable[str | bytes],
    write_line: Callable[[str], None],
    world: WorldConfig,
    workers: ProcessPoolExecutor,
) -> None:
    """Feed lines to the workers in chunks and write their responses.

    A reader thread takes one unit of the in-flight budget per line, so
    it stalls once _MAX_PENDING lines await a response. This thread owns
    every write: it collects arriving lines and finished chunks from
    one queue, and sends the collected lines on whenever CHUNK_SIZE
    have gathered or nothing else is waiting. Once a worker has died the
    pool is broken, and this thread scores every chunk itself; the first
    time a stream finds the pool broken, it says so in one stderr line.
    """
    from concurrent.futures.process import BrokenProcessPool

    events: queue.SimpleQueue = queue.SimpleQueue()
    budget = threading.Semaphore(_MAX_PENDING)
    stopping = threading.Event()
    broken = False

    def score_here(chunk: list[str | bytes]) -> list[str]:
        nonlocal broken
        if not broken:
            broken = True
            print("worker pool broken: the serving process now scores the chunks", file=sys.stderr, flush=True)
        return _handle_chunk(world, chunk)

    def read() -> None:
        try:
            for line in lines:
                if line.strip():
                    budget.acquire()
                    if stopping.is_set():
                        return
                    events.put(("line", line))
        except BaseException as exc:  # re-raised by the writer once in-flight lines are answered
            events.put(("end", exc))
        else:
            events.put(("end", None))

    def write(responses: list[str]) -> None:
        for response in responses:
            write_line(response)
            budget.release()

    threading.Thread(target=read, daemon=True).start()
    pending: list[str | bytes] = []
    in_flight = 0
    ended = False
    error: BaseException | None = None
    try:
        while not ended or in_flight or pending:
            kind, item = events.get()
            if kind == "line":
                pending.append(item)
            elif kind == "done":
                in_flight -= 1
                chunk, future = item
                try:
                    responses = future.result()
                except BrokenProcessPool:  # its worker died: score the chunk here
                    responses = score_here(chunk)
                write(responses)
            else:
                ended, error = True, item
            if pending and (len(pending) >= CHUNK_SIZE or events.empty()):
                # A lone line with none of this stream at the workers is
                # scored here, which saves its two trips between processes.
                if in_flight or len(pending) > 1:
                    try:
                        future = workers.submit(_handle_chunk, world, pending)
                    except BrokenProcessPool:
                        write(score_here(pending))
                    else:
                        future.add_done_callback(
                            lambda f, chunk=pending: events.put(("done", (chunk, f))))
                        in_flight += 1
                else:
                    write(_handle_chunk(world, pending))
                pending = []
    finally:
        stopping.set()
        budget.release(_MAX_PENDING)  # unblock the reader if it waits on the budget
    if error is not None:
        raise error


def serve_stdio(world: WorldConfig = DEFAULT_WORLD, threads: int = 1) -> int:
    """Serve requests from stdin to stdout until end of input."""
    out = sys.stdout

    def write_line(text: str) -> None:
        out.write(text + "\n")
        out.flush()

    serve_lines(read_lines(sys.stdin.buffer, world), write_line, world, threads)
    out.flush()
    return 0


class RewardTCPServer(socketserver.ThreadingTCPServer):
    """One scoring stream per connection; responses stay on their connection.

    With threads > 1 every connection shares one pool of worker processes.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], world: WorldConfig, threads: int):
        # Set before the bind: a failed bind calls server_close, which reads it.
        self.workers = None
        super().__init__(address, _TCPHandler)
        self.world = world
        count = _worker_count(threads)
        if count > 1:
            self.workers = start_workers(count)

    def server_close(self) -> None:
        super().server_close()
        if self.workers is not None:
            self.workers.shutdown(wait=False, cancel_futures=True)
            self.workers = None


class _TCPHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: RewardTCPServer = self.server  # type: ignore[assignment]

        def write_line(text: str) -> None:
            self.wfile.write((text + "\n").encode("utf-8"))

        try:
            serve_lines(read_lines(self.rfile, server.world), write_line, server.world,
                        workers=server.workers)
        except (BrokenPipeError, ConnectionResetError):
            pass


def serve_rewards(
    transport: str = "stdio",
    port: int = 0,
    host: str = "127.0.0.1",
    world: WorldConfig = DEFAULT_WORLD,
    threads: int = 1,
) -> int:
    """Run the service until end of input (stdio) or interrupt (tcp)."""
    if transport == "stdio":
        return serve_stdio(world, threads)
    if transport == "tcp":
        with RewardTCPServer((host, port), world, threads) as server:
            print(f"listening on {server.server_address[0]}:{server.server_address[1]}",
                  file=sys.stderr, flush=True)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
        return 0
    raise ValueError(f"unknown transport {transport!r}")
