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
them in chunks of at most 32 request lines and at most max_line_bytes
between them (a longer line goes alone), so a worker analyzes about one
maximal line's cells at most; rewards.chunk_length states that rule, and
eval batches its pairs by it too. While some worker holds none of the
stream's chunks, whatever has arrived is sent as soon as nothing else
waits, so no line waits for a chunk to fill. While every worker holds
one, arriving lines gather and go as one chunk when a worker finishes,
or once the chunk is full, so a stream under load pays for few, large
chunks. A worker reads each line of a chunk on its own and hands the
completions to rewards.score_terms, which parses each of them and
analyzes all of the chunk's structures in one batched pass; every
response is the one handle_request_line gives, filled into one
template in place of a dict and json.dumps. If that
batched call raises, its traceback goes to stderr once and every line
of the chunk is answered by handle_request_line itself. A lone
request while none of its stream's requests is at a worker is scored
in the serving process instead, unless another stream's lone request
is being scored there. Responses may leave in a different order than
the requests arrived; ids are the correlation key. All streams borrow
one pool, which start_workers owns. If a worker dies, the pool is
broken for good: the serving process scores the chunks it lost and
every later one itself, so the stream is still answered in full, at
the speed of one worker, and says so once per stream in a line on
stderr. An exception raised while scoring is a program bug, not a bad
request: its traceback goes to stderr, and the request is still answered
bad_request with its id. Nothing but responses goes to stdout. In either
mode at most 128 requests, of 8 MiB at most between them, are in flight
(a longer line waits until it is alone), so a slow reader throttles
intake. End of input flushes pending responses and exits cleanly;
SIGINT or SIGTERM stops serve_rewards, workers and all.
"""

from __future__ import annotations

import contextlib
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
from .rewards import CHUNK_SIZE, chunk_length, score_completion, score_terms
from .tokens import MalformedPointToken, OutOfWorldCoordinate, parse_pointcloud

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    import numpy as np

_MAX_PENDING = 128  # requests in flight before intake stalls
_MAX_PENDING_BYTES = 8 << 20  # request bytes in flight before intake stalls
_SCORING_HERE = threading.Lock()  # held while some stream scores a lone line in the serving process
# Stands in for a line over the length bound: it is not UTF-8, so it is
# answered as any undecodable line is, with bad_request and a null id.
_OVER_LONG = b"\xff over-long line"
# A scored response, as json.dumps writes the id and a breakdown's fields:
# floats by repr, as json writes them, and bools as true or false.
_RESPONSE = ('{"id": %s, "total": %r, "r_col": %r, "r_shape": %r, "r_inter": %r, "r_conn": %r, "iou": %r, '
             '"n_col": %d, "parse_failed": %s, "feasible": %s, "in_bounds": %s, "brick_count": %d}')
_JSON_BOOL = {False: "false", True: "true"}


def _error(request_id: str | None, code: str) -> str:
    return json.dumps({"id": request_id, "error_code": code})


def _response(request_id: str, terms: tuple) -> str:
    """The response to a scored request, from its RewardBreakdown fields in order (see rewards.score_terms)."""
    r_col, r_shape, r_inter, r_conn, total, parse_failed, feasible, iou, n_col, in_bounds, brick_count = terms
    return _RESPONSE % (json.dumps(request_id), total, r_col, r_shape, r_inter, r_conn, iou, n_col,
                        _JSON_BOOL[parse_failed], _JSON_BOOL[feasible], _JSON_BOOL[in_bounds], brick_count)


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
        breakdown = score_completion(completion, target, world)
        return _response(request_id, tuple(vars(breakdown).values()))  # its fields, in order
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

    Each line is read once, as handle_request_line reads it;
    score_terms then parses and scores the completions of all readable
    lines in one call, which analyzes them in one pass, and each response
    is filled from its terms with no RewardBreakdown built. If that
    call raises, its traceback goes to stderr once and every line of the
    chunk is answered by handle_request_line.
    """
    requests = [_read_request(line, world) for line in lines]
    scored = [request for request in requests if not isinstance(request, str)]
    try:
        terms = iter(score_terms([r[1] for r in scored], [r[2] for r in scored], world))
    except Exception:
        traceback.print_exc()
        return [handle_request_line(line, world) for line in lines]
    return [r if isinstance(r, str) else _response(r[0], next(terms)) for r in requests]


def _worker_count(threads: int) -> int:
    """Scoring processes worth running for a requested count: no more than usable cores.

    Scoring is CPU-bound, so workers beyond the cores only take turns.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    return max(1, min(threads, cores))


@contextlib.contextmanager
def start_workers(count: int) -> Iterator[tuple[ProcessPoolExecutor, int] | None]:
    """(pool, count) for count spawned processes that score chunks of request lines; None for one.

    The pool's one owner: callers only borrow it, and it is shut down on
    exit, waiting, since at interpreter exit a running manager thread's
    wake-up pipe may be closing (EBADF on stderr). A spawned worker is
    safe whatever threads the serving process runs, but needs a few
    hundred milliseconds to import the scorer, so all start at once.
    Workers ignore SIGINT: the serving process owns shutdown. Start them
    under `if __name__ == "__main__":`, as each imports the main module.
    """
    if count <= 1:
        yield None
        return
    import multiprocessing  # only a multi-worker service pays for these
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(count, mp_context=multiprocessing.get_context("spawn"),
                               initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        for _ in range(count):
            pool.submit(int)  # a submit that finds no idle worker starts one
        yield pool, count
    finally:
        pool.shutdown(cancel_futures=True)


def serve_lines(
    lines: Iterable[str | bytes],
    write_line: Callable[[str], None],
    world: WorldConfig = DEFAULT_WORLD,
    threads: int = 1,
    workers: tuple[ProcessPoolExecutor, int] | None = None,
) -> None:
    """Pump request lines through the scorer; blocks until input ends.

    Blank lines are skipped. With workers passed in (borrowed, as
    start_workers yields them), or else a pool of _worker_count(threads)
    > 1 started here, lines are scored by the workers and responses are
    written as they finish; otherwise each is scored here in turn.
    """
    lines = (line for line in lines if line.strip())
    with start_workers(_worker_count(threads)) if workers is None else contextlib.nullcontext(workers) as workers:
        if workers is None:
            for line in lines:
                write_line(handle_request_line(line, world))
        else:
            _pump(lines, write_line, world, *workers)


def _pump(
    lines: Iterable[str | bytes],
    write_line: Callable[[str], None],
    world: WorldConfig,
    workers: ProcessPoolExecutor,
    count: int,
) -> None:
    """Feed lines to a pool of count workers in chunks and write their responses.

    A reader thread admits a line only while fewer than _MAX_PENDING
    lines, holding at most _MAX_PENDING_BYTES with it, await a response;
    a longer line is admitted alone, once nothing is in flight. Each
    line's share comes back as its response is written, so a slow reader
    throttles intake in lines and in bytes. This thread owns every
    write: it collects arriving lines and finished chunks from one
    queue, and sends the collected lines on in chunks: a full chunk at
    once, and the rest when nothing else is waiting and fewer than count
    of this stream's chunks are at the workers. So while every worker is
    busy with the stream, its lines gather into the next chunk, which
    leaves when a chunk comes back. Once a worker has died the pool
    is broken, and this thread scores every chunk itself; the first time
    a stream finds the pool broken, it says so in one stderr line.
    """
    from concurrent.futures.process import BrokenProcessPool

    events: queue.SimpleQueue = queue.SimpleQueue()
    room = threading.Condition()
    held = [0, 0]  # lines and bytes in flight
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
                with room:
                    room.wait_for(lambda: stopping.is_set() or not held[0] or held[0] < _MAX_PENDING
                                  and held[1] + len(line) <= _MAX_PENDING_BYTES)
                    held[0] += 1
                    held[1] += len(line)
                if stopping.is_set():
                    return
                events.put(("line", line))
        except BaseException as exc:  # re-raised by the writer once in-flight lines are answered
            events.put(("end", exc))
        else:
            events.put(("end", None))

    def write(chunk: list[str | bytes], responses: list[str]) -> None:
        for line, response in zip(chunk, responses, strict=True):
            write_line(response)
            with room:
                held[0] -= 1
                held[1] -= len(line)
                room.notify()

    threading.Thread(target=read, daemon=True).start()
    pending: list[str | bytes] = []
    pending_bytes = 0
    limit = max_line_bytes(world)
    in_flight = 0
    ended = False
    error: BaseException | None = None
    try:
        while not ended or in_flight or pending:
            kind, item = events.get()
            if kind == "line":
                pending.append(item)
                pending_bytes += len(item)
            elif kind == "done":
                in_flight -= 1
                chunk, future = item
                try:
                    responses = future.result()
                except BrokenProcessPool:  # its worker died: score the chunk here
                    responses = score_here(chunk)
                write(chunk, responses)
            else:
                ended, error = True, item
            # A full chunk (rewards.chunk_length) leaves at once; the rest,
            # when nothing else waits and a worker is free.
            while pending and (len(pending) >= CHUNK_SIZE or pending_bytes >= limit
                               or events.empty() and in_flight < count):
                # A lone line with none of this stream at the workers is
                # scored here, which saves its two trips between processes,
                # unless another stream's lone line is being scored here.
                lone = not in_flight and len(pending) == 1 and _SCORING_HERE.acquire(blocking=False)
                size = chunk_length(pending, limit)
                chunk, pending = pending[:size], pending[size:]
                pending_bytes -= sum(map(len, chunk))
                if lone:
                    try:
                        responses = _handle_chunk(world, chunk)
                    finally:
                        _SCORING_HERE.release()
                    write(chunk, responses)
                    continue
                try:
                    future = workers.submit(_handle_chunk, world, chunk)
                except BrokenProcessPool:
                    write(chunk, score_here(chunk))
                else:
                    future.add_done_callback(lambda f, chunk=chunk: events.put(("done", (chunk, f))))
                    in_flight += 1
    finally:
        stopping.set()
        with room:
            room.notify()  # unblock the reader if it waits for room
    if error is not None:
        raise error


class RewardTCPServer(socketserver.ThreadingTCPServer):
    """One scoring stream per connection; responses stay on their connection.

    Every connection borrows workers, as start_workers yields them, or
    scores its lines in its own thread when there are none.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], world: WorldConfig,
                 workers: tuple[ProcessPoolExecutor, int] | None = None):
        super().__init__(address, _TCPHandler)
        self.world = world
        self.workers = workers


class _TCPHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: RewardTCPServer = self.server  # type: ignore[assignment]

        def write_line(text: str) -> None:
            self.wfile.write((text + "\n").encode("utf-8"))

        try:
            serve_lines(read_lines(self.rfile, server.world), write_line, server.world, workers=server.workers)
        except (BrokenPipeError, ConnectionResetError):
            pass


def serve_rewards(
    transport: str = "stdio",
    port: int = 0,
    host: str = "127.0.0.1",
    world: WorldConfig = DEFAULT_WORLD,
    threads: int = 1,
) -> int:
    """Run the service until end of input (stdio) or until SIGINT or SIGTERM (either transport); returns 0.

    Run it in the main thread, where Python delivers signals. SIGTERM
    stops the service as SIGINT (Ctrl-C) does: the interrupt unwinds the
    serving thread, whose cleanup shuts the worker pool down, so no
    worker outlives the service.
    """
    if transport not in ("stdio", "tcp"):
        raise ValueError(f"unknown transport {transport!r}")
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        if transport == "stdio":
            def write_line(text: str) -> None:
                sys.stdout.write(text + "\n")
                sys.stdout.flush()

            # A reader of its own, never closed: the pump's reader thread may still wait in it at exit,
            # holding its lock, which the interpreter would abort on if it were sys.stdin's. And fd 0
            # stays open, so that thread never reads a descriptor some other file has taken.
            stdin = open(sys.stdin.fileno(), "rb", closefd=False)
            serve_lines(read_lines(stdin, world), write_line, world, threads)
        else:
            with (RewardTCPServer((host, port), world) as server,  # bound first: a port in use starts no worker
                  start_workers(_worker_count(threads)) as server.workers):
                print(f"listening on {server.server_address[0]}:{server.server_address[1]}",
                      file=sys.stderr, flush=True)
                server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0
