"""rollout_*: light RL-rollout requests to `python -m brickeval serve` over stdio.

Four workloads share this code. Each fixes the service's worker count
and the traffic (see WORKLOADS), so each gated figure measures one path.
Two long-lived servers at that worker count carry the two load phases,
which take turns in CYCLES short segments:

1. saturating: the client writes as fast as the pipe accepts, so the
   service's in-flight window stays full, then waits for every response;
2. open loop at a fixed rate, each request timed from its scheduled send
   time.

Then come COLD_STARTS more spawns with one request each. Spawn to first
response of every server is a set-up sample. With --trace 1 the
open-loop lines are also replayed in-process through serve_lines, in
alternating untraced and traced rounds.
"""

from __future__ import annotations

import bisect
import json
import os
import subprocess
import sys
import threading
import time
from time import perf_counter

import numpy as np

import brickeval.rewards as rewards
import brickeval.service as service

from common import (Context, Outcome, Speed, cores, dur_us, keep_busy, latency_fields, on_cores, self_us,
                    shared_layers, vm_hwm_mib, wrap_layers)
from inputs import EXPECTED_ERROR, INLINE_ONLY, POINTS_ONLY, ROLLOUT_MIX, WORLD, Request, rollout_pool
from oracles import reward_mismatches
from perfstats import lateness, match_responses, open_loop_latencies, percentile, tail
from spans import NAME, TAG, Tracer

# workload -> (service worker count, request mix, distinct requests in the pool)
WORKLOADS = {
    "rollout_w1": (1, ROLLOUT_MIX, 300),
    "rollout_w2": (2, ROLLOUT_MIX, 300),
    "rollout_inline": (1, INLINE_ONLY, 150),
    "rollout_points": (1, POINTS_ONLY, 150),
}
# Open-loop send rate, requests per second. Chosen, not measured: about
# a third of the one-worker saturating rate on the mixed traffic, so the
# queue is mostly empty and latency is service time plus transport.
OPEN_LOOP_RATE = 200.0
CYCLES = 10  # each cycle runs one segment of both load phases
SATURATE_SHARE = 0.4  # of a cycle
OPEN_SHARE = 0.55  # of a cycle
COLD_STARTS = 5
BATCH = 16  # request lines per write in the saturating phase
TRACE_ROUNDS = 4
PROBE_EVERY = 2  # open loop: probe after every 2nd response
PROBE_SPLIT = 5  # ... with a fifth of a probe unit
PROBE_GAP_S = 0.002  # ... when at least this long remains before the next send
PROBE_NEAREST = 9
ORACLE_REQUESTS = 6
OUTCOMES = ("ok", "bad_request", "bad_target_encoding")


class Server:
    """A `brickeval serve` child with a thread that timestamps each response line."""

    def __init__(self, ctx: Context, threads: int, allowed: set[int]):
        self._stderr = open(ctx.work / f"serve-{threads}-{perf_counter()}.err", "wb")
        with on_cores(allowed):
            self.start = perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "brickeval", "serve", "--threads", str(threads)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
                env=ctx.env, cwd=ctx.work,
            )
        self.arrivals: list[tuple[float, bytes]] = []
        self._first = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.arrivals.append((perf_counter(), line))
            self._first.set()
        self._first.set()

    def send(self, lines: list[str]) -> None:
        self.proc.stdin.write("".join(line + "\n" for line in lines).encode("utf-8"))
        self.proc.stdin.flush()

    def first_response_s(self) -> float:
        """Seconds from spawn to the first response line."""
        if not self._first.wait(timeout=60) or not self.arrivals:
            raise RuntimeError("server gave no first response")
        return self.arrivals[0][0] - self.start

    def finish(self) -> float:
        """Read peak RSS, close stdin, and wait for every response; return VmHWM in MiB."""
        peak = vm_hwm_mib(self.proc.pid)
        self.proc.stdin.close()
        self._reader.join(timeout=120)
        if self.proc.wait(timeout=60) != 0 or self._reader.is_alive():
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        self._stderr.close()
        return peak

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._stderr.close()


class Checks:
    """Checks service responses against what each request's kind requires."""

    def __init__(self, outcome: Outcome, pool: list[Request], seed: int):
        self.outcome = outcome
        self.pool = pool
        self.first: dict[int, dict] = {}
        self.rng = np.random.default_rng([seed, 8])

    def check(self, entry: int, request_id: str | None, response: dict, what: str) -> None:
        request = self.pool[entry]
        kind = request.case.kind
        problems = []
        want_id = None if kind == "bad_json" else request_id
        if response.get("id") != want_id:
            problems.append(f"id {response.get('id')!r}, want {want_id!r}")
        expected_error = EXPECTED_ERROR.get(kind)
        if response.get("error_code") != expected_error:
            problems.append(f"error_code {response.get('error_code')!r}, want {expected_error!r}")
        elif expected_error is None:
            problems += _scored_problems(kind, response, request)
        body = {k: v for k, v in response.items() if k != "id"}
        if self.first.setdefault(entry, body) != body:
            problems.append("differs from an earlier response to the same request")
        self.outcome.record(problems, f"{what} ({kind})")

    def check_oracles(self) -> None:
        """Compare a seeded subset of the scored responses seen with the oracles."""
        scored = sorted(e for e, body in self.first.items()
                        if "error_code" not in body and self.pool[e].case.structure is not None)
        for entry in self.rng.choice(scored, min(ORACLE_REQUESTS, len(scored)), replace=False):
            case = self.pool[int(entry)].case
            self.outcome.record(reward_mismatches(self.first[int(entry)], case.structure, case.target),
                                f"request {int(entry)} ({case.kind}) vs oracles")


def _scored_problems(kind: str, r: dict, request: Request) -> list[str]:
    if kind in ("malformed", "empty"):
        return [] if r["parse_failed"] and r["total"] == -10.0 else [f"parse_failed={r['parse_failed']}"]
    if r["parse_failed"]:
        return ["parse failed"]
    if kind == "colliding":
        return [] if r["n_col"] > 0 and not r["feasible"] else [f"n_col={r['n_col']} feasible={r['feasible']}"]
    if kind == "out_of_bounds":
        return [] if not r["in_bounds"] and not r["feasible"] else [f"in_bounds={r['in_bounds']}"]
    ok = (r["n_col"] == 0 and r["iou"] == 1.0 and r["feasible"] and r["in_bounds"]
          and r["r_conn"] == 2.0 and r["brick_count"] == len(request.case.structure))
    return [] if ok else [f"legalized build scored n_col={r['n_col']} iou={r['iou']} feasible={r['feasible']}"]


class Load:
    """One long-lived server, everything sent to it, and its timed segments."""

    def __init__(self, ctx: Context, pool: list[Request], threads: int, tag: str, speed: Speed,
                 allowed: set[int]):
        self.pool, self.tag = pool, tag
        before = speed.probe()
        self.server = Server(ctx, threads, allowed)
        entry = next(i for i, r in enumerate(pool) if r.case.kind != "bad_json")
        self.sent: list[tuple[int, str]] = [(entry, f"{tag}-warm")]
        self.server.send([pool[entry].line(f"{tag}-warm")])
        first = self.server.first_response_s()
        self.setup_s = (first, first * (before + speed.probe()) / 2)  # raw, scaled
        self.k = 0
        self.scheduled: dict[int, float] = {}  # open loop: index in sent -> scheduled send time
        self.late: list[float] = []
        self.probes: list[tuple[float, float]] = []  # open loop: (time, speed factor)
        self.match: list[int | None] = []

    def _next(self, n: int) -> list[tuple[int, str]]:
        batch = [((self.k + j) % len(self.pool), f"{self.tag}-{self.k + j}") for j in range(n)]
        self.k += n
        self.sent += batch
        return batch

    def _drain(self, timeout: float = 60.0) -> None:
        deadline = perf_counter() + timeout
        while len(self.server.arrivals) < len(self.sent):
            if perf_counter() > deadline or self.server.proc.poll() is not None:
                raise RuntimeError(f"server {self.tag} stopped answering")
            time.sleep(0.0005)

    def saturate(self, seconds: float) -> tuple[int, float, int]:
        """Keep the pipe full for the given time, then drain; return (responses, seconds, in-flight HWM)."""
        arrivals = self.server.arrivals
        base = len(arrivals)
        inflight_hwm = 0
        start = perf_counter()
        deadline = start + seconds
        while perf_counter() < deadline:
            self.server.send([self.pool[entry].line(rid) for entry, rid in self._next(BATCH)])
            inflight_hwm = max(inflight_hwm, len(self.sent) - len(arrivals))
        self._drain()
        return len(arrivals) - base, arrivals[-1][0] - start, inflight_hwm

    def open_loop(self, seconds: float, speed: Speed) -> None:
        """Send at OPEN_LOOP_RATE on a fixed schedule, recording when each request was due and sent.

        The program core is probed in the idle gaps after every
        PROBE_EVERY-th response.
        """
        first = len(self.sent)
        batch = self._next(max(1, int(OPEN_LOOP_RATE * seconds)))
        lines = [self.pool[entry].line(rid) for entry, rid in batch]
        arrivals = self.server.arrivals
        start = perf_counter() + 0.02
        for i, line in enumerate(lines):
            due = start + i / OPEN_LOOP_RATE
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            self.server.send([line])
            self.late += lateness([due], [perf_counter()])
            self.scheduled[first + i] = due
            if i % PROBE_EVERY == 0:
                gap_ends = due + 1.0 / OPEN_LOOP_RATE - PROBE_GAP_S
                while len(arrivals) <= first + i and perf_counter() < gap_ends:
                    time.sleep(0.0002)
                if len(arrivals) > first + i and perf_counter() < gap_ends:
                    self.probes.append((perf_counter(), speed.probe(units=1, split=PROBE_SPLIT)))
        self._drain()

    def check(self, checks: Checks, outcome: Outcome) -> None:
        """Match responses to requests by id and check each."""
        responses = [json.loads(line) for _, line in self.server.arrivals]
        readable = [None if self.pool[entry].case.kind == "bad_json" else rid for entry, rid in self.sent]
        self.match, extra = match_responses(readable, [r.get("id") for r in responses])
        for (entry, rid), j in zip(self.sent, self.match):
            if j is not None:
                checks.check(entry, rid, responses[j], self.tag)
        missing = self.match.count(None)
        if missing:
            outcome.record([f"{missing} requests got no response"], self.tag, missing)
        if extra:
            outcome.record([f"{len(extra)} responses with an unknown, repeated or surplus id"], self.tag,
                           len(extra))

    def open_latencies(self, speed: Speed) -> tuple[list[int], list[float], list[float]]:
        """Open-loop requests that were answered, with their latency as measured and scaled by speed.

        Each latency runs from the request's scheduled send time and is
        scaled by the median of the PROBE_NEAREST probes nearest to it.
        """
        answered = [i for i in sorted(self.scheduled) if self.match[i] is not None]
        due = [self.scheduled[i] for i in answered]
        raw = open_loop_latencies(due, [self.server.arrivals[self.match[i]][0] for i in answered])
        probes = self.probes or [(perf_counter(), speed.probe())]
        times = [t for t, _ in probes]
        scaled = []
        for when, latency in zip(due, raw):
            k = bisect.bisect(times, when)
            near = probes[max(0, k - PROBE_NEAREST // 2):k + PROBE_NEAREST // 2 + 1]
            scaled.append(latency * percentile([f for _, f in near], 50.0))
        return answered, raw, scaled


def _replay(lines: list[str]) -> tuple[list[str], float]:
    """Serve the lines in-process through serve_lines, one worker; return responses and elapsed seconds."""
    out: list[str] = []
    start = perf_counter()
    service.serve_lines([line + "\n" for line in lines], out.append, WORLD, threads=1)
    return out, perf_counter() - start


def _outcome_tag(args, result: str) -> str:
    return json.loads(result).get("error_code") or "ok"


def _traced_replay(outcome: Outcome, pool: list[Request], lines: list[str], server_lines: list[bytes],
                   open_latencies: list[float]) -> None:
    tracer = Tracer()
    counter = iter(range(len(lines)))
    untraced_out: list[str] = []
    traced_out: list[str] = []
    untraced_s = traced_s = 0.0
    # Untraced and traced rounds alternate over chunks of the lines, so
    # drift in machine speed does not show up as tracing overhead.
    step = -(-len(lines) // TRACE_ROUNDS)
    for lo in range(0, len(lines), step):
        chunk = lines[lo:lo + step]
        out, elapsed = _replay(chunk)
        untraced_out += out
        untraced_s += elapsed
        with tracer:
            tracer.wrap(service, "handle_request_line", "service.handle", tag=_outcome_tag,
                        rid=lambda a: next(counter))
            wrap_layers(tracer, service, "decode_target_voxels", "parse_pointcloud")
            tracer.wrap(service, "score_completion", "rewards.score")
            wrap_layers(tracer, rewards, "parse_structure", "analyze_with_occupancy", "reward_shape")
            out, elapsed = _replay(chunk)
        traced_out += out
        traced_s += elapsed
    for what, got in (("untraced", untraced_out), ("traced", traced_out)):
        same = len(got) == len(server_lines) and all(
            a.encode("utf-8") + b"\n" == b for a, b in zip(got, server_lines))
        outcome.record([] if same else [f"in-process {what} replay differs from the server's bytes"],
                       f"{what} replay", len(lines))

    handles = [s for s in tracer.spans if s[NAME] == "service.handle"]
    waits = [(lat - (s[2] - s[1])) * 1e3 for lat, s in zip(open_latencies, handles, strict=True)]
    scored = sum(1 for s in tracer.spans if s[NAME] == "rewards.score")
    shared_layers(outcome, tracer, [r.case.structure for r in pool if r.case.structure is not None],
                  [r.case.target for r in pool if r.case.target is not None])
    selfs = tracer.self_times()
    outcome.layer("rewards.score_self_us", self_us(tracer, selfs, "rewards.score"), "us")
    for tag in OUTCOMES:
        outcome.layer(f"service.handle_us.{tag}", dur_us(tracer, "service.handle", tag), "us")
    outcome.layer("service.self_us", self_us(tracer, selfs, "service.handle"), "us")
    outcome.layer("service.wait_ms_p50", percentile(waits, 50.0), "ms")
    outcome.layer("service.wait_ms_p99", tail(waits)[1], "ms")
    for tag in OUTCOMES:
        outcome.layer(f"service.responses.{tag}", sum(1 for s in handles if s[TAG] == tag), "count")
    outcome.layer("service.scored_share", scored / len(lines), "ratio")
    outcome.layer("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%")
    outcome.raw.update(replay_untraced_s=untraced_s, replay_traced_s=traced_s, wait_ms=waits)
    outcome.tracer = tracer


def run(ctx: Context, workload: str) -> Outcome:
    threads, mix, pool_size = WORKLOADS[workload]
    outcome = Outcome()
    pool = rollout_pool(ctx.seed, mix, pool_size)
    checks = Checks(outcome, pool, ctx.seed)
    # A one-worker server runs on the program core and the client on the
    # other, so probing the program core between segments measures the
    # core the server ran on. A two-worker server may use both cores, so
    # its saturating segments are scaled by the mean of both cores' factors.
    program_core, client_core = cores()
    os.sched_setaffinity(0, {client_core})
    speed = Speed(program_core)
    if threads == 1:
        allowed, probes = {program_core}, (speed,)
    else:
        allowed, probes = {program_core, client_core}, (speed, Speed(client_core))
    loads: list[Load] = []
    seg = ctx.seconds / CYCLES
    segments: list[tuple[int, float, float]] = []  # saturating: (responses, seconds, speed factor)
    inflight_hwm = 0
    try:
        sat = Load(ctx, pool, threads, "sat", speed, allowed)
        loads.append(sat)
        ol = Load(ctx, pool, threads, "open", speed, allowed)
        loads.append(ol)
        # The phases take turns in short segments, so each sees the whole
        # run's machine states rather than one stretch of it.
        with keep_busy({program_core, client_core}):
            for _ in range(CYCLES):
                before = [p.probe() for p in probes]
                n, elapsed, hwm = sat.saturate(seg * SATURATE_SHARE)
                factor = (sum(before) + sum(p.probe() for p in probes)) / (2 * len(probes))
                segments.append((n, elapsed, factor))
                inflight_hwm = max(inflight_hwm, hwm)
                ol.open_loop(seg * OPEN_SHARE, speed)
        peak = max(load.server.finish() for load in loads)
        for _ in range(COLD_STARTS):
            loads.append(Load(ctx, pool, threads, f"cold{len(loads)}", speed, allowed))
            loads[-1].server.finish()
    finally:
        for load in loads:
            load.server.kill()
    for load in loads:
        load.check(checks, outcome)
    checks.check_oracles()
    answered, open_raw, open_scaled = ol.open_latencies(speed)
    setup = [load.setup_s for load in loads]

    # The median segment, so a segment caught in a passing slow state does not move the figure.
    rps = percentile([n / (t * f) for n, t, f in segments], 50.0)
    responses = sum(n for n, _, _ in segments)
    outcome.name(f"rps_w{threads}", rps, "1/s", f"median of {len(segments)} segments, n={responses}")
    p50 = latency_fields(outcome, "req", open_scaled)
    late_ms = [x * 1e3 for x in ol.late]
    outcome.name("generator_late_p50_ms", percentile(late_ms, 50.0), "ms", f"rate={OPEN_LOOP_RATE:g}/s")
    outcome.name("generator_late_max_ms", max(late_ms), "ms")
    outcome.name("peak_rss_mib", peak, "MiB", "server VmHWM, max over the two load servers")
    outcome.e2e.update(ops_per_s=rps, p50_ms=p50, peak_rss_mib=peak,
                       setup_s=percentile([s for _, s in setup], 50.0))
    outcome.unscaled.update(ops_per_s=percentile([n / t for n, t, _ in segments], 50.0), p50_ms=percentile(open_raw, 50.0) * 1e3,
                            setup_s=percentile([r for r, _ in setup], 50.0))
    outcome.raw.update(open_latency_s=open_raw, open_latency_scaled_s=open_scaled, open_late_s=ol.late,
                       setup_s=setup, saturated=segments, speed_factors=speed.factors,
                       inflight_hwm=inflight_hwm)

    if ctx.trace and not outcome.failed:
        outcome.layer_factor = speed.run_factor()
        outcome.layer("service.inflight_hwm", inflight_hwm, "count")
        lines = [ol.pool[ol.sent[i][0]].line(ol.sent[i][1]) for i in answered]
        server_lines = [ol.server.arrivals[ol.match[i]][1] for i in answered]
        _traced_replay(outcome, pool, lines, server_lines, open_raw)
    return outcome
