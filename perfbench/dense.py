"""dense_score: closed-loop score_completion on dense legalized builds, one thread."""

from __future__ import annotations

import gc
import itertools
import os
from dataclasses import asdict
from time import perf_counter

import numpy as np

import brickeval.rewards as rewards
from brickeval import encode_target_voxels

from common import (Context, Outcome, Scaler, Speed, cold_start_s, cores, latency_fields, self_us, shared_layers,
                    vm_hwm_mib, wrap_layers)
from inputs import WORLD, dense_cases
from oracles import reward_mismatches
from perfstats import percentile
from spans import Tracer

SETUP_REPEATS = 7
ORACLE_CASES = 2
TRACE_ROUNDS = 4
PROBE_EVERY_S = 0.1


def _expect_exact_build(rb, case) -> list[str]:
    """A legalized grounded build scored against its own occupancy."""
    problems = []
    if rb.parse_failed or not rb.feasible or not rb.in_bounds:
        problems.append(f"parse_failed={rb.parse_failed} feasible={rb.feasible} in_bounds={rb.in_bounds}")
    if rb.n_col != 0 or rb.iou != 1.0:
        problems.append(f"n_col={rb.n_col} iou={rb.iou}")
    if rb.brick_count != len(case.structure) or rb.r_conn != 2.0:
        problems.append(f"brick_count={rb.brick_count} r_conn={rb.r_conn}")
    return problems


def _loop(cases, seconds: float, outcome: Outcome, first: dict, scaler: Scaler, key: str) -> None:
    """Score cases round-robin for the given time, adding each call's seconds to scaler[key]."""
    deadline = perf_counter() + seconds
    i = 0
    gc.collect()
    while perf_counter() < deadline:
        scaler.tick()
        case = cases[i % len(cases)]
        score = rewards.score_completion  # looked up per call so a tracer wrapper is seen
        start = perf_counter()
        rb = score(case.completion, case.target, WORLD)
        scaler.add(key, perf_counter() - start)
        problems = _expect_exact_build(rb, case)
        if first.setdefault(i % len(cases), rb) != rb:
            problems.append("differs from the first score of the same input")
        outcome.record(problems, f"dense case {i % len(cases)}")
        i += 1


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    cases = dense_cases(ctx.seed)

    (ctx.work / "completion.txt").write_text(cases[0].completion, encoding="utf-8")
    (ctx.work / "target.txt").write_text(encode_target_voxels(cases[0].target), encoding="ascii")
    argv = ["score", "--target", "target.txt", "--completion", "completion.txt"]
    program_core, _ = cores()
    os.sched_setaffinity(0, {program_core})  # timed work and the probe share one core
    speed = Speed(program_core)
    setup = [cold_start_s(ctx, argv, speed) for _ in range(SETUP_REPEATS)]  # (raw, scaled) seconds

    first: dict = {}
    scaler = Scaler(speed, PROBE_EVERY_S)
    if ctx.trace:
        # Untraced and traced rounds alternate, so drift in machine speed
        # during the run does not show up as tracing overhead.
        tracer = Tracer()
        counter = itertools.count()
        for _ in range(TRACE_ROUNDS):
            _loop(cases, ctx.seconds / (2 * TRACE_ROUNDS), outcome, first, scaler, "untraced")
            with tracer:
                tracer.wrap(rewards, "score_completion", "rewards.score", rid=lambda a: next(counter))
                wrap_layers(tracer, rewards, "parse_structure", "analyze_with_occupancy", "reward_shape")
                _loop(cases, ctx.seconds / (2 * TRACE_ROUNDS), outcome, first, scaler, "traced")
                scaler.flush()
    else:
        _loop(cases, ctx.seconds, outcome, first, scaler, "untraced")
    scaler.flush()
    latencies = scaler.scaled["untraced"]

    rng = np.random.default_rng([ctx.seed, 9])
    for k in rng.choice(len(cases), ORACLE_CASES, replace=False):
        case = cases[int(k)]
        outcome.record(reward_mismatches(asdict(first[int(k)]), case.structure, case.target),
                       f"dense case {int(k)} vs oracles")

    rate = len(latencies) / sum(latencies)
    p50 = latency_fields(outcome, "score", latencies)
    outcome.name("scores_per_s", rate, "1/s", f"n={len(latencies)}")
    outcome.e2e.update(ops_per_s=rate, p50_ms=p50, peak_rss_mib=vm_hwm_mib(),
                       setup_s=percentile([s for _, s in setup], 50.0))
    raw = scaler.raw["untraced"]
    outcome.unscaled.update(ops_per_s=len(raw) / sum(raw), p50_ms=percentile(raw, 50.0) * 1e3,
                            setup_s=percentile([r for r, _ in setup], 50.0))
    outcome.raw.update(score_s=scaler.raw, score_scaled_s=scaler.scaled, setup_s=setup,
                       speed_factors=speed.factors, brick_counts=[len(c.structure) for c in cases])

    if ctx.trace:
        outcome.layer_factor = speed.run_factor()
        shared_layers(outcome, tracer, [c.structure for c in cases], [c.target for c in cases])
        outcome.layer("rewards.score_self_us", self_us(tracer, tracer.self_times(), "rewards.score"), "us")
        traced = scaler.scaled["traced"]
        overhead = (sum(traced) / len(traced)) / (sum(latencies) / len(latencies)) - 1.0
        outcome.layer("trace.overhead_pct", overhead * 100.0, "%")
        outcome.tracer = tracer
    return outcome
