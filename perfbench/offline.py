"""offline_*: the dataset/eval pipeline driven in-process through cli_dispatch.

Three workloads, one CLI step each, so each gated figure measures one
step: `construct --stagger` on one fixed grounded target grid per call,
`convert --mode grpo` on one chunk of a layout corpus per call, and
`eval --format records` on one chunk of a pairs corpus per call. Calls
repeat, cycling through the grids or chunks, until the time is up.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
from time import perf_counter

import numpy as np

import brickeval.cli as cli
import brickeval.dataset as dataset
import brickeval.metrics as metrics
from brickeval import PROMPT_TEMPLATE, SYSTEM_PROMPT, encode_target_voxels, parse_structure
from helpers import oracle_decode_voxels

from common import (Context, Outcome, Scaler, Speed, cold_start_s, cores, dur_us, latency_fields, self_us,
                    shared_layers, vm_hwm_mib, wrap_layers)
from inputs import WORLD, construct_grids, layout_corpus, pair_corpus
from oracles import oracle_occupancy, oracle_values
from perfstats import percentile
from spans import COUNT, END, NAME, RID, START, Tracer

# workload -> CLI step
WORKLOADS = {"offline_construct": "construct", "offline_convert": "convert", "offline_eval": "eval"}
GRIDS = 8
CHUNKS = 8
LAYOUTS_PER_CHUNK = 6
PAIRS_PER_CHUNK = 10
ITEMS = {"construct": 1, "convert": LAYOUTS_PER_CHUNK, "eval": PAIRS_PER_CHUNK}  # items per call
INPUTS = {"construct": GRIDS, "convert": CHUNKS, "eval": CHUNKS}  # distinct inputs, cycled
RATE_NAMES = {"construct": "construct_grids_per_s", "convert": "convert_records_per_s",
              "eval": "eval_pairs_per_s"}
SETUP_REPEATS = 7
ORACLE_PAIRS = 3
TRACE_ROUNDS = 4
PROBE_EVERY_S = 0.1


class Pipeline:
    """One step's inputs, written to the run's work directory, and the checks on its output."""

    def __init__(self, ctx: Context, outcome: Outcome, stage: str):
        self.ctx = ctx
        self.outcome = outcome
        self.stage = stage
        self.first_output: dict[int, str] = {}
        self.built = []  # construct: the structures written, as parsed back
        work = ctx.work
        if stage == "construct":
            self.grids = construct_grids(ctx.seed, GRIDS)
            for i, grid in enumerate(self.grids):
                (work / f"grid{i}.txt").write_text(encode_target_voxels(grid), encoding="ascii")
            self.structures, self.targets = [], self.grids
        elif stage == "convert":
            self.layouts = layout_corpus(ctx.seed, CHUNKS * LAYOUTS_PER_CHUNK)
            for c in range(CHUNKS):
                chunk = self.layouts[c * LAYOUTS_PER_CHUNK:(c + 1) * LAYOUTS_PER_CHUNK]
                (work / f"layouts{c}.jsonl").write_text(
                    "".join(json.dumps({"bricks": case.completion}) + "\n" for case in chunk), encoding="utf-8")
            (work / "layouts-one.jsonl").write_text(json.dumps({"bricks": self.layouts[0].completion}) + "\n",
                                                    encoding="utf-8")
            self.structures = [case.structure for case in self.layouts]
            self.targets = [case.target for case in self.layouts]
        else:
            self.pairs = pair_corpus(ctx.seed, CHUNKS * PAIRS_PER_CHUNK)
            self.oracle_pairs = {int(i) for i in np.random.default_rng([ctx.seed, 7]).choice(
                len(self.pairs), ORACLE_PAIRS, replace=False)}
            for c in range(CHUNKS):
                pairs = self.pairs[c * PAIRS_PER_CHUNK:(c + 1) * PAIRS_PER_CHUNK]
                (work / f"pairs{c}.jsonl").write_text(
                    "".join(json.dumps(record) + "\n" for _, record in pairs), encoding="utf-8")
            (work / "pairs-one.jsonl").write_text(json.dumps(self.pairs[0][1]) + "\n", encoding="utf-8")
            self.structures = [case.structure for case, _ in self.pairs if case.structure is not None]
            self.targets = [case.target for case, _ in self.pairs]

    def argv(self, index: int) -> list[str]:
        w = str(self.ctx.work)
        if self.stage == "construct":
            return ["construct", "--grid", f"{w}/grid{index}.txt", "--stagger", "--seed", str(index),
                    "--out", f"{w}/bricks{index}.txt"]
        if self.stage == "convert":
            return ["convert", "--input", f"{w}/layouts{index}.jsonl", "--output", f"{w}/records{index}.jsonl",
                    "--mode", "grpo"]
        return ["eval", "--pairs", f"{w}/pairs{index}.jsonl", "--out", f"{w}/report{index}.jsonl",
                "--format", "records"]

    def cold_argv(self) -> list[str]:
        """A one-item run of the step in a fresh interpreter; its first output line ends the first operation."""
        if self.stage == "construct":
            return ["construct", "--grid", "grid0.txt", "--stagger"]
        if self.stage == "convert":
            return ["convert", "--input", "layouts-one.jsonl", "--output", "records-one.jsonl", "--mode", "grpo"]
        return ["eval", "--pairs", "pairs-one.jsonl", "--out", "-", "--format", "records"]

    def output_path(self, index: int) -> str:
        return self.argv(index)[-1 if self.stage == "construct" else -3]

    def check(self, index: int, code: int, stdout: str) -> None:
        """Check a call's output fully the first time, then require the same bytes."""
        what = f"{self.stage} {index}"
        if code != 0:
            self.outcome.record([f"exit code {code}"], what, ITEMS[self.stage])
            return
        with open(self.output_path(index), encoding="utf-8") as f:
            text = f.read()
        if index in self.first_output:
            same = self.first_output[index] == text
            self.outcome.record([] if same else ["output differs from the first run of the same input"],
                                what, ITEMS[self.stage])
            return
        self.first_output[index] = text
        getattr(self, f"_check_{self.stage}")(index, text, stdout, what)

    def _check_construct(self, index: int, text: str, stdout: str, what: str) -> None:
        structure, report = parse_structure(text)
        problems = [] if report.parsed_ok else ["output does not parse"]
        if not problems:
            self.built.append(structure)
            values = oracle_values(structure, self.grids[index])
            if values["n_col"] or not values["in_bounds"] or values["iou"] != 1.0 or values["conn"] != 1.0:
                problems.append(f"legalized build: {values}")
        self.outcome.record(problems, what)

    def _check_convert(self, index: int, text: str, stdout: str, what: str) -> None:
        chunk = self.layouts[index * LAYOUTS_PER_CHUNK:(index + 1) * LAYOUTS_PER_CHUNK]
        feasible = [case for case in chunk if case.kind == "valid"]
        records = [json.loads(line) for line in text.splitlines()]
        if stdout.strip() != str(len(feasible)) or len(records) != len(feasible):
            self.outcome.record([f"wrote {stdout.strip()} / {len(records)} records, want {len(feasible)}"],
                                what, len(chunk))
            return
        for case, record in zip(feasible, records):
            occupancy = oracle_occupancy(case.structure)
            problems = []
            if not np.array_equal(oracle_decode_voxels(record["target_voxels"], WORLD), occupancy):
                problems.append("target_voxels is not the layout's occupancy")
            points = record["user"][len(PROMPT_TEMPLATE):]
            if (record["system"] != SYSTEM_PROMPT or not record["user"].startswith(PROMPT_TEMPLATE)
                    or points.count("(") != int(occupancy.sum())):
                problems.append("prompt does not list the occupancy")
            self.outcome.record(problems, what)
        self.outcome.record([], f"{what} skipped infeasible layouts", len(chunk) - len(feasible))

    def _check_eval(self, index: int, text: str, stdout: str, what: str) -> None:
        base = index * PAIRS_PER_CHUNK
        chunk = self.pairs[base:base + PAIRS_PER_CHUNK]
        rows = [json.loads(line) for line in text.splitlines()]
        samples, aggregate = rows[:-1], rows[-1]
        if len(samples) != len(chunk) or aggregate.get("record") != "aggregate":
            self.outcome.record([f"{len(samples)} sample records for {len(chunk)} pairs"], what, len(chunk))
            return
        for k, ((case, _), row) in enumerate(zip(chunk, samples)):
            problems = _sample_problems(case, row)
            if not problems and base + k in self.oracle_pairs and case.structure is not None:
                want = oracle_values(case.structure, case.target)
                got = {"n_col": row["n_col"], "iou": row["voxel_iou"], "interlock": row["interlock"],
                       "conn": row["conn_ratio"], "in_bounds": row["in_bounds"]}
                problems = [f"{key}: got {got[key]!r}, oracle {want[key]!r}" for key in got if got[key] != want[key]]
            self.outcome.record(problems, f"{what} pair {k}")
        parsed = sum(1 for row in samples if row["parsed"])
        if aggregate["n_total"] != len(chunk) or aggregate["parse_rate"] != parsed / len(chunk):
            self.outcome.record(["aggregate record does not match the samples"], what)


def _sample_problems(case, row: dict) -> list[str]:
    kind = case.kind
    if kind in ("malformed", "empty"):
        return [] if not row["parsed"] else ["unparseable completion counted as parsed"]
    if not row["parsed"]:
        return ["completion did not parse"]
    if kind == "colliding":
        return [] if not row["collision_free"] and row["n_col"] > 0 else ["collision not counted"]
    if kind == "out_of_bounds":
        return [] if not row["in_bounds"] else ["out-of-bounds brick not counted"]
    ok = row["collision_free"] and row["in_bounds"] and row["voxel_iou"] == 1.0 and row["conn_ratio"] == 1.0
    return [] if ok else [f"legalized build: {row}"]


def _dispatch(argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command in-process; return exit code, its stdout and elapsed seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.cli_dispatch(argv)
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


def _calls(pipeline: Pipeline, seconds: float, current: list[int], scaler: Scaler, key: str) -> None:
    """Run the step until the time is up, adding each call's seconds to scaler[key].

    current[0] numbers the calls across rounds; it is the request id of a call's spans.
    """
    deadline = perf_counter() + seconds
    gc.collect()
    while perf_counter() < deadline:
        scaler.tick()
        index = current[0] % INPUTS[pipeline.stage]
        code, stdout, elapsed = _dispatch(pipeline.argv(index))
        scaler.add(key, elapsed)
        pipeline.check(index, code, stdout)
        current[0] += 1


def _trace_wraps(tracer: Tracer, current: list[int]) -> None:
    tracer.wrap(cli, "cli_dispatch", "cli.dispatch", tag=lambda a, r: a[0][0], rid=lambda a: current[0])
    wrap_layers(tracer, cli, "decode_target_voxels", "parse_pointcloud")
    tracer.wrap(cli, "legalize", "construct.legalize", count=lambda a, r: len(r))
    tracer.wrap(cli, "sample_metrics", "metrics.sample")
    tracer.wrap(cli, "aggregate", "metrics.aggregate")
    tracer.wrap(cli, "emit_report", "metrics.emit_report")
    tracer.wrap(dataset, "build_grpo_record", "dataset.grpo_record")
    wrap_layers(tracer, dataset, "parse_structure", "analyze_with_occupancy", "encode_target_voxels")
    wrap_layers(tracer, metrics, "parse_structure", "analyze_with_occupancy", "reward_shape")


def _report_ms(tracer: Tracer) -> list[float]:
    """aggregate + emit_report time per eval command, in ms."""
    per_call: dict[int, float] = {}
    for s in tracer.spans:
        if s[NAME] in ("metrics.aggregate", "metrics.emit_report"):
            per_call[s[RID]] = per_call.get(s[RID], 0.0) + (s[END] - s[START]) * 1e3
    return list(per_call.values())


def _step_layers(outcome: Outcome, tracer: Tracer, stage: str) -> None:
    """Per-layer figures of the layers only this step runs."""
    if stage == "construct":
        outcome.layer("construct.legalize_ms", dur_us(tracer, "construct.legalize") / 1e3, "ms")
        legalized = [(s[END] - s[START], s[COUNT]) for s in tracer.spans if s[NAME] == "construct.legalize"]
        outcome.layer("construct.bricks_per_s", sum(n for _, n in legalized) / sum(t for t, _ in legalized),
                      "1/s")
    elif stage == "convert":
        outcome.layer("dataset.grpo_record_us", dur_us(tracer, "dataset.grpo_record"), "us")
    else:
        outcome.layer("metrics.sample_us", dur_us(tracer, "metrics.sample"), "us")
        outcome.layer("metrics.report_ms", percentile(_report_ms(tracer), 50.0), "ms")


def run(ctx: Context, workload: str) -> Outcome:
    stage = WORKLOADS[workload]
    outcome = Outcome()
    pipeline = Pipeline(ctx, outcome, stage)
    program_core, _ = cores()
    os.sched_setaffinity(0, {program_core})  # timed work and the probe share one core
    speed = Speed(program_core)
    setup = [cold_start_s(ctx, pipeline.cold_argv(), speed) for _ in range(SETUP_REPEATS)]  # (raw, scaled)

    current = [0]
    scaler = Scaler(speed, PROBE_EVERY_S)
    tracer = Tracer()
    if ctx.trace:
        # Untraced and traced rounds alternate, so drift in machine speed
        # during the run does not show up as tracing overhead.
        for _ in range(TRACE_ROUNDS):
            _calls(pipeline, ctx.seconds / (2 * TRACE_ROUNDS), current, scaler, "untraced")
            with tracer:
                _trace_wraps(tracer, current)
                _calls(pipeline, ctx.seconds / (2 * TRACE_ROUNDS), current, scaler, "traced")
                scaler.flush()
    else:
        _calls(pipeline, ctx.seconds, current, scaler, "untraced")
    scaler.flush()
    call_s = scaler.scaled["untraced"]
    raw = scaler.raw["untraced"]

    rate = ITEMS[stage] * len(call_s) / sum(call_s)
    outcome.name(RATE_NAMES[stage], rate, "1/s", f"calls={len(call_s)}")
    p50 = latency_fields(outcome, stage, call_s)
    outcome.e2e.update(ops_per_s=rate, p50_ms=p50, peak_rss_mib=vm_hwm_mib(),
                       setup_s=percentile([s for _, s in setup], 50.0))
    outcome.unscaled.update(ops_per_s=ITEMS[stage] * len(raw) / sum(raw), p50_ms=percentile(raw, 50.0) * 1e3,
                            setup_s=percentile([r for r, _ in setup], 50.0))
    outcome.raw.update(call_s=scaler.raw, call_scaled_s=scaler.scaled, setup_s=setup, speed_factors=speed.factors)

    if ctx.trace and not outcome.failed:
        outcome.layer_factor = speed.run_factor()
        shared_layers(outcome, tracer, pipeline.built or pipeline.structures, pipeline.targets)
        _step_layers(outcome, tracer, stage)
        selfs = tracer.self_times()
        outcome.layer(f"cli.self_ms.{stage}", self_us(tracer, selfs, "cli.dispatch", stage) / 1e3, "ms")
        traced = scaler.scaled["traced"]
        overhead = sum(traced) / len(traced) / (sum(call_s) / len(call_s)) - 1.0
        outcome.layer("trace.overhead_pct", overhead * 100.0, "%")
        outcome.tracer = tracer
    return outcome
