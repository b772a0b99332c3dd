"""Run context, outcome bookkeeping, child processes and machine facts."""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import brickeval.analysis as analysis
import brickeval.dataset as dataset
import brickeval.rewards as rewards
import brickeval.tokens as tokens
from brickeval import encode_target_voxels, serialize_pointcloud, serialize_structure

from inputs import WORLD
from perfstats import percentile, summary, tail
from spans import NAME, TAG, Tracer, durations, per_unit, self_durations

MAX_FAILURE_NOTES = 20
TIME_UNITS = ("s", "ms", "us", "ns")

# Probe time on the reference machine; measured times are scaled to it.
# See Speed.
PROBE_NOMINAL_S = 0.006
PROBE_UNITS = 3
PROBE_INPUTS = 40  # builds and targets per layer probe, at most

_PROBE_RNG = np.random.default_rng(0)
_PROBE_CELLS = _PROBE_RNG.integers(0, 20000, 3000)
_PROBE_WEIGHTS = _PROBE_RNG.random(3000)


class _Row(NamedTuple):
    key: int
    value: int
    pair: tuple
    box: list


def _probe_unit(split: int = 1) -> float:
    """Fixed work in about the mix brickeval's own time has.

    Half is interpreter-bound Python (string formatting, splitting,
    dicts, small tuples, a sort), half small-array numpy kernels
    (scatter-add, unique, bincount). When a shared core slows down,
    numpy kernels slow down less than the interpreter, so a pure-Python
    probe over-corrected brickeval's times. On the VM described in
    README.md, a saturated one-worker server's rate over 0.3 s segments
    varied by 0.12 (standard deviation over mean) when scaled by the
    Python half alone, and by 0.09 when scaled by both halves.
    """
    counts: dict[str, int] = {}
    for i in range(600 // split):
        token = f"{i % 7}x{i % 5} ({i},{i + 1},{i + 2})"
        counts[token[:3]] = counts.get(token[:3], 0) + len(token.split(",")[1])
    rows = [_Row(i, i + 1, (i, i), [i]) for i in range(1000 // split)]
    rows.sort(key=lambda row: -row.key)
    total = float(len(counts) + len({row.key % 97: row for row in rows}))
    for _ in range(5 // split or 1):
        grid = np.zeros(20000)
        np.add.at(grid, _PROBE_CELLS, _PROBE_WEIGHTS)
        total += grid.sum() + len(np.unique(_PROBE_CELLS)) + int(np.bincount(_PROBE_CELLS % 97).max())
    return total


def cores() -> tuple[int, int]:
    """(program core, client core): the two ends of the allowed CPU set, the same core on one CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], allowed[0]


@contextmanager
def on_cores(allowed: set[int]):
    """Run the calling thread, and any process it starts meanwhile, on the given cores."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, allowed)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


# Spins at the lowest scheduling priority: it runs only when nothing
# else wants the core, so it takes no time from the program. It stops by
# itself once its parent is gone.
_FILLER = """import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
sys.stdout.write('.')
sys.stdout.flush()
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


@contextmanager
def keep_busy(allowed: set[int]):
    """Keep the given cores from idling, with one SCHED_IDLE spinning process per core.

    On the VM the benchmark was tuned on, a request that woke an idle
    core took a varying extra time that no compute probe saw, and it set
    open-loop latency for whole runs. A core that never idles wakes the
    program at once.
    """
    fillers = []
    try:
        for core in sorted(allowed):
            with on_cores({core}):
                fillers.append(subprocess.Popen([sys.executable, "-c", _FILLER, str(os.getpid())],
                                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE))
            fillers[-1].stdout.read(1)  # started, and at idle priority
        yield
    finally:
        for proc in fillers:
            proc.kill()
            proc.wait()


class Speed:
    """How fast one core runs at the moment, from a fixed probe computation.

    On a shared 2-vCPU Xeon VM, each core was seen to switch between
    states up to 2x apart in speed, for a second to minutes at a time,
    for every program alike. So the benchmark pins the work it
    times to one core and probes that core between pieces of work. The
    probe takes PROBE_NOMINAL_S on the reference machine, so each probe
    gives a factor, PROBE_NOMINAL_S over the probe's time. A time measured
    between two probes, multiplied by the mean of their factors, reads as
    it would on the reference machine. The probe runs only while the
    program is idle, so the program's own speed never enters a factor.
    """

    def __init__(self, core: int) -> None:
        self.core = core
        self.factors: list[float] = []

    def probe(self, units: int = PROBE_UNITS, split: int = 1) -> float:
        """Run the probe units times on the core; record and return the factor from their median.

        With split > 1 each unit does 1/split of the work, for gaps too
        short for a whole one.
        """
        times = []
        # A garbage collection inside the probe would cost time that
        # depends on the run's heap, not on the machine.
        gc.disable()
        try:
            with on_cores({self.core}):
                for _ in range(units):
                    start = perf_counter()
                    _probe_unit(split)
                    times.append(perf_counter() - start)
        finally:
            gc.enable()
        self.factors.append(PROBE_NOMINAL_S / split / percentile(times, 50.0))
        return self.factors[-1]

    def run_factor(self) -> float:
        return percentile(self.factors, 50.0)


class Scaler:
    """Collects times measured between probes and scales them by the probes on either side."""

    def __init__(self, speed: Speed, every_s: float):
        self.speed = speed
        self.every_s = every_s
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self._pending: list[tuple[str, float]] = []
        self._before = speed.probe()
        self._next = perf_counter() + every_s

    def add(self, key: str, seconds: float) -> None:
        self._pending.append((key, seconds))
        self.raw.setdefault(key, []).append(seconds)

    def tick(self) -> None:
        """Probe and scale what came since the last probe, once every_s has passed."""
        if perf_counter() >= self._next:
            self.flush()

    def flush(self) -> None:
        after = self.speed.probe()
        factor = (self._before + after) / 2
        for key, seconds in self._pending:
            self.scaled.setdefault(key, []).append(seconds * factor)
        self._pending.clear()
        self._before = after
        self._next = perf_counter() + self.every_s


@dataclass
class Context:
    root: Path  # checkout root, holding src/ and tests/
    work: Path  # working directory for this run, removed at the end
    seed: int
    seconds: float
    trace: bool

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env


@dataclass
class Outcome:
    """What a workload measured and whether its outputs were right."""

    e2e: dict[str, float] = field(default_factory=dict)  # the BENCHMARK.json end-to-end slots
    unscaled: dict[str, float] = field(default_factory=dict)  # the same slots before speed scaling
    named: list[tuple[str, float, str, str]] = field(default_factory=list)  # (name, value, unit, note)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)  # per-layer name -> (value, unit)
    raw: dict = field(default_factory=dict)  # raw samples, kept with the result
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    tracer: Tracer | None = None
    layer_factor: float = 1.0  # speed factor applied to per-layer times and rates
    probed: set[str] = field(default_factory=set)  # per-layer names measured by a layer probe

    def record(self, problems: list[str], what: str, ops: int = 1) -> None:
        """Count ops operations, failed when any problem was found."""
        self.attempted += ops
        if problems:
            self.failed += ops
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(f"{what}: {'; '.join(problems)}")

    def name(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.named.append((name, value, unit, note))

    def layer(self, name: str, value: float, unit: str, probe: bool = False) -> None:
        """Record a per-layer figure, scaling times and rates by layer_factor."""
        if probe:
            self.probed.add(name)
        if unit in TIME_UNITS:
            value *= self.layer_factor
        elif unit == "1/s":
            value /= self.layer_factor
        self.layers[name] = (value, unit)


def latency_fields(outcome: Outcome, prefix: str, samples_s: list[float]) -> float:
    """Name p50 and tail latency (ms) of samples given in seconds; return the p50."""
    ms = [s * 1e3 for s in samples_s]
    p50 = percentile(ms, 50.0)
    level, value = tail(ms)
    outcome.name(f"{prefix}_p50_ms", p50, "ms", f"n={len(ms)}")
    outcome.name(f"{prefix}_p99_ms", value, "ms", f"p{level:g} of n={len(ms)}")
    return p50


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set size of a live process, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cold_start_s(ctx: Context, argv: list[str], speed: Speed) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first line of output, raw and scaled by speed.

    The child runs brickeval from the checkout's src/. Its exit status is
    checked after the timed part, so a failing child raises.
    """
    before = speed.probe()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "brickeval", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=ctx.env, cwd=ctx.work,
    )
    try:
        first = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        err = proc.stderr.read()
        if proc.wait(timeout=60) != 0 or not first:
            raise RuntimeError(f"cold start {argv[0]} failed: {err.decode(errors='replace')}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed, elapsed * (before + speed.probe()) / 2


def machine_facts(ctx: Context, workload: str) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": os.getloadavg(),
    }


def dur_us(tracer: Tracer, name: str, tag: str | None = None) -> float:
    values = durations(tracer, name, tag)
    return percentile(values, 50.0) * 1e6 if values else 0.0


# Public function -> (span name, work count from (args, result)).
_SPANS = {
    "parse_structure": ("tokens.parse", lambda a, r: len(r[0])),
    "parse_pointcloud": ("tokens.pointcloud", None),
    "analyze_with_occupancy": ("analysis.analyze", lambda a, r: len(a[0])),
    "rasterize": ("analysis.rasterize", lambda a, r: len(a[0])),
    "reward_shape": ("rewards.iou", None),
    "decode_target_voxels": ("dataset.decode", None),
    "encode_target_voxels": ("dataset.encode", None),
}


def _malformed_tag(args, result) -> tuple[int, int]:
    return hash(args[0]), len(result[1].malformed_lines)


def wrap_layers(tracer: Tracer, module, *attrs: str) -> None:
    """Wrap the named public functions where ``module`` looks them up."""
    for attr in attrs:
        name, count = _SPANS[attr]
        tracer.wrap(module, attr, name, count=count, tag=_malformed_tag if attr == "parse_structure" else None)


def shared_layers(outcome: Outcome, tracer: Tracer, structures, targets) -> None:
    """The per-layer figures every workload reports: tokens, analysis, IoU and the target codec.

    Each comes from the spans of the workload's traced rounds. When the
    workload's path never calls a function, the function is called
    directly instead, on up to PROBE_INPUTS of the workload's own builds
    and targets, under the tracer (a layer probe), and the figure is
    marked as probed. rasterize is always probed: brickeval calls it only
    through analysis internals, where no wrapper sees it.
    """
    structures, targets = list(structures)[:PROBE_INPUTS], list(targets)[:PROBE_INPUTS]
    texts = [serialize_structure(s) for s in structures]
    occupied = [analysis.analyze_with_occupancy(s, WORLD)[1] for s in structures]
    points = [serialize_pointcloud(t) for t in targets]
    codes = [encode_target_voxels(t) for t in targets]
    probes = {
        "tokens.parse": (tokens, "parse_structure", [(t,) for t in texts]),
        "tokens.pointcloud": (tokens, "parse_pointcloud", [(p, WORLD) for p in points]),
        "analysis.analyze": (analysis, "analyze_with_occupancy", [(s, WORLD) for s in structures]),
        "analysis.rasterize": (analysis, "rasterize", [(s, WORLD) for s in structures]),
        "rewards.iou": (rewards, "reward_shape", list(zip(occupied, targets))),
        "dataset.decode": (dataset, "decode_target_voxels", [(c, WORLD) for c in codes]),
        "dataset.encode": (dataset, "encode_target_voxels", [(t,) for t in targets]),
    }
    seen = {s[NAME] for s in tracer.spans}
    probed = {name for name in probes if name == "analysis.rasterize" or name not in seen}
    with tracer:
        for name in sorted(probed):
            module, attr, calls = probes[name]
            wrap_layers(tracer, module, attr)
            for args in calls:
                getattr(module, attr)(*args)

    def us(metric: str, span: str) -> None:
        outcome.layer(metric, dur_us(tracer, span), "us", span in probed)

    us("tokens.parse_us", "tokens.parse")
    outcome.layer("tokens.parse_ns_per_brick", per_unit(tracer, "tokens.parse") * 1e9, "ns",
                  "tokens.parse" in probed)
    # Counted once per distinct completion, so the figure does not depend on how many calls ran.
    malformed = {s[TAG][0]: s[TAG][1] for s in tracer.spans if s[NAME] == "tokens.parse" and s[TAG]}
    outcome.layer("tokens.malformed_entries", sum(malformed.values()), "count", "tokens.parse" in probed)
    us("tokens.pointcloud_us", "tokens.pointcloud")
    us("analysis.analyze_us", "analysis.analyze")
    outcome.layer("analysis.analyze_ns_per_brick", per_unit(tracer, "analysis.analyze") * 1e9, "ns",
                  "analysis.analyze" in probed)
    us("analysis.rasterize_us", "analysis.rasterize")
    us("rewards.iou_us", "rewards.iou")
    us("dataset.decode_us", "dataset.decode")
    us("dataset.encode_us", "dataset.encode")


def self_us(tracer: Tracer, selfs: list[float], name: str, tag: str | None = None) -> float:
    values = self_durations(tracer, selfs, name, tag)
    return percentile(values, 50.0) * 1e6 if values else 0.0


def span_table(tracer: Tracer) -> dict[str, dict]:
    """Per span name: count, and duration and self-time summaries in microseconds."""
    selfs = tracer.self_times()
    by_name: dict[str, tuple[list[float], list[float]]] = {}
    for span, own in zip(tracer.spans, selfs):
        total, mine = by_name.setdefault(span[NAME], ([], []))
        total.append((span[2] - span[1]) * 1e6)
        mine.append(own * 1e6)
    return {name: {"count": len(total), "dur_us": summary(total), "self_us": summary(mine)}
            for name, (total, mine) in sorted(by_name.items())}
