"""Run one brickeval benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense_score --seed 1 --seconds 10 --trace 0

Workloads: dense_score; rollout_w1, rollout_w2, rollout_inline,
rollout_points; offline_construct, offline_convert, offline_eval.

Run from the root of a checkout that holds src/brickeval and
tests/helpers.py. Every metric is printed as "metric <name> <value>
<unit>" on its own line; the last line of standard output is one JSON
object with "correct", "attempted", "failed" and "metrics", where
metrics are the end-to-end slots of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). When a check failed, metrics the run
could not measure are left out of it. The full result, with machine facts and
raw samples, is written under .perfbench_out/. Exit status: 0 when
every output check passed, 1 when one failed, 2 on a usage error or
when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense_score", "rollout_w1", "rollout_w2", "rollout_inline", "rollout_points",
             "offline_construct", "offline_convert", "offline_eval")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    missing = [p for p in ("src/brickeval/__init__.py", "tests/helpers.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a brickeval checkout",
              file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import common
    import dense
    import offline
    import rollout

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    ctx = common.Context(root=ROOT, work=work, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    facts = common.machine_facts(ctx, args.workload)
    try:
        if args.workload in rollout.WORKLOADS:
            outcome = rollout.run(ctx, args.workload)
        elif args.workload in offline.WORKLOADS:
            outcome = offline.run(ctx, args.workload)
        else:
            outcome = dense.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("machine " + json.dumps(facts))
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in outcome.e2e.items():
        print(f"metric {name} {value:.6g} {e2e_units[name]}")
    for name, value in outcome.unscaled.items():
        print(f"metric {name}.unscaled {value:.6g} {e2e_units[name]}  (before speed scaling)")
    for name, value, unit, note in outcome.named:
        print(f"metric {args.workload}.{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    failed_share = outcome.failed / max(outcome.attempted, 1)
    print(f"metric {args.workload}.failed_share {failed_share:.6g} ratio  "
          f"({outcome.failed} of {outcome.attempted})")
    for name, (value, unit) in outcome.layers.items():
        print(f"layer {name} {value:.6g} {unit}" + ("  (probe)" if name in outcome.probed else ""))
    for note in outcome.failures:
        print(f"check failed: {note}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"facts": facts, "e2e": outcome.e2e, "named": outcome.named, "layers": outcome.layers,
              "unscaled": outcome.unscaled, "probed": sorted(outcome.probed),
              "attempted": outcome.attempted, "failed": outcome.failed, "failures": outcome.failures,
              "raw": outcome.raw}
    if outcome.tracer is not None:
        outcome.tracer.write(str(out_dir / f"{stem}.spans.jsonl"))
        result["span_table"] = common.span_table(outcome.tracer)
    (out_dir / f"{stem}.json").write_text(json.dumps(result), encoding="utf-8")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {name: value for name, (value, _) in outcome.layers.items()} if args.trace else outcome.e2e
    correct = outcome.failed == 0
    metrics = {}
    for m in wanted:
        if m["name"] not in values and not correct:
            continue
        value = values[m["name"]]
        if not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} is not finite")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
