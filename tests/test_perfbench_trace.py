"""perfbench's traced runs still find every function they wrap by name.

perfbench traces a layer by replacing a function in the module that calls
it (say `cli.parse_pointcloud` or `rewards.parse_structure`). Between them
the offline workloads and rollout_w1 install every such wrapper, in the
cli, dataset, metrics, service and rewards modules, so a call that moves
out of the module where it is wrapped fails here rather than only under
--trace 1. Four imports are kept only for this wrapping, with no call left
behind them: `cli.sample_metrics`, `dataset.analyze_with_occupancy`,
`metrics.analyze_with_occupancy` and `metrics.reward_shape`. This test is
what fails if one is dropped.
offline_convert wraps `dataset.build_grpo_record`, `parse_structure`,
`analyze_with_occupancy` and `encode_target_voxels`, and checks every
record `convert --mode grpo` writes against the oracles.
offline_eval drives eval's chunked scoring, which evaluates each chunk
of pairs through the evaluation core shared with the service, end to
end under perfbench's output and oracle checks.
offline_construct runs `construct ... --seed N` through the CLI, so it also
fails if the CLI stops taking a flag that perfbench passes. rollout_w2 runs
`serve --threads 2` on the mixed rollout traffic, so the workers' chunk
scoring, which analyzes a chunk's light structures in one pass, runs end
to end under perfbench's checks of ids, expected error codes and the
oracle subset.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["offline_construct", "offline_convert", "offline_eval", "rollout_w1",
                                      "rollout_w2"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.3", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
