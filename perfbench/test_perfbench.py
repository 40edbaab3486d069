"""Self-test of the benchmark: smoke runs of every workload and the output gate.

Run from the repository root::

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def run_bench(*args, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(
            line.startswith(f"{spec['name']} = ") and line.endswith(f" {spec['unit']}")
            for line in lines
        )
    assert any(line.startswith("fail_share = 0 share") for line in lines)


def test_gate_fails_on_perturbed_reference(tmp_path):
    from gate import check_experiment
    from stochsqp.harness import ExperimentConfig, run_experiment
    from stochsqp.logreg import load_bundled_instance

    config = ExperimentConfig(iters=50, thin=10, seeds=[0, 1], out=str(tmp_path))
    run_experiment(config)
    problem = load_bundled_instance().problem()

    def fail_share():
        checks = check_experiment(tmp_path, config, problem)
        return sum(not ok for ok, _ in checks) / len(checks)

    assert fail_share() == 0
    path = tmp_path / "reference.json"
    reference = json.loads(path.read_text())
    reference["y"][0] += 1e-3
    path.write_text(json.dumps(reference))
    assert fail_share() > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_takes_kernel_runs_out_and_rescales():
    from calibrate import HostSpeed

    speed = HostSpeed(interval_s=1.0)
    # (start, end, slowness): one run before, one inside, one after [1, 5].
    speed.runs = [(0.0, 0.5, 1.0), (2.0, 3.0, 2.0), (6.0, 6.5, 3.0)]
    wall, rescaled = speed.between(1.0, 5.0)
    assert wall == 3.0
    assert rescaled == 3.0 / 2.0
