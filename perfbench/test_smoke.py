"""Smoke test of the benchmark at tiny length: every workload, traced and
untraced, emits exactly the metrics BENCHMARK.json names, each with its
unit, and passes its own output checks.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bypassed_layers_stay_idle():
    """The bank route never runs on train_main, and nothing is
    differentiated on eval_fusion."""
    main = run_tiny("train_main", 1)["metrics"]
    assert main["normbank.partitioned_forward_calls"]["value"] == 0.0
    fusion = run_tiny("eval_fusion", 1)["metrics"]
    assert fusion["normbank.partitioned_forward_calls"]["value"] == 0.0
    assert fusion["tensor.backward_calls"]["value"] == 0.0


def test_fails_without_the_program():
    """Run from a copy holding only the benchmark, it exits non-zero and
    prints no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for f in ("run.py", "tracer.py"):
        (bare / "perfbench" / f).write_bytes((HERE / f).read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_main",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_scales_each_stretch_by_its_own_factor():
    """A stretch between two kernel samples is divided by the factor there;
    an interval over several stretches adds them up."""
    sys.path.insert(0, str(HERE))
    from run import HostSpeed

    host = HostSpeed()
    host.WINDOW = 1
    host.t = [0, 100, 200]
    host.ns = [HostSpeed.REF_NS, 2 * HostSpeed.REF_NS, HostSpeed.REF_NS // 2]
    assert host.reference_ns(10, 50) == 50.0
    assert host.reference_ns(150, 20) == 10.0
    assert host.reference_ns(50, 200) == 50 + 100 / 2 + 50 * 2
    assert host.reference_ns(-20, 10) == 10.0
