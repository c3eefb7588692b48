"""The pairs tool's summary and its check of each run, on canned benchmark results
(no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_pairs.py"
END_TO_END = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.25}]
ENV = {"nproc": 2, "python": "3.11.7"}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(attempted=10, failed=0, env=ENV, raw=None, factor=1.0, **metrics):
    """A canned run; its wall-clock `raw` values default to `metrics`."""
    units = {m["name"]: m["unit"] for m in END_TO_END} | {"datagen.save_ms": "ms"}
    return {"info": {"env": env, "raw_metrics": dict(metrics) if raw is None else raw,
                     "host": {"factor_median": factor}},
            "result": {"attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}}


def test_summary_of_canned_pairs(tool):
    setup = [(0.20, 0.10), (0.18, 0.12), (0.16, 0.17), (0.22, 0.11)]
    rows = [(100.0, 110.0), (100.0, 90.0), (100.0, 100.0), (100.0, 120.0)]
    pairs = {"train_aug": [(run(setup_s=ps, rows_per_s=pr),
                            run(attempted=12, failed=1 if i == 0 else 0, setup_s=cs,
                                rows_per_s=cr, env={"nproc": 2, "python": "change"}))
                           for i, ((ps, cs), (pr, cr)) in enumerate(zip(setup, rows))]}
    traced = {"train_aug": (run(attempted=3, **{"datagen.save_ms": 100.0}),
                            run(attempted=3, **{"datagen.save_ms": 50.0}))}
    seeds = {"train_aug": [1, 2, 3, 4], "traced": [5]}
    out = tool.summarize(pairs, traced, END_TO_END, seeds, "canned", 35.0)

    assert out["what"] == "canned"
    assert out["command"] == ("python3 perfbench/run.py --workload <w> --seed <s> "
                              "--seconds 35 --trace <0|1>")
    assert out["seeds"] == seeds
    assert out["pairs"] == {"train_aug": 4, "traced": 1}
    assert out["failed_operations"] == {"parent": 0, "change": 1}
    assert out["attempted_operations"] == {"parent": 43, "change": 51}
    assert out["env"] == {"nproc": 2, "python": "change"}

    s = out["train_aug/setup_s"]
    assert s["parent"] == pytest.approx(0.19) and s["change"] == pytest.approx(0.115)
    assert s["unit"] == "s"
    # statistics.quantiles' default (exclusive) method, as perfbench/spread.py
    assert s["parent_quartiles"] == pytest.approx([0.165, 0.215])
    assert s["change_quartiles"] == pytest.approx([0.1025, 0.1575])
    assert s["change_better_pairs"] == 3  # lower is better
    assert s["per_pair_ratio"] == [0.5, 0.6667, 1.0625, 0.5]

    r = out["train_aug/rows_per_s"]
    assert r["change_better_pairs"] == 2  # higher is better; a tie counts for neither
    assert r["per_pair_ratio"] == [1.1, 0.9, 1.0, 1.2]
    assert out["traced"] == {"train_aug/datagen.save_ms":
                             {"parent": 100.0, "change": 50.0, "unit": "ms"}}


def test_wall_clock_and_host_factor(tool):
    """Beside each reference-speed metric, the wall-clock medians and
    quartiles from `raw_metrics`; per workload, each side's median host
    factor."""
    sides = [  # (reference op_ms_p50, wall op_ms_p50, host factor) per pair
        ((2.0, 2.6, 1.30), (1.9, 2.3, 1.20)),
        ((2.1, 2.2, 1.05), (2.0, 2.7, 1.35)),
        ((2.2, 2.2, 1.00), (2.1, 2.4, 1.15)),
        ((1.9, 2.5, 1.30), (1.8, 1.8, 1.00)),
        ((2.0, 2.4, 1.20), (1.9, 2.5, 1.30)),
    ]
    end_to_end = [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]

    def side(ref, wall, factor):
        r = run(raw={"op_ms_p50": wall}, factor=factor, setup_s=0.1)
        r["result"]["metrics"] = {"op_ms_p50": {"value": ref, "unit": "ms"}}
        return r

    pairs = {"train_aug": [(side(*p), side(*c)) for p, c in sides]}
    out = tool.summarize(pairs, {}, end_to_end, {"train_aug": [1, 2, 3, 4, 5]}, "wall", 35.0)
    m = out["train_aug/op_ms_p50"]
    assert m["parent"] == 2.0 and m["change"] == 1.9 and m["change_better_pairs"] == 5
    assert m["wall"]["parent"] == 2.4 and m["wall"]["change"] == 2.4
    assert m["wall"]["parent_quartiles"] == pytest.approx([2.2, 2.55])
    assert m["wall"]["change_quartiles"] == pytest.approx([2.05, 2.6])
    assert out["host_factor"] == {"train_aug": {"parent": 1.2, "change": 1.2}}


def test_no_traced_pair(tool):
    pairs = {"eval_fusion": [(run(setup_s=1.0, rows_per_s=5.0), run(setup_s=0.8, rows_per_s=5.0))]}
    out = tool.summarize(pairs, {}, END_TO_END, {"eval_fusion": [7]}, "one pair", 35.0)
    assert out["pairs"] == {"eval_fusion": 1}
    assert out["traced"] == {}
    assert out["eval_fusion/setup_s"]["parent_quartiles"] == [1.0, 1.0]
    assert out["eval_fusion/setup_s"]["change_better_pairs"] == 1
    assert out["eval_fusion/rows_per_s"]["change_better_pairs"] == 0


def run_output(correct, failed=0):
    r = run(failed=failed, setup_s=0.1, rows_per_s=5.0)
    r["result"]["correct"] = correct
    return "log line\n" + json.dumps(r["info"]) + "\n" + json.dumps(r["result"]) + "\n"


def test_parse_run_keeps_a_correct_run(tool):
    got = tool.parse_run(Path("change"), "train_aug", 3, run_output(True))
    assert got["result"]["metrics"]["setup_s"]["value"] == 0.1
    assert got["info"] == run(setup_s=0.1, rows_per_s=5.0)["info"]


def test_parse_run_refuses_a_run_whose_checks_failed(tool):
    with pytest.raises(RuntimeError, match=r"^change: train_aug seed 3: result not correct "
                                           r"\(2 failed checks\)$"):
        tool.parse_run(Path("change"), "train_aug", 3, run_output(False, failed=2))
