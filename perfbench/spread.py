"""Run the benchmark once per seed on each workload and report, for every
end-to-end metric, the median, the quartiles and their distance as a share
of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 \
        --workloads train_aug train_main eval_fusion --out perfbench/out/spread.json

Runs are sequential, one process at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "within_third": spread < bound / 3,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    report: dict = {"seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(workload, seed, SPEC["run_seconds"])
            if not r["result"]["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: result not correct")
            runs.append(r)
            print(workload, seed, json.dumps({k: v["value"] for k, v in
                                              r["result"]["metrics"].items()}), flush=True)
        metrics = {}
        for m in SPEC["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = summarize(values, m["bound"])
            s = metrics[m["name"]]
            print(f"  {m['name']:<12} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"bound {m['bound']}", flush=True)
        report["workloads"][workload] = {
            "metrics": metrics,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "env": runs[0]["info"]["env"],
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
