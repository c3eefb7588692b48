"""Run the benchmark in alternating pairs, parent tree against change tree,
and write the comparison as a BENCH_<n>.json file.

Usage:
    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --pairs train_aug=10 train_main=5 eval_fusion=5 --first-seed 201 --traced \
        --what "what the change does" --out BENCH_12.json

Each pair runs `perfbench/run.py` once from each tree with the same seed and
BENCHMARK.json's `run_seconds`, one process at a time; even pairs run the
parent first, odd pairs the change. A run that exits non-zero, takes over 600 s
or reports `correct: false` stops the tool. Seeds
count up from --first-seed across the workloads in the order given; with
--traced, one more seed runs a `--trace 1` pair on every workload. The file
holds, per `<workload>/<metric>` of BENCHMARK.json's end-to-end list, each
side's median and quartiles, the pairs where the change is better and each
pair's change/parent ratio, and under "wall" the same medians and quartiles
of the measured (wall-clock) values from the info line's `raw_metrics`; per
workload, each side's median host factor (`host_factor`: kernel time over
its 4 ms reference, from the info line's `host.factor_median`), so that a
gap between the reference-speed and the wall-clock figures shows, and each
side's median and quartiles of a run's minor page faults (`minflt`: the
`RUSAGE_CHILDREN` `ru_minflt` delta around the run's process), which move
the benchmark's reference kernel; then the operation counts, the change
side's environment and the traced per-layer values of both sides.

With --ablate-pairs N, it also times N alternating pairs of the ablation grid,
`python3 -m normaug.cli ablate --config configs/benchmark.txt` run from each
tree's `src/` with one BLAS thread (as the benchmark pins it), and records
under "ablate" each side's median and quartiles of the grid's wall time, the
pairs where the change is faster and each pair's change/parent ratio. A pair
whose `ablation.csv` or `fusion.csv` differ in a single byte stops the tool.
--pairs may then be left out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace <0|1>"
ABLATE_CONFIG = "configs/benchmark.txt"
ABLATE_COMMAND = f"python3 -m normaug.cli ablate --config {ABLATE_CONFIG} --out <dir>"
ABLATE_FILES = ("ablation.csv", "fusion.csv")
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One `perfbench/run.py` process in `tree`: its {"info", "result"} lines
    and its minor page faults ("minflt")."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return parse_run(tree, workload, seed, proc.stdout) | {"minflt": faults}


def time_ablate(tree: Path, config: Path, out: Path) -> tuple[float, dict[str, bytes]]:
    """One `normaug ablate` process from `tree`'s source into `out`: its wall
    seconds and the bytes of the files it wrote."""
    env = os.environ | ONE_THREAD | {"PYTHONPATH": str(tree / "src"),
                                     "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "normaug.cli", "ablate", "--config", str(config),
           "--out", str(out)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=1800)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: ablate: exit {proc.returncode}\n{proc.stderr}")
    return wall, {name: (out / name).read_bytes() for name in ABLATE_FILES}


def ablate_pair(trees: tuple[Path, Path], config: Path, work: Path,
                parent_first: bool) -> tuple[float, float]:
    """The (parent, change) wall seconds of one grid pair; a RuntimeError
    when the two trees' tables differ."""
    runs = [None, None]
    for side in ((0, 1) if parent_first else (1, 0)):
        runs[side] = time_ablate(trees[side], config, work / ("parent", "change")[side])
    (parent, p_files), (change, c_files) = runs
    moved = [name for name in ABLATE_FILES if p_files[name] != c_files[name]]
    if moved:
        raise RuntimeError(f"ablate: {', '.join(moved)} differ between the trees")
    return parent, change


def parse_run(tree: Path, workload: str, seed: int, stdout: str) -> dict:
    """The last two lines of a run's output; a run whose checks failed is an error."""
    lines = stdout.strip().splitlines()
    run = {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}
    if not run["result"]["correct"]:
        raise RuntimeError(f"{tree}: {workload} seed {seed}: result not correct "
                           f"({run['result']['failed']} failed checks)")
    return run


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def spread(parent: list[float], change: list[float]) -> dict:
    """Each side's median and quartiles of one metric."""
    return {"parent": statistics.median(parent), "change": statistics.median(change),
            "parent_quartiles": quartiles(parent), "change_quartiles": quartiles(change)}


def compare(parent: list[float], change: list[float], unit: str, better: str) -> dict:
    """One metric over the pairs (parent[i], change[i])."""
    wins = [c < p if better == "lower" else c > p for p, c in zip(parent, change)]
    return spread(parent, change) | {
        "unit": unit, "change_better_pairs": sum(wins),
        "per_pair_ratio": [round(c / p, 4) for p, c in zip(parent, change)]}


def summarize(pairs: dict[str, list[tuple[dict, dict]]], traced: dict[str, tuple[dict, dict]],
              end_to_end: list[dict], seeds: dict[str, list[int]], what: str,
              seconds: float) -> dict:
    """The BENCH_<n>.json object from the (parent run, change run) pairs of
    each workload and the traced pair of each workload (`traced` may be
    empty); `end_to_end` is BENCHMARK.json's list of the same name."""
    every_pair = [pair for ps in pairs.values() for pair in ps] + list(traced.values())
    out = {
        "what": what,
        "command": COMMAND.format(seconds=f"{seconds:g}"),
        "seeds": seeds,
        "pairs": {w: len(ps) for w, ps in pairs.items()} | ({"traced": 1} if traced else {}),
        "failed_operations": per_side(every_pair, "failed"),
        "attempted_operations": per_side(every_pair, "attempted"),
        "env": every_pair[0][1]["info"]["env"] if every_pair else None,
        "host_factor": {},
        "minflt": {},
    }
    for workload, ps in pairs.items():
        for metric in end_to_end:
            name = metric["name"]
            out[f"{workload}/{name}"] = compare(
                [parent["result"]["metrics"][name]["value"] for parent, _ in ps],
                [change["result"]["metrics"][name]["value"] for _, change in ps],
                metric["unit"], metric["better"])
            out[f"{workload}/{name}"]["wall"] = spread(
                [parent["info"]["raw_metrics"][name] for parent, _ in ps],
                [change["info"]["raw_metrics"][name] for _, change in ps])
        out["host_factor"][workload] = {
            side: statistics.median(pair[i]["info"]["host"]["factor_median"] for pair in ps)
            for i, side in enumerate(("parent", "change"))}
        out["minflt"][workload] = spread([parent["minflt"] for parent, _ in ps],
                                         [change["minflt"] for _, change in ps])
    out["traced"] = {}
    for workload, (parent, change) in traced.items():
        p, c = parent["result"]["metrics"], change["result"]["metrics"]
        for name in sorted(p.keys() | c.keys()):
            out["traced"][f"{workload}/{name}"] = {
                "parent": p[name]["value"] if name in p else None,
                "change": c[name]["value"] if name in c else None,
                "unit": (p.get(name) or c[name])["unit"]}
    return out


def summarize_ablate(walls: list[tuple[float, float]]) -> dict:
    """The "ablate" entry from the (parent, change) wall seconds of each grid pair."""
    return {"command": ABLATE_COMMAND, "pairs": len(walls),
            "tables": f"{' and '.join(ABLATE_FILES)} byte-identical in every pair",
            "wall_s": compare([p for p, _ in walls], [c for _, c in walls], "s", "lower")}


def per_side(pairs: list[tuple[dict, dict]], key: str) -> dict:
    return {side: sum(pair[i]["result"][key] for pair in pairs)
            for i, side in enumerate(("parent", "change"))}


def run_pair(trees: tuple[Path, Path], workload: str, seed: int, seconds: float,
             trace: bool, parent_first: bool) -> tuple[dict, dict]:
    out = [None, None]
    for side in ((0, 1) if parent_first else (1, 0)):
        out[side] = run_once(trees[side], workload, seed, seconds, trace)
    return out[0], out[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    ap.add_argument("--change", type=Path, default=ROOT, help="tree of the change (default: this one)")
    ap.add_argument("--pairs", nargs="*", default=[], metavar="WORKLOAD=N")
    ap.add_argument("--ablate-pairs", type=int, default=0, metavar="N",
                    help=f"also time N pairs of `normaug ablate` on {ABLATE_CONFIG}")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--traced", action="store_true", help="add a --trace 1 pair per workload")
    ap.add_argument("--what", required=True, help="the comparison, in words")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if not args.pairs and args.ablate_pairs < 1:
        ap.error("nothing to run: give --pairs or --ablate-pairs")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    counts = {}
    for item in args.pairs:
        workload, eq, n = item.partition("=")
        if not eq or not n.isdigit():
            ap.error(f"--pairs takes WORKLOAD=N, got {item!r}")
        counts[workload] = int(n)
    seeds, seed = {}, args.first_seed
    for workload, n in counts.items():
        seeds[workload], seed = list(range(seed, seed + n)), seed + n
    if args.traced:
        seeds["traced"] = [seed]

    trees = (args.parent.resolve(), args.change.resolve())
    pairs: dict[str, list] = {}
    for workload in counts:
        pairs[workload] = []
        for i, s in enumerate(seeds[workload]):
            pair = run_pair(trees, workload, s, seconds, False, i % 2 == 0)
            pairs[workload].append(pair)
            ratios = {m: round(pair[1]["result"]["metrics"][m]["value"]
                               / pair[0]["result"]["metrics"][m]["value"], 4)
                      for m in ("setup_s", "rows_per_s", "op_ms_p50", "peak_rss_mb")}
            print(f"{workload} seed {s}: change/parent {ratios}", file=sys.stderr, flush=True)
    traced = {w: run_pair(trees, w, seeds["traced"][0], seconds, True, True)
              for w in counts} if args.traced else {}
    out = summarize(pairs, traced, spec["end_to_end"], seeds, args.what, seconds)
    if args.ablate_pairs:
        walls = []
        with tempfile.TemporaryDirectory(prefix="bench_pairs_ablate_") as tmp:
            for i in range(args.ablate_pairs):
                work = Path(tmp) / str(i)
                walls.append(ablate_pair(trees, trees[1] / ABLATE_CONFIG, work, i % 2 == 0))
                print(f"ablate pair {i}: parent {walls[-1][0]:.1f} s, change {walls[-1][1]:.1f} s",
                      file=sys.stderr, flush=True)
        out["ablate"] = summarize_ablate(walls)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
