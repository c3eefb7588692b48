"""Check that a change keeps the bits of the README pipeline, the acceptance
gate and the benchmark's training runs: run each in a parent tree and in a
change tree, and compare.

Usage:
    python3 scripts/bits_check.py --parent ../parent --change . \
        --config configs/benchmark.txt

Each tree runs, in its own temporary directory and from its own `src/`:
`gen-data`, `train`, `eval` with the default fusion rule, `eval` with
`strategy = MeanAll` and `scope = all_units`, `eval` with `scope =
all_units` alone, `diagnose` with the config's keys and with `probe_rows =
16` and `seed = 3`, and `ablate`, all from `--config` (with its `dataset`
and `checkpoint` keys replaced by paths into that directory, and the keys
named here set; `ablate` reads the config as given, so its `seeds` list
sets the grid's size). For every artifact the tool prints `identical`, `moved` or
which tree did not write it (`missing in the parent`); for a moved CSV, its
first differing line and the largest absolute difference over the numeric
fields; for a moved `model.ckpt`, the versions if they differ, the first
differing line of the config block, and the first differing array (name,
shape or largest difference) or `arrays identical`. Then each tree runs
`predict` for every fusion rule and sub-path scope on the parent's dataset
and checkpoint, once on the held-out split and once on its rows repeated to
`SEAM_ROWS` rows, which crosses the seams of the evaluation walk's
1024-row pieces, and the tool prints, per rule, scope and split, the
largest difference in fused probabilities and the number of rows whose
argmax flipped, and the largest difference of the main route and of the
sub-paths over every route both trees ran; the routes only one tree ran
(a tree may skip those a rule does not read) are named in one line. The
held-out domain is the one the parent's `model.ckpt` records; the tool
reads it once, names it, and passes it to both trees, so `predict` calls
only the library, not the CLI's helpers. The tool reads the config and
both checkpoints with its own tree's `normaug.cli.parse_config` and
`normaug.model` readers, so it reads them by the same rules as the CLI.

Then each tree runs its own `tests/test_acceptance.py`, and the tool
compares the ACCEPTANCE lines criterion by criterion, with timings (`0.3s`,
`34s`) left out. Last, each tree's `perfbench/run.py` is imported, read
only, and its own workloads, schedule and `run_digest` give the digests of
the `train_aug` and `train_main` runs and of the `eval_fusion` set-up's
warm-up run, for seeds 1 and 7; the tool compares them. Each digest is
taken over what a `run_variants` run holds in either tree: every epoch's
`epoch` and `train_loss`, the final row whole, and the target accuracy
(`run_variants` scores only the final epoch; a tree that scores every
epoch has the same bits in those fields).

Exits 0 when every step ran in both trees, whatever moved.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from normaug.cli import parse_config  # noqa: E402  (this tree's readers)
from normaug.model import checkpoint_parts, load_checkpoint  # noqa: E402

# artifact name -> path inside a tree's run directory
ARTIFACTS = {
    "dataset.csv": "dataset.csv",
    "metrics.csv": "metrics.csv",
    "model.ckpt": "model.ckpt",
    "accuracy.csv (default)": "eval_default/accuracy.csv",
    "accuracy.csv (MeanAll, all_units)": "eval_all/accuracy.csv",
    "accuracy.csv (all_units)": "eval_scope/accuracy.csv",
    "diagnostics.csv": "diagnostics.csv",
    "diagnostics.csv (probe_rows 16, seed 3)": "diagnose_probe/diagnostics.csv",
    "ablation.csv": "ablate/ablation.csv",
    "fusion.csv": "ablate/fusion.csv",
}
# rows of the second `predict` split: more than two 1024-row pieces of the
# evaluation walk and one 128-row product block more
SEAM_ROWS = 2 * 1024 + 128 + 3
# writes every fusion rule's and scope's probabilities on the held-out domain,
# and on its rows repeated to `rows` rows, to an .npz, from one tree's public
# library
PREDICT = """
import sys
import numpy as np
from normaug import datagen, inference
from normaug.model import load_checkpoint
target_domain, checkpoint, dataset, rows, out = sys.argv[1:]
model = load_checkpoint(checkpoint)[0]
_, target = datagen.split_lodo(datagen.load(dataset), int(target_domain))
splits = {"": target.features,
          f" ({rows} rows)": np.resize(target.features, (int(rows), target.feature_dim))}
arrays = {}
for strategy in inference.FusionStrategy:
    if strategy is not inference.FusionStrategy.MAIN_ONLY and not model.config.use_aug:
        continue
    for scope in inference.SubpathScope:
        for split, features in splits.items():
            fused, per_path = inference.predict(model, features, strategy, scope)
            key = f"{strategy.value}/{scope.value}{split}"
            arrays[key + "/fused"] = fused
            arrays.update((f"{key}/{name}", p) for name, p in per_path.items())
np.savez(out, **arrays)
"""
# prints the perfbench run digests of one tree as JSON, from its own run.py
PERFBENCH = """
import importlib.util
import json
import sys
from pathlib import Path
tree, work, scale, *seeds = sys.argv[1:]
spec = importlib.util.spec_from_file_location("perfbench_run", Path(tree) / "perfbench" / "run.py")
run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
run.import_normaug()
full_digest = run.run_digest
run.run_digest = lambda rows, acc: full_digest(
    [{k: r[k] for k in ("epoch", "train_loss")} for r in rows[:-1]] + rows[-1:], acc)
digests = {}
for seed in map(int, seeds):
    bench = run.Bench(getattr(run, scale), seed, Path(work))
    for name, wl in (("train_aug", run.TrainWorkload(bench, "on_aug")),
                     ("train_main", run.TrainWorkload(bench, "on")),
                     ("eval_fusion", run.EvalWorkload(bench))):
        wl.setup()
        if name != "eval_fusion":
            wl.unit(run.new_record())
        digests[f"{name} seed {seed}"] = wl.digest
    if bench.checks.failed:
        sys.exit(f"perfbench checks failed: {bench.checks.messages}")
print(json.dumps(digests))
"""
PERFBENCH_SEEDS = (1, 7)
# a timing in an ACCEPTANCE line: `in 0.3s`, `grid=34s`
TIMING = re.compile(r"\b\d+(?:\.\d+)?s\b")


def normaug(tree: Path, cwd: Path, *args: str) -> None:
    """One `normaug` command from `tree`'s source, run in `cwd`."""
    run_python(tree, cwd, "-m", "normaug.cli", *args)


def run_python(tree: Path, cwd: Path, *args: str, ok: tuple[int, ...] = (0,)) -> str:
    """Python with `tree`'s `src/` on the path; its standard output. An exit
    code outside `ok` is a RuntimeError."""
    env = os.environ | {"PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=1800)
    if proc.returncode not in ok:
        raise RuntimeError(f"{tree}: {' '.join(args[:4])}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return proc.stdout


def pipeline_config(config: Path, work: Path, **keys: str) -> str:
    """The keys of the config file `config`, one `key = value` line each,
    with `dataset` and `checkpoint` set to paths into `work` and `keys` set."""
    cfg = parse_config(config) | {"dataset": str(work / "dataset.csv"),
                                  "checkpoint": str(work / "model.ckpt")} | keys
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


# the runs after `train` that set keys of their own: (command, output
# directory, keys set over the pipeline config)
KEYED_RUNS = [
    ("eval", "eval_all", {"strategy": "MeanAll", "scope": "all_units"}),
    ("eval", "eval_scope", {"scope": "all_units"}),
    ("diagnose", "diagnose_probe", {"probe_rows": "16", "seed": "3"}),
]


def run_pipeline(tree: Path, config: Path, work: Path) -> None:
    """The README pipeline from `config` in `work`, and the `KEYED_RUNS`,
    with `dataset` and `checkpoint` pointing into `work`."""
    work.mkdir(parents=True)
    run_config = work / "run.txt"
    run_config.write_text(pipeline_config(config, work), encoding="utf-8")
    cfg = str(run_config)
    normaug(tree, work, "gen-data", "--config", str(config), "--out", str(work))
    normaug(tree, work, "train", "--config", cfg, "--out", str(work))
    normaug(tree, work, "eval", "--config", cfg, "--out", str(work / "eval_default"))
    normaug(tree, work, "diagnose", "--config", cfg, "--out", str(work))
    for command, out, keys in KEYED_RUNS:
        keyed = work / f"{out}.txt"
        keyed.write_text(pipeline_config(config, work, **keys), encoding="utf-8")
        normaug(tree, work, command, "--config", str(keyed), "--out", str(work / out))
    normaug(tree, work, "ablate", "--config", str(config), "--out", str(work / "ablate"))


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def compare_bytes(parent: bytes, change: bytes, text: bool) -> str:
    """`identical`, or `moved` with the first differing line (text) or byte
    (binary) and, for text, the largest absolute difference over the
    numeric fields that sit at the same line and column on both sides."""
    if parent == change:
        return "identical"
    if not text:
        diff = next((i for i, (a, b) in enumerate(zip(parent, change)) if a != b),
                    min(len(parent), len(change)))
        return f"moved: first difference at byte {diff} ({len(parent)} vs {len(change)} bytes)"
    p_lines = parent.decode("utf-8").splitlines()
    c_lines = change.decode("utf-8").splitlines()
    first = next((i for i, (a, b) in enumerate(zip(p_lines, c_lines)) if a != b),
                 min(len(p_lines), len(c_lines)))
    largest = 0.0
    for a, b in zip(p_lines, c_lines):
        for x, y in zip(a.split(","), b.split(",")):
            x, y = _number(x), _number(y)
            if x is not None and y is not None:
                largest = max(largest, abs(x - y))
    shown = [lines[first] if first < len(lines) else "<end of file>"
             for lines in (p_lines, c_lines)]
    return (f"moved: line {first + 1}: parent {shown[0]!r}, change {shown[1]!r}; "
            f"{len(p_lines)} vs {len(c_lines)} lines; largest numeric difference {largest:.3g}")


def _first_array_difference(parent: list, change: list) -> str:
    for (p_name, p_shape, p_data), (c_name, c_shape, c_data) in zip_longest(
            parent, change, fillvalue=("<none>", (), b"")):
        if p_name != c_name:
            return f"first differing array: parent {p_name}, change {c_name}"
        if p_shape != c_shape:
            return f"first differing array {p_name}: shape {p_shape} vs {c_shape}"
        if p_data != c_data:
            largest = np.abs(np.frombuffer(p_data, "<f8") - np.frombuffer(c_data, "<f8")).max()
            return f"first differing array {p_name}: largest difference {largest:.3g}"
    return "arrays identical"


def _shown(lines: list[str], i: int, width: int = 48) -> str:
    line = lines[i] if i < len(lines) else "<end of block>"
    return repr(line if len(line) <= width else line[:width] + "...")


def compare_checkpoints(parent: bytes, change: bytes) -> str:
    """`identical`, or `moved` with the versions if they differ, the first
    differing config block line, and the first differing array or `arrays
    identical`; `compare_bytes` for bytes that are not a checkpoint."""
    if parent == change:
        return "identical"
    try:
        (p_version, p_block, p_arrays), (c_version, c_block, c_arrays) = (
            (version, block.splitlines(), list(records))
            for version, block, records in map(checkpoint_parts, (parent, change)))
    except ValueError:
        return compare_bytes(parent, change, text=False)
    parts = [f"version {p_version} vs {c_version}"] if p_version != c_version else []
    if p_block != c_block:
        i = next((i for i, (a, b) in enumerate(zip(p_block, c_block)) if a != b),
                 min(len(p_block), len(c_block)))
        parts.append(f"config block differs (line {i + 1}: parent {_shown(p_block, i)}, "
                     f"change {_shown(c_block, i)})")
    return "moved: " + "; ".join(parts + [_first_array_difference(p_arrays, c_arrays)])


def compare_files(parent: Path, change: Path) -> str:
    """`compare_checkpoints` of two `.ckpt` files, `compare_bytes` of two
    other artifact files, or which side lacks the file."""
    missing = [side for side, path in (("parent", parent), ("change", change))
               if not path.is_file()]
    if missing:
        return f"missing in the {' and the '.join(missing)}"
    if parent.suffix == ".ckpt":
        return compare_checkpoints(parent.read_bytes(), change.read_bytes())
    return compare_bytes(parent.read_bytes(), change.read_bytes(), text=True)


def compare_predictions(parent: dict, change: dict) -> list[str]:
    """Per rule and scope, the largest fused-probability difference and the
    argmax flips; then the largest main-route and sub-path differences,
    over the routes both trees ran; then, if any, one line naming the
    routes only one tree ran (a tree may skip the routes a rule does not
    read)."""
    lines = []
    main = subs = 0.0
    for key in sorted(parent.keys() & change.keys()):
        p, c = parent[key], change[key]
        if p.shape != c.shape:
            lines.append(f"predict {key}: shape {p.shape} vs {c.shape}")
            continue
        largest = float(np.abs(p - c).max(initial=0.0))
        rule, scope, route = key.split("/")
        if route == "fused":
            flips = int((p.argmax(axis=1) != c.argmax(axis=1)).sum())
            lines.append(f"predict {rule}/{scope}: largest fused difference {largest:.3g}, "
                         f"argmax flips {flips}")
        elif route == "main":
            main = max(main, largest)
        else:
            subs = max(subs, largest)
    lines.append(f"predict: largest main-route difference {main:.3g}, "
                 f"largest sub-path difference {subs:.3g}")
    only = [f"{side} {sorted(a.keys() - b.keys())}"
            for side, a, b in (("parent", parent, change), ("change", change, parent))
            if a.keys() - b.keys()]
    if only:
        lines.append(f"predict: routes run in one tree only: {'; '.join(only)}")
    return lines


def acceptance_lines(output: str) -> dict[str, str]:
    """The ACCEPTANCE lines of a gate run's output: criterion -> the rest of
    the line, with each timing replaced by `<t>s`."""
    lines = {}
    for line in output.splitlines():
        if line.startswith("ACCEPTANCE "):
            criterion, _, rest = line[len("ACCEPTANCE "):].partition(": ")
            lines[criterion] = TIMING.sub("<t>s", rest.strip())
    return lines


def compare_keyed(label: str, parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per key of either side, the parent's first: `identical`,
    `moved` with both values, or missing on one side."""
    lines = []
    for key in [*parent, *(k for k in change if k not in parent)]:
        p, c = parent.get(key), change.get(key)
        if p == c:
            status = "identical"
        elif p is None or c is None:
            status = f"missing in the {'parent' if p is None else 'change'}"
        else:
            status = f"moved: parent {p!r}, change {c!r}"
        lines.append(f"{label} {key}: {status}")
    return lines


def perfbench_digests(tree: Path, work: Path, seeds=PERFBENCH_SEEDS,
                      scale: str = "FULL") -> dict[str, str]:
    """`tree`'s perfbench run digests per workload and seed, from its own
    `perfbench/run.py` at its `scale` schedule."""
    work.mkdir(parents=True)
    out = run_python(tree, work, "-c", PERFBENCH, str(tree), str(work), scale, *map(str, seeds))
    return json.loads(out.splitlines()[-1])


def check_gate(parent: Path, change: Path, work: Path) -> list[str]:
    """The ACCEPTANCE lines, timings aside, and the perfbench digests of the
    two trees, compared."""
    gate, digests = {}, {}
    for side, tree in (("parent", parent), ("change", change)):
        # a failed criterion exits 1 and still prints its line
        out = run_python(tree, tree, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
                         "tests/test_acceptance.py", ok=(0, 1))
        gate[side] = acceptance_lines(out)
        digests[side] = perfbench_digests(tree, work / f"perfbench_{side}")
    return ([f"ACCEPTANCE: {len(gate['parent'])} lines in the parent, "
             f"{len(gate['change'])} in the change"]
            + compare_keyed("ACCEPTANCE", gate["parent"], gate["change"])
            + compare_keyed("perfbench", digests["parent"], digests["change"]))


def check(parent: Path, change: Path, config: Path, work: Path) -> list[str]:
    """The pipeline's and `predict`'s comparison lines for the two trees,
    run under `work`."""
    for side, tree in (("parent", parent), ("change", change)):
        run_pipeline(tree, config, work / side)
    lines = []
    for name, rel in ARTIFACTS.items():
        lines.append(f"{name}: {compare_files(work / 'parent' / rel, work / 'change' / rel)}")
    dataset, checkpoint = work / "parent" / "dataset.csv", work / "parent" / "model.ckpt"
    target = load_checkpoint(checkpoint)[2]
    if target is None:
        sys.exit(f"{checkpoint} records no held-out domain")
    lines.append(f"predict: held-out domain {target} (recorded in the parent's model.ckpt)")
    probs = {}
    for side, tree in (("parent", parent), ("change", change)):
        out = work / f"predict_{side}.npz"
        run_python(tree, work, "-c", PREDICT, str(target), str(checkpoint), str(dataset),
                   str(SEAM_ROWS), str(out))
        with np.load(out) as z:
            probs[side] = {k: z[k] for k in z.files}
    return lines + compare_predictions(probs["parent"], probs["change"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    ap.add_argument("--change", type=Path, default=ROOT, help="tree of the change (default: this one)")
    ap.add_argument("--config", type=Path, required=True, help="pipeline config file")
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryDirectory(prefix="bits_check_") as tmp:
        for line in check(parent, change, args.config.resolve(), Path(tmp)):
            print(line, flush=True)
        for line in check_gate(parent, change, Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
