"""Command-line entry point.

Subcommands: gen-data, train, eval, diagnose, ablate. Runs are driven by a
flat key=value config file (UTF-8, `#` comments), which sets every run
value; each command takes exactly `--config` and `--out`. Output files are
written with a `.partial` suffix and renamed into place only when complete;
`--out` is made by the first write, so a refused command leaves nothing
behind. Exit codes: 0 success; 2 bad input, i.e. any ValueError, raised
naming the key or file by the config, function or loader that owns the rule
(a config value, a malformed dataset or checkpoint, or the two
disagreeing); 1 anything else: an I/O failure, such as a missing dataset
file, or diverged training.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import datagen, diagnostics, experiments, inference, training
from .inference import FusionStrategy, SubpathScope
from .model import (ModelConfig, config_from_text, init_model, load_checkpoint, parse_value,
                    read_config, save_checkpoint)
from .training import TrainConfig


# ---------------------------------------------------------------------------
# config file


GEN_PARAMS = inspect.signature(datagen.generate).parameters
GEN_KEYS = set(GEN_PARAMS)
# the data fixes a model's input and output sizes
MODEL_KEYS = ({f.name for f in fields(ModelConfig)}
              - {"input_dim", "num_classes", "num_domains"})
TRAIN_KEYS = {f.name for f in fields(TrainConfig)} | {"dataset", "target_domain"}
EVAL_KEYS = {"checkpoint", "dataset", "target_domain", "strategy", "scope"}
DIAGNOSE_KEYS = {"checkpoint", "dataset", "target_domain", "probe_rows", "seed"}
# every ablate grid cell sets its own switches and seed
ABLATE_CELL_KEYS = {"use_on", "use_aug", "seed"}
ABLATE_KEYS = (({"seeds"} | GEN_KEYS | MODEL_KEYS | TRAIN_KEYS)
               - {"dataset"} - ABLATE_CELL_KEYS)
# the keys each command reads (ablate also reads its cell keys, to refuse them)
COMMAND_KEYS = {
    "gen-data": GEN_KEYS,
    "train": MODEL_KEYS | TRAIN_KEYS,
    "eval": EVAL_KEYS,
    "diagnose": DIAGNOSE_KEYS,
    "ablate": ABLATE_KEYS | ABLATE_CELL_KEYS,
}
KNOWN_KEYS = set().union(*COMMAND_KEYS.values())


def parse_config(path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:  # `e.object` is the whole file
        head = e.object[:e.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1  # counted as `read_text` breaks lines
        raise ValueError(f"{p}:{line}: not valid UTF-8 (byte 0x{e.object[e.start]:02x})"
                         ) from None
    return read_config(text, KNOWN_KEYS, str(p))


def _value(cfg: dict, key: str, default):
    """`cfg[key]` parsed as the type of `default`, or `default` if unset."""
    if key not in cfg:
        return default
    kind = tuple[int, ...] if isinstance(default, tuple) else type(default)
    return parse_value(key, cfg[key], kind)


def train_config_from(cfg: dict) -> TrainConfig:
    """Validated before any file is read; a ModelConfig is validated by the
    `init_model` that uses it."""
    tc = config_from_text(TrainConfig, cfg)
    tc.validate()
    return tc


def _gen_kwargs(cfg: dict) -> dict:
    """Every `datagen.generate` keyword, from `cfg` or the signature default."""
    return {name: _value(cfg, name, p.default) for name, p in GEN_PARAMS.items()}


def _require(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ValueError(f"config key {key!r} is required for this command")
    return cfg[key]


def _check_dataset(model, dataset: datagen.Dataset) -> None:
    """The dataset must fit the checkpoint's model: its sources plus one
    held-out domain, its input width, and labels it can score."""
    mc = model.config
    domains = int(np.unique(dataset.domain_ids).size)
    if domains != mc.num_domains + 1:
        raise ValueError(f"dataset has {domains} domains, the model needs "
                         f"{mc.num_domains + 1} ({mc.num_domains} sources + 1 held out)")
    if dataset.feature_dim != mc.input_dim:
        raise ValueError(f"dataset has feature_dim {dataset.feature_dim}, "
                         f"the model has input_dim {mc.input_dim}")
    if dataset.num_classes > mc.num_classes:
        raise ValueError(f"dataset has labels up to {dataset.num_classes - 1}, "
                         f"the model has num_classes {mc.num_classes}")


# ---------------------------------------------------------------------------
# artifacts


def _write_atomic(path: Path, write) -> None:
    """`write(partial)` to `path` with a `.partial` suffix, then rename it
    into place, so `path` appears only when complete; makes the directory
    first, and removes the partial file if `write` raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        write(partial)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    os.replace(partial, path)


def _write_csv_atomic(path: Path, header, rows: list[list]) -> None:
    def write(partial: Path) -> None:
        with open(partial, "w", encoding="utf-8", newline="") as f:
            csv.writer(f).writerows([header, *rows])

    _write_atomic(path, write)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(cfg: dict, out: Path) -> None:
    ds, _ = datagen.generate(**_gen_kwargs(cfg))
    path = out / "dataset.csv"
    _write_atomic(path, lambda partial: datagen.save(ds, partial))
    print(f"wrote {path} ({len(ds)} rows, {ds.num_domains} domains)")


def cmd_train(cfg: dict, out: Path) -> None:
    tc = train_config_from(cfg)
    dataset = datagen.load(_require(cfg, "dataset"))
    target = _value(cfg, "target_domain", dataset.num_domains - 1)  # split_lodo checks it
    n_sources = int(np.unique(dataset.domain_ids).size) - 1
    mc = config_from_text(ModelConfig, cfg, input_dim=dataset.feature_dim,
                          num_classes=dataset.num_classes, num_domains=n_sources)
    model = init_model(mc, seed=tc.seed)
    result = training.train(model, dataset, target, tc)
    metrics_path = out / "metrics.csv"
    _write_csv_atomic(metrics_path, training.METRICS_COLUMNS,
                      [[r["epoch"], *(_fmt(r[c]) for c in training.METRICS_COLUMNS[1:])]
                       for r in result.metrics])
    ckpt_path = out / "model.ckpt"
    _write_atomic(ckpt_path, lambda partial: save_checkpoint(
        result.model, partial, epoch=tc.epochs, rng_state=result.rng_state))
    final = result.final
    print(f"wrote {ckpt_path} and {metrics_path}; "
          f"final target accuracy main={final['tgt_acc_main']:.4f} "
          f"ensemble={final['tgt_acc_ensemble']:.4f}")


def _load_run(cfg: dict):
    """The checkpoint's model and the fitting dataset's source and held-out splits."""
    model = load_checkpoint(_require(cfg, "checkpoint"))[0]
    dataset = datagen.load(_require(cfg, "dataset"))
    _check_dataset(model, dataset)
    sources, target_set = datagen.split_lodo(
        dataset, _value(cfg, "target_domain", dataset.num_domains - 1))
    return model, sources, target_set


def cmd_eval(cfg: dict, out: Path) -> None:
    model, _, target_set = _load_run(cfg)
    strategy = (FusionStrategy.from_name(cfg["strategy"]) if "strategy" in cfg
                else inference.default_strategy(model))
    scope = SubpathScope.from_name(cfg.get("scope", SubpathScope.INDEPENDENT_ONLY.value))
    report = inference.evaluate(model, target_set.features, target_set.labels,
                                strategy, scope)
    rows = [[name, _fmt(acc)] for name, acc in sorted(report.per_path.items())]
    rows.append(["fused", _fmt(report.fused_accuracy)])
    path = out / "accuracy.csv"
    _write_csv_atomic(path, ["path_name", "accuracy"], rows)
    print(f"wrote {path}; fused accuracy {report.fused_accuracy:.4f} "
          f"({strategy.value}, {scope.value})")


def cmd_diagnose(cfg: dict, out: Path) -> None:
    probe_rows = _value(cfg, "probe_rows", 64)
    if probe_rows < 1:
        raise ValueError(f"config key probe_rows: expected a positive integer, got {probe_rows}")
    seed = _value(cfg, "seed", 0)
    if seed < 0:
        raise ValueError(f"config key seed: expected a non-negative integer, got {seed}")
    model, sources, target_set = _load_run(cfg)
    rng = np.random.default_rng(seed)

    by_domain = {int(d): sources.features[sources.domain_ids == d]
                 for d in np.unique(sources.domain_ids)}
    report = diagnostics.divergence(model, by_domain, target_set.features)

    rows = [["divergence", "d_s2s", _fmt(report.d_s2s)],
            ["divergence", "d_s2t", _fmt(report.d_s2t)]]

    domains = sorted(by_domain)
    probe_domain = domains[0]
    probe = _draw_rows(by_domain[probe_domain], probe_rows, rng)
    companions: list[tuple[str, np.ndarray]] = [("probe_copy", probe.copy())]
    for d in domains[1:]:
        companions.append((f"domain_{d}", _draw_rows(by_domain[d], probe_rows, rng)))
    if len(domains) > 2:
        merged = np.concatenate([by_domain[d] for d in domains[1:]])
        companions.append(("other_sources", _draw_rows(merged, probe_rows, rng)))
    companions.append(("target", _draw_rows(target_set.features, probe_rows, rng)))
    for name, disp in diagnostics.perturbation_probe(model, probe, companions):
        rows.append(["probe", name, _fmt(disp)])

    path = out / "diagnostics.csv"
    _write_csv_atomic(path, ["metric", "name", "value"], rows)
    print(f"wrote {path}; d_s2s={report.d_s2s:.4f} d_s2t={report.d_s2t:.4f}")


def _draw_rows(features: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    count = min(count, features.shape[0])
    return features[rng.choice(features.shape[0], size=count, replace=False)]


def cmd_ablate(cfg: dict, out: Path) -> None:
    overridden = sorted(ABLATE_CELL_KEYS & cfg.keys())
    if overridden:
        raise ValueError(f"config key {', '.join(overridden)}: every grid cell sets its own "
                         f"switches and seed (the seed list is `seeds`)")
    seeds = list(_value(cfg, "seeds", (0, 1, 2, 3, 4)))
    tc = train_config_from(cfg)
    gen_kwargs = _gen_kwargs(cfg)
    del gen_kwargs["seed"]  # one dataset per grid seed
    last = gen_kwargs["num_domains"] - 1
    if _value(cfg, "target_domain", last) != last:
        raise ValueError(f"config key target_domain: ablate holds out the last domain "
                         f"({last}), got {cfg['target_domain']!r}")
    # validated by each cell's init_model, after `generate` checked the keys that shape it
    base = config_from_text(ModelConfig, cfg, input_dim=gen_kwargs["feature_dim"],
                            num_classes=gen_kwargs["num_classes"], num_domains=last)
    variants, fusion = experiments.ablation_grid(
        seeds, train_config=tc, base_model_config=base, generate_kwargs=gen_kwargs)
    for name, keys, rows in (("ablation.csv", ["variant"], variants),
                             ("fusion.csv", ["strategy", "scope"], fusion)):
        _write_csv_atomic(out / name, [*keys, "mean_tgt_acc", "std_tgt_acc"],
                          [[*(r[k] for k in keys), _fmt(r["mean_tgt_acc"]),
                            _fmt(r["std_tgt_acc"])] for r in rows])
    summary = ", ".join(f"{r['variant']}={r['mean_tgt_acc']:.4f}" for r in variants)
    print(f"wrote {out / 'ablation.csv'} and {out / 'fusion.csv'}; {summary}")


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {"gen-data": cmd_gen_data, "train": cmd_train, "eval": cmd_eval,
            "diagnose": cmd_diagnose, "ablate": cmd_ablate}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normaug",
        description="Normalization-guided augmentation experiments on synthetic "
                    "multi-domain data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("gen-data", "generate a synthetic multi-domain dataset CSV"),
        ("train", "train a model and write checkpoint + per-epoch metrics"),
        ("eval", "evaluate a checkpoint on the held-out domain"),
        ("diagnose", "write divergence and perturbation-probe diagnostics"),
        ("ablate", "run the ON/AUG/EP ablation grid and the fusion table over a seed list"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        ignored = sorted(cfg.keys() - COMMAND_KEYS[args.command])
        if ignored:
            # one config file serves every command, so other commands' keys are not errors
            print(f"normaug {args.command}: ignoring config keys {', '.join(ignored)}",
                  file=sys.stderr)
        COMMANDS[args.command](cfg, Path(args.out))
    except ValueError as e:  # bad input
        print(f"normaug {args.command}: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary: I/O, diverged training
        print(f"normaug {args.command}: failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
