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
from pathlib import Path

import numpy as np

from . import datagen, diagnostics, experiments, inference, training
from .datagen import SplitConfig
from .diagnostics import DiagnoseConfig
from .experiments import AblateConfig
from .inference import EvalConfig, RunConfig
from .model import (ModelConfig, config_from_text, config_values, init_model, read_config,
                    save_checkpoint)
from .training import TrainConfig


# ---------------------------------------------------------------------------
# config file


def parse_config(path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {p}")
    text = p.read_text(encoding="utf-8", errors="surrogateescape")
    for ln, line in enumerate(text.split("\n"), start=1):  # as `read_text` breaks lines
        datagen.check_utf8(p, ln, line)
    return read_config(text, KNOWN_KEYS, str(p))


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
    ds, _ = datagen.generate(**config_values(datagen.generate, cfg))
    path = out / "dataset.csv"
    _write_atomic(path, lambda partial: datagen.save(ds, partial))
    print(f"wrote {path} ({len(ds)} rows, {ds.num_domains} domains)")


def cmd_train(cfg: dict, out: Path) -> None:
    tc = config_from_text(TrainConfig, cfg)
    tc.validate()  # before any file is read; a ModelConfig is validated by `init_model`
    split = config_from_text(SplitConfig, cfg)
    dataset = datagen.load(split.dataset)
    n_sources = int(np.unique(dataset.domain_ids).size) - 1
    mc = config_from_text(ModelConfig, cfg, input_dim=dataset.feature_dim,
                          num_classes=dataset.num_classes, num_domains=n_sources)
    model = init_model(mc, seed=tc.seed)
    result = training.train(model, dataset, split.target_domain, tc)
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


def cmd_eval(cfg: dict, out: Path) -> None:
    ec = config_from_text(EvalConfig, cfg)
    model, _, target_set = config_from_text(RunConfig, cfg).load()
    strategy = ec.strategy or inference.default_strategy(model)
    report = inference.evaluate(model, target_set.features, target_set.labels,
                                strategy, ec.scope)
    rows = [[name, _fmt(acc)] for name, acc in sorted(report.per_path.items())]
    rows.append(["fused", _fmt(report.fused_accuracy)])
    path = out / "accuracy.csv"
    _write_csv_atomic(path, ["path_name", "accuracy"], rows)
    print(f"wrote {path}; fused accuracy {report.fused_accuracy:.4f} "
          f"({strategy.value}, {ec.scope.value})")


def cmd_diagnose(cfg: dict, out: Path) -> None:
    dc = config_from_text(DiagnoseConfig, cfg)
    dc.validate()  # before any file is read
    model, sources, target_set = config_from_text(RunConfig, cfg).load()
    by_domain = {int(d): sources.features[sources.domain_ids == d]
                 for d in np.unique(sources.domain_ids)}
    report = diagnostics.divergence(model, by_domain, target_set.features)
    rows = [["divergence", "d_s2s", _fmt(report.d_s2s)],
            ["divergence", "d_s2t", _fmt(report.d_s2t)]]
    probe, companions = diagnostics.probe_sets(by_domain, target_set.features, dc)
    for name, disp in diagnostics.perturbation_probe(model, probe, companions):
        rows.append(["probe", name, _fmt(disp)])
    path = out / "diagnostics.csv"
    _write_csv_atomic(path, ["metric", "name", "value"], rows)
    print(f"wrote {path}; d_s2s={report.d_s2s:.4f} d_s2t={report.d_s2t:.4f}")


def cmd_ablate(cfg: dict, out: Path) -> None:
    ac = config_from_text(AblateConfig, cfg)
    gen_kwargs = config_values(datagen.generate, cfg)
    del gen_kwargs["seed"]  # one dataset per grid seed
    ac.validate(gen_kwargs["num_domains"])
    tc = config_from_text(TrainConfig, cfg)
    tc.validate()
    # validated by each cell's init_model, after `generate` checked the keys that shape it
    base = config_from_text(ModelConfig, cfg, input_dim=gen_kwargs["feature_dim"],
                            num_classes=gen_kwargs["num_classes"],
                            num_domains=gen_kwargs["num_domains"] - 1)
    variants, fusion = experiments.ablation_grid(
        list(ac.seeds), train_config=tc, base_model_config=base, generate_kwargs=gen_kwargs)
    for name, keys, rows in (("ablation.csv", ["variant"], variants),
                             ("fusion.csv", ["strategy", "scope"], fusion)):
        _write_csv_atomic(out / name, [*keys, "mean_tgt_acc", "std_tgt_acc"],
                          [[*(r[k] for k in keys), _fmt(r["mean_tgt_acc"]),
                            _fmt(r["std_tgt_acc"])] for r in rows])
    summary = ", ".join(f"{r['variant']}={r['mean_tgt_acc']:.4f}" for r in variants)
    print(f"wrote {out / 'ablation.csv'} and {out / 'fusion.csv'}; {summary}")


# ---------------------------------------------------------------------------
# entry point


# each command: its function, its help, and the configs it parses
# (`datagen.generate` takes its keys as keyword arguments)
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a synthetic multi-domain dataset CSV",
                 [datagen.generate]),
    "train": (cmd_train, "train a model and write checkpoint + per-epoch metrics",
              [SplitConfig, TrainConfig, ModelConfig]),
    "eval": (cmd_eval, "evaluate a checkpoint on the held-out domain", [RunConfig, EvalConfig]),
    "diagnose": (cmd_diagnose, "write divergence and perturbation-probe diagnostics",
                 [RunConfig, DiagnoseConfig]),
    "ablate": (cmd_ablate, "run the ON/AUG/EP ablation grid and the fusion table over a "
               "seed list", [AblateConfig, TrainConfig, ModelConfig, datagen.generate]),
}
# the keys each command reads: its configs' parameters, less the model's
# input and output sizes, which the data fixes
COMMAND_KEYS = {name: {key for c in configs for key in inspect.signature(c).parameters
                       if c is not ModelConfig
                       or key not in ("input_dim", "num_classes", "num_domains")}
                for name, (_, _, configs) in COMMANDS.items()}
KNOWN_KEYS = set().union(*COMMAND_KEYS.values())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normaug",
        description="Normalization-guided augmentation experiments on synthetic "
                    "multi-domain data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, _) in COMMANDS.items():
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
        COMMANDS[args.command][0](cfg, Path(args.out))
    except ValueError as e:  # bad input
        print(f"normaug {args.command}: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary: I/O, diverged training
        print(f"normaug {args.command}: failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
