"""End-to-end CLI runs in temp directories: artifacts, exit codes, determinism."""

import contextlib
import csv
import functools
import inspect
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from normaug import cli, datagen, training
from normaug.cli import COMMAND_KEYS, main, parse_config
from normaug.inference import FusionStrategy, SubpathScope
from normaug.model import (ModelConfig, config_from_text, init_model, load_checkpoint,
                           save_checkpoint)
from normaug.training import TrainConfig

SMALL_GEN = """
# small benchmark
num_classes = 3
num_domains = 4
per_cell = 24
feature_dim = 6
shift_kappa = 2.0
seed = 0
"""

SMALL_TRAIN = """
target_domain = 3
epochs = 2
iters_per_epoch = 4
batch_per_domain = 4
hidden_sizes = 8,4
seed = 0
"""


def write_config(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def run_pipeline(tmp_path, extra_train=""):
    """gen-data + train once; returns (tmp, out dir, dataset, train config)."""
    gen_cfg = write_config(tmp_path, SMALL_GEN, "gen.txt")
    out = tmp_path / "out"
    assert main(["gen-data", "--config", gen_cfg, "--out", str(out)]) == 0
    dataset = out / "dataset.csv"
    train_cfg = write_config(
        tmp_path, SMALL_TRAIN + extra_train + f"dataset = {dataset}\n", "train.txt")
    assert main(["train", "--config", train_cfg, "--out", str(out)]) == 0
    return tmp_path, out, dataset, train_cfg


@pytest.fixture()
def pipeline(tmp_path):
    """Shared by the downstream command tests."""
    return run_pipeline(tmp_path)


class TestGenData:
    def test_writes_dataset(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_GEN)
        out = tmp_path / "o"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "dataset.csv")
        assert rows[0][:2] == ["domain", "label"]
        assert len(rows) == 1 + 3 * 4 * 24

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_GEN)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()

    def test_seed_key_changes_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", write_config(tmp_path, SMALL_GEN),
                     "--out", str(a)]) == 0
        other = write_config(tmp_path, SMALL_GEN.replace("seed = 0", "seed = 9"), "c9.txt")
        assert main(["gen-data", "--config", other, "--out", str(b)]) == 0
        assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()


class TestTrainCommand:
    def test_artifacts_and_no_partials(self, pipeline):
        _, out, _, _ = pipeline
        assert (out / "model.ckpt").is_file()
        assert (out / "metrics.csv").is_file()
        assert not list(out.glob("*.partial"))

    def test_metrics_header(self, pipeline):
        _, out, _, _ = pipeline
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == ["epoch", "train_loss", "src_acc", "tgt_acc_main",
                           "tgt_acc_ensemble"]
        assert len(rows) == 3

    def test_reproducible_across_runs(self, pipeline, tmp_path):
        _, out, _, train_cfg = pipeline
        out2 = tmp_path / "out2"
        assert main(["train", "--config", train_cfg, "--out", str(out2)]) == 0
        assert (out / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
        assert (out / "metrics.csv").read_text() == (out2 / "metrics.csv").read_text()


class TestEvalCommand:
    def test_eval_matches_final_epoch_metrics(self, pipeline, tmp_path):
        tmp, out, dataset, _ = pipeline
        eval_cfg = write_config(
            tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n"
                 "target_domain = 3\n", "eval.txt")
        eout = tmp_path / "eval_out"
        assert main(["eval", "--config", eval_cfg, "--out", str(eout)]) == 0
        rows = read_csv(eout / "accuracy.csv")
        assert rows[0] == ["path_name", "accuracy"]
        fused = {r[0]: r[1] for r in rows[1:]}["fused"]
        metrics = read_csv(out / "metrics.csv")
        assert fused == metrics[-1][4]  # tgt_acc_ensemble of the final epoch

    def test_strategy_key(self, pipeline, tmp_path):
        """`accuracy.csv` holds the routes the rule read, then the fused row."""
        tmp, out, dataset, _ = pipeline
        subs = ["sub_0", "sub_1", "sub_2"]
        for strategy, routes in (("MainOnly", ["main"]), ("MeanI", subs), ("MaxI", subs),
                                 ("MaxIM", ["main", *subs])):
            eval_cfg = write_config(
                tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n"
                     f"strategy = {strategy}\n", f"eval_{strategy}.txt")
            eout = tmp_path / strategy
            assert main(["eval", "--config", eval_cfg, "--out", str(eout)]) == 0
            rows = {r[0]: r[1] for r in read_csv(eout / "accuracy.csv")[1:]}
            assert list(rows) == [*routes, "fused"]
        rows = {r[0]: r[1] for r in read_csv(tmp_path / "MainOnly" / "accuracy.csv")[1:]}
        assert rows["fused"] == rows["main"]

    def test_bad_strategy_is_usage_error(self, pipeline, tmp_path):
        tmp, out, dataset, _ = pipeline
        eval_cfg = write_config(
            tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n"
                 "strategy = bogus\n", "eval3.txt")
        assert main(["eval", "--config", eval_cfg, "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_model_without_bank(self, tmp_path, capsys):
        """The default rule follows the model; a sub-path rule is a usage
        error, raised by `inference.predict`."""
        tmp, out, dataset, _ = run_pipeline(tmp_path, "use_aug = false\n")
        text = f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n"
        eout = tmp_path / "eo"
        assert main(["eval", "--config", write_config(tmp, text, "eval.txt"),
                     "--out", str(eout)]) == 0
        rows = {r[0]: r[1] for r in read_csv(eout / "accuracy.csv")[1:]}
        assert set(rows) == {"main", "fused"}
        assert rows["fused"] == rows["main"] == read_csv(out / "metrics.csv")[-1][4]
        for strategy in ("MeanMeanIM", "MeanI"):
            cfg = write_config(tmp, text + f"strategy = {strategy}\n", f"{strategy}.txt")
            capsys.readouterr()
            assert main(["eval", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err == (
                f"normaug eval: strategy {strategy} needs sub-path predictions, but the "
                f"model was trained without a bank (use_aug = false)\n")
            assert not (tmp_path / "x").exists()

    def test_scope_the_model_cannot_serve_is_usage_error(self, tmp_path, capsys):
        """single_only training over three sources never updates the merged
        bank units, so `all_units` is refused, naming them; the default
        scope still runs."""
        tmp, out, dataset, _ = run_pipeline(tmp_path, "combination_mode = single_only\n")
        text = f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n"
        eout = tmp_path / "eo"
        capsys.readouterr()
        assert main(["eval", "--config", write_config(tmp, text + "scope = all_units\n",
                                                      "all.txt"), "--out", str(eout)]) == 2
        assert capsys.readouterr().err == ("normaug eval: scope=all_units but units never "
                                           "updated: {0+1}, {0+2}, {1+2}\n")
        assert not (eout / "accuracy.csv").exists()
        assert main(["eval", "--config", write_config(tmp, text, "eval.txt"),
                     "--out", str(eout)]) == 0


class TestDiagnoseCommand:
    def test_writes_divergence_and_probe(self, pipeline, tmp_path):
        tmp, out, dataset, _ = pipeline
        cfg = write_config(
            tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n"
                 "probe_rows = 16\n", "diag.txt")
        dout = tmp_path / "diag_out"
        assert main(["diagnose", "--config", cfg, "--out", str(dout)]) == 0
        rows = read_csv(dout / "diagnostics.csv")
        assert rows[0] == ["metric", "name", "value"]
        kinds = {(r[0], r[1]) for r in rows[1:]}
        assert ("divergence", "d_s2s") in kinds
        assert ("divergence", "d_s2t") in kinds
        probe_rows = [r for r in rows[1:] if r[0] == "probe"]
        assert len(probe_rows) >= 3
        copy_disp = [float(r[2]) for r in probe_rows if r[1] == "probe_copy"]
        assert copy_disp == [0.0]

    @pytest.mark.parametrize("rows", ["0", "-1"])
    def test_probe_rows_below_one_is_usage_error(self, pipeline, tmp_path, capsys, rows):
        tmp, out, dataset, _ = pipeline
        cfg = write_config(
            tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n"
                 f"probe_rows = {rows}\n", "diag_rows.txt")
        capsys.readouterr()
        result = tmp_path / "result"
        assert main(["diagnose", "--config", cfg, "--out", str(result)]) == 2
        assert capsys.readouterr().err == (
            f"normaug diagnose: config key probe_rows: expected a positive integer, "
            f"got {rows}\n")
        assert not result.exists()


class TestDatasetFitsModel:
    """eval and diagnose check the dataset against the checkpoint's model
    before scoring anything; the pipeline model has 3 sources, input_dim 6
    and 3 classes."""

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    @pytest.mark.parametrize("gen_line, message", [
        ("num_domains = 5", "dataset has 5 domains, the model needs 4 (3 sources + 1 held out)"),
        ("feature_dim = 7", "dataset has feature_dim 7, the model has input_dim 6"),
        ("num_classes = 5", "dataset has labels up to 4, the model has num_classes 3"),
    ], ids=["domains", "input_dim", "classes"])
    def test_mismatch_is_usage_error(self, pipeline, tmp_path, capsys, command, gen_line,
                                     message):
        tmp, out, _, _ = pipeline
        key = gen_line.split()[0]
        gen = "\n".join(gen_line if line.startswith(key + " ") else line
                        for line in SMALL_GEN.splitlines())
        other = tmp_path / "other"
        assert main(["gen-data", "--config", write_config(tmp, gen, "gen2.txt"),
                     "--out", str(other)]) == 0
        cfg = write_config(tmp, f"checkpoint = {out / 'model.ckpt'}\n"
                                f"dataset = {other / 'dataset.csv'}\n", "fit.txt")
        capsys.readouterr()
        result = tmp_path / "result"
        assert main([command, "--config", cfg, "--out", str(result)]) == 2
        assert capsys.readouterr().err == f"normaug {command}: {message}\n"
        assert not result.exists()


class TestTargetDomain:
    """`train` refuses a `target_domain` that is not one of the dataset's
    domains (the pipeline's are 0-3), and records the one it held out in
    the checkpoint; `eval` and `diagnose` score the recorded domain and
    refuse a key that names another. Each refusal comes before anything
    is trained, scored or written."""

    @pytest.mark.parametrize("target", ["7", "-1"])
    @pytest.mark.parametrize("command", ["train", "eval", "diagnose"])
    def test_domain_outside_the_dataset_is_usage_error(self, pipeline, tmp_path, capsys,
                                                       command, target):
        tmp, out, dataset, _ = pipeline
        if command == "train":
            text = SMALL_TRAIN.replace("target_domain = 3", f"target_domain = {target}")
            error = (f"split_lodo: target_domain {target} is not present in the dataset, "
                     f"whose domains are 0, 1, 2, 3")
        else:
            text = f"checkpoint = {out / 'model.ckpt'}\ntarget_domain = {target}\n"
            error = (f"config key target_domain: the checkpoint's model was trained "
                     f"holding out domain 3, got {target}")
        cfg = write_config(tmp, text + f"dataset = {dataset}\n", "target.txt")
        capsys.readouterr()
        result = tmp_path / "result"
        assert main([command, "--config", cfg, "--out", str(result)]) == 2
        assert capsys.readouterr().err == f"normaug {command}: {error}\n"
        assert not result.exists()

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    def test_unrecorded_domain_comes_from_the_key(self, pipeline, tmp_path, capsys, command):
        """A checkpoint that records no held-out domain (as version 1 did)
        holds out the key's, which must be one of the dataset's domains."""
        tmp, out, dataset, _ = pipeline
        model, epoch, _ = load_checkpoint(out / "model.ckpt")
        save_checkpoint(model, tmp / "unrecorded.ckpt", epoch)
        text = f"checkpoint = {tmp / 'unrecorded.ckpt'}\ndataset = {dataset}\n"
        capsys.readouterr()
        result = tmp_path / "result"
        cfg = write_config(tmp, text + "target_domain = 7\n", "target.txt")
        assert main([command, "--config", cfg, "--out", str(result)]) == 2
        assert capsys.readouterr().err == (
            f"normaug {command}: split_lodo: target_domain 7 is not present in the "
            f"dataset, whose domains are 0, 1, 2, 3\n")
        assert not result.exists()
        cfg = write_config(tmp, text + "target_domain = 1\n", "target.txt")
        assert main([command, "--config", cfg, "--out", str(result)]) == 0
        assert "; held-out domain 1, " in capsys.readouterr().out


TINY_GEN = """
num_domains = 3
per_cell = 12
feature_dim = 4
seed = 0
"""
TINY_TRAIN = """
hidden_sizes = 8
epochs = 1
iters_per_epoch = 2
batch_per_domain = 4
seed = 0
"""


class TestRecordedTarget:
    """`eval` and `diagnose` score the domain the checkpoint's model was
    trained without, whatever the config leaves out, on a three-domain
    dataset whose last domain is a training source when domain 0 is held
    out."""

    @staticmethod
    def train(tmp_path, target: int) -> Path:
        out = tmp_path / f"held_out_{target}"
        assert main(["gen-data", "--config", write_config(tmp_path, TINY_GEN, "gen.txt"),
                     "--out", str(out)]) == 0
        text = TINY_TRAIN + f"target_domain = {target}\ndataset = {out / 'dataset.csv'}\n"
        assert main(["train", "--config", write_config(tmp_path, text, "train.txt"),
                     "--out", str(out)]) == 0
        return out

    def test_eval_without_the_key_scores_the_trained_target(self, tmp_path, capsys):
        out = self.train(tmp_path, 0)
        cfg = write_config(tmp_path, f"checkpoint = {out / 'model.ckpt'}\n"
                                     f"dataset = {out / 'dataset.csv'}\n", "eval.txt")
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "eval")]) == 0
        assert "; held-out domain 0, fused accuracy " in capsys.readouterr().out
        fused = dict(read_csv(tmp_path / "eval" / "accuracy.csv")[1:])["fused"]
        assert fused == read_csv(out / "metrics.csv")[-1][4]  # tgt_acc_ensemble
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "diag")]) == 0
        assert "; held-out domain 0, d_s2s=" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    def test_key_naming_a_training_source_is_usage_error(self, tmp_path, capsys, command):
        out = self.train(tmp_path, 2)
        cfg = write_config(tmp_path, f"checkpoint = {out / 'model.ckpt'}\n"
                                     f"dataset = {out / 'dataset.csv'}\n"
                                     "target_domain = 0\n", "eval.txt")
        capsys.readouterr()
        result = tmp_path / "result"
        assert main([command, "--config", cfg, "--out", str(result)]) == 2
        assert capsys.readouterr().err == (
            f"normaug {command}: config key target_domain: the checkpoint's model was "
            f"trained holding out domain 2, got 0\n")
        assert not result.exists()


SMALL_GRID = """
seeds = 0,1
num_classes = 3
num_domains = 3
per_cell = 16
feature_dim = 6
epochs = 1
iters_per_epoch = 3
batch_per_domain = 4
hidden_sizes = 8,4
shift_kappa = 2.0
"""


class TestAblateCommand:
    def test_small_grid(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_GRID)
        out = tmp_path / "grid"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0] == ["variant", "mean_tgt_acc", "std_tgt_acc"]
        assert [r[0] for r in rows[1:]] == ["baseline", "on", "on_aug", "on_aug_ep"]
        for r in rows[1:]:
            assert 0.0 <= float(r[1]) <= 1.0

    def test_fusion_table(self, tmp_path):
        """fusion.csv beside ablation.csv: every rule and scope in (strategy,
        scope) order, every value a float, and the MainOnly and MeanMeanIM
        rows over the singleton sub-paths the same bits as the on_aug and
        on_aug_ep rows."""
        cfg = write_config(tmp_path, SMALL_GRID)
        out = tmp_path / "grid"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "fusion.csv")
        assert rows[0] == ["strategy", "scope", "mean_tgt_acc", "std_tgt_acc"]
        assert [tuple(r[:2]) for r in rows[1:]] == sorted(
            (rule.value, scope.value) for rule in FusionStrategy for scope in SubpathScope)
        for r in rows[1:]:
            assert 0.0 <= float(r[2]) <= 1.0 and float(r[3]) >= 0.0
        fusion = {tuple(r[:2]): r[2:] for r in rows[1:]}
        ablation = {r[0]: r[1:] for r in read_csv(out / "ablation.csv")[1:]}
        assert fusion["MainOnly", "independent_only"] == ablation["on_aug"]
        assert fusion["MeanMeanIM", "independent_only"] == ablation["on_aug_ep"]

    def test_single_only_grid_leaves_out_all_units(self, tmp_path):
        """With three sources, single_only never updates the merged bank
        units, so the grid still runs and writes the independent_only rows
        only."""
        cfg = write_config(tmp_path, SMALL_GRID.replace("num_domains = 3", "num_domains = 4")
                           + "combination_mode = single_only\n")
        out = tmp_path / "grid"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "fusion.csv")
        assert [tuple(r[:2]) for r in rows[1:]] == sorted(
            (rule.value, "independent_only") for rule in FusionStrategy)
        assert all(float(r[2]) >= 0.0 and float(r[3]) >= 0.0 for r in rows[1:])

    def test_keys_reach_every_cell(self, tmp_path, monkeypatch):
        models, generated = [], []
        train, generate = training.train, datagen.generate

        def spy_train(model, *args, **kwargs):
            models.append(model.config)
            return train(model, *args, **kwargs)

        @functools.wraps(generate)  # the CLI parses the keys by its signature
        def spy_generate(**kwargs):
            generated.append(kwargs)
            return generate(**kwargs)

        monkeypatch.setattr(training, "train", spy_train)
        monkeypatch.setattr(datagen, "generate", spy_generate)
        cfg = write_config(tmp_path, SMALL_GRID.replace("feature_dim = 6", "feature_dim = 9")
                           .replace("shift_kappa = 2.0", "shift_kappa = 1.5")
                           + "backbone = smallconv\nclassifier_mode = shared_two\n"
                             "bn_momentum = 0.3\nbn_eps = 0.5\nseparation = 2.5\n"
                             "noise_sigma = 3.0\ntarget_domain = 2\n")
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "grid")]) == 0
        assert len(models) == 6  # 2 seeds x (baseline, on, on_aug); on_aug_ep reuses on_aug
        for c in models:
            assert (c.hidden_sizes, c.backbone, c.classifier_mode, c.bn_momentum,
                    c.bn_eps) == ((8, 4), "smallconv", "shared_two", 0.3, 0.5)
        assert len(generated) == 2
        for kw in generated:
            assert (kw["separation"], kw["noise_sigma"], kw["shift_kappa"]) == (2.5, 3.0, 1.5)

    @pytest.mark.parametrize("extra", ["target_domain = 0\n", "backbone = smallconv\n",
                                       "hidden_sizes = 8,x\n", "use_on = false\n",
                                       "use_aug = false\n", "seed = 7\n"],
                             ids=["target_domain", "backbone", "hidden_sizes", "use_on",
                                  "use_aug", "seed"])
    def test_bad_keys_are_usage_errors(self, tmp_path, extra):
        cfg = write_config(tmp_path, SMALL_GRID + extra)
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "grid")]) == 2

    def test_cell_keys_name_the_seed_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_GRID + "seed = 7\nuse_on = false\n")
        out = tmp_path / "grid"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "normaug ablate: config key seed, use_on: every grid cell sets its own switches "
            "and seed (the seed list is `seeds`)\n")
        assert not out.exists()

    def test_benchmark_config_is_the_default_model(self):
        """configs/benchmark.txt sets its model keys to the defaults, so the
        grid it runs is the one an empty config runs."""
        cfg = parse_config(Path(__file__).parents[1] / "configs" / "benchmark.txt")
        assert config_from_text(ModelConfig, cfg, input_dim=16, num_classes=5,
                                num_domains=3) == ModelConfig(input_dim=16, num_classes=5,
                                                              num_domains=3)
        assert float(cfg.get("separation", datagen.DEFAULT_SEPARATION)) == \
            datagen.DEFAULT_SEPARATION
        assert float(cfg.get("noise_sigma", datagen.DEFAULT_NOISE_SIGMA)) == \
            datagen.DEFAULT_NOISE_SIGMA
        assert int(cfg["target_domain"]) == int(cfg["num_domains"]) - 1


class TestIgnoredKeys:
    def test_each_command_names_the_keys_it_ignores(self, tmp_path, capsys):
        gen_cfg = write_config(tmp_path, SMALL_GEN + "epochs = 99\nseeds = 4,5\n", "gen.txt")
        assert main(["gen-data", "--config", gen_cfg, "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert err == "normaug gen-data: ignoring config keys epochs, seeds\n"
        assert out.startswith("wrote ")
        train_cfg = write_config(
            tmp_path, SMALL_TRAIN + f"dataset = {tmp_path / 'dataset.csv'}\n"
                                    "strategy = MaxI\nper_cell = 3\n")
        assert main(["train", "--config", train_cfg, "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == \
            "normaug train: ignoring config keys per_cell, strategy\n"

    def test_output_unchanged_by_ignored_keys(self, tmp_path, capsys):
        runs = []
        for name, extra in (("plain", ""), ("extra", "strategy = MaxI\nprobe_rows = 3\n")):
            d = tmp_path / name
            d.mkdir()
            assert main(["gen-data", "--config", write_config(d, SMALL_GEN, "gen.txt"),
                         "--out", str(d)]) == 0
            cfg = write_config(d, SMALL_TRAIN + extra + f"dataset = {d / 'dataset.csv'}\n")
            assert main(["train", "--config", cfg, "--out", str(d)]) == 0
            runs.append((d, capsys.readouterr()))
        (plain, cap_plain), (extra, cap_extra) = runs
        assert cap_plain.err == ""
        assert cap_extra.err == "normaug train: ignoring config keys probe_rows, strategy\n"
        assert cap_plain.out.replace("plain", "extra") == cap_extra.out
        for f in ("dataset.csv", "metrics.csv", "model.ckpt"):
            assert (plain / f).read_bytes() == (extra / f).read_bytes()


# the keys each command read before its configs were typed, written out
PINNED_KEYS = {
    "gen-data": {"feature_dim", "noise_sigma", "num_classes", "num_domains", "per_cell", "seed",
                 "separation", "shift_kappa"},
    "train": {"aux_weight", "backbone", "batch_per_domain", "bn_eps", "bn_momentum",
              "classifier_mode", "combination_mode", "dataset", "epochs", "hidden_sizes",
              "iters_per_epoch", "lr_backbone", "lr_classifier", "lr_step_epochs",
              "lr_step_gamma", "momentum", "seed", "target_domain", "use_aug", "use_on",
              "val_fraction", "weight_decay"},
    "eval": {"checkpoint", "dataset", "scope", "strategy", "target_domain"},
    "diagnose": {"checkpoint", "dataset", "probe_rows", "seed", "target_domain"},
    "ablate": {"aux_weight", "backbone", "batch_per_domain", "bn_eps", "bn_momentum",
               "classifier_mode", "combination_mode", "epochs", "feature_dim", "hidden_sizes",
               "iters_per_epoch", "lr_backbone", "lr_classifier", "lr_step_epochs",
               "lr_step_gamma", "momentum", "noise_sigma", "num_classes", "num_domains",
               "per_cell", "seed", "seeds", "separation", "shift_kappa", "target_domain",
               "use_aug", "use_on", "val_fraction", "weight_decay"},
}


class TestCommandKeys:
    def test_each_command_keeps_its_keys(self):
        assert COMMAND_KEYS == PINNED_KEYS

    def test_keys_are_the_parameters_each_command_parses(self, tmp_path, monkeypatch):
        """Run every command on a valid config and record each dataclass
        (`config_from_text`) and function (`config_values`) it parses: its
        keys are their parameters, less the ones it fixes."""
        parsed = set()

        def spy(parse):
            def record(fn, kv, *args, **fixed):
                parsed.update(inspect.signature(fn).parameters.keys() - fixed.keys())
                return parse(fn, kv, *args, **fixed)
            return record

        monkeypatch.setattr(cli, "config_from_text", spy(cli.config_from_text))
        monkeypatch.setattr(cli, "config_values", spy(cli.config_values))
        out = tmp_path / "out"
        files = f"dataset = {out / 'dataset.csv'}\ncheckpoint = {out / 'model.ckpt'}\n"
        runs = [("gen-data", SMALL_GEN), ("train", SMALL_TRAIN + files), ("eval", files),
                ("diagnose", files + "probe_rows = 8\n"),
                ("ablate", SMALL_GRID.replace("seeds = 0,1", "seeds = 0"))]
        for command, text in runs:
            parsed.clear()
            cfg = write_config(tmp_path, text, f"{command}.txt")
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            assert parsed == COMMAND_KEYS[command], command


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x", "--out", "y"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "nonsense_key = 1\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "epochs 5\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", ["lr_backbone = nan", "weight_decay = inf",
                                      "bn_momentum = nan"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, line):
        gen_cfg = write_config(tmp_path, SMALL_GEN, "gen.txt")
        assert main(["gen-data", "--config", gen_cfg, "--out", str(tmp_path)]) == 0
        cfg = write_config(tmp_path, SMALL_TRAIN + f"{line}\ndataset = {tmp_path / 'dataset.csv'}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        key = line.split()[0]
        assert f"config key {key}: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["lr_step_epochs = -3", "lr_step_gamma = -1",
                                      "lr_step_gamma = 0", "lr_step_gamma = 1.5",
                                      "val_fraction = 1.5", "val_fraction = 0"])
    def test_bad_step_decay_exits_2(self, tmp_path, capsys, line):
        gen_cfg = write_config(tmp_path, SMALL_GEN, "gen.txt")
        assert main(["gen-data", "--config", gen_cfg, "--out", str(tmp_path)]) == 0
        cfg = write_config(tmp_path, SMALL_TRAIN + f"{line}\ndataset = {tmp_path / 'dataset.csv'}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        key = line.split()[0]
        assert f"TrainConfig: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("line, message", [
        ("bn_momentum = 2", "ModelConfig: bn_momentum 2.0 outside (0, 1]"),
        ("bn_momentum = 0", "ModelConfig: bn_momentum 0.0 outside (0, 1]"),
        ("bn_eps = 0", "ModelConfig: bn_eps 0.0 must be positive and finite"),
        ("bn_eps = -1e-5", "ModelConfig: bn_eps -1e-05 must be positive and finite")])
    def test_bad_normalization_constant_exits_2(self, tmp_path, capsys, line, message):
        gen_cfg = write_config(tmp_path, SMALL_GEN, "gen.txt")
        assert main(["gen-data", "--config", gen_cfg, "--out", str(tmp_path)]) == 0
        cfg = write_config(tmp_path, SMALL_TRAIN + f"{line}\ndataset = {tmp_path / 'dataset.csv'}\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"normaug train: {message}"
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("lines", [["per_cell = 20", "per_cell = 200"],
                                       ["per_cell=20  # small", " per_cell = 200"]])
    def test_repeated_key_exits_2(self, tmp_path, capsys, monkeypatch, lines):
        monkeypatch.chdir(tmp_path)
        Path("c.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["gen-data", "--config", "c.txt", "--out", "out"]) == 2
        assert capsys.readouterr().err == (
            "normaug gen-data: c.txt:2: config key 'per_cell' repeated (first on line 1)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, message", [
        ("gen-data", SMALL_GEN.replace("seed = 0", "seed = -1"),
         "generate: seed must be >= 0, got -1"),
        ("train", "dataset = missing.csv\nseed = -3\n",
         "TrainConfig: seed must be >= 0, got -3"),
        ("diagnose", "checkpoint = missing.ckpt\ndataset = missing.csv\nseed = -2\n",
         "config key seed: expected a non-negative integer, got -2"),
        ("ablate", "seeds = -1\n", "ablation_grid: seeds: seed -1 is negative"),
    ], ids=["gen-data", "train-key", "diagnose", "ablate"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, text, message):
        """Refused by the rule's owner (`generate`, `TrainConfig.validate`,
        `diagnose`, `ablation_grid`) before any file is read (the dataset and
        checkpoint do not exist) or written: `--out` is not made."""
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"normaug {command}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0,1,1"], ids=["config"])
    def test_repeated_seed_exits_2(self, tmp_path, capsys, seeds):
        """A repeated seed in `seeds` is refused, naming it, before any file
        is written."""
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SMALL_GEN.replace("seed = 0", f"seeds = {seeds}"))
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "normaug ablate: ablation_grid: seeds: seed 1 repeated\n"
        assert not out.exists()

    def test_diverged_training_exits_1_without_a_checkpoint(self, tmp_path, capsys):
        """A learning rate that overflows the weights in the last step of an
        epoch, after its loss was finite, is a runtime failure: no
        checkpoint that `load_checkpoint` would refuse is written."""
        text = ("num_domains = 3\nper_cell = 12\nfeature_dim = 4\nhidden_sizes = 8\n"
                "epochs = 1\niters_per_epoch = 2\nbatch_per_domain = 4\n"
                f"lr_backbone = 1e300\ndataset = {tmp_path / 'dataset.csv'}\n")
        cfg = write_config(tmp_path, text)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path)]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "normaug train: failed: train: aborted at epoch 1: "
            "non-finite parameter backbone.layer0.W")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, text, message", [
        ("gen-data", "per_cell = \u0664\u0660\n",
         "config key per_cell: expected an integer, got '\u0664\u0660'"),
        ("gen-data", "seed = 1_0\n", "config key seed: expected an integer, got '1_0'"),
        ("train", "epochs = 1\f2\ndataset = missing.csv\n",
         "c.txt:1: unprintable character in 'epochs = 1\\x0c2'"),
    ], ids=["non-ascii-digits", "underscore", "form-feed"])
    def test_config_value_exits_2_naming_the_key(self, tmp_path, capsys, monkeypatch,
                                                  command, text, message):
        """A number is plain ASCII without `_`, and a line ends at `\\n`
        only: a form feed is refused on the line the editor shows."""
        monkeypatch.chdir(tmp_path)
        Path("c.txt").write_text(text, encoding="utf-8")
        assert main([command, "--config", "c.txt", "--out", "out"]) == 2
        assert capsys.readouterr().err == f"normaug {command}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_two_domains_exit_2(self, tmp_path, capsys, command):
        """Two domains leave one source beside the held-out one: the model
        needs at least three, and says so in terms of the data."""
        text = ("num_domains = 2\nper_cell = 12\nfeature_dim = 4\nhidden_sizes = 8\n"
                "epochs = 1\niters_per_epoch = 2\nbatch_per_domain = 4\n"
                + ("seeds = 0\n" if command == "ablate"
                   else f"dataset = {tmp_path / 'dataset.csv'}\n"))
        cfg = write_config(tmp_path, text)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"normaug {command}: ModelConfig: num_domains 1 < 2 source domains "
            f"(the data needs at least 3 domains: 2 sources + 1 held out)")
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("train", "dataset"), ("eval", "checkpoint"), ("eval", "strategy"), ("eval", "scope"),
        ("train", "strategy")], ids=["train-dataset", "eval-checkpoint", "eval-strategy",
                                     "eval-scope", "train-ignored-key"])
    def test_empty_value_exits_2_naming_the_key(self, pipeline, tmp_path, capsys, command,
                                                key):
        """The config reader refuses an empty value for every key, one the
        command ignores included, naming the key and its line: it is read
        neither as the key's default nor as a path."""
        tmp, out, dataset, _ = pipeline
        lines = {"checkpoint": out / "model.ckpt", "dataset": dataset, key: ""}
        text = SMALL_TRAIN + "".join(f"{k} = {v}\n" for k, v in lines.items())
        cfg = write_config(tmp, text, "empty.txt")
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        line = text.split("\n").index(f"{key} = ") + 1
        assert capsys.readouterr().err == (
            f"normaug {command}: {cfg}:{line}: config key '{key}' has an empty value\n")
        assert not (tmp_path / "x").exists()

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        cfg = write_config(tmp_path, "dataset = /does/not/exist.csv\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command, line, message", [
        ("gen-data", "per_cell = 1", "generate: per_cell must be >= 4, got 1"),
        ("gen-data", "num_domains = 1", "generate: num_domains must be >= 2, got 1"),
        ("gen-data", "num_classes = 1", "generate: num_classes must be >= 2, got 1"),
        ("gen-data", "feature_dim = 0", "generate: feature_dim must be >= 4, got 0"),
        ("gen-data", "shift_kappa = -3", "generate: shift_kappa must be >= 0, got -3.0"),
        ("gen-data", "shift_kappa = 1e308",
         "generate: shift_kappa 1e+308 overflows the style scale of domain 0"),
        ("gen-data", "noise_sigma = -1", "generate: noise_sigma must be >= 0, got -1.0"),
        ("train", "batch_per_domain = 100000",
         "EpochSampler: batch_per_domain 100000 is more than the 55 training rows of domain 0"),
        ("train", "val_fraction = 0.99",
         "split_train_val: a val_fraction of 0.99 leaves no training row of class 0 in "
         "domain 0"),
    ], ids=["per_cell", "num_domains", "num_classes", "feature_dim", "shift_kappa-negative",
            "shift_kappa-overflow", "noise_sigma", "batch_per_domain", "val_fraction"])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, command, line, message):
        """On the tiny probe config, a value its owner refuses (`generate`,
        or `train` against the dataset) is bad input, exit 2, and `--out`
        is not made."""
        key = line.split()[0]
        text = ("num_domains = 3\nper_cell = 12\nfeature_dim = 4\nhidden_sizes = 8\n"
                "epochs = 1\niters_per_epoch = 2\nbatch_per_domain = 4\n"
                f"dataset = {tmp_path / 'dataset.csv'}\n")
        assert main(["gen-data", "--config", write_config(tmp_path, text), "--out",
                     str(tmp_path)]) == 0
        text = "".join(f"{ln}\n" for ln in text.splitlines() if not ln.startswith(key + " "))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, text + line + "\n", "bad.txt"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"normaug {command}: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "diagnose"])
    def test_malformed_dataset_exits_2(self, pipeline, tmp_path, capsys, command):
        """A malformed file is bad input like a malformed config value."""
        tmp, out, dataset, _ = pipeline
        bad = tmp_path / "bad.csv"
        bad.write_text(dataset.read_text().replace("\n0,", "\n\u0660,", 1), encoding="utf-8")
        cfg = write_config(tmp, SMALL_TRAIN + f"checkpoint = {out / 'model.ckpt'}\n"
                                              f"dataset = {bad}\n", "bad.txt")
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"normaug {command}: {bad}:2: malformed value (non-ASCII character in a value)")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "diagnose"])
    def test_undecodable_dataset_exits_2(self, pipeline, tmp_path, capsys, command):
        """A byte that is not UTF-8 is bad input naming the file and line."""
        tmp, out, dataset, _ = pipeline
        bad = tmp_path / "bad.csv"
        lines = dataset.read_bytes().split(b"\n")
        lines[4] = lines[4][:-1] + b"\xff"
        bad.write_bytes(b"\n".join(lines))
        cfg = write_config(tmp, SMALL_TRAIN + f"checkpoint = {out / 'model.ckpt'}\n"
                                              f"dataset = {bad}\n", "bad.txt")
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"normaug {command}: {bad}:5: not valid UTF-8 (byte 0xff)")
        assert not (tmp_path / "r").exists()

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"per_cell = 4\nseed = \xff1\n")
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"normaug gen-data: {cfg}:2: not valid UTF-8 (byte 0xff)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    def test_malformed_checkpoint_exits_2(self, pipeline, tmp_path, capsys, command):
        tmp, out, dataset, _ = pipeline
        ckpt = tmp_path / "bad.ckpt"
        # the same length, so the block's size prefix still holds
        ckpt.write_bytes((out / "model.ckpt").read_bytes().replace(b"bn_momentum=0.1\n",
                                                                    b"bn_momentum=.10\n", 1))
        cfg = write_config(tmp, f"checkpoint = {ckpt}\ndataset = {dataset}\n", "bad.txt")
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"normaug {command}: checkpoint {ckpt}: config block:9: "
            f"expected 'bn_momentum=0.1\\n', got 'bn_momentum=.10\\n'")
        assert not (tmp_path / "r").exists()

    def test_undecodable_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        """A byte of the config block that is not UTF-8 names the block's line."""
        tmp, out, dataset, _ = pipeline
        ckpt = tmp_path / "bad.ckpt"
        blob = bytearray((out / "model.ckpt").read_bytes())
        blob[20] = 0xFF  # in `input_dim=...`, the block's first line
        ckpt.write_bytes(bytes(blob))
        cfg = write_config(tmp, f"checkpoint = {ckpt}\ndataset = {dataset}\n", "bad.txt")
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"normaug eval: checkpoint {ckpt}: config block:1: not valid UTF-8 (byte 0xff)")

    def test_only_config_and_out_are_flags(self, pipeline, capsys):
        """The config file sets every run value: `--seed` is refused by every
        command, and `--strategy` and `--scope` by eval, as unknown flags."""
        tmp, out, dataset, _ = pipeline
        cfg = write_config(tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n"
                                "seeds = 0\n", "all.txt")
        cases = [(command, ["--seed", "1"])
                 for command in ("gen-data", "train", "eval", "diagnose", "ablate")]
        cases += [("eval", ["--strategy", "MeanAll"]), ("eval", ["--scope", "all_units"])]
        for command, flag in cases:
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", cfg, "--out", str(tmp / "e"), *flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
            assert not (tmp / "e").exists()

    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        """An I/O failure inside a writer is exit 1, and its `.partial` file
        is removed."""
        def failing_save(dataset, path):
            Path(path).write_text("domain,label,f0\n")
            raise OSError("disk full")

        monkeypatch.setattr(datagen, "save", failing_save)
        out = tmp_path / "out"
        assert main(["gen-data", "--config", write_config(tmp_path, SMALL_GEN),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "normaug gen-data: failed: disk full\n"
        assert list(out.iterdir()) == []


class TestParseConfig:
    def test_comments_and_whitespace(self, tmp_path):
        cfg = write_config(tmp_path, "# full line comment\n\nepochs = 3  # trailing\n")
        assert parse_config(cfg) == {"epochs": "3"}

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"epochs = 3\r\n# note\r\nseed = 1\r\n")
        assert parse_config(path) == {"epochs": "3", "seed": "1"}

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, newline):
        """Lines counted as the reader breaks them, `\\r` alone included."""
        path = tmp_path / "cfg.txt"
        path.write_bytes(newline.join([b"epochs = 3", b"# caf\xc3\xa9", b"seed = \xe91", b""]))
        with pytest.raises(ValueError, match=r"cfg\.txt:3: not valid UTF-8 \(byte 0xe9\)$"):
            parse_config(path)


# tiny base configs: every value valid, every size small
CONTRACT_BASE = {
    "gen-data": "num_classes = 2\nnum_domains = 3\nper_cell = 4\nfeature_dim = 4\n",
    "train": "epochs = 1\niters_per_epoch = 2\nbatch_per_domain = 2\nhidden_sizes = 4\n",
    "eval": "",
    "diagnose": "probe_rows = 4\n",
    "ablate": ("seeds = 0\nnum_classes = 2\nnum_domains = 3\nper_cell = 4\nfeature_dim = 4\n"
               "epochs = 1\niters_per_epoch = 1\nbatch_per_domain = 2\nhidden_sizes = 4\n"),
}
# each key's valid, boundary and invalid values, the empty one included, with
# sizes capped so that no example allocates more than a few MB or trains more
# than a few steps
CONTRACT_VALUES = {
    "num_classes": ["2", "3", "1", "0", "two", ""],
    "num_domains": ["2", "3", "1", "-1", ""],
    "per_cell": ["4", "6", "3", "0", "4.0", "\u0664\u0660", ""],
    "feature_dim": ["4", "5", "3", "0", ""],
    "separation": ["3.0", "0", "-2", "1e308", "nan", ""],
    "shift_kappa": ["0", "2.0", "-3", "1e4", "1e308", "inf", ""],
    "noise_sigma": ["1.0", "0", "-1", "1e308", ""],
    "seed": ["0", "7", "-1", "1.5", "1_0", "\u0663", ""],
    "seeds": ["0", "0,1", "1,1", "-1", "0,-2", ""],
    "epochs": ["1", "2", "0", ""],
    "iters_per_epoch": ["1", "2", "0", "-1", ""],
    "batch_per_domain": ["2", "3", "1", "1000", ""],
    "lr_backbone": ["0.01", "0", "-1", "1e300", ""],
    "lr_classifier": ["0.01", "0", "nan", ""],
    "momentum": ["0", "0.9", "1", "-0.5", ""],
    "weight_decay": ["0", "5e-4", "-1", ""],
    "combination_mode": ["random", "single_only", "bogus", ""],
    "aux_weight": ["0", "1.0", "-1", ""],
    "lr_step_epochs": ["0", "1", "-1", ""],
    "lr_step_gamma": ["0.5", "1", "0", "1.5", ""],
    "val_fraction": ["0.1", "0.5", "0.9", "0", "1", ""],
    "hidden_sizes": ["4", "4,3", "0", "4,-1", "", "4,,3"],
    "use_on": ["true", "false", "maybe", ""],
    "use_aug": ["true", "false", "0", ""],
    "classifier_mode": ["independent", "shared_one", "shared_two", "bogus", ""],
    "backbone": ["mlp", "smallconv", "resnet", ""],
    "bn_momentum": ["0.1", "1", "0", "2", ""],
    "bn_eps": ["1e-5", "0", "-1", ""],
    "target_domain": ["2", "0", "3", "-1", ""],
    "strategy": ["MeanMeanIM", "MainOnly", "MaxI", "bogus", ""],
    "scope": ["independent_only", "all_units", "everything", ""],
    "probe_rows": ["1", "4", "0", "-1", ""],
}
# keys whose every parsed value is cheap also take any text and any float
CONTRACT_FREE = {"separation", "shift_kappa", "noise_sigma", "seed", "lr_backbone",
                 "lr_classifier", "momentum", "weight_decay", "combination_mode",
                 "aux_weight", "lr_step_epochs", "lr_step_gamma", "val_fraction", "use_on",
                 "use_aug", "classifier_mode", "backbone", "bn_momentum", "bn_eps",
                 "target_domain", "strategy", "scope", "probe_rows"}
CONTRACT_ARTIFACTS = {"gen-data": {"dataset.csv"}, "train": {"metrics.csv", "model.ckpt"},
                      "eval": {"accuracy.csv"}, "diagnose": {"diagnostics.csv"},
                      "ablate": {"ablation.csv", "fusion.csv"}}


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """A fitting dataset and checkpoint (two sources, domain 2 held out),
    a dataset with one domain too many, and a malformed one of each."""
    d = tmp_path_factory.mktemp("contract")
    ds, _ = datagen.generate(num_classes=2, num_domains=3, per_cell=8, feature_dim=4)
    datagen.save(ds, d / "data.csv")
    datagen.save(datagen.generate(num_classes=2, num_domains=4, per_cell=4, feature_dim=4)[0],
                 d / "wide.csv")
    model = init_model(ModelConfig(input_dim=4, num_classes=2, num_domains=2,
                                   hidden_sizes=(4,)), seed=0)
    result = training.train(model, ds, 2, TrainConfig(epochs=1, iters_per_epoch=4,
                                                      batch_per_domain=2))
    save_checkpoint(result.model, d / "model.ckpt")
    (d / "bad.csv").write_text("domain,label,f0\n0,0,\u0663.5\n", encoding="utf-8")
    (d / "bad.ckpt").write_bytes(b"NAUG\x01")
    return d


def _finite_fields(path) -> bool:
    """Every field of a written CSV below its header that reads as a number is finite."""
    numbers = []
    for row in read_csv(path)[1:]:
        for field in row:
            try:
                numbers.append(float(field))
            except ValueError:
                pass
    return all(math.isfinite(x) for x in numbers)


class TestContract:
    """`main` in-process on tiny configs, each key drawn from valid,
    boundary and invalid values: it returns 0, 1 or 2 and never raises;
    every message starts `normaug <command>:`; an exit-2 message names a
    drawn key (a file it could not read, or the config line it could not
    parse) and leaves `--out` absent; an exit-1 message is a missing file
    or a diverged run; an exit 0 wrote exactly the command's artifacts,
    each loading, with every number finite."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_main_keeps_the_contract(self, contract_files, tmp_path_factory, data):
        d = contract_files
        values = CONTRACT_VALUES | {
            "dataset": [str(d / n) for n in ("data.csv", "wide.csv", "bad.csv", "missing.csv")]
            + [""],
            "checkpoint": [str(d / n) for n in ("model.ckpt", "bad.ckpt", "missing.ckpt")] + [""]}
        command = data.draw(st.sampled_from(sorted(CONTRACT_BASE)), label="command")
        text = st.text(st.characters(blacklist_characters="\n#", blacklist_categories=("Cs",)),
                       max_size=10)
        drawn = data.draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=4),
                          label="keys")
        drawn = {key: data.draw(st.one_of(st.sampled_from(values[key]), text,
                                          st.floats().map(repr))
                                if key in CONTRACT_FREE else st.sampled_from(values[key]),
                                label=key)
                 for key in drawn}
        base = dict(line.split(" = ") for line in CONTRACT_BASE[command].splitlines())
        base |= {"dataset": str(d / "data.csv"), "checkpoint": str(d / "model.ckpt")}
        work = tmp_path_factory.mktemp("run")
        config = work / "c.txt"
        config.write_text("".join(f"{k} = {v}\n" for k, v in (base | drawn).items()),
                          encoding="utf-8")
        out = work / "out"
        with np.errstate(all="ignore"), contextlib.redirect_stderr(io.StringIO()) as err, \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config), "--out", str(out)])
        lines = err.getvalue().splitlines()
        event(f"{command} exit {code}")
        assert code in (0, 1, 2)
        assert all(line.startswith(f"normaug {command}: ") for line in lines), lines
        if code == 2:
            message = lines[-1]
            named = [*drawn, str(config)]
            named += [drawn[k] for k in ("dataset", "checkpoint") if k in drawn]
            assert any(name in message for name in named), (message, drawn)
            assert not out.exists()
        elif code == 1:
            assert "No such file" in lines[-1] or "aborted" in lines[-1], lines[-1]
        else:
            written = {p.name for p in out.iterdir()}
            assert written == CONTRACT_ARTIFACTS[command]
            for name in written:
                if name == "dataset.csv":
                    assert np.isfinite(datagen.load(out / name).features).all()
                elif name == "model.ckpt":
                    load_checkpoint(out / name)
                else:
                    assert _finite_fields(out / name), name
