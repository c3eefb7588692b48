"""End-to-end CLI runs in temp directories: artifacts, exit codes, determinism."""

import csv
from pathlib import Path

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normaug import datagen, training
from normaug.cli import (
    KNOWN_KEYS,
    UsageError,
    _gen_kwargs,
    _model_config,
    main,
    parse_config,
    train_config_from,
)
from normaug.inference import FusionStrategy, SubpathScope
from normaug.model import ModelConfig

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

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_GEN)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(b), "--seed", "9"]) == 0
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

    def test_strategy_flag(self, pipeline, tmp_path):
        tmp, out, dataset, _ = pipeline
        eval_cfg = write_config(
            tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n",
            "eval2.txt")
        eout = tmp_path / "eo"
        assert main(["eval", "--config", eval_cfg, "--out", str(eout),
                     "--strategy", "MainOnly"]) == 0
        rows = {r[0]: r[1] for r in read_csv(eout / "accuracy.csv")[1:]}
        assert rows["fused"] == rows["main"]

    def test_bad_strategy_is_usage_error(self, pipeline, tmp_path):
        tmp, out, dataset, _ = pipeline
        eval_cfg = write_config(
            tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n",
            "eval3.txt")
        code = main(["eval", "--config", eval_cfg, "--out", str(tmp_path / "x"),
                     "--strategy", "bogus"])
        assert code == 2

    def test_model_without_bank(self, tmp_path):
        """The default rule follows the model; a sub-path rule is a usage error."""
        tmp, out, dataset, _ = run_pipeline(tmp_path, "use_aug = false\n")
        eval_cfg = write_config(
            tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n", "eval.txt")
        eout = tmp_path / "eo"
        assert main(["eval", "--config", eval_cfg, "--out", str(eout)]) == 0
        rows = {r[0]: r[1] for r in read_csv(eout / "accuracy.csv")[1:]}
        assert set(rows) == {"main", "fused"}
        assert rows["fused"] == rows["main"] == read_csv(out / "metrics.csv")[-1][4]
        for strategy in ("MeanMeanIM", "MeanI"):
            assert main(["eval", "--config", eval_cfg, "--out", str(tmp_path / "x"),
                         "--strategy", strategy]) == 2


    def test_scope_the_model_cannot_serve_is_usage_error(self, tmp_path, capsys):
        """single_only training over three sources never updates the merged
        bank units, so `all_units` is refused, naming them; the default
        scope still runs."""
        tmp, out, dataset, _ = run_pipeline(tmp_path, "combination_mode = single_only\n")
        eval_cfg = write_config(
            tmp, f"checkpoint = {out / 'model.ckpt'}\ndataset = {dataset}\n", "eval.txt")
        eout = tmp_path / "eo"
        capsys.readouterr()
        assert main(["eval", "--config", eval_cfg, "--out", str(eout),
                     "--scope", "all_units"]) == 2
        assert capsys.readouterr().err == ("normaug eval: scope=all_units but units never "
                                           "updated: {0+1}, {0+2}, {1+2}\n")
        assert not (eout / "accuracy.csv").exists()
        assert main(["eval", "--config", eval_cfg, "--out", str(eout)]) == 0


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
        assert not list(result.iterdir())


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
        assert not list(result.iterdir())


class TestTargetDomain:
    """A `target_domain` that is not one of the dataset's domains (the
    pipeline's are 0-3) is refused before anything is trained, scored or
    written."""

    @pytest.mark.parametrize("target", ["7", "-1"])
    @pytest.mark.parametrize("command", ["train", "eval", "diagnose"])
    def test_domain_outside_the_dataset_is_usage_error(self, pipeline, tmp_path, capsys,
                                                       command, target):
        tmp, out, dataset, _ = pipeline
        if command == "train":
            text = SMALL_TRAIN.replace("target_domain = 3", f"target_domain = {target}")
        else:
            text = f"checkpoint = {out / 'model.ckpt'}\ntarget_domain = {target}\n"
        cfg = write_config(tmp, text + f"dataset = {dataset}\n", "target.txt")
        capsys.readouterr()
        result = tmp_path / "result"
        assert main([command, "--config", cfg, "--out", str(result)]) == 2
        assert capsys.readouterr().err == (
            f"normaug {command}: config key target_domain: domain {target} is not in the "
            f"dataset, whose domains are 0, 1, 2, 3\n")
        assert not list(result.iterdir())


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

        def spy_generate(**kwargs):
            generated.append(kwargs)
            return generate(**kwargs)

        monkeypatch.setattr(training, "train", spy_train)
        monkeypatch.setattr(datagen, "generate", spy_generate)
        cfg = write_config(tmp_path, SMALL_GRID.replace("feature_dim = 6", "feature_dim = 9")
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
            assert (kw["separation"], kw["noise_sigma"]) == (2.5, 3.0)

    @pytest.mark.parametrize("extra", ["target_domain = 0\n", "backbone = smallconv\n",
                                       "hidden_sizes = 8,x\n", "use_on = false\n",
                                       "use_aug = false\n", "seed = 7\n"],
                             ids=["target_domain", "backbone", "hidden_sizes", "use_on",
                                  "use_aug", "seed"])
    def test_bad_keys_are_usage_errors(self, tmp_path, extra):
        cfg = write_config(tmp_path, SMALL_GRID + extra)
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "grid")]) == 2

    def test_benchmark_config_is_the_default_model(self):
        """configs/benchmark.txt sets its model keys to the defaults, so the
        grid it runs is the one an empty config runs."""
        cfg = parse_config(Path(__file__).parents[1] / "configs" / "benchmark.txt")
        assert _model_config(cfg, 16, 5, 3) == ModelConfig(input_dim=16, num_classes=5,
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

    @pytest.mark.parametrize("command, text, flag, message", [
        ("gen-data", SMALL_GEN, ["--seed", "-1"], "--seed: expected a non-negative integer, got -1"),
        ("train", "dataset = missing.csv\n", ["--seed", "-3"],
         "--seed: expected a non-negative integer, got -3"),
        ("train", "dataset = missing.csv\nseed = -3\n", [],
         "config key seed: expected a non-negative integer, got -3"),
        ("diagnose", "checkpoint = missing.ckpt\ndataset = missing.csv\nseed = -2\n", [],
         "config key seed: expected a non-negative integer, got -2"),
        ("ablate", "seeds = -1\n", [], "config key seeds: expected a non-negative integer, got -1"),
    ], ids=["gen-data", "train-flag", "train-key", "diagnose", "ablate"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, text, flag, message):
        """Refused before any file is read (the dataset and checkpoint do not
        exist) or written."""
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out),
                     *flag]) == 2
        assert capsys.readouterr().err == f"normaug {command}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", [[], ["--seed", "5"]], ids=["config", "seed-flag"])
    def test_repeated_seed_exits_2(self, tmp_path, capsys, flag):
        """`seeds = 0,1,1` is refused, naming the seed, before any file is
        written, also when --seed replaces the list."""
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SMALL_GEN.replace("seed = 0", "seeds = 0,1,1"))
        assert main(["ablate", "--config", cfg, "--out", str(out), *flag]) == 2
        assert capsys.readouterr().err == "normaug ablate: config key seeds: seed 1 repeated\n"
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
        assert list((tmp_path / "run").iterdir()) == []

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        cfg = write_config(tmp_path, "dataset = /does/not/exist.csv\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestParseConfig:
    def test_comments_and_whitespace(self, tmp_path):
        cfg = write_config(tmp_path, "# full line comment\n\nepochs = 3  # trailing\n")
        assert parse_config(cfg) == {"epochs": "3"}

    @settings(max_examples=150, deadline=None)
    @given(lines=st.dictionaries(
        st.sampled_from(sorted(KNOWN_KEYS)),
        st.one_of(st.text(st.characters(blacklist_characters="\n\r#",
                                        blacklist_categories=("Cs",)), max_size=10),
                  st.sampled_from(["nan", "-inf", "1e309", "0", "-1", "true", "No", "8,4",
                                   "8,,4", "", "smallconv", "shared_two"]),
                  st.integers(-3, 100).map(str), st.floats().map(repr)),
        max_size=6))
    def test_fuzzed_values_build_valid_configs(self, tmp_path_factory, lines):
        """Any key = value lines give valid configs or a UsageError."""
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
        try:
            cfg = parse_config(path)
            configs = [train_config_from(cfg, None), _model_config(cfg, 16, 5, 3)]
            gen_kwargs = _gen_kwargs(cfg)
        except UsageError:
            return
        for config in configs:
            config.validate()
        numbers = [v for v in vars(configs[0]).values() if isinstance(v, float)]
        numbers += [configs[1].bn_momentum, configs[1].bn_eps, gen_kwargs["separation"],
                    gen_kwargs["shift_kappa"], gen_kwargs["noise_sigma"]]
        assert all(math.isfinite(x) for x in numbers)
