"""The experiment driver: each variant's score is its run's final metrics
row and the grid's fusion table scores its own `on_aug` runs."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import same_bits
from normaug import datagen, experiments, inference, training
from normaug.experiments import VARIANTS
from normaug.model import ModelConfig, _units, init_model
from normaug.training import TrainConfig

TINY_GEN = {"num_classes": 3, "num_domains": 3, "per_cell": 16, "feature_dim": 6}
TINY_TRAIN = TrainConfig(epochs=2, iters_per_epoch=3, batch_per_domain=4)
TINY_MODEL = ModelConfig(input_dim=6, hidden_sizes=(8, 4), num_classes=3, num_domains=2)


def tiny_benchmark(seed):
    return experiments.make_benchmark(seed, **TINY_GEN)


def column(variant):
    return "tgt_acc_ensemble" if VARIANTS[variant][2] else "tgt_acc_main"


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_target_accuracy_is_the_final_row(variant):
    dataset, target_domain = tiny_benchmark(0)
    cell = experiments.run_variant(dataset, target_domain, variant, 0,
                                   TINY_TRAIN, TINY_MODEL)
    assert cell.target_accuracy == cell.result.final[column(variant)]
    assert len(cell.result.metrics) == TINY_TRAIN.epochs


def test_run_variant_scores_only_inside_training(monkeypatch):
    """Training scores its last epoch only, twice (the main route on the
    source split, the ensemble on the target), and nothing else scores."""
    calls = []
    scorer = inference.evaluate

    def spy(model, features, labels, strategy, *args):
        calls.append(strategy.value)
        return scorer(model, features, labels, strategy, *args)

    monkeypatch.setattr(inference, "evaluate", spy)
    dataset, target_domain = tiny_benchmark(0)
    experiments.run_variant(dataset, target_domain, "on_aug_ep", 0, TINY_TRAIN, TINY_MODEL)
    assert sorted(calls) == ["MainOnly", "MeanMeanIM"]


@pytest.mark.parametrize("seed", [0, 3])
def test_scoring_the_last_epoch_only_keeps_every_bit(seed):
    """Oracle for scoring the last epoch only: each run of `run_variants` equals
    `training.train` scoring every epoch, in the final row, every block
    buffer, running moment and update count, and the sampler's state; each
    earlier row is exactly that run's `epoch` and `train_loss`."""
    dataset, target_domain = tiny_benchmark(seed)
    tc = replace(TINY_TRAIN, epochs=3, seed=seed)
    cells = experiments.run_variants(dataset, target_domain, seed, tc, TINY_MODEL)

    def hexes(row):
        return {k: float(v).hex() for k, v in row.items()}

    for variant, cell in cells.items():
        use_on, use_aug, _ = VARIANTS[variant]
        oracle = training.train(
            init_model(replace(TINY_MODEL, use_on=use_on, use_aug=use_aug), seed=seed),
            dataset, target_domain, tc)
        got = cell.result
        assert len(got.metrics) == len(oracle.metrics) == tc.epochs
        assert hexes(got.final) == hexes(oracle.final), variant
        for row, full in zip(got.metrics[:-1], oracle.metrics[:-1]):
            assert hexes(row) == {k: float(full[k]).hex() for k in ("epoch", "train_loss")}
        assert got.rng_state == oracle.rng_state
        a, b = got.model, oracle.model
        assert [blk.name for blk in a.blocks] == [blk.name for blk in b.blocks]
        for x, y in zip(a.blocks, b.blocks):
            assert same_bits(x.buffer, y.buffer), (variant, x.name)
        units_a, units_b = _units(a), _units(b)
        assert [name for name, _ in units_a] == [name for name, _ in units_b]
        for (_, ua), (_, ub) in zip(units_a, units_b):
            assert same_bits(ua.running_mean, ub.running_mean)
            assert same_bits(ua.running_var, ub.running_var)
            assert ua.update_count == ub.update_count


def test_run_variants_trains_each_switch_pair_once(monkeypatch):
    configs = []
    train = training.train

    def spy(model, *args, **kwargs):
        configs.append((model.config.use_on, model.config.use_aug))
        return train(model, *args, **kwargs)

    monkeypatch.setattr(training, "train", spy)
    dataset, target_domain = tiny_benchmark(1)
    cells = experiments.run_variants(dataset, target_domain, 1, TINY_TRAIN, TINY_MODEL)
    assert list(cells) == list(VARIANTS)
    assert configs == [(False, False), (True, False), (True, True)]
    assert cells["on_aug"].result is cells["on_aug_ep"].result
    for variant, cell in cells.items():
        assert (cell.variant, cell.seed) == (variant, 1)
        assert cell.target_accuracy == cell.result.final[column(variant)]


def test_unknown_variant_is_rejected():
    dataset, target_domain = tiny_benchmark(0)
    with pytest.raises(ValueError, match="unknown variant"):
        experiments.run_variant(dataset, target_domain, "on_ep", 0, TINY_TRAIN, TINY_MODEL)


def test_ablation_grid_summarizes_run_variant():
    seeds = [0, 1]
    rows, _ = experiments.ablation_grid(seeds, train_config=TINY_TRAIN,
                                        base_model_config=TINY_MODEL,
                                        generate_kwargs=TINY_GEN)
    assert [r["variant"] for r in rows] == list(VARIANTS)
    for row in rows:
        accs = []
        for seed in seeds:
            dataset, target_domain = tiny_benchmark(seed)
            accs.append(experiments.run_variant(dataset, target_domain, row["variant"],
                                                seed, TINY_TRAIN, TINY_MODEL).target_accuracy)
        assert row["accs"] == accs
        assert row["mean_tgt_acc"] == float(np.mean(accs))
        assert row["std_tgt_acc"] == float(np.std(accs))


def sweep_table(seeds, train_config, model_config, generate_kwargs):
    """Every fusion rule and scope scored on a separately trained `on_aug`
    cell per seed, as a standalone sweep would: (strategy, scope) -> accs,
    keeping a scope only if it scored every seed."""
    accs = {}
    for seed in seeds:
        dataset, target_domain = experiments.make_benchmark(seed, **generate_kwargs)
        _, target = datagen.split_lodo(dataset, target_domain)
        model = experiments.run_variant(dataset, target_domain, "on_aug", seed,
                                        train_config, model_config).result.model
        for scope in inference.SubpathScope:
            for strategy in inference.FusionStrategy:
                try:
                    rep = inference.evaluate(model, target.features, target.labels,
                                             strategy, scope)
                except ValueError as e:
                    assert "units never updated" in str(e)
                    break
                accs.setdefault((strategy.value, scope.value), []).append(rep.fused_accuracy)
    return {key: v for key, v in accs.items() if len(v) == len(seeds)}


@pytest.mark.parametrize("num_domains, mode, seeds, scopes", [
    (3, "random", [0, 1], ["all_units", "independent_only"]),
    (4, "random", [0, 2], ["all_units", "independent_only"]),
    (4, "random", [0, 1], ["independent_only"]),
    (4, "single_only", [0, 1], ["independent_only"])],
    ids=["two-sources", "every-unit-drawn", "one-seed-missed-a-unit", "single-only"])
def test_fusion_rows_are_the_sweep_table(num_domains, mode, seeds, scopes):
    """Two sources have only singleton units. With three, six random steps
    update every merged unit on seeds 0 and 2 but miss {0+1} on seed 1, and
    single_only never updates one; `all_units` rows need every seed."""
    gen = TINY_GEN | {"num_domains": num_domains}
    train_config = replace(TINY_TRAIN, combination_mode=mode)
    model_config = replace(TINY_MODEL, num_domains=num_domains - 1)
    variants, fusion = experiments.ablation_grid(seeds, train_config=train_config,
                                                 base_model_config=model_config,
                                                 generate_kwargs=gen)
    expected = sweep_table(seeds, train_config, model_config, gen)
    keys = sorted((s.value, scope) for s in inference.FusionStrategy for scope in scopes)
    assert [(r["strategy"], r["scope"]) for r in fusion] == keys == sorted(expected)
    for row in fusion:
        accs = expected[row["strategy"], row["scope"]]
        assert row["accs"] == accs
        assert row["mean_tgt_acc"] == float(np.mean(accs))
        assert row["std_tgt_acc"] == float(np.std(accs))
    by_rule = {(r["strategy"], r["scope"]): r for r in fusion}
    by_variant = {r["variant"]: r for r in variants}
    assert by_rule["MainOnly", "independent_only"]["accs"] == by_variant["on_aug"]["accs"]
    assert by_rule["MeanMeanIM", "independent_only"]["accs"] == by_variant["on_aug_ep"]["accs"]


@pytest.mark.parametrize("seeds, repeated", [([1, 1], 1), ([0, 1, 1], 1), ([2, 0, 2, 0], 2)])
def test_ablation_grid_refuses_a_repeated_seed(monkeypatch, seeds, repeated):
    """Refused before any dataset is generated: a repeated seed would count
    one run twice in every variant's mean and std."""
    monkeypatch.setattr(experiments, "make_benchmark", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(ValueError, match=f"^ablation_grid: seeds: seed {repeated} repeated$"):
        experiments.ablation_grid(seeds, train_config=TINY_TRAIN,
                                  base_model_config=TINY_MODEL, generate_kwargs=TINY_GEN)


@pytest.mark.parametrize("seeds, message", [([], "empty list"), ([0, -1], "seed -1 is negative")])
def test_ablation_grid_refuses_an_empty_or_negative_seed_list(monkeypatch, seeds, message):
    """The grid owns its seed list's rule: numpy's generators refuse a
    negative seed, and an empty list has no mean."""
    monkeypatch.setattr(experiments, "make_benchmark", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(ValueError, match=f"^ablation_grid: seeds: {message}$"):
        experiments.ablation_grid(seeds, train_config=TINY_TRAIN,
                                  base_model_config=TINY_MODEL, generate_kwargs=TINY_GEN)


def test_ablation_grid_takes_shift_kappa_as_a_generate_keyword():
    """`shift_kappa` reaches `datagen.generate` through `generate_kwargs`
    like every other keyword, with `generate`'s own default."""
    gen = TINY_GEN | {"shift_kappa": 1.0}
    variants, _ = experiments.ablation_grid([0], train_config=TINY_TRAIN,
                                            base_model_config=TINY_MODEL, generate_kwargs=gen)
    dataset, target_domain = experiments.make_benchmark(0, **gen)
    assert dataset.features.tobytes() == datagen.generate(seed=0, **gen)[0].features.tobytes()
    cells = experiments.run_variants(dataset, target_domain, 0, TINY_TRAIN, TINY_MODEL)
    assert [r["accs"] for r in variants] == [[cells[v].target_accuracy] for v in VARIANTS]
