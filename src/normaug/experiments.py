"""Seeded experiment drivers: the ablation grid over the ON / AUG / EP
switches and the default synthetic benchmark they run on."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import datagen, inference, training
from .datagen import Dataset
from .inference import FusionStrategy, SubpathScope
from .model import ModelConfig, TwoPathNetwork, init_model
from .training import TrainConfig, TrainResult

# variant -> (use_on, use_aug, ensemble at test time)
VARIANTS: dict[str, tuple[bool, bool, bool]] = {
    "baseline": (False, False, False),
    "on": (True, False, False),
    "on_aug": (True, True, False),
    "on_aug_ep": (True, True, True),
}


def make_benchmark(seed: int, shift_kappa: float = 2.0,
                   **generate_kwargs) -> tuple[Dataset, int]:
    """Default benchmark: N-1 source domains plus the last domain held out
    as the shifted target. `generate_kwargs` go to `datagen.generate`."""
    ds, _ = datagen.generate(shift_kappa=shift_kappa, seed=seed, **generate_kwargs)
    return ds, ds.num_domains - 1


def model_config_for(dataset: Dataset, target_domain: int,
                     use_on: bool, use_aug: bool,
                     base: ModelConfig | None = None) -> ModelConfig:
    n_sources = np.unique(dataset.domain_ids).size - 1
    if base is None:
        base = ModelConfig(input_dim=dataset.feature_dim,
                           num_classes=dataset.num_classes,
                           num_domains=n_sources)
    return replace(base, input_dim=dataset.feature_dim,
                   num_classes=dataset.num_classes, num_domains=n_sources,
                   use_on=use_on, use_aug=use_aug)


@dataclass
class VariantResult:
    variant: str
    seed: int
    target_accuracy: float
    result: TrainResult


def run_variant(dataset: Dataset, target_domain: int, variant: str, seed: int,
                train_config: TrainConfig | None = None,
                base_model_config: ModelConfig | None = None) -> VariantResult:
    """Train one grid cell and score it on the held-out domain with the
    variant's test-time rule."""
    if variant not in VARIANTS:
        raise ValueError(f"run_variant: unknown variant {variant!r}")
    use_on, use_aug, use_ep = VARIANTS[variant]
    cfg = model_config_for(dataset, target_domain, use_on, use_aug, base_model_config)
    tc = replace(train_config if train_config is not None else TrainConfig(), seed=seed)
    model = init_model(cfg, seed=seed)
    result = training.train(model, dataset, target_domain, tc)
    _, target = datagen.split_lodo(dataset, target_domain)
    strategy = FusionStrategy.MEAN_MEAN_IM if use_ep else FusionStrategy.MAIN_ONLY
    report = inference.evaluate(model, target.features, target.labels, strategy,
                                SubpathScope.INDEPENDENT_ONLY)
    return VariantResult(variant=variant, seed=seed,
                         target_accuracy=report.fused_accuracy, result=result)


def ablation_grid(seeds: list[int], shift_kappa: float = 2.0,
                  train_config: TrainConfig | None = None,
                  base_model_config: ModelConfig | None = None,
                  generate_kwargs: dict | None = None) -> list[dict]:
    """Run every variant over the seed list on freshly generated benchmark
    data (one dataset per seed) and summarize mean/std target accuracy."""
    if not seeds:
        raise ValueError("ablation_grid: empty seed list")
    per_variant: dict[str, list[float]] = {v: [] for v in VARIANTS}
    for seed in seeds:
        dataset, target_domain = make_benchmark(seed, shift_kappa,
                                                **(generate_kwargs or {}))
        # on_aug and on_aug_ep share training; train once, score twice
        trained: dict[tuple[bool, bool], VariantResult] = {}
        for variant, (use_on, use_aug, use_ep) in VARIANTS.items():
            key = (use_on, use_aug)
            if key in trained:
                cell = trained[key]
                strategy = (FusionStrategy.MEAN_MEAN_IM if use_ep
                            else FusionStrategy.MAIN_ONLY)
                _, target = datagen.split_lodo(dataset, target_domain)
                report = inference.evaluate(cell.result.model, target.features,
                                            target.labels, strategy)
                per_variant[variant].append(report.fused_accuracy)
                continue
            cell = run_variant(dataset, target_domain, variant, seed,
                               train_config, base_model_config)
            trained[key] = cell
            per_variant[variant].append(cell.target_accuracy)
    rows = []
    for variant, accs in per_variant.items():
        arr = np.asarray(accs)
        rows.append({
            "variant": variant,
            "mean_tgt_acc": float(arr.mean()),
            "std_tgt_acc": float(arr.std()),
            "accs": accs,
        })
    return rows
