"""Seeded experiment drivers: the ablation grid over the ON / AUG / EP
switches, with every fusion rule scored on its `on_aug` runs, and the
default synthetic benchmark they run on."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import datagen, inference, training
from .datagen import Dataset
from .inference import FusionStrategy, SubpathScope
from .model import ModelConfig, init_model
from .training import TrainConfig, TrainResult

# variant -> (use_on, use_aug, ensemble at test time)
VARIANTS: dict[str, tuple[bool, bool, bool]] = {
    "baseline": (False, False, False),
    "on": (True, False, False),
    "on_aug": (True, True, False),
    "on_aug_ep": (True, True, True),
}


def make_benchmark(seed: int, **generate_kwargs) -> tuple[Dataset, int]:
    """Default benchmark: N-1 source domains plus the last domain held out
    as the shifted target. `generate_kwargs` go to `datagen.generate`."""
    ds, _ = datagen.generate(seed=seed, **generate_kwargs)
    return ds, ds.num_domains - 1


@dataclass
class VariantResult:
    variant: str
    seed: int
    target_accuracy: float
    result: TrainResult


def run_variants(dataset: Dataset, target_domain: int, seed: int,
                 train_config: TrainConfig | None = None,
                 base_model_config: ModelConfig | None = None,
                 variants: tuple[str, ...] = tuple(VARIANTS)) -> dict[str, VariantResult]:
    """Train each distinct (use_on, use_aug) pair among `variants` once and
    score every variant from its run's final metrics row: the ensemble
    column for an EP variant, the main-route column otherwise. Only that
    row is scored: the earlier epochs' rows hold `epoch` and `train_loss`."""
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        raise ValueError(f"run_variants: unknown variant {unknown[0]!r}")
    shape = {"input_dim": dataset.feature_dim, "num_classes": dataset.num_classes,
             "num_domains": np.unique(dataset.domain_ids).size - 1}
    base = (replace(base_model_config, **shape) if base_model_config is not None
            else ModelConfig(**shape))
    tc = replace(train_config if train_config is not None else TrainConfig(), seed=seed)
    runs: dict[tuple[bool, bool], TrainResult] = {}
    cells = {}
    for variant in variants:
        use_on, use_aug, use_ep = VARIANTS[variant]
        if (use_on, use_aug) not in runs:
            model = init_model(replace(base, use_on=use_on, use_aug=use_aug), seed=seed)
            runs[use_on, use_aug] = training.train(model, dataset, target_domain, tc,
                                                   score_every_epoch=False)
        result = runs[use_on, use_aug]
        accuracy = result.final["tgt_acc_ensemble" if use_ep else "tgt_acc_main"]
        cells[variant] = VariantResult(variant=variant, seed=seed,
                                       target_accuracy=accuracy, result=result)
    return cells


def run_variant(dataset: Dataset, target_domain: int, variant: str, seed: int,
                train_config: TrainConfig | None = None,
                base_model_config: ModelConfig | None = None) -> VariantResult:
    """Train one grid cell and score it on the held-out domain with the
    variant's test-time rule."""
    return run_variants(dataset, target_domain, seed, train_config,
                        base_model_config, (variant,))[variant]


def check_seeds(seeds: list[int]) -> None:
    """`ablation_grid`'s rule for its seed list: not empty, every seed
    non-negative (numpy's generators need it), none repeated (a repeat
    would count one run twice in every mean and std)."""
    if not seeds:
        raise ValueError("ablation_grid: seeds: empty list")
    for i, seed in enumerate(seeds):
        if seed < 0:
            raise ValueError(f"ablation_grid: seeds: seed {seed} is negative")
        if seed in seeds[:i]:
            raise ValueError(f"ablation_grid: seeds: seed {seed} repeated")


@dataclass
class AblateConfig:
    """The `ablate` config keys beside `generate`'s, the model's and the
    training keys: the seed list, and the held-out domain, which is always
    the last (`make_benchmark`). Every grid cell sets `seed`, `use_aug` and
    `use_on` itself, so these are fields only to be refused."""
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    target_domain: int | None = None
    seed: int | None = None
    use_aug: bool | None = None
    use_on: bool | None = None

    def validate(self, num_domains: int) -> None:
        """The rules for data of `num_domains` domains (`ablation_grid`
        checks the seed list)."""
        cell = [k for k in ("seed", "use_aug", "use_on") if getattr(self, k) is not None]
        if cell:
            raise ValueError(f"config key {', '.join(cell)}: every grid cell sets its own "
                             f"switches and seed (the seed list is `seeds`)")
        if self.target_domain not in (None, num_domains - 1):
            raise ValueError(f"config key target_domain: ablate holds out the last domain "
                             f"({num_domains - 1}), got {self.target_domain}")


def ablation_grid(seeds: list[int], train_config: TrainConfig | None = None,
                  base_model_config: ModelConfig | None = None,
                  generate_kwargs: dict | None = None) -> tuple[list[dict], list[dict]]:
    """Run every variant over the seed list on freshly generated benchmark
    data (one dataset per seed) and summarize mean/std target accuracy: one
    row per variant, and one per fusion rule and sub-path scope, scored on
    the held-out domain by each seed's `on_aug` model. A scope's rows are
    left out unless every seed's model serves it (`all_units` needs every
    bank unit updated). Fusion rows are sorted by (strategy, scope)."""
    check_seeds(seeds)
    per_variant: dict[str, list[float]] = {v: [] for v in VARIANTS}
    per_rule: dict[tuple[str, str], list[float]] = {}
    for seed in seeds:
        dataset, target_domain = make_benchmark(seed, **(generate_kwargs or {}))
        cells = run_variants(dataset, target_domain, seed, train_config,
                             base_model_config)
        for variant, cell in cells.items():
            per_variant[variant].append(cell.target_accuracy)
        _, target = datagen.split_lodo(dataset, target_domain)
        model = cells["on_aug"].result.model
        for scope in SubpathScope:
            try:
                inference.subpath_subsets(model, scope)
            except ValueError:  # a bank unit never updated
                continue
            for strategy in FusionStrategy:
                rep = inference.evaluate(model, target.features, target.labels,
                                         strategy, scope)
                per_rule.setdefault((strategy.value, scope.value), []).append(
                    rep.fused_accuracy)
    return ([_summary({"variant": v}, accs) for v, accs in per_variant.items()],
            [_summary({"strategy": strategy, "scope": scope}, accs)
             for (strategy, scope), accs in sorted(per_rule.items())
             if len(accs) == len(seeds)])


def _summary(row: dict, accs: list[float]) -> dict:
    arr = np.asarray(accs)
    return row | {"mean_tgt_acc": float(arr.mean()), "std_tgt_acc": float(arr.std()),
                  "accs": accs}
