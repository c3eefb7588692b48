"""Test-time ensemble over the main route and the bank sub-paths.

All routes run in evaluation mode (running statistics only) on plain
arrays, without the autodiff tape, so every sample's probabilities are
independent of how the split is batched. Fusion operates on softmax
probabilities; the Max-family operators take the elementwise maximum across
routes and renormalize to a distribution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import datagen
from .datagen import Dataset, SplitConfig
from .model import TwoPathNetwork, load_checkpoint
from .normbank import DomainSubset


class FusionStrategy(enum.Enum):
    MEAN_MEAN_IM = "MeanMeanIM"  # mean of sub-paths, then mean with main
    MEAN_ALL = "MeanAll"         # mean of main and every sub-path
    MAIN_ONLY = "MainOnly"
    MEAN_I = "MeanI"
    MAX_I = "MaxI"
    MAX_IM = "MaxIM"
    MAX_MEAN_I_M = "MaxMeanI_M"  # max(mean(subs), main)
    MEAN_MAX_I_M = "MeanMaxI_M"  # mean(max(subs), main)

    @property
    def reads_main(self) -> bool:
        """Whether the rule reads the main route's probabilities."""
        return self not in (FusionStrategy.MEAN_I, FusionStrategy.MAX_I)

    @property
    def reads_subpaths(self) -> bool:
        """Whether the rule reads the sub-paths' probabilities."""
        return self is not FusionStrategy.MAIN_ONLY


class SubpathScope(enum.Enum):
    INDEPENDENT_ONLY = "independent_only"  # singleton-domain sub-paths
    ALL_UNITS = "all_units"                # every bank unit


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row, computed on a class-major copy: the max and the
    sum over classes are elementwise passes over C rows of n values. The sum
    runs in class order whatever n is, which is the bits of a row-wise sum
    for C < 8 (numpy sums 8 or more elements pairwise). Returns
    C-contiguous (n, C)."""
    z = logits.T.copy()
    z -= np.maximum.reduce(z)
    np.exp(z, out=z)
    total = z[0].copy()
    for row in z[1:]:
        total += row
    out = np.empty(logits.shape)
    np.divide(z, total, out=out.T)
    return out


def _renormalize(p: np.ndarray) -> np.ndarray:
    return p / p.sum(axis=1, keepdims=True)


_SPLITTER = 134217729.0  # 2**27 + 1


def mean_paths(paths: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean over the path axis, rounded once.

    Exact compensated accumulation (Knuth's two-sum) followed by a
    remainder-corrected division (Dekker's split product), so the mean of
    two paths equals the plain (a + b) / 2 and the result does not depend
    on path order. Each step writes into one of six reused buffers; the
    comments give the formula each group of steps computes, in its order.
    """
    hi = np.zeros_like(paths[0])
    lo = np.zeros_like(paths[0])
    s, bv, err = np.empty_like(hi), np.empty_like(hi), np.empty_like(hi)
    for p in paths:
        np.add(hi, p, out=s)                   # s = hi + p
        np.subtract(s, hi, out=bv)             # bv = s - hi
        np.subtract(s, bv, out=err)
        np.subtract(hi, err, out=err)
        np.subtract(p, bv, out=bv)
        np.add(err, bv, out=err)               # err = (hi - (s - bv)) + (p - bv)
        np.add(lo, err, out=lo)                # lo = lo + err
        hi, s = s, hi                          # hi = s
    n = float(len(paths))
    q = hi / n
    c, qh, ql = s, bv, err
    np.multiply(_SPLITTER, q, out=c)
    np.subtract(c, q, out=qh)
    np.subtract(c, qh, out=qh)                 # qh = c - (c - q)
    np.subtract(q, qh, out=ql)                 # ql = q - qh
    prod = np.multiply(q, n, out=c)            # prod = q * n
    np.multiply(qh, n, out=qh)
    np.subtract(qh, prod, out=qh)
    np.multiply(ql, n, out=ql)
    prod_err = np.add(qh, ql, out=qh)          # prod_err = (qh * n - prod) + ql * n
    np.subtract(hi, prod, out=hi)
    np.subtract(hi, prod_err, out=hi)
    rem = np.add(hi, lo, out=hi)               # rem = ((hi - prod) - prod_err) + lo
    np.divide(rem, n, out=rem)
    return np.add(q, rem, out=q)               # q + rem / n


def _renormalized_max(paths: list[np.ndarray]) -> np.ndarray:
    """Elementwise maximum over the paths, renormalized to a distribution:
    one running maximum, so no (k, n, C) stack of the paths is built."""
    out = paths[0].copy()
    for p in paths[1:]:
        np.maximum(out, p, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def fuse(p_main: np.ndarray | None, p_subs: list[np.ndarray],
         strategy: FusionStrategy) -> np.ndarray:
    """Combine per-route probability matrices into the fused prediction.
    `p_main` may be None for a rule that does not read the main route
    (`FusionStrategy.reads_main`)."""
    S = FusionStrategy
    if p_main is None and strategy.reads_main:
        raise ValueError(f"fuse: strategy {strategy.value} needs main-route predictions")
    if strategy is S.MAIN_ONLY:
        return p_main
    if not p_subs:
        raise ValueError(f"fuse: strategy {strategy.value} needs sub-path predictions")
    if strategy is S.MEAN_MEAN_IM:
        return (p_main + mean_paths(p_subs)) / 2.0
    if strategy is S.MEAN_ALL:
        return mean_paths([p_main] + p_subs)
    if strategy is S.MEAN_I:
        return mean_paths(p_subs)
    if strategy is S.MAX_I:
        return _renormalized_max(p_subs)
    if strategy is S.MAX_IM:
        return _renormalized_max([p_main] + p_subs)
    if strategy is S.MAX_MEAN_I_M:
        return _renormalize(np.maximum(mean_paths(p_subs), p_main))
    if strategy is S.MEAN_MAX_I_M:
        return (_renormalized_max(p_subs) + _renormalize(p_main)) / 2.0
    raise ValueError(f"fuse: unhandled strategy {strategy}")


@dataclass
class EvalConfig:
    """The `eval` config keys: the fusion rule (None: the model's
    `default_strategy`) and the sub-path scope. Their types are their rule:
    any other value is refused when the config is parsed."""
    strategy: FusionStrategy | None = None
    scope: SubpathScope = SubpathScope.INDEPENDENT_ONLY


@dataclass(kw_only=True)
class RunConfig(SplitConfig):
    """The config keys of a trained run to score: its `checkpoint`, and the
    dataset and held-out domain of `SplitConfig`."""
    checkpoint: str

    def load(self) -> tuple[TwoPathNetwork, Dataset, Dataset]:
        """The checkpoint's model and the dataset's source and held-out
        splits, holding out the domain the checkpoint records (which a key
        must match), else `target_domain`'s. The dataset must fit the model:
        its sources plus one held out, its input width, and labels it can score."""
        model, _, recorded = load_checkpoint(self.checkpoint)
        target = self.target_domain if recorded is None else recorded
        if self.target_domain not in (None, target):
            raise ValueError(f"config key target_domain: the checkpoint's model was trained "
                             f"holding out domain {recorded}, got {self.target_domain}")
        dataset = datagen.load(self.dataset)
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
        return (model, *datagen.split_lodo(dataset, target))


def default_strategy(model: TwoPathNetwork) -> FusionStrategy:
    """MeanMeanIM for a model with a bank, MainOnly for one without."""
    if model.config.use_aug:
        return FusionStrategy.MEAN_MEAN_IM
    return FusionStrategy.MAIN_ONLY


def subpath_subsets(model: TwoPathNetwork, scope: SubpathScope) -> list[DomainSubset]:
    """The bank subsets whose sub-paths `scope` runs; a ValueError naming
    the units when `all_units` would run one that training never updated."""
    if not model.config.use_aug:
        return []
    bank = model.banks[0]
    if scope is SubpathScope.INDEPENDENT_ONLY:
        return bank.singletons()
    stale = [s for s in bank.subsets()
             if any(b.units[s].update_count == 0 for b in model.banks)]
    if stale:
        labels = ", ".join("{" + s.label() + "}" for s in stale)
        raise ValueError(f"scope=all_units but units never updated: {labels}")
    return bank.subsets()


def predict(model: TwoPathNetwork, features: np.ndarray,
            strategy: FusionStrategy = FusionStrategy.MEAN_MEAN_IM,
            scope: SubpathScope = SubpathScope.INDEPENDENT_ONLY
            ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Evaluation-mode probabilities: the fused matrix and one matrix per
    route the rule reads ('main' unless the rule is MeanI or MaxI, and
    'sub_<domains>' for the scope's sub-paths unless it is MainOnly). Only
    those routes run, on plain arrays from the input rows
    (`TwoPathNetwork.eval_logits`). Whatever the rule, a model without a
    bank is refused a rule that needs sub-paths, and `all_units` a model
    with a stale unit (`subpath_subsets`), before any route runs."""
    if strategy.reads_subpaths and not model.config.use_aug:
        raise ValueError(f"strategy {strategy.value} needs sub-path predictions, "
                         f"but the model was trained without a bank (use_aug = false)")
    subsets = subpath_subsets(model, scope)
    if not strategy.reads_subpaths:
        subsets = []
    main, subs = model.eval_logits(features, subsets, main=strategy.reads_main)
    p_main = None if main is None else _softmax_rows(main)
    p_subs = [_softmax_rows(z) for z in subs]
    per_path = {} if p_main is None else {"main": p_main}
    per_path.update((f"sub_{s.label()}", p) for s, p in zip(subsets, p_subs))
    return fuse(p_main, p_subs, strategy), per_path


def _check_labels(caller: str, labels, rows: int) -> None:
    """One label per row: `labels.shape == (rows,)`, so that a label array
    of another shape cannot broadcast against the predictions."""
    if labels.shape != (rows,):
        got = f"{labels.shape[0]} labels" if labels.ndim == 1 else f"labels of shape {labels.shape}"
        raise ValueError(f"{caller}: {got} for {rows} rows")


@dataclass
class EvalReport:
    per_path: dict[str, float]
    fused_accuracy: float
    fused_probabilities: np.ndarray


def evaluate(model: TwoPathNetwork, features: np.ndarray, labels: np.ndarray,
             strategy: FusionStrategy = FusionStrategy.MEAN_MEAN_IM,
             scope: SubpathScope = SubpathScope.INDEPENDENT_ONLY) -> EvalReport:
    """Argmax accuracy per route and for the fused prediction, from a single
    forward pass."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("evaluate: empty split")
    fused, per_path = predict(model, features, strategy, scope)
    _check_labels("evaluate", labels, fused.shape[0])
    accs = {name: float((p.argmax(axis=1) == labels).mean())
            for name, p in per_path.items()}
    return EvalReport(
        per_path=accs,
        fused_accuracy=float((fused.argmax(axis=1) == labels).mean()),
        fused_probabilities=fused,
    )
