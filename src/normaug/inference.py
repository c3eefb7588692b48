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

from .model import TwoPathNetwork
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

    @classmethod
    def from_name(cls, name: str) -> "FusionStrategy":
        return _by_name(cls, name, "fusion strategy")


class SubpathScope(enum.Enum):
    INDEPENDENT_ONLY = "independent_only"  # singleton-domain sub-paths
    ALL_UNITS = "all_units"                # every bank unit

    @classmethod
    def from_name(cls, name: str) -> "SubpathScope":
        return _by_name(cls, name, "sub-path scope")


def _by_name(cls, name: str, what: str):
    """The member of `cls` whose value or name is `name` in any case."""
    for member in cls:
        if name.lower() in (member.value.lower(), member.name.lower()):
            return member
    valid = ", ".join(m.value for m in cls)
    raise ValueError(f"unknown {what} {name!r}; expected one of {valid}")


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


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


_SPLITTER = 134217729.0  # 2**27 + 1


def mean_paths(paths: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean over the path axis, rounded once.

    Exact compensated accumulation followed by a remainder-corrected
    division, so the mean of two paths equals the plain (a + b) / 2 and the
    result does not depend on path order.
    """
    hi = np.zeros_like(paths[0])
    lo = np.zeros_like(paths[0])
    for p in paths:
        hi, err = _two_sum(hi, p)
        lo = lo + err
    n = float(len(paths))
    q = hi / n
    c = _SPLITTER * q
    qh = c - (c - q)
    ql = q - qh
    prod = q * n
    prod_err = (qh * n - prod) + ql * n
    rem = ((hi - prod) - prod_err) + lo
    return q + rem / n


def fuse(p_main: np.ndarray, p_subs: list[np.ndarray],
         strategy: FusionStrategy) -> np.ndarray:
    """Combine per-route probability matrices into the fused prediction."""
    S = FusionStrategy
    if strategy is S.MAIN_ONLY:
        return p_main
    if not p_subs:
        raise ValueError(f"fuse: strategy {strategy.value} needs sub-path predictions")
    mean_subs = mean_paths(p_subs)
    if strategy is S.MEAN_MEAN_IM:
        return (p_main + mean_subs) / 2.0
    if strategy is S.MEAN_ALL:
        return mean_paths([p_main] + p_subs)
    if strategy is S.MEAN_I:
        return mean_subs
    if strategy is S.MAX_I:
        return _renormalize(np.maximum.reduce(p_subs))
    if strategy is S.MAX_IM:
        return _renormalize(np.maximum.reduce([p_main] + p_subs))
    if strategy is S.MAX_MEAN_I_M:
        return _renormalize(np.maximum(mean_subs, p_main))
    if strategy is S.MEAN_MAX_I_M:
        return (_renormalize(np.maximum.reduce(p_subs)) + _renormalize(p_main)) / 2.0
    raise ValueError(f"fuse: unhandled strategy {strategy}")


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
    route ('main' plus 'sub_<domains>'). Every route runs on plain arrays
    from the input rows (`TwoPathNetwork.eval_logits`). A rule that needs
    sub-paths is refused for a model without a bank before any route runs."""
    if strategy is not FusionStrategy.MAIN_ONLY and not model.config.use_aug:
        raise ValueError(f"strategy {strategy.value} needs sub-path predictions, "
                         f"but the model was trained without a bank (use_aug = false)")
    subsets = subpath_subsets(model, scope)
    main, subs = model.eval_logits(features, subsets)
    p_main, p_subs = _softmax_rows(main), [_softmax_rows(z) for z in subs]
    per_path = {"main": p_main}
    per_path.update((f"sub_{s.label()}", p) for s, p in zip(subsets, p_subs))
    return fuse(p_main, p_subs, strategy), per_path


def _check_labels(caller: str, labels, rows: int) -> None:
    """One label per row: `labels.shape == (rows,)`, so that a label array
    of another shape cannot broadcast against the predictions."""
    if labels.shape != (rows,):
        got = f"{labels.shape[0]} labels" if labels.ndim == 1 else f"labels of shape {labels.shape}"
        raise ValueError(f"{caller}: {got} for {rows} rows")


def main_accuracy(model: TwoPathNetwork, features: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy of the main route's probabilities, computing no
    sub-path: bitwise `evaluate(..., MainOnly).fused_accuracy`."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("main_accuracy: empty split")
    p_main = _softmax_rows(model.eval_logits(features)[0])
    _check_labels("main_accuracy", labels, p_main.shape[0])
    return float((p_main.argmax(axis=1) == labels).mean())


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
