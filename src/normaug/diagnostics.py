"""Divergence measurements and the statistics-perturbation probe.

Divergence compares per-domain mean penultimate features (evaluation mode)
against the pooled source mean; the probe measures how much a fixed batch's
features move when normalization statistics are merged with a companion
batch, holding all parameters fixed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import TwoPathNetwork


def _column_means(rows: list[np.ndarray]) -> np.ndarray:
    """Exactly rounded per-column mean over the stacked rows (fsum), so the
    result is independent of sample order and chunking."""
    return _means([r.T.tolist() for r in rows], sum(r.shape[0] for r in rows))


def _means(blocks: list[list[list[float]]], total: int) -> np.ndarray:
    """`_column_means` of row blocks given as column lists (`r.T.tolist()`),
    so that a block converted once serves several means."""
    if total == 0:
        raise ValueError("divergence: empty feature set")
    return np.array([math.fsum(itertools.chain(*col)) for col in zip(*blocks)]) / total


@dataclass
class DivergenceReport:
    d_s2s: float
    d_s2t: float
    source_mean: np.ndarray
    target_mean: np.ndarray
    per_domain_means: dict[int, np.ndarray]


def divergence(model: TwoPathNetwork, sources_by_domain: dict[int, np.ndarray],
               target_features: np.ndarray) -> DivergenceReport:
    """Mean-feature distances: source-to-source is the average distance from
    the pooled source mean to each domain mean; source-to-target is the
    distance from the pooled source mean to the target mean.

    The pooled source mean weights every sample equally, which is the
    balanced per-domain average when domain sizes match.
    """
    if not sources_by_domain:
        raise ValueError("divergence: no source domains")
    if len(target_features) == 0:
        raise ValueError("divergence: empty target set")
    feats = {d: model.features(x) for d, x in sources_by_domain.items()}
    for d, f in feats.items():
        if f.shape[0] == 0:
            raise ValueError(f"divergence: empty source domain {d}")
    columns = {d: f.T.tolist() for d, f in feats.items()}
    per_domain = {d: _means([columns[d]], f.shape[0]) for d, f in feats.items()}
    source_mean = _means(list(columns.values()), sum(f.shape[0] for f in feats.values()))
    target_mean = _column_means([model.features(target_features)])
    n = len(per_domain)
    d_s2s = sum(float(np.linalg.norm(source_mean - m)) for m in per_domain.values()) / n
    d_s2t = float(np.linalg.norm(source_mean - target_mean))
    return DivergenceReport(d_s2s=d_s2s, d_s2t=d_s2t, source_mean=source_mean,
                            target_mean=target_mean, per_domain_means=per_domain)


def perturbation_probe(model: TwoPathNetwork, probe: np.ndarray,
                       companions: list[tuple[str, np.ndarray]]
                       ) -> list[tuple[str, float]]:
    """Mean L2 displacement of the probe rows' features when batch statistics
    are computed jointly with each companion batch instead of alone.

    A companion that is a bitwise copy of the probe batch yields exactly 0.
    """
    if not companions:
        raise ValueError("perturbation_probe: no companion sets")
    probe = np.asarray(probe, dtype=np.float64)
    if probe.shape[0] == 0:
        raise ValueError("perturbation_probe: empty probe batch")
    base = model.features_with_batch_stats(probe)
    out = []
    for name, comp in companions:
        comp = np.asarray(comp, dtype=np.float64)
        if comp.shape[0] == 0:
            raise ValueError(f"perturbation_probe: empty companion {name!r}")
        merged = model.features_with_batch_stats(probe, comp)
        disp = float(np.linalg.norm(merged - base, axis=1).mean())
        out.append((name, disp))
    return out
