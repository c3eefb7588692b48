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
    return _means([(r, *_exact_sums(r)) for r in rows])


# Blocks of this many rows or more keep the fsum route: below it, n extracted
# values always sum exactly (n * (n + 2) < 2^54).
_EXTRACT_ROWS = 1 << 26


def _exact_sums(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column of the (n, C) block reduced to a few rows of doubles that
    sum exactly to the column's sum, by vectorized error-free extraction
    (Rump, Ogita & Oishi, "Accurate floating-point summation", SIAM J. Sci.
    Comput. 2008): with max|p| < 2^e over a column and sigma =
    2^(e + ceil(log2(n + 2))), q = (sigma + p) - sigma and p - q are exact,
    and the q are multiples of 2^-53 sigma whose sums stay below sigma, so
    `np.add.reduce` adds them exactly in any order. Each round appends
    one row and goes on with p - q until it is zero.

    Also returns each column's sigma / 2^1023, which bounds its absolute
    sum over 2^1023, or inf for a column that keeps the fsum route (its
    rows are zero there): a non-finite value, a sigma above 2^1023 (near
    overflow), a zero column holding -0.0 (fsum decides that sign), or a
    block of `_EXTRACT_ROWS` rows or more."""
    p = np.asarray(block, dtype=np.float64)
    n, c = p.shape
    if n == 0:
        return np.zeros((0, c)), np.zeros(c)
    k = (n + 1).bit_length()  # ceil(log2(n + 2))
    m = np.maximum(np.maximum.reduce(p, axis=0), -np.minimum.reduce(p, axis=0))
    bound = np.ldexp(1.0, np.frexp(m)[1] + (k - 1023))  # sigma / 2^1023
    bound[~np.isfinite(m)] = np.inf
    zero = m == 0.0
    if zero.any():
        bound[zero] = np.where(np.signbit(p[:, zero]).any(axis=0), np.inf, bound[zero])
    if n >= _EXTRACT_ROWS:
        bound[:] = np.inf
    fsum_route = bound > 1.0
    if fsum_route.any():
        p = np.where(fsum_route, 0.0, p)
        m[fsum_route] = 0.0
    else:
        p = p.copy()
    q = np.empty(p.shape)
    rows = []
    while m.any():
        sigma = np.ldexp(1.0, np.frexp(m)[1] + k)
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        rows.append(np.add.reduce(q, axis=0))
        m = np.maximum.reduce(np.abs(p, out=q), axis=0)
    return np.array(rows).reshape(len(rows), c), bound


def _means(blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """`_column_means` of the stacked blocks given as (block, *_exact_sums(
    block)), so that blocks reduced once serve several means. A column is
    fsum of the blocks' extracted rows, which is the correctly rounded sum
    of its values, as fsum of the values is. Where a block keeps it on the
    fsum route or the blocks' sigmas add up past 2^1023, it is fsum of the
    values in block order, so that fsum raises OverflowError (an
    intermediate sum beyond the float range, which depends on the order)
    exactly as it would over the values."""
    total = sum(b.shape[0] for b, _, _ in blocks)
    if total == 0:
        raise ValueError("divergence: empty feature set")
    fsum_route = sum(bound for _, _, bound in blocks) > 1.0
    columns = zip(*(r.T.tolist() for _, r, _ in blocks))
    sums = [math.fsum(itertools.chain(*(b[:, j].tolist() for b, _, _ in blocks)))
            if fsum_route[j] else math.fsum(itertools.chain(*col))
            for j, col in enumerate(columns)]
    return np.array(sums) / total


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
    sums = {d: (f, *_exact_sums(f)) for d, f in feats.items()}
    per_domain = {d: _means([s]) for d, s in sums.items()}
    source_mean = _means(list(sums.values()))
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


@dataclass
class DiagnoseConfig:
    """The `diagnose` config keys: rows per probe batch, and the seed of
    the draw (`probe_sets`)."""
    probe_rows: int = 64
    seed: int = 0

    def validate(self) -> None:
        if self.probe_rows < 1:
            raise ValueError(f"config key probe_rows: expected a positive integer, "
                             f"got {self.probe_rows}")
        if self.seed < 0:  # numpy's generators need it
            raise ValueError(f"config key seed: expected a non-negative integer, got {self.seed}")


def probe_sets(sources_by_domain: dict[int, np.ndarray], target_features: np.ndarray,
               config: DiagnoseConfig) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]]:
    """The probe batch, drawn from the first source domain, and its
    companions for `perturbation_probe`: a copy of it, a batch of each other
    source domain, of the other sources pooled when there are two or more,
    and of the target. Each batch is `probe_rows` rows, or all there are,
    drawn without replacement by one generator seeded with `seed`."""
    rng = np.random.default_rng(config.seed)

    def draw(features: np.ndarray) -> np.ndarray:
        count = min(config.probe_rows, features.shape[0])
        return features[rng.choice(features.shape[0], size=count, replace=False)]

    first, *others = sorted(sources_by_domain)
    probe = draw(sources_by_domain[first])
    companions = [("probe_copy", probe.copy())]
    companions += [(f"domain_{d}", draw(sources_by_domain[d])) for d in others]
    if len(others) > 1:
        merged = np.concatenate([sources_by_domain[d] for d in others])
        companions.append(("other_sources", draw(merged)))
    companions.append(("target", draw(target_features)))
    return probe, companions
