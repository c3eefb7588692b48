"""Partition-aware batch normalization.

A normalization site owns a main unit (plain BN, or a BN/IN mixture) plus a
bank of BN units keyed by domain subsets. During training a batch is split
by a sampled partition of the source domains and each group is normalized
with its own statistics through its own unit; the units keep standard
running averages for evaluation. Every train-mode site is one
`T.segment_norm` node: the main route is its one-group case (the whole
batch), the partition route one group per subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

# Rows per BLAS product in `model.Linear.apply`: one stacked call for the
# whole blocks, one for the overlapping last block, and every BLAS call still
# (ROW_BLOCK, K) @ (K, P) whatever the batch, a multiple of 16. With the
# stacked call, 64 and 128 measured alike on a 1000-row `independent_only`
# evaluate (5.8 ms); 256 was about 5% slower, as with one call per block.
# It is also the height of `channel_op`'s tile.
ROW_BLOCK = 128


@dataclass(frozen=True, order=True)
class DomainSubset:
    """Nonempty set of domain indices, stored as a bitmask."""

    mask: int

    def __post_init__(self):
        if self.mask <= 0:
            raise ValueError("DomainSubset: empty subset")

    @classmethod
    def of(cls, *indices: int) -> "DomainSubset":
        mask = 0
        for i in indices:
            if i < 0:
                raise ValueError(f"DomainSubset: negative domain index {i}")
            mask |= 1 << i
        return cls(mask)

    @property
    def indices(self) -> tuple[int, ...]:
        out, m, i = [], self.mask, 0
        while m:
            if m & 1:
                out.append(i)
            m >>= 1
            i += 1
        return tuple(out)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def lowest(self) -> int:
        return (self.mask & -self.mask).bit_length() - 1

    def contains(self, domain: int) -> bool:
        return bool(self.mask >> domain & 1)

    def label(self) -> str:
        return "+".join(str(i) for i in self.indices)

    def rows(self, domain_ids: np.ndarray) -> np.ndarray:
        """Positions of the rows whose domain id lies in this subset (a
        negative id lies in none)."""
        if self.mask >> 63:
            raise ValueError(f"DomainSubset {self.label()}: rows needs domain indices < 63")
        # numpy shifts by a count outside [0, 64) to 0, so such ids select no row
        return np.flatnonzero((np.int64(self.mask) >> np.asarray(domain_ids, np.int64)) & 1)

    def validate(self, num_domains: int) -> None:
        if self.mask >= 1 << num_domains:
            raise ValueError(
                f"DomainSubset {self.label()}: domain index >= {num_domains}")


class Partition:
    """Disjoint cover of all source domains by subsets, in canonical order
    (ascending lowest member)."""

    __slots__ = ("groups", "num_domains")

    def __init__(self, groups, num_domains: int):
        groups = tuple(sorted(groups, key=lambda s: s.lowest))
        union = 0
        for g in groups:
            g.validate(num_domains)
            if union & g.mask:
                raise ValueError("Partition: subsets overlap")
            union |= g.mask
        if union != (1 << num_domains) - 1:
            raise ValueError("Partition: subsets do not cover all domains")
        self.groups = groups
        self.num_domains = num_domains

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Partition)
                and self.groups == other.groups
                and self.num_domains == other.num_domains)

    def __hash__(self) -> int:
        return hash((self.groups, self.num_domains))

    def __repr__(self) -> str:
        inner = ", ".join("{" + g.label() + "}" for g in self.groups)
        return f"Partition[{inner}]"

    def is_all_singletons(self) -> bool:
        return len(self.groups) == self.num_domains

    def sort_key(self) -> tuple:
        return (-len(self.groups), tuple(g.mask for g in self.groups))


def all_singletons(num_domains: int) -> Partition:
    return Partition([DomainSubset.of(i) for i in range(num_domains)], num_domains)


def enumerate_reduced_combinations(num_domains: int) -> list[Partition]:
    """The N+1 partition family: all singletons, plus {all-but-i, {i}} for
    each domain i. For N = 2 the complement partitions duplicate the
    singleton one and are removed."""
    n = num_domains
    if n < 2:
        raise ValueError(f"enumerate_reduced_combinations: need >= 2 domains, got {n}")
    full = (1 << n) - 1
    parts = [all_singletons(n)]
    for i in range(n):
        rest = full & ~(1 << i)
        p = Partition([DomainSubset(rest), DomainSubset.of(i)], n)
        if p not in parts:
            parts.append(p)
    parts.sort(key=Partition.sort_key)
    return parts


def enumerate_full_combinations(num_domains: int) -> list[Partition]:
    """All partitions made of one merged group of size 2..N-1 plus
    singletons, plus the all-singletons partition. A bank has no unit for a
    merged group of size 2..N-2: training samples only the reduced family."""
    n = num_domains
    if n < 3:
        raise ValueError(f"enumerate_full_combinations: need >= 3 domains, got {n}")
    parts = [all_singletons(n)]
    for k in range(2, n):
        for combo in itertools.combinations(range(n), k):
            merged = DomainSubset.of(*combo)
            singles = [DomainSubset.of(i) for i in range(n) if not merged.contains(i)]
            parts.append(Partition([merged] + singles, n))
    parts.sort(key=Partition.sort_key)
    return parts


# ---------------------------------------------------------------------------
# normalization units


class BNUnit:
    """Per-channel affine parameters plus running statistics for one
    normalization route."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"BNUnit: momentum {momentum} outside (0, 1]")
        if eps <= 0.0:
            raise ValueError(f"BNUnit: eps must be positive, got {eps}")
        self.channels = channels
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps
        self.update_count = 0

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("gamma", self.gamma), ("beta", self.beta)]

    def norm_params(self) -> tuple[Tensor, Tensor, Tensor | None]:
        """This unit's `T.segment_norm` parameter set: (gamma, beta,
        mix_logits or None)."""
        return self.gamma, self.beta, None

    def update_running(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        m = self.momentum
        for run, batch in ((self.running_mean, batch_mean), (self.running_var, batch_var)):
            run *= 1.0 - m  # in place, the bits of (1 - m) * run + m * batch
            run += m * batch
        self.update_count += 1


class ONUnit(BNUnit):
    """BN unit extended with a learned softmax mixture between batch and
    instance standardization (main-path variant)."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__(channels, momentum, eps)
        self.mix_logits = Tensor(np.zeros(2), requires_grad=True)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return super().parameters() + [("mix", self.mix_logits)]

    def norm_params(self) -> tuple[Tensor, Tensor, Tensor]:
        return self.gamma, self.beta, self.mix_logits


def _channel_stats(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel batch mean and population variance."""
    mu, _, var = T._moments(arr, T._feature_axes(arr.ndim)[0])
    return mu.ravel(), var.ravel()


def compute_batch_stats(features: np.ndarray, rows: np.ndarray | None = None,
                        eps: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and standard deviation of the selected rows.

    The returned sigma is sqrt(population variance + eps). Statistics pool
    over the batch axis, and over spatial positions for rank-4 features.
    """
    arr = np.asarray(features, dtype=np.float64)
    if rows is not None:
        arr = arr[np.asarray(rows, dtype=np.intp)]
    if arr.shape[0] == 0:
        raise ValueError("compute_batch_stats: empty sub-batch")
    mu, var = _channel_stats(arr)
    return mu, np.sqrt(var + eps)


def pooled_moments(mu_a: np.ndarray, var_a: np.ndarray, count_a: int,
                   mu_b: np.ndarray, var_b: np.ndarray, count_b: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Exact merge of two groups' population moments.

    Uses the two-group decomposition, so merging a group with a bitwise
    copy of itself reproduces the original moments exactly.
    """
    total = count_a + count_b
    w = count_a / total
    mu = w * mu_a + (1.0 - w) * mu_b
    diff = mu_a - mu_b
    var = w * var_a + (1.0 - w) * var_b + w * (1.0 - w) * diff * diff
    return mu, var


def eval_affine(unit: BNUnit, moments: tuple[np.ndarray, np.ndarray] | None = None,
                weight: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The per-channel map `h * scale + shift` of this unit's evaluation-mode
    batch normalization: `scale = gamma / sqrt(var + eps)`, times `weight`
    if given, and `shift = beta - mean * scale`, from the running moments or
    from `moments` = (mean, var) standing in for them."""
    mean, var = moments if moments is not None else (unit.running_mean, unit.running_var)
    scale = unit.gamma.data / np.sqrt(var + unit.eps)
    if weight is not None:
        scale = scale * weight
    return scale, unit.beta.data - mean * scale


def channel_op(op: np.ufunc, h: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`op(h, v, out=out)` with the per-channel vector `v` broadcast over the
    (n, C, ...) array `h`, as flat ufunc calls: `v` is written once into a
    tile shaped like `rows` of `h`'s rows, which meets the (m, rows, ...)
    view of `h`'s whole tiles and then the remaining rows. The same
    elementwise operations on the same values as the broadcast `op(h,
    v.reshape(C, 1, ...), out=out)`, so the same bits, with a contiguous
    inner loop. The tile has ROW_BLOCK rows, or more where a narrow row
    would leave it under numpy's buffer size (`np.getbufsize()` elements):
    numpy copies a shorter inner loop through its iteration buffer, as it
    did the broadcast. Where the tile would cover every row of `h` (narrow
    rows, or a batch of at most ROW_BLOCK rows), writing it costs more
    than it saves, and the broadcast itself runs. `out` must be
    C-contiguous (it may be `h`); other layouts are a ValueError."""
    if not out.flags.c_contiguous:  # so that its reshape below is a view
        raise ValueError("channel_op: out must be C-contiguous")
    n, width = h.shape[0], math.prod(h.shape[1:])
    rows = max(ROW_BLOCK, -(-np.getbufsize() // max(width, 1)))
    per_channel = v.reshape(v.shape + (1,) * (h.ndim - 2))
    if rows >= n:
        return op(h, per_channel, out=out)
    tile = np.empty((rows,) + h.shape[1:])
    tile[...] = per_channel
    whole = n - n % rows
    tiles = (whole // rows,) + tile.shape
    op(h[:whole].reshape(tiles), tile, out=out[:whole].reshape(tiles))
    if whole < n:
        op(h[whole:], tile[:n - whole], out=out[whole:])
    return out


def eval_normalize(unit: BNUnit, h: np.ndarray,
                   moments: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Evaluation-mode normalization of the array `h` with this unit.

    The batch term is the unit's `eval_affine` map. An `ONUnit` weights it
    by softmax(mix_logits)[0] and adds the instance standardization times
    gamma * softmax(mix_logits)[1]. Every row is transformed alone, so the
    result does not depend on the batch. Each per-channel factor and term
    is a `channel_op`.
    """
    _, in_axes = T._feature_axes(h.ndim)
    _check_channels("eval_normalize", unit.channels, h)
    h = np.ascontiguousarray(h)
    mixture = isinstance(unit, ONUnit)
    if mixture:
        w = T._mix_weights("eval_normalize", h.shape, unit.mix_logits.data)
    scale, shift = eval_affine(unit, moments, w[0] if mixture else None)
    out = channel_op(np.multiply, h, scale, np.empty(h.shape))
    channel_op(np.add, out, shift, out)
    if mixture:
        in_hat = T._standardize(h, unit.eps, in_axes)[0]
        out += channel_op(np.multiply, in_hat, unit.gamma.data * w[1], in_hat)
    return out


def _check_channels(caller: str, channels: int, features: Tensor | np.ndarray) -> None:
    c = features.shape[1]
    if c != channels:
        raise T.ShapeError(f"{caller}: unit has {channels} channels, features have {c}")


_WHOLE_BATCH = (slice(None),)


def bn_forward(unit: BNUnit, features: Tensor, rows: np.ndarray | None = None,
               mode: str = "train", *, relu: bool = False) -> Tensor:
    """Train-mode normalization of the whole batch with this unit; an
    `ONUnit` applies its BN/IN mixture. `T.segment_norm` with one
    whole-batch group: one tape node (with the ReLU after it if `relu`), the
    batch's statistics, and an update of the running averages.

    `rows` must be None and `mode` "train" (both slots stay for positional
    callers): sub-batches go through `partitioned_forward`, and evaluation
    normalizes through `eval_normalize`.
    """
    if rows is not None:
        raise ValueError("bn_forward: rows must be None; partitioned_forward "
                         "normalizes row groups")
    if mode != "train":
        raise ValueError(f"bn_forward: mode must be 'train', got {mode!r}")
    _check_channels("bn_forward", unit.channels, features)
    if features.shape[0] == 0:
        raise ValueError("bn_forward: empty sub-batch")
    return _normalize_units([unit], features, _WHOLE_BATCH, unit.eps, relu)


def _normalize_units(units: list[BNUnit], features: Tensor,
                     group_rows: Sequence[np.ndarray | slice], eps: float, relu: bool) -> Tensor:
    """`T.segment_norm` of each row group with its unit, then each unit's
    running moments updated with its group's batch moments."""
    out, moments = T.segment_norm(features, group_rows, [u.norm_params() for u in units],
                                  eps, relu)
    for unit, (mu, var) in zip(units, moments):
        unit.update_running(mu, var)
    return out


def on_forward(unit: ONUnit, features: Tensor, mode: str = "train") -> Tensor:
    """Mixture normalization of the whole batch, train mode only:
    `bn_forward(unit, features, None, mode)`."""
    return bn_forward(unit, features, None, mode)


# ---------------------------------------------------------------------------
# the bank


class BNBank:
    """Maps domain subsets to BN units for one normalization site.

    A bank holds exactly the units of the reduced combination scheme,
    `scheme_subsets(N)`: every singleton plus every size-(N-1) subset. A
    subset key maps to exactly one unit, so partitions that share a subset
    share parameters.
    """

    def __init__(self, num_domains: int, channels: int,
                 momentum: float = 0.1, eps: float = 1e-5):
        if num_domains < 2:
            raise ValueError(f"BNBank: need >= 2 domains, got {num_domains}")
        self.channels = channels
        self.eps = eps
        self.units: dict[DomainSubset, BNUnit] = {
            s: BNUnit(channels, momentum, eps) for s in scheme_subsets(num_domains)}

    def unit(self, subset: DomainSubset) -> BNUnit:
        try:
            return self.units[subset]
        except KeyError:
            raise ValueError(f"BNBank: no unit for subset {{{subset.label()}}}") from None

    def subsets(self) -> list[DomainSubset]:
        """The bank's subsets in `scheme_subsets` order."""
        return list(self.units)

    def singletons(self) -> list[DomainSubset]:
        return [s for s in self.subsets() if s.size == 1]


def scheme_subsets(num_domains: int) -> list[DomainSubset]:
    """Subsets the reduced combination scheme requires: all singletons and
    all size-(N-1) subsets (identical for N = 2), in canonical order."""
    n = num_domains
    full = (1 << n) - 1
    keys = {DomainSubset.of(i) for i in range(n)}
    if n >= 3:
        keys |= {DomainSubset(full & ~(1 << i)) for i in range(n)}
    return sorted(keys, key=lambda s: (s.size, s.mask))


def partition_rows(partition: Partition, domain_ids: np.ndarray) -> list[np.ndarray]:
    """Row positions of each partition group, in partition order, after
    checking that the partition covers every domain id and that every group
    has at least two rows."""
    domain_ids = np.asarray(domain_ids)
    # a Partition covers exactly the domains in [0, num_domains)
    n = partition.num_domains
    if domain_ids.size and not (np.minimum.reduce(domain_ids, None) >= 0 and
                                np.maximum.reduce(domain_ids, None) < n):
        outside = domain_ids[(domain_ids < 0) | (domain_ids >= n)]
        raise ValueError(f"Partition: domain {np.minimum.reduce(outside)} not covered")
    rows = [group.rows(domain_ids) for group in partition]
    for group, idx in zip(partition, rows):
        if idx.size < 2:
            raise ValueError(
                f"partitioned_forward: degenerate sub-batch for {{{group.label()}}} "
                f"({idx.size} rows)")
    return rows


def partitioned_forward(bank: BNBank, partition: Partition, features: Tensor,
                        domain_ids: np.ndarray, mode: str = "train", *,
                        group_rows: list[np.ndarray | slice] | None = None,
                        relu: bool = False) -> Tensor:
    """Normalize each partition group's rows with that group's unit, all
    groups in one `T.segment_norm` node (with the ReLU after it if `relu`),
    and update every group unit's running averages.

    Statistics are computed only within each group; the output preserves
    the input row order. `group_rows` is `partition_rows(partition,
    domain_ids)` (a contiguous group may be a slice) computed once by a
    caller that normalizes several sites of one batch. Train mode only:
    evaluation runs a whole batch through one unit (`eval_normalize`).
    """
    if mode != "train":
        raise ValueError(f"partitioned_forward: mode must be 'train', got {mode!r}")
    _check_channels("partitioned_forward", bank.channels, features)
    domain_ids = np.asarray(domain_ids)
    if domain_ids.shape[0] != features.shape[0]:
        raise T.ShapeError(
            f"partitioned_forward: {domain_ids.shape[0]} domain ids for "
            f"{features.shape[0]} rows")
    rows = group_rows if group_rows is not None else partition_rows(partition, domain_ids)
    return _normalize_units([bank.unit(group) for group in partition], features, rows,
                            bank.eps, relu)
