"""Domain-balanced training with randomized partition selection.

Each iteration draws an equal number of rows per source domain, samples one
sub-batch combination, and minimizes the main-route cross entropy plus the
weighted mean of the per-group auxiliary cross entropies with SGD
(momentum, weight decay, separate classifier / backbone learning rates).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import datagen, inference
from . import normbank as nb
from . import tensor as T
from .datagen import Dataset
from .model import TwoPathNetwork, encode_rng_state, save_checkpoint
from .normbank import Partition
from .tensor import Tensor

METRICS_COLUMNS = ("epoch", "train_loss", "src_acc", "tgt_acc_main", "tgt_acc_ensemble")


@dataclass
class DomainBatch:
    """Equal per-domain slice of the training pool. `domain_ids` index the
    model's source-domain space: they are exactly 0..k-1, each on
    `per_domain` rows, with k = rows / per_domain."""

    features: np.ndarray
    labels: np.ndarray
    domain_ids: np.ndarray
    per_domain: int

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.per_domain < 2:
            raise ValueError(f"DomainBatch: per-domain size {self.per_domain} < 2")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.domain_ids.shape != (n,):
            raise ValueError("DomainBatch: length mismatch")
        ids, k = self.domain_ids, self.num_domains
        # the range check comes first, so bincount allocates at most k counts
        if (ids.dtype.kind in "iu"
                and (n == 0 or np.minimum.reduce(ids) >= 0 and np.maximum.reduce(ids) < k)
                and np.all(np.bincount(ids, minlength=k) == self.per_domain)):
            return
        ids, counts = np.unique(ids, return_counts=True)
        if n != ids.size * self.per_domain or not np.all(counts == self.per_domain):
            raise ValueError(
                f"DomainBatch: expected {self.per_domain} rows per domain, got {dict(zip(ids, counts))}")
        raise ValueError(
            f"DomainBatch: domain ids must be the integers 0..{k - 1}, got {ids.tolist()}")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def num_domains(self) -> int:
        return self.size // self.per_domain


@dataclass
class TrainConfig:
    epochs: int = 20
    iters_per_epoch: int = 50
    batch_per_domain: int = 16
    lr_backbone: float = 0.003
    lr_classifier: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    combination_mode: str = "random"  # random | single_only
    aux_weight: float = 1.0
    lr_step_epochs: int = 0  # 0 disables the step decay
    lr_step_gamma: float = 0.1
    val_fraction: float = 0.1

    def validate(self) -> None:
        if self.lr_backbone <= 0 or self.lr_classifier <= 0:
            raise ValueError("TrainConfig: learning rates must be positive")
        if self.batch_per_domain < 2:
            raise ValueError("TrainConfig: batch_per_domain must be >= 2")
        if self.epochs < 1 or self.iters_per_epoch < 1:
            raise ValueError("TrainConfig: epochs and iters_per_epoch must be >= 1")
        if self.combination_mode not in ("random", "single_only"):
            raise ValueError(f"TrainConfig: unknown combination_mode {self.combination_mode!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("TrainConfig: momentum must be in [0, 1)")
        if self.weight_decay < 0 or self.aux_weight < 0:
            raise ValueError("TrainConfig: weight_decay and aux_weight must be >= 0")
        if self.lr_step_epochs < 0:
            raise ValueError("TrainConfig: lr_step_epochs must be >= 0 (0 disables the step decay)")
        if not 0.0 < self.lr_step_gamma <= 1.0:
            raise ValueError("TrainConfig: lr_step_gamma must be in (0, 1]")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("TrainConfig: val_fraction must be in (0, 1)")


# ---------------------------------------------------------------------------
# sampling


def _domain_index(dataset: Dataset) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Sorted source-domain ids and their row indices; position in the sorted
    list is the model's domain index."""
    ids = np.unique(dataset.domain_ids)
    return ids, {int(d): dataset.domain_rows(int(d)) for d in ids}


def _gather_batch(dataset: Dataset, picks: list[np.ndarray], per_domain: int) -> DomainBatch:
    """The rows `picks[pos]` of each domain in turn, as one batch whose
    domain ids are the positions."""
    idx = np.concatenate(picks)
    return DomainBatch(dataset.features[idx], dataset.labels[idx],
                       np.repeat(np.arange(len(picks), dtype=np.int64), per_domain), per_domain)


class EpochSampler:
    """Without-replacement walk through every domain's pool, reshuffled when
    a pool is exhausted (and at construction)."""

    def __init__(self, dataset: Dataset, per_domain: int, rng: np.random.Generator):
        self.dataset = dataset
        self.per_domain = per_domain
        self.rng = rng
        ids, rows = _domain_index(dataset)
        self.ids = ids
        for d, r in rows.items():
            if r.size < per_domain:
                raise ValueError(f"EpochSampler: domain {d} has {r.size} rows < {per_domain}")
        self._pools = {int(d): rng.permutation(rows[int(d)]) for d in ids}
        self._cursor = {int(d): 0 for d in ids}

    def next_batch(self) -> DomainBatch:
        picks = []
        for d in self._pools:
            pool, cur = self._pools[d], self._cursor[d]
            if cur + self.per_domain > pool.size:
                pool = self.rng.permutation(pool)
                self._pools[d], cur = pool, 0
            picks.append(pool[cur:cur + self.per_domain])
            self._cursor[d] = cur + self.per_domain
        return _gather_batch(self.dataset, picks, self.per_domain)


def sample_combination(partitions: list[Partition], rng: np.random.Generator,
                       mode: str = "random") -> Partition:
    """Uniform draw over the partition family, or always the all-singletons
    partition in single_only mode."""
    if not partitions:
        raise ValueError("sample_combination: empty partition list")
    if mode == "single_only":
        for p in partitions:
            if p.is_all_singletons():
                return p
        raise ValueError("sample_combination: no all-singletons partition available")
    if mode != "random":
        raise ValueError(f"sample_combination: unknown mode {mode!r}")
    return partitions[int(rng.integers(len(partitions)))]


# ---------------------------------------------------------------------------
# loss


def two_path_loss(main_logits: Tensor, labels: np.ndarray,
                  aux_blocks: dict | None, aux_weight: float = 1.0) -> Tensor:
    """Mean main-route cross entropy plus aux_weight times the mean of the
    per-group auxiliary cross entropies, as one `T.cross_entropy` node:
    an `on_aug` step of the default model records 20 nodes (18 for a
    two-group partition), an `on` step 8."""
    if not aux_blocks:
        return T.cross_entropy(main_logits, labels)
    aux = [(logits, labels[idx]) for idx, logits in aux_blocks.values()]
    return T.cross_entropy(main_logits, labels, aux, aux_weight / len(aux))


# ---------------------------------------------------------------------------
# optimizer


class _Block:
    """Parameters of one SGD group whose arrays tile one float64 buffer in
    memory order (`TwoPathNetwork` shares one buffer per block of
    parameters that a step updates together), and a velocity buffer laid
    out the same way."""

    __slots__ = ("params", "views", "data", "velocity", "velocity_views")

    def __init__(self, params: list[Tensor]):
        self.params = params
        self.views = [t.data for t in params]
        self.data = params[0].data.base
        self.velocity = np.zeros(self.data.size)
        self.velocity_views, start = [], 0
        for t in params:
            self.velocity_views.append(
                self.velocity[start:start + t.data.size].reshape(t.data.shape))
            start += t.data.size

    @staticmethod
    def tiles(params: list[Tensor]) -> bool:
        """Whether the arrays are C-contiguous views that tile their shared
        1-D buffer, in this order."""
        base = params[0].data.base
        if not (isinstance(base, np.ndarray) and base.ndim == 1 and base.dtype == np.float64
                and base.flags.c_contiguous):
            return False
        at = base.ctypes.data
        for t in params:
            if t.data.base is not base or not t.data.flags.c_contiguous or t.data.ctypes.data != at:
                return False
            at += t.data.nbytes
        return at == base.ctypes.data + base.nbytes

    def whole(self, velocity: dict[int, np.ndarray]) -> bool:
        """Whether one update of the buffer is every parameter's update:
        each has a gradient of its shape and still holds its view, and all
        or none have a velocity."""
        started = 0
        for t, view in zip(self.params, self.views):
            if t.grad is None or t.data is not view or t.grad.shape != view.shape:
                return False
            started += id(t) in velocity
        return started == 0 or started == len(self.params)


def _blocks(params: list[Tensor]) -> tuple[list[_Block], list[Tensor]]:
    """A group's parameters as blocks (those sharing a buffer they tile) and
    the rest, one by one."""
    shared: dict[int, list[Tensor]] = {}
    singles = []
    for t in params:
        if t.data.base is None:
            singles.append(t)
        else:
            shared.setdefault(id(t.data.base), []).append(t)
    blocks = []
    for ts in shared.values():
        ts.sort(key=lambda t: t.data.ctypes.data)
        if _Block.tiles(ts):
            blocks.append(_Block(ts))
        else:
            singles += ts
    return blocks, singles


class SGD:
    """Momentum SGD with decoupled parameter groups.

    v <- momentum * v + (grad + weight_decay * w); w <- w - lr * v, in
    place with the bits of those expressions. Parameters that tile a shared
    buffer (a `_Block`) and all have a gradient update as one array: the
    same elementwise operations, so the same bits."""

    def __init__(self, groups: list[dict]):
        # each group: {"params": [(name, Tensor)], "lr": float}
        self.groups = []
        for g in groups:
            self.groups.append({
                "params": list(g["params"]),
                "lr": float(g["lr"]),
                "momentum": float(g.get("momentum", 0.0)),
                "weight_decay": float(g.get("weight_decay", 0.0)),
            })
        self._velocity: dict[int, np.ndarray] = {}
        self._blocks = [_blocks([t for _, t in g["params"]]) for g in self.groups]
        self.lr_scale = 1.0

    def zero_grad(self) -> None:
        for g in self.groups:
            for _, t in g["params"]:
                t.grad = None

    def step(self) -> None:
        velocity = self._velocity
        for g, (blocks, singles) in zip(self.groups, self._blocks):
            lr = g["lr"] * self.lr_scale
            mom, wd = g["momentum"], g["weight_decay"]
            for block in blocks:
                if not block.whole(velocity):
                    for t, slot in zip(block.params, block.velocity_views):
                        self._update(t, slot, lr, mom, wd)
                    continue
                upd = np.concatenate([t.grad for t in block.params], axis=None)
                if wd:
                    upd += wd * block.data
                if mom:
                    v = block.velocity
                    if id(block.params[0]) in velocity:
                        v *= mom
                        v += upd
                    else:
                        v[...] = upd
                        velocity.update(zip(map(id, block.params), block.velocity_views))
                    upd = v
                block.data -= lr * upd
            for t in singles:
                self._update(t, None, lr, mom, wd)

    def _update(self, t: Tensor, slot: np.ndarray | None, lr: float, mom: float,
                wd: float) -> None:
        """One parameter's update; its first velocity goes into `slot` (its
        view of a block's velocity buffer) when that has the shape."""
        if t.grad is None:
            return
        upd = t.grad + wd * t.data if wd else t.grad
        if mom:
            v = self._velocity.get(id(t))
            if v is None:
                if slot is not None and slot.shape == upd.shape:
                    slot[...] = upd
                    v = slot
                else:  # a copy: a gradient may be a read-only view
                    v = upd.copy()
                self._velocity[id(t)] = v
            else:
                v *= mom
                v += upd
            upd = v
        t.data -= lr * upd


def make_optimizer(model: TwoPathNetwork, config: TrainConfig) -> SGD:
    params = model.parameters()
    clf = [(n, t) for n, t in params if n.startswith("classifier.")]
    rest = [(n, t) for n, t in params if not n.startswith("classifier.")]
    common = {"momentum": config.momentum, "weight_decay": config.weight_decay}
    return SGD([
        {"params": rest, "lr": config.lr_backbone, **common},
        {"params": clf, "lr": config.lr_classifier, **common},
    ])


# ---------------------------------------------------------------------------
# steps and the loop


def train_step(model: TwoPathNetwork, batch: DomainBatch,
               partition: Partition | None, optimizer: SGD,
               aux_weight: float = 1.0) -> float:
    """One forward (main + optional aux), one backward, one SGD update."""
    if batch.num_domains != model.config.num_domains:
        raise ValueError(f"train_step: model expects {model.config.num_domains} source "
                         f"domains, batch has {batch.num_domains}")
    optimizer.zero_grad()
    main_logits, _ = model.forward_main(batch.features, mode="train")
    aux_blocks = None
    if partition is not None:
        aux_blocks = model.forward_aux(batch.features, batch.domain_ids, partition,
                                       mode="train")
    loss = two_path_loss(main_logits, batch.labels, aux_blocks, aux_weight)
    value = loss.item()
    if not np.isfinite(value):
        raise RuntimeError(f"train_step: non-finite loss {value}")
    T.backward(loss)
    optimizer.step()
    return value


@dataclass
class TrainResult:
    model: TwoPathNetwork
    metrics: list[dict] = field(default_factory=list)

    @property
    def final(self) -> dict:
        return self.metrics[-1]


def write_metrics_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_COLUMNS)
        for r in rows:
            w.writerow([r["epoch"]] + [repr(float(r[c])) for c in METRICS_COLUMNS[1:]])


def train(model: TwoPathNetwork, dataset: Dataset, target_domain: int,
          config: TrainConfig, metrics_path=None, checkpoint_path=None) -> TrainResult:
    """Leave-one-domain-out training: fit on all domains except
    `target_domain`, log per-epoch source-validation and target accuracy,
    persist the final-epoch model."""
    config.validate()
    sources, target = datagen.split_lodo(dataset, target_domain)
    n_sources = np.unique(sources.domain_ids).size
    if n_sources != model.config.num_domains:
        raise ValueError(
            f"train: model expects {model.config.num_domains} source domains, "
            f"dataset has {n_sources}")

    ss = np.random.SeedSequence(config.seed)
    split_seed, sampler_seed, combo_seed = ss.spawn(3)
    train_pool, val_pool = datagen.split_train_val(
        sources, config.val_fraction, seed=split_seed.generate_state(1)[0])
    sampler_rng = np.random.default_rng(sampler_seed)
    combo_rng = np.random.default_rng(combo_seed)

    sampler = EpochSampler(train_pool, config.batch_per_domain, sampler_rng)
    optimizer = make_optimizer(model, config)
    partitions = (nb.enumerate_reduced_combinations(model.config.num_domains)
                  if model.config.use_aug else [])

    rows: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        if config.lr_step_epochs > 0:
            optimizer.lr_scale = config.lr_step_gamma ** ((epoch - 1) // config.lr_step_epochs)
        total = 0.0
        for _ in range(config.iters_per_epoch):
            batch = sampler.next_batch()
            partition = None
            if model.config.use_aug:
                partition = sample_combination(partitions, combo_rng,
                                               config.combination_mode)
            try:
                total += train_step(model, batch, partition, optimizer,
                                    config.aux_weight)
            except RuntimeError as e:
                raise RuntimeError(f"train: aborted at epoch {epoch}: {e}") from e
        src_acc = inference.main_accuracy(model, val_pool.features, val_pool.labels)
        tgt = inference.evaluate(model, target.features, target.labels,
                                 inference.default_strategy(model))
        rows.append({
            "epoch": epoch,
            "train_loss": total / config.iters_per_epoch,
            "src_acc": src_acc,
            "tgt_acc_main": tgt.per_path["main"],
            "tgt_acc_ensemble": tgt.fused_accuracy,
        })

    if metrics_path is not None:
        write_metrics_csv(rows, metrics_path)
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path, epoch=config.epochs,
                        rng_state=encode_rng_state(sampler_rng))
    return TrainResult(model=model, metrics=rows)
