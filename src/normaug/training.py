"""Domain-balanced training with randomized partition selection.

Each iteration draws an equal number of rows per source domain, samples one
sub-batch combination, and minimizes the main-route cross entropy plus the
weighted mean of the per-group auxiliary cross entropies with SGD
(momentum, weight decay, separate classifier / backbone learning rates)
over the model's parameter blocks, each updated whole or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import datagen, inference
from . import normbank as nb
from . import tensor as T
from .datagen import Dataset
from .model import ParamBlock, TwoPathNetwork, encode_rng_state, non_finite_array
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
        """Each field's rule, in field order; a ValueError names the first
        field that breaks its rule."""
        for key, ok, rule in (
                ("epochs", self.epochs >= 1, ">= 1"),
                ("iters_per_epoch", self.iters_per_epoch >= 1, ">= 1"),
                ("batch_per_domain", self.batch_per_domain >= 2, ">= 2"),
                ("lr_backbone", self.lr_backbone > 0, "positive"),
                ("lr_classifier", self.lr_classifier > 0, "positive"),
                ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
                ("weight_decay", self.weight_decay >= 0, ">= 0"),
                ("seed", self.seed >= 0, ">= 0"),  # numpy's generators need it
                ("combination_mode", self.combination_mode in ("random", "single_only"),
                 "random or single_only"),
                ("aux_weight", self.aux_weight >= 0, ">= 0"),
                ("lr_step_epochs", self.lr_step_epochs >= 0, ">= 0 (0 disables the step decay)"),
                ("lr_step_gamma", 0.0 < self.lr_step_gamma <= 1.0, "in (0, 1]"),
                ("val_fraction", 0.0 < self.val_fraction < 1.0, "in (0, 1)")):
            if not ok:
                raise ValueError(f"TrainConfig: {key} must be {rule}, got {getattr(self, key)!r}")


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
                raise ValueError(f"EpochSampler: batch_per_domain {per_domain} is more than "
                                 f"the {r.size} training rows of domain {d}")
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


class SGD:
    """Momentum SGD over parameter blocks (`TwoPathNetwork.blocks`), in
    groups with their own learning rates: v <- momentum * v + (grad +
    weight_decay * w); w <- w - lr * v, in place on each block's buffer with
    the bits of those expressions, a block's first v being its first
    update. A block is updated when the step gave every one of its
    parameters a gradient and skipped when it gave none; anything else
    raises (`_gradients`)."""

    def __init__(self, groups: list[dict]):
        # each group: {"blocks": [ParamBlock], "lr", "momentum", "weight_decay"}
        self.groups = [{"blocks": list(g["blocks"]), "lr": float(g["lr"]),
                        "momentum": float(g.get("momentum", 0.0)),
                        "weight_decay": float(g.get("weight_decay", 0.0)),
                        "velocity": [None] * len(g["blocks"])} for g in groups]
        self.lr_scale = 1.0

    def zero_grad(self) -> None:
        for g in self.groups:
            for block in g["blocks"]:
                for _, t in block.params:
                    t.grad = None

    def step(self) -> None:
        for g in self.groups:
            lr = g["lr"] * self.lr_scale
            mom, wd, velocity = g["momentum"], g["weight_decay"], g["velocity"]
            for i, block in enumerate(g["blocks"]):
                grads = _gradients(block)
                if grads is None:
                    continue
                upd = np.concatenate(grads, axis=None)
                if wd:
                    upd += wd * block.buffer
                if mom:
                    if velocity[i] is None:
                        velocity[i] = upd
                    else:
                        velocity[i] *= mom
                        velocity[i] += upd
                    upd = velocity[i]
                block.buffer -= lr * upd


def _gradients(block: ParamBlock) -> list[np.ndarray] | None:
    """The block's gradients in order, or None when no parameter has one. A
    ValueError naming the block when only some have one, or when a
    parameter's `data` is no longer its view of the buffer or its gradient
    has another shape."""
    grads = [t.grad for _, t in block.params]
    have = sum(g is not None for g in grads)
    if have == 0:
        return None
    if have < len(grads):
        raise ValueError(f"SGD: block {block.name}: {have} of {len(grads)} parameters "
                         f"have a gradient")
    for (name, t), view, g in zip(block.params, block.views, grads):
        if t.data is not view:
            raise ValueError(f"SGD: block {block.name}: parameter {name} no longer holds "
                             f"its view of the block's buffer")
        if g.shape != view.shape:
            raise ValueError(f"SGD: block {block.name}: parameter {name} has shape "
                             f"{view.shape}, its gradient {g.shape}")
    return grads


def make_optimizer(model: TwoPathNetwork, config: TrainConfig) -> SGD:
    """The model's blocks in two groups: the classifiers at `lr_classifier`,
    the rest at `lr_backbone`."""
    clf = [b for b in model.blocks if b.name.startswith("classifier.")]
    rest = [b for b in model.blocks if not b.name.startswith("classifier.")]
    common = {"momentum": config.momentum, "weight_decay": config.weight_decay}
    return SGD([
        {"blocks": rest, "lr": config.lr_backbone, **common},
        {"blocks": clf, "lr": config.lr_classifier, **common},
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
    """One metrics row per epoch (see `train` for the unscored ones);
    `rng_state` is the batch sampler's final state."""

    model: TwoPathNetwork
    metrics: list[dict]
    rng_state: str

    @property
    def final(self) -> dict:
        return self.metrics[-1]


def train(model: TwoPathNetwork, dataset: Dataset, target_domain: int | None,
          config: TrainConfig, *, score_every_epoch: bool = True) -> TrainResult:
    """Leave-one-domain-out training: fit on all domains except
    `target_domain` (None: the last) and score the source validation split
    and the target after every epoch, or, with `score_every_epoch=False`,
    after the last one only; an unscored epoch's row holds just `epoch` and
    `train_loss`.
    Scoring touches no training state, so the final row, the parameters
    and `rng_state` are the same either way. After each epoch every block
    buffer and running moment must be finite, or the run aborts naming the
    first that is not. Writes no file: the caller persists the result."""
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
        if (name := non_finite_array(model)) is not None:
            raise RuntimeError(f"train: aborted at epoch {epoch}: non-finite parameter {name}")
        row = {"epoch": epoch, "train_loss": total / config.iters_per_epoch}
        if score_every_epoch or epoch == config.epochs:
            src_acc = inference.evaluate(model, val_pool.features, val_pool.labels,
                                         inference.FusionStrategy.MAIN_ONLY).fused_accuracy
            tgt = inference.evaluate(model, target.features, target.labels,
                                     inference.default_strategy(model))
            row |= {"src_acc": src_acc, "tgt_acc_main": tgt.per_path["main"],
                    "tgt_acc_ensemble": tgt.fused_accuracy}
        rows.append(row)

    return TrainResult(model=model, metrics=rows, rng_state=encode_rng_state(sampler_rng))
