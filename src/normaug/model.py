"""Two-path network: a shared feature extractor whose normalization sites
dispatch either to the main route (plain BN or the BN/IN mixture) or to the
per-subset bank, plus one classifier per route.

Evaluation-mode forwards use the chunk-invariant matmul so per-sample
outputs never depend on how a split is batched.
"""

from __future__ import annotations

import copy
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import normbank as nb
from . import tensor as T
from .normbank import BNBank, BNUnit, DomainSubset, ONUnit, Partition
from .tensor import Tensor

CLASSIFIER_MODES = ("independent", "shared_one", "shared_two")
BACKBONES = ("mlp", "smallconv")

CHECKPOINT_MAGIC = b"NAUG"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    input_dim: int
    hidden_sizes: tuple[int, ...] = (64, 64, 32)
    num_classes: int = 5
    num_domains: int = 3
    use_on: bool = True
    use_aug: bool = True
    classifier_mode: str = "independent"
    backbone: str = "mlp"
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ValueError(f"ModelConfig: input_dim {self.input_dim} < 1")
        if self.num_domains < 2:
            raise ValueError(f"ModelConfig: need >= 2 source domains, got {self.num_domains}")
        if self.num_classes < 2:
            raise ValueError(f"ModelConfig: need >= 2 classes, got {self.num_classes}")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"ModelConfig: hidden sizes must be positive, got {self.hidden_sizes}")
        if self.classifier_mode not in CLASSIFIER_MODES:
            raise ValueError(f"ModelConfig: unknown classifier_mode {self.classifier_mode!r}")
        if self.backbone not in BACKBONES:
            raise ValueError(f"ModelConfig: unknown backbone {self.backbone!r}")
        if self.backbone == "smallconv":
            side = math.isqrt(self.input_dim)
            if side * side != self.input_dim:
                raise ValueError(
                    f"ModelConfig: smallconv needs a square input_dim, got {self.input_dim}")


class Linear:
    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator):
        self.weight = Tensor(rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x: Tensor, exact: bool = False) -> Tensor:
        return T.matmul(x, self.weight, exact=exact) + self.bias

    def parameters(self):
        return [("W", self.weight), ("b", self.bias)]


class Conv2d:
    def __init__(self, cin: int, cout: int, kernel: int, rng: np.random.Generator):
        fan_in = cin * kernel * kernel
        self.weight = Tensor(
            rng.standard_normal((cout, cin, kernel, kernel)) * math.sqrt(2.0 / fan_in),
            requires_grad=True)
        self.bias = Tensor(np.zeros(cout), requires_grad=True)
        self.padding = kernel // 2

    def __call__(self, x: Tensor, exact: bool = False) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, padding=self.padding)

    def parameters(self):
        return [("W", self.weight), ("b", self.bias)]


class TwoPathNetwork:
    """Shared backbone with a main normalization route and an auxiliary
    per-subset route; use `init_model` to construct."""

    def __init__(self, config: ModelConfig, seed: int):
        config.validate()
        self.config = config
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.layers: list = []
        if config.backbone == "mlp":
            fan_in = config.input_dim
            for h in config.hidden_sizes:
                self.layers.append(Linear(fan_in, h, rng))
                fan_in = h
        else:
            cin = 1
            for h in config.hidden_sizes:
                self.layers.append(Conv2d(cin, h, 3, rng))
                cin = h
        self.feature_dim = config.hidden_sizes[-1]

        unit_cls = ONUnit if config.use_on else BNUnit
        self.main_units: list[BNUnit] = [
            unit_cls(h, config.bn_momentum, config.bn_eps) for h in config.hidden_sizes]
        self.banks: list[BNBank] = []
        if config.use_aug:
            self.banks = [BNBank(config.num_domains, h, config.bn_momentum, config.bn_eps)
                          for h in config.hidden_sizes]

        self.classifier_main = Linear(self.feature_dim, config.num_classes, rng)
        self.classifiers_aux: dict[DomainSubset, Linear] = {}
        if config.use_aug:
            if config.classifier_mode == "independent":
                for s in nb.scheme_subsets(config.num_domains):
                    self.classifiers_aux[s] = Linear(self.feature_dim, config.num_classes, rng)
            elif config.classifier_mode == "shared_one":
                for s in nb.scheme_subsets(config.num_domains):
                    self.classifiers_aux[s] = self.classifier_main
            else:  # shared_two
                shared = Linear(self.feature_dim, config.num_classes, rng)
                for s in nb.scheme_subsets(config.num_domains):
                    self.classifiers_aux[s] = shared

    # -- parameter registry ---------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Named parameters in deterministic order, aliases listed once."""
        out: list[tuple[str, Tensor]] = []
        seen: set[int] = set()

        def put(name: str, t: Tensor) -> None:
            if id(t) not in seen:
                seen.add(id(t))
                out.append((name, t))

        for i, layer in enumerate(self.layers):
            for suffix, t in layer.parameters():
                put(f"backbone.layer{i}.{suffix}", t)
        for i, unit in enumerate(self.main_units):
            for suffix, t in unit.parameters():
                put(f"main.site{i}.{suffix}", t)
        for i, bank in enumerate(self.banks):
            for s in bank.subsets():
                for suffix, t in bank.units[s].parameters():
                    put(f"bank.site{i}.u{s.label()}.{suffix}", t)
        put("classifier.main.W", self.classifier_main.weight)
        put("classifier.main.b", self.classifier_main.bias)
        for s in sorted(self.classifiers_aux, key=lambda s: (s.size, s.mask)):
            clf = self.classifiers_aux[s]
            put(f"classifier.aux.u{s.label()}.W", clf.weight)
            put(f"classifier.aux.u{s.label()}.b", clf.bias)
        return out

    def backbone_parameter_count(self) -> int:
        """Parameters excluding normalization units and classifiers."""
        return sum(t.size for layer in self.layers for _, t in layer.parameters())

    # -- forward routes ---------------------------------------------------

    def _check_input(self, x: np.ndarray | Tensor) -> Tensor:
        t = x if isinstance(x, Tensor) else Tensor(x)
        if t.ndim != 2 or t.shape[1] != self.config.input_dim:
            raise T.ShapeError(
                f"model: expected (B, {self.config.input_dim}) features, got {t.shape}")
        return t

    def _backbone(self, x: Tensor, normalize, exact: bool) -> Tensor:
        h = x
        if self.config.backbone == "smallconv":
            side = math.isqrt(self.config.input_dim)
            h = T.reshape(h, (h.shape[0], 1, side, side))
        for i, layer in enumerate(self.layers):
            h = layer(h, exact=exact)
            h = normalize(i, h)
            h = T.relu(h)
        if self.config.backbone == "smallconv":
            h = T.global_avg_pool(h)
        return h

    def _normalize_main(self, unit: BNUnit, h: Tensor, mode: str) -> Tensor:
        if self.config.use_on:
            return nb.on_forward(unit, h, mode)
        return nb.bn_forward(unit, h, None, mode)

    def forward_main(self, x, mode: str = "train") -> tuple[Tensor, Tensor]:
        """Whole-batch route; returns (logits, penultimate features)."""
        t = self._check_input(x)
        exact = mode == "eval"

        def normalize(i: int, h: Tensor) -> Tensor:
            return self._normalize_main(self.main_units[i], h, mode)

        feats = self._backbone(t, normalize, exact)
        logits = self.classifier_main(feats, exact=exact)
        return logits, feats

    def features(self, x, mode: str = "eval") -> np.ndarray:
        with T.no_grad():
            _, feats = self.forward_main(x, mode)
        return feats.data

    def forward_aux(self, x, domain_ids: np.ndarray, partition: Partition,
                    mode: str = "train") -> dict[DomainSubset, tuple[np.ndarray, Tensor]]:
        """Partition route: every group's rows pass through that group's bank
        unit at each site and through the group's classifier. Returns
        subset -> (original row indices, logits for those rows)."""
        if not self.config.use_aug:
            raise ValueError("forward_aux: model built with use_aug=False")
        t = self._check_input(x)
        domain_ids = np.asarray(domain_ids)
        exact = mode == "eval"

        def normalize(i: int, h: Tensor) -> Tensor:
            return nb.partitioned_forward(self.banks[i], partition, h, domain_ids, mode)

        feats = self._backbone(t, normalize, exact)
        out: dict[DomainSubset, tuple[np.ndarray, Tensor]] = {}
        for group in partition:
            idx = group.rows(domain_ids)
            if idx.size == 0:
                continue
            clf = self._aux_classifier(group)
            block = T.gather_rows(feats, idx)
            out[group] = (idx, clf(block, exact=exact))
        return out

    def forward_subpath(self, x, subset: DomainSubset, mode: str = "eval") -> Tensor:
        """Feed the whole batch through one bank unit and its classifier."""
        if not self.config.use_aug:
            raise ValueError("forward_subpath: model built with use_aug=False")
        t = self._check_input(x)
        exact = mode == "eval"

        def normalize(i: int, h: Tensor) -> Tensor:
            return nb.bn_forward(self.banks[i].unit(subset), h, None, mode)

        feats = self._backbone(t, normalize, exact)
        return self._aux_classifier(subset)(feats, exact=exact)

    def _aux_classifier(self, subset: DomainSubset) -> Linear:
        try:
            return self.classifiers_aux[subset]
        except KeyError:
            raise ValueError(f"model: no classifier for subset {{{subset.label()}}}") from None

    def add_aux_unit(self, subset: DomainSubset, rng: np.random.Generator | None = None) -> None:
        """Register an extra bank unit (and classifier, in independent mode)
        beyond the default scheme, e.g. for probing merged routes."""
        if not self.config.use_aug:
            raise ValueError("add_aux_unit: model built with use_aug=False")
        for bank in self.banks:
            bank.ensure_unit(subset)
        if subset not in self.classifiers_aux:
            if self.config.classifier_mode == "independent":
                rng = rng if rng is not None else np.random.default_rng(self.seed + 1)
                self.classifiers_aux[subset] = Linear(
                    self.feature_dim, self.config.num_classes, rng)
            else:
                self.classifiers_aux[subset] = next(iter(self.classifiers_aux.values()))

    # -- batch-statistics probing -----------------------------------------

    def features_with_batch_stats(self, probe: np.ndarray,
                                  companion: np.ndarray | None = None) -> np.ndarray:
        """Main-path features of the probe rows, normalizing every site with
        the statistics of the probe batch merged with an optional companion
        batch. Parameters stay fixed; running statistics are not touched.

        The stacked rows run once through the main route in evaluation mode
        with the pooled moments standing in for the running ones. Moments
        merge by the exact two-group identity and the product is
        chunk-invariant, so a companion that is a bitwise copy of the probe
        leaves the features bitwise unchanged.
        """
        blocks = [self._check_input(b).data for b in (probe, companion) if b is not None]
        n = blocks[0].shape[0]

        def normalize(i: int, h: Tensor) -> Tensor:
            mu, var = nb._channel_stats(h.data[:n])
            if h.shape[0] > n:
                mu_c, var_c = nb._channel_stats(h.data[n:])
                mu, var = nb.pooled_moments(mu, var, n, mu_c, var_c, h.shape[0] - n)
            unit = copy.copy(self.main_units[i])
            unit.running_mean, unit.running_var = mu, var
            return self._normalize_main(unit, h, "eval")

        with T.no_grad():
            feats = self._backbone(Tensor(np.concatenate(blocks)), normalize, exact=True)
        return feats.data[:n]


def init_model(config: ModelConfig, seed: int) -> TwoPathNetwork:
    """Seeded construction: He fan-in weights, unit scales, zero shifts,
    zero running means, unit running variances."""
    return TwoPathNetwork(config, seed)


# ---------------------------------------------------------------------------
# checkpoint container


def _config_text(model: TwoPathNetwork, epoch: int, rng_state: str | None) -> str:
    c = model.config
    lines = [
        f"input_dim={c.input_dim}",
        "hidden_sizes=" + ",".join(str(h) for h in c.hidden_sizes),
        f"num_classes={c.num_classes}",
        f"num_domains={c.num_domains}",
        f"use_on={'true' if c.use_on else 'false'}",
        f"use_aug={'true' if c.use_aug else 'false'}",
        f"classifier_mode={c.classifier_mode}",
        f"backbone={c.backbone}",
        f"bn_momentum={c.bn_momentum!r}",
        f"bn_eps={c.bn_eps!r}",
        f"seed={model.seed}",
        f"epoch={epoch}",
        f"rng_state={rng_state if rng_state is not None else '-'}",
    ]
    if model.banks:
        labels = ",".join(s.label() for s in model.banks[0].subsets())
        lines.append(f"bank_subsets={labels}")
    return "\n".join(lines) + "\n"


def _named_arrays(model: TwoPathNetwork) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for name, t in model.parameters():
        arrays[name] = t.data
    for i, unit in enumerate(model.main_units):
        arrays[f"main.site{i}.running_mean"] = unit.running_mean
        arrays[f"main.site{i}.running_var"] = unit.running_var
        arrays[f"main.site{i}.count"] = np.array([float(unit.update_count)])
    for i, bank in enumerate(model.banks):
        for s in bank.subsets():
            u = bank.units[s]
            arrays[f"bank.site{i}.u{s.label()}.running_mean"] = u.running_mean
            arrays[f"bank.site{i}.u{s.label()}.running_var"] = u.running_var
            arrays[f"bank.site{i}.u{s.label()}.count"] = np.array([float(u.update_count)])
    return arrays


def save_checkpoint(model: TwoPathNetwork, path, epoch: int = 0,
                    rng_state: str | None = None) -> None:
    """Versioned binary container: magic, version, config text block, then
    named float64 arrays with shape prefixes, sorted by name."""
    config = _config_text(model, epoch, rng_state).encode("utf-8")
    arrays = _named_arrays(model)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(config)))
        f.write(config)
        f.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
            nb_ = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb_)))
            f.write(nb_)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<Q", d))
            f.write(arr.astype("<f8", copy=False).tobytes())


def _parse_config_text(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


def load_checkpoint(path) -> tuple[TwoPathNetwork, int, str | None]:
    """Rebuild a model bit-exactly from `save_checkpoint` output.

    Returns (model, epoch, rng_state or None).
    """
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"checkpoint {path}: truncated")
        out = blob[off:off + n]
        off += n
        return out

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"checkpoint {path}: bad magic")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported version {version}")
    (clen,) = struct.unpack("<Q", take(8))
    kv = _parse_config_text(take(clen).decode("utf-8"))
    config = ModelConfig(
        input_dim=int(kv["input_dim"]),
        hidden_sizes=tuple(int(h) for h in kv["hidden_sizes"].split(",")),
        num_classes=int(kv["num_classes"]),
        num_domains=int(kv["num_domains"]),
        use_on=kv["use_on"] == "true",
        use_aug=kv["use_aug"] == "true",
        classifier_mode=kv["classifier_mode"],
        backbone=kv["backbone"],
        bn_momentum=float(kv["bn_momentum"]),
        bn_eps=float(kv["bn_eps"]),
    )
    model = TwoPathNetwork(config, seed=int(kv["seed"]))
    if config.use_aug and kv.get("bank_subsets"):
        for label in kv["bank_subsets"].split(","):
            subset = DomainSubset.of(*(int(i) for i in label.split("+")))
            model.add_aux_unit(subset)

    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        name = take(nlen).decode("utf-8")
        (ndim,) = struct.unpack("<I", take(4))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        n_items = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(8 * n_items), dtype="<f8").reshape(shape).copy()
        arrays[name] = arr
    if off != len(blob):
        raise ValueError(f"checkpoint {path}: trailing bytes")

    params = dict(model.parameters())
    for name, arr in arrays.items():
        if name in params:
            t = params[name]
            if t.data.shape != arr.shape:
                raise ValueError(
                    f"checkpoint {path}: shape mismatch for {name}: "
                    f"{arr.shape} vs {t.data.shape}")
            t.data = arr
        elif name.endswith(".running_mean") or name.endswith(".running_var"):
            unit = _unit_by_name(model, name.rsplit(".", 1)[0])
            if name.endswith("mean"):
                unit.running_mean = arr
            else:
                unit.running_var = arr
        elif name.endswith(".count"):
            unit = _unit_by_name(model, name.rsplit(".", 1)[0])
            unit.update_count = int(arr[0])
        else:
            raise ValueError(f"checkpoint {path}: unknown array {name!r}")

    epoch = int(kv.get("epoch", "0"))
    rng_state = kv.get("rng_state", "-")
    return model, epoch, (None if rng_state == "-" else rng_state)


def _unit_by_name(model: TwoPathNetwork, prefix: str) -> BNUnit:
    parts = prefix.split(".")
    if parts[0] == "main":
        return model.main_units[int(parts[1].removeprefix("site"))]
    if parts[0] == "bank":
        site = int(parts[1].removeprefix("site"))
        label = parts[2].removeprefix("u")
        subset = DomainSubset.of(*(int(i) for i in label.split("+")))
        return model.banks[site].units[subset]
    raise ValueError(f"checkpoint: unknown unit prefix {prefix!r}")


def encode_rng_state(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True)


def restore_rng(state: str) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = json.loads(state)
    return rng
