"""Two-path network: a shared feature extractor whose normalization sites
dispatch either to the main route (plain BN or the BN/IN mixture) or to the
per-subset bank, plus one classifier per route.

Training runs on the autodiff tape. Evaluation runs every route on plain
arrays (`eval_logits`): layer products go one row at a time and each
normalization is a per-channel affine map, so per-sample outputs never
depend on how a split is batched.
"""

from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import dataclass, fields

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

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)

    def apply(self, h: np.ndarray) -> np.ndarray:
        """Evaluation-mode product on arrays, one row at a time: each row's
        bits do not depend on the rest of the batch."""
        out = np.matmul(h[:, None, :], self.weight.data)[:, 0]
        out += self.bias.data
        return out

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

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, padding=self.padding)

    def apply(self, h: np.ndarray) -> np.ndarray:
        """Evaluation-mode convolution on arrays, with the tape op's bits."""
        return T.conv2d_array(h, self.weight.data, self.bias.data, self.padding)[0]

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
        self._share_buffers()
        # forward_aux's current batch layout and its rows per partition
        self._layout: tuple | None = None
        self._layout_rows: dict[Partition, tuple[list, list]] = {}

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
        for s, clf in self.classifiers_aux.items():
            put(f"classifier.aux.u{s.label()}.W", clf.weight)
            put(f"classifier.aux.u{s.label()}.b", clf.bias)
        return out

    def _share_buffers(self) -> None:
        """Give each block of parameters that a training step updates
        together one buffer, every parameter's `data` a view of it, so that
        `SGD` updates a block with one set of array operations: the backbone
        with the main units, the main classifier, each bank subset's units
        at every site, and each auxiliary classifier."""
        def params(*owners) -> list[Tensor]:
            return [t for owner in owners for _, t in owner.parameters()]

        blocks = [params(*self.layers, *self.main_units), params(self.classifier_main)]
        for s in (self.banks[0].subsets() if self.banks else []):
            blocks.append(params(*(bank.units[s] for bank in self.banks)))
        shared = {id(self.classifier_main)}
        for clf in self.classifiers_aux.values():
            if id(clf) not in shared:
                shared.add(id(clf))
                blocks.append(params(clf))
        for block in blocks:
            buffer = np.concatenate([t.data for t in block], axis=None)
            start = 0
            for t in block:
                t.data = buffer[start:start + t.data.size].reshape(t.data.shape)
                start += t.data.size

    # -- forward routes ---------------------------------------------------

    def _rows(self, x: np.ndarray | Tensor) -> np.ndarray:
        """`x` as a float64 (B, input_dim) array."""
        arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.config.input_dim:
            raise T.ShapeError(
                f"model: expected (B, {self.config.input_dim}) features, got {arr.shape}")
        return arr

    def _check_input(self, x: np.ndarray | Tensor) -> Tensor:
        arr = self._rows(x)
        return x if isinstance(x, Tensor) else Tensor(arr)

    def _backbone(self, x: Tensor, normalize) -> Tensor:
        """Training walk; `normalize(i, h)` is site i's norm and ReLU."""
        h = x
        if self.config.backbone == "smallconv":
            side = math.isqrt(self.config.input_dim)
            h = T.reshape(h, (h.shape[0], 1, side, side))
        for i, layer in enumerate(self.layers):
            h = normalize(i, layer(h))
        if self.config.backbone == "smallconv":
            h = T.mean(h, axis=(2, 3))  # global average pooling
        return h

    def forward_main(self, x, mode: str = "train") -> tuple[Tensor, Tensor]:
        """Whole-batch route; returns (logits, penultimate features). Eval
        mode wraps the arrays of the evaluation walk."""
        if mode == "eval":
            feats = self.features(x)
            return Tensor(self.classifier_main.apply(feats)), Tensor(feats)
        if mode != "train":
            raise ValueError(f"forward_main: mode must be 'train' or 'eval', got {mode!r}")
        t = self._check_input(x)

        def normalize(i: int, h: Tensor) -> Tensor:
            return nb.bn_forward(self.main_units[i], h, None, mode, relu=True)

        feats = self._backbone(t, normalize)
        return self.classifier_main(feats), feats

    def features(self, x) -> np.ndarray:
        """Main-route penultimate features from the evaluation walk, on
        arrays, so reading them never changes the model."""
        return self._eval_features(self._first_layer(x), self.main_units)

    def forward_aux(self, x, domain_ids: np.ndarray, partition: Partition,
                    mode: str = "train") -> dict[DomainSubset, tuple[np.ndarray, Tensor]]:
        """Partition route, train mode only: every group's rows pass through
        that group's bank unit at each site and through the group's
        classifier. The groups' rows are found once per batch layout
        (`_partition_views`), contiguous ones as a slice (a view). Returns
        subset -> (original row indices, read-only, logits for those
        rows)."""
        if not self.config.use_aug:
            raise ValueError("forward_aux: model built with use_aug=False")
        if mode != "train":
            raise ValueError(f"forward_aux: mode must be 'train', got {mode!r}")
        t = self._check_input(x)
        rows, views = self._partition_views(partition, domain_ids)

        def normalize(i: int, h: Tensor) -> Tensor:
            return nb.partitioned_forward(self.banks[i], partition, h, domain_ids,
                                          group_rows=views, relu=True)

        feats = self._backbone(t, normalize)
        return {group: (idx, self._aux_classifier(group)(T.gather_rows(feats, view)))
                for group, idx, view in zip(partition, rows, views)}

    def _partition_views(self, partition: Partition, domain_ids
                         ) -> tuple[list[np.ndarray], list[np.ndarray | slice]]:
        """`nb.partition_rows(partition, domain_ids)` as read-only arrays, and
        each group as a slice where its rows are contiguous. Kept per
        partition for the current batch layout (the ids' dtype, shape and
        bytes): a new layout recomputes the rows and reruns every check."""
        ids = np.asarray(domain_ids)
        layout = (ids.dtype.str, ids.shape, ids.tobytes())
        if layout != self._layout:
            self._layout, self._layout_rows = layout, {}
        cached = self._layout_rows.get(partition)
        if cached is None:
            rows = nb.partition_rows(partition, ids)
            for r in rows:
                r.flags.writeable = False
            views = [slice(int(r[0]), int(r[-1]) + 1) if r[-1] - r[0] + 1 == r.size else r
                     for r in rows]  # sorted rows, at least two per group
            cached = self._layout_rows[partition] = rows, views
        return cached

    def forward_subpath(self, x, subset: DomainSubset, mode: str = "eval") -> Tensor:
        """Logits of the whole batch through one bank unit per site and the
        subset's classifier, eval mode only: a `Tensor` wrapping the
        evaluation walk's arrays."""
        units = self._bank_units(subset)
        if mode != "eval":
            raise ValueError(f"forward_subpath: mode must be 'eval', got {mode!r}")
        feats = self._eval_features(self._first_layer(x), units)
        return Tensor(self._aux_classifier(subset).apply(feats))

    def _aux_classifier(self, subset: DomainSubset) -> Linear:
        try:
            return self.classifiers_aux[subset]
        except KeyError:
            raise ValueError(f"model: no classifier for subset {{{subset.label()}}}") from None

    # -- evaluation on arrays ----------------------------------------------

    def _first_layer(self, x) -> np.ndarray:
        """Layer-0 product of the input rows: every evaluation route starts
        from it, since all routes share the backbone weights."""
        h = self._rows(x)
        if self.config.backbone == "smallconv":
            side = math.isqrt(self.config.input_dim)
            h = h.reshape(h.shape[0], 1, side, side)
        return self.layers[0].apply(h)

    def _eval_features(self, z: np.ndarray, units: list[BNUnit], moments=None) -> np.ndarray:
        """Penultimate features from the layer-0 product `z`, normalizing
        site i with `units[i]` in evaluation mode. `moments(h)`, if given,
        supplies the (mean, var) that stand in for the running ones."""
        h = z
        for i, unit in enumerate(units):
            if i:
                h = self.layers[i].apply(h)
            h = nb.eval_normalize(unit, h, None if moments is None else moments(h))
            np.maximum(h, 0.0, out=h)
        if self.config.backbone == "smallconv":
            h = h.mean(axis=(2, 3))
        return h

    def _bank_units(self, subset: DomainSubset) -> list[BNUnit]:
        if not self.config.use_aug:
            raise ValueError("forward_subpath: model built with use_aug=False")
        return [bank.unit(subset) for bank in self.banks]

    def eval_logits(self, x, subsets=()) -> tuple[np.ndarray, list[np.ndarray]]:
        """Evaluation-mode logits of the main route and of each subset's
        sub-path (its bank units and classifier), on arrays, sharing one
        layer-0 product. Uses the running statistics only."""
        z = self._first_layer(x)
        main = self.classifier_main.apply(self._eval_features(z, self.main_units))
        subs = [self._aux_classifier(s).apply(self._eval_features(z, self._bank_units(s)))
                for s in subsets]
        return main, subs

    # -- batch-statistics probing -----------------------------------------

    def features_with_batch_stats(self, probe: np.ndarray,
                                  companion: np.ndarray | None = None) -> np.ndarray:
        """Main-path features of the probe rows, normalizing every site with
        the statistics of the probe batch merged with an optional companion
        batch. Parameters stay fixed; running statistics are not touched.

        The stacked rows run once through the evaluation walk of the main
        route with the pooled moments standing in for the running ones.
        Moments merge by the exact two-group identity and every row is
        computed alone, so a companion that is a bitwise copy of the probe
        leaves the features bitwise unchanged.
        """
        blocks = [self._rows(b) for b in (probe, companion) if b is not None]
        n = blocks[0].shape[0]

        def moments(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            mu, var = nb._channel_stats(h[:n])
            if h.shape[0] > n:
                mu_c, var_c = nb._channel_stats(h[n:])
                mu, var = nb.pooled_moments(mu, var, n, mu_c, var_c, h.shape[0] - n)
            return mu, var

        z = self._first_layer(np.concatenate(blocks))
        return self._eval_features(z, self.main_units, moments)[:n]


def init_model(config: ModelConfig, seed: int) -> TwoPathNetwork:
    """Seeded construction: He fan-in weights, unit scales, zero shifts,
    zero running means, unit running variances."""
    return TwoPathNetwork(config, seed)


# ---------------------------------------------------------------------------
# config values


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
               tuple[int, ...]: "comma-separated ints"}


def format_value(value) -> str:
    """Text form of a config value, read back by `parse_value`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_value(key: str, raw: str, kind):
    """`raw` as a value of `kind` (bool, int, float, str or tuple[int, ...]);
    floats must be finite. Raises ValueError naming `key`."""
    try:
        if kind is bool:
            return {"true": True, "1": True, "yes": True,
                    "false": False, "0": False, "no": False}[raw.lower()]
        if kind == tuple[int, ...]:
            return tuple(int(v) for v in raw.split(","))
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError
        return value
    except (KeyError, ValueError):
        raise ValueError(
            f"config key {key}: expected {_KIND_NAMES[kind]}, got {raw!r}") from None


def _parse_key(kv: dict[str, str], key: str, kind):
    if key not in kv:
        raise ValueError(f"config key {key} is missing")
    return parse_value(key, kv[key], kind)


def config_from_text(cls, kv: dict[str, str], required: bool = False, **fixed):
    """Dataclass `cls` with the `fixed` field values and every other field
    parsed from `kv` by its annotated type; a field missing from `kv` keeps
    its default, or is an error when `required`. Not validated."""
    hints = typing.get_type_hints(cls)
    values = dict(fixed)
    for f in fields(cls):
        if f.name not in fixed and (required or f.name in kv):
            values[f.name] = _parse_key(kv, f.name, hints[f.name])
    return cls(**values)


# ---------------------------------------------------------------------------
# checkpoint container


def _bank_subsets(config: ModelConfig) -> str | None:
    """The `bank_subsets` value of a model built from `config`: the labels
    of `nb.scheme_subsets`, or None without a bank."""
    if not config.use_aug:
        return None
    return ",".join(s.label() for s in nb.scheme_subsets(config.num_domains))


def _config_text(model: TwoPathNetwork, epoch: int, rng_state: str | None) -> str:
    lines = [f"{f.name}={format_value(getattr(model.config, f.name))}"
             for f in fields(ModelConfig)]
    lines += [f"seed={model.seed}", f"epoch={epoch}",
              f"rng_state={rng_state if rng_state is not None else '-'}"]
    if model.banks:
        lines.append(f"bank_subsets={_bank_subsets(model.config)}")
    return "\n".join(lines) + "\n"


def _state(model: TwoPathNetwork) -> dict[str, tuple[object, str]]:
    """Every checkpoint array by name -> (owner, attribute) holding it:
    parameter tensors' `data`, units' running moments, and units'
    `update_count`, stored as a one-element float array."""
    table = {name: (t, "data") for name, t in model.parameters()}
    units = [(f"main.site{i}", u) for i, u in enumerate(model.main_units)]
    units += [(f"bank.site{i}.u{s.label()}", bank.units[s])
              for i, bank in enumerate(model.banks) for s in bank.subsets()]
    for prefix, unit in units:
        for attr in ("running_mean", "running_var"):
            table[f"{prefix}.{attr}"] = (unit, attr)
        table[f"{prefix}.count"] = (unit, "update_count")
    return table


def _array_floats(config: ModelConfig) -> int:
    """Number of float64 values in the `_state` arrays of a model built from
    `config`, computed without building it."""
    h = config.hidden_sizes
    if config.backbone == "mlp":
        fan_in = (config.input_dim,) + h[:-1]
    else:  # 3x3 kernels
        fan_in = tuple(9 * c for c in (1,) + h[:-1])
    total = sum(f * k + k for f, k in zip(fan_in, h))
    unit = sum(4 * k + 1 for k in h)  # gamma, beta, running mean and var, count
    total += unit + (2 * len(h) if config.use_on else 0)
    clf = (h[-1] + 1) * config.num_classes
    total += clf
    if config.use_aug:
        n = config.num_domains
        units = n if n == 2 else 2 * n  # len(nb.scheme_subsets(n)), without building it
        total += units * unit
        total += {"independent": units, "shared_one": 0, "shared_two": 1}[config.classifier_mode] * clf
    return total


def _array(owner, attr: str) -> np.ndarray:
    value = getattr(owner, attr)
    return np.array([float(value)]) if attr == "update_count" else value


def save_checkpoint(model: TwoPathNetwork, path, epoch: int = 0,
                    rng_state: str | None = None) -> None:
    """Versioned binary container: magic, version, config text block, then
    named float64 arrays with shape prefixes, sorted by name."""
    config = _config_text(model, epoch, rng_state).encode("utf-8")
    state = _state(model)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(config)))
        f.write(config)
        f.write(struct.pack("<I", len(state)))
        for name in sorted(state):
            arr = np.ascontiguousarray(_array(*state[name]), dtype=np.float64)
            nb_ = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb_)))
            f.write(nb_)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<Q", d))
            f.write(arr.astype("<f8", copy=False).tobytes())


def _parse_config_text(text: str) -> dict[str, str]:
    out = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


def load_checkpoint(path) -> tuple[TwoPathNetwork, int, str | None]:
    """Rebuild a model bit-exactly from `save_checkpoint` output.

    Strict: every config key, exactly the model's array names and shapes,
    finite values; anything else raises ValueError. Returns (model, epoch,
    rng_state or None).
    """
    with open(path, "rb") as f:
        blob = f.read()
    try:
        model, epoch, rng_state = _read_checkpoint(blob)
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: {e}") from None
    return model, epoch, (None if rng_state == "-" else rng_state)


def _read_checkpoint(blob: bytes) -> tuple[TwoPathNetwork, int, str]:
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise ValueError("truncated")
        out = blob[off:off + n]
        off += n
        return out

    def unpack(fmt: str) -> int:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError("bad magic")
    version = unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported version {version}")
    kv = _parse_config_text(take(unpack("<Q")).decode("utf-8"))
    config = config_from_text(ModelConfig, kv, required=True)
    config.validate()
    # refuse before building: the model would allocate whatever the block names
    need = _array_floats(config)
    if 8 * need > len(blob) - off:
        raise ValueError(f"config block names {need} array values, more than the "
                         f"{len(blob) - off} bytes after it hold")
    bank_subsets = _bank_subsets(config)
    if kv.get("bank_subsets") != bank_subsets:
        if bank_subsets is None:
            raise ValueError("config key bank_subsets: the model has no bank (use_aug=false)")
        raise ValueError(f"config key bank_subsets: expected {bank_subsets}, "
                         f"got {_parse_key(kv, 'bank_subsets', str)}")
    model = TwoPathNetwork(config, seed=_parse_key(kv, "seed", int))
    state = _state(model)

    for _ in range(unpack("<I")):
        name = take(unpack("<I")).decode("utf-8")
        if name not in state:
            raise ValueError(f"array {name!r}: unknown or repeated")
        owner, attr = state.pop(name)
        shape = tuple(unpack("<Q") for _ in range(unpack("<I")))
        expected = _array(owner, attr).shape
        if shape != expected:
            raise ValueError(f"array {name}: shape {shape}, expected {expected}")
        arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise ValueError(f"array {name}: non-finite values")
        if attr == "update_count" and not (arr[0] >= 0 and arr[0].is_integer()):
            raise ValueError(f"array {name}: {arr[0]} is not a count")
        if attr == "data":  # into the parameter's view of its block's buffer
            owner.data[...] = arr
        else:
            setattr(owner, attr, int(arr[0]) if attr == "update_count" else arr)
    if off != len(blob):
        raise ValueError("trailing bytes")
    if state:
        raise ValueError(f"missing arrays {', '.join(sorted(state))}")
    return model, _parse_key(kv, "epoch", int), _parse_key(kv, "rng_state", str)


def encode_rng_state(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True)
