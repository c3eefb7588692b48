"""Two-path network: a shared feature extractor whose normalization sites
dispatch either to the main route (plain BN or the BN/IN mixture) or to the
per-subset bank, plus one classifier per route.

Training runs on the autodiff tape. Evaluation runs the routes asked for on
plain arrays from the input rows (`eval_logits`), in pieces of at most
`EVAL_ROWS` rows: every layer product is one stacked call for the whole
`ROW_BLOCK`-row blocks and one for the overlapping last block
(`Linear.apply`), every BLAS call still (ROW_BLOCK, K) @ (K, P); a BN
unit's evaluation-mode map is folded into the product before it, and an ON
unit normalizes the product with a per-channel affine map plus per-row
instance statistics, so per-sample outputs never depend on how a split is
batched or cut into pieces.
"""

from __future__ import annotations

import enum
import inspect
import math
import struct
import typing
from dataclasses import dataclass, fields
from itertools import zip_longest

import numpy as np

from . import normbank as nb
from . import tensor as T
from .datagen import check_utf8
from .normbank import ROW_BLOCK, BNBank, BNUnit, DomainSubset, ONUnit, Partition
from .tensor import Tensor

CLASSIFIER_MODES = ("independent", "shared_one", "shared_two")
BACKBONES = ("mlp", "smallconv")

# rows per piece of the evaluation walk (`_walk`); measured, see
# README "Evaluation walk"
EVAL_ROWS = 1024

CHECKPOINT_MAGIC = b"NAUG"
CHECKPOINT_VERSION = 2


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
            raise ValueError(f"ModelConfig: num_domains {self.num_domains} < 2 source domains "
                             f"(the data needs at least 3 domains: 2 sources + 1 held out)")
        if self.num_classes < 2:
            raise ValueError(f"ModelConfig: num_classes {self.num_classes} < 2")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"ModelConfig: hidden_sizes must be positive, got {self.hidden_sizes}")
        if self.classifier_mode not in CLASSIFIER_MODES:
            raise ValueError(f"ModelConfig: unknown classifier_mode {self.classifier_mode!r}")
        if not 0.0 < self.bn_momentum <= 1.0:
            raise ValueError(f"ModelConfig: bn_momentum {self.bn_momentum} outside (0, 1]")
        if not 0.0 < self.bn_eps < math.inf:
            raise ValueError(f"ModelConfig: bn_eps {self.bn_eps} must be positive and finite")
        if self.backbone not in BACKBONES:
            raise ValueError(f"ModelConfig: unknown backbone {self.backbone!r}")
        if self.backbone == "smallconv":
            side = math.isqrt(self.input_dim)
            if side * side != self.input_dim:
                raise ValueError(
                    f"ModelConfig: backbone smallconv needs a square input_dim, "
                    f"got {self.input_dim}")


class Linear:
    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator):
        self.weight = Tensor(rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)

    def apply(self, h: np.ndarray, scale: np.ndarray | None = None,
              shift: np.ndarray | None = None) -> np.ndarray:
        """Evaluation-mode product on arrays, in blocks of `ROW_BLOCK` rows.
        Given a normalization's per-channel map `y * scale + shift`, it is
        folded into the product: the rows are multiplied by `W * scale` and
        `b * scale + shift` is added.

        One stacked call multiplies the whole blocks, the (k, ROW_BLOCK, K)
        view of the rows, and one more the overlapping last block; numpy
        runs one gemm per stacked block, so every BLAS call is still
        (ROW_BLOCK, K) @ (K, P) on C-contiguous operands. A row's bits
        therefore depend neither on the rest of the batch nor on its
        position, its alignment or the input's layout; a single-row product
        (gemv) or a strided one (numpy's own loop) would round differently.
        A batch shorter than ROW_BLOCK is copied into zero rows. In a longer
        one, the last block is the one that ends at the last row,
        overlapping the block before it, so no temporary is allocated beside
        the output (padding there as well moved the allocator state that
        the training benchmark reads). The bias is added with
        `nb.channel_op`, so beside the output only its tile is allocated.
        """
        h = np.ascontiguousarray(h, dtype=np.float64)
        w, b = self.weight.data, self.bias.data
        if scale is not None:
            w, b = w * scale, b * scale + shift
        (n, k), p = h.shape, w.shape[1]
        out = np.empty((n, p))
        if n < ROW_BLOCK:
            block = np.zeros((ROW_BLOCK, k))
            block[:n] = h
            out[...] = (block @ w)[:n]
        else:
            whole = n - n % ROW_BLOCK
            blocks = whole // ROW_BLOCK
            np.matmul(h[:whole].reshape(blocks, ROW_BLOCK, k), w,
                      out=out[:whole].reshape(blocks, ROW_BLOCK, p))
            if whole < n:
                np.matmul(h[n - ROW_BLOCK:], w, out=out[n - ROW_BLOCK:])
        return nb.channel_op(np.add, out, b, out)

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

    def apply(self, h: np.ndarray, scale: np.ndarray | None = None,
              shift: np.ndarray | None = None) -> np.ndarray:
        """Evaluation-mode convolution on arrays, with the tape op's bits;
        a per-channel map `y * scale + shift` folds into the kernel and the
        bias as in `Linear.apply`."""
        w, b = self.weight.data, self.bias.data
        if scale is not None:
            w, b = w * scale[:, None, None, None], b * scale + shift
        return T.conv2d_array(h, w, b, self.padding)[0]

    def parameters(self):
        return [("W", self.weight), ("b", self.bias)]


class ParamBlock:
    """Parameters that a training step updates together, as named views of
    one float64 buffer: each parameter's `data` becomes its slice of the
    buffer, in order. `name` is the first parameter's."""

    __slots__ = ("name", "params", "views", "buffer")

    def __init__(self, params: list[tuple[str, Tensor]]):
        self.name, self.params = params[0][0], params
        self.buffer = np.concatenate([t.data for _, t in params], axis=None)
        self.views, start = [], 0
        for _, t in params:
            t.data = self.buffer[start:start + t.data.size].reshape(t.data.shape)
            self.views.append(t.data)
            start += t.data.size


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
        self.blocks = self._share_buffers()
        # forward_aux's current batch layout and its rows per partition
        self._layout: tuple | None = None
        self._layout_rows: dict[Partition, tuple[list, list]] = {}

    # -- parameter registry ---------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Named parameters, block by block (`blocks`), aliases listed once."""
        return [p for block in self.blocks for p in block.params]

    def _share_buffers(self) -> list[ParamBlock]:
        """The named blocks of parameters that a training step updates
        together, each with one buffer: the backbone with the main units,
        the main classifier, each bank subset's units at every site, and
        each auxiliary classifier that is not an alias of another."""
        def named(prefix: str, owner) -> list[tuple[str, Tensor]]:
            return [(f"{prefix}.{suffix}", t) for suffix, t in owner.parameters()]

        trunk = [p for i, layer in enumerate(self.layers)
                 for p in named(f"backbone.layer{i}", layer)]
        trunk += [p for i, unit in enumerate(self.main_units)
                  for p in named(f"main.site{i}", unit)]
        blocks = [trunk, named("classifier.main", self.classifier_main)]
        for s in (self.banks[0].subsets() if self.banks else []):
            blocks.append([p for i, bank in enumerate(self.banks)
                           for p in named(f"bank.site{i}.u{s.label()}", bank.units[s])])
        shared = {id(self.classifier_main)}
        for s, clf in self.classifiers_aux.items():
            if id(clf) not in shared:
                shared.add(id(clf))
                blocks.append(named(f"classifier.aux.u{s.label()}", clf))
        return [ParamBlock(b) for b in blocks]

    # -- forward routes ---------------------------------------------------

    def _rows(self, x: np.ndarray | Tensor) -> np.ndarray:
        """`x` as a float64 (B, input_dim) array."""
        arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.config.input_dim:
            raise T.ShapeError(
                f"model: expected (B, {self.config.input_dim}) features, got {arr.shape}")
        return arr

    def _eval_input(self, x) -> np.ndarray:
        """The evaluation walk's input: `x` as C-contiguous float64 rows,
        shaped as the first layer takes them. A non-finite feature is a
        ValueError naming its row (training checks its loss instead)."""
        h = np.ascontiguousarray(self._rows(x))
        if not np.isfinite(h).all():
            row = np.flatnonzero(~np.isfinite(h).all(axis=1))[0]
            raise ValueError(f"model: non-finite feature in row {row}")
        if self.config.backbone == "smallconv":
            side = math.isqrt(self.config.input_dim)
            h = h.reshape(h.shape[0], 1, side, side)
        return h

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
        return _walk(self._eval_input(x), lambda h: self._eval_features(h, self.main_units))

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
        return Tensor(self._route_logits(self._eval_input(x), units,
                                         self._aux_classifier(subset)))

    def _aux_classifier(self, subset: DomainSubset) -> Linear:
        try:
            return self.classifiers_aux[subset]
        except KeyError:
            raise ValueError(f"model: no classifier for subset {{{subset.label()}}}") from None

    # -- evaluation on arrays ----------------------------------------------

    def _eval_features(self, h: np.ndarray, units: list[BNUnit], moments=None) -> np.ndarray:
        """Penultimate features of the input rows `h` (`_eval_input`),
        normalizing site i with `units[i]` in evaluation mode. A BN unit's
        map (`nb.eval_affine`) folds into the product before it; an ON unit,
        or every unit when `moments(h)` supplies the (mean, var) that stand
        in for the running ones, normalizes the plain product with
        `nb.eval_normalize`."""
        for layer, unit in zip(self.layers, units):
            if moments is None and not isinstance(unit, ONUnit):
                h = layer.apply(h, *nb.eval_affine(unit))
            else:
                h = layer.apply(h)
                h = nb.eval_normalize(unit, h, None if moments is None else moments(h))
            np.maximum(h, 0.0, out=h)
        if self.config.backbone == "smallconv":
            h = h.mean(axis=(2, 3))
        return h

    def _bank_units(self, subset: DomainSubset) -> list[BNUnit]:
        if not self.config.use_aug:
            raise ValueError("model: no bank (built with use_aug=False)")
        return [bank.unit(subset) for bank in self.banks]

    def _route_logits(self, h: np.ndarray, units: list[BNUnit], classifier: Linear
                      ) -> np.ndarray:
        return _walk(h, lambda piece: classifier.apply(self._eval_features(piece, units)))

    def eval_logits(self, x, subsets=(), main: bool = True
                    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """Evaluation-mode logits of the main route (None, and not walked,
        when `main` is false) and of each subset's sub-path (its bank units
        and classifier), on arrays, each route walking from the input rows
        in pieces (`_walk`). Uses the running statistics only."""
        h = self._eval_input(x)
        main_logits = (self._route_logits(h, self.main_units, self.classifier_main)
                       if main else None)
        subs = [self._route_logits(h, self._bank_units(s), self._aux_classifier(s))
                for s in subsets]
        return main_logits, subs

    # -- batch-statistics probing -----------------------------------------

    def features_with_batch_stats(self, probe: np.ndarray,
                                  companion: np.ndarray | None = None) -> np.ndarray:
        """Main-path features of the probe rows, normalizing every site with
        the statistics of the probe batch merged with an optional companion
        batch. Parameters stay fixed; running statistics are not touched.

        The stacked rows run once through the evaluation walk of the main
        route with the pooled moments standing in for the running ones.
        Moments merge by the exact two-group identity and a row's bits do
        not depend on the other rows, so a companion that is a bitwise copy
        of the probe leaves the features bitwise unchanged.
        """
        blocks = [self._eval_input(b) for b in (probe, companion) if b is not None]
        n = blocks[0].shape[0]

        def moments(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            mu, var = nb._channel_stats(h[:n])
            if h.shape[0] > n:
                mu_c, var_c = nb._channel_stats(h[n:])
                mu, var = nb.pooled_moments(mu, var, n, mu_c, var_c, h.shape[0] - n)
            return mu, var

        return self._eval_features(np.concatenate(blocks), self.main_units, moments)[:n]


def _walk(h: np.ndarray, route) -> np.ndarray:
    """`route(piece)` over the `EVAL_ROWS`-row pieces of the input rows `h`
    (`_eval_input`), stacked. A row's bits depend on no other row, so they
    are those of one walk over all of `h`, while only one piece's
    temporaries are alive at a time."""
    first = route(h[:EVAL_ROWS])
    n = h.shape[0]
    if n <= EVAL_ROWS:
        return first
    out = np.empty((n, *first.shape[1:]))
    out[:EVAL_ROWS] = first
    for i in range(EVAL_ROWS, n, EVAL_ROWS):
        out[i:i + EVAL_ROWS] = route(h[i:i + EVAL_ROWS])
    return out


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
    """`raw` as a value of `kind`: bool, int, float, str, tuple[int, ...] or
    an enum, whose members are read by value or name in any case; a value
    of any kind but str and an enum is plain ASCII without `_`, and floats
    must be finite. Raises ValueError naming `key`."""
    try:
        if isinstance(kind, enum.EnumMeta):
            return next(m for m in kind if raw.lower() in (m.value.lower(), m.name.lower()))
        if kind is not str and (not raw.isascii() or "_" in raw):
            raise ValueError
        if kind is bool:
            return {"true": True, "1": True, "yes": True,
                    "false": False, "0": False, "no": False}[raw.lower()]
        if kind == tuple[int, ...]:
            return tuple(int(v) for v in raw.split(","))
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError
        return value
    except (KeyError, ValueError, StopIteration):
        expected = (f"one of {', '.join(m.value for m in kind)}"
                    if isinstance(kind, enum.EnumMeta) else _KIND_NAMES[kind])
        raise ValueError(f"config key {key}: expected {expected}, got {raw!r}") from None


def read_config(text: str, known, where: str) -> dict[str, str]:
    """The `key = value` lines of `text` as {key: value}: lines end at
    `\\n` only, `#` starts a comment, and whitespace around keys and values
    and blank lines are dropped. A line without `=`, with a character
    `str.isprintable` refuses (tabs aside), with a key not in `known`, with
    a repeated key or with an empty value raises ValueError naming
    `where:line`."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{where}:{ln}: expected key=value, got {raw!r}")
        if not line.expandtabs().isprintable():
            raise ValueError(f"{where}:{ln}: unprintable character in {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ValueError(f"{where}:{ln}: unknown config key {key!r}")
        if key in first:
            raise ValueError(f"{where}:{ln}: config key {key!r} repeated "
                             f"(first on line {first[key]})")
        if not value:
            raise ValueError(f"{where}:{ln}: config key {key!r} has an empty value")
        first[key], out[key] = ln, value
    return out


def _parse_key(kv: dict[str, str], key: str, kind):
    if key not in kv:
        raise ValueError(f"config key {key} is missing")
    return parse_value(key, kv[key], kind)


def config_values(fn, kv: dict[str, str], required: bool = False, **fixed) -> dict:
    """The arguments of `fn`, a dataclass or a function: the `fixed` values,
    and every other parameter parsed from `kv` by its annotated type (`X`
    for `X | None`), or its default if `kv` lacks it. A parameter missing
    from `kv` that has no default, or any when `required`, is an error."""
    hints = typing.get_type_hints(fn)
    values = dict(fixed)
    for name, p in inspect.signature(fn).parameters.items():
        if name in fixed:
            continue
        if name in kv or required or p.default is p.empty:
            args = typing.get_args(hints[name])
            values[name] = _parse_key(kv, name, args[0] if type(None) in args else hints[name])
        else:
            values[name] = p.default
    return values


def config_from_text(cls, kv: dict[str, str], required: bool = False, **fixed):
    """Dataclass `cls` built from `config_values`; not validated."""
    return cls(**config_values(cls, kv, required, **fixed))


# ---------------------------------------------------------------------------
# checkpoint container


def _config_text(config: ModelConfig, seed: int, epoch: int, target_domain: int | None) -> str:
    lines = [f"{f.name}={format_value(getattr(config, f.name))}" for f in fields(ModelConfig)]
    lines += [f"seed={seed}", f"epoch={epoch}"]
    if target_domain is not None:
        lines.append(f"target_domain={target_domain}")
    if config.use_aug:
        lines.append("bank_subsets=" + ",".join(
            s.label() for s in nb.scheme_subsets(config.num_domains)))
    return "\n".join(lines) + "\n"


# the keys `_config_text` writes; version 1's have `rng_state`, and no target
_BLOCK_KEYS = {f.name for f in fields(ModelConfig)} | {"seed", "epoch", "target_domain",
                                                        "bank_subsets"}
_V1_KEYS = _BLOCK_KEYS - {"target_domain"} | {"rng_state"}


def _units(model: TwoPathNetwork) -> list[tuple[str, BNUnit]]:
    """Every normalization unit with its checkpoint name prefix."""
    units = [(f"main.site{i}", u) for i, u in enumerate(model.main_units)]
    return units + [(f"bank.site{i}.u{s.label()}", bank.units[s])
                    for i, bank in enumerate(model.banks) for s in bank.subsets()]


def _state(model: TwoPathNetwork) -> dict[str, tuple[object, str]]:
    """Every checkpoint array by name -> (owner, attribute) holding it:
    parameter tensors' `data`, units' running moments, and units'
    `update_count`, stored as a one-element float array."""
    table = {name: (t, "data") for name, t in model.parameters()}
    for prefix, unit in _units(model):
        for attr in ("running_mean", "running_var"):
            table[f"{prefix}.{attr}"] = (unit, attr)
        table[f"{prefix}.count"] = (unit, "update_count")
    return table


def non_finite_array(model: TwoPathNetwork) -> str | None:
    """The checkpoint name of the first parameter or running moment of
    `model` holding a non-finite value, or None: one reduction per block
    buffer and per moment."""
    for block in model.blocks:
        if not np.isfinite(block.buffer).all():
            return next(name for (name, _), view in zip(block.params, block.views)
                        if not np.isfinite(view).all())
    for prefix, unit in _units(model):
        for attr in ("running_mean", "running_var"):
            if not np.isfinite(getattr(unit, attr)).all():
                return f"{prefix}.{attr}"
    return None


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
                    target_domain: int | None = None) -> None:
    """Versioned binary container: magic, version, config text block (with
    the domain training held out, when given), then named float64 arrays
    with shape prefixes, sorted by name. A non-finite array is refused
    before the file is opened, as `load_checkpoint` refuses it."""
    if (name := non_finite_array(model)) is not None:
        raise ValueError(f"save_checkpoint: array {name}: non-finite values")
    config = _config_text(model.config, model.seed, epoch, target_domain).encode("utf-8")
    state = _state(model)
    arrays = {name: np.ascontiguousarray(_array(*state[name]), dtype=np.float64)
              for name in sorted(state)}
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(config)))
        f.write(config)
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            nb_ = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb_)))
            f.write(nb_)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<Q", d))
            f.write(arr.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[TwoPathNetwork, int, int | None]:
    """Rebuild a model bit-exactly from `save_checkpoint` output.

    Strict: the config block exactly as `save_checkpoint` writes it for
    the model it describes (version 1 with its `rng_state` line), exactly
    the model's array names and shapes, finite values; anything else raises
    ValueError. Every rule on the block runs before the model is built.
    Returns (model, epoch, held-out domain or None)."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _read_checkpoint(blob)
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: {e}") from None


def checkpoint_parts(blob: bytes) -> tuple[int, str, typing.Iterator]:
    """The layout `save_checkpoint` writes, unchecked: (version, config
    block, records), the block and the array names decoded with
    `surrogateescape`. `records` reads one (name, shape, data) per array
    only as the caller walks it, `data` a view of `blob`'s bytes. Raises
    ValueError for bad magic, a truncated file, or bytes after the last
    record."""
    view = memoryview(blob)
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(blob):
            raise ValueError("truncated")
        off += n
        return view[off - n:off]

    def unpack(fmt: str) -> int:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError("bad magic")
    version = unpack("<I")
    block = str(take(unpack("<Q")), "utf-8", "surrogateescape")

    def records():
        for _ in range(unpack("<I")):
            name = str(take(unpack("<I")), "utf-8", "surrogateescape")
            shape = tuple(unpack("<Q") for _ in range(unpack("<I")))
            size = 8
            for d in shape:  # capped past the end: no product of huge dimensions
                size = min(size * d, len(blob) + 1)
            yield name, shape, take(size)
        if off != len(blob):
            raise ValueError("trailing bytes")

    return version, block, records()


def _read_checkpoint(blob: bytes) -> tuple[TwoPathNetwork, int, int | None]:
    version, block, records = checkpoint_parts(blob)
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported version {version}")
    for ln, line in enumerate(block.split("\n"), start=1):  # as `read_config` breaks lines
        check_utf8("config block", ln, line)
    kv = read_config(block, _V1_KEYS if version == 1 else _BLOCK_KEYS, "config block")
    config = config_from_text(ModelConfig, kv, required=True)
    config.validate()
    # refuse before enumerating the scheme or building: both grow with what the block names
    need = _array_floats(config)
    after = len(blob) - 16 - len(block.encode("utf-8", "surrogateescape"))
    if 8 * need > after:
        raise ValueError(f"config block names {need} array values, more than the "
                         f"{after} bytes after it hold")
    seed = _parse_key(kv, "seed", int)
    epoch = _parse_key(kv, "epoch", int)
    target = _parse_key(kv, "target_domain", int) if "target_domain" in kv else None
    written = _config_text(config, seed, epoch, target)
    if version == 1:  # its `rng_state` line, which nothing reads, follows `epoch`
        rng_state = _parse_key(kv, "rng_state", str)
        written = written.replace(f"\nepoch={epoch}\n", f"\nepoch={epoch}\nrng_state={rng_state}\n")
    if block != written:  # name the first differing line ("" for none)
        pairs = zip_longest(block.splitlines(True), written.splitlines(True), fillvalue="")
        ln, got, want = next((i, g, w) for i, (g, w) in enumerate(pairs, 1) if g != w)
        raise ValueError(f"config block:{ln}: expected {want!r}, got {got!r}")
    model = TwoPathNetwork(config, seed=seed)
    state = _state(model)
    for name, shape, data in records:
        if name not in state:
            raise ValueError(f"array {name!r}: unknown or repeated")
        owner, attr = state.pop(name)
        expected = _array(owner, attr).shape
        if shape != expected:
            raise ValueError(f"array {name}: shape {shape}, expected {expected}")
        arr = np.frombuffer(data, dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"array {name}: non-finite values")
        if attr == "update_count" and not (arr[0] >= 0 and arr[0].is_integer()):
            raise ValueError(f"array {name}: {arr[0]} is not a count")
        if attr == "data":  # into the parameter's view of its block's buffer
            owner.data[...] = arr
        else:
            setattr(owner, attr, int(arr[0]) if attr == "update_count" else arr.copy())
    if state:
        raise ValueError(f"missing arrays {', '.join(sorted(state))}")
    return model, epoch, target
