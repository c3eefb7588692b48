"""Shared test fixtures: independent oracles and tiny model builders."""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from normaug import normbank as nb
from normaug import tensor as T
from normaug.datagen import Dataset, expected_header
from normaug.gradcheck import grad_check_params
from normaug.model import ROW_BLOCK, ModelConfig, TwoPathNetwork, init_model
from normaug.tensor import Tensor
from normaug.training import SGD


# ---------------------------------------------------------------------------
# primitive tape ops: training records none of them (it records the fused
# ops); their composites below are the oracles the fused ops must match


def add(a: Tensor, b: Tensor) -> Tensor:
    return T._broadcast_binary("add", a, b, np.add, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return T._broadcast_binary("sub", a, b, np.subtract, lambda g: g, lambda g: -g)


def div(a: Tensor, b: Tensor) -> Tensor:
    return T._broadcast_binary("div", a, b, np.divide,
                               lambda g: g / b.data,
                               lambda g: -g * a.data / (b.data * b.data))


def neg(a: Tensor) -> Tensor:
    return T._record("neg", (a,), -a.data, lambda g: (-g,))


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    out = a.data ** p
    return T._record("power", (a,), out, lambda g: (g * p * a.data ** (p - 1.0),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return T._record("exp", (a,), out, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return T._record("log", (a,), np.log(a.data), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return T._record("sqrt", (a,), out, lambda g: (g * 0.5 / out,))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = a.data > 0.0
    return T._record("relu", (a,), out, lambda g: (g * mask,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise T.ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = a.data @ b.data

    def rule(g: np.ndarray):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return T._record("matmul", (a, b), out, rule)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def rule(g: np.ndarray):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return T._record("softmax", (a,), out, rule)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def rule(g: np.ndarray):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return T._record("log_softmax", (a,), out, rule)


def gather_labels(a: Tensor, labels: np.ndarray) -> Tensor:
    """Pick `a[i, labels[i]]` for each row; the core of an NLL loss."""
    labels = T._check_labels("gather_labels", a, labels)
    rows = np.arange(a.shape[0])
    out = a.data[rows, labels]

    def rule(g: np.ndarray):
        z = np.zeros_like(a.data)
        z[rows, labels] = g
        return (z,)

    return T._record("gather_labels", (a,), out, rule)


def scatter_rows(a: Tensor, idx: np.ndarray, num_rows: int) -> Tensor:
    """Embed rows into a zero tensor with `num_rows` rows at positions `idx`."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise T.ShapeError(f"scatter_rows: index shape {idx.shape} != ({a.shape[0]},)")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise T.ShapeError(f"scatter_rows: index out of range for {num_rows} rows")
    out = np.zeros((num_rows,) + a.shape[1:], dtype=np.float64)
    np.add.at(out, idx, a.data)

    def rule(g: np.ndarray):
        return (g[idx],)

    return T._record("scatter_rows", (a,), out, rule)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between the tape gradient of `f(x)` and central
    finite differences at `x`."""
    if not x.requires_grad:
        x.requires_grad = True
    return grad_check_params(lambda: f(x), [x], h)


class ReferenceSGD(SGD):
    """Out-of-place oracle for the in-place `SGD.step`: every step builds
    new velocity and parameter arrays from the update rule's expressions,
    one parameter at a time. A block's velocity is the list of its
    parameters' velocities (`block_velocities` joins it)."""

    def step(self) -> None:
        for g in self.groups:
            lr = g["lr"] * self.lr_scale
            mom, wd = g["momentum"], g["weight_decay"]
            for i, block in enumerate(g["blocks"]):
                velocity = g["velocity"][i] or [None] * len(block.params)
                for k, (_, t) in enumerate(block.params):
                    if t.grad is None:
                        continue
                    upd = t.grad + wd * t.data if wd else t.grad
                    if mom:
                        v = velocity[k]
                        v = upd if v is None else mom * v + upd
                        velocity[k] = v
                        upd = v
                    t.data = t.data - lr * upd
                if any(v is not None for v in velocity):
                    g["velocity"][i] = velocity


def block_velocities(opt: SGD) -> list[np.ndarray | None]:
    """Every block's velocity, group by group, as one flat array (None
    before the block's first update)."""
    return [v if v is None or isinstance(v, np.ndarray) else np.concatenate(v, axis=None)
            for g in opt.groups for v in g["velocity"]]


def two_pass_stats(block: np.ndarray, eps: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Independent two-pass mean/std oracle over rows (and space for rank 4).

    Deliberately written with explicit loops over channels; the production
    path must agree with this to 1e-12.
    """
    if block.ndim == 2:
        cols = [block[:, c].ravel() for c in range(block.shape[1])]
    elif block.ndim == 4:
        cols = [block[:, c].ravel() for c in range(block.shape[1])]
    else:
        raise ValueError("oracle expects rank-2 or rank-4 input")
    mu = np.empty(len(cols))
    sigma = np.empty(len(cols))
    for c, col in enumerate(cols):
        m = col.sum() / col.size
        var = ((col - m) ** 2).sum() / col.size
        mu[c] = m
        sigma[c] = np.sqrt(var + eps)
    return mu, sigma


# ---------------------------------------------------------------------------
# the normalization formulas `tensor` replaced with its shared helpers, whose
# bits they must keep: batch and instance axes by rank, the per-channel
# moments by `ndarray.mean` (`T._moments`) and the mixture weights by
# `.max()` / `.sum()` (`T._mix_weights`)

BN_AXES = {2: (0,), 4: (0, 2, 3)}
IN_AXES = {2: (1,), 4: (2, 3)}


def mean_method_stats(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel batch mean and population variance by `ndarray.mean`."""
    axes = BN_AXES[arr.ndim]
    mu = arr.mean(axis=axes)
    var = ((arr - arr.mean(axis=axes, keepdims=True)) ** 2).mean(axis=axes)
    return mu, var


def max_sum_softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# primitive-op composites: the graphs the fused tensor ops replace


def composite_standardize(x: Tensor, eps: float, axes) -> tuple[Tensor, Tensor, Tensor]:
    """(x - mean) / sqrt(var + eps) over `axes` from primitive ops, the
    moments on the tape; returns (xhat, mean, var) with kept dims."""
    mu = T.mean(x, axis=axes, keepdims=True)
    var = T.mean(power(sub(x, mu), 2), axis=axes, keepdims=True)
    return div(sub(x, mu), sqrt(add(var, Tensor(eps)))), mu, var


def _per_channel(v: Tensor, ndim: int) -> Tensor:
    return T.reshape(v, (1, v.shape[0], 1, 1)) if ndim == 4 else v


def composite_batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, axes):
    """Oracle for `T.segment_norm` with one whole-batch group and no
    mixture: (out, batch mean, batch var)."""
    xhat, mu, var = composite_standardize(x, eps, axes)
    out = add(xhat * _per_channel(gamma, x.ndim), _per_channel(beta, x.ndim))
    return out, mu.data.ravel(), var.data.ravel()


def composite_mixture_norm(x: Tensor, gamma: Tensor, beta: Tensor, mix_logits: Tensor,
                           eps: float, bn_axes, in_axes):
    """Oracle for `T.segment_norm` with one whole-batch group carrying
    mixture logits: (out, batch mean, batch var)."""
    w = softmax(mix_logits, axis=0)
    bn_hat, mu, var = composite_standardize(x, eps, bn_axes)
    in_hat, _, _ = composite_standardize(x, eps, in_axes)
    mix = add(bn_hat * T.gather_rows(w, np.array([0])), in_hat * T.gather_rows(w, np.array([1])))
    out = add(mix * _per_channel(gamma, x.ndim), _per_channel(beta, x.ndim))
    return out, mu.data.ravel(), var.data.ravel()


def composite_segment_batch_norm(x: Tensor, group_rows, params, eps: float, axes):
    """Oracle for `T.segment_norm` over row groups without mixtures: gather
    each group's rows, batch normalize them, scatter them back and sum;
    (out, [(mean, var)])."""
    out, moments = None, []
    for idx, (gamma, beta) in zip(group_rows, params):
        block, mu, var = composite_batch_norm(T.gather_rows(x, idx), gamma, beta, eps, axes)
        placed = scatter_rows(block, idx, x.shape[0])
        out = placed if out is None else add(out, placed)
        moments.append((mu, var))
    return out, moments


def composite_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Oracle for `T.linear`."""
    return add(matmul(x, w), b)


def composite_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Oracle for `T.cross_entropy`."""
    return T.mean(neg(gather_labels(log_softmax(logits, axis=1), labels)))


# ---------------------------------------------------------------------------
# the tape-side evaluation composite: the graph the array eval walk replaces


def composite_eval_normalize(unit, x: Tensor, moments=None) -> Tensor:
    """Oracle for `normbank.eval_normalize` from primitive tape ops:
    standardize with the running moments (or `moments`), mix in the
    instance standardization for an ON unit, then the affine transform."""
    mean, var = moments if moments is not None else (unit.running_mean, unit.running_var)
    if x.ndim == 4:
        mean, var = mean[None, :, None, None], var[None, :, None, None]
    xhat = div(sub(x, Tensor(mean)), Tensor(np.sqrt(var + unit.eps)))
    if hasattr(unit, "mix_logits"):
        if x.ndim == 2 and x.shape[1] == 1:
            raise T.ShapeError("IN undefined for single-feature rows")
        w = softmax(unit.mix_logits, axis=0)
        in_hat, _, _ = composite_standardize(x, unit.eps, IN_AXES[x.ndim])
        xhat = add(xhat * T.gather_rows(w, np.array([0])),
                   in_hat * T.gather_rows(w, np.array([1])))
    return add(xhat * _per_channel(unit.gamma, x.ndim), _per_channel(unit.beta, x.ndim))


def _einsum_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` by einsum, whose row `i` does not depend on the batch."""
    return Tensor(np.einsum("ij,jk->ik", x.data, w.data) + b.data)


def composite_eval_logits(model: TwoPathNetwork, x: np.ndarray, subset=None,
                          moments=None) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for one evaluation route on the tape: the main route, or the
    sub-path of `subset`, with the chunk-invariant einsum product, under
    `no_grad`. `moments(h)` stands in for the running moments as in
    `features_with_batch_stats`. Returns (logits, features)."""
    if subset is None:
        units, clf = model.main_units, model.classifier_main
    else:
        units = [bank.unit(subset) for bank in model.banks]
        clf = model.classifiers_aux[subset]
    with T.no_grad():
        h = Tensor(x)
        if model.config.backbone == "smallconv":
            side = int(round(np.sqrt(x.shape[1])))
            h = T.reshape(h, (x.shape[0], 1, side, side))
        for layer, unit in zip(model.layers, units):
            if model.config.backbone == "smallconv":
                h = T.conv2d(h, layer.weight, layer.bias, padding=layer.padding)
            else:
                h = _einsum_linear(h, layer.weight, layer.bias)
            h = relu(composite_eval_normalize(
                unit, h, None if moments is None else moments(h.data)))
        if model.config.backbone == "smallconv":
            h = T.mean(h, axis=(2, 3))
        return _einsum_linear(h, clf.weight, clf.bias).data, h.data


# ---------------------------------------------------------------------------
# the evaluation walk's products one block per call and its per-channel maps
# as broadcasts, and the divergence's column means by fsum over every value:
# the formulas the stacked product, `normbank.channel_op` and the exact
# partial sums replaced, whose bits they must keep


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, dtypes and bytes: unlike `np.array_equal`, -0.0 differs
    from 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def broadcast_linear_apply(lin, h: np.ndarray, scale=None, shift=None) -> np.ndarray:
    """`Linear.apply` as one BLAS call per `ROW_BLOCK` rows (the last block
    overlapping the one before it), with its bias added as one broadcast
    `out += b`."""
    h = np.ascontiguousarray(h, dtype=np.float64)
    w, b = lin.weight.data, lin.bias.data
    if scale is not None:
        w, b = w * scale, b * scale + shift
    n = h.shape[0]
    out = np.empty((n, w.shape[1]))
    if n < ROW_BLOCK:
        block = np.zeros((ROW_BLOCK, w.shape[0]))
        block[:n] = h
        out[...] = (block @ w)[:n]
    else:
        for lo in [*range(0, n - ROW_BLOCK, ROW_BLOCK), n - ROW_BLOCK]:
            np.matmul(h[lo:lo + ROW_BLOCK], w, out=out[lo:lo + ROW_BLOCK])
    out += b
    return out


def broadcast_eval_normalize(unit, h: np.ndarray, moments=None) -> np.ndarray:
    """`normbank.eval_normalize` with every per-channel factor and term
    broadcast from its (1, C, 1, ...) shape."""
    pshape = tuple(1 if a in BN_AXES[h.ndim] else n for a, n in enumerate(h.shape))
    mixture = isinstance(unit, nb.ONUnit)
    if mixture:
        w = max_sum_softmax(unit.mix_logits.data)
    scale, shift = nb.eval_affine(unit, moments, w[0] if mixture else None)
    out = h * scale.reshape(pshape)
    out += shift.reshape(pshape)
    if mixture:
        in_hat = T._standardize(h, unit.eps, IN_AXES[h.ndim])[0]
        in_hat *= (unit.gamma.data * w[1]).reshape(pshape)
        out += in_hat
    return out


def fsum_column_means(rows: list[np.ndarray]) -> np.ndarray:
    """`diagnostics._column_means` as fsum over every value of each column,
    converted to Python floats, in block order."""
    total = sum(r.shape[0] for r in rows)
    if total == 0:
        raise ValueError("divergence: empty feature set")
    columns = zip(*(r.T.tolist() for r in rows))
    return np.array([math.fsum(itertools.chain(*col)) for col in columns]) / total


# ---------------------------------------------------------------------------
# the dataset CSV codec as it was before the block writer and the streaming
# parser: `datagen.save` must write its bytes, and `datagen.load` must return
# its arrays and raise its messages


def reference_save(dataset: Dataset, path) -> None:
    """CSV with header domain,label,f0..f{D-1}; floats at 17 significant
    digits so a round trip is exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(expected_header(dataset.feature_dim) + "\n")
        for i in range(len(dataset)):
            row = [str(int(dataset.domain_ids[i])), str(int(dataset.labels[i]))]
            row += [format(v, ".17g") for v in dataset.features[i]]
            f.write(",".join(row) + "\n")


def reference_load(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = lines[0]
    cols = header.split(",")
    if len(cols) < 3 or cols[0] != "domain" or cols[1] != "label":
        raise ValueError(f"{path}: bad header; expected 'domain,label,f0..'")
    dim = len(cols) - 2
    if header != expected_header(dim):
        raise ValueError(f"{path}: bad header; expected {expected_header(dim)!r}")
    if len(lines) == 1:
        raise ValueError(f"{path}: no data rows")
    feats = np.empty((len(lines) - 1, dim))
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    domains = np.empty(len(lines) - 1, dtype=np.int64)
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise ValueError(f"{path}:{ln}: expected {dim + 2} fields, got {len(parts)}")
        try:
            domains[ln - 2] = int(parts[0])
            labels[ln - 2] = int(parts[1])
            feats[ln - 2] = [float(v) for v in parts[2:]]
        except ValueError as e:
            raise ValueError(f"{path}:{ln}: malformed value ({e})") from None
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{bad[0] + 2}: non-finite feature")
    return Dataset(feats, labels, domains,
                   num_classes=int(labels.max()) + 1,
                   num_domains=int(domains.max()) + 1)


def tiny_config(input_dim: int = 6, hidden=(8, 4), num_classes: int = 3,
                num_domains: int = 3, **kw) -> ModelConfig:
    return ModelConfig(input_dim=input_dim, hidden_sizes=tuple(hidden),
                       num_classes=num_classes, num_domains=num_domains, **kw)


def tiny_model(seed: int = 0, **kw) -> TwoPathNetwork:
    return init_model(tiny_config(**kw), seed=seed)


def toy_batch(rng: np.random.Generator, per_domain: int = 4, num_domains: int = 3,
              input_dim: int = 6, num_classes: int = 3):
    n = per_domain * num_domains
    x = rng.standard_normal((n, input_dim))
    labels = rng.integers(0, num_classes, size=n)
    domains = np.repeat(np.arange(num_domains), per_domain)
    return x, labels.astype(np.int64), domains.astype(np.int64)
