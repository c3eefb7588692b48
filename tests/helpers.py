"""Shared test fixtures: independent oracles and tiny model builders."""

from __future__ import annotations

from typing import Callable

import numpy as np

from normaug import tensor as T
from normaug.gradcheck import grad_check_params
from normaug.model import ModelConfig, TwoPathNetwork, init_model
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
    new velocity and parameter arrays from the update rule's expressions."""

    def step(self) -> None:
        for g in self.groups:
            lr = g["lr"] * self.lr_scale
            mom, wd = g["momentum"], g["weight_decay"]
            for _, t in g["params"]:
                if t.grad is None:
                    continue
                upd = t.grad + wd * t.data if wd else t.grad
                if mom:
                    v = self._velocity.get(id(t))
                    v = upd if v is None else mom * v + upd
                    self._velocity[id(t)] = v
                    upd = v
                t.data = t.data - lr * upd


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
        in_hat, _, _ = composite_standardize(x, unit.eps, (1,) if x.ndim == 2 else (2, 3))
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
