"""Shared test fixtures: independent oracles and tiny model builders."""

from __future__ import annotations

import numpy as np

from normaug import tensor as T
from normaug.model import ModelConfig, TwoPathNetwork, init_model
from normaug.tensor import Tensor


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
    var = T.mean((x - mu) ** 2, axis=axes, keepdims=True)
    return (x - mu) / T.sqrt(var + eps), mu, var


def _per_channel(v: Tensor, ndim: int) -> Tensor:
    return T.reshape(v, (1, v.shape[0], 1, 1)) if ndim == 4 else v


def composite_batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, axes):
    """Oracle for `T.segment_norm` with one whole-batch group and no
    mixture: (out, batch mean, batch var)."""
    xhat, mu, var = composite_standardize(x, eps, axes)
    out = xhat * _per_channel(gamma, x.ndim) + _per_channel(beta, x.ndim)
    return out, mu.data.ravel(), var.data.ravel()


def composite_mixture_norm(x: Tensor, gamma: Tensor, beta: Tensor, mix_logits: Tensor,
                           eps: float, bn_axes, in_axes):
    """Oracle for `T.segment_norm` with one whole-batch group carrying
    mixture logits: (out, batch mean, batch var)."""
    w = T.softmax(mix_logits, axis=0)
    bn_hat, mu, var = composite_standardize(x, eps, bn_axes)
    in_hat, _, _ = composite_standardize(x, eps, in_axes)
    mix = bn_hat * T.gather_rows(w, np.array([0])) + in_hat * T.gather_rows(w, np.array([1]))
    out = mix * _per_channel(gamma, x.ndim) + _per_channel(beta, x.ndim)
    return out, mu.data.ravel(), var.data.ravel()


def composite_segment_batch_norm(x: Tensor, group_rows, params, eps: float, axes):
    """Oracle for `T.segment_norm` over row groups without mixtures: gather
    each group's rows, batch normalize them, scatter them back and sum;
    (out, [(mean, var)])."""
    out, moments = None, []
    for idx, (gamma, beta) in zip(group_rows, params):
        block, mu, var = composite_batch_norm(T.gather_rows(x, idx), gamma, beta, eps, axes)
        placed = T.scatter_rows(block, idx, x.shape[0])
        out = placed if out is None else out + placed
        moments.append((mu, var))
    return out, moments


def composite_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Oracle for `T.linear`."""
    return T.matmul(x, w) + b


def composite_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Oracle for `T.cross_entropy`."""
    return T.mean(T.neg(T.gather_labels(T.log_softmax(logits, axis=1), labels)))


# ---------------------------------------------------------------------------
# the tape-side evaluation composite: the graph the array eval walk replaces


def composite_eval_normalize(unit, x: Tensor, moments=None) -> Tensor:
    """Oracle for `normbank.eval_normalize` from primitive tape ops:
    standardize with the running moments (or `moments`), mix in the
    instance standardization for an ON unit, then the affine transform."""
    mean, var = moments if moments is not None else (unit.running_mean, unit.running_var)
    if x.ndim == 4:
        mean, var = mean[None, :, None, None], var[None, :, None, None]
    xhat = (x - Tensor(mean)) / Tensor(np.sqrt(var + unit.eps))
    if hasattr(unit, "mix_logits"):
        if x.ndim == 2 and x.shape[1] == 1:
            raise T.ShapeError("IN undefined for single-feature rows")
        w = T.softmax(unit.mix_logits, axis=0)
        in_hat, _, _ = composite_standardize(x, unit.eps, (1,) if x.ndim == 2 else (2, 3))
        xhat = xhat * T.gather_rows(w, np.array([0])) + in_hat * T.gather_rows(w, np.array([1]))
    return xhat * _per_channel(unit.gamma, x.ndim) + _per_channel(unit.beta, x.ndim)


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
            h = T.relu(composite_eval_normalize(
                unit, h, None if moments is None else moments(h.data)))
        if model.config.backbone == "smallconv":
            h = T.global_avg_pool(h)
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
