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
    """Oracle for `T.batch_norm`: (out, batch mean, batch var)."""
    xhat, mu, var = composite_standardize(x, eps, axes)
    out = xhat * _per_channel(gamma, x.ndim) + _per_channel(beta, x.ndim)
    return out, mu.data.ravel(), var.data.ravel()


def composite_mixture_norm(x: Tensor, gamma: Tensor, beta: Tensor, mix_logits: Tensor,
                           eps: float, bn_axes, in_axes):
    """Oracle for `T.mixture_norm`: (out, batch mean, batch var)."""
    w = T.softmax(mix_logits, axis=0)
    bn_hat, mu, var = composite_standardize(x, eps, bn_axes)
    in_hat, _, _ = composite_standardize(x, eps, in_axes)
    mix = bn_hat * T.gather_rows(w, np.array([0])) + in_hat * T.gather_rows(w, np.array([1]))
    out = mix * _per_channel(gamma, x.ndim) + _per_channel(beta, x.ndim)
    return out, mu.data.ravel(), var.data.ravel()


def composite_segment_batch_norm(x: Tensor, group_rows, params, eps: float, axes):
    """Oracle for `T.segment_batch_norm`: gather each group's rows, batch
    normalize them, scatter them back and sum; (out, [(mean, var)])."""
    out, moments = None, []
    for idx, (gamma, beta) in zip(group_rows, params):
        block, mu, var = composite_batch_norm(T.gather_rows(x, idx), gamma, beta, eps, axes)
        placed = T.scatter_rows(block, idx, x.shape[0])
        out = placed if out is None else out + placed
        moments.append((mu, var))
    return out, moments


def composite_linear(x: Tensor, w: Tensor, b: Tensor, exact: bool = False) -> Tensor:
    """Oracle for `T.linear`."""
    return T.matmul(x, w, exact=exact) + b


def composite_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Oracle for `T.cross_entropy`."""
    return T.mean(T.neg(T.gather_labels(T.log_softmax(logits, axis=1), labels)))


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
