"""Finite-difference verification of tape gradients.

Central differences (f(x+h) - f(x-h)) / 2h per coordinate, compared against
the reverse-mode gradient with the relative metric
|g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, backward, no_grad


def _autodiff_grads(f: Callable[[], Tensor], params: Sequence[Tensor]) -> list[np.ndarray]:
    for p in params:
        p.grad = None
    loss = f()
    backward(loss)
    out = []
    for p in params:
        out.append(np.zeros_like(p.data) if p.grad is None else p.grad.copy())
    return out


def _fd_grad(f: Callable[[], Tensor], p: Tensor, h: float) -> np.ndarray:
    g = np.zeros_like(p.data)
    flat = p.data.reshape(-1)
    gflat = g.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f().item()
            flat[i] = orig - h
            dn = f().item()
            flat[i] = orig
            gflat[i] = (up - dn) / (2.0 * h)
    return g


def grad_check_params(f: Callable[[], Tensor], params: Sequence[Tensor],
                      h: float = 1e-5) -> float:
    """Max relative error of the tape gradient over every coordinate of
    every parameter, for a scalar-valued closure `f`."""
    if h <= 0:
        raise ValueError("grad_check_params: step size must be positive")
    g_ad = _autodiff_grads(f, params)
    worst = 0.0
    for p, ga in zip(params, g_ad):
        gf = _fd_grad(f, p, h)
        denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gf)))
        err = np.abs(ga - gf) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst

