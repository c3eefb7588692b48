"""Dense float64 tensors with a reverse-mode autodiff tape, for training.

Every operation computes its result eagerly with numpy and, while gradients
are enabled, attaches a tape node holding the backward rule. `backward`
orders the reachable operations topologically and replays them in reverse,
accumulating gradients additively into the `.grad` of leaf tensors (so
repeated calls without a reset sum up); intermediate results keep no `.grad`.

This module holds only the tape and the ops a training step records: the
layer ops (`conv2d`, `reshape`, `mean` for pooling, `gather_rows`) and the
fused ops, one node each with a closed-form backward: `linear`,
`segment_norm` (every train-mode normalization site, batch norm or the
BN/IN mixture over one or several row groups, with the ReLU that follows
it) and `cross_entropy` (the main head and every auxiliary head in one
loss node). An `on_aug` step of the default model records 20 nodes (18 for
a two-group partition), an `on` step 8. `mul` and `sum_` (`Tensor` `*` and
`.sum()`) weight a loss for the gradient checks. The primitive ops the
fused ones replace (`add`, `matmul`, `relu`, `softmax`, ...) live in
`tests/helpers.py`, where their composites are the oracles. Reductions
call the ufunc (`np.add.reduce`, `np.maximum.reduce`) directly: the same
bits as the `ndarray` methods, without those methods' Python wrappers.

All arithmetic is float64. Evaluation runs on plain arrays
(`TwoPathNetwork.eval_logits`, `normbank.eval_normalize`).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

Axes = int | tuple[int, ...] | None


class ShapeError(ValueError):
    """Operand shapes do not conform to an operation's rule."""


_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording within the block (evaluation / stat updates)."""
    prev = grad_enabled()
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = prev


class TapeNode:
    """One recorded operation: its inputs and the rule mapping the output
    gradient to per-input gradients (None for non-differentiable inputs)."""

    __slots__ = ("op", "inputs", "backward_rule")

    def __init__(
        self,
        op: str,
        inputs: tuple["Tensor", ...],
        backward_rule: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
    ):
        self.op = op
        self.inputs = inputs
        self.backward_rule = backward_rule


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    # keep numpy from hijacking `ndarray <op> Tensor`
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: TapeNode | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not scalar")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar -------------------------------------------------
    def __mul__(self, other):
        return mul(self, other if isinstance(other, Tensor) else Tensor(other))

    __rmul__ = __mul__

    def sum(self, axis: Axes = None, keepdims: bool = False):
        return sum_(self, axis, keepdims)


def _record(op, inputs, out_data, backward_rule) -> Tensor:
    out = Tensor(out_data)
    if grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = TapeNode(op, tuple(inputs), backward_rule)
    return out


class Tape:
    """Topologically ordered view of the tensors reachable from a root.

    `entries` lists every tensor that owns a recorded operation, inputs
    before outputs; replaying backward rules in reverse order accumulates
    gradients additively.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: list[Tensor]):
        self.entries = entries

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[int] = set()
        # iterative post-order DFS; recursion depth would scale with graph depth
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if t.node is None:
                continue
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for parent in t.node.inputs:
                if parent.node is not None and id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)


def backward(loss: Tensor) -> None:
    """Populate `.grad` on every leaf `requires_grad` tensor (one without a
    tape node, such as a parameter) that `loss` depends on.

    Gradients accumulate across calls; callers reset between steps.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    if loss.requires_grad and loss.node is None:
        loss.grad = (loss.grad if loss.grad is not None else 0.0) + np.ones_like(loss.data)
        return
    for t in reversed(Tape.trace(loss).entries):
        g_out = grads.pop(id(t), None)
        if g_out is None:
            continue
        for parent, g in zip(t.node.inputs, t.node.backward_rule(g_out)):
            if g is None or not parent.requires_grad:
                continue
            if parent.node is None:  # a leaf: accumulate into .grad
                parent.grad = g if parent.grad is None else parent.grad + g
            else:
                key = id(parent)
                grads[key] = g if key not in grads else grads[key] + g


# ---------------------------------------------------------------------------
# shape helpers


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _norm_axes(axis: Axes, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g: np.ndarray, in_shape: tuple[int, ...], axes: tuple[int, ...],
                    keepdims: bool) -> np.ndarray:
    if not keepdims:
        shape = list(in_shape)
        for a in axes:
            shape[a] = 1
        g = g.reshape(shape)
    return np.broadcast_to(g, in_shape)


# ---------------------------------------------------------------------------
# elementwise and broadcasting ops


def _broadcast_binary(op: str, a: Tensor, b: Tensor, fn, da, db) -> Tensor:
    try:
        out = fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")

    def rule(g: np.ndarray):
        ga = _unbroadcast(da(g), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(db(g), b.data.shape) if b.requires_grad else None
        return ga, gb

    return _record(op, (a, b), out, rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_binary("mul", a, b, np.multiply,
                             lambda g: g * b.data, lambda g: g * a.data)


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(a: Tensor, axis: Axes = None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    return _record("sum", (a,), out,
                   lambda g: (_expand_reduced(g, a.data.shape, axes, keepdims),))


def mean(a: Tensor, axis: Axes = None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = _count(a.data.shape, axes)
    out = a.data.mean(axis=axes, keepdims=keepdims)
    return _record(
        "mean", (a,), out,
        lambda g: (_expand_reduced(g, a.data.shape, axes, keepdims) / count,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    return _record("reshape", (a,), out, lambda g: (g.reshape(a.data.shape),))


# ---------------------------------------------------------------------------
# row routing (sub-batch dispatch)


def gather_rows(a: Tensor, idx: np.ndarray | slice) -> Tensor:
    """Select rows along axis 0 (a slice selects a view); backward
    scatter-adds into the source."""
    if not isinstance(idx, slice):
        idx = np.asarray(idx, dtype=np.intp)
        if idx.ndim != 1:
            raise ShapeError(f"gather_rows: index must be 1-D, got {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
            raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    out = a.data[idx]

    def rule(g: np.ndarray):
        z = np.zeros(a.data.shape)
        if isinstance(idx, slice):  # no row twice: the bits of np.add.at
            z[idx] += g
        else:
            np.add.at(z, idx, g)
        return (z,)

    return _record("gather_rows", (a,), out, rule)


# ---------------------------------------------------------------------------
# 2-D convolution (stride 1, zero padding)


def conv2d_array(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
                 padding: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Array part of `conv2d`: stride-1 zero-padded convolution of (B, C, H,
    W) input, returned with the padded input.

    A sum of shifted einsum contractions, so each sample's result does not
    depend on the batch it is computed in.
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d: shapes {x.shape} and {w.shape} do not conform")
    bsz, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    p = int(padding)
    ho, wo = h + 2 * p - kh + 1, wd + 2 * p - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel {(kh, kw)} too large for input {(h, wd)} pad {p}")
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((bsz, cout, ho, wo))
    for u in range(kh):
        for v in range(kw):
            out += np.einsum("bcij,oc->boij", xp[:, :, u:u + ho, v:v + wo], w[:, :, u, v])
    if b is not None:
        if b.shape != (cout,):
            raise ShapeError(f"conv2d: bias shape {b.shape} != ({cout},)")
        out = out + b[None, :, None, None]
    return out, xp


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, padding: int = 1) -> Tensor:
    """Stride-1 zero-padded convolution on (B, C, H, W) input (see
    `conv2d_array`)."""
    out, xp = conv2d_array(x.data, w.data, None if b is None else b.data, padding)
    p = int(padding)
    h, wd = x.shape[2:]
    kh, kw = w.shape[2:]
    ho, wo = out.shape[2:]
    inputs = (x, w) if b is None else (x, w, b)

    def rule(g: np.ndarray):
        gxp = np.zeros(xp.shape) if x.requires_grad else None
        gw = np.zeros(w.data.shape) if w.requires_grad else None
        for u in range(kh):
            for v in range(kw):
                if gxp is not None:
                    gxp[:, :, u:u + ho, v:v + wo] += np.einsum(
                        "boij,oc->bcij", g, w.data[:, :, u, v])
                if gw is not None:
                    gw[:, :, u, v] = np.einsum(
                        "boij,bcij->oc", g, xp[:, :, u:u + ho, v:v + wo])
        gx = gxp[:, :, p:p + h, p:p + wd] if gxp is not None else None
        grads = [gx, gw]
        if b is not None:
            grads.append(g.sum(axis=(0, 2, 3)) if b.requires_grad else None)
        return tuple(grads)

    return _record("conv2d", inputs, out, rule)


# ---------------------------------------------------------------------------
# fused training ops: one tape node each, closed-form backward


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`matmul(x, w) + b` as one node, with the composite's bits in the
    forward and in every gradient."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} do not conform")
    out = x.data @ w.data
    out += b.data

    def rule(g: np.ndarray):
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                np.add.reduce(g, 0) if b.requires_grad else None)

    return _record("linear", (x, w, b), out, rule)


def _count(shape: tuple[int, ...], axes: tuple[int, ...]) -> int:
    """How many elements a reduction over `axes` combines: the divisor
    `ndarray.mean` uses."""
    n = 1
    for a in axes:
        n *= shape[a]
    return n


def _feature_axes(ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(batch axes, instance axes) of rank-2 (rows, C) or rank-4 (rows, C,
    H, W) features."""
    if ndim == 2:
        return (0,), (1,)
    if ndim == 4:
        return (0, 2, 3), (2, 3)
    raise ShapeError(f"normalization expects rank-2 or rank-4 features, got rank {ndim}")


def _moments(x: np.ndarray, axes: tuple[int, ...]):
    """(mean, x - mean, population variance) over `axes`, the moments with
    `keepdims`. A mean is `np.add.reduce` divided by the count, which is
    what `ndarray.mean` computes (same bits) without its Python wrapper."""
    n = _count(x.shape, axes)
    mu = np.add.reduce(x, axes, keepdims=True) / n
    centered = x - mu
    var = np.add.reduce(np.square(centered), axes, keepdims=True) / n  # the bits of ** 2.0
    return mu, centered, var


def _standardize(x: np.ndarray, eps: float, axes: tuple[int, ...]):
    """(x - mean) / sqrt(var + eps) over `axes` with the population variance,
    by the same numpy expressions as the primitive-op composite. Returns
    (xhat, sigma, mean, var), the last three with `keepdims`."""
    mu, xhat, var = _moments(x, axes)
    sigma = np.sqrt(var + eps)
    xhat /= sigma
    return xhat, sigma, mu, var


def _mix_weights(op: str, shape: tuple[int, ...], logits: np.ndarray) -> np.ndarray:
    """softmax(logits): the batch and the instance weights of the BN/IN
    mixture on features of `shape`, which needs two features per row."""
    if len(shape) == 2 and shape[1] == 1:
        raise ShapeError("IN undefined for single-feature rows")
    if logits.shape != (2,):
        raise ShapeError(f"{op}: mix_logits shape {logits.shape} != (2,)")
    e = np.exp(logits - np.maximum.reduce(logits, 0, keepdims=True))
    return e / np.add.reduce(e, 0, keepdims=True)


def _standardize_grad(g_hat: np.ndarray, xhat: np.ndarray, sigma: np.ndarray,
                      axes: tuple[int, ...]) -> np.ndarray:
    """Gradient through `_standardize`, the moments included (Ioffe &
    Szegedy 2015): (g - mean(g) - xhat * mean(g * xhat)) / sigma."""
    n = _count(g_hat.shape, axes)
    out = g_hat - np.add.reduce(g_hat, axes, keepdims=True) / n
    out -= xhat * (np.add.reduce(g_hat * xhat, axes, keepdims=True) / n)
    out /= sigma
    return out


def _channel_shape(op: str, x: Tensor, axes: tuple[int, ...], *params: Tensor):
    """Broadcast shape of a per-channel parameter against `x` (1 on every
    axis in `axes`); every param must hold one value per channel."""
    want = tuple(n for a, n in enumerate(x.shape) if a not in axes)
    for p in params:
        if p.shape != want:
            raise ShapeError(f"{op}: parameter shape {p.shape} != {want} for input {x.shape}")
    return tuple(1 if a in axes else n for a, n in enumerate(x.shape))


def segment_norm(x: Tensor, group_rows: Sequence[np.ndarray | slice],
                 params: Sequence[tuple[Tensor, Tensor, Tensor | None]], eps: float,
                 relu: bool = False) -> tuple[Tensor, list[tuple[np.ndarray, np.ndarray]]]:
    """Train-mode normalization of disjoint row groups of rank-2 or rank-4
    features as one node.

    Group k's rows `x[group_rows[k]]` are standardized with that group's
    own batch moments (`_feature_axes`) and take `params[k] = (gamma, beta,
    mix_logits or None)`. Mixture logits make it the BN/IN mixture:
    softmax(mix_logits) weights the batch standardization and the instance
    one before the per-channel affine. A sole group
    `slice(None)` is the whole batch and is computed directly; otherwise no
    row may lie in two groups, a slice group is a view, and rows in no
    group come out 0. `relu` clamps the output at 0 in the same node.
    Returns (out, [(batch mean, batch variance) per group]), the moments
    one value per channel.
    """
    if len(group_rows) != len(params):
        raise ShapeError(
            f"segment_norm: {len(group_rows)} row groups for {len(params)} parameter sets")
    bn_axes, in_axes = _feature_axes(x.ndim)
    pshape = _channel_shape("segment_norm", x, bn_axes,
                            *(p for gamma, beta, _ in params for p in (gamma, beta)))
    whole = (len(group_rows) == 1 and isinstance(group_rows[0], slice)
             and group_rows[0] == slice(None))
    out = None if whole else np.zeros(x.data.shape)
    inputs, saved, moments = [x], [], []
    for idx, (gamma, beta, mix) in zip(group_rows, params):
        w = None if mix is None else _mix_weights("segment_norm", x.shape, mix.data)
        block = x.data if whole else x.data[idx]
        xhat, sigma, mu, var = _standardize(block, eps, bn_axes)
        if mix is None:
            inputs += (gamma, beta)
            in_hat = in_sigma = None
            mixed = xhat
        else:
            inputs += (gamma, beta, mix)
            in_hat, in_sigma, _, _ = _standardize(block, eps, in_axes)
            mixed = xhat * w[0:1]
            mixed += in_hat * w[1:2]
        gv = gamma.data.reshape(pshape)
        y = mixed * gv
        y += beta.data.reshape(pshape)
        if whole:
            out = y
        else:
            out[idx] = y
        saved.append((idx, gamma, beta, mix, gv, xhat, sigma, w, in_hat, in_sigma, mixed))
        moments.append((mu.ravel(), var.ravel()))
    if relu:
        mask = out > 0.0
        np.maximum(out, 0.0, out=out)

    def rule(g: np.ndarray):
        if relu:
            g = g * mask
        need_x = x.requires_grad
        gx = np.zeros(x.data.shape) if need_x and not whole else None
        grads = [gx]
        for idx, gamma, beta, mix, gv, xhat, sigma, w, in_hat, in_sigma, mixed in saved:
            g_k = g if whole else g[idx]
            g_hat = g_k * gv
            if need_x:
                if w is None:
                    gx_k = _standardize_grad(g_hat, xhat, sigma, bn_axes)
                else:
                    gx_k = _standardize_grad(g_hat * w[0:1], xhat, sigma, bn_axes)
                    gx_k += _standardize_grad(g_hat * w[1:2], in_hat, in_sigma, in_axes)
                if whole:
                    grads[0] = gx_k
                else:
                    gx[idx] = gx_k
            grads.append(np.add.reduce(g_k * mixed, bn_axes) if gamma.requires_grad else None)
            grads.append(np.add.reduce(g_k, bn_axes) if beta.requires_grad else None)
            if mix is not None:
                gl = None
                if mix.requires_grad:
                    gw = np.array([np.add.reduce(g_hat * xhat, None),
                                   np.add.reduce(g_hat * in_hat, None)])
                    gl = (gw - np.add.reduce(gw * w)) * w
                grads.append(gl)
        return tuple(grads)

    return _record("segment_norm", inputs, out, rule), moments


def _check_labels(op: str, a: Tensor, labels: np.ndarray) -> np.ndarray:
    """`labels` as an array of one class index per row of rank-2 `a`."""
    if a.ndim != 2:
        raise ShapeError(f"{op}: expected rank-2 input, got {a.shape}")
    labels = np.asarray(labels)
    n, c = a.shape
    if labels.shape != (n,):
        raise ShapeError(f"{op}: labels shape {labels.shape} != ({n},)")
    if np.minimum.reduce(labels, initial=0) < 0 or np.maximum.reduce(labels, initial=-1) >= c:
        raise ValueError(f"{op}: label out of range [0, {c})")
    return labels


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  aux: Sequence[tuple[Tensor, np.ndarray]] = (),
                  aux_scale: float = 1.0) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax logits,
    plus `aux_scale` times the sum of the same over the `aux` heads, as one
    node: ce + aux_scale * (ce_1 + ... + ce_k).

    Each head's term has the bits of mean(neg(gather_labels(log_softmax)));
    the terms combine by the float operations, in the order, of the
    add/mul chain `ce + aux_scale * (ce_1 + ... + ce_k)`, whose gradients
    (1 for the first head, `aux_scale` for each aux head) the backward
    applies."""
    heads = [(logits, labels, 1.0)] + [(z, y, aux_scale) for z, y in aux]
    saved, terms = [], []
    for z, y, scale in heads:
        y = _check_labels("cross_entropy", z, y)
        n = z.shape[0]
        rows = np.arange(n)
        shifted = z.data - np.maximum.reduce(z.data, 1, keepdims=True)
        log_p = shifted - np.log(np.add.reduce(np.exp(shifted), 1, keepdims=True))
        terms.append(np.add.reduce(-log_p[rows, y], 0) / n)
        saved.append((scale, n, rows, y, log_p))
    # sum(terms[2:], terms[1]) adds left to right, as the add chain does
    out = terms[0] if len(terms) == 1 else terms[0] + sum(terms[2:], terms[1]) * aux_scale

    def rule(g: np.ndarray):
        grads = []
        for scale, n, rows, y, log_p in saved:
            g_pick = -(g * scale / n)
            g_log_p = np.zeros(log_p.shape)
            g_log_p[rows, y] = g_pick
            grads.append(g_log_p - np.exp(log_p) * g_pick)
        return tuple(grads)

    return _record("cross_entropy", [z for z, _, _ in heads], out, rule)
