"""Tensor engine: forward semantics, tape structure, gradient fidelity."""

import numpy as np
import pytest

from helpers import (
    add,
    div,
    exp,
    gather_labels,
    grad_check,
    log,
    log_softmax,
    matmul,
    power,
    relu,
    scatter_rows,
    softmax,
    sqrt,
    sub,
)
from normaug import tensor as T
from normaug.gradcheck import grad_check_params
from normaug.tensor import Tensor, backward


class TestForwardBasics:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(matmul(a, eye).data, a.data)

    def test_relu_definition(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_mean_axis0(self):
        out = T.mean(Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0)
        assert np.array_equal(out.data, [3.0, 5.0])

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(T.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_broadcast_shape_error(self):
        with pytest.raises(T.ShapeError, match="add"):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_forward_determinism(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 4))
        w = rng.standard_normal((4, 3))
        a = softmax(matmul(Tensor(x), Tensor(w)), axis=1).data
        b = softmax(matmul(Tensor(x), Tensor(w)), axis=1).data
        assert np.array_equal(a, b)

    def test_no_nan_on_finite_inputs(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((6, 5)))
        out = log_softmax(add(relu(x), Tensor(1e-3)), axis=1)
        assert np.all(np.isfinite(out.data))


class TestBackwardBasics:
    def test_square_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        backward((x * x).sum())
        assert np.allclose(x.grad, [6.0])

    def test_constant_loss_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * 0.0).sum()
        backward(loss)
        assert np.array_equal(x.grad, [0.0, 0.0])

    def test_uniform_ce_gradient(self):
        # two classes, equal logits: d loss / d logits = softmax - onehot
        logits = Tensor([[0.0, 0.0]], requires_grad=True)
        backward(T.cross_entropy(logits, np.array([0])))
        assert np.allclose(logits.grad, [[-0.5, 0.5]])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.ShapeError, match="scalar"):
            backward(x * 2.0)

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        first = x.grad.copy()
        backward((x * x).sum())
        assert np.array_equal(x.grad, 2 * first)

    def test_reused_input_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        backward(add(x * x, x).sum())  # d/dx (x^2 + x) = 2x + 1
        assert np.allclose(x.grad, [7.0])

    def test_only_leaves_keep_grad(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * 2.0
        loss = (y * y).sum()
        backward(loss)
        assert np.allclose(x.grad, [24.0])
        assert y.grad is None and loss.grad is None

    def test_no_grad_suppresses_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = x * 2.0
        assert y.node is None and not y.requires_grad


class TestTape:
    def test_topological_order(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        b = add(a, Tensor(1.0))
        c = a * b
        tape = T.Tape.trace(c)
        pos = {id(t): i for i, t in enumerate(tape.entries)}
        for t in tape.entries:
            for parent in t.node.inputs:
                if parent.node is not None:
                    assert pos[id(parent)] < pos[id(t)]

    def test_diamond_graph_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        loss = (a * a).sum()  # (3x)^2 -> 18x
        backward(loss)
        assert np.allclose(x.grad, [36.0])


def _gradcheck_case(fn, shape, rng, low=-2.0, high=2.0, h=1e-5, tol=1e-6):
    x = Tensor(rng.uniform(low, high, size=shape), requires_grad=True)
    err = grad_check(fn, x, h=h)
    assert err < tol, f"gradcheck error {err:.3e}"


class TestGradCheckPerOp:
    """100 randomized trials for every differentiable operation."""

    def test_quadratic_is_tight(self):
        x = Tensor([3.0], requires_grad=True)
        assert grad_check(lambda t: (t * t).sum(), x, h=1e-5) < 1e-7

    def test_elementwise_ops(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            w = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)))
            _gradcheck_case(lambda t: power(sub(add(t * w, div(t, w)), w), 2.0).sum(), (3, 4), rng)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = Tensor(rng.uniform(0.2, 2.0, size=(3, 4))
                       * rng.choice([-1.0, 1.0], size=(3, 4)), requires_grad=True)
            assert grad_check(lambda t: (relu(t) * relu(t)).sum(), x) < 1e-6

    def test_matmul(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            b = Tensor(rng.standard_normal((4, 3)))
            _gradcheck_case(lambda t: power(matmul(t, b), 2.0).sum(), (2, 4), rng)

    def test_reductions_and_reshape(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            def fn(t):
                m = T.mean(t, axis=0, keepdims=True)
                v = T.mean(power(sub(t, m), 2.0), axis=0)
                flat = T.reshape(v * v, (1, v.shape[0]))
                return add(T.sum_(flat), T.sum_(m * m))
            _gradcheck_case(fn, (5, 3), rng)

    def test_exp_log_sqrt_power(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            _gradcheck_case(
                lambda t: add(add(log(add(exp(t), Tensor(1.0))), sqrt(add(t * t, Tensor(1.0)))),
                              power(t, 3.0)).sum(),
                (2, 5), rng, low=-1.5, high=1.5)

    def test_softmax_and_log_softmax(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            w = Tensor(rng.standard_normal((3, 4)))
            _gradcheck_case(
                lambda t: add((softmax(t, axis=1) * w).sum(),
                              (log_softmax(t, axis=1) * w).sum()),
                (3, 4), rng)

    def test_gather_scatter_rows(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            idx = rng.permutation(6)[:4]

            def fn(t):
                g = T.gather_rows(t, idx)
                s = scatter_rows(g * 2.0, idx, 6)
                return (s * s).sum()

            _gradcheck_case(fn, (6, 3), rng)

    def test_gather_labels(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            labels = rng.integers(0, 4, size=5)
            _gradcheck_case(
                lambda t: T.cross_entropy(t, labels), (5, 4), rng)

    def test_conv2d_and_pool(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            w = Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.5, requires_grad=True)
            x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
            bias = Tensor(rng.standard_normal(2), requires_grad=True)

            def fn():
                out = T.conv2d(x, w, bias, padding=1)
                return power(T.mean(out, axis=(2, 3)), 2.0).sum()

            assert grad_check_params(fn, [x, w, bias]) < 1e-6

    def test_label_out_of_range(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match="label out of range"):
            gather_labels(logits, np.array([0, 3]))


class TestConvOracle:
    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data

        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want = np.zeros((2, 4, 5, 5))
        for n in range(2):
            for o in range(4):
                for i in range(5):
                    for j in range(5):
                        want[n, o, i, j] = (
                            (xp[n, :, i:i + 3, j:j + 3] * w[o]).sum() + b[o])
        assert np.allclose(out, want, atol=1e-12)
