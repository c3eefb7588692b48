"""Fused training ops against the primitive-op composites they replace:
forward, gradients and batch moments, plus gradchecks and the tape size of
one training step. `segment_norm` is checked as whole-batch batch norm, as
the whole-batch BN/IN mixture and as per-group batch norm over a
partition's row groups."""

from collections import Counter

import numpy as np
import pytest

from helpers import (
    add,
    composite_batch_norm,
    composite_cross_entropy,
    composite_linear,
    composite_mixture_norm,
    composite_segment_batch_norm,
    relu,
    scatter_rows,
)
from normaug import datagen, training
from normaug import normbank as nb
from normaug import tensor as T
from normaug.gradcheck import grad_check_params
from normaug.model import ModelConfig, init_model
from normaug.tensor import Tensor

BN_AXES = {2: (0,), 4: (0, 2, 3)}
IN_AXES = {2: (1,), 4: (2, 3)}


def forward_backward(fn, arrays, upstream):
    """Run `fn` on fresh leaves holding `arrays`, backpropagate `upstream`
    through its output; returns (output data, extra outputs, leaf grads)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out, extra = fn(*leaves)
    T.backward((out * Tensor(upstream)).sum())
    return out.data, extra, [leaf.grad for leaf in leaves]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: unlike `np.array_equal`, -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def agree(fused, composite, arrays, upstream, grad_tol: float | None):
    """Fused vs composite: bitwise forward and extras; gradients bitwise
    (`grad_tol` None) or within `grad_tol` relative to their scale."""
    out_f, extra_f, grads_f = forward_backward(fused, arrays, upstream)
    out_c, extra_c, grads_c = forward_backward(composite, arrays, upstream)
    assert same_bits(out_f, out_c)
    assert len(extra_f) == len(extra_c)
    for a, b in zip(extra_f, extra_c):
        assert same_bits(a, b)
    for gf, gc in zip(grads_f, grads_c):
        assert gf.shape == gc.shape
        if grad_tol is None:
            assert same_bits(gf, gc)
        else:
            assert np.abs(gf - gc).max() <= grad_tol * max(1.0, np.abs(gc).max())


WHOLE = (slice(None),)


def with_moments(result):
    """(out, (mean, var)) from a composite norm's (out, mean, var)."""
    return result[0], result[1:]


def whole_batch(result):
    """(out, (mean, var)) from a one-group `segment_norm` result."""
    out, [moments] = result
    return out, moments


def flat_moments(result):
    """(out, [mean, var, mean, var, ...]) from (out, [(mean, var) per group])."""
    out, moments = result
    return out, [m for pair in moments for m in pair]


def random_shape(rng, rank: int, min_channels: int = 1) -> tuple[int, ...]:
    if rank == 2:
        return int(rng.integers(2, 25)), int(rng.integers(min_channels, 10))
    return (int(rng.integers(2, 7)), int(rng.integers(min_channels, 5)),
            int(rng.integers(1, 5)), int(rng.integers(1, 5)))


def shuffled_groups(rng, n_domains: int, rank: int):
    """Shuffled (non-contiguous) domain ids, at least 2 rows per domain, and
    the row groups of a random partition of the domains."""
    counts = rng.integers(2, 6, size=n_domains)
    ids = rng.permutation(np.repeat(np.arange(n_domains), counts))
    labels = rng.integers(0, n_domains, size=n_domains)
    groups = [np.flatnonzero(labels == k) for k in np.unique(labels)]
    rows = [np.flatnonzero(np.isin(ids, g)) for g in groups]
    shape = (ids.size,) + random_shape(rng, rank)[1:]
    return rows, shape


class TestLinear:
    def test_bitwise_matches_composite(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, fan_in, fan_out = (int(v) for v in rng.integers(1, 12, size=3))
            arrays = [rng.standard_normal((n, fan_in)), rng.standard_normal((fan_in, fan_out)),
                      rng.standard_normal(fan_out)]
            agree(lambda x, w, b: (T.linear(x, w, b), ()),
                  lambda x, w, b: (composite_linear(x, w, b), ()),
                  arrays, rng.standard_normal((n, fan_out)), grad_tol=None)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
                       for s in ((5, 4), (4, 3), (3,)))
            up = Tensor(rng.standard_normal((5, 3)))
            assert grad_check_params(lambda: (T.linear(x, w, b) * up).sum(), [x, w, b]) < 1e-6

    def test_shapes_checked(self):
        with pytest.raises(T.ShapeError, match="linear"):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


class TestCrossEntropy:
    def test_bitwise_matches_composite(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n, c = int(rng.integers(1, 20)), int(rng.integers(2, 8))
            labels = rng.integers(0, c, size=n)
            agree(lambda z: (T.cross_entropy(z, labels), ()),
                  lambda z: (composite_cross_entropy(z, labels), ()),
                  [rng.standard_normal((n, c)) * 3.0], np.array(rng.uniform(0.1, 2.0)),
                  grad_tol=None)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
            labels = rng.integers(0, 4, size=6)
            assert grad_check_params(lambda: T.cross_entropy(z, labels), [z]) < 1e-6

    @pytest.mark.parametrize("logits,labels,error", [
        (np.zeros((2, 3)), np.array([0, 3]), "label out of range"),
        (np.zeros((2, 3)), np.array([-1, 0]), "label out of range"),
        (np.zeros((2, 3)), np.array([0, 1, 2]), r"labels shape \(3,\) != \(2,\)"),
        (np.zeros(3), np.array([0]), "expected rank-2 input")])
    def test_labels_checked(self, logits, labels, error):
        with pytest.raises(ValueError, match=f"cross_entropy: {error}"):
            T.cross_entropy(Tensor(logits, requires_grad=True), labels)


def composite_two_path_loss(heads, aux_scale):
    """ce_0 + aux_scale * (ce_1 + ... + ce_k) from `composite_cross_entropy`
    per head, joined by add and mul nodes."""
    loss = composite_cross_entropy(*heads[0])
    if len(heads) > 1:
        aux = composite_cross_entropy(*heads[1])
        for z, y in heads[2:]:
            aux = add(aux, composite_cross_entropy(z, y))
        loss = add(loss, aux_scale * aux)
    return loss


class TestMultiHeadCrossEntropy:
    """`cross_entropy` with aux heads: one node with the bits of the per-head
    composite joined by add/mul nodes."""

    def random_heads(self, rng, k: int):
        c = int(rng.integers(2, 8))
        arrays, labels = [], []
        for _ in range(k + 1):
            n = int(rng.integers(1, 20))
            arrays.append(rng.standard_normal((n, c)) * 3.0)
            labels.append(rng.integers(0, c, size=n))
        return arrays, labels

    def test_bitwise_matches_composite(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            arrays, labels = self.random_heads(rng, int(rng.integers(0, 5)))
            scale = float(rng.uniform(0.1, 2.0))
            agree(lambda *z: (T.cross_entropy(z[0], labels[0], list(zip(z[1:], labels[1:])),
                                              scale), ()),
                  lambda *z: (composite_two_path_loss(list(zip(z, labels)), scale), ()),
                  arrays, np.array(rng.uniform(0.1, 2.0)), grad_tol=None)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            arrays, labels = self.random_heads(rng, k)
            z = [Tensor(a, requires_grad=True) for a in arrays]
            assert grad_check_params(
                lambda: T.cross_entropy(z[0], labels[0], list(zip(z[1:], labels[1:])), 0.6),
                z) < 1e-6

    def test_aux_labels_checked(self):
        with pytest.raises(ValueError, match="cross_entropy: label out of range"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]),
                            [(Tensor(np.zeros((2, 3))), np.array([0, 3]))])


def param_triples(leaves, mixed):
    """(gamma, beta, mix_logits or None) per group from the parameter leaves."""
    out, it = [], iter(leaves)
    for has_mix in mixed:
        out.append((next(it), next(it), next(it) if has_mix else None))
    return out


class TestBatchNorm:
    """`segment_norm` with one whole-batch group and no mixture."""

    @pytest.mark.parametrize("rank", [2, 4])
    def test_matches_composite(self, rank):
        rng = np.random.default_rng(4 + rank)
        for _ in range(100):
            shape = random_shape(rng, rank)
            c, eps = shape[1], float(rng.choice([1e-5, 1e-3]))
            arrays = [rng.standard_normal(shape) * rng.uniform(0.5, 4.0) + rng.uniform(-3, 3),
                      rng.uniform(0.5, 2.0, c), rng.standard_normal(c)]
            axes = BN_AXES[rank]
            agree(lambda x, g, b: whole_batch(T.segment_norm(x, WHOLE, [(g, b, None)], eps,
                                                             axes, IN_AXES[rank])),
                  lambda x, g, b: with_moments(composite_batch_norm(x, g, b, eps, axes)),
                  arrays, rng.standard_normal(shape), grad_tol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 3), (3, 2, 3, 2)])
    def test_gradcheck(self, shape):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            g = Tensor(rng.uniform(0.5, 2.0, shape[1]), requires_grad=True)
            b = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
            up = Tensor(rng.standard_normal(shape))

            def fn():
                rank = len(shape)
                out = T.segment_norm(x, WHOLE, [(g, b, None)], 1e-5, BN_AXES[rank],
                                     IN_AXES[rank])[0]
                return (out * up).sum()

            assert grad_check_params(fn, [x, g, b]) < 1e-6

    def test_parameter_shape_checked(self):
        with pytest.raises(T.ShapeError, match=r"segment_norm: parameter shape \(2,\)"):
            T.segment_norm(Tensor(np.ones((4, 3))), WHOLE,
                           [(Tensor(np.ones(2)), Tensor(np.ones(2)), None)], 1e-5, (0,), (1,))

    def test_group_count_checked(self):
        one = Tensor(np.ones(3))
        with pytest.raises(T.ShapeError, match="2 row groups for 1 parameter sets"):
            T.segment_norm(Tensor(np.ones((4, 3))), [np.arange(2), np.arange(2, 4)],
                           [(one, one, None)], 1e-5, (0,), (1,))


class TestMixtureNorm:
    """`segment_norm` with one whole-batch group carrying mixture logits."""

    @pytest.mark.parametrize("rank", [2, 4])
    def test_matches_composite(self, rank):
        rng = np.random.default_rng(7 + rank)
        for _ in range(100):
            shape = random_shape(rng, rank, min_channels=2)
            c, eps = shape[1], float(rng.choice([1e-5, 1e-3]))
            arrays = [rng.standard_normal(shape) * rng.uniform(0.5, 4.0) + rng.uniform(-3, 3),
                      rng.uniform(0.5, 2.0, c), rng.standard_normal(c),
                      rng.standard_normal(2)]
            args = (eps, BN_AXES[rank], IN_AXES[rank])
            agree(lambda x, g, b, m: whole_batch(T.segment_norm(x, WHOLE, [(g, b, m)], *args)),
                  lambda x, g, b, m: with_moments(composite_mixture_norm(x, g, b, m, *args)),
                  arrays, rng.standard_normal(shape), grad_tol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 3), (3, 2, 3, 2)])
    def test_gradcheck(self, shape):
        rng = np.random.default_rng(10)
        rank = len(shape)
        for _ in range(10):
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            g = Tensor(rng.uniform(0.5, 2.0, shape[1]), requires_grad=True)
            b = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
            m = Tensor(rng.standard_normal(2), requires_grad=True)
            up = Tensor(rng.standard_normal(shape))

            def fn():
                out = T.segment_norm(x, WHOLE, [(g, b, m)], 1e-5, BN_AXES[rank],
                                     IN_AXES[rank])[0]
                return (out * up).sum()

            assert grad_check_params(fn, [x, g, b, m]) < 1e-6

    def test_single_feature_rows_rejected(self):
        one = Tensor(np.ones(1))
        with pytest.raises(T.ShapeError, match="IN undefined for single-feature rows"):
            T.segment_norm(Tensor(np.ones((4, 1))), WHOLE, [(one, one, Tensor(np.zeros(2)))],
                           1e-5, (0,), (1,))

    def test_mix_logits_shape_checked(self):
        one = Tensor(np.ones(3))
        with pytest.raises(T.ShapeError, match=r"mix_logits shape \(3,\) != \(2,\)"):
            T.segment_norm(Tensor(np.ones((4, 3))), WHOLE, [(one, one, Tensor(np.zeros(3)))],
                           1e-5, (0,), (1,))

    @pytest.mark.parametrize("rank", [2, 4])
    def test_mixture_groups_match_gather_scatter_composite(self, rank):
        """Partition groups that carry mixture logits, beside plain ones."""
        rng = np.random.default_rng(16 + rank)
        for _ in range(30):
            rows, shape = shuffled_groups(rng, int(rng.integers(2, 5)), rank)
            shape = shape[:1] + (max(shape[1], 2),) + shape[2:]
            c, k = shape[1], len(rows)
            mixed = [bool(rng.integers(2)) for _ in range(k)]
            arrays = [rng.standard_normal(shape) * rng.uniform(0.5, 4.0) + rng.uniform(-3, 3)]
            for has_mix in mixed:
                arrays += [rng.uniform(0.5, 2.0, c), rng.standard_normal(c)]
                arrays += [rng.standard_normal(2)] if has_mix else []
            args = (1e-5, BN_AXES[rank], IN_AXES[rank])

            def composite(x, *p):
                out, moments = None, []
                for idx, (g, b, m) in zip(rows, param_triples(p, mixed)):
                    block = T.gather_rows(x, idx)
                    y, mu, var = (composite_batch_norm(block, g, b, args[0], args[1])
                                  if m is None else composite_mixture_norm(block, g, b, m, *args))
                    placed = scatter_rows(y, idx, x.shape[0])
                    out = placed if out is None else add(out, placed)
                    moments += [mu, var]
                return out, moments

            agree(lambda x, *p: flat_moments(T.segment_norm(x, rows, param_triples(p, mixed),
                                                            *args)),
                  composite, arrays, rng.standard_normal(shape), grad_tol=1e-12)


def array_weight_grads(x, gamma, mix, g, eps, bn_axes, in_axes):
    """The x and mix-logit gradients of the whole-batch mixture by the
    closed form of `segment_norm`'s backward, with the two mixture weights
    as (1,) arrays `w[0:1]`, `w[1:2]`."""
    e = np.exp(mix - np.maximum.reduce(mix, 0, keepdims=True))
    w = e / np.add.reduce(e, 0, keepdims=True)
    xhat, sigma, _, _ = T._standardize(x, eps, bn_axes)
    in_hat, in_sigma, _, _ = T._standardize(x, eps, in_axes)
    g_hat = g * gamma.reshape([1 if a in bn_axes else n for a, n in enumerate(x.shape)])
    gx = T._standardize_grad(g_hat * w[0:1], xhat, sigma, bn_axes)
    gx += T._standardize_grad(g_hat * w[1:2], in_hat, in_sigma, in_axes)
    gw = np.array([np.add.reduce(g_hat * xhat, None), np.add.reduce(g_hat * in_hat, None)])
    return gx, (gw - np.add.reduce(gw * w)) * w


class TestMixtureWeights:
    """`segment_norm` with equal mixture logits and with a logit gap of 800,
    which underflows one weight to exactly 0. The output, the moments and
    the gamma and beta gradients have the composite's bits. The x and
    mix-logit gradients (a closed form, within 1e-12 of the composite) have
    the bits of `array_weight_grads`."""

    @pytest.mark.parametrize("logits", [(0.0, 0.0), (2.5, 2.5), (0.0, 800.0), (800.0, 0.0),
                                        (-0.3, 0.7)])
    @pytest.mark.parametrize("rank", [2, 4])
    def test_bits(self, rank, logits):
        rng = np.random.default_rng(30 + rank)
        args = (1e-5, BN_AXES[rank], IN_AXES[rank])
        for _ in range(25):
            shape = random_shape(rng, rank, min_channels=2)
            c = shape[1]
            arrays = [rng.standard_normal(shape) * rng.uniform(0.5, 4.0) + rng.uniform(-3, 3),
                      rng.uniform(0.5, 2.0, c), rng.standard_normal(c), np.array(logits)]
            up = rng.standard_normal(shape)
            out, moments, grads = forward_backward(
                lambda x, g, b, m: whole_batch(T.segment_norm(x, WHOLE, [(g, b, m)], *args)),
                arrays, up)
            out_c, moments_c, grads_c = forward_backward(
                lambda x, g, b, m: with_moments(composite_mixture_norm(x, g, b, m, *args)),
                arrays, up)
            assert same_bits(out, out_c)
            assert all(same_bits(a, b) for a, b in zip(moments, moments_c))
            assert same_bits(grads[1], grads_c[1]) and same_bits(grads[2], grads_c[2])
            gx, gm = array_weight_grads(arrays[0], arrays[1], arrays[3], up, *args)
            assert same_bits(grads[0], gx) and same_bits(grads[3], gm)
            for g, g_c in ((grads[0], grads_c[0]), (grads[3], grads_c[3])):
                assert np.abs(g - g_c).max() <= 1e-12 * max(1.0, np.abs(g_c).max())
            if abs(logits[0] - logits[1]) == 800.0:
                assert np.exp(-800.0) == 0.0  # one weight is 0, the other 1
                assert not grads[3].any() and same_bits(grads[3], grads_c[3])


class TestSegmentBatchNorm:
    """`segment_norm` over a partition's row groups, no mixture."""

    @pytest.mark.parametrize("rank", [2, 4])
    def test_matches_gather_scatter_composite(self, rank):
        rng = np.random.default_rng(11 + rank)
        for _ in range(100):
            rows, shape = shuffled_groups(rng, int(rng.integers(2, 5)), rank)
            c, k, eps = shape[1], len(rows), float(rng.choice([1e-5, 1e-3]))
            arrays = [rng.standard_normal(shape) * rng.uniform(0.5, 4.0) + rng.uniform(-3, 3)]
            arrays += [a for _ in range(k) for a in (rng.uniform(0.5, 2.0, c),
                                                    rng.standard_normal(c))]

            def pairs(leaves):
                return list(zip(leaves[0::2], leaves[1::2]))

            def fused(x, *p):
                triples = [(g, b, None) for g, b in pairs(p)]
                return flat_moments(T.segment_norm(x, rows, triples, eps, BN_AXES[rank],
                                                   IN_AXES[rank]))

            def composite(x, *p):
                return flat_moments(composite_segment_batch_norm(x, rows, pairs(p), eps,
                                                                 BN_AXES[rank]))

            agree(fused, composite, arrays, rng.standard_normal(shape), grad_tol=1e-12)

    @pytest.mark.parametrize("rank", [2, 4])
    def test_gradcheck(self, rank):
        rng = np.random.default_rng(14)
        for _ in range(5):
            rows, shape = shuffled_groups(rng, 3, rank)
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            params = [(Tensor(rng.uniform(0.5, 2.0, shape[1]), requires_grad=True),
                       Tensor(rng.standard_normal(shape[1]), requires_grad=True), None)
                      for _ in rows]
            up = Tensor(rng.standard_normal(shape))

            def fn():
                return (T.segment_norm(x, rows, params, 1e-5, BN_AXES[rank], IN_AXES[rank])[0]
                        * up).sum()

            assert grad_check_params(fn, [x] + [t for g, b, _ in params for t in (g, b)]) < 1e-6

    @pytest.mark.parametrize("partition", nb.enumerate_reduced_combinations(3), ids=repr)
    def test_partitioned_running_moments_match_composite(self, partition):
        rng = np.random.default_rng(15)
        ids = rng.permutation(np.repeat(np.arange(3), [3, 5, 4]))
        x = rng.standard_normal((ids.size, 4)) * 2.0 + 1.0
        fused_bank, oracle_bank = nb.BNBank(3, 4), nb.BNBank(3, 4)
        nb.partitioned_forward(fused_bank, partition, Tensor(x), ids)
        oracle_units = [oracle_bank.unit(g) for g in partition]
        _, moments = composite_segment_batch_norm(
            Tensor(x), [g.rows(ids) for g in partition],
            [(u.gamma, u.beta) for u in oracle_units], oracle_bank.eps, (0,))
        for unit, (mu, var) in zip(oracle_units, moments):
            unit.update_running(mu, var)
        for group in oracle_bank.subsets():
            got, want = fused_bank.units[group], oracle_bank.units[group]
            assert np.array_equal(got.running_mean, want.running_mean)
            assert np.array_equal(got.running_var, want.running_var)
            assert got.update_count == want.update_count


NORM_KINDS = ("bn", "mixture", "index_groups", "slice_groups")


def norm_case(rng, kind: str, rank: int):
    """Row groups, which groups carry mixture logits, the leaf arrays (x,
    then gamma, beta and any mix logits per group) and an upstream gradient
    for one `segment_norm` call: one whole-batch group without or with the
    mixture, or a random partition's groups, shuffled (index arrays) or laid
    out block by block (slices)."""
    if kind in ("bn", "mixture"):
        rows, mixed = list(WHOLE), [kind == "mixture"]
        shape = random_shape(rng, rank, min_channels=2)
    elif kind == "index_groups":
        rows, shape = shuffled_groups(rng, int(rng.integers(2, 5)), rank)
        shape = shape[:1] + (max(shape[1], 2),) + shape[2:]
    else:
        bounds = np.cumsum(np.concatenate([[0], rng.integers(2, 8, size=rng.integers(2, 5))]))
        rows = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        shape = (int(bounds[-1]),) + random_shape(rng, rank, min_channels=2)[1:]
    if kind in ("index_groups", "slice_groups"):
        mixed = [bool(rng.integers(2)) for _ in rows]
    c = shape[1]
    arrays = [rng.standard_normal(shape) * rng.uniform(0.5, 4.0) + rng.uniform(-3, 3)]
    for has_mix in mixed:
        arrays += [rng.uniform(0.5, 2.0, c), rng.standard_normal(c)]
        arrays += [rng.standard_normal(2)] if has_mix else []
    return rows, mixed, arrays, rng.standard_normal(shape)


class TestReluEpilogue:
    """`segment_norm(..., relu=True)` against `relu(segment_norm(...))`, and
    slice groups against the same groups as index arrays."""

    @pytest.mark.parametrize("kind", NORM_KINDS)
    @pytest.mark.parametrize("rank", [2, 4])
    def test_bitwise_matches_relu_composite(self, kind, rank):
        rng = np.random.default_rng(30 + rank)
        for _ in range(40):
            rows, mixed, arrays, up = norm_case(rng, kind, rank)
            args = (1e-5, BN_AXES[rank], IN_AXES[rank])

            def composite(x, *p):
                out, moments = flat_moments(T.segment_norm(x, rows, param_triples(p, mixed),
                                                           *args))
                return relu(out), moments

            agree(lambda x, *p: flat_moments(T.segment_norm(x, rows, param_triples(p, mixed),
                                                            *args, relu=True)),
                  composite, arrays, up, grad_tol=None)

    @pytest.mark.parametrize("apply_relu", [False, True])
    @pytest.mark.parametrize("rank", [2, 4])
    def test_slice_groups_bitwise_match_index_groups(self, rank, apply_relu):
        rng = np.random.default_rng(40 + rank)
        for _ in range(40):
            rows, mixed, arrays, up = norm_case(rng, "slice_groups", rank)
            index_rows = [np.arange(s.start, s.stop) for s in rows]
            args = (1e-5, BN_AXES[rank], IN_AXES[rank])
            agree(lambda x, *p: flat_moments(T.segment_norm(x, rows, param_triples(p, mixed),
                                                            *args, relu=apply_relu)),
                  lambda x, *p: flat_moments(T.segment_norm(
                      x, index_rows, param_triples(p, mixed), *args, relu=apply_relu)),
                  arrays, up, grad_tol=None)

    @pytest.mark.parametrize("kind", NORM_KINDS)
    @pytest.mark.parametrize("rank", [2, 4])
    def test_gradcheck(self, kind, rank):
        rng = np.random.default_rng(50 + rank)
        for _ in range(5):
            rows, mixed, arrays, up = norm_case(rng, kind, rank)
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            params = param_triples(leaves[1:], mixed)

            def fn():
                out = T.segment_norm(leaves[0], rows, params, 1e-5, BN_AXES[rank],
                                     IN_AXES[rank], relu=True)[0]
                return (out * Tensor(up)).sum()

            assert grad_check_params(fn, leaves) < 1e-6


class TestGatherRowsSlice:
    """`gather_rows` with a slice: a view, with the bits of the index-array
    form in the forward and the backward."""

    def test_bitwise_matches_index_rows(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            a, b = sorted(int(v) for v in rng.choice(n + 1, 2, replace=False))
            arrays = [rng.standard_normal((n, int(rng.integers(1, 6))))]
            up = rng.standard_normal((b - a, arrays[0].shape[1]))
            agree(lambda x: (T.gather_rows(x, slice(a, b)), []),
                  lambda x: (T.gather_rows(x, np.arange(a, b)), []),
                  arrays, up, grad_tol=None)

    def test_selects_a_view(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(x, slice(1, 3))
        assert np.shares_memory(out.data, x.data)
        assert np.array_equal(out.data, x.data[1:3])

    def test_gradcheck(self):
        rng = np.random.default_rng(61)
        x = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        up = Tensor(rng.standard_normal((4, 3)))
        assert grad_check_params(lambda: (T.gather_rows(x, slice(2, 6)) * up).sum(), [x]) < 1e-6


class TestTapeSize:
    """One train step of the default model records a few nodes per layer,
    one `segment_norm` node per normalization site (its ReLU included) and
    one loss node, and routes no normalization rows through gather/scatter
    nodes. Every op
    recorded is one `normaug.tensor` defines; the primitive oracle ops of
    `helpers` never reach a training tape."""

    TRAINING_OPS = {"conv2d", "mean", "segment_norm", "linear", "gather_rows",
                    "cross_entropy"}

    def ops(self, use_aug: bool, partition, backbone: str = "mlp") -> Counter:
        model = init_model(ModelConfig(input_dim=datagen.DEFAULT_FEATURE_DIM, use_aug=use_aug,
                                       backbone=backbone), seed=0)
        rng = np.random.default_rng(0)
        per_domain = training.TrainConfig().batch_per_domain
        x = rng.standard_normal((3 * per_domain, datagen.DEFAULT_FEATURE_DIM))
        labels = rng.integers(0, 5, size=x.shape[0])
        ids = np.repeat(np.arange(3), per_domain)
        logits, _ = model.forward_main(x, mode="train")
        blocks = model.forward_aux(x, ids, partition, mode="train") if use_aug else None
        loss = training.two_path_loss(logits, labels, blocks)
        ops = Counter(t.node.op for t in T.Tape.trace(loss).entries)
        assert set(ops) <= self.TRAINING_OPS
        return ops

    @pytest.mark.parametrize("partition", nb.enumerate_reduced_combinations(3), ids=repr)
    def test_on_aug_step(self, partition):
        ops = self.ops(True, partition)
        # 7 main-route nodes, 6 bank-route ones, a gather and a linear per group
        # feeding that group's classifier, one loss node
        assert sum(ops.values()) == {3: 20, 2: 18}[len(partition)]
        assert ops["cross_entropy"] == 1
        # three main-route sites and three bank sites
        assert ops["segment_norm"] == 6
        assert ops["scatter_rows"] == 0
        assert ops["gather_rows"] == len(partition)

    def test_on_step(self):
        ops = self.ops(False, None)
        assert sum(ops.values()) == 8
        assert ops["cross_entropy"] == 1
        assert ops["segment_norm"] == 3
        assert ops["gather_rows"] == ops["scatter_rows"] == 0

    @pytest.mark.parametrize("partition", nb.enumerate_reduced_combinations(3), ids=repr)
    def test_smallconv_on_aug_step(self, partition):
        ops = self.ops(True, partition, "smallconv")
        # per route 3 conv2d, 3 segment_norm and the pooling mean; the main
        # classifier, a gather and a linear per group, one loss node
        assert sum(ops.values()) == {3: 22, 2: 20}[len(partition)]
        assert ops == Counter(conv2d=6, segment_norm=6, mean=2, cross_entropy=1,
                              gather_rows=len(partition), linear=1 + len(partition))

    def test_smallconv_on_step(self):
        ops = self.ops(False, None, "smallconv")
        assert sum(ops.values()) == 9
        assert ops == Counter(conv2d=3, segment_norm=3, mean=1, linear=1,
                              cross_entropy=1)
