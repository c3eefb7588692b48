"""Partition-aware normalization: statistics oracle equivalence, routing,
parameter sharing, enumeration counts, gradient fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_sum_softmax, mean_method_stats, same_bits, two_pass_stats
from normaug import normbank as nb
from normaug import tensor as T
from normaug.gradcheck import grad_check_params
from normaug.normbank import (
    BNBank,
    BNUnit,
    DomainSubset,
    ONUnit,
    Partition,
    all_singletons,
    bn_forward,
    compute_batch_stats,
    enumerate_full_combinations,
    enumerate_reduced_combinations,
    eval_normalize,
    on_forward,
    partitioned_forward,
    pooled_moments,
)
from normaug.tensor import Tensor


def subsets_of(p: Partition) -> set[tuple[int, ...]]:
    return {g.indices for g in p}


class TestBatchStats:
    def test_two_point_column(self):
        mu, sigma = compute_batch_stats(np.array([[1.0], [3.0]]), eps=0.0)
        assert mu[0] == 2.0 and sigma[0] == 1.0

    def test_constant_column_eps(self):
        mu, sigma = compute_batch_stats(np.array([[5.0], [5.0], [5.0]]), eps=1e-5)
        assert mu[0] == 5.0 and sigma[0] == np.sqrt(1e-5)

    def test_random_block_matches_oracle(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((16, 8)) * 3.0 + 1.0
        mu, sigma = compute_batch_stats(block, eps=1e-5)
        mu_o, sigma_o = two_pass_stats(block, eps=1e-5)
        assert np.allclose(mu, mu_o, atol=1e-12)
        assert np.allclose(sigma, sigma_o, atol=1e-12)

    def test_row_selection(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((10, 4))
        rows = np.array([1, 3, 7])
        mu, sigma = compute_batch_stats(block, rows, eps=0.0)
        mu_o, sigma_o = two_pass_stats(block[rows], eps=0.0)
        assert np.allclose(mu, mu_o, atol=1e-12)
        assert np.allclose(sigma, sigma_o, atol=1e-12)

    def test_rank4_pools_space(self):
        rng = np.random.default_rng(2)
        block = rng.standard_normal((5, 3, 4, 4))
        mu, sigma = compute_batch_stats(block, eps=1e-5)
        mu_o, sigma_o = two_pass_stats(block, eps=1e-5)
        assert np.allclose(mu, mu_o, atol=1e-12)
        assert np.allclose(sigma, sigma_o, atol=1e-12)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty sub-batch"):
            compute_batch_stats(np.ones((4, 2)), np.array([], dtype=int))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(2, 24), cols=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_oracle_equivalence_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        block = rng.uniform(-5.0, 5.0, size=(rows, cols))
        mu, sigma = compute_batch_stats(block, eps=1e-5)
        mu_o, sigma_o = two_pass_stats(block, eps=1e-5)
        assert np.allclose(mu, mu_o, atol=1e-12)
        assert np.allclose(sigma, sigma_o, atol=1e-12)


def random_block(rng, rank: int) -> np.ndarray:
    """A rank-2 or rank-4 block of 1 to 9 rows, scaled and shifted, with one
    column made constant half the time."""
    shape = (int(rng.integers(1, 10)), int(rng.integers(1, 9)))
    if rank == 4:
        shape = shape[:1] + (int(rng.integers(1, 5)),) + tuple(rng.integers(1, 4, 2).tolist())
    block = rng.standard_normal(shape) * rng.uniform(0.1, 50.0) + rng.uniform(-20.0, 20.0)
    if rng.integers(2):
        block[:, int(rng.integers(shape[1]))] = rng.uniform(-20.0, 20.0)
    return block


class TestNormalizationRule:
    """`tensor` owns the normalization rule: its moments and mixture weights
    keep the bits of the formulas they replaced (`ndarray.mean`, and
    `.max()` / `.sum()`), and a rank-3 input is the one ShapeError."""

    @pytest.mark.parametrize("rank", [2, 4])
    def test_moments_have_the_mean_method_bits(self, rank):
        rng = np.random.default_rng(60 + rank)
        blocks = [random_block(rng, rank) for _ in range(600)]
        blocks += [np.array([[1.5, -2.0, 7.0]]), np.full((5, 3), 0.1),
                   np.full((1, 2, 3, 3), -3.3), np.full((4, 2, 2, 1), 1e9 + 0.1)]
        for block in (b for b in blocks if b.ndim == rank):
            mu, var = mean_method_stats(block)
            got_mu, got_var = nb._channel_stats(block)
            assert same_bits(got_mu, mu) and same_bits(got_var, var)
            got_mu, sigma = compute_batch_stats(block, eps=1e-5)
            assert same_bits(got_mu, mu) and same_bits(sigma, np.sqrt(var + 1e-5))

    def test_mixture_weights_have_the_max_sum_bits(self):
        rng = np.random.default_rng(62)
        pairs = [rng.standard_normal(2) * rng.choice([1e-3, 1.0, 30.0, 800.0])
                 for _ in range(2000)]
        pairs += [np.array(p) for p in ((0.0, 0.0), (2.5, 2.5), (0.0, 800.0), (800.0, 0.0))]
        for logits in pairs:
            for shape in ((6, 3), (2, 3, 2, 2)):
                assert same_bits(T._mix_weights("test", shape, logits), max_sum_softmax(logits))

    def test_rank3_is_one_shape_error(self):
        x = np.ones((4, 3, 2))
        message = "^normalization expects rank-2 or rank-4 features, got rank 3$"
        unit = ONUnit(3)
        with pytest.raises(T.ShapeError, match=message):
            T.segment_norm(Tensor(x), [slice(None)], [unit.norm_params()], 1e-5)
        with pytest.raises(T.ShapeError, match=message):
            bn_forward(unit, Tensor(x))
        for u in (BNUnit(3), unit):
            with pytest.raises(T.ShapeError, match=message):
                eval_normalize(u, x)
        with pytest.raises(T.ShapeError, match=message):
            compute_batch_stats(x)
        assert unit.update_count == 0


class TestBNForward:
    def test_standardizes_two_rows(self):
        u = BNUnit(1, eps=1e-300)
        u.eps = 0.0  # exact standardization for the arithmetic check
        out = bn_forward(u, Tensor(np.array([[1.0], [3.0]])), None, "train")
        assert np.allclose(out.data, [[-1.0], [1.0]], atol=1e-12)

    def test_affine_applied(self):
        u = BNUnit(1)
        u.gamma.data = np.array([2.0])
        u.beta.data = np.array([1.0])
        out = nb.eval_normalize(u, np.array([[-1.0], [1.0]]))
        # eval with running stats (0 mean, unit var): affine on nearly raw input
        expect = 2.0 * (np.array([[-1.0], [1.0]]) / np.sqrt(1 + u.eps)) + 1.0
        assert np.allclose(out, expect, atol=1e-12)

    def test_running_update_convention(self):
        u = BNUnit(1, momentum=0.1)
        x = Tensor(np.array([[1.0], [3.0]]))  # batch mean 2, biased var 1
        bn_forward(u, x, None, "train")
        assert np.allclose(u.running_mean, [0.2])
        assert np.allclose(u.running_var, [0.9 * 1.0 + 0.1 * 1.0])
        assert u.update_count == 1

    @pytest.mark.parametrize("momentum", [0.1, 0.37, 1.0])
    def test_running_update_bitwise_matches_out_of_place_formula(self, momentum):
        rng = np.random.default_rng(17)
        u, m = BNUnit(5, momentum=momentum), momentum
        mean, var = u.running_mean.copy(), u.running_var.copy()
        for _ in range(10):
            batch_mean, batch_var = rng.standard_normal(5) * 3.0, rng.uniform(0.1, 4.0, 5)
            u.update_running(batch_mean, batch_var)
            mean = (1.0 - m) * mean + m * batch_mean
            var = (1.0 - m) * var + m * batch_var
            assert np.array_equal(u.running_mean, mean)
            assert np.array_equal(u.running_var, var)
        assert u.update_count == 10

    def test_eval_uses_running_stats_only(self):
        u = BNUnit(2)
        u.running_mean = np.array([1.0, -1.0])
        u.running_var = np.array([4.0, 0.25])
        x = np.array([[3.0, -2.0], [5.0, 0.0]])
        out = nb.eval_normalize(u, x)
        expect = (x - u.running_mean) / np.sqrt(u.running_var + u.eps)
        assert np.allclose(out, expect, atol=1e-12)
        assert u.update_count == 0

    @pytest.mark.parametrize("unit_cls", [BNUnit, ONUnit])
    def test_train_mode_only(self, unit_cls):
        u = unit_cls(2)
        x = Tensor(np.ones((4, 2)))
        with pytest.raises(ValueError, match="bn_forward: mode must be 'train', got 'eval'"):
            bn_forward(u, x, None, "eval")
        with pytest.raises(ValueError, match="bn_forward: mode must be 'train', got 'eval'"):
            on_forward(u, x, "eval")
        assert u.update_count == 0

    def test_channel_mismatch(self):
        with pytest.raises(T.ShapeError,
                           match="^bn_forward: unit has 3 channels, features have 2$"):
            bn_forward(BNUnit(3), Tensor(np.ones((4, 2))), None, "train")

    def test_channel_mismatch_names_partitioned_forward(self):
        with pytest.raises(T.ShapeError, match="^partitioned_forward: unit has 4 channels, "
                                               "features have 3$"):
            partitioned_forward(BNBank(3, 4), all_singletons(3), Tensor(np.ones((6, 3))),
                                np.repeat([0, 1, 2], 2))

    def test_channel_mismatch_names_eval_normalize(self):
        with pytest.raises(T.ShapeError,
                           match="^eval_normalize: unit has 4 channels, features have 3$"):
            eval_normalize(BNUnit(4), np.ones((6, 3)))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_rows_must_be_none(self, mode):
        u = BNUnit(2)
        with pytest.raises(ValueError, match="bn_forward: rows must be None"):
            bn_forward(u, Tensor(np.ones((4, 2))), np.array([0, 1]), mode)
        assert u.update_count == 0

    def test_group_output_is_standardized(self):
        rng = np.random.default_rng(3)
        u = BNUnit(6, eps=1e-12)
        out = bn_forward(u, Tensor(rng.standard_normal((32, 6)) * 4 + 2), None, "train")
        mu, var = out.data.mean(axis=0), out.data.var(axis=0)
        assert np.allclose(mu, 0.0, atol=1e-8)
        assert np.allclose(var, 1.0, atol=1e-8)

    def test_gradients_flow_through_batch_stats(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = BNUnit(3)
            x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
            w = rng.standard_normal((6, 3))

            def fn():
                out = bn_forward(u, x, None, "train")
                return (out * Tensor(w)).sum()

            assert grad_check_params(fn, [x, u.gamma, u.beta]) < 1e-6


class TestPartitionedForward:
    def _bank(self, n=3, c=4):
        return BNBank(n, c, eps=1e-5)

    def test_single_group_equals_plain_bn(self):
        rng = np.random.default_rng(5)
        bank = self._bank()
        full = DomainSubset.of(0, 1, 2)
        bank.units[full] = BNUnit(4, eps=1e-5)
        x = rng.standard_normal((9, 4))
        ids = np.repeat([0, 1, 2], 3)
        partition = Partition([full], 3)

        got = partitioned_forward(bank, partition, Tensor(x), ids, "train").data
        ref_unit = BNUnit(4, eps=1e-5)
        ref_unit.gamma.data = bank.units[full].gamma.data.copy()
        ref_unit.beta.data = bank.units[full].beta.data.copy()
        want = bn_forward(ref_unit, Tensor(x), None, "train").data
        assert np.array_equal(got, want)

    def test_singletons_match_per_block_oracle(self):
        rng = np.random.default_rng(6)
        bank = self._bank()
        x = rng.standard_normal((12, 4)) * 2.0 + 1.0
        ids = np.repeat([0, 1, 2], 4)
        part = nb.all_singletons(3)
        out = partitioned_forward(bank, part, Tensor(x), ids, "train").data
        for d in range(3):
            rows = np.flatnonzero(ids == d)
            mu_o, sigma_o = two_pass_stats(x[rows], eps=1e-5)
            want = (x[rows] - mu_o) / sigma_o
            assert np.allclose(out[rows], want, atol=1e-12)

    def test_row_order_equivariance(self):
        rng = np.random.default_rng(7)
        bank = self._bank()
        x = rng.standard_normal((12, 4))
        ids = np.repeat([0, 1, 2], 4)
        part = enumerate_reduced_combinations(3)[1]
        base = partitioned_forward(bank, part, Tensor(x), ids, "train").data
        perm = rng.permutation(12)
        permuted = partitioned_forward(bank, part, Tensor(x[perm]), ids[perm], "train").data
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_out_of_group_mutation_is_invisible(self):
        rng = np.random.default_rng(8)
        bank = self._bank()
        x = rng.standard_normal((12, 4))
        ids = np.repeat([0, 1, 2], 4)
        part = Partition([DomainSubset.of(0), DomainSubset.of(1, 2)], 3)
        base = partitioned_forward(bank, part, Tensor(x), ids, "train").data
        x2 = x.copy()
        x2[ids == 0] += rng.standard_normal((4, 4)) * 5  # mutate group {0}
        moved = partitioned_forward(bank, part, Tensor(x2), ids, "train").data
        assert np.array_equal(moved[ids != 0], base[ids != 0])

    def test_eval_mode_rejected(self):
        ids = np.repeat([0, 1, 2], 2)
        with pytest.raises(ValueError, match="mode must be 'train'"):
            partitioned_forward(self._bank(), nb.all_singletons(3), Tensor(np.ones((6, 4))),
                                ids, "eval")

    def test_degenerate_subbatch_rejected(self):
        bank = self._bank()
        x = np.ones((5, 4))
        ids = np.array([0, 0, 1, 1, 2])  # domain 2 has one row
        with pytest.raises(ValueError, match="degenerate sub-batch"):
            partitioned_forward(bank, nb.all_singletons(3), Tensor(x), ids, "train")

    def test_missing_unit_rejected(self):
        bank = self._bank()
        part = Partition([DomainSubset.of(0, 1, 2)], 3)
        ids = np.repeat([0, 1, 2], 2)
        with pytest.raises(ValueError, match="no unit"):
            partitioned_forward(bank, part, Tensor(np.ones((6, 4))), ids, "train")

    def test_uncovered_domain_rejected(self):
        bank = self._bank()
        ids = np.array([0, 0, 3, 3])
        with pytest.raises(ValueError, match="not covered"):
            partitioned_forward(bank, nb.all_singletons(3), Tensor(np.ones((4, 4))), ids,
                                "train")

    @pytest.mark.parametrize("ids,domain", [([0, 0, 3, 3], 3), ([4, 4, 1, 1, 9, 9], 4),
                                            ([2, 2, 5, 5, 3, 3], 3)])
    def test_uncovered_domain_named(self, ids, domain):
        """`partition_rows` names the lowest uncovered domain id."""
        for part in nb.enumerate_reduced_combinations(3):
            with pytest.raises(ValueError) as exc:
                nb.partition_rows(part, np.array(ids))
            assert str(exc.value) == f"Partition: domain {domain} not covered"

    def test_negative_domain_rejected(self):
        """A negative id is named like any other uncovered domain."""
        for ids, domain in [([0, 0, -1, -1], -1), ([0, 0, -1, -1, 1, 1, 2, 2], -1),
                            ([5, 5, -3, -3, -1, -1], -3)]:
            for part in nb.enumerate_reduced_combinations(3):
                with pytest.raises(ValueError) as exc:
                    nb.partition_rows(part, np.array(ids))
                assert str(exc.value) == f"Partition: domain {domain} not covered"

    def test_partition_rows_match_per_domain_lookup(self):
        rng = np.random.default_rng(12)
        for part in nb.enumerate_reduced_combinations(4):
            ids = rng.permutation(np.repeat(np.arange(4), rng.integers(2, 5, size=4)))
            rows = nb.partition_rows(part, ids)
            groups = np.array([part.groups.index(next(g for g in part if g.contains(d)))
                               for d in ids])
            for k, idx in enumerate(rows):
                assert np.array_equal(idx, np.flatnonzero(groups == k))

    def test_parameter_sharing_across_partitions(self):
        rng = np.random.default_rng(9)
        bank = self._bank()
        pair = DomainSubset.of(1, 2)
        bank.units[pair].gamma.data = np.full(4, 3.0)
        x = rng.standard_normal((12, 4))
        ids = np.repeat([0, 1, 2], 4)
        # two different partitions referencing {1,2} see the same unit
        p1 = Partition([DomainSubset.of(0), pair], 3)
        out1 = partitioned_forward(bank, p1, Tensor(x), ids, "train").data
        bank.units[pair].gamma.data = np.full(4, 5.0)
        out2 = partitioned_forward(bank, p1, Tensor(x), ids, "train").data
        rows = np.isin(ids, [1, 2])
        assert not np.allclose(out1[rows], out2[rows])
        assert bank.unit(pair) is bank.units[pair]

    def test_partitioned_gradcheck_three_groups(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            bank = BNBank(3, 3)
            x = Tensor(rng.standard_normal((9, 3)), requires_grad=True)
            ids = np.repeat([0, 1, 2], 3)
            w = rng.standard_normal((9, 3))
            part = nb.all_singletons(3)
            params = [x] + [bank.units[s].gamma for s in part] + \
                     [bank.units[s].beta for s in part]

            def fn():
                out = partitioned_forward(bank, part, x, ids, "train")
                return (out * Tensor(w)).sum()

            assert grad_check_params(fn, params) < 1e-6


class TestONForward:
    def test_not_exported_by_the_package(self):
        """`bn_forward` is the one entry; `normbank.on_forward` stays only
        for the benchmark's tracer, which resolves it in `normbank`."""
        import normaug

        assert "on_forward" not in normaug.__all__ and not hasattr(normaug, "on_forward")

    def test_pure_bn_weight_matches_bn(self):
        rng = np.random.default_rng(11)
        u = ONUnit(4)
        u.mix_logits.data = np.array([60.0, -60.0])  # softmax ~ (1, 0)
        x = rng.standard_normal((8, 4))
        got = on_forward(u, Tensor(x), "train").data
        ref = BNUnit(4)
        out = bn_forward(ref, Tensor(x), None, "train").data
        assert np.allclose(got, out, atol=1e-12)

    def test_constant_channels_give_beta_under_in(self):
        u = ONUnit(2)
        u.mix_logits.data = np.array([-60.0, 60.0])  # pure IN
        u.beta.data = np.array([0.25, -0.5])
        x = np.ones((3, 2, 2, 2)) * np.array([2.0, 4.0])[None, :, None, None]
        out = on_forward(u, Tensor(x), "train").data
        want = np.broadcast_to(u.beta.data[None, :, None, None], out.shape)
        assert np.allclose(out, want, atol=1e-9)

    def test_even_mixture_matches_composition_oracle(self):
        rng = np.random.default_rng(12)
        u = ONUnit(5, eps=1e-5)
        u.mix_logits.data = np.array([0.0, 0.0])
        x = rng.standard_normal((7, 5)) * 2 + 3
        got = on_forward(u, Tensor(x), "train").data

        mu, sigma = two_pass_stats(x, eps=1e-5)
        bn_hat = (x - mu) / sigma
        in_mu = x.mean(axis=1, keepdims=True)
        in_sigma = np.sqrt(((x - in_mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)
        in_hat = (x - in_mu) / in_sigma
        assert np.allclose(got, 0.5 * bn_hat + 0.5 * in_hat, atol=1e-12)

    def test_single_feature_rows_rejected(self):
        u = ONUnit(1)
        with pytest.raises(T.ShapeError, match="IN undefined"):
            on_forward(u, Tensor(np.ones((4, 1))), "train")

    def test_on_gradcheck(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            u = ONUnit(3)
            u.mix_logits.data = rng.standard_normal(2) * 0.5
            x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
            w = rng.standard_normal((6, 3))

            def fn():
                return (on_forward(u, x, "train") * Tensor(w)).sum()

            assert grad_check_params(fn, [x, u.gamma, u.beta, u.mix_logits]) < 1e-6


class TestEnumeration:
    def test_reduced_three_domains(self):
        parts = enumerate_reduced_combinations(3)
        assert len(parts) == 4
        got = {frozenset(subsets_of(p)) for p in parts}
        want = {
            frozenset({(0,), (1,), (2,)}),
            frozenset({(0, 1), (2,)}),
            frozenset({(0,), (1, 2)}),
            frozenset({(1,), (0, 2)}),
        }
        assert got == want

    def test_reduced_four_domains(self):
        parts = enumerate_reduced_combinations(4)
        assert len(parts) == 5
        got = {frozenset(subsets_of(p)) for p in parts}
        want = {
            frozenset({(0,), (1,), (2,), (3,)}),
            frozenset({(0, 1, 2), (3,)}),
            frozenset({(0, 1, 3), (2,)}),
            frozenset({(0, 2, 3), (1,)}),
            frozenset({(1, 2, 3), (0,)}),
        }
        assert got == want

    def test_reduced_two_domains_collapses(self):
        parts = enumerate_reduced_combinations(2)
        assert len(parts) == 1 and parts[0].is_all_singletons()

    def test_reduced_rejects_one_domain(self):
        with pytest.raises(ValueError):
            enumerate_reduced_combinations(1)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 7))
    def test_reduced_partitions_are_valid_and_distinct(self, n):
        parts = enumerate_reduced_combinations(n)
        assert len(parts) == n + 1
        assert len(set(parts)) == len(parts)
        for p in parts:
            union = 0
            for g in p:
                assert union & g.mask == 0
                union |= g.mask
            assert union == (1 << n) - 1

    def test_full_three_matches_reduced(self):
        full = enumerate_full_combinations(3)
        red = enumerate_reduced_combinations(3)
        assert full == red

    def test_full_four_count(self):
        parts = enumerate_full_combinations(4)
        assert len(parts) == 11  # 1 + C(4,2) + C(4,3)

    def test_full_count_formula(self):
        from math import comb
        for n in range(3, 8):
            want = 1 + sum(comb(n, k) for k in range(2, n))
            assert len(enumerate_full_combinations(n)) == want

    def test_full_rejects_small_n(self):
        with pytest.raises(ValueError):
            enumerate_full_combinations(2)

    def test_deterministic_canonical_order(self):
        a = enumerate_reduced_combinations(4)
        b = enumerate_reduced_combinations(4)
        assert a == b
        assert a[0].is_all_singletons()  # most groups first


class TestBank:
    def test_scheme_unit_count(self):
        for n in (3, 4, 5):
            assert len(BNBank(n, 4).units) == 2 * n
        assert len(BNBank(2, 4).units) == 2

    def test_units_are_the_scheme_in_order(self):
        """A bank holds exactly `scheme_subsets(N)`, in that order, and the
        reduced partitions use no other subset."""
        for n in (2, 3, 4, 5):
            scheme = nb.scheme_subsets(n)
            assert BNBank(n, 4).subsets() == scheme
            used = {g for p in enumerate_reduced_combinations(n) for g in p}
            assert used == set(scheme)

    def test_subset_invariants(self):
        with pytest.raises(ValueError):
            DomainSubset(0)
        with pytest.raises(ValueError):
            DomainSubset.of(3).validate(3)

    @settings(max_examples=200, deadline=None)
    @given(mask=st.integers(1, 2**63 - 1),
           ids=st.lists(st.integers(-200, 200), max_size=40))
    def test_rows_bit_test_matches_isin(self, mask, ids):
        subset = DomainSubset(mask)
        ids = np.array(ids, dtype=np.int64)
        want = np.flatnonzero(np.isin(ids, subset.indices))
        assert np.array_equal(subset.rows(ids), want)

    def test_rows_rejects_index_beyond_62(self):
        with pytest.raises(ValueError, match="domain indices < 63"):
            DomainSubset.of(63).rows(np.arange(4))

    def test_pooled_moments_identity_on_copy(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((7, 5))
        mu, var = nb._channel_stats(x)
        mu2, var2 = pooled_moments(mu, var, 7, mu.copy(), var.copy(), 7)
        assert np.array_equal(mu, mu2) and np.array_equal(var, var2)

    def test_pooled_moments_matches_concat(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((10, 4)) + 2.0
        mu_a, var_a = nb._channel_stats(a)
        mu_b, var_b = nb._channel_stats(b)
        mu, var = pooled_moments(mu_a, var_a, 6, mu_b, var_b, 10)
        mu_o, var_o = nb._channel_stats(np.concatenate([a, b]))
        assert np.allclose(mu, mu_o, atol=1e-12)
        assert np.allclose(var, var_o, atol=1e-12)
