"""Divergence arithmetic and the statistics-perturbation probe."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fsum_column_means, same_bits, tiny_model
from normaug import datagen
from normaug.diagnostics import _column_means, divergence, perturbation_probe


class IdentityFeatures:
    """Stand-in model whose penultimate features are the raw inputs."""

    def features(self, x):
        return np.asarray(x, dtype=np.float64)


class TestDivergenceArithmetic:
    def test_two_source_domains(self):
        sources = {
            0: np.tile([0.0, 0.0], (5, 1)),
            1: np.tile([2.0, 0.0], (5, 1)),
        }
        target = np.tile([4.0, 0.0], (3, 1))
        rep = divergence(IdentityFeatures(), sources, target)
        assert np.allclose(rep.source_mean, [1.0, 0.0])
        assert rep.d_s2s == 1.0
        assert rep.d_s2t == 3.0

    def test_identical_domains_zero(self):
        block = np.arange(12.0).reshape(4, 3)
        rep = divergence(IdentityFeatures(), {0: block.copy(), 1: block.copy()},
                         block.copy())
        assert rep.d_s2s == 0.0
        assert rep.d_s2t == 0.0

    def test_unbalanced_sizes_use_sample_weighting(self):
        sources = {
            0: np.tile([0.0], (1, 1)),
            1: np.tile([3.0], (3, 1)),
        }
        rep = divergence(IdentityFeatures(), sources, np.tile([0.0], (2, 1)))
        # pooled mean over the 4 samples: 9/4
        assert np.allclose(rep.source_mean, [2.25])

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            divergence(IdentityFeatures(), {}, np.ones((2, 2)))
        with pytest.raises(ValueError):
            divergence(IdentityFeatures(), {0: np.ones((2, 2))}, np.ones((0, 2)))

    def test_means_are_the_column_means_of_the_stacked_rows(self):
        """Each domain's rows are converted once and serve both its own mean
        and the pooled one: bitwise `_column_means` of the stacked rows."""
        rng = np.random.default_rng(5)
        sources = {d: rng.standard_normal((7 + 3 * d, 4)) * 10.0 ** d for d in range(3)}
        target = rng.standard_normal((5, 4))
        rep = divergence(IdentityFeatures(), sources, target)
        assert np.array_equal(rep.source_mean,
                              _column_means([np.concatenate(list(sources.values()))]))
        for d, x in sources.items():
            assert np.array_equal(rep.per_domain_means[d], _column_means([x]))
        assert np.array_equal(rep.target_mean, _column_means([target]))

    def test_sample_order_and_chunk_invariance(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((40, 5))
        target = rng.standard_normal((30, 5))
        rep1 = divergence(IdentityFeatures(), {0: block, 1: block[::-1].copy()}, target)
        perm = rng.permutation(40)
        rep2 = divergence(IdentityFeatures(),
                          {0: block[perm], 1: block[::-1][perm].copy()}, target[::-1].copy())
        assert rep1.d_s2s == rep2.d_s2s
        assert rep1.d_s2t == rep2.d_s2t
        # chunked evaluation: domain blocks supplied in two pieces has to agree
        # with the pooled mean because column means are exactly rounded
        half = divergence(IdentityFeatures(), {0: block[:17], 1: block[17:40]},
                          target)
        pooled = divergence(IdentityFeatures(), {0: block[:23], 1: block[23:]}, target)
        assert np.array_equal(half.source_mean, pooled.source_mean)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6), blocks=st.integers(1, 4))
    def test_column_means_equal_elementwise_fsum(self, data, dim, blocks):
        """Bitwise equal to fsum over each column's floats one at a time, on
        values spanning the exponent range and on exactly cancelling ones."""
        value = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=64,
                      min_value=-1e300, max_value=1e300),
            st.sampled_from([1e308, -1e308, 1e-308, 5e-324, 1.0, -1.0, 1e16, -1e16]))
        rows = []
        for _ in range(blocks):
            n = data.draw(st.integers(0, 5))
            vals = data.draw(st.lists(value, min_size=n * dim, max_size=n * dim))
            rows.append(np.array(vals, dtype=np.float64).reshape(n, dim))
        if data.draw(st.booleans()):
            rows.append(-np.concatenate(rows))  # every column sums to exactly 0
        total = sum(r.shape[0] for r in rows)
        if total == 0:
            with pytest.raises(ValueError, match="empty"):
                _column_means(rows)
            return
        try:
            want = np.array([math.fsum(float(v) for r in rows for v in r[:, j]) / total
                             for j in range(dim)])
        except OverflowError:  # a partial sum beyond the float range
            with pytest.raises(OverflowError):
                _column_means(rows)
            return
        assert np.array_equal(_column_means(rows), want)

    def test_jensen_bound(self):
        rng = np.random.default_rng(1)
        m = tiny_model()
        sources = {d: rng.standard_normal((20, 6)) + d for d in range(3)}
        target = rng.standard_normal((25, 6)) + 5.0
        rep = divergence(m, sources, target)
        target_feats = m.features(target)
        mean_dist = np.linalg.norm(target_feats - rep.source_mean, axis=1).mean()
        assert rep.d_s2t <= mean_dist + 1e-12


class TestExactSums:
    """`_column_means` reduces each block to a few rows of exact partial sums
    (error-free extraction) and rounds once with fsum: bitwise per-column
    `math.fsum` over the values (`helpers.fsum_column_means`) at the edges
    of the extraction."""

    def test_subnormal_only_columns(self):
        rng = np.random.default_rng(0)
        block = np.ldexp(rng.standard_normal((50, 4)), rng.integers(-1074, -1023, (50, 4)))
        block[:, 0] = 5e-324
        block[::2, 1] = -5e-324
        assert (np.abs(block) < 2.2250738585072014e-308).all()
        assert same_bits(_column_means([block]), fsum_column_means([block]))

    @pytest.mark.parametrize("big", [1e308, -1e308, 1e300, 8.98846567431158e307])
    def test_huge_mixed_with_the_smallest_subnormal(self, big):
        block = np.array([[big, 5e-324], [5e-324, big], [-5e-324, 1.0], [1.0, 5e-324]])
        assert same_bits(_column_means([block]), fsum_column_means([block]))

    def test_zero_and_negative_zero_columns(self):
        block = np.array([[0.0, -0.0, 0.0, -0.0, 1.0],
                          [0.0, -0.0, -0.0, 0.0, -1.0],
                          [0.0, -0.0, -0.0, -0.0, -0.0]])
        assert same_bits(_column_means([block]), fsum_column_means([block]))
        assert same_bits(_column_means([block[:, 1:2], block[:, 1:2]]),
                         fsum_column_means([block[:, 1:2], block[:, 1:2]]))

    def test_one_row(self):
        rng = np.random.default_rng(1)
        row = rng.standard_normal((1, 6)) * 10.0 ** rng.integers(-300, 300, (1, 6))
        row[0, :2] = (-0.0, 5e-324)
        assert same_bits(_column_means([row]), fsum_column_means([row]))

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 10])
    def test_row_counts_around_powers_of_two(self, k):
        """n + 2 crossing a power of two moves sigma's exponent by one."""
        rng = np.random.default_rng(k)
        for n in range(2 ** k - 3, 2 ** k + 2):
            block = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-20, 20, (n, 5))
            block[:, 0] = 1.0 - 2.0 ** -52  # each value one ulp below its sigma's bound
            block[:, 1] = rng.choice([1e16, -1e16, 1.0, -1.0], n)
            assert same_bits(_column_means([block]), fsum_column_means([block])), n

    def test_overflow_raises_exactly_when_fsum_does(self):
        """fsum's intermediate overflow depends on the value order; a column
        that could overflow, in a block or across blocks, keeps the fsum
        route over the values."""
        for blocks in ([np.array([[1e308], [1e308], [-1e308]])],
                       [np.array([[2.2e307]])] * 9,
                       # the last block's sum is 0, but its first value overflows
                       [np.array([[2.2e307]])] * 8 + [np.array([[2.2e307], [-2.2e307]])]):
            with pytest.raises(OverflowError):
                fsum_column_means(blocks)
            with pytest.raises(OverflowError):
                _column_means(blocks)
        for blocks in ([np.array([[1e308], [-1e308], [1e308]])],
                       [np.array([[2.2e307]])] * 8):
            assert same_bits(_column_means(blocks), fsum_column_means(blocks))

    def test_non_finite_columns_keep_fsum(self):
        block = np.array([[np.inf, np.nan, 1.0], [1.0, 1.0, 2.0]])
        assert same_bits(_column_means([block]), fsum_column_means([block]))
        with pytest.raises(ValueError, match="inf"):
            _column_means([np.array([[np.inf], [-np.inf]])])

    def test_benchmark_sized_divergence_matches_the_fsum_route(self):
        """Three 1000-row source domains and a 1000-row target of 64
        non-negative features (as after the last ReLU, dead columns
        included): every mean bitwise the fsum route's."""
        rng = np.random.default_rng(9)
        sources = {d: np.maximum(rng.standard_normal((1000, 64)) * (d + 1.0) + 0.1 * d, 0.0)
                   for d in range(3)}
        for x in sources.values():
            x[:, 5] = 0.0
            x[::7, 6] *= 1e-30
        target = np.maximum(rng.standard_normal((1000, 64)) + 0.5, 0.0)
        rep = divergence(IdentityFeatures(), sources, target)
        assert same_bits(rep.source_mean, fsum_column_means(list(sources.values())))
        for d, x in sources.items():
            assert same_bits(rep.per_domain_means[d], fsum_column_means([x]))
        assert same_bits(rep.target_mean, fsum_column_means([target]))


# (use_on, backbone, input_dim): every main-route normalization on both backbones
ROUTES = [(False, "mlp", 6), (True, "mlp", 6), (False, "smallconv", 9),
          (True, "smallconv", 9)]


def _route_model(use_on, backbone, input_dim):
    return tiny_model(use_on=use_on, backbone=backbone, input_dim=input_dim,
                      hidden=(4, 3) if backbone == "smallconv" else (8, 4))


def _running_state(model):
    return [(u.running_mean.copy(), u.running_var.copy(), u.update_count)
            for u in model.main_units]


class TestProbeOracle:
    """The probe measures the main route: with no companion it is the route's
    train-mode normalization of the probe batch, with a companion the
    train-mode normalization of the joint batch, restricted to the probe rows."""

    @pytest.mark.parametrize("use_on,backbone,input_dim", ROUTES)
    def test_alone_matches_train_mode_route(self, use_on, backbone, input_dim):
        m = _route_model(use_on, backbone, input_dim)
        m.main_units[0].running_mean = np.linspace(-1.0, 1.0, m.main_units[0].channels)
        m.main_units[0].update_count = 7
        x = np.random.default_rng(4).standard_normal((10, input_dim))
        ref_model = copy.deepcopy(m)
        before = _running_state(m)
        got = m.features_with_batch_stats(x)
        _, ref = ref_model.forward_main(x, mode="train")
        # the probe runs the chunk-invariant product, the train route the
        # plain one: agreement is to rounding, not bitwise
        assert np.abs(got - ref.data).max() <= 1e-12
        for (mean_a, var_a, count_a), (mean_b, var_b, count_b) in zip(
                before, _running_state(m)):
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(var_a, var_b)
            assert count_a == count_b

    @pytest.mark.parametrize("use_on,backbone,input_dim", ROUTES)
    def test_companion_matches_train_mode_on_joint_rows(self, use_on, backbone,
                                                        input_dim):
        m = _route_model(use_on, backbone, input_dim)
        rng = np.random.default_rng(5)
        probe = rng.standard_normal((10, input_dim))
        comp = rng.standard_normal((7, input_dim)) * 2.0 + 1.5
        got = m.features_with_batch_stats(probe, comp)
        _, ref = copy.deepcopy(m).forward_main(np.concatenate([probe, comp]),
                                               mode="train")
        assert np.abs(got - ref.data[:10]).max() <= 1e-12


class TestPerturbationProbe:
    def test_probe_copy_displacement_exactly_zero(self):
        rng = np.random.default_rng(2)
        for route in ROUTES:
            m = _route_model(*route)
            probe = rng.standard_normal((11, route[2]))
            out = perturbation_probe(m, probe, [("copy", probe.copy())])
            assert out[0][1] == 0.0, f"route={route}"

    def test_shifted_companion_displaces(self):
        rng = np.random.default_rng(3)
        m = tiny_model()
        probe = rng.standard_normal((16, 6))
        comp = rng.standard_normal((16, 6)) + 3.0
        out = perturbation_probe(m, probe, [("shifted", comp)])
        assert out[0][1] > 0.0

    def test_monotone_in_shift_magnitude(self):
        wins = 0
        for seed in range(5):
            m = tiny_model(seed=seed)
            disps = []
            for kappa in (0.0, 1.0, 2.0):
                ds, _ = datagen.generate(num_classes=3, num_domains=2, per_cell=32,
                                         feature_dim=6, shift_kappa=kappa,
                                         noise_sigma=0.5, seed=100 + seed)
                probe = ds.features[ds.domain_ids == 0][:48]
                comp = ds.features[ds.domain_ids == 1][:48]
                out = perturbation_probe(m, probe, [("c", comp)])
                disps.append(out[0][1])
            if disps[0] <= disps[1] <= disps[2]:
                wins += 1
        assert wins >= 4

    def test_empty_companion_rejected(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            perturbation_probe(m, np.ones((4, 6)), [])
        with pytest.raises(ValueError, match="empty companion"):
            perturbation_probe(m, np.ones((4, 6)), [("x", np.ones((0, 6)))])

    def test_empty_probe_batch_rejected_before_any_walk(self, monkeypatch):
        """A 0-row probe has no moments; it used to come back as NaN."""
        m = tiny_model()

        def no_walk(*args):
            raise AssertionError("the probe walked an empty batch")

        monkeypatch.setattr(m, "features_with_batch_stats", no_walk)
        with pytest.raises(ValueError, match="^perturbation_probe: empty probe batch$"):
            perturbation_probe(m, np.ones((0, 6)), [("c", np.ones((4, 6)))])
