"""Fusion arithmetic, evaluation purity, scope handling."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import tiny_model, toy_batch
from normaug import normbank as nb, tensor as T
from normaug.inference import (
    FusionStrategy,
    SubpathScope,
    evaluate,
    fuse,
    main_accuracy,
    mean_paths,
    predict,
)
from normaug.model import parse_value
from normaug.normbank import DomainSubset

PM = np.array([[0.8, 0.2]])
SUBS = [np.array([[0.6, 0.4]]), np.array([[0.4, 0.6]])]


class TestFusionArithmetic:
    def test_two_step_mean(self):
        out = fuse(PM, SUBS, FusionStrategy.MEAN_MEAN_IM)
        assert np.array_equal(out, np.array([[0.65, 0.35]]))

    def test_mean_all(self):
        out = fuse(PM, SUBS, FusionStrategy.MEAN_ALL)
        assert np.array_equal(out, np.array([[0.6, 0.4]]))

    def test_main_only(self):
        assert np.array_equal(fuse(PM, SUBS, FusionStrategy.MAIN_ONLY), PM)

    def test_mean_subs_only(self):
        assert np.array_equal(fuse(PM, SUBS, FusionStrategy.MEAN_I),
                              np.array([[0.5, 0.5]]))

    def test_max_subs_renormalized(self):
        out = fuse(PM, SUBS, FusionStrategy.MAX_I)
        assert np.array_equal(out, np.array([[0.5, 0.5]]))

    def test_max_with_main(self):
        out = fuse(PM, SUBS, FusionStrategy.MAX_IM)
        want = np.array([[0.8, 0.6]]) / 1.4
        assert np.allclose(out, want, atol=1e-15)

    def test_max_of_mean_and_main(self):
        out = fuse(PM, SUBS, FusionStrategy.MAX_MEAN_I_M)
        want = np.array([[0.8, 0.5]]) / 1.3
        assert np.allclose(out, want, atol=1e-15)

    def test_mean_of_max_and_main(self):
        out = fuse(PM, SUBS, FusionStrategy.MEAN_MAX_I_M)
        assert np.array_equal(out, np.array([[0.65, 0.35]]))

    def test_strategies_need_subs(self):
        with pytest.raises(ValueError, match="sub-path"):
            fuse(PM, [], FusionStrategy.MEAN_MEAN_IM)

    def test_two_step_equals_flat_mean_for_single_sub(self):
        a = fuse(PM, SUBS[:1], FusionStrategy.MEAN_MEAN_IM)
        b = fuse(PM, SUBS[:1], FusionStrategy.MEAN_ALL)
        assert np.array_equal(a, b)

    def test_argmax_invariant_under_common_rescale(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pm = rng.dirichlet(np.ones(4), size=6)
            subs = [rng.dirichlet(np.ones(4), size=6) for _ in range(3)]
            scale = float(rng.uniform(0.1, 10.0))
            for strat in FusionStrategy:
                base = fuse(pm, subs, strat).argmax(axis=1)
                scaled = fuse(pm * scale, [s * scale for s in subs], strat).argmax(axis=1)
                assert np.array_equal(base, scaled), strat

    def test_rules_and_scopes_parse_by_value_or_name(self):
        """A config value names a member by its value or its name, in any case."""
        assert parse_value("strategy", "MeanMeanIM", FusionStrategy) is FusionStrategy.MEAN_MEAN_IM
        assert parse_value("strategy", "mean_all", FusionStrategy) is FusionStrategy.MEAN_ALL
        assert parse_value("scope", "ALL_UNITS", SubpathScope) is SubpathScope.ALL_UNITS
        valid = ", ".join(m.value for m in FusionStrategy)
        with pytest.raises(ValueError, match=re.escape(
                f"config key strategy: expected one of {valid}, got 'bogus'") + "$"):
            parse_value("strategy", "bogus", FusionStrategy)

    @pytest.mark.parametrize("strategy", [FusionStrategy.MAX_I, FusionStrategy.MAX_IM,
                                          FusionStrategy.MEAN_MAX_I_M])
    def test_max_rules_build_no_sub_path_mean(self, strategy):
        """A rule that does not read the sub-path mean does not build it:
        `mean_paths` alone peaks at about 12 (n, C) matrices."""
        rng = np.random.default_rng(0)
        n, c = 8192, 3
        p_main, *p_subs = (rng.dirichlet(np.ones(c), size=n) for _ in range(4))
        tracemalloc.start()
        try:
            fused = fuse(p_main, p_subs, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fused.shape == (n, c)
        assert peak <= 6 * n * c * 8


class TestMeanPaths:
    def test_matches_rational_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            vals = rng.dirichlet(np.ones(3), size=k)
            got = mean_paths([vals[i] for i in range(k)])
            for idx in np.ndindex(vals.shape[1:]):
                exact = sum(Fraction(float(vals[i][idx])) for i in range(k)) / k
                assert float(got[idx]) == float(exact)

    def test_single_path_identity(self):
        x = np.random.default_rng(2).dirichlet(np.ones(5), size=4)
        assert np.array_equal(mean_paths([x]), x)


def _trained_toy(seed=0, steps=8, use_aug=True):
    from normaug.training import DomainBatch, TrainConfig, make_optimizer, train_step

    m = tiny_model(seed=seed, use_aug=use_aug)
    rng = np.random.default_rng(seed)
    opt = make_optimizer(m, TrainConfig())
    parts = nb.enumerate_reduced_combinations(3)
    for i in range(steps):
        x, labels, ids = toy_batch(rng)
        batch = DomainBatch(x, labels, ids, per_domain=4)
        part = parts[i % len(parts)] if use_aug else None
        train_step(m, batch, part, opt)
    return m


class TestPredict:
    def test_per_path_keys_and_shapes(self):
        m = _trained_toy()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 6))
        fused, per_path = predict(m, x)
        assert fused.shape == (10, 3)
        assert set(per_path) == {"main", "sub_0", "sub_1", "sub_2"}
        for p in per_path.values():
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_rebatching_never_changes_probabilities(self):
        m = _trained_toy()
        rng = np.random.default_rng(4)
        x = rng.standard_normal((67, 6))
        fused_full, paths_full = predict(m, x)
        for chunk in (1, 7, 64):
            fused_parts = []
            for lo in range(0, 67, chunk):
                f, _ = predict(m, x[lo:lo + chunk])
                fused_parts.append(f)
            assert np.array_equal(np.vstack(fused_parts), fused_full), chunk

    def test_shuffling_never_changes_probabilities(self):
        m = _trained_toy()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((23, 6))
        fused, _ = predict(m, x)
        perm = rng.permutation(23)
        fused_p, _ = predict(m, x[perm])
        assert np.array_equal(fused_p, fused[perm])

    def test_all_units_scope_counts_paths(self):
        m = _trained_toy(steps=16)  # enough steps to touch every unit
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 6))
        _, per_path = predict(m, x, scope=SubpathScope.ALL_UNITS)
        assert len(per_path) == 1 + 2 * 3

    def test_all_units_scope_requires_updates(self):
        m = tiny_model()  # fresh model: no unit ever updated
        with pytest.raises(ValueError, match="never updated"):
            predict(m, np.zeros((2, 6)), scope=SubpathScope.ALL_UNITS)

    def test_main_only_on_baseline_model(self):
        m = _trained_toy(use_aug=False)
        x = np.random.default_rng(7).standard_normal((4, 6))
        fused, per_path = predict(m, x, strategy=FusionStrategy.MAIN_ONLY)
        assert set(per_path) == {"main"}
        assert np.array_equal(fused, per_path["main"])

    def test_sub_path_rule_on_baseline_model_runs_no_route(self, monkeypatch):
        """A rule that needs sub-paths, asked of a model without a bank, is
        refused before the main route runs."""
        m = _trained_toy(use_aug=False)
        monkeypatch.setattr(m, "eval_logits", lambda *a, **k: pytest.fail("route ran"))
        with pytest.raises(ValueError, match=(
                r"^strategy MeanMeanIM needs sub-path predictions, but the model was "
                r"trained without a bank \(use_aug = false\)$")):
            evaluate(m, np.zeros((4, 6)), np.zeros(4, dtype=int),
                     FusionStrategy.MEAN_MEAN_IM)


class TestEvaluate:
    def test_all_correct_toy_model(self):
        m = _trained_toy()
        # craft a separable check: labels from the model's own argmax
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 6))
        fused, per_path = predict(m, x, strategy=FusionStrategy.MAIN_ONLY)
        labels = per_path["main"].argmax(axis=1)
        report = evaluate(m, x, labels, FusionStrategy.MAIN_ONLY)
        assert report.per_path["main"] == 1.0
        assert report.fused_accuracy == 1.0

    def test_single_pass_consistency(self):
        m = _trained_toy()
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 6))
        labels = rng.integers(0, 3, size=40)
        report = evaluate(m, x, labels)
        fused, per_path = predict(m, x)
        assert report.fused_accuracy == float((fused.argmax(1) == labels).mean())
        for name, acc in report.per_path.items():
            assert acc == float((per_path[name].argmax(1) == labels).mean())

    def test_chunked_accuracy_identical(self):
        m = _trained_toy()
        rng = np.random.default_rng(10)
        x = rng.standard_normal((50, 6))
        labels = rng.integers(0, 3, size=50)
        full = evaluate(m, x, labels)
        for chunk in (1, 7, 64):
            correct = 0
            for lo in range(0, 50, chunk):
                f, _ = predict(m, x[lo:lo + chunk])
                correct += int((f.argmax(1) == labels[lo:lo + chunk]).sum())
            assert correct / 50 == full.fused_accuracy

    def test_empty_split_rejected(self):
        m = _trained_toy()
        with pytest.raises(ValueError, match="empty"):
            evaluate(m, np.zeros((0, 6)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("shape, got", [((1,), "1 labels"),
                                            ((50, 1), r"labels of shape \(50, 1\)"),
                                            ((49,), "49 labels")])
    def test_labels_must_match_the_rows(self, shape, got):
        """Labels of another shape would broadcast against the predictions:
        (50, 1) labels once scored a fused accuracy of 0.30 on 50 rows."""
        m = _trained_toy()
        x = np.random.default_rng(11).standard_normal((50, 6))
        labels = np.zeros(shape, dtype=int)
        with pytest.raises(ValueError, match=rf"^evaluate: {got} for 50 rows$"):
            evaluate(m, x, labels)
        with pytest.raises(ValueError, match=rf"^main_accuracy: {got} for 50 rows$"):
            main_accuracy(m, x, labels)
        assert main_accuracy(m, x, np.zeros(50, dtype=int)) == evaluate(
            m, x, np.zeros(50, dtype=int), FusionStrategy.MAIN_ONLY).fused_accuracy
