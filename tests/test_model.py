"""Two-path network: route equivalences, sharing, checkpoint round trips."""

import numpy as np
import pytest

from helpers import tiny_config, tiny_model, toy_batch
from normaug import normbank as nb
from normaug import tensor as T
from normaug.model import (
    Linear,
    ModelConfig,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from normaug.normbank import BNUnit, DomainSubset, Partition


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = tiny_model(seed=5), tiny_model(seed=5)
        for (na, ta), (nbname, tb) in zip(a.parameters(), b.parameters()):
            assert na == nbname
            assert np.array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        a, b = tiny_model(seed=5), tiny_model(seed=6)
        assert not np.array_equal(a.layers[0].weight.data, b.layers[0].weight.data)

    def test_norm_init_values(self):
        m = tiny_model()
        for unit in m.main_units:
            assert np.all(unit.gamma.data == 1.0)
            assert np.all(unit.beta.data == 0.0)
            assert np.all(unit.running_mean == 0.0)
            assert np.all(unit.running_var == 1.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, num_domains=1).validate()
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, num_classes=1).validate()
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, hidden_sizes=(0,)).validate()
        with pytest.raises(ValueError):
            ModelConfig(input_dim=5, backbone="smallconv").validate()
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, classifier_mode="bogus").validate()


class TestForwardMain:
    def test_identical_rows_identical_logits(self):
        m = tiny_model()
        rng = np.random.default_rng(0)
        row = rng.standard_normal(6)
        x = np.vstack([row, rng.standard_normal(6), row])
        with T.no_grad():
            logits, _ = m.forward_main(x, mode="eval")
        assert np.array_equal(logits.data[0], logits.data[2])

    def test_logits_shape(self):
        m = tiny_model()
        rng = np.random.default_rng(1)
        for b in (1, 4, 9):
            logits, feats = m.forward_main(rng.standard_normal((b, 6)), mode="train")
            assert logits.shape == (b, 3)
            assert feats.shape == (b, 4)

    def test_on_with_pure_bn_weight_matches_plain_bn_model(self):
        rng = np.random.default_rng(2)
        m_on = tiny_model(seed=7, use_on=True)
        m_bn = tiny_model(seed=7, use_on=False)
        # same seed gives identical backbone and classifiers; force the
        # mixture entirely onto the BN branch
        for unit in m_on.main_units:
            unit.mix_logits.data = np.array([80.0, -80.0])
        x = rng.standard_normal((8, 6))
        with T.no_grad():
            a, _ = m_on.forward_main(x, mode="train")
            b, _ = m_bn.forward_main(x, mode="train")
        assert np.allclose(a.data, b.data, atol=1e-10)

    def test_wrong_input_dim_rejected(self):
        m = tiny_model()
        with pytest.raises(T.ShapeError):
            m.forward_main(np.ones((3, 5)), mode="train")

    def test_unknown_mode_rejected_before_any_work(self, monkeypatch):
        m = tiny_model()
        calls = []
        monkeypatch.setattr(T, "linear", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="^forward_main: mode must be 'train' or 'eval', "
                                             "got 'Eval'$"):
            m.forward_main(np.ones((4, 6)), mode="Eval")
        assert calls == []
        assert all(u.update_count == 0 for u in m.main_units)


class TestForwardAux:
    def test_blocks_cover_batch(self):
        m = tiny_model()
        rng = np.random.default_rng(3)
        x, _, ids = toy_batch(rng)
        part = nb.all_singletons(3)
        blocks = m.forward_aux(x, ids, part, mode="train")
        rows = np.sort(np.concatenate([idx for idx, _ in blocks.values()]))
        assert np.array_equal(rows, np.arange(12))
        for subset, (idx, logits) in blocks.items():
            assert logits.shape == (idx.size, 3)

    def test_full_set_unit_with_copied_params_matches_main(self):
        """With the merged-all unit's parameters copied from the main BN unit
        and the subset classifier copied from the main head, the aux route
        reproduces the main route (mixture disabled)."""
        m = tiny_model(use_on=False)
        full = DomainSubset.of(0, 1, 2)
        for site, unit in enumerate(m.main_units):
            bank_unit = m.banks[site].units[full] = BNUnit(unit.channels, eps=unit.eps)
            bank_unit.gamma.data = unit.gamma.data.copy()
            bank_unit.beta.data = unit.beta.data.copy()
        clf = m.classifiers_aux[full] = Linear(m.feature_dim, m.config.num_classes,
                                               np.random.default_rng(0))
        clf.weight.data = m.classifier_main.weight.data.copy()
        clf.bias.data = m.classifier_main.bias.data.copy()

        rng = np.random.default_rng(4)
        x, _, ids = toy_batch(rng)
        part = Partition([full], 3)
        with T.no_grad():
            main_logits, _ = m.forward_main(x, mode="train")
            blocks = m.forward_aux(x, ids, part, mode="train")
        idx, aux_logits = blocks[full]
        assert np.allclose(aux_logits.data[np.argsort(idx)],
                           main_logits.data, atol=1e-12)

    def test_disjointness_mutation_probe(self):
        m = tiny_model()
        rng = np.random.default_rng(5)
        x, _, ids = toy_batch(rng)
        part = Partition([DomainSubset.of(0), DomainSubset.of(1, 2)], 3)
        with T.no_grad():
            base = m.forward_aux(x, ids, part, mode="train")
        x2 = x.copy()
        x2[ids == 0] *= 7.0
        with T.no_grad():
            moved = m.forward_aux(x2, ids, part, mode="train")
        g = DomainSubset.of(1, 2)
        assert np.array_equal(base[g][1].data, moved[g][1].data)
        assert not np.allclose(base[DomainSubset.of(0)][1].data,
                               moved[DomainSubset.of(0)][1].data)

    def test_aux_requires_use_aug(self):
        m = tiny_model(use_aug=False)
        with pytest.raises(ValueError, match="use_aug"):
            m.forward_aux(np.ones((6, 6)), np.repeat([0, 1, 2], 2),
                          nb.all_singletons(3), mode="train")

    def test_aux_is_train_only(self):
        with pytest.raises(ValueError, match="mode must be 'train'"):
            tiny_model().forward_aux(np.ones((6, 6)), np.repeat([0, 1, 2], 2),
                                     nb.all_singletons(3), mode="eval")


class TestRowCache:
    """`forward_aux` partitions the rows once per batch layout: the groups
    always follow the ids it is given, and a bad layout always raises."""

    PART = Partition([DomainSubset.of(0), DomainSubset.of(1, 2)], 3)

    def check_against_fresh_model(self, m, x, ids, part):
        """`m`'s blocks have `partition_rows`' groups and the logits of a model
        with no cached layout."""
        with T.no_grad():
            got = m.forward_aux(x, ids, part, mode="train")
            want = tiny_model().forward_aux(x, ids, part, mode="train")
        for group, rows in zip(part, nb.partition_rows(part, ids)):
            assert np.array_equal(got[group][0], rows)
            assert got[group][1].data.tobytes() == want[group][1].data.tobytes()

    def test_alternating_layouts_of_one_length(self):
        m = tiny_model()
        x, _, blocked = toy_batch(np.random.default_rng(6))
        interleaved = np.tile(np.arange(3), 4)
        for ids in (blocked, interleaved, blocked, interleaved):
            for part in (self.PART, nb.all_singletons(3)):
                self.check_against_fresh_model(m, x, ids, part)

    def test_ids_mutated_in_place(self):
        m = tiny_model()
        x, _, ids = toy_batch(np.random.default_rng(7))
        self.check_against_fresh_model(m, x, ids, self.PART)
        ids[:] = np.tile(np.arange(3), 4)
        self.check_against_fresh_model(m, x, ids, self.PART)
        assert m.forward_aux(x, ids, self.PART)[DomainSubset.of(0)][0].tolist() == [0, 3, 6, 9]

    def test_cached_rows_are_read_only(self):
        m = tiny_model()
        x, _, ids = toy_batch(np.random.default_rng(8))
        for _ in range(2):
            for idx, _ in m.forward_aux(x, ids, self.PART).values():
                assert not idx.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    idx[0] = 5

    @pytest.mark.parametrize("ids, error", [
        (np.array([0, 0, 1, 1, 2, 3]), "Partition: domain 3 not covered"),
        (np.array([0, 0, 1, 1, 2, -1]), "Partition: domain -1 not covered"),
        (np.array([0, 1, 1, 1, 2, 2]), r"degenerate sub-batch for \{0\} \(1 rows\)"),
    ])
    def test_uncovered_layout_raises_every_call(self, ids, error):
        m = tiny_model()
        x = np.random.default_rng(9).standard_normal((6, 6))
        for _ in range(3):
            with pytest.raises(ValueError, match=error):
                nb.partition_rows(self.PART, ids)
            with pytest.raises(ValueError, match=error):
                m.forward_aux(x, ids, self.PART)
        self.check_against_fresh_model(m, x, np.repeat(np.arange(3), 2), self.PART)


class TestEvalOnlyRoutes:
    """`features` and `forward_subpath` read the model and never train it."""

    @staticmethod
    def unit_state(m):
        units = list(m.main_units) + [u for bank in m.banks for u in bank.units.values()]
        return [(u.running_mean.copy(), u.running_var.copy(), u.update_count) for u in units]

    @pytest.mark.parametrize("use_on", [True, False])
    def test_features_leave_every_unit_unchanged(self, use_on):
        m = tiny_model(use_on=use_on)
        x = np.random.default_rng(0).standard_normal((9, 6)) * 3.0 + 1.0
        before = self.unit_state(m)
        m.features(x)
        for (mean_a, var_a, count_a), (mean_b, var_b, count_b) in zip(before, self.unit_state(m)):
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(var_a, var_b)
            assert count_a == count_b

    def test_forward_subpath_is_eval_only(self):
        m = tiny_model()
        x = np.random.default_rng(1).standard_normal((5, 6))
        before = self.unit_state(m)
        for s in m.banks[0].subsets():
            with pytest.raises(ValueError, match="forward_subpath: mode must be 'eval'"):
                m.forward_subpath(x, s, mode="train")
            assert m.forward_subpath(x, s, mode="eval").shape == (5, 3)
        for (mean_a, var_a, count_a), (mean_b, var_b, count_b) in zip(before, self.unit_state(m)):
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(var_a, var_b)
            assert count_a == count_b


class TestParameterBudget:
    def test_backbone_count_independent_of_aug(self):
        def backbone_count(m):
            return sum(t.size for layer in m.layers for _, t in layer.parameters())

        a = tiny_model(use_aug=True)
        b = tiny_model(use_aug=False)
        assert backbone_count(a) == backbone_count(b)

    def test_aug_adds_only_bank_and_heads(self):
        cfg = tiny_config()
        a = init_model(cfg, seed=0)
        names = [n for n, _ in a.parameters()]
        extra = [n for n in names if n.startswith(("bank.", "classifier.aux."))]
        base = [n for n in names if not n.startswith(("bank.", "classifier.aux."))]
        b = init_model(tiny_config(use_aug=False), seed=0)
        assert [n for n, _ in b.parameters()] == base
        # 2N units per site, gamma+beta each
        assert len([n for n in extra if n.startswith("bank.")]) == \
            len(cfg.hidden_sizes) * 2 * cfg.num_domains * 2

    def test_shared_one_collapses_heads(self):
        m = tiny_model(classifier_mode="shared_one")
        heads = {id(c.weight) for c in m.classifiers_aux.values()}
        assert heads == {id(m.classifier_main.weight)}
        names = [n for n, _ in m.parameters()]
        assert not any(n.startswith("classifier.aux.") for n in names)

    def test_shared_two_uses_one_aux_head(self):
        m = tiny_model(classifier_mode="shared_two")
        heads = {id(c.weight) for c in m.classifiers_aux.values()}
        assert len(heads) == 1
        assert id(m.classifier_main.weight) not in heads


class TestCheckpoint:
    def _exercise(self, model, steps=3):
        # a few training-mode forwards so running stats and counters move
        rng = np.random.default_rng(9)
        parts = nb.enumerate_reduced_combinations(3)
        for i in range(steps):
            x, _, ids = toy_batch(rng)
            with T.no_grad():
                model.forward_main(x, mode="train")
                if model.config.use_aug:
                    model.forward_aux(x, ids, parts[i % len(parts)], mode="train")

    def test_round_trip_bit_exact(self, tmp_path):
        m = tiny_model(seed=3)
        self._exercise(m)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(m, p1, epoch=4, rng_state='{"x": 1}')
        loaded, epoch, rng_state = load_checkpoint(p1)
        assert epoch == 4 and rng_state == '{"x": 1}'
        save_checkpoint(loaded, p2, epoch=4, rng_state='{"x": 1}')
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_forward_identical(self, tmp_path):
        m = tiny_model(seed=11)
        self._exercise(m)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        loaded, _, _ = load_checkpoint(path)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 6))
        with T.no_grad():
            a, _ = m.forward_main(x, mode="eval")
            b, _ = loaded.forward_main(x, mode="eval")
        assert np.array_equal(a.data, b.data)
        for s in m.banks[0].subsets():
            with T.no_grad():
                pa = m.forward_subpath(x, s, mode="eval").data
                pb = loaded.forward_subpath(x, s, mode="eval").data
            assert np.array_equal(pa, pb)

    def test_counters_and_running_stats_restored(self, tmp_path):
        m = tiny_model(seed=2)
        self._exercise(m, steps=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        loaded, _, _ = load_checkpoint(path)
        for ua, ub in zip(m.main_units, loaded.main_units):
            assert ua.update_count == ub.update_count
            assert np.array_equal(ua.running_mean, ub.running_mean)
            assert np.array_equal(ua.running_var, ub.running_var)
        for ba, bb in zip(m.banks, loaded.banks):
            for s in ba.subsets():
                assert ba.units[s].update_count == bb.units[s].update_count
                assert np.array_equal(ba.units[s].running_var, bb.units[s].running_var)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestSmallConv:
    def test_forward_shapes(self):
        cfg = ModelConfig(input_dim=16, hidden_sizes=(4, 6), num_classes=3,
                          num_domains=3, backbone="smallconv")
        m = init_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        logits, feats = m.forward_main(rng.standard_normal((5, 16)), mode="train")
        assert logits.shape == (5, 3)
        assert feats.shape == (5, 6)

    def test_aux_route_runs(self):
        cfg = ModelConfig(input_dim=16, hidden_sizes=(4, 6), num_classes=3,
                          num_domains=3, backbone="smallconv")
        m = init_model(cfg, seed=0)
        rng = np.random.default_rng(1)
        x, _, ids = toy_batch(rng, input_dim=16)
        blocks = m.forward_aux(x, ids, nb.all_singletons(3), mode="train")
        assert sum(idx.size for idx, _ in blocks.values()) == 12
