"""Batch sampling, the combined loss, SGD semantics, the training loop."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import ReferenceSGD, add, block_velocities, tiny_config, tiny_model, toy_batch
from normaug import cli, datagen, inference, normbank as nb, tensor as T, training
from normaug.gradcheck import grad_check_params
from normaug.model import (ParamBlock, TwoPathNetwork, encode_rng_state, init_model,
                           load_checkpoint, save_checkpoint)
from normaug.normbank import DomainSubset, Partition
from normaug.tensor import Tensor
from normaug.training import (
    DomainBatch,
    EpochSampler,
    SGD,
    TrainConfig,
    make_optimizer,
    sample_combination,
    train,
    train_step,
    two_path_loss,
)


def small_dataset(seed=0, per_cell=24, kappa=1.0):
    ds, _ = datagen.generate(num_classes=3, num_domains=4, per_cell=per_cell,
                             feature_dim=6, shift_kappa=kappa, seed=seed)
    return ds


class TestDomainBatch:
    def test_invariants_enforced(self):
        feats = np.zeros((6, 4))
        labels = np.zeros(6, dtype=np.int64)
        ids = np.repeat([0, 1, 2], 2)
        DomainBatch(feats, labels, ids, per_domain=2)
        with pytest.raises(ValueError):
            DomainBatch(feats, labels, np.array([0, 0, 0, 1, 1, 2]), per_domain=2)
        with pytest.raises(ValueError):
            DomainBatch(feats, labels, ids, per_domain=1)


def reference_validate(ids: np.ndarray, per_domain: int) -> str | None:
    """The domain id rule by `np.unique`: None if the ids are exactly the
    integers 0..k-1 with `per_domain` rows each, else the error message (a
    count error before a range error)."""
    uniq, counts = np.unique(ids, return_counts=True)
    if ids.size != uniq.size * per_domain or not np.all(counts == per_domain):
        return (f"DomainBatch: expected {per_domain} rows per domain, "
                f"got {dict(zip(uniq, counts))}")
    if ids.dtype.kind not in "iu" or not np.array_equal(uniq, np.arange(uniq.size)):
        return (f"DomainBatch: domain ids must be the integers 0..{uniq.size - 1}, "
                f"got {uniq.tolist()}")
    return None


class TestDomainBatchIds:
    """`validate` checks the ids by one `np.bincount` over 0..k-1; the
    accepted batches and the error messages are those of the `np.unique`
    rule."""

    def check(self, ids, per_domain=2):
        ids = np.asarray(ids)
        n = ids.size
        want = reference_validate(ids, per_domain)
        if want is None:
            DomainBatch(np.zeros((n, 3)), np.zeros(n, np.int64), ids, per_domain)
        else:
            with pytest.raises(ValueError) as exc:
                DomainBatch(np.zeros((n, 3)), np.zeros(n, np.int64), ids, per_domain)
            assert str(exc.value) == want
        return want

    @pytest.mark.parametrize("ids", [[-1, -1, 0], [-3, 0, 0, 1, 1], [0, 0, -1, 1, 1]])
    def test_negative_ids_rejected(self, ids):
        assert self.check(ids) is not None

    @pytest.mark.parametrize("ids", [[0, 0, 0, 1, 1, 2], [2, 2, 2], [5, 5, 1]])
    def test_unequal_counts_rejected(self, ids):
        assert self.check(ids) is not None

    @pytest.mark.parametrize("ids", [[10**12, 10**12, 0], [0, 0, 2**62, 1, 1]])
    def test_huge_ids_rejected(self, ids):
        assert self.check(ids) is not None

    def test_balanced_out_of_range_ids_rejected_without_counting_to_them(self):
        tracemalloc.start()
        try:
            assert self.check([-4, -4, 10**12, 10**12, 7, 7]) == (
                "DomainBatch: domain ids must be the integers 0..2, got [-4, 7, 1000000000000]")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("ids", [[0, 0, 2, 2], [1, 1, 2, 2, 3, 3], [5, 5]])
    def test_balanced_ids_with_a_gap_rejected(self, ids):
        assert "must be the integers" in self.check(ids)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8])
    def test_integer_dtypes(self, dtype):
        assert self.check(np.array([1, 1, 0, 0, 2, 2], dtype=dtype)) is None
        assert self.check(np.array([1, 1, 0, 0, 3, 3], dtype=dtype)) is not None

    def test_float_ids_rejected(self):
        assert self.check(np.array([0.0, 0.0, 1.0, 1.0])) is not None

    def test_matches_unique_rule_on_random_ids(self):
        rng = np.random.default_rng(11)
        outcomes = []
        for _ in range(300):
            k, per = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            # half the draws use the ids 0..k-1, half any k distinct ids
            domains = np.arange(k) if rng.random() < 0.5 else rng.choice(
                np.arange(-2, 9), size=k, replace=False)
            ids = np.repeat(domains, per)
            if rng.random() < 0.5:
                ids[rng.integers(ids.size)] = rng.integers(-2, 9)
            outcomes.append(self.check(rng.permutation(ids), per) is None)
        assert 50 < sum(outcomes) < 250


class TestSampleBatch:
    """Domain-balanced batches from `EpochSampler`, the sampler `train` uses."""

    def test_counts_and_balance(self):
        ds = small_dataset()
        sources, _ = datagen.split_lodo(ds, 3)
        batch = EpochSampler(sources, 16, np.random.default_rng(0)).next_batch()
        assert batch.size == 48
        ids, counts = np.unique(batch.domain_ids, return_counts=True)
        assert np.array_equal(ids, [0, 1, 2])
        assert np.all(counts == 16)

    def test_seeded_determinism(self):
        ds = small_dataset(per_cell=8)  # 24 rows per domain
        sources, _ = datagen.split_lodo(ds, 3)
        a = EpochSampler(sources, 8, np.random.default_rng(42))
        b = EpochSampler(sources, 8, np.random.default_rng(42))
        # the fourth batch comes after a reshuffle
        for _ in range(4):
            batch_a, batch_b = a.next_batch(), b.next_batch()
            assert np.array_equal(batch_a.features, batch_b.features)
            assert np.array_equal(batch_a.labels, batch_b.labels)

    def test_no_duplicates_within_domain(self):
        ds = small_dataset()
        sources, _ = datagen.split_lodo(ds, 3)
        batch = EpochSampler(sources, 16, np.random.default_rng(1)).next_batch()
        for d in range(3):
            rows = batch.features[batch.domain_ids == d]
            assert np.unique(rows, axis=0).shape[0] == 16

    def test_small_domain_rejected(self):
        ds = small_dataset(per_cell=4)  # 12 rows per domain
        sources, _ = datagen.split_lodo(ds, 3)
        with pytest.raises(ValueError, match="EpochSampler: batch_per_domain 16 is more than "
                                             "the 12 training rows of domain 0$"):
            EpochSampler(sources, 16, np.random.default_rng(0))

    def test_epoch_sampler_walks_without_replacement(self):
        ds = small_dataset(per_cell=8)  # 24 rows per domain
        sources, _ = datagen.split_lodo(ds, 3)
        sampler = EpochSampler(sources, 8, np.random.default_rng(3))
        seen = [sampler.next_batch().features[:, 0] for _ in range(3)]
        stacked = np.concatenate(seen)
        # 24 draws per domain before any reshuffle: all rows distinct
        assert np.unique(stacked).size == stacked.size


class TestSampleCombination:
    def test_uniform_frequencies(self):
        parts = nb.enumerate_reduced_combinations(3)
        rng = np.random.default_rng(0)
        counts = {p: 0 for p in parts}
        draws = 4000
        for _ in range(draws):
            counts[sample_combination(parts, rng, "random")] += 1
        for p, c in counts.items():
            assert abs(c / draws - 0.25) < 0.03, f"{p}: {c / draws}"

    def test_single_only(self):
        parts = nb.enumerate_reduced_combinations(3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_combination(parts, rng, "single_only").is_all_singletons()

    def test_seeded_sequence(self):
        parts = nb.enumerate_reduced_combinations(4)
        rng = np.random.default_rng(9)
        seq1 = [sample_combination(parts, rng, "random") for _ in range(10)]
        rng = np.random.default_rng(9)
        seq2 = [sample_combination(parts, rng, "random") for _ in range(10)]
        assert seq1 == seq2


class TestLoss:
    def test_uniform_two_class(self):
        logits = Tensor(np.zeros((1, 2)))
        loss = two_path_loss(logits, np.array([0]), None)
        assert math.isclose(loss.item(), math.log(2.0), rel_tol=1e-12)

    def test_duplicated_aux_doubles_loss(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((4, 3)))
        labels = np.array([0, 1, 2, 0])
        blocks = {DomainSubset.of(0, 1, 2): (np.arange(4), logits)}
        total = two_path_loss(logits, labels, blocks, aux_weight=1.0)
        single = two_path_loss(logits, labels, None)
        assert math.isclose(total.item(), 2 * single.item(), rel_tol=1e-12)

    def test_block_average_arithmetic(self):
        # main CE 0.5, two blocks with mean CEs 0.4 and 0.8 -> 0.5 + 0.6
        def logits_with_ce(ce, n):
            # two classes; logit gap g gives CE = log(1 + e^-g)
            gap = -math.log(math.expm1(ce)) if ce < math.log(2) else 0.0
            gap = -math.log(math.exp(ce) - 1.0)
            arr = np.zeros((n, 2))
            arr[:, 0] = gap
            return arr

        main = Tensor(logits_with_ce(0.5, 4))
        b1 = Tensor(logits_with_ce(0.4, 2))
        b2 = Tensor(logits_with_ce(0.8, 2))
        labels = np.zeros(4, dtype=np.int64)
        blocks = {
            DomainSubset.of(0): (np.array([0, 1]), b1),
            DomainSubset.of(1, 2): (np.array([2, 3]), b2),
        }
        loss = two_path_loss(main, labels, blocks, aux_weight=1.0)
        assert math.isclose(loss.item(), 0.5 + 0.5 * (0.4 + 0.8), rel_tol=1e-10)

    def test_aux_weight_scales_aux_term(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((4, 3)))
        labels = np.array([0, 1, 2, 0])
        blocks = {DomainSubset.of(0, 1, 2): (np.arange(4), logits)}
        l0 = two_path_loss(logits, labels, None).item()
        l1 = two_path_loss(logits, labels, blocks, aux_weight=0.5).item()
        assert math.isclose(l1, 1.5 * l0, rel_tol=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="label out of range"):
            two_path_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]), None)

    def test_full_loss_gradcheck(self):
        """Finite differences over every parameter of a small two-layer model,
        main route plus one auxiliary partition."""
        rng = np.random.default_rng(2)
        for trial in range(3):
            m = tiny_model(seed=trial, hidden=(5, 4))
            x, labels, ids = toy_batch(rng, per_domain=2)
            part = nb.enumerate_reduced_combinations(3)[trial % 4]
            params = [t for _, t in m.parameters()]

            def fn():
                logits, _ = m.forward_main(x, mode="train")
                blocks = m.forward_aux(x, ids, part, mode="train")
                return two_path_loss(logits, labels, blocks, aux_weight=1.0)

            assert grad_check_params(fn, params, h=1e-5) < 1e-6


def one_block_sgd(t: Tensor, **group) -> SGD:
    """SGD over one block holding the single parameter `t`."""
    return SGD([{"blocks": [ParamBlock([("w", t)])], **group}])


class TestSGD:
    def test_plain_sgd_is_lr_times_grad(self):
        t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = one_block_sgd(t, lr=0.1, momentum=0.0, weight_decay=0.0)
        t.grad = np.array([3.0, -1.0])
        before = t.data.copy()
        opt.step()
        assert np.array_equal(t.data, before - 0.1 * np.array([3.0, -1.0]))

    def test_zero_lr_freezes(self):
        m = tiny_model()
        cfg = TrainConfig(lr_backbone=1e-300, lr_classifier=1e-300)
        opt = make_optimizer(m, cfg)
        opt.lr_scale = 0.0
        rng = np.random.default_rng(0)
        x, labels, ids = toy_batch(rng)
        before = {n: t.data.copy() for n, t in m.parameters()}
        batch = DomainBatch(x, labels, ids, per_domain=4)
        train_step(m, batch, nb.all_singletons(3), opt)
        for n, t in m.parameters():
            assert np.array_equal(before[n], t.data), n

    def test_momentum_accumulates_velocity(self):
        t = Tensor(np.array([0.0]), requires_grad=True)
        opt = one_block_sgd(t, lr=1.0, momentum=0.5, weight_decay=0.0)
        t.grad = np.array([1.0])
        opt.step()  # v=1, w=-1
        t.grad = np.array([1.0])
        opt.step()  # v=1.5, w=-2.5
        assert np.allclose(t.data, [-2.5])

    def test_weight_decay_added_to_grad(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        opt = one_block_sgd(t, lr=0.1, momentum=0.0, weight_decay=0.5)
        t.grad = np.array([0.0])
        opt.step()
        assert np.allclose(t.data, [2.0 - 0.1 * (0.5 * 2.0)])

    @staticmethod
    def run_steps(optimizer_cls, weight_decay: float, model=None):
        """10 `train_step`s of a tiny `on_aug` model (or `model`) with
        `optimizer_cls`; returns (model, optimizer, losses)."""
        m = model if model is not None else tiny_model(seed=5)
        opt = optimizer_cls(make_optimizer(m, TrainConfig(weight_decay=weight_decay)).groups)
        rng = np.random.default_rng(12)
        parts = nb.enumerate_reduced_combinations(3)
        losses = []
        for i in range(10):
            x, labels, ids = toy_batch(rng)
            losses.append(train_step(m, DomainBatch(x, labels, ids, per_domain=4),
                                     parts[i % len(parts)], opt))
        return m, opt, losses

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_in_place_step_bitwise_matches_reference(self, weight_decay):
        m_a, opt_a, loss_a = self.run_steps(SGD, weight_decay)
        m_b, opt_b, loss_b = self.run_steps(ReferenceSGD, weight_decay)
        assert loss_a == loss_b
        for (name, ta), (_, tb) in zip(m_a.parameters(), m_b.parameters()):
            assert np.array_equal(ta.data, tb.data), name
        va, vb = block_velocities(opt_a), block_velocities(opt_b)
        assert len(va) == len(vb) == len(m_a.blocks)
        for block, a, b in zip(m_a.blocks, va, vb):
            assert a is not None and a.tobytes() == b.tobytes(), block.name

    def test_read_only_gradient_without_weight_decay(self):
        """`sum`'s backward hands a leaf a read-only broadcast view as its
        gradient; the velocity is a copy, never that view."""
        t = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        opt = one_block_sgd(t, lr=0.1, momentum=0.5, weight_decay=0.0)
        grads = []
        for _ in range(3):
            opt.zero_grad()
            T.backward(t.sum())
            assert not t.grad.flags.writeable
            grads.append(t.grad)
            opt.step()
            assert not any(np.shares_memory(opt.groups[0]["velocity"][0], g) for g in grads)
        want = np.array([1.0, -2.0, 0.5])
        for v in (1.0, 1.5, 1.75):
            want = want - 0.1 * v
        assert np.array_equal(t.data, want)

    def test_checkpoint_model_steps_in_place(self):
        """A model loaded from the committed checkpoint owns writeable
        arrays: a step updates them in place, with the reference bits."""
        fixture = Path(__file__).parent / "data" / "tiny_aug.ckpt"
        m_a, m_b = load_checkpoint(fixture)[0], load_checkpoint(fixture)[0]
        units = m_a.main_units + [u for bank in m_a.banks for u in bank.units.values()]
        arrays = [t.data for _, t in m_a.parameters()]
        arrays += [a for u in units for a in (u.running_mean, u.running_var)]
        assert all(a.flags.writeable for a in arrays)
        self.run_steps(SGD, 5e-4, m_a)
        self.run_steps(ReferenceSGD, 5e-4, m_b)
        assert all(a is b for a, b in zip(arrays, [t.data for _, t in m_a.parameters()]))
        for (name, ta), (_, tb) in zip(m_a.parameters(), m_b.parameters()):
            assert np.array_equal(ta.data, tb.data), name

    @pytest.mark.parametrize("mode", ["independent", "shared_one", "shared_two"])
    def test_every_model_parameter_is_in_a_block(self, mode):
        """Built or loaded, a model's parameters tile one buffer per block,
        each once and in order: the backbone with the main units, each bank
        subset's units, each classifier. `make_optimizer` puts the
        classifiers' blocks in the second group."""
        fixture = Path(__file__).parent / "data" / "tiny_aug.ckpt"
        n = len(nb.scheme_subsets(3))
        aux = {"independent": n, "shared_one": 0, "shared_two": 1}[mode]
        for m in (tiny_model(classifier_mode=mode), load_checkpoint(fixture)[0]):
            if m.config.classifier_mode != mode:
                continue
            sites = len(m.config.hidden_sizes)
            owners = [*m.layers, *m.main_units, m.classifier_main, *m.classifiers_aux.values()]
            owners += [u for bank in m.banks for u in bank.units.values()]
            tensors = {id(t) for owner in owners for _, t in owner.parameters()}
            in_blocks = [id(t) for b in m.blocks for _, t in b.params]
            assert sorted(in_blocks) == sorted(tensors)
            assert [(n, id(t)) for n, t in m.parameters()] == \
                [(n, id(t)) for b in m.blocks for n, t in b.params]
            for block in m.blocks:
                assert block.name == block.params[0][0]
                start = block.buffer.__array_interface__["data"][0]
                for (name, t), view in zip(block.params, block.views):
                    assert t.data is view and view.base is block.buffer, name
                    assert view.__array_interface__["data"][0] == start, name
                    start += view.nbytes
                assert start == block.buffer.__array_interface__["data"][0] + block.buffer.nbytes
            rest, clf = (g["blocks"] for g in make_optimizer(m, TrainConfig()).groups)
            # per site: a layer's W and b, the main unit's gamma, beta and mix
            assert [len(b.params) for b in rest] == [5 * sites] + [2 * sites] * n
            assert [len(b.params) for b in clf] == [2] * (1 + aux)
            assert all(b.name.startswith("classifier.") for b in clf)
            assert not any(b.name.startswith("classifier.") for b in rest)

    def test_block_without_gradients_is_skipped(self):
        """A step that gave a block no gradient leaves its buffer and its
        velocity alone."""
        m = tiny_model(seed=5)
        opt = make_optimizer(m, TrainConfig())
        before = [b.buffer.copy() for b in m.blocks]
        opt.zero_grad()
        opt.step()
        assert all(b.buffer.tobytes() == x.tobytes() for b, x in zip(m.blocks, before))
        assert block_velocities(opt) == [None] * len(m.blocks)

    def test_partly_updated_block_raises(self):
        """A block of which some, not all, parameters have a gradient is an
        error naming its first parameter; its buffer does not move."""
        m = tiny_model(seed=5, hidden=(5, 4, 3))
        opt = make_optimizer(m, TrainConfig())
        block = next(b for b in m.blocks if b.name.startswith("bank."))
        assert block.name == "bank.site0.u0.gamma" and len(block.params) == 6
        opt.zero_grad()
        for _, t in block.params[:2]:
            t.grad = np.ones(t.shape)
        before = block.buffer.copy()
        with pytest.raises(ValueError) as err:
            opt.step()
        assert str(err.value) == "SGD: block bank.site0.u0.gamma: 2 of 6 parameters have a gradient"
        assert block.buffer.tobytes() == before.tobytes()

    def test_replaced_parameter_array_raises(self):
        """A parameter whose `data` was replaced after the model was built
        no longer tiles its block: the step is an error naming the block and
        the parameter."""
        m = tiny_model(seed=5)
        opt = make_optimizer(m, TrainConfig())
        w = m.layers[0].weight
        w.data = w.data.copy()
        with pytest.raises(ValueError) as err:
            self.run_steps(lambda groups: opt, 5e-4, m)
        assert str(err.value) == ("SGD: block backbone.layer0.W: parameter backbone.layer0.W "
                                  "no longer holds its view of the block's buffer")

    def test_gradient_of_another_shape_raises(self):
        t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = one_block_sgd(t, lr=0.1)
        t.grad = np.ones((1, 2))
        with pytest.raises(ValueError) as err:
            opt.step()
        assert str(err.value) == "SGD: block w: parameter w has shape (2,), its gradient (1, 2)"
        assert np.array_equal(t.data, [1.0, -2.0])


class TestTrainStep:
    def test_loss_decreases_on_separable_toy(self):
        # two linearly separable classes over two source domains
        rng = np.random.default_rng(0)
        n = 40
        x0 = rng.standard_normal((n, 6)) + np.array([3.0, 0, 0, 0, 0, 0])
        x1 = rng.standard_normal((n, 6)) - np.array([3.0, 0, 0, 0, 0, 0])
        x = np.vstack([x0, x1])
        labels = np.concatenate([np.zeros(n, np.int64), np.ones(n, np.int64)])
        ids = np.concatenate([np.repeat([0, 1], n // 2), np.repeat([0, 1], n // 2)])

        cfg = tiny_config(num_domains=2, num_classes=2)
        m = init_model(cfg, seed=0)
        opt = make_optimizer(m, TrainConfig(lr_backbone=0.02, lr_classifier=0.05))
        parts = nb.enumerate_reduced_combinations(2)
        losses = []
        d0 = np.flatnonzero(ids == 0)
        d1 = np.flatnonzero(ids == 1)
        for step in range(50):
            sel = np.concatenate([rng.choice(d0, 4, replace=False),
                                  rng.choice(d1, 4, replace=False)])
            batch = DomainBatch(x[sel], labels[sel], ids[sel], per_domain=4)
            losses.append(train_step(m, batch, parts[0], opt))
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("groups", [[(0,), (1,), (2,)], [(0, 2), (1,)]])
    def test_group_rows_found_once_per_step(self, groups, monkeypatch):
        """One `rows` call per group per step, with the loss, the running
        moments and the parameters bitwise equal to a step whose
        `partitioned_forward` finds the rows itself at every site."""
        part = Partition([DomainSubset.of(*g) for g in groups], 3)
        rng = np.random.default_rng(8)
        x, labels, ids = toy_batch(rng, per_domain=5)
        batch = DomainBatch(x, labels, ids[::-1].copy(), per_domain=5)
        calls = []
        rows = DomainSubset.rows
        monkeypatch.setattr(DomainSubset, "rows",
                            lambda self, d: calls.append(self) or rows(self, d))

        def step():
            m = tiny_model(seed=6)
            loss = train_step(m, batch, part, make_optimizer(m, TrainConfig()))
            return m, loss

        shared, loss_shared = step()
        assert sorted(calls) == sorted(part.groups)
        calls.clear()
        forward = nb.partitioned_forward
        monkeypatch.setattr(nb, "partitioned_forward",
                            lambda bank, p, h, d, mode="train", group_rows=None, relu=False:
                            forward(bank, p, h, d, mode, relu=relu))
        per_site, loss_per_site = step()
        assert len(calls) == len(part) * (1 + len(per_site.banks))
        assert loss_shared == loss_per_site
        for bank_a, bank_b in zip(shared.banks, per_site.banks):
            for s in bank_a.subsets():
                a, b = bank_a.units[s], bank_b.units[s]
                assert np.array_equal(a.running_mean, b.running_mean)
                assert np.array_equal(a.running_var, b.running_var)
                assert a.update_count == b.update_count
        for (name, ta), (_, tb) in zip(shared.parameters(), per_site.parameters()):
            assert np.array_equal(ta.data, tb.data), name

    def test_group_rows_found_once_per_layout(self, monkeypatch):
        """Steps whose batches share a domain-id layout find each partition's
        rows once; a batch with another layout finds them again."""
        calls = []
        rows = DomainSubset.rows
        monkeypatch.setattr(DomainSubset, "rows",
                            lambda self, d: calls.append(self) or rows(self, d))
        rng = np.random.default_rng(9)
        m = tiny_model(seed=7)
        opt = make_optimizer(m, TrainConfig())
        singles = nb.all_singletons(3)
        pair = Partition([DomainSubset.of(0, 2), DomainSubset.of(1)], 3)
        interleaved = np.tile(np.arange(3), 4)
        for ids, part, found in [(None, singles, 3), (None, singles, 0), (None, pair, 2),
                                 (None, singles, 0), (interleaved, singles, 3),
                                 (None, pair, 2)]:
            x, labels, blocked = toy_batch(rng)
            batch = DomainBatch(x, labels, blocked if ids is None else ids, per_domain=4)
            calls.clear()
            train_step(m, batch, part, opt)
            assert len(calls) == found

    @pytest.mark.parametrize("num_domains", [2, 4])
    def test_batch_domain_count_must_match_the_model(self, num_domains):
        m = tiny_model()
        rng = np.random.default_rng(2)
        x, labels, ids = toy_batch(rng, num_domains=num_domains)
        batch = DomainBatch(x, labels, ids, per_domain=4)
        before = {n: t.data.copy() for n, t in m.parameters()}
        with pytest.raises(ValueError, match=f"model expects 3 source domains, "
                                             f"batch has {num_domains}"):
            train_step(m, batch, None, make_optimizer(m, TrainConfig()))
        for n, t in m.parameters():
            assert np.array_equal(before[n], t.data), n

    def test_nan_loss_aborts(self):
        m = tiny_model()
        m.classifier_main.weight.data[:] = np.inf
        rng = np.random.default_rng(1)
        x, labels, ids = toy_batch(rng)
        batch = DomainBatch(x, labels, ids, per_domain=4)
        opt = make_optimizer(m, TrainConfig())
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite"):
                train_step(m, batch, None, opt)


class ReferenceSampler(EpochSampler):
    """`EpochSampler` drawing its batch one domain at a time: a gather per
    domain, concatenated."""

    def next_batch(self) -> DomainBatch:
        feats, labels, doms = [], [], []
        for pos, d in enumerate(self.ids):
            d = int(d)
            pool, cur = self._pools[d], self._cursor[d]
            if cur + self.per_domain > pool.size:
                pool = self.rng.permutation(pool)
                self._pools[d], cur = pool, 0
            pick = pool[cur:cur + self.per_domain]
            self._cursor[d] = cur + self.per_domain
            feats.append(self.dataset.features[pick])
            labels.append(self.dataset.labels[pick])
            doms.append(np.full(self.per_domain, pos, dtype=np.int64))
        return DomainBatch(np.concatenate(feats), np.concatenate(labels),
                           np.concatenate(doms), self.per_domain)


def reference_loss(main_logits, labels, aux_blocks, aux_weight):
    """The two-path loss from one-head `cross_entropy` nodes joined by
    add and mul nodes."""
    loss = T.cross_entropy(main_logits, labels)
    if aux_blocks:
        aux_total = None
        for idx, logits in aux_blocks.values():
            ce = T.cross_entropy(logits, labels[idx])
            aux_total = ce if aux_total is None else add(aux_total, ce)
        loss = add(loss, (aux_weight / len(aux_blocks)) * aux_total)
    return loss


def reference_step(model, batch, partition, optimizer, aux_weight):
    optimizer.zero_grad()
    main_logits, _ = model.forward_main(batch.features, mode="train")
    aux_blocks = None
    if partition is not None:
        aux_blocks = model.forward_aux(batch.features, batch.domain_ids, partition,
                                       mode="train")
    loss = reference_loss(main_logits, batch.labels, aux_blocks, aux_weight)
    T.backward(loss)
    optimizer.step()
    return loss.item()


class TestStepOracle:
    """30 `train_step` calls on `EpochSampler` batches against the reference
    step (one-head losses joined by add/mul nodes) on `ReferenceSampler`
    batches: every loss, parameter, velocity, running moment and update
    count is bitwise equal."""

    @pytest.mark.parametrize("mode", ["independent", "shared_one", "shared_two"])
    @pytest.mark.parametrize("use_aug", [False, True])
    @pytest.mark.parametrize("use_on", [False, True])
    @pytest.mark.parametrize("backbone", ["mlp", "smallconv"])
    def test_bitwise_equal_to_reference_step(self, backbone, use_on, use_aug, mode):
        ds, _ = datagen.generate(num_classes=3, num_domains=4, per_cell=10,
                                 feature_dim=16, seed=1)
        sources, _ = datagen.split_lodo(ds, 3)
        cfg = tiny_config(input_dim=16, hidden=(4, 3) if backbone == "smallconv" else (8, 5),
                          use_on=use_on, use_aug=use_aug, classifier_mode=mode,
                          backbone=backbone)
        tc = TrainConfig(aux_weight=0.7)
        parts = nb.enumerate_reduced_combinations(3)
        runs = []
        for sampler_cls, step in ((EpochSampler, train_step),
                                  (ReferenceSampler, reference_step)):
            m = init_model(cfg, seed=4)
            opt = make_optimizer(m, tc)
            sampler = sampler_cls(sources, 5, np.random.default_rng(2))
            combo_rng = np.random.default_rng(3)
            losses = []
            for _ in range(30):
                batch = sampler.next_batch()
                part = sample_combination(parts, combo_rng) if use_aug else None
                losses.append(step(m, batch, part, opt, tc.aux_weight))
            runs.append((m, opt, losses))
        (m_a, opt_a, loss_a), (m_b, opt_b, loss_b) = runs
        assert loss_a == loss_b
        for (name, ta), (_, tb) in zip(m_a.parameters(), m_b.parameters()):
            assert np.array_equal(ta.data, tb.data), name
        va, vb = block_velocities(opt_a), block_velocities(opt_b)
        assert len(va) == len(vb) == len(m_a.blocks)
        for block, a, b in zip(m_a.blocks, va, vb):
            assert (a is None) == (b is None) and (a is None or np.array_equal(a, b)), block.name
        units_a = m_a.main_units + [b.units[s] for b in m_a.banks for s in b.subsets()]
        units_b = m_b.main_units + [b.units[s] for b in m_b.banks for s in b.subsets()]
        for a, b in zip(units_a, units_b):
            assert np.array_equal(a.running_mean, b.running_mean)
            assert np.array_equal(a.running_var, b.running_var)
            assert a.update_count == b.update_count


class TestTrainLoop:
    def _run(self, seed=0, score_every_epoch=True, **overrides):
        cfg_kwargs = dict(epochs=2, iters_per_epoch=4, batch_per_domain=4, seed=seed)
        cfg_kwargs.update(overrides)
        m = init_model(tiny_config(num_classes=3), seed=seed)
        return train(m, small_dataset(seed=seed), 3, TrainConfig(**cfg_kwargs),
                     score_every_epoch=score_every_epoch)

    def test_metrics_contract(self, tmp_path):
        """One row per epoch holding every metrics column, in order; the
        CLI's helper writes them as a header plus one line per epoch."""
        result = self._run()
        assert [r["epoch"] for r in result.metrics] == [1, 2]
        assert all(tuple(r) == training.METRICS_COLUMNS for r in result.metrics)
        path = tmp_path / "metrics.csv"
        cli._write_csv_atomic(path, training.METRICS_COLUMNS,
                              [list(r.values()) for r in result.metrics])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,src_acc,tgt_acc_main,tgt_acc_ensemble"
        assert len(lines) == 3  # header + 2 epochs
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_seeded_run_reproducible(self, tmp_path):
        r1, r2 = self._run(), self._run()
        assert r1.metrics == r2.metrics and r1.rng_state == r2.rng_state
        assert self._run(seed=1).rng_state != r1.rng_state
        for name, r in (("a", r1), ("b", r2)):
            save_checkpoint(r.model, tmp_path / name, epoch=2, rng_state=r.rng_state)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_final_epoch_model_persisted(self, tmp_path, monkeypatch):
        """`rng_state` is the batch sampler's generator after the last epoch,
        and a checkpoint of the result reloads the final model."""
        rngs, initial = [], []
        init = EpochSampler.__init__

        def spy(self, dataset, per_domain, rng):
            rngs.append(rng)
            initial.append(encode_rng_state(rng))
            init(self, dataset, per_domain, rng)

        monkeypatch.setattr(EpochSampler, "__init__", spy)
        result = self._run()
        assert len(rngs) == 1
        assert result.rng_state == encode_rng_state(rngs[0]) != initial[0]
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(result.model, ckpt, epoch=2, rng_state=result.rng_state)
        loaded, epoch, rng_state = load_checkpoint(ckpt)
        assert epoch == 2 and rng_state == result.rng_state
        for (n1, t1), (n2, t2) in zip(result.model.parameters(), loaded.parameters()):
            assert n1 == n2 and np.array_equal(t1.data, t2.data)

    def test_baseline_leaves_bank_untouched(self, tmp_path):
        ds = small_dataset()
        tc = TrainConfig(epochs=1, iters_per_epoch=4, batch_per_domain=4)
        m = init_model(tiny_config(num_classes=3, use_aug=False), seed=0)
        train(m, ds, 3, tc)
        assert m.banks == []
        for unit in m.main_units:
            assert unit.update_count == 4

    def test_aux_units_updated_per_partition(self, tmp_path):
        ds = small_dataset()
        tc = TrainConfig(epochs=1, iters_per_epoch=6, batch_per_domain=4)
        m = init_model(tiny_config(num_classes=3), seed=0)
        train(m, ds, 3, tc)
        touched = sum(u.update_count for u in m.banks[0].units.values())
        # every iteration updates exactly the units of the sampled partition
        assert touched > 0
        for unit in m.main_units:
            assert unit.update_count == 6

    def test_source_score_reads_the_main_route_alone(self, monkeypatch):
        """The per-epoch source-validation score runs no sub-path, and it is
        bitwise the MainOnly fused accuracy of `evaluate`."""
        ds = small_dataset()
        tc = TrainConfig(epochs=1, iters_per_epoch=4, batch_per_domain=4)
        m = init_model(tiny_config(num_classes=3), seed=0)
        calls = []
        eval_logits = TwoPathNetwork.eval_logits

        def spy(self, x, subsets=(), main=True):
            calls.append((np.array(x), main, list(subsets)))
            return eval_logits(self, x, subsets, main=main)

        monkeypatch.setattr(TwoPathNetwork, "eval_logits", spy)
        result = train(m, ds, 3, tc)
        sources, target = datagen.split_lodo(ds, 3)
        split_seed = np.random.SeedSequence(tc.seed).spawn(3)[0]
        _, val = datagen.split_train_val(sources, tc.val_fraction,
                                         seed=split_seed.generate_state(1)[0])
        src_calls = [(main, subsets) for x, main, subsets in calls
                     if np.array_equal(x, val.features)]
        assert src_calls == [(True, [])]
        assert len(calls) == 2  # the source score and the target score
        want = inference.evaluate(m, val.features, val.labels,
                                  inference.FusionStrategy.MAIN_ONLY).fused_accuracy
        assert result.final["src_acc"] == want

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_unscored_epochs(self, monkeypatch, epochs):
        """With `score_every_epoch=False` only the last epoch is scored, once
        per split; the earlier rows hold exactly `epoch` and `train_loss`,
        and every row equals the fully scored run's in what it holds."""
        calls = []
        scorer = inference.evaluate
        monkeypatch.setattr(inference, "evaluate", lambda model, x, y, strategy, *a:
                            calls.append(strategy.value) or scorer(model, x, y, strategy, *a))
        every = self._run(epochs=epochs)
        assert sorted(calls) == ["MainOnly"] * epochs + ["MeanMeanIM"] * epochs
        calls.clear()
        last = self._run(epochs=epochs, score_every_epoch=False)
        assert sorted(calls) == ["MainOnly", "MeanMeanIM"]
        assert [tuple(r) for r in last.metrics[:-1]] == [("epoch", "train_loss")] * (epochs - 1)
        assert tuple(last.final) == training.METRICS_COLUMNS
        for a, b in zip(every.metrics, last.metrics):
            assert {k: float(v).hex() for k, v in b.items()} == {
                k: float(a[k]).hex() for k in b}
        assert last.rng_state == every.rng_state

    def test_non_finite_moment_aborts_before_scoring(self, monkeypatch):
        """A running variance that overflows in the epoch's last forward,
        whose loss is still finite, aborts the run, naming the moment,
        before the epoch is scored."""
        monkeypatch.setattr(inference, "evaluate", lambda *a, **k: pytest.fail("scored"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"^train: aborted at epoch 1: "
                                                   r"non-finite parameter main\.site1\.running_var$"):
                self._run(epochs=2, iters_per_epoch=2, lr_backbone=1e100)

    def test_step_decay_scales_the_learning_rate_per_epoch(self, monkeypatch):
        scales = []
        step = SGD.step
        monkeypatch.setattr(SGD, "step", lambda self: scales.append(self.lr_scale) or step(self))
        ds = small_dataset()
        tc = TrainConfig(epochs=3, iters_per_epoch=2, batch_per_domain=4,
                         lr_step_epochs=1, lr_step_gamma=0.5)
        train(init_model(tiny_config(num_classes=3), seed=0), ds, 3, tc)
        assert scales == [1.0, 1.0, 0.5, 0.5, 0.25, 0.25]

    @pytest.mark.parametrize("bad", [{"lr_step_epochs": -3}, {"lr_step_gamma": -1.0},
                                     {"lr_step_gamma": 0.0}, {"lr_step_gamma": 1.5},
                                     {"val_fraction": 1.5}, {"val_fraction": 0.0}])
    def test_bad_step_decay_rejected(self, bad):
        key = next(iter(bad))
        with pytest.raises(ValueError, match=f"TrainConfig: {key} must be"):
            TrainConfig(**bad).validate()
        with pytest.raises(ValueError, match=f"TrainConfig: {key} must be"):
            train(tiny_model(), small_dataset(), 3, TrainConfig(**bad))

    @pytest.mark.parametrize("bad, message", [
        ({"seed": -1}, "TrainConfig: seed must be >= 0, got -1$"),
        ({"batch_per_domain": 100}, "EpochSampler: batch_per_domain 100 is more than the 66 "
                                    "training rows of domain 0$"),
        ({"val_fraction": 0.99}, "split_train_val: a val_fraction of 0.99 leaves no training "
                                 "row of class 0 in domain 0$")])
    def test_refusals_before_the_first_step_name_the_key(self, monkeypatch, bad, message):
        """The seed is the config's rule; batch_per_domain and val_fraction
        against the dataset are the sampler's and the split's."""
        monkeypatch.setattr(training, "train_step", lambda *a, **k: pytest.fail("stepped"))
        with pytest.raises(ValueError, match=f"^{message}"):
            train(tiny_model(), small_dataset(), 3, TrainConfig(**bad))

    def test_domain_count_mismatch_rejected(self):
        ds = small_dataset()
        m = tiny_model(num_domains=4)
        with pytest.raises(ValueError, match="source domains"):
            train(m, ds, 3, TrainConfig(epochs=1, iters_per_epoch=1,
                                        batch_per_domain=4))
