"""The evaluation walk on plain arrays: agreement with the tape composite it
replaced, bitwise chunk invariance, the exact-zero probe copy, and no tape
use at all."""

import numpy as np
import pytest

from helpers import composite_eval_logits, tiny_model, toy_batch
from normaug import normbank as nb
from normaug import tensor as T
from normaug.diagnostics import divergence, perturbation_probe
from normaug.inference import (
    FusionStrategy,
    SubpathScope,
    _softmax_rows,
    evaluate,
    fuse,
    predict,
)
from normaug.model import ROW_BLOCK
from normaug.tensor import Tensor

# BN and ON main routes on both backbones, plus odd widths
KINDS = {
    "bn-mlp": dict(use_on=False),
    "on-mlp": dict(use_on=True),
    "bn-smallconv": dict(use_on=False, backbone="smallconv", input_dim=9, hidden=(4, 3)),
    "on-smallconv": dict(use_on=True, backbone="smallconv", input_dim=9, hidden=(4, 3)),
    "odd-mlp": dict(input_dim=7, hidden=(5, 3)),
}
SCOPES = list(SubpathScope)


def _trained(kw: dict):
    """A model whose every unit has non-trivial running moments and
    parameters, and whose every bank unit has been updated."""
    m = tiny_model(seed=3, **kw)
    rng = np.random.default_rng(17)
    parts = nb.enumerate_reduced_combinations(3)
    for i in range(2 * len(parts)):
        x, _, ids = toy_batch(rng, per_domain=5, input_dim=m.config.input_dim)
        with T.no_grad():
            m.forward_main(x * 2.0 + 0.5, mode="train")
            m.forward_aux(x * 2.0 + 0.5, ids, parts[i % len(parts)], mode="train")
    units = list(m.main_units) + [u for bank in m.banks for u in bank.units.values()]
    for u in units:
        u.gamma.data = rng.uniform(0.5, 1.5, u.channels)
        u.beta.data = rng.standard_normal(u.channels) * 0.3
        if hasattr(u, "mix_logits"):
            u.mix_logits.data = rng.standard_normal(2)
    return m


@pytest.fixture(scope="module", params=list(KINDS))
def model(request):
    return _trained(KINDS[request.param])


def _rows(model, n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, model.config.input_dim)) * 2.0


def _misaligned_copy(x: np.ndarray, offset: int) -> np.ndarray:
    """`x` copied into a buffer starting `offset` bytes past an allocation."""
    buf = np.zeros(x.nbytes + offset, dtype=np.uint8)
    out = np.ndarray(x.shape, dtype=np.float64, buffer=buf, offset=offset)
    out[...] = x
    return out


@pytest.mark.parametrize("scope", SCOPES)
def test_matches_tape_composite(model, scope):
    x = _rows(model, 40)
    subsets = [s for s in model.banks[0].subsets()
               if scope is SubpathScope.ALL_UNITS or s.size == 1]
    ref = {"main": _softmax_rows(composite_eval_logits(model, x)[0])}
    for s in subsets:
        ref[f"sub_{s.label()}"] = _softmax_rows(composite_eval_logits(model, x, s)[0])
    for strategy in FusionStrategy:
        fused, per_path = predict(model, x, strategy, scope)
        assert list(per_path) == list(ref)
        for name, p in per_path.items():
            assert np.abs(p - ref[name]).max() <= 1e-13, name
        ref_fused = fuse(ref["main"], list(ref.values())[1:], strategy)
        assert np.abs(fused - ref_fused).max() <= 1e-13
        assert np.array_equal(fused.argmax(1), ref_fused.argmax(1))


def test_features_match_tape_composite(model):
    x = _rows(model, 30, seed=1)
    assert np.abs(model.features(x) - composite_eval_logits(model, x)[1]).max() <= 1e-13
    probe, comp = x[:12], x[12:] * 1.5 + 0.7

    def pooled(h):
        mu, var = nb._channel_stats(h[:12])
        mu_c, var_c = nb._channel_stats(h[12:])
        return nb.pooled_moments(mu, var, 12, mu_c, var_c, h.shape[0] - 12)

    _, ref = composite_eval_logits(model, np.concatenate([probe, comp]), moments=pooled)
    got = model.features_with_batch_stats(probe, comp)
    assert np.abs(got - ref[:12]).max() <= 1e-13


@pytest.mark.parametrize("scope", SCOPES)
def test_chunks_bitwise_equal_full_batch(model, scope):
    x = _rows(model, 2 * ROW_BLOCK + 19, seed=2)
    fused, per_path = predict(model, x, FusionStrategy.MEAN_ALL, scope)
    feats = model.features(x)
    for chunk in (1, 7, 64, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1):
        parts = [predict(model, x[lo:lo + chunk], FusionStrategy.MEAN_ALL, scope)
                 for lo in range(0, len(x), chunk)]
        assert np.array_equal(np.vstack([f for f, _ in parts]), fused)
        for name, p in per_path.items():
            assert np.array_equal(np.vstack([per[name] for _, per in parts]), p), name
        assert np.array_equal(
            np.vstack([model.features(x[lo:lo + chunk]) for lo in range(0, len(x), chunk)]),
            feats)


@pytest.mark.parametrize("offset", [1, 8, 24])
def test_misaligned_input_bitwise_equal(model, offset):
    x = _rows(model, 70, seed=3)
    moved = _misaligned_copy(x, offset)
    for scope in SCOPES:
        fused, per_path = predict(model, x, FusionStrategy.MAX_IM, scope)
        fused_m, per_path_m = predict(model, moved, FusionStrategy.MAX_IM, scope)
        assert np.array_equal(fused, fused_m)
        assert all(np.array_equal(per_path[k], per_path_m[k]) for k in per_path)
        part, _ = predict(model, moved[13:50], FusionStrategy.MAX_IM, scope)
        assert np.array_equal(part, fused[13:50])
    assert np.array_equal(model.features(moved), model.features(x))


def test_input_layout_bitwise_equal(model):
    """A Fortran-order and a column-strided input give the bits of their
    C-contiguous copy."""
    x = _rows(model, 2 * ROW_BLOCK + 5, seed=7)
    wide = np.zeros((x.shape[0], 3 * x.shape[1]))
    wide[:, 2::3] = x
    for scope in SCOPES:
        fused, per_path = predict(model, x, FusionStrategy.MEAN_ALL, scope)
        for other in (np.asfortranarray(x), wide[:, 2::3]):
            fused_o, per_path_o = predict(model, other, FusionStrategy.MEAN_ALL, scope)
            assert np.array_equal(fused_o, fused)
            assert all(np.array_equal(per_path[k], per_path_o[k]) for k in per_path)
    assert np.array_equal(model.features(wide[:, 2::3]), model.features(x))


def test_probe_copy_displacement_exactly_zero(model):
    probe = _rows(model, 23, seed=4)
    out = perturbation_probe(model, probe, [("copy", probe.copy()),
                                            ("moved", _misaligned_copy(probe, 8))])
    assert out == [("copy", 0.0), ("moved", 0.0)]


def test_eval_wrappers_return_the_walk(model):
    x = _rows(model, 9, seed=5)
    subsets = model.banks[0].subsets()
    main, subs = model.eval_logits(x, subsets)
    logits, feats = model.forward_main(x, mode="eval")
    assert isinstance(logits, Tensor) and np.array_equal(logits.data, main)
    assert np.array_equal(feats.data, model.features(x))
    for s, z in zip(subsets, subs):
        assert np.array_equal(model.forward_subpath(x, s, mode="eval").data, z)


def test_evaluation_never_touches_the_tape(model, monkeypatch):
    x = _rows(model, 60, seed=6)
    labels = np.arange(60) % model.config.num_classes

    def no_tape(*args, **kwargs):
        raise AssertionError("evaluation built a tensor or a tape node")

    monkeypatch.setattr(T, "_record", no_tape)
    monkeypatch.setattr(Tensor, "__init__", no_tape)
    for scope in SCOPES:
        for strategy in FusionStrategy:
            predict(model, x, strategy, scope)
        evaluate(model, x, labels, FusionStrategy.MEAN_MEAN_IM, scope)
    model.features(x)
    model.features_with_batch_stats(x[:20])
    model.features_with_batch_stats(x[:20], x[20:])
    divergence(model, {0: x[:20], 1: x[20:40]}, x[40:])
    perturbation_probe(model, x[:20], [("copy", x[:20].copy()), ("other", x[20:])])
    with pytest.raises(AssertionError, match="tape"):
        model.forward_main(x, mode="eval")


def test_eval_rejects_bad_input():
    m = tiny_model()
    with pytest.raises(T.ShapeError, match="expected"):
        predict(m, np.ones((3, 5)))
    with pytest.raises(T.ShapeError, match="expected"):
        m.features(np.ones(6))
    with pytest.raises(T.ShapeError, match="channels"):
        nb.eval_normalize(m.main_units[0], np.ones((3, 5)))
    with pytest.raises(T.ShapeError, match="IN undefined"):
        nb.eval_normalize(nb.ONUnit(1), np.ones((3, 1)))
