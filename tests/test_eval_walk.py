"""The evaluation walk on plain arrays: agreement with the tape composite it
replaced, bitwise chunk invariance, pieces of `EVAL_ROWS` rows bitwise one
walk, the exact-zero probe copy, non-finite input refused, bounded memory,
and no tape use at all."""

import tracemalloc

import numpy as np
import pytest

from helpers import composite_eval_logits, tiny_model, toy_batch
from normaug import inference
from normaug import normbank as nb
from normaug import tensor as T
from normaug.diagnostics import divergence, perturbation_probe
from normaug.normbank import ONUnit
from normaug.inference import (
    FusionStrategy,
    SubpathScope,
    _softmax_rows,
    evaluate,
    fuse,
    predict,
)
from normaug.model import EVAL_ROWS, ROW_BLOCK
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
# a batch under one row block, and one whose last block overlaps the one before
ROW_COUNTS = (40, 2 * ROW_BLOCK + 19)


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


def _read_routes(strategy, subsets) -> list[str]:
    """The routes `strategy` reads, as `predict` names them."""
    return ((["main"] if strategy.reads_main else [])
            + ([f"sub_{s.label()}" for s in subsets] if strategy.reads_subpaths else []))


@pytest.mark.parametrize("scope", SCOPES)
def test_matches_tape_composite(model, scope):
    """Each rule's routes, exactly those it reads, and its fused matrix
    are within 1e-13 of the tape composite."""
    subsets = [s for s in model.banks[0].subsets()
               if scope is SubpathScope.ALL_UNITS or s.size == 1]
    for n in ROW_COUNTS:
        x = _rows(model, n)
        ref = {"main": _softmax_rows(composite_eval_logits(model, x)[0])}
        for s in subsets:
            ref[f"sub_{s.label()}"] = _softmax_rows(composite_eval_logits(model, x, s)[0])
        for strategy in FusionStrategy:
            fused, per_path = predict(model, x, strategy, scope)
            assert list(per_path) == _read_routes(strategy, subsets)
            for name, p in per_path.items():
                assert np.abs(p - ref[name]).max() <= 1e-13, (n, name)
            ref_fused = fuse(ref["main"], list(ref.values())[1:], strategy)
            assert np.abs(fused - ref_fused).max() <= 1e-13, n
            assert np.array_equal(fused.argmax(1), ref_fused.argmax(1))


@pytest.mark.parametrize("scope", SCOPES)
def test_each_rule_walks_the_routes_it_reads(model, scope, monkeypatch):
    """One `eval_logits` walk per `predict`: MainOnly walks the main route
    alone, MeanI and MaxI the scope's sub-paths alone, and the other five
    rules every route."""
    subsets = inference.subpath_subsets(model, scope)
    walks = []
    eval_logits = type(model).eval_logits

    def spy(self, x, subsets=(), main=True):
        walks.append((["main"] if main else []) + [f"sub_{s.label()}" for s in subsets])
        return eval_logits(self, x, subsets, main=main)

    monkeypatch.setattr(type(model), "eval_logits", spy)
    x = _rows(model, 20, seed=15)
    for strategy in FusionStrategy:
        walks.clear()
        _, per_path = predict(model, x, strategy, scope)
        assert walks == [_read_routes(strategy, subsets)] == [list(per_path)], strategy


def test_features_match_tape_composite(model):
    for n in (30, ROW_COUNTS[1]):
        x = _rows(model, n, seed=1)
        assert np.abs(model.features(x) - composite_eval_logits(model, x)[1]).max() <= 1e-13
        k = n * 2 // 5
        probe, comp = x[:k], x[k:] * 1.5 + 0.7

        def pooled(h):
            mu, var = nb._channel_stats(h[:k])
            mu_c, var_c = nb._channel_stats(h[k:])
            return nb.pooled_moments(mu, var, k, mu_c, var_c, h.shape[0] - k)

        _, ref = composite_eval_logits(model, np.concatenate([probe, comp]), moments=pooled)
        got = model.features_with_batch_stats(probe, comp)
        assert np.abs(got - ref[:k]).max() <= 1e-13, n


@pytest.mark.parametrize("kind", ["on-mlp", "on-smallconv"])
def test_on_main_route_is_not_folded(kind):
    """An ON unit normalizes the plain product: the main route's logits are
    bitwise the unfolded walk's (product, `eval_normalize`, ReLU), as before
    BN maps were folded into the products."""
    model = _trained(KINDS[kind])
    x = _rows(model, ROW_COUNTS[1], seed=8)
    h = model._eval_input(x)
    for layer, unit in zip(model.layers, model.main_units):
        assert isinstance(unit, ONUnit)
        h = np.maximum(nb.eval_normalize(unit, layer.apply(h)), 0.0)
    if model.config.backbone == "smallconv":
        h = h.mean(axis=(2, 3))
    assert np.array_equal(model.eval_logits(x)[0], model.classifier_main.apply(h))


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


@pytest.mark.parametrize("kind", ["bn-mlp", "bn-smallconv"])
def test_bn_routes_fold_into_the_products(kind, monkeypatch):
    """With running moments, a BN unit's map rides in the product before it:
    no BN route calls `eval_normalize`, and the probe's moments still do."""
    model = _trained(KINDS[kind])
    x = _rows(model, 30, seed=10)
    calls = []
    monkeypatch.setattr(nb, "eval_normalize", lambda *a: calls.append(a) or a[1])
    predict(model, x, FusionStrategy.MEAN_ALL, SubpathScope.ALL_UNITS)
    model.features(x)
    assert calls == []
    model.features_with_batch_stats(x)
    assert len(calls) == len(model.layers)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_names_its_row(bad):
    """Every evaluation entry refuses a non-finite feature before the walk,
    naming the first bad row, instead of scoring a NaN row as class 0."""
    m = _trained(KINDS["on-mlp"])
    x = _rows(m, 10, seed=9)
    x[2, 4] = x[5, 0] = bad
    labels = np.arange(10) % m.config.num_classes
    message = "^model: non-finite feature in row 2$"
    calls = [
        lambda: predict(m, x),
        lambda: evaluate(m, x, labels, FusionStrategy.MEAN_ALL, SubpathScope.ALL_UNITS),
        lambda: evaluate(m, x, labels, FusionStrategy.MAIN_ONLY),
        lambda: predict(m, x, FusionStrategy.MAX_I),
        lambda: m.features(x),
        lambda: m.eval_logits(x, m.banks[0].subsets()),
        lambda: m.eval_logits(x, m.banks[0].subsets(), main=False),
        lambda: divergence(m, {0: x, 1: x[6:]}, x[6:]),
        lambda: divergence(m, {0: x[6:], 1: x[6:]}, x),
        lambda: perturbation_probe(m, x, [("copy", x.copy())]),
        lambda: m.features_with_batch_stats(x),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match="^model: non-finite feature in row 0$"):
        perturbation_probe(m, x[6:], [("companion", x[5:])])


def test_non_finite_check_is_off_the_training_step():
    """Training checks its loss, not its input: a train-mode forward of a
    non-finite batch runs."""
    m = tiny_model()
    x = np.ones((6, 6))
    x[1, 1] = np.nan
    logits, _ = m.forward_main(x, mode="train")
    assert np.isnan(logits.data).any()


@pytest.mark.parametrize("classes", [2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_softmax_rows_class_major(classes):
    """The class-major softmax is bitwise the row-wise formula below 8
    classes (both sum in class order) and within 1e-15 above."""
    logits = np.random.default_rng(classes).standard_normal((300, classes)) * 6.0
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    want = e / e.sum(axis=1, keepdims=True)
    got = inference._softmax_rows(logits)
    assert got.shape == want.shape and got.flags.c_contiguous
    if classes < 8:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-15
    assert np.array_equal(inference._softmax_rows(logits[:1]), got[:1])
    assert inference._softmax_rows(logits[:0]).shape == (0, classes)


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


# row counts at the seams of the walk's pieces and of the products' row blocks
SEAM_ROWS = (1, ROW_BLOCK - 1, EVAL_ROWS - 1, EVAL_ROWS, EVAL_ROWS + 1,
             2 * EVAL_ROWS + ROW_BLOCK + 3)


def _one_walk(model, x, subsets):
    """Main and sub-path logits and main features from one `_eval_features`
    walk of all the rows, in no pieces."""
    h = model._eval_input(x)
    feats = model._eval_features(h, model.main_units)
    subs = [model._aux_classifier(s).apply(model._eval_features(h, model._bank_units(s)))
            for s in subsets]
    return model.classifier_main.apply(feats), subs, feats


@pytest.mark.parametrize("scope", SCOPES)
def test_pieces_bitwise_equal_one_walk(model, scope):
    """`eval_logits`, `features`, `predict` and `evaluate` walk in pieces of
    at most EVAL_ROWS rows, with the bits of one walk, whichever routes the
    rule reads."""
    subsets = inference.subpath_subsets(model, scope)
    for n in SEAM_ROWS:
        x = _rows(model, n, seed=n)
        labels = np.arange(n) % model.config.num_classes
        main, subs, feats = _one_walk(model, x, subsets)
        got_main, got_subs = model.eval_logits(x, subsets)
        assert np.array_equal(got_main, main), n
        assert len(got_subs) == len(subs)
        assert all(np.array_equal(a, b) for a, b in zip(got_subs, subs)), n
        assert np.array_equal(model.features(x), feats), n
        p_main, p_subs = _softmax_rows(main), [_softmax_rows(z) for z in subs]
        routes = {"main": p_main} | {f"sub_{s.label()}": p for s, p in zip(subsets, p_subs)}
        for strategy in (FusionStrategy.MEAN_MEAN_IM, FusionStrategy.MAX_IM,
                         FusionStrategy.MEAN_I):
            fused, per_path = predict(model, x, strategy, scope)
            assert np.array_equal(fused, fuse(p_main, p_subs, strategy)), (n, strategy)
            assert list(per_path) == _read_routes(strategy, subsets)
            assert all(np.array_equal(p, routes[name]) for name, p in per_path.items()), n
        report = evaluate(model, x, labels, FusionStrategy.MEAN_ALL, scope)
        ref = fuse(p_main, p_subs, FusionStrategy.MEAN_ALL)
        assert np.array_equal(report.fused_probabilities, ref), n
        assert report.fused_accuracy == float((ref.argmax(1) == labels).mean())
        accuracy = float((p_main.argmax(1) == labels).mean())
        main_only = evaluate(model, x, labels, FusionStrategy.MAIN_ONLY, scope)
        assert report.per_path["main"] == main_only.fused_accuracy == accuracy


def test_walk_runs_in_pieces(monkeypatch):
    """Every route walks pieces of at most EVAL_ROWS rows that cover the
    rows in order; the batch-statistics probe stays one walk."""
    m = _trained(KINDS["on-mlp"])
    n = 2 * EVAL_ROWS + ROW_BLOCK + 3
    x = _rows(m, n, seed=12)
    pieces = []
    walk = m._eval_features
    monkeypatch.setattr(m, "_eval_features", lambda h, *a: pieces.append(h.shape[0]) or walk(h, *a))
    predict(m, x, FusionStrategy.MEAN_ALL, SubpathScope.INDEPENDENT_ONLY)
    routes = 1 + len(m.banks[0].singletons())
    assert pieces == [EVAL_ROWS, EVAL_ROWS, ROW_BLOCK + 3] * routes
    pieces.clear()
    m.features(x)
    assert pieces == [EVAL_ROWS, EVAL_ROWS, ROW_BLOCK + 3]
    pieces.clear()
    m.features_with_batch_stats(x)
    assert pieces == [n]


def test_non_finite_row_named_past_the_first_piece():
    """The whole input is checked once, so a bad row in a later piece is
    named by its row in the input."""
    m = _trained(KINDS["bn-mlp"])
    x = _rows(m, 2 * EVAL_ROWS, seed=13)
    x[EVAL_ROWS + 5, 3] = np.inf
    labels = np.arange(x.shape[0]) % m.config.num_classes
    subset = m.banks[0].subsets()[0]
    calls = [
        lambda: predict(m, x),
        lambda: evaluate(m, x, labels, FusionStrategy.MEAN_ALL, SubpathScope.ALL_UNITS),
        lambda: evaluate(m, x, labels, FusionStrategy.MAIN_ONLY),
        lambda: predict(m, x, FusionStrategy.MEAN_I),
        lambda: m.features(x),
        lambda: m.eval_logits(x, [subset]),
        lambda: m.eval_logits(x, [subset], main=False),
        lambda: m.forward_subpath(x, subset, mode="eval"),
        lambda: divergence(m, {0: x[:10], 1: x[10:20]}, x),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^model: non-finite feature in row 1029$"):
            call()


@pytest.mark.parametrize("scope", SCOPES)
def test_predict_memory_is_outputs_plus_one_piece(scope):
    """`predict` on 8 * EVAL_ROWS rows of a model with 64-wide layers peaks
    within 4x its outputs (fused and per-route (n, classes) matrices) plus
    one EVAL_ROWS piece at the widest layer: 2.53-2.74x measured, where one
    walk of all rows peaked at 8.1-11.2x."""
    m = _trained(dict(hidden=(64, 64)))
    x = _rows(m, 8 * EVAL_ROWS, seed=14)
    predict(m, x[:10], FusionStrategy.MEAN_ALL, scope)
    tracemalloc.start()
    try:
        fused, per_path = predict(m, x, FusionStrategy.MEAN_ALL, scope)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = fused.nbytes + sum(p.nbytes for p in per_path.values())
    piece = EVAL_ROWS * max(m.config.hidden_sizes) * x.itemsize
    assert peak <= 4 * (outputs + piece), (peak, outputs, piece)
