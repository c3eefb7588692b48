"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The heavyweight fixture trains the full ablation grid once (5 seeds) and is
shared by the ordering, divergence, random-vs-single, and purity criteria.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import tiny_model, two_pass_stats
from normaug import datagen, diagnostics, experiments
from normaug import normbank as nb
from normaug.gradcheck import grad_check_params
from normaug.inference import FusionStrategy, fuse, predict
from normaug.model import init_model
from normaug.normbank import (
    BNBank,
    BNUnit,
    DomainSubset,
    compute_batch_stats,
    enumerate_full_combinations,
    enumerate_reduced_combinations,
    partitioned_forward,
)
from normaug.tensor import Tensor
from normaug.training import TrainConfig, two_path_loss

SEEDS = [0, 1, 2, 3, 4]
POINT = 0.01  # one accuracy point
TIE = 0.3 * POINT


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared benchmark grid


@pytest.fixture(scope="module")
def grid():
    """Per seed: baseline / on / on_aug models with target accuracies, the
    single_only counterpart, and source-vs-target divergences."""
    t0 = time.perf_counter()
    out = {
        "acc": {v: [] for v in ("baseline", "on", "on_aug", "on_aug_ep", "single_ep")},
        "d_s2t": {"aug": [], "no_aug": []},
        "models": {},
        "targets": {},
    }
    for seed in SEEDS:
        dataset, target_domain = experiments.make_benchmark(seed, shift_kappa=2.0)
        sources, target = datagen.split_lodo(dataset, target_domain)
        cells = experiments.run_variants(dataset, target_domain, seed)
        for variant, cell in cells.items():
            out["acc"][variant].append(cell.target_accuracy)

        single = experiments.run_variant(
            dataset, target_domain, "on_aug_ep", seed,
            replace(TrainConfig(), combination_mode="single_only"))
        out["acc"]["single_ep"].append(single.target_accuracy)

        by_domain = {int(d): sources.features[sources.domain_ids == d]
                     for d in np.unique(sources.domain_ids)}
        out["d_s2t"]["aug"].append(diagnostics.divergence(
            cells["on_aug"].result.model, by_domain, target.features).d_s2t)
        out["d_s2t"]["no_aug"].append(diagnostics.divergence(
            cells["on"].result.model, by_domain, target.features).d_s2t)

        out["models"][seed] = cells["on_aug"].result.model
        out["targets"][seed] = target
    out["elapsed"] = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# criterion 1: statistics oracle


def test_criterion_1_statistics_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        if rng.random() < 0.5:
            shape = (int(rng.integers(2, 40)), int(rng.integers(1, 12)))
        else:
            shape = (int(rng.integers(2, 10)), int(rng.integers(1, 5)),
                     int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        block = rng.uniform(-10, 10, size=shape) * rng.uniform(0.1, 5)
        n_rows = int(rng.integers(1, shape[0] + 1))
        rows = rng.choice(shape[0], size=n_rows, replace=False)
        eps = float(rng.choice([0.0, 1e-5, 1e-3]))
        mu, sigma = compute_batch_stats(block, rows, eps)
        mu_o, sigma_o = two_pass_stats(block[rows], eps)
        worst = max(worst, float(np.abs(mu - mu_o).max()),
                    float(np.abs(sigma - sigma_o).max()))
    elapsed = time.perf_counter() - t0
    report("1 statistics-oracle",
           worst < 1e-12 and elapsed < 10.0,
           f"max |diff|={worst:.2e} over 1000 cases in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient fidelity


def test_criterion_2_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = {"bn": 0.0, "partitioned": 0.0, "loss": 0.0}

    for _ in range(20):
        unit = BNUnit(3)
        x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        w = rng.standard_normal((6, 3))
        err = grad_check_params(
            lambda: (nb.bn_forward(unit, x, None, "train") * Tensor(w)).sum(),
            [x, unit.gamma, unit.beta])
        worst["bn"] = max(worst["bn"], err)

    for _ in range(20):
        bank = BNBank(3, 3)
        part = nb.all_singletons(3)
        x = Tensor(rng.standard_normal((9, 3)), requires_grad=True)
        ids = np.repeat([0, 1, 2], 3)
        w = rng.standard_normal((9, 3))
        params = [x] + [t for s in part for _, t in bank.units[s].parameters()]
        err = grad_check_params(
            lambda: (partitioned_forward(bank, part, x, ids, "train")
                     * Tensor(w)).sum(), params)
        worst["partitioned"] = max(worst["partitioned"], err)

    parts = enumerate_reduced_combinations(3)
    for trial in range(20):
        model = tiny_model(seed=trial, hidden=(5, 4))
        x = rng.standard_normal((6, 6))
        labels = rng.integers(0, 3, size=6)
        ids = np.repeat([0, 1, 2], 2)
        part = parts[trial % len(parts)]
        params = [t for _, t in model.parameters()]

        def fn():
            logits, _ = model.forward_main(x, mode="train")
            blocks = model.forward_aux(x, ids, part, mode="train")
            return two_path_loss(logits, labels, blocks)

        worst["loss"] = max(worst["loss"], grad_check_params(fn, params))

    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    report("2 gradient-fidelity",
           peak < 1e-4 and elapsed < 60.0,
           f"max rel err: bn={worst['bn']:.2e} partitioned={worst['partitioned']:.2e} "
           f"loss={worst['loss']:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: combination enumeration


def test_criterion_3_combination_enumeration():
    def as_sets(parts):
        return {frozenset(g.indices for g in p) for p in parts}

    three = as_sets(enumerate_reduced_combinations(3))
    want_three = {
        frozenset({(0,), (1,), (2,)}),
        frozenset({(0, 1), (2,)}),
        frozenset({(0,), (1, 2)}),
        frozenset({(1,), (0, 2)}),
    }
    four = as_sets(enumerate_reduced_combinations(4))
    want_four = {
        frozenset({(0,), (1,), (2,), (3,)}),
        frozenset({(0, 1, 2), (3,)}),
        frozenset({(0, 1, 3), (2,)}),
        frozenset({(0, 2, 3), (1,)}),
        frozenset({(1, 2, 3), (0,)}),
    }
    full_four = enumerate_full_combinations(4)
    ok = three == want_three and four == want_four and len(full_four) == 11
    report("3 combination-enumeration", ok,
           f"N=3: {len(three)} partitions, N=4: {len(four)}, full(4): {len(full_four)}")


# ---------------------------------------------------------------------------
# criterion 4: fusion arithmetic


def test_criterion_4_fusion_arithmetic():
    p_m = np.array([[0.8, 0.2]])
    subs = [np.array([[0.6, 0.4]]), np.array([[0.4, 0.6]])]
    two_step = fuse(p_m, subs, FusionStrategy.MEAN_MEAN_IM)
    mean_all = fuse(p_m, subs, FusionStrategy.MEAN_ALL)
    ok = (np.array_equal(two_step, np.array([[0.65, 0.35]]))
          and np.array_equal(mean_all, np.array([[0.6, 0.4]])))
    report("4 fusion-arithmetic", ok,
           f"two_step={two_step.tolist()} mean_all={mean_all.tolist()}")


# ---------------------------------------------------------------------------
# criterion 5: ablation ordering


def test_criterion_5_ablation_ordering(grid):
    m = {v: float(np.mean(a)) for v, a in grid["acc"].items()}
    ours, aug, on, da = (m["on_aug_ep"], m["on_aug"], m["on"], m["baseline"])
    ordering = (ours >= aug - TIE) and (aug >= on - TIE) and (on >= da - TIE)
    gap = ours - da
    ok = ordering and gap >= 2 * POINT and grid["elapsed"] < 600.0
    report("5 ablation-ordering", ok,
           f"ours={ours:.4f} aug={aug:.4f} on={on:.4f} deepall={da:.4f} "
           f"gap={gap / POINT:.2f}pt grid={grid['elapsed']:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: divergence direction


def test_criterion_6_divergence_direction(grid):
    wins = sum(a < b for a, b in zip(grid["d_s2t"]["aug"], grid["d_s2t"]["no_aug"]))
    pairs = ", ".join(f"{a:.3f}<{b:.3f}" for a, b in
                      zip(grid["d_s2t"]["aug"], grid["d_s2t"]["no_aug"]))
    report("6 divergence-direction", wins >= 4, f"wins={wins}/5 ({pairs})")


# ---------------------------------------------------------------------------
# criterion 7: perturbation probe


def test_criterion_7_perturbation_probe():
    from normaug.model import ModelConfig

    zero_ok, positive_ok, monotone_wins = True, True, 0
    for seed in SEEDS:
        model = init_model(ModelConfig(input_dim=16, num_classes=3, num_domains=2),
                           seed=seed)
        disps = []
        for kappa in (0.0, 1.0, 2.0):
            ds, _ = datagen.generate(num_classes=3, num_domains=2, per_cell=32,
                                     feature_dim=16, shift_kappa=kappa,
                                     noise_sigma=0.5, seed=300 + seed)
            probe = ds.features[ds.domain_ids == 0][:48]
            companion = ds.features[ds.domain_ids == 1][:48]
            out = diagnostics.perturbation_probe(
                model, probe, [("identical", probe.copy()), ("shifted", companion)])
            if out[0][1] != 0.0:
                zero_ok = False
            disps.append(out[1][1])
        if disps[2] <= 0.0:
            positive_ok = False
        if disps[0] <= disps[1] <= disps[2]:
            monotone_wins += 1
    ok = zero_ok and positive_ok and monotone_wins >= 4
    report("7 perturbation-probe", ok,
           f"identical-companion zero on all seeds: {zero_ok}, "
           f"kappa=2 positive: {positive_ok}, monotone={monotone_wins}/5")


# ---------------------------------------------------------------------------
# criterion 8: evaluation-mode purity


def test_criterion_8_eval_purity(grid):
    model = grid["models"][SEEDS[0]]
    target = grid["targets"][SEEDS[0]]
    x, labels = target.features, target.labels
    fused_full, paths_full = predict(model, x)
    acc_full = float((fused_full.argmax(1) == labels).mean())
    ok = True
    for chunk in (1, 7, 64):
        fused_parts, path_parts = [], {k: [] for k in paths_full}
        for lo in range(0, x.shape[0], chunk):
            f, per = predict(model, x[lo:lo + chunk])
            fused_parts.append(f)
            for k, v in per.items():
                path_parts[k].append(v)
        ok = ok and np.array_equal(np.vstack(fused_parts), fused_full)
        for k in paths_full:
            ok = ok and np.array_equal(np.vstack(path_parts[k]), paths_full[k])
        acc_chunk = float((np.vstack(fused_parts).argmax(1) == labels).mean())
        ok = ok and acc_chunk == acc_full
    report("8 eval-purity", ok,
           f"chunks (1, 7, 64) bit-identical to full batch over {x.shape[0]} samples")


# ---------------------------------------------------------------------------
# criterion 9: random vs single-domain combinations


def test_criterion_9_random_vs_single(grid):
    random_mean = float(np.mean(grid["acc"]["on_aug_ep"]))
    single_mean = float(np.mean(grid["acc"]["single_ep"]))
    ok = random_mean >= single_mean - TIE
    report("9 random-vs-single", ok,
           f"random={random_mean:.4f} single={single_mean:.4f} "
           f"diff={(random_mean - single_mean) / POINT:.2f}pt")


# ---------------------------------------------------------------------------
# criterion 10: end-to-end reproducibility


def test_criterion_10_reproducibility(tmp_path):
    from normaug.cli import main

    gen_cfg = tmp_path / "gen.txt"
    gen_cfg.write_text("num_classes = 3\nnum_domains = 4\nper_cell = 24\n"
                       "feature_dim = 6\nshift_kappa = 2.0\nseed = 1\n")
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0

    train_cfg = tmp_path / "train.txt"
    train_cfg.write_text(f"dataset = {data_dir / 'dataset.csv'}\ntarget_domain = 3\n"
                         "epochs = 3\niters_per_epoch = 5\nbatch_per_domain = 4\n"
                         "hidden_sizes = 8,4\nseed = 7\n")
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--config", str(train_cfg), "--out", str(out)]) == 0
        runs.append(out)
    ckpt_same = (runs[0] / "model.ckpt").read_bytes() == (runs[1] / "model.ckpt").read_bytes()
    metrics_same = (runs[0] / "metrics.csv").read_text() == (runs[1] / "metrics.csv").read_text()
    report("10 reproducibility", ckpt_same and metrics_same,
           f"checkpoint identical: {ckpt_same}, metrics identical: {metrics_same}")
