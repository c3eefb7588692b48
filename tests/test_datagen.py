"""Synthetic data generation, file round trips, splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normaug import datagen
from normaug.datagen import (
    Dataset,
    generate,
    load,
    save,
    split_lodo,
    split_train_val,
)


class TestGenerate:
    def test_zero_shift_zero_noise_identical_domains(self):
        ds, specs = generate(num_classes=3, num_domains=4, per_cell=16,
                             feature_dim=6, shift_kappa=0.0, noise_sigma=0.0,
                             seed=0)
        means = [ds.features[ds.domain_ids == d].mean(axis=0) for d in range(4)]
        for m in means[1:]:
            assert np.allclose(m, means[0], atol=1e-12)
        for spec in specs:
            assert np.allclose(spec.scale, 1.0) and np.allclose(spec.shift, 0.0)
            assert spec.angle == 0.0

    def test_positive_shift_moves_domain_means(self):
        ds, _ = generate(num_classes=3, num_domains=4, per_cell=64,
                         feature_dim=8, shift_kappa=2.0, noise_sigma=0.5, seed=1)
        means = [ds.features[ds.domain_ids == d].mean(axis=0) for d in range(4)]
        grand = np.mean(means, axis=0)
        gaps = [np.linalg.norm(m - grand) for m in means]
        assert min(gaps) > 0.1

    def test_deterministic_under_seed(self):
        a, _ = generate(per_cell=8, seed=7)
        b, _ = generate(per_cell=8, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.domain_ids, b.domain_ids)

    def test_cell_structure(self):
        ds, _ = generate(num_classes=3, num_domains=4, per_cell=10,
                         feature_dim=5, seed=2)
        assert len(ds) == 3 * 4 * 10
        for d in range(4):
            for c in range(3):
                cell = (ds.domain_ids == d) & (ds.labels == c)
                assert cell.sum() == 10

    def test_per_domain_means_match_specs(self):
        per_cell, classes, sigma = 200, 5, 0.8
        ds, specs = generate(num_classes=classes, num_domains=4, per_cell=per_cell,
                             feature_dim=16, shift_kappa=1.0, noise_sigma=sigma,
                             seed=3)
        # base prototype mean reconstructed from the zero-noise generator
        clean, _ = generate(num_classes=classes, num_domains=4, per_cell=per_cell,
                            feature_dim=16, shift_kappa=0.0, noise_sigma=0.0, seed=3)
        base_mean = clean.features.mean(axis=0)
        for spec in specs:
            rows = ds.domain_ids == spec.domain_id
            observed = ds.features[rows].mean(axis=0)
            expected = spec.apply(base_mean[None, :])[0]
            tol = 3.0 * sigma * np.sqrt(16) * spec.scale.max() / np.sqrt(per_cell * classes)
            assert np.linalg.norm(observed - expected) < tol

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate(per_cell=3)
        with pytest.raises(ValueError):
            generate(feature_dim=3)
        with pytest.raises(ValueError):
            generate(num_classes=1)
        with pytest.raises(ValueError):
            generate(shift_kappa=-1.0)

    def test_target_shift_exceeds_sources(self):
        _, specs = generate(num_domains=4, per_cell=8, shift_kappa=2.0, seed=4)
        src_norm = max(np.linalg.norm(s.shift) for s in specs[:-1])
        assert np.linalg.norm(specs[-1].shift) > 0
        # target magnitude parameter is 1.5x; directions are random, so only
        # check the generator applied a nonzero transform
        assert specs[-1].angle != 0.0


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        ds, _ = generate(per_cell=6, seed=5)
        path = tmp_path / "d.csv"
        save(ds, path)
        back = load(path)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)
        assert np.array_equal(ds.domain_ids, back.domain_ids)
        assert back.num_classes == ds.num_classes
        assert back.num_domains == ds.num_domains

    def test_header_mismatch_names_expectation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("domain,label,x0,x1\n0,0,1.0,2.0\n")
        with pytest.raises(ValueError, match="expected"):
            load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load(path)

    def test_malformed_row_reports_line(self, tmp_path):
        ds, _ = generate(num_classes=2, num_domains=2, per_cell=4,
                         feature_dim=4, seed=6)
        path = tmp_path / "d.csv"
        save(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",oops"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":4:"):
            load(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        ds, _ = generate(num_classes=2, num_domains=2, per_cell=4,
                         feature_dim=4, seed=6)
        path = tmp_path / "d.csv"
        save(ds, path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":6: non-finite feature"):
            load(path)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("domain,label,f0,f1,f2,f3\n0,0,1.0,2.0\n")
        with pytest.raises(ValueError, match=":2:"):
            load(path)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_property(self, seed, tmp_path_factory):
        ds, _ = generate(num_classes=2, num_domains=2, per_cell=4,
                         feature_dim=4, shift_kappa=3.0, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        save(ds, path)
        back = load(path)
        assert np.array_equal(ds.features, back.features)


class TestSplits:
    def test_lodo_partition(self):
        ds, _ = generate(per_cell=6, seed=8)
        sources, target = split_lodo(ds, 3)
        assert len(sources) + len(target) == len(ds)
        assert set(np.unique(target.domain_ids)) == {3}
        assert 3 not in np.unique(sources.domain_ids)

    def test_lodo_missing_domain(self):
        ds, _ = generate(per_cell=6, seed=9)
        with pytest.raises(ValueError, match="not present"):
            split_lodo(ds, 9)

    def test_train_val_stratified(self):
        ds, _ = generate(num_classes=3, num_domains=3, per_cell=20,
                         feature_dim=4, seed=10)
        train_set, val_set = split_train_val(ds, 0.25, seed=0)
        assert len(train_set) + len(val_set) == len(ds)
        for d in range(3):
            for c in range(3):
                val_cell = ((val_set.domain_ids == d) & (val_set.labels == c)).sum()
                train_cell = ((train_set.domain_ids == d) & (train_set.labels == c)).sum()
                assert val_cell == 5 and train_cell == 15

    def test_train_val_rejects_extremes(self):
        ds, _ = generate(num_classes=2, num_domains=2, per_cell=4,
                         feature_dim=4, seed=11)
        with pytest.raises(ValueError):
            split_train_val(ds, 0.0, seed=0)

    def test_non_finite_data_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[0.0, np.nan], [1.0, 2.0]]), np.array([0, 1]),
                    np.array([0, 0]), num_classes=2, num_domains=1)
        with pytest.raises(ValueError, match="non-finite"):
            generate(num_classes=2, num_domains=2, per_cell=4, feature_dim=4,
                     separation=float("nan"), seed=0)

    def test_dataset_invariant_checks(self):
        with pytest.raises(ValueError, match="missing classes"):
            Dataset(np.zeros((2, 3)), np.array([0, 0]), np.array([0, 1]),
                    num_classes=2, num_domains=2)
        with pytest.raises(ValueError, match="label outside"):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), np.array([0, 0]),
                    num_classes=2, num_domains=1)
