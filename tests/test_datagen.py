"""Synthetic data generation, file round trips, splits."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_load, reference_save
from normaug import datagen
from normaug.datagen import (
    BLOCK_ROWS,
    Dataset,
    generate,
    load,
    save,
    split_lodo,
    split_train_val,
)

GOLDEN = Path(__file__).parent / "data" / "tiny_dataset.csv"
# the draw that wrote GOLDEN
GOLDEN_KW = dict(num_classes=3, num_domains=3, per_cell=4, feature_dim=5,
                 shift_kappa=2.0, seed=12)


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


def assert_same_dataset(a: Dataset, b: Dataset) -> None:
    for name in ("features", "labels", "domain_ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name
    assert (a.num_classes, a.num_domains) == (b.num_classes, b.num_domains)


def load_error(fn, path) -> str:
    with pytest.raises(ValueError) as exc:
        fn(path)
    return str(exc.value)


# finite float64 values: raw bit patterns, whole numbers and the edge cases
# a 17-digit text must carry exactly
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 0.1, 2.0 ** 53, 1e16, 1e-7, 123456789012345678.0]
finite_floats = st.one_of(
    st.integers(0, 2 ** 64 - 1)
    .map(lambda u: float(np.array(u, dtype=np.uint64).view(np.float64)))
    .filter(np.isfinite),
    st.integers(-(2 ** 53), 2 ** 53).map(float),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def datasets(draw) -> Dataset:
    """Every (domain, class) cell filled, in a drawn row order; domain ids are
    any non-negative int64 values."""
    num_classes = draw(st.integers(1, 3))
    domain_ids = draw(st.lists(st.integers(0, 2 ** 63 - 2), min_size=1, max_size=3,
                               unique=True))
    per_cell = draw(st.integers(1, 2))
    dim = draw(st.integers(1, 4))
    cells = [(d, c) for d in domain_ids for c in range(num_classes)] * per_cell
    order = draw(st.permutations(range(len(cells))))
    values = draw(st.lists(finite_floats, min_size=len(cells) * dim,
                           max_size=len(cells) * dim))
    return Dataset(np.array(values, dtype=np.float64).reshape(len(cells), dim),
                   np.array([cells[i][1] for i in order]),
                   np.array([cells[i][0] for i in order]),
                   num_classes=num_classes, num_domains=max(domain_ids) + 1)


class TestCodecOracle:
    """`save` / `load` against the codec they replaced (`helpers.reference_*`)."""

    @settings(max_examples=60, deadline=None)
    @given(ds=datasets())
    def test_bytes_and_arrays_match_reference(self, ds, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("codec")
        save(ds, tmp / "new.csv")
        reference_save(ds, tmp / "ref.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
        back = load(tmp / "ref.csv")
        assert_same_dataset(back, reference_load(tmp / "ref.csv"))
        assert_same_dataset(back, ds)

    @pytest.mark.parametrize("per_cell", [BLOCK_ROWS // 4, BLOCK_ROWS // 4 + 1, BLOCK_ROWS // 2])
    def test_block_boundaries(self, tmp_path, per_cell):
        """Row counts of one block, one block and a row, and two blocks."""
        ds, _ = generate(num_classes=2, num_domains=2, per_cell=per_cell, feature_dim=4,
                         seed=per_cell)
        save(ds, tmp_path / "new.csv")
        reference_save(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert_same_dataset(load(tmp_path / "new.csv"), ds)

    def test_golden_file(self, tmp_path):
        """`tests/data/tiny_dataset.csv` was written by the reference codec."""
        ds, _ = generate(**GOLDEN_KW)
        save(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == GOLDEN.read_bytes()
        assert_same_dataset(load(GOLDEN), ds)
        assert_same_dataset(load(GOLDEN), reference_load(GOLDEN))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings_load_the_same(self, tmp_path, newline):
        text = GOLDEN.read_text()
        path = tmp_path / "d.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        assert_same_dataset(load(path), reference_load(path))
        assert_same_dataset(load(path), load(GOLDEN))

    def test_no_final_newline_loads_the_same(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(GOLDEN.read_bytes().rstrip(b"\n"))
        assert_same_dataset(load(path), reference_load(path))
        assert_same_dataset(load(path), load(GOLDEN))


def _mutate(lines: list[str], kind: str, at: int) -> str:
    """The golden file's text with data line `at` (0 is the first data row)
    made malformed by `kind`."""
    lines = list(lines)
    i = at + 1
    row = lines[i].split(",")
    if kind == "short row":
        lines[i] = ",".join(row[:-1])
    elif kind == "long row":
        lines[i] = ",".join(row + ["1.0"])
    elif kind == "bad value":
        lines[i] = ",".join(row[:-1] + ["oops"])
    elif kind == "bad label":
        lines[i] = ",".join(row[:1] + ["1.5"] + row[2:])
    elif kind == "empty field":
        lines[i] = ",".join(row[:3] + [""] + row[4:])
    elif kind in ("nan", "inf", "-inf"):
        lines[i] = ",".join(row[:-1] + [kind])
    elif kind == "blank line":
        lines.insert(i, "")
    elif kind == "negative label":
        lines[i] = ",".join(row[:1] + ["-1"] + row[2:])
    elif kind == "non-finite then bad value":
        lines[i] = ",".join(row[:-1] + ["nan"])
        lines[-1] = ",".join(lines[-1].split(",")[:-1] + ["oops"])
    else:
        raise AssertionError(kind)
    return "\n".join(lines) + "\n"


MUTATIONS = ["short row", "long row", "bad value", "bad label", "empty field", "nan", "inf",
             "-inf", "blank line", "negative label", "non-finite then bad value"]


class TestMalformedMatchesReference:
    """Every file the reference rejects, `load` rejects with the same message,
    line number included."""

    @pytest.mark.parametrize("text", [
        "", "\n", "domain,label,f0,f1\n", "domain,label,f0,f1", "domain,label\n0,0\n",
        "domain,label,x0\n0,0,1.0\n", "label,domain,f0\n0,0,1.0\n",
        "domain,label,f0\n0,0,1.0\n\n", "domain,label,f0\n0,0,1.0\n1,0\n",
        "domain,label,f0,f1\r\n0,0,1.0,2.0\r\n0,1,oops,2.0\r\n",
        "domain,label,f0,f1\n0,0,1.0,2.0\n0,1,1.0,nan",
        "domain,label,f0,f1\n0,0,1.0,2.0\n0,1,1.0,bad",
        "domain,label,f0\n0,0,1.0\n1,0,2.0\n0,1,1.0\n",
    ])
    def test_small_files(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert load_error(load, path) == load_error(reference_load, path)

    @pytest.mark.parametrize("kind", MUTATIONS)
    @settings(max_examples=10, deadline=None)
    @given(at=st.integers(0, 35))
    def test_mutated_golden(self, kind, at, tmp_path_factory):
        path = tmp_path_factory.mktemp("bad") / "d.csv"
        lines = GOLDEN.read_text().splitlines()
        path.write_bytes(_mutate(lines, kind, at).encode())
        message = load_error(reference_load, path)
        assert load_error(load, path) == message
        # CRLF endings change no message
        path.write_bytes(_mutate(lines, kind, at).replace("\n", "\r\n").encode())
        assert load_error(load, path) == message


class TestStrictValues:
    """`int` / `float` accept `_` between digits and whitespace around a value;
    `load` does not, so a typo cannot be read as a different number."""

    @pytest.mark.parametrize("field, col", [
        ("1_000", 3), ("0_0", 0), (" 0", 1), ("0 ", 0), (" 1.5", 2), ("1.5 ", 6),
        ("\t1.5", 4), ("1.5\xa0", 5), ("\u20031.5", 6), ("1e1_0", 2),
    ])
    def test_reference_accepts_load_rejects(self, tmp_path, field, col):
        lines = GOLDEN.read_text().splitlines()
        row = lines[5].split(",")
        row[col] = field
        lines[5] = ",".join(row)
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reference_load(path)
        with pytest.raises(ValueError, match=r":6: malformed value \('_' or whitespace in a value\)$"):
            load(path)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028"])
    def test_line_break_like_whitespace_rejected(self, tmp_path, char):
        """Characters `str.splitlines` breaks on, but a file line does not
        (`float` itself rejects some of them)."""
        lines = GOLDEN.read_text().splitlines()
        lines[3] = lines[3] + char
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":4: malformed value \("):
            load(path)

    @pytest.mark.parametrize("row", ["99999999999999999999,0,2.0", "0,99999999999999999999,2.0",
                                     "-9223372036854775809,0,2.0", "0,9223372036854775808,2.0"])
    def test_integer_outside_int64_is_malformed(self, tmp_path, row):
        """The reference raises a bare OverflowError here, with no line."""
        path = tmp_path / "d.csv"
        path.write_text(f"domain,label,f0\n0,0,1.0\n{row}\n", encoding="utf-8")
        with pytest.raises(OverflowError):
            reference_load(path)
        with pytest.raises(ValueError, match=r"d\.csv:3: malformed value \(domain or label "
                                             r"outside int64\)$"):
            load(path)

    def test_saved_files_are_strict(self, tmp_path):
        """Nothing `save` writes trips the check: -0.0, subnormals, exponents."""
        ds = Dataset(np.array([[-0.0, 5e-324, 1e300], [1e-300, -1.5, 0.1]]), np.array([0, 0]),
                     np.array([0, 1]), num_classes=1, num_domains=2)
        save(ds, tmp_path / "d.csv")
        assert_same_dataset(load(tmp_path / "d.csv"), ds)


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
