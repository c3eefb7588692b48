"""Synthetic multi-domain classification data with controllable shift.

Class prototypes sit on a sphere; each domain applies a style transform
(per-feature affine plus a feature-space rotation) whose magnitude scales
with a shift parameter. The last domain is generated with an out-of-range
magnitude and plays the unseen target in leave-one-domain-out runs.

The style transforms carry a common-mode component (one scale and one
offset shared by all features) on top of per-feature jitter, mimicking the
global "style" shifts normalization statistics can absorb.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

TARGET_KAPPA_FACTOR = 1.6

DEFAULT_FEATURE_DIM = 16
DEFAULT_CLASSES = 5
DEFAULT_DOMAINS = 4  # 3 sources + 1 target
DEFAULT_PER_CELL = 200
DEFAULT_SEPARATION = 3.0
DEFAULT_NOISE_SIGMA = 1.0

# Per-unit-kappa half-widths of the style draws. The common-mode terms (one
# log-scale and one offset applied to every feature) dominate, mimicking
# global style; the per-feature terms and the rotation add shift that no
# single normalization can undo.
COMMON_SCALE_RANGE = 0.55
FEAT_SCALE_RANGE = 0.18
COMMON_SHIFT_RANGE = 1.6
FEAT_SHIFT_RANGE = 0.55
ANGLE_RANGE = 0.1

# Dirichlet concentration of the held-out domain's style mixture over the
# source styles; below 1 the target leans mostly on one source.
TARGET_MIX_ALPHA = 0.4

# a style scale exp(t) with |t| above this overflows float64 (or underflows to 0)
MAX_LOG_SCALE = float(np.log(np.finfo(np.float64).max))

BLOCK_ROWS = 256  # rows per `write` of `save` and per array block of `load`


@dataclass
class DomainSpec:
    """Style transform of one domain: x -> rotate(scale * x) + shift."""

    domain_id: int
    scale: np.ndarray
    shift: np.ndarray
    angle: float
    noise_sigma: float

    def __post_init__(self):
        self.scale = np.asarray(self.scale, dtype=np.float64)
        self.shift = np.asarray(self.shift, dtype=np.float64)
        if np.any(self.scale <= 0):
            raise ValueError(f"DomainSpec {self.domain_id}: scale must be positive")
        if self.scale.shape != self.shift.shape:
            raise ValueError(f"DomainSpec {self.domain_id}: scale/shift shape mismatch")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _rotate(x * self.scale, self.angle) + self.shift


def _rotate(x: np.ndarray, angle: float) -> np.ndarray:
    """Rotate by `angle` in each consecutive feature-pair plane."""
    if angle == 0.0:
        return x
    out = x.copy()
    c, s = np.cos(angle), np.sin(angle)
    d = x.shape[1]
    for i in range(0, d - 1, 2):
        a, b = x[:, i], x[:, i + 1]
        out[:, i] = c * a - s * b
        out[:, i + 1] = s * a + c * b
    return out


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    domain_ids: np.ndarray
    num_classes: int
    num_domains: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domain_ids = np.asarray(self.domain_ids, dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        m = self.features.shape[0]
        if self.labels.shape != (m,) or self.domain_ids.shape != (m,):
            raise ValueError("Dataset: features/labels/domain_ids length mismatch")
        if not np.isfinite(self.features).all():
            raise ValueError("Dataset: non-finite feature")
        if m and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"Dataset: label outside [0, {self.num_classes})")
        if m and (self.domain_ids.min() < 0 or self.domain_ids.max() >= self.num_domains):
            raise ValueError(f"Dataset: domain id outside [0, {self.num_domains})")
        # every present domain must cover every class
        for d in np.unique(self.domain_ids):
            present = np.unique(self.labels[self.domain_ids == d])
            if present.size != self.num_classes:
                raise ValueError(f"Dataset: domain {d} missing classes")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def domain_rows(self, domain: int) -> np.ndarray:
        return np.flatnonzero(self.domain_ids == domain)

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(self.features[rows], self.labels[rows], self.domain_ids[rows],
                       self.num_classes, self.num_domains)


def generate(num_classes: int = DEFAULT_CLASSES,
             num_domains: int = DEFAULT_DOMAINS,
             per_cell: int = DEFAULT_PER_CELL,
             feature_dim: int = DEFAULT_FEATURE_DIM,
             separation: float = DEFAULT_SEPARATION,
             shift_kappa: float = 2.0,
             noise_sigma: float = DEFAULT_NOISE_SIGMA,
             seed: int = 0) -> tuple[Dataset, list[DomainSpec]]:
    """Deterministic draw of `per_cell` samples per (domain, class) cell.

    The last domain id is the held-out target: its transform magnitude is
    TARGET_KAPPA_FACTOR * shift_kappa, outside the source range. With
    shift_kappa = 0 every transform is the identity. A ValueError names
    the parameter whose rule fails: each one's lower bound, a shift_kappa
    whose style scales overflow, or features that leave float64's range.
    """
    for key, value, low in (("num_classes", num_classes, 2), ("num_domains", num_domains, 2),
                            ("per_cell", per_cell, 4), ("feature_dim", feature_dim, 4),
                            ("shift_kappa", shift_kappa, 0), ("noise_sigma", noise_sigma, 0),
                            ("seed", seed, 0)):
        if not value >= low:
            raise ValueError(f"generate: {key} must be >= {low}, got {value!r}")
    rng = np.random.default_rng(seed)

    protos = rng.standard_normal((num_classes, feature_dim))
    protos *= separation / np.linalg.norm(protos, axis=1, keepdims=True)

    def shell(width: float) -> float:
        # common-mode draws keep a floor: every domain gets a real style,
        # none degenerate
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3 * width, width))

    draws = []
    for _ in range(num_domains - 1):
        draws.append((
            shell(COMMON_SCALE_RANGE),
            rng.uniform(-FEAT_SCALE_RANGE, FEAT_SCALE_RANGE, feature_dim),
            shell(COMMON_SHIFT_RANGE),
            rng.uniform(-FEAT_SHIFT_RANGE, FEAT_SHIFT_RANGE, feature_dim),
            shell(ANGLE_RANGE),
        ))
    # the held-out domain's style sits in the sources' convex hull but at an
    # out-of-range magnitude (TARGET_KAPPA_FACTOR times the source kappa)
    weights = rng.dirichlet(np.full(num_domains - 1, TARGET_MIX_ALPHA))
    draws.append(tuple(
        sum(w * np.asarray(d[i]) for w, d in zip(weights, draws))
        for i in range(5)))

    specs = []
    for d, (cs, fs, csh, fsh, ang) in enumerate(draws):
        kappa = shift_kappa * (TARGET_KAPPA_FACTOR if d == num_domains - 1 else 1.0)
        log_scale = kappa * (cs + fs)
        if not np.abs(log_scale).max() < MAX_LOG_SCALE:
            raise ValueError(f"generate: shift_kappa {shift_kappa!r} overflows the style "
                             f"scale of domain {d}")
        specs.append(DomainSpec(
            domain_id=d,
            scale=np.exp(log_scale),
            shift=kappa * (csh + fsh),
            angle=float(kappa * ang),
            noise_sigma=noise_sigma,
        ))

    feats, labels, domains = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, naming the keys
        for d, spec in enumerate(specs):
            for c in range(num_classes):
                base = protos[c] + noise_sigma * rng.standard_normal((per_cell, feature_dim))
                feats.append(spec.apply(base))
                labels.append(np.full(per_cell, c, dtype=np.int64))
                domains.append(np.full(per_cell, d, dtype=np.int64))
    features = np.concatenate(feats)
    if not np.isfinite(features).all():
        raise ValueError(f"generate: non-finite features from separation {separation!r}, "
                         f"shift_kappa {shift_kappa!r} and noise_sigma {noise_sigma!r}")
    ds = Dataset(features, np.concatenate(labels), np.concatenate(domains),
                 num_classes, num_domains)
    return ds, specs


# ---------------------------------------------------------------------------
# file I/O


def expected_header(feature_dim: int) -> str:
    return "domain,label," + ",".join(f"f{i}" for i in range(feature_dim))


def save(dataset: Dataset, path) -> None:
    """CSV with header domain,label,f0..f{D-1}; floats at 17 significant
    digits (`%.17g`) so a round trip is exact. One `%` format per row."""
    row = "%d,%d" + ",%.17g" * dataset.feature_dim + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(expected_header(dataset.feature_dim) + "\n")
        for i in range(0, len(dataset), BLOCK_ROWS):
            block = zip(*(a[i:i + BLOCK_ROWS].tolist()
                          for a in (dataset.domain_ids, dataset.labels, dataset.features)))
            f.write("".join([row % (d, c, *v) for d, c, v in block]))


def load(path) -> Dataset:
    """Read a `save` file one line at a time into `BLOCK_ROWS`-row arrays,
    with Python's `int` / `float`, except that `_` or whitespace in a value
    (which those skip) or a non-ASCII character (they read other scripts'
    digits) makes it malformed, and so does a domain id or label outside
    int64. The first line that fails, in file order, is reported, a byte
    that is not UTF-8 first within its line; a non-finite feature only
    once every line has parsed."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        header = f.readline()
        if not header:
            raise ValueError(f"{path}: empty dataset file")
        header = header.removesuffix("\n")
        _check_utf8(path, 1, header)
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "domain" or cols[1] != "label":
            raise ValueError(f"{path}: bad header; expected 'domain,label,f0..'")
        dim = len(cols) - 2
        if header != expected_header(dim):
            raise ValueError(f"{path}: bad header; expected {expected_header(dim)!r}")
        blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        i = BLOCK_ROWS
        for ln, line in enumerate(f, start=2):
            if i == BLOCK_ROWS:
                domains = np.empty(BLOCK_ROWS, dtype=np.int64)
                labels = np.empty(BLOCK_ROWS, dtype=np.int64)
                feats = np.empty((BLOCK_ROWS, dim))
                blocks.append((domains, labels, feats))
                i = 0
            line = line.removesuffix("\n")
            _check_utf8(path, ln, line)
            parts = line.split(",")
            if len(parts) != dim + 2:
                raise ValueError(f"{path}:{ln}: expected {dim + 2} fields, got {len(parts)}")
            try:
                domains[i] = int(parts[0])
                labels[i] = int(parts[1])
                feats[i] = list(map(float, parts[2:]))
                if "_" in line or line.split() != [line]:  # split() keeps a clean line whole
                    raise ValueError("'_' or whitespace in a value")
                if not line.isascii():
                    raise ValueError("non-ASCII character in a value")
            except ValueError as e:
                raise ValueError(f"{path}:{ln}: malformed value ({e})") from None
            except OverflowError:  # an integer that int64 cannot hold
                raise ValueError(f"{path}:{ln}: malformed value (domain or label outside int64)"
                                 ) from None
            i += 1
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    blocks[-1] = tuple(a[:i] for a in blocks[-1])
    domains, labels, feats = (np.concatenate(arrays) for arrays in zip(*blocks))
    del blocks  # freed before the checks below allocate
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{bad[0] + 2}: non-finite feature")
    return Dataset(feats, labels, domains,
                   num_classes=int(labels.max()) + 1,
                   num_domains=int(domains.max()) + 1)


_UNDECODED = re.compile("[\udc80-\udcff]")  # a byte `surrogateescape` could not decode


def _check_utf8(path, ln: int, line: str) -> None:
    """A ValueError naming the first byte of `line` (read with
    `surrogateescape`) that is not UTF-8."""
    if not line.isascii():
        bad = _UNDECODED.search(line)
        if bad:
            raise ValueError(f"{path}:{ln}: not valid UTF-8 "
                             f"(byte 0x{ord(bad.group()) - 0xDC00:02x})")


# ---------------------------------------------------------------------------
# splits


def split_lodo(dataset: Dataset, target_domain: int) -> tuple[Dataset, Dataset]:
    """Leave-one-domain-out split: (all other domains, the target domain)."""
    present = np.unique(dataset.domain_ids).tolist()
    if target_domain not in present:
        raise ValueError(f"split_lodo: target_domain {target_domain} is not present in the "
                         f"dataset, whose domains are {', '.join(map(str, present))}")
    tgt_rows = dataset.domain_rows(target_domain)
    src_rows = np.flatnonzero(dataset.domain_ids != target_domain)
    return dataset.subset(src_rows), dataset.subset(tgt_rows)


def split_train_val(dataset: Dataset, fraction: float, seed: int
                    ) -> tuple[Dataset, Dataset]:
    """Per-(domain, class) stratified holdout of about `fraction` rows."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split_train_val: fraction {fraction} outside (0, 1)")
    rng = np.random.default_rng(seed)
    val_rows = []
    for d in np.unique(dataset.domain_ids):
        for c in range(dataset.num_classes):
            cell = np.flatnonzero((dataset.domain_ids == d) & (dataset.labels == c))
            k = max(1, int(round(fraction * cell.size)))
            if k >= cell.size:
                raise ValueError(f"split_train_val: a val_fraction of {fraction} leaves no "
                                 f"training row of class {c} in domain {d}")
            val_rows.append(rng.choice(cell, size=k, replace=False))
    val = np.sort(np.concatenate(val_rows))
    mask = np.ones(len(dataset), dtype=bool)
    mask[val] = False
    return dataset.subset(np.flatnonzero(mask)), dataset.subset(val)
