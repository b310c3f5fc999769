"""Synthetic classification datasets with controllable label noise.

Datasets are Gaussian blobs with ids laid out train-first (0..n_train-1) so
selection code can index per-sample arrays directly by id. Noise is injected
once, from an explicit class-transition matrix or an instance-dependent rule,
and frozen into the observed labels; the test split always stays clean.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InputError, IngestionError
from .util import fmt_float

_CENTROID_SCALE = 2.0


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray       # (N, dim) float64
    true_labels: np.ndarray    # (N,) int64
    observed_labels: np.ndarray
    is_test: np.ndarray        # (N,) bool
    n_classes: int

    def __post_init__(self):
        n = self.features.shape[0]
        if not (self.true_labels.shape == self.observed_labels.shape == self.is_test.shape == (n,)):
            raise InputError("dataset arrays must align on the sample axis")
        for labels in (self.true_labels, self.observed_labels):
            if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.n_classes:
                raise InputError(f"labels must lie in [0, {self.n_classes})")
        if np.any(self.true_labels[self.is_test] != self.observed_labels[self.is_test]):
            raise InputError("test split must carry no label noise")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def train_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.is_test).astype(np.int64)

    def test_ids(self) -> np.ndarray:
        return np.flatnonzero(self.is_test).astype(np.int64)


def make_blobs(n_classes, n_per_class, dim, spread, seed, test_per_class=0) -> Dataset:
    """Gaussian clusters around seeded centroids; observed == true labels.

    Train samples get ids 0..C*n_per_class-1 (order shuffled across classes),
    test samples follow.
    """
    if n_classes < 2 or n_per_class < 1 or dim < 1 or spread <= 0 or test_per_class < 0:
        raise InputError(
            "need n_classes >= 2, n_per_class >= 1, dim >= 1, spread > 0, test_per_class >= 0"
        )
    rng = np.random.default_rng(seed)
    centroids = _CENTROID_SCALE * rng.normal(size=(n_classes, dim))

    def sample_split(per_class):
        feats = np.concatenate(
            [centroids[c] + spread * rng.normal(size=(per_class, dim)) for c in range(n_classes)]
        )
        labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
        return feats, labels

    feats_tr, labels_tr = sample_split(n_per_class)
    order = rng.permutation(labels_tr.shape[0])
    feats_tr, labels_tr = feats_tr[order], labels_tr[order]
    if test_per_class > 0:
        feats_te, labels_te = sample_split(test_per_class)
        features = np.concatenate([feats_tr, feats_te])
        labels = np.concatenate([labels_tr, labels_te])
        is_test = np.concatenate(
            [np.zeros(labels_tr.shape[0], bool), np.ones(labels_te.shape[0], bool)]
        )
    else:
        features, labels = feats_tr, labels_tr
        is_test = np.zeros(labels.shape[0], bool)
    return Dataset(features, labels, labels.copy(), is_test, n_classes)


def class_centroids(ds: Dataset) -> np.ndarray:
    """Per-class mean of train features, from true labels."""
    out = np.zeros((ds.n_classes, ds.dim))
    train = ~ds.is_test
    for c in range(ds.n_classes):
        mask = train & (ds.true_labels == c)
        if mask.any():
            out[c] = ds.features[mask].mean(axis=0)
    return out


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def validate_transition(t: np.ndarray) -> None:
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InputError(f"transition matrix must be square, got {t.shape}")
    if np.any(t < 0):
        raise InputError("transition probabilities must be non-negative")
    if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-9):
        raise InputError("every transition row must sum to 1")


def symmetric_matrix(n_classes: int, eta: float) -> np.ndarray:
    """1-eta on the diagonal, eta spread uniformly over the other classes."""
    if not (0.0 <= eta < 1.0) or n_classes < 2:
        raise InputError(f"need 0 <= eta < 1 and n_classes >= 2, got eta={eta}, C={n_classes}")
    t = np.full((n_classes, n_classes), eta / (n_classes - 1))
    np.fill_diagonal(t, 1.0 - eta)
    return t


def asymmetric_matrix(n_classes: int, eta: float, pair_map) -> np.ndarray:
    """All noise mass flows to one designated confusable class per class."""
    if not (0.0 <= eta < 1.0) or n_classes < 2:
        raise InputError(f"need 0 <= eta < 1 and n_classes >= 2, got eta={eta}, C={n_classes}")
    pair_map = list(pair_map)
    if len(pair_map) != n_classes:
        raise InputError(f"pair_map must name a target for each of {n_classes} classes")
    t = np.zeros((n_classes, n_classes))
    for i, j in enumerate(pair_map):
        j = int(j)
        if j == i or not (0 <= j < n_classes):
            raise InputError(f"pair_map[{i}]={j} must be a different valid class")
        t[i, i] = 1.0 - eta
        t[i, j] += eta
    return t


def inject_noise(ds: Dataset, transition: np.ndarray, seed) -> Dataset:
    """Redraw each train sample's observed label from its true-label row."""
    transition = np.asarray(transition, dtype=np.float64)
    validate_transition(transition)
    if transition.shape[0] != ds.n_classes:
        raise InputError(
            f"transition is {transition.shape[0]}x{transition.shape[0]} but dataset has {ds.n_classes} classes"
        )
    rng = np.random.default_rng(seed)
    train = ds.train_ids()
    u = rng.random(train.shape[0])
    cum = np.cumsum(transition, axis=1)[ds.true_labels[train]]
    drawn = (cum < u[:, None]).sum(axis=1).astype(np.int64)
    observed = ds.observed_labels.copy()
    observed[train] = np.minimum(drawn, ds.n_classes - 1)
    return replace(ds, observed_labels=observed)


def instance_noise(ds: Dataset, eta: float, seed) -> Dataset:
    """Feature-dependent flips: each train sample may flip to the class of its
    nearest other-class centroid, with probability growing as the sample sits
    closer to that centroid relative to its own. Flip probabilities are
    rescaled (with a clamp at 1) so the expected overall flip rate is eta.
    """
    if not (0.0 <= eta < 1.0):
        raise InputError(f"need 0 <= eta < 1, got {eta}")
    if eta == 0.0:
        return replace(ds, observed_labels=ds.observed_labels.copy())
    cents = class_centroids(ds)
    train = ds.train_ids()
    x = ds.features[train]
    y = ds.true_labels[train]
    dists = np.linalg.norm(x[:, None, :] - cents[None, :, :], axis=2)
    d_own = dists[np.arange(x.shape[0]), y]
    masked = dists.copy()
    masked[np.arange(x.shape[0]), y] = np.inf
    target = masked.argmin(axis=1).astype(np.int64)
    d_other = masked[np.arange(x.shape[0]), target]
    closeness = d_own / (d_own + d_other)  # in (0, 1); ~0 deep inside own cluster

    # calibrate scale so mean(min(1, scale*closeness)) == eta
    lo, hi = 0.0, 1.0
    while np.minimum(1.0, hi * closeness).mean() < eta:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.minimum(1.0, mid * closeness).mean() < eta:
            lo = mid
        else:
            hi = mid
    flip_p = np.minimum(1.0, hi * closeness)

    rng = np.random.default_rng(seed)
    flips = rng.random(x.shape[0]) < flip_p
    observed = ds.observed_labels.copy()
    observed[train[flips]] = target[flips]
    return replace(ds, observed_labels=observed)


class EmpiricalTransition(NamedTuple):
    matrix: np.ndarray
    unseen_rows: np.ndarray  # bool per class: no samples observed, row set uniform


def empirical_transition(true_labels, observed_labels, n_classes) -> EmpiricalTransition:
    """Row-normalized confusion counts of observed given true labels."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    observed_labels = np.asarray(observed_labels, dtype=np.int64)
    if true_labels.shape != observed_labels.shape:
        raise InputError("label arrays must have equal length")
    counts = np.zeros((n_classes, n_classes))
    np.add.at(counts, (true_labels, observed_labels), 1.0)
    row_sums = counts.sum(axis=1)
    unseen = row_sums == 0
    matrix = np.where(
        unseen[:, None], 1.0 / n_classes, counts / np.maximum(row_sums, 1.0)[:, None]
    )
    return EmpiricalTransition(matrix, unseen)


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

_DS_MAGIC = "# coforget dataset v1: line2 = C,dim,N; rows = id,split,true,observed,features..."


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_DS_MAGIC + "\n")
        fh.write(f"{ds.n_classes},{ds.dim},{ds.n}\n")
        for i in range(ds.n):
            split = "test" if ds.is_test[i] else "train"
            feats = ",".join(fmt_float(v) for v in ds.features[i])
            fh.write(f"{i},{split},{ds.true_labels[i]},{ds.observed_labels[i]},{feats}\n")


def load_dataset(path) -> Dataset:
    """Read a file written by save_dataset. A malformed header or row, a
    label outside [0, C), a noisy test label or a non-finite feature raises
    IngestionError at path:line."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{path}: cannot read dataset file ({exc})") from None
    if not lines or not lines[0].startswith("# coforget dataset v1"):
        raise IngestionError(f"{path}: missing dataset header line")
    try:
        n_classes, dim, n = (int(v) for v in lines[1].split(","))
    except (IndexError, ValueError) as exc:
        raise IngestionError(f"{path}: line 2 must be 'C,dim,N' ({exc})") from None
    if n_classes < 1 or dim < 1 or n < 0:
        raise IngestionError(f"{path}:2: need C >= 1, dim >= 1 and N >= 0, got {lines[1]!r}")
    records = lines[2:]
    if len(records) != n:
        raise IngestionError(f"{path}: header promises {n} records, found {len(records)}")
    features = np.empty((n, dim))
    true_labels = np.empty(n, dtype=np.int64)
    observed = np.empty(n, dtype=np.int64)
    is_test = np.empty(n, dtype=bool)
    for lineno, row in enumerate(records, start=3):
        parts = row.split(",")
        if len(parts) != 4 + dim:
            raise IngestionError(f"{path}:{lineno}: expected {4 + dim} fields, got {len(parts)}")
        try:
            idx = int(parts[0])
            if idx != lineno - 3:
                raise ValueError(f"ids must be contiguous, got {idx}")
            if parts[1] not in ("train", "test"):
                raise ValueError(f"bad split tag {parts[1]!r}")
            true, obs = int(parts[2]), int(parts[3])
            if not (0 <= true < n_classes and 0 <= obs < n_classes):
                raise ValueError(f"labels {true},{obs} must lie in [0, {n_classes})")
            if parts[1] == "test" and true != obs:
                raise ValueError("test rows must carry no label noise")
            is_test[idx] = parts[1] == "test"
            true_labels[idx], observed[idx] = true, obs
            features[idx] = [float(v) for v in parts[4:]]
            if not np.all(np.isfinite(features[idx])):
                raise ValueError(f"features must be finite, got {','.join(parts[4:])}")
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: {exc}") from None
    return Dataset(features, true_labels, observed, is_test, n_classes)
