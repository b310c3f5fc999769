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
from .util import check_rows, read_csv, write_csv

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


def symmetric_matrix(n_classes: int, eta: float) -> np.ndarray:
    """1-eta on the diagonal, eta spread uniformly over the other classes."""
    t = np.full((n_classes, n_classes), eta / (n_classes - 1))
    np.fill_diagonal(t, 1.0 - eta)
    return t


def asymmetric_matrix(n_classes: int, eta: float, pair_map) -> np.ndarray:
    """All noise mass flows to one designated confusable class per class:
    pair_map[i], another class, takes eta of class i's row."""
    t = np.eye(n_classes) * (1.0 - eta)
    t[np.arange(n_classes), pair_map] = eta
    return t


def inject_noise(ds: Dataset, transition: np.ndarray, seed) -> Dataset:
    """Redraw each train sample's observed label from its true-label row of
    a row-stochastic transition matrix (driver.noise_matrix makes them)."""
    transition = np.asarray(transition, dtype=np.float64)
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
    matrix: np.ndarray  # named, because gate C5 reads it as .matrix


def empirical_transition(true_labels, observed_labels, n_classes) -> EmpiricalTransition:
    """Row-normalized confusion counts of observed given true labels; uniform for an unseen class."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    observed_labels = np.asarray(observed_labels, dtype=np.int64)
    if true_labels.shape != observed_labels.shape:
        raise InputError("label arrays must have equal length")
    counts = np.zeros((n_classes, n_classes))
    np.add.at(counts, (true_labels, observed_labels), 1.0)
    row_sums = counts.sum(axis=1)
    return EmpiricalTransition(np.where(
        (row_sums == 0)[:, None], 1.0 / n_classes, counts / np.maximum(row_sums, 1.0)[:, None]
    ))


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

_DS_MAGIC = "# coforget dataset v1: line2 = C,dim,N; rows = id,split,true,observed,features..."


def save_dataset(ds: Dataset, path) -> None:
    split = np.where(ds.is_test, "test", "train")
    write_csv(path, [_DS_MAGIC, f"{ds.n_classes},{ds.dim},{ds.n}"],
              [(np.arange(ds.n), split, ds.true_labels, ds.observed_labels, *ds.features.T)])


def _dataset_sizes(path, head) -> tuple:
    if not head[0].startswith("# coforget dataset v1"):
        raise IngestionError(f"{path}: missing dataset header line")
    try:
        n_classes, dim, n = (int(v) for v in head[1].split(","))
    except ValueError as exc:
        raise IngestionError(f"{path}: line 2 must be 'C,dim,N' ({exc})") from None
    if n_classes < 1 or dim < 1 or n < 0:
        raise IngestionError(f"{path}:2: need C >= 1, dim >= 1 and N >= 0, got {head[1]!r}")
    return n_classes, dim, n


def load_dataset(path) -> Dataset:
    """Read a file written by save_dataset. A malformed header or row, a
    train row after a test row, a label outside [0, C), a noisy test label
    or a non-finite feature raises IngestionError at path:line."""
    # the split field is one wider than "train", so "trainx" stays "trainx"
    head, rows = read_csv(path, 2, lambda head: [
        ("id", np.int64), ("split", "U6"), ("labels", np.int64, (2,)),
        ("features", np.float64, (_dataset_sizes(path, head)[1],)),
    ], what="dataset file")
    n_classes, _, n = _dataset_sizes(path, head)
    if rows.shape[0] != n:
        raise IngestionError(f"{path}: header promises {n} records, found {rows.shape[0]}")
    true_labels, observed = np.ascontiguousarray(rows["labels"].T)
    is_test = rows["split"] == "test"
    check_rows(path, 3, [
        (rows["id"] == np.arange(n), "ids must be contiguous from 0"),
        (is_test | (rows["split"] == "train"), "split must be train or test"),
        (is_test | ~np.maximum.accumulate(is_test), "train rows must come before test rows"),
        (((rows["labels"] >= 0) & (rows["labels"] < n_classes)).all(axis=1),
         f"labels must lie in [0, {n_classes})"),
        (~is_test | (true_labels == observed), "test rows must carry no label noise"),
        (np.isfinite(rows["features"]).all(axis=1), "features must be finite"),
    ])
    return Dataset(np.ascontiguousarray(rows["features"]), true_labels, observed, is_test, n_classes)
