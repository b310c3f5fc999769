"""Pluggable zero-shot oracle: a fixed, training-independent class predictor.

Two providers share one table shape: a synthetic oracle with controllable
accuracy/confidence, and a file-backed table for importing externally
computed predictions. The oracle also seeds the frozen embedding inputs of
the pretrained-style network.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import IngestionError, InputError
from .util import check_rows, read_csv, write_csv


@dataclass(frozen=True)
class OracleTable:
    """Per-sample class probabilities, aligned with dataset ids 0..N-1."""

    probs: np.ndarray  # (N, C)

    def __post_init__(self):
        if self.probs.ndim != 2:
            raise InputError("oracle table must be (n_samples, n_classes)")

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    def argmax(self) -> np.ndarray:
        return self.probs.argmax(axis=1).astype(np.int64)


def synthetic_oracle(ds: Dataset, accuracy: float, confidence: float, seed) -> OracleTable:
    """Oracle that hits the true label with the given probability.

    The predicted class receives ``confidence`` probability mass, the rest is
    spread uniformly; the caller keeps confidence above chance, so the argmax
    is the predicted class.
    """
    c = ds.n_classes
    rng = np.random.default_rng(seed)
    correct = rng.random(ds.n) < accuracy
    offsets = rng.integers(1, c, size=ds.n)
    predicted = np.where(correct, ds.true_labels, (ds.true_labels + offsets) % c)
    probs = np.full((ds.n, c), (1.0 - confidence) / (c - 1))
    probs[np.arange(ds.n), predicted] = confidence
    return OracleTable(probs)


def oracle_embeddings(ds: Dataset, oracle: OracleTable, embed_dim: int, seed) -> np.ndarray:
    """Fixed per-sample embeddings standing in for a frozen pretrained encoder.

    Raw features are concatenated with the oracle's predicted-class direction
    (one-hot scaled by its confidence) and pushed through a seeded random
    linear map, so embedding quality tracks oracle quality.
    """
    rng = np.random.default_rng(seed)
    aug_dim = ds.dim + ds.n_classes
    projection = rng.normal(size=(aug_dim, embed_dim)) / np.sqrt(aug_dim)
    predicted = oracle.argmax()
    conf = oracle.probs[np.arange(ds.n), predicted]
    class_part = np.zeros((ds.n, ds.n_classes))
    class_part[np.arange(ds.n), predicted] = conf
    return np.concatenate([ds.features, class_part], axis=1) @ projection


# ---------------------------------------------------------------------------
# oracle files
# ---------------------------------------------------------------------------

_ORACLE_MAGIC = "# coforget oracle v1: line2 = C; rows = id,p0..p{C-1}"
_ROW_TOL = 1e-6
_IDS_SHOWN = 5  # ids a missing or unexpected id error lists


def save_oracle_file(table: OracleTable, path) -> None:
    write_csv(path, [_ORACLE_MAGIC, str(table.n_classes)], [(np.arange(table.n), *table.probs.T)])


def _class_count(path, head) -> int:
    try:
        if head[0].startswith("# coforget oracle v1") and int(head[1]) >= 1:
            return int(head[1])
    except ValueError:
        pass
    raise IngestionError(f"{path}: need the oracle header line, then a class count >= 1")


def load_oracle_file(path, expected_ids=None) -> OracleTable:
    """Parse and validate an oracle file; rows must be probability vectors,
    and cover exactly expected_ids when that is given."""
    _, rows = read_csv(path, 2, lambda head: [
        ("id", np.int64), ("p", np.float64, (_class_count(path, head),)),
    ], what="oracle file")
    ids, probs = rows["id"], np.ascontiguousarray(rows["p"])
    order = np.argsort(ids, kind="stable")
    duplicate = np.zeros(ids.shape[0], bool)
    duplicate[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    check_rows(path, 3, [
        (~duplicate, "duplicate sample id"),
        (np.isfinite(probs).all(axis=1), "probabilities must be finite"),
        (~(probs < 0).any(axis=1) & ~(np.abs(probs.sum(axis=1) - 1.0) > _ROW_TOL),
         f"probabilities must be non-negative and sum to 1 (within {_ROW_TOL})"),
    ])
    if ids.shape[0] == 0:
        raise IngestionError(f"{path}: no sample rows")
    if expected_ids is not None:
        expected = np.asarray(expected_ids, dtype=np.int64)
        for which, diff in (("missing", np.setdiff1d(expected, ids)),
                            ("unexpected", np.setdiff1d(ids, expected))):
            if diff.size:
                raise IngestionError(f"{path}: {diff.size} {which} sample id(s), "
                                     f"the first {diff[:_IDS_SHOWN].tolist()}")
    if not np.array_equal(ids[order], np.arange(ids.shape[0])):
        raise IngestionError(f"{path}: sample ids must be contiguous from 0")
    return OracleTable(probs[order])
