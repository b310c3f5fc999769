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
from .util import fmt_float


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
    spread uniformly; confidence must exceed chance so the argmax is the
    predicted class.
    """
    c = ds.n_classes
    if not (1.0 / c <= accuracy <= 1.0):
        raise InputError(f"accuracy must be in [1/C, 1] = [{1.0 / c:.4f}, 1], got {accuracy}")
    if not (1.0 / c < confidence < 1.0):
        raise InputError(f"confidence must be in (1/C, 1) = ({1.0 / c:.4f}, 1), got {confidence}")
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
    if embed_dim < ds.n_classes:
        raise InputError(f"embed_dim must be >= n_classes, got {embed_dim} < {ds.n_classes}")
    if oracle.n != ds.n:
        raise InputError(f"oracle covers {oracle.n} samples, dataset has {ds.n}")
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


def save_oracle_file(table: OracleTable, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_ORACLE_MAGIC + "\n")
        fh.write(f"{table.n_classes}\n")
        for i in range(table.n):
            fh.write(f"{i}," + ",".join(fmt_float(p) for p in table.probs[i]) + "\n")


def load_oracle_file(path, expected_ids=None) -> OracleTable:
    """Parse and validate an oracle file; rows must be probability vectors.

    When expected_ids is given, the table must cover exactly those ids.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# coforget oracle v1"):
        raise IngestionError(f"{path}: missing oracle header line")
    try:
        n_classes = int(lines[1])
    except (IndexError, ValueError):
        raise IngestionError(f"{path}: line 2 must hold the class count") from None
    rows = {}
    for lineno, row in enumerate(lines[2:], start=3):
        parts = row.split(",")
        if len(parts) != 1 + n_classes:
            raise IngestionError(
                f"{path}:{lineno}: expected id plus {n_classes} probabilities, got {len(parts)} fields"
            )
        try:
            idx = int(parts[0])
            p = np.array([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: {exc}") from None
        if idx in rows:
            raise IngestionError(f"{path}:{lineno}: duplicate sample id {idx}")
        if not np.all(np.isfinite(p)):
            raise IngestionError(f"{path}:{lineno}: probabilities must be finite")
        if np.any(p < 0) or abs(p.sum() - 1.0) > _ROW_TOL:
            raise IngestionError(
                f"{path}:{lineno}: probabilities must be non-negative and sum to 1 "
                f"(got sum {p.sum():.6f})"
            )
        rows[idx] = p
    if expected_ids is not None:
        missing = sorted(set(int(i) for i in expected_ids) - set(rows))
        if missing:
            raise IngestionError(f"{path}: missing sample ids {missing}")
        extra = sorted(set(rows) - set(int(i) for i in expected_ids))
        if extra:
            raise IngestionError(f"{path}: unexpected sample ids {extra}")
    if sorted(rows) != list(range(len(rows))):
        raise IngestionError(f"{path}: sample ids must be contiguous from 0")
    probs = np.stack([rows[i] for i in range(len(rows))])
    return OracleTable(probs)
