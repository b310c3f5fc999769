"""Line-by-line dataset and oracle file loaders, frozen as they were before
both became one np.loadtxt read plus vectorised checks. The differential
fuzz in test_util.py runs them next to data.load_dataset and
oracle.load_oracle_file as oracles: on every damaged file the two must both
reject it, or both return equal arrays."""

import numpy as np

from coforget.data import Dataset
from coforget.errors import IngestionError
from coforget.oracle import OracleTable

_ROW_TOL = 1e-6


def load_dataset(path) -> Dataset:
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


def load_oracle_file(path, expected_ids=None) -> OracleTable:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{path}: cannot read oracle file ({exc})") from None
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
    if not rows:
        raise IngestionError(f"{path}: no sample rows")
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
