"""Scalar reference formulas for the training losses.

The package computes each loss once, as a batch value-and-gradient in
``coforget.net``. These are independent restatements of the same formulas,
written from their textbook definitions, that the tests use as oracles. Each
clamps probabilities to ``net.EPS`` before a log, as the package does.
"""

import numpy as np

from coforget.errors import InputError
from coforget.net import EPS


def _rows(p) -> np.ndarray:
    return np.atleast_2d(np.asarray(p, dtype=np.float64))


def cross_entropy(prob, label: int) -> float:
    """-log p[label] of one probability vector."""
    prob = np.asarray(prob, dtype=np.float64)
    if not (0 <= int(label) < prob.shape[-1]):
        raise InputError(f"label {label} out of range for {prob.shape[-1]} classes")
    return float(-np.log(max(prob[int(label)], EPS)))


def kl_divergence(p, q) -> float:
    """KL(p || q) of two probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise InputError(f"distribution lengths differ: {p.shape} vs {q.shape}")
    return float(np.sum(p * np.log(np.maximum(p, EPS) / np.maximum(q, EPS))))


def loss_labeled(y_hat, p) -> float:
    """Batch-mean soft-target cross-entropy."""
    y_rows, p_rows = _rows(y_hat), _rows(p)
    return float(-np.sum(y_rows * np.log(np.maximum(p_rows, EPS))) / y_rows.shape[0])


def loss_unlabeled(y_hat, p) -> float:
    """Batch-mean squared Euclidean distance."""
    y_rows, p_rows = _rows(y_hat), _rows(p)
    return float(np.sum((y_rows - p_rows) ** 2) / y_rows.shape[0])


def loss_reg(p_mean) -> float:
    """Uniform-prior penalty on the batch-mean prediction."""
    p_mean = np.asarray(p_mean, dtype=np.float64)
    prior = 1.0 / p_mean.shape[-1]
    return float(np.sum(prior * np.log(prior / np.maximum(p_mean, EPS))))


def unlearning_loss(p_ref, p_cur, t_unl: float) -> float:
    """-t_unl^2 * sum over the batch of KL(reference || current); always <= 0."""
    if t_unl <= 0:
        raise InputError(f"t_unl must be > 0, got {t_unl}")
    p_ref, p_cur = _rows(p_ref), _rows(p_cur)
    if p_ref.shape != p_cur.shape:
        raise InputError(f"batch shapes differ: {p_ref.shape} vs {p_cur.shape}")
    return -float(t_unl) ** 2 * sum(kl_divergence(p, q) for p, q in zip(p_ref, p_cur))


def semi_loss(p, targets, n_labeled, lambda_u, reg_coef) -> float:
    """The co-teaching objective on a mixed batch: CE on the first n_labeled
    rows, lambda_u times the squared distance on the rest, and reg_coef times
    the uniform-prior penalty on the whole batch's mean prediction."""
    p, targets = _rows(p), _rows(targets)
    total = reg_coef * loss_reg(p.mean(axis=0))
    if n_labeled > 0:
        total += loss_labeled(targets[:n_labeled], p[:n_labeled])
    if n_labeled < p.shape[0]:
        total += lambda_u * loss_unlabeled(targets[n_labeled:], p[n_labeled:])
    return total
