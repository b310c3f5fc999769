"""Unlearning-target selection: the three-condition rule that picks which
samples each network must forget from its loss trajectory.

A sample becomes a forgetting target for a network when it has a very low
loss or a strong recent loss drop (the memorization signals), unless the
fixed zero-shot oracle agrees with its observed label (in which case it is
probably genuinely clean). The retained training pool is everything not
targeted by either network.

Selection reads losses only; the forgetting references, each network's
parameters at the selection epoch, are the driver's to keep.
"""

from dataclasses import dataclass

import numpy as np

from .config import MethodCfg
from .errors import InputError
from .util import write_csv


@dataclass(frozen=True)
class SelectionSets:
    """Forgetting targets per network plus the retained training pool."""

    targets_scratch: frozenset
    targets_embed: frozenset
    retained: np.ndarray


def quantile_threshold(values, alpha: float) -> float:
    """Nearest-rank quantile: the ascending value at 0-indexed rank
    floor(alpha*N), clamped to the largest index."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InputError("cannot take a quantile of an empty array")
    rank = min(int(np.floor(alpha * values.size)), values.size - 1)
    return float(np.sort(values)[rank])


def cond_low_loss(losses, p_low: float) -> set:
    """Samples strictly below the low-loss quantile threshold."""
    losses = np.asarray(losses, dtype=np.float64)
    thr = quantile_threshold(losses, p_low)
    return set(np.flatnonzero(losses < thr).tolist())


def cond_loss_drop(losses_now, losses_prev, p_drop: float) -> set:
    """Samples whose loss change since the previous checkpoint falls strictly
    below the p_drop quantile of all changes."""
    losses_now = np.asarray(losses_now, dtype=np.float64)
    losses_prev = np.asarray(losses_prev, dtype=np.float64)
    delta = losses_now - losses_prev
    thr = quantile_threshold(delta, p_drop)
    return set(np.flatnonzero(delta < thr).tolist())


def cond_oracle_consistent(oracle_argmax, observed_labels) -> set:
    """Samples whose observed label matches the zero-shot oracle's argmax."""
    oracle_argmax = np.asarray(oracle_argmax, dtype=np.int64)
    observed_labels = np.asarray(observed_labels, dtype=np.int64)
    return set(np.flatnonzero(oracle_argmax == observed_labels).tolist())


def unlearning_ss(losses_now, losses_prev, oracle_argmax, observed_labels, p_low, p_drop, *,
                  low_loss=True, loss_drop=True, oracle_consistent=True):
    """(low-loss union loss-drop) minus oracle-consistent, as index sets; a
    condition switched off is the empty set.

    Returns the target set plus the three condition sets for auditing.
    """
    d_pl = cond_low_loss(losses_now, p_low) if low_loss else set()
    d_drop = cond_loss_drop(losses_now, losses_prev, p_drop) if loss_drop else set()
    d_cs = cond_oracle_consistent(oracle_argmax, observed_labels) if oracle_consistent else set()
    return (d_pl | d_drop) - d_cs, d_pl, d_drop, d_cs


@dataclass(frozen=True)
class SelectionAudit:
    """Per-network condition sets retained for the audit file."""

    low_scratch: set
    drop_scratch: set
    low_embed: set
    drop_embed: set
    consistent: set


def _checked_losses(losses, n: int) -> np.ndarray:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != (n,):
        raise InputError(f"expected {n} losses, got shape {losses.shape}")
    if not np.all(np.isfinite(losses)):
        raise InputError("losses must be finite")
    return losses


def unlearning_setup(train_ids, observed_labels, losses_scratch, losses_embed, oracle_argmax,
                     method: MethodCfg):
    """Run selection for both networks.

    losses_scratch and losses_embed are each a (losses_now, losses_prev)
    pair of that network's per-sample losses on train_ids, now and at the
    previous checkpoint (the previous selection epoch; the bootstrap
    checkpoint on the first pass). method supplies p_low, p_drop and the
    cond_* switches. Misaligned or non-finite losses raise InputError.
    Returns (SelectionSets, SelectionAudit).
    """
    train_ids = np.asarray(train_ids, dtype=np.int64)
    n = train_ids.shape[0]
    (t_scratch, low_scratch, drop_scratch, consistent), (t_embed, low_embed, drop_embed, _) = (
        unlearning_ss(
            *(_checked_losses(x, n) for x in losses),
            oracle_argmax, observed_labels, method.p_low, method.p_drop,
            low_loss=method.cond_low_loss, loss_drop=method.cond_loss_drop,
            oracle_consistent=method.cond_oracle,
        ) for losses in (losses_scratch, losses_embed)
    )
    retained = np.asarray(sorted(set(train_ids.tolist()) - t_scratch - t_embed), dtype=np.int64)
    sets = SelectionSets(frozenset(t_scratch), frozenset(t_embed), retained)
    audit = SelectionAudit(low_scratch, drop_scratch, low_embed, drop_embed, consistent)
    return sets, audit


def write_selection_audit(path, train_ids, sets: SelectionSets, audit: SelectionAudit) -> None:
    """One row per train sample: membership in each condition and target set."""
    train_ids = np.asarray(train_ids, dtype=np.int64)
    members = (audit.low_scratch, audit.drop_scratch, audit.low_embed, audit.drop_embed,
               audit.consistent, sets.targets_scratch, sets.targets_embed)
    write_csv(path, [
        "id,low_loss_scratch,loss_drop_scratch,low_loss_embed,loss_drop_embed,"
        "oracle_consistent,target_scratch,target_embed"
    ], [[train_ids] + [np.isin(train_ids, np.fromiter(ids, np.int64, len(ids))) for ids in members]])
