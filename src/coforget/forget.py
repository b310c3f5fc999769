"""Selective forgetting: push the current network's predictions away from a
frozen reference snapshot on the targeted samples.

The objective (``net.unlearn_value_grad``) is the negative,
temperature-scaled KL divergence from the reference distribution summed
over a mini-batch, so one SGD step on it ascends the divergence. The
reference receives no gradient; updates share the network's main optimizer
state.
"""

from dataclasses import dataclass

import numpy as np

from . import net

KL_LOG_HEADER = "epoch,network,n_du,kl_before,kl_after"


@dataclass(frozen=True)
class UnlearnBatchPlan:
    """Shuffled mini-batches covering one network's forgetting targets."""

    batches: tuple
    t_unl: float


def make_unlearn_plan(target_ids, batch_size, t_unl, rng) -> UnlearnBatchPlan:
    ids = np.asarray(sorted(target_ids), dtype=np.int64)
    if ids.shape[0]:
        ids = ids[np.random.default_rng(rng).permutation(ids.shape[0])]
    batches = tuple(
        ids[i:i + batch_size] for i in range(0, ids.shape[0], batch_size)
    )
    return UnlearnBatchPlan(batches=batches, t_unl=float(t_unl))


@dataclass(frozen=True)
class ForgettingStats:
    """Mean KL(reference || current) over the targets before and after one pass."""

    n_targets: int
    kl_before: float
    kl_after: float


def apply_unlearning(arch, theta, opt, snapshot_theta, plan: UnlearnBatchPlan,
                     inputs, epoch: int, frozen_prefix: int = 0):
    """One pass of forgetting steps over the plan's batches.

    snapshot_theta supplies the fixed reference distributions; an empty plan
    leaves parameters untouched. Returns (theta, opt, ForgettingStats).
    """
    if not plan.batches:  # make_unlearn_plan makes no empty batch
        return theta, opt, ForgettingStats(0, 0.0, 0.0)

    all_ids = np.concatenate(plan.batches)
    x_all = inputs[all_ids]
    p_ref_all = net.predict_proba(arch, snapshot_theta, x_all)

    def mean_kl(current_theta):
        return float(net.kl_rows(p_ref_all, net.predict_proba(arch, current_theta, x_all)).mean())

    kl_before = mean_kl(theta)
    for batch_ids in plan.batches:
        p_ref = net.predict_proba(arch, snapshot_theta, inputs[batch_ids])
        _, grad = net.unlearn_value_grad(arch, theta, inputs[batch_ids], p_ref, plan.t_unl)
        theta, opt = net.sgd_step(theta, grad, opt, epoch, frozen_prefix)
    kl_after = mean_kl(theta)
    return theta, opt, ForgettingStats(all_ids.shape[0], kl_before, kl_after)
