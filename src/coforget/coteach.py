"""Asymmetric co-teaching: per-network clean probabilities from a 1-D GMM,
cross-network co-divide, pseudo-labeling with sharpening, Mixup, and the
per-epoch training of both networks.

The scratch network trains semi-supervised on labeled plus unlabeled samples;
the embedding-backed network trains on labeled samples only (its adapter
frozen until the configured epoch). Setting ``asymmetric=False`` gives both
networks the semi-supervised treatment, which is the symmetric ablation arm.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import kernels, net
from .errors import InputError

logger = logging.getLogger("coforget")

GMM_MAX_ITER = 100
GMM_TOL = 1e-6
GMM_VAR_FLOOR = 1e-4


@dataclass(frozen=True)
class GmmFit:
    """Two-component fit over min-max normalized losses.

    clean_posterior is the per-sample probability of the smaller-mean
    component; means/variances live in normalized loss space. normalized
    holds the losses the EM ran on (all zero when every loss is equal) and
    row i of iterates the (pi0, pi1, mu0, mu1, var0, var1) after the M-step
    of EM iteration i.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    clean_posterior: np.ndarray
    normalized: np.ndarray
    iterates: np.ndarray
    n_iter: int
    loss_min: float
    loss_max: float

    def means_raw(self) -> np.ndarray:
        return self.loss_min + self.means * (self.loss_max - self.loss_min)

    @property
    def log_likelihoods(self) -> np.ndarray:
        """Post-update log-likelihood of each completed EM iteration,
        computed on access from iterates; the EM loop itself never needs it."""
        return gmm_log_likelihoods(self.normalized, self.iterates)


def gmm_log_likelihoods(values, iterates) -> np.ndarray:
    """Log-likelihood of values under each parameter row (pi0, pi1, mu0, mu1,
    var0, var1) of iterates. This is the expression the EM loop once
    evaluated after every M-step, applied to the same floats, so the results
    are the loop's values bit for bit."""
    log2pi = np.log(2.0 * np.pi)
    out = np.empty(iterates.shape[0])
    for i, (p0, p1, m0, m1, v0, v1) in enumerate(iterates):
        lp0 = np.log(p0) - 0.5 * (log2pi + np.log(v0)) - (values - m0) ** 2 / (2.0 * v0)
        lp1 = np.log(p1) - 0.5 * (log2pi + np.log(v1)) - (values - m1) ** 2 / (2.0 * v1)
        hi = np.maximum(lp0, lp1)
        out[i] = (hi + np.log(np.exp(lp0 - hi) + np.exp(lp1 - hi))).sum()
    return out


def fit_gmm_1d(losses, max_iter=GMM_MAX_ITER, tol=GMM_TOL, var_floor=GMM_VAR_FLOOR) -> GmmFit:
    """EM fit of two Gaussians to a loss array; the low-mean component is
    treated as the clean one. Losses are min-max normalized first; a fully
    degenerate array (all values equal) yields 0.5 posteriors everywhere.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.shape[0] < 2:
        raise InputError("need a 1-D array of at least two losses")
    if not np.all(np.isfinite(losses)):
        raise InputError("losses must be finite")
    lo = float(losses.min())
    hi = float(losses.max())
    n = losses.shape[0]
    if hi - lo < 1e-12:
        return GmmFit(
            weights=np.array([0.5, 0.5]),
            means=np.zeros(2),
            variances=np.full(2, var_floor),
            clean_posterior=np.full(n, 0.5),
            normalized=np.zeros(n),
            iterates=np.empty((0, 6)),
            n_iter=0,
            loss_min=lo,
            loss_max=hi,
        )
    norm = (losses - lo) / (hi - lo)
    mu0 = np.percentile(norm, [10.0, 90.0])
    if mu0[0] == mu0[1]:
        mu0 = np.array([0.0, 1.0])
    var0 = np.full(2, max(float(norm.var()), var_floor))
    pi0 = np.array([0.5, 0.5])
    pi, mu, var, resp0, iterates, n_iter = kernels.gmm_em_1d(
        norm, pi0, mu0, var0, max_iter, tol, var_floor
    )
    if mu[0] == mu[1]:
        clean_post = np.full(n, 0.5)
    elif mu[0] < mu[1]:
        clean_post = resp0
    else:
        clean_post = 1.0 - resp0
    return GmmFit(
        weights=pi,
        means=mu,
        variances=var,
        clean_posterior=clean_post,
        normalized=norm,
        iterates=iterates,
        n_iter=int(n_iter),
        loss_min=lo,
        loss_max=hi,
    )


# ---------------------------------------------------------------------------
# co-divide and pseudo-labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoDivide:
    """Cross-network split of the current training pool.

    Each network's labeled set is gated by its peer's clean probabilities;
    only the scratch network gets an unlabeled set in asymmetric mode.
    """

    scratch_labeled_ids: np.ndarray
    scratch_labeled_w: np.ndarray    # peer (embed) clean probabilities
    scratch_unlabeled_ids: np.ndarray
    embed_labeled_ids: np.ndarray
    embed_labeled_w: np.ndarray      # peer (scratch) clean probabilities


def co_divide(pool_ids, w_scratch, w_embed, tau_w) -> CoDivide:
    pool_ids = np.asarray(pool_ids, dtype=np.int64)
    w_scratch = np.asarray(w_scratch, dtype=np.float64)
    w_embed = np.asarray(w_embed, dtype=np.float64)
    if not (pool_ids.shape == w_scratch.shape == w_embed.shape):
        raise InputError("pool ids and both probability arrays must align")
    keep_scratch = w_embed >= tau_w
    keep_embed = w_scratch >= tau_w
    return CoDivide(
        scratch_labeled_ids=pool_ids[keep_scratch],
        scratch_labeled_w=w_embed[keep_scratch],
        scratch_unlabeled_ids=pool_ids[~keep_scratch],
        embed_labeled_ids=pool_ids[keep_embed],
        embed_labeled_w=w_scratch[keep_embed],
    )


def _rows(p):
    p = np.asarray(p, dtype=np.float64)
    return (p.reshape(1, -1), True) if p.ndim == 1 else (p, False)


def sharpen(p, temperature):
    """Raise probabilities to 1/temperature and renormalize row-wise."""
    rows, single = _rows(p)
    powered = rows ** (1.0 / temperature)
    out = powered / powered.sum(axis=1, keepdims=True)
    return out[0] if single else out


def refine_label(y_onehot, w, p_model, t_sharp):
    """Blend the observed one-hot label with the model prediction by clean
    probability, then sharpen."""
    y_rows, single = _rows(y_onehot)
    p_rows, _ = _rows(p_model)
    w_col = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    mixed = w_col * y_rows + (1.0 - w_col) * p_rows
    out = sharpen(mixed, t_sharp)
    return out[0] if single else out


def guess_label(p_a, p_v, t_sharp):
    """Average the two networks' predictions and sharpen."""
    a_rows, single = _rows(p_a)
    v_rows, _ = _rows(p_v)
    out = sharpen(0.5 * (a_rows + v_rows), t_sharp)
    return out[0] if single else out


def mixup(x_i, y_i, x_j, y_j, alpha, rng):
    """Convex combination of two (batches of) samples and targets.

    lambda ~ Beta(alpha, alpha) folded to [0.5, 1] so the first argument
    dominates; one draw covers the whole batch.
    """
    if alpha <= 0:
        raise InputError(f"mixup alpha must be > 0, got {alpha}")
    rng = np.random.default_rng(rng)
    lam = float(rng.beta(alpha, alpha))
    lam = max(lam, 1.0 - lam)
    x_hat = lam * np.asarray(x_i, dtype=np.float64) + (1.0 - lam) * np.asarray(x_j, dtype=np.float64)
    y_hat = lam * np.asarray(y_i, dtype=np.float64) + (1.0 - lam) * np.asarray(y_j, dtype=np.float64)
    return x_hat, y_hat, lam


# ---------------------------------------------------------------------------
# one co-teaching epoch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoteachParams:
    batch_size: int
    tau_w: float
    lambda_u: float
    t_sharp: float
    mixup_alpha: float
    reg_coef: float
    encoder_unfreeze_epoch: int
    asymmetric: bool = True


@dataclass
class CoteachResult:
    theta_scratch: np.ndarray
    opt_scratch: net.OptimizerState
    theta_embed: np.ndarray
    opt_embed: net.OptimizerState
    w_scratch: np.ndarray            # aligned to pool_ids
    w_embed: np.ndarray
    labeled_for_scratch: np.ndarray  # bool masks aligned to pool_ids
    labeled_for_embed: np.ndarray
    skipped_scratch: bool
    skipped_embed: bool


def _train_one_net(arch, theta, opt, inputs, targets_onehot, labeled_ids, labeled_w,
                   unlabeled_ids, self_predict, peer_predict, params, epoch, rng,
                   frozen_prefix):
    """Mini-batch pass over the labeled set, pairing in unlabeled batches of
    the same size when present; Mixup partners come from the combined pool.
    """
    order = rng.permutation(labeled_ids.shape[0])
    lab_ids = labeled_ids[order]
    lab_w = labeled_w[order]
    n_unl = unlabeled_ids.shape[0]
    unl_ids = unlabeled_ids[rng.permutation(n_unl)] if n_unl else unlabeled_ids
    b = params.batch_size
    for i in range((lab_ids.shape[0] + b - 1) // b):
        ids_x = lab_ids[i * b:(i + 1) * b]
        w_x = lab_w[i * b:(i + 1) * b]
        x_lab = inputs[ids_x]
        refined = refine_label(targets_onehot[ids_x], w_x, self_predict(theta, ids_x), params.t_sharp)
        if n_unl:
            ids_u = unl_ids[np.arange(i * b, i * b + ids_x.shape[0]) % n_unl]
            x_unl = inputs[ids_u]
            guessed = guess_label(
                self_predict(theta, ids_u), peer_predict(ids_u), params.t_sharp
            )
            pool_x = np.concatenate([x_lab, x_unl])
            pool_y = np.concatenate([refined, guessed])
        else:
            pool_x, pool_y = x_lab, refined
        perm = rng.permutation(pool_x.shape[0])
        mixed_x, mixed_y, _ = mixup(
            pool_x, pool_y, pool_x[perm], pool_y[perm], params.mixup_alpha, rng
        )
        _, grad = net.semi_value_grad(
            arch, theta, mixed_x, mixed_y, ids_x.shape[0], params.lambda_u, params.reg_coef
        )
        theta, opt = net.sgd_step(theta, grad, opt, epoch, frozen_prefix)
    return theta, opt


def coteach_epoch(inputs_scratch, inputs_embed, observed, pool_ids, loss_scratch, loss_embed,
                  arch_scratch, theta_scratch, opt_scratch,
                  arch_embed, theta_embed, opt_embed, epoch,
                  params: CoteachParams, rng) -> CoteachResult:
    """One epoch of cross-network training on the current pool.

    loss_scratch and loss_embed are each network's per-sample cross-entropy
    of the observed labels of pool_ids under the parameters passed in; the
    GMM co-divide runs on them.
    """
    pool_ids = np.asarray(pool_ids, dtype=np.int64)
    if pool_ids.shape[0] == 0:
        raise InputError("training pool is empty")
    if not (np.shape(loss_scratch) == np.shape(loss_embed) == pool_ids.shape):
        raise InputError("both pool-loss arrays must align with the pool ids")
    w_scratch = fit_gmm_1d(loss_scratch).clean_posterior
    w_embed = fit_gmm_1d(loss_embed).clean_posterior
    div = co_divide(pool_ids, w_scratch, w_embed, params.tau_w)

    onehot = np.eye(arch_scratch.n_classes)[observed]

    def predict_scratch(theta, ids):
        return net.predict_proba(arch_scratch, theta, inputs_scratch[ids])

    def predict_embed(theta, ids):
        return net.predict_proba(arch_embed, theta, inputs_embed[ids])

    theta_embed_pre = theta_embed
    skipped_scratch = div.scratch_labeled_ids.shape[0] == 0
    if skipped_scratch:
        logger.warning("epoch %d: no labeled samples for scratch net, skipping its update", epoch)
    else:
        theta_scratch, opt_scratch = _train_one_net(
            arch_scratch, theta_scratch, opt_scratch, inputs_scratch, onehot,
            div.scratch_labeled_ids, div.scratch_labeled_w, div.scratch_unlabeled_ids,
            predict_scratch, lambda ids: predict_embed(theta_embed_pre, ids),
            params, epoch, rng, frozen_prefix=0,
        )

    frozen = arch_embed.first_layer_params() if epoch < params.encoder_unfreeze_epoch else 0
    skipped_embed = div.embed_labeled_ids.shape[0] == 0
    if skipped_embed:
        logger.warning("epoch %d: no labeled samples for embedding net, skipping its update", epoch)
    else:
        if params.asymmetric:
            embed_unlabeled = np.empty(0, dtype=np.int64)
        else:
            embed_unlabeled = pool_ids[w_scratch < params.tau_w]
        theta_scratch_now = theta_scratch
        theta_embed, opt_embed = _train_one_net(
            arch_embed, theta_embed, opt_embed, inputs_embed, onehot,
            div.embed_labeled_ids, div.embed_labeled_w, embed_unlabeled,
            predict_embed, lambda ids: predict_scratch(theta_scratch_now, ids),
            params, epoch, rng, frozen_prefix=frozen,
        )

    return CoteachResult(
        theta_scratch=theta_scratch, opt_scratch=opt_scratch,
        theta_embed=theta_embed, opt_embed=opt_embed,
        w_scratch=w_scratch, w_embed=w_embed,
        labeled_for_scratch=w_embed >= params.tau_w,
        labeled_for_embed=w_scratch >= params.tau_w,
        skipped_scratch=skipped_scratch, skipped_embed=skipped_embed,
    )
