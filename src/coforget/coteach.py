"""Asymmetric co-teaching: per-network clean probabilities from a 1-D GMM,
cross-network co-divide, pseudo-labeling with sharpening, Mixup, and the
per-epoch training of both networks.

The co-divide is two boolean masks over the pool ids, one labeled set per
network gated by its peer's clean probabilities; each network trains on
what they select, and the epoch's result carries the same masks.

Each network of the pair is one ``Learner``, which keeps its last pool
losses until its parameters or the pool change. The scratch network trains
semi-supervised on labeled plus unlabeled samples; the embedding-backed
network trains on labeled samples only (its adapter frozen until
``schedule.encoder_unfreeze``). Setting ``method.asymmetric`` to false gives
both networks the semi-supervised treatment, which is the symmetric ablation
arm.

An epoch splits into one half per network, each served as items by the
process that owns that network's learner (driver._NetHalf), which runs its
own GMM fit before the epoch: the calling process co-divides the two fits,
sends each half its training item and reads the scratch net's reply first.
The scratch net draws first from the epoch's one generator: the calling
process gives it a copy, drains the scratch net's draws from the generator
itself and sends that on to the embed net.
"""

import copy
import logging
from dataclasses import dataclass, field

import numpy as np

from . import kernels, net
from .config import RunConfig
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


def fit_gmm_1d(losses) -> GmmFit:
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
            variances=np.full(2, GMM_VAR_FLOOR),
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
    var0 = np.full(2, max(float(norm.var()), GMM_VAR_FLOOR))
    pi0 = np.array([0.5, 0.5])
    pi, mu, var, resp0, iterates, n_iter = kernels.gmm_em_1d(
        norm, pi0, mu0, var0, GMM_MAX_ITER, GMM_TOL, GMM_VAR_FLOOR
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


def co_divide(pool_ids, w_scratch, w_embed, tau_w) -> tuple:
    """The masks (labeled_for_scratch, labeled_for_embed) over pool_ids:
    a sample is labeled for a network when its peer's w reaches tau_w."""
    w_scratch = np.asarray(w_scratch, dtype=np.float64)
    w_embed = np.asarray(w_embed, dtype=np.float64)
    if not (np.shape(pool_ids) == w_scratch.shape == w_embed.shape):
        raise InputError("pool ids and both probability arrays must align")
    return w_embed >= tau_w, w_scratch >= tau_w


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
    return _mix(x_i, y_i, x_j, y_j, _mixup_lambda(alpha, np.random.default_rng(rng)))


def _mixup_lambda(alpha, rng) -> float:
    """Mixup's lambda: one Beta(alpha, alpha) draw from rng, folded to [0.5, 1]."""
    lam = float(rng.beta(alpha, alpha))
    return max(lam, 1.0 - lam)


def _mix(x_i, y_i, x_j, y_j, lam):
    x_hat = lam * np.asarray(x_i, dtype=np.float64) + (1.0 - lam) * np.asarray(x_j, dtype=np.float64)
    y_hat = lam * np.asarray(y_i, dtype=np.float64) + (1.0 - lam) * np.asarray(y_j, dtype=np.float64)
    return x_hat, y_hat, lam


# ---------------------------------------------------------------------------
# one co-teaching epoch
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Learner:
    """One network of the pair: its architecture, the matrix of its inputs
    (row i is sample id i), and its current parameters and optimizer state.
    Steps rebind theta and opt and never write into those arrays, so a theta
    object stands for one set of parameters, and ``losses`` relies on that."""

    arch: net.Architecture
    inputs: np.ndarray
    theta: np.ndarray
    opt: net.OptimizerState
    _memo: tuple = field(default=(None, None, None, None), init=False, repr=False)

    def predict(self, ids) -> np.ndarray:
        return net.predict_proba(self.arch, self.theta, self.inputs[ids])

    def losses(self, ids, labels) -> np.ndarray:
        """Per-sample cross-entropy of labels[ids] on the samples ids, read-only.
        The last result comes back while theta and labels are the objects it
        was computed from and ids holds the same ids."""
        theta, last_ids, last_labels, last = self._memo
        if theta is self.theta and last_labels is labels and np.array_equal(last_ids, ids):
            return last
        last = net.per_sample_ce(self.arch, self.theta, self.inputs[ids], labels[ids])
        last.setflags(write=False)
        self._memo = (self.theta, ids, labels, last)
        return last

    def step(self, grad, epoch, frozen_prefix=0) -> None:
        self.theta, self.opt = net.sgd_step(self.theta, grad, self.opt, epoch, frozen_prefix)


@dataclass
class CoteachResult:
    w_scratch: np.ndarray            # aligned to pool_ids
    w_embed: np.ndarray
    labeled_for_scratch: np.ndarray  # bool masks aligned to pool_ids
    labeled_for_embed: np.ndarray
    skipped_scratch: bool
    skipped_embed: bool
    advanced: tuple                  # each half's pending reply to ("advance", epoch)


def _batches(rng, n_labeled, n_unlabeled, batch_size, alpha):
    """One net's training pass, batch by batch, with every random draw it
    makes, in the order it makes them: the order of its labeled samples,
    that of its unlabeled ones when it has any, then per batch of batch_size
    labeled samples the permutation that pairs the batch's rows (its labeled
    samples, then as many unlabeled ones when there are any) with their
    Mixup partners, and Mixup's lambda. Yields (labeled indices, unlabeled
    indices or None, that permutation, lambda) per batch, the indices into
    the pass's labeled and unlabeled ids. A net with no labeled sample skips
    its update and draws nothing. The pass draws nothing else, so its draws
    may all be made before it trains."""
    if not n_labeled:
        return
    order = rng.permutation(n_labeled)
    unl_order = rng.permutation(n_unlabeled) if n_unlabeled else None
    for start in range(0, n_labeled, batch_size):
        lab = order[start:start + batch_size]
        unl = (unl_order[np.arange(start, start + lab.shape[0]) % n_unlabeled]
               if n_unlabeled else None)
        rows = lab.shape[0] * (2 if n_unlabeled else 1)
        yield lab, unl, rng.permutation(rows), _mixup_lambda(alpha, rng)


def _train_batches(learner: Learner, peer: Learner, targets_onehot, labeled_ids, labeled_w,
                   unlabeled_ids, cfg: RunConfig, epoch, batches, frozen_prefix):
    """A net's mini-batch pass over batches, the _batches of its labeled and
    unlabeled ids; Mixup partners come from the combined pool, and the peer's
    predictions guess the unlabeled samples' labels. The first frozen_prefix
    parameters stay put."""
    method = cfg.method
    for lab, unl, perm, lam in batches:
        ids_x = labeled_ids[lab]
        refined = refine_label(targets_onehot[ids_x], labeled_w[lab], learner.predict(ids_x),
                               method.t_sharp)
        if unl is not None:
            ids_u = unlabeled_ids[unl]
            guessed = guess_label(learner.predict(ids_u), peer.predict(ids_u), method.t_sharp)
            pool_x = np.concatenate([learner.inputs[ids_x], learner.inputs[ids_u]])
            pool_y = np.concatenate([refined, guessed])
        else:
            pool_x, pool_y = learner.inputs[ids_x], refined
        mixed_x, mixed_y, _ = _mix(pool_x, pool_y, pool_x[perm], pool_y[perm], lam)
        _, grad = net.semi_value_grad(
            learner.arch, learner.theta, mixed_x, mixed_y, ids_x.shape[0],
            method.lambda_u, method.reg_coef,
        )
        learner.step(grad, epoch, frozen_prefix)


def coteach_epoch(halves, pool_ids, epoch, cfg: RunConfig, rng, fits) -> CoteachResult:
    """One epoch of cross-network training on the current pool, in two
    halves, scratch net first: one co_divide of the two nets' fits, then each
    net's training on the samples its peer's fit marks clean, the scratch
    net's always with its unlabeled samples too.

    halves[i](item) sends net i's half an item and returns a zero-argument
    callable for its reply, as util.forked_server does; fits[i] is net i's
    fit to its pool losses: its clean probabilities and the theta they come
    from. ("train", epoch, labeled, w_peer, rng, peer_theta) trains a net on
    co_divide's mask for it, drawing from rng, and replies with its theta;
    ("advance", epoch) goes right behind it, so a half goes on to its next
    stages while the other trains, and the result holds its pending reply.
    The scratch net's unlabeled guesses read the embed net at its fit's
    theta; in symmetric mode the embed net's read the trained scratch net,
    so it trains after it, and in asymmetric mode it has no unlabeled
    samples and gets no peer_theta.
    """
    method = cfg.method
    pool_ids = np.asarray(pool_ids, dtype=np.int64)
    (w_scratch, _), (w_embed, embed_theta) = fits
    masks = co_divide(pool_ids, w_scratch, w_embed, method.tau_w)
    for name, labeled in zip(("scratch net", "embedding net"), masks):
        if not labeled.any():
            logger.warning("epoch %d: no labeled samples for %s, skipping its update", epoch, name)
    # the scratch net's draws come first from the epoch's one generator: it
    # draws from a copy, and the embed net from rng drained of those draws
    scratch_rng = copy.deepcopy(rng)
    for _ in _batches(rng, np.count_nonzero(masks[0]), np.count_nonzero(~masks[0]),
                      cfg.optim.batch_size, method.mixup_alpha):
        pass

    def send(half, *train):  # a training item, then the half's advance right behind it
        return half(("train", epoch, *train)), half(("advance", epoch))

    scratch = send(halves[0], masks[0], w_embed, scratch_rng, embed_theta)
    train = masks[1], w_scratch, rng
    embed = send(halves[1], *train, None) if method.asymmetric else None
    scratch_theta = scratch[0]()
    if embed is None:
        embed = send(halves[1], *train, scratch_theta)
    embed[0]()
    return CoteachResult(
        w_scratch=w_scratch, w_embed=w_embed,
        labeled_for_scratch=masks[0], labeled_for_embed=masks[1],
        skipped_scratch=not masks[0].any(), skipped_embed=not masks[1].any(),
        advanced=(scratch[1], embed[1]),
    )
