"""Minimal MLP core: forward pass, training objectives, SGD, checkpoints.

Parameters live in a single flat float64 vector (layout documented in
``kernels``). The pipeline trains with three objectives, each a batch
value-and-gradient: ``ce_value_grad`` (warmup, the naive arm),
``semi_value_grad`` (co-teaching: CE on labeled rows, weighted squared
distance on unlabeled rows, a uniform-prior penalty) and
``unlearn_value_grad`` (forgetting: negative temperature-scaled KL from a
frozen reference). Each pushes its d(loss)/d(probabilities) through the
softmax Jacobian into one shared backward pass. Probabilities are clamped to
``EPS`` before any log, and the gradients match that clamped loss exactly so
finite differences agree.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import ConfigurationError, IngestionError, InputError
from .util import replacing

EPS = 1e-7

ACTIVATIONS = {"relu": kernels.ACT_RELU, "tanh": kernels.ACT_TANH}


@dataclass(frozen=True)
class Architecture:
    """Layer widths (input, hidden..., classes) plus hidden activation."""

    widths: tuple
    activation: str = "relu"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ConfigurationError("architecture needs at least input and output widths")
        if any(int(w) < 1 for w in self.widths):
            raise ConfigurationError(f"layer widths must be >= 1, got {self.widths}")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def n_params(self) -> int:
        return sum(fi * fo + fo for fi, fo in zip(self.widths[:-1], self.widths[1:]))

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    @property
    def in_width(self) -> int:
        return self.widths[0]

    @property
    def act_id(self) -> int:
        return ACTIVATIONS[self.activation]

    def widths_array(self) -> np.ndarray:
        return np.asarray(self.widths, dtype=np.int64)

    def first_layer_params(self) -> int:
        """Parameter count of layer 0 (the freezable adapter prefix)."""
        return self.widths[0] * self.widths[1] + self.widths[1]


def init_params(arch: Architecture, seed: int) -> np.ndarray:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, seeded."""
    rng = np.random.default_rng(seed)
    parts = []
    for fi, fo in zip(arch.widths[:-1], arch.widths[1:]):
        lim = np.sqrt(6.0 / (fi + fo))
        parts.append(rng.uniform(-lim, lim, size=fi * fo))
        parts.append(np.zeros(fo))
    return np.concatenate(parts)


def _as_batch(arch: Architecture, x) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.shape[1] != arch.in_width:
        raise ConfigurationError(
            f"batch width {x.shape[1]} does not match network input width {arch.in_width}"
        )
    return x


def forward(arch: Architecture, theta: np.ndarray, x) -> np.ndarray:
    x = _as_batch(arch, x)
    if theta.shape[0] != arch.n_params:
        raise ConfigurationError(
            f"parameter vector has {theta.shape[0]} entries, architecture needs {arch.n_params}"
        )
    return kernels.mlp_forward(theta, arch.widths_array(), arch.act_id, x)


def softmax(logits) -> np.ndarray:
    """Row-wise stabilized softmax; accepts a single vector or a batch."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict_proba(arch: Architecture, theta: np.ndarray, x) -> np.ndarray:
    return softmax(forward(arch, theta, x))


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL(p_i || q_i) for aligned batches of probability vectors."""
    if p.shape != q.shape:
        raise InputError(f"batch shapes differ: {p.shape} vs {q.shape}")
    return np.sum(p * np.log(np.maximum(p, EPS) / np.maximum(q, EPS)), axis=1)


def per_sample_ce(arch: Architecture, theta: np.ndarray, x, labels) -> np.ndarray:
    """Evaluation-mode cross-entropy loss of each sample's observed label."""
    probs = predict_proba(arch, theta, x)
    labels = np.asarray(labels, dtype=np.int64)
    picked = probs[np.arange(probs.shape[0]), labels]
    return -np.log(np.maximum(picked, EPS))


# ---------------------------------------------------------------------------
# objective values and gradients
# ---------------------------------------------------------------------------


def _forward_probs(arch, theta, x):
    x = _as_batch(arch, x)
    logits, acts = kernels.mlp_forward_acts(theta, arch.widths_array(), arch.act_id, x)
    return softmax(logits), acts


def _backward(arch, theta, acts, p, dp):
    """Gradient w.r.t. theta of a loss with d(loss)/d(probs) = dp: the
    row-wise softmax Jacobian, then the shared MLP backward pass."""
    dz = p * (dp - np.sum(dp * p, axis=1, keepdims=True))
    return kernels.mlp_backward(theta, arch.widths_array(), arch.act_id, acts, dz)


def _ce_terms(p, targets, n_ref):
    """Clamped soft-target CE over the given rows plus its d/d(probs)."""
    clamped = np.maximum(p, EPS)
    loss = float(-np.sum(targets * np.log(clamped)) / n_ref)
    dp = np.where(p > EPS, -targets / np.maximum(p, EPS), 0.0) / n_ref
    return loss, dp


def ce_value_grad(arch, theta, x, targets):
    """Batch-mean soft-target cross-entropy. targets: (n, C) rows sum to 1."""
    targets = np.asarray(targets, dtype=np.float64)
    p, acts = _forward_probs(arch, theta, x)
    loss, dp = _ce_terms(p, targets, p.shape[0])
    return loss, _backward(arch, theta, acts, p, dp)


def _reg_terms(p, coef):
    """Uniform-prior penalty on the batch-mean prediction and its d/d(probs)."""
    n, c = p.shape
    prior = 1.0 / c
    p_mean = p.mean(axis=0)
    clamped = np.maximum(p_mean, EPS)
    loss = coef * float(np.sum(prior * np.log(prior / clamped)))
    d_mean = np.where(p_mean > EPS, -coef * prior / np.maximum(p_mean, EPS), 0.0)
    dp = np.broadcast_to(d_mean / n, p.shape)
    return loss, dp


def semi_value_grad(arch, theta, x, targets, n_labeled, lambda_u, reg_coef=1.0):
    """Combined objective on a mixed batch: CE on the first n_labeled rows,
    weighted consistency (squared distance) on the rest, uniform-prior
    penalty over the whole batch. Each piece is mean-reduced over its rows.
    """
    targets = np.asarray(targets, dtype=np.float64)
    p, acts = _forward_probs(arch, theta, x)
    n = p.shape[0]
    if not (0 <= n_labeled <= n):
        raise InputError(f"n_labeled {n_labeled} out of range for batch of {n}")
    dp = np.zeros_like(p)
    loss_x = 0.0
    if n_labeled > 0:
        loss_x, dp_x = _ce_terms(p[:n_labeled], targets[:n_labeled], n_labeled)
        dp[:n_labeled] += dp_x
    loss_u = 0.0
    n_unl = n - n_labeled
    if n_unl > 0:
        pu = p[n_labeled:]
        tu = targets[n_labeled:]
        loss_u = float(np.sum((tu - pu) ** 2) / n_unl)
        dp[n_labeled:] += lambda_u * 2.0 * (pu - tu) / n_unl
    loss_r, dp_r = _reg_terms(p, reg_coef)
    dp += dp_r
    return loss_x + lambda_u * loss_u + loss_r, _backward(arch, theta, acts, p, dp)


def unlearn_value_grad(arch, theta, x, p_ref, t_unl):
    """Negative scaled KL from the frozen reference distribution, summed over
    the batch; gradient flows only through the current network.
    """
    p_ref = np.asarray(p_ref, dtype=np.float64)
    p, acts = _forward_probs(arch, theta, x)
    if p_ref.shape != p.shape:
        raise InputError(f"reference batch shape {p_ref.shape} != current {p.shape}")
    t2 = float(t_unl) ** 2
    loss = -t2 * float(np.sum(kl_rows(p_ref, p)))
    dp = np.where(p > EPS, t2 * p_ref / np.maximum(p, EPS), 0.0)
    return loss, _backward(arch, theta, acts, p, dp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerState:
    lr: float
    momentum: float
    weight_decay: float
    decay_epoch: int
    velocity: np.ndarray
    decay_factor: float = 0.1

    def learning_rate(self, epoch: int) -> float:
        return self.lr * (self.decay_factor if epoch >= self.decay_epoch else 1.0)


def make_optimizer(arch, lr, momentum, weight_decay, decay_epoch, decay_factor=0.1):
    if not (0.0 <= momentum < 1.0):
        raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
    if lr <= 0 or weight_decay < 0:
        raise ConfigurationError("learning rate must be > 0 and weight decay >= 0")
    return OptimizerState(
        lr=float(lr),
        momentum=float(momentum),
        weight_decay=float(weight_decay),
        decay_epoch=int(decay_epoch),
        velocity=np.zeros(arch.n_params),
        decay_factor=float(decay_factor),
    )


def sgd_step(theta, grad, opt: OptimizerState, epoch: int, frozen_prefix: int = 0):
    """One momentum-SGD update; the first frozen_prefix parameters stay put.

    v <- momentum*v + grad + weight_decay*theta; theta <- theta - lr(epoch)*v.
    """
    if grad.shape != theta.shape or opt.velocity.shape != theta.shape:
        raise InputError("parameter, gradient and velocity shapes must match")
    v = opt.momentum * opt.velocity + grad + opt.weight_decay * theta
    new_theta = theta - opt.learning_rate(epoch) * v
    if frozen_prefix > 0:
        v = v.copy()
        v[:frozen_prefix] = opt.velocity[:frozen_prefix]
        new_theta[:frozen_prefix] = theta[:frozen_prefix]
    return new_theta, replace(opt, velocity=v)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"COFORGET-CKPT v1"


def save_checkpoint(path, arch: Architecture, theta: np.ndarray) -> None:
    header = json.dumps({"widths": list(arch.widths), "activation": arch.activation})
    with replacing(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + b"\n")
        fh.write(header.encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(theta, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint. A bad magic line or
    header, a cut or padded payload, or a non-finite parameter raises
    IngestionError naming the file."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != _CKPT_MAGIC:
            raise IngestionError(f"{path}: not a parameter checkpoint (bad magic {magic!r})")
        header = fh.readline()
        payload = fh.read()
    try:
        meta = json.loads(header.decode("ascii"))
        widths = meta["widths"]
        if not isinstance(widths, list) or any(type(w) is not int for w in widths):
            raise TypeError(f"widths must be a list of integers, got {widths!r}")
        arch = Architecture(tuple(widths), meta["activation"])
    except (ValueError, KeyError, TypeError) as exc:
        raise IngestionError(f"{path}: bad checkpoint header ({type(exc).__name__}: {exc})") from None
    if len(payload) != 8 * arch.n_params:
        raise IngestionError(f"{path}: payload holds {len(payload)} bytes, header implies "
                             f"{arch.n_params} float64 parameters")
    theta = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(theta)):
        bad = int(np.flatnonzero(~np.isfinite(theta))[0])
        raise IngestionError(f"{path}: parameter {bad} is {theta[bad]}, not finite")
    return arch, theta
