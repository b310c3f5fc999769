"""Hot numeric kernels: MLP forward/backward and 1-D two-component EM.

Each kernel is written once in the numba-compatible numpy subset. When numba
is importable (and not disabled via ``COFORGET_DISABLE_NUMBA=1``) the kernels
are JIT-compiled, which removes per-call dispatch overhead on the small
batches this package trains on; otherwise the identical source runs as plain
vectorized numpy. ``BACKEND`` records which path is active, and every
compiled kernel keeps its original Python function on ``.py_func`` so the
benchmark can time both paths in one process.

Parameter/activation layout for the MLP kernels:
  theta  : flat float64 vector, per layer [W_l.ravel(), b_l] in order
  widths : int64 vector [d_in, hidden..., n_classes]
  acts   : flat float64 stack of post-activations H_0..H_{L-1} (H_0 = input);
           relu/tanh derivatives are recoverable from post-activations alone,
           which is why pre-activations are never stored.
"""

import os

import numpy as np


def _plain_jit(*args, **kwargs):
    def wrap(fn):
        fn.py_func = fn
        return fn

    if args and callable(args[0]):
        return wrap(args[0])
    return wrap


if os.environ.get("COFORGET_DISABLE_NUMBA", "").strip().lower() in ("1", "true", "yes"):
    BACKEND = "numpy"
    njit = _plain_jit
else:
    try:
        from numba import njit  # type: ignore

        BACKEND = "numba"
    except ImportError:
        BACKEND = "numpy"
        njit = _plain_jit

ACT_RELU = 0
ACT_TANH = 1


@njit(cache=True)
def mlp_forward(theta, widths, act_id, x):
    """Logits for a batch; x is (n, widths[0]) C-contiguous float64."""
    n_layers = widths.shape[0] - 1
    h = x
    off = 0
    for l in range(n_layers):
        fi = widths[l]
        fo = widths[l + 1]
        w = np.ascontiguousarray(theta[off:off + fi * fo]).reshape(fi, fo)
        off += fi * fo
        b = theta[off:off + fo]
        off += fo
        z = np.dot(np.ascontiguousarray(h), w) + b
        if l < n_layers - 1:
            if act_id == ACT_RELU:
                h = np.maximum(z, 0.0)
            else:
                h = np.tanh(z)
        else:
            h = z
    return h


@njit(cache=True)
def mlp_forward_acts(theta, widths, act_id, x):
    """Forward pass that also returns the flat post-activation stack."""
    n = x.shape[0]
    n_layers = widths.shape[0] - 1
    total = 0
    for l in range(n_layers):
        total += n * widths[l]
    acts = np.empty(total)
    h = np.ascontiguousarray(x)
    off_p = 0
    off_a = 0
    for l in range(n_layers):
        fi = widths[l]
        fo = widths[l + 1]
        acts[off_a:off_a + n * fi] = h.ravel()
        off_a += n * fi
        w = np.ascontiguousarray(theta[off_p:off_p + fi * fo]).reshape(fi, fo)
        off_p += fi * fo
        b = theta[off_p:off_p + fo]
        off_p += fo
        z = np.dot(h, w) + b
        if l < n_layers - 1:
            if act_id == ACT_RELU:
                h = np.maximum(z, 0.0)
            else:
                h = np.tanh(z)
        else:
            h = z
    return h, acts


@njit(cache=True)
def mlp_backward(theta, widths, act_id, acts, dlogits):
    """Gradient of a scalar loss w.r.t. theta given d(loss)/d(logits).

    acts must come from mlp_forward_acts on the same (theta, x).
    """
    n = dlogits.shape[0]
    n_layers = widths.shape[0] - 1
    grad = np.zeros_like(theta)
    off_p = theta.shape[0]
    off_a = acts.shape[0]
    delta = np.ascontiguousarray(dlogits)
    for l in range(n_layers - 1, -1, -1):
        fi = widths[l]
        fo = widths[l + 1]
        off_a -= n * fi
        h_l = np.ascontiguousarray(acts[off_a:off_a + n * fi]).reshape(n, fi)
        off_p -= fo
        grad[off_p:off_p + fo] = delta.sum(axis=0)
        off_p -= fi * fo
        gw = np.dot(h_l.T, delta)
        grad[off_p:off_p + fi * fo] = gw.ravel()
        if l > 0:
            w = np.ascontiguousarray(theta[off_p:off_p + fi * fo]).reshape(fi, fo)
            back = np.dot(delta, w.T)
            if act_id == ACT_RELU:
                delta = back * (h_l > 0.0)
            else:
                delta = back * (1.0 - h_l * h_l)
    return grad


@njit(cache=True)
def gmm_em_1d(values, pi0, mu0, var0, max_iter, tol, var_floor):
    """EM for a two-component 1-D Gaussian mixture.

    Responsibilities are computed in log space so points far from both
    components stay well defined. Returns (pi, mu, var, resp0, ll, n_iter)
    where resp0 is the posterior of component 0 per sample and ll holds the
    post-update log-likelihood of each completed iteration.

    The per-component log-densities computed after each M-step for the
    log-likelihood are, by the same expression on the same parameters, the
    next iteration's E-step inputs and, after the last iteration, the inputs
    of the returned responsibilities; they are computed once and reused.
    """
    n = values.shape[0]
    pi = pi0.copy()
    mu = mu0.copy()
    var = var0.copy()
    lls = np.empty(max_iter)
    n_iter = 0
    log2pi = np.log(2.0 * np.pi)
    lp0 = np.log(pi[0]) - 0.5 * (log2pi + np.log(var[0])) - (values - mu[0]) ** 2 / (2.0 * var[0])
    lp1 = np.log(pi[1]) - 0.5 * (log2pi + np.log(var[1])) - (values - mu[1]) ** 2 / (2.0 * var[1])
    for it in range(max_iter):
        prev_pi0, prev_pi1 = pi[0], pi[1]
        prev_mu0, prev_mu1 = mu[0], mu[1]
        prev_sd0, prev_sd1 = np.sqrt(var[0]), np.sqrt(var[1])
        # E-step via log-odds
        resp0 = 1.0 / (1.0 + np.exp(np.minimum(lp1 - lp0, 700.0)))
        resp1 = 1.0 - resp0
        # M-step
        n0 = resp0.sum()
        n1 = resp1.sum()
        if n0 <= 0.0 or n1 <= 0.0:
            n_iter = it
            break
        pi[0] = n0 / n
        pi[1] = n1 / n
        mu[0] = (resp0 * values).sum() / n0
        mu[1] = (resp1 * values).sum() / n1
        sq0 = (values - mu[0]) ** 2
        sq1 = (values - mu[1]) ** 2
        var[0] = max((resp0 * sq0).sum() / n0, var_floor)
        var[1] = max((resp1 * sq1).sum() / n1, var_floor)
        # log-densities under the updated parameters: this iteration's
        # log-likelihood and the next E-step
        lp0 = np.log(pi[0]) - 0.5 * (log2pi + np.log(var[0])) - sq0 / (2.0 * var[0])
        lp1 = np.log(pi[1]) - 0.5 * (log2pi + np.log(var[1])) - sq1 / (2.0 * var[1])
        hi = np.maximum(lp0, lp1)
        lls[it] = (hi + np.log(np.exp(lp0 - hi) + np.exp(lp1 - hi))).sum()
        n_iter = it + 1
        dp = np.sqrt(
            (pi[0] - prev_pi0) ** 2
            + (pi[1] - prev_pi1) ** 2
            + (mu[0] - prev_mu0) ** 2
            + (mu[1] - prev_mu1) ** 2
            + (np.sqrt(var[0]) - prev_sd0) ** 2
            + (np.sqrt(var[1]) - prev_sd1) ** 2
        )
        if dp < tol:
            break
    # final responsibilities under the returned parameters
    resp0 = 1.0 / (1.0 + np.exp(np.minimum(lp1 - lp0, 700.0)))
    return pi, mu, var, resp0, lls[:n_iter], n_iter
