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

import math
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
        # bias and tanh in place, so fewer (n, fo) temporaries are alive at
        # once; relu allocates, because numpy 2.4 deprecates np.maximum's
        # positional out and numba takes no out= keyword
        z = np.dot(np.ascontiguousarray(h), w)
        z += b
        if l < n_layers - 1:
            if act_id == ACT_RELU:
                h = np.maximum(z, 0.0)
            else:
                h = np.tanh(z, z)
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
def _log_density(out, sq, pi, var, log2pi):
    """out = log(pi) - (log(2 pi) + log(var)) / 2 - sq / (2 var), where sq
    holds the squared deviations from the component mean."""
    np.divide(sq, 2.0 * var, out)
    np.subtract(np.log(pi) - 0.5 * (log2pi + np.log(var)), out, out)


@njit(cache=True)
def _posterior0(out, lp0, lp1, tmp):
    """out = 1 / (1 + exp(min(lp1 - lp0, 700))): component 0's posterior
    from the log-odds, finite for points far from both components."""
    np.subtract(lp1, lp0, tmp)
    np.exp(np.minimum(tmp, 700.0), tmp)
    np.add(tmp, 1.0, tmp)
    np.divide(1.0, tmp, out)


@njit(cache=True)
def _squared_deviation(out, values, mu):
    np.subtract(values, mu, out)
    np.multiply(out, out, out)


@njit(cache=True)
def gmm_em_1d(values, pi0, mu0, var0, max_iter, tol, var_floor):
    """EM for a two-component 1-D Gaussian mixture.

    Responsibilities are computed in log space so points far from both
    components stay well defined. Returns (pi, mu, var, resp0, iterates,
    n_iter): resp0 is the posterior of component 0 per sample under the
    returned parameters, and row i of the (n_iter, 6) array iterates holds
    (pi0, pi1, mu0, mu1, var0, var1) after the M-step of iteration i.

    The loop computes no log-likelihood, which nothing in the pipeline
    reads; ``coteach.gmm_log_likelihoods`` recomputes it from iterates with
    the same expression on the same floats. The two-component state is kept
    in Python floats and the per-sample arrays in buffers allocated once per
    fit. The log-densities computed after each M-step are the next E-step's
    inputs and, after the last iteration, those of the returned
    responsibilities.
    """
    n = values.shape[0]
    p0, p1 = float(pi0[0]), float(pi0[1])
    m0, m1 = float(mu0[0]), float(mu0[1])
    v0, v1 = float(var0[0]), float(var0[1])
    iterates = np.empty((max_iter, 6))
    n_iter = 0
    log2pi = np.log(2.0 * np.pi)
    sq0, sq1 = np.empty(n), np.empty(n)
    lp0, lp1 = np.empty(n), np.empty(n)
    resp0, resp1, tmp = np.empty(n), np.empty(n), np.empty(n)
    _squared_deviation(sq0, values, m0)
    _squared_deviation(sq1, values, m1)
    _log_density(lp0, sq0, p0, v0, log2pi)
    _log_density(lp1, sq1, p1, v1, log2pi)
    for it in range(max_iter):
        prev_p0, prev_p1 = p0, p1
        prev_m0, prev_m1 = m0, m1
        prev_sd0, prev_sd1 = math.sqrt(v0), math.sqrt(v1)
        # E-step
        _posterior0(resp0, lp0, lp1, tmp)
        np.subtract(1.0, resp0, resp1)
        # M-step
        n0 = float(resp0.sum())
        n1 = float(resp1.sum())
        if n0 <= 0.0 or n1 <= 0.0:
            n_iter = it
            break
        p0 = n0 / n
        p1 = n1 / n
        np.multiply(resp0, values, tmp)
        m0 = float(tmp.sum()) / n0
        np.multiply(resp1, values, tmp)
        m1 = float(tmp.sum()) / n1
        _squared_deviation(sq0, values, m0)
        _squared_deviation(sq1, values, m1)
        np.multiply(resp0, sq0, tmp)
        v0 = max(float(tmp.sum()) / n0, var_floor)
        np.multiply(resp1, sq1, tmp)
        v1 = max(float(tmp.sum()) / n1, var_floor)
        iterates[it, 0] = p0
        iterates[it, 1] = p1
        iterates[it, 2] = m0
        iterates[it, 3] = m1
        iterates[it, 4] = v0
        iterates[it, 5] = v1
        # log-densities under the updated parameters, for the next E-step
        _log_density(lp0, sq0, p0, v0, log2pi)
        _log_density(lp1, sq1, p1, v1, log2pi)
        n_iter = it + 1
        dp = math.sqrt(
            (p0 - prev_p0) ** 2
            + (p1 - prev_p1) ** 2
            + (m0 - prev_m0) ** 2
            + (m1 - prev_m1) ** 2
            + (math.sqrt(v0) - prev_sd0) ** 2
            + (math.sqrt(v1) - prev_sd1) ** 2
        )
        if dp < tol:
            break
    # final responsibilities under the returned parameters
    _posterior0(resp0, lp0, lp1, tmp)
    return (np.array([p0, p1]), np.array([m0, m1]), np.array([v0, v1]), resp0,
            iterates[:n_iter], n_iter)
