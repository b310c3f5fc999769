"""Backend parity and layout checks for the hot kernels."""

import numpy as np
import pytest

from coforget import coteach, kernels
from coforget.net import Architecture, init_params


def _random_case(seed, widths=(5, 7, 3), n=6):
    rng = np.random.default_rng(seed)
    arch = Architecture(widths)
    theta = init_params(arch, seed)
    x = rng.normal(size=(n, widths[0]))
    dlogits = rng.normal(size=(n, widths[-1]))
    return arch, theta, x, dlogits


def test_backend_reports_a_known_value():
    assert kernels.BACKEND in ("numba", "numpy")


@pytest.mark.parametrize("act_id", [kernels.ACT_RELU, kernels.ACT_TANH])
def test_forward_matches_pyfunc(act_id):
    arch, theta, x, _ = _random_case(0)
    w = arch.widths_array()
    jit_out = kernels.mlp_forward(theta, w, act_id, x)
    py_out = kernels.mlp_forward.py_func(theta, w, act_id, x)
    np.testing.assert_allclose(jit_out, py_out, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("act_id", [kernels.ACT_RELU, kernels.ACT_TANH])
def test_forward_acts_and_backward_match_pyfunc(act_id):
    arch, theta, x, dlogits = _random_case(1)
    w = arch.widths_array()
    logits, acts = kernels.mlp_forward_acts(theta, w, act_id, x)
    logits_py, acts_py = kernels.mlp_forward_acts.py_func(theta, w, act_id, x)
    np.testing.assert_allclose(logits, logits_py, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(acts, acts_py, rtol=1e-12, atol=1e-12)
    grad = kernels.mlp_backward(theta, w, act_id, acts, dlogits)
    grad_py = kernels.mlp_backward.py_func(theta, w, act_id, acts_py, dlogits)
    np.testing.assert_allclose(grad, grad_py, rtol=1e-12, atol=1e-12)


def test_forward_acts_agrees_with_plain_forward():
    arch, theta, x, _ = _random_case(2)
    w = arch.widths_array()
    logits, acts = kernels.mlp_forward_acts(theta, w, kernels.ACT_RELU, x)
    np.testing.assert_allclose(logits, kernels.mlp_forward(theta, w, kernels.ACT_RELU, x))
    # activation stack starts with the input batch itself
    n = x.shape[0]
    np.testing.assert_allclose(acts[: n * arch.widths[0]].reshape(n, -1), x)


def _mlp_forward_reference(theta, widths, act_id, x):
    """mlp_forward as first written: bias added and activation applied out
    of place."""
    h, off = x, 0
    for l in range(widths.shape[0] - 1):
        fi, fo = widths[l], widths[l + 1]
        w = theta[off:off + fi * fo].reshape(fi, fo)
        b = theta[off + fi * fo:off + fi * fo + fo]
        off += fi * fo + fo
        z = np.dot(h, w) + b
        if l < widths.shape[0] - 2:
            z = np.maximum(z, 0.0) if act_id == kernels.ACT_RELU else np.tanh(z)
        h = z
    return h


@pytest.mark.parametrize("act_id", [kernels.ACT_RELU, kernels.ACT_TANH])
def test_forward_bit_identical_to_reference(act_id):
    arch, theta, x, _ = _random_case(5, widths=(8, 32, 32, 3), n=900)
    w = arch.widths_array()
    out = kernels.mlp_forward.py_func(theta, w, act_id, x)
    assert np.array_equal(out, _mlp_forward_reference(theta, w, act_id, x))


def test_gmm_kernel_matches_pyfunc():
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.normal(0.1, 0.02, 80), rng.normal(0.8, 0.05, 40)])
    args = (
        values,
        np.array([0.5, 0.5]),
        np.array([0.1, 0.9]),
        np.array([0.05, 0.05]),
        100,
        1e-6,
        1e-4,
    )
    jit_out = kernels.gmm_em_1d(*args)
    py_out = kernels.gmm_em_1d.py_func(*args)
    assert jit_out[5] == py_out[5]  # same iteration count
    for a, b in zip(jit_out[:5], py_out[:5]):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


def test_gmm_kernel_swapped_init_swaps_components():
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.normal(0.1, 0.02, 60), rng.normal(0.9, 0.04, 60)])
    base = (np.array([0.5, 0.5]), np.array([0.1, 0.9]), np.array([0.02, 0.02]))
    swapped = (np.array([0.5, 0.5]), np.array([0.9, 0.1]), np.array([0.02, 0.02]))
    pi1, mu1, var1, r1, _, _ = kernels.gmm_em_1d(values, *base, 100, 1e-6, 1e-4)
    pi2, mu2, var2, r2, _, _ = kernels.gmm_em_1d(values, *swapped, 100, 1e-6, 1e-4)
    np.testing.assert_allclose(mu1, mu2[::-1], atol=1e-8)
    np.testing.assert_allclose(r1, 1.0 - r2, atol=1e-8)


def _gmm_em_1d_reference(values, pi0, mu0, var0, max_iter, tol, var_floor):
    """The EM loop as first written: log-densities recomputed for every
    E-step, every log-likelihood and the final responsibilities."""
    n = values.shape[0]
    pi = pi0.copy()
    mu = mu0.copy()
    var = var0.copy()
    lls = np.empty(max_iter)
    resp0 = np.full(n, 0.5)
    n_iter = 0
    log2pi = np.log(2.0 * np.pi)
    for it in range(max_iter):
        prev_pi0, prev_pi1 = pi[0], pi[1]
        prev_mu0, prev_mu1 = mu[0], mu[1]
        prev_sd0, prev_sd1 = np.sqrt(var[0]), np.sqrt(var[1])
        lp0 = np.log(pi[0]) - 0.5 * (log2pi + np.log(var[0])) - (values - mu[0]) ** 2 / (2.0 * var[0])
        lp1 = np.log(pi[1]) - 0.5 * (log2pi + np.log(var[1])) - (values - mu[1]) ** 2 / (2.0 * var[1])
        resp0 = 1.0 / (1.0 + np.exp(np.minimum(lp1 - lp0, 700.0)))
        resp1 = 1.0 - resp0
        n0 = resp0.sum()
        n1 = resp1.sum()
        if n0 <= 0.0 or n1 <= 0.0:
            n_iter = it
            break
        pi[0] = n0 / n
        pi[1] = n1 / n
        mu[0] = (resp0 * values).sum() / n0
        mu[1] = (resp1 * values).sum() / n1
        var[0] = max((resp0 * (values - mu[0]) ** 2).sum() / n0, var_floor)
        var[1] = max((resp1 * (values - mu[1]) ** 2).sum() / n1, var_floor)
        lq0 = np.log(pi[0]) - 0.5 * (log2pi + np.log(var[0])) - (values - mu[0]) ** 2 / (2.0 * var[0])
        lq1 = np.log(pi[1]) - 0.5 * (log2pi + np.log(var[1])) - (values - mu[1]) ** 2 / (2.0 * var[1])
        hi = np.maximum(lq0, lq1)
        lls[it] = (hi + np.log(np.exp(lq0 - hi) + np.exp(lq1 - hi))).sum()
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
    lp0 = np.log(pi[0]) - 0.5 * (log2pi + np.log(var[0])) - (values - mu[0]) ** 2 / (2.0 * var[0])
    lp1 = np.log(pi[1]) - 0.5 * (log2pi + np.log(var[1])) - (values - mu[1]) ** 2 / (2.0 * var[1])
    resp0 = 1.0 / (1.0 + np.exp(np.minimum(lp1 - lp0, 700.0)))
    return pi, mu, var, resp0, lls[:n_iter], n_iter


def _two_clusters(seed, n0=80, n1=40):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0.1, 0.02, n0), rng.normal(0.8, 0.05, n1)])


@pytest.mark.parametrize(
    "values, init, max_iter, tol, expect",
    [
        # converges well before max_iter
        (_two_clusters(5), ([0.5, 0.5], [0.1, 0.9], [0.05, 0.05]), 100, 1e-6, "converged"),
        # tol 0 never converges, so the loop stops at max_iter
        (_two_clusters(6), ([0.5, 0.5], [0.3, 0.6], [0.2, 0.2]), 7, 0.0, "max_iter"),
        # every lp1 - lp0 is below -37, so resp1 rounds to exactly 0 and the
        # first M-step is skipped
        (np.linspace(0.0, 0.1, 50), ([0.5, 0.5], [0.0, 10.0], [0.01, 0.01]), 100, 1e-6,
         "early_break"),
    ],
    ids=["converged", "max_iter", "early_break"],
)
def test_gmm_kernel_bit_identical_to_reference(values, init, max_iter, tol, expect):
    args = (values, *(np.array(a) for a in init), max_iter, tol, 1e-4)
    ref = _gmm_em_1d_reference(*args)
    # .py_func is the numpy path on either backend; the numba build is held
    # to it by test_gmm_kernel_matches_pyfunc
    out = kernels.gmm_em_1d.py_func(*args)
    n_iter = out[5]
    assert n_iter == ref[5]
    assert {"converged": 0 < n_iter < max_iter, "max_iter": n_iter == max_iter,
            "early_break": n_iter == 0}[expect]
    _assert_matches_reference(values, out, ref)


def _assert_matches_reference(values, out, ref):
    """Parameters, responsibilities and n_iter equal the reference bit for
    bit, and the log-likelihoods recomputed from the recorded iterates equal
    the ones the reference loop computed."""
    for a, b in zip(out[:4], ref[:4]):
        assert np.array_equal(a, b)
    assert out[5] == ref[5]
    iterates = out[4]
    assert iterates.shape == (out[5], 6)
    if out[5]:
        assert np.array_equal(iterates[-1], np.concatenate(out[:3]))
    assert np.array_equal(coteach.gmm_log_likelihoods(values, iterates), ref[4])


def test_gmm_kernel_bit_identical_to_reference_on_random_fits():
    # normalized loss-like samples: a tight clean mode plus a broad noisy one
    rng = np.random.default_rng(900)
    outcomes = []
    for _ in range(20):
        n_clean = int(rng.integers(450, 850))
        losses = np.concatenate([
            rng.gamma(rng.uniform(0.5, 3.0), rng.uniform(0.05, 0.5), n_clean),
            rng.normal(rng.uniform(1.0, 4.0), rng.uniform(0.2, 2.0), 900 - n_clean),
        ])
        values = (losses - losses.min()) / (losses.max() - losses.min())
        args = (values, np.array([0.5, 0.5]), np.percentile(values, [10.0, 90.0]),
                np.full(2, max(values.var(), 1e-4)), 100, 1e-6, 1e-4)
        out = kernels.gmm_em_1d.py_func(*args)
        _assert_matches_reference(values, out, _gmm_em_1d_reference(*args))
        outcomes.append(out[5] == 100)
    assert any(outcomes) and not all(outcomes)  # some fits converge, some hit max_iter
