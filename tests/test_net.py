"""Network core: closed-form loss values, gradient oracle, SGD, checkpoints."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coforget import errors, kernels, net
from coforget.errors import ConfigurationError, IngestionError, InputError

import reference

TOL = 1e-6


def finite_difference(arch, theta, x, objective, eps=1e-6, **kwargs):
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tp[i] += eps
        tm = theta.copy()
        tm[i] -= eps
        fp, _ = objective(arch, tp, x, **kwargs)
        fm, _ = objective(arch, tm, x, **kwargs)
        fd[i] = (fp - fm) / (2 * eps)
    return fd


def assert_grad_close(grad, fd, rel=1e-4):
    err = np.abs(grad - fd)
    scale = np.abs(grad) + np.abs(fd)
    assert np.all(err <= rel * scale + 1e-8), f"max rel err {np.max(err / np.maximum(scale, 1e-12))}"


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        arch = net.Architecture((3, 4, 2))
        theta = np.zeros(arch.n_params)
        out = net.forward(arch, theta, np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_identity_single_layer(self):
        arch = net.Architecture((2, 2))
        theta = np.concatenate([np.eye(2).ravel(), np.zeros(2)])
        out = net.forward(arch, theta, np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [[1.0, 2.0]], atol=TOL)

    def test_two_layer_hand_computed(self):
        # x=[1,0]; W0=[[1,-2],[0,1]], b0=0 -> z=[1,-2] -> relu [1,0]
        # W1=[[2,1],[1,1]], b1=[0.5,-0.5] -> logits [2.5, 0.5]
        arch = net.Architecture((2, 2, 2))
        theta = np.concatenate([
            np.array([[1.0, -2.0], [0.0, 1.0]]).ravel(), np.zeros(2),
            np.array([[2.0, 1.0], [1.0, 1.0]]).ravel(), np.array([0.5, -0.5]),
        ])
        out = net.forward(arch, theta, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[2.5, 0.5]], atol=TOL)

    def test_width_mismatch_rejected(self):
        arch = net.Architecture((3, 2))
        theta = np.zeros(arch.n_params)
        with pytest.raises(ConfigurationError):
            net.forward(arch, theta, np.ones((1, 4)))

    def test_output_shape_and_finite(self):
        arch = net.Architecture((5, 8, 4))
        theta = net.init_params(arch, 0)
        out = net.forward(arch, theta, np.random.default_rng(1).normal(size=(7, 5)))
        assert out.shape == (7, 4)
        assert np.all(np.isfinite(out))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(net.softmax([0.0, 0.0]), [0.5, 0.5], atol=TOL)

    def test_closed_form(self):
        np.testing.assert_allclose(net.softmax([math.log(3), 0.0]), [0.75, 0.25], atol=TOL)

    def test_large_logits_stable(self):
        p = net.softmax([1000.0, 0.0])
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(50, 6)) * 10
        p = net.softmax(logits)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        shifted = net.softmax(logits + 123.456)
        np.testing.assert_allclose(p, shifted, atol=1e-9)
        assert np.array_equal(p.argmax(axis=1), shifted.argmax(axis=1))


def _softmax_reference(logits):
    """net.softmax as first written, reducing through ndarray.max and .sum."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _semi_value_grad_reference(arch, theta, x, targets, n_labeled, lambda_u, reg_coef):
    """semi_value_grad as first written: the uniform-prior term's gradient
    broadcast to the batch's shape before it is added."""
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1, arch.in_width)
    targets = np.asarray(targets, dtype=np.float64)
    widths = np.asarray(arch.widths, dtype=np.int64)
    logits, acts = kernels.mlp_forward_acts(theta, widths, arch.act_id, x)
    p = _softmax_reference(logits)
    n, c = p.shape
    dp = np.zeros_like(p)
    loss_x = 0.0
    if n_labeled > 0:
        pl, tl = p[:n_labeled], targets[:n_labeled]
        loss_x = float(-np.sum(tl * np.log(np.maximum(pl, net.EPS))) / n_labeled)
        dp[:n_labeled] += np.where(pl > net.EPS, -tl / np.maximum(pl, net.EPS), 0.0) / n_labeled
    loss_u = 0.0
    n_unl = n - n_labeled
    if n_unl > 0:
        pu, tu = p[n_labeled:], targets[n_labeled:]
        loss_u = float(np.sum((tu - pu) ** 2) / n_unl)
        dp[n_labeled:] += lambda_u * 2.0 * (pu - tu) / n_unl
    prior = 1.0 / c
    p_mean = p.mean(axis=0)
    loss_r = reg_coef * float(np.sum(prior * np.log(prior / np.maximum(p_mean, net.EPS))))
    d_mean = np.where(p_mean > net.EPS, -reg_coef * prior / np.maximum(p_mean, net.EPS), 0.0)
    dp += np.broadcast_to(d_mean / n, p.shape)
    dz = p * (dp - np.sum(dp * p, axis=1, keepdims=True))
    grad = kernels.mlp_backward(theta, widths, arch.act_id, acts, dz)
    return loss_x + lambda_u * loss_u + loss_r, grad


class TestBitIdentity:
    """softmax and semi_value_grad equal, bit for bit, the expressions they
    were first written with."""

    def test_softmax(self):
        rng = np.random.default_rng(11)
        for shape in [(3,), (1,), (7,), (1, 3), (5, 2), (128, 3), (900, 5)]:
            for scale in (1.0, 30.0, 800.0):
                logits = rng.normal(size=shape) * scale
                assert np.array_equal(net.softmax(logits), _softmax_reference(logits))
        listed = [0.5, -2.0, 3.0]
        assert np.array_equal(net.softmax(listed), _softmax_reference(listed))

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_semi_value_grad(self, activation):
        rng = np.random.default_rng(12)
        for widths in [(8, 32, 32, 3), (16, 32, 16, 3), (4, 6, 5)]:
            arch = net.Architecture(widths, activation)
            theta = net.init_params(arch, int(rng.integers(1000)))
            for n in (1, 2, 7, 128):
                # a single sample also goes in as a 1-D feature vector
                x = rng.normal(size=widths[0]) if n == 1 else rng.normal(size=(n, widths[0]))
                targets = rng.dirichlet(np.ones(widths[-1]), size=n)
                for n_labeled in sorted({0, n // 2, n}):
                    args = (arch, theta, x, targets, n_labeled, 25.0, 1.0)
                    loss, grad = net.semi_value_grad(*args)
                    ref_loss, ref_grad = _semi_value_grad_reference(*args)
                    assert loss == ref_loss and np.array_equal(grad, ref_grad)


class TestLosses:
    """Closed forms of the reference formulas the batch losses are checked
    against (tests/reference.py), and of net.kl_rows."""

    def test_cross_entropy_perfect(self):
        assert reference.cross_entropy(np.array([0.0, 1.0]), 1) == pytest.approx(0.0, abs=TOL)

    def test_cross_entropy_half(self):
        assert reference.cross_entropy(np.array([0.5, 0.5]), 0) == pytest.approx(
            math.log(2), abs=TOL
        )

    def test_cross_entropy_exp_minus_two(self):
        p = math.exp(-2)
        assert reference.cross_entropy(np.array([p, 1 - p]), 0) == pytest.approx(2.0, abs=TOL)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(InputError):
            reference.cross_entropy(np.array([0.5, 0.5]), 2)

    def test_kl_identical_is_zero(self):
        assert reference.kl_divergence([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=TOL)
        assert net.kl_rows(np.full((1, 2), 0.5), np.full((1, 2), 0.5))[0] == pytest.approx(
            0.0, abs=TOL
        )

    def test_kl_onehot_vs_uniform(self):
        assert reference.kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2), abs=TOL
        )
        assert net.kl_rows(np.array([[1.0, 0.0]]), np.full((1, 2), 0.5))[0] == pytest.approx(
            math.log(2), abs=TOL
        )

    def test_kl_closed_form(self):
        expect = 0.5 * math.log(3)
        assert reference.kl_divergence([0.75, 0.25], [0.25, 0.75]) == pytest.approx(
            expect, abs=TOL
        )
        assert net.kl_rows(np.array([[0.75, 0.25]]), np.array([[0.25, 0.75]]))[0] == pytest.approx(
            expect, abs=TOL
        )

    def test_kl_length_mismatch(self):
        with pytest.raises(InputError):
            net.kl_rows(np.array([[1.0]]), np.array([[0.5, 0.5]]))

    def test_kl_nonnegative_random(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(4), size=100)
        q = rng.dirichlet(np.ones(4), size=100)
        assert np.all(net.kl_rows(p, q) >= -1e-12)
        for p_i, q_i in zip(p, q):
            assert reference.kl_divergence(p_i, q_i) >= -1e-12


def test_batch_losses_match_reference():
    """The value of every loss the pipeline computes equals the scalar
    reference formula on random batches."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        arch = net.Architecture((5, 6, 4), "relu" if seed % 2 == 0 else "tanh")
        theta = net.init_params(arch, seed)
        x = rng.normal(size=(7, 5))
        p = net.predict_proba(arch, theta, x)
        targets = rng.dirichlet(np.ones(4), size=7)
        q = rng.dirichlet(np.ones(4), size=7)
        labels = rng.integers(0, 4, size=7)

        loss, _ = net.ce_value_grad(arch, theta, x, targets)
        assert loss == pytest.approx(reference.loss_labeled(targets, p), abs=1e-12)
        for n_labeled in (0, 3, 7):
            loss, _ = net.semi_value_grad(arch, theta, x, targets, n_labeled, 5.0, 0.7)
            expect = reference.semi_loss(p, targets, n_labeled, 5.0, 0.7)
            assert loss == pytest.approx(expect, abs=1e-12)
        loss, _ = net.unlearn_value_grad(arch, theta, x, q, 0.05)
        assert loss == pytest.approx(reference.unlearning_loss(q, p, 0.05), abs=1e-12)
        np.testing.assert_allclose(
            net.per_sample_ce(arch, theta, x, labels),
            [reference.cross_entropy(p_i, y) for p_i, y in zip(p, labels)], rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            net.kl_rows(p, q),
            [reference.kl_divergence(p_i, q_i) for p_i, q_i in zip(p, q)], rtol=0, atol=1e-12,
        )


class TestGradients:
    def test_constant_loss_zero_gradient(self):
        # single-class softmax is identically one, so the CE loss is constant
        arch = net.Architecture((3, 1))
        theta = net.init_params(arch, 0)
        x = np.random.default_rng(0).normal(size=(4, 3))
        loss, grad = net.ce_value_grad(arch, theta, x, np.ones((4, 1)))
        assert loss == pytest.approx(0.0, abs=TOL)
        np.testing.assert_array_equal(grad, np.zeros_like(theta))

    def test_linear_squared_loss_closed_form(self):
        # one linear unit: d/dw (w.x + b - y)^2 = 2(w.x + b - y) * x
        arch = net.Architecture((2, 1))
        theta = np.array([0.3, -0.7, 0.1])
        x = np.array([[1.5, -2.0]])
        y = np.array([[0.9]])
        pred = x @ theta[:2] + theta[2]
        expect = np.concatenate([2 * (pred - 0.9) * x[0], 2 * (pred - 0.9)])
        widths = arch.widths_array
        logits, acts = kernels.mlp_forward_acts(theta, widths, arch.act_id, x)
        grad = kernels.mlp_backward(theta, widths, arch.act_id, acts, 2.0 * (logits - y))
        np.testing.assert_allclose(grad, expect, atol=TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_net_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        arch = net.Architecture((4, 6, 3))
        theta = net.init_params(arch, seed)
        x = rng.normal(size=(5, 4))
        targets = rng.dirichlet(np.ones(3), size=5)
        _, grad = net.ce_value_grad(arch, theta, x, targets)
        fd = finite_difference(arch, theta, x, net.ce_value_grad, targets=targets)
        assert_grad_close(grad, fd)

    def test_semi_objective_is_linear_in_consistency_weight(self):
        # total = labeled CE + lambda * unlabeled distance + penalty, so the
        # value must be affine in lambda and collapse to CE+penalty at zero
        rng = np.random.default_rng(3)
        arch = net.Architecture((4, 6, 3))
        theta = net.init_params(arch, 3)
        x = rng.normal(size=(6, 4))
        targets = rng.dirichlet(np.ones(3), size=6)
        losses = {
            lam: net.semi_value_grad(arch, theta, x, targets, 4, lam, reg_coef=1.0)[0]
            for lam in (0.0, 5.0, 10.0)
        }
        unl_part = (losses[5.0] - losses[0.0]) / 5.0
        assert unl_part >= 0.0
        assert losses[10.0] == pytest.approx(losses[0.0] + 10.0 * unl_part, abs=1e-9)

    def test_semi_with_all_rows_labeled_equals_ce_plus_penalty(self):
        rng = np.random.default_rng(4)
        arch = net.Architecture((3, 5, 2))
        theta = net.init_params(arch, 4)
        x = rng.normal(size=(5, 3))
        targets = rng.dirichlet(np.ones(2), size=5)
        ce_loss, ce_grad = net.ce_value_grad(arch, theta, x, targets)
        bare_loss, bare_grad = net.semi_value_grad(arch, theta, x, targets, 5, 99.0, 0.0)
        assert bare_loss == pytest.approx(ce_loss, abs=1e-12)
        np.testing.assert_allclose(bare_grad, ce_grad, atol=1e-12)
        semi_loss, _ = net.semi_value_grad(arch, theta, x, targets, 5, 99.0, 1.0)
        p_mean = net.predict_proba(arch, theta, x).mean(axis=0)
        assert semi_loss == pytest.approx(ce_loss + reference.loss_reg(p_mean), abs=1e-12)


class TestArchitecture:
    def test_derived_sizes_are_fixed_at_construction(self):
        arch = net.Architecture([5, 7.0, 3], "tanh")
        assert arch.n_params == 5 * 7 + 7 + 7 * 3 + 3
        assert arch.widths_array.dtype == np.int64
        assert arch.widths_array.tolist() == [5, 7, 3]
        assert not arch.widths_array.flags.writeable
        assert arch == net.Architecture((5, 7, 3), "tanh") and "n_params" not in repr(arch)
        assert hash(arch) == hash(net.Architecture((5, 7, 3), "tanh"))


class TestSgd:
    def test_zero_grad_is_noop(self):
        arch = net.Architecture((2, 2))
        theta = net.init_params(arch, 1)
        opt = net.make_optimizer(arch, 0.1, 0.0, 0.0, 100)
        new_theta, _ = net.sgd_step(theta, np.zeros_like(theta), opt, 1)
        np.testing.assert_array_equal(new_theta, theta)

    def test_single_step_arithmetic(self):
        arch = net.Architecture((1, 1))
        theta = np.zeros(2)
        opt = net.make_optimizer(arch, 0.1, 0.0, 0.0, 100)
        new_theta, _ = net.sgd_step(theta, np.array([1.0, 0.0]), opt, 1)
        assert new_theta[0] == pytest.approx(-0.1, abs=TOL)

    def test_learning_rate_decays_by_ten_at_decay_epoch(self):
        arch = net.Architecture((1, 1))
        opt = net.make_optimizer(arch, 0.02, 0.9, 0.0, 150)
        assert opt.learning_rate(149) == pytest.approx(0.02, abs=TOL)
        assert opt.learning_rate(150) == pytest.approx(0.002, abs=TOL)

    def test_momentum_and_weight_decay_update_rule(self):
        from dataclasses import replace

        arch = net.Architecture((1, 1))
        theta = np.array([2.0, -1.0])
        opt = net.make_optimizer(arch, 0.1, 0.5, 0.01, 100)
        opt = replace(opt, velocity=np.array([1.0, 0.0]))
        grad = np.array([0.5, 0.2])
        expect_v = 0.5 * opt.velocity + grad + 0.01 * theta
        new_theta, new_opt = net.sgd_step(theta, grad, opt, 1)
        np.testing.assert_allclose(new_opt.velocity, expect_v, atol=TOL)
        np.testing.assert_allclose(new_theta, theta - 0.1 * expect_v, atol=TOL)

    def test_frozen_prefix_stays_put(self):
        arch = net.Architecture((3, 4, 2))
        theta = net.init_params(arch, 2)
        opt = net.make_optimizer(arch, 0.1, 0.9, 0.001, 100)
        grad = np.ones_like(theta)
        n_frozen = arch.first_layer_params()
        new_theta, new_opt = net.sgd_step(theta, grad, opt, 1, frozen_prefix=n_frozen)
        np.testing.assert_array_equal(new_theta[:n_frozen], theta[:n_frozen])
        np.testing.assert_array_equal(new_opt.velocity[:n_frozen], np.zeros(n_frozen))
        assert np.all(new_theta[n_frozen:] != theta[n_frozen:])


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        arch = net.Architecture((5, 9, 4), "tanh")
        theta = net.init_params(arch, 7)
        path = tmp_path / "net.ckpt"
        net.save_checkpoint(path, arch, theta)
        arch2, theta2 = net.load_checkpoint(path)
        assert arch2 == arch
        assert np.array_equal(theta2, theta)
        assert theta2.tobytes() == theta.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(IngestionError):
            net.load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        arch = net.Architecture((2, 2))
        theta = net.init_params(arch, 0)
        path = tmp_path / "net.ckpt"
        net.save_checkpoint(path, arch, theta)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(IngestionError):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_checkpoint_names_file(self, tmp_path, kind):
        path = tmp_path / "net.ckpt"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}: cannot read checkpoint"):
            net.load_checkpoint(path)

    @staticmethod
    def _saved(tmp_path, theta=None):
        arch = net.Architecture((3, 4, 2))
        path = tmp_path / "net.ckpt"
        net.save_checkpoint(path, arch, net.init_params(arch, 0) if theta is None else theta)
        return path, path.read_bytes()

    @pytest.mark.parametrize("cut", [1, 3, 7, 9])
    def test_cut_payload_names_file(self, tmp_path, cut):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:-cut])
        with pytest.raises(IngestionError, match=re.escape(str(path))):
            net.load_checkpoint(path)

    def test_padded_payload_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob + b"\0" * 8)
        with pytest.raises(IngestionError, match=re.escape(str(path))):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"{",
        b"",
        b"[3, 4, 2]",
        b'{"widths": [3, 4, 2]}',
        b'{"widths": [3, 4, 2], "activation": "sigmoid"}',
        b'{"widths": [3, 4, 2], "activation": ["relu"]}',
        b'{"widths": "342", "activation": "relu"}',
        b'{"widths": [3, "4", 2], "activation": "relu"}',
        b'{"widths": [3, 4.5, 2], "activation": "relu"}',
        b'{"widths": [3, true, 2], "activation": "relu"}',
        b'{"widths": [3, 0, 2], "activation": "relu"}',
        b'{"widths": [3], "activation": "relu"}',
        b'{"widths": [3, 4, 2], "activation": "r\xc3\xa9lu"}',
    ])
    def test_bad_header_names_file(self, tmp_path, header):
        path, blob = self._saved(tmp_path)
        magic, _, payload = blob.split(b"\n", 2)
        path.write_bytes(magic + b"\n" + header + b"\n" + payload)
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}: bad checkpoint header"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        theta = net.init_params(net.Architecture((3, 4, 2)), 0)
        theta[5] = value
        path, _ = self._saved(tmp_path, theta)
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}: parameter 5 "):
            net.load_checkpoint(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_checkpoint_raises_only_package_errors(self, tmp_path, data):
        path, blob = self._saved(tmp_path)
        damaged = bytearray(blob)
        if data.draw(st.booleans(), label="cut"):
            damaged = damaged[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
        for _ in range(data.draw(st.integers(0, 4), label="n_flips")):
            if damaged:
                at = data.draw(st.integers(0, len(damaged) - 1), label="at")
                damaged[at] = data.draw(st.integers(0, 255), label="byte")
        path.write_bytes(bytes(damaged))
        try:
            arch, theta = net.load_checkpoint(path)
        except (errors.ConfigurationError, errors.InputError, errors.StateError,
                errors.IngestionError):
            return
        assert len(damaged) == len(blob)
        assert theta.shape == (arch.n_params,) and np.all(np.isfinite(theta))
