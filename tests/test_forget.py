"""Forgetting objective: scaling, no-op edges, gradient flow, direction."""

import math

import numpy as np
import pytest

from coforget import forget, net
from coforget.errors import InputError

import reference

TOL = 1e-6


class TestUnlearningLoss:
    """Closed forms of the reference forgetting loss (tests/reference.py);
    test_net checks net.unlearn_value_grad's value against it."""

    def test_identical_distributions_zero(self):
        p = np.array([[0.3, 0.7], [0.6, 0.4]])
        assert reference.unlearning_loss(p, p, 0.05) == pytest.approx(0.0, abs=TOL)

    def test_closed_form_single_sample(self):
        # KL([1,0] || [.5,.5]) = ln 2, scaled by -0.05^2
        val = reference.unlearning_loss([1.0, 0.0], [0.5, 0.5], 0.05)
        assert val == pytest.approx(-0.0025 * math.log(2), abs=TOL)

    def test_temperature_scaling_is_quadratic(self):
        p_ref = np.array([[0.8, 0.2]])
        p_cur = np.array([[0.4, 0.6]])
        small = reference.unlearning_loss(p_ref, p_cur, 0.05)
        big = reference.unlearning_loss(p_ref, p_cur, 0.10)
        assert big == pytest.approx(4.0 * small, abs=TOL)

    def test_never_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(3), size=4)
            q = rng.dirichlet(np.ones(3), size=4)
            assert reference.unlearning_loss(p, q, 0.5) <= 1e-12

    def test_zero_temperature_rejected(self):
        with pytest.raises(InputError):
            reference.unlearning_loss([[1.0, 0.0]], [[0.5, 0.5]], 0.0)


class TestUnlearnGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        arch = net.Architecture((3, 5, 3))
        theta = net.init_params(arch, seed)
        x = rng.normal(size=(4, 3))
        p_ref = rng.dirichlet(np.ones(3), size=4)
        _, grad = net.unlearn_value_grad(arch, theta, x, p_ref, 0.05)
        eps = 1e-6
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            fd[i] = (
                net.unlearn_value_grad(arch, tp, x, p_ref, 0.05)[0]
                - net.unlearn_value_grad(arch, tm, x, p_ref, 0.05)[0]
            ) / (2 * eps)
        err = np.abs(grad - fd)
        assert np.all(err <= 1e-4 * (np.abs(grad) + np.abs(fd)) + 1e-8)

    def test_snapshot_receives_no_update(self):
        arch = net.Architecture((3, 4, 2))
        theta = net.init_params(arch, 0)
        snapshot = net.init_params(arch, 1)
        snap_before = snapshot.copy()
        opt = net.make_optimizer(arch, 0.01, 0.9, 0.0, 100)
        plan = forget.make_unlearn_plan([0, 1, 2], 2, 0.05, 3)
        inputs = np.random.default_rng(2).normal(size=(3, 3))
        forget.apply_unlearning(arch, theta, opt, snapshot, plan, inputs, 1)
        assert np.array_equal(snapshot, snap_before)


class TestApplyUnlearning:
    def test_empty_targets_noop(self):
        arch = net.Architecture((2, 3, 2))
        theta = net.init_params(arch, 5)
        opt = net.make_optimizer(arch, 0.02, 0.9, 0.0005, 100)
        plan = forget.make_unlearn_plan([], 4, 0.05, 0)
        new_theta, _, stats = forget.apply_unlearning(
            arch, theta, opt, theta.copy(), plan, np.zeros((0, 2)), 1
        )
        assert np.array_equal(new_theta, theta)
        assert stats.n_targets == 0

    def test_plan_partitions_targets(self):
        plan = forget.make_unlearn_plan(range(10), 4, 0.05, 1)
        sizes = [len(b) for b in plan.batches]
        assert sizes == [4, 4, 2]
        assert sorted(np.concatenate(plan.batches).tolist()) == list(range(10))

    def test_divergence_grows_over_passes(self):
        # with a frozen pool and small lr, mean KL(ref || cur) keeps rising;
        # the current net starts nudged off the reference because the exact
        # snapshot point is the (gradientless) minimum of the divergence
        rng = np.random.default_rng(8)
        arch = net.Architecture((4, 8, 3))
        theta = net.init_params(arch, 8)
        snapshot = theta.copy()
        theta = theta + 1e-3 * rng.normal(size=theta.shape)
        opt = net.make_optimizer(arch, 0.02, 0.9, 0.0, 100)
        inputs = rng.normal(size=(12, 4))
        kls = []
        for epoch in range(1, 6):
            plan = forget.make_unlearn_plan(range(12), 6, 0.05, epoch)
            theta, opt, stats = forget.apply_unlearning(
                arch, theta, opt, snapshot, plan, inputs, epoch
            )
            kls.append(stats.kl_after)
        assert all(b >= a for a, b in zip(kls, kls[1:]))
        assert kls[-1] > kls[0] > 0.0

    def test_frozen_prefix_respected(self):
        arch = net.Architecture((3, 5, 2))
        theta = net.init_params(arch, 9)
        opt = net.make_optimizer(arch, 0.02, 0.9, 0.0, 100)
        n_frozen = arch.first_layer_params()
        plan = forget.make_unlearn_plan(range(6), 3, 0.05, 2)
        inputs = np.random.default_rng(3).normal(size=(6, 3))
        new_theta, _, _ = forget.apply_unlearning(
            arch, theta, opt, theta.copy() + 0.1, plan, inputs, 1, frozen_prefix=n_frozen
        )
        np.testing.assert_array_equal(new_theta[:n_frozen], theta[:n_frozen])
        assert not np.array_equal(new_theta[n_frozen:], theta[n_frozen:])
