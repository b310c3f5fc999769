"""GMM fitting, co-divide, pseudo-labels, Mixup, losses, and the epoch step."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from coforget import coteach, data, driver, net, oracle
from coforget.config import RunConfig
from coforget.errors import InputError

import reference

TOL = 1e-6


class TestGmmFit:
    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(0)
        losses = np.concatenate([rng.normal(0.1, 0.01, 50), rng.normal(5.0, 0.2, 50)])
        fit = coteach.fit_gmm_1d(losses)
        means = np.sort(fit.means_raw())
        assert abs(means[0] - 0.1) < 0.05
        assert abs(means[1] - 5.0) < 0.25
        assert np.all(fit.clean_posterior[:50] > 0.99)
        assert np.all(fit.clean_posterior[50:] < 0.01)

    def test_all_identical_gives_half_posteriors(self):
        fit = coteach.fit_gmm_1d(np.full(20, 1.7))
        np.testing.assert_array_equal(fit.clean_posterior, np.full(20, 0.5))
        assert fit.means_raw()[0] == fit.means_raw()[1]

    def test_posteriors_sum_to_one_by_construction(self):
        rng = np.random.default_rng(1)
        losses = rng.gamma(2.0, 1.0, 200)
        fit = coteach.fit_gmm_1d(losses)
        assert np.all((fit.clean_posterior >= 0) & (fit.clean_posterior <= 1))
        np.testing.assert_allclose(fit.weights.sum(), 1.0, atol=1e-9)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(2)
        losses = np.concatenate([rng.normal(0.5, 0.1, 100), rng.normal(3.0, 0.4, 100)])
        fit = coteach.fit_gmm_1d(losses)
        assert np.all(np.diff(fit.log_likelihoods) >= -1e-7)

    def test_variance_floor_never_errors(self):
        losses = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        fit = coteach.fit_gmm_1d(losses)
        assert np.all(fit.variances >= coteach.GMM_VAR_FLOOR - 1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(InputError):
            coteach.fit_gmm_1d(np.array([1.0]))


class TestCoDivide:
    def test_threshold_split(self):
        ids = np.array([0, 1])
        for_scratch, _ = coteach.co_divide(ids, np.array([0.8, 0.8]), np.array([0.9, 0.3]), 0.5)
        assert ids[for_scratch].tolist() == [0]
        assert ids[~for_scratch].tolist() == [1]

    def test_all_above_threshold_leaves_no_unlabeled(self):
        ids = np.arange(4)
        w = np.full(4, 0.9)
        for_scratch, _ = coteach.co_divide(ids, w, w, 0.5)
        assert ids[~for_scratch].size == 0

    def test_boundary_is_inclusive(self):
        ids = np.array([0])
        for_scratch, for_embed = coteach.co_divide(ids, np.array([0.5]), np.array([0.5]), 0.5)
        assert ids[for_scratch].tolist() == [0]
        assert ids[for_embed].tolist() == [0]

    def test_cross_network_keying(self):
        ids = np.arange(2)
        w_a = np.array([0.9, 0.1])
        w_v = np.array([0.1, 0.9])
        for_scratch, for_embed = coteach.co_divide(ids, w_a, w_v, 0.5)
        assert ids[for_scratch].tolist() == [1]   # keyed on peer V
        assert ids[for_embed].tolist() == [0]   # keyed on peer A
        np.testing.assert_allclose(w_v[for_scratch], [0.9])

    def test_partition_is_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(3)
        ids = np.arange(50)
        w_a, w_v = rng.random(50), rng.random(50)
        for_scratch, _ = coteach.co_divide(ids, w_a, w_v, 0.5)
        combined = np.sort(np.concatenate([ids[for_scratch], ids[~for_scratch]]))
        assert np.array_equal(combined, ids)
        assert not set(ids[for_scratch]) & set(ids[~for_scratch])


class TestPseudoLabels:
    def test_sharpen_identity_at_one(self):
        p = np.array([0.6, 0.3, 0.1])
        np.testing.assert_allclose(coteach.sharpen(p, 1.0), p, atol=TOL)

    def test_sharpen_preserves_argmax_and_normalizes(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(5), size=30)
        s = coteach.sharpen(p, 0.5)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(s.argmax(axis=1), p.argmax(axis=1))

    def test_refine_full_trust_keeps_one_hot(self):
        y = np.array([1.0, 0.0])
        out = coteach.refine_label(y, 1.0, np.array([0.3, 0.7]), 0.5)
        np.testing.assert_allclose(out, y, atol=TOL)

    def test_refine_zero_trust_is_sharpened_model(self):
        p = np.array([0.6, 0.4])
        out = coteach.refine_label(np.array([1.0, 0.0]), 0.0, p, 0.5)
        np.testing.assert_allclose(out, coteach.sharpen(p, 0.5), atol=TOL)

    def test_refine_half_mix_closed_form(self):
        out = coteach.refine_label(np.array([1.0, 0.0]), 0.5, np.array([0.6, 0.4]), 0.5)
        np.testing.assert_allclose(out, [0.64 / 0.68, 0.04 / 0.68], atol=1e-4)

    def test_guess_agreeing_one_hot(self):
        y = np.array([0.0, 1.0])
        np.testing.assert_allclose(coteach.guess_label(y, y, 0.5), y, atol=TOL)

    def test_guess_symmetric_disagreement(self):
        out = coteach.guess_label(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=TOL)

    def test_guess_closed_form(self):
        out = coteach.guess_label(np.array([0.8, 0.2]), np.array([0.4, 0.6]), 0.5)
        np.testing.assert_allclose(out, [0.36 / 0.52, 0.16 / 0.52], atol=1e-4)


class TestMixup:
    def test_interpolation_arithmetic(self):
        # alpha so concentrated the draw is effectively 0.5
        x, y, lam = coteach.mixup(
            np.array([0.0, 0.0]), np.array([1.0, 0.0]),
            np.array([2.0, 4.0]), np.array([0.0, 1.0]),
            1e9, np.random.default_rng(0),
        )
        assert lam == pytest.approx(0.5, abs=1e-3)
        np.testing.assert_allclose(x, [1.0, 2.0], atol=2e-3)

    def test_lambda_folded_above_half(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            _, _, lam = coteach.mixup(
                np.zeros(2), np.array([1.0, 0.0]), np.ones(2), np.array([0.0, 1.0]), 4.0, rng
            )
            assert 0.5 <= lam <= 1.0

    def test_targets_stay_probability_vectors(self):
        rng = np.random.default_rng(2)
        y_i = rng.dirichlet(np.ones(3), size=10)
        y_j = rng.dirichlet(np.ones(3), size=10)
        _, y_hat, _ = coteach.mixup(np.zeros((10, 2)), y_i, np.ones((10, 2)), y_j, 4.0, rng)
        np.testing.assert_allclose(y_hat.sum(axis=1), 1.0, atol=1e-9)


class TestPhaseLosses:
    """Closed forms of the reference phase losses (tests/reference.py)."""

    def test_labeled_perfect_prediction(self):
        assert reference.loss_labeled(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-5
        )

    def test_labeled_uniform_cases(self):
        half = np.array([0.5, 0.5])
        assert reference.loss_labeled(half, half) == pytest.approx(math.log(2), abs=TOL)
        assert reference.loss_labeled(np.array([1.0, 0.0]), half) == pytest.approx(
            math.log(2), abs=TOL
        )

    def test_unlabeled_squared_distance(self):
        assert reference.loss_unlabeled(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
            0.5, abs=TOL
        )
        y = np.array([0.3, 0.7])
        assert reference.loss_unlabeled(y, y) == pytest.approx(0.0, abs=TOL)

    def test_unlabeled_symmetric(self):
        a, b = np.array([0.9, 0.1]), np.array([0.2, 0.8])
        assert reference.loss_unlabeled(a, b) == pytest.approx(reference.loss_unlabeled(b, a), abs=TOL)

    def test_reg_zero_at_uniform(self):
        assert reference.loss_reg(np.array([0.5, 0.5])) == pytest.approx(0.0, abs=TOL)

    def test_reg_closed_form(self):
        expect = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert reference.loss_reg(np.array([0.75, 0.25])) == pytest.approx(expect, abs=TOL)
        assert expect == pytest.approx(0.1438, abs=1e-4)

    def test_reg_permutation_invariant(self):
        p = np.array([0.7, 0.2, 0.1])
        assert reference.loss_reg(p) == pytest.approx(reference.loss_reg(p[::-1]), abs=TOL)


def _epoch_fixture(seed=0, n_per_class=40):
    ds = data.make_blobs(3, n_per_class, 4, 1.5, seed, test_per_class=10)
    ds = data.inject_noise(ds, data.symmetric_matrix(3, 0.3), seed + 1)
    table = oracle.synthetic_oracle(ds, 0.8, 0.7, seed + 2)
    emb = oracle.oracle_embeddings(ds, table, 6, seed + 3)
    arch_s = net.Architecture((4, 8, 3))
    arch_e = net.Architecture((6, 8, 3))
    theta_s = net.init_params(arch_s, seed + 4)
    theta_e = net.init_params(arch_e, seed + 5)
    opt_s = net.make_optimizer(arch_s, 0.02, 0.9, 0.0005, 100)
    opt_e = net.make_optimizer(arch_e, 0.02, 0.9, 0.0005, 100)
    return ds, emb, arch_s, theta_s, opt_s, arch_e, theta_e, opt_e


class TestCoteachEpoch:
    def _run(self, epoch, params, seed=0):
        ds, emb, arch_s, theta_s, opt_s, arch_e, theta_e, opt_e = _epoch_fixture(seed)
        rng = np.random.default_rng(seed + 10)
        scratch = coteach.Learner(arch_s, ds.features, theta_s, opt_s)
        embed = coteach.Learner(arch_e, emb, theta_e, opt_e)
        # both nets' halves in this process, as a run without a second CPU has them
        halves = [driver._in_process(half) for half in driver._net_halves(params, ds, scratch, embed)]
        # the epoch's heads: it is too early for a checkpoint or a selection,
        # so each is its net's fit alone
        losses, forgot, fits = zip(*driver._replies(halves, ("head", epoch)))
        assert losses == forgot == (None, None)
        res = coteach.coteach_epoch(halves, ds.train_ids(), epoch, params, rng, fits)
        # the result's fields next to the parameters the epoch left each net with
        res = SimpleNamespace(**vars(res), theta_scratch=scratch.theta, theta_embed=embed.theta)
        return res, theta_s, theta_e, arch_e

    def _params(self, **kw):
        cfg = RunConfig()
        cfg.optim.batch_size = kw.pop("batch_size", 32)
        cfg.schedule.encoder_unfreeze = 10
        base = dict(tau_w=0.5, lambda_u=5.0, t_sharp=0.5, mixup_alpha=4.0, reg_coef=1.0,
                    asymmetric=True)
        base.update(kw)
        for key, value in base.items():
            setattr(cfg.method, key, value)
        return cfg

    def test_adapter_frozen_before_unfreeze_epoch(self):
        res, _, theta_e_before, arch_e = self._run(epoch=5, params=self._params())
        n_frozen = arch_e.first_layer_params()
        np.testing.assert_array_equal(res.theta_embed[:n_frozen], theta_e_before[:n_frozen])
        assert not np.array_equal(res.theta_embed[n_frozen:], theta_e_before[n_frozen:])

    def test_adapter_trains_after_unfreeze_epoch(self):
        res, _, theta_e_before, arch_e = self._run(epoch=12, params=self._params())
        n_frozen = arch_e.first_layer_params()
        assert not np.array_equal(res.theta_embed[:n_frozen], theta_e_before[:n_frozen])

    def test_both_nets_update_and_w_shapes_align(self):
        res, theta_s_before, _, _ = self._run(epoch=5, params=self._params())
        assert not np.array_equal(res.theta_scratch, theta_s_before)
        assert res.w_scratch.shape == res.w_embed.shape
        assert not res.skipped_scratch and not res.skipped_embed

    def test_lambda_zero_reduces_a_objective(self):
        # identical rng + lambda_u=0 must equal a run whose unlabeled loss
        # contributes nothing: gradient paths differ only by that term
        res0, *_ = self._run(epoch=5, params=self._params(lambda_u=0.0))
        res1, *_ = self._run(epoch=5, params=self._params(lambda_u=5.0))
        assert not np.array_equal(res0.theta_scratch, res1.theta_scratch)
        res0b, *_ = self._run(epoch=5, params=self._params(lambda_u=0.0))
        np.testing.assert_array_equal(res0.theta_scratch, res0b.theta_scratch)

    def test_symmetric_mode_gives_v_unlabeled_data(self):
        res_asym, _, _, _ = self._run(epoch=5, params=self._params())
        res_sym, *_ = self._run(epoch=5, params=self._params(asymmetric=False))
        # same seed: the arms diverge only through V's unlabeled batches
        np.testing.assert_array_equal(res_asym.theta_scratch, res_sym.theta_scratch)
        assert not np.array_equal(res_asym.theta_embed, res_sym.theta_embed)

    def test_oracle_grade_split_trains_a_to_high_accuracy(self):
        # hand the co-divide perfect clean probabilities via a tiny wrapper:
        # train A one phase on truly-clean-labeled samples only
        ds, emb, arch_s, theta_s, opt_s, arch_e, theta_e, opt_e = _epoch_fixture(3, 60)
        clean = (ds.observed_labels == ds.true_labels)[ds.train_ids()]
        rng = np.random.default_rng(11)
        params = self._params(batch_size=32)
        onehot = np.eye(3)[ds.observed_labels]

        labeled = ds.train_ids()[clean]
        scratch = coteach.Learner(arch_s, ds.features, theta_s, opt_s)
        for epoch in range(1, 31):
            batches = coteach._batches(rng, labeled.size, 0, params.optim.batch_size,
                                       params.method.mixup_alpha)
            coteach._train_batches(
                scratch, None, onehot,
                labeled, np.ones(labeled.size), np.empty(0, dtype=np.int64),
                params, epoch, batches, 0,
            )
        theta_s = scratch.theta
        te = ds.test_ids()
        acc = (net.predict_proba(arch_s, theta_s, ds.features[te]).argmax(1)
               == ds.true_labels[te]).mean()
        assert acc >= 0.95


class TestLearnerLosses:
    """Learner.losses hands back its last array while theta and labels are
    the objects it came from and ids hold the same ids, and evaluates afresh
    after any of them changes."""

    @staticmethod
    def _counted(monkeypatch):
        """A learner, its dataset, the list of per_sample_ce calls, and the
        uncounted per_sample_ce."""
        ds, _, arch, theta, opt, *_ = _epoch_fixture()
        calls, ce = [], net.per_sample_ce
        monkeypatch.setattr(net, "per_sample_ce", lambda *args: calls.append(args) or ce(*args))
        return coteach.Learner(arch, ds.features, theta, opt), ds, calls, ce

    def test_same_array_for_the_same_theta_and_equal_ids(self, monkeypatch):
        learner, ds, calls, _ = self._counted(monkeypatch)
        ids = ds.train_ids()
        first = learner.losses(ids, ds.observed_labels)
        assert learner.losses(ids, ds.observed_labels) is first
        assert learner.losses(ids.copy(), ds.observed_labels) is first
        assert len(calls) == 1

    @pytest.mark.parametrize("change", ["step", "rebound theta", "ids", "labels"])
    def test_fresh_evaluation_after_a_change(self, monkeypatch, change):
        learner, ds, calls, ce = self._counted(monkeypatch)
        ids, labels = ds.train_ids(), ds.observed_labels
        first = learner.losses(ids, labels)
        if change == "step":
            learner.step(np.ones_like(learner.theta), 1)
        elif change == "rebound theta":
            learner.theta = learner.theta.copy()
        elif change == "ids":
            ids = ids[::-1]
        else:
            labels = (labels + 1) % ds.n_classes
        again = learner.losses(ids, labels)
        assert again is not first and len(calls) == 2
        np.testing.assert_array_equal(
            again, ce(learner.arch, learner.theta, learner.inputs[ids], labels[ids]))

    def test_result_is_read_only_and_equals_per_sample_ce(self):
        ds, _, arch, theta, opt, *_ = _epoch_fixture()
        learner = coteach.Learner(arch, ds.features, theta, opt)
        ids = ds.train_ids()
        losses = learner.losses(ids, ds.observed_labels)
        assert not losses.flags.writeable
        assert learner.theta.flags.writeable
        np.testing.assert_array_equal(
            losses, net.per_sample_ce(arch, theta, ds.features[ids], ds.observed_labels[ids]))
