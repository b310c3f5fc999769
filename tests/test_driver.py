"""Schedule gates, warmup contract, determinism, ablation bisimulation."""

import inspect
from pathlib import Path

import numpy as np
import pytest

from coforget import coteach, data, driver, net, oracle
from coforget.config import RunConfig, load_config
from coforget.errors import ConfigurationError
from coforget.util import fmt_float, rng_for

QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.yaml"


def small_cfg(**overrides) -> RunConfig:
    cfg = RunConfig()
    cfg.dataset.classes = 3
    cfg.dataset.per_class = 60
    cfg.dataset.test_per_class = 30
    cfg.dataset.dim = 4
    cfg.dataset.spread = 1.5
    cfg.optim.batch_size = 32
    cfg.schedule.max_epoch = 24
    cfg.schedule.warmup = 3
    cfg.schedule.start_unlearn = 12
    cfg.schedule.encoder_unfreeze = 8
    cfg.schedule.unlearn_period = 6
    cfg.schedule.unlearn_duration = 2
    cfg.method.t_unl = 0.05
    cfg.method.lambda_u = 5.0
    cfg.run.seed = 1
    for key, value in overrides.items():
        section, name = key.split("__")
        setattr(getattr(cfg, section), name, value)
    return cfg


class TestGates:
    def test_selection_schedule(self):
        assert driver.gate_selection(60, 60, 10)
        assert not driver.gate_selection(65, 60, 10)
        assert driver.gate_selection(70, 60, 10)

    def test_selection_never_before_start(self):
        assert not any(driver.gate_selection(k, 60, 10) for k in range(1, 60))

    def test_selection_every_epoch_when_period_one(self):
        assert all(driver.gate_selection(k, 60, 1) for k in range(60, 80))

    def test_forgetting_window(self):
        active = [k for k in range(60, 70) if driver.gate_forgetting(k, 60, 10, 5)]
        assert active == [60, 61, 62, 63, 64, 65]

    def test_forgetting_zero_duration_only_on_selection_epochs(self):
        active = [k for k in range(60, 80) if driver.gate_forgetting(k, 60, 10, 0)]
        assert active == [60, 70]

    def test_forgetting_never_before_start(self):
        assert not any(driver.gate_forgetting(k, 60, 10, 5) for k in range(1, 60))


def _warmup(ds, emb, table, arch_s, theta_s, opt_s, arch_e, theta_e, opt_e,
            n_epochs, batch_size, seed):
    """The whole warmup period as the pipeline runs it; zero epochs is a no-op."""
    onehot = np.eye(ds.n_classes)[ds.observed_labels]
    soft_targets = 0.5 * table.probs + 0.5 * onehot
    for k in range(1, n_epochs + 1):
        theta_s, opt_s, theta_e, opt_e = driver.warmup_epoch(
            ds.features, emb, onehot, soft_targets, ds.train_ids(),
            arch_s, theta_s, opt_s, arch_e, theta_e, opt_e,
            k, batch_size, rng_for(seed, f"warmup/{k}"),
        )
    return theta_s, opt_s, theta_e, opt_e


def _warmup_fixture(seed=0):
    ds = data.make_blobs(3, 40, 4, 1.5, seed, test_per_class=10)
    ds = data.inject_noise(ds, data.symmetric_matrix(3, 0.2), seed + 1)
    table = oracle.synthetic_oracle(ds, 0.8, 0.7, seed + 2)
    emb = oracle.oracle_embeddings(ds, table, 6, seed + 3)
    arch_s = net.Architecture((4, 8, 3))
    arch_e = net.Architecture((6, 8, 3))
    return ds, table, emb, arch_s, net.init_params(arch_s, 1), arch_e, net.init_params(arch_e, 2)


class TestWarmup:
    def test_zero_epochs_is_noop(self):
        ds, table, emb, arch_s, theta_s, arch_e, theta_e = _warmup_fixture()
        opt_s = net.make_optimizer(arch_s, 0.02, 0.9, 0.0, 100)
        opt_e = net.make_optimizer(arch_e, 0.02, 0.9, 0.0, 100)
        out_s, _, out_e, _ = _warmup(
            ds, emb, table, arch_s, theta_s, opt_s, arch_e, theta_e, opt_e, 0, 32, 7
        )
        np.testing.assert_array_equal(out_s, theta_s)
        np.testing.assert_array_equal(out_e, theta_e)

    def test_deterministic(self):
        ds, table, emb, arch_s, theta_s, arch_e, theta_e = _warmup_fixture()
        outs = []
        for _ in range(2):
            opt_s = net.make_optimizer(arch_s, 0.02, 0.9, 0.0, 100)
            opt_e = net.make_optimizer(arch_e, 0.02, 0.9, 0.0, 100)
            out_s, _, out_e, _ = _warmup(
                ds, emb, table, arch_s, theta_s.copy(), opt_s, arch_e, theta_e.copy(), opt_e,
                3, 32, 7,
            )
            outs.append((out_s, out_e))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])

    def test_scratch_net_beats_chance_after_warmup(self):
        ds, table, emb, arch_s, theta_s, arch_e, theta_e = _warmup_fixture()
        opt_s = net.make_optimizer(arch_s, 0.02, 0.9, 0.0, 100)
        opt_e = net.make_optimizer(arch_e, 0.02, 0.9, 0.0, 100)
        out_s, _, out_e, _ = _warmup(
            ds, emb, table, arch_s, theta_s, opt_s, arch_e, theta_e, opt_e, 5, 32, 7
        )
        tr = ds.train_ids()
        acc = (net.predict_proba(arch_s, out_s, ds.features[tr]).argmax(1)
               == ds.true_labels[tr]).mean()
        assert acc > 0.5

    def test_v_adapter_untouched_by_warmup(self):
        ds, table, emb, arch_s, theta_s, arch_e, theta_e = _warmup_fixture()
        opt_s = net.make_optimizer(arch_s, 0.02, 0.9, 0.0, 100)
        opt_e = net.make_optimizer(arch_e, 0.02, 0.9, 0.0, 100)
        _, _, out_e, _ = _warmup(
            ds, emb, table, arch_s, theta_s, opt_s, arch_e, theta_e, opt_e, 3, 32, 7
        )
        n_frozen = arch_e.first_layer_params()
        np.testing.assert_array_equal(out_e[:n_frozen], theta_e[:n_frozen])


# Frozen copies of the CE loops that driver._ce_epoch replaced: the body of
# warmup_epoch with its two loops written out, and the naive-ce arm's epoch
# loop. The fold must reproduce their parameters and velocities bit for bit.

def _batched(ids, batch_size):
    for i in range(0, ids.shape[0], batch_size):
        yield ids[i:i + batch_size]


def _frozen_warmup_epoch(feats, emb, onehot_obs, soft_targets, train_ids,
                         arch_scratch, theta_scratch, opt_scratch,
                         arch_embed, theta_embed, opt_embed, epoch, batch_size, rng):
    order = train_ids[rng.permutation(train_ids.shape[0])]
    for ids in _batched(order, batch_size):
        _, grad = net.ce_value_grad(arch_scratch, theta_scratch, feats[ids], onehot_obs[ids])
        theta_scratch, opt_scratch = net.sgd_step(theta_scratch, grad, opt_scratch, epoch)
    order = train_ids[rng.permutation(train_ids.shape[0])]
    head_only = arch_embed.first_layer_params()
    for ids in _batched(order, batch_size):
        _, grad = net.ce_value_grad(arch_embed, theta_embed, emb[ids], soft_targets[ids])
        theta_embed, opt_embed = net.sgd_step(
            theta_embed, grad, opt_embed, epoch, frozen_prefix=head_only
        )
    return theta_scratch, opt_scratch, theta_embed, opt_embed


def _frozen_naive_epochs(ds, arch, theta, opt, seed, n_epochs, batch_size):
    train_ids = ds.train_ids()
    onehot = np.eye(ds.n_classes)[ds.observed_labels]
    for k in range(1, n_epochs + 1):
        rng = rng_for(seed, f"naive/{k}")
        order = train_ids[rng.permutation(train_ids.shape[0])]
        for ids in _batched(order, batch_size):
            _, grad = net.ce_value_grad(arch, theta, ds.features[ids], onehot[ids])
            theta, opt = net.sgd_step(theta, grad, opt, k)
    return theta, opt


class TestCeEpochFold:
    """driver._ce_epoch against the loops it replaced, under np.array_equal."""

    @pytest.mark.parametrize("batch_size", [7, 32, 200])
    def test_warmup_epoch_equals_frozen_loops(self, batch_size):
        ds, table, emb, arch_s, theta_s, arch_e, theta_e = _warmup_fixture(4)
        onehot = np.eye(ds.n_classes)[ds.observed_labels]
        soft_targets = 0.5 * table.probs + 0.5 * onehot
        sides = []
        for step in (driver.warmup_epoch, _frozen_warmup_epoch):
            state = (
                theta_s, net.make_optimizer(arch_s, 0.02, 0.9, 5e-4, 3),
                theta_e, net.make_optimizer(arch_e, 0.03, 0.9, 5e-4, 3),
            )
            for k in range(1, 6):  # crosses the learning-rate decay at epoch 3
                s_theta, s_opt, e_theta, e_opt = state
                state = step(
                    ds.features, emb, onehot, soft_targets, ds.train_ids(),
                    arch_s, s_theta, s_opt, arch_e, e_theta, e_opt,
                    k, batch_size, rng_for(9, f"warmup/{k}"),
                )
            sides.append(state)
        (new_ts, new_os, new_te, new_oe), (old_ts, old_os, old_te, old_oe) = sides
        assert np.array_equal(new_ts, old_ts) and np.array_equal(new_te, old_te)
        assert np.array_equal(new_os.velocity, old_os.velocity)
        assert np.array_equal(new_oe.velocity, old_oe.velocity)

    @pytest.mark.parametrize("batch_size", [7, 32, 200])
    def test_naive_epochs_equal_frozen_loop(self, batch_size):
        cfg = small_cfg()
        ds = driver.build_dataset(cfg)
        arch = net.Architecture((ds.dim, 8, ds.n_classes))
        theta0 = net.init_params(arch, 3)
        opt0 = net.make_optimizer(arch, 0.02, 0.9, 5e-4, 3)
        old_theta, old_opt = _frozen_naive_epochs(ds, arch, theta0, opt0, 5, 6, batch_size)
        train_ids = ds.train_ids()
        onehot = np.eye(ds.n_classes)[ds.observed_labels]
        theta, opt = theta0, opt0
        for k in range(1, 7):
            order = train_ids[rng_for(5, f"naive/{k}").permutation(train_ids.shape[0])]
            theta, opt = driver._ce_epoch(arch, theta, opt, ds.features, onehot, order, k,
                                          batch_size)
        assert np.array_equal(theta, old_theta)
        assert np.array_equal(opt.velocity, old_opt.velocity)

    def test_naive_run_equals_frozen_loop(self):
        cfg = small_cfg(method__kind="naive-ce")
        res = driver.run(cfg)
        ds = driver.build_dataset(cfg)
        theta0 = net.init_params(res.arch_scratch, driver._section_seed(None, 1, "init/scratch"))
        opt0 = net.make_optimizer(
            res.arch_scratch, cfg.optim.lr_scratch, cfg.optim.momentum, cfg.optim.weight_decay,
            cfg.optim.decay_epoch, cfg.optim.decay_factor,
        )
        old_theta, _ = _frozen_naive_epochs(
            ds, res.arch_scratch, theta0, opt0, 1, cfg.schedule.max_epoch, cfg.optim.batch_size
        )
        assert np.array_equal(res.theta_scratch, old_theta)


class TestRun:
    def test_metrics_one_row_per_epoch(self):
        res = driver.run(small_cfg())
        assert [m.epoch for m in res.metrics] == list(range(1, 25))

    def test_best_dominates_last(self):
        res = driver.run(small_cfg())
        for key in ("acc_scratch", "acc_embed", "acc_ens"):
            assert res.best[key] >= res.last[key] - 1e-12

    def test_identical_seeds_identical_parameters(self):
        r1 = driver.run(small_cfg())
        r2 = driver.run(small_cfg())
        np.testing.assert_array_equal(r1.theta_scratch, r2.theta_scratch)
        np.testing.assert_array_equal(r1.theta_embed, r2.theta_embed)

    def test_different_seed_differs(self):
        r1 = driver.run(small_cfg())
        r2 = driver.run(small_cfg(run__seed=2))
        assert not np.array_equal(r1.theta_scratch, r2.theta_scratch)

    def test_selection_counts_appear_after_start(self):
        res = driver.run(small_cfg())
        pre = [m for m in res.metrics if m.epoch < 12]
        post = [m for m in res.metrics if m.epoch >= 12]
        assert all(m.n_forget_scratch == 0 and m.n_pool == 180 for m in pre)
        assert any(m.n_pool < 180 for m in post)

    def test_unlearning_flag_zeroes_target_columns(self):
        res = driver.run(small_cfg(method__unlearning=False))
        assert all(m.n_forget_scratch == 0 and m.n_forget_embed == 0 and m.n_pool == 180 for m in res.metrics)
        assert res.forget_log == []

    def test_run_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        driver.run(small_cfg(), out)
        for name in (
            "manifest.json", "metrics.csv", "checkpoint_scratch.ckpt", "checkpoint_embed.ckpt",
            "codivide_audit.csv", "forgetting_log.csv",
        ):
            assert (out / name).exists(), name
        assert (out / "selection_epoch_0012.csv").exists()

    def test_checkpoints_load_back(self, tmp_path):
        out = tmp_path / "run"
        res = driver.run(small_cfg(), out)
        arch, theta = net.load_checkpoint(out / "checkpoint_scratch.ckpt")
        assert arch == res.arch_scratch
        np.testing.assert_array_equal(theta, res.theta_scratch)

    def test_naive_arm_runs_and_reports(self):
        res = driver.run(small_cfg(method__kind="naive-ce"))
        assert np.isnan(res.last["acc_embed"])
        assert res.last["acc_scratch"] > 0.5
        assert res.arch_embed is None

    def test_missing_test_split_rejected(self):
        with pytest.raises(ConfigurationError):
            driver.run(small_cfg(dataset__test_per_class=0))

    def test_non_finite_parameters_abort_with_epoch(self):
        from coforget.errors import StateError

        with pytest.raises(StateError, match="epoch 7"):
            driver._check_finite(7, theta=np.array([1.0, np.nan]))


class TestBisimulation:
    def test_flag_equals_start_beyond_max_epoch(self, tmp_path):
        d1 = tmp_path / "flag_off"
        d2 = tmp_path / "start_late"
        driver.run(small_cfg(method__unlearning=False), d1)
        driver.run(small_cfg(schedule__start_unlearn=25), d2)
        assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()

    def test_condition_toggles_change_only_selection(self):
        base = driver.run(small_cfg())
        no_low = driver.run(small_cfg(method__cond_low_loss=False))
        # both arms agree before the first selection epoch
        for m1, m2 in zip(base.metrics[:11], no_low.metrics[:11]):
            assert m1 == m2

    def test_acd_flag_changes_v_path_only_at_equal_seed(self):
        asym = driver.run(small_cfg())
        sym = driver.run(small_cfg(method__asymmetric=False))
        warm = [m for m in asym.metrics if m.epoch <= 3]
        warm_sym = [m for m in sym.metrics if m.epoch <= 3]
        assert warm == warm_sym


class TestDeterminismFiles:
    def test_metrics_csv_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        driver.run(small_cfg(), d1)
        driver.run(small_cfg(), d2)
        assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()
        assert (d1 / "codivide_audit.csv").read_bytes() == (d2 / "codivide_audit.csv").read_bytes()


class TestCodivideAudit:
    """codivide_audit.csv against the row-by-row formatter it replaced."""

    @staticmethod
    def _reference_audit(cfg, epochs) -> bytes:
        ds = driver.build_dataset(cfg)
        rows = []
        for k, pool_ids, res in epochs:
            for j, sample_id in enumerate(pool_ids):
                rows.append(
                    f"{k},{sample_id},{fmt_float(res.w_scratch[j])},{fmt_float(res.w_embed[j])},"
                    f"{int(res.labeled_for_scratch[j])},{int(res.labeled_for_embed[j])},"
                    f"{ds.observed_labels[sample_id]},{ds.true_labels[sample_id]}"
                )
        text = driver.CODIVIDE_HEADER + "\n" + "\n".join(rows) + ("\n" if rows else "")
        return text.encode()

    @staticmethod
    def _run_capturing(monkeypatch, cfg, out_dir):
        epochs = []
        original = coteach.coteach_epoch
        signature = inspect.signature(original)

        def capture(*args, **kwargs):
            res = original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            epochs.append((bound.arguments["epoch"], bound.arguments["pool_ids"], res))
            return res

        monkeypatch.setattr(coteach, "coteach_epoch", capture)
        return driver.run(cfg, out_dir), epochs

    @pytest.mark.parametrize("unlearning", [True, False])
    def test_matches_row_by_row_formatter(self, tmp_path, monkeypatch, unlearning):
        cfg = load_config(QUICK, [f"method.unlearning={str(unlearning).lower()}"])
        _, epochs = self._run_capturing(monkeypatch, cfg, tmp_path / "run")
        assert len(epochs) == cfg.schedule.max_epoch - cfg.schedule.warmup
        written = (tmp_path / "run" / "codivide_audit.csv").read_bytes()
        assert written == self._reference_audit(cfg, epochs)

    def test_warmup_only_run_writes_header_line(self, tmp_path, monkeypatch):
        cfg = load_config(QUICK, ["schedule.max_epoch=3", "schedule.encoder_unfreeze=3"])
        assert cfg.schedule.max_epoch <= cfg.schedule.warmup
        _, epochs = self._run_capturing(monkeypatch, cfg, tmp_path / "run")
        assert epochs == []
        written = (tmp_path / "run" / "codivide_audit.csv").read_bytes()
        assert written == (driver.CODIVIDE_HEADER + "\n").encode()
        assert written == self._reference_audit(cfg, epochs)

    def test_out_dir_does_not_change_metrics(self, tmp_path):
        cfg = load_config(QUICK)
        assert driver.run(cfg, tmp_path / "run").metrics == driver.run(cfg).metrics


class _Recompute:
    """PoolLosses without reuse: every request evaluates the network, which
    is the call pattern the pipeline had before PoolLosses existed."""

    def __init__(self, labels, nets):
        self.labels, self.nets = labels, nets

    def __call__(self, name, theta, ids):
        arch, inputs = self.nets[name]
        return net.per_sample_ce(arch, theta, inputs[ids], self.labels[ids])


class TestPoolLosses:
    @staticmethod
    def _counting(monkeypatch):
        calls = []
        original = net.per_sample_ce

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(net, "per_sample_ce", counted)
        return calls

    @staticmethod
    def _nets(seed=0):
        ds = data.make_blobs(3, 20, 4, 1.5, seed, test_per_class=5)
        arch_s, arch_e = net.Architecture((4, 8, 3)), net.Architecture((6, 8, 3))
        emb = np.random.default_rng(seed).normal(size=(ds.n, 6))
        losses = driver.PoolLosses(ds.observed_labels, {"scratch": (arch_s, ds.features),
                                                        "embed": (arch_e, emb)})
        return ds, losses, net.init_params(arch_s, seed), net.init_params(arch_e, seed + 1)

    def test_equal_parameters_and_ids_reuse_the_result(self, monkeypatch):
        ds, losses, theta_s, _ = self._nets()
        calls = self._counting(monkeypatch)
        ids = ds.train_ids()
        first = losses("scratch", theta_s, ids)
        assert losses("scratch", theta_s.copy(), ids.copy()) is first
        assert len(calls) == 1
        arch_s = net.Architecture((4, 8, 3))
        np.testing.assert_array_equal(
            first, net.per_sample_ce(arch_s, theta_s, ds.features[ids], ds.observed_labels[ids])
        )

    def test_changed_parameters_or_pool_recompute(self, monkeypatch):
        ds, losses, theta_s, theta_e = self._nets()
        calls = self._counting(monkeypatch)
        ids = ds.train_ids()
        losses("scratch", theta_s, ids)
        losses("embed", theta_e, ids)
        assert len(calls) == 2
        nudged = theta_s.copy()
        nudged[-1] = np.nextafter(nudged[-1], 1.0)
        losses("scratch", nudged, ids)
        assert len(calls) == 3
        losses("scratch", nudged, ids[1:])
        assert len(calls) == 4
        losses("scratch", nudged, ids[::-1])
        assert len(calls) == 5
        losses("embed", theta_e, ids)  # the other net's entry is its own
        assert len(calls) == 5

    def test_results_are_read_only(self):
        ds, losses, theta_s, _ = self._nets()
        out = losses("scratch", theta_s, ds.train_ids())
        with pytest.raises(ValueError):
            out[0] = 0.0

    @pytest.mark.parametrize("config", ["quick", "desk"])
    def test_fewer_evaluations_same_bytes(self, tmp_path, monkeypatch, config):
        cfg = load_config(QUICK.parent / f"{config}.yaml")
        out = tmp_path / "reuse" if config == "quick" else None
        calls = self._counting(monkeypatch)
        reused = driver.run(cfg, out)
        n_reused = len(calls)
        monkeypatch.setattr(driver, "PoolLosses", _Recompute)
        calls.clear()
        fresh = driver.run(cfg, None if out is None else tmp_path / "fresh")
        assert n_reused < len(calls)
        assert [m.csv_row() for m in reused.metrics] == [m.csv_row() for m in fresh.metrics]
        assert np.array_equal(reused.theta_scratch, fresh.theta_scratch)
        assert np.array_equal(reused.theta_embed, fresh.theta_embed)
        if out is not None:
            names = sorted(p.name for p in out.iterdir())
            assert names == sorted(p.name for p in (tmp_path / "fresh").iterdir())
            for name in names:
                assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name
