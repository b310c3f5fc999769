"""Schedule gates, warmup contract, determinism, ablation bisimulation, and
the helper process that runs the embed net's half of each co-teaching
epoch."""

import contextlib
import dataclasses
import hashlib
import inspect
import logging
import os
import re
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coforget import cli, coteach, data, driver, forget, kernels, net, oracle, selection, util
from coforget.config import RunConfig, load_config
from coforget.errors import ConfigurationError, StateError
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

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("overrides", [
        [],
        ["schedule.unlearn_duration=0"],
        ["schedule.warmup=5", "schedule.start_unlearn=6", "schedule.unlearn_period=6",
         "schedule.unlearn_duration=2"],
        ["schedule.start_unlearn=30"],
        ["schedule.start_unlearn=13"],
    ], ids=["quick", "no-duration", "bootstrap-selects", "never-selects", "forgets-before-selecting"])
    def test_written_run_follows_the_gates(self, tmp_path, monkeypatch, overrides, cpus):
        """Each net's half works the schedule out itself: a written run's
        selection audits and forgetting_log rows fall on the epochs the gates
        name, forgetting only from the first selection on (the last case's
        window opens at epoch 13, its first selection is at 18)."""
        monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
        cfg = load_config(QUICK, overrides)
        sched, out = cfg.schedule, tmp_path / "run"
        driver.run(cfg, out)
        epochs = range(sched.warmup + 1, sched.max_epoch + 1)
        selecting = [k for k in epochs if driver.gate_selection(k, sched.start_unlearn, sched.unlearn_period)]
        forgetting = [k for k in epochs if selecting and k >= selecting[0] and driver.gate_forgetting(
            k, sched.start_unlearn, sched.unlearn_period, sched.unlearn_duration)]
        assert sorted(int(path.stem.removeprefix("selection_epoch_"))
                      for path in out.glob("selection_epoch_*.csv")) == selecting
        header, *rows = (out / "forgetting_log.csv").read_text().splitlines()
        assert header == forget.KL_LOG_HEADER
        assert [row.split(",")[:2] for row in rows] == [[str(k), name] for k in forgetting
                                                         for name in driver.NETS]


def _warmup_step(feats, emb, onehot_obs, soft_targets, train_ids,
                 arch_s, theta_s, opt_s, arch_e, theta_e, opt_e, epoch, batch_size, rng):
    """driver.warmup_epoch on learners made from, and read back into, loose
    (arch, theta, opt) values."""
    scratch = coteach.Learner(arch_s, feats, theta_s, opt_s)
    embed = coteach.Learner(arch_e, emb, theta_e, opt_e)
    driver.warmup_epoch(scratch, embed, onehot_obs, soft_targets, train_ids, epoch, batch_size, rng)
    return scratch.theta, scratch.opt, embed.theta, embed.opt


def _warmup(ds, emb, table, arch_s, theta_s, opt_s, arch_e, theta_e, opt_e,
            n_epochs, batch_size, seed):
    """The whole warmup period as the pipeline runs it; zero epochs is a no-op."""
    onehot = np.eye(ds.n_classes)[ds.observed_labels]
    soft_targets = 0.5 * table.probs + 0.5 * onehot
    for k in range(1, n_epochs + 1):
        theta_s, opt_s, theta_e, opt_e = _warmup_step(
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
        for step in (_warmup_step, _frozen_warmup_epoch):
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
        learner = coteach.Learner(arch, ds.features, theta0, opt0)
        for k in range(1, 7):
            driver._ce_epoch(learner, onehot, train_ids, rng_for(5, f"naive/{k}"), k, batch_size)
        theta, opt = learner.theta, learner.opt
        assert np.array_equal(theta, old_theta)
        assert np.array_equal(opt.velocity, old_opt.velocity)

    def test_naive_run_equals_frozen_loop(self):
        cfg = small_cfg(method__kind="naive-ce")
        res = driver.run(cfg)
        (scratch,) = res.learners
        ds = driver.build_dataset(cfg)
        theta0 = net.init_params(scratch.arch, driver._section_seed(None, 1, "init/scratch"))
        opt0 = net.make_optimizer(
            scratch.arch, cfg.optim.lr_scratch, cfg.optim.momentum, cfg.optim.weight_decay,
            cfg.optim.decay_epoch, cfg.optim.decay_factor,
        )
        old_theta, _ = _frozen_naive_epochs(
            ds, scratch.arch, theta0, opt0, 1, cfg.schedule.max_epoch, cfg.optim.batch_size
        )
        assert np.array_equal(scratch.theta, old_theta)


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
        for l1, l2 in zip(r1.learners, r2.learners, strict=True):
            np.testing.assert_array_equal(l1.theta, l2.theta)

    def test_different_seed_differs(self):
        r1 = driver.run(small_cfg())
        r2 = driver.run(small_cfg(run__seed=2))
        assert not np.array_equal(r1.learners[0].theta, r2.learners[0].theta)

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
            "codivide_audit.npy", "forgetting_log.csv",
        ):
            assert (out / name).exists(), name
        assert (out / "selection_epoch_0012.csv").exists()

    def test_checkpoints_load_back(self, tmp_path):
        out = tmp_path / "run"
        res = driver.run(small_cfg(), out)
        arch, theta = net.load_checkpoint(out / "checkpoint_scratch.ckpt")
        assert arch == res.learners[0].arch
        np.testing.assert_array_equal(theta, res.learners[0].theta)

    def test_naive_arm_runs_and_reports(self):
        res = driver.run(small_cfg(method__kind="naive-ce"))
        assert np.isnan(res.last["acc_embed"])
        assert res.last["acc_scratch"] > 0.5
        assert len(res.learners) == 1

    def test_forgetting_references_are_frozen_copies(self, monkeypatch):
        """Every reference forgetting receives is read-only and equals that
        net's parameters when its selection ran; the live parameters stay
        writable."""
        learners, at_selection, references = [], {}, []
        make, select, unlearn = driver._learner, selection.unlearning_setup, forget.apply_unlearning

        def learner(*args):
            learners.append(make(*args))
            return learners[-1]

        def unlearning_setup(*args):
            at_selection["thetas"] = tuple(lrn.theta.copy() for lrn in learners)
            return select(*args)

        def apply_unlearning(arch, theta, opt, reference, plan, inputs, *args, **kwargs):
            i = next(i for i, lrn in enumerate(learners) if lrn.inputs is inputs)
            references.append((reference, at_selection["thetas"][i], np.shares_memory(reference, theta)))
            return unlearn(arch, theta, opt, reference, plan, inputs, *args, **kwargs)

        monkeypatch.setattr(driver, "_learner", learner)
        monkeypatch.setattr(selection, "unlearning_setup", unlearning_setup)
        monkeypatch.setattr(forget, "apply_unlearning", apply_unlearning)
        # every net's selection and forgetting in this process, where the
        # wrappers can see both
        monkeypatch.setattr(util, "usable_cpus", lambda: 1)
        driver.run(load_config(QUICK))
        assert len(references) > 2
        for reference, theta, shared in references:
            assert not reference.flags.writeable and not shared
            np.testing.assert_array_equal(reference, theta)
        assert all(lrn.theta.flags.writeable for lrn in learners)

    def test_missing_test_split_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError) as raised:
            driver.run(small_cfg(dataset__test_per_class=0))
        assert raised.value.field == "dataset.test_per_class"
        # a file's split is its own
        labels = np.arange(6) % 3
        path = tmp_path / "train-only.csv"
        data.save_dataset(data.Dataset(np.ones((6, 2)), labels, labels.copy(), np.zeros(6, bool), 3),
                          path)
        with pytest.raises(ConfigurationError, match="runs need test rows") as raised:
            driver.run(small_cfg(dataset__kind="file", dataset__path=str(path)))
        assert raised.value.field == "dataset.path"

    def test_selection_that_leaves_one_pool_sample_fails_its_epoch(self, monkeypatch):
        """Co-divide fits a GMM to the pool's losses, which takes two."""
        select = selection.unlearning_setup

        def keep_one(*args):
            sets, audit = select(*args)
            return dataclasses.replace(sets, retained=sets.retained[:1]), audit

        monkeypatch.setattr(selection, "unlearning_setup", keep_one)
        with pytest.raises(StateError, match="^selection at epoch 12 left 1 training pool samples, "
                                             "co-divide needs >= 2$"):
            driver.run(load_config(QUICK))

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
        assert (d1 / "codivide_audit.npy").read_bytes() == (d2 / "codivide_audit.npy").read_bytes()


class TestCodivideAudit:
    """codivide_audit.csv, as `coforget export` writes it from the run's
    codivide_audit.npy, against the row-by-row formatter the run used to
    write it with."""

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

    @staticmethod
    def _export(run_dir) -> bytes:
        assert not (run_dir / "codivide_audit.csv").exists()
        assert cli.main(["export", str(run_dir)]) == 0
        return (run_dir / "codivide_audit.csv").read_bytes()

    @pytest.mark.parametrize("unlearning", [True, False])
    def test_matches_row_by_row_formatter(self, tmp_path, monkeypatch, unlearning):
        cfg = load_config(QUICK, [f"method.unlearning={str(unlearning).lower()}"])
        _, epochs = self._run_capturing(monkeypatch, cfg, tmp_path / "run")
        assert len(epochs) == cfg.schedule.max_epoch - cfg.schedule.warmup
        assert self._export(tmp_path / "run") == self._reference_audit(cfg, epochs)

    def test_warmup_only_run_writes_header_line(self, tmp_path, monkeypatch):
        cfg = load_config(QUICK, ["schedule.max_epoch=3", "schedule.encoder_unfreeze=3"])
        assert cfg.schedule.max_epoch <= cfg.schedule.warmup
        _, epochs = self._run_capturing(monkeypatch, cfg, tmp_path / "run")
        assert epochs == []
        written = self._export(tmp_path / "run")
        assert written == (driver.CODIVIDE_HEADER + "\n").encode()
        assert written == self._reference_audit(cfg, epochs)

    def test_record_rows_are_the_filled_pool_rows(self, tmp_path):
        """The record holds one row per co-teaching epoch and pool sample,
        n_pool rows per epoch in order, and nothing else."""
        res = driver.run(load_config(QUICK), tmp_path / "run")
        rows = np.load(tmp_path / "run" / "codivide_audit.npy", allow_pickle=False)
        assert rows.dtype == driver.CODIVIDE_RECORD
        coteach_epochs = [m for m in res.metrics if m.epoch > load_config(QUICK).schedule.warmup]
        assert rows.shape == (sum(m.n_pool for m in coteach_epochs),)
        assert np.array_equal(rows["epoch"], np.repeat([m.epoch for m in coteach_epochs],
                                                       [m.n_pool for m in coteach_epochs]))

    def test_out_dir_does_not_change_metrics(self, tmp_path):
        cfg = load_config(QUICK)
        assert driver.run(cfg, tmp_path / "run").metrics == driver.run(cfg).metrics

    def test_written_run_holds_one_epochs_rows(self, tmp_path, monkeypatch):
        """A written run's traced peak (tracemalloc, serial, after one
        untraced run) grows from schedule.max_epoch 24 to 96 by less than a
        quarter of what its record grows by: each epoch's rows go to the
        record's staged file as the run goes."""
        monkeypatch.setattr(util, "usable_cpus", lambda: 1)
        driver.run(load_config(QUICK), tmp_path / "untraced")
        peaks, sizes = {}, {}
        for max_epoch in (24, 96):
            out = tmp_path / f"epochs{max_epoch}"
            tracemalloc.start()
            try:
                driver.run(load_config(QUICK, [f"schedule.max_epoch={max_epoch}"]), out)
                peaks[max_epoch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            sizes[max_epoch] = (out / "codivide_audit.npy").stat().st_size
        record_growth = sizes[96] - sizes[24]
        assert record_growth > 400 * 1024
        assert peaks[96] - peaks[24] < record_growth / 4

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("raised", [RuntimeError, KeyboardInterrupt])
    def test_run_that_raises_leaves_no_record(self, tmp_path, monkeypatch, raised, cpus):
        """A stage raises at epoch 15, after the selection of epoch 12: the
        run dir holds what it held then, the manifest and that selection's
        audit, and no record, staged or written."""
        out, real, seen = tmp_path / "run", driver._evaluate, []

        def evaluate(k, *args):
            if k == 15:
                seen.append(sorted(path.name for path in out.iterdir()))
                raise raised("stop")
            return real(k, *args)

        monkeypatch.setattr(driver, "_evaluate", evaluate)
        monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
        with pytest.raises(raised, match="stop"):
            driver.run(load_config(QUICK), out)
        assert seen == [["manifest.json", "selection_epoch_0012.csv"]]
        assert sorted(path.name for path in out.iterdir()) == seen[0]


class _LossWatch:
    """Counts net.per_sample_ce calls during a run, checks the pool losses
    each learner _learner made gives coteach_epoch against a fresh
    evaluation at that call's parameters and pool, and keeps what
    unlearning_setup receives for check_selections, with the epoch of the
    last selection gate."""

    def __init__(self, monkeypatch):
        self.evaluations = 0
        self.coteach = {}      # epoch -> (loss_scratch, loss_embed)
        self.selections = []   # (epoch, ids, theta per net, (now, prev) per net)
        self.nets = None       # ((arch, inputs) per net, observed labels)
        self.epoch = None      # the epoch driver.gate_selection last saw
        self.learners = []     # the learners driver._learner made, in NETS order
        self.ds = None         # the dataset driver.build_dataset made
        self._ce, self._coteach, self._select, self._gate, self._learner, self._build = (
            net.per_sample_ce, coteach.coteach_epoch, selection.unlearning_setup,
            driver.gate_selection, driver._learner, driver.build_dataset)
        monkeypatch.setattr(driver, "_learner", self.learner)
        monkeypatch.setattr(driver, "build_dataset", self.build_dataset)
        monkeypatch.setattr(net, "per_sample_ce", self.per_sample_ce)
        monkeypatch.setattr(coteach, "coteach_epoch", self.coteach_epoch)
        monkeypatch.setattr(selection, "unlearning_setup", self.unlearning_setup)
        monkeypatch.setattr(driver, "gate_selection", self.gate_selection)
        # its checks read both learners in this process, so the run is serial;
        # TestPoolLosses::test_helper_and_run_evaluate_as_often_as_a_serial_run
        # counts the evaluations of a run with the helper
        monkeypatch.setattr(util, "usable_cpus", lambda: 1)

    def learner(self, *args):
        self.learners.append(self._learner(*args))
        return self.learners[-1]

    def build_dataset(self, *args):
        self.ds = self._build(*args)
        return self.ds

    def gate_selection(self, k, *args):
        self.epoch = k
        return self._gate(k, *args)

    def fresh(self, arch, theta, inputs, ids):
        observed = self.nets[1]
        return self._ce(arch, theta, inputs[ids], observed[ids])

    def per_sample_ce(self, *args, **kwargs):
        self.evaluations += 1
        return self._ce(*args, **kwargs)

    def coteach_epoch(self, *args):
        pool, epoch = args[1:3]
        (scratch, embed), observed = self.learners, self.ds.observed_labels
        # what co-divide will run on: the epoch's own calls get these again
        loss_s, loss_e = (learner.losses(pool, observed) for learner in (scratch, embed))
        arch_s, x_s, theta_s = scratch.arch, scratch.inputs, scratch.theta
        arch_e, x_e, theta_e = embed.arch, embed.inputs, embed.theta
        self.nets = (((arch_s, x_s), (arch_e, x_e)), observed)
        assert np.array_equal(loss_s, self.fresh(arch_s, theta_s, x_s, pool)), epoch
        assert np.array_equal(loss_e, self.fresh(arch_e, theta_e, x_e, pool)), epoch
        self.coteach[epoch] = (loss_s.copy(), loss_e.copy())
        return self._coteach(*args)

    def unlearning_setup(self, *args):
        ids, _, pair_s, pair_e = args[:4]
        epoch = self.epoch
        self.selections.append((
            epoch, ids.copy(), tuple(learner.theta.copy() for learner in self.learners),
            tuple((now.copy(), prev.copy()) for now, prev in (pair_s, pair_e)),
        ))
        return self._select(*args)

    def check_selections(self, bootstrap_epoch):
        """Each selection's current losses are a fresh evaluation at its
        parameters on every train id; its previous losses are the previous
        selection's current ones, or on the first pass those of the bootstrap
        epoch, which its co-teaching call also received."""
        prev_nows = None
        for epoch, ids, thetas, pairs in self.selections:
            nows = tuple(now for now, _ in pairs)
            for (arch, inputs), theta, now in zip(self.nets[0], thetas, nows):
                assert np.array_equal(now, self.fresh(arch, theta, inputs, ids)), epoch
            if prev_nows is None:
                prev_nows = nows if epoch == bootstrap_epoch else self.coteach[bootstrap_epoch]
            for (_, prev), expected in zip(pairs, prev_nows):
                assert np.array_equal(prev, expected), epoch
            prev_nows = nows

    def uses(self, n_epochs):
        """Loss arrays the run consumed: two per co-teaching epoch, selection
        and epoch-end metric row."""
        return 2 * (len(self.coteach) + len(self.selections) + n_epochs)


class TestPoolLosses:
    """The pool losses co-divide, selection and the metric row get are the
    ones a fresh evaluation gives, and each is evaluated once per parameter
    or pool change, not once per use. The counts are those of the pipeline
    that cached losses by value and of the driver that then tracked their
    staleness itself, on the same runs; each learner's memo now holds them."""

    @pytest.mark.parametrize("config", ["quick", "desk"])
    def test_fewer_evaluations_same_bytes(self, monkeypatch, config):
        cfg = load_config(QUICK.parent / f"{config}.yaml")
        watch = _LossWatch(monkeypatch)
        driver.run(cfg)
        sched = cfg.schedule
        watch.check_selections(max(sched.start_unlearn - sched.unlearn_period, sched.warmup + 1))
        assert watch.selections
        assert watch.evaluations == {"quick": 66, "desk": 368}[config]
        assert watch.evaluations < watch.uses(sched.max_epoch)

    @pytest.mark.parametrize("override, evaluations", [
        ("method.unlearning=false", 48),
        ("method.kind=naive-ce", 24),
    ])
    def test_evaluations_without_unlearning(self, monkeypatch, override, evaluations):
        watch = _LossWatch(monkeypatch)
        driver.run(load_config(QUICK, overrides=[override]))
        assert watch.selections == []
        assert watch.evaluations == evaluations

    def test_selection_that_keeps_every_train_id_keeps_the_losses(self, monkeypatch):
        """With p_low = p_drop = 0 no sample is a target, so each selection
        retains a new array equal to the train ids and no net forgets: the
        run evaluates as often as one without unlearning."""
        watch = _LossWatch(monkeypatch)
        driver.run(load_config(QUICK, overrides=["method.p_low=0", "method.p_drop=0"]))
        assert [epoch for epoch, *_ in watch.selections] == [12, 18, 24]
        assert watch.evaluations == 48

    def test_skipped_update_keeps_that_nets_losses(self, monkeypatch):
        real = coteach.co_divide
        monkeypatch.setattr(coteach, "co_divide", lambda *args: (
            real(*args)[0], np.zeros(np.shape(args[0]), bool),
        ))
        watch = _LossWatch(monkeypatch)
        driver.run(load_config(QUICK, overrides=["method.unlearning=false"]))
        # both nets after each of 3 warmup epochs, then only the scratch net
        # after each of the 21 co-teaching epochs
        assert watch.evaluations == 2 * 3 + 21

    def test_bootstrap_on_first_selection_epoch_has_zero_loss_drop(self, tmp_path, monkeypatch):
        cfg = load_config(QUICK, overrides=[
            "schedule.warmup=5", "schedule.start_unlearn=6",
            "schedule.unlearn_period=6", "schedule.unlearn_duration=2",
        ])
        watch = _LossWatch(monkeypatch)
        driver.run(cfg, tmp_path / "run")
        watch.check_selections(bootstrap_epoch=6)
        assert watch.selections[0][0] == 6
        assert watch.evaluations == 74
        with open(tmp_path / "run" / "selection_epoch_0006.csv") as fh:
            header = fh.readline().rstrip("\n").split(",")
            rows = np.loadtxt(fh, delimiter=",", dtype=np.int64)
        drop = [header.index("loss_drop_scratch"), header.index("loss_drop_embed")]
        assert rows.shape == (180, 8)
        assert not rows[:, drop].any()
        assert rows[:, header.index("low_loss_scratch")].any()

    @pytest.mark.parametrize("overrides, evaluations", [
        ([], 66),
        (["method.unlearning=false"], 48),
        (["method.p_low=0", "method.p_drop=0"], 48),
        (["skip-embed", "method.unlearning=false"], 27),
        (["schedule.warmup=5", "schedule.start_unlearn=6", "schedule.unlearn_period=6",
          "schedule.unlearn_duration=2"], 74),
        (["desk"], 368),
    ], ids=["quick", "unlearning-off", "keep-every-id", "skipped-update", "bootstrap", "desk"])
    def test_helper_and_run_evaluate_as_often_as_a_serial_run(self, tmp_path, monkeypatch,
                                                              overrides, evaluations):
        """With the helper each net's losses are evaluated in the process
        that owns it; the two processes' counts sum to the serial counts of
        the tests above, each process appending one line per evaluation."""
        log, here, ce = tmp_path / "evaluations", os.getpid(), net.per_sample_ce

        def per_sample_ce(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return ce(*args)

        monkeypatch.setattr(net, "per_sample_ce", per_sample_ce)
        monkeypatch.setattr(util, "usable_cpus", lambda: 2)
        if "skip-embed" in overrides:
            real = coteach.co_divide
            monkeypatch.setattr(coteach, "co_divide", lambda *args: (
                real(*args)[0], np.zeros(np.shape(args[0]), bool),
            ))
        config = QUICK.parent / ("desk.yaml" if "desk" in overrides else "quick.yaml")
        driver.run(load_config(config, [o for o in overrides if "=" in o]))
        pids = log.read_text().split()
        assert len(pids) == evaluations
        # the helper's, but for the skipped run, whose embed net never changes
        assert len(set(pids)) == (1 if "skip-embed" in overrides else 2) and str(here) in pids


def _children() -> set:
    """The pids of this process's child processes."""
    tasks = Path(f"/proc/{os.getpid()}/task")
    return {int(pid) for task in tasks.iterdir() for pid in (task / "children").read_text().split()}


def _dir_bytes(path) -> dict:
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*"))}


class TestHelper:
    """With a second usable CPU a forked helper process runs the embed net's
    half of each co-teaching epoch: the same bytes, log and errors as a run
    that runs both halves here, and no helper outlives its run, however the
    run ends."""

    @staticmethod
    def _fits_here(monkeypatch, each=lambda n: None) -> list:
        """The losses of each fit_gmm_1d call made in this process, after
        each(number of such calls) ran; the helper inherits the wrapper but
        counts its own calls."""
        here, real, fits = os.getpid(), coteach.fit_gmm_1d, []

        def fit(losses):
            if os.getpid() == here:
                fits.append(losses)
                each(len(fits))
            return real(losses)

        monkeypatch.setattr(coteach, "fit_gmm_1d", fit)
        return fits

    @pytest.mark.parametrize("config, override", [
        pytest.param(config, override, id=f"{config}-{name}")
        for config in ("quick", "desk")
        for name, override in (("true", "method.unlearning=true"),
                               ("false", "method.unlearning=false"),
                               ("asymmetric-false", "method.asymmetric=false"))
        if config == "quick" or "unlearning" in override
    ])
    def test_helper_and_serial_runs_write_the_same_bytes(self, tmp_path, monkeypatch, config,
                                                         override):
        cfg = load_config(QUICK.parent / f"{config}.yaml", [override])
        fits = self._fits_here(monkeypatch)
        dirs, fits_here = {}, {}
        for cpus in (2, 1):
            monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
            dirs[cpus] = _dir_bytes(driver.run(cfg, tmp_path / f"cpus{cpus}").out_dir)
            fits_here[cpus] = len(fits)
            fits.clear()
        epochs = cfg.schedule.max_epoch - cfg.schedule.warmup
        assert fits_here == {2: epochs, 1: 2 * epochs}
        assert dirs[2] == dirs[1] and Path("metrics.csv") in dirs[1]

    def test_skipped_update_writes_the_same_bytes_and_log(self, tmp_path, monkeypatch, caplog):
        """A co-divide that gives the embed net no labeled samples: the run's
        process logs the helper's skipped updates as a serial run does."""
        real = coteach.co_divide
        monkeypatch.setattr(coteach, "co_divide", lambda *args: (
            real(*args)[0], np.zeros(np.shape(args[0]), bool),
        ))
        cfg = load_config(QUICK, ["method.unlearning=false"])
        dirs, logs = {}, {}
        for cpus in (2, 1):
            monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="coforget"):
                dirs[cpus] = _dir_bytes(driver.run(cfg, tmp_path / f"cpus{cpus}").out_dir)
            logs[cpus] = [(r.levelname, r.getMessage()) for r in caplog.records]
        epochs = cfg.schedule.max_epoch - cfg.schedule.warmup
        skips = [("WARNING", f"epoch {k}: no labeled samples for embedding net, skipping its update")
                 for k in range(cfg.schedule.warmup + 1, cfg.schedule.max_epoch + 1)]
        assert [r for r in logs[1] if r[0] == "WARNING"] == skips and len(skips) == epochs
        assert logs[2] == logs[1]
        assert dirs[2] == dirs[1]

    def test_embed_half_failure_gives_the_serial_error(self, tmp_path, monkeypatch, capsys):
        """The embed net's learning rate overflows once it decays at epoch 5
        (the scratch net's stays small): its end-of-epoch check fails in the
        helper, and the run prints the serial run's error line and exit code."""
        overrides = ["--override", "optim.decay_epoch=5", "--override", "optim.decay_factor=1.0e+300",
                     "--override", "optim.lr_scratch=1.0e-300"]
        outcomes = {}
        for cpus in (2, 1):
            monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
            before = _children()
            rc = cli.main(["train", "--config", str(QUICK), *overrides,
                           "--outdir", str(tmp_path / f"cpus{cpus}")])
            outcomes[cpus] = rc, capsys.readouterr().err
            assert _children() == before
            assert not (tmp_path / f"cpus{cpus}" / "metrics.csv").exists()
        assert outcomes[2] == outcomes[1] == (
            2, "error: non-finite values in theta_embed at epoch 5; aborting run\n")
        monkeypatch.setattr(util, "usable_cpus", lambda: 2)
        with pytest.raises(StateError) as raised:
            driver.run(load_config(QUICK, [o for o in overrides if o != "--override"]))
        assert isinstance(raised.value.__cause__, util._RemoteTraceback)

    @pytest.mark.parametrize("asymmetric", [True, False], ids=["asymmetric", "symmetric"])
    def test_each_half_advances_right_behind_its_training(self, monkeypatch, asymmetric):
        """Each half gets ("head", k) once, then only select, train and
        advance items, and each epoch's advance goes out right behind its
        train, before this process reads a train reply the half's advance
        does not wait on: so the helper goes on to its next stages while this
        process trains the scratch net. The symmetric arm's embed net trains
        on the trained scratch net, so only its own advance can follow that
        read."""
        events = []  # (what, the half's name, the item's stage and epoch)

        def logged(name, submit):
            def send(item):
                events.append(("submit", name, item[:2]))
                reply = submit(item)

                def read():
                    events.append(("read", name, item[:2]))
                    return reply()
                return read
            return send

        in_process, server = driver._in_process, util.forked_server

        @contextlib.contextmanager
        def forked_server(half):
            with server(half) as submit:
                yield logged(half.name, submit)

        monkeypatch.setattr(driver, "_in_process", lambda half: logged(half.name, in_process(half)))
        monkeypatch.setattr(util, "forked_server", forked_server)
        monkeypatch.setattr(util, "usable_cpus", lambda: 2)
        cfg = load_config(QUICK, [f"method.asymmetric={str(asymmetric).lower()}"])
        driver.run(cfg)
        sched = cfg.schedule
        epochs = range(sched.warmup + 1, sched.max_epoch + 1)
        for name in driver.NETS:
            sent = [item for what, half, item in events if what == "submit" and half == name]
            assert sent[0] == ("head", sched.warmup + 1)
            assert {stage for stage, _ in sent[1:]} == {"select", "train", "advance"}
            trains = [i for i, item in enumerate(sent) if item[0] == "train"]
            assert [sent[i] for i in trains] == [("train", k) for k in epochs]
            assert [sent[i + 1] for i in trains] == [("advance", k) for k in epochs]
        for k in epochs:
            first_read = next(i for i, e in enumerate(events) if e[0] == "read" and e[2] == ("train", k))
            for name in driver.NETS if asymmetric else ("scratch",):
                assert events.index(("submit", name, ("advance", k))) < first_read, (name, k)

    @pytest.mark.parametrize("max_epoch", [24, 3], ids=["coteaching", "warmup-only"])
    def test_helper_forks_at_the_first_coteaching_epoch(self, monkeypatch, max_epoch):
        """No child runs during warmup, and a run without a co-teaching
        epoch forks none."""
        before, seen, warmup = _children(), [], driver.warmup_epoch
        forks, server = [], util.forked_server

        def watched(*args):
            seen.append(_children() - before)
            return warmup(*args)

        def forked_server(fn):
            forks.append(fn)
            return server(fn)

        monkeypatch.setattr(driver, "warmup_epoch", watched)
        monkeypatch.setattr(util, "forked_server", forked_server)
        monkeypatch.setattr(util, "usable_cpus", lambda: 2)
        cfg = load_config(QUICK, [f"schedule.max_epoch={max_epoch}", "schedule.encoder_unfreeze=3"])
        driver.run(cfg)
        assert seen == [set()] * cfg.schedule.warmup
        assert len(forks) == (max_epoch > cfg.schedule.warmup)
        assert _children() == before

    def test_helper_killed_mid_run_fails_the_run(self, tmp_path, monkeypatch):
        here, real, calls = os.getpid(), coteach.fit_gmm_1d, []

        def fit(losses):
            if os.getpid() != here:
                calls.append(1)  # the helper's own list
                if len(calls) == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
            return real(losses)

        monkeypatch.setattr(coteach, "fit_gmm_1d", fit)
        monkeypatch.setattr(util, "usable_cpus", lambda: 2)
        before = _children()
        with pytest.raises(StateError, match="helper process died"):
            driver.run(load_config(QUICK), tmp_path / "run")
        assert _children() == before
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("raised", [None, RuntimeError, KeyboardInterrupt],
                             ids=["completes", "stage-raises", "interrupted"])
    def test_no_helper_outlives_its_run(self, monkeypatch, raised):
        """A stage raises in this process's fit of epoch 5 of co-teaching,
        while the helper holds the embed net's half of that epoch."""
        before, alive = _children(), []

        def each(n):
            alive.append(_children() - before)
            if raised and n == 5:
                raise raised("stop")

        self._fits_here(monkeypatch, each)
        monkeypatch.setattr(util, "usable_cpus", lambda: 2)
        if raised:
            with pytest.raises(raised, match="stop"):
                driver.run(load_config(QUICK))
        else:
            driver.run(load_config(QUICK))
        assert alive and all(len(pids) == 1 for pids in alive)
        assert _children() == before


# SHA-256 of every file of quick.yaml seed-1 run dirs, per override, as the
# numpy backend writes them. A refactor that keeps the run byte for byte
# keeps these; a deliberate output change updates them and says so.
GOLDEN_QUICK_SEED1 = {
    "method.unlearning=true": {
        "checkpoint_embed.ckpt": "bcc9e21aa6e14b059ab037ec086a2f50dfff739c1a576439402631344944b232",
        "checkpoint_scratch.ckpt": "631fe6e312813abe701b25da70e957be983cd14fdfb99fdd3e814592de8da5a2",
        "codivide_audit.npy": "6502eb302488eaae60b96b78990cbc8cef285d75d4ce51069005152c509b1226",
        "forgetting_log.csv": "74e830feb4db45a256816100934a565ae8450ccbf0f6ffb8d2dbff9874ce04f0",
        "manifest.json": "e3b69f768cee61670fbe10d51d5768d28724b688364dd90b12632bacc34b7a5e",
        "metrics.csv": "7c04837bbdfbccd80d830899d327065f8b0b731833a542ddc4b7f03e9218bc24",
        "selection_epoch_0012.csv": "6ed4d587ba39e33fb338f0d8fa1b8257d731eb3dcb7aeb17363f25bcb92ce627",
        "selection_epoch_0018.csv": "afbbb95191fdf1ac94ef746b7ce266093a0d05498a62a3c5db6e0d8f3b7314ea",
        "selection_epoch_0024.csv": "de25dea595dbac5547133ad0faef532d35d7cbaae06fb1d5ee5ea2f009d0df6a",
    },
    "method.unlearning=false": {
        "checkpoint_embed.ckpt": "b33fc01b472ca8283e7ea07d57af353b6de8bc83c0de0bf6f627877ccc755dfe",
        "checkpoint_scratch.ckpt": "6f76162cc67de5fd490d7a2d08f5652401491455076716c12a2dc9b7c6570025",
        "codivide_audit.npy": "2b0488d4dfa11b99158f31fe3707b33357e5d41e3709c3623f6656991dc8fed1",
        "forgetting_log.csv": "fa4644cb9689b9275857ff97a444bff01f8553e626a8a7d216cb507cf4613543",
        "manifest.json": "aa728d6ed3125de2030e0437402c55893cca733c8cee00eb06bb36ee9aeb4415",
        "metrics.csv": "9f7deda8c120fd4a39b63dfbbc9634cc5532948a6565111137c57e7b6e5967d5",
    },
    "method.kind=naive-ce": {
        "checkpoint_scratch.ckpt": "f0cfeef53e8fe0b90e19a1faac18ec170ade736dc9b7f9a4afaf1f23e8b31af6",
        "manifest.json": "99bfaf63e36cf874dcd4ee2bd33fee479af596733a9e37076092407345476dd5",
        "metrics.csv": "26fbdf2f3599eb54a3b74f6bca40c9df92d164f1b572791eb4a20b11b85198c1",
    },
    "method.asymmetric=false": {
        "checkpoint_embed.ckpt": "c1a6e8d03ba5bad3881daa749a3866e500477e692c5a28f9adcf3fa4f52829b5",
        "checkpoint_scratch.ckpt": "016bbd11430389cacbf5d346238255b8a777461144b981d1894c2049830b39ee",
        "codivide_audit.npy": "034ea76ffdbb5a7a595a87f8396ba01f86f24efb04c2e2f46af898b7d8e4289c",
        "forgetting_log.csv": "7e1234eb4ab6835c1ae64fb5309b40b42bdcfcda246ecf8be7f5c4c6b3d8f270",
        "manifest.json": "6ca2f7a170f3679a2a147501da34a08671dface068a1e17d0d01d6ab3bea4c8e",
        "metrics.csv": "cac4d3588556195e0f0abb092b3721928a164b361a0f3701939765ac58dbde96",
        "selection_epoch_0012.csv": "4bae00ae7c2f9697d8e63cf68aa245f75f984ed9e743633c8528cf135aba4d76",
        "selection_epoch_0018.csv": "4a4f9a39d885490cf9cd3b9ff97e073022d2c5677668e26aa3bda4f85759b6cc",
        "selection_epoch_0024.csv": "432f09fb0829fd41d773127649a8c188713794380658b9f7ae4a482ad02a2702",
    },
    "method.cond_oracle=false": {
        "checkpoint_embed.ckpt": "f34b8c187b76cbec3a3480b7eb72d454225e46f5437d49137e5f8b36e95c19ea",
        "checkpoint_scratch.ckpt": "76d1083061352da9e3ecd6af746020257b6660a8b8453f630efe17a2c7287c64",
        "codivide_audit.npy": "8053f8eb56c68df970a74a920827680f02ae0f11273f5dd6e6b02a3ac2843f6d",
        "forgetting_log.csv": "508a69ea657575b86296d5e0f22ba616ff641ee330793548d6ce8d0ab9c83b14",
        "manifest.json": "e747e064e25197bacee8709d0418b7f7f43df169d17f4f62fd0606389c0fb13c",
        "metrics.csv": "732fcb3f7d76642c81af5e61a02c7d4fe1eac52b3777d80aa49122d865cde9fc",
        "selection_epoch_0012.csv": "476c4158736bab45f0461e44a79061c81631db90624e450fec03d7a37fac0b3e",
        "selection_epoch_0018.csv": "220ddfb514e09548aa02cf4c21414fd8b7a232c8136d5802b301866f2b200d47",
        "selection_epoch_0024.csv": "be7320016c1444dd493abd8a9002a7ab68869b3ae32906b81a0e175f0a1ec64e",
    },
    # the embed net's adapter still frozen through the forgetting of epochs
    # 12-14: the only golden that covers its frozen prefix there
    "schedule.encoder_unfreeze=16": {
        "checkpoint_embed.ckpt": "7ca905a438f438c40712131292e518aed167304e97d26da6237de742f07f7c18",
        "checkpoint_scratch.ckpt": "29a21ae42eb5c935306078b7093571b098608bf80da93ba4da7108ffc6cb09f0",
        "codivide_audit.npy": "feeab5ef0ecab24c13937f950ec1f807a23cbcb448e37453188f9771a58fa8da",
        "forgetting_log.csv": "1f6044120aa7b488f892aa2e04101d6fab47d359d36e9ecb1cf4dc4d172347f0",
        "manifest.json": "2cc79ca857fcec363e801f0b551fb77dc904b7028b3b3f10035d2d45e63a9761",
        "metrics.csv": "515ace89ff5abb3f2e0cf04d3ed7ef417e3890ef3c750d4487ce8047c9bca5ad",
        "selection_epoch_0012.csv": "405dd244ea4f82e46049d04d566c3c250f6375fc55c15d25db934d3117f6dc56",
        "selection_epoch_0018.csv": "80d25d264e1581f702e9af511dba0054a7cdc2424e2751cf6795cb97d9c4783c",
        "selection_epoch_0024.csv": "b22aa895582ae755cf797ff36f444db6a4130a6e8c3444cb6c216b8bd796b0e3",
    },
}


# SHA-256 of codivide_audit.csv of the same run dirs, which the run wrote
# itself before codivide_audit.npy replaced it and `coforget export` now
# writes from the record.
GOLDEN_QUICK_SEED1_EXPORT = {
    "method.unlearning=true": "967e79bc9f5b49f639d37e285f392a015577e38aa58aaa286b8ab3bdb133e573",
    "method.unlearning=false": "26aa332e1c0e44918e49acea768c23cad8656e8a677a42e58e7ced38ca10eb7b",
    "method.asymmetric=false": "7a73eb5310f2ddd57d3ba8758bac570a6f1cbba557a9c793e5baa7b1af45974d",
    "method.cond_oracle=false": "1106f7c0aaf97bdba5ffe4d158e9522008ce21fa8df1063aff53b6d2fc731daa",
}


@pytest.fixture(scope="module")
def quick_seed1_dirs(tmp_path_factory):
    """The run dir of quick.yaml seed 1 under each GOLDEN_QUICK_SEED1 override;
    tests read them and write nothing into them."""
    root = tmp_path_factory.mktemp("quick_seed1")
    dirs = {}
    for i, override in enumerate(sorted(GOLDEN_QUICK_SEED1)):
        dirs[override] = root / f"run{i}"
        driver.run(load_config(QUICK, ["run.seed=1", override]), dirs[override])
    return dirs


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(kernels.BACKEND != "numpy", reason="digests pinned for the numpy backend")
@pytest.mark.parametrize("override", sorted(GOLDEN_QUICK_SEED1))
def test_quick_seed1_run_dir_golden_bytes(quick_seed1_dirs, override):
    digests = {p.name: _digest(p) for p in quick_seed1_dirs[override].iterdir()}
    assert digests == GOLDEN_QUICK_SEED1[override]


@pytest.mark.skipif(kernels.BACKEND != "numpy", reason="digests pinned for the numpy backend")
@pytest.mark.parametrize("override", sorted(GOLDEN_QUICK_SEED1_EXPORT))
def test_quick_seed1_export_golden_bytes(quick_seed1_dirs, tmp_path, override):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "codivide_audit.npy").write_bytes(
        (quick_seed1_dirs[override] / "codivide_audit.npy").read_bytes())
    assert cli.main(["export", str(run_dir)]) == 0
    assert _digest(run_dir / "codivide_audit.csv") == GOLDEN_QUICK_SEED1_EXPORT[override]
    assert sorted(p.name for p in run_dir.iterdir()) == ["codivide_audit.csv", "codivide_audit.npy"]


def _readme_run_files() -> set:
    """The file names in README's "Run directory" table, per-epoch names
    with their epoch as NNNN."""
    text = (QUICK.parent.parent / "README.md").read_text()
    section = text.split("\n## Run directory\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    return {name for cell in rows for name in re.findall(r"`([^`]+)`", cell)}


def test_readme_run_directory_table_names_every_run_file(quick_seed1_dirs):
    """README's run-directory table names every file a run dir holds, with
    unlearning on and off and on the naive-ce arm, and no other file."""
    written = {re.sub(r"\d{4}", "NNNN", p.name)
               for override in ("method.unlearning=true", "method.unlearning=false",
                                "method.kind=naive-ce")
               for p in quick_seed1_dirs[override].iterdir()}
    assert _readme_run_files() == written
