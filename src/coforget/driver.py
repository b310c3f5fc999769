"""Full training schedule: warmup, preparation, and the periodic
select -> forget -> co-teach cycle, with per-epoch metrics and audit trails.

Epoch k (1-based) runs warmup while k <= warmup; afterwards each epoch may
(re)select forgetting targets, apply a forgetting pass, and always runs one
co-teaching epoch on the current retained pool (the full train set before
the first selection). The two networks are the "scratch" net (an MLP on raw
features) and the "embed" net (adapter plus head over the fixed oracle
embeddings).
"""

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, coteach, data, forget, kernels, net, oracle, selection
from .config import RunConfig, validate_config
from .errors import ConfigurationError, StateError
from .util import fmt_float, rng_for

logger = logging.getLogger("coforget")

METRICS_HEADER = (
    "epoch,acc_scratch,acc_embed,acc_ens,train_loss_scratch,train_loss_embed,"
    "n_forget_scratch,n_forget_embed,n_pool,hn,ln,cs"
)
CODIVIDE_HEADER = "epoch,id,w_scratch,w_embed,labeled_scratch,labeled_embed,observed,true"
CODIVIDE_DTYPE = np.dtype([
    ("id", np.int64), ("w_scratch", np.float64), ("w_embed", np.float64),
    ("labeled_scratch", np.bool_), ("labeled_embed", np.bool_),
])
CLEAN_JUDGE_THRESHOLD = 0.5  # selection-quality accounting, independent of tau_w
LAST_WINDOW = 10
ACC_KEYS = ("acc_scratch", "acc_embed", "acc_ens")


def gate_selection(k: int, e_start: int, e_up: int) -> bool:
    """Selection fires every e_up epochs once the unlearning stage begins."""
    if k < 1:
        raise ConfigurationError(f"epochs are 1-based, got {k}")
    return k >= e_start and k % e_up == 0


def gate_forgetting(k: int, e_start: int, e_up: int, e_ud: int) -> bool:
    """Forgetting runs on the selection epoch and the e_ud epochs after it."""
    if k < 1:
        raise ConfigurationError(f"epochs are 1-based, got {k}")
    return k >= e_start and k % e_up <= e_ud


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    acc_scratch: float
    acc_embed: float
    acc_ens: float
    train_loss_scratch: float
    train_loss_embed: float
    n_forget_scratch: int
    n_forget_embed: int
    n_pool: int
    hn: int
    ln: int
    cs: int

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.epoch),
                fmt_float(self.acc_scratch),
                fmt_float(self.acc_embed),
                fmt_float(self.acc_ens),
                fmt_float(self.train_loss_scratch),
                fmt_float(self.train_loss_embed),
                str(self.n_forget_scratch),
                str(self.n_forget_embed),
                str(self.n_pool),
                str(self.hn),
                str(self.ln),
                str(self.cs),
            ]
        )


@dataclass
class RunResult:
    metrics: list
    best: dict
    last: dict
    arch_scratch: net.Architecture
    theta_scratch: np.ndarray
    arch_embed: net.Architecture | None
    theta_embed: np.ndarray | None
    forget_log: list
    out_dir: Path | None


def best_last(metrics) -> tuple:
    """Best and Last accuracies of a list of EpochMetrics."""
    return best_last_columns({key: [getattr(m, key) for m in metrics] for key in ACC_KEYS})


def best_last_columns(columns) -> tuple:
    """Best = max over epochs; Last = mean over the final LAST_WINDOW epochs.

    columns maps each name in ACC_KEYS to its per-epoch accuracies; an
    all-NaN column (an arm without that network) gives NaN for both.
    """
    best, last = {}, {}
    for key in ACC_KEYS:
        vals = np.asarray(columns[key], dtype=np.float64)
        if np.all(np.isnan(vals)):
            best[key], last[key] = float("nan"), float("nan")
        else:
            best[key] = float(np.nanmax(vals))
            last[key] = float(np.nanmean(vals[-LAST_WINDOW:]))
    return best, last


# ---------------------------------------------------------------------------
# run assembly
# ---------------------------------------------------------------------------


def _section_seed(section_seed, run_seed: int, tag: str) -> int:
    if section_seed is not None:
        return int(section_seed)
    return int(rng_for(run_seed, tag).integers(0, 2**31 - 1))


def build_dataset(cfg: RunConfig) -> data.Dataset:
    dcfg, ncfg = cfg.dataset, cfg.noise
    if dcfg.kind == "file":
        ds = data.load_dataset(dcfg.path)
    else:
        ds = data.make_blobs(
            dcfg.classes,
            dcfg.per_class,
            dcfg.dim,
            dcfg.spread,
            _section_seed(dcfg.seed, cfg.run.seed, "dataset"),
            test_per_class=dcfg.test_per_class,
        )
    noise_seed = _section_seed(ncfg.seed, cfg.run.seed, "noise")
    if ncfg.kind == "none":
        return ds
    if ncfg.kind == "symmetric":
        t = data.symmetric_matrix(ds.n_classes, ncfg.eta)
        return data.inject_noise(ds, t, noise_seed)
    if ncfg.kind == "asymmetric":
        t = data.asymmetric_matrix(ds.n_classes, ncfg.eta, ncfg.pair_map)
        return data.inject_noise(ds, t, noise_seed)
    return data.instance_noise(ds, ncfg.eta, noise_seed)


def build_oracle(cfg: RunConfig, ds: data.Dataset) -> oracle.OracleTable:
    ocfg = cfg.oracle
    if ocfg.kind == "file":
        table = oracle.load_oracle_file(ocfg.path, expected_ids=range(ds.n))
        if table.n_classes != ds.n_classes:
            raise ConfigurationError(
                f"oracle file has {table.n_classes} classes, dataset has {ds.n_classes}"
            )
        return table
    return oracle.synthetic_oracle(
        ds, ocfg.accuracy, ocfg.confidence, _section_seed(ocfg.seed, cfg.run.seed, "oracle")
    )


def _accuracy(arch, theta, x, labels) -> float:
    probs = net.predict_proba(arch, theta, x)
    return float((probs.argmax(axis=1) == labels).mean())


def _ce_epoch(arch, theta, opt, inputs, targets, order, epoch, batch_size, frozen_prefix=0):
    """One pass of batch-mean soft-target CE steps over the ids in order,
    batch_size at a time; the first frozen_prefix parameters stay put."""
    for i in range(0, order.shape[0], batch_size):
        ids = order[i:i + batch_size]
        _, grad = net.ce_value_grad(arch, theta, inputs[ids], targets[ids])
        theta, opt = net.sgd_step(theta, grad, opt, epoch, frozen_prefix)
    return theta, opt


def warmup_epoch(feats, emb, onehot_obs, soft_targets, train_ids,
                 arch_scratch, theta_scratch, opt_scratch,
                 arch_embed, theta_embed, opt_embed, epoch, batch_size, rng):
    """One warmup epoch: the scratch net learns the observed labels, the
    embed net learns oracle/label-blend soft targets with its first layer
    (the adapter) frozen."""
    order = train_ids[rng.permutation(train_ids.shape[0])]
    theta_scratch, opt_scratch = _ce_epoch(
        arch_scratch, theta_scratch, opt_scratch, feats, onehot_obs, order, epoch, batch_size
    )
    order = train_ids[rng.permutation(train_ids.shape[0])]
    theta_embed, opt_embed = _ce_epoch(
        arch_embed, theta_embed, opt_embed, emb, soft_targets, order, epoch, batch_size,
        frozen_prefix=arch_embed.first_layer_params(),
    )
    return theta_scratch, opt_scratch, theta_embed, opt_embed


class PoolLosses:
    """Per-sample cross-entropy of each network's observed labels on a set
    of ids, for the metrics, the co-divide and the selection trajectory.

    The last result per network is kept and returned again while its
    parameters and ids are equal by value: the end-of-epoch metric losses
    on the pool are the next co-teaching epoch's co-divide inputs whenever
    no selection or forgetting step ran in between. Returned arrays are
    read-only, because every caller shares them.
    """

    def __init__(self, labels, nets):
        self._labels = labels
        self._nets = nets  # network name -> (arch, inputs)
        self._last = {}

    def __call__(self, name, theta, ids):
        last = self._last.get(name)
        if last is not None and np.array_equal(last[0], theta) and np.array_equal(last[1], ids):
            return last[2]
        arch, inputs = self._nets[name]
        losses = net.per_sample_ce(arch, theta, inputs[ids], self._labels[ids])
        losses.flags.writeable = False
        self._last[name] = (theta.copy(), ids.copy(), losses)
        return losses


def _check_finite(epoch, **arrays):
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise StateError(f"non-finite values in {name} at epoch {epoch}; aborting run")


def run(cfg: RunConfig, out_dir=None) -> RunResult:
    """Execute one full run; writes metrics/audit/checkpoint files when
    out_dir is given and returns everything in memory either way."""
    validate_config(cfg)
    ds = build_dataset(cfg)
    if ds.test_ids().shape[0] == 0:
        raise ConfigurationError("runs need a test split (dataset.test_per_class >= 1)")
    # every input file is read before the run directory is made, so a bad
    # one leaves no directory behind
    naive = cfg.method.kind == "naive-ce"
    oracle_table = None if naive else build_oracle(cfg, ds)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        manifest = {
            "config": cfg.to_dict(),
            "config_hash": cfg.config_hash(),
            "seed": cfg.run.seed,
            "backend": kernels.BACKEND,
            "version": __version__,
        }
        (out_path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    if naive:
        result = _run_naive(cfg, ds, out_path)
    else:
        result = _run_pipeline(cfg, ds, oracle_table, out_path)

    if out_path is not None:
        with open(out_path / "metrics.csv", "w", newline="\n") as fh:
            fh.write(METRICS_HEADER + "\n")
            for row in result.metrics:
                fh.write(row.csv_row() + "\n")
    return result


def _run_naive(cfg: RunConfig, ds: data.Dataset, out_path) -> RunResult:
    """Baseline arm: plain supervised cross-entropy on the observed labels."""
    seed = cfg.run.seed
    train_ids, test_ids = ds.train_ids(), ds.test_ids()
    arch = net.Architecture((ds.dim, *cfg.net_scratch.hidden, ds.n_classes),
                            cfg.net_scratch.activation)
    theta = net.init_params(arch, _section_seed(None, seed, "init/scratch"))
    opt = net.make_optimizer(
        arch, cfg.optim.lr_scratch, cfg.optim.momentum, cfg.optim.weight_decay,
        cfg.optim.decay_epoch, cfg.optim.decay_factor,
    )
    onehot = np.eye(ds.n_classes)[ds.observed_labels]
    metrics = []
    for k in range(1, cfg.schedule.max_epoch + 1):
        rng = rng_for(seed, f"naive/{k}")
        order = train_ids[rng.permutation(train_ids.shape[0])]
        theta, opt = _ce_epoch(arch, theta, opt, ds.features, onehot, order, k, cfg.optim.batch_size)
        _check_finite(k, theta=theta)
        acc = _accuracy(arch, theta, ds.features[test_ids], ds.true_labels[test_ids])
        loss = float(
            net.per_sample_ce(
                arch, theta, ds.features[train_ids], ds.observed_labels[train_ids]
            ).mean()
        )
        metrics.append(
            EpochMetrics(k, acc, float("nan"), acc, loss, float("nan"),
                         0, 0, train_ids.shape[0], 0, 0, 0)
        )
    best, last = best_last(metrics)
    if out_path is not None:
        net.save_checkpoint(out_path / "checkpoint_scratch.ckpt", arch, theta)
    return RunResult(metrics, best, last, arch, theta, None, None, [], out_path)


def _write_codivide_audit(path, epochs, rows, ds: data.Dataset) -> None:
    """One row per (epoch, pool sample), one write per epoch. epochs holds
    (epoch, pool size) per co-teaching epoch and rows the matching
    CODIVIDE_DTYPE rows. Floats are written as repr of a Python float, which
    is what fmt_float produces."""
    flag = ("0", "1").__getitem__
    with open(path, "w", newline="\n") as fh:
        fh.write(CODIVIDE_HEADER + "\n")
        for (k, size), row in zip(epochs, rows):
            row = row[:size]
            ids = row["id"]
            cells = zip(
                map(str, ids.tolist()),
                map(repr, row["w_scratch"].tolist()), map(repr, row["w_embed"].tolist()),
                map(flag, row["labeled_scratch"].tolist()), map(flag, row["labeled_embed"].tolist()),
                map(str, ds.observed_labels[ids].tolist()), map(str, ds.true_labels[ids].tolist()),
            )
            # three writes: concatenating around the chunk would copy it twice
            prefix = f"{k},"
            fh.write(prefix)
            fh.write(("\n" + prefix).join(map(",".join, cells)))
            fh.write("\n")


def _run_pipeline(cfg: RunConfig, ds: data.Dataset, oracle_table: oracle.OracleTable,
                  out_path) -> RunResult:
    seed = cfg.run.seed
    sched, method = cfg.schedule, cfg.method
    train_ids, test_ids = ds.train_ids(), ds.test_ids()
    n_train = train_ids.shape[0]
    if not np.array_equal(train_ids, np.arange(n_train)):
        raise StateError("train samples must occupy ids 0..n_train-1")

    emb = oracle.oracle_embeddings(
        ds, oracle_table, cfg.oracle.embed_dim, _section_seed(None, seed, "embeddings")
    )
    oracle_argmax_train = oracle_table.argmax()[train_ids]

    arch_scratch = net.Architecture(
        (ds.dim, *cfg.net_scratch.hidden, ds.n_classes), cfg.net_scratch.activation
    )
    arch_embed = net.Architecture(
        (cfg.oracle.embed_dim, *cfg.net_embed.hidden, ds.n_classes), cfg.net_embed.activation
    )
    theta_scratch = net.init_params(arch_scratch, _section_seed(None, seed, "init/scratch"))
    theta_embed = net.init_params(arch_embed, _section_seed(None, seed, "init/embed"))
    opt_kwargs = dict(
        momentum=cfg.optim.momentum,
        weight_decay=cfg.optim.weight_decay,
        decay_epoch=cfg.optim.decay_epoch,
        decay_factor=cfg.optim.decay_factor,
    )
    opt_scratch = net.make_optimizer(arch_scratch, cfg.optim.lr_scratch, **opt_kwargs)
    opt_embed = net.make_optimizer(arch_embed, cfg.optim.lr_embed, **opt_kwargs)

    params = coteach.CoteachParams(
        batch_size=cfg.optim.batch_size,
        tau_w=method.tau_w,
        lambda_u=method.lambda_u,
        t_sharp=method.t_sharp,
        mixup_alpha=method.mixup_alpha,
        reg_coef=method.reg_coef,
        encoder_unfreeze_epoch=sched.encoder_unfreeze,
        asymmetric=method.asymmetric,
    )
    toggles = selection.ConditionToggles(
        low_loss=method.cond_low_loss,
        loss_drop=method.cond_loss_drop,
        oracle_consistent=method.cond_oracle,
    )

    onehot = np.eye(ds.n_classes)[ds.observed_labels]
    soft_targets = 0.5 * oracle_table.probs + 0.5 * onehot
    noisy_train = ds.observed_labels[train_ids] != ds.true_labels[train_ids]

    store = selection.TrajectoryStore(n_train)
    bootstrap_epoch = max(sched.start_unlearn - sched.unlearn_period, sched.warmup + 1)
    unlearning_on = method.unlearning
    current_pool = train_ids
    sets = None
    snapshot = None
    metrics = []
    forget_rows = []
    codivide_epochs = []
    # audit rows of every co-teaching epoch in one block, kept only for a run
    # directory: per-epoch arrays kept instead stay scattered over the heap
    # and raise the memory peak of whatever runs next
    codivide_rows = (
        np.empty((max(sched.max_epoch - sched.warmup, 0), n_train), CODIVIDE_DTYPE)
        if out_path is not None else None
    )

    pool_losses = PoolLosses(
        ds.observed_labels, {"scratch": (arch_scratch, ds.features), "embed": (arch_embed, emb)}
    )

    def record_losses(key):
        store.record("scratch", key, pool_losses("scratch", theta_scratch, train_ids))
        store.record("embed", key, pool_losses("embed", theta_embed, train_ids))

    for k in range(1, sched.max_epoch + 1):
        hn = ln = cs = 0
        if k <= sched.warmup:
            theta_scratch, opt_scratch, theta_embed, opt_embed = warmup_epoch(
                ds.features, emb, onehot, soft_targets, train_ids,
                arch_scratch, theta_scratch, opt_scratch,
                arch_embed, theta_embed, opt_embed,
                k, cfg.optim.batch_size, rng_for(seed, f"warmup/{k}"),
            )
        else:
            if unlearning_on and k == bootstrap_epoch:
                # when the bootstrap coincides with the first selection epoch,
                # key it one earlier so that selection sees a prior checkpoint
                # (same parameters, so the loss drop degenerates to zero)
                key = k if k < sched.start_unlearn else k - 1
                if not store.has("scratch", key):
                    record_losses(key)
            if unlearning_on and gate_selection(k, sched.start_unlearn, sched.unlearn_period):
                if not store.has("scratch", k):
                    record_losses(k)
                sets, snapshot, audit = selection.unlearning_setup(
                    train_ids, ds.observed_labels[train_ids], theta_scratch, theta_embed,
                    store, oracle_argmax_train, k, method.p_low, method.p_drop, toggles,
                )
                current_pool = sets.retained
                logger.info(
                    "epoch %d: selected %d (scratch) / %d (embed) unlearning targets, pool %d",
                    k, len(sets.targets_scratch), len(sets.targets_embed), current_pool.shape[0],
                )
                if current_pool.shape[0] == 0:
                    raise StateError(f"selection at epoch {k} left an empty training pool")
                if out_path is not None:
                    selection.write_selection_audit(
                        out_path / f"selection_epoch_{k:04d}.csv", train_ids, sets, audit
                    )
            if (
                unlearning_on
                and sets is not None
                and gate_forgetting(k, sched.start_unlearn, sched.unlearn_period, sched.unlearn_duration)
            ):
                plan_s = forget.make_unlearn_plan(
                    "scratch", sets.targets_scratch, method.batch_unlearn, method.t_unl,
                    rng_for(seed, f"forget/{k}/scratch"),
                )
                theta_scratch, opt_scratch, stats_s = forget.apply_unlearning(
                    arch_scratch, theta_scratch, opt_scratch, snapshot.theta_scratch,
                    plan_s, ds.features, k,
                )
                frozen = arch_embed.first_layer_params() if k < sched.encoder_unfreeze else 0
                plan_e = forget.make_unlearn_plan(
                    "embed", sets.targets_embed, method.batch_unlearn, method.t_unl,
                    rng_for(seed, f"forget/{k}/embed"),
                )
                theta_embed, opt_embed, stats_e = forget.apply_unlearning(
                    arch_embed, theta_embed, opt_embed, snapshot.theta_embed, plan_e, emb, k,
                    frozen_prefix=frozen,
                )
                forget_rows.append((k, "scratch", stats_s.n_targets, stats_s.kl_before, stats_s.kl_after))
                forget_rows.append((k, "embed", stats_e.n_targets, stats_e.kl_before, stats_e.kl_after))
            res = coteach.coteach_epoch(
                ds.features, emb, ds.observed_labels, current_pool,
                pool_losses("scratch", theta_scratch, current_pool),
                pool_losses("embed", theta_embed, current_pool),
                arch_scratch, theta_scratch, opt_scratch,
                arch_embed, theta_embed, opt_embed,
                k, params, rng_for(seed, f"coteach/{k}"),
            )
            theta_scratch, opt_scratch = res.theta_scratch, res.opt_scratch
            theta_embed, opt_embed = res.theta_embed, res.opt_embed
            judged_clean = (
                (res.w_scratch >= CLEAN_JUDGE_THRESHOLD) & (res.w_embed >= CLEAN_JUDGE_THRESHOLD)
            )
            noisy_pool = noisy_train[current_pool]
            hn = int(np.sum(noisy_pool & judged_clean))
            ln = int(np.sum(noisy_pool)) - hn
            cs = int(np.sum(~noisy_pool))
            if out_path is not None:
                size = current_pool.shape[0]
                row = codivide_rows[len(codivide_epochs), :size]
                row["id"] = current_pool
                row["w_scratch"] = res.w_scratch
                row["w_embed"] = res.w_embed
                row["labeled_scratch"] = res.labeled_for_scratch
                row["labeled_embed"] = res.labeled_for_embed
                codivide_epochs.append((k, size))
        _check_finite(k, theta_scratch=theta_scratch, theta_embed=theta_embed)
        p_scratch = net.predict_proba(arch_scratch, theta_scratch, ds.features[test_ids])
        p_embed = net.predict_proba(arch_embed, theta_embed, emb[test_ids])
        y_test = ds.true_labels[test_ids]
        acc_scratch = float((p_scratch.argmax(axis=1) == y_test).mean())
        acc_embed = float((p_embed.argmax(axis=1) == y_test).mean())
        acc_ens = float((((p_scratch + p_embed) / 2.0).argmax(axis=1) == y_test).mean())
        loss_scratch = float(pool_losses("scratch", theta_scratch, current_pool).mean())
        loss_embed = float(pool_losses("embed", theta_embed, current_pool).mean())
        n_forget_scratch = len(sets.targets_scratch) if sets is not None else 0
        n_forget_embed = len(sets.targets_embed) if sets is not None else 0
        metrics.append(EpochMetrics(
            k, acc_scratch, acc_embed, acc_ens, loss_scratch, loss_embed,
            n_forget_scratch, n_forget_embed, current_pool.shape[0], hn, ln, cs,
        ))

    best, last = best_last(metrics)
    if out_path is not None:
        net.save_checkpoint(out_path / "checkpoint_scratch.ckpt", arch_scratch, theta_scratch)
        net.save_checkpoint(out_path / "checkpoint_embed.ckpt", arch_embed, theta_embed)
        _write_codivide_audit(out_path / "codivide_audit.csv", codivide_epochs, codivide_rows, ds)
        with open(out_path / "forgetting_log.csv", "w", newline="\n") as fh:
            fh.write(forget.KL_LOG_HEADER + "\n")
            for epoch, tag, n, before, after in forget_rows:
                fh.write(f"{epoch},{tag},{n},{fmt_float(before)},{fmt_float(after)}\n")
    return RunResult(
        metrics, best, last, arch_scratch, theta_scratch, arch_embed, theta_embed,
        forget_rows, out_path,
    )
