"""Full training schedule: warmup, preparation, and the periodic
select -> forget -> co-teach cycle, with per-epoch metrics and audit trails.

Epoch k (1-based) runs warmup while k <= warmup; afterwards each epoch may
(re)select forgetting targets, apply a forgetting pass, and always runs one
co-teaching epoch on the current retained pool (the full train set before
the first selection). The two networks are the "scratch" net (an MLP on raw
features) and the "embed" net (adapter plus head over the fixed oracle
embeddings), each a ``coteach.Learner`` whose parameters and optimizer state
the stages rebind.

Each network's pool losses (per-sample CE of the observed labels on the
current pool) stay valid until warmup, a forgetting pass with targets, an
unskipped co-teaching update or a selection that leaves fewer than all train
ids sets them to None; whatever is None is evaluated when next needed, so
one epoch's metric losses are the next epoch's co-divide input.

Each arm returns its metrics, learners and forgetting rows, and ``run`` alone
finishes a run from them: Best/Last, the checkpoints, then metrics.csv.

With a run directory, the pipeline keeps each co-teaching epoch's co-divide
rows in one block and, after the last epoch, writes them as
codivide_audit.npy: one CODIVIDE_RECORD row per epoch and pool sample,
streamed one epoch at a time behind a header for the total row count, so no
second whole-run copy is built. ``coforget export`` makes the CSV of it.
"""

import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, coteach, data, forget, kernels, net, oracle, selection
from .config import MAX_ARRAY_CELLS, RunConfig, validate_config
from .errors import ConfigurationError, StateError
from .util import format_rows, output_dir, replacing, rng_for, write_csv, write_npy

logger = logging.getLogger("coforget")

# one co-divide row per co-teaching epoch and pool sample: the row of
# codivide_audit.npy, and of the CSV `coforget export` makes from it
CODIVIDE_RECORD = np.dtype([
    ("epoch", "<i8"), ("id", "<i8"), ("w_scratch", "<f8"), ("w_embed", "<f8"),
    ("labeled_scratch", "?"), ("labeled_embed", "?"), ("observed", "<i8"), ("true", "<i8"),
])
CODIVIDE_HEADER = ",".join(CODIVIDE_RECORD.names)
# the fields the run fills per epoch; epoch and labels are added as each is written
CODIVIDE_DTYPE = np.dtype([(name, CODIVIDE_RECORD[name]) for name in (
    "id", "w_scratch", "w_embed", "labeled_scratch", "labeled_embed")])
CLEAN_JUDGE_THRESHOLD = 0.5  # selection-quality accounting, independent of tau_w
LAST_WINDOW = 10
ACC_KEYS = ("acc_scratch", "acc_embed", "acc_ens")
NETS = ("scratch", "embed")  # the pair, in the order every stage visits it


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
        return format_rows(dataclasses.astuple(self))


METRICS_HEADER = ",".join(field.name for field in dataclasses.fields(EpochMetrics))


@dataclass
class RunResult:
    metrics: list
    best: dict
    last: dict
    learners: tuple  # the trained coteach.Learner of each network in NETS the arm has
    forget_log: list
    out_dir: Path | None


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
        # the noise transition and the one-hot targets are C x C
        if ds.n_classes**2 > MAX_ARRAY_CELLS:
            raise ConfigurationError(
                f"dataset.path {dcfg.path}: {ds.n_classes} classes, whose C x C class "
                f"matrices exceed 2**31 array cells")
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


def _check_array_sizes(cfg: RunConfig, ds: data.Dataset) -> None:
    """Reject a run whose config and dataset as built size an array past
    MAX_ARRAY_CELLS cells: the co-divide audit block, the oracle embeddings
    and their projection, or a layer's weights."""
    sched, embed_dim, n_classes = cfg.schedule, cfg.oracle.embed_dim, ds.n_classes
    sized = {
        "co-divide audit: (schedule.max_epoch - warmup) * dataset train samples":
            (sched.max_epoch - sched.warmup) * ds.train_ids().shape[0],
        "oracle embeddings: dataset samples * oracle.embed_dim": ds.n * embed_dim,
        "oracle projection: (dataset.dim + dataset.classes) * oracle.embed_dim":
            (ds.dim + n_classes) * embed_dim,
    }
    for name, first, width in (("net_scratch", "dataset.dim", ds.dim),
                               ("net_embed", "oracle.embed_dim", embed_dim)):
        widths = [width, *getattr(cfg, name).hidden, n_classes]
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            what = f"{name} layer {i}: fan_in * fan_out over [{first}, *{name}.hidden, dataset.classes]"
            sized[what] = fan_in * fan_out
    for what, cells in sized.items():
        if cells > MAX_ARRAY_CELLS:
            raise ConfigurationError(f"{what} exceeds 2**31 array cells")


def _learner(cfg: RunConfig, name: str, inputs, n_classes: int) -> coteach.Learner:
    """A fresh cfg.net_<name> network over inputs, seeded from init/<name>,
    with its optimizer at optim.lr_<name>."""
    ncfg, ocfg = getattr(cfg, f"net_{name}"), cfg.optim
    arch = net.Architecture((inputs.shape[1], *ncfg.hidden, n_classes), ncfg.activation)
    theta = net.init_params(arch, _section_seed(None, cfg.run.seed, f"init/{name}"))
    opt = net.make_optimizer(
        arch, getattr(ocfg, f"lr_{name}"), ocfg.momentum, ocfg.weight_decay,
        ocfg.decay_epoch, ocfg.decay_factor,
    )
    return coteach.Learner(arch, inputs, theta, opt)


def _ce_epoch(learner: coteach.Learner, targets, ids, rng, epoch, batch_size, frozen_prefix=0):
    """One pass of batch-mean soft-target CE steps over ids in an order drawn
    from rng, batch_size at a time; the first frozen_prefix parameters stay
    put."""
    order = ids[rng.permutation(ids.shape[0])]
    for i in range(0, order.shape[0], batch_size):
        batch = order[i:i + batch_size]
        _, grad = net.ce_value_grad(learner.arch, learner.theta, learner.inputs[batch], targets[batch])
        learner.step(grad, epoch, frozen_prefix)


def warmup_epoch(scratch: coteach.Learner, embed: coteach.Learner, onehot_obs, soft_targets,
                 train_ids, epoch, batch_size, rng):
    """One warmup epoch: the scratch net learns the observed labels, the
    embed net learns oracle/label-blend soft targets with its first layer
    (the adapter) frozen."""
    for learner, targets, frozen in (
        (scratch, onehot_obs, 0), (embed, soft_targets, embed.arch.first_layer_params()),
    ):
        _ce_epoch(learner, targets, train_ids, rng, epoch, batch_size, frozen)


def _check_finite(epoch, **arrays):
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise StateError(f"non-finite values in {name} at epoch {epoch}; aborting run")


def run(cfg: RunConfig, out_dir=None) -> RunResult:
    """Execute one full run; writes the manifest, metrics, co-divide record,
    selection and forgetting audits and checkpoints when out_dir is given,
    and returns everything in memory either way."""
    validate_config(cfg)
    out_path = output_dir(out_dir) if out_dir is not None else None
    ds = build_dataset(cfg)
    if ds.test_ids().shape[0] == 0:
        raise ConfigurationError("runs need a test split (dataset.test_per_class >= 1)")
    _check_array_sizes(cfg, ds)
    # every input file is read before the run directory is made, so a bad
    # one leaves no directory behind
    naive = cfg.method.kind == "naive-ce"
    oracle_table = None if naive else build_oracle(cfg, ds)

    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        manifest = {
            "config": cfg.to_dict(),
            "config_hash": cfg.config_hash(),
            "seed": cfg.run.seed,
            "backend": kernels.BACKEND,
            "version": __version__,
        }
        with replacing(out_path / "manifest.json", "w", newline="\n") as fh:
            fh.write(json.dumps(manifest, indent=2) + "\n")

    if naive:
        metrics, learners, forget_log = _run_naive(cfg, ds)
    else:
        metrics, learners, forget_log = _run_pipeline(cfg, ds, oracle_table, out_path)

    best, last = best_last_columns({key: [getattr(m, key) for m in metrics] for key in ACC_KEYS})
    if out_path is not None:
        for name, learner in zip(NETS, learners):
            net.save_checkpoint(out_path / f"checkpoint_{name}.ckpt", learner.arch, learner.theta)
        # metrics.csv last: report takes a directory that holds it as complete
        write_csv(out_path / "metrics.csv", [METRICS_HEADER],
                  [list(zip(*map(dataclasses.astuple, metrics)))])
    return RunResult(metrics, best, last, learners, forget_log, out_path)


def _run_naive(cfg: RunConfig, ds: data.Dataset) -> tuple:
    """Baseline arm: plain supervised cross-entropy on the observed labels."""
    seed = cfg.run.seed
    train_ids, test_ids = ds.train_ids(), ds.test_ids()
    scratch = _learner(cfg, "scratch", ds.features, ds.n_classes)
    onehot = np.eye(ds.n_classes)[ds.observed_labels]
    metrics = []
    for k in range(1, cfg.schedule.max_epoch + 1):
        _ce_epoch(scratch, onehot, train_ids, rng_for(seed, f"naive/{k}"), k, cfg.optim.batch_size)
        _check_finite(k, theta=scratch.theta)
        acc = float((scratch.predict(test_ids).argmax(axis=1) == ds.true_labels[test_ids]).mean())
        loss = float(scratch.losses(train_ids, ds.observed_labels).mean())
        metrics.append(
            EpochMetrics(k, acc, float("nan"), acc, loss, float("nan"),
                         0, 0, train_ids.shape[0], 0, 0, 0)
        )
    return metrics, (scratch,), []


def _codivide_record(epoch: int, row, ds: data.Dataset) -> np.ndarray:
    """The CODIVIDE_RECORD rows of one co-teaching epoch's filled row."""
    record = np.empty(row.shape[0], CODIVIDE_RECORD)
    record["epoch"] = epoch
    for name in CODIVIDE_DTYPE.names:
        record[name] = row[name]
    record["observed"] = ds.observed_labels[row["id"]]
    record["true"] = ds.true_labels[row["id"]]
    return record


def _run_pipeline(cfg: RunConfig, ds: data.Dataset, oracle_table: oracle.OracleTable,
                  out_path) -> tuple:
    seed = cfg.run.seed
    sched, method = cfg.schedule, cfg.method
    # both dataset kinds number train samples 0..n_train-1, so ids index train arrays
    train_ids, test_ids = ds.train_ids(), ds.test_ids()
    n_train = train_ids.shape[0]

    emb = oracle.oracle_embeddings(
        ds, oracle_table, cfg.oracle.embed_dim, _section_seed(None, seed, "embeddings")
    )
    oracle_argmax_train = oracle_table.argmax()[train_ids]
    nets = scratch, embed = tuple(
        _learner(cfg, name, inputs, ds.n_classes) for name, inputs in zip(NETS, (ds.features, emb))
    )

    onehot = np.eye(ds.n_classes)[ds.observed_labels]
    soft_targets = 0.5 * oracle_table.probs + 0.5 * onehot
    noisy_train = ds.observed_labels[train_ids] != ds.true_labels[train_ids]

    bootstrap_epoch = max(sched.start_unlearn - sched.unlearn_period, sched.warmup + 1)
    current_pool = train_ids
    losses = (None, None)  # see the module docstring
    prev_losses = None  # the (scratch, embed) losses of the previous checkpoint
    sets = references = None
    metrics = []
    forget_rows = []
    codivide_epochs = []  # (epoch, the filled part of its codivide_rows row)
    # audit rows of every co-teaching epoch in one block, kept only for a run
    # directory: per-epoch arrays kept instead stay scattered over the heap
    # and raise the memory peak of whatever runs next
    codivide_rows = (
        np.empty((max(sched.max_epoch - sched.warmup, 0), n_train), CODIVIDE_DTYPE)
        if out_path is not None else None
    )

    def evaluate(losses, ids):
        """losses, with each None entry replaced by that network's per-sample
        CE of the observed labels of ids under its current parameters."""
        return tuple(learner.losses(ids, ds.observed_labels) if loss is None else loss
                     for learner, loss in zip(nets, losses))

    for k in range(1, sched.max_epoch + 1):
        hn = ln = cs = 0
        if k <= sched.warmup:
            warmup_epoch(scratch, embed, onehot, soft_targets, train_ids,
                         k, cfg.optim.batch_size, rng_for(seed, f"warmup/{k}"))
            losses = (None, None)
        else:
            selecting = method.unlearning and gate_selection(k, sched.start_unlearn, sched.unlearn_period)
            if selecting or (method.unlearning and k == bootstrap_epoch):
                # checkpoints cover every train id; the pool is a sorted subset
                # of train_ids, so a pool of n_train ids is train_ids
                if current_pool.shape[0] < n_train:
                    losses = (None, None)
                losses = evaluate(losses, train_ids)
                if k == bootstrap_epoch:
                    prev_losses = losses
            if selecting:
                # on a bootstrap epoch the previous checkpoint is this one,
                # which makes every loss drop zero
                sets, audit = selection.unlearning_setup(
                    train_ids, ds.observed_labels[train_ids],
                    (losses[0], prev_losses[0]), (losses[1], prev_losses[1]),
                    oracle_argmax_train, method,
                )
                # forgetting pushes each net away from these read-only copies; theta
                # stays writable, as numba types mlp_backward's zeros_like(theta) after it
                references = tuple(learner.theta.copy() for learner in nets)
                for reference in references:
                    reference.setflags(write=False)
                prev_losses = losses
                current_pool = sets.retained
                if current_pool.shape[0] < n_train:
                    losses = (None, None)
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
                method.unlearning
                and sets is not None
                and gate_forgetting(k, sched.start_unlearn, sched.unlearn_period, sched.unlearn_duration)
            ):
                targets = (sets.targets_scratch, sets.targets_embed)
                for name, learner, ids, reference, frozen in zip(
                    NETS, nets, targets, references,
                    (0, coteach.adapter_prefix(embed, k, sched)),
                ):
                    plan = forget.make_unlearn_plan(
                        ids, method.batch_unlearn, method.t_unl, rng_for(seed, f"forget/{k}/{name}")
                    )
                    learner.theta, learner.opt, stats = forget.apply_unlearning(
                        learner.arch, learner.theta, learner.opt, reference, plan, learner.inputs,
                        k, frozen_prefix=frozen,
                    )
                    forget_rows.append((k, name, stats.n_targets, stats.kl_before, stats.kl_after))
                # a net without targets keeps its parameters
                losses = tuple(None if ids else loss for ids, loss in zip(targets, losses))
            losses = evaluate(losses, current_pool)
            res = coteach.coteach_epoch(
                scratch, embed, ds.observed_labels, current_pool, losses[0], losses[1],
                k, cfg, rng_for(seed, f"coteach/{k}"),
            )
            losses = (losses[0] if res.skipped_scratch else None,
                      losses[1] if res.skipped_embed else None)
            judged_clean = (
                (res.w_scratch >= CLEAN_JUDGE_THRESHOLD) & (res.w_embed >= CLEAN_JUDGE_THRESHOLD)
            )
            noisy_pool = noisy_train[current_pool]
            hn = int(np.sum(noisy_pool & judged_clean))
            ln = int(np.sum(noisy_pool)) - hn
            cs = int(np.sum(~noisy_pool))
            if out_path is not None:
                row = codivide_rows[len(codivide_epochs), :current_pool.shape[0]]
                row["id"] = current_pool
                row["w_scratch"] = res.w_scratch
                row["w_embed"] = res.w_embed
                row["labeled_scratch"] = res.labeled_for_scratch
                row["labeled_embed"] = res.labeled_for_embed
                codivide_epochs.append((k, row))
        _check_finite(k, theta_scratch=scratch.theta, theta_embed=embed.theta)
        y_test = ds.true_labels[test_ids]
        p_scratch, p_embed = (learner.predict(test_ids) for learner in nets)
        accs = [float((p.argmax(axis=1) == y_test).mean())
                for p in (p_scratch, p_embed, (p_scratch + p_embed) / 2.0)]
        losses = evaluate(losses, current_pool)
        n_forget = (0, 0) if sets is None else (len(sets.targets_scratch), len(sets.targets_embed))
        metrics.append(EpochMetrics(
            k, *accs, *(float(loss.mean()) for loss in losses), *n_forget,
            current_pool.shape[0], hn, ln, cs,
        ))

    if out_path is not None:
        write_npy(out_path / "codivide_audit.npy", CODIVIDE_RECORD,
                  sum(row.shape[0] for _, row in codivide_epochs),
                  (_codivide_record(k, row, ds) for k, row in codivide_epochs))
        write_csv(out_path / "forgetting_log.csv", [forget.KL_LOG_HEADER], [list(zip(*forget_rows))])
    return metrics, nets, forget_rows
