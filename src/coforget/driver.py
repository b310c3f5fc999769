"""Full training schedule: warmup, then the periodic select -> forget ->
co-teach cycle, with per-epoch metrics and audit trails.

Epoch k (1-based) runs warmup while k <= warmup. Each later epoch runs these
stages in order, on the current retained pool (the full train set before the
first selection), each a function of plain values:

- ``_select``, on a selection epoch: the SelectionSets, from each net's
  train-id losses; it writes the selection audit file;
- on a forgetting epoch, each net's forgetting pass: its forgetting_log row;
- each net's GMM fit, then one co-teaching epoch (``coteach.coteach_epoch``),
  whose co-divide fills the epoch's CODIVIDE_RECORD rows;
- ``_evaluate``, after every epoch of either arm: the EpochMetrics row, from
  each net's ``_scores``.

The nets are the "scratch" net (an MLP on raw features) and the "embed" net
(adapter plus head over the fixed oracle embeddings), each a
``coteach.Learner`` whose parameters and optimizer state the stages rebind.
From the first co-teaching epoch on, each net's stages (its checkpoint
losses, forgetting, GMM fit, training, check and scores) run in a
``_NetHalf``, on the schedule the half works out itself: the embed net's in
a forked helper process when a second CPU is free, so that the two halves
run at once, else in the run's process. The run's process sends a half only
what the half cannot compute (the selection, the co-divide masks, the
peer's theta, the generator), reads the scratch net's reply first, and does
every selection, co-divide, log line and file write.
Each arm returns its metrics, learners and forgetting rows, and ``run``
alone finishes a run from them: Best/Last, the checkpoints, then metrics.csv.
Each co-teaching epoch fills its own co-divide rows; with a run directory
they are appended to a util.npy_writer as the run goes, so a run holds one
epoch's rows whatever its schedule, and codivide_audit.npy is written once
the last epoch ends; ``coforget export`` makes the CSV of it.
"""

import contextlib
import dataclasses
import functools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, coteach, data, forget, kernels, net, oracle, selection, util
from .config import RunConfig, show_value, validate_config
from .errors import ConfigurationError, StateError
from .util import format_rows, npy_writer, output_dir, replacing, rng_for, write_csv

logger = logging.getLogger("coforget")

# one co-divide row per co-teaching epoch and pool sample: the row of
# codivide_audit.npy, and of the CSV `coforget export` makes from it
CODIVIDE_RECORD = np.dtype([
    ("epoch", "<i8"), ("id", "<i8"), ("w_scratch", "<f8"), ("w_embed", "<f8"),
    ("labeled_scratch", "?"), ("labeled_embed", "?"), ("observed", "<i8"), ("true", "<i8"),
])
CODIVIDE_HEADER = ",".join(CODIVIDE_RECORD.names)
MAX_ARRAY_CELLS = 2**31  # per array or record a run sizes, checked before the run starts
CLEAN_JUDGE_THRESHOLD = 0.5  # selection-quality accounting, independent of tau_w
LAST_WINDOW = 10
ACC_KEYS = ("acc_scratch", "acc_embed", "acc_ens")
NETS = ("scratch", "embed")  # the pair, in the order every stage visits it


def gate_selection(k: int, e_start: int, e_up: int) -> bool:
    """Selection fires every e_up epochs once the unlearning stage begins."""
    return k >= e_start and k % e_up == 0


def gate_forgetting(k: int, e_start: int, e_up: int, e_ud: int) -> bool:
    """Forgetting runs on the selection epoch and the e_ud epochs after it."""
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
                f"matrices exceed 2**31 array cells", field="dataset.path")
    else:
        # a feature or a one-hot row per sample
        cells = dcfg.classes * (dcfg.per_class + dcfg.test_per_class) * max(dcfg.dim, dcfg.classes)
        if cells > MAX_ARRAY_CELLS:
            raise ConfigurationError("dataset.classes * (per_class + test_per_class) * "
                                     "max(dim, classes) exceeds 2**31 array cells")
        # a spread near the float maximum overflows features, rejected below
        with np.errstate(over="ignore"):
            ds = data.make_blobs(dcfg.classes, dcfg.per_class, dcfg.dim, dcfg.spread,
                                 _section_seed(dcfg.seed, cfg.run.seed, "dataset"),
                                 test_per_class=dcfg.test_per_class)
        if not np.all(np.isfinite(ds.features)):
            raise ConfigurationError(f"dataset.spread {show_value(dcfg.spread)} makes features "
                                     "that are not finite", field="dataset.spread")
    if ncfg.kind == "none":
        return ds
    transition = noise_matrix(ncfg, ds.n_classes)
    noise_seed = _section_seed(ncfg.seed, cfg.run.seed, "noise")
    if transition is None:
        return data.instance_noise(ds, ncfg.eta, noise_seed)
    return data.inject_noise(ds, transition, noise_seed)


def noise_matrix(ncfg, n_classes: int):
    """The transition matrix a noise section draws observed labels from (the
    identity without noise); None for instance noise, which has none.
    Symmetric and asymmetric noise need two classes (only a file dataset can
    have fewer), and noise.pair_map another class for each class."""
    if ncfg.kind == "none":
        return np.eye(n_classes)
    if ncfg.kind == "instance":
        return None
    if n_classes < 2:
        raise ConfigurationError(f"noise.kind {ncfg.kind!r} needs a dataset of >= 2 classes, "
                                 f"got {n_classes}", field="noise.kind")
    if ncfg.kind == "symmetric":
        return data.symmetric_matrix(n_classes, ncfg.eta)
    if len(ncfg.pair_map) != n_classes:
        raise ConfigurationError(f"noise.pair_map must name a class for each of the dataset's "
                                 f"{n_classes} classes, got {show_value(ncfg.pair_map)}",
                                 field="noise.pair_map")
    for i, j in enumerate(ncfg.pair_map):
        if j == i or not 0 <= j < n_classes:
            raise ConfigurationError(f"noise.pair_map[{i}] must be another class in "
                                     f"[0, {n_classes}), got {show_value(j)}", field="noise.pair_map")
    return data.asymmetric_matrix(n_classes, ncfg.eta, ncfg.pair_map)


def build_oracle(cfg: RunConfig, ds: data.Dataset) -> oracle.OracleTable:
    ocfg = cfg.oracle
    if ocfg.kind == "file":
        table = oracle.load_oracle_file(ocfg.path, expected_ids=range(ds.n))
        if table.n_classes != ds.n_classes:
            raise ConfigurationError(f"oracle.path {ocfg.path}: the file has {table.n_classes} classes, "
                                     f"the dataset has {ds.n_classes}", field="oracle.path")
        return table
    # the predicted class holds the confidence, so it must beat chance to be the argmax
    chance = 1.0 / ds.n_classes
    if not chance <= ocfg.accuracy <= 1.0:
        raise ConfigurationError(f"oracle.accuracy must be in [1/C, 1] = [{chance:.4f}, 1] for the "
                                 f"dataset's {ds.n_classes} classes, got {show_value(ocfg.accuracy)}",
                                 field="oracle.accuracy")
    if not chance < ocfg.confidence < 1.0:
        raise ConfigurationError(f"oracle.confidence must be in (1/C, 1) = ({chance:.4f}, 1) for the "
                                 f"dataset's {ds.n_classes} classes, got {show_value(ocfg.confidence)}",
                                 field="oracle.confidence")
    return oracle.synthetic_oracle(
        ds, ocfg.accuracy, ocfg.confidence, _section_seed(ocfg.seed, cfg.run.seed, "oracle")
    )


def _check_array_sizes(cfg: RunConfig, ds: data.Dataset) -> None:
    """Reject a run whose config and dataset as built size an array or
    record past MAX_ARRAY_CELLS cells: the co-divide record file, the oracle
    embeddings and their projection, or a layer's weights."""
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
    naive = cfg.method.kind == "naive-ce"
    if ds.test_ids().shape[0] == 0:
        if cfg.dataset.kind == "file":
            raise ConfigurationError(f"dataset.path {cfg.dataset.path}: runs need test rows, "
                                     "the file has none", field="dataset.path")
        raise ConfigurationError("runs need a test split (dataset.test_per_class >= 1)",
                                 field="dataset.test_per_class")
    # blobs have per_class >= 1 train rows of >= 2 classes; a file may have fewer
    n_train = ds.train_ids().shape[0]
    if n_train == 0:
        raise ConfigurationError(f"dataset.path {cfg.dataset.path}: runs need train rows, "
                                 "the file has none", field="dataset.path")
    # co-divide fits a two-component GMM to the pool's losses
    if n_train == 1 and not naive:
        raise ConfigurationError(f"dataset.path {cfg.dataset.path}: co-divide needs >= 2 train "
                                 "rows, the file has 1", field="dataset.path")
    _check_array_sizes(cfg, ds)
    if not naive and cfg.oracle.embed_dim < ds.n_classes:
        raise ConfigurationError(f"oracle.embed_dim must be >= the dataset's {ds.n_classes} "
                                 f"classes, got {show_value(cfg.oracle.embed_dim)}", field="oracle.embed_dim")
    # every input file is read before the run directory is made, so a bad
    # one leaves no directory behind
    oracle_table = None if naive else build_oracle(cfg, ds)

    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        # an earlier run's metrics.csv would mark this run complete should it fail
        (out_path / "metrics.csv").unlink(missing_ok=True)
        manifest = {
            "config": cfg.to_dict(),
            "config_hash": cfg.config_hash(),
            "seed": cfg.run.seed,
            "backend": kernels.BACKEND,
            "version": __version__,
        }
        with replacing(out_path / "manifest.json", "w", newline="\n") as fh:
            fh.write(json.dumps(manifest, indent=2) + "\n")

    # a diverging step overflows to inf or nan quietly; _check_finite names it
    with np.errstate(over="ignore", invalid="ignore"):
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


def noisy_judged_clean(rows) -> tuple:
    """The noisy (observed label not the true one) and the judged-clean (both
    nets' clean probabilities >= CLEAN_JUDGE_THRESHOLD) masks of CODIVIDE_RECORD rows."""
    return (rows["observed"] != rows["true"],
            (rows["w_scratch"] >= CLEAN_JUDGE_THRESHOLD) & (rows["w_embed"] >= CLEAN_JUDGE_THRESHOLD))


def _scores(ds: data.Dataset, learner: coteach.Learner, pool) -> tuple:
    """A net's part of a metric row: its test-set probabilities and its mean
    loss over pool."""
    return learner.predict(ds.test_ids()), float(learner.losses(pool, ds.observed_labels).mean())


def _evaluate(k: int, ds: data.Dataset, scores, pool, sets, rows) -> EpochMetrics:
    """Epoch k's metric row from the _scores of each net the arm has: test
    accuracies of each net and of their average, mean pool losses,
    target-set sizes (0 while sets is None) and hn/ln/cs of the epoch's
    co-divide rows. A net in NETS the arm lacks reads nan."""
    y_test = ds.true_labels[ds.test_ids()]
    probs, losses = zip(*scores)
    accs = [float((p.argmax(axis=1) == y_test).mean()) for p in (*probs, sum(probs) / len(probs))]
    lacking = [float("nan")] * (len(NETS) - len(scores))
    n_forget = (0, 0) if sets is None else (len(sets.targets_scratch), len(sets.targets_embed))
    noisy, judged = noisy_judged_clean(rows)
    hn = int(np.sum(noisy & judged))
    return EpochMetrics(k, *accs[:-1], *lacking, accs[-1], *losses, *lacking, *n_forget,
                        pool.shape[0], hn, int(np.sum(noisy)) - hn, int(np.sum(~noisy)))


def _run_naive(cfg: RunConfig, ds: data.Dataset) -> tuple:
    """Baseline arm: plain supervised cross-entropy on the observed labels."""
    train_ids = ds.train_ids()
    scratch = _learner(cfg, "scratch", ds.features, ds.n_classes)
    onehot = np.eye(ds.n_classes)[ds.observed_labels]
    metrics = []
    for k in range(1, cfg.schedule.max_epoch + 1):
        _ce_epoch(scratch, onehot, train_ids, rng_for(cfg.run.seed, f"naive/{k}"), k, cfg.optim.batch_size)
        _check_finite(k, theta=scratch.theta)
        metrics.append(_evaluate(k, ds, [_scores(ds, scratch, train_ids)], train_ids, None,
                                 np.empty(0, CODIVIDE_RECORD)))
    return metrics, (scratch,), []


def _select(k: int, cfg: RunConfig, ds: data.Dataset, oracle_table, losses, prev_losses,
            out_path) -> selection.SelectionSets:
    """Selection at epoch k from each net's train-id losses now and at the
    previous checkpoint. Writes the selection audit; a pool of under two
    samples fails the run."""
    train_ids = ds.train_ids()
    sets, audit = selection.unlearning_setup(
        train_ids, ds.observed_labels[train_ids], (losses[0], prev_losses[0]),
        (losses[1], prev_losses[1]), oracle_table.argmax()[train_ids], cfg.method,
    )
    pool = sets.retained
    logger.info("epoch %d: selected %d (scratch) / %d (embed) unlearning targets, pool %d",
                k, len(sets.targets_scratch), len(sets.targets_embed), pool.shape[0])
    if pool.shape[0] < 2:
        raise StateError(f"selection at epoch {k} left {pool.shape[0]} "
                         "training pool samples, co-divide needs >= 2")
    if out_path is not None:
        selection.write_selection_audit(out_path / f"selection_epoch_{k:04d}.csv", train_ids, sets, audit)
    return sets


class _NetHalf:
    """One net's half of every co-teaching epoch, served by the process that
    owns the net's learner. It runs each of its net's stages in schedule
    order as soon as it can, so its items carry only what it cannot compute:
    ("head", k), sent once, at the first co-teaching epoch; ("select", k,
    sets), the selection it forgets by; coteach_epoch's ("train", k, ...);
    and ("advance", k), which ends epoch k. Its replies hold None for a stage
    that did not run. It writes and logs nothing. Its per-net facts: name, in
    NETS, names its targets, checks and forgetting seed; peer is the other
    net's learner, whose architecture and inputs its guesses read; semi says
    whether it has unlabeled samples; its first layer (the adapter) stays put
    before epoch unfreeze."""

    def __init__(self, cfg: RunConfig, ds: data.Dataset, name, learner, peer, semi, unfreeze):
        self.cfg, self.ds, self.name, self.learner, self.peer = cfg, ds, name, learner, peer
        self.semi, self.unfreeze = semi, unfreeze
        self.onehot = np.eye(ds.n_classes)[ds.observed_labels]
        self.pool = self.train_ids = ds.train_ids()
        self.targets = None  # its targets, once a selection stands
        sched = cfg.schedule
        self.bootstrap = max(sched.start_unlearn - sched.unlearn_period, sched.warmup + 1)

    def __call__(self, item):
        stage, *args = item
        return getattr(self, stage)(*args)

    def _frozen(self, k) -> int:
        return self.learner.arch.first_layer_params() if k < self.unfreeze else 0

    def head(self, k) -> tuple:
        """(its train-id losses if epoch k takes a checkpoint, else None, then
        its _divide, or None twice if k selects): a selection epoch takes a
        checkpoint, and so does the bootstrap epoch, the first selection's
        previous one."""
        sched, unlearning = self.cfg.schedule, self.cfg.method.unlearning
        selecting = unlearning and gate_selection(k, sched.start_unlearn, sched.unlearn_period)
        losses = (self.learner.losses(self.train_ids, self.ds.observed_labels)
                  if selecting or (unlearning and k == self.bootstrap) else None)
        return (losses, None, None) if selecting else (losses, *self._divide(k))

    def select(self, k, sets) -> tuple:
        # forgetting's reference, read-only; theta stays writable for numba's zeros_like(theta)
        self.pool, self.targets = sets.retained, getattr(sets, f"targets_{self.name}")
        self.reference = self.learner.theta.copy()
        self.reference.setflags(write=False)
        return self._divide(k)

    def _divide(self, k) -> tuple:
        """Epoch k's forgetting_log row if it forgets, else None, then its
        fit: the clean probabilities of a GMM fit to its pool losses and the
        theta they come from."""
        sched = self.cfg.schedule
        row = self._forget(k) if self.targets is not None and gate_forgetting(
            k, sched.start_unlearn, sched.unlearn_period, sched.unlearn_duration) else None
        losses = self.learner.losses(self.pool, self.ds.observed_labels)
        return row, (coteach.fit_gmm_1d(losses).clean_posterior, self.learner.theta)

    def _forget(self, k) -> tuple:
        """One forgetting pass over its targets: its forgetting_log row. Its
        theta or pool losses overflowing fails the run here."""
        learner, method = self.learner, self.cfg.method
        plan = forget.make_unlearn_plan(self.targets, method.batch_unlearn, method.t_unl,
                                        rng_for(self.cfg.run.seed, f"forget/{k}/{self.name}"))
        learner.theta, learner.opt, stats = forget.apply_unlearning(
            learner.arch, learner.theta, learner.opt, self.reference, plan, learner.inputs, k,
            frozen_prefix=self._frozen(k))
        # the losses stay in the learner's memo for the fit
        _check_finite(k, **{f"theta_{self.name}": learner.theta,
                            f"losses_{self.name}": learner.losses(self.pool, self.ds.observed_labels)})
        return k, self.name, stats.n_targets, stats.kl_before, stats.kl_after

    def train(self, k, labeled, w_peer, rng, peer_theta):
        unlabeled = ~labeled & self.semi
        peer = None if peer_theta is None else dataclasses.replace(self.peer, theta=peer_theta)
        batches = coteach._batches(rng, np.count_nonzero(labeled), np.count_nonzero(unlabeled),
                                   self.cfg.optim.batch_size, self.cfg.method.mixup_alpha)
        coteach._train_batches(self.learner, peer, self.onehot, self.pool[labeled], w_peer[labeled],
                               self.pool[unlabeled], self.cfg, k, batches, self._frozen(k))
        return self.learner.theta

    def advance(self, k) -> tuple:
        """(its _scores after epoch k's finiteness check, then epoch k + 1's
        head, or after the last epoch its finish)."""
        _check_finite(k, **{f"theta_{self.name}": self.learner.theta})
        scores = _scores(self.ds, self.learner, self.pool)
        return scores, self.finish() if k == self.cfg.schedule.max_epoch else self.head(k + 1)

    def finish(self):
        return self.learner.theta, self.learner.opt


def _net_halves(cfg: RunConfig, ds: data.Dataset, scratch, embed) -> tuple:
    """The _NetHalf of each net in NETS. The scratch net always has unlabeled
    samples; the embed net has them only in symmetric mode, and its adapter
    stays put before schedule.encoder_unfreeze."""
    return (_NetHalf(cfg, ds, "scratch", scratch, embed, True, 0),
            _NetHalf(cfg, ds, "embed", embed, scratch, not cfg.method.asymmetric,
                     cfg.schedule.encoder_unfreeze))


def _in_process(half):
    """half's submit in this process: each item runs when its reply is read."""
    return functools.partial(functools.partial, half)


def _run_pipeline(cfg: RunConfig, ds: data.Dataset, oracle_table: oracle.OracleTable,
                  out_path) -> tuple:
    sched = cfg.schedule
    # both dataset kinds number train samples 0..n_train-1, so ids index train arrays
    train_ids = ds.train_ids()
    emb = oracle.oracle_embeddings(
        ds, oracle_table, cfg.oracle.embed_dim, _section_seed(None, cfg.run.seed, "embeddings")
    )
    learners = scratch, embed = tuple(
        _learner(cfg, name, inputs, ds.n_classes) for name, inputs in zip(NETS, (ds.features, emb))
    )
    onehot = np.eye(ds.n_classes)[ds.observed_labels]
    soft_targets = 0.5 * oracle_table.probs + 0.5 * onehot
    metrics, forget_rows = [], []
    for k in range(1, min(sched.warmup, sched.max_epoch) + 1):
        warmup_epoch(scratch, embed, onehot, soft_targets, train_ids,
                     k, cfg.optim.batch_size, rng_for(cfg.run.seed, f"warmup/{k}"))
        _check_finite(k, theta_scratch=scratch.theta, theta_embed=embed.theta)
        metrics.append(_evaluate(k, ds, [_scores(ds, learner, train_ids) for learner in learners],
                                 train_ids, None, np.empty(0, CODIVIDE_RECORD)))

    # each co-teaching epoch's co-divide rows, written as codivide_audit.npy
    # once the block ends (a warmup-only run's has none); without a run
    # directory they are dropped
    with (npy_writer(out_path / "codivide_audit.npy", CODIVIDE_RECORD) if out_path is not None
          else contextlib.nullcontext(lambda rows: None)) as append:
        if sched.max_epoch > sched.warmup:
            # from the first co-teaching epoch on, the embed net's half runs
            # in a helper process when a second CPU is free, forked here: it
            # inherits the warmed-up embed learner and the record's staged
            # file, still empty, which only this process appends to
            scratch_half, embed_half = _net_halves(cfg, ds, scratch, embed)
            with (util.forked_server(embed_half) if util.usable_cpus() >= 2
                  else contextlib.nullcontext(_in_process(embed_half))) as submit:
                finished = _coteach_epochs(cfg, ds, oracle_table, (_in_process(scratch_half), submit),
                                           out_path, append, metrics, forget_rows)
                for learner, (theta, opt) in zip(learners, finished):
                    learner.theta, learner.opt = theta, opt

    if out_path is not None:
        write_csv(out_path / "forgetting_log.csv", [forget.KL_LOG_HEADER], [list(zip(*forget_rows))])
    return metrics, learners, forget_rows


def _replies(halves, item) -> list:
    """Send item to each half, then read their replies, the scratch net's first."""
    return [reply() for reply in [half(item) for half in halves]]


def _coteach_epochs(cfg: RunConfig, ds: data.Dataset, oracle_table, halves, out_path, append,
                    metrics, forget_rows) -> tuple:
    """The co-teaching epochs, appending to metrics and forget_rows and
    passing each epoch's co-divide rows to append; returns each half's
    finish. It selects on an epoch whose heads bring no fit, and reads the
    scratch net's reply first, so a failing run raises a serial run's error."""
    sched = cfg.schedule
    pool = ds.train_ids()
    prev_losses = sets = None  # prev_losses: each net's losses at the previous checkpoint
    heads = _replies(halves, ("head", sched.warmup + 1))
    for k in range(sched.warmup + 1, sched.max_epoch + 1):
        losses, forgot, fits = zip(*heads)
        if fits[0] is None:
            sets = _select(k, cfg, ds, oracle_table, losses, prev_losses or losses, out_path)
            prev_losses, pool = losses, sets.retained
            forgot, fits = zip(*_replies(halves, ("select", k, sets)))
        elif losses[0] is not None:  # the bootstrap checkpoint
            prev_losses = losses
        forget_rows.extend(row for row in forgot if row is not None)
        res = coteach.coteach_epoch(halves, pool, k, cfg, rng_for(cfg.run.seed, f"coteach/{k}"), fits)
        rows = np.empty(pool.shape[0], CODIVIDE_RECORD)
        for name, values in zip(CODIVIDE_RECORD.names, (
            k, pool, res.w_scratch, res.w_embed, res.labeled_for_scratch, res.labeled_for_embed,
            ds.observed_labels[pool], ds.true_labels[pool],
        )):
            rows[name] = values
        append(rows)
        # the halves' next stages hold the run's memory peak (a checkpoint), so
        # neither this epoch's fits and result nor its scores are kept for it
        advanced = res.advanced
        del heads, fits, res
        heads = [reply() for reply in advanced]  # each half's (scores, next head)
        metrics.append(_evaluate(k, ds, [scores for scores, _ in heads], pool, sets, rows))
        heads = [head for _, head in heads]
    return heads
