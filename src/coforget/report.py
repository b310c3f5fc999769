"""Post-run reporting: accuracy curves, Best/Last summaries, and the
noisy-judged-clean accounting computed from run directories.

A run directory is read from its manifest, its metrics.csv and its co-divide
record, codivide_audit.npy, which one bounded util.read_npy call loads. A
directory from before that record, holding only codivide_audit.csv, loads
without co-divide rows. export_codivide writes the record as that CSV.

All outputs are plot-ready CSV; nothing is rendered.
"""

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import driver
from .errors import ConfigurationError, IngestionError
from .util import output_dir, read_csv, read_npy, write_csv

logger = logging.getLogger("coforget")

_EXPORT_CHUNK = 1 << 16  # record rows formatted per write


@dataclass
class RunData:
    run_id: str
    manifest: dict
    metrics: dict          # column name -> np.ndarray
    codivide: np.ndarray | None  # the driver.CODIVIDE_RECORD rows, None if absent


def load_run(run_dir) -> RunData:
    """A completed run directory: its manifest, its metrics.csv columns and
    its co-divide record (None for the naive-ce arm, or for a directory that
    predates the record). A file that is missing or damaged raises
    IngestionError naming it."""
    path = Path(run_dir)
    manifest_path = path / "manifest.json"
    metrics_path = path / "metrics.csv"
    if not manifest_path.exists() or not metrics_path.exists():
        raise IngestionError(f"{path}: not a completed run directory (need manifest.json and metrics.csv)")
    try:
        manifest = json.loads(manifest_path.read_text())
        default_window(manifest)
    except (ValueError, KeyError, TypeError) as exc:
        raise IngestionError(
            f"{manifest_path}: not a run manifest, need a JSON object with integer "
            f"config.schedule.warmup and config.schedule.start_unlearn "
            f"({type(exc).__name__}: {exc})"
        ) from None
    metrics = _read_columns(metrics_path, ("epoch", *driver.ACC_KEYS))
    # curves.csv writes epochs as np.int64, exact for whole floats below 2**53
    epoch = metrics["epoch"]
    if not np.all((np.abs(epoch) < 2**53) & (epoch == np.trunc(epoch))):
        raise IngestionError(f"{metrics_path}: epochs must be whole numbers")
    codivide_path = path / "codivide_audit.npy"
    codivide = None
    if codivide_path.exists():
        codivide = read_npy(codivide_path, driver.CODIVIDE_RECORD, _codivide_checks)
    elif (path / "codivide_audit.csv").exists():
        logger.warning("%s: co-divide CSV of an older run, not read; "
                       "its selection quality is not reported", path / "codivide_audit.csv")
    return RunData(path.name, manifest, metrics, codivide)


def _codivide_checks(rows) -> list:
    return [
        (rows["epoch"] >= 1, "epoch must be at least 1"),
        *((rows[name] >= 0, f"{name} must be non-negative") for name in ("id", "observed", "true")),
        *(((rows[name] >= 0) & (rows[name] <= 1), f"{name} must lie in [0, 1]")
          for name in ("w_scratch", "w_embed")),
    ]


def export_codivide(run_dir) -> Path:
    """Write run_dir/codivide_audit.csv from the run's co-divide record, one
    CSV row per record row in CODIVIDE_HEADER's column order; returns its path."""
    path = Path(run_dir)
    rows = read_npy(path / "codivide_audit.npy", driver.CODIVIDE_RECORD, _codivide_checks)
    out = path / "codivide_audit.csv"
    write_csv(out, [driver.CODIVIDE_HEADER], (
        [rows[name][start:start + _EXPORT_CHUNK] for name in driver.CODIVIDE_RECORD.names]
        for start in range(0, rows.shape[0], _EXPORT_CHUNK)
    ))
    return out


def _read_columns(path: Path, required) -> dict:
    """Header names of a run file mapped to its float64 columns; an
    IngestionError naming path if any of the required columns is missing."""
    (header,), rows = read_csv(path, 1, lambda head: [
        ("cells", np.float64, (len(head[0].split(",")),)),
    ], what="run file")
    columns = dict(zip(header.split(","), rows["cells"].T))
    missing = [name for name in required if name not in columns]
    if missing:
        raise IngestionError(f"{path}: missing columns {','.join(missing)}")
    return columns


def selection_quality(codivide: dict, window) -> dict:
    """Count noisy samples judged clean (driver.noisy_judged_clean) at least
    once in the epoch window, versus noisy samples never so judged, plus
    clean samples.
    """
    lo, hi = window
    in_window = (codivide["epoch"] >= lo) & (codivide["epoch"] <= hi)
    ids = codivide["id"][in_window].astype(np.int64)
    noisy, judged = (mask[in_window] for mask in driver.noisy_judged_clean(codivide))
    # per distinct sample id: noisy as of its last row in the window, and
    # judged clean if both networks judged it so in any epoch of the window
    sample_ids, last_row, row_sample = np.unique(
        ids[::-1], return_index=True, return_inverse=True)
    noisy_sample = noisy[::-1][last_row]
    flagged = np.bincount(row_sample[judged[::-1]], minlength=sample_ids.shape[0]) > 0
    hn = int(np.sum(noisy_sample & flagged))
    ln = int(np.sum(noisy_sample & ~flagged))
    cs = int(np.sum(~noisy_sample))
    return {"hn": hn, "ln": ln, "cs": cs, "window": (int(lo), int(hi))}


def default_window(manifest: dict) -> tuple:
    sched = manifest["config"]["schedule"]
    warmup, start = sched["warmup"], sched["start_unlearn"]
    if type(warmup) is not int or type(start) is not int:
        raise TypeError(f"schedule epochs must be integers, got {warmup!r}, {start!r}")
    return (warmup + 1, start)


def write_report(run_dirs, out_dir, window=None) -> dict:
    """Emit curves.csv, summary.csv and selection_quality.csv for the given
    runs; incomplete run directories are skipped with a warning, and two
    runs with one run id (directory name) are a ConfigurationError. Returns
    the (best, last) accuracy dicts of driver.best_last_columns keyed by run
    id."""
    out_path = output_dir(out_dir)
    runs, dirs = [], {}
    for d in run_dirs:
        try:
            runs.append(load_run(d))
        except IngestionError as exc:
            logger.warning("skipping %s: %s", d, exc)
            continue
        run_id = runs[-1].run_id
        if run_id in dirs:
            raise ConfigurationError(f"run directories {dirs[run_id]} and {d} share the run id "
                                     f"{run_id}; the report could not tell them apart")
        dirs[run_id] = d
    if not runs:
        raise IngestionError("no completed run directories to report on")
    out_path.mkdir(parents=True, exist_ok=True)

    write_csv(out_path / "curves.csv", ["epoch,run_id,acc_scratch,acc_embed,acc_ens"], (
        (run.metrics["epoch"].astype(np.int64), run.run_id,
         *(run.metrics[key] for key in driver.ACC_KEYS))
        for run in runs
    ))

    best_last = [driver.best_last_columns(run.metrics) for run in runs]
    write_csv(out_path / "summary.csv", [
        "run_id,best_acc_scratch,last_acc_scratch,best_acc_embed,last_acc_embed,"
        "best_acc_ens,last_acc_ens"
    ], [list(zip(*((run.run_id, *(value[key] for key in driver.ACC_KEYS for value in pair))
                   for run, pair in zip(runs, best_last))))])

    quality = []
    for run in runs:
        if run.codivide is not None and run.codivide["epoch"].shape[0]:
            q = selection_quality(run.codivide, default_window(run.manifest) if window is None else window)
            quality.append((run.run_id, *q["window"], q["hn"], q["ln"], q["cs"]))
    write_csv(out_path / "selection_quality.csv", ["run_id,window_start,window_end,hn,ln,cs"],
              [list(zip(*quality))])
    return {run.run_id: pair for run, pair in zip(runs, best_last)}
