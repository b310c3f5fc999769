"""Post-run reporting: accuracy curves, Best/Last summaries, and the
noisy-judged-clean accounting computed from run directories.

A run directory is read from its manifest, its metrics.csv and its co-divide
record, codivide_audit.npy, whose every row is read and checked a chunk at
a time by util.npy_record, the one reader of the record. load_run keeps
only the record's rows of its epoch window, the manifest's default or the
one it is given, so it never holds the whole record. A directory from
before that record, holding only codivide_audit.csv, loads without
co-divide rows. export_codivide writes the record as that CSV, one chunk
at a time.

All outputs are plot-ready CSV; nothing is rendered.
"""

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import driver
from .errors import ConfigurationError, IngestionError
from .util import npy_record, output_dir, read_csv, write_csv

logger = logging.getLogger("coforget")

# a record row as one opaque item: numpy copies structured rows field by
# field, and whole items ~10x faster
_ROW_BYTES = np.dtype((np.void, driver.CODIVIDE_RECORD.itemsize))


@dataclass
class RunData:
    run_id: str
    manifest: dict
    metrics: dict          # column name -> np.ndarray
    codivide: np.ndarray | None  # the record's rows of epochs lo to hi, None if absent
    window: tuple          # (lo, hi)
    record_rows: int = 0   # the whole record's row count


def load_run(run_dir, window=None) -> RunData:
    """A completed run directory: its manifest, its metrics.csv columns and
    its co-divide record (None for the naive-ce arm, or for a directory that
    predates the record). The record keeps only the rows of epochs lo to
    hi, window being (lo, hi) or else default_window(manifest), though
    every row is read and checked. A file that is missing or damaged raises
    IngestionError naming it."""
    path = Path(run_dir)
    manifest_path = path / "manifest.json"
    metrics_path = path / "metrics.csv"
    if not manifest_path.exists() or not metrics_path.exists():
        raise IngestionError(f"{path}: not a completed run directory (need manifest.json and metrics.csv)")
    try:
        manifest = json.loads(manifest_path.read_text())
        default = default_window(manifest)  # checks the manifest whatever the window
    except OSError as exc:
        raise IngestionError(f"{manifest_path}: cannot read the run manifest ({exc})") from None
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
    window = window or default
    codivide, record_rows = None, 0
    if codivide_path.exists():
        codivide, record_rows = _window_rows(codivide_path, window)
    elif (path / "codivide_audit.csv").exists():
        logger.warning("%s: co-divide CSV of an older run, not read; "
                       "its selection quality is not reported", path / "codivide_audit.csv")
    return RunData(path.name, manifest, metrics, codivide, window, record_rows)


def _window_rows(path, window) -> tuple:
    """(the co-divide record's rows of epochs lo to hi, window being (lo,
    hi), and the record's row count). A first pass reads and checks every
    chunk and notes which of its rows are in the window; a second reads
    again, from the same open file, the chunks that hold any and gathers
    those rows into one array of their count, so they are held once, not
    once in pieces and again joined."""
    lo, hi = window
    with npy_record(path, driver.CODIVIDE_RECORD) as (record_rows, chunks):
        masks = {}  # chunk index -> which of its rows are in the window, if any is
        for index, rows in enumerate(chunks(_codivide_checks)):
            in_window = (rows["epoch"] >= lo) & (rows["epoch"] <= hi)
            if in_window.any():
                masks[index] = in_window
        kept, end = np.empty(sum(map(np.count_nonzero, masks.values())), _ROW_BYTES), 0
        for rows, in_window in zip(chunks(at=masks), masks.values()):
            start, end = end, end + np.count_nonzero(in_window)
            kept[start:end] = rows.view(_ROW_BYTES)[in_window]
    return kept.view(driver.CODIVIDE_RECORD), record_rows


# each record field's lowest valid value, highest (None: unbounded), and
# what a row that fails says
_CODIVIDE_RANGES = (
    ("epoch", 1, None, "epoch must be at least 1"),
    *((name, 0, None, f"{name} must be non-negative") for name in ("id", "observed", "true")),
    *((name, 0, 1, f"{name} must lie in [0, 1]") for name in ("w_scratch", "w_embed")),
)


def _codivide_checks(rows):
    """The (good-row mask, reason) of each _CODIVIDE_RANGES check that some
    of rows fail: a field's min and max (NaN if any row is NaN) clear a
    check without its mask."""
    for name, lo, hi, reason in _CODIVIDE_RANGES:
        column = rows[name]
        if not (np.minimum.reduce(column) >= lo and (hi is None or np.maximum.reduce(column) <= hi)):
            yield (column >= lo) & (column <= hi) if hi is not None else column >= lo, reason


def export_codivide(run_dir) -> Path:
    """Write run_dir/codivide_audit.csv from the run's co-divide record, one
    CSV row per record row in CODIVIDE_HEADER's column order, reading,
    checking and writing one chunk of rows at a time; returns its path."""
    path = Path(run_dir)
    out = path / "codivide_audit.csv"
    with npy_record(path / "codivide_audit.npy", driver.CODIVIDE_RECORD) as (_, chunks):
        write_csv(out, [driver.CODIVIDE_HEADER], (
            [rows[name] for name in driver.CODIVIDE_RECORD.names] for rows in chunks(_codivide_checks)
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


def selection_quality(codivide: np.ndarray, window) -> dict:
    """Over the driver.CODIVIDE_RECORD rows codivide holds of epochs lo to
    hi, window being (lo, hi), count the noisy samples judged clean
    (driver.noisy_judged_clean) at least once, the noisy samples never so
    judged, and the clean samples."""
    lo, hi = window
    in_window = (codivide["epoch"] >= lo) & (codivide["epoch"] <= hi)
    ids = codivide["id"][in_window]
    noisy, judged = (mask[in_window] for mask in driver.noisy_judged_clean(codivide))
    # the window's rows by sample id, each sample's in row order (a stable
    # sort): a sample is noisy as of its last row, and judged clean if both
    # networks judged it so in any of its rows
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    new = ids[1:] != ids[:-1]  # sorted row i + 1 is another sample's first
    last, first = np.append(new, True)[:ids.size], np.append(True, new)[:ids.size]
    noisy_sample = noisy[order[last]]
    flagged = np.logical_or.reduceat(judged[order], np.flatnonzero(first))
    hn = int(np.sum(noisy_sample & flagged))
    ln = int(np.sum(noisy_sample & ~flagged))
    cs = int(np.sum(~noisy_sample))
    return {"hn": hn, "ln": ln, "cs": cs, "window": (int(lo), int(hi))}


def default_window(manifest: dict) -> tuple:
    """(warmup + 1, start_unlearn) of the manifest's schedule, the epochs
    after warmup and before unlearning begins; a ValueError if either
    bound is outside int64, the type the report writes them as."""
    sched = manifest["config"]["schedule"]
    warmup, start = sched["warmup"], sched["start_unlearn"]
    if type(warmup) is not int or type(start) is not int:
        raise TypeError(f"schedule epochs must be integers, got {warmup!r}, {start!r}")
    window = (warmup + 1, start)
    if not all(-2**63 <= bound < 2**63 for bound in window):
        raise ValueError(f"window {window} from the schedule is outside int64")
    return window


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
            runs.append(load_run(d, window))
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
        if run.record_rows:
            q = selection_quality(run.codivide, run.window)
            quality.append((run.run_id, *q["window"], q["hn"], q["ln"], q["cs"]))
    write_csv(out_path / "selection_quality.csv", ["run_id,window_start,window_end,hn,ln,cs"],
              [list(zip(*quality))])
    return {run.run_id: pair for run, pair in zip(runs, best_last)}
