"""Post-run reporting: accuracy curves, Best/Last summaries, and the
noisy-judged-clean accounting computed from run directories.

All outputs are plot-ready CSV; nothing is rendered.
"""

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import driver
from .errors import IngestionError
from .util import fmt_float, output_dir

logger = logging.getLogger("coforget")


@dataclass
class RunData:
    run_id: str
    manifest: dict
    metrics: dict          # column name -> np.ndarray
    codivide: dict | None  # column name -> np.ndarray, None if absent
    path: Path


def _read_csv_columns(path: Path) -> dict:
    """Header names mapped to float64 columns, parsed in one numpy call.

    A header-only file gives zero-length columns. A ragged row or a cell that
    is not a number raises IngestionError naming path:line.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise IngestionError(f"{path}: empty file")
        names = header.rstrip("\n").split(",")
        body = fh.tell()
        if not fh.read(1):
            return {n: np.empty(0) for n in names}
        fh.seek(body)
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError as exc:
            reason = str(exc)
        else:
            if table.shape[1] == len(names):
                return dict(zip(names, table.T))
            reason = "column count differs from the header"
        fh.seek(body)
        raise _bad_line(path, fh, len(names), reason)


def _bad_line(path: Path, lines, width: int, reason: str) -> IngestionError:
    """IngestionError naming the first data line (the header is line 1) that
    is ragged or holds a cell float() rejects. np.loadtxt's own message counts
    rows from 0 or 1 depending on the fault and skips blank lines, so it is
    only the fallback."""
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.rstrip("\n").split(",")
        if len(cells) != width:
            return IngestionError(f"{path}:{lineno}: {len(cells)} cells, expected {width}")
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                return IngestionError(f"{path}:{lineno}: not a number: {cell!r}")
    return IngestionError(f"{path}: {reason}")


def load_run(run_dir) -> RunData:
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
    codivide_path = path / "codivide_audit.csv"
    codivide = (
        _read_columns(codivide_path, driver.CODIVIDE_HEADER.split(","))
        if codivide_path.exists() else None
    )
    return RunData(path.name, manifest, metrics, codivide, path)


def _read_columns(path: Path, required) -> dict:
    """_read_csv_columns, and an IngestionError naming path if any of the
    required columns is missing."""
    columns = _read_csv_columns(path)
    missing = [name for name in required if name not in columns]
    if missing:
        raise IngestionError(f"{path}: missing columns {','.join(missing)}")
    return columns


def selection_quality(codivide: dict, window, threshold: float = 0.5) -> dict:
    """Count noisy samples judged clean by both networks at least once in the
    epoch window, versus noisy samples never so judged, plus clean samples.
    """
    lo, hi = window
    in_window = (codivide["epoch"] >= lo) & (codivide["epoch"] <= hi)
    ids = codivide["id"][in_window].astype(np.int64)
    noisy = codivide["observed"][in_window] != codivide["true"][in_window]
    judged = (codivide["w_scratch"][in_window] >= threshold) & (codivide["w_embed"][in_window] >= threshold)
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
    runs; incomplete run directories are skipped with a warning. Returns the
    (best, last) accuracy dicts of driver.best_last_columns keyed by run id."""
    out_path = output_dir(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    runs = []
    for d in run_dirs:
        try:
            runs.append(load_run(d))
        except IngestionError as exc:
            logger.warning("skipping %s: %s", d, exc)
    if not runs:
        raise IngestionError("no completed run directories to report on")

    with open(out_path / "curves.csv", "w", newline="\n") as fh:
        fh.write("epoch,run_id,acc_scratch,acc_embed,acc_ens\n")
        for run in runs:
            m = run.metrics
            for i in range(m["epoch"].shape[0]):
                fh.write(
                    f"{int(m['epoch'][i])},{run.run_id},{fmt_float(m['acc_scratch'][i])},"
                    f"{fmt_float(m['acc_embed'][i])},{fmt_float(m['acc_ens'][i])}\n"
                )

    summary = {}
    with open(out_path / "summary.csv", "w", newline="\n") as fh:
        fh.write("run_id,best_acc_scratch,last_acc_scratch,best_acc_embed,last_acc_embed,best_acc_ens,last_acc_ens\n")
        for run in runs:
            best, last = driver.best_last_columns(run.metrics)
            summary[run.run_id] = (best, last)
            cells = (f"{fmt_float(best[key])},{fmt_float(last[key])}" for key in driver.ACC_KEYS)
            fh.write(f"{run.run_id},{','.join(cells)}\n")

    with open(out_path / "selection_quality.csv", "w", newline="\n") as fh:
        fh.write("run_id,window_start,window_end,hn,ln,cs\n")
        for run in runs:
            if run.codivide is None or run.codivide["epoch"].shape[0] == 0:
                continue
            win = window if window is not None else default_window(run.manifest)
            q = selection_quality(run.codivide, win)
            fh.write(
                f"{run.run_id},{q['window'][0]},{q['window'][1]},{q['hn']},{q['ln']},{q['cs']}\n"
            )
    return summary
