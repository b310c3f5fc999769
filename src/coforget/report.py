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
from .util import fmt_float

logger = logging.getLogger("coforget")


@dataclass
class RunData:
    run_id: str
    manifest: dict
    metrics: dict          # column name -> np.ndarray
    codivide: dict | None  # column name -> np.ndarray, None if absent
    path: Path


def _read_csv_columns(path: Path) -> dict:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise IngestionError(f"{path}: empty file")
    names = lines[0].split(",")
    cols = {n: [] for n in names}
    for row in lines[1:]:
        parts = row.split(",")
        if len(parts) != len(names):
            raise IngestionError(f"{path}: ragged row {row!r}")
        for n, v in zip(names, parts):
            cols[n].append(v)
    out = {}
    for n, vals in cols.items():
        try:
            out[n] = np.array([float(v) for v in vals])
        except ValueError:
            out[n] = np.array(vals)
    return out


def load_run(run_dir) -> RunData:
    path = Path(run_dir)
    manifest_path = path / "manifest.json"
    metrics_path = path / "metrics.csv"
    if not manifest_path.exists() or not metrics_path.exists():
        raise IngestionError(f"{path}: not a completed run directory (need manifest.json and metrics.csv)")
    manifest = json.loads(manifest_path.read_text())
    metrics = _read_csv_columns(metrics_path)
    codivide_path = path / "codivide_audit.csv"
    codivide = _read_csv_columns(codivide_path) if codivide_path.exists() else None
    return RunData(path.name, manifest, metrics, codivide, path)


def selection_quality(codivide: dict, window, threshold: float = 0.5) -> dict:
    """Count noisy samples judged clean by both networks at least once in the
    epoch window, versus noisy samples never so judged, plus clean samples.
    """
    lo, hi = window
    in_window = (codivide["epoch"] >= lo) & (codivide["epoch"] <= hi)
    ids = codivide["id"][in_window].astype(np.int64)
    noisy = codivide["observed"][in_window] != codivide["true"][in_window]
    judged = (codivide["w_scratch"][in_window] >= threshold) & (codivide["w_embed"][in_window] >= threshold)
    seen = {}
    flagged = {}
    for sample_id, is_noisy, is_judged in zip(ids.tolist(), noisy.tolist(), judged.tolist()):
        seen[sample_id] = is_noisy
        flagged[sample_id] = flagged.get(sample_id, False) or is_judged
    hn = sum(1 for i, is_noisy in seen.items() if is_noisy and flagged[i])
    ln = sum(1 for i, is_noisy in seen.items() if is_noisy and not flagged[i])
    cs = sum(1 for is_noisy in seen.values() if not is_noisy)
    return {"hn": hn, "ln": ln, "cs": cs, "window": (int(lo), int(hi))}


def default_window(manifest: dict) -> tuple:
    sched = manifest["config"]["schedule"]
    return (sched["warmup"] + 1, sched["start_unlearn"])


def write_report(run_dirs, out_dir, window=None) -> dict:
    """Emit curves.csv, summary.csv and selection_quality.csv for the given
    runs; incomplete run directories are skipped with a warning. Returns the
    (best, last) accuracy dicts of driver.best_last_columns keyed by run id."""
    out_path = Path(out_dir)
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
