"""Reporting: hand-tallied selection-quality counts, multi-run curves, the
run-directory reader against the row-by-row parser and dict tally it
replaced, and damaged run files, the co-divide record included."""

import logging
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from coforget import cli, driver, report, util
from coforget.config import load_config
from coforget.errors import IngestionError

QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.yaml"


def _reference_read_csv_columns(path) -> dict:
    """The row-by-row float() parser the np.loadtxt reader of run files replaced."""
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


def _reference_selection_quality(codivide: dict, window, threshold: float = 0.5) -> dict:
    """The per-row dict tally report.selection_quality replaced."""
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


def _audit_from_rows(rows):
    """rows: (epoch, id, w_a, w_v, observed, true)."""
    cols = {"epoch": [], "id": [], "w_scratch": [], "w_embed": [],
            "labeled_scratch": [], "labeled_embed": [], "observed": [], "true": []}
    for epoch, sid, w_a, w_v, obs, true in rows:
        cols["epoch"].append(epoch)
        cols["id"].append(sid)
        cols["w_scratch"].append(w_a)
        cols["w_embed"].append(w_v)
        cols["labeled_scratch"].append(int(w_v >= 0.5))
        cols["labeled_embed"].append(int(w_a >= 0.5))
        cols["observed"].append(obs)
        cols["true"].append(true)
    return {k: np.array(v, dtype=np.float64) for k, v in cols.items()}


class TestSelectionQuality:
    def test_hand_tally(self):
        # sample 0: noisy, both nets >= .5 at epoch 2 only -> HN
        # sample 1: noisy, never both >= .5 (one net each epoch) -> LN
        # sample 2: clean -> CS
        rows = [
            (1, 0, 0.2, 0.9, 1, 0),
            (2, 0, 0.8, 0.7, 1, 0),
            (1, 1, 0.9, 0.1, 2, 0),
            (2, 1, 0.2, 0.9, 2, 0),
            (1, 2, 0.9, 0.9, 1, 1),
            (2, 2, 0.9, 0.9, 1, 1),
        ]
        q = report.selection_quality(_audit_from_rows(rows), (1, 2))
        assert q == {"hn": 1, "ln": 1, "cs": 1, "window": (1, 2)}

    def test_window_excludes_out_of_range_epochs(self):
        rows = [
            (1, 0, 0.9, 0.9, 1, 0),   # both nets agree only before the window
            (5, 0, 0.2, 0.2, 1, 0),
        ]
        q = report.selection_quality(_audit_from_rows(rows), (5, 9))
        assert q["hn"] == 0 and q["ln"] == 1

    def test_threshold_is_inclusive(self):
        rows = [(1, 0, 0.5, 0.5, 1, 0)]
        q = report.selection_quality(_audit_from_rows(rows), (1, 1))
        assert q["hn"] == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dict_tally_on_random_audits(self, seed):
        rng = np.random.default_rng(seed)
        n, epochs = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        true = rng.integers(0, 3, n)
        observed = np.where(rng.random(n) < 0.4, rng.integers(0, 3, n), true)
        rows = []
        for k in range(1, epochs + 1):
            pool = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
            # a grid of weights lands on the 0.5 threshold often
            w = rng.integers(0, 9, (2, pool.shape[0])) / 8.0
            rows += [(k, i, a, v, observed[i], true[i]) for i, a, v in zip(pool, *w)]
        audit = _audit_from_rows(rows)
        lo = int(rng.integers(0, epochs + 1))
        for window in ((lo, int(rng.integers(lo, epochs + 2))), (1, epochs), (epochs + 1, epochs + 5)):
            assert report.selection_quality(audit, window) == _reference_selection_quality(audit, window)

    def test_matches_dict_tally_when_labels_disagree_across_rows(self):
        # a sample's last row in the window sets whether it counts as noisy
        rows = [(1, 0, 0.9, 0.9, 1, 0), (2, 0, 0.9, 0.9, 1, 1), (3, 0, 0.1, 0.1, 1, 0)]
        audit = _audit_from_rows(rows)
        for window in ((1, 2), (1, 3), (2, 3)):
            assert report.selection_quality(audit, window) == _reference_selection_quality(audit, window)


class TestSharedRule:
    """The metric row's hn/ln/cs and report.selection_quality count with one
    noisy/judged-clean rule: over a single epoch the report's tally of the
    written record is that epoch's metric row."""

    @pytest.mark.parametrize("unlearning", ["true", "false"])
    @pytest.mark.parametrize("config", ["quick", "desk"])
    def test_metric_rows_match_the_report_per_epoch(self, tmp_path, config, unlearning):
        cfg = load_config(QUICK.parent / f"{config}.yaml", [f"method.unlearning={unlearning}"])
        res = driver.run(cfg, tmp_path / "run")
        record = report.load_run(tmp_path / "run").codivide
        warmup = cfg.schedule.warmup
        assert [(m.hn, m.ln, m.cs) for m in res.metrics[:warmup]] == [(0, 0, 0)] * warmup
        mismatches = []
        for m in res.metrics[warmup:]:
            q = report.selection_quality(record, (m.epoch, m.epoch))
            assert q["hn"] + q["ln"] + q["cs"] == m.n_pool
            if (m.hn, m.ln, m.cs) != (q["hn"], q["ln"], q["cs"]):
                mismatches.append(m.epoch)
        assert len(res.metrics) > warmup and mismatches == []


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Run dirs of configs/quick.yaml: unlearning on and off, a naive-ce arm
    and a warmup-only run (a zero-row codivide_audit.npy). Tests copy a dir
    before they write into it."""
    root = tmp_path_factory.mktemp("runs")
    arms = {
        "unl-on": ["method.unlearning=true"],
        "unl-off": ["method.unlearning=false"],
        "naive": ["method.kind=naive-ce"],
        "warmup-only": ["schedule.max_epoch=3", "schedule.encoder_unfreeze=3"],
    }
    for name, overrides in arms.items():
        driver.run(load_config(QUICK, overrides), root / name)
    return {name: root / name for name in arms}


def _copy_dirs(runs, root) -> dict:
    return {name: shutil.copytree(run_dir, root / name) for name, run_dir in runs.items()}


class TestReadRunDir:
    def test_columns_equal_row_by_row_parser(self, quick_runs, tmp_path):
        """metrics.csv columns equal the old parser's, and the record's
        columns equal the old parser's on the CSV `coforget export` writes."""
        for name, run_dir in _copy_dirs(quick_runs, tmp_path).items():
            run = report.load_run(run_dir)
            reference = _reference_read_csv_columns(run_dir / "metrics.csv")
            assert list(run.metrics) == list(reference)
            for col, values in reference.items():
                assert values.dtype == run.metrics[col].dtype == np.float64
                assert np.array_equal(run.metrics[col], values, equal_nan=True), (name, col)
            if not (run_dir / "codivide_audit.npy").exists():
                assert name == "naive" and run.codivide is None
                continue
            reference = _reference_read_csv_columns(report.export_codivide(run_dir))
            assert list(run.codivide.dtype.names) == list(reference)
            for col, values in reference.items():
                assert values.dtype == np.float64
                assert np.array_equal(run.codivide[col].astype(np.float64), values), (name, col)

    def test_header_only_file_gives_empty_columns(self, quick_runs):
        codivide = report.load_run(quick_runs["warmup-only"]).codivide
        assert codivide.shape == (0,) and codivide.dtype == driver.CODIVIDE_RECORD

    def test_legacy_dir_loads_without_codivide_and_warns(self, quick_runs, tmp_path, caplog):
        """A dir from before the record, with codivide_audit.csv only, loads
        with codivide None and one warning naming that file; its report has
        no selection-quality row."""
        legacy = shutil.copytree(quick_runs["unl-on"], tmp_path / "legacy")
        report.export_codivide(legacy)
        (legacy / "codivide_audit.npy").unlink()
        with caplog.at_level(logging.WARNING, logger="coforget"):
            run = report.load_run(legacy)
        assert run.codivide is None
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and str(legacy / "codivide_audit.csv") in warnings[0]
        report.write_report([legacy], tmp_path / "rep")
        assert (tmp_path / "rep" / "selection_quality.csv").read_text() == (
            "run_id,window_start,window_end,hn,ln,cs\n")

    def test_naive_arm_nan_column_round_trips(self, quick_runs):
        run = report.load_run(quick_runs["naive"])
        assert run.codivide is None
        assert run.metrics["acc_embed"].shape[0] == load_config(QUICK).schedule.max_epoch
        assert np.all(np.isnan(run.metrics["acc_embed"]))
        assert np.all(np.isfinite(run.metrics["acc_scratch"]))

    def test_report_files_equal_old_read_path(self, quick_runs, tmp_path, monkeypatch):
        """The report equals one made by the old parser and dict tally, the
        old parser reading the co-divide rows from the exported CSV."""
        dirs = list(_copy_dirs(quick_runs, tmp_path / "runs").values())
        report.write_report(dirs, tmp_path / "new")
        for run_dir in dirs:
            if (run_dir / "codivide_audit.npy").exists():
                report.export_codivide(run_dir)
        monkeypatch.setattr(report, "_read_columns",
                            lambda path, required: _reference_read_csv_columns(path))
        monkeypatch.setattr(report, "_window_rows", lambda path, window: (
            (columns := _reference_read_csv_columns(path.with_suffix(".csv"))),
            columns["epoch"].shape[0]))
        monkeypatch.setattr(report, "selection_quality", _reference_selection_quality)
        report.write_report(dirs, tmp_path / "old")
        for name in ("curves.csv", "summary.csv", "selection_quality.csv"):
            new = (tmp_path / "new" / name).read_bytes()
            assert new == (tmp_path / "old" / name).read_bytes(), name
        assert len((tmp_path / "new" / "selection_quality.csv").read_text().splitlines()) == 3


def _copy_run(src, dst):
    dst.mkdir()
    for name in ("manifest.json", "metrics.csv", "codivide_audit.npy"):
        (dst / name).write_bytes((src / name).read_bytes())


def _damage(run_dir, file_name, line_no, transform):
    path = run_dir / file_name
    lines = path.read_text().splitlines(keepends=True)
    lines[line_no - 1] = transform(lines[line_no - 1])
    path.write_text("".join(lines))
    return path


def _set_cell(column, value):
    def transform(line):
        cells = line.rstrip("\n").split(",")
        cells[column] = value
        return ",".join(cells) + "\n"
    return transform


def _drop_last_cell(line):
    return line.rstrip("\n").rsplit(",", 1)[0] + "\n"


DAMAGES = {
    "non-numeric": _set_cell(2, "abc"),
    "empty-cell": _set_cell(1, ""),
    "ragged": _drop_last_cell,
}


def _record_with(field, row, value):
    """Damage: set one field of one row of the co-divide record."""
    def transform(path):
        rows = np.load(path, allow_pickle=False)
        rows[field][row] = value
        np.save(path, rows, allow_pickle=False)
    return transform


def _record_header(**changes):
    """Damage: rewrite the record's header with the given keys changed."""
    def transform(path):
        rows = np.load(path, allow_pickle=False)
        header = {"descr": rows.dtype.descr, "fortran_order": False, "shape": rows.shape, **changes}
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            fh.write(rows.tobytes())
    return transform


def _truncate(keep):
    def transform(path):
        blob = path.read_bytes()
        path.write_bytes(blob[:keep if keep >= 0 else len(blob) + keep])
    return transform


def _damage_field_type(path):
    """Damage: one byte of the first field type in the record's header,
    '<i8' read as ',i8', which numpy's dtype parser takes for a comma string
    and fails on with a SyntaxError."""
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"'<i8'") + 1] = ord(",")
    path.write_bytes(bytes(blob))


# damage to codivide_audit.npy -> what the IngestionError says after the file name
RECORD_DAMAGES = {
    "damaged-field-type": (_damage_field_type, "not a .npy record"),
    "truncated-row": (_truncate(-7), "file holds"),
    "truncated-header": (_truncate(40), "not a .npy record"),
    "empty": (_truncate(0), "not a .npy record"),
    "rows-past-file-size": (_record_header(shape=(10**12,)), "header promises 1000000000000 rows"),
    "2-d": (_record_header(shape=(100, 1)), "expected a C-ordered 1-D"),
    "fortran-order": (_record_header(fortran_order=True), "expected a C-ordered 1-D"),
    "object-dtype": (_record_header(descr="|O"), "expected a C-ordered 1-D"),
    "big-endian": (_record_header(descr=driver.CODIVIDE_RECORD.newbyteorder(">").descr),
                   "expected a C-ordered 1-D"),
    "nan-weight": (_record_with("w_scratch", 60, np.nan), "row 60: w_scratch must lie in [0, 1]"),
    "weight-above-1": (_record_with("w_embed", 7, 1.5), "row 7: w_embed must lie in [0, 1]"),
    "epoch-0": (_record_with("epoch", 3, 0), "row 3: epoch must be at least 1"),
    "negative-id": (_record_with("id", 9, -1), "row 9: id must be non-negative"),
    "negative-label": (_record_with("true", 11, -2), "row 11: true must be non-negative"),
}


class TestBadRunFiles:
    @pytest.mark.parametrize("damage", sorted(RECORD_DAMAGES))
    def test_damaged_record_names_file(self, quick_runs, tmp_path, damage):
        run_dir = tmp_path / "run"
        _copy_run(quick_runs["unl-on"], run_dir)
        transform, says = RECORD_DAMAGES[damage]
        path = run_dir / "codivide_audit.npy"
        transform(path)
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}: .*{re.escape(says)}"):
            report.load_run(run_dir)

    @pytest.mark.parametrize("damage", ["rows-past-file-size", "truncated-row",
                                        "damaged-field-type"])
    def test_export_of_damaged_record_exits_2(self, quick_runs, tmp_path, capsys, damage):
        run_dir = tmp_path / "run"
        _copy_run(quick_runs["unl-on"], run_dir)
        RECORD_DAMAGES[damage][0](run_dir / "codivide_audit.npy")
        assert cli.main(["export", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert f"error: {run_dir / 'codivide_audit.npy'}: " in err and "Traceback" not in err
        assert not (run_dir / "codivide_audit.csv").exists()

    def test_export_without_record_exits_2_naming_it(self, quick_runs, tmp_path, capsys):
        assert cli.main(["export", str(quick_runs["naive"])]) == 2
        assert f"{quick_runs['naive'] / 'codivide_audit.npy'}: cannot read record" in (
            capsys.readouterr().err)
        assert not (quick_runs["naive"] / "codivide_audit.csv").exists()

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    @pytest.mark.parametrize("file_name, line_no", [("metrics.csv", 2), ("metrics.csv", 7)])
    def test_bad_cell_names_path_and_line(self, quick_runs, tmp_path, file_name, line_no, damage):
        run_dir = tmp_path / "run"
        _copy_run(quick_runs["unl-on"], run_dir)
        path = _damage(run_dir, file_name, line_no, DAMAGES[damage])
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}:{line_no}: "):
            report.load_run(run_dir)

    @pytest.mark.parametrize("epoch", ["nan", "inf", "1.5", "1e300"])
    def test_epoch_that_is_not_a_whole_number_names_file(self, quick_runs, tmp_path, epoch):
        run_dir = tmp_path / "run"
        _copy_run(quick_runs["unl-on"], run_dir)
        path = _damage(run_dir, "metrics.csv", 5, _set_cell(0, epoch))
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}: epochs must be whole"):
            report.load_run(run_dir)

    def test_report_skips_damaged_dir_with_warning(self, quick_runs, tmp_path, caplog):
        bad = tmp_path / "bad"
        _copy_run(quick_runs["unl-on"], bad)
        _record_with("w_scratch", 50, np.nan)(bad / "codivide_audit.npy")
        with caplog.at_level(logging.WARNING, logger="coforget"):
            report.write_report([bad, quick_runs["unl-off"]], tmp_path / "rep")
        assert any("skipping" in r.getMessage() and "codivide_audit.npy: row 50" in r.getMessage()
                   for r in caplog.records)
        summary = (tmp_path / "rep" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["unl-off"]

    @pytest.mark.parametrize("damage, found", [
        (lambda line: line + "\n", "4: blank line"),
        (_set_cell(2, "\x0b0.5"), "3: character '\\x0b'"),
    ], ids=["blank-line", "vt-padded-cell"])
    def test_report_skips_metrics_that_numpy_alone_would_accept(self, quick_runs, tmp_path, caplog,
                                                                 damage, found):
        """metrics.csv is read as strictly as every other table: a blank
        line or a \\x0b-padded cell skips its dir, naming path:line."""
        bad = tmp_path / "bad"
        _copy_run(quick_runs["unl-on"], bad)
        path = _damage(bad, "metrics.csv", 3, damage)
        with caplog.at_level(logging.WARNING, logger="coforget"):
            report.write_report([bad, quick_runs["unl-off"]], tmp_path / "rep")
        assert any("skipping" in r.getMessage() and f"{path}:{found}" in r.getMessage()
                   for r in caplog.records)
        summary = (tmp_path / "rep" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["unl-off"]

    def test_cli_report_skips_dir_with_damaged_field_type(self, quick_runs, tmp_path, capsys,
                                                          caplog):
        bad = tmp_path / "bad"
        _copy_run(quick_runs["unl-on"], bad)
        _damage_field_type(bad / "codivide_audit.npy")
        with caplog.at_level(logging.WARNING, logger="coforget"):
            code = cli.main(["report", str(quick_runs["unl-off"]), str(bad),
                             "--out", str(tmp_path / "rep")])
        assert code == 0 and "Traceback" not in capsys.readouterr().err
        skipped = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
        assert len(skipped) == 1 and skipped[0].startswith(
            f"skipping {bad}: {bad / 'codivide_audit.npy'}: not a .npy record (")
        summary = (tmp_path / "rep" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["unl-off"]

    @pytest.mark.parametrize("file_name", ["metrics.csv", "codivide_audit.npy"])
    def test_cli_exits_2_when_no_dir_is_left(self, quick_runs, tmp_path, capsys, file_name):
        bad = tmp_path / "bad"
        _copy_run(quick_runs["unl-on"], bad)
        if file_name == "metrics.csv":
            _damage(bad, file_name, 3, _set_cell(2, "abc"))
        else:
            _record_header(shape=(10**12,))(bad / file_name)
        assert cli.main(["report", str(bad), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "no completed run directories" in err and "Traceback" not in err


def _long_record(path, damage=None, shuffle=False):
    """Write, through util.npy_writer in two appends, a co-divide record of
    two util.RECORD_CHUNK chunks and part of a third: epochs 4 on, 150
    samples each. damage(rows) changes rows first; shuffle puts the rows
    out of epoch order. Returns the rows written."""
    n = 2 * util.RECORD_CHUNK + 100
    rows = np.zeros(n, driver.CODIVIDE_RECORD)
    index = np.arange(n)
    rows["epoch"], rows["id"] = 4 + index // 150, index % 150
    rows["w_scratch"], rows["w_embed"] = index * 7 % 9 / 8, index * 5 % 9 / 8
    rows["labeled_scratch"], rows["labeled_embed"] = rows["w_embed"] >= 0.5, rows["w_scratch"] >= 0.5
    rows["observed"], rows["true"] = rows["id"] % 3, rows["id"] // 3 % 3
    if shuffle:
        rows = rows[np.random.default_rng(0).permutation(n)]
    if damage is not None:
        damage(rows)
    with util.npy_writer(path, driver.CODIVIDE_RECORD) as append:
        append(rows[:n // 3])
        append(rows[n // 3:])
    return rows


def _set_row(field, row, value):
    def damage(rows):
        rows[field][row] = value
    return damage


class TestChunkedRecord:
    """A record longer than one chunk, read a chunk at a time: every row is
    checked and named by its index in the file, and report keeps only its
    window's rows. The quick manifest's window is (4, 12)."""

    def _run_dir(self, quick_runs, root, name="run", **record):
        run_dir = root / name
        _copy_run(quick_runs["unl-on"], run_dir)
        return run_dir, _long_record(run_dir / "codivide_audit.npy", **record)

    @pytest.mark.parametrize("window", [None, report.default_window], ids=["whole", "window"])
    def test_bad_weight_in_last_chunk_names_its_row(self, quick_runs, tmp_path, window):
        last = 2 * util.RECORD_CHUNK + 99
        run_dir, _ = self._run_dir(quick_runs, tmp_path, damage=_set_row("w_embed", last, 1.5))
        path = run_dir / "codivide_audit.npy"
        with pytest.raises(IngestionError,
                           match=rf"{re.escape(str(path))}: row {last}: w_embed must lie in \[0, 1\]"):
            report.load_run(run_dir, window)

    @pytest.mark.parametrize("window", [None, (4, 5)], ids=["default", "window"])
    def test_bad_row_outside_window_skips_dir(self, quick_runs, tmp_path, caplog, window):
        row = util.RECORD_CHUNK + 5
        bad, rows = self._run_dir(quick_runs, tmp_path, "bad", damage=_set_row("id", row, -1))
        assert rows["epoch"][row] > 12
        with caplog.at_level(logging.WARNING, logger="coforget"):
            report.write_report([bad, quick_runs["unl-off"]], tmp_path / "rep", window)
        assert any("skipping" in r.getMessage()
                   and f"codivide_audit.npy: row {row}: id must be non-negative" in r.getMessage()
                   for r in caplog.records)
        summary = (tmp_path / "rep" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["unl-off"]

    def test_no_row_in_window_gives_zero_row(self, quick_runs, tmp_path):
        run_dir, rows = self._run_dir(quick_runs, tmp_path)
        assert rows["epoch"].max() < 500
        report.write_report([run_dir], tmp_path / "rep", (500, 600))
        assert (tmp_path / "rep" / "selection_quality.csv").read_text() == (
            "run_id,window_start,window_end,hn,ln,cs\nrun,500,600,0,0,0\n")

    @pytest.mark.parametrize("window", [None, (1, 5)], ids=["default", "window"])
    def test_zero_row_record_gives_no_row(self, quick_runs, tmp_path, window):
        run_dir = tmp_path / "run"
        _copy_run(quick_runs["unl-on"], run_dir)
        with util.npy_writer(run_dir / "codivide_audit.npy", driver.CODIVIDE_RECORD):
            pass
        report.write_report([run_dir], tmp_path / "rep", window)
        assert (tmp_path / "rep" / "selection_quality.csv").read_text() == (
            "run_id,window_start,window_end,hn,ln,cs\n")

    @pytest.mark.parametrize("shuffle", [False, True], ids=["in-order", "shuffled"])
    @pytest.mark.parametrize("window", [(4, 12), (20, 40), (1, 3), (4, 500)])
    def test_window_rows_in_any_epoch_order(self, quick_runs, tmp_path, window, shuffle):
        """The window's rows are chosen by their epoch field in every chunk,
        in file order, whatever the order of epochs in the file."""
        run_dir, rows = self._run_dir(quick_runs, tmp_path, shuffle=shuffle)
        run = report.load_run(run_dir, lambda manifest: window)
        lo, hi = window
        assert run.window == window and run.record_rows == rows.shape[0]
        assert run.codivide.dtype == driver.CODIVIDE_RECORD
        assert run.codivide.tobytes() == rows[(rows["epoch"] >= lo) & (rows["epoch"] <= hi)].tobytes()
        assert report.selection_quality(run.codivide, window) == report.selection_quality(rows, window)


@pytest.fixture(scope="module")
def epoch_runs(tmp_path_factory):
    """Run dirs of configs/quick.yaml at schedule.max_epoch 24 and 96."""
    root = tmp_path_factory.mktemp("epochs")
    for max_epoch in (24, 96):
        driver.run(load_config(QUICK, [f"schedule.max_epoch={max_epoch}"]), root / str(max_epoch))
    return {max_epoch: root / str(max_epoch) for max_epoch in (24, 96)}


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRecordMemory:
    """The report and export hold a chunk of the co-divide record, not the
    whole record, so their traced peaks (tracemalloc, after one untraced
    call) do not follow the record's growth from schedule.max_epoch 24 to 96."""

    def test_report_peak_grows_less_than_a_quarter_of_the_record(self, epoch_runs, tmp_path):
        report.write_report([epoch_runs[24]], tmp_path / "untraced")
        peaks = {max_epoch: _traced_peak(report.write_report, [run_dir], tmp_path / str(max_epoch))
                 for max_epoch, run_dir in epoch_runs.items()}
        sizes = {max_epoch: (run_dir / "codivide_audit.npy").stat().st_size
                 for max_epoch, run_dir in epoch_runs.items()}
        record_growth = sizes[96] - sizes[24]
        assert record_growth > 400 * 1024
        assert peaks[96] - peaks[24] < record_growth / 4

    def test_export_peak_does_not_grow(self, epoch_runs, tmp_path):
        """Export's peak is one chunk's text: both records are longer than
        a chunk, so it barely moves while the record grows fourfold."""
        dirs = {max_epoch: shutil.copytree(run_dir, tmp_path / str(max_epoch))
                for max_epoch, run_dir in epoch_runs.items()}
        report.export_codivide(dirs[24])
        peaks = {max_epoch: _traced_peak(report.export_codivide, run_dir)
                 for max_epoch, run_dir in dirs.items()}
        sizes = {max_epoch: (run_dir / "codivide_audit.npy").stat().st_size
                 for max_epoch, run_dir in dirs.items()}
        assert sizes[24] > util.RECORD_CHUNK * driver.CODIVIDE_RECORD.itemsize
        assert peaks[96] - peaks[24] < (sizes[96] - sizes[24]) / 16


def _keep_columns(path, names):
    """Cut a CSV file or a .npy record down to the named columns, in the
    given order."""
    if path.suffix == ".npy":
        rows = np.load(path, allow_pickle=False)
        np.save(path, rows[names].copy(), allow_pickle=False)
        return
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    keep = [header.index(n) for n in names]
    path.write_text("".join(",".join(line.split(",")[i] for i in keep) + "\n" for line in lines))


MANIFEST_DAMAGES = {
    "not-json": "{",
    "empty-object": "{}",
    "not-an-object": "[1, 2]",
    "no-schedule": '{"config": {"method": {}}}',
    "schedule-not-mapping": '{"config": {"schedule": [3, 12]}}',
    "no-start-unlearn": '{"config": {"schedule": {"warmup": 3}}}',
    "non-integer-warmup": '{"config": {"schedule": {"warmup": "3", "start_unlearn": 12}}}',
    "not-utf8": b"\xff\xfe{",
}

COLUMN_DAMAGES = {
    "metrics-first-three": ("metrics.csv", ["epoch", "acc_scratch", "acc_embed"]),
    "metrics-no-epoch": ("metrics.csv", ["acc_scratch", "acc_embed", "acc_ens"]),
    "codivide-no-true": ("codivide_audit.npy", driver.CODIVIDE_HEADER.split(",")[:-1]),
    "codivide-no-weights": ("codivide_audit.npy", ["epoch", "id", "observed", "true"]),
}


class TestBadManifestAndColumns:
    """A manifest that is not a run manifest, or a run file without the columns
    report reads, is an IngestionError naming the file, so the dir is skipped."""

    @pytest.mark.parametrize("damage", sorted(MANIFEST_DAMAGES))
    def test_bad_manifest_names_file(self, quick_runs, tmp_path, damage):
        run_dir = tmp_path / "run"
        _copy_run(quick_runs["unl-on"], run_dir)
        text = MANIFEST_DAMAGES[damage]
        path = run_dir / "manifest.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}: not a run manifest"):
            report.load_run(run_dir)

    def test_unreadable_manifest_names_file(self, quick_runs, tmp_path):
        run_dir = tmp_path / "run"
        _copy_run(quick_runs["unl-on"], run_dir)
        path = run_dir / "manifest.json"
        path.unlink()
        path.mkdir()
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}: cannot read the run manifest"):
            report.load_run(run_dir)

    @pytest.mark.parametrize("damage", sorted(COLUMN_DAMAGES))
    def test_missing_columns_name_file(self, quick_runs, tmp_path, damage):
        file_name, keep = COLUMN_DAMAGES[damage]
        run_dir = tmp_path / "run"
        _copy_run(quick_runs["unl-on"], run_dir)
        _keep_columns(run_dir / file_name, keep)
        says = "missing columns " if file_name.endswith(".csv") else "holds a C-ordered array "
        pattern = rf"{re.escape(str(run_dir / file_name))}: {says}"
        with pytest.raises(IngestionError, match=pattern):
            report.load_run(run_dir)

    def test_report_skips_each_damaged_dir(self, quick_runs, tmp_path, caplog):
        bad = []
        for name in ("not-json", "empty-object"):
            bad.append(tmp_path / name)
            _copy_run(quick_runs["unl-on"], bad[-1])
            (bad[-1] / "manifest.json").write_text(MANIFEST_DAMAGES[name])
        bad.append(tmp_path / "manifest-directory")
        _copy_run(quick_runs["unl-on"], bad[-1])
        (bad[-1] / "manifest.json").unlink()
        (bad[-1] / "manifest.json").mkdir()
        for name, (file_name, keep) in COLUMN_DAMAGES.items():
            bad.append(tmp_path / name)
            _copy_run(quick_runs["unl-on"], bad[-1])
            _keep_columns(bad[-1] / file_name, keep)
        with caplog.at_level(logging.WARNING, logger="coforget"):
            report.write_report([*bad, quick_runs["unl-off"]], tmp_path / "rep")
        skipped = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
        assert len(skipped) == len(bad)
        summary = (tmp_path / "rep" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["unl-off"]

    @pytest.mark.parametrize("damage", ["not-json", "empty-object", "manifest-directory",
                                        "metrics-first-three"])
    def test_cli_exits_2(self, quick_runs, tmp_path, capsys, damage):
        bad = tmp_path / "bad"
        _copy_run(quick_runs["unl-on"], bad)
        if damage == "manifest-directory":
            (bad / "manifest.json").unlink()
            (bad / "manifest.json").mkdir()
        elif damage in MANIFEST_DAMAGES:
            (bad / "manifest.json").write_text(MANIFEST_DAMAGES[damage])
        else:
            file_name, keep = COLUMN_DAMAGES[damage]
            _keep_columns(bad / file_name, keep)
        assert cli.main(["report", str(bad), "--out", str(tmp_path / "rep")]) == 2
        assert "no completed run directories" in capsys.readouterr().err


class TestMultiRunReport:
    def test_paired_ablation_runs_share_curves_file(self, tmp_path):
        cfg = {
            "dataset": {"classes": 3, "per_class": 30, "test_per_class": 15, "dim": 3,
                        "spread": 1.5},
            "optim": {"batch_size": 32},
            "schedule": {"max_epoch": 8, "warmup": 2, "start_unlearn": 5,
                         "encoder_unfreeze": 4, "unlearn_period": 2, "unlearn_duration": 1},
            "method": {"t_unl": 0.05, "lambda_u": 2.0},
            "run": {"seed": 4},
        }
        base = tmp_path / "base.yaml"
        base.write_text(yaml.safe_dump(cfg))
        d1, d2 = tmp_path / "asym", tmp_path / "sym"
        assert cli.main(["train", "--config", str(base), "--outdir", str(d1)]) == 0
        assert cli.main([
            "train", "--config", str(base), "--outdir", str(d2),
            "--override", "method.asymmetric=false",
        ]) == 0
        rep = tmp_path / "rep"
        assert cli.main(["report", str(d1), str(d2), "--out", str(rep)]) == 0
        curves = (rep / "curves.csv").read_text()
        assert "asym" in curves and "sym" in curves
        assert len(curves.splitlines()) == 1 + 2 * 8
        summary = (rep / "summary.csv").read_text().splitlines()
        assert len(summary) == 3

    def test_no_valid_runs_is_an_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(IngestionError):
            report.write_report([empty], tmp_path / "rep")

    def test_two_runs_with_one_run_id_exit_2_naming_both(self, quick_runs, tmp_path, capsys):
        """Two sweeps' `seed=1` members share a directory name, which is the
        run id every report row carries."""
        first, second = tmp_path / "a" / "seed=1", tmp_path / "b" / "seed=1"
        for run_dir, arm in ((first, "unl-on"), (second, "unl-off")):
            run_dir.parent.mkdir()
            _copy_run(quick_runs[arm], run_dir)
        rep = tmp_path / "rep"
        assert cli.main(["report", str(first), str(second), "--out", str(rep)]) == 2
        err = capsys.readouterr().err
        assert f"run directories {first} and {second} share the run id seed=1" in err
        assert not rep.exists()
