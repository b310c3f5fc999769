"""The file formats in util: the CSV codec's cell text, round trips on
adversarial columns, the reader's faults, a differential fuzz of the dataset
and oracle loaders against their frozen line-by-line versions, a check that
no other module reads or writes CSV through numpy itself; the .npy record
reader against damaged files; the forked worker-pool map and helper
process; and writers that never leave a half-written file."""

import ast
import builtins
import errno
import io
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import frozen_loaders
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coforget import data, driver, net, oracle, util
from coforget.errors import ConfigurationError, IngestionError, StateError
from coforget.util import fmt_float
from test_data import BAD_CELLS, PACKAGE_ERRORS
from test_driver import _children

SRC = Path(__file__).resolve().parent.parent / "src" / "coforget"


def _float_table(head):
    return [("cells", np.float64, (len(head[0].split(",")),))]


def _read_floats(path) -> dict:
    """Header names mapped to float64 columns, as report reads run files."""
    (header,), rows = util.read_csv(path, 1, _float_table)
    return dict(zip(header.split(","), rows["cells"].T))


ADVERSARIAL = {
    "f": np.array([np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e-305, 1e308, -1e308,
                   np.inf, -np.inf, 0.1, 1 / 3]),
    "i": np.array([0, -1, 2**63 - 1, -2**63, 10**18, 7, -10**18, 2**53 + 1, 9, 10, 11, 12]),
    "b": np.array([True, False] * 6),
    "s": np.array(["train", "test", "a b", "", "x" * 40, "é"] * 2),
}
ADVERSARIAL_FIELDS = [("f", np.float64), ("i", np.int64), ("b", np.int64), ("s", "U41")]


class TestWriter:
    def test_cells_are_repr_decimal_flag_and_text(self):
        text = util.format_rows(list(ADVERSARIAL.values()))
        expected = [
            f"{fmt_float(f)},{int(i)},{int(b)},{s}" for f, i, b, s in zip(*ADVERSARIAL.values())
        ]
        assert text.split("\n") == expected

    def test_round_trip_adversarial_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        util.write_csv(path, ["f,i,b,s"], [list(ADVERSARIAL.values())])
        head, rows = util.read_csv(path, 1, lambda head: ADVERSARIAL_FIELDS)
        assert head == ["f,i,b,s"]
        f = ADVERSARIAL["f"]
        assert np.array_equal(rows["f"], f, equal_nan=True)
        assert np.array_equal(np.signbit(rows["f"]), np.signbit(f))
        assert np.array_equal(rows["i"], ADVERSARIAL["i"])
        assert np.array_equal(rows["b"], ADVERSARIAL["b"])
        assert np.array_equal(rows["s"], ADVERSARIAL["s"])

    def test_empty_columns_write_the_head_only(self, tmp_path):
        path = tmp_path / "t.csv"
        util.write_csv(path, ["f,i,b,s"], [[col[:0] for col in ADVERSARIAL.values()], []])
        assert path.read_bytes() == b"f,i,b,s\n"
        _, rows = util.read_csv(path, 1, lambda head: ADVERSARIAL_FIELDS)
        assert rows.shape == (0,) and rows.dtype == np.dtype(ADVERSARIAL_FIELDS)

    def test_chunks_and_scalar_columns(self, tmp_path):
        ids = np.arange(5)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        util.write_csv(one, ["a", "b"], [(3, ids, "x"), (4, ids[:2], "y")])
        rows = [f"3,{i},x" for i in range(5)] + ["4,0,y", "4,1,y"]
        util.write_csv(two, ["a", "b"], [(np.array([3] * 5 + [4] * 2),
                                          np.r_[ids, ids[:2]], ["x"] * 5 + ["y"] * 2)])
        assert one.read_text() == "a\nb\n" + "".join(r + "\n" for r in rows)
        assert one.read_bytes() == two.read_bytes()

    def test_csv_row_matches_the_field_by_field_formatter(self):
        for m in (driver.EpochMetrics(7, 0.1, float("nan"), 1 / 3, 5e-324, -0.0, 1, 2, 3, 4, 5, 6),
                  driver.EpochMetrics(120, 1.0, 0.0, 0.5, 1e308, 2.5, 0, 0, 900, 0, 0, 0)):
            old = ",".join([str(m.epoch)] + [fmt_float(v) for v in (
                m.acc_scratch, m.acc_embed, m.acc_ens, m.train_loss_scratch, m.train_loss_embed)]
                + [str(v) for v in (m.n_forget_scratch, m.n_forget_embed, m.n_pool, m.hn, m.ln, m.cs)])
            assert m.csv_row() == old


class TestReader:
    def test_ragged_header_width_names_first_data_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("a,b,c\n1,2\n3,4\n")
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}:2: 2 cells, expected 3"):
            _read_floats(path)

    def test_blank_lines_count_toward_line_number(self, tmp_path):
        """A blank line is itself the fault, reported ahead of a bad cell after it."""
        path = tmp_path / "metrics.csv"
        path.write_text("a,b\n1,2\n\n3,x\n")
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}:3: blank line"):
            _read_floats(path)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("")
        with pytest.raises(IngestionError, match="empty file"):
            _read_floats(path)

    @pytest.mark.parametrize("text, lineno", [("\na,b\n1,2\n", 1), ("a,b\n\n1,2\n", 2),
                                              ("a,b\n1,2\n\n3,4\n", 3), ("a,b\n1,2\n\n", 3)],
                             ids=["first-line", "after-header", "between-rows", "at-end"])
    def test_blank_line_is_an_error(self, tmp_path, text, lineno):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}:{lineno}: blank line"):
            _read_floats(path)

    @pytest.mark.parametrize("char", ["\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                                      "\x85", "\u2028", "\u2029"])
    def test_strict_rejects_line_breaks_and_cell_padding_numpy_would_accept(self, tmp_path, char):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n1,2\n3,4{char}\n")
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}:3: character"):
            util.read_csv(path, 1, _float_table)

    @pytest.mark.parametrize("cell, what", [
        ("1.5", "not an int64"), ("1e3", "not an int64"), ("99999999999999999999999", "not an int64"),
        ("x", "not a number"),
    ])
    def test_cell_its_field_rejects_names_line(self, tmp_path, cell, what):
        path = tmp_path / "t.csv"
        column = 0 if what == "not an int64" else 1
        path.write_text("i,f\n1,2\n" + ",".join([cell, "0.5"] if column == 0 else ["3", cell]) + "\n")
        with pytest.raises(IngestionError, match=rf":3: {what}: '{re.escape(cell)}'"):
            util.read_csv(path, 1, lambda head: [("i", np.int64), ("f", np.float64)])

    def test_non_utf8_bytes_are_ingestion_errors(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(IngestionError, match="cannot read table"):
            util.read_csv(path, 1, _float_table, what="table")

    def test_width_the_file_cannot_have_is_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_text("# coforget oracle v1\n1000000000\n0,1.0\n")
        with pytest.raises(IngestionError, match=r"oracle\.csv:3: 2 cells, expected 1000000001"):
            oracle.load_oracle_file(path)
        path.write_text("# coforget oracle v1\n1000000000\n")
        with pytest.raises(IngestionError, match=r"oracle\.csv: "):
            oracle.load_oracle_file(path)


class TestLoaderTraps:
    """Faults a one-call np.loadtxt read would let through if unchecked."""

    @staticmethod
    def _dataset(tmp_path, row3):
        ds = data.make_blobs(2, 2, 2, 1.0, 0, test_per_class=1)
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = row3
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("row3", ["0,trainx,0,0,0.5,0.5", "0,train,1.5,1,0.5,0.5",
                                      "0,train\x00,0,0,0.5,0.5", "0,test ,0,0,0.5,0.5"])
    def test_bad_row_rejected_at_its_line(self, tmp_path, row3):
        path = self._dataset(tmp_path, row3)
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}:3: "):
            data.load_dataset(path)

    def test_blank_line_rejected(self, tmp_path):
        for loader, save, table in (
            (data.load_dataset, data.save_dataset, data.make_blobs(2, 2, 2, 1.0, 0)),
            (oracle.load_oracle_file, oracle.save_oracle_file,
             oracle.OracleTable(np.full((4, 2), 0.5))),
        ):
            path = tmp_path / "f.csv"
            save(table, path)
            path.write_text(path.read_text() + "\n")
            with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}:7: blank line"):
                loader(path)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"# coforget oracle v1\n2\n0,0.5,\xff\n")
        with pytest.raises(IngestionError, match="cannot read oracle file"):
            oracle.load_oracle_file(path)
        path.write_bytes(b"# coforget dataset v1\n2,1,1\n0,train,0,\xff,0.5\n")
        with pytest.raises(IngestionError, match="cannot read dataset file"):
            data.load_dataset(path)


# cells both np.loadtxt and int()/float() read the same way; cells only
# int()/float() take ("1_0", non-ASCII digits) are left out, the one-call
# loaders reject them
DIFF_CELLS = BAD_CELLS + ("1.0", "+1", " 1", "1 ", "-0", "0.50", "1e0", "train", "test",
                          "trainx", "Train", "tes", "\t0.5", "99999999999999999999999")


# what str.splitlines(), int(), float() and np.loadtxt read differently
STRAY = ("\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029",
         "\xa0", "\u2003", "\r", "\n", "\t", " ", ",", ".", "-", "+", "e", "_", "0", "1", "\u0663",
         "nan", "inf", "train", "test")


def _damaged(draw, lines):
    """The text of a file's lines after one to four faults: a line dropped,
    a blank line inserted, two lines swapped, the file cut inside a line,
    two cells swapped or a cell overwritten with a bad value; with or
    without a final newline."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4), label="n_faults")):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1), label="line")
        j = draw(st.integers(0, len(lines) - 1), label="other_line")
        kind = draw(st.sampled_from(["drop", "blank", "swap_lines", "cut", "swap_cells", "bad"]),
                    label="kind")
        if kind == "drop":
            del lines[i]
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", " "]), label="blank"))
        elif kind == "swap_lines":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])), label="keep")]
            del lines[i + 1:]
        else:
            rows = {i: lines[i].split(","), j: lines[j].split(",")}
            a = draw(st.integers(0, len(rows[i]) - 1), label="cell")
            if kind == "bad":
                rows[i][a] = draw(st.sampled_from(DIFF_CELLS), label="value")
            else:
                b = draw(st.integers(0, len(rows[j]) - 1), label="other_cell")
                rows[i][a], rows[j][b] = rows[j][b], rows[i][a]
            for k, cells in rows.items():
                lines[k] = ",".join(cells)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]), label="end")


# the row loops also die with a bare ValueError on some damaged files (a
# header dimension np.empty cannot allocate); that is a rejection too
OLD_REJECTS = PACKAGE_ERRORS + (ValueError,)


def _outcome(load, *args, rejects=PACKAGE_ERRORS):
    """None when load rejects its input with one of rejects, else the
    arrays it returns."""
    try:
        result = load(*args)
    except rejects:
        return None
    if isinstance(result, oracle.OracleTable):
        return [result.probs]
    return [result.features, result.true_labels, result.observed_labels, result.is_test,
            np.array(result.n_classes)]


def _assert_same_outcome(old, new):
    assert (old is None) == (new is None), ("parent accepts" if new is None else "parent rejects")
    for a, b in zip(old or (), new or ()):
        assert a.dtype == b.dtype and np.array_equal(a, b)


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoadersAgreeWithRowLoops:
    @FUZZ
    @given(draw=st.data())
    def test_dataset(self, tmp_path, draw):
        ds = data.make_blobs(3, 3, 2, 1.0, 0, test_per_class=1)
        ds = data.inject_noise(ds, data.symmetric_matrix(3, 0.4), 1)
        path = tmp_path / "ds.csv"
        data.save_dataset(ds, path)
        path.write_text(_damaged(draw.draw, path.read_text().splitlines()))
        old = _outcome(frozen_loaders.load_dataset, path, rejects=OLD_REJECTS)
        new = _outcome(data.load_dataset, path)
        if old is not None and np.any(np.diff(old[3].astype(np.int64)) < 0):
            # a train row after a test row: a rule the row loops predate
            assert new is None
        else:
            _assert_same_outcome(old, new)

    @FUZZ
    @given(draw=st.data())
    def test_oracle(self, tmp_path, draw):
        ds = data.make_blobs(3, 3, 2, 1.0, 0, test_per_class=1)
        path = tmp_path / "oracle.csv"
        oracle.save_oracle_file(oracle.synthetic_oracle(ds, 0.7, 0.6, 1), path)
        path.write_text(_damaged(draw.draw, path.read_text().splitlines()))
        expected = draw.draw(st.sampled_from([None, range(ds.n)]), label="expected_ids")
        _assert_same_outcome(_outcome(frozen_loaders.load_oracle_file, path, expected, rejects=OLD_REJECTS),
                             _outcome(oracle.load_oracle_file, path, expected))

    @FUZZ
    @given(draw=st.data())
    def test_stray_characters_never_make_a_rejected_file_load(self, tmp_path, draw):
        """Characters the row loops treat differently from np.loadtxt, put
        anywhere: a file the one-call loaders accept, the row loops accept
        with equal arrays (the reverse need not hold, see DIFF_CELLS)."""
        ds = data.make_blobs(2, 2, 2, 1.0, 0, test_per_class=1)
        path = tmp_path / "f.csv"
        if draw.draw(st.booleans(), label="oracle"):
            oracle.save_oracle_file(oracle.synthetic_oracle(ds, 0.7, 0.6, 1), path)
            loaders = (frozen_loaders.load_oracle_file, oracle.load_oracle_file)
        else:
            data.save_dataset(ds, path)
            loaders = (frozen_loaders.load_dataset, data.load_dataset)
        text = path.read_text()
        for _ in range(draw.draw(st.integers(1, 3), label="n_edits")):
            i = draw.draw(st.integers(0, len(text)), label="at")
            j = draw.draw(st.integers(i, min(len(text), i + 3)), label="to")
            text = text[:i] + draw.draw(st.sampled_from(STRAY), label="put") + text[j:]
        path.write_text(text, newline="")
        old, new = _outcome(loaders[0], path, rejects=OLD_REJECTS), _outcome(loaders[1], path)
        if new is not None:
            _assert_same_outcome(old, new)

    @pytest.mark.parametrize("noise", ["symmetric", "instance"])
    def test_undamaged_files_load_equal(self, tmp_path, noise):
        ds = data.make_blobs(4, 50, 5, 2.0, 3, test_per_class=20)
        ds = (data.instance_noise(ds, 0.3, 4) if noise == "instance"
              else data.inject_noise(ds, data.symmetric_matrix(4, 0.4), 4))
        ds_path, oracle_path = tmp_path / "ds.csv", tmp_path / "oracle.csv"
        data.save_dataset(ds, ds_path)
        oracle.save_oracle_file(oracle.synthetic_oracle(ds, 0.7, 0.6, 5), oracle_path)
        _assert_same_outcome(_outcome(frozen_loaders.load_dataset, ds_path, rejects=OLD_REJECTS),
                             _outcome(data.load_dataset, ds_path))
        _assert_same_outcome(_outcome(frozen_loaders.load_oracle_file, oracle_path, range(ds.n),
                                      rejects=OLD_REJECTS),
                             _outcome(oracle.load_oracle_file, oracle_path, range(ds.n)))


def test_only_util_calls_numpy_text_io():
    """The CSV format stays in util: no other module calls np.loadtxt or
    np.savetxt."""
    callers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("loadtxt", "savetxt"):
                callers.add(path.name)
    assert callers == {"util.py"}


RECORD = np.dtype([("a", "<i8"), ("w", "<f8"), ("flag", "?")])


def _record(n, start=0):
    rows = np.zeros(n, RECORD)
    rows["a"] = np.arange(start, start + n)
    rows["w"] = np.linspace(0.0, 1.0, n) if n > 1 else 0.5
    rows["flag"] = rows["a"] % 2 == 0
    return rows


def _weights_in_unit_interval(rows):
    return [((rows["w"] >= 0) & (rows["w"] <= 1), "w must lie in [0, 1]")]


def _npy(header: str, body: bytes = b"") -> bytes:
    """A version 1.0 .npy file of the given header text, padded as numpy pads it."""
    text = header + " " * (-(len(header) + 11) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text.encode("latin1") + body


def _header(descr=RECORD.descr, fortran_order=False, shape=(3,)) -> str:
    return f"{{'descr': {descr!r}, 'fortran_order': {fortran_order!r}, 'shape': {shape!r}, }}"


def _write_record(path, *chunks) -> None:
    """util.npy_writer's file of RECORD rows, each chunk one append."""
    with util.npy_writer(path, RECORD) as append:
        for rows in chunks:
            append(rows)


def _np_save_bytes(rows) -> bytes:
    buf = io.BytesIO()
    np.save(buf, rows, allow_pickle=False)
    return buf.getvalue()


def _read_small(path):
    """util.read_npy of RECORD rows, asserting it never traced more than a
    megabyte of allocations, whatever the file's header promises."""
    tracemalloc.start()
    try:
        return util.read_npy(path, RECORD, _weights_in_unit_interval)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20, peak


def _square_or_raise(i):
    if i % 2:
        raise ValueError(f"odd {i}")
    return i * i, os.getpid()


def _exit_on_zero(i):
    if i == 0:
        os._exit(3)
    return i


class TestPoolMap:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_outcomes_in_input_order(self, jobs):
        before = _children()
        outcomes = list(util.pool_map(_square_or_raise, range(6), jobs))
        assert len(outcomes) == 6
        pids = set()
        for i, outcome in enumerate(outcomes):
            if i % 2:
                with pytest.raises(ValueError, match=f"odd {i}") as raised:
                    outcome()
                # a worker's exception carries the traceback it had there
                assert (raised.value.__cause__ is not None) == (jobs > 1)
            else:
                square, pid = outcome()
                assert square == i * i
                pids.add(pid)
        assert (os.getpid() in pids) == (jobs == 1)
        assert _children() == before

    def test_fn_is_inherited_not_pickled(self):
        offset = 10
        outcomes = util.pool_map(lambda i: (i + offset, os.getpid()), range(4), 2)
        replies = [outcome() for outcome in outcomes]
        assert [i for i, _ in replies] == [10, 11, 12, 13]
        assert os.getpid() not in {pid for _, pid in replies}

    def test_one_item_runs_in_this_process(self):
        (outcome,) = util.pool_map(_square_or_raise, [4], 2)
        assert outcome() == (16, os.getpid())

    def test_dead_worker_fails_every_unfinished_item(self):
        """Enough items that the pool often breaks while they are still
        being submitted; each item either finished or fails with StateError."""
        before = _children()
        outcomes = list(util.pool_map(_exit_on_zero, range(1000), 2))
        assert _children() == before
        assert len(outcomes) == 1000
        with pytest.raises(StateError, match="a worker process died before this item finished"):
            outcomes[0]()
        for i, outcome in enumerate(outcomes[1:], start=1):
            try:
                assert outcome() == i
            except StateError as exc:
                assert str(exc) == "a worker process died before this item finished"


    def test_fork_warning_of_a_threaded_process_is_not_raised(self, monkeypatch):
        """Python 3.12+ warns from os.fork in a process with other OS threads
        (OpenBLAS keeps some). A stand-in for that warning, an error under
        this suite's filters, must not reach the caller. It is raised before
        the fork, so that a pool it escapes from has no child to wait for."""
        real_fork = os.fork

        def fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        before = _children()
        assert [outcome()[0] for outcome in util.pool_map(_square_or_raise, [0, 2, 4], 2)] == [
            0, 4, 16]
        assert _children() == before

    def test_usable_cpus_without_an_affinity_call(self, monkeypatch):
        assert util.usable_cpus() >= 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert util.usable_cpus() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert util.usable_cpus() == 1

    def test_worker_sees_its_share_of_the_cpus(self, monkeypatch):
        """usable_cpus() // jobs, at least 1: with 5 CPUs, 2 workers get 2
        each, and can each run a helper process; 3 workers get 1 each."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)))
        before = _children()
        shares = [outcome() for outcome in util.pool_map(_cpus_and_helper, range(4), 2)]
        assert all(share == 2 and helper != worker for share, helper, worker in shares)
        assert [outcome()[0] for outcome in util.pool_map(_cpus_and_helper, range(3), 3)] == [1, 1, 1]
        assert util.usable_cpus() == 5
        assert _children() == before


def _cpus_and_helper(_):
    with util.forked_server(_raise_or_pid) as submit:
        helper = submit(0)()[1]
    return util.usable_cpus(), helper, os.getpid()


def _raise_or_pid(i):
    if i < 0:
        raise ConfigurationError(f"negative {i}", field="x")
    return i, os.getpid()


class TestForkedServer:
    """The helper is this process's child while the block runs, and gone after it."""

    def test_replies_in_order_from_another_process(self):
        before = _children()
        with util.forked_server(_raise_or_pid) as submit:
            replies = [submit(i) for i in range(3)]
            outcomes = [reply() for reply in replies]
            assert _children() - before == {outcomes[0][1]}
        assert [i for i, _ in outcomes] == [0, 1, 2]
        assert len({pid for _, pid in outcomes} | {os.getpid()}) == 2
        assert _children() == before

    def test_exception_keeps_its_type_and_message(self):
        with util.forked_server(_raise_or_pid) as submit:
            with pytest.raises(ConfigurationError) as raised:
                submit(-1)()
            assert str(raised.value) == "negative -1" and raised.value.field == "x"
            # with the traceback it had in the helper, which serves on
            assert "_raise_or_pid" in str(raised.value.__cause__)
            assert submit(4)()[0] == 4

    def test_keyboard_interrupt_of_an_item_is_raised_here(self):
        """The helper ignores SIGINT, but an item that raises
        KeyboardInterrupt sends it back as any exception, and serves on."""
        def interrupt_or_pid(i):
            if i < 0:
                raise KeyboardInterrupt
            return _raise_or_pid(i)

        with util.forked_server(interrupt_or_pid) as submit:
            with pytest.raises(KeyboardInterrupt):
                submit(-1)()
            assert submit(4)()[0] == 4

    def test_dead_helper_fails_with_state_error(self):
        before = _children()
        with util.forked_server(_exit_on_zero) as submit:
            assert submit(1)() == 1
            with pytest.raises(StateError, match="helper process died before it finished"):
                submit(0)()
            with pytest.raises(StateError, match="helper process died before it took"):
                submit(1)
        assert _children() == before

    def test_helper_busy_when_the_block_raises_is_stopped(self):
        before = _children()
        with pytest.raises(KeyboardInterrupt):
            with util.forked_server(time.sleep) as submit:
                submit(60)
                raise KeyboardInterrupt
        assert _children() == before


def test_importing_the_package_starts_no_process_machinery():
    """multiprocessing loads only when a pool or a helper starts, so that it
    adds nothing to a command's start-up, and concurrent.futures never."""
    for code, loaded in [
        ("import coforget.cli, coforget.report", []),
        ("from coforget import util; assert [f() for f in util.pool_map(abs, [-1, -2], 2)] == [1, 2]",
         ["multiprocessing"]),
    ]:
        code += "; import sys; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{loaded}\n"


def _disk_fills(monkeypatch, prefix: str, after: int) -> list:
    """Make every file opened under a name starting with prefix take `after`
    writes, then write half of the next one and raise ENOSPC, as a full disk
    does; returns the list of what each write was given."""
    real_open, writes = open, []

    class DiskFills:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, data):
            writes.append(data)
            if len(writes) <= after:
                return self.fh.write(data)
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def open_(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        named = isinstance(file, (str, os.PathLike)) and Path(file).name.startswith(prefix)
        return DiskFills(fh) if named else fh

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)  # what Path.open and Path.write_text call
    return writes


class TestNoHalfWrittenFile:
    """Every writer (CSV, .npy record, manifest, checkpoint) writes to a
    temporary name beside the target and moves it into place; a write that
    raises mid-way leaves neither file."""

    @staticmethod
    def _failing(first):
        yield first
        raise RuntimeError("injected fault")

    def test_csv_chunk_that_raises_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError, match="injected fault"):
            util.write_csv(tmp_path / "t.csv", ["a,b"], self._failing([[1, 2], [3.0, 4.0]]))
        assert list(tmp_path.iterdir()) == []

    def test_npy_write_that_raises_after_the_header_leaves_nothing(self, tmp_path, monkeypatch):
        """The record's header is written, then the disk fills on its rows;
        neither the target nor the staged rows leave a file."""
        writes = _disk_fills(monkeypatch, "t.npy", after=1)
        with pytest.raises(OSError, match="No space left on device"):
            _write_record(tmp_path / "t.npy", _record(3), _record(2, 3))
        assert writes[0].startswith(b"\x93NUMPY\x01\x00") and len(writes) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raised", [RuntimeError, KeyboardInterrupt])
    def test_npy_block_that_raises_writes_nothing(self, tmp_path, raised):
        """The staged rows have no name while the block runs, and a block
        that raises leaves no file at all."""
        with pytest.raises(raised, match="stop"):
            with util.npy_writer(tmp_path / "t.npy", RECORD) as append:
                append(_record(3))
                assert list(tmp_path.iterdir()) == []
                raise raised("stop")
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_that_raises_mid_write_leaves_nothing(self, tmp_path):
        arch = net.Architecture((2, 3))
        # the magic and header lines are written before the parameters fail to convert
        with pytest.raises(ValueError):
            net.save_checkpoint(tmp_path / "c.ckpt", arch, np.array(["x"] * arch.n_params, object))
        assert list(tmp_path.iterdir()) == []

    def test_manifest_that_raises_mid_write_leaves_nothing(self, tmp_path, monkeypatch):
        """The manifest's write stops half way, as on a full disk, after its
        file is open; the manifest is the run's first file."""
        _disk_fills(monkeypatch, "manifest", after=0)
        cfg = driver.RunConfig()
        cfg.dataset.per_class, cfg.dataset.test_per_class, cfg.method.t_unl = 10, 5, 0.05
        with pytest.raises(OSError, match="No space left on device"):
            driver.run(cfg, tmp_path / "run")
        assert list((tmp_path / "run").iterdir()) == []

    def test_rewrite_replaces_the_target_whole(self, tmp_path):
        path = tmp_path / "t.csv"
        util.write_csv(path, ["a"], [[np.arange(5)]])
        util.write_csv(path, ["a"], [[np.arange(2)]])
        assert path.read_text() == "a\n0\n1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


class TestNpyRecord:
    def test_bytes_equal_np_save_and_round_trip(self, tmp_path):
        """Several appends, an empty one among them, write the bytes np.save
        writes of their concatenation."""
        chunks = [_record(3), _record(0), _record(4, 3), _record(1, 7)]
        rows = np.concatenate(chunks)
        path = tmp_path / "r.npy"
        _write_record(path, *chunks)
        assert path.read_bytes() == _np_save_bytes(rows)
        back = util.read_npy(path, RECORD)
        assert back.dtype == RECORD and back.tobytes() == rows.tobytes()
        assert [p.name for p in tmp_path.iterdir()] == ["r.npy"]

    def test_zero_rows(self, tmp_path):
        """No append writes the zero-row record."""
        path = tmp_path / "r.npy"
        _write_record(path)
        assert path.read_bytes() == _np_save_bytes(_record(0))
        back = util.read_npy(path, RECORD)
        assert back.shape == (0,) and back.dtype == RECORD

    @pytest.mark.parametrize("rows", [_record(4)[::2], _record(3).reshape(3, 1),
                                      np.zeros(3, [("a", "<i8"), ("w", "<f8")])],
                             ids=["strided", "2-d", "other-dtype"])
    def test_append_takes_contiguous_rows_of_its_dtype_only(self, tmp_path, rows):
        with pytest.raises(ValueError):
            _write_record(tmp_path / "r.npy", _record(2), rows)
        assert list(tmp_path.iterdir()) == []

    def test_truncation_at_every_byte_names_file(self, tmp_path):
        path = tmp_path / "r.npy"
        _write_record(path, _record(3))
        blob = path.read_bytes()
        for keep in range(len(blob)):
            path.write_bytes(blob[:keep])
            with pytest.raises(IngestionError, match=re.escape(str(path))):
                _read_small(path)
        path.write_bytes(blob + b"\0")
        with pytest.raises(IngestionError, match="file holds"):
            _read_small(path)

    @pytest.mark.parametrize("header", [
        _header(shape=(10**12,)),
        _header(shape=(2**63,)),
        _header(shape=(4,)),
        _header(shape=(-1,)),
        _header(shape=(3, 1)),
        _header(shape=()),
        _header(fortran_order=True),
        _header(descr="|O"),
        _header(descr=[("a", ">i8"), ("w", ">f8"), ("flag", "|b1")]),
        _header(descr=[("a", "<i8"), ("w", "<f8")]),
        _header(descr=[("a", "<i8"), ("flag", "|b1"), ("w", "<f8")]),
        _header(descr=[("a", "<i8"), ("w", "<f8"), ("flag", "|b1"), ("", "|V7")]),
        _header(descr="<f8"),
        _header(descr="not a dtype"),
        _header(descr=[1, 2]),
        _header(fortran_order=0),
        _header(shape=[3]),
        "{'descr': '<f8'}",
        "{[]: 1}",
        "[1, 2, 3]",
        "{'descr': ",
        "(" * 300,
    ])
    def test_bad_header_names_file(self, tmp_path, header):
        path = tmp_path / "r.npy"
        path.write_bytes(_npy(header, _record(3).tobytes()))
        with pytest.raises(IngestionError, match=re.escape(str(path))):
            _read_small(path)

    def test_other_versions_and_magic_rejected(self, tmp_path):
        path = tmp_path / "r.npy"
        good = _npy(_header(), _record(3).tobytes())
        for blob in (good.replace(b"NUMPY\x01", b"NUMPY\x02", 1), b"\x93NUMPX" + good[6:], b""):
            path.write_bytes(blob)
            with pytest.raises(IngestionError, match=re.escape(str(path))):
                _read_small(path)

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf, -0.5, 1.5])
    def test_failed_check_names_file_and_row(self, tmp_path, w):
        rows = _record(3)
        rows["w"][2] = w
        path = tmp_path / "r.npy"
        _write_record(path, rows)
        with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}: row 2: w must lie"):
            _read_small(path)

    def test_damaged_field_type_names_file(self, tmp_path):
        """A field type whose first or second byte reads ',' (or whose
        repeat count gains a leading zero) is a comma dtype string that
        numpy's parser fails on with a SyntaxError, not a ValueError."""
        path = tmp_path / "r.npy"
        _write_record(path, _record(3))
        blob = path.read_bytes()
        damages = []
        for at in (m.start() + 1 for m in re.finditer(rb"'[<|]", blob)):
            damages += [(at, ord(",")), (at + 1, ord(","))]
            if blob[at + 2:at + 3].isdigit():
                damages.append((at + 1, ord("0")))
        assert len(damages) == 9
        for at, byte in damages:
            damaged = bytearray(blob)
            damaged[at] = byte
            path.write_bytes(bytes(damaged))
            with pytest.raises(IngestionError, match=rf"{re.escape(str(path))}: not a \.npy record"):
                _read_small(path)

    def test_missing_file_names_it(self, tmp_path):
        with pytest.raises(IngestionError, match=r"absent\.npy: cannot read record"):
            util.read_npy(tmp_path / "absent.npy", RECORD)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_header_raises_only_ingestion_errors(self, tmp_path, data):
        descr = data.draw(st.sampled_from([
            RECORD.descr, "|O", "<f8", ">i8", [("a", ">i8"), ("w", "<f8"), ("flag", "|b1")],
            [("a", "<i8"), ("w", "<f8"), ("flag", "|b1"), ("x", "<i8")], "|V17", "", 3,
        ]), label="descr")
        shape = data.draw(st.one_of(
            st.tuples(st.integers(-2, 2**64)),
            st.lists(st.integers(-1, 10**12), max_size=3).map(tuple),
            st.sampled_from([(10**12,), (3,), [3], "3", None]),
        ), label="shape")
        fortran_order = data.draw(st.sampled_from([False, True, 0, None]), label="fortran_order")
        n_body = data.draw(st.integers(0, 5), label="body_rows")
        path = tmp_path / "r.npy"
        path.write_bytes(_npy(_header(descr, fortran_order, shape), _record(n_body).tobytes()))
        try:
            rows = _read_small(path)
        except IngestionError as exc:
            assert str(path) in str(exc)
            return
        assert rows.dtype == RECORD and rows.shape == (n_body,) and shape == (n_body,)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_bytes_raise_only_ingestion_errors(self, tmp_path, data):
        path = tmp_path / "r.npy"
        _write_record(path, _record(3))
        blob = path.read_bytes()
        damaged = bytearray(blob)
        if data.draw(st.booleans(), label="cut"):
            damaged = damaged[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
        for _ in range(data.draw(st.integers(0, 4), label="n_flips")):
            if damaged:
                at = data.draw(st.integers(0, len(damaged) - 1), label="at")
                damaged[at] = data.draw(st.integers(0, 255), label="byte")
        path.write_bytes(bytes(damaged))
        try:
            rows = _read_small(path)
        except IngestionError as exc:
            assert str(path) in str(exc)
            return
        assert len(damaged) == len(blob) and rows.shape == (3,)
        assert np.all((rows["w"] >= 0) & (rows["w"] <= 1))
