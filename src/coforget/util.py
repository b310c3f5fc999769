"""Small shared helpers: seeded RNG streams, output-directory checks, a
map over forked worker processes, a forked helper process, and the file
formats, which this module owns.

Every table the package writes goes through write_csv and every table it
reads through read_csv. Cells are comma-separated and unquoted, one row per
"\\n"-terminated line: a float is repr of a Python float, an int is decimal,
a bool is 0 or 1, a str is as is. A columnar record is one 1-D structured
array in a version 1.0 .npy file, written by npy_writer, which stages its
rows as they come in an unnamed file, and read whole by read_npy or a
chunk at a time by npy_record, every row checked either way. These writers,
and the run's manifest and checkpoints, write to a temporary name beside
the target and move it into place, so no file is ever left half written.
"""

import contextlib
import functools
import itertools
import math
import os
import shutil
import sys
import tempfile
import tokenize
import traceback
import warnings
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, IngestionError, StateError


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent, reproducible generator for one purpose within a run.

    Streams are keyed by (seed, tag) so toggling one code path never shifts
    the random numbers another path consumes.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())]))


def fmt_float(x) -> str:
    """Shortest round-trip decimal form, locale independent."""
    return repr(float(x))


def output_dir(path) -> Path:
    """Path(path), after checking that a directory can be made there: the
    path and its nearest existing ancestor must not be files. Raises
    ConfigurationError naming the path otherwise."""
    path = Path(path)
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigurationError(f"output directory {path}: {p} is not a directory")
            break
    return path


# a pool_map worker's share of its parent's usable CPUs, set as it starts
_cpu_share = None


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one (Linux), else every CPU. In a pool_map worker, its share of
    its parent's: those CPUs // jobs, at least 1."""
    if _cpu_share is not None:
        return _cpu_share
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_map(fn, items, jobs: int):
    """Map fn over items, yielding in input order one zero-argument callable
    per item that returns fn(item) or raises its exception: in this process
    with jobs <= 1 or at most one item, else in up to `jobs` workers forked
    as forked_server's helper is, each taking the next item as it replies,
    with usable_cpus() at its share of this process's. A worker that dies
    fails its item and every unfinished one with StateError, and the others
    are killed at once. Once the generator returns, raises or is closed,
    every worker has been killed and reaped (fn must flush what it writes);
    a caller that may stop early (a KeyboardInterrupt, even one raised by an
    item) closes it."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        yield from (functools.partial(fn, item) for item in items)
        return
    # imported here: a serial run never pays for it
    from multiprocessing.connection import wait
    # a forked worker inherits unwritten buffers, and would write them again
    sys.stdout.flush()
    sys.stderr.flush()
    share = max(usable_cpus() // jobs, 1)
    replies = [None] * len(items)  # each item's reply, once it has one
    todo = iter(range(len(items)))
    busy = {}  # a busy worker's end of the pipe -> the index of its item

    def take(conn):  # send conn's worker the next item, if any is left
        for index in itertools.islice(todo, 1):
            busy[conn] = index
            conn.send(items[index])

    with contextlib.ExitStack() as workers:
        for _ in range(min(jobs, len(items))):
            take(workers.enter_context(_forked(fn, share)))
        for index in range(len(items)):
            # an item still without a reply once no worker is busy is one a dead worker left
            while replies[index] is None and busy:
                try:
                    for conn in wait(list(busy)):
                        replies[busy.pop(conn)] = conn.recv()
                        take(conn)
                except (EOFError, OSError):  # a worker died
                    workers.close()
                    busy.clear()
            yield functools.partial(_unpack, replies[index])


@contextlib.contextmanager
def forked_server(fn):
    """One forked helper process that runs fn on each item this process
    submits, while this process goes on. The block's value is submit(item):
    it sends item (picklable, as fn's result must be) and returns a
    zero-argument callable that waits for fn(item) and returns it, or raises
    its exception, of the same type and message, with the helper's traceback
    as __cause__. The helper runs items in the order submitted, and their
    callables are called once each, in that order. A helper that dies (a
    segfault, the OOM killer) fails the call that meets it with StateError.
    However the block ends, the helper has been killed and reaped after it.
    """
    with _forked(fn, _cpu_share) as conn:  # with this process's usable_cpus()
        yield functools.partial(_submit, conn)


class _RemoteTraceback(Exception):
    """The traceback a child's exception had there, raised as its cause."""


@contextlib.contextmanager
def _forked(fn, cpu_share):
    """A forked child that runs _serve(fn) with usable_cpus() at cpu_share
    and SIGINT ignored, an interrupt being this process's to handle; the
    block's value is this process's end of the pipe, and the child is killed
    and reaped after it. Python 3.12+ warns from os.fork when this process
    has OS threads, as numpy's OpenBLAS does; it stops them before a fork
    (pthread_atfork), so a child inherits none of its locks. The warning is
    ignored here only: where warnings show, it would print once per child."""
    global _cpu_share
    # imported here: a run that forks no child never pays for these
    import signal
    from multiprocessing.connection import Pipe

    ours, theirs = Pipe()
    with ours:
        with theirs:  # the child's end, closed here once the child has its copy
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                        r"use of fork\(\) may lead to deadlocks", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child, which ends here however _serve ends
                try:
                    ours.close()  # else its own copy would keep the pipe open once ours is closed
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    _cpu_share = cpu_share
                    _serve(fn, theirs)
                finally:
                    os._exit(0)
        try:
            yield ours
        finally:
            # it may be running an item whose reply nobody will read; it holds
            # nothing to clean up, and SIGKILL cannot be caught or ignored
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn, conn) -> None:
    """A child's loop: reply to each item with (True, fn(item)) or (False,
    exception, traceback text), until recv raises EOFError once the parent's
    end of the pipe is closed. The child leaves through os._exit or SIGKILL,
    so it never writes the unwritten buffers it inherits."""
    while True:
        item = conn.recv()
        try:
            reply = True, fn(item)
        except BaseException as exc:  # sent back to the caller, which raises it
            reply = False, exc, traceback.format_exc()
        conn.send(reply)


def _unpack(reply):
    """The result in a child's reply, or its exception; None: the worker died."""
    if reply is None:
        raise StateError("a worker process died before this item finished")
    ok, value, *trace = reply
    if ok:
        return value
    raise value from _RemoteTraceback(trace[0])


def _submit(conn, item):
    try:
        conn.send(item)
    except OSError:
        raise StateError("the helper process died before it took an item") from None
    return functools.partial(_reply, conn)


def _reply(conn):
    try:
        reply = conn.recv()
    except (EOFError, OSError):
        raise StateError("the helper process died before it finished an item") from None
    return _unpack(reply)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

# cell text by dtype kind; tolist() and item() give Python scalars, so a float
# cell is repr(float(x)), fmt_float's text, without a Python-level call per cell
_CELL_TEXT = {"f": repr, "i": str, "b": ("0", "1").__getitem__, "U": str}


def format_rows(columns) -> str:
    """CSV lines, joined by "\\n" with no final newline, of equal-length columns:
    anything np.asarray takes, written by dtype kind; a scalar repeats."""
    arrays = [np.asarray(c) for c in columns]
    n = next((a.shape[0] for a in arrays if a.ndim), 1)
    cells = (map(_CELL_TEXT[a.dtype.kind], a.tolist()) if a.ndim
             else itertools.repeat(_CELL_TEXT[a.dtype.kind](a.item()), n) for a in arrays)
    return "\n".join(map(",".join, zip(*cells)))


@contextlib.contextmanager
def replacing(path, mode: str, **kwargs):
    """A file opened at path + ".tmp", moved onto path once the block ends;
    if the block raises, the temporary file is removed and path is untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, head, chunks) -> None:
    """Write the head lines (column names, or a preamble), then the rows of
    each chunk, a sequence of columns as format_rows takes them. A large
    table comes in chunks, so that no whole-file string is built; nothing
    holds a chunk's text once it is written, while the next is formatted."""
    with replacing(path, "w", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in head))
        fh.writelines(map("{}\n".format, filter(None, map(format_rows, chunks))))


# a blank line, which np.loadtxt skips, and what str.splitlines() breaks lines
# at besides "\n" or np.loadtxt strips from a cell while int() and float()
# reject it; without these, one np.loadtxt call accepts what a line-by-line
# int()/float() parse accepts. A str.find for each is ~20x faster than a regex.
_FAULTS = ("\n\n", *"\x00\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029")
_PARSE = {"f": (float, "not a number"), "i": (int, "not an int64")}


def read_csv(path, preamble: int, row_fields, what: str = "file"):
    """(head, rows) of a CSV file: its first `preamble` lines without the
    newline, and the rest parsed by one np.loadtxt call into a structured
    array of the fields row_fields(head) returns, (name, dtype) or
    (name, dtype, (count,)) for count cells. numpy cuts a str cell to its
    field's width, so a str field must be wider than any valid value.
    An empty or unreadable file, a blank or ragged line, a character that
    makes np.loadtxt accept a line int() and float() reject, or a cell its
    field's type rejects raises IngestionError naming path or path:line."""
    try:
        with open(path) as fh:
            text = fh.read()
            # the offset of each fault found, a blank line's being its "\n"
            hits = [(i + len(fault) - 1, fault) for fault in _FAULTS if (i := text.find(fault)) >= 0]
            if text.startswith("\n"):
                hits.append((0, "\n\n"))
            if hits:
                pos, fault = min(hits)
                lineno = text.count("\n", 0, pos) + 1
                kind = "blank line" if fault == "\n\n" else f"character {fault!r}"
                raise IngestionError(f"{path}:{lineno}: {kind}")
            fh.seek(0)
            head = [fh.readline().rstrip("\n") for _ in range(preamble)]
            if not fh.tell():
                raise IngestionError(f"{path}: empty file")
            fields = row_fields(head)
            counts = [math.prod(field[2]) if len(field) > 2 else 1 for field in fields]
            body = fh.tell()
            first = fh.readline()
            fh.seek(body)
            # a width the first line lacks fails here, before numpy sizes rows by it
            if first and first.count(",") + 1 != sum(counts):
                raise _bad_line(path, fh, preamble + 1, fields, counts, "")
            try:
                dtype = np.dtype(fields)
                return head, (np.loadtxt(fh, dtype, delimiter=",", comments=None, ndmin=1)
                              if first else np.empty(0, dtype))
            except ValueError as exc:
                fh.seek(body)
                raise _bad_line(path, fh, preamble + 1, fields, counts, str(exc)) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{path}: cannot read {what} ({exc})") from None


def _bad_line(path, lines, first_lineno: int, fields, counts, reason: str) -> IngestionError:
    """IngestionError naming the first line that is ragged or holds a cell
    its field (of counts[i] cells) rejects; np.loadtxt's message counts rows
    from 0 or 1 by fault, so it is only the fallback."""
    for lineno, line in enumerate(lines, start=first_lineno):
        cells = line.rstrip("\n").split(",")
        if len(cells) != sum(counts):
            return IngestionError(f"{path}:{lineno}: {len(cells)} cells, expected {sum(counts)}")
        for field, start, count in zip(fields, np.cumsum([0] + counts), counts):
            dtype = np.dtype(field[1])
            parse, what = _PARSE.get(dtype.kind, (str, ""))
            for cell in cells[start:start + count]:
                try:
                    dtype.type(parse(cell))
                except (ValueError, OverflowError):
                    return IngestionError(f"{path}:{lineno}: {what}: {cell!r}")
    return IngestionError(f"{path}: {reason}")


def check_rows(path, first_lineno: int, checks) -> None:
    """IngestionError at path:line for the first row a (good-row mask, reason) check fails."""
    for ok, reason in checks:
        if not ok.all():
            raise IngestionError(f"{path}:{first_lineno + np.argmin(ok)}: {reason}")


# ---------------------------------------------------------------------------
# .npy records
# ---------------------------------------------------------------------------

RECORD_CHUNK = 1 << 11  # rows of a .npy record read and checked at a time


@contextlib.contextmanager
def npy_writer(path, dtype):
    """A version 1.0 .npy file of the 1-D array of the structured dtype
    whose rows the block appends: its value is append(rows), which takes a
    contiguous 1-D array of dtype. The rows are staged in an unnamed
    temporary file beside path, so a killed process leaves nothing behind;
    once the block ends, the header for their count and then the rows go to
    path through replacing, the bytes np.save writes of their concatenation
    (no appends: zero rows). If the block raises, nothing is written."""
    dtype, path = np.dtype(dtype), Path(path)
    n_rows = 0

    def append(rows) -> None:
        nonlocal n_rows
        if rows.dtype != dtype or rows.ndim != 1:
            raise ValueError(f"rows of {path} must be a 1-D {dtype}, got {rows.ndim}-D {rows.dtype}")
        staged.write(rows.view(np.uint8))
        n_rows += rows.shape[0]

    with tempfile.TemporaryFile(dir=path.parent) as staged:
        yield append
        staged.seek(0)
        with replacing(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (n_rows,)})
            shutil.copyfileobj(staged, fh)


@contextlib.contextmanager
def npy_record(path, dtype):
    """A .npy record written by npy_writer, open for reading a chunk at a
    time. The block's value is (its row count, chunks) once the file passes
    read_npy's checks of its magic, header and size. chunks(checks, at)
    reads the rows of each RECORD_CHUNK-row chunk in turn, or only of the
    chunks at the ascending indices at, checks them as read_npy does, and
    yields each as a view of one reused buffer that the next overwrites."""
    dtype = np.dtype(dtype)
    with _npy_open(path, dtype) as (fh, n_rows):
        body, buffer = fh.tell(), np.empty(min(n_rows, RECORD_CHUNK), dtype)

        def chunks(checks=lambda rows: (), at=None):
            starts = range(0, n_rows, RECORD_CHUNK)
            for start in starts if at is None else (starts[index] for index in at):
                fh.seek(body + start * dtype.itemsize)
                rows = buffer[:min(RECORD_CHUNK, n_rows - start)]
                _read_rows(path, fh, rows, start, checks)
                yield rows

        yield n_rows, chunks


def read_npy(path, dtype, checks=lambda rows: ()):
    """The 1-D array of the structured dtype in a .npy file written by
    npy_writer, read and checked RECORD_CHUNK rows at a time. The magic and
    header are read without unpickling anything; the header's dtype must
    equal dtype exactly, its shape be 1-D and its order C, and header plus
    rows must fill the file to the byte, all before the rows are allocated.
    A file that fails any of this, or a row that fails a check, raises
    IngestionError naming the file and the row's index in it; checks(rows)
    gives a (good-row mask, reason) pair for each check, or only for those
    that some of rows fail."""
    dtype = np.dtype(dtype)
    with _npy_open(path, dtype) as (fh, n_rows):
        rows = np.empty(n_rows, dtype)
        for start in range(0, n_rows, RECORD_CHUNK):
            _read_rows(path, fh, rows[start:start + RECORD_CHUNK], start, checks)
    return rows


@contextlib.contextmanager
def _npy_open(path, dtype):
    """(the file, at its first row, and its row count) of a .npy record
    whose magic, header and size pass read_npy's checks."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read record ({exc})") from None
    with fh:
        try:
            size = os.fstat(fh.fileno()).st_size
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"format version {version}, expected (1, 0)")
            shape, fortran_order, file_dtype = np.lib.format.read_array_header_1_0(fh)
        except OSError as exc:
            raise IngestionError(f"{path}: cannot read record ({exc})") from None
        # numpy parses the header with ast.literal_eval (TypeError on an
        # unhashable key) and retries an unparsable one through tokenize;
        # a damaged field type such as ',i8' for '<i8' reads as a comma
        # dtype string, whose parser raises SyntaxError from literal_eval
        except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
            raise IngestionError(f"{path}: not a .npy record ({exc})") from None
        if file_dtype != dtype or len(shape) != 1 or fortran_order:
            raise IngestionError(
                f"{path}: holds a {'Fortran' if fortran_order else 'C'}-ordered array of "
                f"shape {shape} and dtype {file_dtype}, expected a C-ordered 1-D {dtype}")
        n_rows, body = shape[0], fh.tell()
        if body + n_rows * dtype.itemsize != size:
            raise IngestionError(f"{path}: header promises {n_rows} rows of {dtype.itemsize} "
                                 f"bytes after {body} header bytes, file holds {size} bytes")
        yield fh, n_rows


def _read_rows(path, fh, rows, start: int, checks) -> None:
    """Fill rows, the file's rows from index start on, and check them."""
    try:
        read = fh.readinto(rows.view(np.uint8))
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read record ({exc})") from None
    if read != rows.nbytes:
        raise IngestionError(f"{path}: file shrank while read")
    for ok, reason in checks(rows):
        if not ok.all():
            raise IngestionError(f"{path}: row {start + np.argmin(ok)}: {reason}")
