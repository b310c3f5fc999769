"""Small shared helpers: seeded RNG streams, output-directory checks, a
map over forked worker processes, and the file formats, which this module
owns.

Every table the package writes goes through write_csv and every table it
reads through read_csv. Cells are comma-separated and unquoted, one row per
"\\n"-terminated line: a float is repr of a Python float, an int is decimal,
a bool is 0 or 1, a str is as is. A columnar record is one 1-D structured
array in a version 1.0 .npy file, written by write_npy and read by read_npy.
These writers, and the run's manifest and checkpoints, write to a temporary
name beside the target and move it into place, so no file is ever left
half written.
"""

import contextlib
import functools
import itertools
import math
import os
import re
import sys
import tokenize
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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one (Linux), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_map(fn, items, jobs: int):
    """Map fn over items, yielding in input order one zero-argument callable
    per item that returns fn(item) or raises its exception.

    With jobs <= 1 or at most one item, each callable runs fn in this
    process. Otherwise `jobs` forked worker processes run the items (fn must
    be module-level, items and results picklable) and each callable hands
    back a finished result; a worker's exception carries its remote
    traceback as __cause__. A worker that dies (a segfault, the OOM killer)
    fails its item and every unfinished one with StateError. Once the
    generator returns, raises or is closed, the items not yet started are
    cancelled and every worker has exited; a caller that may stop early
    (a KeyboardInterrupt, even one raised by an item) closes it.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        yield from (functools.partial(fn, item) for item in items)
        return
    # imported here: concurrent.futures costs ~7 ms, which a serial run never pays
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def died():
        future = Future()
        future.set_exception(StateError("a worker process died before this item finished"))
        return future

    # a forked worker inherits unwritten buffers, and would write them again
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = []
        # Python 3.12+ warns (DeprecationWarning) from os.fork when this
        # process has other OS threads, and numpy's OpenBLAS keeps a pool of
        # them. OpenBLAS shuts that pool down before a fork (a pthread_atfork
        # handler), so a worker inherits none of its locks. The workers are
        # forked inside submit, so the warning is ignored there and only
        # there: where warnings show, it would print once per worker.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                    r"use of fork\(\) may lead to deadlocks", DeprecationWarning)
            for item in items:
                try:
                    futures.append(pool.submit(fn, item))
                except BrokenProcessPool:  # a worker died while items were still being submitted
                    futures.append(died())
        for future in futures:
            if isinstance(future.exception(), BrokenProcessPool):
                future = died()
            yield future.result
    finally:
        pool.shutdown(cancel_futures=True)


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
    table comes in chunks, so that no whole-file string is built."""
    with replacing(path, "w", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in head))
        fh.writelines(text + "\n" for text in map(format_rows, chunks) if text)


# what str.splitlines() breaks lines at besides "\n", and what np.loadtxt
# strips from a cell but int() and float() reject; without these, one
# np.loadtxt call accepts what a line-by-line int()/float() parse accepts
_STRICT_FAULT = re.compile("[\x00\x0b\x0c\x1c-\x1f\x85\u2028\u2029]|(?m:^\n)")
_PARSE = {"f": (float, "not a number"), "i": (int, "not an int64")}


def read_csv(path, preamble: int, row_fields, strict: bool = False, what: str = "file"):
    """(head, rows) of a CSV file: its first `preamble` lines without the
    newline, and the rest parsed by one np.loadtxt call into a structured
    array of the fields row_fields(head) returns, (name, dtype) or
    (name, dtype, (count,)) for count cells. numpy cuts a str cell to its
    field's width, so a str field must be wider than any valid value.
    An empty or unreadable file, a ragged line or a cell its field's type
    rejects raises IngestionError naming path or path:line. np.loadtxt
    skips empty lines; strict=True rejects them and the characters that
    make np.loadtxt accept a line that int() and float() reject."""
    try:
        with open(path) as fh:
            text = fh.read() if strict else ""
            fault = _STRICT_FAULT.search(text)
            if fault:
                lineno = text.count("\n", 0, fault.start()) + 1
                kind = "blank line" if fault.group() == "\n" else f"character {fault.group()!r}"
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
            if first not in ("", "\n") and first.count(",") + 1 != sum(counts):
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
    its field (of counts[i] cells) rejects. np.loadtxt's message counts rows
    from 0 or 1 by fault and skips empty lines, so it is only the fallback."""
    for lineno, line in enumerate(lines, start=first_lineno):
        if line == "\n":
            continue
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


def write_npy(path, dtype, n_rows: int, chunks) -> None:
    """Write n_rows rows of the structured dtype as one 1-D array in a
    version 1.0 .npy file (the bytes np.save writes), the rows coming as a
    sequence of 1-D chunks of that dtype, so no whole-file array is built.
    Chunks of another dtype or another row total raise ValueError."""
    dtype = np.dtype(dtype)
    with replacing(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (n_rows,),
        })
        written = 0
        for chunk in chunks:
            if chunk.dtype != dtype or chunk.ndim != 1:
                raise ValueError(f"{path}: chunk of dtype {chunk.dtype}, shape {chunk.shape}, "
                                 f"expected 1-D {dtype}")
            fh.write(np.ascontiguousarray(chunk).data)
            written += chunk.shape[0]
        if written != n_rows:
            raise ValueError(f"{path}: {written} rows written, header promises {n_rows}")


def read_npy(path, dtype, checks=lambda rows: ()):
    """The 1-D array of the structured dtype in a .npy file written by
    write_npy. The magic and header are read without unpickling anything;
    the header's dtype must equal dtype exactly, its shape be 1-D and its
    order C, and header plus rows must fill the file to the byte, all before
    the rows are allocated. A file that fails any of this, or a row that
    fails one of checks(rows), a list of (good-row mask, reason), raises
    IngestionError naming the file."""
    dtype = np.dtype(dtype)
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            try:
                version = np.lib.format.read_magic(fh)
                if version != (1, 0):
                    raise ValueError(f"format version {version}, expected (1, 0)")
                shape, fortran_order, file_dtype = np.lib.format.read_array_header_1_0(fh)
            # numpy parses the header with ast.literal_eval (TypeError on an
            # unhashable key) and retries an unparsable one through tokenize
            except (ValueError, TypeError, tokenize.TokenError) as exc:
                raise IngestionError(f"{path}: not a .npy record ({exc})") from None
            if file_dtype != dtype or len(shape) != 1 or fortran_order:
                raise IngestionError(
                    f"{path}: holds a {'Fortran' if fortran_order else 'C'}-ordered array of "
                    f"shape {shape} and dtype {file_dtype}, expected a C-ordered 1-D {dtype}")
            n_rows, body = shape[0], fh.tell()
            if body + n_rows * dtype.itemsize != size:
                raise IngestionError(f"{path}: header promises {n_rows} rows of {dtype.itemsize} "
                                     f"bytes after {body} header bytes, file holds {size} bytes")
            rows = np.empty(n_rows, dtype)
            if fh.readinto(rows.view(np.uint8)) != rows.nbytes:
                raise IngestionError(f"{path}: file shrank while read")
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read record ({exc})") from None
    for ok, reason in checks(rows):
        if not ok.all():
            raise IngestionError(f"{path}: row {np.argmin(ok)}: {reason}")
    return rows
