"""Hypothesis fuzz of argv for the two data commands, `make-data` and
`make-oracle`, and for the two commands that read run directories, `report`
and `export`, all run through cli.main in this process. The data commands
get in-domain sizes kept small and out-of-domain ints, non-finite floats,
free --pair-map text and bad --out targets mixed in; the run-directory
commands get copies of run directories trained once per module (one with a
co-divide record whose bytes are damaged per example), missing paths, files,
free --window text and bad --out targets. Every argv must exit 0 or 2
(argparse's own exit counts as its code) with no other exception, and an
exit of 2 must leave every file as it was."""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coforget import cli, driver
from coforget.config import NOISE_KINDS, load_config

QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.yaml"

FUZZ = settings(max_examples=200, deadline=None)

# out of every size and seed domain, or (>= 10**11) past the array bound
bad_ints = st.one_of(st.integers(-10**3, 0), st.integers(10**11, 10**13))
seeds = st.one_of(st.integers(0, 2**32), bad_ints)
floats = st.one_of(st.floats(0, 1), st.floats(allow_nan=True, allow_infinity=True))
pair_maps = st.one_of(st.lists(st.integers(-2, 6), max_size=6).map(lambda v: ",".join(map(str, v))),
                      st.text(max_size=8))

DATA_FLAGS = {
    "--classes": st.one_of(st.integers(2, 5), bad_ints, st.just(1)),
    "--per-class": st.one_of(st.integers(1, 12), bad_ints),
    "--test-per-class": st.one_of(st.integers(0, 4), bad_ints),
    "--dim": st.one_of(st.integers(1, 4), bad_ints),
    "--spread": floats,
    "--seed": seeds,
    "--noise": st.sampled_from([*NOISE_KINDS, "bogus"]),
    "--eta": floats,
    "--pair-map": pair_maps,
    "--noise-seed": seeds,
}
ORACLE_FLAGS = {"--accuracy": floats, "--confidence": floats, "--seed": seeds}
TARGETS = st.sampled_from(["new", "new", "under-a-file", "a-directory", "parent-of-a-new-dir"])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds.csv"
    assert cli.main(["make-data", "--per-class", "6", "--test-per-class", "2", "--out", str(path)]) == 0
    return path


def _options(draw, flags) -> list:
    """`--flag=value` for a drawn subset of flags; the = form lets a value
    such as -inf reach the command instead of reading as an option."""
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True), label="flags")
    return [f"{flag}={draw(flags[flag], label=flag)}" for flag in chosen]


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _files(root) -> dict:
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def _check(command, options, target):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "F").write_text("a file\n")
        (root / "D").mkdir()
        out = {"new": root / "out" / "x.csv", "under-a-file": root / "F" / "x.csv",
               "a-directory": root / "D", "parent-of-a-new-dir": root / "new" / ".."}[target]
        before = _files(root)
        code = _exit_code([command, *options, "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert _files(root) == before
        else:
            assert out.is_file()


@FUZZ
@given(draw=st.data(), target=TARGETS)
def test_make_data_exits_0_or_2_and_writes_nothing_on_2(draw, target):
    _check("make-data", _options(draw.draw, DATA_FLAGS), target)


@FUZZ
@given(draw=st.data(), target=TARGETS,
       data_path=st.sampled_from(["dataset", "missing", "empty"]))
def test_make_oracle_exits_0_or_2_and_writes_nothing_on_2(dataset, draw, target, data_path):
    path = {"dataset": str(dataset), "missing": str(dataset.parent / "missing.csv"), "empty": ""}
    _check("make-oracle", ["--data", path[data_path], *_options(draw.draw, ORACLE_FLAGS)], target)


RUN_KINDS = ["coforget", "naive", "damaged", "missing", "a-file"]
WINDOWS = st.one_of(
    st.none(),
    st.tuples(st.integers(-2, 30), st.integers(-2, 30)).map(lambda t: f"{t[0]}:{t[1]}"),
    st.text(max_size=8),
)
# the header is the first 128 bytes of the record; most flips land in its rows
RECORD_DAMAGE = st.lists(st.tuples(st.one_of(st.integers(0, 127), st.integers(0, 10**6)),
                                   st.integers(0, 255)), min_size=1, max_size=4)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A quick coforget run dir and a naive-ce one, trained once."""
    root = tmp_path_factory.mktemp("runs")
    for name, overrides in {"coforget": [], "naive": ["method.kind=naive-ce"]}.items():
        driver.run(load_config(QUICK, overrides), root / name)
    return root


def _run_paths(draw, runs, root, kinds) -> list:
    """A path under root for each kind: a copy of a trained run dir, a copy
    of the coforget one whose co-divide record has drawn bytes replaced or
    is cut short, a path that does not exist, or a file."""
    root.mkdir()
    paths = []
    for i, kind in enumerate(kinds):
        path = root / f"{i}-{kind}"
        if kind in ("coforget", "naive", "damaged"):
            shutil.copytree(runs / ("naive" if kind == "naive" else "coforget"), path)
        if kind == "damaged":
            record = path / "codivide_audit.npy"
            blob = bytearray(record.read_bytes())
            for at, byte in draw(RECORD_DAMAGE, label="damage"):
                blob[at % len(blob)] = byte
            if draw(st.booleans(), label="cut"):
                blob = blob[:draw(st.integers(0, len(blob) - 1), label="keep")]
            record.write_bytes(bytes(blob))
        elif kind == "a-file":
            path.write_text("a file\n")
        paths.append(path)
    return paths


@FUZZ
@given(draw=st.data(), kinds=st.lists(st.sampled_from(RUN_KINDS), min_size=1, max_size=3),
       window=WINDOWS, target=st.sampled_from(["new", "under-a-file", "a-directory"]))
def test_report_exits_0_or_2_and_writes_no_report_on_2(runs, draw, kinds, window, target):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = _run_paths(draw.draw, runs, root / "runs", kinds)
        (root / "F").write_text("a file\n")
        (root / "D").mkdir()
        out = {"new": root / "rep", "under-a-file": root / "F" / "rep", "a-directory": root / "D"}[target]
        window_option = [] if window is None else [f"--window={window}"]
        before = _files(root)
        code = _exit_code(["report", *map(str, paths), "--out", str(out), *window_option])
        assert code in (0, 2)
        if code == 2:
            assert _files(root) == before
        else:
            assert {p.name for p in out.iterdir()} == {"curves.csv", "summary.csv",
                                                       "selection_quality.csv"}


@FUZZ
@given(draw=st.data(), kind=st.sampled_from(RUN_KINDS))
def test_export_exits_0_or_2_and_writes_no_csv_on_2(runs, draw, kind):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (path,) = _run_paths(draw.draw, runs, root / "runs", [kind])
        before = _files(root)
        code = _exit_code(["export", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert _files(root) == before
        else:
            assert (path / "codivide_audit.csv").is_file()
