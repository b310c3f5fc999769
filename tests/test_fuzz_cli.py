"""Hypothesis fuzz of the two data commands' argv: `make-data` and
`make-oracle` run through cli.main in this process, with in-domain sizes
kept small and out-of-domain ints, non-finite floats, free --pair-map text
and bad --out targets mixed in. Every argv must exit 0 or 2 (argparse's own
exit counts as its code) with no other exception, and an exit of 2 must
leave every file as it was."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coforget import cli
from coforget.config import NOISE_KINDS

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
