"""Hypothesis fuzz of argv for the two data commands, `make-data` and
`make-oracle`, for the two commands that read run directories, `report`
and `export`, and for the two that train, `train` and `sweep`, all run
through cli.main in this process. The data commands get in-domain sizes kept
small and out-of-domain ints, non-finite floats, free --pair-map text and
bad --out targets mixed in; the run-directory commands get copies of run
directories trained once per module (one with a co-divide record whose
bytes are damaged per example), missing paths, files, free --window text
and bad --out targets; the training commands get --override values and
--set axes drawn the same way over an 8-epoch quick.yaml, into fresh
directories, files, or a copy of a completed run. Every argv must exit 0 or
2 (argparse's own exit counts as its code), or 1 from a sweep whose members
failed on a package error, with no other exception. An exit of 2 must leave
every file of the data and run-directory commands as it was, and must leave
no metrics.csv after a training command that is new, changed, or beside a
manifest it was not written with."""

import logging
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from coforget import cli, driver
from coforget.config import METHOD_KINDS, NOISE_KINDS, load_config

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


# free text without decimal digits, so that no size field gets a large int
free_text = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
# in-domain values keep a run to a few hundred samples and a few epochs;
# --override and --set values are YAML, so the free text may be anything
RUN_FIELDS = {
    "dataset.classes": st.one_of(st.integers(2, 4), bad_ints),
    "dataset.per_class": st.one_of(st.integers(1, 30), bad_ints),
    "dataset.test_per_class": st.one_of(st.integers(0, 5), bad_ints),
    "dataset.dim": st.one_of(st.integers(1, 4), bad_ints),
    "dataset.spread": floats,
    "noise.kind": st.sampled_from([*NOISE_KINDS, "bogus"]),
    "noise.eta": floats,
    "oracle.embed_dim": st.one_of(st.integers(1, 8), bad_ints),
    "oracle.accuracy": floats,
    "optim.lr_scratch": floats,
    "optim.lr_embed": floats,
    "optim.batch_size": st.one_of(st.integers(8, 64), bad_ints),
    "schedule.max_epoch": st.one_of(st.integers(1, 6), bad_ints),
    "schedule.warmup": st.one_of(st.integers(0, 4), bad_ints),
    "schedule.start_unlearn": st.one_of(st.integers(1, 6), bad_ints),
    "schedule.unlearn_period": st.one_of(st.integers(1, 3), bad_ints),
    "schedule.encoder_unfreeze": st.one_of(st.integers(0, 6), bad_ints),
    "method.kind": st.sampled_from([*METHOD_KINDS, "bogus"]),
    "method.unlearning": st.sampled_from(["true", "false", "maybe"]),
    "method.p_low": floats,
    "method.t_unl": floats,
    "run.seed": seeds,
    "bogus.field": st.integers(0, 3),
}
FUZZ_RUNS = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """quick.yaml with 20 samples a class and 8 epochs that still select,
    forget and co-teach."""
    cfg = yaml.safe_load(QUICK.read_text())
    cfg["dataset"]["per_class"] = 20
    cfg["schedule"] = {"max_epoch": 8, "warmup": 2, "start_unlearn": 4, "encoder_unfreeze": 4,
                       "unlearn_period": 2, "unlearn_duration": 1}
    path = tmp_path_factory.mktemp("config") / "small.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _run_values(draw, key):
    # free text one time in four
    return draw(st.one_of(*[RUN_FIELDS[key]] * 3, free_text), label=key)


def _no_new_metrics(root, before):
    """After an exit of 2: every metrics.csv under root was there before, as
    it was, beside the manifest it was written with, so a run that had begun
    took the one it found away."""
    for metrics in root.rglob("metrics.csv"):
        manifest = metrics.parent / "manifest.json"
        assert before.get(metrics) == metrics.read_bytes()
        assert before.get(manifest) == manifest.read_bytes()


@FUZZ_RUNS
@given(draw=st.data(), target=st.sampled_from(["new", "completed-run", "under-a-file"]))
def test_train_exits_0_or_2_and_leaves_no_stale_metrics(runs, small, draw, target):
    keys = draw.draw(st.lists(st.sampled_from(sorted(RUN_FIELDS)), unique=True, max_size=3),
                     label="keys")
    overrides = [f"--override={key}={_run_values(draw.draw, key)}" for key in keys]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "F").write_text("a file\n")
        if target == "completed-run":
            shutil.copytree(runs / "coforget", root / "run")
        out = root / "F" / "run" if target == "under-a-file" else root / "run"
        before = _files(root)
        code = _exit_code(["train", "--config", str(small), *overrides, "--outdir", str(out)])
        assert code in (0, 2)
        if code == 2:
            _no_new_metrics(root, before)
        else:
            assert (out / "metrics.csv").is_file()


class _Failures(logging.Handler):
    """Records the coforget log's failed sweep members."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        if "sweep member" in record.getMessage():
            self.records.append(record)


@FUZZ_RUNS
@given(draw=st.data(), target=st.sampled_from(["new", "under-a-file"]))
def test_sweep_exits_0_2_or_1_with_failed_members(small, draw, target):
    keys = draw.draw(st.lists(st.sampled_from(sorted(RUN_FIELDS)), unique=True, max_size=2),
                     label="axes")
    sets = [f"--set={key}=" + ",".join(str(_run_values(draw.draw, key))
                                       for _ in range(draw.draw(st.integers(1, 2), label="n")))
            for key in keys]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "F").write_text("a file\n")
        out = root / "F" / "sw" if target == "under-a-file" else root / "sw"
        failures = _Failures()
        logger = logging.getLogger("coforget")
        logger.addHandler(failures)
        try:
            # one usable CPU: members run in this process, and none is forked
            with mock.patch.object(cli, "usable_cpus", lambda: 1):
                code = _exit_code(["sweep", "--config", str(small), *sets, "--outdir", str(out)])
        finally:
            logger.removeHandler(failures)
        assert code in (0, 1, 2)
        # a member fails only on a package error, whose log line has no traceback
        assert not any(record.exc_info for record in failures.records)
        assert (code == 1) == bool(failures.records)
        if code == 2:
            _no_new_metrics(root, {})
        elif code == 0:
            members = cli.sweep_grid([s.removeprefix("--set=") for s in sets])
            assert len(list(out.glob("*/metrics.csv"))) == len(members)
