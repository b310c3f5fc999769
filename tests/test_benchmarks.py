"""Smoke checks of the benchmark scripts: benchmarks/bench_kernels.py still
imports what it needs from the package and writes the documented JSON shape,
and every boundary perfbench/tracer.py wraps still exists."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_kernels_json(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--repeats", "3", "--json", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert set(doc) == {"backend", "numpy", "python", "cases"}
    assert doc["backend"] in ("numpy", "numba")
    epoch = doc["cases"].pop("coteach_epoch")
    assert set(epoch) == {"serial_us", "helper_us"}
    assert epoch["serial_us"] > 0 and epoch["helper_us"] > 0
    written = doc["cases"].pop("written_run")
    assert set(written) == {"peak_kib"} and written["peak_kib"] > 0
    report = doc["cases"].pop("report")
    assert set(report) == {"call_us", "peak_kib"}
    assert report["call_us"] > 0 and report["peak_kib"] > 0
    assert len(doc["cases"]) == 7
    for name, case in doc["cases"].items():
        assert set(case) == {"jit_us", "python_us"}, name
        assert case["jit_us"] > 0 and case["python_us"] > 0, name


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pkg = {name: importlib.import_module(f"coforget.{name}") for name in (
        "cli", "config", "coteach", "data", "driver", "forget", "kernels", "net", "oracle",
        "report", "selection", "util",
    )}
    return tracer, pkg


def test_perfbench_tracer_targets_exist():
    """The tracer wraps package attributes by name; a refactor that renames
    or removes one would silently drop that layer from the traced counts."""
    tracer, pkg = _load_tracer()
    targets = tracer.targets(pkg)
    assert targets
    for owner, attr, span, _, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


def test_perfbench_sweep_seam_exists():
    """perfbench/tracer.py traces sweep members by patching `cli.subprocess`;
    a cleanup that drops that import would crash the benchmark's traced sweep."""
    from coforget import cli

    assert callable(getattr(getattr(cli, "subprocess", None), "run", None)), \
        "coforget.cli.subprocess.run is gone"


def test_perfbench_tracer_counts_quick_run(monkeypatch):
    """The tracer's count hooks read arguments and results of the package's
    boundaries; a refactor that changes what a traced call returns, or stops
    routing a call through its traced attribute, changes these counts. The
    tracer sees one process, so the run is serial;
    test_perfbench_tracer_counts_sum_over_the_helper counts a run with the
    helper."""
    tracer_mod, pkg = _load_tracer()
    monkeypatch.setattr(pkg["util"], "usable_cpus", lambda: 1)
    tracer = tracer_mod.Tracer()
    tracer.install(pkg)
    try:
        pkg["driver"].run(pkg["config"].load_config(ROOT / "configs" / "quick.yaml", ["run.seed=1"]))
    finally:
        tracer.restore()
    calls = {name: tracer.calls[name] for name in (
        "coteach.coteach_epoch", "net.per_sample_ce", "net.predict_proba", "net.sgd_step",
        "selection.unlearning_setup",
    )}
    assert calls == {
        "coteach.coteach_epoch": 21, "net.per_sample_ce": 66, "net.predict_proba": 444,
        "net.sgd_step": 188, "selection.unlearning_setup": 3,
    }
    counts = {name: tracer.counts[name] for name in (
        "selection.targets", "forget.targets", "forget.steps", "coteach.labeled_scratch",
    )}
    assert counts == {
        "selection.targets": 127, "forget.targets": 253, "forget.steps": 14,
        "coteach.labeled_scratch": 1910,
    }
    # the naive-ce arm: one net, and no co-teaching, selection or forgetting
    tracer = tracer_mod.Tracer()
    tracer.install(pkg)
    try:
        pkg["driver"].run(pkg["config"].load_config(ROOT / "configs" / "quick.yaml",
                                                    ["run.seed=1", "method.kind=naive-ce"]))
    finally:
        tracer.restore()
    assert {name: tracer.calls[name] for name in calls} == {
        "coteach.coteach_epoch": 0, "net.per_sample_ce": 24, "net.predict_proba": 48,
        "net.sgd_step": 144, "selection.unlearning_setup": 0,
    }


def test_perfbench_tracer_counts_sum_over_the_helper(tmp_path, monkeypatch):
    """With the helper the traced calls split between the run's process and
    the helper, which inherits the tracer as the run forks it (after
    warmup) and writes its totals at its last item: the run's totals plus
    the helper's, less what both held at the fork, are the serial counts."""
    tracer_mod, pkg = _load_tracer()
    driver, here = pkg["driver"], os.getpid()
    monkeypatch.setattr(pkg["util"], "usable_cpus", lambda: 2)
    tracer = tracer_mod.Tracer()
    server, at_fork = driver._NetHalf, {}

    class Traced(server):
        def __init__(self, *args):
            at_fork.update(tracer.snapshot())
            super().__init__(*args)

        def finish(self):
            if os.getpid() != here:
                (tmp_path / "helper.json").write_text(json.dumps(tracer.snapshot()))
            return super().finish()

    monkeypatch.setattr(driver, "_NetHalf", Traced)
    tracer.install(pkg)
    try:
        driver.run(pkg["config"].load_config(ROOT / "configs" / "quick.yaml", ["run.seed=1"]))
    finally:
        tracer.restore()
    run, helper = tracer.snapshot(), json.loads((tmp_path / "helper.json").read_text())

    def total(key, name):
        return run[key].get(name, 0) + helper[key].get(name, 0) - at_fork[key].get(name, 0)

    assert {name: total("calls", name) for name in (
        "coteach.coteach_epoch", "net.per_sample_ce", "net.predict_proba", "net.sgd_step",
        "selection.unlearning_setup",
    )} == {
        "coteach.coteach_epoch": 21, "net.per_sample_ce": 66, "net.predict_proba": 444,
        "net.sgd_step": 188, "selection.unlearning_setup": 3,
    }
    assert {name: total("counts", name) for name in (
        "selection.targets", "forget.targets", "forget.steps", "coteach.labeled_scratch",
    )} == {
        "selection.targets": 127, "forget.targets": 253, "forget.steps": 14,
        "coteach.labeled_scratch": 1910,
    }
    # the embed net's training and forgetting ran in the helper
    assert helper["calls"]["net.sgd_step"] > at_fork["calls"]["net.sgd_step"]
    assert helper["counts"]["forget.targets"] > at_fork["counts"].get("forget.targets", 0)
