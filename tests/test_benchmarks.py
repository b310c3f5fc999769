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
    assert len(doc["cases"]) == 7
    for name, case in doc["cases"].items():
        assert set(case) == {"jit_us", "python_us"}, name
        assert case["jit_us"] > 0 and case["python_us"] > 0, name


def test_perfbench_tracer_targets_exist():
    """The tracer wraps package attributes by name; a refactor that renames
    or removes one would silently drop that layer from the traced counts."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pkg = {name: importlib.import_module(f"coforget.{name}") for name in (
        "cli", "config", "coteach", "data", "driver", "forget", "kernels", "net", "oracle",
        "report", "selection",
    )}
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
