"""Smoke check of benchmarks/bench_kernels.py: a tiny run still imports what
it needs from the package and writes the documented JSON shape."""

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
