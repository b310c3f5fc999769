"""Record the reference digests the benchmark checks runs against.

For every (config, run seed, method.unlearning) a workload can run, this
writes the SHA-256 of the run's metrics.csv to reference.json, on the numpy
backend. Rerun it only when a change is meant to alter the metrics:

    python3 perfbench/reference.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
os.environ["COFORGET_DISABLE_NUMBA"] = "1"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from coforget import config, driver  # noqa: E402
from run import SMOKE, WORKLOADS, file_sha, ref_key  # noqa: E402


def cases():
    seen = set()
    for specs in (WORKLOADS, SMOKE):
        for name, spec in specs.items():
            for unlearning in ((True, False) if name == "sweep" else (True,)):
                for seed in spec["pool"]:
                    case = (spec["config"], seed, unlearning)
                    if case not in seen:
                        seen.add(case)
                        yield case


def main():
    digests = {}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for cfg_path, seed, unlearning in cases():
            cfg = config.load_config(
                ROOT / cfg_path,
                overrides=[f"run.seed={seed}", f"method.unlearning={str(unlearning).lower()}"],
            )
            out = Path(tmp) / f"{Path(cfg_path).stem}-{seed}-{unlearning}"
            driver.run(cfg, out_dir=out)
            key = ref_key(cfg_path, seed, unlearning)
            digests[key] = file_sha(out / "metrics.csv")
            print(key, digests[key], flush=True)
    (BENCH / "reference.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
