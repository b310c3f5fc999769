"""Set-up probe for the setup_s metric.

Imports coforget, loads and validates a config, then builds the dataset,
the oracle table and the embeddings, and exits. The caller starts it in a
fresh interpreter and times the whole process.

    python3 perfbench/setup_probe.py configs/desk.yaml 1
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coforget import config, driver, oracle  # noqa: E402


def main(config_path, seed):
    cfg = config.load_config(config_path, overrides=[f"run.seed={seed}"])
    config.validate_config(cfg)
    ds = driver.build_dataset(cfg)
    table = driver.build_oracle(cfg, ds)
    oracle.oracle_embeddings(ds, table, cfg.oracle.embed_dim, cfg.run.seed)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
