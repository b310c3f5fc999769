"""Run one coforget CLI command in this interpreter with the tracer installed,
then write the traced totals and spans as JSON.

    python3 perfbench/tracehost.py OUT.json RUN_ID <coforget arguments...>

For `sweep`, each member is started through this host as well (with its own
OUT file), so the members' layers are traced too; the sweep host merges the
members' totals and spans into its own output.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
from coforget import (  # noqa: E402
    cli, config, coteach, data, driver, forget, kernels, net, oracle, report, selection,
)

PKG = {
    "cli": cli, "config": config, "coteach": coteach, "data": data, "driver": driver,
    "forget": forget, "kernels": kernels, "net": net, "oracle": oracle,
    "report": report, "selection": selection,
}


def main(out_path, run_id, argv):
    t = tracer.Tracer()
    t.run_id = run_id
    members = []

    def rewrite(cmd):
        # [python, -m, coforget, train, ...] -> [python, this host, OUT, id, train, ...]
        member_out = f"{out_path}.member{len(members)}"
        members.append(member_out)
        return [cmd[0], str(Path(__file__).resolve()), member_out,
                str(run_id * 1000 + len(members)), *cmd[3:]]

    t.install(PKG)
    t.trace_sweep_members(cli, rewrite)
    try:
        code = cli.main(argv)
    finally:
        t.restore()
    totals = t.snapshot()
    spans = [list(s) for s in t.spans if s is not None]
    member_s = [s[5] - s[4] for s in t.spans if s is not None and s[3] == "cli.sweep.member"]
    for path in members:
        if os.path.exists(path):
            with open(path) as fh:
                child = json.load(fh)
            os.remove(path)
            tracer.merge(totals, child["totals"])
            spans.extend(child["spans"])
    with open(out_path, "w") as fh:
        json.dump({"totals": totals, "spans": spans, "member_s": member_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3:]))
