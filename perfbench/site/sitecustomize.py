"""Speed calibration for the benchmark's timed child processes.

The benchmark puts this directory on PYTHONPATH for the processes it times
(sweep calls and their members, set-up probes), so Python imports this
module at start-up. When PERFBENCH_PACE_LOG names a file, the process runs
the calibration of perfbench/pace.py once before the program starts and
once at exit, and appends one JSON line to that file: its argv, both
calibration times and its peak RSS (VmHWM). Without the variable it does
nothing.
"""

import os

_LOG = os.environ.get("PERFBENCH_PACE_LOG")

if _LOG:
    import atexit
    import importlib.util
    import json
    import sys

    _spec = importlib.util.spec_from_file_location(
        "perfbench_pace",
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pace.py"),
    )
    _pace = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_pace)
    _start = _pace.calibrate()

    def _report():
        calib_end = _pace.calibrate()
        with open("/proc/self/status") as fh:
            hwm = next(int(v.split()[1]) for v in fh if v.startswith("VmHWM:"))
        line = {"argv": sys.argv, "calib_s": [_start, calib_end], "vmhwm_kb": hwm}
        with open(_LOG, "a") as fh:
            fh.write(json.dumps(line) + "\n")

    atexit.register(_report)
