"""Benchmark the hot kernels: active backend versus the pure-numpy fallback.

Each compiled kernel keeps its original Python source on .py_func, so both
paths run in one process. Shapes mirror a real desk run (batch 128, an
8-32-32-3 scratch net, a 16-32-16-3 embedding net, 900-sample GMM fits).

The coteach_epoch case times the co-teaching epochs of desk.yaml seed 1
(115 of them), per epoch: both nets' GMM fits, the co-divide and both
trainings, with both nets' halves in this process, and with the embed net's
half in a forked helper process while this one runs the scratch net's, as a
run does when a second CPU is free. Each epoch starts from the learners and
pool that run had then, with no pool losses kept, and leaves out the run's
other stages (forgetting, the epoch's evaluation and checkpoint losses):
each half's advance item does nothing.

The written_run case is the traced peak (tracemalloc, KiB) of one serial
desk.yaml seed 1 run that writes its run directory, after the untraced run
the coteach_epoch case records its epochs from. It is a run of its own: the
recording keeps every epoch's learners, which would count in its peak.

The report case times write_report over the run directory the written_run
case writes (its default window: epochs 6 to 30), per call, after one
untimed call, and takes the traced peak of one more call.

Usage:
    python benchmarks/bench_kernels.py [--repeats 2000] [--json PATH]

--json writes {"backend", "numpy", "python", "cases": {case: {"jit_us",
"python_us"}}} to PATH as well as printing the table; the coteach_epoch
case holds {"serial_us", "helper_us"}, the written_run case {"peak_kib"} and
the report case {"call_us", "peak_kib"}.

Run with COFORGET_DISABLE_NUMBA=1 to confirm the fallback is the only path;
the two columns then match.
"""

import argparse
import copy
import json
import platform
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from coforget import config, coteach, driver, kernels, report, util
from coforget.net import Architecture, init_params

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.yaml"


def timeit(fn, args, repeats):
    fn(*args)  # warm up (JIT compile on the accelerated path)
    start = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return (time.perf_counter() - start) / repeats


def bench_case(results, name, fn, args, repeats):
    fast = timeit(fn, args, repeats)
    slow = timeit(fn.py_func, args, max(repeats // 20, 5))
    ratio = slow / fast if fast > 0 else float("inf")
    print(f"{name:<38} {fast * 1e6:>10.1f} {slow * 1e6:>10.1f} {ratio:>8.1f}x")
    results[name] = {"jit_us": fast * 1e6, "python_us": slow * 1e6}


def _clone(learner):
    """A learner at the same parameters and optimizer state, which steps
    rebind and never write into, with no losses kept."""
    return coteach.Learner(learner.arch, learner.inputs, learner.theta, learner.opt)


def desk_epochs():
    """The dataset and config of desk.yaml seed 1, and per co-teaching epoch
    of a serial run of it the learners as that epoch started and its
    coteach_epoch pool, epoch and generator."""
    epochs, epoch, cpus, make = [], coteach.coteach_epoch, util.usable_cpus, driver._learner
    learners, cfg = [], config.load_config(DESK, ["run.seed=1"])

    def learner(*args):
        learners.append(make(*args))
        return learners[-1]

    def record(halves, pool_ids, k, cfg, rng, fits):
        epochs.append((tuple(map(_clone, learners)), pool_ids, k, copy.deepcopy(rng)))
        return epoch(halves, pool_ids, k, cfg, rng, fits)

    coteach.coteach_epoch, util.usable_cpus, driver._learner = record, lambda: 1, learner
    try:
        driver.run(cfg)
    finally:
        coteach.coteach_epoch, util.usable_cpus, driver._learner = epoch, cpus, make
    return driver.build_dataset(cfg), cfg, epochs


class _Replay:
    """A net's half whose ("fit", k) item starts epoch k from the learner and
    pool that epoch started with and replies with the half's fit; its advance
    items do nothing."""

    def __init__(self, half, starts):
        self.half, self.starts = half, starts

    def __call__(self, item):
        stage, k = item[:2]
        if stage == "fit":
            learner, self.half.pool = self.starts[k]
            self.half.learner = _clone(learner)
            return self.half._divide(k)[1]  # no selection stands, so it only fits
        return None if stage == "advance" else self.half(item)


def bench_epochs(results, ds, cfg, epochs, passes):
    """Time every epoch both ways, alternating, `passes` times after one
    untimed pass each."""
    def replay(halves):
        for _, pool_ids, k, rng in epochs:
            fits = [reply() for reply in [half(("fit", k)) for half in halves]]
            res = coteach.coteach_epoch(halves, pool_ids, k, cfg, copy.deepcopy(rng), fits)
            for reply in res.advanced:
                reply()

    scratch, embed = epochs[0][0]
    halves = [_Replay(half, {k: (learners[i], pool_ids) for learners, pool_ids, k, _ in epochs})
              for i, half in enumerate(driver._net_halves(cfg, ds, scratch, embed))]
    serial = tuple(map(driver._in_process, halves))
    with util.forked_server(halves[1]) as submit:
        took = {serial: 0.0, (serial[0], submit): 0.0}
        for way in took:
            replay(way)
        for _ in range(passes):
            for way in took:
                start = time.perf_counter()
                replay(way)
                took[way] += time.perf_counter() - start
    serial_us, helper_us = (t / passes / len(epochs) * 1e6 for t in took.values())
    print(f"{f'coteach epoch, desk seed 1 ({len(epochs)})':<38} {serial_us:>10.1f} "
          f"{helper_us:>10.1f} {serial_us / helper_us:>8.2f}x  (serial us, helper us)")
    results["coteach_epoch"] = {"serial_us": serial_us, "helper_us": helper_us}


def traced_peak_kib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def bench_written_run(results, run_dir):
    """The traced peak of one serial desk seed 1 run into run_dir."""
    cpus = util.usable_cpus
    util.usable_cpus = lambda: 1
    try:
        peak_kib = traced_peak_kib(driver.run, config.load_config(DESK, ["run.seed=1"]), run_dir)
    finally:
        util.usable_cpus = cpus
    print(f"{'written desk run, seed 1':<38} {peak_kib:>10.1f} KiB traced peak")
    results["written_run"] = {"peak_kib": peak_kib}


def bench_report(results, run_dir, out_dir, repeats):
    """write_report over run_dir: microseconds per call and a call's traced peak."""
    call_us = timeit(report.write_report, ([run_dir], out_dir), repeats) * 1e6
    peak_kib = traced_peak_kib(report.write_report, [run_dir], out_dir)
    print(f"{'report, desk seed 1':<38} {call_us:>10.1f} us per call, {peak_kib:.1f} KiB traced peak")
    results["report"] = {"call_us": call_us, "peak_kib": peak_kib}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=2000)
    parser.add_argument("--json", metavar="PATH", help="also write the timings as JSON")
    args = parser.parse_args()
    results = {}

    rng = np.random.default_rng(0)
    print(f"backend: {kernels.BACKEND}")
    print(f"{'kernel':<38} {'jit us':>10} {'python us':>10} {'speedup':>9}")

    for label, widths, batch in (
        ("scratch net fwd (128x8 -> 32-32-3)", (8, 32, 32, 3), 128),
        ("embed net fwd (128x16 -> 32-16-3)", (16, 32, 16, 3), 128),
    ):
        arch = Architecture(widths)
        theta = init_params(arch, 0)
        x = rng.normal(size=(batch, widths[0]))
        w = arch.widths_array
        bench_case(
            results, label, kernels.mlp_forward, (theta, w, kernels.ACT_RELU, x), args.repeats
        )

        logits, acts = kernels.mlp_forward_acts(theta, w, kernels.ACT_RELU, x)
        dlogits = rng.normal(size=logits.shape)
        bench_case(
            results,
            label.replace("fwd", "fwd+acts"),
            kernels.mlp_forward_acts,
            (theta, w, kernels.ACT_RELU, x),
            args.repeats,
        )
        bench_case(
            results,
            label.replace("fwd", "backward"),
            kernels.mlp_backward,
            (theta, w, kernels.ACT_RELU, acts, dlogits),
            args.repeats,
        )

    losses = np.concatenate([rng.normal(0.2, 0.05, 600), rng.normal(0.8, 0.1, 300)])
    losses = (losses - losses.min()) / (losses.max() - losses.min())
    gmm_args = (
        losses,
        np.array([0.5, 0.5]),
        np.percentile(losses, [10.0, 90.0]),
        np.full(2, max(losses.var(), 1e-4)),
        100,
        1e-6,
        1e-4,
    )
    bench_case(
        results, "gmm em, 900 losses", kernels.gmm_em_1d, gmm_args, max(args.repeats // 10, 20)
    )
    bench_epochs(results, *desk_epochs(), max(args.repeats // 400, 1))
    with tempfile.TemporaryDirectory() as tmp:
        bench_written_run(results, Path(tmp) / "run")
        bench_report(results, Path(tmp) / "run", Path(tmp) / "report", max(args.repeats // 20, 5))

    if args.json:
        doc = {
            "backend": kernels.BACKEND,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cases": results,
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
