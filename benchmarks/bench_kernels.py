"""Benchmark the hot kernels: active backend versus the pure-numpy fallback.

Each compiled kernel keeps its original Python source on .py_func, so both
paths run in one process. Shapes mirror a real desk run (batch 128, an
8-32-32-3 scratch net, a 16-32-16-3 embedding net, 900-sample GMM fits).

The gmm_pair case times the co-divide's fit pairs of desk.yaml seed 1 (115
co-teaching epochs, two fits each), per pair: both fits in this process,
and the scratch net's in a forked helper process while this one runs the
embed net's, as a run does when a second CPU is free (a run also trains the
scratch net before it waits for the helper, which this case leaves out).

Usage:
    python benchmarks/bench_kernels.py [--repeats 2000] [--json PATH]

--json writes {"backend", "numpy", "python", "cases": {case: {"jit_us",
"python_us"}}} to PATH as well as printing the table; the gmm_pair case
holds {"serial_us", "helper_us"}.

Run with COFORGET_DISABLE_NUMBA=1 to confirm the fallback is the only path;
the two columns then match.
"""

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from coforget import config, coteach, driver, kernels, util
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


def desk_fit_pairs():
    """The (scratch, embed) losses of each co-teaching epoch's GMM fits in
    desk.yaml seed 1, from a run that fits both in this process."""
    fits, fit, cpus = [], coteach.fit_gmm_1d, util.usable_cpus

    def record(losses):
        fits.append(np.array(losses))
        return fit(losses)

    coteach.fit_gmm_1d, util.usable_cpus = record, lambda: 1
    try:
        driver.run(config.load_config(DESK, ["run.seed=1"]))
    finally:
        coteach.fit_gmm_1d, util.usable_cpus = fit, cpus
    # each epoch fits the embed net's losses first
    return list(zip(fits[1::2], fits[0::2]))


def bench_pairs(results, pairs, passes):
    """Time every pair both ways, alternating, `passes` times after one
    untimed pass each."""
    def serial():
        for scratch, embed in pairs:
            coteach.clean_posterior(scratch)
            coteach.clean_posterior(embed)

    with util.forked_server(coteach.clean_posterior) as submit:
        def helper():
            for scratch, embed in pairs:
                scratch_fit = submit(scratch)
                coteach.clean_posterior(embed)
                scratch_fit()

        took = {serial: 0.0, helper: 0.0}
        for fn in took:
            fn()
        for _ in range(passes):
            for fn in took:
                start = time.perf_counter()
                fn()
                took[fn] += time.perf_counter() - start
    serial_us, helper_us = (t / passes / len(pairs) * 1e6 for t in took.values())
    print(f"{f'gmm pair, desk seed 1 ({len(pairs)} pairs)':<38} {serial_us:>10.1f} "
          f"{helper_us:>10.1f} {serial_us / helper_us:>8.2f}x  (serial us, helper us)")
    results["gmm_pair"] = {"serial_us": serial_us, "helper_us": helper_us}


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
    bench_pairs(results, desk_fit_pairs(), max(args.repeats // 400, 1))

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
