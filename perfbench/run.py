"""coforget benchmark: the desk, audit and sweep workloads.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics with no tracing; with
--trace 1 it pairs every untraced run with a traced one of the same run seed
and reports the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Metric names
and units come from BENCHMARK.json at the checkout root. See README.md in
this directory for the workloads, the metrics and the layer map.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NEEDED = ("src/coforget/driver.py", "configs/desk.yaml", "configs/quick.yaml", "BENCHMARK.json")

# Each workload runs a fixed pool of run seeds, in an order the workload seed
# picks. The pool is fixed because run seeds differ by up to 50% in cost
# (EM iterations vary), so a seed-drawn subset would measure different work.
# The warm-up run always uses the pool's first seed, so on audit that seed
# runs twice and its audit files are compared byte for byte.
WORKLOADS = {
    "desk": {"config": "configs/desk.yaml", "pool": (1, 2, 3, 4, 5, 6, 7, 8)},
    "audit": {"config": "configs/desk.yaml", "pool": (1, 2, 3, 4, 5, 6, 7, 8)},
    "sweep": {"config": "configs/quick.yaml", "pool": (1, 2, 3)},
}
SMOKE = {
    "desk": {"config": "configs/quick.yaml", "pool": (1,)},
    "audit": {"config": "configs/quick.yaml", "pool": (1,)},
    "sweep": {"config": "configs/quick.yaml", "pool": (1,)},
}
SETUP_PROBES = 7
REPORT_SECONDS = 2.0   # time write_report at least 3 times and for at least this long
MIB = 1024.0 * 1024.0


def fail_fast():
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a coforget checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


fail_fast()
# reference digests are for the numpy backend; pin it before coforget loads
os.environ["COFORGET_DISABLE_NUMBA"] = "1"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from pace import NOMINAL_S, Pace  # noqa: E402
from coforget import (  # noqa: E402
    cli, config, coteach, data, driver, forget, kernels, net, oracle, report, selection,
)

PKG = {
    "cli": cli, "config": config, "coteach": coteach, "data": data, "driver": driver,
    "forget": forget, "kernels": kernels, "net": net, "oracle": oracle,
    "report": report, "selection": selection,
}


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha(path) -> str:
    return sha256(Path(path).read_bytes())


def ref_key(config_path, seed, unlearning) -> str:
    return f"{Path(config_path).stem}/seed={seed}/unlearning={bool(unlearning)}"


def metrics_csv_bytes(result) -> bytes:
    """metrics.csv as driver.run writes it, for runs made without an out-dir."""
    rows = "".join(row.csv_row() + "\n" for row in result.metrics)
    return (driver.METRICS_HEADER + "\n" + rows).encode()


def last_acc_ens(metrics_csv: Path) -> float:
    lines = metrics_csv.read_text().splitlines()
    col = lines[0].split(",").index("acc_ens")
    vals = np.array([float(line.split(",")[col]) for line in lines[1:]])
    return float(np.nanmean(vals[-driver.LAST_WINDOW:]))


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mib() -> float:
    """Peak RSS of this process since it started its program (VmHWM). Unlike
    ru_maxrss it does not count the parent's memory at fork."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def upper_tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return {"percentile": round(100.0 * (k + 1) / n, 1), "value": sorted(values)[k],
            "samples": n, "beyond": n - k - 1}


def child_env(pace_log):
    """Environment of a timed child: coforget from src/, the numpy backend,
    and the speed probe of site/sitecustomize.py logging to `pace_log`."""
    env = dict(os.environ)
    paths = [str(BENCH / "site"), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["COFORGET_DISABLE_NUMBA"] = "1"
    env["PYTHONUNBUFFERED"] = "1"
    env["PERFBENCH_PACE_LOG"] = str(pace_log)
    return env


def read_pace_log(path):
    """(outdir argument or None, slowdown factor, seconds spent calibrating,
    peak RSS in MiB) of each process that wrote `path`, in exit order."""
    out = []
    if path.exists():
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            argv, calib = rec["argv"], rec["calib_s"]
            key = argv[argv.index("--outdir") + 1] if "--outdir" in argv else None
            out.append((key, sum(calib) / len(calib) / NOMINAL_S, sum(calib),
                        rec["vmhwm_kb"] / 1024.0))
    return out


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "coforget").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "backend": kernels.BACKEND,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }


class Tally:
    """Training runs attempted and failed, with the reason for each failure."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, label, key, digest, extra_ok=True, why=""):
        self.attempted += 1
        want = self.reference.get(key)
        if digest != want:
            self.fail_counted(label, f"metrics.csv digest {str(digest)[:12]} != reference "
                                     f"{str(want)[:12]} for {key}")
        elif not extra_ok:
            self.fail_counted(label, why)

    def fail(self, label, why):
        self.attempted += 1
        self.fail_counted(label, why)

    def fail_counted(self, label, why):
        self.failed += 1
        self.notes.append(f"{label}: {why}")


# --------------------------------------------------------------------------
# measurement pieces shared by the workloads
# --------------------------------------------------------------------------


def setup_seconds(work, config_path, seed, probes):
    """Median nominal and raw wall time of fresh interpreters that import
    coforget and build the config, dataset, oracle table and embeddings."""
    log = work / "pace-setup.log"
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), config_path, str(seed)],
            cwd=ROOT, env=child_env(log), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-500:]}")
    paced = read_pace_log(log)
    if len(paced) != len(times):
        raise RuntimeError(f"{log}: expected {len(times)} calibration records, got {len(paced)}")
    nominal = [(t - spent) / f for t, (_, f, spent, _) in zip(times, paced)]
    return statistics.median(nominal), statistics.median(times)


def train(pace, config_path, seed, out_dir=None):
    """One in-process training run; returns (nominal s, raw s, config, result)."""
    cfg = config.load_config(ROOT / config_path, overrides=[f"run.seed={seed}"])
    nominal, raw, result = pace.timed(driver.run, cfg, out_dir=out_dir)
    return nominal, raw, cfg, result


def report_timings(pace, run_dirs, out_dir, seconds, at_least):
    """(nominal s, raw s) of write_report calls over `run_dirs`: at least
    `at_least`, and more until `seconds` of wall time are spent."""
    timings, start = [], time.perf_counter()
    while len(timings) < at_least or time.perf_counter() - start < seconds:
        timings.append(pace.timed(report.write_report, [str(d) for d in run_dirs],
                                  str(out_dir))[:2])
    return timings


def medians(pairs):
    return statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs)


def timed_rounds(order, seconds, body):
    """Run `body(seed)` over whole rounds of `order`: at least one, and more
    while the next round is expected to end within `seconds`."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for seed in order:
            body(seed)
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return


def paired(order, seconds, body):
    """Cycle `body(seed)` over `order` until the next call is expected to end
    past `seconds` (at least one call)."""
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        body(order[i % len(order)])
        i += 1
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return


# --------------------------------------------------------------------------
# per-layer values
# --------------------------------------------------------------------------


def layer_values(names, totals, runs, extra):
    """Per-layer metric values. `<name>.calls|busy_s|self_s` come from the
    span totals and any other name from the counts; values are per traced
    training run, except report.* (from the one traced write_report call)
    and those given in `extra`."""
    span_stats = {"calls": "calls", "busy_s": "busy", "self_s": "self"}
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
            continue
        base, _, stat = name.rpartition(".")
        if stat in span_stats:
            value = totals.get(span_stats[stat], {}).get(base, 0)
        else:
            value = totals.get("counts", {}).get(name, 0)
        per = 1 if name.startswith("report.") else runs
        out[name] = value / per if per else 0.0
    return out


def overhead(pairs):
    """Tracing overhead: median of traced minus untraced time over pairs of
    runs of the same seed."""
    return statistics.median(b - a for a, b in pairs) if pairs else 0.0


# --------------------------------------------------------------------------
# in-process workloads: desk and audit
# --------------------------------------------------------------------------


class InProcess:
    """desk: runs with no out-dir; audit: every run writes its run directory."""

    def __init__(self, name, spec, args, work, tally):
        self.spec, self.args, self.work, self.tally = spec, args, work, tally
        self.cfg = spec["config"]
        self.writes = name == "audit"
        self.n_dirs = 0
        self.audit_files = {}   # run seed -> audit file digests of its first written run

    def new_dir(self):
        self.n_dirs += 1
        return self.work / "runs" / f"run{self.n_dirs:03d}"

    def one(self, seed, label, out_dir=None, t=None):
        """Train once, traced when a tracer is given, and check the output.
        Returns (nominal s, raw s, result), or None when the run failed."""
        if t is not None:
            t.run_id += 1
            t.install(PKG)
        try:
            nominal, raw, cfg, result = train(self.pace, self.cfg, seed, out_dir)
        except Exception as exc:  # a failing run is counted, not fatal
            self.tally.fail(label, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if t is not None:
                t.restore()
        key = ref_key(self.cfg, seed, cfg.method.unlearning)
        if out_dir is None:
            self.tally.check(label, key, sha256(metrics_csv_bytes(result)))
            return nominal, raw, result
        metrics = out_dir / "metrics.csv"
        audit = tuple(file_sha(out_dir / n) if (out_dir / n).exists() else None
                      for n in ("codivide_audit.csv", "forgetting_log.csv"))
        first = self.audit_files.setdefault(seed, audit)
        self.tally.check(label, key, file_sha(metrics) if metrics.exists() else None,
                         first == audit, "codivide_audit.csv or forgetting_log.csv differs "
                                         "from an earlier run of the same seed")
        return nominal, raw, result

    def warm_up(self, seed):
        """The discarded first run of the process. Desk keeps its directory
        as the one written run its report_s and out_mb are taken from."""
        kept = self.new_dir()
        self.one(seed, f"warm-up seed {seed}", kept)
        return kept

    def measure(self, order, warm_seed):
        a = self.args
        setup_s, setup_raw = setup_seconds(self.work, self.cfg, warm_seed, a.setup_probes)
        e2e = {"setup_s": setup_s}
        nominal, raw, cycles, accs, dirs, reports = [], [], [], [], [], []

        def body(seed):
            t0 = time.perf_counter()
            out = self.new_dir() if self.writes else None
            got = self.one(seed, f"seed {seed}", out)
            if got is not None:
                nominal.append(got[0])
                raw.append(got[1])
                # start to start of the next run, less the calibration, at nominal speed
                cycles.append((time.perf_counter() - t0 - self.pace.last) * got[0] / got[1])
                accs.append(got[2].last["acc_ens"])
                if out is not None:
                    dirs.append(out)
            if self.writes:
                # audit times the report between runs, so its median spans the run
                reports.extend(report_timings(self.pace, [kept], self.work / "report",
                                              a.report_seconds / len(order), 1))

        self.pace = Pace()
        kept = self.warm_up(warm_seed)
        timed_rounds(order, a.seconds, body)
        # read before desk times its report: desk's peak is its training runs,
        # while audit's includes the reports it timed between runs
        rss = peak_rss_mib()
        if not self.writes:
            reports = report_timings(self.pace, [kept], self.work / "report",
                                     a.report_seconds, 3)
        report_s, report_raw = medians(reports)
        e2e.update(
            run_s=statistics.median(nominal),
            runs_per_min=60.0 / statistics.median(cycles),
            report_s=report_s,
            out_mb=statistics.fmean(dir_bytes(d) for d in (dirs or [kept])) / MIB,
            peak_rss_mb=rss,
            acc_ens_last=statistics.fmean(accs),
        )
        return e2e, {"run_s_samples": len(nominal), "run_s_upper_tail": upper_tail(nominal),
                     "raw_run_s": statistics.median(raw),
                     "raw_report_s": report_raw, "raw_setup_s": setup_raw,
                     "slowdown": sum(raw) / sum(nominal),
                     "raw_run_s_upper_tail": upper_tail(raw)}

    def trace(self, order, warm_seed):
        """An untraced and a traced run of the same seed, alternately."""
        t = tracer.Tracer()
        pairs = []

        def body(seed):
            plain = self.one(seed, f"seed {seed}", self.new_dir() if self.writes else None)
            out = self.new_dir() if self.writes else None
            traced = self.one(seed, f"traced seed {seed}", out, t)
            if traced is not None and plain is not None:
                pairs.append((plain[0], traced[0]))

        self.pace = Pace()
        kept = self.warm_up(warm_seed)
        paired(order, self.args.seconds, body)
        runs, t.run_id = t.run_id, 0
        t.install(PKG)
        try:
            report.write_report([str(kept)], str(self.work / "report"))
        finally:
            t.restore()
        extra = {
            "trace.overhead_s": overhead(pairs),
            "trace.self_cover": tracer.self_cover(t.spans, "driver.run"),
            "trace.runs": runs,
        }
        return t.snapshot(), runs, extra, t.spans


# --------------------------------------------------------------------------
# sweep: one `coforget sweep` CLI call per round, each member a fresh process
# --------------------------------------------------------------------------


class Sweep:
    UNLEARNING = ("true", "false")

    def __init__(self, name, spec, args, work, tally):
        self.spec, self.args, self.work, self.tally = spec, args, work, tally
        self.cfg = spec["config"]
        self.n_calls = 0

    def call(self, seeds, unlearning=UNLEARNING, traced=False):
        """Run one sweep CLI call and check every member's output."""
        self.n_calls += 1
        outdir = self.work / "runs" / f"call{self.n_calls:03d}"
        stats = self.work / f"trace{self.n_calls:03d}.json"
        pace_log = self.work / f"pace{self.n_calls:03d}.log"
        cli_args = ["sweep", "--config", self.cfg,
                    "--set", "run.seed=" + ",".join(str(s) for s in seeds),
                    "--set", "method.unlearning=" + ",".join(unlearning),
                    "--outdir", str(outdir)]
        if traced:
            cmd = [sys.executable, str(BENCH / "tracehost.py"), str(stats), str(self.n_calls),
                   *cli_args]
        else:
            cmd = [sys.executable, "-m", "coforget", *cli_args]
        with open(self.work / "sweep.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(pace_log),
                                    stdout=subprocess.PIPE, stderr=log)
            # each member starts right after the sweep prints its "[sweep i/n]" line
            marks = [time.perf_counter() for line in proc.stdout if line.startswith(b"[sweep ")]
            proc.stdout.close()
            proc.wait()
            end = time.perf_counter()
        raw = dict(zip([f"seed={s}_unlearning={u}" for s in seeds for u in unlearning],
                       [b - a for a, b in zip(marks, marks[1:] + [end])]))
        paced = read_pace_log(pace_log)
        factors = {Path(k).name: (f, spent) for k, f, spent, _ in paced if k}
        calib_spent = sum(spent for _, _, spent, _ in paced)
        members, nominal, accs = [], [], []
        for seed in seeds:
            for unl in unlearning:
                run_dir = outdir / f"seed={seed}_unlearning={unl}"
                metrics = run_dir / "metrics.csv"
                label = f"call {self.n_calls} member {run_dir.name}"
                if not metrics.exists():
                    self.tally.fail(label, "no metrics.csv (member failed)")
                    continue
                self.tally.check(label, ref_key(self.cfg, seed, unl == "true"), file_sha(metrics))
                members.append(run_dir)
                accs.append(last_acc_ens(metrics))
                factor, spent = factors.get(run_dir.name, (1.0, 0.0))
                raw[run_dir.name] -= spent
                nominal.append(raw[run_dir.name] / factor)
        if proc.returncode != 0 and len(members) == len(seeds) * len(unlearning):
            self.tally.fail(f"call {self.n_calls}", f"sweep exited {proc.returncode}")
        member_raw = [raw[d.name] for d in members]
        wall = end - t0 - calib_spent
        return {
            "wall": wall,
            # the sweep process itself idles while members run, so its
            # slowdown is taken as that of its members
            "nominal_wall": wall * sum(nominal) / sum(member_raw) if nominal else wall,
            "member_s": nominal,
            "member_raw_s": member_raw,
            "rss": max((hwm for *_, hwm in paced), default=0.0),
            "dirs": members,
            "accs": accs,
            "trace": json.loads(stats.read_text()) if traced and stats.exists() else None,
        }

    def measure(self, order, warm_seed):
        a = self.args
        setup_s, setup_raw = setup_seconds(self.work, self.cfg, warm_seed, a.setup_probes)
        self.call([warm_seed], unlearning=("true",))
        calls, reports, pace = [], [], Pace()

        def body(seeds):
            calls.append(self.call(seeds))
            # time the report after every call, so its median spans the whole run
            reports.extend(report_timings(pace, calls[-1]["dirs"], self.work / "report",
                                          a.report_seconds / 4, 1))

        timed_rounds([order], a.seconds, body)
        member_s = [m for c in calls for m in c["member_s"]]
        member_raw = [m for c in calls for m in c["member_raw_s"]]
        written = [d for c in calls for d in c["dirs"]]
        report_s, report_raw = medians(reports)
        e2e = {
            "setup_s": setup_s,
            "run_s": statistics.median(member_s),
            "runs_per_min": 60.0 / statistics.median(c["nominal_wall"] / len(c["dirs"])
                                                     for c in calls),
            "report_s": report_s,
            "out_mb": sum(dir_bytes(d) for d in written) / len(written) / MIB,
            "peak_rss_mb": max(c["rss"] for c in calls),
            "acc_ens_last": statistics.fmean(calls[0]["accs"]),
        }
        return e2e, {"run_s_samples": len(member_s), "run_s_upper_tail": upper_tail(member_s),
                     "sweep_calls": len(calls), "raw_run_s": statistics.median(member_raw),
                     "raw_runs_per_min": 60.0 * len(member_raw) / sum(c["wall"] for c in calls),
                     "raw_report_s": report_raw, "raw_setup_s": setup_raw,
                     "raw_run_s_upper_tail": upper_tail(member_raw)}

    def trace(self, order, warm_seed):
        """An untraced and a traced sweep call over the pool, alternately."""
        self.call([warm_seed], unlearning=("true",))
        plain, traced = [], []

        def body(seeds):
            plain.append(self.call(seeds))
            traced.append(self.call(seeds, traced=True))

        paired([order], self.args.seconds, body)
        totals, spans, member_s = {}, [], []
        for c in traced:
            if c["trace"] is not None:
                tracer.merge(totals, c["trace"]["totals"])
                spans.extend(tuple(s) for s in c["trace"]["spans"])
                member_s.extend(c["trace"]["member_s"])
        t = tracer.Tracer()
        t.install(PKG)
        try:
            report.write_report([str(d) for d in traced[0]["dirs"]], str(self.work / "report"))
        finally:
            t.restore()
        tracer.merge(totals, t.snapshot())
        spans.extend(t.spans)
        counts = totals.get("counts", {})
        extra = {
            "cli.sweep.member_s": statistics.median(member_s) if member_s else 0.0,
            "cli.sweep.cpu_util": counts.get("cli.sweep.children_cpu_s", 0.0)
            / (sum(c["wall"] for c in traced) * len(os.sched_getaffinity(0))),
            "cli.sweep.members": counts.get("cli.sweep.members", 0) / len(traced),
            "cli.sweep.failed": counts.get("cli.sweep.failed", 0),
            "trace.overhead_s": overhead([p for a, b in zip(plain, traced)
                                          if len(a["member_s"]) == len(b["member_s"])
                                          for p in zip(a["member_s"], b["member_s"])]),
            "trace.self_cover": tracer.self_cover(spans, "driver.run"),
            "trace.runs": len(member_s),
        }
        return totals, len(member_s), extra, spans


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="coforget benchmark (see perfbench/README.md)")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True, help="workload seed: orders the run seeds")
    p.add_argument("--seconds", type=float, required=True, help="measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny run on configs/quick.yaml that checks every metric is emitted")
    args = p.parse_args(argv)
    args.setup_probes = 1 if args.smoke else SETUP_PROBES
    args.report_seconds = 0.0 if args.smoke else REPORT_SECONDS
    return args


def main(argv=None):
    args = parse_args(argv)
    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    reference = json.loads((BENCH / "reference.json").read_text())
    env = environment()
    rng = random.Random(f"{args.workload}/{args.seed}")
    order = list(spec["pool"])
    rng.shuffle(order)
    warm_seed = spec["pool"][0]   # fixed: desk's out_mb and report_s come from this run

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally(reference)
    runner = (Sweep if args.workload == "sweep" else InProcess)(
        args.workload, spec, args, work, tally)
    try:
        if args.trace:
            totals, runs, extra, spans = runner.trace(order, warm_seed)
            values = layer_values([m["name"] for m in wanted], totals, runs, extra)
            tracer.write_spans(OUT / f"trace-{args.workload}.csv", spans)
            detail = {"traced_runs": runs}
        else:
            values, detail = runner.measure(order, warm_seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = loadavg()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
                             "run_seeds": order, "env": env, "detail": detail,
                             "notes": tally.notes, "result": result}) + "\n")
    print(f"env {json.dumps(env)}")
    print(f"detail {json.dumps(detail)}")
    for note in tally.notes:
        print(f"FAILED {note}")
    for name, m in metrics.items():
        print(f"{args.workload:<6} {name:<40} {m['value']:>16.6f} {m['unit']}")
    print(f"{args.workload:<6} failed/attempted {tally.failed}/{tally.attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
