"""Outside-in tracing of coforget: wrap public functions at the attribute
each caller looks up, so the program's own calls go through the wrappers,
and record one span per call.

Nothing in the package knows about this module. `Tracer.install()` swaps
the wrappers in and `Tracer.restore()` puts the original functions back.

A span is (run id, span id, parent span id, name, start, end), kept in
memory and written out by `write_spans` when the benchmark ends. A span's
self time is its duration minus the time its child spans cover. Counts are
taken at the same boundaries from arguments and return values; the MLP
operation counts and bytes moved are computed from array shapes, not
measured on hardware.
"""

import os
import resource
import time
import types
from collections import defaultdict

import numpy as np


def _rchar():
    """Bytes this process has read through read() calls so far."""
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


# --- count hooks: (counts, result, args, token) -> None --------------


def _count_mlp(name, rows_arg):
    def hook(counts, result, args, token):
        widths, rows_src = args[1], args[rows_arg]
        rows = rows_src.shape[0]
        counts[name + ".rows"] += rows
        # 2 * rows * sum_i f_i * f_{i+1} multiply-adds per pass
        counts["kernels.mlp.flops_computed"] += 2 * rows * int(np.dot(widths[:-1], widths[1:]))
        out = result if isinstance(result, tuple) else (result,)
        counts["kernels.mlp.bytes_computed"] += _nbytes(*args, *out)
    return hook


def _count_gmm(counts, result, args, token):
    values, max_iter = args[0], args[4]
    n_iter = int(result[5])
    counts["kernels.gmm_em_1d.iters"] += n_iter
    counts["kernels.gmm_em_1d.max_iter_hits"] += int(n_iter == max_iter)
    counts["kernels.gmm_em_1d.work_computed"] += n_iter * values.shape[0]
    # one pass over the samples per iteration plus the final E-step
    counts["kernels.gmm_em_1d.bytes_computed"] += (n_iter + 1) * values.nbytes


def _count_coteach(counts, result, args, token):
    pool = result.w_scratch.shape[0]
    labeled_scratch = int(np.count_nonzero(result.labeled_for_scratch))
    counts["coteach.labeled_scratch"] += labeled_scratch
    counts["coteach.unlabeled_scratch"] += pool - labeled_scratch
    counts["coteach.labeled_embed"] += int(np.count_nonzero(result.labeled_for_embed))
    counts["coteach.skipped_updates"] += int(result.skipped_scratch) + int(result.skipped_embed)
    # the driver formats one co-divide audit row per pool sample per epoch
    counts["driver.audit_rows"] += pool


def _count_selection(counts, result, args, token):
    sets = result[0]
    counts["selection.targets"] += len(sets.targets_scratch) + len(sets.targets_embed)


def _count_plan(counts, result, args, token):
    counts["forget.steps"] += len(result.batches)


def _count_forget(counts, result, args, token):
    counts["forget.targets"] += result[2].n_targets


def _count_file_bytes(name):
    def hook(counts, result, args, token):
        counts[name] += os.path.getsize(args[0])
    return hook


def _count_read(counts, result, args, token):
    counts["report.load_run.bytes_read"] += _rchar() - token


def _count_member(counts, result, args, token):
    counts["cli.sweep.members"] += 1
    counts["cli.sweep.failed"] += int(result.returncode != 0)
    counts["cli.sweep.children_cpu_s"] += _children_cpu() - token


def targets(pkg):
    """(owner object, attribute, span name, count hook, pre-call hook) for
    every boundary the benchmark traces. `pkg` maps module names to the
    imported coforget modules."""
    k, n, c, s, f, d = (pkg[m] for m in
                        ("kernels", "net", "coteach", "selection", "forget", "driver"))
    out = [
        (k, "mlp_forward", "kernels.mlp_forward", _count_mlp("kernels.mlp_forward", 3), None),
        (k, "mlp_forward_acts", "kernels.mlp_forward_acts",
         _count_mlp("kernels.mlp_forward_acts", 3), None),
        (k, "mlp_backward", "kernels.mlp_backward", _count_mlp("kernels.mlp_backward", 4), None),
        (k, "gmm_em_1d", "kernels.gmm_em_1d", _count_gmm, None),
        (c, "coteach_epoch", "coteach.coteach_epoch", _count_coteach, None),
        (c, "fit_gmm_1d", "coteach.fit_gmm_1d", None, None),
        (c, "co_divide", "coteach.co_divide", None, None),
        (s, "unlearning_setup", "selection.unlearning_setup", _count_selection, None),
        (s, "write_selection_audit", "selection.write_selection_audit",
         _count_file_bytes("selection.write_selection_audit.bytes"), None),
        (f, "make_unlearn_plan", "forget.make_unlearn_plan", _count_plan, None),
        (f, "apply_unlearning", "forget.apply_unlearning", _count_forget, None),
        (n, "save_checkpoint", "net.save_checkpoint",
         _count_file_bytes("net.save_checkpoint.bytes"), None),
    ]
    for name in ("predict_proba", "per_sample_ce", "semi_value_grad", "ce_value_grad",
                 "unlearn_value_grad", "sgd_step"):
        out.append((n, name, "net." + name, None, None))
    for name in ("run", "warmup_epoch", "build_dataset", "build_oracle"):
        out.append((d, name, "driver." + name, None, None))
    out += [
        (pkg["config"], "load_config", "config.load_config", None, None),
        # cli imported load_config by name, so its calls look it up on cli
        (pkg["cli"], "load_config", "config.load_config", None, None),
        (pkg["data"], "make_blobs", "data.make_blobs", None, None),
        (pkg["data"], "inject_noise", "data.inject_noise", None, None),
        (pkg["oracle"], "synthetic_oracle", "oracle.synthetic_oracle", None, None),
        (pkg["oracle"], "oracle_embeddings", "oracle.oracle_embeddings", None, None),
        (pkg["report"], "load_run", "report.load_run", _count_read, _rchar),
        (pkg["report"], "selection_quality", "report.selection_quality", None, None),
        (pkg["report"], "write_report", "report.write_report", None, None),
    ]
    return out


class Tracer:
    """Span recorder plus per-name call/busy/self totals and counts."""

    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.run_id = 0
        self._stack = []   # one [span id, child time] frame per open span
        self._saved = []

    def wrap(self, fn, name, count=None, pre=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, busy, self_time, counts = self.calls, self.busy, self.self_time, self.counts

        def wrapper(*args, **kwargs):
            token = pre() if pre is not None else None
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                calls[name] += 1
                busy[name] += dur
                self_time[name] += dur - frame[1]
                spans[frame[0]] = (self.run_id, frame[0], parent[0] if parent else -1,
                                   name, start, end)
            if count is not None:
                count(counts, result, args, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, name, count=None, pre=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count, pre))

    def install(self, pkg):
        for owner, attr, name, count, pre in targets(pkg):
            self.patch(owner, attr, name, count, pre)

    def trace_sweep_members(self, cli, rewrite):
        """Route cli's `subprocess.run` through a span named cli.sweep.member;
        `rewrite` maps each member command to the one actually started."""
        real = cli.subprocess
        member = self.wrap(lambda cmd, *a, **kw: real.run(rewrite(cmd), *a, **kw),
                           "cli.sweep.member", _count_member, _children_cpu)
        self._saved.append((cli, "subprocess", real))
        cli.subprocess = types.SimpleNamespace(run=member)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """Plain-data totals, for merging across processes."""
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }


def self_cover(spans, root_name):
    """Sum of the self times of every span under a `root_name` span (the
    root included), divided by the roots' total duration; 1.0 means the self
    times account for all of the roots' time."""
    spans = [s for s in spans if s is not None]
    by_key = {(s[0], s[1]): s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[2] >= 0:
            child[(s[0], s[2])] += s[5] - s[4]
    under = {}

    def in_root(key):
        path = []
        while key not in under:
            s = by_key[key]
            if s[3] == root_name or s[2] < 0:
                under[key] = s[3] == root_name
                break
            path.append(key)
            key = (s[0], s[2])
        for k in path:
            under[k] = under[key]
        return under[key]

    covered = sum(s[5] - s[4] - child[(s[0], s[1])] for s in spans if in_root((s[0], s[1])))
    busy = sum(s[5] - s[4] for s in spans if s[3] == root_name)
    return covered / busy if busy > 0 else 0.0


def merge(into, snap):
    for key in ("calls", "busy", "self", "counts"):
        bucket = into.setdefault(key, {})
        for name, value in snap.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    return into


def write_spans(path, spans):
    """Spans as CSV, times in seconds from the earliest start."""
    spans = [s for s in spans if s is not None]
    t0 = min((s[4] for s in spans), default=0.0)
    with open(path, "w", newline="\n") as fh:
        fh.write("run,span,parent,name,start_s,end_s\n")
        for s in spans:
            fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4] - t0:.7f},{s[5] - t0:.7f}\n")
