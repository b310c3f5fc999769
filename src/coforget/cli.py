"""Command-line surface: build datasets, generate/import oracles, run
config-driven experiments, compare runs, export a run's co-divide record as
CSV, and launch sweeps, whose members run in parallel forked worker
processes.

Run outputs land under --outdir, the config's run.outdir, or
$COFORGET_RUNS_DIR/run-<confighash>-s<seed> in that order of precedence.
"""

import argparse
import contextlib
import json
import logging
import os
# unused here: perfbench/tracer.py patches `cli.subprocess.run` to trace sweep members
import subprocess  # noqa: F401
import sys
from pathlib import Path

from . import __version__, data, driver, oracle, report
from .config import NOISE_KINDS, RunConfig, load_config, validate_config
from .errors import ConfigurationError, IngestionError, InputError, StateError
from .util import fmt_float, output_dir, pool_map, replacing, usable_cpus

logger = logging.getLogger("coforget")

RUNS_DIR_ENV = "COFORGET_RUNS_DIR"
PACKAGE_ERRORS = (ConfigurationError, InputError, IngestionError, StateError)


def _class_list(text: str) -> list:
    """--pair-map's comma-separated class indices."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated class indices, got {text!r}") from None


def _flag_config(args) -> RunConfig:
    """The RunConfig of a data command: each parsed value whose dest is a
    section.field sets that field, and the sections so set are checked by
    their config table rows."""
    cfg = RunConfig()
    values = {name: value for name, value in vars(args).items() if "." in name}
    for name, value in values.items():
        section, key = name.split(".")
        setattr(getattr(cfg, section), key, value)
    validate_config(cfg, dict.fromkeys(name.split(".")[0] for name in values))
    return cfg


def _output_file(path) -> Path:
    """Path(path), unless it is a directory or its nearest existing ancestor a file."""
    path = Path(path)
    output_dir(path.parent)
    if path.name == ".." or path.is_dir():
        raise ConfigurationError(f"--out {path}: is a directory")
    return path


def cmd_make_data(args) -> int:
    cfg = _flag_config(args)
    out = _output_file(args.out)
    sidecar_path = _output_file(out.with_name(out.name + ".manifest.json"))
    ds = driver.build_dataset(cfg)
    transition = driver.noise_matrix(cfg.noise, ds.n_classes)
    if transition is None:  # instance noise: the transition its draw made
        train = ds.train_ids()
        transition = data.empirical_transition(ds.true_labels[train], ds.observed_labels[train],
                                               ds.n_classes).matrix
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save_dataset(ds, out)
    sidecar = {key: getattr(cfg.dataset, key)
               for key in ("classes", "per_class", "test_per_class", "dim", "spread", "seed")}
    sidecar["noise"] = {key: getattr(cfg.noise, key) for key in ("kind", "eta", "seed")}
    sidecar["transition_matrix"] = transition.tolist()
    with replacing(sidecar_path, "w", newline="\n") as fh:
        fh.write(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {out} ({ds.n} samples, {ds.n_classes} classes)")
    return 0


def cmd_make_oracle(args) -> int:
    cfg = _flag_config(args)
    out = _output_file(args.out)
    ds = driver.build_dataset(cfg)
    train = ds.train_ids()
    if train.shape[0] == 0:
        raise ConfigurationError(f"dataset.path {cfg.dataset.path}: no train rows to measure the "
                                 "oracle's accuracy on", field="dataset.path")
    table = driver.build_oracle(cfg, ds)
    out.parent.mkdir(parents=True, exist_ok=True)
    oracle.save_oracle_file(table, out)
    acc = float((table.argmax()[train] == ds.true_labels[train]).mean())
    print(f"wrote {out} (empirical train accuracy {acc:.4f})")
    return 0


def _resolve_outdir(outdir, cfg) -> Path:
    if outdir:
        return Path(outdir)
    if cfg.run.outdir:
        return Path(cfg.run.outdir)
    root = os.environ.get(RUNS_DIR_ENV, "runs")
    return Path(root) / f"run-{cfg.config_hash()}-s{cfg.run.seed}"


def _write_whole(text: str) -> None:
    """Write text to stdout in one write and flush it, so that lines from
    concurrent sweep members never merge (print writes the newline apart)."""
    sys.stdout.write(text)
    sys.stdout.flush()


def _train(config, overrides, outdir) -> None:
    """One `train`: load the config with its overrides, run it, print the
    Best/Last lines as one block. Every sweep member is exactly this call."""
    cfg = load_config(config, overrides=overrides)
    out_dir = _resolve_outdir(outdir, cfg)
    result = driver.run(cfg, out_dir)
    _write_whole(f"run complete: {out_dir}\n" + "".join(
        f"  {key}: best {fmt_float(result.best[key])}, last(10) {fmt_float(result.last[key])}\n"
        for key in ("acc_scratch", "acc_embed", "acc_ens")))


def cmd_train(args) -> int:
    _train(args.config, args.override, args.outdir)
    return 0


def _parse_window(text):
    if text is None:
        return None
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise ConfigurationError(f"--window must look like START:END, got {text!r}") from None
    if not 1 <= lo <= hi:
        raise ConfigurationError(f"--window needs 1 <= START <= END, got {text!r}")
    return lo, hi


def cmd_report(args) -> int:
    summary = report.write_report(
        args.run_dirs, args.out, window=_parse_window(args.window)
    )
    width = max(len(r) for r in summary)
    print(f"{'run':<{width}}  best_scr  last_scr  best_emb  last_emb  best_ens  last_ens")
    for run_id, (best, last) in summary.items():
        cells = "    ".join(f"{best[key]:.4f}    {last[key]:.4f}" for key in driver.ACC_KEYS)
        print(f"{run_id:<{width}}  {cells}")
    print(f"report files under {args.out}")
    return 0


def cmd_export(args) -> int:
    out = report.export_codivide(args.run_dir)
    print(f"wrote {out}")
    return 0


def sweep_grid(items) -> list:
    """The --set axes' cartesian product, one [(key, value), ...] per member."""
    combos = [[]]
    for item in items:
        if "=" not in item:
            raise ConfigurationError(f"--set {item!r} must look like section.key=v1,v2,...")
        key, values = item.split("=", 1)
        combos = [prev + [(key.strip(), v)] for prev in combos for v in values.split(",")]
    return combos


def sweep_labels(combos) -> list:
    """Each member's run-directory name: its `key=value` pairs joined by `_`,
    or `run0` for an empty grid. Raises ConfigurationError unless every
    label is a distinct plain path component."""
    labels = ["_".join(f"{k.split('.')[-1]}={v}" for k, v in combo) or f"run{idx}"
              for idx, combo in enumerate(combos)]
    seen = set()
    for label in labels:
        if label in (".", "..") or any(c in label for c in ("/", os.sep, "\0")):
            raise ConfigurationError(
                f"sweep member {label!r} is not a plain directory name; "
                "a --set value holds a path separator or NUL"
            )
        if label in seen:
            raise ConfigurationError(
                f"two sweep members would share the run directory {label!r}"
            )
        seen.add(label)
    return labels


def _sweep_member(member) -> None:
    """One sweep member, in this process or a pool worker: its
    "[sweep i/n] label" line marks its start, then it is a `train`."""
    mark, config, overrides, out_dir = member
    _write_whole(mark)
    _train(config, overrides, out_dir)


def cmd_sweep(args) -> int:
    """Run the cartesian product of --set values, each member as `train`
    would, in one forked worker process per usable CPU, at most one per
    member; with one CPU or one member they run one after another in this
    process. Members print whole lines, so lines of concurrent members
    interleave but never merge. A member that raises, or whose worker
    process dies, is counted as failed and the sweep goes on (in this
    process, a hard crash still ends the sweep); this process logs every
    failure."""
    combos = sweep_grid(args.set)
    labels = sweep_labels(combos)
    out_root = output_dir(args.outdir)
    out_root.mkdir(parents=True, exist_ok=True)
    members = [(f"[sweep {idx + 1}/{len(combos)}] {label}\n", args.config,
                [f"{k}={v}" for k, v in combo], out_root / label)
               for idx, (combo, label) in enumerate(zip(combos, labels))]
    jobs = min(usable_cpus(), len(members))
    failed = []
    # closed on the way out, so that an interrupt here stops the workers too
    with contextlib.closing(pool_map(_sweep_member, members, jobs)) as outcomes:
        for label, outcome in zip(labels, outcomes):
            try:
                outcome()
            except Exception as exc:
                failed.append(label)
                # a package error's message says what is wrong; anything else
                # is a bug, so its traceback goes into the log
                logger.warning("sweep member %s failed: %s", label, exc,
                               exc_info=not isinstance(exc, PACKAGE_ERRORS))
    if failed:
        print(f"{len(failed)} of {len(combos)} sweep members failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coforget",
        description="Noisy-label co-teaching with selective unlearning, desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"coforget {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # an option whose dest is section.field sets that config field
    p = sub.add_parser("make-data", help="generate a blob dataset with injected label noise")
    p.add_argument("--classes", dest="dataset.classes", type=int, default=3)
    p.add_argument("--per-class", dest="dataset.per_class", type=int, default=300)
    p.add_argument("--test-per-class", dest="dataset.test_per_class", type=int, default=100)
    p.add_argument("--dim", dest="dataset.dim", type=int, default=8)
    p.add_argument("--spread", dest="dataset.spread", type=float, default=1.0)
    p.add_argument("--seed", dest="dataset.seed", type=int, default=0)
    p.add_argument("--noise", dest="noise.kind", choices=NOISE_KINDS, default="symmetric")
    p.add_argument("--eta", dest="noise.eta", type=float, default=0.4)
    p.add_argument("--pair-map", dest="noise.pair_map", type=_class_list, default=None,
                   help="comma-separated target class per class")
    p.add_argument("--noise-seed", dest="noise.seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_make_data, parser=p)

    p = sub.add_parser("make-oracle", help="emit a synthetic zero-shot oracle file for a dataset")
    p.add_argument("--data", dest="dataset.path", required=True)
    p.add_argument("--accuracy", dest="oracle.accuracy", type=float, default=0.7)
    p.add_argument("--confidence", dest="oracle.confidence", type=float, default=0.6)
    p.add_argument("--seed", dest="oracle.seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_make_oracle, parser=p, **{"dataset.kind": "file", "noise.kind": "none"})

    p = sub.add_parser("train", help="run one experiment from a YAML config")
    p.add_argument("--config", required=True)
    p.add_argument("--override", action="append", default=[],
                   help="section.key=value (bare seed=N targets run.seed); repeatable")
    p.add_argument("--outdir", default="")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("report", help="summarize one or more completed run directories")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", default="report")
    p.add_argument("--window", default=None,
                   help="epoch window START:END for selection-quality tallies")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("export", help="write a run directory's codivide_audit.csv "
                       "from its codivide_audit.npy")
    p.add_argument("run_dir")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("sweep", help="run a config across a grid of overrides, "
                       "members in parallel worker processes, one per CPU")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", default=[],
                   help="section.key=v1,v2,... sweep axis; repeatable")
    p.add_argument("--outdir", required=True)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PACKAGE_ERRORS as exc:
        # a data command's error names first the option that set the field at fault
        field = getattr(exc, "field", None)
        flag = next((a.option_strings[0] for a in (args.parser._actions if "parser" in args else ())
                     if a.dest == field), None)
        print(f"error: {flag + ': ' if flag else ''}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
