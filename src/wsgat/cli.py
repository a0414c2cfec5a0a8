"""Command line interface: ingest, train, reproduce, verify.

Exit codes:
    0  success
    1  standard output closed by its reader (e.g. piped into `head`)
    2  parse / input / config error, or a file that cannot be opened or decoded
    3  degenerate task or undefined metric (e.g. sign prediction on an
       all-positive graph, or a test split with one sign only)
    4  convergence error
    5  numeric fault
    6  sampling exhaustion
    7  verification failure
    8  out of memory
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import checkpoint, verify as verify_mod
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateTaskError,
    EmptyGraphError,
    GraphParseError,
    GraphWriteError,
    NumericFault,
    SamplingExhaustedError,
    UndefinedMetricError,
)
from .graph import FORMATS, load_edge_list, save_edge_list
from .pipelines import TASKS, EvalReport, TrainConfig, csv_row, train

EXIT_CODES = {
    GraphParseError: 2,
    GraphWriteError: 2,
    EmptyGraphError: 2,
    OSError: 2,  # a file that cannot be opened; main() takes BrokenPipeError first
    ConfigError: 2,
    DegenerateTaskError: 3,
    UndefinedMetricError: 3,
    ConvergenceError: 4,
    NumericFault: 5,
    SamplingExhaustedError: 6,
    MemoryError: 8,  # numpy's message names the array it could not allocate
}

# key -> type of its TrainConfig default; the seed comes from --seed
CONFIG_KEYS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)
               if f.name != "seed"}
BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def parse_config(path=None):
    """Flat 'key = value' text config; '#' comments; unknown and repeated keys rejected."""
    if not path:
        return TrainConfig()
    try:
        with open(path, "r", encoding="utf-8-sig") as f:  # -sig: a leading BOM is dropped
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    values, seen = {}, {}  # key -> value, key -> line number
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        k, v = (part.strip() for part in line.split("=", 1))
        if k not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {k!r} "
                              f"(known: {sorted(CONFIG_KEYS)})")
        if k in seen:
            raise ConfigError(f"{path}:{lineno}: {k} given twice, on lines {seen[k]} and {lineno}")
        seen[k] = lineno
        kind = CONFIG_KEYS[k]
        try:
            values[k] = BOOL_WORDS[v.lower()] if kind is bool else kind(v)
        except (KeyError, ValueError):
            raise ConfigError(f"{path}:{lineno}: {k} expects {kind.__name__}, "
                              f"got {v!r}") from None
    try:
        return TrainConfig(**values)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def cmd_ingest(args):
    g = load_edge_list(args.source, fmt=args.format, symmetrize=args.symmetrize)
    name = args.name or os.path.splitext(os.path.basename(args.source))[0]
    out_path = os.path.join(args.out, f"{name}.tsv")
    save_edge_list(g, out_path)
    pct = 100.0 * g.fraction_positive()
    print(f"{g.num_nodes} nodes, {g.num_edges} edges, {pct:.2f}% positive")
    print(f"wrote {out_path}")
    return 0


def cmd_train(args):
    cfg = dataclasses.replace(parse_config(args.config), seed=args.seed)
    g = load_edge_list(args.graph, fmt=args.format)
    dataset = os.path.splitext(os.path.basename(args.graph))[0]
    # before training, so an --out that cannot be a directory fails at once
    os.makedirs(args.out, exist_ok=True)
    model, report = train(args.task, g, cfg, dataset=dataset)
    ckpt = os.path.join(args.out, f"{dataset}_{args.task}_seed{args.seed}.ckpt")
    checkpoint.save_arrays(ckpt, model.parameter_arrays())
    report_path = os.path.join(args.out, "reports.jsonl")
    with open(report_path, "a", encoding="utf-8") as f:
        f.write(report.to_json_line() + "\n")
    csv_path = os.path.join(args.out, "reports.csv")
    write_header = not os.path.exists(csv_path)
    with open(csv_path, "a", encoding="utf-8") as f:
        if write_header:
            f.write(csv_row(EvalReport.CSV_HEADER) + "\n")
        f.write(report.to_csv_row() + "\n")
    mae = "-" if report.mae is None else f"{report.mae:.4f}"
    print(f"{args.task} {dataset} seed={args.seed}: "
          f"auc={report.roc_auc:.4f} f1={report.f1:.4f} mae={mae} "
          f"epochs={report.epochs_run} wall={report.wall_s:.1f}s")
    print(f"checkpoint: {ckpt}")
    return 0


# paper table -> (task, datasets in row order)
TABLES = {
    "2": ("sign", ["bitcoin-alpha", "bitcoin-otc", "epinions"]),
    "3": ("weight", ["advogato", "bitcoin-alpha", "bitcoin-otc"]),
    "4": ("signed-weight", ["bitcoin-alpha", "bitcoin-otc"]),
}


def cmd_reproduce(args):
    task, datasets = TABLES[args.table]
    paths = [os.path.join(args.data, f"{ds}.tsv") for ds in datasets]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise FileNotFoundError(f"missing ingested datasets {', '.join(missing)}; "
                                "run `wsgat ingest <raw file> --out <data dir>` first")
    cfg = parse_config(args.config)
    # before training, so an --out that cannot be a directory fails at once
    os.makedirs(args.out, exist_ok=True)
    rows = ["dataset,auc_mean,auc_std,f1_mean,f1_std,mae_mean,mae_std"]
    for ds, path in zip(datasets, paths):
        g = load_edge_list(path)
        reports = [train(task, g, dataclasses.replace(cfg, seed=seed), dataset=ds)[1]
                   for seed in range(args.seeds)]
        columns = ([r.roc_auc for r in reports], [r.f1 for r in reports],
                   [r.mae for r in reports if r.mae is not None])
        # the sign table has no MAE: its column is empty and reads nan,nan
        rows.append(ds + "".join(f",{np.mean(c):.4f},{np.std(c):.4f}" if c else ",nan,nan"
                                 for c in columns))
    # written before anything is printed, so a closed stdout cannot lose the table
    out_path = os.path.join(args.out, f"table{args.table}.csv")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")
    print("\n".join(rows[1:]))
    print(f"wrote {out_path}")
    return 0


def cmd_verify(args):
    failures = verify_mod.SUITES[args.suite]()
    if failures:
        for module, prop, observed in failures:
            print(f"FAIL {module}: {prop} (observed {observed})")
        return 7
    print(f"verify {args.suite}: all properties pass")
    return 0


def _int_at_least(low):
    """argparse type: an int >= low, else a usage error (exit 2)."""
    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


def build_parser():
    p = argparse.ArgumentParser(prog="wsgat",
                                description="Signed/weighted graph attention link prediction")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("ingest", help="parse a raw edge list into canonical tsv3")
    pi.add_argument("source", help="raw edge list file")
    pi.add_argument("--format", choices=FORMATS, default=None,
                    help="default: csv4 for a .csv file, else tsv3")
    pi.add_argument("--name", default=None, help="output dataset name")
    pi.add_argument("--symmetrize", action="store_true", help="emit both arcs per input line")
    pi.add_argument("--out", default="data")
    pi.set_defaults(fn=cmd_ingest)

    pt = sub.add_parser("train", help="train one task on one graph")
    pt.add_argument("task", choices=list(TASKS))
    pt.add_argument("graph", help="graph file")
    pt.add_argument("--format", choices=FORMATS, default=None,
                    help="default: csv4 for a .csv file, else tsv3")
    pt.add_argument("--config", default=None, help="flat key = value config file")
    pt.add_argument("--seed", type=_int_at_least(0), default=0)
    pt.add_argument("--out", default="runs")
    pt.set_defaults(fn=cmd_train)

    pr = sub.add_parser("reproduce", help="mean/std over seeds per dataset, table layout")
    pr.add_argument("table", choices=list(TABLES))
    pr.add_argument("--data", default="data", help="directory with ingested tsv files")
    pr.add_argument("--seeds", type=_int_at_least(1), default=5)
    pr.add_argument("--config", default=None)
    pr.add_argument("--out", default="runs")
    pr.set_defaults(fn=cmd_reproduce)

    pv = sub.add_parser("verify", help="run built-in invariant suites")
    pv.add_argument("suite", choices=list(verify_mod.SUITES))
    pv.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe must raise here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the Python-docs idiom: later flushes go to devnull, so the final one
        # at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except tuple(EXIT_CODES) as e:
        what = "out of memory: " if isinstance(e, MemoryError) else ""
        print(f"error: {what}{e}", file=sys.stderr)
        return next(code for klass, code in EXIT_CODES.items() if isinstance(e, klass))


if __name__ == "__main__":
    sys.exit(main())
