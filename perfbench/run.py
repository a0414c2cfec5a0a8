"""wsgat benchmark: synthetic trust graphs through load -> train -> evaluate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; it needs ``src/wsgat``. The graph of a
workload is generated from ``--seed`` (never timed) and written as tsv3 under
``.perfbench_work/``. A fresh worker process then repeats the workload's
training run for about ``--seconds`` (at least once) and reports the median
of each timing's samples.
``--trace 1`` runs one untraced and one traced repetition instead, checks that
both give the same report and loss history, and reports the per-layer metrics
of the traced one. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md for what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import gen
from names import END_TO_END, PER_LAYER, QUALITY, unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
TIME_LIMIT_S = 170  # the whole invocation, generation included
BLAS_THREADS = 1    # two made epochs 5-20% faster but doubled the run-to-run spread
# glibc malloc keeps freed memory instead of returning it to the system, so
# that an epoch does not fault its temporaries in afresh (see README.md)
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(2**62)}


@dataclass(frozen=True)
class Workload:
    shape: str
    task: str          # a pipelines task, or "prep" for preparation only
    epochs: int = 0
    config: dict = field(default_factory=dict)

    def train_config(self, seed):
        # patience > epochs: every run trains exactly `epochs` epochs
        return {"lr": 0.003, "epochs": self.epochs, "patience": self.epochs + 1,
                "seed": seed, **self.config}


WORKLOADS = {
    "epin16-sign": Workload("epin16", "sign", 4),
    "otc-sw-2head": Workload("otc", "signed-weight", 3, {"heads": 2}),
    # not in BENCHMARK.json (see README.md): too unsteady between runs, and
    # no epochs or evaluation, respectively
    "alpha-sign-sse": Workload("alpha", "sign", 5, {"features": "sse"}),
    "epinions-prep": Workload("epinions", "prep"),
}

PREP_METRICS = ("setup_s", "peak_rss_mb")


def environment():
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "malloc": MALLOC_ENV}


def run_worker(name, wl, tsv, seed, seconds, traced, env, deadline):
    threads = str(env["blas_threads"])
    child_env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                     MKL_NUM_THREADS=threads, **env["malloc"],
                     PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--tsv", tsv, "--task", wl.task,
           "--dataset", name, "--config", json.dumps(wl.train_config(seed)),
           "--seconds", str(seconds), "--workdir", WORKDIR] + (["--traced"] if traced else [])
    try:
        proc = subprocess.run(cmd, env=child_env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"reps": [{"errors": ["worker timed out"]}]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"reps": [{"errors": [f"worker exited with code {proc.returncode}"]}]}
    return json.loads(lines[-1])


def samples(reps, key):
    """All samples of one quantity; a repetition holds one sample or a list."""
    out = []
    for r in reps:
        v = r.get(key, [])
        out.extend(v if isinstance(v, list) else [v])
    return out


def failures(reps):
    """Repetitions that raised or failed a check; all must give one result."""
    first = next((r["result"] for r in reps if "result" in r), None)
    return [r for r in reps if r["errors"] or r.get("result", first) != first]


def end_to_end(wl, out):
    """Median of each timing's samples, and peak RSS.

    The first set-up of the process is left out: it also pays one-time
    costs (first touch of the heap, lazily loaded code).
    """
    reps = out["reps"]
    m = {"peak_rss_mb": out.get("peak_rss_mb")}
    lines = [f"  {len(reps)} repetition(s)"]
    for k in [k for k, unit in END_TO_END.items() if unit == "s"]:
        xs = samples(reps, k)
        if k == "setup_s":
            xs = xs[1:] or xs
        m[k] = statistics.median(xs) if xs else None
        if xs:
            lines.append(f"  {k}: {len(xs)} samples, median {m[k]:.4f}: "
                         + " ".join(f"{v:.4f}" for v in xs))
    names = PREP_METRICS if wl.task == "prep" else END_TO_END
    return {k: m[k] for k in names}, lines + quality_lines(reps)


def quality_lines(reps):
    done = next((r for r in reps if "result" in r), None)
    if done is None:
        return []
    return ["  quality: " + " ".join(f"{k}={done[k]!r}" for k in QUALITY if done[k] is not None)]


def run_workload(name, seed, seconds, trace, env):
    deadline = time.monotonic() + TIME_LIMIT_S
    wl = WORKLOADS[name]
    os.makedirs(WORKDIR, exist_ok=True)
    tsv = os.path.join(WORKDIR, f"{name}-seed{seed}.tsv")
    gen.write_tsv(tsv, *gen.generate(gen.SHAPES[wl.shape], seed)[1:])
    try:
        if trace:
            plain = run_worker(name, wl, tsv, seed, 0, False, env, deadline)
            traced = run_worker(name, wl, tsv, seed, 0, True, env, deadline)
            reps = plain["reps"] + traced["reps"]
            metrics = dict(traced.get("per_layer", {}))
            key = "setup_s" if wl.task == "prep" else "run_s"
            both = samples(traced["reps"], key)[:1] + samples(plain["reps"], key)[:1]
            if "per_layer" in traced and len(both) == 2:
                metrics["trace.overhead_s"] = both[0] - both[1]
            lines = [f"  traced and untraced repetitions compared: {len(reps)}",
                     f"  {key} traced, untraced: " + " ".join(f"{v:.4f}" for v in both)]
            lines += quality_lines(reps)
        else:
            out = run_worker(name, wl, tsv, seed, seconds, False, env, deadline)
            reps = out["reps"]
            metrics, lines = end_to_end(wl, out)
    finally:
        os.remove(tsv)
    failed = failures(reps)
    for r in failed:
        lines.append(f"  FAILED: {'; '.join(r['errors']) or 'result differs between runs'}")
    wanted = PER_LAYER if trace else list(metrics)
    complete = all(metrics.get(k) is not None for k in wanted)
    result = {
        "correct": not failed and complete,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)}
                    for k in wanted if metrics.get(k) is not None},
    }
    return result, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wsgat", "__init__.py")):
        print(f"no wsgat sources under {os.path.join(ROOT, 'src')}: "
              "run from the root of a wsgat checkout", file=sys.stderr)
        return 2
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace, env)
        attempted, failed = attempted + result["attempted"], failed + result["failed"]
        print(f"{name} seed={args.seed} trace={args.trace}: attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:g}")
        print("\n".join(lines))
        for k, v in result["metrics"].items():
            print(f"  {k:<32} {v['value']!r} {v['unit']}")
        if args.workload != "all":
            print(json.dumps(result))
    if args.workload == "all":
        print(f"all workloads: attempted={attempted} failed={failed} "
              f"failed_frac={failed / attempted:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
