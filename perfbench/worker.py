"""Run one workload's repetitions in this process and print one JSON line.

Started by run.py in a fresh process per workload, so that ``ru_maxrss``
belongs to the workload alone. Each repetition does what ``wsgat train`` does,
``load_edge_list`` -> ``pipelines.train`` (which ends in ``evaluate``), then a
checkpoint round trip and the correctness checks, which are never timed. With
``--traced`` it runs one repetition under ``probes.Tracer``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict

import numpy as np

import probes
from wsgat import checkpoint, graph, pipelines, spectral
from wsgat.pipelines import TaskModel, TrainConfig

EVAL_SAMPLES = 3   # evaluate calls and checkpoint round trips per repetition
SETUP_SAMPLES = 3  # set-up-only passes per untraced repetition, besides its training run's


def pair_keys(pairs, n):
    pairs = np.asarray(pairs)[:, :2].astype(np.int64)
    return pairs[:, 0] * n + pairs[:, 1]


def hygiene_errors(g, split):
    """Split hygiene, checked without ``assert``: a list of violated conditions."""
    n = g.num_nodes
    tg = split.train_graph
    edges = pair_keys(np.column_stack([g.src, g.dst]), n)
    train = pair_keys(np.column_stack([tg.src, tg.dst]), n)
    negatives = np.vstack([split.train_neg, split.test_neg])
    errors = []
    if np.isin(pair_keys(split.test_pos, n), train).any():
        errors.append("test positives leaked into training edges")
    if np.isin(pair_keys(negatives, n), edges).any():
        errors.append("a negative pair is an edge")
    if (negatives[:, 0] == negatives[:, 1]).any():
        errors.append("a negative pair is a self pair")
    if tg.num_edges + len(split.test_pos) != g.num_edges:
        errors.append("train and test positives do not partition the edges")
    if len(split.train_neg) != tg.num_edges or len(split.test_neg) != len(split.test_pos):
        errors.append("negative counts do not match positive counts")
    return errors


def attention_errors(model):
    """Coefficients of every layer and head lie in [-1, 1], |alpha| sums to 1 per node."""
    g, h, errors = model.graph, model.X, []
    for i, lay in enumerate(model.stack.layers):
        _, dst, _ = lay.edge_arrays(g)
        for k in range(lay.heads):
            alpha = lay.attention_coefficients(k, lay.attention_logits(k, h, g), g).values
            mass = np.bincount(dst, weights=np.abs(alpha), minlength=g.num_nodes)
            if np.abs(alpha).max() > 1.0 or not np.allclose(mass, 1.0, rtol=0, atol=1e-9):
                errors.append(f"gnn{i} head {k}: attention coefficients out of range")
        h = lay.forward(h, g)
    return errors


def comparable(report, history):
    """The deterministic part of a run: the report without wall time, and the losses."""
    d = asdict(report)
    d.pop("wall_s")
    return {"report": d, "history": [float(x) for x in history]}


def setup_only(args, cfg, clock):
    """``load_edge_list`` and ``train`` up to the end of its set-up: the seconds taken."""
    clock.reset()
    t0 = time.perf_counter()
    with clock.stop_after_setup():
        pipelines.train(args.task, graph.load_edge_list(args.tsv), cfg, dataset=args.dataset)
    return clock.setup_end - t0


def train_rep(args, cfg, clock, ckpt, quiet, fresh):
    setups = [] if args.traced else [setup_only(args, cfg, clock) for _ in range(SETUP_SAMPLES)]
    clock.reset()
    t0 = time.perf_counter()
    g = graph.load_edge_list(args.tsv)
    model, report = pipelines.train(args.task, g, cfg, dataset=args.dataset)
    t1 = time.perf_counter()
    split = clock.split
    rep = {
        "setup_s": setups + [clock.setup_end - t0],
        "run_s": t1 - clock.setup_end,
        "eval_s": [clock.eval_s],
        "reload_eval_s": [],
        "epoch_s_p50": np.diff(clock.epoch_ends).tolist(),
        "test_auc": report.roc_auc,
        "test_f1": report.f1,
        "test_mae": report.mae,
        "final_train_loss": report.history[-1],
        "result": comparable(report, report.history),
    }
    # The model the checkpoint is loaded into is built untimed, once per process:
    # building it repeats the feature and model set-up that setup_s measures.
    # Per-layer totals cover the training run and checkpoint I/O only: the rest
    # runs quiet() when traced.
    if not fresh:
        t = time.perf_counter()
        with quiet():
            fresh.append(TaskModel(args.task, split.train_graph, cfg))
        rep["untimed_s"] = time.perf_counter() - t
    # evaluate and reload samples alternate, so that both see the same spells
    # of machine noise
    evals, reloads = [], []
    for _ in range(EVAL_SAMPLES):
        t = time.perf_counter()
        with quiet():
            evals.append(pipelines.evaluate(model, split, args.task, dataset=report.dataset,
                                            epochs_run=report.epochs_run, wall_s=report.wall_s))
        rep["eval_s"].append(time.perf_counter() - t)
        t = time.perf_counter()
        checkpoint.save_arrays(ckpt, model.parameter_arrays())
        arrays = checkpoint.load_arrays(ckpt)
        with quiet():
            fresh[0].load_parameter_arrays(arrays)
            reloads.append(pipelines.evaluate(fresh[0], split, args.task,
                                              dataset=report.dataset,
                                              epochs_run=report.epochs_run,
                                              wall_s=report.wall_s))
        rep["reload_eval_s"].append(time.perf_counter() - t)

    with quiet():
        errors = hygiene_errors(g, split) + attention_errors(model)
    if any(e != report for e in evals):
        errors.append("evaluate gives a different EvalReport on the same model")
    if any(e != report for e in reloads):
        errors.append("reloaded checkpoint gives a different EvalReport")
    rep["errors"] = errors
    return rep


def prep_rep(args, cfg, clock, ckpt, quiet, fresh):
    t0 = time.perf_counter()
    g = graph.load_edge_list(args.tsv)
    split = graph.split_edges(graph.normalize_weights(g, "signed_unit"),
                              cfg.train_fraction, cfg.seed)
    spectral.fallback_features(split.train_graph, d=cfg.feature_dim, seed=cfg.seed)
    rep = {"setup_s": time.perf_counter() - t0}
    rep["errors"] = hygiene_errors(g, split)
    return rep


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--tsv", required=True)
    p.add_argument("--task", required=True, help="sign, weight, signed-weight or prep")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", required=True, help="TrainConfig fields as JSON")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    cfg = TrainConfig(**json.loads(args.config))
    ckpt = os.path.join(args.workdir, f"{args.dataset}-seed{cfg.seed}.ckpt")
    one_rep = prep_rep if args.task == "prep" else train_rep

    clock = probes.Clock().install()
    tracer, quiet = None, contextlib.nullcontext
    if args.traced:
        tracer = probes.Tracer().install()
        quiet = tracer.paused
    deadline = time.perf_counter() + args.seconds
    reps, fresh = [], []
    while True:
        started = time.perf_counter()
        try:
            reps.append(one_rep(args, cfg, clock, ckpt, quiet, fresh))
        except Exception:  # the program under test failed: count it, keep the report
            traceback.print_exc()
            reps.append({"errors": [traceback.format_exc(limit=1).strip().splitlines()[-1]]})
            break
        # another repetition as long as the last would still end by the deadline
        now, untimed = time.perf_counter(), reps[-1].get("untimed_s", 0.0)
        deadline += untimed
        if args.traced or now + (now - started - untimed) > deadline:
            break
    out = {"reps": reps, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        out["per_layer"] = tracer.per_layer_metrics()
        with open(os.path.join(args.workdir, f"spans-{args.dataset}-seed{cfg.seed}.json"),
                  "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)
    clock.uninstall()
    if os.path.exists(ckpt):
        os.remove(ckpt)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
