"""Names and units of every metric the benchmark reports.

A name starts with a letter or digit and uses only letters, digits, ``_``,
``.`` and ``-`` (at most 64 characters); tests/test_names.py checks these lists
and BENCHMARK.json against that rule and against each other.

Every workload reports every per-layer metric. A time that some workload left
at exactly 0 would read the same on every run, so the two feature builders and
the three prediction heads are each reported as one total; the spans file
keeps them apart.
"""

from __future__ import annotations

LAYERS = ("graph", "spectral", "autodiff", "layer", "pipelines", "metrics", "checkpoint")
OPS = ("take_rows", "concat", "matmul", "segment_sum", "scale_rows", "segment_signed_softmax")
HEADS = ("sign_head", "exist_head", "weight_head")

END_TO_END = {
    "setup_s": "s", "epoch_s_p50": "s", "run_s": "s", "eval_s": "s", "reload_eval_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with every run but not metrics: after the few epochs a run can afford
# they vary across seeds far more than any bound (see README.md).
QUALITY = ("test_auc", "test_f1", "test_mae", "final_train_loss")

PER_LAYER = (
    [f"graph.{m}" for m in ("load_edge_list_s", "from_edges_s", "from_edges_calls",
                            "normalize_weights_s", "split_edges_s", "sample_negative_edges_s")]
    + ["spectral.features_s"]
    + [f"autodiff.{kind}.{op}" for op in OPS for kind in ("fwd_s", "bwd_s", "calls", "out_mb")]
    + ["autodiff.backward_s", "autodiff.peak_traced_mb.fwd", "autodiff.peak_traced_mb.bwd",
       "autodiff.check_finite_s", "autodiff.check_finite_calls", "autodiff.adam_s"]
    + ["layer.forward_s.gnn0", "layer.forward_s.gnn1", "layer.attention_logits_s",
       "layer.edge_arrays_calls"]
    + ["pipelines.embeddings_s", "pipelines.embeddings_calls", "pipelines.head_fwd_s",
       "pipelines.pair_input_s", "pipelines.val_s", "metrics.roc_auc_s"]
    + ["checkpoint.save_s", "checkpoint.load_s", "checkpoint.bytes"]
    + [f"self_s.{m}" for m in LAYERS]
    + ["trace.overhead_s"]
)


def unit_of(name):
    """Unit of a per-layer metric, read from its name."""
    if name in END_TO_END:
        return END_TO_END[name]
    for part in name.split("."):
        if part.endswith("_s"):
            return "s"
        if part.endswith("_mb"):
            return "MB"
    return "bytes" if name.endswith(".bytes") else "count"
