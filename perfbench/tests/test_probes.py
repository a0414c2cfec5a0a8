import pytest

import gen
import names
import probes
import worker
from wsgat import graph, pipelines
from wsgat.graph import SignedWeightedGraph


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("other_root", 11.0, 12.5, -1),
    ]
    assert probes.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.5])


def test_self_times_add_up_to_root_durations():
    spans = [("r", 0.0, 4.0, -1), ("x", 0.5, 1.5, 0), ("y", 0.75, 1.0, 1), ("z", 2.0, 3.5, 0)]
    assert sum(probes.self_times(spans)) == pytest.approx(4.0)


def small_graph(seed=0):
    n, src, dst, w = gen.generate(gen.Shape(80, 600, 0.8), seed)
    return SignedWeightedGraph.from_edges(n, src, dst, w)


def small_config(**kw):
    base = dict(hidden=8, embed=8, attention_hidden=4, head_hidden=8, epochs=3, patience=4,
                seed=1)
    return pipelines.TrainConfig(**{**base, **kw})


def test_tracer_counts_and_restores():
    originals = (pipelines.train, pipelines.evaluate, graph.SignedWeightedGraph.from_edges)
    g = small_graph()
    clock = probes.Clock().install()
    tracer = probes.Tracer().install()
    try:
        _, report = pipelines.train("signed-weight", g, small_config(heads=2))
    finally:
        tracer.uninstall()
        clock.uninstall()
    assert (pipelines.train, pipelines.evaluate,
            graph.SignedWeightedGraph.from_edges) == originals
    m = tracer.per_layer_metrics()
    assert set(m) == set(names.PER_LAYER) - {"trace.overhead_s"}
    # one embedding per train loss, one per validation loss, one in evaluate
    assert m["pipelines.embeddings_calls"] == 2 * 3 + 1
    # edge_arrays: once per layer forward plus once per head
    assert m["layer.edge_arrays_calls"] == (1 + 2) * 2 * m["pipelines.embeddings_calls"]
    heads = {name.rsplit(".", 1)[1] for name, *_ in tracer.spans if "head_fwd" in name}
    assert heads == {"exist_head", "weight_head"} and m["pipelines.head_fwd_s"] > 0
    assert m["autodiff.calls.concat"] > 0 and m["autodiff.out_mb.matmul"] > 0
    assert m["graph.from_edges_calls"] == 2  # normalize_weights and split_edges
    assert len(clock.epoch_ends) == 3 and report.epochs_run == 3
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(m[f"self_s.{lay}"] for lay in names.LAYERS) == pytest.approx(roots)


def test_hygiene_check_flags_a_leaked_negative():
    g = small_graph(1)
    split = graph.split_edges(g, 0.8, seed=2)
    assert worker.hygiene_errors(g, split) == []
    leaked = split.test_neg.copy()
    leaked[0] = (g.src[0], g.dst[0])
    bad = graph.EdgeSplit(split.train_graph, split.test_pos, split.train_neg, leaked, 2)
    assert worker.hygiene_errors(g, bad) == ["a negative pair is an edge"]


def test_attention_check_passes_on_a_trained_model():
    model, _ = pipelines.train("sign", small_graph(2), small_config())
    assert worker.attention_errors(model) == []


def test_stop_after_setup_ends_train_before_the_first_epoch():
    clock = probes.Clock().install()
    try:
        with clock.stop_after_setup():
            pipelines.train("sign", small_graph(3), small_config())
        assert clock.setup_end is not None and clock.epoch_ends == []
        _, report = pipelines.train("sign", small_graph(3), small_config())
    finally:
        clock.uninstall()
    assert len(clock.epoch_ends) == 3 and report.epochs_run == 3
