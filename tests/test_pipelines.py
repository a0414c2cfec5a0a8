import csv
import dataclasses
import functools
import json
import weakref

import numpy as np
import pytest

from wsgat import autodiff as ad, layer, pipelines
from wsgat.errors import ConfigError, DegenerateTaskError
from wsgat.graph import EdgeSplit, SignedWeightedGraph, normalize_weights, split_edges
from wsgat.metrics import roc_auc
from wsgat.pipelines import (TaskModel, TrainConfig, _check_hygiene, _val_slice, evaluate,
                             train)

from wsgat.verify import dense_mlp_reference, random_graph


def tiny_config(**kw):
    base = dict(layers=1, hidden=8, embed=8, heads=1, attention_hidden=8,
                head_hidden=24, feature_dim=6, lr=3e-2, epochs=120, patience=120,
                val_fraction=0.1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_sign_task_rejects_single_sign_graph():
    g = SignedWeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, 2.0])
    with pytest.raises(DegenerateTaskError):
        train("sign", g, tiny_config())


def test_signed_weight_task_rejects_all_positive_graph():
    g = SignedWeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, 2.0])
    with pytest.raises(DegenerateTaskError):
        train("signed-weight", g, tiny_config())


@pytest.mark.parametrize("leak, message", [
    ("test_pos", "test positives leaked into training edges"),
    ("test_neg", "test negatives collide with training edges"),
])
def test_hygiene_check_rejects_a_test_pair_that_is_a_train_edge(leak, message):
    g = random_graph(np.random.default_rng(2), 20, 0.3)
    split = split_edges(g, 0.8, seed=5)
    _check_hygiene(split)
    tg = split.train_graph
    # the train edge that sorts last, so a search past the end must still find it
    last = int(np.argmax(tg.edge_keys()))
    pair = [tg.src[last], tg.dst[last]]
    test_pos, test_neg = split.test_pos.copy(), split.test_neg.copy()
    if leak == "test_pos":
        test_pos[-1, :2] = pair
    else:
        test_neg[0] = pair
    leaked = EdgeSplit(tg, test_pos, split.train_neg, test_neg, split.seed)
    with pytest.raises(RuntimeError, match=message):
        _check_hygiene(leaked)


def test_unknown_task_rejected():
    g = SignedWeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, -2.0])
    with pytest.raises(ValueError, match="unknown task"):
        train("bogus", g, tiny_config())


@pytest.mark.parametrize("bad, message", [
    (dict(val_fraction=1.0), "val_fraction"), (dict(val_fraction=-0.1), "val_fraction"),
    (dict(activation="relu"), "unknown activation"), (dict(features="see"), "unknown feature"),
    (dict(train_fraction=1.0), "train_fraction"), (dict(feature_dim=0), "feature_dim"),
    (dict(seed=-1), "seed")])
def test_config_checks_itself_when_built(bad, message):
    with pytest.raises(ConfigError, match=message):
        TrainConfig(**bad)


@pytest.mark.parametrize("bad, message", [
    (dict(epochs=2.5), "epochs must be int, got 2.5"),
    (dict(hidden=4.5), "hidden must be int, got 4.5"),
    (dict(seed=True), "seed must be int, got True"),
    (dict(projection="no"), "projection must be bool, got 'no'"),
    (dict(projection=1), "projection must be bool, got 1"),
    (dict(lr="0.1"), "lr must be float, got '0.1'"),
    (dict(lambda_weight=False), "lambda_weight must be float, got False"),
    (dict(activation=None), "activation must be str, got None"),
    (dict(features=1), "features must be str, got 1")])
def test_config_checks_types_when_built(bad, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        TrainConfig(**bad)


def test_config_takes_an_int_for_a_float_and_a_json_config():
    cfg = TrainConfig(lr=1, self_loop_weight=-2)
    assert type(cfg.lr) is float
    assert cfg.digest() == TrainConfig(lr=1.0, self_loop_weight=-2.0).digest()
    # the benchmark worker builds its config from JSON like this one
    cfg = TrainConfig(**json.loads('{"lr": 0.003, "epochs": 4, "patience": 5, "seed": 1, '
                                   '"heads": 2, "features": "sse", "projection": false}'))
    assert (cfg.heads, cfg.projection, cfg.features) == (2, False, "sse")


def test_config_is_frozen():
    cfg = TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.epochs = 5
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, epochs=0)


def test_val_slice_without_validation_monitors_train():
    train_idx, val_idx = _val_slice(10, 0.0, np.random.default_rng(0))
    assert sorted(train_idx) == list(range(10))
    assert np.array_equal(val_idx, train_idx)


def watch_sweeps(monkeypatch, check):
    """Call check(model, output) on every graph ad.backward sweeps in a training
    loss: each chunk's and the last one, through the node rows and the GNN."""
    pair_loss, backward, models = pipelines._pair_loss, ad.backward, []

    def watched_pair_loss(model, terms, sweep):
        models.append(model)
        return pair_loss(model, terms, sweep)

    def watched_backward(output):
        check(models[-1], output)
        return backward(output)

    monkeypatch.setattr(pipelines, "_pair_loss", watched_pair_loss)
    monkeypatch.setattr(ad, "backward", watched_backward)


@pytest.mark.parametrize("task", ["sign", "weight", "signed-weight"])
def test_each_loss_graph_is_freed_before_the_next_forward(monkeypatch, task):
    """Each chunk's head graph is freed before the next chunk's head runs, and
    every graph of a loss before the next loss's forward."""
    monkeypatch.setattr(ad, "_CHUNK_ROWS", 5)
    score, embeddings = pipelines.PairHead.__call__, TaskModel.embeddings
    chunks, losses, sweeps = [], [], []

    def watched_score(head, *args):
        assert all(ref() is None for ref in chunks), "an earlier chunk is still alive"
        out = score(head, *args)
        chunks.append(weakref.ref(out))
        return out

    def watched_embeddings(model):
        assert all(ref() is None for ref in chunks + losses), "an earlier loss is still alive"
        emb = embeddings(model)
        losses.append(weakref.ref(emb))
        return emb

    def watched_sweep(model, output):
        losses.append(weakref.ref(output))
        sweeps.append(output.shape)

    monkeypatch.setattr(pipelines.PairHead, "__call__", watched_score)
    monkeypatch.setattr(TaskModel, "embeddings", watched_embeddings)
    watch_sweeps(monkeypatch, watched_sweep)
    train(task, random_graph(np.random.default_rng(4), 12, 0.35), tiny_config(epochs=3))
    assert all(ref() is None for ref in chunks + losses)
    assert len(losses) - len(sweeps) == 7  # a train and a validation loss per epoch, evaluate
    assert len(sweeps) > 3 * 2  # several chunks per train loss, then the last sweep


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("task, head", [
    ("sign", "sign_head"), ("signed-weight", "exist_head"), ("signed-weight", "weight_head")])
def test_heads_match_the_dense_mlp_over_pair_input(task, head, seed):
    model = TaskModel(task, random_graph(np.random.default_rng(seed), 12, 0.35),
                      tiny_config(layers=2, heads=2, seed=seed))
    # every parameter nonzero: biases start at zero, which would hide where they are added
    rng = np.random.default_rng(seed)
    model.load_parameter_arrays({k: v + 0.3 * rng.standard_normal(v.shape)
                                 for k, v in model.parameter_arrays().items()})
    emb = model.embeddings()
    pairs = np.random.default_rng(seed).integers(0, model.graph.num_nodes, (30, 2))
    fused = pipelines._head_values(getattr(model, head), emb, pairs)
    dense = dense_mlp_reference(getattr(model, head), model.pair_input(emb, pairs)).values
    assert np.max(np.abs(fused - dense)) < 1e-12


@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("task", ["sign", "signed-weight"])
def test_no_pair_matrix_in_a_training_loss_graph(monkeypatch, task, fused):
    """No node of a swept graph is a pair-wide input (2*embed columns for a
    head, 2*F+1 for an attention scorer with F-wide input) over more than the
    node rows. With every MLP's pair stage patched to its dense reference over
    the pair matrix (its rows then the node matrix itself) and recompute to a
    plain call, which keeps the scorers' pair stages in the graph, each of
    those widths appears: the check can fail for the heads and for every
    layer's scorer."""
    if not fused:
        def dense(mlp, rows, first, second, extra=None):
            extra = [] if extra is None else [extra]
            return dense_mlp_reference(mlp, ad.concat(
                [ad.take_rows(rows[0], first), ad.take_rows(rows[1], second)] + extra, axis=1))
        monkeypatch.setattr(layer.Mlp, "rows", lambda mlp, H: (H, H))
        monkeypatch.setattr(layer.Mlp, "over_pairs", dense)
        monkeypatch.setattr(pipelines.PairHead, "__call__", dense)
        monkeypatch.setattr(ad, "recompute", lambda fn, *xs: fn(*xs))
    offenders, pair_widths = set(), set()

    def check(model, output):
        pair_widths.update({2 * model.stack.out_width} | {2 * lay.in_width + 1
                                                          for lay in model.stack.layers})
        # none of the other widths in play is a pair width
        assert not pair_widths & {model.X.shape[1], model.config.attention_hidden,
                                  model.config.head_hidden,
                                  model.config.hidden * model.config.heads}
        offenders.update(n.shape[1] for n in ad.topo_order(output) if n.values.ndim == 2
                         and n.shape[1] in pair_widths and n.shape[0] > model.graph.num_nodes)

    watch_sweeps(monkeypatch, check)
    train(task, random_graph(np.random.default_rng(4), 12, 0.35),
          tiny_config(layers=2, heads=2, hidden=3, embed=5, feature_dim=4, attention_hidden=4,
                      head_hidden=7, epochs=1))
    assert len(pair_widths) == 3  # the heads', then layer 0's and layer 1's scorer
    assert offenders == (set() if fused else pair_widths), offenders


@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("task", ["sign", "signed-weight"])
def test_no_message_matrix_in_a_training_loss_graph(monkeypatch, task, fused):
    """No node of a swept graph has one row per edge and self-loop (E + N) and
    a layer's out_width columns, the messages, or attention_hidden columns,
    the attention MLP's hidden layer: each head's edge-wide arrays live inside
    recompute nodes, also with the three-op chain that propagate replaces
    patched in (fused False). With recompute patched to a plain call, the
    hidden layers are kept, and with the chain the messages too: the check
    can fail."""
    if not fused:
        monkeypatch.setattr(ad, "propagate", lambda z, alpha, src, dst, n: ad.segment_sum(
            ad.scale_rows(ad.take_rows(z, src), alpha), dst, n))
    config = tiny_config(layers=2, heads=2, hidden=3, embed=5, attention_hidden=4,
                         head_hidden=7, epochs=1)
    out_widths = {3, 5}  # the layers' out_width: hidden, then embed
    hidden = {config.attention_hidden}

    def kept_widths(patch):
        widths = set()

        def check(model, output):
            edge_rows = model.graph.num_edges + model.graph.num_nodes
            assert {lay.out_width for lay in model.stack.layers} == out_widths
            widths.update(n.shape[1] for n in ad.topo_order(output) if n.values.ndim == 2
                          and n.shape[0] == edge_rows and n.shape[1] in out_widths | hidden)

        watch_sweeps(patch, check)
        train(task, random_graph(np.random.default_rng(4), 12, 0.35), config)
        return widths

    with monkeypatch.context() as plain:
        plain.setattr(ad, "recompute", lambda fn, *xs: fn(*xs))
        assert kept_widths(plain) == (hidden if fused else hidden | out_widths)
    assert kept_widths(monkeypatch) == set()


@pytest.mark.parametrize("task", ["sign", "weight", "signed-weight"])
def test_no_head_activation_wider_than_a_chunk_in_a_swept_graph(monkeypatch, task):
    """With chunks of 4 pairs, no head_hidden-wide activation of a swept graph
    has more than 4 rows, apart from the node rows each head computes once.
    The first layer's weight blocks are embed = 3 rows high."""
    monkeypatch.setattr(ad, "_CHUNK_ROWS", 4)
    offenders = []

    def check(model, output):
        hidden = model.config.head_hidden
        assert hidden not in {model.X.shape[1], model.config.attention_hidden,
                              model.config.embed, model.config.hidden * model.config.heads}
        offenders.extend(n.shape for n in ad.topo_order(output) if n.parents
                         and n.values.ndim == 2 and n.shape[1] == hidden
                         and 4 < n.shape[0] != model.graph.num_nodes)

    watch_sweeps(monkeypatch, check)
    train(task, random_graph(np.random.default_rng(4), 12, 0.35),
          tiny_config(layers=2, heads=2, hidden=3, embed=3, feature_dim=4, attention_hidden=4,
                      head_hidden=7, epochs=1))
    assert not offenders, offenders


@pytest.mark.parametrize("task", ["sign", "weight", "signed-weight"])
def test_a_swept_chunk_keeps_one_hidden_array_per_head_layer(monkeypatch, task):
    """A chunk's graph holds exactly head_layers - 1 arrays of its pairs by
    head_hidden: each hidden layer's tanh is applied inside the layer's
    gather_sum or linear node. The last sweep, through the node rows and the
    GNN, holds no array of one row per edge and self-loop wider than a
    head's logits; with recompute patched to a plain call it holds each
    head's attention_hidden-wide gather_sum, so that check can fail."""
    monkeypatch.setattr(ad, "_CHUNK_ROWS", 4)

    def sweeps(patch):
        chunks, last = [], []

        def check(model, output):
            nodes = ad.topo_order(output)
            if any(n is model.X for n in nodes):  # the last sweep
                edge_rows = model.graph.num_edges + model.graph.num_nodes
                last.append(sorted(n.op for n in nodes if n.values.ndim == 2
                                   and n.shape[0] == edge_rows and n.shape[1] > 1))
                return
            pairs = next(n.shape[0] for n in nodes if n.op == "gather_sum")
            assert pairs <= 4
            chunks.append(sorted(n.op for n in nodes
                                 if n.shape == (pairs, model.config.head_hidden)))

        watch_sweeps(patch, check)
        train(task, random_graph(np.random.default_rng(4), 12, 0.35),
              tiny_config(heads=2, embed=3, feature_dim=4, attention_hidden=4, head_hidden=7,
                          head_layers=4, epochs=1))
        return chunks, last

    with monkeypatch.context() as plain:
        plain.setattr(ad, "recompute", lambda fn, *xs: fn(*xs))
        assert sweeps(plain)[1] == [["gather_sum", "gather_sum"]]
    chunks, last = sweeps(monkeypatch)
    assert len(chunks) > 3
    assert all(ops == ["gather_sum", "linear", "linear"] for ops in chunks), chunks
    assert last == [[]]


@pytest.mark.parametrize("task", ["sign", "signed-weight"])
def test_a_chunk_frees_its_activations_as_its_sweep_passes_them(monkeypatch, task):
    """When a head chunk's first-layer gather_sum runs its backward, the
    array of the second layer's output is already unreachable: the sweep lets
    go of each node it has passed. With every node of each swept graph held
    in a list, it is still alive there, so the check can fail."""
    monkeypatch.setattr(ad, "_CHUNK_ROWS", 4)
    score = pipelines.PairHead.__call__

    def freed(patch, keep):
        dead, kept = [], []

        def watched_score(head, *args):
            out = score(head, *args)
            second = out.parents[0]
            first = second.parents[0]
            assert (first.op, second.op) == ("gather_sum", "linear")
            ref, backward = weakref.ref(second.values), first._backward

            def watched_backward(g):
                dead.append(ref() is None)
                backward(g)

            first._backward = watched_backward
            return out

        patch.setattr(pipelines.PairHead, "__call__", watched_score)
        watch_sweeps(patch, lambda model, output:
                     kept.extend(ad.topo_order(output) if keep else ()))
        train(task, random_graph(np.random.default_rng(4), 12, 0.35), tiny_config(epochs=1))
        return dead

    with monkeypatch.context() as keep:
        assert set(freed(keep, True)) == {False}
    dead = freed(monkeypatch, False)
    assert len(dead) > 3 and set(dead) == {True}


@pytest.mark.parametrize("task", ["sign", "signed-weight"])
def test_every_head_row_is_freed_before_the_first_layer_backward(monkeypatch, task):
    """When the first wsGAT layer's backward runs, at the end of a training
    loss's last sweep, every head's node rows, each Tensor and its array, are
    unreachable: the sweep lets go of each row once it has passed its gradient
    on, and the loss keeps no list of them or of their leaf copies."""
    rows, forward = pipelines.PairHead.rows, layer.WsGatLayer.forward
    refs, alive = [], []

    def watched_rows(head, H):
        out = rows(head, H)
        refs.extend(weakref.ref(x) for r in out for x in (r, r.values))
        return out

    def watched_forward(lay, H, g):
        out = forward(lay, H, g)
        if not H.requires_grad:  # the first layer, whose input is the features
            backward = out._backward

            def watched_backward(grad):
                alive.append((len(refs), sum(ref() is not None for ref in refs)))
                backward(grad)

            out._backward = watched_backward
        return out

    monkeypatch.setattr(pipelines.PairHead, "rows", watched_rows)
    monkeypatch.setattr(layer.WsGatLayer, "forward", watched_forward)
    train(task, random_graph(np.random.default_rng(4), 12, 0.35), tiny_config(layers=2, epochs=1))
    # two rows per head, one head for sign and two for signed-weight
    assert alive == [(4 if task == "sign" else 8, 0)]


@pytest.mark.parametrize("task", ["sign", "weight", "signed-weight"])
def test_last_sweep_keeps_no_node_rows_by_head_hidden_but_the_heads_rows(monkeypatch, task):
    """The last sweep of a training loss, through the node rows and the GNN,
    holds no node of one row per node and head_hidden columns but the heads'
    own Mlp.rows nodes: the gradients the leaves gathered reach the rows
    through one relay node, with no product of each row and its gradient."""
    rows, head_rows, last = pipelines.PairHead.rows, [], []

    def watched_rows(head, H):
        out = rows(head, H)
        head_rows.extend(out)
        return out

    def check(model, output):
        nodes = ad.topo_order(output)
        if any(n is model.X for n in nodes):  # the last sweep
            shape = (model.graph.num_nodes, model.config.head_hidden)
            last.append(([n.op for n in nodes if n.shape == shape
                          and not any(n is r for r in head_rows)],
                         sum(any(n is r for r in head_rows) for n in nodes)))

    monkeypatch.setattr(pipelines.PairHead, "rows", watched_rows)
    watch_sweeps(monkeypatch, check)
    train(task, random_graph(np.random.default_rng(4), 12, 0.35),
          tiny_config(heads=2, embed=3, feature_dim=4, attention_hidden=4, head_hidden=7,
                      epochs=2))
    rows_per_loss = 2 if task == "sign" else 4  # two per head
    assert last == [([], rows_per_loss)] * 2, last


@pytest.mark.parametrize("projection", [True, False])
def test_one_epoch_changes_every_gnn_parameter(monkeypatch, projection):
    """Layer 0's input X needs no gradient, but its parameters do, and so do
    those of every later layer: one step moves each of them."""
    loop, before = pipelines._train_loop, {}

    def watched_loop(model, *args):
        before.update(model.parameter_arrays())
        return loop(model, *args)

    monkeypatch.setattr(pipelines, "_train_loop", watched_loop)
    model, _ = train("sign", random_graph(np.random.default_rng(4), 12, 0.35),
                     tiny_config(layers=2, heads=2, projection=projection, epochs=1))
    after = model.parameter_arrays()
    gnn = [k for k in after if k.startswith(("gnn0.", "gnn1."))]
    assert len(gnn) == 2 * 2 * (5 if projection else 4)  # layers x heads x (w0..b1, w_out)
    assert [k for k in gnn if np.array_equal(after[k], before[k])] == []


def loss_and_gradients(monkeypatch, task, chunk_rows):
    """The train-batch loss, its parameter gradients and the validation loss of
    a fresh two-head model on a toy graph: through _pair_loss with
    autodiff._CHUNK_ROWS = chunk_rows, and through one graph over every pair."""
    captured = []

    class Captured(Exception):
        pass

    def capture(model, train_terms, val_terms, config):
        captured.append((model, train_terms, val_terms))
        raise Captured

    monkeypatch.setattr(pipelines, "_train_loop", capture)
    with pytest.raises(Captured):
        train(task, random_graph(np.random.default_rng(4), 12, 0.35),
              tiny_config(layers=2, heads=2, head_hidden=9))
    model, train_terms, val_terms = captured[0]
    monkeypatch.setattr(ad, "_CHUNK_ROWS", chunk_rows)
    loss = pipelines._pair_loss(model, train_terms, sweep=True)
    chunked = (loss, [p.grad for p in model.tape.params.values()],
               pipelines._pair_loss(model, val_terms, sweep=False))

    def one_graph(terms):
        emb = model.embeddings()
        return functools.reduce(ad.add, [
            ad.mul(loss(head(head.rows(emb), pairs[:, 0], pairs[:, 1]), targets), weight)
            for head, pairs, targets, loss, weight in terms])

    model.tape.reset()
    loss = one_graph(train_terms)
    ad.backward(loss)
    whole = (float(loss.values), [p.grad for p in model.tape.params.values()],
             float(one_graph(val_terms).values))
    return chunked, whole, len(train_terms[0][1])


@pytest.mark.parametrize("task", ["sign", "weight", "signed-weight"])
def test_chunked_loss_matches_one_graph_over_all_pairs(monkeypatch, task):
    (loss, grads, val), (ref_loss, ref_grads, ref_val), n = loss_and_gradients(
        monkeypatch, task, 5)
    assert n > 5 * 3  # several chunks
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    assert val == pytest.approx(ref_val, rel=1e-12, abs=0)
    assert len(grads) == len(ref_grads) and all(g is not None for g in grads)
    for got, ref in zip(grads, ref_grads):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("task", ["sign", "weight", "signed-weight"])
def test_one_chunk_loss_is_bit_equal_to_one_graph(monkeypatch, task):
    (loss, grads, val), (ref_loss, ref_grads, ref_val), n = loss_and_gradients(
        monkeypatch, task, 16384)
    assert n <= 16384
    assert (loss, val) == (ref_loss, ref_val)
    assert all(np.array_equal(got, ref) for got, ref in zip(grads, ref_grads))


@pytest.mark.parametrize("task, heads", [("sign", 1), ("weight", 2), ("signed-weight", 2)])
def test_chunked_evaluate_matches_one_chunk_and_computes_rows_once(monkeypatch, task, heads):
    """evaluate over chunks of 5 pairs gives the one-chunk report, and computes
    each head's node rows once however many chunks it scores."""
    splits, calls, rows = [], [], pipelines.PairHead.rows

    def watched_evaluate(model, split, *args, **kw):
        splits.append(split)
        return evaluate(model, split, *args, **kw)

    def watched_rows(head, H):
        calls.append(head)
        return rows(head, H)

    monkeypatch.setattr(pipelines, "evaluate", watched_evaluate)
    model, _ = train(task, random_graph(np.random.default_rng(4), 14, 0.35),
                     tiny_config(epochs=5))
    split = splits[0]
    monkeypatch.setattr(pipelines.PairHead, "rows", watched_rows)
    whole = evaluate(model, split, task)
    assert len(calls) == heads
    monkeypatch.setattr(ad, "_CHUNK_ROWS", 5)
    assert len(split.test_pos) > 5  # several chunks of every head
    assert evaluate(model, split, task) == whole
    assert len(calls) == 2 * heads


def test_sign_overfit_on_balanced_toy():
    # overfit sanity oracle: training AUC on the fitted model's own edges
    g = random_graph(np.random.default_rng(21), 14, 0.35)
    cfg = tiny_config(features="sse", sse_dim=8, epochs=200, patience=200, val_fraction=0.0, seed=3)
    model, report = train("sign", g, cfg)
    tg = model.graph
    pairs = np.column_stack([tg.src, tg.dst])
    labels = (tg.weight > 0).astype(int)
    logits = pipelines._head_values(model.sign_head, model.embeddings(), pairs)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    assert roc_auc(p[:, 0], labels) >= 0.99


def test_weight_regression_to_constant():
    # all weights 0.7: MAE on train edges must collapse below 0.05
    rng = np.random.default_rng(0)
    src, dst = [], []
    for i in range(12):
        for j in range(12):
            if i != j and rng.random() < 0.4:
                src.append(i)
                dst.append(j)
    g = SignedWeightedGraph.from_edges(12, src, dst, [0.7] * len(src))
    model, report = train("weight", g, tiny_config(epochs=150, patience=150, val_fraction=0.0))
    tg = model.graph
    pairs = np.column_stack([tg.src, tg.dst])
    pred = pipelines._head_values(model.weight_head, model.embeddings(), pairs)[:, 0]
    # unit_abs normalization maps the constant 0.7 to 1.0
    assert np.mean(np.abs(pred - tg.weight)) < 0.05
    assert report.mae is not None


def test_signed_weight_sign_consistency_on_toy():
    g = random_graph(np.random.default_rng(5), 14, 0.35)
    cfg = tiny_config(epochs=250, patience=250, lambda_weight=4.0, val_fraction=0.0, seed=2)
    model, _ = train("signed-weight", g, cfg)
    tg = model.graph
    pairs = np.column_stack([tg.src, tg.dst])
    pred = pipelines._head_values(model.weight_head, model.embeddings(), pairs)[:, 0]
    agree = np.mean(np.sign(pred) == np.sign(tg.weight))
    assert agree >= 0.90


def test_determinism_bitwise():
    g = random_graph(np.random.default_rng(9), 12, 0.35)
    cfg = tiny_config(epochs=20, seed=7)
    _, r1 = train("signed-weight", g, cfg)
    _, r2 = train("signed-weight", g, tiny_config(epochs=20, seed=7))
    assert r1.roc_auc == r2.roc_auc
    assert r1.f1 == r2.f1
    assert r1.mae == r2.mae
    assert r1.config_digest == r2.config_digest


def test_failed_parameter_load_names_the_parameter_and_changes_nothing():
    model = TaskModel("sign", random_graph(np.random.default_rng(9), 12, 0.35), tiny_config())
    before = model.parameter_arrays()
    names = list(model.tape.params)  # insertion order: a name late in it
    shifted = {k: v + 1.0 for k, v in before.items()}

    dropped = dict(shifted)
    del dropped[names[-1]]
    with pytest.raises(ValueError, match=f"parameter '{names[-1]}' is missing"):
        model.load_parameter_arrays(dropped)

    name = next(k for k in reversed(names) if before[k].ndim == 2
                and before[k].shape[0] != before[k].shape[1])
    transposed = dict(shifted, **{name: shifted[name].T})
    rows, cols = before[name].shape
    with pytest.raises(ValueError, match=rf"'{name}' has shape \({cols}, {rows}\), "
                                         rf"the model expects \({rows}, {cols}\)"):
        model.load_parameter_arrays(transposed)

    # a two-layer model's arrays: the shared names have the same shapes, and
    # the gnn1.* arrays must not be silently ignored
    deeper = TaskModel("sign", random_graph(np.random.default_rng(9), 12, 0.35),
                       tiny_config(layers=2)).parameter_arrays()
    with pytest.raises(ValueError, match=r"parameter 'gnn1\.h0\.[\w.]+' is not in the model"):
        model.load_parameter_arrays(deeper)

    after = model.parameter_arrays()
    assert all(np.array_equal(after[k], before[k]) for k in before)
    model.load_parameter_arrays(shifted)
    assert all(np.array_equal(model.tape.params[k].values, shifted[k]) for k in before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_parameter_load_rejects_a_non_finite_value_and_changes_nothing(bad):
    model = TaskModel("weight", random_graph(np.random.default_rng(9), 12, 0.35), tiny_config())
    before = model.parameter_arrays()
    # the last array checked: a load that set arrays as it checked them would set all the others
    name = list(model.tape.params)[-1]
    arrays = {k: v + 1.0 for k, v in before.items()}
    arrays[name].flat[0] = bad
    with pytest.raises(ValueError, match=f"parameter '{name}' holds NaN or inf"):
        model.load_parameter_arrays(arrays)
    after = model.parameter_arrays()
    assert all(np.array_equal(after[k], before[k]) for k in before)


def test_early_stopping_restores_the_parameters_of_the_best_validation_loss(monkeypatch):
    """Training ends at the third epoch in a row whose validation loss is not
    below the best so far by more than 1e-12, and keeps the parameters that
    gave the best one."""
    pair_loss, val_losses, params = pipelines._pair_loss, [], []

    def watched_pair_loss(model, terms, sweep):
        loss = pair_loss(model, terms, sweep)
        if not sweep:  # an epoch's validation loss, after its step
            val_losses.append(loss)
            params.append(model.parameter_arrays())
        return loss

    monkeypatch.setattr(pipelines, "_pair_loss", watched_pair_loss)
    model, report = train("sign", random_graph(np.random.default_rng(4), 12, 0.35),
                          tiny_config(lr=0.05, epochs=60, patience=3))
    assert report.epochs_run == len(val_losses) < 60
    best, bad = 0, 0
    for epoch in range(1, len(val_losses)):
        if val_losses[epoch] < val_losses[best] - 1e-12:
            best, bad = epoch, 0
        else:
            bad += 1
        assert (bad == 3) == (epoch == len(val_losses) - 1)
    final = model.parameter_arrays()
    assert final.keys() == params[best].keys()
    assert all(np.array_equal(final[k], params[best][k]) for k in final)
    assert not all(np.array_equal(final[k], params[-1][k]) for k in final)


@pytest.mark.parametrize("task", ["sign", "signed-weight"])
def test_a_swept_loss_gives_the_same_gradients_over_stale_ones(monkeypatch, task):
    """Gradients left on every parameter, as by an earlier loss with no step
    between, do not reach those a swept _pair_loss gives."""
    monkeypatch.setattr(ad, "_CHUNK_ROWS", 5)
    _, (model, train_terms, _) = captured_term_lists(monkeypatch, task, 0.1)
    params = model.tape.params.values()
    pipelines._pair_loss(model, train_terms, sweep=True)
    clean = [p.grad for p in params]
    model.tape.reset()
    for p in params:
        p.grad = np.ones_like(p.values)
    pipelines._pair_loss(model, train_terms, sweep=True)
    assert all(np.array_equal(p.grad, g) for p, g in zip(params, clean))


def test_loss_monotonicity():
    g = random_graph(np.random.default_rng(2), 12, 0.35)
    _, report = train("weight", g, tiny_config(epochs=25, patience=25))
    assert report.history[19] < report.history[0]


def test_training_batches_balanced():
    g = random_graph(np.random.default_rng(3), 15, 0.3)
    split = split_edges(normalize_weights(g, "unit_abs"), 0.8, seed=0)
    assert len(split.train_neg) == split.train_graph.num_edges
    assert len(split.test_neg) == len(split.test_pos)


def captured_term_lists(monkeypatch, task, val_fraction):
    """The split, and the model and the train and validation term lists that
    train hands to _train_loop, for ``task`` on a toy graph."""
    splits, captured = [], []

    def watched_split(*args):
        splits.append(split_edges(*args))
        return splits[-1]

    monkeypatch.setattr(pipelines, "split_edges", watched_split)
    monkeypatch.setattr(pipelines, "_train_loop",
                        lambda *args: captured.append(args[:3]) or [])
    train(task, random_graph(np.random.default_rng(4), 12, 0.35),
          tiny_config(val_fraction=val_fraction))
    return splits[0], captured[0]


def sorted_rows(*arrays):
    rows = np.vstack(arrays)
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("task", ["sign", "weight", "signed-weight"])
@pytest.mark.parametrize("val_fraction", [0.1, 0.0])
def test_term_lists_hold_the_train_pairs_and_their_targets(monkeypatch, task, val_fraction):
    split, (model, train_terms, val_terms) = captured_term_lists(monkeypatch, task,
                                                                 val_fraction)
    tg = split.train_graph
    weight_of = {(s, d): w for s, d, w in zip(tg.src.tolist(), tg.dst.tolist(),
                                              tg.weight.tolist())}
    positives = np.column_stack([tg.src, tg.dst])
    heads = ["sign_head"] if task == "sign" else ["exist_head", "weight_head"]
    assert (val_terms is train_terms) == (val_fraction == 0)
    for terms in (train_terms, val_terms):
        assert [head for head, *_ in terms] == [getattr(model, name) for name in heads]
        for (head, pairs, targets, loss, weight), name in zip(terms, heads):
            assert loss is {"sign_head": pipelines.cross_entropy,
                            "exist_head": pipelines.bce_with_logits,
                            "weight_head": pipelines.mse}[name]
            assert len(targets) == len(pairs) and pairs.dtype == np.int64
            edge_w = [weight_of.get((s, d)) for s, d in pairs.tolist()]
            if name == "sign_head":
                assert targets.tolist() == [2 if w is None else int(w < 0) for w in edge_w]
            elif name == "exist_head":
                assert targets.tolist() == [float(w is not None) for w in edge_w]
            else:
                assert None not in edge_w and targets.tolist() == edge_w
    # each term's train and validation pairs are its train pairs, once each
    for i, name in enumerate(heads):
        everything = (positives,) if name == "weight_head" else (positives, split.train_neg)
        val = [] if val_terms is train_terms else [val_terms[i][1]]
        assert all(len(v) > 0 for v in val)
        assert np.array_equal(sorted_rows(train_terms[i][1], *val), sorted_rows(*everything))


def test_report_serialization_roundtrip():
    import json
    g = random_graph(np.random.default_rng(9), 12, 0.35)
    _, r = train("weight", g, tiny_config(epochs=5, patience=5))
    rec = json.loads(r.to_json_line())
    assert rec["task"] == "weight"
    assert 0.0 <= rec["auc"] <= 1.0
    assert 0.0 <= rec["f1"] <= 1.0
    assert rec["mae"] >= 0.0
    assert r.to_csv_row() == (f"weight,{r.dataset},{r.seed},{r.roc_auc:.6f},{r.f1:.6f},"
                              f"{r.mae:.6f}")
    # a comma in the dataset name is quoted, not a seventh column
    row = dataclasses.replace(r, dataset="a,b").to_csv_row()
    assert next(csv.reader([row])) == ["weight", "a,b", *r.to_csv_row().split(",")[2:]]


class StubHead:
    """Stands in for a width-1 PairHead in evaluate(): its output on pair
    (s, d) is fn(s, d), whatever the node rows."""

    def __init__(self, fn):
        self.fn = fn

    def rows(self, emb):
        return None

    def __call__(self, rows, first, second):
        return ad.Tensor(np.array([[self.fn(int(s), int(d))] for s, d in zip(first, second)]))


class StubModel:
    """Stands in for TaskModel in evaluate(); the heads' scores are injected functions."""

    class _Cfg:
        def digest(self):
            return "stub"

    def __init__(self, task, exist_fn, weight_fn=None):
        self.task = task
        self.config = self._Cfg()
        self.exist_head = StubHead(exist_fn)
        self.weight_head = StubHead(weight_fn)

    def embeddings(self):
        return None


def make_split():
    g = random_graph(np.random.default_rng(4), 10, 0.4)
    return split_edges(normalize_weights(g, "unit_abs"), 0.8, seed=1)


def test_evaluate_perfect_model():
    split = make_split()
    pos = {(int(s), int(d)) for s, d, _ in split.test_pos}
    truth = {(int(s), int(d)): w for s, d, w in split.test_pos}
    model = StubModel("weight",
                      exist_fn=lambda s, d: 10.0 if (s, d) in pos else -10.0,
                      weight_fn=lambda s, d: truth.get((s, d), 0.0))
    r = evaluate(model, split, "weight")
    assert r.roc_auc == 1.0
    assert r.f1 == 1.0
    assert r.mae == 0.0


def test_evaluate_constant_model_auc_half():
    split = make_split()
    model = StubModel("weight", exist_fn=lambda s, d: 0.0, weight_fn=lambda s, d: 0.0)
    r = evaluate(model, split, "weight")
    assert r.roc_auc == 0.5


def test_evaluate_task_mismatch():
    split = make_split()
    model = StubModel("weight", exist_fn=lambda s, d: 0.0, weight_fn=lambda s, d: 0.0)
    with pytest.raises(ValueError):
        evaluate(model, split, "sign")


def test_evaluate_hand_built_six_examples():
    # 3 test positives, 3 test negatives with hand-chosen scores; AUC from
    # pairwise counting: pos scores [.9,.6,.2], neg [.8,.3,.1] -> 6/9 wins
    g = SignedWeightedGraph.from_edges(
        6, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 0, 2, 4, 1],
        [1, 2, 3, 4, 5, 2, 3, 4, 5, 0, 1, 3, 5, 2, 5],
        [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.4, 0.6, 0.7, 0.8],
    )
    split = split_edges(g, 0.8, seed=2)
    # overwrite to exactly 3 pos / 3 neg
    split = type(split)(split.train_graph, split.test_pos[:3], split.train_neg,
                        split.test_neg[:3], split.seed)
    scores = [0.9, 0.6, 0.2, 0.8, 0.3, 0.1]
    table = {}
    for (s, d, _), sc in zip(split.test_pos, scores[:3]):
        table[(int(s), int(d))] = sc
    for (s, d), sc in zip(split.test_neg, scores[3:]):
        table[(int(s), int(d))] = sc
    # logits = logit(score) so that sigmoid recovers the intended score
    model = StubModel("weight",
                      exist_fn=lambda s, d: np.log(table[(s, d)] / (1 - table[(s, d)])),
                      weight_fn=lambda s, d: 0.0)
    r = evaluate(model, split, "weight")
    assert r.roc_auc == pytest.approx(6 / 9)
    # threshold 0.5: predicted positive = {.9,.6,.8}, tp=2, fp=1, fn=1
    assert r.f1 == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))
