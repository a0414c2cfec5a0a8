import tracemalloc

import numpy as np
import pytest

import wsgat.autodiff as ad
from wsgat.autodiff import Tensor, Tape
from wsgat.errors import ShapeError
from wsgat.graph import SignedWeightedGraph
from wsgat.layer import ACTIVATIONS, Mlp, WsGatLayer, WsGatStack, pair_features
from wsgat.pipelines import TaskModel, TrainConfig
from wsgat.verify import dense_layer_reference, dense_mlp_reference, random_graph


def make_layer(seed=0, in_width=4, out_width=3, head_merge="concat", **settings):
    """A layer whose settings are the TrainConfig keys ``settings``."""
    return WsGatLayer(Tape(seed=seed), "l", in_width, out_width, TrainConfig(**settings),
                      head_merge)


def test_constant_mlp_gives_constant_logits():
    g = random_graph(np.random.default_rng(0), 5, 0.4)
    layer = make_layer(attention_hidden=1)
    mlp = layer.att[0]
    for w in mlp.weights:
        w.values[:] = 0.0
    mlp.biases[0].values[:] = 0.5
    mlp.biases[1].values[:] = 0.3
    logits = layer.attention_logits(0, Tensor(np.random.default_rng(0).standard_normal((5, 4))), g)
    assert np.allclose(logits.values, np.tanh(0.3))


def test_logit_matches_hand_computation():
    # 2 nodes, one edge, hand-set attention MLP with one hidden unit
    g = SignedWeightedGraph.from_edges(2, [0], [1], [0.5])
    layer = make_layer(in_width=2, attention_hidden=1)
    mlp = layer.att[0]
    w = -np.arange(1, 6, dtype=float)[:, None]  # (2*2+1, 1)
    mlp.weights[0].values[:] = w
    mlp.biases[0].values[:] = 0.1
    mlp.weights[1].values[:] = 2.0
    mlp.biases[1].values[:] = 0.3
    H = np.array([[0.2, -0.3], [0.4, 0.1]])
    logits = layer.attention_logits(0, Tensor(H), g).values
    # edge 0->1: features are (h_dst || h_src || w); self-loops follow the edges
    feats = np.concatenate([H[1], H[0], [0.5]])
    z = feats @ w[:, 0] + 0.1
    assert z < 0  # the hidden unit takes leaky_relu's negative branch
    assert logits[0, 0] == pytest.approx(np.tanh(2.0 * 0.2 * z + 0.3), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_attention_mlp_matches_the_dense_mlp_over_pair_features(seed):
    """The split first layer gives the logits and parameter gradients of the
    MLP over the built (h_dst || h_src || w) matrix, up to summation order."""
    g = random_graph(np.random.default_rng(seed), 8, 0.4)
    layer = make_layer(seed=seed, in_width=3, attention_hidden=5)
    mlp = layer.att[0]
    for b in mlp.biases:  # biases start at zero, which would hide where they are added
        b.values[:] = np.random.default_rng(seed).standard_normal(b.shape)
    H = Tensor(np.random.default_rng(seed + 10).standard_normal((8, 3)))
    src, dst, w = layer.edge_arrays(g)
    fused = layer.attention_logits(0, H, g)
    dense = dense_mlp_reference(mlp, pair_features(H, dst, src, Tensor(w[:, None])))
    assert np.max(np.abs(fused.values - dense.values)) < 1e-12
    grads = []
    for out in (fused, dense):
        ad.backward(ad.sum_(ad.mul(out, dense.values)))
        grads.append([p.grad for p in mlp.weights + mlp.biases])
        for p in mlp.weights + mlp.biases:
            p.grad = None
    for got, ref in zip(*grads):
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def plain_recompute(fn, *inputs):
    return fn(*inputs)


def plain_chunked(prepare, fn, n, *inputs):
    return fn(slice(0, n), *prepare(*inputs))


@pytest.mark.parametrize("heads", [1, 2])
def test_forward_keeps_only_its_input_and_its_output(monkeypatch, heads):
    """The graph a layer's forward leaves is H, one chunked node per head over
    H, its (E+N, 1) logit column, and one recompute node over H and those
    columns: no node with one row per edge and self-loop wider than a logit,
    no head's output, no merge and no activation input. With chunked patched
    to a plain graph each head's (E+N, attention_hidden) gather_sum is kept,
    and with recompute patched to a plain call each head's propagate: the
    check can fail. That graph ends in its merge node, which carries the
    activation: it holds no standalone one."""
    g = random_graph(np.random.default_rng(0), 9, 0.4)
    layer = make_layer(in_width=4, out_width=3, heads=heads, attention_hidden=7)
    H = Tensor(np.random.default_rng(1).standard_normal((9, 4)), requires_grad=True)
    edge_rows = g.num_edges + g.num_nodes
    out = layer.forward(H, g)
    logits = out.parents[1:]
    assert out.op == "recompute" and out.parents[0] is H and len(logits) == heads
    assert all(e.op == "chunked" and e.parents == (H,) and e.shape == (edge_rows, 1)
               for e in logits)
    assert {id(t) for t in ad.topo_order(out)} == {id(H), id(out), *map(id, logits)}
    with monkeypatch.context() as plain:
        plain.setattr(ad, "chunked", plain_chunked)
        ops = [(t.op, t.shape) for t in ad.topo_order(layer.forward(H, g))]
        assert ops.count(("gather_sum", (edge_rows, 7))) == heads
        assert ops.count(("propagate", (9, 3))) == 0
    monkeypatch.setattr(ad, "recompute", plain_recompute)
    ops = [(t.op, t.shape) for t in ad.topo_order(layer.forward(H, g))]
    assert ops.count(("gather_sum", (edge_rows, 7))) == 0
    assert ops.count(("propagate", (9, 3))) == heads
    assert ops[-1] == ("concat", (9, 3 * heads)) and layer.act == "elu"
    assert not {op for op, _ in ops} & set(ad._ACTIVATIONS)
    mean = make_layer(in_width=4, out_width=3, head_merge="mean", heads=heads)
    ops = [t.op for t in ad.topo_order(mean.forward(H, g))]
    assert ops[-1] == "mul" and not set(ops) & set(ad._ACTIVATIONS)


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("projection", [True, False])
@pytest.mark.parametrize("heads,merge", [(1, "concat"), (2, "concat"), (2, "mean")])
def test_a_recomputed_layer_gives_the_bits_of_its_plain_graph(monkeypatch, heads, merge,
                                                               projection, activation):
    """Forward and backward through the layer's one recompute node give the
    output and every parameter's gradient of the same layer with recompute
    patched to a plain call, to the bit. H's gradient sums the same terms,
    the rerun's and each head scorer's: in the plain graph they meet in
    another order, so it is equal to 1e-15 relative, and to the bit with one
    head."""
    g = random_graph(np.random.default_rng(heads), 9, 0.4)
    values = np.random.default_rng(2).standard_normal((9, 4))

    def run():
        tape = Tape(seed=3)
        layer = WsGatLayer(tape, "l", 4, 3, TrainConfig(heads=heads, projection=projection,
                                                        activation=activation,
                                                        attention_hidden=5), merge)
        for p in tape.params.values():  # biases start at zero, which would hide them
            p.values = p.values + np.random.default_rng(4).standard_normal(p.shape)
        H = Tensor(values, requires_grad=True)
        out = layer.forward(H, g)
        # read before backward, which writes an activation's gradient over its output
        values_out = out.values.tobytes()
        ad.backward(ad.sum_(ad.mul(out, np.random.default_rng(5).standard_normal(out.shape))))
        return [values_out] + [(name, p.grad.tobytes())
                               for name, p in tape.params.items()], H.grad

    recomputed, h_grad = run()
    monkeypatch.setattr(ad, "recompute", plain_recompute)
    plain, plain_h_grad = run()
    assert recomputed == plain
    assert np.max(np.abs(h_grad - plain_h_grad)) <= 1e-15 * np.max(np.abs(plain_h_grad))
    if heads == 1:
        assert h_grad.tobytes() == plain_h_grad.tobytes()


@pytest.mark.parametrize("heads", [1, 2])
def test_a_layer_backward_over_many_scorer_chunks_makes_no_edge_by_hidden_array(
        monkeypatch, heads):
    """A layer's backward whose scorers run over many chunks of edges
    allocates no array of (E+N) x attention_hidden floats, not even one at a
    time: each head's scorer holds one chunk's hidden layer and its gradient.
    With the edges in one chunk it does, so the check can fail."""
    g = random_graph(np.random.default_rng(5), 60, 0.3)
    edge_rows, hidden = g.num_edges + g.num_nodes, 64
    scorer_bytes = edge_rows * hidden * 8
    seed = np.random.default_rng(6).standard_normal((60, 3 * heads))

    def backward_peak(chunk_rows):
        monkeypatch.setattr(ad, "_CHUNK_ROWS", chunk_rows)
        layer = make_layer(in_width=4, out_width=3, heads=heads, attention_hidden=hidden)
        H = Tensor(np.random.default_rng(7).standard_normal((60, 4)), requires_grad=True)
        loss = ad.sum_(ad.mul(layer.forward(H, g), seed))
        tracemalloc.start()
        try:
            ad.backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert edge_rows > 16 * 64  # many chunks of 64 edges
    assert backward_peak(64) < scorer_bytes
    assert backward_peak(edge_rows) > scorer_bytes


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("merge", ["concat", "mean"])
def test_a_one_head_layer_gives_the_bits_of_its_activation_of_its_heads_propagate(
        merge, activation):
    """A one-head layer, through either merge, gives the values, H's gradient
    and every parameter's gradient of its activation's standalone op applied
    to its head's propagate output, built here outside the layer, to the bit."""
    g = random_graph(np.random.default_rng(7), 9, 0.4)
    values = np.random.default_rng(2).standard_normal((9, 4))

    def run(forward):
        tape = Tape(seed=3)
        layer = WsGatLayer(tape, "l", 4, 3, TrainConfig(heads=1, activation=activation,
                                                        attention_hidden=5), merge)
        for p in tape.params.values():  # biases start at zero, which would hide them
            p.values = p.values + np.random.default_rng(4).standard_normal(p.shape)
        H = Tensor(values, requires_grad=True)
        out = forward(layer, H)
        values_out = out.values.tobytes()  # backward may write a gradient over it
        ad.backward(ad.sum_(ad.mul(out, np.random.default_rng(5).standard_normal(out.shape))))
        return [values_out, H.grad.tobytes()] + [(name, p.grad.tobytes())
                                                 for name, p in tape.params.items()]

    def by_hand(layer, H):
        src, dst, _ = layer.edge_arrays(g)
        alpha = ad.segment_signed_softmax(ad.squeeze_col(layer.attention_logits(0, H, g)),
                                          dst, g.num_nodes)
        out = ad.propagate(ad.matmul(H, layer.w_out[0]), alpha, src, dst, g.num_nodes)
        return out if layer.act is None else getattr(ad, layer.act)(out)

    assert run(lambda layer, H: layer.forward(H, g)) == run(by_hand)


def test_mlp_rows_reject_node_rows_that_do_not_fit_the_first_layer():
    # the attention scorer's w0 has 2d + 1 rows, a head's 2d; a narrower H
    # would split w0 into the wrong blocks
    scorer = make_layer(in_width=4).att[0]
    head = Mlp(Tape(seed=0), "head", [8, 5, 1], "tanh")
    for mlp, width in ((scorer, 3), (head, 3), (head, 5)):
        with pytest.raises(ShapeError, match=f"node rows of width {width} give"):
            mlp.rows(Tensor(np.ones((5, width))))
    assert [r.shape for r in head.rows(Tensor(np.ones((5, 4))))] == [(5, 5)] * 2
    assert [r.shape for r in scorer.rows(Tensor(np.ones((5, 4))))] == [(5, 32)] * 2


def test_feature_width_mismatch_errors():
    g = random_graph(np.random.default_rng(0), 4, 0.4)
    layer = make_layer(in_width=4)
    with pytest.raises(ShapeError):
        layer.attention_logits(0, Tensor(np.zeros((4, 5))), g)


def test_attention_singleton_node_is_plus_minus_one():
    # node 2 is isolated: only its self-loop contributes
    g = SignedWeightedGraph.from_edges(3, [0], [1], [1.0])
    layer = make_layer(in_width=2)
    H = Tensor(np.random.default_rng(1).standard_normal((3, 2)))
    logits = layer.attention_logits(0, H, g)
    alpha = layer.attention_coefficients(0, logits, g).values
    # layout: E edges then N self-loops; node 2's self-loop is the last entry
    assert abs(alpha[-1]) == pytest.approx(1.0)


def test_all_positive_logits_reduce_to_standard_softmax():
    g = random_graph(np.random.default_rng(2), 6, 0.4)
    layer = make_layer(in_width=3)
    H = Tensor(np.random.default_rng(2).standard_normal((6, 3)))
    logits = layer.attention_logits(0, H, g)
    forced = np.abs(logits.values[:, 0])
    alpha = layer.attention_coefficients(0, Tensor(forced[:, None]), g).values
    src, dst, _ = layer.edge_arrays(g)
    for i in range(6):
        mask = dst == i
        ref = np.exp(forced[mask] - forced[mask].max())
        ref /= ref.sum()
        assert np.allclose(alpha[mask], ref, atol=1e-12)


def test_single_node_self_loop_identity():
    g = SignedWeightedGraph.from_edges(2, [0], [1], [1.0])
    layer = make_layer(in_width=2, out_width=2, projection=False, activation="identity")
    H = np.random.default_rng(3).standard_normal((2, 2))
    out = layer.forward(Tensor(H), g).values
    # node 0 has only its self-loop: output is +-h_0
    assert np.allclose(np.abs(out[0]), np.abs(H[0]), atol=1e-12)


@pytest.mark.parametrize("heads,merge,settings", [
    (1, "concat", {}), (2, "concat", {}), (3, "mean", {}),
    (2, "concat", {"projection": False}),
    (2, "mean", {"self_loop_weight": -0.5}),
    (1, "concat", {"activation": "tanh"}),
], ids=["1-concat", "2-concat", "3-mean", "2-concat-no_projection",
        "2-mean-self_loop_weight_neg", "1-concat-tanh"])
def test_dense_oracle_equivalence(heads, merge, settings):
    rng = np.random.default_rng(heads)
    for trial in range(5):
        n = int(rng.integers(3, 9))
        g = random_graph(np.random.default_rng(trial + 17), n, 0.4)
        layer = make_layer(seed=trial, heads=heads, head_merge=merge, **settings)
        H = rng.standard_normal((n, 4))
        sparse = layer.forward(Tensor(H), g).values
        assert np.max(np.abs(sparse - dense_layer_reference(layer, H, g))) < 1e-10


def test_edge_ablation_changes_only_reachable_rows():
    g = SignedWeightedGraph.from_edges(4, [0, 1, 2], [1, 2, 3], [0.7, -0.4, 0.9])
    layer = make_layer(in_width=2, out_width=2)
    H = np.random.default_rng(4).standard_normal((4, 2))
    full = layer.forward(Tensor(H), g).values
    g_ablate = SignedWeightedGraph.from_edges(4, [1, 2], [2, 3], [-0.4, 0.9])
    ablated = layer.forward(Tensor(H), g_ablate).values
    # with one layer only the edge's destination row can change
    assert not np.allclose(full[1], ablated[1])
    for i in (0, 2, 3):
        assert np.allclose(full[i], ablated[i], atol=1e-12)


def test_permutation_equivariance_exact():
    rng = np.random.default_rng(9)
    g = random_graph(np.random.default_rng(6), 7, 0.4)
    layer = make_layer(in_width=3, seed=2)
    H = rng.standard_normal((7, 3))
    perm = rng.permutation(7)
    inv = np.argsort(perm)
    g_perm = SignedWeightedGraph.from_edges(7, perm[g.src], perm[g.dst], g.weight)
    out = layer.forward(Tensor(H), g).values
    out_perm = layer.forward(Tensor(H[inv]), g_perm).values
    assert np.array_equal(out_perm[perm], out)


def test_permuting_node_ids_permutes_logits():
    rng = np.random.default_rng(12)
    g = random_graph(np.random.default_rng(8), 5, 0.4)
    layer = make_layer(in_width=3, seed=3)
    H = rng.standard_normal((5, 3))
    perm = rng.permutation(5)
    inv = np.argsort(perm)
    g_perm = SignedWeightedGraph.from_edges(5, perm[g.src], perm[g.dst], g.weight)
    base = layer.attention_logits(0, Tensor(H), g).values[:, 0]
    permuted = layer.attention_logits(0, Tensor(H[inv]), g_perm).values[:, 0]
    # same multiset of per-edge logits (edge order differs by CSR sorting)
    assert sorted(np.round(base, 12)) == sorted(np.round(permuted, 12))


def test_sign_sensitivity_on_two_node_graph():
    hits = 0
    for trial in range(10):
        layer = make_layer(in_width=2, seed=trial + 50)
        if np.max(np.abs(layer.att[0].weights[0].values[-1])) < 1e-9:
            continue  # measure-zero init, resample
        H = Tensor(np.random.default_rng(trial).standard_normal((2, 2)))
        gp = SignedWeightedGraph.from_edges(2, [0], [1], [0.8])
        gm = SignedWeightedGraph.from_edges(2, [0], [1], [-0.8])
        lp = layer.attention_logits(0, H, gp).values[0, 0]
        lm = layer.attention_logits(0, H, gm).values[0, 0]
        assert lp != lm
        hits += 1
    assert hits >= 8


def test_l1_normalization_per_node():
    for trial in range(10):
        n = 4 + trial % 5
        g = random_graph(np.random.default_rng(trial), n, 0.5)
        layer = make_layer(seed=trial)
        H = Tensor(np.random.default_rng(trial).standard_normal((n, 4)))
        logits = layer.attention_logits(0, H, g)
        alpha = layer.attention_coefficients(0, logits, g).values
        _, dst, _ = layer.edge_arrays(g)
        mass = np.zeros(n)
        np.add.at(mass, dst, np.abs(alpha))
        assert np.all(np.abs(mass - 1.0) < 1e-10)
        assert np.all(np.abs(alpha) <= 1.0 + 1e-12)


class TestStack:
    def test_zero_layers_returns_input(self):
        g = random_graph(np.random.default_rng(0), 4, 0.4)
        stack = WsGatStack(Tape(seed=0), 3, TrainConfig(layers=0))
        X = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        assert stack.forward(X, g) is X

    def test_two_layer_stack_composes(self):
        g = random_graph(np.random.default_rng(1), 8, 0.4)
        stack = WsGatStack(Tape(seed=1), 3, TrainConfig(hidden=4, embed=2))
        X = Tensor(np.random.default_rng(1).standard_normal((8, 3)))
        full = stack.forward(X, g).values
        h = stack.layers[0].forward(X, g)
        h = stack.layers[1].forward(h, g)
        assert np.array_equal(full, h.values)

    def test_head_merge_widths(self):
        g = random_graph(np.random.default_rng(2), 5, 0.4)
        stack = WsGatStack(Tape(seed=2), 3, TrainConfig(hidden=4, embed=2, heads=3))
        X = Tensor(np.random.default_rng(2).standard_normal((5, 3)))
        out = stack.forward(X, g)
        assert stack.layers[0].merged_width == 12  # concat on hidden
        assert out.shape == (5, 2)                 # mean on final

    @pytest.mark.parametrize("projection", [True, False])
    def test_task_model_carries_every_setting_into_every_layer(self, projection):
        cfg = TrainConfig(layers=3, hidden=5, embed=6, heads=2, attention_hidden=7,
                          activation="tanh", self_loop_weight=-0.5, projection=projection,
                          features="random_normal", feature_dim=4)
        g = random_graph(np.random.default_rng(3), 6, 0.4)
        model = TaskModel("sign", g, cfg)
        layers = model.stack.layers
        assert len(layers) == 3
        assert [l.head_merge for l in layers] == ["concat", "concat", "mean"]
        in_width = 4
        for i, layer in enumerate(layers):
            out_width = (cfg.embed if i == 2 else cfg.hidden) if projection else in_width
            assert layer.heads == 2 and len(layer.att) == len(layer.w_out) == 2
            assert layer.act == "tanh"
            assert layer.self_loop_weight == -0.5
            assert layer.edge_arrays(g)[2][-g.num_nodes:].tolist() == [-0.5] * g.num_nodes
            assert layer.projection is projection
            for mlp, w_out in zip(layer.att, layer.w_out):
                assert mlp.weights[0].shape == (2 * in_width + 1, 7)
                if projection:
                    assert w_out.shape == (in_width, out_width)
                else:
                    assert w_out is None
            assert (layer.in_width, layer.out_width) == (in_width, out_width)
            in_width = layer.merged_width
            assert in_width == out_width * (1 if i == 2 else 2)
        assert model.stack.out_width == in_width
        assert model.sign_head.weights[0].shape[0] == 2 * in_width
