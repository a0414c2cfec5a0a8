import numpy as np
import pytest

import wsgat.autodiff as ad
from wsgat.autodiff import Tensor, Tape
from wsgat.errors import ShapeError
from wsgat.graph import SignedWeightedGraph
from wsgat.layer import WsGatLayer, WsGatStack
from wsgat.verify import dense_layer_reference, random_graph


def make_layer(seed=0, in_width=4, out_width=3, **kw):
    return WsGatLayer(Tape(seed=seed), "l", in_width, out_width, **kw)


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
    alpha = layer.attention_coefficients(0, Tensor(forced), g).values
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


@pytest.mark.parametrize("heads,merge", [(1, "concat"), (2, "concat"), (3, "mean")])
def test_dense_oracle_equivalence(heads, merge):
    rng = np.random.default_rng(heads)
    for trial in range(5):
        n = int(rng.integers(3, 9))
        g = random_graph(np.random.default_rng(trial + 17), n, 0.4)
        layer = make_layer(seed=trial, heads=heads, head_merge=merge)
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
        stack = WsGatStack(Tape(seed=0), 3, num_layers=0)
        X = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        assert stack.forward(X, g) is X

    def test_two_layer_stack_composes(self):
        g = random_graph(np.random.default_rng(1), 8, 0.4)
        stack = WsGatStack(Tape(seed=1), 3, hidden_width=4, out_width=2, num_layers=2)
        X = Tensor(np.random.default_rng(1).standard_normal((8, 3)))
        full = stack.forward(X, g).values
        h = stack.layers[0].forward(X, g)
        h = stack.layers[1].forward(h, g)
        assert np.array_equal(full, h.values)

    def test_head_merge_widths(self):
        g = random_graph(np.random.default_rng(2), 5, 0.4)
        stack = WsGatStack(Tape(seed=2), 3, hidden_width=4, out_width=2,
                           num_layers=2, heads=3)
        X = Tensor(np.random.default_rng(2).standard_normal((5, 3)))
        out = stack.forward(X, g)
        assert stack.layers[0].merged_width == 12  # concat on hidden
        assert out.shape == (5, 2)                 # mean on final
