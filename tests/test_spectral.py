import numpy as np
import pytest

from wsgat.errors import ConvergenceError
from wsgat.graph import SignedWeightedGraph
from wsgat.spectral import signed_spectral_embedding, fallback_features, _signed_adjacency

from wsgat.verify import random_graph


def test_two_node_positive_edge():
    g = SignedWeightedGraph.from_edges(2, [0], [1], [1.0])
    X, lam = signed_spectral_embedding(g, d=1, seed=0)
    # symmetrized S = [[0, .5], [.5, 0]]: top |eigenvalue| 0.5, eigenvector [1,1]/sqrt(2)
    assert lam[0] == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(np.abs(X[:, 0]), 1 / np.sqrt(2), atol=1e-8)
    assert X[0, 0] > 0  # sign convention


def test_two_node_negative_edge():
    g = SignedWeightedGraph.from_edges(2, [0], [1], [-1.0])
    X, lam = signed_spectral_embedding(g, d=1, seed=0)
    assert abs(lam[0]) == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(np.abs(X[:, 0]), 1 / np.sqrt(2), atol=1e-8)
    assert np.sign(X[0, 0]) != np.sign(X[1, 0])


# 8 nodes take the dense path (d + 4 >= n); at 40 nodes Lanczos restarts
@pytest.mark.parametrize("n", [8, 40], ids=["dense", "lanczos"])
def test_matches_dense_eigendecomposition(n):
    g = random_graph(np.random.default_rng(5), n, 0.4)
    X, lam = signed_spectral_embedding(g, d=4, seed=1)
    S = _signed_adjacency(g).toarray()
    evals, vecs = np.linalg.eigh(S)
    order = np.argsort(-np.abs(evals))[:4]
    assert np.allclose(np.abs(lam), np.abs(evals[order]), atol=1e-8)
    # subspace angle via difference of orthogonal projectors
    ref = vecs[:, order]
    assert np.linalg.norm(X @ X.T - ref @ ref.T, 2) < 1e-6


def test_plus_minus_pair_orders_positive_first():
    # a bipartite graph's spectrum is symmetric: every lambda has a -lambda
    rng = np.random.default_rng(3)
    src, dst = np.nonzero(rng.random((20, 20)) < 0.3)
    w = rng.choice([-1.0, 1.0], len(src))
    g = SignedWeightedGraph.from_edges(40, src, dst + 20, w)
    X, lam = signed_spectral_embedding(g, d=4, seed=0)
    assert lam[0] > 0 and lam[2] > 0
    assert lam[1] == pytest.approx(-lam[0], rel=1e-10)
    assert lam[3] == pytest.approx(-lam[2], rel=1e-10)
    assert lam[0] > lam[2]


def test_orthonormal_columns():
    g = random_graph(np.random.default_rng(2), 15, 0.4)
    X, _ = signed_spectral_embedding(g, d=5, seed=3)
    assert np.max(np.abs(X.T @ X - np.eye(5))) < 1e-8


def test_eigen_residual():
    g = random_graph(np.random.default_rng(9), 14, 0.4)
    X, lam = signed_spectral_embedding(g, d=4, seed=2)
    S = _signed_adjacency(g)
    for c in range(4):
        res = np.linalg.norm(S @ X[:, c] - lam[c] * X[:, c])
        assert res / abs(lam[c]) < 1e-6


def test_sign_flip_negates_spectrum():
    g = random_graph(np.random.default_rng(4), 10, 0.4)
    g_neg = SignedWeightedGraph.from_edges(g.num_nodes, g.src.copy(), g.dst.copy(), -g.weight)
    _, lam = signed_spectral_embedding(g, d=3, seed=1)
    _, lam_neg = signed_spectral_embedding(g_neg, d=3, seed=1)
    # S negates, so the |lambda|-ordered spectrum negates
    assert np.allclose(sorted(lam), sorted(-lam_neg), atol=1e-8)


def test_deterministic_given_seed():
    g = random_graph(np.random.default_rng(6), 10, 0.4)
    X1, _ = signed_spectral_embedding(g, d=3, seed=7)
    X2, _ = signed_spectral_embedding(g, d=3, seed=7)
    assert np.array_equal(X1, X2)


def test_nonconvergence_raises():
    # at 40 nodes one restart does not span the whole graph, as it would at 12
    g = random_graph(np.random.default_rng(1), 40, 0.4)
    with pytest.raises(ConvergenceError, match=r"of 8 eigenpairs converged") as e:
        signed_spectral_embedding(g, d=4, seed=0, iters=1, tol=1e-15)
    assert e.value.residual is not None


def test_d_larger_than_n_rejected():
    g = random_graph(np.random.default_rng(0), 5, 0.4)
    with pytest.raises(ValueError):
        signed_spectral_embedding(g, d=6)


class TestFallbackFeatures:
    def test_isolated_node_all_zero(self):
        g = SignedWeightedGraph.from_edges(3, [0], [1], [1.0])  # node 2 isolated
        X = fallback_features(g, "degree_onehot_log", d=8)
        assert np.array_equal(X[2], np.zeros(8))

    def test_out_degree_slot(self):
        g = SignedWeightedGraph.from_edges(2, [0], [1], [1.0])
        X = fallback_features(g, "degree_onehot_log", d=8)
        assert X[0, 1] == pytest.approx(np.log(2))
        assert X[0, 0] == 0.0
        assert X[1, 0] == pytest.approx(np.log(2))

    def test_weight_sums(self):
        g = SignedWeightedGraph.from_edges(3, [0, 2], [1, 1], [0.5, -0.25])
        X = fallback_features(g, "degree_onehot_log", d=8)
        assert X[1, 2] == pytest.approx(0.25)  # sum of incoming weights
        assert X[0, 3] == pytest.approx(0.5)   # sum of outgoing weights

    def test_random_normal_reproducible(self):
        g = random_graph(np.random.default_rng(3), 6, 0.4)
        a = fallback_features(g, "random_normal", d=4, seed=11)
        b = fallback_features(g, "random_normal", d=4, seed=11)
        assert np.array_equal(a, b)
