"""Input node features: signed spectral embedding and simple fallbacks."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ConvergenceError


def _signed_adjacency(g):
    """Sparse symmetrized sign matrix S = (A + A^T)/2 with sign(w) entries."""
    A = sp.coo_matrix(
        (np.sign(g.weight), (g.src, g.dst)), shape=(g.num_nodes, g.num_nodes)
    ).tocsr()
    return (A + A.T) * 0.5


def signed_spectral_embedding(g, d=32, iters=500, seed=0, tol=1e-8):
    """Top-d eigenvectors (by |eigenvalue|) of the symmetrized signed adjacency.

    ARPACK's implicitly restarted Lanczos (scipy eigsh, from a seeded start
    vector) finds the d + 4 largest-magnitude eigenpairs to relative tolerance
    tol within iters restarts; dense eigh runs when d + 4 >= n. Signed spectra
    come in near +-lambda pairs, so the order is |lambda| descending with the
    positive member of a pair first; the four extra pairs let a pair that
    straddles column d be ordered too. Each column's largest-magnitude entry
    is made positive. Raises ConvergenceError if Lanczos does not converge.
    """
    n = g.num_nodes
    if d > n:
        raise ValueError(f"d={d} exceeds num_nodes={n}")
    S = _signed_adjacency(g)
    k = d + 4
    if k >= n:
        lam, X = np.linalg.eigh(S.toarray())
    else:
        # imported here: scipy.sparse.linalg adds ~9 MB of RSS, which runs
        # with other features need not pay
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            lam, X = eigsh(S, k=k, which="LM", v0=v0, maxiter=iters, tol=tol)
        except ArpackNoConvergence as e:
            raise ConvergenceError(
                f"Lanczos did not converge in {iters} restarts: "
                f"{len(e.eigenvalues)} of {k} eigenpairs converged",
                residual=float("inf"),
            ) from None
    # |lambda| descending; magnitudes rounded so +-lambda pairs tie exactly,
    # then the positive member sorts first
    mag = np.round(np.abs(lam) / max(np.max(np.abs(lam)), 1e-300), 9)
    order = np.lexsort((-lam, -mag))[:d]
    lam, X = lam[order], X[:, order]
    # deterministic column signs
    X *= np.sign(X[np.argmax(np.abs(X), axis=0), np.arange(d)])
    return X, lam


def fallback_features(g, kind="degree_onehot_log", d=8, seed=0):
    """Cheap deterministic features for tasks where the input is unspecified.

    degree_onehot_log: [log(1+in_deg), log(1+out_deg), sum_w_in, sum_w_out, 0...]
    random_normal:     seeded standard normal matrix.
    """
    if d < 1:
        raise ConfigError(f"feature_dim must be >= 1, got {d}")
    n = g.num_nodes
    if kind == "random_normal":
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, d))
    if kind != "degree_onehot_log":
        raise ConfigError(f"unknown feature kind {kind!r}")
    in_deg = np.bincount(g.dst, minlength=n).astype(float)
    out_deg = np.bincount(g.src, minlength=n).astype(float)
    w_in = np.zeros(n)
    np.add.at(w_in, g.dst, g.weight)
    w_out = np.zeros(n)
    np.add.at(w_out, g.src, g.weight)
    base = np.column_stack([np.log1p(in_deg), np.log1p(out_deg), w_in, w_out])
    if d <= 4:
        return base[:, :d]
    return np.hstack([base, np.zeros((n, d - 4))])
