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

    Orthogonal iteration with a Rayleigh-Ritz rotation every sweep. Signed
    spectra come in near +-lambda pairs of equal magnitude, so each sweep
    multiplies by S twice (subspace of S^2) and a small block buffer keeps
    boundary ties out of the returned columns. Column signs are fixed by
    making each column's largest-magnitude entry positive. Raises
    ConvergenceError with the residual if tol is not reached within iters.
    """
    n = g.num_nodes
    if d > n:
        raise ValueError(f"d={d} exceeds num_nodes={n}")
    S = _signed_adjacency(g)
    b = min(n, d + 4)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, b)))
    lam = np.zeros(b)
    residual = np.full(d, np.inf)
    for _ in range(iters):
        Q, _ = np.linalg.qr(S @ (S @ Q))
        SQ = S @ Q
        B = Q.T @ SQ
        evals, V = np.linalg.eigh(B)
        # |lambda| descending; magnitudes rounded so +-lambda pairs tie
        # exactly, then the positive member sorts first
        scale = max(np.max(np.abs(evals)), 1e-300)
        mag = np.round(np.abs(evals) / scale, 9)
        order = np.lexsort((-evals, -mag))
        lam = evals[order]
        Q = Q @ V[:, order]
        R = S @ Q[:, :d] - Q[:, :d] * lam[:d]
        residual = np.linalg.norm(R, axis=0)
        denom = np.maximum(np.abs(lam[:d]), 1e-12)
        if np.all(residual / denom < tol):
            break
    else:
        raise ConvergenceError(
            f"orthogonal iteration did not converge in {iters} sweeps "
            f"(max residual {np.max(residual):.3e})",
            residual=float(np.max(residual)),
        )
    X = Q[:, :d].copy()
    # deterministic column signs
    for c in range(d):
        k = np.argmax(np.abs(X[:, c]))
        if X[k, c] < 0:
            X[:, c] = -X[:, c]
    return X, lam[:d]


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
