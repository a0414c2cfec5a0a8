"""Seeded synthetic signed-weighted trust graphs shaped like the paper's datasets.

No dataset can be downloaded, so the benchmark builds its inputs here. A graph
has exactly the shape's node and edge counts and positive share, power-law in-
and out-degrees, integer rating magnitudes 1..10, and a planted signal that a
model can learn from the training edges:

* sign: a minority of "distrusted" nodes forms a faction; most edges between
  it and the rest are negative, in both directions, as in a structurally
  balanced network. Noise puts some negatives inside the factions and leaves
  some crossing edges positive;
* magnitude: each rating depends on a per-node trait of its target and of its
  source, plus rounding noise.

The same ``(shape, seed)`` always gives the same arrays and, through
``write_tsv``, byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    nodes: int
    edges: int
    positive: float  # share of positive edges


SHAPES = {
    "alpha": Shape(3783, 24186, 0.93),       # bitcoin-alpha
    "otc": Shape(5881, 35592, 0.89),         # bitcoin-otc
    "epin16": Shape(8239, 52586, 0.85),      # epinions / 16
    "epinions": Shape(131828, 841372, 0.85),  # epinions
}

DEGREE_EXPONENT = 1.7   # tail index of the in- and out-degree sequences
DISTRUSTED_REACH = 1.4  # degree mass of the distrusted faction per negative edge
SIGN_NOISE = 0.2        # std of the noise added to the distrust score


def _degrees(rng, n, m):
    """Power-law degree sequence summing to m; only its node order depends on rng."""
    x = ((np.arange(n) + 0.5) / n) ** (-1.0 / DEGREE_EXPONENT)
    x *= m / x.sum()
    deg = np.floor(x).astype(np.int64)
    deg[np.argsort(deg - x, kind="stable")[: m - deg.sum()]] += 1  # largest remainders
    return deg[rng.permutation(n)]


def _edges(rng, n, m):
    """Configuration model: m distinct loop-free arcs with power-law in/out degrees.

    Stubs are paired at random; an arc that is a self-loop or repeats an earlier
    arc swaps its target with a random arc until none is left, which keeps
    every node's degrees.
    """
    src = np.repeat(np.arange(n), _degrees(rng, n, m))
    dst = np.repeat(np.arange(n), _degrees(rng, n, m))[rng.permutation(m)]
    while True:
        keys = src * n + dst
        order = np.argsort(keys, kind="stable")
        repeat = np.zeros(m, dtype=bool)
        repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        bad = np.flatnonzero(repeat | (src == dst))
        if len(bad) == 0:
            return src, dst
        for i, j in zip(bad.tolist(), rng.integers(0, m, len(bad)).tolist()):
            dst[i], dst[j] = dst[j], dst[i]


def generate(shape, seed):
    """(num_nodes, src, dst, weight) for one shape; weight is signed, |w| in 1..10."""
    n, m = shape.nodes, shape.edges
    if not n <= m <= n * (n - 1) // 4:
        raise ValueError(f"cannot place {m} edges on {n} nodes")
    rng = np.random.default_rng(seed)
    src, dst = _edges(rng, n, m)

    k = int(round((1.0 - shape.positive) * m))  # number of negative edges
    degree = np.bincount(dst, minlength=n) + np.bincount(src, minlength=n)
    order = rng.permutation(n)
    reach = np.cumsum(degree[order])
    distrusted = np.zeros(n, dtype=bool)
    distrusted[order[: np.searchsorted(reach, DISTRUSTED_REACH * k) + 1]] = True
    crossing = distrusted[src] != distrusted[dst]
    score = crossing + SIGN_NOISE * rng.standard_normal(m)
    negative = np.zeros(m, dtype=bool)
    negative[np.argsort(-score, kind="stable")[:k]] = True

    target_trait, source_trait = rng.random(n), rng.random(n)
    noise = rng.standard_normal(m)
    pos_mag = 1.0 + 5.0 * target_trait[dst] + 3.0 * source_trait[src] + noise
    neg_mag = 3.0 + 6.0 * target_trait[dst] + noise
    mag = np.clip(np.rint(np.where(negative, neg_mag, pos_mag)), 1, 10)
    weight = np.where(negative, -mag, mag)
    return n, src, dst, weight


def write_tsv(path, src, dst, weight):
    """tsv3 edge list, one "src<TAB>dst<TAB>weight" line per edge, integer fields."""
    rows = np.column_stack([src, dst, weight.astype(np.int64)])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(f"{s}\t{d}\t{w}\n" for s, d, w in rows.tolist()))
