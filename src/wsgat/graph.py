"""Signed weighted directed graphs: loading, normalization, splits, negative sampling."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateTaskError, EmptyGraphError, GraphParseError,
                     GraphWriteError, SamplingExhaustedError)

FORMATS = ("tsv3", "csv4")  # edge list formats load_edge_list reads


def pair_keys(src, dst, num_nodes):
    """int64 key ``src * num_nodes + dst`` per ordered pair; keys sort like (src, dst)."""
    return np.asarray(src, dtype=np.int64) * num_nodes + np.asarray(dst, dtype=np.int64)


def _member(x, sorted_keys):
    """Boolean mask: which entries of ``x`` occur in the ascending ``sorted_keys``.

    A binary search: on int64 pair keys numpy's hash-based ``np.isin`` (and
    ``np.unique`` without ``return_index``) take many times as long as a sort."""
    if len(sorted_keys) == 0:
        return np.zeros(np.shape(x), dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, x), mode="clip") == x


@dataclass(frozen=True)
class SignedWeightedGraph:
    """Immutable directed graph with signed, nonzero real edge weights.

    Node ids are contiguous ints in [0, num_nodes). ``src``, ``dst``, ``weight``
    are parallel arrays of the (deduplicated, loop-free) edge list.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    node_labels: tuple = ()

    @staticmethod
    def from_edges(num_nodes, src, dst, weight, node_labels=()):
        """The graph of the parallel edge arrays, checked. It stores read-only
        copies of them, so no write to the caller's arrays reaches it, and the
        caller's arrays stay writable."""
        src, dst = np.asarray(src), np.asarray(dst)
        if any(ids.size and ids.dtype.kind not in "iu" for ids in (src, dst)):
            raise ValueError(f"node ids must be integers, got {src.dtype} sources "
                             f"and {dst.dtype} destinations")
        src = np.array(src, dtype=np.int64)
        dst = np.array(dst, dtype=np.int64)
        weight = np.array(weight, dtype=np.float64)
        if len(src) == 0:
            raise EmptyGraphError("graph has no edges")
        if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_nodes:
            raise ValueError(f"node ids must lie in [0, {num_nodes})")
        if np.any(src == dst):
            raise ValueError("self-loops are not allowed in the stored edge list")
        if not np.all(np.isfinite(weight)) or np.any(weight == 0.0):
            raise ValueError("edge weights must be finite and nonzero")
        keys = np.sort(pair_keys(src, dst, num_nodes))
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate (src, dst) pairs")
        if len(node_labels) not in (0, num_nodes):
            raise ValueError(f"{len(node_labels)} node labels for {num_nodes} nodes")
        g = SignedWeightedGraph(num_nodes, src, dst, weight, tuple(node_labels))
        for arr in (g.src, g.dst, g.weight):
            arr.setflags(write=False)
        return g

    @property
    def num_edges(self):
        return len(self.src)

    def edge_keys(self):
        """``pair_keys`` of the edges, in edge order."""
        return pair_keys(self.src, self.dst, self.num_nodes)

    def fraction_positive(self):
        return float(np.mean(self.weight > 0))

    def in_edges(self, i):
        """(sources, weights) of edges pointing at node i, sources ascending."""
        idx = np.flatnonzero(self.dst == i)
        idx = idx[np.argsort(self.src[idx])]
        return self.src[idx], self.weight[idx]


def load_edge_list(path, fmt=None, symmetrize=False):
    """Parse an edge list file into a SignedWeightedGraph.

    tsv3: "src<TAB>dst<TAB>weight".
    csv4: "SOURCE,TARGET,RATING,TIME" (TIME ignored). An optional header is
    the first line that is neither blank nor a comment.
    In both, a line that starts with '#' or '%' (KONECT's ``out.*`` files) is
    a comment.
    ``fmt=None`` reads a ``.csv`` file, in any case, as csv4 and any other
    file as tsv3.

    Duplicate (src, dst) pairs keep the last occurrence; self-loops are dropped.
    With ``symmetrize`` both arcs are emitted for every input line (undirected
    inputs such as the advogato variant).
    """
    if fmt is None:
        fmt = "csv4" if os.fspath(path).lower().endswith(".csv") else "tsv3"
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")

    srcs, dsts, weights = [], [], []  # labels and weights in file order
    tsv3 = fmt == "tsv3"
    header_allowed = fmt == "csv4"  # until the first record
    try:
        with open(path, "r", encoding="utf-8-sig") as f:  # -sig: a leading BOM is dropped
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line or line[0] in "#%":
                    continue
                is_header_line, header_allowed = header_allowed, False
                if tsv3:
                    parts = line.split("\t")
                    if len(parts) == 1:
                        parts = line.split()
                    if len(parts) != 3:
                        raise GraphParseError(path, lineno, f"expected 3 fields, got {len(parts)}")
                    s, d, w = parts
                else:
                    parts = line.split(",")
                    if len(parts) < 3:
                        raise GraphParseError(path, lineno, f"expected >=3 comma fields, got {len(parts)}")
                    s, d, w = parts[0], parts[1], parts[2]
                try:
                    wv = float(w)
                except ValueError:
                    if is_header_line:
                        continue  # csv4 header row
                    raise GraphParseError(path, lineno, f"bad weight {w!r}") from None
                if not math.isfinite(wv):
                    raise GraphParseError(path, lineno, f"non-finite weight {w!r}")
                if wv == 0.0:
                    raise GraphParseError(path, lineno, "zero weight (0 is reserved for non-existent links)")
                s, d = s.strip(), d.strip()
                srcs.append(s)
                dsts.append(d)
                weights.append(wv)
                if symmetrize and s != d:
                    srcs.append(d)
                    dsts.append(s)
                    weights.append(wv)
    except UnicodeDecodeError as e:
        raise GraphParseError(path, None, f"not UTF-8 text ({e.reason})") from None

    if not srcs:
        raise EmptyGraphError(f"{path}: no edges parsed")

    labels = sorted(set(srcs).union(dsts), key=_label_key)
    index = {lab: i for i, lab in enumerate(labels)}
    src = np.fromiter(map(index.__getitem__, srcs), dtype=np.int64, count=len(srcs))
    dst = np.fromiter(map(index.__getitem__, dsts), dtype=np.int64, count=len(dsts))
    weight = np.array(weights, dtype=np.float64)
    loop_free = src != dst
    if not loop_free.any():
        raise EmptyGraphError(f"{path}: only self-loops present")
    src, dst, weight = src[loop_free], dst[loop_free], weight[loop_free]
    # np.unique keeps the first occurrence of each key, so the last one of the
    # file is the first one of the reversed keys; output is sorted by (src, dst)
    keys = pair_keys(src, dst, len(labels))
    _, first_reversed = np.unique(keys[::-1], return_index=True)
    last = len(keys) - 1 - first_reversed
    return SignedWeightedGraph.from_edges(len(labels), src[last], dst[last], weight[last], labels)


def _label_key(lab):
    # numeric labels sort numerically so ingestion is stable across exports
    try:
        x = float(lab)
    except ValueError:
        return (1, 0.0, lab)
    # NaN compares false with every number, so "nan" sorts with the words
    return (1, 0.0, lab) if math.isnan(x) else (0, x, lab)


def _tsv3_label_fault(label, is_source):
    """Why load_edge_list would not read ``label`` back from a tsv3 line, or None.
    Only a line's first field can be lost to the line's strip, read as a
    comment ('#' or '%') or, on the file's first line, lose a leading BOM."""
    if any(c in label for c in "\t\r\n"):
        return "it holds a tab or a line break"
    if label != label.strip():
        return "it has leading or trailing whitespace"
    if is_source and (not label or label.startswith(("#", "%", "\ufeff"))):
        return "a line cannot start with an empty label, '#', '%' or a BOM"
    return None


def save_edge_list(g, path):
    """Write tsv3, making the file's directory if it is missing;
    load_edge_list(save_edge_list(g)) reproduces the edge multiset.

    Raises GraphWriteError, before the directory or the file is made, for a
    node label that tsv3 cannot hold."""
    labels = [str(lab) for lab in g.node_labels] or [str(i) for i in range(g.num_nodes)]
    is_source = (np.bincount(g.src, minlength=g.num_nodes) > 0).tolist()
    for label, source in zip(labels, is_source):
        fault = _tsv3_label_fault(label, source)
        if fault:
            raise GraphWriteError(f"{path}: node label {label!r} cannot be written to tsv3: {fault}")
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for s, d, w in zip(g.src, g.dst, g.weight):
            f.write(f"{labels[s]}\t{labels[d]}\t{float(w)!r}\n")


def normalize_weights(g, mode="signed_unit"):
    """Rescale weights by the max absolute weight.

    unit_abs:    w -> |w| / max|w|   (range (0, 1])
    signed_unit: w -> w / max|w|     (range [-1, 1] minus 0)

    Raises DegenerateTaskError when a weight rounds to 0 on that scale: a
    subnormal one, or one more than float64's range below the largest.
    """
    if mode not in ("unit_abs", "signed_unit"):
        raise ValueError(f"unknown mode {mode!r}")
    scale = float(np.max(np.abs(g.weight)))
    w = np.abs(g.weight) / scale if mode == "unit_abs" else g.weight / scale
    zeros = np.count_nonzero(w == 0)
    if zeros:
        raise DegenerateTaskError(f"{zeros} of {len(w)} edge weights round to 0 when divided "
                                  f"by the largest |weight|, {scale}")
    return SignedWeightedGraph.from_edges(g.num_nodes, g.src, g.dst, w, g.node_labels)


@dataclass(frozen=True)
class EdgeSplit:
    """80/20-style split with sampled negatives.

    test_pos is disjoint from train_graph's edges; |train_neg| matches the
    train edge count and |test_neg| matches |test_pos|; no negative pair is an
    original edge or a self pair.
    """

    train_graph: SignedWeightedGraph
    test_pos: np.ndarray      # (k, 3) columns src, dst, weight
    train_neg: np.ndarray     # (m, 2)
    test_neg: np.ndarray      # (k, 2)
    seed: int


def split_edges(g, train_fraction=0.8, seed=0):
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.num_edges)
    n_train = int(np.floor(train_fraction * g.num_edges))
    if n_train == 0:
        raise EmptyGraphError(f"train split is empty: {g.num_edges} edge(s) at "
                              f"train_fraction {train_fraction}")
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    train_graph = SignedWeightedGraph.from_edges(
        g.num_nodes, g.src[train_idx], g.dst[train_idx], g.weight[train_idx], g.node_labels
    )
    test_pos = np.column_stack([g.src[test_idx], g.dst[test_idx], g.weight[test_idx]])

    negs = sample_negative_edges(g, n_train + len(test_idx), rng)
    train_neg, test_neg = negs[:n_train], negs[n_train:]
    return EdgeSplit(train_graph, test_pos, train_neg, test_neg, seed)


def sample_negative_edges(g, count, seed):
    """Sample ``count`` distinct ordered non-adjacent, non-self pairs uniformly.

    ``seed`` may be an int or a Generator (the latter for callers that chain
    several draws off one stream). Rounds of ``need + need // 8 + 64`` rows of
    ``rng.integers(0, n, (rows, 2))`` read the stream in order, so whenever
    the 200 rounds finish, the result is the first ``count`` admissible
    distinct pairs of the generator's stream (neither self pairs nor edges),
    whatever the round size. Otherwise the rest is a shuffle of the remaining
    non-edges.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = g.num_nodes
    capacity = n * n - n - g.num_edges
    if count > capacity:
        raise SamplingExhaustedError(
            f"requested {count} negatives but only {capacity} non-edges exist"
        )
    edges = np.sort(g.edge_keys())
    keys = np.zeros(0, dtype=np.int64)  # accepted pairs, in order
    for _ in range(200):
        need = count - len(keys)
        if need == 0:
            break
        batch = rng.integers(0, n, size=(need + need // 8 + 64, 2))
        drawn = pair_keys(batch[:, 0], batch[:, 1], n)
        # admissibility is tested on np.unique's sorted distinct keys, which
        # the binary searches run faster on
        distinct, first = np.unique(drawn, return_index=True)
        first = first[(batch[first, 0] != batch[first, 1]) & ~_member(distinct, edges)
                      & ~_member(distinct, np.sort(keys))]
        keys = np.concatenate([keys, drawn[np.sort(first)[:need]]])
    if len(keys) < count:
        # dense graph: fall back to enumerating the remaining non-edges
        remaining = np.arange(n * n)
        remaining = remaining[~_member(remaining, np.sort(np.concatenate([edges, keys])))]
        remaining = remaining[remaining // n != remaining % n]
        rng.shuffle(remaining)
        keys = np.concatenate([keys, remaining[: count - len(keys)]])
    return np.column_stack([keys // n, keys % n])
