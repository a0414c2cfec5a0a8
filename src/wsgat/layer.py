"""Attention layer for signed weighted graphs.

Per head, the attention logit of a directed edge j->i (plus one virtual
self-loop per node) is an MLP over (h_i || h_j || w_ij). Logits pass through
a per-destination-node signed softmax, so coefficients live in [-1, 1] and
their magnitudes sum to 1 per node. Aggregation is one sparse product,
autodiff.propagate: each destination's row is the coefficient-weighted sum of
the (optionally projected) source embeddings, with no per-edge message matrix.

A layer's forward is one autodiff.recompute node over its input H, so
between forward and backward it keeps only H and its output. Backward runs
the whole layer again, over the edge arrays the forward fetched: per head
the attention MLP (its node rows, then its pair stage), the signed softmax,
the projection and propagate, then the head merge, one concat or mul node
that applies the activation in place as its epilogue.

Mlp, which scores the edges here and the node pairs in the prediction heads,
runs in two stages and never builds the pair matrix: Mlp.rows(H) runs its
first layer over the node rows, Mlp.over_pairs(rows, first, second, extra)
gathers them per pair and runs the later layers. A caller that scores many
pairs computes the rows once and runs the pair stage a chunk of pairs at a
time. pair_features builds the pair matrix, as the dense reference.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

# the values of TrainConfig.activation: "identity" or a key of autodiff._ACTIVATIONS
ACTIVATIONS = ("identity", *ad._ACTIVATIONS)


class Mlp:
    """Dense layers ``{prefix}.w{i}``/``{prefix}.b{i}`` between consecutive ``sizes``,
    over pairs of node rows: ``over_pairs(rows(H), first, second, extra)`` is
    the MLP over row k of ``pair_features(H, first, second, extra)``.

    ``hidden_act`` follows every layer but the last, ``out_act`` (None: linear)
    the last: each a key of ``autodiff._ACTIVATIONS``, applied inside the node
    of its layer's product.
    """

    def __init__(self, tape, prefix, sizes, hidden_act, out_act=None):
        self.weights, self.biases = [], []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.weights.append(tape.glorot(f"{prefix}.w{i}", (a, b)))
            self.biases.append(tape.parameter(f"{prefix}.b{i}", np.zeros(b)))
        self.acts = [hidden_act] * (len(sizes) - 2) + [out_act]

    def rows(self, H):
        """The first layer's products over the node rows, ``(H W_a + b0, H W_b)``.

        The rows of ``w0`` split into ``W_a``, ``W_b`` and ``w_c``, matching
        the three blocks of columns of a pair's input, so the first layer of
        pair k is ``(H W_a + b0)[first[k]] + (H W_b)[second[k]] + extra[k] w_c``.
        ``w0`` has ``2d`` rows, or ``2d + 1`` with one ``extra`` column, for
        ``H`` of width ``d``; any other width raises ShapeError.
        """
        w0, d = self.weights[0], H.shape[1]
        if w0.shape[0] not in (2 * d, 2 * d + 1):
            raise ShapeError(f"Mlp expects {w0.shape[0]} input columns, "
                             f"node rows of width {d} give {2 * d} or {2 * d + 1}")
        return (ad.linear(H, ad.take_rows(w0, np.arange(d)), self.biases[0]),
                ad.matmul(H, ad.take_rows(w0, np.arange(d, 2 * d))))

    def over_pairs(self, rows, first, second, extra=None):
        """The MLP over pairs ``(first[k], second[k])`` of the node rows ``rows``
        from ``rows(H)``: their gathered sum plus ``extra w_c`` (``w_c`` the
        last ``extra.shape[1]`` rows of ``w0``) and its activation as one
        ``gather_sum`` node, then one ``linear`` node per later layer. Only
        this stage is pair-wide."""
        w_c = None
        if extra is not None:
            w0 = self.weights[0]
            w_c = ad.take_rows(w0, np.arange(w0.shape[0] - extra.shape[1], w0.shape[0]))
        x = ad.gather_sum(rows[0], first, rows[1], second, extra, w_c, act=self.acts[0])
        for w, b, act in zip(self.weights[1:], self.biases[1:], self.acts[1:]):
            x = ad.linear(x, w, b, act=act)
        return x


def pair_features(H, first, second, *extra):
    """Rows ``first`` and ``second`` of H side by side, then the ``extra`` columns:
    the dense reference of an ``Mlp``'s input, which ``Mlp`` itself never builds."""
    return ad.concat([ad.take_rows(H, first), ad.take_rows(H, second), *extra], axis=1)


class WsGatLayer:
    """One multi-head signed/weighted attention layer.

    in_width F_k -> out_width F_{k+1} per head; head_merge 'concat' makes the
    layer output H*F_{k+1} wide, 'mean' keeps it F_{k+1}. The other settings
    come from ``config``, a ``pipelines.TrainConfig``; without its projection
    the raw source embeddings are aggregated (out_width is then in_width).
    """

    def __init__(self, tape, prefix, in_width, out_width, config, head_merge="concat"):
        if head_merge not in ("concat", "mean"):
            raise ValueError(f"unknown head_merge {head_merge!r}")
        if not config.projection:
            out_width = in_width
        self.in_width, self.out_width = in_width, out_width
        self.heads = config.heads
        self.head_merge = head_merge
        self.self_loop_weight = config.self_loop_weight
        self.projection = config.projection
        # the merge node's activation epilogue: None for "identity"
        self.act = None if config.activation == "identity" else config.activation
        self.att = [
            Mlp(tape, f"{prefix}.h{k}.att", [2 * in_width + 1, config.attention_hidden, 1],
                "leaky_relu", "tanh")
            for k in range(self.heads)
        ]
        self.w_out = [
            tape.glorot(f"{prefix}.h{k}.w_out", (in_width, out_width)) if self.projection else None
            for k in range(self.heads)
        ]

    @property
    def merged_width(self):
        return self.out_width * self.heads if self.head_merge == "concat" else self.out_width

    def edge_arrays(self, g):
        """Directed edges j->i plus one self-loop per node, on feed scale."""
        src = np.concatenate([g.src, np.arange(g.num_nodes)])
        dst = np.concatenate([g.dst, np.arange(g.num_nodes)])
        w = np.concatenate([g.weight, np.full(g.num_nodes, self.self_loop_weight)])
        return src, dst, w

    def _scorer(self, head, g):
        """The attention logits of ``head`` as a function of the node rows H:
        one per edge and self-loop of g, MLP(h_dst || h_src || w), (E+N, 1).
        It closes over the edge arrays fetched here."""
        src, dst, w = self.edge_arrays(g)
        mlp, extra = self.att[head], Tensor(w[:, None])
        return lambda H: mlp.over_pairs(mlp.rows(H), dst, src, extra)

    @staticmethod
    def _check_rows(H, g):
        if H.shape[0] != g.num_nodes:
            raise ShapeError("feature row count must equal num_nodes")

    def attention_logits(self, head, H, g):
        """One logit per edge and self-loop: MLP(h_dst || h_src || w)."""
        self._check_rows(H, g)
        return self._scorer(head, g)(H)

    def attention_coefficients(self, head, logits, g):
        """Signed softmax per destination node of the edges' logit column."""
        _, dst, _ = self.edge_arrays(g)
        return ad.segment_signed_softmax(ad.squeeze_col(logits), dst, g.num_nodes)

    def forward(self, H, g):
        self._check_rows(H, g)
        src, dst, _ = self.edge_arrays(g)
        scorers = [self._scorer(k, g) for k in range(self.heads)]

        def layer(H):
            outs = []
            for k, score in enumerate(scorers):
                alpha = ad.segment_signed_softmax(ad.squeeze_col(score(H)), dst, g.num_nodes)
                z = ad.matmul(H, self.w_out[k]) if self.projection else H
                outs.append(ad.propagate(z, alpha, src, dst, g.num_nodes))
            # with one head: a concat of one part copies it, and * 1.0 is exact
            if self.head_merge == "concat":
                return ad.concat(outs, axis=1, act=self.act)
            return ad.mul(functools.reduce(ad.add, outs), 1.0 / self.heads, act=self.act)

        # the layer's graph, every (E+N)-row array in it, is rebuilt in backward
        return ad.recompute(layer, H)


class WsGatStack:
    """``config.layers`` wsGAT layers of a ``pipelines.TrainConfig``: the hidden
    ones concatenate their heads, the last averages them. Zero layers returns
    the input unchanged."""

    def __init__(self, tape, in_width, config):
        self.layers = []
        width = in_width
        for i in range(config.layers):
            last = i == config.layers - 1
            layer = WsGatLayer(tape, f"gnn{i}", width, config.embed if last else config.hidden,
                               config, "mean" if last else "concat")
            self.layers.append(layer)
            width = layer.merged_width
        self.out_width = width

    def forward(self, X, g):
        h = X
        for layer in self.layers:
            h = layer.forward(h, g)
        return h
