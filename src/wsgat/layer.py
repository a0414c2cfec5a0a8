"""Attention layer for signed weighted graphs.

Per head, the attention logit of a directed edge j->i (plus one virtual
self-loop per node) is an MLP over (h_i || h_j || w_ij). Logits pass through
a per-destination-node signed softmax, so coefficients live in [-1, 1] and
their magnitudes sum to 1 per node. Aggregation scales the (optionally
projected) source embeddings and sums them into the destination.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


def _activation(name):
    table = {
        "identity": lambda t: t,
        "tanh": ad.tanh,
        "elu": ad.elu,
        "leaky_relu": ad.leaky_relu,
    }
    if name not in table:
        raise ConfigError(f"unknown activation {name!r}")
    return table[name]


class Mlp:
    """Dense layers ``{prefix}.w{i}``/``{prefix}.b{i}`` between consecutive ``sizes``.

    ``hidden_act`` follows every layer but the last, ``out_act`` (None: linear)
    the last.
    """

    def __init__(self, tape, prefix, sizes, hidden_act, out_act=None):
        self.weights, self.biases = [], []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.weights.append(tape.glorot(f"{prefix}.w{i}", (a, b)))
            self.biases.append(tape.zeros(f"{prefix}.b{i}", (b,)))
        self.acts = [hidden_act] * (len(sizes) - 2) + [out_act]

    def __call__(self, x):
        for w, b, act in zip(self.weights, self.biases, self.acts):
            x = ad.add(ad.matmul(x, w), b)
            if act is not None:
                x = act(x)
        return x


def pair_features(H, first, second, *extra):
    """Rows ``first`` and ``second`` of H side by side, then the ``extra`` columns."""
    return ad.concat([ad.take_rows(H, first), ad.take_rows(H, second), *extra], axis=1)


class WsGatLayer:
    """One multi-head signed/weighted attention layer.

    in_width F_k -> out_width F_{k+1} per head; head_merge 'concat' makes the
    layer output H*F_{k+1} wide, 'mean' keeps it F_{k+1}. With
    projection=False the raw source embeddings are aggregated (out_width is
    then forced to in_width).
    """

    def __init__(self, tape, prefix, in_width, out_width, heads=1, head_merge="concat",
                 attention_hidden=32, activation="elu", self_loop_weight=1.0,
                 projection=True):
        if head_merge not in ("concat", "mean"):
            raise ValueError(f"unknown head_merge {head_merge!r}")
        if heads < 1:
            raise ConfigError(f"heads must be >= 1, got {heads}")
        if not projection:
            out_width = in_width
        self.in_width, self.out_width = in_width, out_width
        self.heads = heads
        self.head_merge = head_merge
        self.self_loop_weight = float(self_loop_weight)
        self.projection = projection
        self.f = _activation(activation)
        self.att = [
            Mlp(tape, f"{prefix}.h{k}.att", [2 * in_width + 1, attention_hidden, 1],
                ad.leaky_relu, ad.tanh)
            for k in range(heads)
        ]
        self.w_out = [
            tape.glorot(f"{prefix}.h{k}.w_out", (in_width, out_width)) if projection else None
            for k in range(heads)
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

    def attention_logits(self, head, H, g):
        """One logit per edge and self-loop: MLP(h_dst || h_src || w)."""
        if H.shape[1] != self.in_width:
            raise ShapeError(f"expected feature width {self.in_width}, got {H.shape[1]}")
        if H.shape[0] != g.num_nodes:
            raise ShapeError("feature row count must equal num_nodes")
        src, dst, w = self.edge_arrays(g)
        return self.att[head](pair_features(H, dst, src, Tensor(w[:, None])))  # (E+N, 1)

    def attention_coefficients(self, head, logits, g):
        """Signed softmax per destination node."""
        _, dst, _ = self.edge_arrays(g)
        return ad.segment_signed_softmax(ad.squeeze_col(logits), dst, g.num_nodes)

    def forward(self, H, g):
        src, dst, _ = self.edge_arrays(g)
        outs = []
        for k in range(self.heads):
            logits = self.attention_logits(k, H, g)
            alpha = ad.segment_signed_softmax(ad.squeeze_col(logits), dst, g.num_nodes)
            z = ad.matmul(H, self.w_out[k]) if self.projection else H
            msgs = ad.scale_rows(ad.take_rows(z, src), alpha)
            outs.append(ad.segment_sum(msgs, dst, g.num_nodes))
        if self.heads == 1:
            merged = outs[0]
        elif self.head_merge == "concat":
            merged = ad.concat(outs, axis=1)
        else:
            acc = outs[0]
            for o in outs[1:]:
                acc = ad.add(acc, o)
            merged = ad.mul(acc, 1.0 / self.heads)
        return self.f(merged)


class WsGatStack:
    """Sequential wsGAT layers; zero layers returns the input unchanged."""

    def __init__(self, tape, in_width, hidden_width=64, out_width=64, num_layers=2,
                 heads=1, attention_hidden=32, activation="elu",
                 self_loop_weight=1.0, projection=True):
        _activation(activation)  # an unknown name fails even with zero layers
        self.layers = []
        width = in_width
        for i in range(num_layers):
            last = i == num_layers - 1
            layer = WsGatLayer(
                tape, f"gnn{i}", width,
                out_width if last else hidden_width,
                heads=heads,
                head_merge="mean" if last else "concat",
                attention_hidden=attention_hidden,
                activation=activation,
                self_loop_weight=self_loop_weight,
                projection=projection,
            )
            self.layers.append(layer)
            width = layer.merged_width
        self.out_width = width

    def forward(self, X, g):
        h = X
        for layer in self.layers:
            h = layer.forward(h, g)
        return h
