"""Each argument check of the library's public calls, one row per check: the
call, the exception it must raise and the start of its message."""

import re

import numpy as np
import pytest

from wsgat import autodiff as ad
from wsgat.autodiff import Tape, Tensor
from wsgat.errors import ConfigError, ShapeError
from wsgat.graph import SignedWeightedGraph, load_edge_list, normalize_weights
from wsgat.layer import WsGatLayer
from wsgat.pipelines import TaskModel, TrainConfig
from wsgat.spectral import fallback_features, signed_spectral_embedding
from wsgat.verify import random_graph

GRAPH = random_graph(np.random.default_rng(0), 6, 0.5)


def duplicate_parameter():
    tape = Tape(seed=0)
    tape.parameter("w", np.zeros(2))
    tape.parameter("w", np.ones(2))


CHECKS = [
    ("duplicate parameter", duplicate_parameter, ValueError, "duplicate parameter 'w'"),
    ("head_merge", lambda: WsGatLayer(Tape(seed=0), "gnn0", 3, 4, TrainConfig(), "sum"),
     ValueError, "unknown head_merge 'sum'"),
    ("weight mode", lambda: normalize_weights(GRAPH, "log"), ValueError, "unknown mode 'log'"),
    ("edge list format", lambda: load_edge_list("edges.tsv", fmt="tsv4"), ValueError,
     "unknown format 'tsv4'"),
    ("feature kind", lambda: fallback_features(GRAPH, kind="ones"), ConfigError,
     "unknown feature kind 'ones'"),
    ("feature width", lambda: fallback_features(GRAPH, d=0), ConfigError,
     "feature_dim must be >= 1, got 0"),
    ("task", lambda: TaskModel("rank", GRAPH, TrainConfig()), ValueError, "unknown task 'rank'"),
    ("spectral width", lambda: signed_spectral_embedding(GRAPH, d=7), ValueError,
     "d=7 exceeds num_nodes=6"),
    ("attention rows", lambda: WsGatLayer(Tape(seed=0), "gnn0", 3, 4, TrainConfig())
     .attention_logits(0, Tensor(np.ones((5, 3))), GRAPH), ShapeError,
     "feature row count must equal num_nodes"),
    ("layer rows", lambda: WsGatLayer(Tape(seed=0), "gnn0", 3, 4, TrainConfig())
     .forward(Tensor(np.ones((5, 3))), GRAPH), ShapeError,
     "feature row count must equal num_nodes"),
    ("matmul of mismatched shapes", lambda: ad.matmul(Tensor(np.ones((2, 3))),
                                                      Tensor(np.ones((2, 3)))),
     ShapeError, "matmul: incompatible shapes (2, 3) and (2, 3)"),
    ("propagate short of a destination",
     lambda: ad.propagate(Tensor(np.ones((3, 2))), Tensor(np.ones(2)), [0, 1], [0], 3),
     ShapeError, "propagate: (2,) sources, (1,) destinations and (2,) coefficients"),
    ("concat of nothing", lambda: ad.concat([]), ShapeError, "concat of zero tensors"),
    ("squeeze_col of a matrix", lambda: ad.squeeze_col(Tensor(np.ones((3, 2)))), ShapeError,
     "squeeze_col: expected a column, got (3, 2)"),
    ("squeeze_col of a vector", lambda: ad.squeeze_col(Tensor(np.ones(3))), ShapeError,
     "squeeze_col: expected a column, got (3,)"),
    ("log_softmax_rows of a vector", lambda: ad.log_softmax_rows(Tensor(np.ones(3))),
     ShapeError, "log_softmax_rows expects a matrix"),
    ("segment_signed_softmax of a matrix",
     lambda: ad.segment_signed_softmax(Tensor(np.ones((3, 1))), [0, 0, 1], 2), ShapeError,
     "segment_signed_softmax expects a 1-d logits tensor"),
    ("segment_signed_softmax short of a segment id",
     lambda: ad.segment_signed_softmax(Tensor(np.ones(3)), [0, 1], 2), ShapeError,
     "one segment id per logit required"),
    ("take_rows by a boolean mask",
     lambda: ad.take_rows(Tensor(np.ones((3, 2))), np.array([True, False, True])), ShapeError,
     "take_rows: row indices must be integers, got dtype bool"),
    ("take_rows by floats", lambda: ad.take_rows(Tensor(np.ones((3, 2))), [0.7, 2.9]),
     ShapeError, "take_rows: row indices must be integers, got dtype float64"),
    ("gather_sum by floats",
     lambda: ad.gather_sum(Tensor(np.ones((3, 2))), [0, 1], Tensor(np.ones((3, 2))), [0.0, 1.0]),
     ShapeError, "gather_sum: row indices must be integers, got dtype float64"),
    ("segment_sum by floats", lambda: ad.segment_sum(Tensor(np.ones((2, 2))), [0.0, 1.0], 2),
     ShapeError, "segment_sum: row indices must be integers, got dtype float64"),
    ("propagate from floats",
     lambda: ad.propagate(Tensor(np.ones((3, 2))), Tensor(np.ones(2)), [0.0, 1.0], [0, 1], 3),
     ShapeError, "propagate: row indices must be integers, got dtype float64"),
    ("segment_signed_softmax by a boolean mask",
     lambda: ad.segment_signed_softmax(Tensor(np.ones(2)), np.array([True, False]), 2),
     ShapeError, "segment_signed_softmax: row indices must be integers, got dtype bool"),
    ("graph of float node ids",
     lambda: SignedWeightedGraph.from_edges(3, [0.5, 1.2], [1.9, 2.0], [1, 1]), ValueError,
     "node ids must be integers, got float64 sources and float64 destinations"),
    ("backward of a vector", lambda: ad.backward(Tensor(np.ones(2), requires_grad=True)),
     ShapeError, "backward requires a scalar output"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in CHECKS],
                         ids=[row[0] for row in CHECKS])
def test_a_bad_argument_raises_its_error(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call()
