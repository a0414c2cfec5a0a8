"""Graph attention for signed, weighted networks, with link-prediction pipelines."""

from .graph import (
    SignedWeightedGraph,
    EdgeSplit,
    load_edge_list,
    save_edge_list,
    normalize_weights,
    split_edges,
    sample_negative_edges,
)
from .autodiff import Tensor, Tape, Adam
from .layer import WsGatLayer, WsGatStack
from .spectral import signed_spectral_embedding, fallback_features
from .metrics import roc_auc, f1_score, mean_absolute_error
from .pipelines import (
    TrainConfig,
    EvalReport,
    TaskModel,
    train,
    evaluate,
)

__version__ = "0.1.0"
