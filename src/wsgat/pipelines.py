"""Training and evaluation for the three link-prediction tasks.

Task "sign": 3-class classifier (positive / negative / non-existent) trained
on 80% of edges plus matched random non-edges; scored on the sign of held-out
existing edges only.

Task "weight": dual heads, one for link existence (BCE) and one for the
unsigned weight (MSE on existing links, non-edges target 0 implicitly via
the existence head); AUC/F1 on a balanced existing-vs-negative test set,
MAE over existing test links.

Task "signed-weight": same as "weight" with a tanh-bounded signed weight head
on the signed_unit scale.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Tape, Adam
from .errors import ConfigError, DegenerateTaskError
from .graph import normalize_weights, pair_keys, split_edges
from .layer import Mlp, WsGatStack, pair_features
from .metrics import roc_auc, f1_score, mean_absolute_error
from .spectral import signed_spectral_embedding, fallback_features

TASKS = ("sign", "weight", "signed-weight")


@dataclass
class TrainConfig:
    layers: int = 2
    hidden: int = 64
    embed: int = 64
    heads: int = 1
    attention_hidden: int = 32
    activation: str = "elu"
    projection: bool = True
    self_loop_weight: float = 1.0
    features: str = "degree_onehot_log"  # or "sse", "random_normal"
    feature_dim: int = 8
    sse_dim: int = 32
    head_hidden: int = 100   # per-layer neurons of the prediction heads
    head_layers: int = 3
    lr: float = 1e-3
    epochs: int = 300
    patience: int = 30
    lambda_weight: float = 1.0
    train_fraction: float = 0.8
    val_fraction: float = 0.1
    seed: int = 0

    def digest(self):
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class EvalReport:
    task: str
    dataset: str
    seed: int
    roc_auc: float
    f1: float
    mae: float | None
    per_class_counts: dict
    config_digest: str
    epochs_run: int
    wall_s: float

    def to_json_line(self):
        d = asdict(self)
        d["auc"] = d.pop("roc_auc")
        return json.dumps(d, sort_keys=True)

    def to_csv_row(self):
        mae = "" if self.mae is None else f"{self.mae:.6f}"
        return f"{self.task},{self.dataset},{self.seed},{self.roc_auc:.6f},{self.f1:.6f},{mae}"


class PairHead(Mlp):
    """MLP over a pair of node embeddings: tanh between its layers, ``out_act``
    (None: linear) after the last."""

    def __init__(self, tape, prefix, sizes, out_act=None):
        super().__init__(tape, prefix, sizes, ad.tanh, out_act)

    # its own attribute, so a profiler can wrap the heads and not the attention MLPs
    __call__ = Mlp.__call__


class TaskModel:
    """Feature source + wsGAT stack + task heads, with one Tape per model."""

    def __init__(self, task, g_train, config):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        self.task = task
        self.config = config
        self.graph = g_train
        self.X = Tensor(self._features(g_train, config))
        self.tape = Tape(seed=config.seed)
        self.stack = WsGatStack(
            self.tape, self.X.shape[1],
            hidden_width=config.hidden, out_width=config.embed,
            num_layers=config.layers, heads=config.heads,
            attention_hidden=config.attention_hidden,
            activation=config.activation,
            self_loop_weight=config.self_loop_weight,
            projection=config.projection,
        )
        sizes = [2 * self.stack.out_width] + [config.head_hidden] * (config.head_layers - 1)
        if task == "sign":
            self.sign_head = PairHead(self.tape, "sign_head", sizes + [3])
        else:
            self.exist_head = PairHead(self.tape, "exist_head", sizes + [1])
            self.weight_head = PairHead(self.tape, "weight_head", sizes + [1],
                                        ad.tanh if task == "signed-weight" else None)

    @staticmethod
    def _features(g, config):
        if config.features == "sse":
            X, _ = signed_spectral_embedding(g, d=min(config.sse_dim, g.num_nodes),
                                             seed=config.seed)
        else:
            X = fallback_features(g, kind=config.features, d=config.feature_dim,
                                  seed=config.seed)
        # standardize columns so feature scale does not depend on graph size
        std = X.std(axis=0)
        keep = std > 1e-12
        X = X - X.mean(axis=0)
        X[:, keep] /= std[keep]
        return X

    def embeddings(self):
        return self.stack.forward(self.X, self.graph)

    def pair_input(self, emb, pairs):
        return pair_features(emb, pairs[:, 0], pairs[:, 1])

    def sign_logits(self, emb, pairs):
        return self.sign_head(self.pair_input(emb, pairs))

    def existence_logits(self, emb, pairs):
        return ad.squeeze_col(self.exist_head(self.pair_input(emb, pairs)))

    def weight_values(self, emb, pairs):
        return ad.squeeze_col(self.weight_head(self.pair_input(emb, pairs)))

    def parameter_arrays(self):
        return {k: v.values.copy() for k, v in self.tape.params.items()}

    def load_parameter_arrays(self, arrays):
        """Set every parameter from ``arrays`` (name -> array).

        Raises ValueError for a missing or unexpected name or a shape that
        differs from the model's; every name is checked first, so a failed load
        changes nothing.
        """
        for k in arrays:
            if k not in self.tape.params:
                raise ValueError(f"parameter {k!r} is not in the model")
        loaded = {}
        for k, v in self.tape.params.items():
            if k not in arrays:
                raise ValueError(f"parameter {k!r} is missing")
            loaded[k] = np.array(arrays[k], dtype=np.float64)
            if loaded[k].shape != v.shape:
                raise ValueError(f"parameter {k!r} has shape {loaded[k].shape}, "
                                 f"the model expects {v.shape}")
        for k, v in self.tape.params.items():
            v.values = loaded[k]


def bce_with_logits(logits, labels):
    """mean(softplus(z) - z*y), the stable binary cross-entropy."""
    return ad.mean_(ad.sub(ad.softplus(logits), ad.mul(logits, labels)))


def mse(pred, target):
    diff = ad.sub(pred, target)
    return ad.mean_(ad.mul(diff, diff))


def cross_entropy(logits, labels, num_classes=3):
    logp = ad.log_softmax_rows(logits)
    onehot = np.eye(num_classes)[np.asarray(labels, dtype=np.int64)]
    picked = ad.mul(logp, onehot)
    return ad.mul(ad.sum_(picked), -1.0 / len(labels))


def _val_slice(n, frac, rng):
    """Front/back split of a shuffled index range: (train_idx, val_idx).

    frac=0 leaves no validation slice; val_idx is then train_idx, so early
    stopping monitors the train loss.
    """
    if not 0.0 <= frac < 1.0:
        raise ConfigError(f"val_fraction must be in [0, 1), got {frac}")
    perm = rng.permutation(n)
    n_val = int(np.floor(frac * n))
    if frac > 0 and n > 1:
        n_val = max(1, n_val)
    if n_val == 0:
        return perm, perm
    return perm[n_val:], perm[:n_val]


def _train_loop(model, loss_fn, batches, config):
    """Full-batch Adam with early stopping on the validation loss.

    batches is (train_batch, val_batch); loss_fn(emb, batch) -> scalar Tensor.
    Returns (epochs_run, train_loss_history).
    """
    train_batch, val_batch = batches
    opt = Adam(model.tape.parameter_list(), lr=config.lr)
    best_val = np.inf
    best_params = model.parameter_arrays()
    bad_epochs = 0
    history = []
    for _ in range(config.epochs):
        model.tape.reset()
        loss = loss_fn(model.embeddings(), train_batch)
        model.tape.backward(loss)
        opt.step()
        history.append(float(loss.values))
        del loss  # the graph behind it must not live through the next forwards
        val = float(loss_fn(model.embeddings(), val_batch).values)
        if val < best_val - 1e-12:
            best_val = val
            best_params = model.parameter_arrays()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    model.load_parameter_arrays(best_params)
    return len(history), history


def _check_hygiene(split):
    train, n = split.train_graph.edge_keys(), split.train_graph.num_nodes
    if np.isin(pair_keys(split.test_pos[:, 0], split.test_pos[:, 1], n), train).any():
        raise RuntimeError("test positives leaked into training edges")
    if np.isin(pair_keys(split.test_neg[:, 0], split.test_neg[:, 1], n), train).any():
        raise RuntimeError("test negatives collide with training edges")


def evaluate(model, split, task, dataset="unknown", epochs_run=0, wall_s=0.0):
    """Deterministic scoring of a trained model on a held-out split."""
    if task != model.task:
        raise ValueError(f"model trained for {model.task!r}, asked to evaluate {task!r}")
    emb = model.embeddings()
    test_pos_pairs = split.test_pos[:, :2].astype(np.int64)
    test_w = split.test_pos[:, 2]

    if task == "sign":
        logits = model.sign_logits(emb, test_pos_pairs).values
        labels = (test_w > 0).astype(int)
        # positive-vs-negative ranking on existing links, positive-class score
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        auc = roc_auc(p[:, 0], labels)
        pred = (logits[:, 0] >= logits[:, 1]).astype(int)  # argmax over {pos, neg}
        f1 = f1_score(pred, labels)
        counts = {"positive": int(labels.sum()), "negative": int(len(labels) - labels.sum())}
        mae = None
    else:
        pairs = np.vstack([test_pos_pairs, split.test_neg])
        labels = np.concatenate([np.ones(len(test_pos_pairs)), np.zeros(len(split.test_neg))])
        scores = 1.0 / (1.0 + np.exp(-model.existence_logits(emb, pairs).values))
        auc = roc_auc(scores, labels)
        f1 = f1_score((scores >= 0.5).astype(int), labels.astype(int))
        pred_w = model.weight_values(emb, test_pos_pairs).values
        mae = mean_absolute_error(pred_w, test_w)
        counts = {"existing": len(test_pos_pairs), "non_existing": len(split.test_neg)}

    return EvalReport(
        task=task, dataset=dataset, seed=split.seed,
        roc_auc=float(auc), f1=float(f1), mae=mae,
        per_class_counts=counts, config_digest=model.config.digest(),
        epochs_run=epochs_run, wall_s=wall_s,
    )


def train(task, g, config, dataset="unknown"):
    """Train one task on ``g`` and score it on its held-out split: (model, report)."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    # range checks for the keys that are not checked where they are used;
    # inf passes a lower bound, so the float keys must also be finite
    for key in ("lr", "lambda_weight", "self_loop_weight"):
        if not np.isfinite(getattr(config, key)):
            raise ConfigError(f"{key} must be finite, got {getattr(config, key)}")
    lows = {"layers": 0, "lambda_weight": 0, **dict.fromkeys(
        ("hidden", "embed", "heads", "attention_hidden", "head_hidden", "head_layers",
         "epochs", "patience", "sse_dim"), 1)}
    for key, low in lows.items():
        if not getattr(config, key) >= low:
            raise ConfigError(f"{key} must be >= {low}, got {getattr(config, key)}")
    if not config.lr > 0:
        raise ConfigError(f"lr must be > 0, got {config.lr}")
    t0 = time.time()
    if task == "sign" and not (np.any(g.weight > 0) and np.any(g.weight < 0)):
        raise DegenerateTaskError("sign prediction needs both positive and negative edges")
    if task == "signed-weight" and not np.any(g.weight < 0):
        raise DegenerateTaskError("signed weight prediction needs negative edges")
    g = normalize_weights(g, "unit_abs" if task == "weight" else "signed_unit")
    split = split_edges(g, config.train_fraction, config.seed)
    _check_hygiene(split)
    tg = split.train_graph
    model = TaskModel(task, tg, config)
    pos_pairs = np.column_stack([tg.src, tg.dst])
    pairs = np.vstack([pos_pairs, split.train_neg])
    rng = np.random.default_rng(config.seed + 1)

    if task == "sign":
        # class 0 positive, 1 negative, 2 non-existent
        labels = np.concatenate([np.where(tg.weight > 0, 0, 1),
                                 np.full(len(split.train_neg), 2)])
        batches = _val_slice(len(pairs), config.val_fraction, rng)

        def loss_fn(emb, idx):
            return cross_entropy(model.sign_logits(emb, pairs[idx]), labels[idx])
    else:
        exist_labels = np.concatenate([np.ones(len(pos_pairs)), np.zeros(len(split.train_neg))])
        # the positive slice is drawn first; |train_neg| = |train edges|, so
        # both slices fall back to the train slice together
        slices = zip(_val_slice(len(pos_pairs), config.val_fraction, rng),
                     _val_slice(len(split.train_neg), config.val_fraction, rng))
        batches = [(np.concatenate([p, q + len(pos_pairs)]), p) for p, q in slices]

        def loss_fn(emb, batch):
            idx, p = batch
            bce = bce_with_logits(model.existence_logits(emb, pairs[idx]),
                                  Tensor(exist_labels[idx]))
            w_loss = mse(model.weight_values(emb, pos_pairs[p]), Tensor(tg.weight[p]))
            return ad.add(bce, ad.mul(w_loss, config.lambda_weight))

    epochs_run, history = _train_loop(model, loss_fn, batches, config)
    report = evaluate(model, split, task, dataset=dataset,
                      epochs_run=epochs_run, wall_s=time.time() - t0)
    report.history = history
    return model, report
