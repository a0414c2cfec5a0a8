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

Every loss and every evaluation computes the embeddings and each head's node
rows (Mlp.rows) once, then runs the head's pair stage over the chunks of
pairs autodiff.chunks gives, so a head's activations take chunk-sized memory,
not pair-count-sized. A training loss runs the chunks on leaf copies of the
rows and sweeps each backward at once, adding into one gradient array that
each leaf owns, only the rows its pairs touch when the chunk has fewer pairs
than the graph has nodes; one last sweep, from an autodiff.relay
node, carries the gradients the leaves gathered through the rows and the GNN.
Each row is freed there once it has passed its gradient on, before the GNN's
layers, each one autodiff.recompute node, run again.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, fields, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Tape, Adam
from .errors import ConfigError, DegenerateTaskError
from .graph import _member, normalize_weights, pair_keys, split_edges
from .layer import ACTIVATIONS, Mlp, WsGatStack, pair_features
from .metrics import roc_auc, f1_score, mean_absolute_error
from .spectral import signed_spectral_embedding, fallback_features

TASKS = ("sign", "weight", "signed-weight")
FEATURES = ("degree_onehot_log", "sse", "random_normal")


@dataclass(frozen=True)
class TrainConfig:
    """Every training setting, each type and range checked when built
    (ConfigError). Frozen, so one that exists is valid; derive a variant with
    ``dataclasses.replace``."""

    layers: int = 2
    hidden: int = 64
    embed: int = 64
    heads: int = 1
    attention_hidden: int = 32
    activation: str = "elu"
    projection: bool = True
    self_loop_weight: float = 1.0
    features: str = "degree_onehot_log"  # one of FEATURES
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

    def __post_init__(self):
        # each key takes its default's type, a float key an int too; bool is
        # an int to Python but is no int or float setting here
        for f in fields(self):
            v, kind = getattr(self, f.name), type(f.default)
            if (not isinstance(v, (int, float) if kind is float else kind)
                    or (isinstance(v, bool) and kind is not bool)):
                raise ConfigError(f"{f.name} must be {kind.__name__}, got {v!r}")
            if kind is float:  # lr=1 and lr=1.0 are one config with one digest
                object.__setattr__(self, f.name, float(v))
        # one rule per numeric key; every comparison is false for nan
        rules = [(("hidden", "embed", "heads", "attention_hidden", "head_hidden", "head_layers",
                   "epochs", "patience", "feature_dim", "sse_dim"), lambda v: v >= 1, ">= 1"),
                 (("layers", "seed"), lambda v: v >= 0, ">= 0"),
                 (("lr",), lambda v: 0 < v < np.inf, "finite and > 0"),
                 (("lambda_weight",), lambda v: 0 <= v < np.inf, "finite and >= 0"),
                 (("self_loop_weight",), lambda v: -np.inf < v < np.inf, "finite"),
                 (("train_fraction",), lambda v: 0 < v < 1, "in (0, 1)"),
                 (("val_fraction",), lambda v: 0 <= v < 1, "in [0, 1)")]
        for keys, ok, rule in rules:
            for key in keys:
                if not ok(getattr(self, key)):
                    raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)}")
        if self.features not in FEATURES:
            raise ConfigError(f"unknown feature kind {self.features!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    def digest(self):
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def csv_row(values):
    """``values`` as one CSV line without its newline, quoted where a value needs it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(values)
    return buf.getvalue()[:-1]


@dataclass
class EvalReport:
    CSV_HEADER = ("task", "dataset", "seed", "auc", "f1", "mae")  # to_csv_row's columns

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
        return csv_row([self.task, self.dataset, self.seed, f"{self.roc_auc:.6f}",
                        f"{self.f1:.6f}", mae])


class PairHead(Mlp):
    """MLP over pairs of node embeddings: tanh between its layers, ``out_act``
    (an activation name, or None: linear) after the last. It runs in an
    ``Mlp``'s two stages: ``rows = head.rows(emb)`` once, then ``head(rows, s,
    d)``, the pair stage, per chunk of pairs' two node columns ``s`` and ``d``."""

    def __init__(self, tape, prefix, sizes, out_act=None):
        super().__init__(tape, prefix, sizes, "tanh", out_act)

    # its own attribute, so a profiler can wrap the heads and not the attention MLPs
    __call__ = Mlp.over_pairs


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
        self.stack = WsGatStack(self.tape, self.X.shape[1], config)
        sizes = [2 * self.stack.out_width] + [config.head_hidden] * (config.head_layers - 1)
        if task == "sign":
            self.sign_head = PairHead(self.tape, "sign_head", sizes + [3])
        else:
            self.exist_head = PairHead(self.tape, "exist_head", sizes + [1])
            self.weight_head = PairHead(self.tape, "weight_head", sizes + [1],
                                        "tanh" if task == "signed-weight" else None)

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
        """``emb[s] || emb[d]`` per pair: the dense reference of a head's input,
        which the heads themselves never build."""
        return pair_features(emb, pairs[:, 0], pairs[:, 1])

    def parameter_arrays(self):
        return {k: v.values.copy() for k, v in self.tape.params.items()}

    def load_parameter_arrays(self, arrays):
        """Set every parameter from ``arrays`` (name -> array).

        Raises ValueError for a missing or unexpected name, a shape that
        differs from the model's or a NaN or inf value; every array is checked
        first, so a failed load changes nothing.
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
            if not np.isfinite(loaded[k]).all():
                raise ValueError(f"parameter {k!r} holds NaN or inf")
        for k, v in self.tape.params.items():
            v.values = loaded[k]


def bce_with_logits(logits, labels):
    """mean(softplus(z) - z*y), the stable binary cross-entropy, of a head's
    logit column z and the array of 0/1 labels y."""
    z = ad.squeeze_col(logits)
    return ad.mean_(ad.sub(ad.softplus(z), ad.mul(z, labels)))


def mse(pred, target):
    """mean((p - t)^2) of a head's output column p and the array t."""
    diff = ad.sub(ad.squeeze_col(pred), target)
    return ad.mean_(ad.mul(diff, diff))


def cross_entropy(logits, labels):
    logp = ad.log_softmax_rows(logits)
    onehot = np.eye(logits.shape[1])[np.asarray(labels, dtype=np.int64)]
    picked = ad.mul(logp, onehot)
    return ad.mul(ad.sum_(picked), -1.0 / len(labels))


def _val_slice(n, frac, rng):
    """Front/back split of a shuffled index range: (train_idx, val_idx).

    frac=0 leaves no validation slice; val_idx is then train_idx, so early
    stopping monitors the train loss.
    """
    perm = rng.permutation(n)
    n_val = int(np.floor(frac * n))
    if frac > 0 and n > 1:
        n_val = max(1, n_val)
    if n_val == 0:
        return perm, perm
    return perm[n_val:], perm[:n_val]


def _pair_loss(model, terms, sweep):
    """The loss ``sum(weight * loss(head output, targets))`` over ``terms`` of
    (head, pairs, targets, loss, weight), as a float. With ``sweep``, every
    parameter's gradient too: the tape's gradients are cleared first, so they
    hold this loss's gradients alone.

    The embeddings are computed once, and each term's node rows (head.rows)
    just before its chunks. Each chunk, a slice of the pairs from
    autodiff.chunks, runs the head on leaf copies of the rows, weighted by its
    share of the pairs, and is swept backward and freed before the next, so the
    leaves and the head weights gather the chunks' gradients, each tensor in
    one array it allocates at its first sum and then adds into in place. A
    chunk of fewer pairs than there are nodes hands a leaf only the rows its
    pairs touch (autodiff's row-sparse scatter), so it makes no node-sized
    array for it. A last sweep,
    from an autodiff.relay node that moves each leaf's gradient to its row,
    carries them through the rows and the GNN and frees each once its row has
    passed it on; the rows themselves are freed then too, before the GNN's
    layers run again.
    """
    if sweep:
        model.tape.reset()
    emb = model.embeddings()
    rows, leaves, total = [], [], 0.0
    for head, pairs, targets, loss, weight in terms:
        rows += head.rows(emb)  # the pair (H W_a + b0, H W_b)
        # the rows' nodes have checked these values already
        leaves += [Tensor(r.values, requires_grad=True, check=False) for r in rows[-2:]]
        for part in ad.chunks(len(pairs)):
            out = head(leaves[-2:], pairs[part, 0], pairs[part, 1])
            chunk = ad.mul(loss(out, targets[part]), weight * (len(out.values) / len(pairs)))
            if sweep:
                ad.backward(chunk)
            total += float(chunk.values)
            del out, chunk  # the graph behind it must not live through the next chunk
    if sweep:
        # rows and leaves in term order, each head's first row before its
        # second: the order in which one graph over all pairs adds their gradients
        root = ad.relay(total, rows, leaves)
        # the relay node is then the rows' only holder, so the sweep frees each
        # row once it has passed its gradient on, before the GNN's layers rerun
        del rows, leaves
        ad.backward(root)
    return total


def _train_loop(model, train_terms, val_terms, config):
    """Full-batch Adam on the _pair_loss of ``train_terms``, with early stopping
    on that of ``val_terms`` (the same list when there is no validation slice).
    The swept train loss clears the gradients it fills, so each step reads one
    epoch's gradients. Returns the train loss history, one entry per epoch run.
    """
    opt = Adam(model.tape.params.values(), lr=config.lr)
    best_val = np.inf
    best_params = model.parameter_arrays()
    bad_epochs = 0
    history = []
    for _ in range(config.epochs):
        history.append(_pair_loss(model, train_terms, sweep=True))
        opt.step()
        val = _pair_loss(model, val_terms, sweep=False)
        if val < best_val - 1e-12:
            best_val = val
            best_params = model.parameter_arrays()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    model.load_parameter_arrays(best_params)
    return history


def _check_hygiene(split):
    # only whether any pair is a train edge matters, so the pairs are sorted
    # too: binary searches for ascending keys run several times faster
    train, n = np.sort(split.train_graph.edge_keys()), split.train_graph.num_nodes
    if _member(np.sort(pair_keys(split.test_pos[:, 0], split.test_pos[:, 1], n)), train).any():
        raise RuntimeError("test positives leaked into training edges")
    if _member(np.sort(pair_keys(split.test_neg[:, 0], split.test_neg[:, 1], n)), train).any():
        raise RuntimeError("test negatives collide with training edges")


def _head_values(head, emb, pairs):
    """The head's output over ``pairs`` as an array, one row per pair; its node
    rows are computed once for all chunks. No chunk's graph outlives its values."""
    rows = head.rows(emb)
    return np.concatenate([head(rows, pairs[part, 0], pairs[part, 1]).values
                           for part in ad.chunks(len(pairs))])


def evaluate(model, split, task, dataset="unknown", epochs_run=0, wall_s=0.0):
    """Deterministic scoring of a trained model on a held-out split."""
    if task != model.task:
        raise ValueError(f"model trained for {model.task!r}, asked to evaluate {task!r}")
    emb = model.embeddings()
    test_pos_pairs = split.test_pos[:, :2].astype(np.int64)
    test_w = split.test_pos[:, 2]

    if task == "sign":
        logits = _head_values(model.sign_head, emb, test_pos_pairs)
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
        scores = 1.0 / (1.0 + np.exp(-_head_values(model.exist_head, emb, pairs)[:, 0]))
        auc = roc_auc(scores, labels)
        f1 = f1_score((scores >= 0.5).astype(int), labels.astype(int))
        pred_w = _head_values(model.weight_head, emb, test_pos_pairs)[:, 0]
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
        terms = [(model.sign_head, pairs, labels, cross_entropy, 1.0)]
        slices = [[idx] for idx in _val_slice(len(pairs), config.val_fraction, rng)]
    else:
        exist_labels = np.concatenate([np.ones(len(pos_pairs)), np.zeros(len(split.train_neg))])
        terms = [(model.exist_head, pairs, exist_labels, bce_with_logits, 1.0),
                 (model.weight_head, pos_pairs, tg.weight, mse, config.lambda_weight)]
        # the positive slice is drawn first; |train_neg| = |train edges|, so
        # both slices fall back to the train slice together
        slices = [[np.concatenate([p, q + len(pos_pairs)]), p]
                  for p, q in zip(_val_slice(len(pos_pairs), config.val_fraction, rng),
                                  _val_slice(len(split.train_neg), config.val_fraction, rng))]
    # the train and validation term lists, each term's pairs and targets taken
    # at its slice's indices; with val_fraction 0 the validation slice is the
    # train slice, and the validation list the train list itself
    term_lists = [[(head, p[i], y[i], loss, weight)
                   for (head, p, y, loss, weight), i in zip(terms, idx)]
                  for idx in slices[:1 if config.val_fraction == 0 else 2]]
    history = _train_loop(model, term_lists[0], term_lists[-1], config)
    report = evaluate(model, split, task, dataset=dataset,
                      epochs_run=len(history), wall_s=time.time() - t0)
    report.history = history
    return model, report
