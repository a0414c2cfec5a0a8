import weakref

import numpy as np
import pytest

from wsgat import pipelines
from wsgat.errors import DegenerateTaskError
from wsgat.graph import SignedWeightedGraph, normalize_weights, split_edges
from wsgat.metrics import roc_auc
from wsgat.pipelines import TrainConfig, _val_slice, evaluate, train

from wsgat.verify import random_graph


def tiny_config(**kw):
    base = dict(layers=1, hidden=8, embed=8, heads=1, attention_hidden=8,
                head_hidden=24, feature_dim=6, lr=3e-2, epochs=120, patience=120,
                val_fraction=0.1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_sign_task_rejects_single_sign_graph():
    g = SignedWeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, 2.0])
    with pytest.raises(DegenerateTaskError):
        train("sign", g, tiny_config())


def test_signed_weight_task_rejects_all_positive_graph():
    g = SignedWeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, 2.0])
    with pytest.raises(DegenerateTaskError):
        train("signed-weight", g, tiny_config())


def test_unknown_task_rejected():
    g = SignedWeightedGraph.from_edges(3, [0, 1], [1, 2], [1.0, -2.0])
    with pytest.raises(ValueError, match="unknown task"):
        train("bogus", g, tiny_config())


def test_val_slice_without_validation_monitors_train():
    train_idx, val_idx = _val_slice(10, 0.0, np.random.default_rng(0))
    assert sorted(train_idx) == list(range(10))
    assert np.array_equal(val_idx, train_idx)


@pytest.mark.parametrize("task", ["sign", "weight", "signed-weight"])
def test_each_loss_graph_is_freed_before_the_next_forward(monkeypatch, task):
    train_loop, losses = pipelines._train_loop, []

    def watched_train_loop(model, loss_fn, batches, config):
        def watched_loss_fn(emb, batch):
            assert all(ref() is None for ref in losses), "an earlier loss is still alive"
            loss = loss_fn(emb, batch)
            losses.append(weakref.ref(loss))
            return loss

        return train_loop(model, watched_loss_fn, batches, config)

    monkeypatch.setattr(pipelines, "_train_loop", watched_train_loop)
    train(task, random_graph(np.random.default_rng(4), 12, 0.35), tiny_config(epochs=3))
    assert len(losses) == 6  # a train and a validation loss per epoch


def test_sign_overfit_on_balanced_toy():
    # overfit sanity oracle: training AUC on the fitted model's own edges
    g = random_graph(np.random.default_rng(21), 14, 0.35)
    cfg = tiny_config(features="sse", sse_dim=8, epochs=200, patience=200, val_fraction=0.0, seed=3)
    model, report = train("sign", g, cfg)
    tg = model.graph
    pairs = np.column_stack([tg.src, tg.dst])
    labels = (tg.weight > 0).astype(int)
    logits = model.sign_logits(model.embeddings(), pairs).values
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    assert roc_auc(p[:, 0], labels) >= 0.99


def test_weight_regression_to_constant():
    # all weights 0.7: MAE on train edges must collapse below 0.05
    rng = np.random.default_rng(0)
    src, dst = [], []
    for i in range(12):
        for j in range(12):
            if i != j and rng.random() < 0.4:
                src.append(i)
                dst.append(j)
    g = SignedWeightedGraph.from_edges(12, src, dst, [0.7] * len(src))
    model, report = train("weight", g, tiny_config(epochs=150, patience=150, val_fraction=0.0))
    tg = model.graph
    pairs = np.column_stack([tg.src, tg.dst])
    pred = model.weight_values(model.embeddings(), pairs).values
    # unit_abs normalization maps the constant 0.7 to 1.0
    assert np.mean(np.abs(pred - tg.weight)) < 0.05
    assert report.mae is not None


def test_signed_weight_sign_consistency_on_toy():
    g = random_graph(np.random.default_rng(5), 14, 0.35)
    cfg = tiny_config(epochs=250, patience=250, lambda_weight=4.0, val_fraction=0.0, seed=2)
    model, _ = train("signed-weight", g, cfg)
    tg = model.graph
    pairs = np.column_stack([tg.src, tg.dst])
    pred = model.weight_values(model.embeddings(), pairs).values
    agree = np.mean(np.sign(pred) == np.sign(tg.weight))
    assert agree >= 0.90


def test_determinism_bitwise():
    g = random_graph(np.random.default_rng(9), 12, 0.35)
    cfg = tiny_config(epochs=20, seed=7)
    _, r1 = train("signed-weight", g, cfg)
    _, r2 = train("signed-weight", g, tiny_config(epochs=20, seed=7))
    assert r1.roc_auc == r2.roc_auc
    assert r1.f1 == r2.f1
    assert r1.mae == r2.mae
    assert r1.config_digest == r2.config_digest


def test_loss_monotonicity():
    g = random_graph(np.random.default_rng(2), 12, 0.35)
    _, report = train("weight", g, tiny_config(epochs=25, patience=25))
    assert report.history[19] < report.history[0]


def test_training_batches_balanced():
    g = random_graph(np.random.default_rng(3), 15, 0.3)
    split = split_edges(normalize_weights(g, "unit_abs"), 0.8, seed=0)
    assert len(split.train_neg) == split.train_graph.num_edges
    assert len(split.test_neg) == len(split.test_pos)


def test_report_serialization_roundtrip():
    import json
    g = random_graph(np.random.default_rng(9), 12, 0.35)
    _, r = train("weight", g, tiny_config(epochs=5, patience=5))
    rec = json.loads(r.to_json_line())
    assert rec["task"] == "weight"
    assert 0.0 <= rec["auc"] <= 1.0
    assert 0.0 <= rec["f1"] <= 1.0
    assert rec["mae"] >= 0.0
    row = r.to_csv_row().split(",")
    assert len(row) == 6


class StubModel:
    """Stands in for TaskModel in evaluate(); scores are injected functions."""

    class _Cfg:
        def digest(self):
            return "stub"

    def __init__(self, task, exist_fn, weight_fn=None):
        self.task = task
        self.config = self._Cfg()
        self._exist_fn = exist_fn
        self._weight_fn = weight_fn

    def embeddings(self):
        return None

    def existence_logits(self, emb, pairs):
        class T:
            pass
        t = T()
        t.values = np.array([self._exist_fn(int(s), int(d)) for s, d in pairs])
        return t

    def weight_values(self, emb, pairs):
        class T:
            pass
        t = T()
        t.values = np.array([self._weight_fn(int(s), int(d)) for s, d in pairs])
        return t


def make_split():
    g = random_graph(np.random.default_rng(4), 10, 0.4)
    return split_edges(normalize_weights(g, "unit_abs"), 0.8, seed=1)


def test_evaluate_perfect_model():
    split = make_split()
    pos = {(int(s), int(d)) for s, d, _ in split.test_pos}
    truth = {(int(s), int(d)): w for s, d, w in split.test_pos}
    model = StubModel("weight",
                      exist_fn=lambda s, d: 10.0 if (s, d) in pos else -10.0,
                      weight_fn=lambda s, d: truth.get((s, d), 0.0))
    r = evaluate(model, split, "weight")
    assert r.roc_auc == 1.0
    assert r.f1 == 1.0
    assert r.mae == 0.0


def test_evaluate_constant_model_auc_half():
    split = make_split()
    model = StubModel("weight", exist_fn=lambda s, d: 0.0, weight_fn=lambda s, d: 0.0)
    r = evaluate(model, split, "weight")
    assert r.roc_auc == 0.5


def test_evaluate_task_mismatch():
    split = make_split()
    model = StubModel("weight", exist_fn=lambda s, d: 0.0, weight_fn=lambda s, d: 0.0)
    with pytest.raises(ValueError):
        evaluate(model, split, "sign")


def test_evaluate_hand_built_six_examples():
    # 3 test positives, 3 test negatives with hand-chosen scores; AUC from
    # pairwise counting: pos scores [.9,.6,.2], neg [.8,.3,.1] -> 6/9 wins
    g = SignedWeightedGraph.from_edges(
        6, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 0, 2, 4, 1],
        [1, 2, 3, 4, 5, 2, 3, 4, 5, 0, 1, 3, 5, 2, 5],
        [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.4, 0.6, 0.7, 0.8],
    )
    split = split_edges(g, 0.8, seed=2)
    # overwrite to exactly 3 pos / 3 neg
    split = type(split)(split.train_graph, split.test_pos[:3], split.train_neg,
                        split.test_neg[:3], split.seed)
    scores = [0.9, 0.6, 0.2, 0.8, 0.3, 0.1]
    table = {}
    for (s, d, _), sc in zip(split.test_pos, scores[:3]):
        table[(int(s), int(d))] = sc
    for (s, d), sc in zip(split.test_neg, scores[3:]):
        table[(int(s), int(d))] = sc
    # logits = logit(score) so that sigmoid recovers the intended score
    model = StubModel("weight",
                      exist_fn=lambda s, d: np.log(table[(s, d)] / (1 - table[(s, d)])),
                      weight_fn=lambda s, d: 0.0)
    r = evaluate(model, split, "weight")
    assert r.roc_auc == pytest.approx(6 / 9)
    # threshold 0.5: predicted positive = {.9,.6,.8}, tp=2, fp=1, fn=1
    assert r.f1 == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))
