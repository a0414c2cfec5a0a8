"""Acceptance criteria, one test per criterion, each printing a pass line.

Criteria 4-6 and 8 need the real trust-network datasets. This environment
has no way to download them, so those tests skip with an explanation when
the files are absent; drop the raw files into ./data (or WSGAT_DATA_DIR)
to run them. Everything else runs unconditionally.
"""

import os
import time

import numpy as np
import pytest

from wsgat import verify
from wsgat.autodiff import Tensor, Tape
from wsgat.graph import load_edge_list
from wsgat.layer import WsGatLayer
from wsgat.metrics import roc_auc, f1_score, mean_absolute_error
from wsgat.pipelines import TrainConfig, train

DATA_DIR = os.environ.get("WSGAT_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data"))


def dataset_path(name):
    """Raw dataset file if present, else None (real datasets are not shipped)."""
    candidates = {
        "bitcoin-alpha": ["soc-sign-bitcoinalpha.csv", "bitcoin-alpha.csv", "bitcoin-alpha.tsv"],
        "bitcoin-otc": ["soc-sign-bitcoinotc.csv", "bitcoin-otc.csv", "bitcoin-otc.tsv"],
        "advogato": ["advogato.tsv", "advogato.edges"],
        "epinions": ["epinions.tsv", "soc-sign-epinions.txt"],
    }
    for fname in candidates[name]:
        p = os.path.join(DATA_DIR, fname)
        if os.path.exists(p):
            return p
    return None


def require_dataset(name):
    p = dataset_path(name)
    if p is None:
        pytest.skip(f"dataset {name} not present under {os.path.abspath(DATA_DIR)} "
                    "(the package downloads nothing; place the raw file there to run)")
    return p


def benchmark_config(seed, features="degree_onehot_log"):
    """Defaults used for the dataset-scale criteria."""
    return TrainConfig(layers=2, hidden=64, embed=64, heads=1, attention_hidden=32,
                       head_hidden=100, head_layers=3, lr=1e-3, epochs=300,
                       patience=30, features=features, sse_dim=32, feature_dim=8,
                       seed=seed)


def load_dataset(name):
    return load_edge_list(require_dataset(name))


def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    failures = verify.run_suite("gradcheck")
    elapsed = time.time() - t0
    assert not failures, failures
    assert elapsed < 60, f"gradcheck took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 gradient fidelity: PASS ({elapsed:.1f}s)")


def test_criterion_2_dense_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 11))
        g = verify.random_graph(rng, n)
        heads = int(rng.integers(1, 4))
        merge = "concat" if trial % 2 == 0 else "mean"
        layer = WsGatLayer(Tape(seed=trial), "l", 4, 3, heads=heads, head_merge=merge,
                           attention_hidden=6)
        H = rng.standard_normal((n, 4))
        sparse = layer.forward(Tensor(H), g).values
        dense = verify.dense_layer_reference(layer, H, g)
        worst = max(worst, float(np.max(np.abs(sparse - dense))))
    elapsed = time.time() - t0
    assert worst < 1e-10, worst
    assert elapsed < 60, f"dense-oracle run took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 dense-oracle equivalence: PASS (max diff {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_attention_invariants():
    rng = np.random.default_rng(77)
    worst_mass = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 11))
        g = verify.random_graph(rng, n)
        layer = WsGatLayer(Tape(seed=trial), "l", 3, 3, attention_hidden=5)
        H = Tensor(rng.standard_normal((n, 3)))
        logits = layer.attention_logits(0, H, g)
        alpha = layer.attention_coefficients(0, logits, g).values
        assert np.all(np.abs(alpha) <= 1.0 + 1e-12)
        _, dst, _ = layer.edge_arrays(g)
        mass = np.zeros(n)
        np.add.at(mass, dst, np.abs(alpha))
        worst_mass = max(worst_mass, float(np.max(np.abs(mass - 1.0))))
    assert worst_mass <= 1e-10, worst_mass
    print(f"\nACCEPTANCE 3 attention invariants: PASS (max |sum|alpha|-1| {worst_mass:.2e})")


@pytest.mark.slow
def test_criterion_4_sign_prediction_bitcoin():
    results = {}
    for name, auc_floor, f1_floor in (("bitcoin-alpha", 0.80, 0.94),
                                      ("bitcoin-otc", 0.81, None)):
        g = load_dataset(name)
        aucs, f1s = [], []
        for seed in range(5):
            _, rep = train("sign", g, benchmark_config(seed, features="sse"), dataset=name)
            aucs.append(rep.roc_auc)
            f1s.append(rep.f1)
        results[name] = (np.mean(aucs), np.mean(f1s))
        assert np.mean(aucs) >= auc_floor, results
        if f1_floor is not None:
            assert np.mean(f1s) >= f1_floor, results
    print(f"\nACCEPTANCE 4 sign prediction: PASS {results}")


@pytest.mark.slow
def test_criterion_5_weight_prediction():
    results = {}
    for name, auc_floor, mae_cap, symmetrize in (("advogato", 0.88, 0.16, True),
                                                 ("bitcoin-alpha", 0.89, 0.16, False)):
        g = load_edge_list(require_dataset(name), symmetrize=symmetrize)
        aucs, maes = [], []
        for seed in range(5):
            _, rep = train("weight", g, benchmark_config(seed), dataset=name)
            aucs.append(rep.roc_auc)
            maes.append(rep.mae)
        results[name] = (np.mean(aucs), np.mean(maes))
        assert np.mean(aucs) >= auc_floor, results
        assert np.mean(maes) <= mae_cap, results
    print(f"\nACCEPTANCE 5 weight prediction: PASS {results}")


@pytest.mark.slow
def test_criterion_6_signed_weight_prediction():
    results = {}
    for name in ("bitcoin-alpha", "bitcoin-otc"):
        g = load_dataset(name)
        aucs, maes, unsigned_aucs = [], [], []
        for seed in range(5):
            _, rep = train("signed-weight", g, benchmark_config(seed), dataset=name)
            aucs.append(rep.roc_auc)
            maes.append(rep.mae)
            _, rep_u = train("weight", g, benchmark_config(seed), dataset=name)
            unsigned_aucs.append(rep_u.roc_auc)
        results[name] = (np.mean(aucs), np.mean(maes), np.mean(unsigned_aucs))
        assert np.mean(aucs) >= 0.89, results
        assert np.mean(maes) <= 0.10, results
        assert abs(np.mean(aucs) - np.mean(unsigned_aucs)) <= 0.02, results
    print(f"\nACCEPTANCE 6 signed weight prediction: PASS {results}")


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.standard_normal(n), 1)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == verify.auc_pairwise_oracle(scores, labels)
        pred = rng.integers(0, 2, n)
        assert f1_score(pred, labels) == verify.f1_oracle(pred, labels)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert abs(mean_absolute_error(a, b) - verify.mae_oracle(a, b)) < 1e-15
    # closed form: all-positive predictor at positive rate p gives 2p/(1+p)
    p = 0.8998
    n = 10000
    labels = np.zeros(n, dtype=int)
    labels[: int(round(p * n))] = 1
    f1 = f1_score(np.ones(n, dtype=int), labels)
    assert f1 == pytest.approx(0.9472, abs=1e-4)
    print(f"\nACCEPTANCE 7 metric oracles: PASS (closed-form f1 {f1:.4f})")


@pytest.mark.slow
def test_criterion_8_epinions_full_run():
    g = load_dataset("epinions")
    t0 = time.time()
    cfg = benchmark_config(0, features="sse")
    cfg.epochs = 50  # completion-without-fault criterion, no metric threshold
    _, rep = train("sign", g, cfg, dataset="epinions")
    elapsed = time.time() - t0
    assert elapsed <= 7200, f"epinions run took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 8 epinions full run: PASS (auc {rep.roc_auc:.3f}, {elapsed:.0f}s)")
