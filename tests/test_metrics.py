import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsgat.errors import UndefinedMetricError
from wsgat.metrics import roc_auc, f1_score, mean_absolute_error
from wsgat.verify import auc_pairwise_oracle, f1_oracle, mae_oracle


def test_auc_perfect_ranking():
    assert roc_auc([0.9, 0.8, 0.3], [1, 1, 0]) == 1.0


def test_auc_half_from_pairwise_counting():
    # of the two (pos, neg) pairs exactly one is ranked correctly
    assert roc_auc([0.9, 0.2, 0.5], [1, 1, 0]) == 0.5


def test_auc_all_ties():
    assert roc_auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.1, 0.2], [1, 1])


def test_auc_nan_score_rejected():
    with pytest.raises(ValueError, match="NaN"):
        roc_auc([0.1, np.nan, 0.3], [1, 0, 1])


def test_auc_label_outside_0_1_rejected():
    # a label 2 is neither class; counted as neither it gave AUC 2.0
    with pytest.raises(ValueError, match="0 or 1"):
        roc_auc([0.1, 0.9, 0.5], [0, 1, 2])


def test_auc_matches_bruteforce_on_1000_instances():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.standard_normal(n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == auc_pairwise_oracle(scores, labels)


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(60)
    labels = rng.integers(0, 2, 60)
    labels[:2] = [0, 1]
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == base
    assert roc_auc(2.5 * scores - 7, labels) == base


def test_auc_complement_identity():
    rng = np.random.default_rng(2)
    scores = np.round(rng.standard_normal(40), 1)
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    assert roc_auc(scores, labels) + roc_auc(scores, 1 - labels) == 1.0


def test_f1_perfect():
    assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0


def test_f1_harmonic_mean():
    # precision 0.5, recall 1.0 -> 2/3
    assert f1_score([1, 1], [1, 0]) == pytest.approx(2 / 3)


def test_f1_zero_when_no_positive_anywhere():
    assert f1_score([0, 0], [0, 0]) == 0.0


def test_f1_all_positive_predictor_closed_form():
    # p = 0.8998 positive rate: F1 = 2p / (1 + p)
    n = 10000
    p = 0.8998
    labels = np.zeros(n, dtype=int)
    labels[: int(round(p * n))] = 1
    pred = np.ones(n, dtype=int)
    expect = 2 * p / (1 + p)
    assert f1_score(pred, labels) == pytest.approx(expect, abs=1e-4)
    assert expect == pytest.approx(0.9472, abs=1e-4)


@pytest.mark.parametrize("pred, labels", [([1, 1, 0], [1, 2, 1]), ([1, -1, 0], [1, 0, 1]),
                                           ([0.5, 1], [1, 1])])
def test_f1_value_outside_0_1_rejected(pred, labels):
    with pytest.raises(ValueError, match="0 or 1"):
        f1_score(pred, labels)


def test_f1_matches_bruteforce_on_1000_instances():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        pred = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        assert f1_score(pred, labels) == f1_oracle(pred, labels)


def test_mae_identical():
    assert mean_absolute_error([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_mae_simple():
    assert mean_absolute_error([1.0, 2.0], [0.0, 4.0]) == 1.5


def test_mae_length_mismatch():
    with pytest.raises(ValueError):
        mean_absolute_error([1.0], [1.0, 2.0])


def test_mae_matches_bruteforce_on_1000_instances():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert mean_absolute_error(a, b) == pytest.approx(mae_oracle(a, b), abs=1e-15)


@given(st.lists(st.tuples(st.floats(-10, 10), st.integers(0, 1)), min_size=2, max_size=50))
@settings(max_examples=300, deadline=None)
def test_auc_property_vs_oracle(pairs):
    scores = [s for s, _ in pairs]
    labels = [y for _, y in pairs]
    if len(set(labels)) < 2:
        labels[0] = 1 - labels[0]
    assert roc_auc(scores, labels) == auc_pairwise_oracle(scores, labels)
