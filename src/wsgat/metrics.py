"""Exact ROC AUC (Mann-Whitney with half-credit ties), F1, and MAE."""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError


def roc_auc(scores, labels):
    """P(score+ > score-) + 0.5 * P(tie), computed via average ranks.

    Bit-reproducible; invariant under strictly monotone score transforms.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d sequences")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC AUC needs both classes present")

    # a run of tied scores fills sorted positions [start, end); each member
    # gets the run's average 1-based rank
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    start = end - counts
    ranks = (0.5 * (start + end - 1) + 1.0)[inverse]
    rank_sum_pos = float(ranks[labels == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def f1_score(pred, labels):
    """Binary F1 on the positive class; 0 when precision + recall = 0."""
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    if pred.shape != labels.shape or len(pred) == 0:
        raise ValueError("pred and labels must be equal-length nonempty sequences")
    tp = int(np.sum((pred == 1) & (labels == 1)))
    fp = int(np.sum((pred == 1) & (labels == 0)))
    fn = int(np.sum((pred == 0) & (labels == 1)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


def mean_absolute_error(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or len(pred) == 0:
        raise ValueError("pred and truth must be equal-length nonempty sequences")
    return float(np.mean(np.abs(pred - truth)))
