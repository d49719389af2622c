"""Clustering evaluation.

Normalized mutual information, Hungarian-mapped clustering accuracy, and
a rank-correlation diagnostic for recovered worker reliabilities.  All
functions are pure and operate on integer label arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import spearmanr

from .relational import expected_worker_weights


def contingency_table(pred, true) -> np.ndarray:
    """Joint counts, one row per distinct predicted label and one column
    per distinct true label (both in sorted label order)."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.ndim != 1 or pred.shape != true.shape:
        raise ValueError("need two equal-length 1-d label arrays")
    if pred.size == 0:
        raise ValueError("need at least one item")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(true, return_inverse=True)
    counts = np.zeros((pi.max() + 1, ti.max() + 1), dtype=int)
    np.add.at(counts, (pi, ti), 1)
    return counts


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def nmi(pred, true) -> float:
    """Normalized mutual information with geometric-mean normalization.

    Degenerate single-cluster cases: 1 when both partitions are the
    single-cluster partition, 0 when only one of them is.
    """
    counts = contingency_table(pred, true).astype(float)
    n = counts.sum()
    if counts.shape[0] == 1 and counts.shape[1] == 1:
        return 1.0
    if counts.shape[0] == 1 or counts.shape[1] == 1:
        return 0.0
    pu = counts.sum(axis=1) / n
    pv = counts.sum(axis=0) / n
    joint = counts / n
    mask = joint > 0
    outer = pu[:, None] * pv[None, :]
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    value = mi / np.sqrt(_entropy(pu) * _entropy(pv))
    return float(min(max(value, 0.0), 1.0))


def clustering_accuracy(pred, true) -> float:
    """Fraction of items matched under the best one-to-one mapping from
    predicted to true labels (Hungarian on the contingency table, as the
    least-cost assignment of the negated counts)."""
    counts = contingency_table(pred, true)
    rows, cols = linear_sum_assignment(-counts)
    return int(counts[rows, cols].sum()) / float(counts.sum())


def worker_weight_recovery(estimated, true) -> float:
    """Spearman rank correlation between estimated and true worker weights.

    Either argument may be a weight array or anything with the worker
    protocol's `log_stats()`: the `BetaWorkers` posterior either trainer
    learns, or the true `data.WorkerPool`.
    """
    est = _as_weights(estimated)
    ref = _as_weights(true)
    if est.shape != ref.shape or est.ndim != 1:
        raise ValueError("need matching 1-d weight collections")
    if est.shape[0] < 2:
        raise ValueError("need at least two workers to rank")
    for name, weights in (("estimated", est), ("true", ref)):
        if not (np.all(np.isfinite(weights)) and np.ptp(weights) > 0):
            raise ValueError(f"{name} weights must be finite and not all equal")
    return float(spearmanr(est, ref).statistic)


def _as_weights(x) -> np.ndarray:
    if hasattr(x, "log_stats"):
        return expected_worker_weights(x)
    return np.asarray(x, dtype=float)
