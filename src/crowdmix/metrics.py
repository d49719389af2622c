"""Clustering evaluation, in numpy alone.

Normalized mutual information, Hungarian-mapped clustering accuracy, and
a rank-correlation diagnostic for recovered worker reliabilities.  All
functions are pure and operate on integer label arrays.  The accuracy's
assignment is the Hungarian method (Kuhn 1955) in its shortest
augmenting path form with row and column potentials (Jonker & Volgenant
1987), run over the smaller side of the contingency table.  The rank
correlation is Spearman's: the Pearson correlation of average ranks,
ties sharing the mean of their positions.
"""

from __future__ import annotations

import numpy as np

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
    predicted to true labels (Hungarian on the contingency table)."""
    counts = contingency_table(pred, true)
    return max_matching_total(counts) / float(counts.sum())


def max_matching_total(weights) -> int:
    """Largest total of a one-to-one matching of the rows of an integer
    matrix to its columns, every row of the smaller side matched.

    Each row in turn joins by a shortest augmenting path over the reduced
    costs of the negated weights, and the potentials keep every reduced
    cost non-negative; integer arithmetic makes the total exact.  Any
    optimal matching has this total, whichever one the path order finds.
    """
    w = np.asarray(weights, dtype=np.int64)
    if w.shape[0] > w.shape[1]:
        w = w.T
    n, m = w.shape
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[1:, 1:] = -w
    u = np.zeros(n + 1, dtype=np.int64)  # row potentials, 1-based
    v = np.zeros(m + 1, dtype=np.int64)  # column potentials; column 0 is the root
    match = np.zeros(m + 1, dtype=np.int64)  # row on each column, 0 for none
    way = np.zeros(m + 1, dtype=np.int64)  # previous column on the path
    unreached = np.iinfo(np.int64).max // 2
    for row in range(1, n + 1):
        match[0] = row
        col = 0
        slack = np.full(m + 1, unreached)
        used = np.zeros(m + 1, dtype=bool)
        while match[col]:
            used[col] = True
            free = ~used
            reduced = cost[match[col]] - u[match[col]] - v
            closer = free & (reduced < slack)
            slack[closer] = reduced[closer]
            way[closer] = col
            nxt = int(np.argmin(np.where(free, slack, unreached)))
            delta = slack[nxt]
            u[match[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            col = nxt
        while col:
            prev = way[col]
            match[col] = match[prev]
            col = prev
    cols = np.flatnonzero(match[1:]) + 1
    return int(w[match[cols] - 1, cols - 1].sum())


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
    # entry [1, 0], as scipy.stats.spearmanr reads it: [0, 1] may differ in the last bit
    return float(np.corrcoef(average_ranks(est), average_ranks(ref))[1, 0])


def average_ranks(x) -> np.ndarray:
    """1-based ranks of a 1-d array, tied values sharing the mean of their
    positions (`scipy.stats.rankdata`'s "average" method)."""
    x = np.asarray(x)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _as_weights(x) -> np.ndarray:
    if hasattr(x, "log_stats"):
        return expected_worker_weights(x)
    return np.asarray(x, dtype=float)
