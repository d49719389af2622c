"""Metric tests against exhaustive-permutation and hand-entropy oracles."""

from itertools import permutations

import numpy as np
import pytest

from crowdmix.data import WorkerPool
from crowdmix.metrics import (
    clustering_accuracy,
    contingency_table,
    nmi,
    worker_weight_recovery,
)


def _brute_force_accuracy(pred, true):
    counts = contingency_table(pred, true)
    kp, kt = counts.shape
    n = max(kp, kt)
    best = 0
    for perm in permutations(range(n)):
        matched = sum(counts[r, perm[r]] for r in range(kp) if perm[r] < kt)
        best = max(best, matched)
    return best / counts.sum()


# ---------------------------------------------------------------------------
# contingency


def test_contingency_counts():
    counts = contingency_table([0, 0, 1, 2], [0, 0, 1, 1])
    np.testing.assert_array_equal(counts, [[2, 0], [0, 1], [0, 1]])
    assert counts.sum() == 4


def test_contingency_handles_arbitrary_label_values():
    counts = contingency_table([10, 10, -3], [7, 7, 9])
    # sorted label order: rows (-3, 10), columns (7, 9)
    np.testing.assert_array_equal(counts, [[0, 1], [2, 0]])


def test_contingency_validation():
    with pytest.raises(ValueError):
        contingency_table([0, 1], [0])
    with pytest.raises(ValueError):
        contingency_table([], [])


# ---------------------------------------------------------------------------
# nmi


def test_nmi_relabeling_gives_one():
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)


def test_nmi_independent_partitions_give_zero():
    assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_matches_hand_entropy_arithmetic():
    # pred (0,0,1,2) vs true (0,0,1,1): joint = [[1/2,0],[0,1/4],[0,1/4]]
    mi = (
        0.5 * np.log(0.5 / (0.5 * 0.5))
        + 0.25 * np.log(0.25 / (0.25 * 0.5))
        + 0.25 * np.log(0.25 / (0.25 * 0.5))
    )
    hu = -(0.5 * np.log(0.5) + 2 * 0.25 * np.log(0.25))
    hv = -2 * 0.5 * np.log(0.5)
    expected = mi / np.sqrt(hu * hv)
    assert nmi([0, 0, 1, 2], [0, 0, 1, 1]) == pytest.approx(expected, abs=1e-12)


def test_nmi_degenerate_single_cluster_convention():
    assert nmi([3, 3, 3], [0, 0, 0]) == 1.0
    assert nmi([3, 3, 3], [0, 0, 1]) == 0.0
    assert nmi([0, 1, 1], [5, 5, 5]) == 0.0
    assert nmi([0], [0]) == 1.0


def test_nmi_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 3, size=30)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
        relabel = rng.permutation(4)
        assert nmi(relabel[a], b) == pytest.approx(nmi(a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_identical_and_swapped():
    assert clustering_accuracy([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_accuracy_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        kp = int(rng.integers(2, 7))
        kt = int(rng.integers(2, 7))
        pred = rng.integers(0, kp, size=40)
        true = rng.integers(0, kt, size=40)
        assert clustering_accuracy(pred, true) == pytest.approx(
            _brute_force_accuracy(pred, true), abs=1e-12
        )


def test_accuracy_permutation_invariance():
    rng = np.random.default_rng(10)
    pred = rng.integers(0, 5, size=60)
    true = rng.integers(0, 4, size=60)
    relabel = rng.permutation(5)
    assert clustering_accuracy(relabel[pred], true) == pytest.approx(
        clustering_accuracy(pred, true)
    )


def test_accuracy_constant_prediction_on_balanced_data():
    true = np.repeat(np.arange(4), 25)
    pred = np.zeros(100, dtype=int)
    assert clustering_accuracy(pred, true) == pytest.approx(0.25)


def test_accuracy_more_predicted_than_true_clusters():
    pred = [0, 1, 2, 3]
    true = [0, 0, 1, 1]
    # two of the four singleton predictions can be matched
    assert clustering_accuracy(pred, true) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# worker recovery


def test_worker_recovery_exact_and_reversed():
    w = np.array([3.0, 2.0, 1.5, 0.7, 0.2])
    assert worker_weight_recovery(w, w) == pytest.approx(1.0)
    assert worker_weight_recovery(w[::-1], w) == pytest.approx(-1.0)


def test_worker_recovery_accepts_worker_models():
    acc = np.array([0.95, 0.9, 0.85, 0.8, 0.75])
    pool = WorkerPool(acc, acc)
    truth = 2.0 * np.log(acc / (1.0 - acc))
    assert worker_weight_recovery(pool, truth) == pytest.approx(1.0)


def test_worker_recovery_validation():
    with pytest.raises(ValueError):
        worker_weight_recovery([1.0], [1.0])
    with pytest.raises(ValueError):
        worker_weight_recovery([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "weights",
    [
        [0.5, 0.5, 0.5],
        WorkerPool.homogeneous(3, 0.9, 0.9),
        [1.0, float("nan"), 2.0],
        [1.0, float("inf"), 2.0],
    ],
    ids=["constant", "homogeneous-pool", "nan", "inf"],
)
def test_worker_recovery_names_weights_that_cannot_be_ranked(weights):
    good = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="^estimated weights"):
        worker_weight_recovery(weights, good)
    with pytest.raises(ValueError, match="^true weights"):
        worker_weight_recovery(good, weights)
