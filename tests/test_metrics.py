"""Metric tests against exhaustive-permutation, hand-entropy and scipy
oracles, and the package's import footprint."""

import os
import pkgutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.stats import rankdata, spearmanr

import crowdmix
from crowdmix.data import WorkerPool
from crowdmix.metrics import (
    average_ranks,
    clustering_accuracy,
    contingency_table,
    max_matching_total,
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


def _random_tables(rng, count):
    """Integer tables of 1-9 rows and columns, a third of them 1 x n or
    n x 1, with small count ranges so that many optimal matchings tie."""
    for t in range(count):
        rows, cols = (int(v) for v in rng.integers(1, 10, size=2))
        if t % 3 == 1:
            rows = 1
        elif t % 3 == 2:
            cols = 1
        yield rng.integers(0, int(rng.integers(1, 6)), size=(rows, cols))


def test_matching_total_equals_scipy_linear_sum_assignment():
    rng = np.random.default_rng(11)
    for weights in _random_tables(rng, 600):
        rows, cols = linear_sum_assignment(weights, maximize=True)
        assert max_matching_total(weights) == weights[rows, cols].sum(), weights


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


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
def test_worker_recovery_equals_scipy_spearmanr(tied):
    rng = np.random.default_rng(13)
    for _ in range(300):
        size = int(rng.integers(2, 40))
        est = rng.integers(0, 4, size) if tied else rng.standard_normal(size)
        ref = rng.integers(0, 6, size) if tied else rng.standard_normal(size)
        if np.ptp(est) == 0 or np.ptp(ref) == 0:
            continue
        np.testing.assert_array_equal(average_ranks(est), rankdata(est))
        got = worker_weight_recovery(est, ref)
        assert got == pytest.approx(spearmanr(est, ref).statistic, abs=1e-12, rel=0)


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


# ---------------------------------------------------------------------------
# import footprint


def test_importing_every_module_loads_no_scipy_optimize_or_stats():
    """The package needs scipy.special only; scipy.optimize and scipy.stats
    cost about 46 MB of a benchmark process's peak memory."""
    modules = [f"crowdmix.{m.name}" for m in pkgutil.iter_modules(crowdmix.__path__)]
    assert "crowdmix.metrics" in modules
    code = (
        f"import importlib, sys\nfor name in {modules!r}: importlib.import_module(name)\n"
        "print([m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules])"
    )
    src = str(Path(crowdmix.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.stdout.strip() == "[]"
