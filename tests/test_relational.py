import itertools

import numpy as np
import pytest
from oracles import annotation_log_likelihood, select_triples

from crowdmix.data import WorkerPool
from crowdmix.expfam import BetaNat
from crowdmix.relational import (
    AnnotationStore,
    BetaWorkers,
    _message_weights,
    beta_natural_gradient,
    expected_rel_loglik,
    expected_worker_weights,
    sample_annotation_minibatch,
)
from crowdmix.vmp import annotation_graph

LN9 = np.log(9.0)


# ---------------------------------------------------------------------------
# storage


def test_store_canonicalizes_orientation():
    store = AnnotationStore([(3, 1, 0, 1), (1, 3, 0, 1)], n_items=5, n_workers=1)
    assert store.n_annotations == 1
    assert tuple(store.triples[0]) == (1, 3, 0, 1)
    assert AnnotationStore([(3, 1, 0, 1)], 5, 1).triples.tolist() == [[1, 3, 0, 1]]


def test_store_rejects_bad_triples():
    with pytest.raises(ValueError):
        AnnotationStore([(2, 2, 0, 1)], 5, 1)
    with pytest.raises(ValueError):
        AnnotationStore([(0, 9, 0, 1)], 5, 1)
    with pytest.raises(ValueError):
        AnnotationStore([(0, 1, 3, 1)], 5, 2)
    with pytest.raises(ValueError):
        AnnotationStore([(0, 1, 0, 2)], 5, 1)
    with pytest.raises(ValueError):
        AnnotationStore([(0, 1, 0, 1), (1, 0, 0, 0)], 5, 1)


def test_store_counts():
    store = AnnotationStore([(0, 1, 0, 1), (2, 3, 1, 0), (0, 2, 1, 1)], 6, 2)
    assert store.n_annotations == 3
    assert list(store.annotated_items) == [0, 1, 2, 3]


def loop_canonical(triples, n_items, n_workers):
    """Reference canonicalization: the per-triple loop the store once ran.
    Returns the sorted canonical rows, or the ValueError message."""
    canonical = {}
    for row, triple in enumerate(triples):
        if len(triple) != 4:
            return f"triple {row}: expected (i, j, m, label)"
        i, j, m, label = (int(v) for v in triple)
        if i == j:
            return f"triple {row}: self-pair ({i}, {j})"
        if not (0 <= i < n_items and 0 <= j < n_items):
            return f"triple {row}: item index out of range"
        if not 0 <= m < n_workers:
            return f"triple {row}: worker index {m} out of range"
        if label not in (0, 1):
            return f"triple {row}: label must be 0 or 1, got {label}"
        key = (min(i, j), max(i, j), m)
        if key in canonical and canonical[key] != label:
            return f"triple {row}: conflicting label for pair {key}"
        canonical[key] = label
    return sorted((i, j, m, l) for (i, j, m), l in canonical.items())


def _canonical_or_message(triples, n_items, n_workers):
    try:
        store = AnnotationStore(triples, n_items, n_workers)
    except ValueError as err:
        return str(err)
    return [tuple(row) for row in store.triples.tolist()]


def test_store_canonicalization_matches_the_loop_reference():
    rng = np.random.default_rng(3)
    n_items, n_workers = 9, 3
    for trial in range(300):
        # one label per (pair, worker); duplicates come in both orientations
        truth = rng.integers(0, 2, size=(n_items, n_items, n_workers))
        triples = []
        for _ in range(int(rng.integers(0, 30))):
            i, j = (int(v) for v in rng.choice(n_items, size=2, replace=False))
            m = int(rng.integers(n_workers))
            label = int(truth[min(i, j), max(i, j), m])
            triples.append((i, j, m, label))
            if rng.uniform() < 0.3:
                triples.append((j, i, m, label))
        if trial % 2 and triples:
            # one or two corrupted rows, possibly early ones
            for _ in range(int(rng.integers(1, 3))):
                row = int(rng.integers(len(triples)))
                i, j, m, label = triples[row]
                triples[row] = [
                    (i, i, m, label),
                    (i, n_items + int(rng.integers(0, 2)), m, label),
                    (-1, j, m, label),
                    (i, j, n_workers, label),
                    (i, j, m, 2),
                    (j, i, m, 1 - label),
                ][int(rng.integers(6))]
        expected = loop_canonical(triples, n_items, n_workers)
        assert _canonical_or_message(triples, n_items, n_workers) == expected
        if isinstance(expected, str):
            continue
        store = AnnotationStore(np.array(triples, dtype=int).reshape(-1, 4), n_items, n_workers)
        assert [tuple(row) for row in store.triples.tolist()] == expected


def test_store_names_a_row_of_the_wrong_length():
    for triples in ([(0, 1, 0, 1), (0, 2, 0)], [(0, 1, 0)]):
        expected = loop_canonical(triples, 5, 1)
        with pytest.raises(ValueError) as err:
            AnnotationStore(triples, 5, 1)
        assert str(err.value) == expected


# ---------------------------------------------------------------------------
# likelihood pieces


def test_annotation_log_likelihood_cases():
    assert abs(annotation_log_likelihood(1, True, 0.9, 0.8) - np.log(0.9)) < 1e-12
    assert abs(annotation_log_likelihood(0, False, 0.8, 0.9) - np.log(0.9)) < 1e-12
    assert abs(annotation_log_likelihood(1, False, 0.8, 0.5) - np.log(0.5)) < 1e-12
    assert abs(annotation_log_likelihood(0, True, 0.9, 0.5) - np.log(0.1)) < 1e-12


def test_annotation_log_likelihood_boundary():
    with pytest.raises(ValueError):
        annotation_log_likelihood(1, True, 1.0, 0.5)
    with pytest.raises(ValueError):
        annotation_log_likelihood(1, True, 0.5, 0.0)


def message_weights(store, workers) -> np.ndarray:
    """The message weight of each stored triple."""
    t = store.triples
    return _message_weights(t[:, 3].astype(float), workers.log_stats()[t[:, 2]])


def test_message_weight_point_examples():
    workers = WorkerPool.homogeneous(1, 0.9, 0.9)
    pos = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    neg = AnnotationStore([(0, 1, 0, 0)], 2, 1)
    assert abs(message_weights(pos, workers)[0] - LN9) < 1e-12
    assert abs(message_weights(neg, workers)[0] + LN9) < 1e-12
    flipped = AnnotationStore([(1, 0, 0, 1)], 2, 1)
    assert message_weights(flipped, workers)[0] == message_weights(pos, workers)[0]


def test_message_weight_unannotated_is_zero():
    store = AnnotationStore([(0, 1, 0, 1)], 4, 2)
    graph = annotation_graph(store, WorkerPool([0.9, 0.7], [0.9, 0.7]), 4)
    # only the annotated pair exchanges messages, only along worker 0's label
    assert graph.linked.tolist() == [True, True, False, False]
    assert graph[2] == [] and graph[3] == []
    assert graph[0] == [(1, pytest.approx(LN9, abs=1e-12))]


def test_message_weight_is_same_vs_diff_log_likelihood_gap():
    grid = [0.05, 0.25, 0.5, 0.75, 0.95]
    for label in (0, 1):
        for a in grid:
            for b in grid:
                store = AnnotationStore([(0, 1, 0, label)], 2, 1)
                w = message_weights(store, WorkerPool([a], [b]))[0]
                gap = annotation_log_likelihood(label, True, a, b) - annotation_log_likelihood(
                    label, False, a, b
                )
                assert abs(w - gap) < 1e-9


def test_worker_weight_values_and_ordering():
    def weight(a, b):
        return WorkerPool([a], [b]).weights[0]

    assert weight(0.5, 0.5) == 0.0
    assert abs(weight(0.9, 0.9) - 2.0 * LN9) < 1e-12
    assert abs(weight(0.75, 0.75) - 2.0 * np.log(3.0)) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(0.05, 0.95, size=2)
        eps = rng.uniform(0.01, 0.04)
        assert weight(min(a + eps, 0.99), b) > weight(a, b)
        assert weight(a, min(b + eps, 0.99)) > weight(a, b)
    with pytest.raises(ValueError):
        weight(0.0, 0.5)


def test_expected_worker_weights_matches_point():
    alpha, beta = np.array([0.9, 0.75]), np.array([0.8, 0.6])
    weights = expected_worker_weights(WorkerPool(alpha, beta))
    np.testing.assert_allclose(
        weights, np.log(alpha / (1 - alpha)) + np.log(beta / (1 - beta)), rtol=0, atol=1e-12
    )


def point_workers_log_stats(alpha, beta) -> np.ndarray:
    """The (M, 4) rows of the point-worker class WorkerPool replaced:
    accuracies clipped to [1e-6, 1 - 1e-6], then the four logs."""
    a, b = (np.clip(np.asarray(v, dtype=float), 1e-6, 1.0 - 1e-6) for v in (alpha, beta))
    return np.stack([np.log(a), np.log1p(-a), np.log(b), np.log1p(-b)], axis=1)


@pytest.mark.parametrize(
    "alpha, beta",
    [([0.9], [0.9]), ([0.9, 0.7], [0.8, 0.6]), ([1.0, 0.5, 1e-9], [1.0, 1.0 - 1e-9, 0.3])],
)
def test_worker_pool_log_stats_equal_the_point_worker_rows(alpha, beta):
    pool = WorkerPool(alpha, beta)
    assert np.array_equal(pool.log_stats(), point_workers_log_stats(alpha, beta))
    assert np.all(np.isfinite(pool.log_stats())) and np.all(np.isfinite(pool.weights))


def test_noiseless_pool_has_finite_weights():
    weights = WorkerPool.homogeneous(3, 1.0, 1.0).weights
    assert np.all(np.isfinite(weights)) and np.all(weights == weights[0])
    assert weights[0] > WorkerPool.homogeneous(1, 0.999, 0.999).weights[0]


# ---------------------------------------------------------------------------
# expected relational log-likelihood


def _brute_force_rel(store, q_z, workers):
    """Sum over all joint z assignments of prod q(z) * sum of per-triple logs."""
    n, k = q_z.shape
    ls = workers.log_stats()
    total = 0.0
    for assign in itertools.product(range(k), repeat=n):
        weight = 1.0
        for item, z in enumerate(assign):
            weight *= q_z[item, z]
        ll = 0.0
        for i, j, m, label in store.triples:
            same = assign[i] == assign[j]
            if same:
                ll += ls[m, 0] if label == 1 else ls[m, 1]
            else:
                ll += ls[m, 3] if label == 1 else ls[m, 2]
        total += weight * ll
    return total


def test_expected_rel_loglik_empty():
    store = AnnotationStore([], 3, 1)
    assert expected_rel_loglik(store, np.full((3, 2), 0.5), WorkerPool.homogeneous(1, 0.9, 0.9)) == 0.0


def test_expected_rel_loglik_point_mass():
    store = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    value = expected_rel_loglik(store, q, WorkerPool.homogeneous(1, 0.9, 0.9))
    assert abs(value - np.log(0.9)) < 1e-12


def test_expected_rel_loglik_uniform_two_items():
    store = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    q = np.full((2, 2), 0.5)
    value = expected_rel_loglik(store, q, WorkerPool.homogeneous(1, 0.9, 0.9))
    expect = 0.5 * np.log(0.9) + 0.5 * np.log(0.1)
    assert abs(value - expect) < 1e-12
    assert abs(value - (0.5 * LN9 + np.log(0.1))) < 1e-12


def test_expected_rel_loglik_matches_brute_force():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        m_workers = int(rng.integers(1, 3))
        pairs = list(itertools.combinations(range(n), 2))
        triples = []
        for i, j in pairs:
            for m in range(m_workers):
                if rng.uniform() < 0.7:
                    triples.append((i, j, m, int(rng.integers(0, 2))))
        store = AnnotationStore(triples, n, m_workers)
        q = rng.dirichlet(np.ones(k), size=n)
        workers = WorkerPool(rng.uniform(0.2, 0.95, m_workers), rng.uniform(0.2, 0.95, m_workers))
        value = expected_rel_loglik(store, q, workers)
        assert abs(value - _brute_force_rel(store, q, workers)) < 1e-10

        posts = BetaWorkers.from_taus(
            [(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(m_workers)],
            [(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(m_workers)],
        )
        value = expected_rel_loglik(store, q, posts)
        assert abs(value - _brute_force_rel(store, q, posts)) < 1e-10


# ---------------------------------------------------------------------------
# Beta natural gradients


def test_beta_gradient_empty_store_fixed_point():
    store = AnnotationStore([], 3, 2)
    prior = (BetaNat.from_tau(1.0, 1.0), BetaNat.from_tau(1.0, 1.0))
    current = BetaWorkers.constant_init(2, 1.0, 1.0)
    ga, gb = beta_natural_gradient(store, np.full((3, 2), 0.5), prior, current)
    assert np.allclose(ga, 0.0) and np.allclose(gb, 0.0)


def test_beta_gradient_true_positive_count():
    store = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    prior = (BetaNat.from_tau(1.0, 1.0), BetaNat.from_tau(1.0, 1.0))
    current = BetaWorkers.constant_init(1, 1.0, 1.0)
    ga, gb = beta_natural_gradient(store, q, prior, current)
    assert np.allclose(ga[0], [1.0, 0.0])
    assert np.allclose(gb[0], [0.0, 0.0])
    # at posterior Beta(2,1) the gradient vanishes
    at_fix = BetaWorkers.from_taus([(2.0, 1.0)], [(1.0, 1.0)])
    ga, gb = beta_natural_gradient(store, q, prior, at_fix)
    assert np.allclose(ga, 0.0) and np.allclose(gb, 0.0)


def test_beta_gradient_true_negative_count():
    store = AnnotationStore([(0, 1, 0, 0)], 2, 1)
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    prior = (BetaNat.from_tau(1.0, 1.0), BetaNat.from_tau(1.0, 1.0))
    at_fix = BetaWorkers.from_taus([(1.0, 1.0)], [(2.0, 1.0)])
    ga, gb = beta_natural_gradient(store, q, prior, at_fix)
    assert np.allclose(ga, 0.0) and np.allclose(gb, 0.0)
    per_worker = beta_natural_gradient(store, q, prior, at_fix, m=0)
    assert np.allclose(per_worker[0], 0.0) and np.allclose(per_worker[1], 0.0)


# ---------------------------------------------------------------------------
# annotation minibatches


def test_minibatch_full_store():
    store = AnnotationStore([(0, 1, 0, 1), (0, 2, 0, 0)], 3, 1)
    for size in (2, 10):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        working, sub, scale = sample_annotation_minibatch(store, np.array([0]), size, rng)
        assert scale == 1.0 and sub.n_annotations == 2
        assert working.tolist() == [0, 1, 2]
        assert rng.bit_generator.state == state   # nothing drawn


def test_minibatch_estimator_exactly_unbiased():
    triples = [(0, 1, 0, 1), (0, 2, 0, 0), (1, 2, 1, 1), (2, 3, 1, 0)]
    store = AnnotationStore(triples, 4, 2)
    rng = np.random.default_rng(2)
    q = rng.dirichlet(np.ones(3), size=4)
    workers = WorkerPool([0.9, 0.7], [0.8, 0.6])
    full = expected_rel_loglik(store, q, workers)
    n = store.n_annotations
    for size in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), size))
        est = [
            expected_rel_loglik(select_triples(store, rows), q, workers, scale=n / size)
            for rows in subsets
        ]
        assert abs(np.mean(est) - full) < 1e-12


def test_minibatch_deterministic_replay():
    triples = [(0, 1, 0, 1), (0, 2, 0, 0), (1, 2, 0, 1), (1, 3, 0, 0), (2, 3, 0, 1)]
    store = AnnotationStore(triples, 4, 1)
    batch = np.array([0])
    _, a, _ = sample_annotation_minibatch(store, batch, 2, np.random.default_rng(7))
    _, b, _ = sample_annotation_minibatch(store, batch, 2, np.random.default_rng(7))
    assert np.array_equal(a.triples, b.triples)


def test_sample_annotation_minibatch_renumbers_onto_working_set_positions():
    store = AnnotationStore(
        [(1, 4, 0, 1), (4, 7, 1, 0), (2, 7, 0, 1), (1, 7, 1, 1)], n_items=9, n_workers=2
    )
    working, local, scale = sample_annotation_minibatch(
        store, np.array([4, 8]), 4, np.random.default_rng(0)
    )
    assert working.tolist() == [1, 2, 4, 7, 8] and scale == 1.0
    assert (local.n_items, local.n_workers) == (5, 2)
    assert local.triples.tolist() == [[0, 2, 0, 1], [0, 3, 1, 1], [1, 3, 0, 1], [2, 3, 1, 0]]


@pytest.mark.parametrize("seed", range(5))
def test_sample_annotation_minibatch_takes_the_selected_triples(seed):
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(rng.choice(30, size=2, replace=False))) for _ in range(40)}
    triples = [(i, j, int(rng.integers(3)), int(rng.integers(2))) for i, j in sorted(pairs)]
    store = AnnotationStore(triples, n_items=30, n_workers=3)
    batch = np.sort(rng.choice(30, size=6, replace=False))
    working, local, scale = sample_annotation_minibatch(
        store, batch, 7, np.random.default_rng(seed)
    )
    rows = np.sort(np.random.default_rng(seed).choice(store.n_annotations, 7, replace=False))
    expected = select_triples(store, rows)
    assert scale == store.n_annotations / 7
    assert np.array_equal(working, np.unique(np.concatenate([batch, expected.annotated_items])))
    back = np.column_stack([working[local.triples[:, :2]], local.triples[:, 2:]])
    assert np.array_equal(back, expected.triples)
