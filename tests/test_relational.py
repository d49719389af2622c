import itertools

import numpy as np
import pytest

from crowdmix.expfam import BetaNat
from crowdmix.relational import (
    AnnotationStore,
    BetaWorkers,
    PointWorkers,
    annotation_log_likelihood,
    beta_natural_gradient,
    expected_rel_loglik,
    expected_worker_weights,
    message_weight,
    restrict_store,
    sample_annotation_minibatch,
    worker_weight,
)

LN9 = np.log(9.0)


# ---------------------------------------------------------------------------
# storage


def test_store_canonicalizes_orientation():
    store = AnnotationStore([(3, 1, 0, 1), (1, 3, 0, 1)], n_items=5, n_workers=1)
    assert store.n_annotations == 1
    assert tuple(store.triples[0]) == (1, 3, 0, 1)
    assert store.label(1, 3, 0) == 1
    assert store.label(3, 1, 0) == 1


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
    assert store.n_labeled == 4
    assert list(store.annotated_items) == [0, 1, 2, 3]
    assert not store.has(4, 5, 0)


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


def test_message_weight_point_examples():
    workers = PointWorkers([0.9], [0.9])
    pos = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    neg = AnnotationStore([(0, 1, 0, 0)], 2, 1)
    assert abs(message_weight(pos, 0, 1, 0, workers) - LN9) < 1e-12
    assert abs(message_weight(neg, 0, 1, 0, workers) + LN9) < 1e-12
    assert message_weight(pos, 0, 2 - 1, 0, workers) == message_weight(pos, 1, 0, 0, workers)


def test_message_weight_unannotated_is_zero():
    store = AnnotationStore([(0, 1, 0, 1)], 4, 2)
    workers = PointWorkers([0.9, 0.7], [0.9, 0.7])
    assert message_weight(store, 2, 3, 0, workers) == 0.0
    assert message_weight(store, 0, 1, 1, workers) == 0.0


def test_message_weight_is_same_vs_diff_log_likelihood_gap():
    grid = [0.05, 0.25, 0.5, 0.75, 0.95]
    for label in (0, 1):
        for a in grid:
            for b in grid:
                store = AnnotationStore([(0, 1, 0, label)], 2, 1)
                w = message_weight(store, 0, 1, 0, PointWorkers([a], [b]))
                gap = annotation_log_likelihood(label, True, a, b) - annotation_log_likelihood(
                    label, False, a, b
                )
                assert abs(w - gap) < 1e-9


def test_worker_weight_values_and_ordering():
    assert worker_weight(0.5, 0.5) == 0.0
    assert abs(worker_weight(0.9, 0.9) - 2.0 * LN9) < 1e-12
    assert abs(worker_weight(0.75, 0.75) - 2.0 * np.log(3.0)) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(0.05, 0.95, size=2)
        eps = rng.uniform(0.01, 0.04)
        assert worker_weight(min(a + eps, 0.99), b) > worker_weight(a, b)
        assert worker_weight(a, min(b + eps, 0.99)) > worker_weight(a, b)
    with pytest.raises(ValueError):
        worker_weight(0.0, 0.5)


def test_expected_worker_weights_matches_point():
    workers = PointWorkers([0.9, 0.75], [0.8, 0.6])
    weights = expected_worker_weights(workers)
    assert abs(weights[0] - worker_weight(0.9, 0.8)) < 1e-12
    assert abs(weights[1] - worker_weight(0.75, 0.6)) < 1e-12


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
    assert expected_rel_loglik(store, np.full((3, 2), 0.5), PointWorkers([0.9], [0.9])) == 0.0


def test_expected_rel_loglik_point_mass():
    store = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    value = expected_rel_loglik(store, q, PointWorkers([0.9], [0.9]))
    assert abs(value - np.log(0.9)) < 1e-12


def test_expected_rel_loglik_uniform_two_items():
    store = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    q = np.full((2, 2), 0.5)
    value = expected_rel_loglik(store, q, PointWorkers([0.9], [0.9]))
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
        workers = PointWorkers(rng.uniform(0.2, 0.95, m_workers), rng.uniform(0.2, 0.95, m_workers))
        value = expected_rel_loglik(store, q, workers)
        assert abs(value - _brute_force_rel(store, q, workers)) < 1e-10

        posts = BetaWorkers(
            [BetaNat.from_tau(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(m_workers)],
            [BetaNat.from_tau(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(m_workers)],
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
    at_fix = BetaWorkers([BetaNat.from_tau(2.0, 1.0)], [BetaNat.from_tau(1.0, 1.0)])
    ga, gb = beta_natural_gradient(store, q, prior, at_fix)
    assert np.allclose(ga, 0.0) and np.allclose(gb, 0.0)


def test_beta_gradient_true_negative_count():
    store = AnnotationStore([(0, 1, 0, 0)], 2, 1)
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    prior = (BetaNat.from_tau(1.0, 1.0), BetaNat.from_tau(1.0, 1.0))
    at_fix = BetaWorkers([BetaNat.from_tau(1.0, 1.0)], [BetaNat.from_tau(2.0, 1.0)])
    ga, gb = beta_natural_gradient(store, q, prior, at_fix)
    assert np.allclose(ga, 0.0) and np.allclose(gb, 0.0)
    per_worker = beta_natural_gradient(store, q, prior, at_fix, m=0)
    assert np.allclose(per_worker[0], 0.0) and np.allclose(per_worker[1], 0.0)


# ---------------------------------------------------------------------------
# annotation minibatches


def test_minibatch_full_store():
    store = AnnotationStore([(0, 1, 0, 1), (0, 2, 0, 0)], 3, 1)
    sub, scale = sample_annotation_minibatch(store, 2, np.random.default_rng(0))
    assert scale == 1.0 and sub.n_annotations == 2
    sub, scale = sample_annotation_minibatch(store, 10, np.random.default_rng(0))
    assert scale == 1.0 and sub.n_annotations == 2


def test_minibatch_estimator_exactly_unbiased():
    triples = [(0, 1, 0, 1), (0, 2, 0, 0), (1, 2, 1, 1), (2, 3, 1, 0)]
    store = AnnotationStore(triples, 4, 2)
    rng = np.random.default_rng(2)
    q = rng.dirichlet(np.ones(3), size=4)
    workers = PointWorkers([0.9, 0.7], [0.8, 0.6])
    full = expected_rel_loglik(store, q, workers)
    n = store.n_annotations
    for size in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), size))
        est = [
            expected_rel_loglik(store.select(list(rows)), q, workers, scale=n / size)
            for rows in subsets
        ]
        assert abs(np.mean(est) - full) < 1e-12


def test_minibatch_deterministic_replay():
    triples = [(0, 1, 0, 1), (0, 2, 0, 0), (1, 2, 0, 1), (1, 3, 0, 0), (2, 3, 0, 1)]
    store = AnnotationStore(triples, 4, 1)
    a, _ = sample_annotation_minibatch(store, 2, np.random.default_rng(7))
    b, _ = sample_annotation_minibatch(store, 2, np.random.default_rng(7))
    assert np.array_equal(a.triples, b.triples)


def test_restrict_store_renumbers_onto_working_set_positions():
    store = AnnotationStore(
        [(1, 4, 0, 1), (4, 7, 1, 0), (2, 7, 0, 1), (1, 7, 1, 1)], n_items=9, n_workers=2
    )
    working = np.array([1, 4, 7])
    local = restrict_store(store, working)
    assert (local.n_items, local.n_workers) == (3, 2)
    # (2, 7) leaves: item 2 is outside the working set
    assert local.triples.tolist() == [[0, 1, 0, 1], [0, 2, 1, 1], [1, 2, 1, 0]]
    assert restrict_store(store, np.array([0, 2, 3])) is None
    assert restrict_store(None, working) is None
    assert restrict_store(store.select([]), working) is None
