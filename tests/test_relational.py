import itertools

import numpy as np
import pytest
from oracles import (
    annotation_log_likelihood,
    composed_rel_loglik,
    neighbor_lists,
    select_triples,
    worker_counts,
)

from crowdmix.data import WorkerPool
from crowdmix.expfam import DirichletNat, dirichlet_expected_stats
from crowdmix.nnet import Tape, backward, constant, parameter
from crowdmix.relational import (
    AnnotationStore,
    BetaWorkers,
    beta_natural_gradient,
    expected_rel_loglik,
    expected_worker_weights,
    sample_annotation_minibatch,
    two_coin_terms,
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
    assert np.unique(store.triples[:, :2]).tolist() == [0, 1, 2, 3]


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
    for trial in range(600):
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
            if rng.uniform() < 0.15:
                triples.append((i, j, m, label))
        if trial % 4 >= 2:
            # a duplicate may come before its first orientation
            triples = [triples[row] for row in rng.permutation(len(triples))]
        if trial % 2 and triples:
            # one or two corrupted rows, possibly early ones
            for _ in range(int(rng.integers(1, 3))):
                row = int(rng.integers(len(triples)))
                i, j, m, label = triples[row]
                lo, hi = min(i, j), max(i, j)
                triples[row] = [
                    (i, i, m, label),
                    (i, n_items + int(rng.integers(0, 2)), m, label),
                    (-1, j, m, label),
                    (i, j, n_workers, label),
                    (i, j, m, 2),
                    (j, i, m, 1 - label),
                    # keys equal to those of (lo + 1, hi, m) and (lo, hi + 1, m)
                    (lo, hi + n_items, m, 1 - label),
                    (lo, hi, m + n_workers, 1 - label),
                    # indices whose keys overflow int64
                    (i, 2**62, m, label),
                    (-(2**62), j, m, label),
                    (2**63 - 1, j, m, label),
                    (i, j, 2**63 - 1, label),
                    (i, j, -(2**62), label),
                ][int(rng.integers(13))]
        expected = loop_canonical(triples, n_items, n_workers)
        assert _canonical_or_message(triples, n_items, n_workers) == expected
        if isinstance(expected, str):
            continue
        store = AnnotationStore(np.array(triples, dtype=int).reshape(-1, 4), n_items, n_workers)
        assert [tuple(row) for row in store.triples.tolist()] == expected


def test_store_rejects_counts_whose_key_overflows_int64():
    """Each row's key is (lo * n_items + hi) * max(n_workers, 1) + m, an
    int64: n_items^2 * max(n_workers, 1) may be 2^63 and no more."""
    for n_items, n_workers in ((2**32, 2), (2**31 + 1, 2), (3_037_000_500, 0)):
        with pytest.raises(ValueError, match=f"^n_items {n_items} and n_workers {n_workers} "):
            AnnotationStore([], n_items, n_workers)
    top = 2**31 - 1
    store = AnnotationStore([(top, top - 1, 1, 0), (0, top, 1, 1), (1, 0, 0, 1)], 2**31, 2)
    assert store.triples.tolist() == [[0, 1, 0, 1], [0, top, 1, 1], [top - 1, top, 1, 0]]
    assert AnnotationStore([], 3_037_000_499, 0).n_items == 3_037_000_499


def test_store_names_a_row_of_the_wrong_length():
    for triples in ([(0, 1, 0, 1), (0, 2, 0)], [(0, 1, 0)]):
        expected = loop_canonical(triples, 5, 1)
        with pytest.raises(ValueError) as err:
            AnnotationStore(triples, 5, 1)
        assert str(err.value) == expected


def test_store_names_a_triple_that_is_not_whole_numbers():
    cases = [
        ([(0, 1.5, 0, 1)], 0),
        (np.array([[0, 1, 0, 1], [0, 2.7, 1, 0]]), 1),
        ([(0, 1, 0, 1), (0, 2, 0, float("nan"))], 1),
        ([(0, 1, float("inf"), 1)], 0),
    ]
    for triples, row in cases:
        with pytest.raises(ValueError, match=f"^triple {row}: entries must be whole numbers"):
            AnnotationStore(triples, 3, 2)
    assert AnnotationStore([(0, 2.0, 1.0, 0)], 3, 2).triples.tolist() == [[0, 2, 1, 0]]


def test_store_rejects_a_negative_count():
    for n_items, n_workers, name in ((-3, 2, "n_items"), (3, -1, "n_workers")):
        with pytest.raises(ValueError, match=f"^{name} must be at least 0"):
            AnnotationStore([], n_items, n_workers)


def test_store_rejects_a_count_that_is_not_an_integer():
    for n_items, n_workers, name in ((2.9, 1, "n_items"), (2, True, "n_workers"),
                                     ("3", 1, "n_items")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            AnnotationStore([(0, 1, 0, 1)], n_items, n_workers)
    store = AnnotationStore([(0, 1, 0, 1)], np.int64(2), np.int32(1))
    assert (store.n_items, store.n_workers) == (2, 1) and type(store.n_items) is int


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


def reference_message_weights(labels: np.ndarray, log_stats: np.ndarray) -> np.ndarray:
    """w = E[log((1-a)/b)] + L (E[log(a/(1-a))] + E[log(b/(1-b))]) per triple,
    from the triples' labels and their workers' log_stats rows."""
    base = log_stats[:, 1] - log_stats[:, 2]
    swing = (log_stats[:, 0] - log_stats[:, 1]) + (log_stats[:, 2] - log_stats[:, 3])
    return base + labels * swing


def message_weights(store, workers) -> np.ndarray:
    """The message weight of each stored triple."""
    t = store.triples
    return reference_message_weights(t[:, 3].astype(float), workers.log_stats()[t[:, 2]])


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
    lists = neighbor_lists(graph)
    assert lists[2] == [] and lists[3] == []
    assert lists[0] == [(1, pytest.approx(LN9, abs=1e-12))]


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


def rel_loglik(store, q_z, workers, scale=1.0) -> float:
    """expected_rel_loglik of a worker provider, as a float."""
    return float(expected_rel_loglik(store, q_z, workers.log_stats(), scale)[0].data)


def test_expected_rel_loglik_empty():
    store = AnnotationStore([], 3, 1)
    assert rel_loglik(store, np.full((3, 2), 0.5), WorkerPool.homogeneous(1, 0.9, 0.9)) == 0.0


def test_expected_rel_loglik_point_mass():
    store = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    value = rel_loglik(store, q, WorkerPool.homogeneous(1, 0.9, 0.9))
    assert abs(value - np.log(0.9)) < 1e-12


def test_expected_rel_loglik_uniform_two_items():
    store = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    q = np.full((2, 2), 0.5)
    value = rel_loglik(store, q, WorkerPool.homogeneous(1, 0.9, 0.9))
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
        value = rel_loglik(store, q, workers)
        assert abs(value - _brute_force_rel(store, q, workers)) < 1e-10

        posts = BetaWorkers.from_taus(
            [(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(m_workers)],
            [(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(m_workers)],
        )
        value = rel_loglik(store, q, posts)
        assert abs(value - _brute_force_rel(store, q, posts)) < 1e-10

        # the amortized trainer's path: its starting workers, q(z) on the tape
        start = BetaWorkers.init(m_workers)
        value = float(expected_rel_loglik(store, constant(q), start.log_stats())[0].data)
        assert abs(value - _brute_force_rel(store, q, start)) < 1e-10


def random_store(rng, n_items: int, n_workers: int, density: float) -> AnnotationStore:
    """Each (pair, worker) labelled with probability `density`, a random
    label, in both orientations of its input row."""
    triples = [
        (i, j, m, int(rng.integers(2))) if rng.random() < 0.5 else (j, i, m, int(rng.integers(2)))
        for m in range(n_workers)
        for i, j in itertools.combinations(range(n_items), 2)
        if rng.random() < density
    ]
    return AnnotationStore(triples, n_items, n_workers)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_workers, density", [(3, 0.4), (6, 0.2), (0, 0.0), (2, 0.0)])
def test_expected_rel_loglik_is_log_stats_times_the_confusion_counts(seed, n_workers, density):
    """The two-coin log-likelihood is linear in the worker rows, with the
    confusion counts as its coefficients: the op's value, read off its
    counts, is the per-triple w p_same + c of its 8-node composition, on
    random stores, at scales other than 1, with no workers and on an
    empty store."""
    rng = np.random.default_rng(seed)
    store = random_store(rng, 8, n_workers, density)
    q = rng.dirichlet(np.ones(3), size=8)
    workers = BetaWorkers.from_taus(*rng.uniform(0.5, 20.0, size=(2, n_workers, 2)))
    ls = workers.log_stats()
    for scale in (1.0, 2.5, 1e3 / 7):
        value, counts = expected_rel_loglik(store, q, ls, scale)
        assert isinstance(counts, np.ndarray) and counts.shape == (n_workers, 4)
        assert np.array_equal(counts, worker_counts(store, q))
        assert float(value.data) == scale * np.sum(ls * counts)
        composed = float(composed_rel_loglik(store, q, ls, scale).data)
        assert float(value.data) == pytest.approx(composed, rel=1e-12, abs=1e-12)
    if store.n_annotations == 0:
        assert not counts.any()


def op_and_composed_gradients(store, q, log_stats, scale):
    """q(z)'s gradient through the op and through its 8-node composition,
    and the number of nodes each records."""
    grads, nodes = [], []
    for build in (lambda q_z: expected_rel_loglik(store, q_z, log_stats, scale)[0],
                  lambda q_z: composed_rel_loglik(store, q_z, log_stats, scale)):
        q_z = parameter(q)
        with Tape() as tape:
            term = build(q_z)
        backward(tape, term)
        grads.append(q_z.grad)
        nodes.append(len(tape))
    return grads, nodes


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 5])
def test_expected_rel_loglik_gradient_equals_its_composition_bit_for_bit(seed, k):
    """One node in place of eight, with the same q(z) gradient to the last
    bit: items at both ends of several triples, duplicate pairs of
    several workers, K >= 3 and scales other than 1."""
    rng = np.random.default_rng(seed)
    store = random_store(rng, 9, 4, 0.5)
    assert np.any(np.bincount(store.triples[:, 0]) > 1)
    assert np.intersect1d(store.triples[:, 0], store.triples[:, 1]).size
    pairs = store.triples[:, :2]
    assert len(np.unique(pairs, axis=0)) < len(pairs)
    q = rng.dirichlet(np.ones(k), size=9)
    ls = BetaWorkers.from_taus(*rng.uniform(0.5, 20.0, size=(2, 4, 2))).log_stats()
    for scale in (1.0, 2.5, 1e3 / 7):
        (got, want), nodes = op_and_composed_gradients(store, q, ls, scale)
        assert nodes == [1, 8]
        assert np.array_equal(got, want)


def test_expected_rel_loglik_gradient_matches_finite_differences_in_q_z():
    """Central differences of the op's value in each entry of q(z) itself,
    unnormalized, with no softmax in between."""
    rng = np.random.default_rng(11)
    store = random_store(rng, 6, 3, 0.6)
    q = rng.uniform(0.1, 1.0, size=(6, 3))
    ls = BetaWorkers.from_taus(*rng.uniform(0.5, 20.0, size=(2, 3, 2))).log_stats()
    scale, eps = 2.5, 1e-6
    (grad, _), _ = op_and_composed_gradients(store, q, ls, scale)
    numeric = np.zeros_like(q)
    for index in np.ndindex(q.shape):
        hi, lo = q.copy(), q.copy()
        hi[index] += eps
        lo[index] -= eps
        values = [float(expected_rel_loglik(store, x, ls, scale)[0].data) for x in (hi, lo)]
        numeric[index] = (values[0] - values[1]) / (2.0 * eps)
    assert np.any(grad != 0.0)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("n_workers", [0, 3])
def test_expected_rel_loglik_of_an_empty_store_is_zero(n_workers):
    store = AnnotationStore([], 4, n_workers)
    ls = BetaWorkers.init(n_workers).log_stats()
    q_z = parameter(np.full((4, 3), 1.0 / 3.0))
    with Tape() as tape:
        term, counts = expected_rel_loglik(store, q_z, ls, 2.5)
    backward(tape, term)
    assert float(term.data) == 0.0
    assert counts.shape == (n_workers, 4) and not counts.any()
    assert q_z.grad.shape == (4, 3) and not q_z.grad.any()


def test_two_coin_terms_and_vote_weights_are_arrays():
    store = AnnotationStore([(0, 1, 0, 1), (1, 2, 1, 0)], 3, 2)
    pool = WorkerPool(np.array([0.9, 0.7]), np.array([0.8, 0.6]))
    for terms in (two_coin_terms(store, pool.log_stats()), expected_worker_weights(pool)):
        assert type(terms) is np.ndarray and terms.shape == (2,)


@pytest.mark.parametrize("rows", [2, 7])
def test_expected_rel_loglik_names_a_q_z_of_another_height(rows):
    store = AnnotationStore([(0, 1, 0, 1), (1, 2, 0, 0)], 3, 1)
    log_stats = WorkerPool.homogeneous(1, 0.9, 0.9).log_stats()
    with pytest.raises(ValueError, match="q_z"):
        expected_rel_loglik(store, np.full((rows, 2), 0.5), log_stats)


# ---------------------------------------------------------------------------
# Beta natural gradients


def uniform_workers(n_workers: int) -> BetaWorkers:
    """Beta(1, 1) posteriors on both accuracies of every worker."""
    return BetaWorkers.from_taus(np.ones((n_workers, 2)), np.ones((n_workers, 2)))


def test_beta_gradient_empty_store_fixed_point():
    store = AnnotationStore([], 3, 2)
    target = beta_natural_gradient(worker_counts(store, np.full((3, 2), 0.5)))
    assert isinstance(target, BetaWorkers) and target.n_workers == 2
    # the target is the prior, so the gradient at the prior vanishes
    assert np.allclose(target.eta - uniform_workers(2).eta, 0.0)


def test_beta_gradient_true_positive_count():
    store = AnnotationStore([(0, 1, 0, 1)], 2, 1)
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    target = beta_natural_gradient(worker_counts(store, q))
    grad = target.eta - uniform_workers(1).eta
    assert np.allclose(grad[0, 0], [1.0, 0.0])
    assert np.allclose(grad[0, 1], [0.0, 0.0])
    # the target is the posterior Beta(2, 1), where the gradient vanishes
    at_fix = BetaWorkers.from_taus([(2.0, 1.0)], [(1.0, 1.0)])
    assert np.allclose(target.eta - at_fix.eta, 0.0)


def test_beta_gradient_true_negative_count():
    store = AnnotationStore([(0, 1, 0, 0)], 2, 1)
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    at_fix = BetaWorkers.from_taus([(1.0, 1.0)], [(2.0, 1.0)])
    target = beta_natural_gradient(worker_counts(store, q))
    assert target.eta.shape == (1, 2, 2)
    assert target.alpha_taus.shape == target.beta_taus.shape == (1, 2)
    assert np.allclose(target.eta - at_fix.eta, 0.0)


@pytest.mark.parametrize("rows", [2, 7])
def test_beta_gradient_names_a_q_z_of_another_height(rows):
    store = AnnotationStore([(0, 1, 0, 1), (1, 2, 0, 0)], 3, 1)
    with pytest.raises(ValueError, match="q_z"):
        worker_counts(store, np.full((rows, 2), 0.5))


def reference_log_stats(alpha_taus, beta_taus) -> np.ndarray:
    """The per-coin log_stats formula the two-record workers used: one
    Beta record per coin, their expectations side by side."""
    alpha, beta = (DirichletNat(np.reshape(t, (len(t), 2)) - 1.0) for t in (alpha_taus, beta_taus))
    return np.concatenate([dirichlet_expected_stats(alpha), dirichlet_expected_stats(beta)], axis=1)


def reference_beta_gradient(store, q_z, alpha_taus, beta_taus, scale):
    """The per-coin Beta(1, 1) natural gradients the two-record workers
    used: (M, 2) arrays for the alpha and the beta posteriors."""
    q_z = np.asarray(q_z)
    p = np.sum(q_z[store.triples[:, 0]] * q_z[store.triples[:, 1]], axis=-1)[:, None]
    labels, flipped = store.triples[:, 3:].astype(float), 1.0 - store.triples[:, 3:]
    counts = np.zeros((len(alpha_taus), 4))
    rows = np.hstack([labels * p, flipped * p, flipped * (1.0 - p), labels * (1.0 - p)])
    np.add.at(counts, store.triples[:, 2], rows)
    prior_a, prior_b = DirichletNat.from_alpha([1.0, 1.0]), DirichletNat.from_alpha([1.0, 1.0])
    alpha, beta = (DirichletNat(np.reshape(t, (len(t), 2)) - 1.0) for t in (alpha_taus, beta_taus))
    grad_a = prior_a.eta + scale * counts[:, :2] - alpha.eta
    grad_b = prior_b.eta + scale * counts[:, 2:] - beta.eta
    return grad_a, grad_b


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_workers", [0, 1, 7])
def test_stacked_workers_equal_the_per_coin_formulas_bit_for_bit(seed, n_workers):
    rng = np.random.default_rng(seed)
    alpha_taus, beta_taus = rng.uniform(0.05, 40.0, size=(2, n_workers, 2))
    workers = BetaWorkers.from_taus(alpha_taus, beta_taus)
    # the taus come back through eta = tau - 1, as they did from each coin's record
    assert np.array_equal(workers.alpha_taus, alpha_taus - 1.0 + 1.0)
    assert np.array_equal(workers.beta_taus, beta_taus - 1.0 + 1.0)
    assert np.array_equal(workers.log_stats(), reference_log_stats(alpha_taus, beta_taus))
    n_items, k = 9, 3
    triples = [
        (i, j, m, int(rng.integers(2)))
        for m in range(n_workers)
        for i, j in itertools.combinations(range(n_items), 2)
        if rng.random() < 0.3
    ]
    store = AnnotationStore(triples, n_items, n_workers)
    q = rng.dirichlet(np.ones(k), size=n_items)
    # the gradient is the target minus the posteriors, as the step takes it
    grad = beta_natural_gradient(worker_counts(store, q), 2.5).eta - workers.eta
    grad_a, grad_b = reference_beta_gradient(store, q, alpha_taus, beta_taus, 2.5)
    assert grad.shape == (n_workers, 2, 2)
    assert np.array_equal(grad[:, 0], grad_a) and np.array_equal(grad[:, 1], grad_b)


@pytest.mark.parametrize("shape", [(3, 2), (3, 3, 2), (3, 2, 3), (2, 2, 2, 2), (2,)])
def test_workers_need_an_eta_of_shape_m_2_2(shape):
    with pytest.raises(ValueError, match="eta"):
        BetaWorkers(np.zeros(shape))


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
    full = rel_loglik(store, q, workers)
    n = store.n_annotations
    for size in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), size))
        est = [
            rel_loglik(select_triples(store, rows), q, workers, scale=n / size)
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


@pytest.mark.parametrize("batch_size", [True, 2.5, 2.0, 0])
def test_sample_annotation_minibatch_names_a_bad_batch_size(batch_size):
    store = AnnotationStore([(0, 1, 0, 1), (0, 2, 0, 0), (1, 2, 0, 1)], 3, 1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^batch_size"):
        sample_annotation_minibatch(store, np.array([0]), batch_size, rng)
    _, sample, scale = sample_annotation_minibatch(store, np.array([0]), np.int64(2), rng)
    assert sample.n_annotations == 2 and scale == 1.5


def random_canonical_store(rng, n_items=20, n_workers=4, n_pairs=25) -> AnnotationStore:
    """A store built from triples in random orientation and order; pair
    (2, 9) is labelled by every worker."""
    labels = {(2, 9, m): int(rng.integers(2)) for m in range(n_workers)}
    while len(labels) < n_pairs + n_workers - 1:
        i, j = sorted(rng.choice(n_items, size=2, replace=False).tolist())
        labels[i, j, int(rng.integers(n_workers))] = int(rng.integers(2))
    triples = [(j, i, m, y) if rng.random() < 0.5 else (i, j, m, y)
               for (i, j, m), y in labels.items()]
    return AnnotationStore([triples[k] for k in rng.permutation(len(triples))], n_items, n_workers)


@pytest.mark.parametrize("seed", range(4))
def test_sampled_store_is_already_canonical(seed):
    """The sample skips the store's checks; validating it again changes nothing."""
    rng = np.random.default_rng(seed)
    stores = [random_canonical_store(rng), AnnotationStore([], 20, 4)]
    assert np.sum(np.all(stores[0].triples[:, :2] == [2, 9], axis=1)) == 4
    for store in stores:
        for batch_size in (1, 7, max(store.n_annotations, 1), store.n_annotations + 5):
            batch = rng.choice(20, size=5, replace=False)
            _, sample, _ = sample_annotation_minibatch(store, batch, batch_size, rng)
            again = AnnotationStore(sample.triples, sample.n_items, sample.n_workers)
            assert again.triples.dtype == sample.triples.dtype
            assert np.array_equal(again.triples, sample.triples)
            assert sample.triples.dtype.kind == "i" and not sample.triples.flags.writeable


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
    annotated = expected.triples[:, :2].ravel()
    assert np.array_equal(working, np.unique(np.concatenate([batch, annotated])))
    back = np.column_stack([working[local.triples[:, :2]], local.triples[:, 2:]])
    assert np.array_equal(back, expected.triples)


def sorted_union_sample(store, batch, batch_size, rng):
    """sample_annotation_minibatch with the working set as the unique items
    of the batch and the triples, renumbered by a search of it."""
    n = store.n_annotations
    t, scale = store.triples, 1.0
    if batch_size < n:
        t = t[np.sort(rng.choice(n, size=batch_size, replace=False))]
        scale = n / float(batch_size)
    working = np.unique(np.concatenate([batch, t[:, :2].ravel()]))
    renumbered = np.column_stack([np.searchsorted(working, t[:, :2]), t[:, 2:]])
    return working, renumbered, scale


@pytest.mark.parametrize("seed", range(6))
def test_sample_annotation_minibatch_equals_the_sorted_union_bit_for_bit(seed):
    """On random stores, with batch items that are also annotated, samples
    of a few, most and every triple, and an empty store: the same working
    set, triples, dtypes, scale and generator state."""
    rng = np.random.default_rng(seed)
    stores = [random_canonical_store(rng, n_items=40, n_pairs=30), AnnotationStore([], 40, 4)]
    for store in stores:
        annotated = np.unique(store.triples[:, :2])
        for batch_size in (1, 9, max(store.n_annotations, 1), store.n_annotations + 5):
            batch = np.sort(rng.choice(40, size=8, replace=False))
            if annotated.size:
                batch = np.union1d(batch[:5], annotated[:3])  # some annotated items
            a, b = (np.random.default_rng(seed), np.random.default_rng(seed))
            working, sample, scale = sample_annotation_minibatch(store, batch, batch_size, a)
            want_working, want_triples, want_scale = sorted_union_sample(
                store, batch, batch_size, b
            )
            assert working.dtype == want_working.dtype
            assert np.array_equal(working, want_working)
            assert sample.triples.dtype == want_triples.dtype
            assert np.array_equal(sample.triples, want_triples)
            assert (sample.n_items, sample.n_workers) == (working.size, store.n_workers)
            assert scale == want_scale
            assert a.bit_generator.state == b.bit_generator.state
