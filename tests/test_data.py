"""Dataset generation, annotation simulation and minibatch tests."""

import hashlib

import numpy as np
import pytest

from crowdmix.data import (
    Dataset,
    WorkerPool,
    _decode_pair_ids,
    minibatch_iterator,
    pinwheel_generate,
    simulate_annotations,
)


# ---------------------------------------------------------------------------
# dataset and pool containers


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), labels=[0, 1])
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), labels=[-1, 0])
    for labels, first in (([0.5, 1.7], 0), ([0, 1.5], 1), ([1, float("nan")], 1)):
        with pytest.raises(ValueError, match=f"^label {first} must be a whole number"):
            Dataset(np.zeros((2, 2)), labels=labels)
    ds = Dataset(np.zeros((3, 2)), labels=[0, 1.0, 1])
    assert ds.n_items == 3 and ds.dim == 2 and ds.labels.tolist() == [0, 1, 1]


def test_worker_pool_validation_and_weights():
    with pytest.raises(ValueError):
        WorkerPool(np.array([0.9, 1.1]), np.array([0.9, 0.9]))
    with pytest.raises(ValueError):
        WorkerPool(np.array([0.0, 0.9]), np.array([0.9, 0.9]))
    with pytest.raises(ValueError):
        WorkerPool(np.array([0.9]), np.array([0.9, 0.8]))
    pool = WorkerPool.homogeneous(3, 0.9, 0.8)
    assert pool.n_workers == 3
    np.testing.assert_allclose(pool.weights, np.log(0.9 / 0.1) + np.log(0.8 / 0.2))
    WorkerPool.homogeneous(2, 1.0, 1.0)  # noiseless boundary allowed


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_worker_pool_names_a_non_finite_accuracy(field, value):
    accuracies = {"alpha": [0.9, 0.9], "beta": [0.9, 0.9]}
    accuracies[field][0] = value
    with pytest.raises(ValueError, match=f"^{field}: accuracies must lie in"):
        WorkerPool(**accuracies)
    with pytest.raises(ValueError, match=f"^{field}"):
        WorkerPool.homogeneous(3, **{"alpha": 0.9, "beta": 0.9, field: value})


@pytest.mark.parametrize("n_workers", [2.5, True, 0])
def test_homogeneous_pool_names_a_bad_worker_count(n_workers):
    with pytest.raises(ValueError, match="^n_workers"):
        WorkerPool.homogeneous(n_workers, 0.9, 0.9)


# ---------------------------------------------------------------------------
# pinwheel


def test_pinwheel_shapes_and_balance():
    ds = pinwheel_generate(5, 100, rng=np.random.default_rng(0))
    assert ds.observations.shape == (500, 2)
    assert ds.labels.shape == (500,)
    np.testing.assert_array_equal(np.bincount(ds.labels), np.full(5, 100))


def test_pinwheel_zero_noise_collapses_each_arm():
    ds = pinwheel_generate(
        3, 4, radial_std=0.0, tangential_std=0.0, rate=0.25, rng=np.random.default_rng(1)
    )
    base = np.linspace(0.0, 2.0 * np.pi, 3, endpoint=False)
    for arm in range(3):
        angle = base[arm] + 0.25 * np.e  # features collapse to (1, 0)
        expected = np.array([np.cos(angle), np.sin(angle)])
        pts = ds.observations[ds.labels == arm]
        np.testing.assert_allclose(pts, np.tile(expected, (4, 1)), atol=1e-12)


def test_pinwheel_determinism():
    a = pinwheel_generate(5, 20, rng=np.random.default_rng(42))
    b = pinwheel_generate(5, 20, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(a.observations, b.observations)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_pinwheel_validation():
    with pytest.raises(ValueError):
        pinwheel_generate(0, 10, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        pinwheel_generate(3, 10, radial_std=-1.0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", ["radial_std", "tangential_std", "rate"])
def test_pinwheel_names_a_non_finite_argument_before_drawing(name, value):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        pinwheel_generate(3, 10, **{name: value}, rng=rng)
    assert rng.bit_generator.state == before
    pinwheel_generate(3, 10, rate=-0.25, rng=rng)  # a negative rate winds the other way


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize(
    "name", ["clusters", "per_cluster", "pairs_per_worker", "subset_size"]
)
def test_generator_counts_must_be_integers(name, value):
    pinwheel = {"clusters": 3, "per_cluster": 10}
    simulate = {"pairs_per_worker": 5, "subset_size": 10}
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        if name in pinwheel:
            pinwheel_generate(**{**pinwheel, name: value}, rng=rng)
        else:
            ds = pinwheel_generate(**pinwheel, rng=rng)
            pool = WorkerPool.homogeneous(2, 0.9, 0.9)
            simulate_annotations(ds, pool, **{**simulate, name: value}, rng=rng)


# ---------------------------------------------------------------------------
# annotation simulation


def _two_blob_dataset(n_per=50):
    obs = np.concatenate(
        [np.zeros((n_per, 2)), np.ones((n_per, 2))], axis=0
    )
    labels = np.concatenate([np.zeros(n_per, int), np.ones(n_per, int)])
    return Dataset(obs, labels)


def test_simulate_counts_match_protocol():
    ds = pinwheel_generate(5, 100, rng=np.random.default_rng(3))
    pool = WorkerPool.homogeneous(20, 0.9, 0.9)
    store = simulate_annotations(ds, pool, pairs_per_worker=49, subset_size=100,
                                 rng=np.random.default_rng(4))
    assert store.n_annotations == 980
    assert store.n_workers == 20
    assert np.unique(store.triples[:, :2]).size <= 100
    t = store.triples
    assert np.all(t[:, 0] < t[:, 1])
    np.testing.assert_array_equal(np.bincount(t[:, 2]), np.full(20, 49))


def test_simulate_noiseless_workers_reproduce_ground_truth():
    ds = _two_blob_dataset()
    pool = WorkerPool.homogeneous(3, 1.0, 1.0)
    store = simulate_annotations(ds, pool, pairs_per_worker=40, subset_size=30,
                                 rng=np.random.default_rng(5))
    assert store.n_annotations == 120
    for i, j, m, label in store.triples:
        assert label == int(ds.labels[i] == ds.labels[j])


def test_simulate_empirical_rates_match_accuracies():
    # all items share one cluster: every pair is a same-cluster pair
    n = 200
    ds = Dataset(np.zeros((n, 2)), labels=np.zeros(n, int))
    pool = WorkerPool.homogeneous(1, 0.9, 0.8)
    store = simulate_annotations(ds, pool, pairs_per_worker=10_000, subset_size=n,
                                 rng=np.random.default_rng(6))
    rate = store.triples[:, 3].mean()
    assert abs(rate - 0.9) < 3 * np.sqrt(0.9 * 0.1 / 10_000)

    # all items in distinct clusters: every pair differs
    ds2 = Dataset(np.zeros((n, 2)), labels=np.arange(n))
    store2 = simulate_annotations(ds2, pool, pairs_per_worker=10_000, subset_size=n,
                                  rng=np.random.default_rng(7))
    rate2 = store2.triples[:, 3].mean()
    assert abs(rate2 - 0.2) < 3 * np.sqrt(0.2 * 0.8 / 10_000)


def test_simulate_clamps_excess_pairs_with_warning():
    ds = _two_blob_dataset(4)
    pool = WorkerPool.homogeneous(2, 0.9, 0.9)
    with pytest.warns(UserWarning):
        store = simulate_annotations(ds, pool, pairs_per_worker=100, subset_size=4,
                                     rng=np.random.default_rng(8))
    assert store.n_annotations == 2 * 6  # C(4,2) per worker


def test_simulate_requires_labels():
    ds = Dataset(np.zeros((10, 2)))
    pool = WorkerPool.homogeneous(1, 0.9, 0.9)
    with pytest.raises(ValueError):
        simulate_annotations(ds, pool, 5, 5, np.random.default_rng(0))


def test_simulate_determinism():
    ds = _two_blob_dataset()
    pool = WorkerPool.homogeneous(5, 0.85, 0.8)
    a = simulate_annotations(ds, pool, 30, 50, np.random.default_rng(11))
    b = simulate_annotations(ds, pool, 30, 50, np.random.default_rng(11))
    np.testing.assert_array_equal(a.triples, b.triples)


def test_simulated_crowd_at_the_crowd10x_protocol_is_pinned():
    """The crowd of the 10x protocol, 5000 pinwheel items, 100 workers of
    accuracies drawn from [0.55, 0.95) and 200 pairs each from a subset of
    2000, and the generator state it leaves, which training goes on
    drawing from: a change in the triples or in the draw order fails."""
    rng = np.random.default_rng(0)
    ds = pinwheel_generate(5, 1000, rng=rng)
    pool = WorkerPool(rng.uniform(0.55, 0.95, 100), rng.uniform(0.55, 0.95, 100))
    store = simulate_annotations(ds, pool, pairs_per_worker=200, subset_size=2000, rng=rng)
    assert store.triples.shape == (20000, 4)
    digest = hashlib.sha256(store.triples.astype("<i8").tobytes()).hexdigest()
    assert digest == "db296e287a1f98b5856eb8134ff8b0312e83287f972e6202b8da91a2f7d0e614"
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {
            "state": 125806707770844996637362542877103937424,
            "inc": 87136372517582989555478159403783844777,
        },
        "has_uint32": 0,
        "uinteger": 3751821119,
    }


def searchsorted_pair_ids(ids, size):
    """The pair decoder as a search of the row offsets: the rows of the
    ids by bisection, then each id's column."""
    starts = np.zeros(size, dtype=np.int64)
    np.cumsum(size - 1 - np.arange(size - 1), out=starts[1:])
    a = np.searchsorted(starts, ids, side="right") - 1
    return a, ids - starts[a] + a + 1


@pytest.mark.parametrize("sizes", [range(2, 301), [2000]], ids=["2-300", "2000"])
def test_closed_form_pair_decoder_equals_the_offset_search_on_every_id(sizes):
    for size in sizes:
        ids = np.arange(size * (size - 1) // 2, dtype=np.int64)
        for got, want in zip(_decode_pair_ids(ids, size), searchsorted_pair_ids(ids, size)):
            assert got.dtype == want.dtype and np.array_equal(got, want), size
    ids = np.random.default_rng(0).choice(ids.size, size=(4, 25), replace=False)
    a, b = _decode_pair_ids(ids, size)
    assert a.shape == b.shape == ids.shape and np.all(a < b)


# ---------------------------------------------------------------------------
# minibatches


def test_minibatch_iterator_partitions_each_epoch():
    batches = list(minibatch_iterator(10, 3, np.random.default_rng(14)))
    assert [len(b) for b in batches] == [3, 3, 3, 1]
    np.testing.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(10))


def test_minibatch_iterator_full_batch_is_one_shuffle():
    batches = list(minibatch_iterator(8, 8, np.random.default_rng(15)))
    assert len(batches) == 1
    np.testing.assert_array_equal(np.sort(batches[0]), np.arange(8))


def test_minibatch_iterator_determinism_and_validation():
    a = list(minibatch_iterator(20, 7, np.random.default_rng(16)))
    b = list(minibatch_iterator(20, 7, np.random.default_rng(16)))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    with pytest.raises(ValueError):
        list(minibatch_iterator(5, 0, np.random.default_rng(0)))


@pytest.mark.parametrize(
    "n_items, batch_size, field",
    [(10, True, "batch_size"), (10, 2.0, "batch_size"), (10, 0, "batch_size"),
     (2.5, 2, "n_items"), (0, 2, "n_items")],
)
def test_minibatch_iterator_names_a_bad_count(n_items, batch_size, field):
    with pytest.raises(ValueError, match=f"^{field}"):
        next(minibatch_iterator(n_items, batch_size, np.random.default_rng(0)))
