"""Dataset generation, annotation simulation, and file I/O tests."""

import numpy as np
import pytest

from crowdmix.data import (
    Dataset,
    WorkerPool,
    load_annotations,
    load_dataset,
    load_labels,
    load_observations,
    minibatch_iterator,
    pinwheel_generate,
    save_annotations,
    save_dataset,
    save_labels,
    save_observations,
    simulate_annotations,
)
from crowdmix.relational import AnnotationStore


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
    ds = Dataset(np.zeros((3, 2)), labels=[0, 1, 1])
    assert ds.n_items == 3 and ds.dim == 2


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
    assert store.annotated_items.shape[0] <= 100
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


def test_simulate_balanced_pair_types():
    ds = _two_blob_dataset(20)
    pool = WorkerPool.homogeneous(4, 0.9, 0.9)
    store = simulate_annotations(ds, pool, pairs_per_worker=10, subset_size=40,
                                 rng=np.random.default_rng(9), balanced=True)
    t = store.triples
    for m in range(4):
        rows = t[t[:, 2] == m]
        same = ds.labels[rows[:, 0]] == ds.labels[rows[:, 1]]
        assert same.sum() == 5 and (~same).sum() == 5


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


# ---------------------------------------------------------------------------
# file I/O


def test_observation_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    obs = np.concatenate(
        [rng.standard_normal((5, 3)), [[np.pi, 1e-300, -1.0 / 3.0]]], axis=0
    )
    path = tmp_path / "obs.csv"
    save_observations(path, obs)
    np.testing.assert_array_equal(load_observations(path), obs)


def test_dataset_round_trip(tmp_path):
    ds = pinwheel_generate(3, 10, rng=np.random.default_rng(13))
    save_dataset(tmp_path / "o.csv", tmp_path / "l.txt", ds)
    back = load_dataset(tmp_path / "o.csv", tmp_path / "l.txt")
    np.testing.assert_array_equal(back.observations, ds.observations)
    np.testing.assert_array_equal(back.labels, ds.labels)
    no_labels = load_dataset(tmp_path / "o.csv")
    assert no_labels.labels is None


def test_labels_round_trip_and_errors(tmp_path):
    path = tmp_path / "labels.txt"
    save_labels(path, [0, 2, 1])
    np.testing.assert_array_equal(load_labels(path), [0, 2, 1])
    path.write_text("0\nx\n")
    with pytest.raises(ValueError, match="line 2"):
        load_labels(path)
    path.write_text("")
    with pytest.raises(ValueError, match="no label rows"):
        load_labels(path)


def test_observation_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_observations(path)
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_observations(path)


def test_annotation_round_trip_and_canonicalization(tmp_path):
    store = AnnotationStore([(0, 3, 1, 1), (1, 2, 0, 0)], n_items=4, n_workers=2)
    path = tmp_path / "ann.csv"
    save_annotations(path, store)
    back = load_annotations(path, n_items=4, n_workers=2)
    np.testing.assert_array_equal(back.triples, store.triples)

    path.write_text("3,1,0,1\n")
    flipped = load_annotations(path)
    np.testing.assert_array_equal(flipped.triples, [[1, 3, 0, 1]])
    assert flipped.n_items == 4 and flipped.n_workers == 1


def test_annotation_parse_errors(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("0,1,0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_annotations(path)
    path.write_text("0,1,zero,1\n")
    with pytest.raises(ValueError, match="line 1"):
        load_annotations(path)
    path.write_text("0,1,5,1\n")
    with pytest.raises(ValueError, match="worker"):
        load_annotations(path, n_items=2, n_workers=2)
    path.write_text("0,1,0,2\n")
    with pytest.raises(ValueError):
        load_annotations(path, n_items=2, n_workers=1)


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
