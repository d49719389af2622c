"""Datasets and simulated crowds.

Pinwheel generation, worker-annotation simulation against ground-truth
labels, and the minibatch index iterator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .nnet import check_count
from .relational import AnnotationStore, expected_worker_weights

# Point accuracies are clamped this far inside (0, 1) before any log.
ACCURACY_CLAMP = 1e-6


@dataclass(frozen=True)
class Dataset:
    """Observation matrix with optional ground-truth labels."""

    observations: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        obs = np.array(self.observations, dtype=float)
        if obs.ndim != 2 or obs.shape[0] < 1:
            raise ValueError("observations must be a nonempty (N, D) matrix")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations must be finite")
        obs.setflags(write=False)
        object.__setattr__(self, "observations", obs)
        if self.labels is not None:
            values = np.asarray(self.labels, dtype=float)
            if values.shape != (obs.shape[0],):
                raise ValueError("labels must be one integer per observation")
            with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
                labels = values.astype(int)
            if not np.array_equal(labels, values):
                first = int(np.argmax(labels != values))
                raise ValueError(f"label {first} must be a whole number, got {values[first]}")
            if labels.min() < 0:
                raise ValueError("labels must be nonnegative")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def n_items(self) -> int:
        return self.observations.shape[0]

    @property
    def dim(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True)
class WorkerPool:
    """Ground-truth per-worker accuracies used by the simulator.

    Accuracies lie in (0, 1]; the boundary value 1 gives a noiseless
    worker.  `log_stats()` is the worker protocol of `relational`, so
    the true pool enters the same likelihood and weight functions as the
    model-side estimates.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        beta = np.array(self.beta, dtype=float)
        if alpha.ndim != 1 or alpha.shape != beta.shape or alpha.shape[0] < 1:
            raise ValueError("alpha and beta must be equal-length vectors")
        for name, x in (("alpha", alpha), ("beta", beta)):
            if not np.all((x > 0) & (x <= 1)):  # NaN fails both comparisons
                raise ValueError(f"{name}: accuracies must lie in (0, 1], got {x.tolist()}")
        alpha.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def homogeneous(cls, n_workers: int, alpha: float, beta: float) -> "WorkerPool":
        check_count("n_workers", n_workers, 1)
        return cls(np.full(n_workers, alpha), np.full(n_workers, beta))

    @property
    def n_workers(self) -> int:
        return self.alpha.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return expected_worker_weights(self)

    def log_stats(self) -> np.ndarray:
        """(M, 4) rows of (log a, log(1-a), log b, log(1-b)), with the
        accuracies clamped to [ACCURACY_CLAMP, 1 - ACCURACY_CLAMP]."""
        a, b = (np.clip(x, ACCURACY_CLAMP, 1.0 - ACCURACY_CLAMP) for x in (self.alpha, self.beta))
        return np.stack([np.log(a), np.log1p(-a), np.log(b), np.log1p(-b)], axis=1)


# ---------------------------------------------------------------------------
# pinwheel


def pinwheel_generate(
    clusters: int,
    per_cluster: int,
    radial_std: float = 0.3,
    tangential_std: float = 0.05,
    rate: float = 0.25,
    *,
    rng: np.random.Generator,
) -> Dataset:
    """Spiral-arm clusters in the plane.

    Each arm draws (radial, tangential) Gaussian features centered at
    (1, 0), then rotates them counterclockwise by the arm's base angle
    plus rate * exp(radial), which warps the arm into a spiral.
    """
    check_count("clusters", clusters, 1)
    check_count("per_cluster", per_cluster, 1)
    for name, value in (("radial_std", radial_std), ("tangential_std", tangential_std)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate}")
    base = np.linspace(0.0, 2.0 * np.pi, clusters, endpoint=False)
    labels = np.repeat(np.arange(clusters), per_cluster)
    features = rng.standard_normal((labels.shape[0], 2)) * np.array(
        [radial_std, tangential_std]
    )
    features[:, 0] += 1.0
    angles = base[labels] + rate * np.exp(features[:, 0])
    cos, sin = np.cos(angles), np.sin(angles)
    observations = np.stack(
        [
            features[:, 0] * cos - features[:, 1] * sin,
            features[:, 0] * sin + features[:, 1] * cos,
        ],
        axis=1,
    )
    return Dataset(observations, labels)


# ---------------------------------------------------------------------------
# annotation simulation


def _decode_pair_ids(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Map flat ids in [0, C(size,2)) to (a, b) index pairs with a < b, in
    row-major order: (0, 1), (0, 2), ..., (0, size-1), (1, 2), ...  `ids`
    may have any shape, which both index arrays take; the row offsets are
    built once per call.  Row a starts at id a (2 size - 1 - a) / 2, so
    each id's row is the floor of the smaller root of that quadratic.  In
    floating point that floor is off by at most one while size**2 lies
    far below 2**53, and one comparison each way with the offsets
    corrects it."""
    starts = np.zeros(size, dtype=np.int64)  # the id of each pair (a, a + 1)
    np.cumsum(size - 1 - np.arange(size - 1), out=starts[1:])
    c = 2.0 * size - 1.0
    a = ((c - np.sqrt(c * c - 8.0 * ids)) * 0.5).astype(np.int64)  # never below 0
    np.minimum(a, size - 2, out=a)
    a -= starts[a] > ids
    a += starts[a + 1] <= ids
    b = ids - starts[a] + a + 1
    return a, b


def simulate_annotations(
    dataset: Dataset,
    pool: WorkerPool,
    pairs_per_worker: int,
    subset_size: int,
    rng: np.random.Generator,
) -> AnnotationStore:
    """Noisy pairwise same-cluster annotations from simulated workers.

    A subset of items is drawn once; every worker then labels its own
    without-replacement sample of item pairs from that subset.  A pair
    from the same cluster is labeled 1 with probability alpha_m, a pair
    from different clusters is labeled 0 with probability beta_m.

    `rng` is drawn from in a fixed order: the subset, then per worker its
    pair ids and then one uniform per pair, against which its labels are
    tested.  The caller's generator continues from there (the benchmark
    and the calibration script train on it), so a change in this order
    changes every run that follows.  The triples, worker by worker with
    each worker's pairs in id order, are canonicalized by `AnnotationStore`.
    """
    if dataset.labels is None:
        raise ValueError("simulation needs ground-truth labels")
    check_count("subset_size", subset_size, 2)
    if subset_size > dataset.n_items:
        raise ValueError("subset_size must lie in [2, N]")
    check_count("pairs_per_worker", pairs_per_worker, 1)
    max_pairs = math.comb(subset_size, 2)
    if pairs_per_worker > max_pairs:
        warnings.warn(
            f"pairs_per_worker {pairs_per_worker} exceeds the {max_pairs} "
            f"distinct pairs in a subset of {subset_size}; clamping"
        )
        pairs_per_worker = max_pairs
    subset = rng.choice(dataset.n_items, size=subset_size, replace=False)
    labels = dataset.labels[subset]

    n_workers = pool.n_workers
    ids = np.empty((n_workers, pairs_per_worker), dtype=np.int64)
    u = np.empty((n_workers, pairs_per_worker))
    for m in range(n_workers):
        ids[m] = rng.choice(max_pairs, size=pairs_per_worker, replace=False)
        u[m] = rng.uniform(size=pairs_per_worker)
    ids.sort(axis=1)
    a, b = _decode_pair_ids(ids, subset_size)
    del ids
    triples = np.empty((n_workers, pairs_per_worker, 4), dtype=int)
    triples[..., 0], triples[..., 1] = subset[a], subset[b]
    triples[..., 2] = np.arange(n_workers)[:, None]
    # same-cluster pairs: 1 w.p. alpha; different: 0 w.p. beta
    triples[..., 3] = np.where(
        labels[a] == labels[b], u < pool.alpha[:, None], u >= pool.beta[:, None]
    )
    del a, b, u
    return AnnotationStore(triples.reshape(-1, 4), dataset.n_items, n_workers)


# ---------------------------------------------------------------------------
# minibatching


def minibatch_iterator(n_items: int, batch_size: int, rng: np.random.Generator):
    """One epoch of uniformly shuffled index batches covering 0..n-1."""
    check_count("n_items", n_items, 1)
    check_count("batch_size", batch_size, 1)
    order = rng.permutation(n_items)
    for start in range(0, n_items, batch_size):
        yield order[start : start + batch_size]
