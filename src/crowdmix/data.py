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
    """Map flat ids in [0, C(size,2)) to (a, b) index pairs with a < b."""
    cum = np.cumsum(size - 1 - np.arange(size - 1))
    a = np.searchsorted(cum, ids, side="right")
    prev = np.where(a > 0, cum[a - 1], 0)
    b = a + 1 + (ids - prev)
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

    triples = []  # one (n, 4) integer array per worker; a pool has at least one
    for m in range(pool.n_workers):
        ids = rng.choice(max_pairs, size=pairs_per_worker, replace=False)
        a, b = _decode_pair_ids(np.sort(ids), subset_size)
        same = labels[a] == labels[b]
        # same-cluster pairs: 1 w.p. alpha; different: 0 w.p. beta
        u = rng.uniform(size=a.shape[0])
        lab = np.where(same, u < pool.alpha[m], u >= pool.beta[m]).astype(int)
        triples.append(np.column_stack([subset[a], subset[b], np.full(a.size, m), lab]))
    triples = np.concatenate(triples)
    return AnnotationStore(triples, n_items=dataset.n_items, n_workers=pool.n_workers)


# ---------------------------------------------------------------------------
# minibatching


def minibatch_iterator(n_items: int, batch_size: int, rng: np.random.Generator):
    """One epoch of uniformly shuffled index batches covering 0..n-1."""
    check_count("n_items", n_items, 1)
    check_count("batch_size", batch_size, 1)
    order = rng.permutation(n_items)
    for start in range(0, n_items, batch_size):
        yield order[start : start + batch_size]
