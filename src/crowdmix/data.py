"""Datasets and simulated crowds.

Pinwheel generation, worker-annotation simulation against ground-truth
labels, plain-text file I/O for observations/labels/annotations, and
the minibatch index iterator.  Every writer/reader pair round-trips
bit-exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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
            labels = np.array(self.labels, dtype=int)
            if labels.shape != (obs.shape[0],):
                raise ValueError("labels must be one integer per observation")
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
        if np.any(alpha <= 0) or np.any(alpha > 1) or np.any(beta <= 0) or np.any(beta > 1):
            raise ValueError("accuracies must lie in (0, 1]")
        alpha.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def homogeneous(cls, n_workers: int, alpha: float, beta: float) -> "WorkerPool":
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
    rng: np.random.Generator | None = None,
) -> Dataset:
    """Spiral-arm clusters in the plane.

    Each arm draws (radial, tangential) Gaussian features centered at
    (1, 0), then rotates them counterclockwise by the arm's base angle
    plus rate * exp(radial), which warps the arm into a spiral.
    """
    if clusters < 1 or per_cluster < 1:
        raise ValueError("cluster counts must be positive")
    if radial_std < 0 or tangential_std < 0:
        raise ValueError("noise scales must be nonnegative")
    if rng is None:
        rng = np.random.default_rng()
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
    balanced: bool = False,
) -> AnnotationStore:
    """Noisy pairwise same-cluster annotations from simulated workers.

    A subset of items is drawn once; every worker then labels its own
    without-replacement sample of item pairs from that subset.  A pair
    from the same cluster is labeled 1 with probability alpha_m, a pair
    from different clusters is labeled 0 with probability beta_m.  With
    `balanced`, each worker's pairs are half same-cluster and half
    different-cluster (ground truth permitting).
    """
    if dataset.labels is None:
        raise ValueError("simulation needs ground-truth labels")
    if not 2 <= subset_size <= dataset.n_items:
        raise ValueError("subset_size must lie in [2, N]")
    if pairs_per_worker < 1:
        raise ValueError("pairs_per_worker must be positive")
    max_pairs = math.comb(subset_size, 2)
    if pairs_per_worker > max_pairs:
        warnings.warn(
            f"pairs_per_worker {pairs_per_worker} exceeds the {max_pairs} "
            f"distinct pairs in a subset of {subset_size}; clamping"
        )
        pairs_per_worker = max_pairs
    subset = rng.choice(dataset.n_items, size=subset_size, replace=False)
    labels = dataset.labels[subset]

    if balanced:
        iu, ju = np.triu_indices(subset_size, k=1)
        same_ids = np.where(labels[iu] == labels[ju])[0]
        diff_ids = np.where(labels[iu] != labels[ju])[0]

    triples = []
    for m in range(pool.n_workers):
        if balanced:
            want_same = min(pairs_per_worker // 2, same_ids.shape[0])
            want_diff = min(pairs_per_worker - want_same, diff_ids.shape[0])
            want_same = min(pairs_per_worker - want_diff, same_ids.shape[0])
            if want_same + want_diff < pairs_per_worker:
                warnings.warn(
                    f"worker {m}: only {want_same + want_diff} pairs available "
                    f"under the balanced constraint"
                )
            ids = np.concatenate(
                [
                    rng.choice(same_ids, size=want_same, replace=False),
                    rng.choice(diff_ids, size=want_diff, replace=False),
                ]
            )
            a, b = iu[ids], ju[ids]
        else:
            ids = rng.choice(max_pairs, size=pairs_per_worker, replace=False)
            a, b = _decode_pair_ids(np.sort(ids), subset_size)
        same = labels[a] == labels[b]
        # same-cluster pairs: 1 w.p. alpha; different: 0 w.p. beta
        u = rng.uniform(size=a.shape[0])
        lab = np.where(same, u < pool.alpha[m], u >= pool.beta[m]).astype(int)
        for ai, bi, li in zip(subset[a], subset[b], lab):
            triples.append((int(ai), int(bi), m, int(li)))
    return AnnotationStore(triples, n_items=dataset.n_items, n_workers=pool.n_workers)


# ---------------------------------------------------------------------------
# file I/O


def save_observations(path, observations: np.ndarray) -> None:
    observations = np.asarray(observations, dtype=float)
    with open(path, "w") as fh:
        for row in observations:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def load_observations(path) -> np.ndarray:
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError as err:
                raise ValueError(f"{path}: line {lineno}: {err}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} values, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no observation rows")
    return np.array(rows, dtype=float)


def save_labels(path, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        for v in np.asarray(labels, dtype=int):
            fh.write(f"{v}\n")


def load_labels(path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: labels must be integers, got {line!r}"
                ) from None
    if not values:
        raise ValueError(f"{path}: no label rows")
    return np.array(values, dtype=int)


def save_dataset(obs_path, labels_path, dataset: Dataset) -> None:
    save_observations(obs_path, dataset.observations)
    if labels_path is not None:
        if dataset.labels is None:
            raise ValueError("dataset has no labels to save")
        save_labels(labels_path, dataset.labels)


def load_dataset(obs_path, labels_path=None) -> Dataset:
    observations = load_observations(obs_path)
    labels = load_labels(labels_path) if labels_path is not None else None
    return Dataset(observations, labels)


def save_annotations(path, store: AnnotationStore) -> None:
    with open(path, "w") as fh:
        for i, j, m, label in store.triples:
            fh.write(f"{i},{j},{m},{label}\n")


def load_annotations(path, n_items: int | None = None, n_workers: int | None = None) -> AnnotationStore:
    """Parse canonical `i,j,m,label` rows.

    Item and worker counts default to one past the largest index seen.
    """
    triples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected i,j,m,label, got {line!r}"
                )
            try:
                i, j, m, label = (int(p) for p in parts)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: fields must be integers, got {line!r}"
                ) from None
            triples.append((i, j, m, label))
    if n_items is None:
        n_items = 1 + max(max(t[0], t[1]) for t in triples) if triples else 0
    if n_workers is None:
        n_workers = 1 + max(t[2] for t in triples) if triples else 0
    try:
        return AnnotationStore(triples, n_items=n_items, n_workers=n_workers)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# minibatching


def minibatch_iterator(n_items: int, batch_size: int, rng: np.random.Generator):
    """One epoch of uniformly shuffled index batches covering 0..n-1."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = rng.permutation(n_items)
    for start in range(0, n_items, batch_size):
        yield order[start : start + batch_size]
