"""Two-coin worker model for pairwise same-cluster annotations.

Worker m labels a pair (i, j) with L = 1 ("same cluster") or L = 0.  Their
accuracy is (alpha_m, beta_m): alpha_m is the probability of answering 1
when the pair really is in one cluster, beta_m of answering 0 when it is
not, so

    p(L | z_i, z_j) = Bern(L | alpha_m)^{[z_i = z_j]} Bern(L | 1 - beta_m)^{[z_i != z_j]}.

Labels are symmetric in (i, j) and stored canonically with i < j; absence
of a triple is the "unobserved" indicator state.

The likelihood pieces read worker accuracies through one protocol: an
object whose `log_stats()` returns (M, 4) rows of (log a, log(1-a),
log b, log(1-b)), as expectations for the Beta posteriors of
`BetaWorkers`.  The point providers are `scdc.PointParams` (the
amortized trainer's logits) and `data.WorkerPool` (the simulator's true
accuracies).
"""

from __future__ import annotations

import numpy as np

from .expfam import BetaNat, dirichlet_expected_stats


def _triple_array(triples) -> np.ndarray:
    """The triples as an (n, 4) integer array; a row of another length is named."""
    if len(triples) == 0:
        return np.empty((0, 4), dtype=int)
    try:
        t = np.array(triples, dtype=int)
    except ValueError as err:  # ragged rows
        row = next((r for r, triple in enumerate(triples) if len(triple) != 4), None)
        if row is None:
            raise
        raise ValueError(f"triple {row}: expected (i, j, m, label)") from err
    if t.ndim != 2 or t.shape[1] != 4:
        raise ValueError("triple 0: expected (i, j, m, label)")
    return t


class AnnotationStore:
    """Immutable canonical set of (i, j, m, label) annotation triples.

    Triples are stored once per (min(i, j), max(i, j), m) key, sorted by
    key.  A duplicate in either orientation must repeat the label; the
    first bad triple, in input order, is named in the ValueError.
    """

    def __init__(self, triples, n_items: int, n_workers: int):
        self.n_items = int(n_items)
        self.n_workers = int(n_workers)
        i, j, m, label = _triple_array(triples).T
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        # stable sort by key: the first row of each key group is its earliest
        order = np.lexsort((m, hi, lo))
        keys = np.stack([lo, hi, m], axis=1)[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        group_start = np.maximum.accumulate(np.where(first, np.arange(order.size), 0))
        conflict = np.empty(order.size, dtype=bool)
        conflict[order] = label[order] != label[order][group_start]
        problems = np.stack([
            i == j,
            (lo < 0) | (hi >= self.n_items),
            (m < 0) | (m >= self.n_workers),
            (label != 0) & (label != 1),
            conflict,
        ])
        bad = problems.any(axis=0)
        if np.any(bad):
            row = int(np.argmax(bad))
            messages = (
                f"self-pair ({i[row]}, {j[row]})",
                "item index out of range",
                f"worker index {m[row]} out of range",
                f"label must be 0 or 1, got {label[row]}",
                f"conflicting label for pair {(int(lo[row]), int(hi[row]), int(m[row]))}",
            )
            raise ValueError(f"triple {row}: {messages[int(np.argmax(problems[:, row]))]}")
        self.triples = np.column_stack([keys[first], label[order][first]])
        self.triples.setflags(write=False)

    @property
    def n_annotations(self) -> int:
        return self.triples.shape[0]


# ---------------------------------------------------------------------------
# worker accuracies: Beta posteriors


class BetaWorkers:
    """Beta posteriors q(alpha_m), q(beta_m) as two BetaNat records of batch
    shape (M,); logs enter as expectations."""

    def __init__(self, alpha_nat: BetaNat, beta_nat: BetaNat):
        if not (isinstance(alpha_nat, BetaNat) and isinstance(beta_nat, BetaNat)):
            raise TypeError("posteriors must be BetaNat")
        if alpha_nat.eta.ndim != 2 or alpha_nat.eta.shape != beta_nat.eta.shape:
            raise ValueError("need one (alpha, beta) posterior pair per worker")
        self.alpha_nat = alpha_nat
        self.beta_nat = beta_nat

    @classmethod
    def from_taus(cls, alpha_taus, beta_taus) -> "BetaWorkers":
        """From (M, 2) arrays of Beta parameters, one row per worker."""
        return cls(*(BetaNat(np.reshape(t, (len(t), 2)) - 1.0) for t in (alpha_taus, beta_taus)))

    @classmethod
    def constant_init(cls, n_workers: int, tau1: float, tau2: float) -> "BetaWorkers":
        taus = np.tile([tau1, tau2], (n_workers, 1))
        return cls.from_taus(taus, taus)

    @property
    def n_workers(self) -> int:
        return self.alpha_nat.eta.shape[0]

    @property
    def alpha_taus(self) -> np.ndarray:
        return self.alpha_nat.tau

    @property
    def beta_taus(self) -> np.ndarray:
        return self.beta_nat.tau

    def log_stats(self) -> np.ndarray:
        """(M, 4) rows of (E log a, E log(1-a), E log b, E log(1-b))."""
        return np.concatenate(
            [dirichlet_expected_stats(self.alpha_nat), dirichlet_expected_stats(self.beta_nat)],
            axis=1,
        )


# ---------------------------------------------------------------------------
# likelihood pieces


def _message_weights(labels: np.ndarray, log_stats: np.ndarray) -> np.ndarray:
    """w = E[log((1-a)/b)] + L (E[log(a/(1-a))] + E[log(b/(1-b))]) per triple."""
    base = log_stats[:, 1] - log_stats[:, 2]
    swing = (log_stats[:, 0] - log_stats[:, 1]) + (log_stats[:, 2] - log_stats[:, 3])
    return base + labels * swing


def expected_worker_weights(workers) -> np.ndarray:
    """Per-worker expected vote weight E[log(a/(1-a))] + E[log(b/(1-b))]."""
    ls = workers.log_stats()
    return (ls[:, 0] - ls[:, 1]) + (ls[:, 2] - ls[:, 3])


def expected_rel_loglik(store: AnnotationStore, q_z: np.ndarray, workers, scale: float = 1.0) -> float:
    """E_q log p(L | Z, alpha, beta) summed over the stored triples.

    Per triple: w * <E t(z_i), E t(z_j)> + E[L log((1-b)/b) + log b],
    with w the message weight above.
    """
    if store.n_annotations == 0:
        return 0.0
    t = store.triples
    q_z = np.asarray(q_z, dtype=float)
    ls = workers.log_stats()[t[:, 2]]
    labels = t[:, 3].astype(float)
    w = _message_weights(labels, ls)
    p_same = np.sum(q_z[t[:, 0]] * q_z[t[:, 1]], axis=1)
    const = labels * (ls[:, 3] - ls[:, 2]) + ls[:, 2]
    return float(scale * np.sum(w * p_same + const))


def beta_natural_gradient(
    store: AnnotationStore,
    q_z: np.ndarray,
    prior: tuple[BetaNat, BetaNat],
    current: BetaWorkers,
    scale: float = 1.0,
):
    """Natural gradients of the objective in the worker Beta parameters.

    Fixed point: posterior = prior + (scaled) expected confusion counts,
    counting each canonical i < j triple once.  Returns (M, 2) arrays for
    the alpha and beta parameters.
    """
    q_z = np.asarray(q_z, dtype=float)
    M = current.n_workers
    counts_a = np.zeros((M, 2))
    counts_b = np.zeros((M, 2))
    if store.n_annotations > 0:
        t = store.triples
        labels = t[:, 3].astype(float)
        p_same = np.sum(q_z[t[:, 0]] * q_z[t[:, 1]], axis=1)
        np.add.at(counts_a, t[:, 2], p_same[:, None] * np.stack([labels, 1.0 - labels], axis=1))
        np.add.at(
            counts_b, t[:, 2], (1.0 - p_same)[:, None] * np.stack([1.0 - labels, labels], axis=1)
        )
    prior_a, prior_b = prior
    grad_a = prior_a.eta + scale * counts_a - current.alpha_nat.eta
    grad_b = prior_b.eta + scale * counts_b - current.beta_nat.eta
    return grad_a, grad_b


def sample_annotation_minibatch(store: AnnotationStore, batch: np.ndarray, batch_size: int, rng):
    """Uniform without-replacement triple sample, joined with a data batch.

    Returns the working set (the sorted union of `batch` and the sampled
    triples' items), the sampled triples renumbered onto working-set
    positions, and the N_a/|S| scale.  A `batch_size` of at least the
    store's size takes every triple and draws nothing from `rng`.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    n = store.n_annotations
    t, scale = store.triples, 1.0
    if batch_size < n:
        t = t[np.sort(rng.choice(n, size=batch_size, replace=False))]
        scale = n / float(batch_size)
    working = np.unique(np.concatenate([batch, t[:, :2].ravel()]))
    renumbered = np.column_stack([np.searchsorted(working, t[:, :2]), t[:, 2:]])
    return working, AnnotationStore(renumbered, working.size, store.n_workers), scale
