"""Two-coin worker model for pairwise same-cluster annotations.

Worker m labels a pair (i, j) with L = 1 ("same cluster") or L = 0.  Their
accuracy is (alpha_m, beta_m): alpha_m is the probability of answering 1
when the pair really is in one cluster, beta_m of answering 0 when it is
not, so

    p(L | z_i, z_j) = Bern(L | alpha_m)^{[z_i = z_j]} Bern(L | 1 - beta_m)^{[z_i != z_j]}.

Labels are symmetric in (i, j) and stored canonically with i < j; absence
of a triple is the "unobserved" indicator state.

Worker accuracies enter through one protocol: an object whose
`log_stats()` returns a numpy array of (M, 4) rows (log a, log(1-a),
log b, log(1-b)).  It has two providers.  `BetaWorkers`, the posterior
both trainers learn, is one two-state Dirichlet record of batch shape
(M, 2), q(alpha_m) then q(beta_m) in row m, whose rows are expectations;
it starts at Beta(*WORKER_INIT), its prior is WORKER_PRIOR, Beta(1, 1) on
every accuracy, and `beta_natural_gradient` returns the minibatch target
record it steps to.  `data.WorkerPool` holds the simulator's true
accuracies.  The per-triple terms (`two_coin_terms`) and the expected
confusion counts (`confusion_counts`) are numpy arrays.
`expected_rel_loglik` gives the amortized trainer the expected two-coin
log-likelihood on the `nnet` tape, its q(z) a tensor and the worker rows
constants.  That likelihood is linear in the worker rows: its value is
the sum of log_stats times the confusion counts, which is how the
Bayesian trainer reads it off the counts its worker target is built
from.  The Bayesian message weights come from the same per-triple terms.
"""

from __future__ import annotations

import numpy as np

from .expfam import DirichletNat, dirichlet_expected_stats
from .nnet import Tensor, as_tensor, check_count, constant, mul, saved_value, take_rows, tensor_sum


def _triple_array(triples) -> np.ndarray:
    """The triples as an (n, 4) integer array.  A row of another length,
    or one with an entry that is not a whole number, is named.  Integer
    input skips the whole-number check, and an int array is not copied."""
    if len(triples) == 0:
        return np.empty((0, 4), dtype=int)
    try:
        t = np.asarray(triples)
    except ValueError as err:  # ragged rows
        row = next((r for r, triple in enumerate(triples) if len(triple) != 4), None)
        if row is None:
            raise
        raise ValueError(f"triple {row}: expected (i, j, m, label)") from err
    if t.ndim != 2 or t.shape[1] != 4:
        raise ValueError("triple 0: expected (i, j, m, label)")
    if t.dtype.kind in "biu":
        return t.astype(int, copy=False)
    values = t.astype(float)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
        ints = values.astype(int)
    whole = np.all(ints == values, axis=1)
    if not whole.all():
        row = int(np.argmin(whole))
        raise ValueError(
            f"triple {row}: entries must be whole numbers, got {tuple(values[row].tolist())}"
        )
    return ints


class AnnotationStore:
    """Immutable canonical set of (i, j, m, label) annotation triples.

    Triples are stored once per (min(i, j), max(i, j), m) key, sorted by
    key.  A duplicate in either orientation must repeat the label; the
    first bad triple, in input order, is named in the ValueError.  Both
    counts must be integers, not bools, and at least 0.
    """

    def __init__(self, triples, n_items: int, n_workers: int):
        check_count("n_items", n_items, 0)
        check_count("n_workers", n_workers, 0)
        self.n_items, self.n_workers = int(n_items), int(n_workers)
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

    @classmethod
    def _of_canonical(cls, triples: np.ndarray, n_items: int, n_workers: int) -> "AnnotationStore":
        """A store of valid, canonical integer rows, without `__init__`'s checks."""
        store = cls.__new__(cls)
        store.triples, store.n_items, store.n_workers = triples, n_items, n_workers
        triples.setflags(write=False)
        return store

    @property
    def n_annotations(self) -> int:
        return self.triples.shape[0]


# ---------------------------------------------------------------------------
# worker accuracies: Beta posteriors


# Both accuracy posteriors of every worker start at Beta(*WORKER_INIT).
WORKER_INIT = (10.0, 1.0)
# One worker's prior record, Beta(1, 1) on both accuracies, batch shape (2,).
WORKER_PRIOR = DirichletNat(np.zeros((2, 2)))
_TAU_KEYS = ("alpha_taus", "beta_taus")  # the document keys of the (M, 2) Beta parameters


class BetaWorkers(DirichletNat):
    """Beta posteriors of every worker as one two-state Dirichlet record of
    batch shape (M, 2), eta (M, 2, 2): row m holds q(alpha_m), then
    q(beta_m).  Logs enter as expectations."""

    def __post_init__(self):
        super().__post_init__()
        if self.eta.shape[1:] != (2, 2):
            raise ValueError(f"BetaWorkers needs an eta of shape (M, 2, 2), got {self.eta.shape}")

    @classmethod
    def init(cls, n_workers: int) -> "BetaWorkers":
        """Both posteriors of every worker at Beta(*WORKER_INIT)."""
        return cls(np.tile(np.subtract(WORKER_INIT, 1.0), (n_workers, 2, 1)))

    @classmethod
    def from_taus(cls, alpha_taus, beta_taus) -> "BetaWorkers":
        """From (M, 2) arrays of Beta parameters, one row per worker."""
        taus = [np.reshape(t, (len(t), 2)) for t in (alpha_taus, beta_taus)]
        return cls(np.stack(taus, axis=1) - 1.0)

    @property
    def n_workers(self) -> int:
        return self.eta.shape[0]

    @property
    def alpha_taus(self) -> np.ndarray:
        return self.alpha[:, 0]

    @property
    def beta_taus(self) -> np.ndarray:
        return self.alpha[:, 1]

    def log_stats(self) -> np.ndarray:
        """(M, 4) rows of (E log a, E log(1-a), E log b, E log(1-b))."""
        return dirichlet_expected_stats(self).reshape(-1, 4)

    def to_dict(self) -> dict:
        return {key: getattr(self, key).tolist() for key in _TAU_KEYS}

    @classmethod
    def from_dict(cls, doc: dict | None) -> "BetaWorkers":
        """Posteriors from a `to_dict` document, the `workers` key of a model
        document; null, which older documents hold or their missing key
        gives, loads as zero workers, as do empty lists.  Tau arrays that
        are missing, ragged, not (M, 2) or not positive fail with a
        ValueError that names `workers.<key>`."""
        doc = doc or dict.fromkeys(_TAU_KEYS, [])
        taus = []
        for key in _TAU_KEYS:
            saved = saved_value(doc, key, f"workers.{key}")
            try:
                t = np.array(saved, dtype=float)
                if t.shape != (0,) and (t.ndim != 2 or t.shape[1] != 2):
                    raise ValueError(f"shape {t.shape}, need (M, 2)")
                if taus and len(t) != len(taus[0]):
                    raise ValueError(f"{len(t)} rows, alpha_taus {len(taus[0])}")
                # the Beta domain, eta = tau - 1 > -1, checked per key before stacking
                if not np.all(np.isfinite(t) & (t - 1.0 > -1.0)):
                    raise ValueError("entries must be finite and positive")
            except ValueError as err:
                raise ValueError(f"workers.{key}: {err}") from err
            taus.append(t)
        return cls.from_taus(*taus)


# ---------------------------------------------------------------------------
# likelihood pieces

# Per triple (i, j, m, L) the expected log-likelihood is w p_same + c, with
# w = <ls, A> and c = <ls, B> for the worker's log_stats row ls,
# A = (L, 1-L, -(1-L), -L) and B = (0, 0, 1-L, L).  Both are linear in L:
# w = u + L v and c = s + L r, with u = log((1-a)/b), the vote weight
# v = log(a/(1-a)) + log(b/(1-b)), s = log b and r = log((1-b)/b).
# ls @ _DIFFERENCES is (u, log(a/(1-a)), log(b/(1-b)), log b), @ _CONTRASTS
# (u, v, s, r), and @ _BY_LABEL (u, u + v, s, s + r): w and c for L = 0, 1.
# Every entry of each product sums at most two nonzero terms, so its
# rounding does not depend on the order the terms add in.
_DIFFERENCES = np.array([[0, 1, 0, 0], [1, -1, 0, 0], [-1, 0, 1, 1], [0, 0, -1, 0]], float)
_CONTRASTS = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, -1], [0, 0, 1, 0]], float)
_BY_LABEL = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], float)


def _worker_contrasts(log_stats: np.ndarray) -> np.ndarray:
    """(M, 4) rows (u, v, s, r) of the (M, 4) log_stats rows."""
    return (log_stats @ _DIFFERENCES) @ _CONTRASTS


def _check_q_z(store: AnnotationStore, shape: tuple) -> None:
    """Name a q_z that is not (n_items, K) for the store's items."""
    if len(shape) != 2 or shape[0] != store.n_items:
        raise ValueError(f"q_z has shape {shape}, the store needs {store.n_items} rows")


def two_coin_terms(store: AnnotationStore, log_stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per stored triple, w = <ls_m, A> and c = <ls_m, B>: its expected
    log-likelihood is w p_same + c.  w, the gap E log p(L | same) -
    E log p(L | different), weighs the message between q(z_i) and q(z_j)."""
    table = (_worker_contrasts(log_stats) @ _BY_LABEL).reshape(-1)  # (M * 4,)
    at = 4 * store.triples[:, 2] + store.triples[:, 3]
    return table[at], table[at + 2]


def expected_worker_weights(workers) -> np.ndarray:
    """Per-worker expected vote weight E[log(a/(1-a))] + E[log(b/(1-b))]."""
    return _worker_contrasts(workers.log_stats())[:, 1]


def expected_rel_loglik(
    store: AnnotationStore, q_z, log_stats: np.ndarray, scale: float = 1.0
) -> Tensor:
    """E_q log p(L | Z, alpha, beta) summed over the stored triples, times scale.

    Per triple: w p_same + c, with the terms of `two_coin_terms` and
    p_same = sum_k q(z_i=k) q(z_j=k).  `q_z` (n_items, K) may be a tape
    tensor or a numpy array; the (M, 4) `log_stats` rows are constants.
    The value equals scale * sum(log_stats * confusion_counts(store, q_z)).
    """
    q_z = as_tensor(q_z)
    _check_q_z(store, q_z.data.shape)
    weight, const = two_coin_terms(store, log_stats)
    t = store.triples
    p_same = tensor_sum(mul(take_rows(q_z, t[:, 0]), take_rows(q_z, t[:, 1])), axis=-1)
    return tensor_sum(mul(constant(weight), p_same) + const) * scale


def confusion_counts(store: AnnotationStore, q_z: np.ndarray) -> np.ndarray:
    """(M, 4) expected confusion counts of the store's workers under the
    (n_items, K) cluster probabilities q_z, counting each canonical i < j
    triple once.

    Triple t adds the row A p_same + B = (L p, (1-L) p, (1-L)(1-p),
    L (1-p)) to its worker's row: the gradient of its expected
    log-likelihood in log_stats, which that likelihood is linear in.  So
    sum(log_stats * counts) is `expected_rel_loglik` at scale 1.
    """
    q_z = np.asarray(q_z, dtype=float)
    _check_q_z(store, q_z.shape)
    t = store.triples
    p = np.sum(q_z[t[:, 0]] * q_z[t[:, 1]], axis=-1)[:, None]
    labels, flipped = t[:, 3:].astype(float), 1.0 - t[:, 3:]
    counts = np.zeros((store.n_workers, 4))
    rows = np.hstack([labels * p, flipped * p, flipped * (1.0 - p), labels * (1.0 - p)])
    np.add.at(counts, t[:, 2], rows)
    return counts


def beta_natural_gradient(counts: np.ndarray, scale: float = 1.0) -> BetaWorkers:
    """Minibatch target of the worker Beta posteriors: WORKER_PRIOR plus
    the scaled (M, 4) `confusion_counts` of the minibatch.

    The prior record broadcasts over the workers.  The natural gradient
    at posteriors eta is the target's eta minus eta.  The counts are
    non-negative, so the target is always a valid record.
    """
    return BetaWorkers(WORKER_PRIOR.eta + scale * counts.reshape(-1, 2, 2))


def sample_annotation_minibatch(store: AnnotationStore, batch: np.ndarray, batch_size: int, rng):
    """Uniform without-replacement triple sample, joined with a data batch.

    Returns the working set (the sorted union of `batch` and the sampled
    triples' items), the sampled triples renumbered onto working-set
    positions, and the N_a/|S| scale.  A `batch_size` of at least the
    store's size takes every triple and draws nothing from `rng`.  The
    sample, sorted rows renumbered by an increasing map, stays canonical.
    """
    check_count("batch_size", batch_size, 1)
    n = store.n_annotations
    t, scale = store.triples, 1.0
    if batch_size < n:
        t = t[np.sort(rng.choice(n, size=batch_size, replace=False))]
        scale = n / float(batch_size)
    working = np.unique(np.concatenate([batch, t[:, :2].ravel()]))
    renumbered = np.column_stack([np.searchsorted(working, t[:, :2]), t[:, 2:]])
    return working, AnnotationStore._of_canonical(renumbered, working.size, store.n_workers), scale
