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
accuracies.

`expected_rel_loglik` is the one relational op of both trainers: from
one p_same per triple it returns the expected two-coin log-likelihood
under q(z), as one `nnet` tape node, and the workers' (M, 4) confusion
counts, which the worker target is built from.  The likelihood is linear
in the worker rows, so its value is the sum of log_stats times those
counts.  The per-triple weights of `two_coin_terms` are its slope in
p_same: the node's gradient and the Bayesian message weights.
"""

from __future__ import annotations

import numpy as np

from .expfam import DirichletNat, dirichlet_expected_stats
from .nnet import _record, as_tensor, check_count, saved_value, scatter_add_rows


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

    Triples are stored once per (lo, hi, m) = (min(i, j), max(i, j), m)
    key, sorted by key.  The key is one int64, (lo * n_items + hi) *
    max(n_workers, 1) + m, which orders valid rows as (lo, hi, m) does, so
    n_items^2 * max(n_workers, 1) must be at most 2^63; larger counts
    raise a ValueError naming both.  Each key's earliest input row is the
    one stored; a later row of the key, in either orientation, must repeat
    its label.  The first bad triple, in input order, is named in the
    ValueError: a bad row's key may wrap or equal a valid row's, but then
    only rows after the first bad one are misjudged.  Both counts must be
    integers, not bools, and at least 0.
    """

    def __init__(self, triples, n_items: int, n_workers: int):
        check_count("n_items", n_items, 0)
        check_count("n_workers", n_workers, 0)
        self.n_items, self.n_workers = int(n_items), int(n_workers)
        width = max(self.n_workers, 1)
        if self.n_items**2 * width > 2**63:
            raise ValueError(
                f"n_items {self.n_items} and n_workers {self.n_workers} overflow the "
                "int64 annotation key: n_items^2 * max(n_workers, 1) must be at most 2^63"
            )
        i, j, m, label = _triple_array(triples).T
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        key = (lo * self.n_items + hi) * width + m
        order = np.argsort(key)
        key = key[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        del key
        starts = np.flatnonzero(first)
        # any sort order will do: each group's earliest row is its least index
        earliest = np.minimum.reduceat(order, starts)
        group_earliest = np.empty_like(order)
        group_earliest[order] = np.repeat(earliest, np.diff(starts, append=order.size))
        conflict = label != label[group_earliest]
        del group_earliest
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
        self.triples = np.column_stack([lo[earliest], hi[earliest], m[earliest], label[earliest]])
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
        are missing, ragged, not numeric, not (M, 2) or not positive fail
        with a ValueError that names `workers.<key>`."""
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
            except (ValueError, TypeError) as err:
                raise ValueError(f"workers.{key}: {err}") from err
            taus.append(t)
        return cls.from_taus(*taus)


# ---------------------------------------------------------------------------
# likelihood pieces

# Per triple (i, j, m, L) the gradient of the expected log-likelihood in
# p_same is w = <ls, A> for the worker's log_stats row ls and
# A = (L, 1-L, -(1-L), -L).  It is linear in L: w = u + L v, with
# u = log((1-a)/b) and the vote weight v = log(a/(1-a)) + log(b/(1-b)).
# ls @ _DIFFERENCES is (u, log(a/(1-a)), log(b/(1-b))), @ _CONTRASTS
# (u, v), and @ _BY_LABEL (u, u + v): w for L = 0, 1.  Every entry of each
# product sums at most two nonzero terms, so its rounding does not depend
# on the order the terms add in.
_DIFFERENCES = np.array([[0, 1, 0], [1, -1, 0], [-1, 0, 1], [0, 0, -1]], float)
_CONTRASTS = np.array([[1, 0], [0, 1], [0, 1]], float)
_BY_LABEL = np.array([[1, 1], [0, 1]], float)


def _worker_contrasts(log_stats: np.ndarray) -> np.ndarray:
    """(M, 2) rows (u, v) of the (M, 4) log_stats rows."""
    return (log_stats @ _DIFFERENCES) @ _CONTRASTS


def two_coin_terms(store: AnnotationStore, log_stats: np.ndarray) -> np.ndarray:
    """Per stored triple, w = <ls_m, A>, the gap E log p(L | same) -
    E log p(L | different): the weight of the message between q(z_i) and
    q(z_j), and the triple's expected log-likelihood's slope in p_same."""
    table = (_worker_contrasts(log_stats) @ _BY_LABEL).reshape(-1)  # (M * 2,)
    return table[2 * store.triples[:, 2] + store.triples[:, 3]]


def expected_worker_weights(workers) -> np.ndarray:
    """Per-worker expected vote weight E[log(a/(1-a))] + E[log(b/(1-b))]."""
    return _worker_contrasts(workers.log_stats())[:, 1]


def expected_rel_loglik(
    store: AnnotationStore, q_z, log_stats: np.ndarray, scale: float = 1.0
) -> tuple:
    """E_q log p(L | Z, alpha, beta) summed over the stored triples, times
    scale, as one tape node, and the workers' (M, 4) confusion counts.

    `q_z` (n_items, K) may be a tape tensor or a numpy array; the (M, 4)
    `log_stats` rows are constants.  Each triple's p_same = sum_k q(z_i=k)
    q(z_j=k) adds the row (L p, (1-L) p, (1-L)(1-p), L (1-p)) to its
    worker's counts: the gradient in log_stats of the triple's expected
    log-likelihood, which is linear in them, so the value is scale *
    sum(log_stats * counts).  The gradient in q(z_i) is scale * sum_t w_t
    q(z_j) over the triples t that hold i, w from `two_coin_terms`.
    """
    q_z = as_tensor(q_z)
    q, t = q_z.data, store.triples
    if q.ndim != 2 or q.shape[0] != store.n_items:
        raise ValueError(f"q_z has shape {q.shape}, the store needs {store.n_items} rows")
    p = np.sum(q[t[:, 0]] * q[t[:, 1]], axis=-1)[:, None]
    labels, flipped = t[:, 3:].astype(float), 1.0 - t[:, 3:]
    rows = np.hstack([labels * p, flipped * p, flipped * (1.0 - p), labels * (1.0 - p)])
    counts = scatter_add_rows(t[:, 2], rows, store.n_workers)

    def vjp(g):
        weight = ((g * scale) * two_coin_terms(store, log_stats))[:, None]
        # in the order and grouping of the 8-node tape form it replaces, so
        # the gradient is that form's bit for bit
        at_j = scatter_add_rows(t[:, 1], weight * q[t[:, 0]], q.shape[0])
        at_i = scatter_add_rows(t[:, 0], weight * q[t[:, 1]], q.shape[0])
        return (at_j + at_i,)

    return _record(scale * np.sum(log_stats * counts), (q_z,), vjp), counts


def beta_natural_gradient(counts: np.ndarray, scale: float = 1.0) -> BetaWorkers:
    """Minibatch target of the worker Beta posteriors: WORKER_PRIOR plus
    the scaled (M, 4) confusion counts of the minibatch, which
    `expected_rel_loglik` returns.

    The prior record broadcasts over the workers.  The natural gradient
    at posteriors eta is the target's eta minus eta.  The counts are
    non-negative, so the target is always a valid record.
    """
    return BetaWorkers(WORKER_PRIOR.eta + scale * counts.reshape(-1, 2, 2))


def sample_annotation_minibatch(store: AnnotationStore, batch: np.ndarray, batch_size: int, rng):
    """Uniform without-replacement triple sample, joined with a data batch.

    Returns the working set (the sorted union of `batch` and the sampled
    triples' items, all items of the store), the sampled triples
    renumbered onto working-set positions, and the N_a/|S| scale.  A
    `batch_size` of at least the store's size takes every triple and draws
    nothing from `rng`.  The working set is read off a mask over the
    store's items, and the triples are renumbered through a table of its
    positions.  The sample, sorted rows renumbered by an increasing map,
    stays canonical.
    """
    check_count("batch_size", batch_size, 1)
    n = store.n_annotations
    t, scale = store.triples, 1.0
    if batch_size < n:
        t = t[np.sort(rng.choice(n, size=batch_size, replace=False))]
        scale = n / float(batch_size)
    in_working = np.zeros(store.n_items, dtype=bool)
    in_working[batch] = True
    in_working[t[:, :2]] = True
    working = np.flatnonzero(in_working)
    position = np.empty(store.n_items, dtype=working.dtype)
    position[working] = np.arange(working.size)
    renumbered = np.column_stack([position[t[:, :2]], t[:, 2:]])
    return working, AnnotationStore._of_canonical(renumbered, working.size, store.n_workers), scale
