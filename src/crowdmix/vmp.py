"""Natural-gradient variational inference for the Bayesian variant.

The recognition network emits diagonal Gaussian evidence potentials;
cluster responsibilities and latent Gaussians are refined jointly by
block-coordinate updates that carry pairwise annotation messages.
Globals (mixing weights, components, worker accuracies) follow scaled
stochastic natural gradients, while the recognition and decoder
networks ascend reparameterization gradients of the objective through
the final latent refresh.  `driver.fit` runs the minibatch loop;
`train_bayes_scdc` supplies the parameters and the step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import Dataset, minibatch_iterator
from .driver import TrainResult, Update, check_config, fit
from .expfam import (
    BetaNat,
    dirichlet_expected_stats,
    log_partition,
    niw_expected_stats,
)
from .metrics import clustering_accuracy, nmi
from .mixture import (
    GlobalExpectations,
    GlobalVariational,
    MixturePrior,
    StepRejected,
    apply_natural_gradient,
    effective_components,
    global_expectations,
    init_global,
    mixture_natural_gradient,
)
from .nnet import (
    Adam,
    Mlp,
    Tape,
    TrainingDivergence,
    backward,
    cholesky,
    constant,
    diag_embed,
    diag_gaussian_loglik,
    diag_part,
    einsum2,
    log,
    mat_inv,
    softplus,
    tensor_sum,
    zero_grads,
)
from .relational import (
    AnnotationStore,
    _message_weights,
    beta_natural_gradient,
    expected_rel_loglik,
    sample_annotation_minibatch,
)

# Added below -softplus(raw) so evidence precisions stay bounded away
# from singular even when the raw head saturates at large negatives.
PRECISION_FLOOR = 1e-4

# Most halvings of a rejected global step before giving up.
MAX_STEP_HALVINGS = 30


# ---------------------------------------------------------------------------
# local containers


@dataclass(frozen=True)
class RecognitionPotential:
    """Diagonal Gaussian evidence (h, diag j) for a batch of items."""

    h: np.ndarray       # (n, d)
    j_diag: np.ndarray  # (n, d), strictly negative

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        j = np.asarray(self.j_diag, dtype=float)
        if h.ndim != 2 or h.shape != j.shape:
            raise ValueError("h and j_diag must be matching (n, d) arrays")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(j))):
            raise TrainingDivergence("non-finite recognition potential")
        if np.any(j >= 0.0):
            raise ValueError("j_diag must be strictly negative")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "j_diag", j)

    @property
    def n_items(self) -> int:
        return self.h.shape[0]


@dataclass
class LocalVariational:
    """Local posteriors for one working set: categorical q(z), Gaussian q(x)."""

    log_resp: np.ndarray  # (n, K), normalized log responsibilities
    x_h: np.ndarray       # (n, d)
    x_j: np.ndarray       # (n, d, d), negative definite
    x_mean: np.ndarray    # (n, d)
    x_cov: np.ndarray     # (n, d, d)

    @property
    def resp(self) -> np.ndarray:
        return np.exp(self.log_resp)

    @property
    def n_items(self) -> int:
        return self.log_resp.shape[0]


def recognition_potential(net: Mlp, observations) -> RecognitionPotential:
    """Evidence potentials from the recognition network.

    The raw precision head passes through -softplus(.) - PRECISION_FLOOR,
    so the potential is always a proper (strictly negative) diagonal.
    """
    heads = net.forward(np.asarray(observations, dtype=float))
    loc = heads["loc"].data
    raw = heads["prec_raw"].data
    if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(raw))):
        raise TrainingDivergence("recognition network produced non-finite outputs")
    j_diag = -np.logaddexp(0.0, raw) - PRECISION_FLOOR
    return RecognitionPotential(loc, j_diag)


def _calibrate_recognition_init(
    net: Mlp, observations, precision: float, spread: float, max_items: int = 2048
) -> None:
    """Start the evidence potentials confident and well separated.

    Sets the raw-precision head bias so potentials begin with diagonal
    precision close to ``precision``, then rescales the location head so the
    implied potential means (h divided by the precision) have an average
    per-coordinate standard deviation of ``spread`` over the given
    observations.  Diffuse potentials cannot anchor the latent posteriors:
    the mixture then contracts every q(x) onto one high-precision component
    before the networks learn anything, and no amount of later training
    recovers the lost structure.  ``spread=0`` skips the location rescaling.
    """
    half = precision / 2.0 - PRECISION_FLOOR
    # inverse softplus, stable for both small and large targets
    raw_bias = half + math.log(-math.expm1(-half))
    net.head_biases["prec_raw"].data[:] = raw_bias
    if spread == 0.0:
        return
    obs = np.asarray(observations, dtype=float)[:max_items]
    heads = net.forward(obs)
    item_precision = 2.0 * (np.logaddexp(0.0, heads["prec_raw"].data) + PRECISION_FLOOR)
    implied_means = heads["loc"].data / item_precision
    current = float(np.mean(np.std(implied_means, axis=0)))
    if current > 0.0:
        net.head_weights["loc"].data *= spread / current
        net.head_biases["loc"].data *= spread / current


# ---------------------------------------------------------------------------
# block-coordinate local updates


def update_local_x(resp, exps: GlobalExpectations, potential: RecognitionPotential):
    """Coordinate refresh of every q(x_i) given responsibilities.

    Natural parameters are the responsibility-weighted expected Gaussian
    parameters plus the evidence potential; returns (h, j, mean, cov).
    """
    resp = np.asarray(resp, dtype=float)
    d = exps.mean_prec.shape[1]
    x_h = resp @ exps.mean_prec + potential.h
    x_j = np.einsum("nk,kij->nij", resp, exps.neg_half_prec)
    idx = np.arange(d)
    x_j[:, idx, idx] += potential.j_diag
    prec = -2.0 * x_j
    np.linalg.cholesky(prec)  # fails unless every x_j is negative definite
    x_cov = np.linalg.inv(prec)
    x_cov = 0.5 * (x_cov + np.swapaxes(x_cov, -1, -2))
    x_mean = np.einsum("nij,nj->ni", x_cov, x_h)
    return x_h, x_j, x_mean, x_cov


def component_logits(exps: GlobalExpectations, x_mean, x_cov) -> np.ndarray:
    """Per item and component: <E t(mu_k, Sigma_k), (E t(x_i), 1)>."""
    x_mean = np.asarray(x_mean, dtype=float)
    x_cov = np.asarray(x_cov, dtype=float)
    second = x_cov + x_mean[:, :, None] * x_mean[:, None, :]
    return (
        x_mean @ exps.mean_prec.T
        + np.einsum("nij,kij->nk", second, exps.neg_half_prec)
        + exps.neg_half_mahal
        + exps.neg_half_logdet
    )


class AnnotationGraph(Sequence):
    """Colored annotation graph of a working set.

    Built from half-edges: an edge (item, other, weight) for each end of
    every annotation, each item's edges in triple order.  `linked` marks
    the items with at least one edge.  They are colored greedily in index
    order: each takes the smallest color that none of its lower-indexed
    neighbors has.  No edge therefore joins two items of one class, and
    the lowest linked item is in class 0.  `classes` holds each class as
    a sorted index array, in color order; `class_edges` holds per class
    the edges of its items, grouped by item in class order, as
    (first-edge offsets, other items, weights).  All are fixed at
    construction.  The graph also reads as a sequence of per-item
    (other item, weight) lists, which are made on first access.
    """

    def __init__(self, n_items: int, item, other, weight):
        item = np.asarray(item, dtype=int)
        other = np.asarray(other, dtype=int)
        self.linked = np.bincount(item, minlength=n_items) > 0
        color = _greedy_colors(n_items, item, other)
        # one stable sort groups the edges by class, then by item, and keeps
        # each item's edges in their given order
        order = np.argsort(color[item] * n_items + item, kind="stable")
        item, self._other = item[order], other[order]
        self._weight = np.asarray(weight, dtype=float)[order]
        starts = np.flatnonzero(np.diff(item, prepend=-1))  # each item's first edge
        self._items, self._bounds = item[starts], np.append(starts, item.size)
        class_bounds = np.cumsum(np.bincount(color[self._items])).tolist()
        self.classes, self.class_edges = [], []
        for lo, hi in zip([0] + class_bounds, class_bounds):
            first, last = self._bounds[lo], self._bounds[hi]
            self.classes.append(self._items[lo:hi])
            self.class_edges.append(
                (starts[lo:hi] - first, self._other[first:last], self._weight[first:last])
            )

    @classmethod
    def from_lists(cls, neighbors) -> "AnnotationGraph":
        """From per-item lists of (other item, weight) pairs."""
        item = [p for p, nb in enumerate(neighbors) for _ in nb]
        edges = [edge for nb in neighbors for edge in nb]
        return cls(len(neighbors), item, [q for q, _ in edges], [w for _, w in edges])

    def __len__(self) -> int:
        return self.linked.size

    def __getitem__(self, p):
        return self._lists[p]

    def __iter__(self):
        return iter(self._lists)

    @cached_property
    def _lists(self) -> list:
        edges = list(zip(self._other.tolist(), self._weight.tolist()))
        lists = [[] for _ in range(len(self))]
        bounds = self._bounds.tolist()
        for p, lo, hi in zip(self._items.tolist(), bounds, bounds[1:]):
            lists[p] = edges[lo:hi]
        return lists


def _greedy_colors(n_items: int, item: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Greedy index-order colors of the items, 0 for unlinked ones.

    The greedy color of p is the smallest color that none of its
    lower-indexed neighbors has, which defines every color from those of
    lower items, so it is the one fixed point of that rule.  Applying the
    rule to all items at once settles at least one more level of the
    lower-to-higher edge order per pass, and the passes stop at the fixed
    point.
    """
    lower = other < item
    other = other[lower]
    rows, row = np.unique(item[lower], return_inverse=True)  # items with lower neighbors
    color = np.zeros(n_items, dtype=int)
    while rows.size:
        held = color[other]
        # the smallest color missing from a set is at most its largest plus one
        taken = np.zeros((rows.size, held.max() + 2), dtype=bool)
        taken[row, held] = True
        fresh = np.argmin(taken, axis=1)
        if np.array_equal(fresh, color[rows]):
            break
        color[rows] = fresh
    return color


def annotation_graph(store: AnnotationStore | None, workers, n_items: int) -> AnnotationGraph:
    """Colored graph of message weights between working-set items."""
    if store is None or workers is None or store.n_annotations == 0:
        return AnnotationGraph(n_items, [], [], [])
    t = store.triples
    if t[:, :2].max() >= n_items:
        raise ValueError("store must be indexed by working-set position")
    weights = _message_weights(t[:, 3].astype(float), workers.log_stats()[t[:, 2]])
    # both ends of each triple in turn, so each item's edges keep triple order
    return AnnotationGraph(n_items, t[:, :2].ravel(), t[:, 1::-1].ravel(), np.repeat(weights, 2))


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """scipy.special.log_softmax(x, axis=-1) by the same numpy operations,
    without scipy's array-API dispatch, which costs more than the
    arithmetic on a working set."""
    x_max = np.max(x, axis=-1, keepdims=True)
    x_max[~np.isfinite(x_max)] = 0
    tmp = x - x_max
    with np.errstate(divide="ignore"):
        return tmp - np.log(np.sum(np.exp(tmp), axis=-1, keepdims=True))


def update_local_z(base_logits, neighbors, log_resp) -> np.ndarray:
    """One pass of coordinate refreshes on every q(z_i).

    base_logits holds E[log pi] plus the component brackets.  Items
    without annotation messages update in one shot.  The linked items
    update one color class of the annotation graph at a time, in color
    order, each class seeing the freshest responsibilities of the classes
    before it.  No edge joins two items of one class, so refreshing a
    class at once equals refreshing its items one after another: the pass
    is exact coordinate ascent, visiting the items in class order.
    `neighbors` is an AnnotationGraph or plain per-item neighbor lists.
    """
    graph = neighbors
    if not isinstance(graph, AnnotationGraph):
        graph = AnnotationGraph.from_lists(neighbors)
    base = np.asarray(base_logits, dtype=float)
    out = np.array(log_resp, dtype=float)
    resp = np.exp(out)
    free = ~graph.linked
    if np.any(free):
        out[free] = _log_softmax_rows(base[free])
        resp[free] = np.exp(out[free])
    for idx, (starts, other, weight) in zip(graph.classes, graph.class_edges):
        messages = np.add.reduceat(weight[:, None] * resp[other], starts, axis=0)
        out[idx] = _log_softmax_rows(base[idx] + messages)
        resp[idx] = np.exp(out[idx])
    return out


def block_coordinate_local(
    glob: GlobalVariational,
    potential: RecognitionPotential,
    store: AnnotationStore | None = None,
    sweeps: int = 4,
    tol: float = 1e-6,
    init_log_resp=None,
) -> LocalVariational:
    """Alternate q(x) / q(z) coordinate updates for one working set.

    `store`, when given, must be indexed by working-set position.  Runs
    at most `sweeps` rounds from uniform responsibilities (or the given
    start), stops early once the largest parameter change drops below
    `tol`, and always ends on a q(x) refresh so the returned Gaussians
    are consistent with the returned responsibilities.  The annotation
    graph is built and colored once per call; every q(z) pass then
    refreshes the unlinked items together and the linked items one color
    class at a time, in color order.  Items of one class share no edge,
    so each pass is exact coordinate ascent in that item order and the
    surrogate ELBO cannot decrease along the sweeps.
    """
    n = potential.n_items
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    exps = global_expectations(glob)
    K = exps.log_pi.shape[0]
    if init_log_resp is None:
        log_resp = np.full((n, K), -math.log(K))
    else:
        log_resp = np.array(init_log_resp, dtype=float)
    neighbors = annotation_graph(store, glob.workers, n)
    x_h, x_j, x_mean, x_cov = update_local_x(np.exp(log_resp), exps, potential)
    for _ in range(sweeps):
        base = exps.log_pi + component_logits(exps, x_mean, x_cov)
        new_log_resp = update_local_z(base, neighbors, log_resp)
        new_x = update_local_x(np.exp(new_log_resp), exps, potential)
        delta = max(
            np.max(np.abs(new_log_resp - log_resp)),
            np.max(np.abs(new_x[0] - x_h)),
            np.max(np.abs(new_x[1] - x_j)),
        )
        log_resp = new_log_resp
        x_h, x_j, x_mean, x_cov = new_x
        if delta < tol:
            break
    return LocalVariational(log_resp, x_h, x_j, x_mean, x_cov)


# ---------------------------------------------------------------------------
# objective pieces


def _gaussian_log_partitions(x_h, x_mean, x_j) -> np.ndarray:
    """log Z of each local Gaussian, constants dropped as everywhere else."""
    sign, logdet = np.linalg.slogdet(-2.0 * x_j)
    if np.any(sign <= 0):
        raise ValueError("x_j must be negative definite")
    return 0.5 * np.einsum("ni,ni->n", x_mean, x_h) - 0.5 * logdet


def local_kl(exps: GlobalExpectations, local: LocalVariational, rows=None) -> float:
    """Expected KL of the local posteriors from their conditionals, summed.

    z part: sum_k r_ik (log r_ik - E[log pi_k]); x part is the bracket
    <eta_i - mixture evidence, E t(x_i)> - log Z(eta_i) plus the
    responsibility-weighted expected component log partitions.  `rows`
    restricts the sum (e.g. to the data minibatch of a working set).
    """
    if rows is None:
        rows = np.arange(local.n_items)
    lr = local.log_resp[rows]
    r = np.exp(lr)
    # 0 log 0 = 0, so components with zero responsibility contribute nothing
    occupied = r > 0.0
    diff = lr - exps.log_pi
    kl_z = float(np.sum(r[occupied] * diff[occupied]))
    mean = local.x_mean[rows]
    cov = local.x_cov[rows]
    second = cov + mean[:, :, None] * mean[:, None, :]
    dh = local.x_h[rows] - r @ exps.mean_prec
    dj = local.x_j[rows] - np.einsum("nk,kij->nij", r, exps.neg_half_prec)
    inner = np.einsum("ni,ni->n", dh, mean) + np.einsum("nij,nij->n", dj, second)
    log_z = _gaussian_log_partitions(local.x_h[rows], mean, local.x_j[rows])
    kl_x = float(np.sum(inner - log_z - r @ (exps.neg_half_mahal + exps.neg_half_logdet)))
    return kl_z + kl_x


def default_worker_prior() -> tuple[BetaNat, BetaNat]:
    """Uniform Beta(1, 1) priors on every worker accuracy."""
    return BetaNat.from_tau(1.0, 1.0), BetaNat.from_tau(1.0, 1.0)


def global_kl(glob: GlobalVariational, prior: MixturePrior, worker_prior=None) -> float:
    """KL(q || p) summed over mixing weights, components and workers.

    Each family contributes <eta_q - eta_p, E_q t> - (log Z_q - log Z_p),
    summed over its batch against the one shared prior record; the worker
    prior defaults to Beta(1, 1) on every accuracy.
    """
    dirichlets = [(glob.pi, prior.pi_nat())]  # the worker Betas are two-state Dirichlets
    if glob.workers is not None:
        prior_a, prior_b = worker_prior if worker_prior is not None else default_worker_prior()
        dirichlets += [(glob.workers.alpha_nat, prior_a), (glob.workers.beta_nat, prior_b)]
    niw0, comps = prior.niw_nat(), glob.components
    stats = niw_expected_stats(comps)
    brackets = [(q.eta - p0.eta, dirichlet_expected_stats(q)) for q, p0 in dirichlets] + [
        (comps.h1 - niw0.h1, stats.mean_prec),
        (comps.h2 - niw0.h2, stats.neg_half_prec),
        (comps.h3 - niw0.h3, stats.neg_half_mahal),
        (comps.h4 - niw0.h4, stats.neg_half_logdet),
    ]
    inner = sum(np.sum(diff * expected) for diff, expected in brackets)
    families = dirichlets + [(comps, niw0)]
    log_z = sum(np.sum(log_partition(q) - log_partition(p0)) for q, p0 in families)
    return float(inner - log_z)


def potential_bracket(potential: RecognitionPotential, local: LocalVariational, rows=None) -> float:
    """<psi, E t(x)> summed over the items: the data term with the
    recognition potentials standing in for the decoder."""
    if rows is None:
        rows = slice(None)
    mean, cov = local.x_mean[rows], local.x_cov[rows]
    second_diag = np.diagonal(cov, axis1=1, axis2=2) + mean**2
    return float(np.sum(potential.h[rows] * mean) + np.sum(potential.j_diag[rows] * second_diag))


def surrogate_elbo(
    glob: GlobalVariational,
    prior: MixturePrior,
    local: LocalVariational,
    potential: RecognitionPotential,
    store: AnnotationStore | None = None,
    worker_prior=None,
) -> float:
    """Full-batch bound with <psi, E t(x)> standing in for the decoder.

    Every block-coordinate local update and every step-1 global update
    is an exact coordinate maximization of this quantity, so it must not
    decrease along the inner loop.
    """
    return final_objective(
        glob, prior, local, global_expectations(glob), potential_bracket(potential, local),
        store, worker_prior,
    )


def final_objective(
    glob: GlobalVariational,
    prior: MixturePrior,
    local: LocalVariational,
    exps: GlobalExpectations,
    data: float,
    store: AnnotationStore | None = None,
    worker_prior=None,
    data_scale: float = 1.0,
    rel_scale: float = 1.0,
    rows=None,
) -> float:
    """Estimate of the training objective from its data term.

    `data` is the expected data log-likelihood of the items in `rows`:
    the decoder's reconstruction, or `potential_bracket` in its place.
    `exps` are the expectations of `glob`.  `rows` restricts the local
    KL the same way, e.g. to the data minibatch inside a larger working
    set; `store` must be indexed like `local`.  Scales restore full-data
    magnitudes from minibatches.
    """
    rel = 0.0
    if store is not None and glob.workers is not None:
        rel = expected_rel_loglik(store, local.resp, glob.workers, scale=rel_scale)
    value = (
        data_scale * (data - local_kl(exps, local, rows))
        + rel
        - global_kl(glob, prior, worker_prior)
    )
    if not np.isfinite(value):
        raise TrainingDivergence("non-finite objective estimate")
    return float(value)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class BayesConfig:
    """Settings for the natural-gradient training loop.

    The globals follow natural-gradient steps of size `global_step`; one
    Adam optimizer steps both networks at rate `net_lr`.
    """

    n_components: int = 15
    latent_dim: int = 2
    epochs: int = 20
    batch_size: int = 50
    annotation_batch_size: int | None = None  # default: n_annotations * |B| / N
    hidden: tuple[int, ...] = (40, 40)
    net_lr: float = 1e-3
    global_step: float = 0.05
    global_step_decay: float = 0.0  # step_t = global_step / (1 + t)^decay
    local_sweeps: int = 4
    local_tol: float = 1e-6
    n_samples: int = 1
    kl_warmup: float = 1.0   # fraction of updates over which the latent KL
                             # weight in the network gradient ramps 0 -> 1
    alpha0: float | None = None  # default 0.05 / n_components
    kappa0: float = 0.5
    s0_scale: float | None = None  # default latent_dim + kappa0
    nu0: float | None = None       # default latent_dim + kappa0
    init_spread: float = math.sqrt(3.0)
    init_kappa: float = 1.0
    worker_init: tuple[float, float] = (10.0, 1.0)
    worker_prior: tuple[float, float] = (1.0, 1.0)
    logvar_clamp: tuple[float, float] = (-8.0, 8.0)
    init_potential_precision: float = 200.0  # starting diagonal precision of
                                             # the evidence potentials
    init_potential_spread: float = 1.0      # target per-coordinate std of the
                                            # implied potential means at init
                                            # (0 disables the rescaling)

    def __post_init__(self):
        check_config(self)
        if not 0.0 <= self.global_step <= 1.0:
            raise ValueError("global_step must lie in [0, 1]")
        if self.global_step_decay < 0.0:
            raise ValueError("global_step_decay must be non-negative")
        if self.local_sweeps < 1:
            raise ValueError("local_sweeps must be at least 1")
        if self.net_lr < 0.0:
            raise ValueError("net_lr must be non-negative")
        if self.init_potential_precision <= 2.0 * PRECISION_FLOOR:
            raise ValueError("init_potential_precision must exceed the precision floor")
        if self.init_potential_spread < 0.0:
            raise ValueError("init_potential_spread must be non-negative")

    def prior(self) -> MixturePrior:
        return MixturePrior.default(
            self.n_components, self.latent_dim, self.alpha0, self.kappa0, self.s0_scale, self.nu0
        )


@dataclass
class BayesModel:
    """Trained state: prior, global posteriors and both networks."""

    prior: MixturePrior
    glob: GlobalVariational
    recognition: Mlp
    decoder: Mlp
    worker_prior: tuple[float, float] = (1.0, 1.0)
    local_sweeps: int = 4
    local_tol: float = 1e-6

    def local_posterior(self, observations, store: AnnotationStore | None = None) -> LocalVariational:
        potential = recognition_potential(self.recognition, observations)
        return block_coordinate_local(
            self.glob, potential, store, sweeps=self.local_sweeps, tol=self.local_tol
        )

    def responsibilities(self, observations) -> np.ndarray:
        return self.local_posterior(observations).resp

    def predict(self, observations) -> np.ndarray:
        """Most probable component per item (lowest index on ties)."""
        return np.argmax(self.responsibilities(observations), axis=1)

    def to_dict(self) -> dict:
        return {
            "prior": self.prior.to_dict(),
            "globals": self.glob.to_dict(),
            "recognition": self.recognition.state_dict(),
            "decoder": self.decoder.state_dict(),
            "worker_prior": list(self.worker_prior),
            "local_sweeps": int(self.local_sweeps),
            "local_tol": float(self.local_tol),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BayesModel":
        return cls(
            prior=MixturePrior.from_dict(doc["prior"]),
            glob=GlobalVariational.from_dict(doc["globals"]),
            recognition=Mlp.from_state(doc["recognition"]),
            decoder=Mlp.from_state(doc["decoder"]),
            worker_prior=tuple(float(v) for v in doc.get("worker_prior", (1.0, 1.0))),
            local_sweeps=int(doc.get("local_sweeps", 4)),
            local_tol=float(doc.get("local_tol", 1e-6)),
        )


def _network_objective(recognition, decoder, obs_batch, resp, exps, noise, data_scale, kl_weight=1.0):
    """Tape graph of the objective terms the networks can influence.

    Rebuilds the final q(x) refresh with responsibilities held constant:
    recon + kl_weight * (log Z(eta_x) - <psi, E t(x)>), summed over the
    batch.  `kl_weight` < 1 damps the pull of q(x) toward the mixture
    conditional (warmup against potential collapse); at 1 the gradient
    is exactly that of the training objective.  Returns the (scaled)
    objective and reconstruction tensors.
    """
    c_h = constant(resp @ exps.mean_prec)
    c_j = constant(np.einsum("nk,kij->nij", resp, exps.neg_half_prec))
    heads = recognition.forward(obs_batch)
    psi_h = heads["loc"]
    j_diag = -softplus(heads["prec_raw"]) - PRECISION_FLOOR
    x_j = c_j + diag_embed(j_diag)
    prec = x_j * (-2.0)
    cov = mat_inv(prec)
    h_tot = c_h + psi_h
    mean = einsum2("nij,nj->ni", cov, h_tot)
    log_z = tensor_sum(mean * h_tot) * 0.5 - tensor_sum(log(diag_part(cholesky(prec))))
    second_diag = diag_part(cov) + mean * mean
    psi_term = tensor_sum(psi_h * mean) + tensor_sum(j_diag * second_diag)
    chol_cov = cholesky(cov)
    recon = None
    for eps in noise:
        draw = mean + einsum2("nij,nj->ni", chol_cov, constant(eps))
        dec = decoder.forward(draw)
        row_ll = diag_gaussian_loglik(obs_batch, dec["mean"], dec["logvar"])
        recon = tensor_sum(row_ll) if recon is None else recon + tensor_sum(row_ll)
    recon = recon * (1.0 / noise.shape[0])
    objective = (recon + (log_z - psi_term) * kl_weight) * data_scale
    return objective, recon


def _stepped_globals(glob, grads, step) -> GlobalVariational:
    """Apply the natural-gradient step, halving it while it gets rejected."""
    trial = step
    for _ in range(MAX_STEP_HALVINGS):
        try:
            return apply_natural_gradient(glob, grads, trial)
        except StepRejected:
            trial *= 0.5
    raise TrainingDivergence("global natural-gradient step kept leaving the valid domain")


def train_bayes_scdc(
    dataset: Dataset,
    store: AnnotationStore | None,
    config: BayesConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Stochastic natural-gradient training.

    Each update rebuilds the local posteriors of the working set from
    scratch, steps the globals along their scaled natural gradients, and
    follows reparameterization gradients of the objective through both
    networks; `driver.fit` runs the loop.
    """
    obs = dataset.observations
    prior = config.prior()
    d = prior.latent_dim
    n_workers = store.n_workers if store is not None and store.n_annotations else 0
    glob = init_global(
        prior,
        rng,
        n_workers=n_workers,
        init_spread=config.init_spread,
        init_kappa=config.init_kappa,
        worker_init=config.worker_init,
    )
    recognition = Mlp([dataset.dim, *config.hidden], {"loc": d, "prec_raw": d}, rng)
    _calibrate_recognition_init(
        recognition, obs, config.init_potential_precision, config.init_potential_spread
    )
    decoder = Mlp(
        [d, *config.hidden],
        {"mean": dataset.dim, "logvar": dataset.dim},
        rng,
        clamp={"logvar": config.logvar_clamp},
    )
    params = recognition.parameters() + decoder.parameters()
    opt = Adam(params, lr=config.net_lr, maximize=True)
    worker_prior = (BetaNat.from_tau(*config.worker_prior), BetaNat.from_tau(*config.worker_prior))

    def step(update: Update) -> float:
        nonlocal glob
        rows, local_store = update.rows, update.store
        exps = global_expectations(glob)
        potential = recognition_potential(recognition, obs[update.working])
        local = block_coordinate_local(
            glob, potential, local_store, config.local_sweeps, config.local_tol
        )
        resp = local.resp

        grads = mixture_natural_gradient(
            prior, resp[rows], local.x_mean[rows], local.x_cov[rows], glob,
            scale=update.data_scale,
        )
        if local_store is not None:
            grad_a, grad_b = beta_natural_gradient(
                local_store, resp, worker_prior, glob.workers, scale=update.rel_scale
            )
            grads = replace(grads, worker_alpha=grad_a, worker_beta=grad_b)
        if config.global_step > 0.0:
            rate = config.global_step / (1.0 + update.index) ** config.global_step_decay
            new_glob = _stepped_globals(glob, grads, rate)
        else:
            new_glob = glob

        noise = rng.standard_normal((config.n_samples, update.batch.size, d))
        with Tape() as tape:
            objective, recon = _network_objective(
                recognition, decoder, obs[update.batch], resp[rows], exps, noise,
                update.data_scale, kl_weight=update.kl_weight,
            )
        backward(tape, objective)
        opt.step()
        zero_grads(params)

        estimate = final_objective(
            glob, prior, local, exps, float(recon.data), local_store, worker_prior,
            update.data_scale, update.rel_scale, rows,
        )
        glob = new_glob
        return estimate

    return fit(
        dataset, store, config, rng,
        params=params,
        model=lambda: BayesModel(
            prior, glob, recognition, decoder,
            config.worker_prior, config.local_sweeps, config.local_tol,
        ),
        step=step,
        effective_k=lambda model, threshold: effective_components(model.glob, threshold),
        minibatch_iterator=minibatch_iterator,
        sample_annotation_minibatch=sample_annotation_minibatch,
        clustering_accuracy=clustering_accuracy,
        nmi=nmi,
    )
