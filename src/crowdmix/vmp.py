"""Natural-gradient variational inference for the Bayesian variant.

Each training update runs the recognition network once over the working
set: the data minibatch's rows on the tape (`evidence`), since the
networks' gradient flows back through them alone, and the other rows in
one pass before the tape opens (`recognition_potential`).  Their diagonal
Gaussian evidence potentials are two plain (n, d) arrays, h and j_diag:
both passes write their rows into one working-set pair, which the local
step reads.  Cluster posteriors q(z) and latent Gaussians are refined
jointly by block-coordinate updates that carry pairwise annotation
messages.  The local step gathers
the evidence into the annotation graph's block order once, so that each
q(z) pass refreshes every block, an edge-free set of items, as one
contiguous column slice, written in place; the result returns to item
order once.  Inside the step the q(z) probabilities and component logits
are stored component-major, as (K, n) arrays, so every softmax reduces
over axis 0, and each q(z) pass reads the previous pass's probabilities,
not their logs.  The q(x) side is entry-major: evidence, natural
parameters and moments are (d, n) and (d, d, n) rows, each one entry of
every item.  There is one q(x) refresh, `update_local_x`: it mixes the
K component statistics by the q(z) probabilities with one matmul on
their (K, d) and (K, d*d) views and factors every item's precision
once, by `nnet.spd_factor_rows`, the package's one Cholesky kernel, on
those rows.  The step ends on its last q(z) pass and returns its (n, K)
log probabilities in item order.
`predict` runs the same sweeps over the whole dataset, which without
annotations is one block in item order, but only PREDICT_SWEEPS of them:
with no messages to pass, the evidence settles each item in one round.
The sweeps make their (K, n) arrays once per call, the logits, q(z) and
one scratch array, and every round refreshes them in place.
The update then refreshes q(x) of the batch rows alone, once, by the same
`update_local_x`, and `nnet.gaussian_refresh` records its draw and its
bracket log Z - <psi, E t(x)> on that refresh's arrays: the recognition
and decoder networks ascend reparameterization gradients of the
objective through them, and the globals (mixing weights, components,
worker accuracies) follow scaled stochastic natural gradients toward
targets built from its q(x) and the working set's q(z).  `local_kl` reads
the bracket that the tape recorded rather than computing it again.
Each update calls the relational op `relational.expected_rel_loglik`
once: its counts build the worker target, and its value is the
relational term of the update's minibatch estimate of the objective
without the globals' KL, data_scale * (recon - local KL) + rel;
`driver.fit` subtracts the KL once per epoch, through
`BayesModel.global_kl`.
`driver.fit` runs the minibatch loop; `train_bayes_scdc` supplies the
parameters and the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, minibatch_iterator
from .driver import TrainConfig, TrainResult, Update, check_network, fit, gaussian_mlp
from .driver import check_observations, load_field, training_store
from .expfam import kl_divergence
from .metrics import clustering_accuracy, nmi
from .mixture import (
    GLOBAL_STEP,
    GlobalExpectations,
    GlobalVariational,
    MixturePrior,
    apply_natural_gradient,
    effective_components,
    global_expectations,
    init_global,
    mixture_natural_gradient,
)
from .nnet import (
    Mlp,
    Tape,
    backward,
    check_count,
    diag_gaussian_loglik,
    gaussian_refresh,
    saved_value,
    softplus,
    spd_factor_rows,
    tensor_sum,
)
from .relational import (
    WORKER_PRIOR,
    AnnotationStore,
    beta_natural_gradient,
    expected_rel_loglik,
    sample_annotation_minibatch,
    two_coin_terms,
)

# No code here calls it; crowdbench/probes.py times it by patching this
# module's name, so it stays importable from it.
from .expfam import niw_expected_stats  # noqa: F401

# Added below -softplus(raw) so evidence precisions stay bounded away
# from singular even when the raw head saturates at large negatives.
PRECISION_FLOOR = 1e-4

# Starting diagonal precision of the evidence potentials, and the
# per-coordinate standard deviation of their implied means.
INIT_POTENTIAL_PRECISION = 200.0
INIT_POTENTIAL_SPREAD = 1.0

# q(z) / q(x) rounds of each training local step.  Dense annotations need
# three rounds to carry messages through the graph: paired over seeds 0-29
# against 4 rounds (scripts/scorecard.py, BENCH_quality.json), accuracy
# moved by a mean of -0.005 on the paper protocol (0 seeds up by 0.1, 1
# down), +0.001 dense (1 / 1), +0.002 mixed pool (2 / 2), +0.011
# bad-majority pool (4 / 2) and -0.000 unannotated (0 / 0), with the same
# worker recovery; at 2 rounds dense loses 5 seeds (ROADMAP table E).
LOCAL_SWEEPS = 3

# q(z) / q(x) rounds of `predict`.  Without annotations no messages pass,
# and the evidence precision (about 200) dominates the mixture terms, so
# one round settles each item: its labels agree with LOCAL_SWEEPS rounds on
# 99.72-99.80% of items of the crowd10x-bayes models of seeds 0-2 and on
# 99.8-100% of the pinwheel-bayes ones, and on the paper protocol and its
# unannotated twin, seeds 0-29, accuracy moves by at most 0.004.
PREDICT_SWEEPS = 1

# `driver.fit`'s latent-KL warmup.  At 0 every pinwheel seed of 0-29 collapses to
# 0.200; at SCDC's 0.5, dense annotations and a mixed pool lose 2 seeds, gain none.
# At 1.0 the ramp spans every update and never reaches weight 1: a run of w
# updates ends at (w - 1) / (w + 1), 0.990 for pinwheel-bayes's 200.
KL_WARMUP = 1.0


# ---------------------------------------------------------------------------
# evidence


def evidence(net: Mlp, observations):
    """Evidence (h, j_diag), j_diag <= -PRECISION_FLOOR, as tape tensors of
    one recognition pass; `Mlp.forward` raises TrainingDivergence if a head
    is not finite, so both are finite."""
    heads = net.forward(observations)
    return heads["loc"], -softplus(heads["prec_raw"]) - PRECISION_FLOOR


def recognition_potential(net: Mlp, observations) -> tuple[np.ndarray, np.ndarray]:
    """`evidence` of the observations, as its two (n, d) arrays (h, j_diag)."""
    h, j_diag = evidence(net, observations)
    return h.data, j_diag.data


def _calibrate_recognition_init(net: Mlp, observations) -> None:
    """Start the evidence potentials confident and well separated.

    Sets the raw-precision head bias so potentials begin with diagonal
    precision close to INIT_POTENTIAL_PRECISION, then rescales the location
    head so the implied potential means (h divided by the precision) have
    an average per-coordinate standard deviation of INIT_POTENTIAL_SPREAD
    over the first 2048 of the given observations.  Diffuse potentials
    cannot anchor the latent posteriors: the mixture then contracts every
    q(x) onto one high-precision component before the networks learn
    anything, and no amount of later training recovers the lost structure.
    """
    half = INIT_POTENTIAL_PRECISION / 2.0 - PRECISION_FLOOR
    # inverse softplus, stable for both small and large targets
    raw_bias = half + math.log(-math.expm1(-half))
    net.head_biases["prec_raw"].data[:] = raw_bias
    h, j_diag = recognition_potential(net, np.asarray(observations, dtype=float)[:2048])
    implied_means = h / (-2.0 * j_diag)
    current = float(np.mean(np.std(implied_means, axis=0)))
    if current > 0.0:
        net.head_weights["loc"].data *= INIT_POTENTIAL_SPREAD / current
        net.head_biases["loc"].data *= INIT_POTENTIAL_SPREAD / current


# ---------------------------------------------------------------------------
# block-coordinate local updates


def update_local_x(resp, exps: GlobalExpectations, h, j_diag):
    """Coordinate refresh of every q(x_i) given q(z) probabilities: the
    package's one q(x) refresh, of the local sweeps and of the network
    objective alike.

    Entry-major: `resp` is (K, n), component-major, and the evidence
    (h, j_diag) comes as (d, n) rows.  Natural parameters are the
    responsibility-weighted expected Gaussian parameters, one matmul each
    with the (K, d) and (K, d*d) component statistics, plus the evidence.
    Returns (h, -2 j, mean, cov, log|-2 j|, root) as (d, n), (d, d, n),
    (d, n), (d, d, n), (n,) and (d, d, n) arrays: j's rows are scaled in
    place to the precision -2 j, and -0.5 times it gives j back exactly.
    One Cholesky per item, `nnet.spd_factor_rows` on those (d, d, n) rows,
    gives the covariance, exactly symmetric, its log-determinant and its
    lower-triangular Cholesky root, and fails with LinAlgError unless j is
    negative definite.  Each mean entry sums its d products in index
    order, which at d = 2 gives the bits of any order.  The mean's (d, n)
    rows view an item-major (n, d) array, the operand layout that
    `component_logits` hands BLAS.
    """
    k, d = exps.mean_prec.shape
    x_h = exps.mean_prec.T @ resp
    x_h += h
    x_j = (exps.neg_half_prec.reshape(k, d * d).T @ resp).reshape(d, d, -1)
    idx = np.arange(d)
    x_j[idx, idx] += j_diag
    x_prec = np.multiply(x_j, -2.0, out=x_j)
    x_cov, x_logdet, x_root = spd_factor_rows(x_prec)
    x_mean = np.einsum("ijn,jn->ni", x_cov, x_h).T
    return x_h, x_prec, x_mean, x_cov, x_logdet, x_root


def component_logits(exps: GlobalExpectations, x_mean, x_cov, out, scratch) -> np.ndarray:
    """Per component and item: <E t(mu_k, Sigma_k), (E t(x_i), 1)>.

    Entry-major: x_mean is (d, n) and x_cov (d, d, n).  Component-major,
    (K, n), straight from the matmuls with the (K, d) and (K, d*d)
    component statistics, plus one (K, 1) column of the Mahalanobis and
    log-determinant terms.  Both matmuls read the transposes of item-major
    (n, d) and (n, d*d) arrays: BLAS picks its kernel by operand layout,
    and that choice sets the last bits.  The second moments are written
    item-major one (i, j) entry of every item at a time.  The logits go
    into `out` and the second matmul into `scratch`, C-ordered (K, n)
    arrays; returns `out`.
    """
    d, n = x_mean.shape
    second = np.empty((n, d, d))
    for i in range(d):
        for j in range(d):
            np.multiply(x_mean[i], x_mean[j], out=second[:, i, j])
            second[:, i, j] += x_cov[i, j]
    logits = np.matmul(exps.mean_prec, np.ascontiguousarray(x_mean.T).T, out=out)
    logits += np.matmul(
        exps.neg_half_prec.reshape(-1, d * d), second.reshape(n, d * d).T, out=scratch
    )
    logits += (exps.neg_half_mahal + exps.neg_half_logdet)[:, None]
    return logits


class AnnotationGraph:
    """Colored annotation graph of a working set, in q(z) block order.

    Built from half-edges: an edge (item, other, weight) for each end of
    every annotation, each item's edges in triple order.  `linked` marks
    the items with at least one edge.  The linked items are colored
    greedily in index order: each takes the smallest color that none of
    its lower-indexed neighbors has, so no edge joins two items of one
    class, and the lowest linked item is in class 0.

    `order` lists class 0, then the unlinked items, then each later class,
    each in item order; `position` is its inverse, each item's block
    position.  Block 0 is class 0 with the unlinked items folded in, which
    share no edge either; a graph without edges is one block in item
    order, set without the coloring.  `blocks` holds per block (lo, hi,
    starts, other, weight): its positions lo..hi-1, linked items first,
    and their edges grouped by item in block order, as first-edge offsets,
    block positions of the other ends, and weights.  Iterating the graph
    yields `linked`, item by item: crowdbench's probe counts the linked
    items of each q(z) pass as the truthy entries.
    """

    def __init__(self, n_items: int, item, other, weight):
        item = np.asarray(item, dtype=int)
        if item.size:
            self._color(n_items, item, np.asarray(other, dtype=int), weight)
            return
        # no edges: the fields the coloring would give, without it
        self.linked = np.zeros(n_items, dtype=bool)
        self.order, self.position = np.arange(n_items), np.arange(n_items)
        no_edges = np.zeros(0, dtype=int)
        self.blocks = [(0, n_items, no_edges, no_edges, np.zeros(0))]

    def _color(self, n_items: int, item: np.ndarray, other: np.ndarray, weight):
        """The fields of a graph from its half-edges, by the coloring."""
        self.linked = np.bincount(item, minlength=n_items) > 0
        free = np.flatnonzero(~self.linked)
        color = _greedy_colors(n_items, item, other)
        # one stable sort groups the edges by class, then by item, and keeps
        # each item's edges in their given order
        by_class = np.argsort(color[item] * n_items + item, kind="stable")
        item, other = item[by_class], other[by_class]
        weight = np.asarray(weight, dtype=float)[by_class]
        starts = np.flatnonzero(np.diff(item, prepend=-1))  # each item's first edge
        items, bounds = item[starts], np.append(starts, item.size)
        class_bounds = np.cumsum(np.bincount(color[items])).tolist()
        head = class_bounds[0] if class_bounds else 0  # linked items of class 0
        self.order = np.concatenate([items[:head], free, items[head:]])
        self.position = np.empty(n_items, dtype=int)
        self.position[self.order] = np.arange(n_items)
        other_at = self.position[other]
        self.blocks = [] if class_bounds else [(0, n_items, starts, other_at, weight)]
        for lo, hi in zip([0] + class_bounds, class_bounds):
            first, last = bounds[lo], bounds[hi]
            self.blocks.append((
                lo + free.size if lo else 0, hi + free.size,
                starts[lo:hi] - first, other_at[first:last], weight[first:last],
            ))

    def __iter__(self):
        return iter(self.linked)


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
    if store is None or store.n_annotations == 0:
        return AnnotationGraph(n_items, [], [], [])
    t = store.triples
    if t[:, :2].max() >= n_items:
        raise ValueError("store must be indexed by working-set position")
    weights = two_coin_terms(store, workers.log_stats())
    # both ends of each triple in turn, so each item's edges keep triple order
    return AnnotationGraph(n_items, t[:, :2].ravel(), t[:, 1::-1].ravel(), np.repeat(weights, 2))


def _log_softmax_columns(x: np.ndarray, scratch: np.ndarray, out=None) -> np.ndarray:
    """scipy.special.log_softmax(x, axis=0) by the same numpy operations,
    without scipy's array-API dispatch, which costs more than the
    arithmetic on a working set.  On a (K, n) array every reduction runs
    across the items.  `out`, which may be x itself, receives the result,
    and `scratch`, of x's shape, the exponentials; numpy sums F- and
    C-ordered operands in different orders, so scipy's bits need a scratch
    laid out as x is.  Every column's maximum must be finite, as the q(z)
    logits' are, so each sums at least exp(0): no log(0)."""
    x_max = np.maximum.reduce(x, axis=0, keepdims=True)
    tmp = np.subtract(x, x_max, out=out)
    tmp -= np.log(np.add.reduce(np.exp(tmp, out=scratch), axis=0, keepdims=True))
    return tmp


def update_local_z(logits, neighbors, resp, scratch) -> tuple[np.ndarray, np.ndarray]:
    """One pass of coordinate refreshes on every q(z_i), in place.

    Component-major and in the block order of `neighbors`, the working
    set's AnnotationGraph: logits, resp and `scratch` are float (K, n)
    arrays, column p holding item `neighbors.order[p]`.  logits holds
    E[log pi] plus the component brackets, and resp the previous pass's
    q(z) probabilities, read as messages.  The pass overwrites logits with
    the new log q(z) probabilities and resp with their exponentials, and
    returns those two arrays; `scratch` takes the log-softmax's
    exponentials.  The blocks refresh one at a time, in order, each a
    column slice that takes its messages from the freshest q(z)
    probabilities of the blocks before it and is written in place by one
    log-softmax.  No edge joins two items of one block, so refreshing a
    block at once equals refreshing its items one after another: the pass
    is exact coordinate ascent, visiting the items in block order.
    """
    for lo, hi, starts, other, weight in neighbors.blocks:
        block = logits[:, lo:hi]
        if starts.size:
            block[:, :starts.size] += np.add.reduceat(resp[:, other] * weight, starts, axis=1)
        _log_softmax_columns(block, scratch[:, lo:hi], out=block)
        np.exp(block, out=resp[:, lo:hi])
    return logits, resp


def _local_sweeps(exps: GlobalExpectations, h, j_diag, neighbors, sweeps):
    """`sweeps` q(x) / q(z) rounds from uniform q(z) probabilities, each a
    q(x) refresh then a q(z) pass, on (d, n) evidence rows in the block
    order of `neighbors`.  Three (K, n) arrays, the logits, q(z) and one
    scratch, are made once: every round writes its component logits, log
    q(z) and q(z) into them in place.  Returns the last pass's (K, n) log
    q(z) and q(z)."""
    K = exps.log_pi.shape[0]
    resp = np.exp(np.full((K, h.shape[1]), -math.log(K)))
    log_resp, scratch = np.empty_like(resp), np.empty_like(resp)
    log_pi = exps.log_pi[:, None]
    for _ in range(sweeps):
        x_mean, x_cov = update_local_x(resp, exps, h, j_diag)[2:4]
        component_logits(exps, x_mean, x_cov, out=log_resp, scratch=scratch)
        log_resp += log_pi
        update_local_z(log_resp, neighbors, resp, scratch)
    return log_resp, resp


def block_coordinate_local(
    glob: GlobalVariational,
    h: np.ndarray,
    j_diag: np.ndarray,
    store: AnnotationStore | None = None,
    sweeps: int = LOCAL_SWEEPS,
) -> np.ndarray:
    """Alternate q(x) / q(z) coordinate updates for one working set.

    The evidence (h, j_diag) comes as two float (n, d) arrays in item
    order, as `recognition_potential` and `evidence` make them.  Their
    shapes and the sign of j_diag are checked here, a ValueError for
    either; finiteness is not, since `Mlp.forward` checks every network
    output.  `store`, when given, must be indexed by working-set position.
    Runs exactly `sweeps` rounds from uniform q(z) probabilities and ends on
    the last q(z) pass, returning its log q(z) probabilities as an (n, K)
    array in item order.  No q(x) refresh follows that pass: the training
    step refreshes q(x) of its batch rows only, in `_network_objective`.
    The annotation graph is built and colored once per call, and the
    evidence is gathered once into (d, n) rows in its block order; every
    q(z) pass then refreshes one block at a time, from the last pass's
    probabilities.  Items of one block share no edge, so each pass is
    exact coordinate ascent in that item order and the surrogate ELBO
    cannot decrease along the sweeps.  q(z) is held
    component-major, (K, n), and q(x) entry-major, (d, n) and (d, d, n);
    the log q(z) returns to item order in one gather, on exit.
    """
    check_count("sweeps", sweeps, 1)
    if h.ndim != 2 or h.shape != j_diag.shape:
        raise ValueError("h and j_diag must be matching (n, d) arrays")
    if np.any(j_diag >= 0.0):
        raise ValueError("j_diag must be strictly negative")
    exps = global_expectations(glob)
    neighbors = annotation_graph(store, glob.workers, h.shape[0])
    order = neighbors.order
    log_resp, _ = _local_sweeps(exps, h.T[:, order], j_diag.T[:, order], neighbors, sweeps)
    return log_resp.T[neighbors.position]


# ---------------------------------------------------------------------------
# objective pieces


def local_kl(exps: GlobalExpectations, log_resp: np.ndarray, bracket: float) -> float:
    """Expected KL of the local posteriors from their conditionals, summed,
    when q(x) is the refresh of the (n, K) log q(z) probabilities `log_resp`.

    z part: sum_k r_ik (log r_ik - E[log pi_k]).  x part: <eta_i - mixture
    evidence, E t(x_i)> - log Z(eta_i) plus the responsibility-weighted
    expected component log partitions.  On a refresh eta_i less the
    mixture evidence is the evidence psi_i, so the first two terms sum to
    minus `bracket`, the summed log Z - <psi, E t(x)> that
    `nnet.gaussian_refresh` recorded.  Constants are dropped as everywhere
    else.
    """
    r = np.exp(log_resp)
    # 0 log 0 = 0, so components with zero responsibility contribute nothing
    occupied = r > 0.0
    diff = log_resp - exps.log_pi
    kl_z = float(np.sum(r[occupied] * diff[occupied]))
    return kl_z - bracket - float(np.sum(r @ (exps.neg_half_mahal + exps.neg_half_logdet)))


def global_kl(glob: GlobalVariational, prior: MixturePrior) -> float:
    """KL(q || p) summed over mixing weights, workers and components.

    Each posterior record is paired with its prior record: `pi_nat()`,
    `relational.WORKER_PRIOR` (Beta(1, 1) on every accuracy) and
    `niw_nat()`, and contributes its `expfam.kl_divergence`, summed over
    the posterior's batch, across which the prior record broadcasts.
    Zero workers add nothing.
    """
    return (
        kl_divergence(glob.pi, prior.pi_nat())
        + kl_divergence(glob.workers, WORKER_PRIOR)
        + kl_divergence(glob.components, prior.niw_nat())
    )


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class BayesConfig(TrainConfig):
    """Settings for the natural-gradient training loop: `driver.TrainConfig`
    with K >= 2.

    The globals follow natural-gradient steps of constant size; the Adam
    optimizer steps both networks, along a gradient estimated from one
    reparameterized latent draw per batch item.  Fixed values:

    - the global step size `mixture.GLOBAL_STEP`, 0.05, `LOCAL_SWEEPS`, 3 local
      q(z) / q(x) rounds per working set, and the KL warmup `KL_WARMUP`, 1,
      whose ramp ends below weight 1;
    - the prior (`MixturePrior`): alpha0 = 0.05 / K
      (`mixture.DIRICHLET_MASS` / K), m0 = 0, kappa0 = 0.5
      (`mixture.KAPPA0`), S0 = (d + kappa0) I and nu0 = d + kappa0, and
      Beta(1, 1) on both accuracies of every worker
      (`relational.WORKER_PRIOR`);
    - the initial globals (`init_global`): component locations drawn
      N(0, 3 I), each with kappa = 1, and worker posteriors at
      Beta(*`relational.WORKER_INIT`), Beta(10, 1);
    - the initial evidence potentials: precision 200
      (INIT_POTENTIAL_PRECISION) and spread 1 (INIT_POTENTIAL_SPREAD);
    - the decoder's log-variance head is clipped to
      `driver.LOGVAR_CLAMP`, (-8, 8).
    """

    def __post_init__(self):
        super().__post_init__()
        check_count("n_components", self.n_components, 2)


@dataclass
class BayesModel:
    """Trained state: global posteriors and both networks, whose widths
    must match the globals' latent_dim and each other's observation width.
    `predict` runs PREDICT_SWEEPS local rounds.  Older documents' keys for
    the prior, the worker prior, the local tolerance and the training
    sweep count (`local_sweeps`) are ignored."""

    glob: GlobalVariational
    recognition: Mlp
    decoder: Mlp

    def __post_init__(self):
        d = (self.glob.latent_dim, "the globals' latent_dim")
        obs_dim = (self.recognition.sizes[0], "the recognition input width")
        check_network("recognition", self.recognition, {"loc": d, "prec_raw": d})
        check_network("decoder", self.decoder, {"mean": obs_dim, "logvar": obs_dim}, n_in=d)

    def predict(self, observations) -> np.ndarray:
        """Most probable component per item (lowest index on ties) under
        q(z) after PREDICT_SWEEPS local rounds without annotations, not
        training's LOCAL_SWEEPS, read after the last q(z) pass, which no
        q(x) refresh follows.  A non-finite row fails
        `driver.check_observations`.  The sweeps refresh three (K, n)
        arrays in place."""
        h, j_diag = recognition_potential(self.recognition, check_observations(observations))
        exps = global_expectations(self.glob)
        # without annotations there is one block, in item order
        neighbors = annotation_graph(None, self.glob.workers, h.shape[0])
        _, resp = _local_sweeps(exps, h.T, j_diag.T, neighbors, PREDICT_SWEEPS)
        return np.argmax(resp, axis=0)

    def effective_k(self, threshold: float) -> int:
        """`effective_components` of the global posterior."""
        return effective_components(self.glob, threshold)

    def global_kl(self) -> float:
        """`global_kl` of the global posterior from the prior that its
        (K, d) fix."""
        return global_kl(self.glob, MixturePrior(self.glob.n_components, self.glob.latent_dim))

    def to_dict(self) -> dict:
        return {
            "globals": self.glob.to_dict(),
            "recognition": self.recognition.state_dict(),
            "decoder": self.decoder.state_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BayesModel":
        return cls(
            glob=GlobalVariational.from_dict(saved_value(doc, "globals")),
            recognition=load_field(doc, "recognition", Mlp.from_state),
            decoder=load_field(doc, "decoder", Mlp.from_state),
        )


def _network_objective(h, j_diag, decoder, obs_batch, resp, exps, noise, data_scale, kl_weight):
    """Tape graph of the objective terms the networks can influence.

    `h` and `j_diag` are the batch rows' `evidence` tensors and `resp`
    their (n, K) q(z) probabilities, held constant.  Refreshes their q(x)
    by `update_local_x`, called through this module's name, and records
    `nnet.gaussian_refresh`'s two nodes on the refresh: recon + kl_weight *
    (log Z(eta_x) - <psi, E t(x)>), summed over the batch.  recon is the
    decoder log-likelihood of `obs_batch` under one reparameterized draw
    per item from q(x), x = mean + C noise, with `noise` of shape (n, d)
    and C = chol(cov).  `kl_weight` < 1 damps the pull of q(x) toward the
    mixture conditional (warmup against potential collapse); at 1 the
    gradient is exactly that of the training objective.  Returns the
    (scaled) objective, reconstruction and bracket tensors and the
    refreshed q(x) as item-major (n, d) means and (n, d, d) covariances.
    The covariance and root are C-ordered copies, not transposed views,
    whose F-ordered adjoints would move a bias gradient's last bits.
    """
    x_h, _, x_mean, x_cov, x_logdet, x_root = update_local_x(
        np.ascontiguousarray(resp.T), exps, h.data.T, j_diag.data.T
    )
    mean = x_mean.T
    cov = np.ascontiguousarray(x_cov.transpose(2, 0, 1))
    root = np.ascontiguousarray(x_root.transpose(2, 0, 1))
    draw, bracket = gaussian_refresh(h, j_diag, x_h.T, mean, cov, root, x_logdet, noise)
    dec = decoder.forward(draw)
    recon = tensor_sum(diag_gaussian_loglik(obs_batch, dec["mean"], dec["logvar"]))
    objective = (recon + bracket * kl_weight) * data_scale
    return objective, recon, bracket, mean, cov


def train_bayes_scdc(
    dataset: Dataset,
    store: AnnotationStore | None,
    config: BayesConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Stochastic natural-gradient training; `driver.fit` runs the loop.

    Each update runs the recognition network once over the working set,
    the other rows before the tape opens and the batch rows on it, each
    pass writing its rows of one (h, j_diag) pair of working-set arrays,
    and runs the local step on that evidence.  From the working set's q(z)
    it refreshes the batch rows' q(x) once, in `_network_objective`, and
    takes both networks' reparameterization gradients back through that
    refresh and the batch rows' evidence, which `driver.fit` then steps
    with Adam.  It steps each global record toward its minibatch target,
    the batch rows' q(z) and q(x) for the mixture and the working set's
    q(z) for the workers.  One `expected_rel_loglik` call on the working
    set's q(z) gives the worker target's confusion counts and the
    relational term of the returned estimate, so p_same is computed once
    per update.
    """
    store = training_store(store, dataset.n_items)
    obs = dataset.observations
    prior = MixturePrior(config.n_components, config.latent_dim)
    d = prior.latent_dim
    glob = init_global(prior, rng, n_workers=store.n_workers)
    recognition = Mlp([dataset.dim, *config.hidden], {"loc": d, "prec_raw": d}, rng)
    _calibrate_recognition_init(recognition, obs)
    decoder = gaussian_mlp([d, *config.hidden], dataset.dim, rng)

    def step(update: Update) -> float:
        nonlocal glob
        rows, local_store, batch_obs = update.rows, update.store, obs[update.batch]
        exps = global_expectations(glob)
        # the working set's evidence: the other rows carry no adjoint, so
        # they take one pass before the tape opens, the batch rows one on it
        shape = (update.working.size, d)
        work_h, work_j = np.empty(shape), np.empty(shape)
        others = np.delete(np.arange(shape[0]), rows)
        work_h[others], work_j[others] = recognition_potential(
            recognition, obs[update.working[others]]
        )
        with Tape() as tape:
            h, j_diag = evidence(recognition, batch_obs)
            work_h[rows], work_j[rows] = h.data, j_diag.data
            log_resp = block_coordinate_local(glob, work_h, work_j, local_store)
            resp = np.exp(log_resp)
            batch_resp = resp[rows]
            noise = rng.standard_normal((rows.size, d))
            objective, recon, bracket, x_mean, x_cov = _network_objective(
                h, j_diag, decoder, batch_obs, batch_resp, exps, noise,
                update.data_scale, kl_weight=update.kl_weight,
            )
        backward(tape, objective)
        target = mixture_natural_gradient(
            prior, batch_resp, x_mean, x_cov, scale=update.data_scale
        )
        rel, counts = expected_rel_loglik(
            local_store, resp, glob.workers.log_stats(), update.rel_scale
        )
        target = replace(target, workers=beta_natural_gradient(counts, update.rel_scale))
        kl = local_kl(exps, log_resp[rows], float(bracket.data))
        # the update's estimate of the objective less `global_kl`, which
        # `driver.fit` subtracts once per epoch
        estimate = update.data_scale * (float(recon.data) - kl) + float(rel.data)
        glob = apply_natural_gradient(glob, target, GLOBAL_STEP)
        return estimate

    return fit(
        dataset, store, config, rng,
        params=recognition.parameters() + decoder.parameters(),
        model=lambda: BayesModel(glob, recognition, decoder),
        step=step,
        kl_warmup=KL_WARMUP,
        minibatch_iterator=minibatch_iterator,
        sample_annotation_minibatch=sample_annotation_minibatch,
        clustering_accuracy=clustering_accuracy,
        nmi=nmi,
    )
