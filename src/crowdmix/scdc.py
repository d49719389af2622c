"""Amortized stochastic-gradient variant.

Encoder networks produce the cluster posterior q(z|o) and the
per-cluster latent posterior q(x|z,o); mixing weights and component
Gaussians are deterministic points optimized jointly with the networks
by stochastic gradient ascent of the evidence lower bound, one Adam
optimizer over every tape parameter.  The discrete cluster sum is
carried analytically: every item is paired with every component in one
stacked item-major batch (row i*K + k is item i under component k) that
goes through the latent encoder and the decoder once, with one
reparameterized latent draw per row.  `elbo_local` records three nodes
besides the networks' layers: the draw, the decoder log-likelihood and
the bound, one node whose gradients in the cluster logits, the latent
encoder's heads, the log-likelihoods and the point parameters are closed
forms, bit for bit those of the tape composition it replaces.
Annotations enter through one
call per update of the relational op `relational.expected_rel_loglik`,
in `elbo_rel`, on the working set's cluster posteriors, which `_softmax`
gives as one node.  The op records one tape node for the closed-form
expectation of the two-coin worker likelihood over pairs of cluster
posteriors, the worker rows of the Beta posteriors constants, and
returns the confusion counts of the same p_same.  The worker accuracies
are the Bayesian trainer's `relational.BetaWorkers` record: each update
moves it by `mixture.GLOBAL_STEP` toward `beta_natural_gradient`'s target
for those counts, and `ScdcModel.global_kl` is its KL from
`relational.WORKER_PRIOR`.
`ScdcModel` holds the point parameters, the workers and the three
networks; `driver.fit` runs the minibatch loop; `train_scdc` supplies the
parameters and the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import log_softmax as np_log_softmax

from .data import Dataset, minibatch_iterator
from .driver import TrainConfig, TrainResult, Update, check_network, fit, gaussian_mlp
from .driver import check_observations, load_field, training_store
from .metrics import clustering_accuracy, nmi
from .mixture import GLOBAL_STEP
from .nnet import (
    Mlp,
    Tape,
    Tensor,
    _record,
    _unbroadcast,
    backward,
    diag_gaussian_draw,
    diag_gaussian_loglik,
    parameter,
    saved_value,
    take_rows,
)
from .expfam import kl_divergence
from .relational import WORKER_PRIOR, AnnotationStore, BetaWorkers, beta_natural_gradient
from .relational import expected_rel_loglik, sample_annotation_minibatch

_POINT_KEYS = ("pi_logits", "means", "log_vars")  # PointParams' fields and document keys

# `driver.fit`'s latent-KL warmup.  Against none, over pinwheel seeds 0-29, the
# median accuracy rises from 0.605 to 0.753 and the minimum from 0.258 to 0.544.
KL_WARMUP = 0.5


@dataclass
class PointParams:
    """Deterministic mixture parameters: mixing weights as unnormalized
    logits, component Gaussians as means and diagonal log-variances."""

    pi_logits: Tensor     # (K,)
    means: Tensor         # (K, d)
    log_vars: Tensor      # (K, d)

    def __post_init__(self):
        for name in _POINT_KEYS:
            value = getattr(self, name)
            if not np.all(np.isfinite(value.data)):
                raise ValueError(f"{name} must be finite")
        if self.pi_logits.data.ndim != 1 or self.means.data.ndim != 2:
            raise ValueError("pi_logits must be (K,), means (K, d)")
        if self.means.data.shape != self.log_vars.data.shape:
            raise ValueError("means and log_vars must share their shape")
        if self.means.data.shape[0] != self.pi_logits.data.shape[0]:
            raise ValueError("component count mismatch between pi_logits and means")

    @classmethod
    def init(cls, n_components: int, latent_dim: int, rng: np.random.Generator) -> "PointParams":
        """Uniform mixing weights, means drawn N(0, 3 I), unit variances."""
        return cls(
            pi_logits=parameter(np.zeros(n_components)),
            means=parameter(math.sqrt(3.0) * rng.standard_normal((n_components, latent_dim))),
            log_vars=parameter(np.zeros((n_components, latent_dim))),
        )

    @property
    def n_components(self) -> int:
        return self.pi_logits.data.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.means.data.shape[1]

    def parameters(self) -> list:
        return [getattr(self, key) for key in _POINT_KEYS]

    def pi(self) -> np.ndarray:
        return np.exp(np_log_softmax(self.pi_logits.data))

    def to_dict(self) -> dict:
        return {key: getattr(self, key).data.tolist() for key in _POINT_KEYS}

    @classmethod
    def from_dict(cls, doc: dict) -> "PointParams":
        """Parameters from a `to_dict` document; older documents' worker
        logits are ignored."""
        values = (saved_value(doc, key) for key in _POINT_KEYS)
        return cls(*(parameter(np.asarray(value, dtype=float)) for value in values))


def _log_softmax(a: np.ndarray) -> tuple:
    """Log-softmax and softmax of a along its last axis, as the logsumexp
    and sub nodes of a tape log_softmax and an exp node compute them."""
    top = a.max(axis=-1, keepdims=True)
    lse = top + np.log(np.exp(a - top).sum(axis=-1, keepdims=True))
    log_soft = a - lse
    return log_soft, np.exp(log_soft)


def _log_softmax_vjp(g: np.ndarray, soft: np.ndarray) -> np.ndarray:
    """The input's adjoint for the adjoint g of `_log_softmax`'s first
    output: the sub node's, then the logsumexp node's term."""
    return g + _unbroadcast(-g, soft.shape[:-1] + (1,)) * soft


def _softmax(logits: Tensor) -> Tensor:
    """Softmax along the last axis as one node, whose value and gradient
    are bit for bit those of the three-node exp(log_softmax(logits)) that
    the tests keep as its oracle: the exp node's adjoint g * soft, then
    `_log_softmax_vjp`."""
    soft = _log_softmax(logits.data)[1]
    return _record(soft, (logits,), lambda g: (_log_softmax_vjp(g * soft, soft),))


def _data_bound(
    logits: Tensor, mean: Tensor, logvar: Tensor, recon: Tensor, point: PointParams,
    scale: float, kl_weight: float,
) -> Tensor:
    """scale * sum_ik q(z_i=k) [log pi_k - log q(z_i=k) + recon_ik -
    kl_weight KL_ik], as one node, KL_ik the Gaussian KL of row i*K + k of
    the latent encoder's heads from component k, and recon the (n*K,)
    decoder log-likelihoods.

    Every array of the value and of the gradients is the one the 28-node
    composition of log_softmax, exp, reshape, sub, mul, add and tensor_sum
    it replaces makes, by the same numpy operation in the same order and
    grouping, so the gradients are bit for bit those of that composition;
    the tests keep it as the oracle.  In the gradients g_x is the adjoint
    of the forward's array x.
    """
    n, k_comp = logits.data.shape
    d = point.latent_dim
    log_q_z, q_z = _log_softmax(logits.data)
    log_pi, soft_pi = _log_softmax(point.pi_logits.data)
    lv = point.log_vars.data                                    # (K, d)
    mean_view = mean.data.reshape(n, k_comp, d)
    logvar_view = logvar.data.reshape(n, k_comp, d)
    centered = mean_view - point.means.data
    var_q = np.exp(logvar_view)
    inv_var = np.exp(lv * -1.0)                                 # exp(-lv)
    spread = var_q + centered * centered
    kl = ((lv - logvar_view + spread * inv_var) - 1.0).sum(axis=-1) * 0.5
    rows = recon.data.reshape(n, k_comp) - kl * kl_weight      # (n, K)
    gap = (log_pi.reshape(1, k_comp) - log_q_z) + rows
    total = (q_z * gap).sum() * scale

    def vjp(g):
        g_sum = g * scale                                       # of the unscaled sum
        g_gap = g_sum * q_z                                     # also rows' adjoint
        minus_gap = -g_gap
        g_log_q = minus_gap + (g_sum * gap) * q_z
        g_kl = (minus_gap * kl_weight) * 0.5                    # of the KL terms' sum
        g_terms = np.broadcast_to(g_kl[..., None], (n, k_comp, d)).copy()
        g_spread = g_terms * inv_var
        g_neg_lv = _unbroadcast(g_terms * spread, lv.shape) * inv_var
        g_square = g_spread * centered                          # one factor's of centered**2
        g_centered = g_square + g_square
        g_log_pi = _unbroadcast(g_gap, (1, k_comp)).reshape(k_comp)
        return (
            _log_softmax_vjp(g_log_q, q_z),
            g_centered.reshape(n * k_comp, d),
            ((g_spread * var_q) + -g_terms).reshape(n * k_comp, d),
            g_gap.reshape(n * k_comp),
            _log_softmax_vjp(g_log_pi, soft_pi),
            _unbroadcast(-g_centered, lv.shape),
            g_neg_lv * -1.0 + _unbroadcast(g_terms, lv.shape),
        )

    parents = (logits, mean, logvar, recon, point.pi_logits, point.means, point.log_vars)
    return _record(total, parents, vjp)


def elbo_local(
    observations, logits: Tensor, model: "ScdcModel", noise, scale: float, kl_weight: float
):
    """Data-term ELBO over a batch, cluster sum taken analytically.

    Per item: sum_k q(z=k|o) [log pi_k - log q(z=k|o)
    - KL(q(x|k,o) || N(mu_k, sigma2_k)) + log p(o | x_hat_k)], with one
    reparameterized latent draw per (item, component).  `logits` is the
    (n, K) tape tensor of the cluster encoder's logits for the batch
    items; the caller runs the encoder, so one pass can serve the
    annotation term too.  All (item, component) pairs pass through the
    latent encoder, the Gaussian KL and the decoder as one stacked
    item-major batch: row i*K + k holds item i under component k, so the
    per-pair terms reshape straight to an (n, K) table.  `noise` has
    shape (K, n, d); noise[k, i] perturbs row i*K + k.  Returns the
    scaled total as a tape tensor; `scale` carries the N/|B| batch
    correction.  `kl_weight` weighs the Gaussian KL, below 1 during the
    warmup against early contraction; at 1 this is the exact bound.
    Besides the two networks' layers it records three nodes: the draw
    (`nnet.diag_gaussian_draw`), the decoder log-likelihood
    (`nnet.diag_gaussian_loglik`) and the bound, whose gradients are
    closed forms.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    n, _ = obs.shape
    point = model.point
    k_comp, d = point.n_components, point.latent_dim
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (k_comp, n, d):
        raise ValueError("noise must have shape (components, batch, dim)")
    if logits.data.shape != (n, k_comp):
        raise ValueError("logits must have shape (batch, components)")
    stacked_obs = np.repeat(obs, k_comp, axis=0)              # (n*K, D)
    indicator = np.tile(np.eye(k_comp), (n, 1))               # (n*K, K)
    x_heads = model.encoder_x.forward(np.concatenate([indicator, stacked_obs], axis=1))
    mean, logvar = x_heads["mean"], x_heads["logvar"]         # (n*K, d)
    eps = noise.transpose(1, 0, 2).reshape(n * k_comp, d)    # row i*K + k: noise[k, i]
    dec = model.decoder.forward(diag_gaussian_draw(mean, logvar, eps))
    recon = diag_gaussian_loglik(stacked_obs, dec["mean"], dec["logvar"])
    return _data_bound(logits, mean, logvar, recon, point, scale, kl_weight)


def elbo_rel(store: AnnotationStore, q_z: Tensor, workers: BetaWorkers, scale: float):
    """Annotation-term ELBO, closed-form pair expectation per triple, and
    the workers' unscaled (M, 4) confusion counts.

    `relational.expected_rel_loglik` of the cluster posteriors `q_z`,
    aligned with the store's item indexing, and of the workers' log_stats
    rows as constants, so the gradient reaches the cluster encoder only.
    `scale` carries the Na/|S| subsample correction.
    """
    return expected_rel_loglik(store, q_z, workers.log_stats(), scale)


@dataclass(frozen=True)
class ScdcConfig(TrainConfig):
    """Settings for the amortized stochastic-gradient training loop: the
    shared `driver.TrainConfig`, with nothing added.  Adam steps the point
    mixture too, not the workers.  Fixed values: the KL warmup `KL_WARMUP`,
    0.5, one reparameterized latent draw per (item, component) and update,
    component means started N(0, 3 I), log-variance heads clipped to
    `driver.LOGVAR_CLAMP`, and the Bayesian trainer's worker start and step."""


@dataclass
class ScdcModel:
    """Trained state: point parameters, worker posteriors and three networks.

    `encoder_z` maps an observation to cluster logits, `encoder_x` a
    (one-hot cluster, observation) row to a diagonal Gaussian over the
    latent code, and `decoder` a latent code to a diagonal Gaussian over
    the observation.  `predict` does not read the workers.
    """

    point: PointParams
    workers: BetaWorkers
    encoder_z: Mlp
    encoder_x: Mlp
    decoder: Mlp

    def __post_init__(self):
        k = (self.point.n_components, "the point parameters' n_components")
        d = (self.point.latent_dim, "the point parameters' latent_dim")
        obs_dim = (self.encoder_z.sizes[0], "the encoder_z input width")
        x_in = (k[0] + obs_dim[0], "n_components + the encoder_z input width")
        check_network("encoder_z", self.encoder_z, {"logits": k})
        check_network("encoder_x", self.encoder_x, {"mean": d, "logvar": d}, n_in=x_in)
        check_network("decoder", self.decoder, {"mean": obs_dim, "logvar": obs_dim}, n_in=d)

    def parameters(self) -> list:
        return (
            self.encoder_z.parameters()
            + self.encoder_x.parameters()
            + self.decoder.parameters()
            + self.point.parameters()
        )

    def predict(self, observations) -> np.ndarray:
        """Most probable cluster per item (lowest index on ties); a
        non-finite row fails `driver.check_observations`."""
        logits = self.encoder_z.forward(check_observations(observations))["logits"]
        return np.argmax(logits.data, axis=1)

    def effective_k(self, threshold: float) -> int:
        """Number of point mixing weights above `threshold`."""
        return int(np.sum(self.point.pi() > threshold))

    def global_kl(self) -> float:
        """KL of the worker record from WORKER_PRIOR, the term of the bound
        that the worker step ascends with the relational term; the point
        parameters have no prior."""
        return kl_divergence(self.workers, WORKER_PRIOR)

    def to_dict(self) -> dict:
        return {
            "point": self.point.to_dict(),
            "workers": self.workers.to_dict(),
            "encoder_z": self.encoder_z.state_dict(),
            "encoder_x": self.encoder_x.state_dict(),
            "decoder": self.decoder.state_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScdcModel":
        """Model from a `to_dict` document.  An older document, with worker
        logits in `point` and no `workers`, loads with zero workers."""
        return cls(
            point=load_field(doc, "point", PointParams.from_dict),
            workers=BetaWorkers.from_dict(doc.get("workers")),
            encoder_z=load_field(doc, "encoder_z", Mlp.from_state),
            encoder_x=load_field(doc, "encoder_x", Mlp.from_state),
            decoder=load_field(doc, "decoder", Mlp.from_state),
        )


def train_scdc(
    dataset: Dataset,
    store: AnnotationStore | None,
    config: ScdcConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Stochastic gradient ascent of the amortized lower bound.

    Each update builds the scaled data and annotation ELBO terms on one
    tape, takes their gradient in every tape parameter (point mixture,
    both encoders, decoder), which `driver.fit` then steps with Adam, and
    moves the worker record by GLOBAL_STEP toward `beta_natural_gradient`'s
    target for the confusion counts that the annotation term returns, as
    the Bayesian trainer does; `driver.fit` runs the loop.  Each update
    returns its scaled ELBO terms, before the worker step; `driver.fit`
    subtracts `ScdcModel.global_kl` once per epoch.
    """
    store = training_store(store, dataset.n_items)
    obs = dataset.observations
    k_comp, d = config.n_components, config.latent_dim
    model = ScdcModel(
        point=PointParams.init(k_comp, d, rng),
        workers=BetaWorkers.init(store.n_workers),
        encoder_z=Mlp([dataset.dim, *config.hidden], {"logits": k_comp}, rng),
        encoder_x=gaussian_mlp([k_comp + dataset.dim, *config.hidden], d, rng),
        decoder=gaussian_mlp([d, *config.hidden], dataset.dim, rng),
    )

    def step(update: Update) -> float:
        noise = rng.standard_normal((k_comp, update.batch.size, d))
        with Tape() as tape:
            # the working set contains the batch: one encoder pass serves both terms
            logits = model.encoder_z.forward(obs[update.working])["logits"]
            total = elbo_local(
                obs[update.batch], take_rows(logits, update.rows), model, noise,
                update.data_scale, update.kl_weight,
            )
            rel, counts = elbo_rel(update.store, _softmax(logits), model.workers, update.rel_scale)
            total = total + rel
        backward(tape, total)
        target = beta_natural_gradient(counts, update.rel_scale)
        eta = model.workers.eta
        model.workers = BetaWorkers(eta + GLOBAL_STEP * (target.eta - eta))
        return float(total.data)

    return fit(
        dataset, store, config, rng,
        params=model.parameters(),
        # a copy, so that a divergence returns the last finished epoch's workers
        model=lambda: replace(model),
        step=step,
        kl_warmup=KL_WARMUP,
        minibatch_iterator=minibatch_iterator,
        sample_annotation_minibatch=sample_annotation_minibatch,
        clustering_accuracy=clustering_accuracy,
        nmi=nmi,
    )
