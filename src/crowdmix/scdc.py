"""Amortized stochastic-gradient variant.

Encoder networks produce the cluster posterior q(z|o) and the
per-cluster latent posterior q(x|z,o); mixing weights, component
Gaussians and worker accuracies are deterministic points optimized
jointly with the networks by stochastic gradient ascent of the evidence
lower bound, one Adam optimizer over every parameter.  The discrete cluster
sum is carried analytically: every item is paired with every component
in one stacked item-major batch (row i*K + k is item i under component
k) that goes through the latent encoder and the decoder once.
Annotations enter through the closed-form expectation of the two-coin
worker likelihood over pairs of cluster posteriors.  `driver.fit` runs
the minibatch loop; `train_scdc` supplies the parameters and the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_softmax as np_log_softmax

from .data import Dataset, minibatch_iterator
from .driver import TrainResult, Update, check_config, fit
from .metrics import clustering_accuracy, nmi
from .nnet import (
    Adam,
    Mlp,
    Tape,
    Tensor,
    TrainingDivergence,
    backward,
    constant,
    diag_gaussian_loglik,
    exp,
    log_softmax,
    mul,
    parameter,
    reparameterize,
    reshape,
    softplus,
    take_rows,
    tensor_sum,
    zero_grads,
)
from .relational import AnnotationStore, sample_annotation_minibatch


@dataclass
class PointParams:
    """Deterministic mixture and worker parameters, stored as logits.

    Mixing weights live as unnormalized logits, component Gaussians as
    means and diagonal log-variances, worker accuracies as a logit pair
    per worker (sensitivity, specificity).  Every derived quantity is a
    proper probability by construction.
    """

    pi_logits: Tensor     # (K,)
    means: Tensor         # (K, d)
    log_vars: Tensor      # (K, d)
    worker_logits: Tensor  # (M, 2)

    def __post_init__(self):
        for name in ("pi_logits", "means", "log_vars", "worker_logits"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value.data)):
                raise ValueError(f"{name} must be finite")
        if self.pi_logits.data.ndim != 1 or self.means.data.ndim != 2:
            raise ValueError("pi_logits must be (K,), means (K, d)")
        if self.means.data.shape != self.log_vars.data.shape:
            raise ValueError("means and log_vars must share their shape")
        if self.means.data.shape[0] != self.pi_logits.data.shape[0]:
            raise ValueError("component count mismatch between pi_logits and means")
        if self.worker_logits.data.ndim != 2 or self.worker_logits.data.shape[1] != 2:
            raise ValueError("worker_logits must be (M, 2)")

    @classmethod
    def init(
        cls,
        n_components: int,
        latent_dim: int,
        n_workers: int,
        rng: np.random.Generator,
        mean_spread: float = math.sqrt(3.0),
    ) -> "PointParams":
        """Uniform mixing weights, spread means, unit variances, and
        worker accuracies sampled uniformly on (0, 1)."""
        u = rng.uniform(1e-3, 1.0 - 1e-3, size=(n_workers, 2))
        return cls(
            pi_logits=parameter(np.zeros(n_components)),
            means=parameter(mean_spread * rng.standard_normal((n_components, latent_dim))),
            log_vars=parameter(np.zeros((n_components, latent_dim))),
            worker_logits=parameter(np.log(u / (1.0 - u))),
        )

    @property
    def n_components(self) -> int:
        return self.pi_logits.data.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.means.data.shape[1]

    @property
    def n_workers(self) -> int:
        return self.worker_logits.data.shape[0]

    def parameters(self) -> list:
        return [self.pi_logits, self.means, self.log_vars, self.worker_logits]

    def pi(self) -> np.ndarray:
        return np.exp(np_log_softmax(self.pi_logits.data))

    def log_stats(self) -> np.ndarray:
        """(M, 4) rows of (log a, log(1-a), log b, log(1-b)).

        Same layout as the Bayesian worker representation, so weight and
        likelihood helpers accept point parameters directly.
        """
        logits = self.worker_logits.data
        log_acc = -np.logaddexp(0.0, -logits)    # log sigmoid
        log_miss = -np.logaddexp(0.0, logits)    # log (1 - sigmoid)
        return np.stack(
            [log_acc[:, 0], log_miss[:, 0], log_acc[:, 1], log_miss[:, 1]], axis=1
        )

    def to_dict(self) -> dict:
        return {
            "pi_logits": self.pi_logits.data.tolist(),
            "means": self.means.data.tolist(),
            "log_vars": self.log_vars.data.tolist(),
            "worker_logits": self.worker_logits.data.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PointParams":
        return cls(
            pi_logits=parameter(np.asarray(doc["pi_logits"], dtype=float)),
            means=parameter(np.asarray(doc["means"], dtype=float)),
            log_vars=parameter(np.asarray(doc["log_vars"], dtype=float)),
            worker_logits=parameter(
                np.asarray(doc["worker_logits"], dtype=float).reshape(-1, 2)
            ),
        )


@dataclass
class AmortizedPosterior:
    """Encoder pair: observation -> cluster logits, (cluster, observation)
    -> diagonal Gaussian over the latent code."""

    encoder_z: Mlp
    encoder_x: Mlp

    @property
    def n_components(self) -> int:
        return self.encoder_z.heads["logits"]

    def cluster_logits(self, observations) -> np.ndarray:
        obs = np.atleast_2d(np.asarray(observations, dtype=float))
        return self.encoder_z.forward(obs)["logits"].data

    def cluster_log_probs(self, observations) -> np.ndarray:
        return np_log_softmax(self.cluster_logits(observations), axis=1)


def predict_cluster(posterior: AmortizedPosterior, observations) -> np.ndarray:
    """Most probable cluster per item (lowest index on ties)."""
    return np.argmax(posterior.cluster_logits(observations), axis=1)


def _check_finite(heads: dict, what: str) -> None:
    for value in heads.values():
        if not np.all(np.isfinite(value.data)):
            raise TrainingDivergence(f"{what} produced non-finite outputs")


def elbo_local(
    observations,
    point: PointParams,
    posterior: AmortizedPosterior,
    decoder: Mlp,
    rng: np.random.Generator | None = None,
    *,
    noise: np.ndarray | None = None,
    n_samples: int = 1,
    scale: float = 1.0,
    kl_weight: float = 1.0,
):
    """Data-term ELBO over a batch, cluster sum taken analytically.

    Per item: sum_k q(z=k|o) [log pi_k - log q(z=k|o)
    - KL(q(x|k,o) || N(mu_k, sigma2_k)) + log p(o | x_hat_k)], with one
    reparameterized latent draw per (item, component, sample).  All
    (item, component) pairs pass through the latent encoder, the
    Gaussian KL and the decoder as one stacked item-major batch: row
    i*K + k holds item i under component k, so the per-pair terms
    reshape straight to an (n, K) table.  Returns the scaled total as a
    tape tensor; `scale` carries the N/|B| batch correction.  `noise`
    (shape (samples, K, batch, d), at least one sample) overrides the
    random draws; noise[s, k, i] perturbs row i*K + k.  `kl_weight` < 1
    damps the Gaussian-KL pull of the per-cluster latent posteriors
    toward the point components (warmup against early contraction); at
    1 this is the exact bound.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    n, _ = obs.shape
    k_comp, d = point.n_components, point.latent_dim
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if noise is None:
        if rng is None:
            raise ValueError("need an rng when no noise is supplied")
        noise = rng.standard_normal((n_samples, k_comp, n, d))
    else:
        noise = np.asarray(noise, dtype=float)
        if noise.ndim != 4 or noise.shape[0] < 1 or noise.shape[1:] != (k_comp, n, d):
            raise ValueError(
                "noise must have shape (samples, components, batch, dim) "
                "with at least one sample"
            )
    z_heads = posterior.encoder_z.forward(obs)
    _check_finite(z_heads, "cluster encoder")
    log_q_z = log_softmax(z_heads["logits"], axis=-1)
    q_z = exp(log_q_z)

    stacked_obs = np.repeat(obs, k_comp, axis=0)              # (n*K, D)
    indicator = np.tile(np.eye(k_comp), (n, 1))               # (n*K, K)
    x_heads = posterior.encoder_x.forward(np.concatenate([indicator, stacked_obs], axis=1))
    _check_finite(x_heads, "latent encoder")
    mean, logvar = x_heads["mean"], x_heads["logvar"]         # (n*K, d)
    lv = point.log_vars                                       # (K, d)
    mean_view = reshape(mean, (n, k_comp, d))
    logvar_view = reshape(logvar, (n, k_comp, d))
    centered = mean_view - point.means
    kl_terms = (
        lv - logvar_view + (exp(logvar_view) + centered * centered) * exp(-lv) - 1.0
    )
    kl = tensor_sum(kl_terms, axis=-1) * 0.5                  # (n, K)
    std = exp(logvar * 0.5)
    recon = None
    for eps in noise.transpose(0, 2, 1, 3).reshape(noise.shape[0], n * k_comp, d):
        draw = reparameterize(mean, std, eps)
        dec = decoder.forward(draw)
        _check_finite(dec, "decoder")
        row = diag_gaussian_loglik(stacked_obs, dec["mean"], dec["logvar"])  # (n*K,)
        recon = row if recon is None else recon + row
    recon = reshape(recon * (1.0 / noise.shape[0]), (n, k_comp))
    rows = recon - kl * kl_weight                             # (n, K)
    log_pi = reshape(log_softmax(point.pi_logits, axis=-1), (1, k_comp))
    total = tensor_sum(mul(q_z, log_pi - log_q_z + rows))
    return total * scale


def elbo_rel(
    store: AnnotationStore | None,
    q_z,
    point: PointParams,
    scale: float = 1.0,
):
    """Annotation-term ELBO: closed-form pair expectation per triple.

    For annotation (i, j, m, L): with p_same = sum_k q(z_i=k) q(z_j=k),
    the expected two-coin log-likelihood is p_same log Bern(L; a_m) +
    (1 - p_same) log Bern(L; 1 - b_m).  `q_z` holds cluster posteriors
    aligned with the store's item indexing (tape tensor or array);
    `scale` carries the Na/|S| subsample correction.
    """
    if store is None or store.n_annotations == 0:
        return constant(0.0)
    if not isinstance(q_z, Tensor):
        q_z = constant(np.asarray(q_z, dtype=float))
    if q_z.data.shape[0] != store.n_items:
        raise ValueError("q_z rows must match the store's item count")
    t = store.triples
    q_i = take_rows(q_z, t[:, 0])
    q_j = take_rows(q_z, t[:, 1])
    p_same = tensor_sum(mul(q_i, q_j), axis=-1)               # (T,)
    logits = take_rows(point.worker_logits, t[:, 2])          # (T, 2)
    log_acc = -softplus(-logits)                              # log sigmoid
    log_miss = -softplus(logits)                              # log (1 - sigmoid)
    labels = constant(t[:, 3].astype(float))
    flipped = constant(1.0 - t[:, 3].astype(float))

    def column(tensor, idx):
        picker = constant(np.eye(2)[idx][None, :])
        return tensor_sum(mul(tensor, picker), axis=-1)

    # Bernoulli log-probabilities per triple under "same" and "different"
    same_ll = mul(labels, column(log_acc, 0)) + mul(flipped, column(log_miss, 0))
    diff_ll = mul(labels, column(log_miss, 1)) + mul(flipped, column(log_acc, 1))
    value = mul(p_same, same_ll - diff_ll) + diff_ll
    return tensor_sum(value) * scale


@dataclass(frozen=True)
class ScdcConfig:
    """Settings for the amortized stochastic-gradient training loop.

    One Adam optimizer steps every parameter at rate `lr`.  `kl_warmup`
    is the fraction of updates over which the Gaussian-KL weight ramps
    0 -> 1: off for the first half of the window, then linear.
    """

    n_components: int = 15
    latent_dim: int = 2
    epochs: int = 20
    batch_size: int = 50
    annotation_batch_size: int | None = None  # default: n_annotations * |B| / N
    hidden: tuple[int, ...] = (40, 40)
    lr: float = 1e-3
    n_samples: int = 1
    kl_warmup: float = 0.0
    init_spread: float = math.sqrt(3.0)
    logvar_clamp: tuple[float, float] = (-8.0, 8.0)

    def __post_init__(self):
        check_config(self)
        if self.lr < 0.0:
            raise ValueError("lr must be non-negative")


@dataclass
class ScdcModel:
    """Trained state: point parameters, encoder pair, and decoder."""

    point: PointParams
    posterior: AmortizedPosterior
    decoder: Mlp

    def predict(self, observations) -> np.ndarray:
        return predict_cluster(self.posterior, observations)

    def cluster_probs(self, observations) -> np.ndarray:
        return np.exp(self.posterior.cluster_log_probs(observations))

    def to_dict(self) -> dict:
        return {
            "point": self.point.to_dict(),
            "encoder_z": self.posterior.encoder_z.state_dict(),
            "encoder_x": self.posterior.encoder_x.state_dict(),
            "decoder": self.decoder.state_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScdcModel":
        return cls(
            point=PointParams.from_dict(doc["point"]),
            posterior=AmortizedPosterior(
                encoder_z=Mlp.from_state(doc["encoder_z"]),
                encoder_x=Mlp.from_state(doc["encoder_x"]),
            ),
            decoder=Mlp.from_state(doc["decoder"]),
        )


def train_scdc(
    dataset: Dataset,
    store: AnnotationStore | None,
    config: ScdcConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Stochastic gradient ascent of the amortized lower bound.

    Each update builds the scaled data and annotation ELBO terms on one
    tape and steps every parameter (point mixture, point workers, both
    encoders, decoder) along the gradient; `driver.fit` runs the loop.
    """
    obs = dataset.observations
    k_comp, d = config.n_components, config.latent_dim
    n_workers = store.n_workers if store is not None and store.n_annotations else 0
    point = PointParams.init(k_comp, d, n_workers, rng, mean_spread=config.init_spread)
    posterior = AmortizedPosterior(
        encoder_z=Mlp([dataset.dim, *config.hidden], {"logits": k_comp}, rng),
        encoder_x=Mlp(
            [k_comp + dataset.dim, *config.hidden],
            {"mean": d, "logvar": d},
            rng,
            clamp={"logvar": config.logvar_clamp},
        ),
    )
    decoder = Mlp(
        [d, *config.hidden],
        {"mean": dataset.dim, "logvar": dataset.dim},
        rng,
        clamp={"logvar": config.logvar_clamp},
    )
    params = (
        posterior.encoder_z.parameters()
        + posterior.encoder_x.parameters()
        + decoder.parameters()
        + point.parameters()
    )
    opt = Adam(params, lr=config.lr, maximize=True)

    def step(update: Update) -> float:
        noise = rng.standard_normal((config.n_samples, k_comp, update.batch.size, d))
        with Tape() as tape:
            total = elbo_local(
                obs[update.batch], point, posterior, decoder,
                noise=noise, scale=update.data_scale, kl_weight=update.kl_weight,
            )
            if update.store is not None:
                z_heads = posterior.encoder_z.forward(obs[update.working])
                _check_finite(z_heads, "cluster encoder")
                q_working = exp(log_softmax(z_heads["logits"], axis=-1))
                total = total + elbo_rel(update.store, q_working, point, scale=update.rel_scale)
        backward(tape, total)
        opt.step()
        zero_grads(params)
        return float(total.data)

    return fit(
        dataset, store, config, rng,
        params=params,
        model=lambda: ScdcModel(point, posterior, decoder),
        step=step,
        effective_k=lambda model, threshold: int(np.sum(model.point.pi() > threshold)),
        minibatch_iterator=minibatch_iterator,
        sample_annotation_minibatch=sample_annotation_minibatch,
        clustering_accuracy=clustering_accuracy,
        nmi=nmi,
    )
