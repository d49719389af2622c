"""Amortized stochastic-gradient variant.

Encoder networks produce the cluster posterior q(z|o) and the
per-cluster latent posterior q(x|z,o); mixing weights, component
Gaussians and worker accuracies are deterministic points optimized
jointly with the networks by stochastic gradient ascent of the evidence
lower bound.  The discrete cluster sum is carried analytically: every
item is paired with every component in one stacked item-major batch
(row i*K + k is item i under component k) that goes through the latent
encoder and the decoder once.  Annotations enter through the
closed-form expectation of the two-coin worker likelihood over pairs of
cluster posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.cluster.vq import kmeans2
from scipy.special import log_softmax as np_log_softmax

from .data import Dataset, minibatch_iterator
from .metrics import clustering_accuracy, nmi
from .nnet import (
    Adam,
    Mlp,
    SgdMomentum,
    Tape,
    Tensor,
    TrainingDivergence,
    backward,
    clip,
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
from .relational import AnnotationStore, restrict_store, sample_annotation_minibatch


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

    def worker_accuracies(self) -> tuple[np.ndarray, np.ndarray]:
        """(sensitivity, specificity) arrays, each in (0, 1)."""
        a = 1.0 / (1.0 + np.exp(-self.worker_logits.data))
        return a[:, 0], a[:, 1]

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


def _reseed_mixture(
    point: PointParams,
    posterior: AmortizedPosterior,
    observations,
    rng: np.random.Generator,
    logvar_floor: float,
) -> None:
    """Refit the point mixture to the current latent cloud in place.

    Takes each item's latent mean under its most probable cluster, runs
    k-means++ on those codes, and resets component means to the centroids,
    log-variances to the within-centroid spread (bounded below), and
    mixing weights to the smoothed assignment counts.  The encoder
    organizes the latent space long before gradient steps can drag the
    randomly placed components onto it; refitting skips that dead time.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    n = obs.shape[0]
    k_comp, d = point.n_components, point.latent_dim
    labels = np.argmax(posterior.cluster_logits(obs), axis=1)
    onehot = np.eye(k_comp)[labels]
    latents = posterior.encoder_x.forward(np.concatenate([onehot, obs], axis=1))[
        "mean"
    ].data
    centers, assign = kmeans2(latents, k_comp, minit="++", seed=rng)
    counts = np.bincount(assign, minlength=k_comp)
    global_var = latents.var(axis=0) + 1e-6
    log_vars = np.empty((k_comp, d))
    for k in range(k_comp):
        if counts[k] > 1:
            sq = (latents[assign == k] - centers[k]) ** 2
            log_vars[k] = np.log(sq.mean(axis=0) + 1e-6)
        else:
            log_vars[k] = np.log(global_var)
    point.means.data[:] = centers
    point.log_vars.data[:] = np.maximum(log_vars, logvar_floor)
    point.pi_logits.data[:] = np.log((counts + 1.0) / (n + k_comp))


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
    component_logvar_floor: float | None = None,
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
    1 this is the exact bound.  `component_logvar_floor` bounds the
    component log-variances from below inside the KL only, keeping the
    mixture components from contracting into high-precision traps that
    drag all latent posteriors together; `None` uses the raw parameters.
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
    if component_logvar_floor is not None:
        lv = clip(lv, component_logvar_floor, 60.0)
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
    """Settings for the amortized stochastic-gradient training loop."""

    n_components: int = 15
    latent_dim: int = 2
    epochs: int = 20
    batch_size: int = 50
    annotation_batch_size: int | None = None  # default: n_annotations * |B| / N
    hidden: tuple[int, ...] = (40, 40)
    lr: float = 1e-3
    worker_lr: float | None = None  # worker accuracy logits; with an adaptive
                                    # optimizer each coordinate moves at most
                                    # lr per update, so the two coins of a
                                    # worker need a faster rate than the
                                    # networks to traverse logit space within
                                    # a short training budget
    mixture_lr: float | None = None  # mixing weights and component Gaussians;
                                     # same rationale — at the network rate the
                                     # mixture barely moves over a short run,
                                     # leaving overlapping components that keep
                                     # the cluster posterior diffuse
    mixture_delay: float = 0.0  # fraction of updates before mixture_lr takes
                                # effect; a fast mixture from the start chases
                                # the still-uniform cluster posterior and all
                                # components collapse onto the latent centroid,
                                # so sharpening waits until the encoder has
                                # organized the latent space
    mixture_reseed: bool = False  # at the mixture_delay boundary, re-seed the
                                  # component means by k-means++ on the current
                                  # per-item latent means and refit weights and
                                  # variances from that assignment; the random
                                  # initial components rarely line up with the
                                  # organized latent cloud on their own
    optimizer: str = "adam"  # "adam" or "sgd"
    momentum: float = 0.9
    n_samples: int = 1
    kl_warmup: float = 0.0   # fraction of updates over which the Gaussian-KL
                             # weight ramps 0 -> 1 (off for the first half of
                             # the window, then linear)
    annotation_delay: float = 0.0  # fraction of updates to train on data only
                                   # before the annotation term (and worker
                                   # coins) switch on; lets the clustering
                                   # stabilize before the coins calibrate
    init_spread: float = math.sqrt(3.0)
    encoder_logvar_bias: float = 0.0  # starting log-variance of q(x|z,o)
    logvar_clamp: tuple[float, float] = (-8.0, 8.0)
    encoder_logvar_clamp: tuple[float, float] | None = None  # clamp for the
                                                 # latent-posterior head only
                                                 # (None: use logvar_clamp)
    component_logvar_floor: float | None = None  # lower bound on component
                                                 # log-variances inside the KL
                                                 # (None: unbounded)

    def __post_init__(self):
        if self.n_components < 1 or self.latent_dim < 1:
            raise ValueError("n_components and latent_dim must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.annotation_batch_size is not None and self.annotation_batch_size < 1:
            raise ValueError("annotation_batch_size must be at least 1")
        if self.lr < 0.0:
            raise ValueError("lr must be non-negative")
        if self.worker_lr is not None and self.worker_lr < 0.0:
            raise ValueError("worker_lr must be non-negative")
        if self.mixture_lr is not None and self.mixture_lr < 0.0:
            raise ValueError("mixture_lr must be non-negative")
        if not 0.0 <= self.mixture_delay <= 1.0:
            raise ValueError("mixture_delay must lie in [0, 1]")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not 0.0 <= self.kl_warmup <= 1.0:
            raise ValueError("kl_warmup must lie in [0, 1]")
        if not 0.0 <= self.annotation_delay <= 1.0:
            raise ValueError("annotation_delay must lie in [0, 1]")
        for name in ("logvar_clamp", "encoder_logvar_clamp"):
            bounds = getattr(self, name)
            if bounds is not None and not bounds[0] < bounds[1]:
                raise ValueError(f"{name} must be a (lo, hi) pair with lo < hi")


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


@dataclass
class ScdcResult:
    model: ScdcModel
    history: list = field(default_factory=list)
    diverged: bool = False


def train_scdc(
    dataset: Dataset,
    store: AnnotationStore | None,
    config: ScdcConfig,
    rng: np.random.Generator,
) -> ScdcResult:
    """Stochastic gradient ascent of the amortized lower bound.

    Each iteration pairs a uniform data minibatch with a proportional
    annotation minibatch, builds the scaled data and annotation ELBO
    terms on one tape, and steps every parameter (point mixture, point
    workers, both encoders, decoder) along the gradient.  Divergence
    restores the last finished epoch and sets the diverged flag.
    """
    obs = dataset.observations
    n = dataset.n_items
    k_comp, d = config.n_components, config.latent_dim
    n_ann = store.n_annotations if store is not None else 0
    n_workers = store.n_workers if n_ann else 0
    point = PointParams.init(k_comp, d, n_workers, rng, mean_spread=config.init_spread)
    enc_clamp = config.encoder_logvar_clamp or config.logvar_clamp
    posterior = AmortizedPosterior(
        encoder_z=Mlp([dataset.dim, *config.hidden], {"logits": k_comp}, rng),
        encoder_x=Mlp(
            [k_comp + dataset.dim, *config.hidden],
            {"mean": d, "logvar": d},
            rng,
            clamp={"logvar": enc_clamp},
        ),
    )
    posterior.encoder_x.head_biases["logvar"].data[:] = config.encoder_logvar_bias
    decoder = Mlp(
        [d, *config.hidden],
        {"mean": dataset.dim, "logvar": dataset.dim},
        rng,
        clamp={"logvar": config.logvar_clamp},
    )
    net_params = (
        posterior.encoder_z.parameters()
        + posterior.encoder_x.parameters()
        + decoder.parameters()
    )
    mixture_params = [point.pi_logits, point.means, point.log_vars]
    params = net_params + mixture_params + [point.worker_logits]
    mixture_lr = config.lr if config.mixture_lr is None else config.mixture_lr
    groups = [
        (net_params, config.lr),
        (mixture_params, config.lr if config.mixture_delay > 0.0 else mixture_lr),
        ([point.worker_logits], config.lr if config.worker_lr is None else config.worker_lr),
    ]
    if config.optimizer == "adam":
        def _make_opt(ps, lr):
            return Adam(ps, lr=lr, maximize=True)
    else:
        def _make_opt(ps, lr):
            return SgdMomentum(ps, lr=lr, momentum=config.momentum, maximize=True)
    opts = [_make_opt(ps, lr) for ps, lr in groups]
    mixture_opt = opts[1]
    threshold = min(0.5, 2.0 / n)
    batches_per_epoch = -(-n // config.batch_size)
    total_updates = config.epochs * batches_per_epoch
    warmup_updates = round(config.kl_warmup * total_updates)
    delay_updates = round(config.annotation_delay * total_updates)
    mixture_delay_updates = round(config.mixture_delay * total_updates)
    model = ScdcModel(point, posterior, decoder)
    history: list[dict] = []
    snapshot = [p.data.copy() for p in params]
    updates = 0
    reseeded = False
    diverged = False
    for epoch in range(config.epochs):
        estimates = []
        try:
            for batch in minibatch_iterator(n, config.batch_size, rng):
                batch = np.sort(batch)
                local_store, rel_scale, working = None, 1.0, batch
                if n_ann and updates + 1 > delay_updates:
                    want = config.annotation_batch_size
                    if want is None:
                        want = max(1, round(n_ann * batch.size / n))
                    sub, rel_scale = sample_annotation_minibatch(store, min(want, n_ann), rng)
                    working = np.unique(np.concatenate([batch, sub.annotated_items]))
                    local_store = restrict_store(sub, working)
                noise = rng.standard_normal((config.n_samples, k_comp, batch.size, d))
                updates += 1
                if updates > mixture_delay_updates:
                    if config.mixture_reseed and not reseeded:
                        floor = config.component_logvar_floor
                        _reseed_mixture(
                            point, posterior, obs, rng,
                            config.logvar_clamp[0] if floor is None else floor,
                        )
                        opts[1] = _make_opt(mixture_params, mixture_lr)
                        mixture_opt = opts[1]
                        reseeded = True
                    mixture_opt.lr = mixture_lr
                # Dead zone then linear ramp, as in the Bayesian loop.
                if updates > warmup_updates:
                    kl_weight = 1.0
                else:
                    half = 0.5 * (warmup_updates + 1.0)
                    kl_weight = max(0.0, (updates - half) / half)
                with Tape() as tape:
                    total = elbo_local(
                        obs[batch], point, posterior, decoder,
                        noise=noise, scale=n / batch.size, kl_weight=kl_weight,
                        component_logvar_floor=config.component_logvar_floor,
                    )
                    if local_store is not None:
                        z_heads = posterior.encoder_z.forward(obs[working])
                        _check_finite(z_heads, "cluster encoder")
                        q_working = exp(log_softmax(z_heads["logits"], axis=-1))
                        total = total + elbo_rel(local_store, q_working, point, scale=rel_scale)
                backward(tape, total)
                for opt in opts:
                    opt.step()
                zero_grads(params)
                estimate = float(total.data)
                if not np.isfinite(estimate):
                    raise TrainingDivergence("non-finite objective estimate")
                estimates.append(estimate)
        except (TrainingDivergence, np.linalg.LinAlgError):
            diverged = True
            for p, saved in zip(params, snapshot):
                p.data = saved
            break
        model = ScdcModel(point, posterior, decoder)
        snapshot = [p.data.copy() for p in params]
        record = {"epoch": epoch, "objective": float(np.mean(estimates))}
        preds = model.predict(obs)
        record["effective_k"] = int(np.sum(point.pi() > threshold))
        if dataset.labels is not None:
            record["accuracy"] = clustering_accuracy(dataset.labels, preds)
            record["nmi"] = nmi(dataset.labels, preds)
        else:
            record["accuracy"] = float("nan")
            record["nmi"] = float("nan")
        history.append(record)
    return ScdcResult(model=model, history=history, diverged=diverged)
