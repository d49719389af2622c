"""Latent Gaussian-mixture globals.

Conjugate priors (Dirichlet over mixing weights, one shared NIW over
every component's mean and covariance), the variational posterior over
the globals, and the natural-gradient coordinate
updates whose step-1 fixed point is the textbook conjugate posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expfam import (
    BetaNat,
    DirichletNat,
    NiwNat,
    dirichlet_expected_stats,
    niw_expected_stats,
)
from .relational import BetaWorkers


class StepRejected(RuntimeError):
    """A natural-gradient step left the valid natural-parameter domain."""


# ---------------------------------------------------------------------------
# prior and variational state


@dataclass(frozen=True)
class MixturePrior:
    """Conjugate prior for a K-component latent Gaussian mixture in R^d.

    Dirichlet(alpha0, ..., alpha0) over the mixing weights and the same
    NIW(m0, kappa0, s0, nu0) over each component's (mu, Sigma).
    """

    n_components: int
    latent_dim: int
    alpha0: float
    m0: np.ndarray
    kappa0: float
    s0: np.ndarray
    nu0: float

    def __post_init__(self):
        K = int(self.n_components)
        d = int(self.latent_dim)
        if K < 2:
            raise ValueError("need at least two components")
        if d < 1:
            raise ValueError("latent dimension must be positive")
        if not self.alpha0 > 0.0:
            raise ValueError("alpha0 must be positive")
        if not self.kappa0 > 0.0:
            raise ValueError("kappa0 must be positive")
        if not self.nu0 > d - 1.0:
            raise ValueError(f"nu0 = {self.nu0} must exceed d - 1 = {d - 1}")
        m0 = np.array(self.m0, dtype=float)
        s0 = np.array(self.s0, dtype=float)
        if m0.shape != (d,):
            raise ValueError(f"m0 must have shape ({d},), got {m0.shape}")
        if s0.shape != (d, d) or not np.allclose(s0, s0.T, atol=1e-8):
            raise ValueError("s0 must be a symmetric (d, d) matrix")
        np.linalg.cholesky(s0)  # positive-definiteness check
        m0.setflags(write=False)
        s0.setflags(write=False)
        object.__setattr__(self, "n_components", K)
        object.__setattr__(self, "latent_dim", d)
        object.__setattr__(self, "alpha0", float(self.alpha0))
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "kappa0", float(self.kappa0))
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "nu0", float(self.nu0))
        # one record of each prior family, so whatever is derived from it
        # is computed once per prior
        object.__setattr__(self, "_pi_nat", DirichletNat.from_alpha(np.full(K, self.alpha0)))
        object.__setattr__(self, "_niw_nat", NiwNat.from_standard(m0, self.kappa0, s0, self.nu0))

    @classmethod
    def default(
        cls,
        n_components: int,
        latent_dim: int,
        alpha0: float | None = None,
        kappa0: float = 0.5,
        s0_scale: float | None = None,
        nu0: float | None = None,
    ) -> "MixturePrior":
        """Weak sparsity-inducing prior: alpha0 = 0.05/K, m0 = 0, kappa0 = 0.5,
        s0 = (d + kappa0) I, nu0 = d + kappa0, unless given."""
        d = latent_dim
        return cls(
            n_components=n_components,
            latent_dim=d,
            alpha0=(0.05 / n_components) if alpha0 is None else alpha0,
            m0=np.zeros(d),
            kappa0=kappa0,
            s0=((d + kappa0) if s0_scale is None else s0_scale) * np.eye(d),
            nu0=(d + kappa0) if nu0 is None else nu0,
        )

    def pi_nat(self) -> DirichletNat:
        return self._pi_nat

    def niw_nat(self) -> NiwNat:
        return self._niw_nat

    def to_dict(self) -> dict:
        return {
            "n_components": self.n_components,
            "latent_dim": self.latent_dim,
            "alpha0": self.alpha0,
            "m0": self.m0.tolist(),
            "kappa0": self.kappa0,
            "s0": self.s0.tolist(),
            "nu0": self.nu0,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MixturePrior":
        return cls(
            n_components=doc["n_components"],
            latent_dim=doc["latent_dim"],
            alpha0=doc["alpha0"],
            m0=np.array(doc["m0"], dtype=float),
            kappa0=doc["kappa0"],
            s0=np.array(doc["s0"], dtype=float),
            nu0=doc["nu0"],
        )


# JSON keys of one component's natural parameters, in NiwNat field order.
_NIW_KEYS = ("h1", "h2", "h3", "h4")


@dataclass(frozen=True)
class GlobalVariational:
    """Variational posterior over the mixture globals and, when present,
    the per-worker accuracy pairs.  `components` is one NIW record of
    batch shape (K,).  Instances are immutable snapshots; updates
    construct a new one."""

    pi: DirichletNat
    components: NiwNat
    workers: BetaWorkers | None = None

    def __post_init__(self):
        if not isinstance(self.components, NiwNat):
            raise TypeError("components must be one NiwNat of batch shape (K,)")
        if self.components.h3.shape != self.pi.eta.shape:
            raise ValueError("need one NIW component per mixing weight")

    @property
    def n_components(self) -> int:
        return self.pi.eta.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.components.dim

    @property
    def n_workers(self) -> int:
        return 0 if self.workers is None else self.workers.n_workers

    def to_dict(self) -> dict:
        c = self.components
        rows = zip(c.h1.tolist(), c.h2.tolist(), c.h3.tolist(), c.h4.tolist())
        doc = {
            "pi_eta": self.pi.eta.tolist(),
            "components": [dict(zip(_NIW_KEYS, row)) for row in rows],
            "workers": None,
        }
        if self.workers is not None:
            doc["workers"] = {
                "alpha_taus": self.workers.alpha_taus.tolist(),
                "beta_taus": self.workers.beta_taus.tolist(),
            }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "GlobalVariational":
        pi = DirichletNat(np.array(doc["pi_eta"], dtype=float))
        comps = NiwNat(*(np.array([c[key] for c in doc["components"]]) for key in _NIW_KEYS))
        workers = None
        if doc.get("workers") is not None:
            taus = doc["workers"]
            workers = BetaWorkers.from_taus(taus["alpha_taus"], taus["beta_taus"])
        return cls(pi, comps, workers)


class GlobalExpectations(NamedTuple):
    """Stacked expected sufficient statistics consumed by the local updates."""

    log_pi: np.ndarray          # (K,)    E[log pi_k]
    mean_prec: np.ndarray       # (K, d)  E[Sigma_k^-1 mu_k]
    neg_half_prec: np.ndarray   # (K, d, d)
    neg_half_mahal: np.ndarray  # (K,)
    neg_half_logdet: np.ndarray # (K,)


def global_expectations(glob: GlobalVariational) -> GlobalExpectations:
    return GlobalExpectations(
        dirichlet_expected_stats(glob.pi), *niw_expected_stats(glob.components)
    )


# ---------------------------------------------------------------------------
# initialization and sampling


def init_global(
    prior: MixturePrior,
    rng: np.random.Generator,
    n_workers: int = 0,
    init_spread: float = math.sqrt(3.0),
    init_kappa: float = 1.0,
    worker_init: tuple[float, float] = (10.0, 1.0),
) -> GlobalVariational:
    """Random variational starting point.

    Mixing-weight concentrations start uniform on (1, 2); component
    locations are zero-mean Gaussian draws with standard deviation
    init_spread, each with kappa = init_kappa, S = (d + init_kappa) I
    and matching nu; worker posteriors start at Beta(*worker_init).
    """
    K, d = prior.n_components, prior.latent_dim
    pi = DirichletNat.from_alpha(rng.uniform(1.0, 2.0, size=K))
    scale = (d + init_kappa) * np.eye(d)
    components = NiwNat.from_standard(
        init_spread * rng.standard_normal((K, d)), init_kappa, scale, d + init_kappa
    )
    workers = BetaWorkers.constant_init(n_workers, *worker_init) if n_workers else None
    return GlobalVariational(pi, components, workers)


# ---------------------------------------------------------------------------
# natural-gradient updates


@dataclass(frozen=True)
class GlobalGrads:
    """Natural-gradient direction for the global variational parameters.

    Worker blocks are optional; when absent the worker posteriors pass
    through apply_natural_gradient unchanged.
    """

    pi: np.ndarray               # (K,)
    h1: np.ndarray               # (K, d)
    h2: np.ndarray               # (K, d, d)
    h3: np.ndarray               # (K,)
    h4: np.ndarray               # (K,)
    worker_alpha: np.ndarray | None = None  # (M, 2)
    worker_beta: np.ndarray | None = None   # (M, 2)


def mixture_natural_gradient(
    prior: MixturePrior,
    q_z: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    current: GlobalVariational,
    scale: float = 1.0,
) -> GlobalGrads:
    """Natural gradients for the Dirichlet and NIW blocks.

    The step-1 fixed point is the conjugate update: prior natural
    parameters plus scaled responsibility-weighted local moments.
    q_z is (n, K) responsibilities, means (n, d), covs (n, d, d) full
    matrices or (n, d) diagonals; scale is the minibatch factor N/|B|.
    """
    K, d = current.n_components, current.latent_dim
    q_z = np.asarray(q_z, dtype=float).reshape(-1, K)
    means = np.asarray(means, dtype=float).reshape(-1, d)
    covs = np.asarray(covs, dtype=float)
    if covs.ndim == 2:
        covs = covs[:, :, None] * np.eye(d)
    counts = q_z.sum(axis=0)
    first = q_z.T @ means
    second = np.einsum(
        "nk,nij->kij", q_z, covs + means[:, :, None] * means[:, None, :]
    )
    niw0, comps = prior.niw_nat(), current.components
    return GlobalGrads(
        pi=prior.pi_nat().eta + scale * counts - current.pi.eta,
        h1=niw0.h1 + scale * first - comps.h1,
        h2=niw0.h2 + scale * second - comps.h2,
        h3=niw0.h3 + scale * counts - comps.h3,
        h4=niw0.h4 + scale * counts - comps.h4,
    )


def apply_natural_gradient(
    current: GlobalVariational, grads: GlobalGrads, step: float
) -> GlobalVariational:
    """eta <- eta + step * grad with every family invariant revalidated.

    Raises StepRejected when the stepped parameters leave the valid
    domain; the caller may retry with a smaller step.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    try:
        pi = DirichletNat(current.pi.eta + step * grads.pi)
        c = current.components
        components = NiwNat(
            c.h1 + step * grads.h1,
            c.h2 + step * grads.h2,
            c.h3 + step * grads.h3,
            c.h4 + step * grads.h4,
        )
        # recovers nu and S, checks nu > d - 1, and factors S, which must
        # stay positive definite; the record keeps the factorization's log|S|
        components.scale_logdet()
        workers = current.workers
        if grads.worker_alpha is not None:
            if workers is None:
                raise ValueError("worker gradients supplied without worker posteriors")
            workers = BetaWorkers(
                BetaNat(workers.alpha_nat.eta + step * grads.worker_alpha),
                BetaNat(workers.beta_nat.eta + step * grads.worker_beta),
            )
    except (ValueError, np.linalg.LinAlgError) as err:
        raise StepRejected(f"step {step} left the valid domain: {err}") from err
    return GlobalVariational(pi, components, workers)


def effective_components(glob: GlobalVariational, threshold: float) -> int:
    """Number of components whose expected mixing weight exceeds threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    alpha = glob.pi.alpha
    return int(np.sum(alpha / alpha.sum() > threshold))
