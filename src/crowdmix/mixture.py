"""Latent Gaussian-mixture globals.

Conjugate priors (Dirichlet over mixing weights, one shared NIW over
every component's mean and covariance, Beta(1, 1) on every worker
accuracy), the variational posterior over the globals, and the
natural-gradient coordinate updates whose step-1 fixed point is the
textbook conjugate posterior.
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
from .nnet import TrainingDivergence
from .relational import BetaWorkers


# ---------------------------------------------------------------------------
# prior and variational state


@dataclass(frozen=True)
class MixturePrior:
    """Conjugate prior for a K-component latent Gaussian mixture in R^d and
    its workers.

    Dirichlet(alpha0, ..., alpha0) over the mixing weights, the same
    NIW(m0, kappa0, s0, nu0) over each component's (mu, Sigma) and
    Beta(1, 1) on each worker's two accuracies.  Each family's prior is
    one record, built here: `pi_nat()`, `niw_nat()` and `worker_nat()`,
    a BetaNat of batch shape (2,) that broadcasts over the workers.  The
    worker prior is fixed, so it is no field and `to_dict` leaves it out.
    An s0 that is not positive definite raises a LinAlgError, which is a
    ValueError, naming s0.
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
        object.__setattr__(self, "_worker_nat", BetaNat.from_tau(np.ones(2), np.ones(2)))
        try:
            self._niw_nat.scale_logdet()  # factors S
        except np.linalg.LinAlgError as err:  # a ValueError
            raise np.linalg.LinAlgError(f"s0 must be positive definite: {err}") from err

    @classmethod
    def default(
        cls,
        n_components: int,
        latent_dim: int,
        alpha0: float | None = None,
    ) -> "MixturePrior":
        """Weak sparsity-inducing prior: alpha0 = 0.05/K unless given,
        m0 = 0, kappa0 = 0.5, s0 = (d + kappa0) I and nu0 = d + kappa0."""
        d, kappa0 = latent_dim, 0.5
        return cls(
            n_components=n_components,
            latent_dim=d,
            alpha0=(0.05 / n_components) if alpha0 is None else alpha0,
            m0=np.zeros(d),
            kappa0=kappa0,
            s0=(d + kappa0) * np.eye(d),
            nu0=d + kappa0,
        )

    def pi_nat(self) -> DirichletNat:
        return self._pi_nat

    def niw_nat(self) -> NiwNat:
        return self._niw_nat

    def worker_nat(self) -> BetaNat:
        return self._worker_nat

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
_WORKER_KEYS = ("alpha_taus", "beta_taus")  # the workers' (M, 2) Beta parameters


@dataclass(frozen=True)
class GlobalVariational:
    """Variational posterior over the mixture globals and, when present,
    the per-worker accuracy pairs.  `components` is one NIW record of
    batch shape (K,), `workers` one Beta record of batch shape (M, 2).
    Instances are immutable snapshots; updates construct a new one."""

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
        if self.workers is not None:  # the (M, 2, 2) taus as (M, 2) alpha and beta arrays
            doc["workers"] = dict(zip(_WORKER_KEYS, self.workers.tau.swapaxes(0, 1).tolist()))
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "GlobalVariational":
        """Globals from a `to_dict` document.  Mixing-weight parameters out
        of the Dirichlet domain, components whose S is not positive
        definite, and worker tau arrays that are not (M, 2) or not
        positive fail here with a ValueError that names the field."""
        try:
            pi = DirichletNat(np.array(doc["pi_eta"], dtype=float))
        except ValueError as err:
            raise ValueError(f"pi_eta: {err}") from err
        try:
            comps = NiwNat(*(np.array([c[key] for c in doc["components"]]) for key in _NIW_KEYS))
            comps.scale_logdet()  # recovers nu and S and factors S
        except (ValueError, np.linalg.LinAlgError) as err:
            raise ValueError(f"components: {err}") from err
        workers = None
        if doc.get("workers") is not None:
            taus = [np.array(doc["workers"][key], dtype=float) for key in _WORKER_KEYS]
            for key, t in zip(_WORKER_KEYS, taus):
                if t.size and (t.ndim != 2 or t.shape[1] != 2):
                    raise ValueError(f"workers.{key} has shape {t.shape}, need (M, 2)")
                if len(t) != len(taus[0]):
                    raise ValueError(f"workers.{key} has {len(t)} rows, alpha_taus {len(taus[0])}")
                # the Beta domain, eta = tau - 1 > -1, checked per key before stacking
                if not np.all(np.isfinite(t) & (t - 1.0 > -1.0)):
                    raise ValueError(f"workers.{key} entries must be finite and positive")
            workers = BetaWorkers.from_taus(*taus)
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
    worker_init: tuple[float, float] = (10.0, 1.0),
) -> GlobalVariational:
    """Random variational starting point.

    Mixing-weight concentrations start uniform on (1, 2); component
    locations are zero-mean Gaussian draws with standard deviation
    sqrt(3), each with kappa = 1, S = (d + 1) I and nu = d + 1;
    both posteriors of every worker start at Beta(*worker_init).
    """
    K, d = prior.n_components, prior.latent_dim
    pi = DirichletNat.from_alpha(rng.uniform(1.0, 2.0, size=K))
    components = NiwNat.from_standard(
        math.sqrt(3.0) * rng.standard_normal((K, d)), 1.0, (d + 1.0) * np.eye(d), d + 1.0
    )
    worker_eta = np.tile(np.subtract(worker_init, 1.0), (n_workers, 2, 1))
    workers = BetaWorkers(worker_eta) if n_workers else None
    return GlobalVariational(pi, components, workers)


# ---------------------------------------------------------------------------
# natural-gradient updates


@dataclass(frozen=True)
class GlobalGrads:
    """Natural-gradient direction for the global variational parameters.

    The worker block is optional; when absent the worker posteriors pass
    through apply_natural_gradient unchanged.
    """

    pi: np.ndarray               # (K,)
    h1: np.ndarray               # (K, d)
    h2: np.ndarray               # (K, d, d)
    h3: np.ndarray               # (K,)
    h4: np.ndarray               # (K,)
    workers: np.ndarray | None = None  # (M, 2, 2)


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
    q_z is (n, K) responsibilities, means (n, d), covs (n, d, d); scale
    is the minibatch factor N/|B|.
    """
    K, d = current.n_components, current.latent_dim
    q_z = np.asarray(q_z, dtype=float).reshape(-1, K)
    means = np.asarray(means, dtype=float).reshape(-1, d)
    covs = np.asarray(covs, dtype=float)
    counts = q_z.sum(axis=0)
    first = q_z.T @ means
    moments = covs + means[:, :, None] * means[:, None, :]
    second = (q_z.T @ moments.reshape(-1, d * d)).reshape(K, d, d)
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

    The gradients of `mixture_natural_gradient` and
    `relational.beta_natural_gradient` are eta_hat - eta, where eta_hat,
    the prior plus scaled expected statistics, is itself a valid record.
    A step of size rho in (0, 1] then moves to (1 - rho) eta + rho eta_hat,
    a convex combination, and every domain is convex: eta > -1 for the
    Dirichlet and Beta records; kappa > 0, nu > d - 1 and
    [[h2, h1], [h1^T, h3]] positive definite for the NIW records.  Such a
    step cannot leave the domain, so a stepped record that fails its
    family's check means the inputs were not finite or not valid: it
    raises TrainingDivergence with the family's message, and `driver.fit`
    restores the last finished epoch.  A step outside (0, 1], or worker
    gradients without worker posteriors, is a ValueError.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    if grads.workers is not None and current.workers is None:
        raise ValueError("worker gradients supplied without worker posteriors")
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
        # stay positive definite; the record keeps the factorization
        components.scale_logdet()
        workers = current.workers
        if grads.workers is not None:
            workers = BetaWorkers(workers.eta + step * grads.workers)
    except (ValueError, np.linalg.LinAlgError) as err:
        raise TrainingDivergence(f"step {step} left the valid domain: {err}") from err
    return GlobalVariational(pi, components, workers)


def effective_components(glob: GlobalVariational, threshold: float) -> int:
    """Number of components whose expected mixing weight exceeds threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    alpha = glob.pi.alpha
    return int(np.sum(alpha / alpha.sum() > threshold))
