"""Latent Gaussian-mixture globals.

Conjugate priors (Dirichlet over mixing weights, one shared NIW over
every component's mean and covariance), fixed by K and d; the workers'
Beta(1, 1) is `relational.WORKER_PRIOR`.
The variational posterior over the globals, one record per family; and
its natural-gradient steps: a minibatch gives a target record eta_hat
per family, the prior plus the scaled expected statistics, and a step of
size rho moves each record eta to (1 - rho) eta + rho eta_hat, at
rho = 1 the textbook conjugate posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expfam import (
    DirichletNat,
    NiwNat,
    dirichlet_expected_stats,
    niw_expected_stats,
)
from .nnet import TrainingDivergence, saved_value
from .relational import BetaWorkers


# ---------------------------------------------------------------------------
# prior and variational state


# Pseudo-count of the NIW prior's mean; the prior's mean is 0,
# S0 = (d + KAPPA0) I and nu0 = d + KAPPA0.
KAPPA0 = 0.5

# Total concentration of the symmetric Dirichlet prior on the K mixing
# weights: each weight's alpha0 is DIRICHLET_MASS / K.
DIRICHLET_MASS = 0.05

# Size of every natural-gradient step of the global records, the worker
# posteriors of both trainers among them.
GLOBAL_STEP = 0.05


class MixturePrior:
    """Conjugate prior for a K-component latent Gaussian mixture in R^d,
    fixed by (K, d).

    Dirichlet(alpha0, ..., alpha0), alpha0 = DIRICHLET_MASS / K, over the
    mixing weights and the same NIW(0, KAPPA0, (d + KAPPA0) I, d + KAPPA0)
    over each component's (mu, Sigma).  Each family's prior is one record,
    built once here: `pi_nat()` and `niw_nat()`; the workers' is
    `relational.WORKER_PRIOR`.
    `BayesConfig` checks K and d.
    """

    def __init__(self, n_components: int, latent_dim: int):
        K, d = n_components, latent_dim
        self.n_components, self.latent_dim = K, d
        self._pi_nat = DirichletNat.from_alpha(np.full(K, DIRICHLET_MASS / K))
        s0 = (d + KAPPA0) * np.eye(d)
        self._niw_nat = NiwNat.from_standard(np.zeros(d), KAPPA0, s0, d + KAPPA0)

    def pi_nat(self) -> DirichletNat:
        return self._pi_nat

    def niw_nat(self) -> NiwNat:
        return self._niw_nat


# JSON keys of one component's natural parameters, in NiwNat field order.
_NIW_KEYS = ("h1", "h2", "h3", "h4")
NO_WORKERS = BetaWorkers(np.zeros((0, 2, 2)))  # the Beta record of zero workers


@dataclass(frozen=True)
class GlobalVariational:
    """Variational posterior over the mixture globals and the per-worker
    accuracy pairs.  `components` is one NIW record of batch shape (K,),
    `workers` one Beta record of batch shape (M, 2), M >= 0.  Instances
    are immutable snapshots; updates construct a new one."""

    pi: DirichletNat
    components: NiwNat
    workers: BetaWorkers = NO_WORKERS

    def __post_init__(self):
        if not isinstance(self.components, NiwNat):
            raise TypeError("components must be one NiwNat of batch shape (K,)")
        if not isinstance(self.workers, BetaWorkers):
            raise TypeError("workers must be one BetaWorkers record of batch shape (M, 2)")
        if self.components.h3.shape != self.pi.eta.shape:
            raise ValueError("need one NIW component per mixing weight")

    @property
    def n_components(self) -> int:
        return self.pi.eta.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.components.dim

    def to_dict(self) -> dict:
        c = self.components
        rows = zip(c.h1.tolist(), c.h2.tolist(), c.h3.tolist(), c.h4.tolist())
        return {
            "pi_eta": self.pi.eta.tolist(),
            "components": [dict(zip(_NIW_KEYS, row)) for row in rows],
            "workers": self.workers.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GlobalVariational":
        """Globals from a `to_dict` document, the workers by
        `BetaWorkers.from_dict`.  Missing keys, mixing-weight parameters
        that are not numbers or lie out of the Dirichlet domain, and
        components whose S is not positive definite fail here with a
        ValueError that names the field."""
        pi_eta, rows = saved_value(doc, "pi_eta"), saved_value(doc, "components")
        try:
            pi = DirichletNat(np.array(pi_eta, dtype=float))
        except (ValueError, TypeError) as err:
            raise ValueError(f"pi_eta: {err}") from err
        try:
            comps = NiwNat(*(np.array([saved_value(c, key) for c in rows]) for key in _NIW_KEYS))
            comps.scale_factor()  # recovers nu and S and factors S
        except (ValueError, TypeError, np.linalg.LinAlgError) as err:
            raise ValueError(f"components: {err}") from err
        return cls(pi, comps, BetaWorkers.from_dict(doc.get("workers")))


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
    prior: MixturePrior, rng: np.random.Generator, n_workers: int = 0
) -> GlobalVariational:
    """Random variational starting point.

    Mixing-weight concentrations start uniform on (1, 2); component
    locations are zero-mean Gaussian draws with standard deviation
    sqrt(3), each with kappa = 1, S = (d + 1) I and nu = d + 1; the
    workers start at `BetaWorkers.init`.
    """
    K, d = prior.n_components, prior.latent_dim
    pi = DirichletNat.from_alpha(rng.uniform(1.0, 2.0, size=K))
    components = NiwNat.from_standard(
        math.sqrt(3.0) * rng.standard_normal((K, d)), 1.0, (d + 1.0) * np.eye(d), d + 1.0
    )
    return GlobalVariational(pi, components, BetaWorkers.init(n_workers))


# ---------------------------------------------------------------------------
# natural-gradient updates


def mixture_natural_gradient(
    prior: MixturePrior, q_z: np.ndarray, means: np.ndarray, covs: np.ndarray, scale: float = 1.0
) -> GlobalVariational:
    """Minibatch target of the Dirichlet and NIW records, with zero workers:
    the prior natural parameters plus scaled responsibility-weighted local
    moments, the conjugate posterior of the minibatch.

    q_z is (n, K) cluster probabilities, means (n, d), covs (n, d, d); scale
    is the minibatch factor N/|B|.  The natural gradient at a posterior
    eta is the target's eta minus eta.  Responsibilities lie in [0, 1],
    so the Dirichlet target is valid; a non-finite moment makes the NIW
    target fail, which raises TrainingDivergence.  In the Bayesian update
    the q(z) comes from the local step, whose last sweep factored every
    working-set precision, and the moments from `nnet.gaussian_refresh`,
    which factored the batch rows' precisions once more under that q(z);
    each factorization raises LinAlgError unless its precisions are
    positive definite.
    """
    K, d = prior.n_components, prior.latent_dim
    q_z = np.asarray(q_z, dtype=float).reshape(-1, K)
    means = np.asarray(means, dtype=float).reshape(-1, d)
    covs = np.asarray(covs, dtype=float)
    counts = q_z.sum(axis=0)
    first = q_z.T @ means
    moments = covs + means[:, :, None] * means[:, None, :]
    second = (q_z.T @ moments.reshape(-1, d * d)).reshape(K, d, d)
    niw0 = prior.niw_nat()
    try:
        components = NiwNat(
            niw0.h1 + scale * first,
            niw0.h2 + scale * second,
            niw0.h3 + scale * counts,
            niw0.h4 + scale * counts,
        )
    except ValueError as err:
        raise TrainingDivergence(f"minibatch statistics: {err}") from err
    return GlobalVariational(DirichletNat(prior.pi_nat().eta + scale * counts), components)


def apply_natural_gradient(
    current: GlobalVariational, target: GlobalVariational, step: float
) -> GlobalVariational:
    """Move each record eta of `current` to eta + step * (eta_hat - eta),
    eta_hat its record in `target`, with every family invariant revalidated.

    The targets of `mixture_natural_gradient` and
    `relational.beta_natural_gradient` are valid records, so a step of
    size rho in [0, 1] lands on the convex combination
    (1 - rho) eta + rho eta_hat, and every domain is convex: eta > -1 for
    the Dirichlet and Beta records; kappa > 0, nu > d - 1 and
    [[h2, h1], [h1^T, h3]] positive definite for the NIW records.  Such a
    step cannot leave the domain, so a stepped record that fails its
    family's check means the inputs were not finite or not valid: it
    raises TrainingDivergence with the family's message, and `driver.fit`
    restores the last finished epoch.  A step of 0 keeps every record's
    values.  A step outside [0, 1], or a worker target for another number
    of workers than the posteriors, is a ValueError.
    """
    if not 0.0 <= step <= 1.0:
        raise ValueError(f"step must lie in [0, 1], got {step}")
    m, m_hat = len(current.workers.eta), len(target.workers.eta)
    if m_hat != m:
        raise ValueError(f"worker target has {m_hat} rows, the worker posteriors {m}")

    def toward(eta, eta_hat):
        return eta + step * (eta_hat - eta)

    try:
        pi = DirichletNat(toward(current.pi.eta, target.pi.eta))
        c, t = current.components, target.components
        components = NiwNat(*(toward(getattr(c, key), getattr(t, key)) for key in _NIW_KEYS))
        # recovers nu and S, checks nu > d - 1, and factors S, which must
        # stay positive definite; the record keeps the factorization
        components.scale_factor()
        workers = BetaWorkers(toward(current.workers.eta, target.workers.eta))
    except (ValueError, np.linalg.LinAlgError) as err:
        raise TrainingDivergence(f"step {step} left the valid domain: {err}") from err
    return GlobalVariational(pi, components, workers)


def effective_components(glob: GlobalVariational, threshold: float) -> int:
    """Number of components whose expected mixing weight exceeds threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    alpha = glob.pi.alpha
    return int(np.sum(alpha / alpha.sum() > threshold))
