"""Exponential-family primitives.

Every family is represented by its natural parameters and follows the
convention

    p(x) = exp{ <eta, t(x)> - log Z(eta) } h(x),

so that grad_eta log Z(eta) = E[t(x)].  The families used by the model,
the Beta being the two-state Dirichlet with alpha = (tau1, tau2):

    Dirichlet    eta = alpha - 1,            t(pi) = log pi
    NIW          eta = (kappa m,
                        S + kappa m m^T,
                        kappa,
                        nu + d + 2),         t(mu, Sigma) = (Sigma^-1 mu,
                                                             -1/2 Sigma^-1,
                                                             -1/2 mu^T Sigma^-1 mu,
                                                             -1/2 log|Sigma|)
    Beta         eta = (tau1 - 1, tau2 - 1), t(a) = (log a, log(1 - a))

A record holds a whole batch of distributions of one family: leading
axes index the batch and trailing axes the parameter, so a Dirichlet's
eta is (..., K), a NIW's h1 (..., d), h2 (..., d, d), h3 and h4 (...),
and a Beta's (..., 2): a Beta record is a `DirichletNat`.  Every
expectation, log partition and domain check below works over the batch
at once; an unbatched record has batch shape ().

Log partitions drop additive constants that do not depend on eta; the
gradient identity above holds exactly for the expressions used here,
and `kl_divergence` of two records of one family needs no constant.

Records are immutable: their arrays are read-only and an update builds
a new record.  So everything derived from a record is computed once per
record and kept on it: the standard parameters of a NIW, one
`nnet.spd_factor` result for its S, the expected statistics and the log
partition.  That one factorization is the positive-definiteness check
of S and gives log|S| and the S^-1 and S^-1 m of the expected
statistics; nothing else here factors a matrix.  Later calls return the
kept values, which are read-only too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import digamma, gammaln

from .nnet import spd_factor


def _readonly(x, shape=None) -> np.ndarray:
    a = np.array(x, dtype=float)
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("natural parameters must be finite")
    a.setflags(write=False)
    return a


def _once_per_record(compute):
    """Run `compute(record)` once per record and keep the result on it.

    Records are frozen, so the result stays valid for the record's life.
    Array results are made read-only, so no caller can change what the
    next one gets.  A call that raises keeps nothing and raises again.
    """
    key = "_" + compute.__name__

    @functools.wraps(compute)
    def once(record):
        kept = record.__dict__
        if key not in kept:
            value = compute(record)
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            kept[key] = value
        return kept[key]

    return once


def _half_offsets(d: int) -> np.ndarray:
    return (1.0 - np.arange(1, d + 1)) / 2.0


def multivariate_digamma(a, d: int) -> np.ndarray:
    """psi_d(a) = sum_{i=1..d} psi(a + (1 - i)/2), elementwise over a."""
    return np.sum(digamma(np.asarray(a, dtype=float)[..., None] + _half_offsets(d)), axis=-1)


def multivariate_gammaln(a, d: int) -> np.ndarray:
    """log Gamma_d(a) = d(d-1)/4 log pi + sum_{i=1..d} log Gamma(a + (1 - i)/2),
    elementwise over a."""
    return d * (d - 1) / 4.0 * np.log(np.pi) + np.sum(
        gammaln(np.asarray(a, dtype=float)[..., None] + _half_offsets(d)), axis=-1
    )


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class DirichletNat:
    """Dirichlets over a K-simplex, eta (..., K) = alpha - 1 with alpha > 0."""

    eta: np.ndarray

    def __post_init__(self):
        eta = _readonly(self.eta)
        if eta.ndim < 1 or eta.shape[-1] < 2:
            raise ValueError("Dirichlet needs an eta with K >= 2 on its last axis")
        if np.any(eta <= -1.0):
            raise ValueError("Dirichlet eta must satisfy eta_k > -1")
        object.__setattr__(self, "eta", eta)

    @classmethod
    def from_alpha(cls, alpha) -> "DirichletNat":
        return cls(np.asarray(alpha, dtype=float) - 1.0)

    @property
    def alpha(self) -> np.ndarray:
        return self.eta + 1.0


@dataclass(frozen=True)
class NiwNat:
    """Normal-inverse-Wishart over (mu, Sigma) in natural form.

    h1 = kappa m, h2 = S + kappa m m^T, h3 = kappa, h4 = nu + d + 2, with
    shapes (..., d), (..., d, d), (...) and (...).  Requires h3 > 0; the
    recovered S must be symmetric positive definite and the recovered nu
    must satisfy nu > d - 1 (checked where used).
    """

    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    h4: np.ndarray

    def __post_init__(self):
        h1 = _readonly(self.h1)
        if h1.ndim < 1:
            raise ValueError("h1 must have a trailing vector axis")
        batch, d = h1.shape[:-1], h1.shape[-1]
        h2 = _readonly(self.h2, shape=batch + (d, d))
        h3 = _readonly(self.h3, shape=batch)
        h4 = _readonly(self.h4, shape=batch)
        if np.any(h3 <= 0.0):
            raise ValueError("h3 (= kappa) must be positive")
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "h3", h3)
        object.__setattr__(self, "h4", h4)

    @property
    def dim(self) -> int:
        return self.h1.shape[-1]

    @classmethod
    def from_standard(cls, m, kappa, S, nu) -> "NiwNat":
        """Batch shape is m's leading shape; kappa, S and nu broadcast to it."""
        m = np.asarray(m, dtype=float)
        S = np.asarray(S, dtype=float)
        batch, d = m.shape[:-1], m.shape[-1]
        kappa = np.broadcast_to(np.asarray(kappa, dtype=float), batch)
        nu = np.broadcast_to(np.asarray(nu, dtype=float), batch)
        outer = m[..., :, None] * m[..., None, :]
        return cls(kappa[..., None] * m, S + kappa[..., None, None] * outer, kappa, nu + d + 2.0)

    @_once_per_record
    def to_standard(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (m, kappa, S, nu); S is symmetrized against numeric drift."""
        d = self.dim
        kappa = self.h3
        m = self.h1 / kappa[..., None]
        S = self.h2 - self.h1[..., :, None] * self.h1[..., None, :] / kappa[..., None, None]
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        nu = self.h4 - d - 2.0
        if np.any(nu <= d - 1.0):
            raise ValueError(f"recovered nu = {nu} must exceed d - 1 = {d - 1}")
        return m, kappa, S, nu

    @_once_per_record
    def scale_factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`spd_factor` of every recovered S: (S^-1, log|S|, chol(S^-1)).
        Raises LinAlgError unless every S is positive definite."""
        return spd_factor(self.to_standard()[2])


class NiwExpectedStats(NamedTuple):
    """E[t(mu, Sigma)] blocks under NIWs with standard parameters (m, kappa, S, nu)."""

    mean_prec: np.ndarray        # (..., d)    E[Sigma^-1 mu]   = nu S^-1 m
    neg_half_prec: np.ndarray    # (..., d, d) E[-1/2 Sigma^-1] = -1/2 nu S^-1
    neg_half_mahal: np.ndarray   # (...)  E[-1/2 mu^T Sigma^-1 mu] = -1/2 (d/kappa + nu m^T S^-1 m)
    neg_half_logdet: np.ndarray  # (...)  E[-1/2 log|Sigma|] = 1/2 (psi_d(nu/2) + d log 2 - log|S|)


# ---------------------------------------------------------------------------
# expected sufficient statistics


@_once_per_record
def dirichlet_expected_stats(p: DirichletNat) -> np.ndarray:
    """E[log pi_k] = psi(alpha_k) - psi(sum_j alpha_j); for a Beta,
    (E[log a], E[log(1 - a)]) = (psi(tau1) - psi(tau1 + tau2), psi(tau2) - psi(tau1 + tau2))."""
    alpha = p.alpha
    return digamma(alpha) - digamma(alpha.sum(axis=-1, keepdims=True))


@_once_per_record
def niw_expected_stats(p: NiwNat) -> NiwExpectedStats:
    m, kappa, _, nu = p.to_standard()
    d = p.dim
    Sinv, logdet_S, _ = p.scale_factor()
    Sinv_m = (Sinv @ m[..., None])[..., 0]
    m_Sinv_m = (m[..., None, :] @ Sinv_m[..., :, None])[..., 0, 0]
    return NiwExpectedStats(
        mean_prec=nu[..., None] * Sinv_m,
        neg_half_prec=-0.5 * nu[..., None, None] * Sinv,
        neg_half_mahal=-0.5 * (d / kappa + nu * m_Sinv_m),
        neg_half_logdet=0.5 * (multivariate_digamma(nu / 2.0, d) + d * np.log(2.0) - logdet_S),
    )


# ---------------------------------------------------------------------------
# log partitions


def log_partition(p) -> np.ndarray:
    """log Z(eta) per batch member, up to constants independent of eta."""
    if isinstance(p, DirichletNat):
        return _dirichlet_log_partition(p)
    if isinstance(p, NiwNat):
        return _niw_log_partition(p)
    raise TypeError(f"unsupported family: {type(p).__name__}")


@_once_per_record
def _dirichlet_log_partition(p: DirichletNat) -> np.ndarray:
    alpha = p.alpha
    return np.sum(gammaln(alpha), axis=-1) - gammaln(alpha.sum(axis=-1))


@_once_per_record
def _niw_log_partition(p: NiwNat) -> np.ndarray:
    _, kappa, _, nu = p.to_standard()
    d = p.dim
    return (
        nu / 2.0 * (d * np.log(2.0) - p.scale_factor()[1])
        + multivariate_gammaln(nu / 2.0, d)
        - d / 2.0 * np.log(kappa)
    )


# ---------------------------------------------------------------------------
# divergences


def kl_divergence(q, p0) -> float:
    """KL(q || p0) summed over q's batch, across which the record p0 of
    the same family broadcasts: <eta_q - eta_p0, E_q t> - (log Z(eta_q) -
    log Z(eta_p0)).  A record of an empty batch gives 0."""
    if isinstance(q, DirichletNat):
        brackets = [(q.eta - p0.eta, dirichlet_expected_stats(q))]
    elif isinstance(q, NiwNat):
        stats = niw_expected_stats(q)
        brackets = [
            (q.h1 - p0.h1, stats.mean_prec),
            (q.h2 - p0.h2, stats.neg_half_prec),
            (q.h3 - p0.h3, stats.neg_half_mahal),
            (q.h4 - p0.h4, stats.neg_half_logdet),
        ]
    else:
        raise TypeError(f"unsupported family: {type(q).__name__}")
    inner = sum(np.sum(diff * expected) for diff, expected in brackets)
    return float(inner - np.sum(log_partition(q) - log_partition(p0)))
