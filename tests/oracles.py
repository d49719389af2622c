"""Quadrature and enumeration oracles shared by the test modules.

Everything here recomputes expectations by numerical integration over
the variational densities (scipy.stats pdfs + scipy.integrate.quad) or
by explicit enumeration, never through the digamma/log-partition
bracket identities the library itself uses, so agreement is a genuine
two-route check.  Scalar (d=1, K=2) cases only.  `select_triples` is the
plain row selection that the annotation samplers are checked against;
`annotation_log_likelihood` is the two-coin likelihood of one label, and
`grad_log_partition_check` checks grad log Z = E[t] by central
differences.  `surrogate_elbo`, the decoder-free bound the local and
global coordinate updates must not decrease, is built from the library's
own terms, with `potential_bracket` as its data term.  `neighbor_lists`
and `color_classes` read an annotation graph's per-item edges and color
classes back out of its block order.  `local_posteriors` completes the
local step's q(z) with the q(x) of one refresh of it.  `log`, `relu` and
`matmul` are tape nodes the package fuses into `nnet.affine`; `exp`,
`logsumexp` and `log_softmax` make `exp(log_softmax(logits))`, the
composition that `scdc._softmax` fuses;
`reparameterize` and `composed_gaussian_loglik` the compositions that
`nnet.diag_gaussian_draw` and `nnet.diag_gaussian_loglik` fuse,
`composed_elbo_local` `scdc.elbo_local` built from them, `reshape` and
the tape's primitives, and `composed_rel_loglik` the 8-node tape form of
the relational op `relational.expected_rel_loglik`, kept as their
references; `worker_counts` reads that op's confusion counts.
"""

import math

import numpy as np
from scipy import integrate, stats

from crowdmix.expfam import (
    DirichletNat,
    NiwNat,
    dirichlet_expected_stats,
    log_partition,
    niw_expected_stats,
)
from crowdmix.mixture import global_expectations
from crowdmix.nnet import (
    Tensor,
    _record,
    add,
    as_tensor,
    constant,
    mul,
    sub,
    take_rows,
    tensor_sum,
)
from crowdmix.relational import AnnotationStore, expected_rel_loglik, two_coin_terms
from crowdmix.vmp import (
    LOCAL_SWEEPS,
    LocalVariational,
    annotation_graph,
    block_coordinate_local,
    final_objective,
    global_kl,
    update_local_x,
)


def select_triples(store: AnnotationStore, rows) -> AnnotationStore:
    """The store of the given rows of `store.triples`, on the same items and workers."""
    return AnnotationStore(
        store.triples[np.asarray(rows, dtype=int)], store.n_items, store.n_workers
    )


def annotation_log_likelihood(label: int, same_cluster: bool, alpha_m: float, beta_m: float) -> float:
    """log p(L = label | pair relation, worker accuracies), point form."""
    if label not in (0, 1):
        raise ValueError("label must be 0 or 1")
    for v in (alpha_m, beta_m):
        if not 0.0 < v < 1.0:
            raise ValueError("accuracies must lie strictly inside (0, 1)")
    if same_cluster:
        return float(np.log(alpha_m) if label == 1 else np.log1p(-alpha_m))
    return float(np.log1p(-beta_m) if label == 1 else np.log(beta_m))


def quad(f, lo, hi):
    value, _ = integrate.quad(f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=500)
    return value


def beta_expected_logs(tau1, tau2):
    """(E log x, E log(1-x)) under Beta(tau1, tau2), by integration."""
    pdf = stats.beta(tau1, tau2).pdf
    e_log = quad(lambda x: pdf(x) * math.log(x), 0.0, 0.5) + quad(
        lambda x: pdf(x) * math.log(x), 0.5, 1.0
    )
    e_log1m = quad(lambda x: pdf(x) * math.log1p(-x), 0.0, 0.5) + quad(
        lambda x: pdf(x) * math.log1p(-x), 0.5, 1.0
    )
    return e_log, e_log1m


def dirichlet2_expected_logs(a1, a2):
    """(E log pi_1, E log pi_2) under Dirichlet(a1, a2) via its Beta marginal."""
    e1, e2 = beta_expected_logs(a1, a2)
    return e1, e2


def beta_kl(tau_q, tau_p):
    """KL(Beta(tau_q) || Beta(tau_p)) by density integration."""
    q = stats.beta(*tau_q)
    p = stats.beta(*tau_p)

    def f(x):
        return q.pdf(x) * (q.logpdf(x) - p.logpdf(x))

    return quad(f, 0.0, 0.5) + quad(f, 0.5, 1.0)


def dirichlet2_kl(alpha_q, alpha_p):
    """KL between two 2-component Dirichlets (= their Beta marginals)."""
    return beta_kl(tuple(alpha_q), tuple(alpha_p))


def _inv_gamma(nu, s):
    """q(sigma^2) marginal of a scalar NIW(m, kappa, S, nu)."""
    return stats.invgamma(nu / 2.0, scale=s / 2.0)


def niw1_kl(q_params, p_params):
    """KL between scalar NIW posteriors, inner mean integral analytic.

    Parameters are (m, kappa, S, nu) tuples.  The sigma^2 integral runs
    over the inverse-gamma marginal; for each sigma^2 the Gaussian mean
    part E_mu[log q(mu) - log p(mu)] is available in closed form.
    """
    mq, kq, sq, nq = q_params
    mp_, kp, sp, np_ = p_params
    ig_q = _inv_gamma(nq, sq)
    ig_p = _inv_gamma(np_, sp)

    def f(v):
        mean_part = 0.5 * math.log(kq / kp) - 0.5 + (kp / (2.0 * v)) * (
            v / kq + (mq - mp_) ** 2
        )
        return (mean_part + ig_q.logpdf(v) - ig_p.logpdf(v)) * ig_q.pdf(v)

    return quad(f, 0.0, np.inf)


def expected_gauss_kl(mu_i, var_i, m, kappa, s, nu):
    """E_{NIW} KL(N(mu_i, var_i) || N(mu, sigma^2)), mean part analytic."""
    ig = _inv_gamma(nu, s)

    def f(v):
        expected_sq = (mu_i - m) ** 2 + v / kappa
        return (
            0.5 * (math.log(v) - math.log(var_i) + (var_i + expected_sq) / v - 1.0)
        ) * ig.pdf(v)

    return quad(f, 0.0, np.inf)


def local_kl_oracle(alphas, components, resp, x_means, x_vars):
    """Expected local KL for K=2, d=1: Dirichlet/NIW expectations by quadrature.

    `components` holds (m, kappa, S, nu) per component; resp is (n, 2),
    x_means / x_vars the local Gaussian moments.
    """
    e_log_pi = dirichlet2_expected_logs(*alphas)
    total = 0.0
    for r, mu, var in zip(np.asarray(resp, float), x_means, x_vars):
        for k in range(2):
            if r[k] > 0.0:
                total += r[k] * (math.log(r[k]) - e_log_pi[k])
            total += r[k] * expected_gauss_kl(mu, var, *components[k])
    return total


def rel_term_oracle(triples, resp, worker_taus):
    """E_q log p(L | Z, workers) by pairwise enumeration + Beta integrals.

    worker_taus[m] = ((tau_a1, tau_a2), (tau_b1, tau_b2)).
    """
    resp = np.asarray(resp, dtype=float)
    total = 0.0
    for i, j, m, label in triples:
        tau_a, tau_b = worker_taus[m]
        ea_log, ea_log1m = beta_expected_logs(*tau_a)
        eb_log, eb_log1m = beta_expected_logs(*tau_b)
        e_same = ea_log if label == 1 else ea_log1m
        e_diff = eb_log1m if label == 1 else eb_log
        p_same = float(resp[i] @ resp[j])
        total += p_same * e_same + (1.0 - p_same) * e_diff
    return total


def potential_term_oracle(h, j_diag, x_means, x_vars):
    """sum_i E_{q(x_i)}[h_i x + j_i x^2] by 1-D quadrature (d=1)."""
    total = 0.0
    for hi, ji, mu, var in zip(
        np.ravel(h), np.ravel(j_diag), np.ravel(x_means), np.ravel(x_vars)
    ):
        pdf = stats.norm(mu, math.sqrt(var)).pdf
        total += quad(lambda x: pdf(x) * (hi * x + ji * x * x), -np.inf, np.inf)
    return total


def final_objective_oracle(
    alphas,
    components,
    prior_alphas,
    prior_component,
    resp,
    x_means,
    x_vars,
    potential_h,
    potential_j,
    triples=(),
    worker_taus=(),
    worker_prior_tau=(1.0, 1.0),
):
    """Full J for the decoder-free scalar model, every expectation by
    quadrature or enumeration."""
    data = potential_term_oracle(potential_h, potential_j, x_means, x_vars)
    rel = rel_term_oracle(triples, resp, worker_taus)
    local = local_kl_oracle(alphas, components, resp, x_means, x_vars)
    glob = dirichlet2_kl(alphas, prior_alphas)
    for comp in components:
        glob += niw1_kl(comp, prior_component)
    for tau_a, tau_b in worker_taus:
        glob += beta_kl(tau_a, worker_prior_tau)
        glob += beta_kl(tau_b, worker_prior_tau)
    return data + rel - local - glob


# ---------------------------------------------------------------------------
# tape compositions that the package fuses into one node


def log(a: Tensor) -> Tensor:
    return _record(np.log(a.data), (a,), lambda g: (g / a.data,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record(out, (a,), lambda g: (g * out,))


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    m = np.max(a.data, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a.data - m), axis=axis, keepdims=True))
    soft = np.exp(a.data - out)
    squeezed = out if keepdims else np.squeeze(out, axis=axis)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return (gg * soft,)

    return _record(squeezed, (a,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _record(a.data * mask, (a,), lambda g: (g * mask,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            g @ b.data.T if a.requires else None,
            a.data.T @ g if b.requires else None,
        )

    return _record(a.data @ b.data, (a, b), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def reparameterize(mean: Tensor, std: Tensor, noise) -> Tensor:
    """x = mean + std * noise with std constrained positive."""
    mean = as_tensor(mean)
    std = as_tensor(std)
    if np.any(std.data <= 0.0):
        raise ValueError("std must be positive")
    return add(mean, mul(std, as_tensor(noise)))


def composed_gaussian_loglik(x, mean: Tensor, logvar: Tensor) -> Tensor:
    """`nnet.diag_gaussian_loglik` as the 9 tape nodes it fuses."""
    x = as_tensor(x)
    centered = sub(x, mean)
    quad = mul(mul(centered, centered), exp(-logvar))
    per_dim = add(add(quad, logvar), constant(np.log(2.0 * np.pi)))
    return mul(tensor_sum(per_dim, axis=-1), constant(-0.5))


def composed_elbo_local(observations, logits: Tensor, model, noise, scale, kl_weight) -> Tensor:
    """`scdc.elbo_local` with its draw, its decoder log-likelihood and its
    bound as the tape compositions they fuse: 41 nodes besides the two
    networks' layers."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    n, _ = obs.shape
    point = model.point
    k_comp, d = point.n_components, point.latent_dim
    noise = np.asarray(noise, dtype=float)
    log_q_z = log_softmax(logits, axis=-1)
    q_z = exp(log_q_z)
    stacked_obs = np.repeat(obs, k_comp, axis=0)
    indicator = np.tile(np.eye(k_comp), (n, 1))
    x_heads = model.encoder_x.forward(np.concatenate([indicator, stacked_obs], axis=1))
    mean, logvar = x_heads["mean"], x_heads["logvar"]
    lv = point.log_vars
    mean_view = reshape(mean, (n, k_comp, d))
    logvar_view = reshape(logvar, (n, k_comp, d))
    centered = mean_view - point.means
    kl_terms = (
        lv - logvar_view + (exp(logvar_view) + centered * centered) * exp(-lv) - 1.0
    )
    kl = tensor_sum(kl_terms, axis=-1) * 0.5
    eps = noise.transpose(1, 0, 2).reshape(n * k_comp, d)
    dec = model.decoder.forward(reparameterize(mean, exp(logvar * 0.5), eps))
    recon = reshape(composed_gaussian_loglik(stacked_obs, dec["mean"], dec["logvar"]), (n, k_comp))
    rows = recon - kl * kl_weight
    log_pi = reshape(log_softmax(point.pi_logits, axis=-1), (1, k_comp))
    total = tensor_sum(mul(q_z, log_pi - log_q_z + rows))
    return total * scale


def composed_rel_loglik(store: AnnotationStore, q_z, log_stats, scale=1.0) -> Tensor:
    """`expected_rel_loglik`'s term as the 8 tape nodes it fuses: per
    triple w p_same + c, w from `two_coin_terms` and c = <ls_m, B> =
    E log p(L | different), p_same from two `take_rows` of q_z."""
    q_z = as_tensor(q_z)
    t = store.triples
    weight = two_coin_terms(store, log_stats)
    const = np.where(t[:, 3] == 1, log_stats[t[:, 2], 3], log_stats[t[:, 2], 2])
    p_same = tensor_sum(mul(take_rows(q_z, t[:, 0]), take_rows(q_z, t[:, 1])), axis=-1)
    return tensor_sum(mul(constant(weight), p_same) + const) * scale


def worker_counts(store: AnnotationStore, q_z) -> np.ndarray:
    """The (M, 4) confusion counts of `expected_rel_loglik`, which do not
    read the worker rows."""
    return expected_rel_loglik(store, q_z, np.zeros((store.n_workers, 4)))[1]


# ---------------------------------------------------------------------------
# decoder-free surrogate bound, through the library's own terms


def potential_bracket(h, j_diag, local) -> float:
    """<psi, E t(x)> summed over the items: the data term with the
    recognition potentials (h, j_diag) standing in for the decoder."""
    mean = local.x_mean
    second_diag = np.diagonal(local.x_cov, axis1=1, axis2=2) + mean**2
    return float(np.sum(h * mean) + np.sum(j_diag * second_diag))


def surrogate_elbo(glob, prior, local, h, j_diag, store) -> float:
    """Full-batch bound with <psi, E t(x)> standing in for the decoder.

    Every block-coordinate local update and every step-1 global update
    is an exact coordinate maximization of this quantity, so it must not
    decrease along the inner loop.  It is the trainer's estimate on the
    full batch, less the globals' KL.
    """
    rel = expected_rel_loglik(store, local.resp, glob.workers.log_stats())[0]
    estimate = final_objective(
        local, global_expectations(glob), potential_bracket(h, j_diag, local), float(rel.data)
    )
    return estimate - global_kl(glob, prior)


def with_local_x(glob, h, j_diag, store, log_resp) -> LocalVariational:
    """The (n, K) item-order log q(z) of a working set of (n, d) evidence
    (h, j_diag), with the q(x) of one `update_local_x` refresh of it:
    entry-major, in the working set's annotation-graph block order, and
    gathered back to item order."""
    exps = global_expectations(glob)
    graph = annotation_graph(store, glob.workers, h.shape[0])
    order, back = graph.order, graph.position
    resp = np.exp(np.ascontiguousarray(log_resp.T[:, order]))
    x_h, x_prec, x_mean, x_cov, x_logdet = update_local_x(
        resp, exps, h.T[:, order], j_diag.T[:, order]
    )
    return LocalVariational(
        log_resp, x_h.T[back], -0.5 * x_prec.transpose(2, 0, 1)[back], x_mean.T[back],
        x_cov.transpose(2, 0, 1)[back], x_logdet[back],
    )


def local_posteriors(glob, h, j_diag, store=None, sweeps=LOCAL_SWEEPS) -> LocalVariational:
    """`block_coordinate_local`'s q(z) and the q(x) of one refresh of it:
    the local step's result as it was while that step ended on a q(x)
    refresh, bit for bit."""
    log_resp = block_coordinate_local(glob, h, j_diag, store, sweeps)
    return with_local_x(glob, h, j_diag, store, log_resp)


# ---------------------------------------------------------------------------
# gradient identity check: central differences of log Z against E[t]


def _flatten_family(p):
    """Coordinate vector, log partition on coordinates, and E[t] vector of an unbatched record."""
    if isinstance(p, DirichletNat):
        return p.eta.copy(), lambda v: log_partition(type(p)(v)), dirichlet_expected_stats(p)
    if isinstance(p, NiwNat):
        d = p.dim
        vec = np.concatenate([p.h1, p.h2.ravel(), [p.h3, p.h4]])
        fn = lambda v: log_partition(NiwNat(v[:d], v[d:d + d * d].reshape(d, d), v[-2], v[-1]))
        e = niw_expected_stats(p)
        expected = np.concatenate(
            [e.mean_prec, e.neg_half_prec.ravel(), [e.neg_half_mahal, e.neg_half_logdet]]
        )
        return vec, fn, expected
    raise TypeError(f"unsupported family: {type(p).__name__}")


def grad_log_partition_check(p, epsilon: float = 1e-5) -> float:
    """Max abs deviation between central-difference grad log Z and E[t(x)].

    Raises ValueError if a +/- epsilon step leaves the family's valid
    natural-parameter domain.
    """
    vec, fn, expected = _flatten_family(p)
    grad = np.empty_like(vec)
    for i in range(vec.shape[0]):
        hi = vec.copy()
        lo = vec.copy()
        hi[i] += epsilon
        lo[i] -= epsilon
        try:
            grad[i] = (fn(hi) - fn(lo)) / (2.0 * epsilon)
        except (ValueError, np.linalg.LinAlgError) as err:
            raise ValueError(
                f"epsilon={epsilon} leaves the valid domain at coordinate {i}"
            ) from err
    return float(np.max(np.abs(grad - expected)))


def neighbor_lists(graph) -> list:
    """Per-item (other item, weight) lists of an AnnotationGraph, each
    item's edges in edge order, rebuilt from its blocks and block order."""
    lists = [[] for _ in range(graph.linked.size)]
    for lo, _, starts, other, weight in graph.blocks:
        ends = np.append(starts, other.size).tolist()
        edges = list(zip(graph.order[other].tolist(), weight.tolist()))
        for p, a, b in zip(graph.order[lo:lo + starts.size].tolist(), ends, ends[1:]):
            lists[p] = edges[a:b]
    return lists


def color_classes(graph) -> list:
    """Color classes of an AnnotationGraph, in color order: the linked
    items of each block, the prefix order[lo:lo + starts.size], as the
    block order lists them (in item order).  A graph without edges has
    none."""
    return [graph.order[lo:lo + starts.size] for lo, _, starts, _, _ in graph.blocks if starts.size]
