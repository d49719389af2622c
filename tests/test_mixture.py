"""Mixture-global tests against an independent conjugate-update oracle."""

import dataclasses
import json

import numpy as np
import pytest

from crowdmix import expfam
from crowdmix.expfam import (
    BetaNat,
    DirichletNat,
    NiwNat,
    dirichlet_expected_stats,
    niw_expected_stats,
)
from crowdmix.mixture import (
    GlobalGrads,
    GlobalVariational,
    MixturePrior,
    StepRejected,
    apply_natural_gradient,
    effective_components,
    global_expectations,
    init_global,
    mixture_natural_gradient,
)
from crowdmix.relational import AnnotationStore, BetaWorkers, beta_natural_gradient


def _conjugate_posterior(prior, q_z, means, covs):
    """Scatter-form weighted conjugate update, written in standard
    parameters so it shares no code path with the natural-gradient route."""
    K, d = prior.n_components, prior.latent_dim
    alpha_star = np.full(K, prior.alpha0) + q_z.sum(axis=0)
    comps = []
    for k in range(K):
        r = q_z[:, k]
        nk = r.sum()
        kappa_star = prior.kappa0 + nk
        nu_star = prior.nu0 + nk
        xbar = (r[:, None] * means).sum(axis=0) / nk if nk > 0 else np.zeros(d)
        second = np.zeros((d, d))
        for i in range(means.shape[0]):
            second += r[i] * (covs[i] + np.outer(means[i], means[i]))
        scatter = second - nk * np.outer(xbar, xbar)
        dev = xbar - prior.m0
        m_star = (prior.kappa0 * prior.m0 + nk * xbar) / kappa_star
        s_star = prior.s0 + scatter + (prior.kappa0 * nk / kappa_star) * np.outer(dev, dev)
        comps.append((m_star, kappa_star, s_star, nu_star))
    return alpha_star, comps


def _random_instance(rng, n=10, k=2, d=2):
    raw = rng.uniform(size=(n, k))
    q_z = raw / raw.sum(axis=1, keepdims=True)
    means = rng.standard_normal((n, d))
    covs = np.empty((n, d, d))
    for i in range(n):
        a = rng.standard_normal((d, d))
        covs[i] = a @ a.T + 0.5 * np.eye(d)
    return q_z, means, covs


def _members(niw):
    """The per-component NiwNat records of a batched one."""
    fields = (niw.h1, niw.h2, niw.h3, niw.h4)
    return [NiwNat(*(field[k] for field in fields)) for k in range(niw.h3.shape[0])]


def _stacked_prior_components(prior):
    """The prior NIW repeated once per component."""
    return NiwNat.from_standard(
        np.zeros((prior.n_components, prior.latent_dim)), prior.kappa0, prior.s0, prior.nu0
    )


def _zero_grads(glob):
    k, d = glob.n_components, glob.latent_dim
    return GlobalGrads(
        pi=np.zeros(k),
        h1=np.zeros((k, d)),
        h2=np.zeros((k, d, d)),
        h3=np.zeros(k),
        h4=np.zeros(k),
    )


# ---------------------------------------------------------------------------
# natural-gradient updates vs the closed-form oracle


def test_step_one_update_matches_conjugate_oracle():
    rng = np.random.default_rng(7)
    prior = MixturePrior.default(2, 2)
    q_z, means, covs = _random_instance(rng)
    current = init_global(prior, rng)
    grads = mixture_natural_gradient(prior, q_z, means, covs, current)
    updated = apply_natural_gradient(current, grads, step=1.0)

    alpha_star, comps = _conjugate_posterior(prior, q_z, means, covs)
    np.testing.assert_allclose(updated.pi.alpha, alpha_star, atol=1e-10)
    for comp, (m, kappa, s, nu) in zip(_members(updated.components), comps):
        got_m, got_kappa, got_s, got_nu = comp.to_standard()
        np.testing.assert_allclose(got_m, m, atol=1e-10)
        assert abs(got_kappa - kappa) < 1e-10
        np.testing.assert_allclose(got_s, s, atol=1e-10)
        assert abs(got_nu - nu) < 1e-10


def test_full_batch_update_is_idempotent():
    rng = np.random.default_rng(8)
    prior = MixturePrior.default(3, 2)
    q_z, means, covs = _random_instance(rng, n=12, k=3)
    start = init_global(prior, rng)
    posterior = apply_natural_gradient(
        start, mixture_natural_gradient(prior, q_z, means, covs, start), step=1.0
    )
    grads = mixture_natural_gradient(prior, q_z, means, covs, posterior)
    for block in (grads.pi, grads.h1, grads.h2, grads.h3, grads.h4):
        assert np.max(np.abs(block)) < 1e-10
    again = apply_natural_gradient(posterior, grads, step=1.0)
    np.testing.assert_allclose(again.pi.eta, posterior.pi.eta, atol=1e-10)
    for a, b in zip(_members(again.components), _members(posterior.components)):
        np.testing.assert_allclose(a.h2, b.h2, atol=1e-10)


def test_zero_data_fixed_point_is_prior():
    rng = np.random.default_rng(9)
    prior = MixturePrior.default(2, 2)
    current = init_global(prior, rng)
    grads = mixture_natural_gradient(
        prior, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2, 2)), current
    )
    updated = apply_natural_gradient(current, grads, step=1.0)
    np.testing.assert_allclose(updated.pi.alpha, np.full(2, prior.alpha0), atol=1e-12)
    niw0 = prior.niw_nat()
    for comp in _members(updated.components):
        np.testing.assert_allclose(comp.h1, niw0.h1, atol=1e-12)
        np.testing.assert_allclose(comp.h2, niw0.h2, atol=1e-12)
        assert abs(comp.h3 - niw0.h3) < 1e-12
        assert abs(comp.h4 - niw0.h4) < 1e-12


def test_single_point_appends_sufficient_statistics():
    rng = np.random.default_rng(10)
    prior = MixturePrior.default(2, 2)
    current = init_global(prior, rng)
    x0 = np.array([0.7, -1.2])
    q_z = np.array([[0.0, 1.0]])
    grads = mixture_natural_gradient(
        prior, q_z, x0[None, :], np.zeros((1, 2, 2)), current
    )
    updated = apply_natural_gradient(current, grads, step=1.0)
    niw0 = prior.niw_nat()
    np.testing.assert_allclose(updated.components.h1[1], niw0.h1 + x0, atol=1e-12)
    np.testing.assert_allclose(
        updated.components.h2[1], niw0.h2 + np.outer(x0, x0), atol=1e-12
    )
    assert abs(updated.components.h3[1] - (niw0.h3 + 1.0)) < 1e-12
    assert abs(updated.components.h4[1] - (niw0.h4 + 1.0)) < 1e-12
    np.testing.assert_allclose(updated.components.h1[0], niw0.h1, atol=1e-12)
    assert abs(updated.components.h3[0] - niw0.h3) < 1e-12


def test_diagonal_covariances_match_expanded_form():
    rng = np.random.default_rng(11)
    prior = MixturePrior.default(2, 3)
    current = init_global(prior, rng)
    q_z, means, _ = _random_instance(rng, n=6, k=2, d=3)
    diag = rng.uniform(0.1, 2.0, size=(6, 3))
    full = np.array([np.diag(row) for row in diag])
    a = mixture_natural_gradient(prior, q_z, means, diag, current)
    b = mixture_natural_gradient(prior, q_z, means, full, current)
    np.testing.assert_allclose(a.h2, b.h2, atol=1e-14)


def test_minibatch_gradients_are_unbiased():
    from itertools import combinations

    rng = np.random.default_rng(12)
    prior = MixturePrior.default(2, 2)
    current = init_global(prior, rng)
    q_z, means, covs = _random_instance(rng, n=4, k=2)
    full = mixture_natural_gradient(prior, q_z, means, covs, current, scale=1.0)
    batches = list(combinations(range(4), 2))
    acc = _zero_grads(current)
    for rows in batches:
        rows = list(rows)
        g = mixture_natural_gradient(
            prior, q_z[rows], means[rows], covs[rows], current, scale=4 / 2
        )
        acc = GlobalGrads(
            pi=acc.pi + g.pi / len(batches),
            h1=acc.h1 + g.h1 / len(batches),
            h2=acc.h2 + g.h2 / len(batches),
            h3=acc.h3 + g.h3 / len(batches),
            h4=acc.h4 + g.h4 / len(batches),
        )
    np.testing.assert_allclose(acc.pi, full.pi, atol=1e-12)
    np.testing.assert_allclose(acc.h1, full.h1, atol=1e-12)
    np.testing.assert_allclose(acc.h2, full.h2, atol=1e-12)
    np.testing.assert_allclose(acc.h3, full.h3, atol=1e-12)
    np.testing.assert_allclose(acc.h4, full.h4, atol=1e-12)


def test_zero_gradient_leaves_parameters_unchanged():
    rng = np.random.default_rng(13)
    prior = MixturePrior.default(2, 2)
    current = init_global(prior, rng, n_workers=2)
    updated = apply_natural_gradient(current, _zero_grads(current), step=1.0)
    np.testing.assert_allclose(updated.pi.eta, current.pi.eta, atol=0)
    for a, b in zip(_members(updated.components), _members(current.components)):
        np.testing.assert_allclose(a.h1, b.h1, atol=0)
        np.testing.assert_allclose(a.h2, b.h2, atol=0)
    assert updated.workers is current.workers


def test_two_half_steps_equal_one_full_step():
    rng = np.random.default_rng(14)
    prior = MixturePrior.default(2, 2)
    q_z, means, covs = _random_instance(rng, n=5)
    current = init_global(prior, rng)
    grads = mixture_natural_gradient(prior, q_z, means, covs, current)
    one = apply_natural_gradient(current, grads, step=1.0)
    two = apply_natural_gradient(apply_natural_gradient(current, grads, 0.5), grads, 0.5)
    np.testing.assert_allclose(two.pi.eta, one.pi.eta, atol=1e-12)
    for a, b in zip(_members(two.components), _members(one.components)):
        np.testing.assert_allclose(a.h1, b.h1, atol=1e-12)
        np.testing.assert_allclose(a.h2, b.h2, atol=1e-12)
        assert abs(a.h3 - b.h3) < 1e-12


def test_worker_gradient_application_reaches_count_fixed_point():
    rng = np.random.default_rng(15)
    prior = MixturePrior.default(2, 2)
    current = init_global(prior, rng, n_workers=1, worker_init=(10.0, 1.0))
    store = AnnotationStore([(0, 1, 0, 1)], n_items=2, n_workers=1)
    q_z = np.array([[1.0, 0.0], [1.0, 0.0]])  # certainly the same cluster
    worker_prior = (BetaNat.from_tau(1.0, 1.0), BetaNat.from_tau(1.0, 1.0))
    ga, gb = beta_natural_gradient(store, q_z, worker_prior, current.workers)
    grads = dataclasses.replace(_zero_grads(current), worker_alpha=ga, worker_beta=gb)
    updated = apply_natural_gradient(current, grads, step=1.0)
    np.testing.assert_allclose(updated.workers.alpha_taus[0], [2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(updated.workers.beta_taus[0], [1.0, 1.0], atol=1e-12)


def test_step_rejection_and_bad_steps():
    rng = np.random.default_rng(16)
    prior = MixturePrior.default(2, 2)
    current = init_global(prior, rng)
    bad_kappa = dataclasses.replace(_zero_grads(current), h3=np.full(2, -5.0))
    with pytest.raises(StepRejected):
        apply_natural_gradient(current, bad_kappa, step=1.0)
    bad_alpha = dataclasses.replace(_zero_grads(current), pi=np.full(2, -10.0))
    with pytest.raises(StepRejected):
        apply_natural_gradient(current, bad_alpha, step=1.0)
    bad_scale = dataclasses.replace(
        _zero_grads(current), h2=np.array([-100.0 * np.eye(2)] * 2)
    )
    with pytest.raises(StepRejected):
        apply_natural_gradient(current, bad_scale, step=1.0)
    d = prior.latent_dim
    for nu in (d - 1.0, d - 1.5):  # nu <= d - 1 on one component
        h4 = current.components.h4.copy()
        h4[1] = nu + d + 2.0
        bad_nu = dataclasses.replace(_zero_grads(current), h4=h4 - current.components.h4)
        with pytest.raises(StepRejected, match="nu"):
            apply_natural_gradient(current, bad_nu, step=1.0)
    for step in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            apply_natural_gradient(current, _zero_grads(current), step=step)


def test_a_stepped_record_factors_its_scale_once(monkeypatch):
    rng = np.random.default_rng(17)
    prior = MixturePrior.default(3, 2)
    current = init_global(prior, rng)
    q_z, means, covs = _random_instance(rng, n=6, k=3)
    grads = mixture_natural_gradient(prior, q_z, means, covs, current)
    calls = []
    original = expfam._logdet
    monkeypatch.setattr(expfam, "_logdet", lambda S: calls.append(S.shape) or original(S))
    stepped = apply_natural_gradient(current, grads, step=0.5)
    assert calls == [(3, 2, 2)]
    stats = niw_expected_stats(stepped.components)
    log_z = expfam.log_partition(stepped.components)
    global_expectations(stepped)
    assert calls == [(3, 2, 2)]
    fresh = NiwNat(*(getattr(stepped.components, f) for f in ("h1", "h2", "h3", "h4")))
    monkeypatch.setattr(expfam, "_logdet", original)
    for kept, want in zip(stats, niw_expected_stats(fresh)):
        assert np.array_equal(kept, want)
    assert np.array_equal(log_z, expfam.log_partition(fresh))


def test_prior_records_are_built_once():
    prior = MixturePrior.default(4, 2)
    assert prior.pi_nat() is prior.pi_nat()
    assert prior.niw_nat() is prior.niw_nat()
    fresh = NiwNat.from_standard(prior.m0, prior.kappa0, prior.s0, prior.nu0)
    for f in ("h1", "h2", "h3", "h4"):
        assert np.array_equal(getattr(prior.niw_nat(), f), getattr(fresh, f))
    assert np.array_equal(prior.pi_nat().eta, np.full(4, prior.alpha0) - 1.0)


# ---------------------------------------------------------------------------
# prior, initialization, expectations


def test_default_prior_values():
    prior = MixturePrior.default(15, 2)
    assert prior.alpha0 == pytest.approx(0.05 / 15)
    assert prior.kappa0 == 0.5
    np.testing.assert_allclose(prior.m0, np.zeros(2))
    np.testing.assert_allclose(prior.s0, 2.5 * np.eye(2))
    assert prior.nu0 == 2.5


def test_prior_validation():
    with pytest.raises(ValueError):
        MixturePrior(2, 2, 0.0, np.zeros(2), 0.5, np.eye(2), 2.5)
    with pytest.raises(ValueError):
        MixturePrior(2, 2, 0.1, np.zeros(2), -1.0, np.eye(2), 2.5)
    with pytest.raises(ValueError):
        MixturePrior(2, 2, 0.1, np.zeros(2), 0.5, np.eye(2), 0.5)
    with pytest.raises(ValueError):
        MixturePrior(2, 2, 0.1, np.zeros(3), 0.5, np.eye(2), 2.5)
    with pytest.raises(np.linalg.LinAlgError):
        MixturePrior(2, 2, 0.1, np.zeros(2), 0.5, -np.eye(2), 2.5)


def test_init_global_distributions_and_determinism():
    prior = MixturePrior.default(4, 3)
    a = init_global(prior, np.random.default_rng(21), n_workers=2)
    b = init_global(prior, np.random.default_rng(21), n_workers=2)
    np.testing.assert_allclose(a.pi.eta, b.pi.eta, atol=0)
    for ca, cb in zip(_members(a.components), _members(b.components)):
        np.testing.assert_allclose(ca.h1, cb.h1, atol=0)
    assert np.all(a.pi.alpha > 1.0) and np.all(a.pi.alpha < 2.0)
    for comp in _members(a.components):
        m, kappa, s, nu = comp.to_standard()
        assert kappa == pytest.approx(1.0)
        np.testing.assert_allclose(s, 4.0 * np.eye(3), atol=1e-12)
        assert nu == pytest.approx(4.0)
    ma, mb = a.workers.mean_accuracies
    np.testing.assert_allclose(ma, [10 / 11, 10 / 11])
    np.testing.assert_allclose(mb, [10 / 11, 10 / 11])


def test_init_global_zero_spread_centers_all_components():
    prior = MixturePrior.default(3, 2)
    glob = init_global(prior, np.random.default_rng(22), init_spread=0.0)
    for comp in _members(glob.components):
        m, _, _, _ = comp.to_standard()
        np.testing.assert_allclose(m, np.zeros(2), atol=0)
    assert glob.workers is None


def test_global_expectations_stack_per_component_values():
    rng = np.random.default_rng(23)
    prior = MixturePrior.default(3, 2)
    glob = init_global(prior, rng)
    exp = global_expectations(glob)
    np.testing.assert_allclose(exp.log_pi, dirichlet_expected_stats(glob.pi), atol=0)
    for k, comp in enumerate(_members(glob.components)):
        stats = niw_expected_stats(comp)
        np.testing.assert_allclose(exp.mean_prec[k], stats.mean_prec, atol=0)
        np.testing.assert_allclose(exp.neg_half_prec[k], stats.neg_half_prec, atol=0)
        assert exp.neg_half_mahal[k] == stats.neg_half_mahal
        assert exp.neg_half_logdet[k] == stats.neg_half_logdet


# ---------------------------------------------------------------------------
# effective components and serialization


def test_effective_components_uniform():
    glob = GlobalVariational(
        pi=DirichletNat.from_alpha(np.ones(6)),
        components=_stacked_prior_components(MixturePrior.default(6, 2)),
    )
    assert effective_components(glob, threshold=0.5 / 6) == 6


def test_effective_components_dominant():
    alpha = np.concatenate([[99.0], np.full(14, 1.0 / 14)])
    glob = GlobalVariational(
        pi=DirichletNat.from_alpha(alpha),
        components=_stacked_prior_components(MixturePrior.default(15, 2)),
    )
    assert effective_components(glob, threshold=0.02) == 1
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            effective_components(glob, threshold=bad)


def test_serialization_round_trips_exactly():
    rng = np.random.default_rng(41)
    prior = MixturePrior.default(3, 2)
    glob = init_global(prior, rng, n_workers=2)

    prior2 = MixturePrior.from_dict(json.loads(json.dumps(prior.to_dict())))
    assert prior2.alpha0 == prior.alpha0 and prior2.nu0 == prior.nu0
    np.testing.assert_allclose(prior2.s0, prior.s0, atol=0)

    glob2 = GlobalVariational.from_dict(json.loads(json.dumps(glob.to_dict())))
    np.testing.assert_allclose(glob2.pi.eta, glob.pi.eta, atol=0)
    for a, b in zip(_members(glob2.components), _members(glob.components)):
        np.testing.assert_allclose(a.h1, b.h1, atol=0)
        np.testing.assert_allclose(a.h2, b.h2, atol=0)
        assert a.h3 == b.h3 and a.h4 == b.h4
    np.testing.assert_allclose(glob2.workers.alpha_taus, glob.workers.alpha_taus, atol=0)

    bare = GlobalVariational.from_dict(
        json.loads(json.dumps(GlobalVariational(glob.pi, glob.components).to_dict()))
    )
    assert bare.workers is None


def test_global_variational_validation():
    prior = MixturePrior.default(3, 2)
    rng = np.random.default_rng(42)
    glob = init_global(prior, rng)
    c = glob.components
    with pytest.raises(ValueError):
        GlobalVariational(glob.pi, NiwNat(c.h1[:2], c.h2[:2], c.h3[:2], c.h4[:2]))
    with pytest.raises(ValueError):  # components of two latent dimensions
        GlobalVariational(glob.pi, NiwNat(c.h1, np.tile(np.eye(3), (3, 1, 1)), c.h3, c.h4))
