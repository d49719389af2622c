"""Mixture-global tests against an independent conjugate-update oracle."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import worker_counts

from crowdmix import expfam
from crowdmix.expfam import (
    DirichletNat,
    NiwNat,
    dirichlet_expected_stats,
    niw_expected_stats,
)
from crowdmix.mixture import (
    NO_WORKERS,
    GlobalVariational,
    MixturePrior,
    apply_natural_gradient,
    effective_components,
    global_expectations,
    init_global,
    mixture_natural_gradient,
)
from crowdmix.nnet import TrainingDivergence
from crowdmix.relational import WORKER_PRIOR, AnnotationStore, BetaWorkers
from crowdmix.relational import beta_natural_gradient


def _conjugate_posterior(prior, q_z, means, covs):
    """Scatter-form weighted conjugate update, written in standard
    parameters so it shares no code path with the natural-gradient route."""
    K, d = prior.n_components, prior.latent_dim
    m0, kappa0, s0, nu0 = prior.niw_nat().to_standard()
    alpha_star = prior.pi_nat().alpha + q_z.sum(axis=0)
    comps = []
    for k in range(K):
        r = q_z[:, k]
        nk = r.sum()
        kappa_star = kappa0 + nk
        nu_star = nu0 + nk
        xbar = (r[:, None] * means).sum(axis=0) / nk if nk > 0 else np.zeros(d)
        second = np.zeros((d, d))
        for i in range(means.shape[0]):
            second += r[i] * (covs[i] + np.outer(means[i], means[i]))
        scatter = second - nk * np.outer(xbar, xbar)
        dev = xbar - m0
        m_star = (kappa0 * m0 + nk * xbar) / kappa_star
        s_star = s0 + scatter + (kappa0 * nk / kappa_star) * np.outer(dev, dev)
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
    _, kappa0, s0, nu0 = prior.niw_nat().to_standard()
    return NiwNat.from_standard(
        np.zeros((prior.n_components, prior.latent_dim)), kappa0, s0, nu0
    )


def _arrays(glob):
    """The natural-parameter arrays of the mixing weights and components."""
    c = glob.components
    return glob.pi.eta, c.h1, c.h2, c.h3, c.h4


def _raw_target(glob, workers=None, **arrays):
    """A target holding glob's arrays, with those named in `arrays`
    (pi, h1, ..., h4) and the worker eta `workers` replaced, as plain
    unvalidated arrays: a step toward it can leave a family's domain."""
    fields = dict(zip(("pi", "h1", "h2", "h3", "h4"), _arrays(glob)), **arrays)
    return SimpleNamespace(
        pi=SimpleNamespace(eta=fields.pop("pi")),
        components=SimpleNamespace(**fields),
        workers=SimpleNamespace(eta=glob.workers.eta if workers is None else workers),
    )


# ---------------------------------------------------------------------------
# natural-gradient updates vs the closed-form oracle


def test_step_one_update_matches_conjugate_oracle():
    rng = np.random.default_rng(7)
    prior = MixturePrior(2, 2)
    q_z, means, covs = _random_instance(rng)
    current = init_global(prior, rng)
    target = mixture_natural_gradient(prior, q_z, means, covs)
    assert target.workers is NO_WORKERS and target.workers.eta.shape == (0, 2, 2)
    updated = apply_natural_gradient(current, target, step=1.0)

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
    prior = MixturePrior(3, 2)
    q_z, means, covs = _random_instance(rng, n=12, k=3)
    start = init_global(prior, rng)
    target = mixture_natural_gradient(prior, q_z, means, covs)
    posterior = apply_natural_gradient(start, target, step=1.0)
    # the natural gradient at the posterior, target - posterior, vanishes
    for hat, eta in zip(_arrays(target), _arrays(posterior)):
        assert np.max(np.abs(hat - eta)) < 1e-10
    again = apply_natural_gradient(posterior, target, step=1.0)
    np.testing.assert_allclose(again.pi.eta, posterior.pi.eta, atol=1e-10)
    for a, b in zip(_members(again.components), _members(posterior.components)):
        np.testing.assert_allclose(a.h2, b.h2, atol=1e-10)


def test_zero_data_fixed_point_is_prior():
    rng = np.random.default_rng(9)
    prior = MixturePrior(2, 2)
    current = init_global(prior, rng)
    target = mixture_natural_gradient(
        prior, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2, 2))
    )
    updated = apply_natural_gradient(current, target, step=1.0)
    np.testing.assert_allclose(updated.pi.alpha, np.full(2, 0.05 / 2), atol=1e-12)
    niw0 = prior.niw_nat()
    for comp in _members(updated.components):
        np.testing.assert_allclose(comp.h1, niw0.h1, atol=1e-12)
        np.testing.assert_allclose(comp.h2, niw0.h2, atol=1e-12)
        assert abs(comp.h3 - niw0.h3) < 1e-12
        assert abs(comp.h4 - niw0.h4) < 1e-12


def test_single_point_appends_sufficient_statistics():
    rng = np.random.default_rng(10)
    prior = MixturePrior(2, 2)
    current = init_global(prior, rng)
    x0 = np.array([0.7, -1.2])
    q_z = np.array([[0.0, 1.0]])
    target = mixture_natural_gradient(prior, q_z, x0[None, :], np.zeros((1, 2, 2)))
    updated = apply_natural_gradient(current, target, step=1.0)
    niw0 = prior.niw_nat()
    np.testing.assert_allclose(updated.components.h1[1], niw0.h1 + x0, atol=1e-12)
    np.testing.assert_allclose(
        updated.components.h2[1], niw0.h2 + np.outer(x0, x0), atol=1e-12
    )
    assert abs(updated.components.h3[1] - (niw0.h3 + 1.0)) < 1e-12
    assert abs(updated.components.h4[1] - (niw0.h4 + 1.0)) < 1e-12
    np.testing.assert_allclose(updated.components.h1[0], niw0.h1, atol=1e-12)
    assert abs(updated.components.h3[0] - niw0.h3) < 1e-12


def test_minibatch_gradients_are_unbiased():
    from itertools import combinations

    # the targets' mean over all minibatches is the full-data target, so the
    # gradients target - eta at any eta are unbiased too
    rng = np.random.default_rng(12)
    prior = MixturePrior(2, 2)
    q_z, means, covs = _random_instance(rng, n=4, k=2)
    full = mixture_natural_gradient(prior, q_z, means, covs, scale=1.0)
    batches = list(combinations(range(4), 2))
    acc = [np.zeros_like(a) for a in _arrays(full)]
    for rows in batches:
        rows = list(rows)
        t = mixture_natural_gradient(prior, q_z[rows], means[rows], covs[rows], scale=4 / 2)
        acc = [a + b / len(batches) for a, b in zip(acc, _arrays(t))]
    for a, b in zip(acc, _arrays(full)):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_zero_gradient_leaves_parameters_unchanged():
    rng = np.random.default_rng(13)
    prior = MixturePrior(2, 2)
    current = init_global(prior, rng, n_workers=2)
    # a target equal to the current records, the workers' among them
    updated = apply_natural_gradient(current, current, 1.0)
    np.testing.assert_allclose(updated.pi.eta, current.pi.eta, atol=0)
    for a, b in zip(_members(updated.components), _members(current.components)):
        np.testing.assert_allclose(a.h1, b.h1, atol=0)
        np.testing.assert_allclose(a.h2, b.h2, atol=0)
    assert np.array_equal(updated.workers.eta, current.workers.eta)
    assert updated.workers.eta.shape == (2, 2, 2)


def test_two_half_steps_equal_one_step_of_three_quarters():
    # each step keeps 1 - rho of the distance to the target: two of 1/2
    # keep 1/4 of it, as one of 3/4 does
    rng = np.random.default_rng(14)
    prior = MixturePrior(2, 2)
    q_z, means, covs = _random_instance(rng, n=5)
    current = init_global(prior, rng)
    target = mixture_natural_gradient(prior, q_z, means, covs)
    one = apply_natural_gradient(current, target, step=0.75)
    two = apply_natural_gradient(apply_natural_gradient(current, target, 0.5), target, 0.5)
    np.testing.assert_allclose(two.pi.eta, one.pi.eta, atol=1e-12)
    for a, b in zip(_members(two.components), _members(one.components)):
        np.testing.assert_allclose(a.h1, b.h1, atol=1e-12)
        np.testing.assert_allclose(a.h2, b.h2, atol=1e-12)
        assert abs(a.h3 - b.h3) < 1e-12


def test_worker_gradient_application_reaches_count_fixed_point():
    rng = np.random.default_rng(15)
    prior = MixturePrior(2, 2)
    current = init_global(prior, rng, n_workers=1)
    store = AnnotationStore([(0, 1, 0, 1)], n_items=2, n_workers=1)
    q_z = np.array([[1.0, 0.0], [1.0, 0.0]])  # certainly the same cluster
    target = dataclasses.replace(current, workers=beta_natural_gradient(worker_counts(store, q_z)))
    updated = apply_natural_gradient(current, target, step=1.0)
    np.testing.assert_allclose(updated.workers.alpha_taus[0], [2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(updated.workers.beta_taus[0], [1.0, 1.0], atol=1e-12)


def test_step_rejection_and_bad_steps():
    rng = np.random.default_rng(16)
    prior = MixturePrior(2, 2)
    current = init_global(prior, rng)
    c = current.components
    bad_kappa = _raw_target(current, h3=c.h3 - 5.0)
    with pytest.raises(TrainingDivergence, match="kappa"):
        apply_natural_gradient(current, bad_kappa, step=1.0)
    bad_alpha = _raw_target(current, pi=current.pi.eta - 10.0)
    with pytest.raises(TrainingDivergence):
        apply_natural_gradient(current, bad_alpha, step=1.0)
    bad_scale = _raw_target(current, h2=c.h2 - 100.0 * np.eye(2))
    with pytest.raises(TrainingDivergence):
        apply_natural_gradient(current, bad_scale, step=1.0)
    d = prior.latent_dim
    for nu in (d - 1.0, d - 1.5):  # nu <= d - 1 on one component
        h4 = c.h4.copy()
        h4[1] = nu + d + 2.0
        # a record, since its constructor checks no nu
        bad_nu = dataclasses.replace(current, components=NiwNat(c.h1, c.h2, c.h3, h4))
        with pytest.raises(TrainingDivergence, match="nu"):
            apply_natural_gradient(current, bad_nu, step=1.0)
    for step in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            apply_natural_gradient(current, current, step=step)
    no_posteriors = _raw_target(current, workers=np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="worker target has 1 rows, the worker posteriors 0"):
        apply_natural_gradient(current, no_posteriors, step=1.0)


@pytest.mark.parametrize("target_workers", [0, 1, 3])
def test_a_worker_target_for_other_workers_is_rejected(target_workers):
    """One worker target would broadcast over two posteriors; the step
    names both counts instead."""
    rng = np.random.default_rng(18)
    prior = MixturePrior(2, 2)
    current = init_global(prior, rng, n_workers=2)
    target = dataclasses.replace(
        current, workers=init_global(prior, rng, n_workers=target_workers).workers
    )
    with pytest.raises(ValueError, match=f"worker target has {target_workers} rows, the worker posteriors 2"):
        apply_natural_gradient(current, target, step=0.5)


@pytest.mark.parametrize("seed", range(5))
def test_a_step_is_the_convex_combination_with_the_fixed_point(seed):
    """Both targets eta_hat are valid records, so a step of any size in
    [0, 1] lands on (1 - rho) eta + rho eta_hat, inside every family's
    convex domain, and is never rejected."""
    rng = np.random.default_rng(seed)
    k, d, m, n = 4, 2, 3, 12
    prior = MixturePrior(k, d)
    a = rng.standard_normal((k, d, d))
    current = GlobalVariational(
        DirichletNat.from_alpha(rng.uniform(0.01, 5.0, size=k)),
        NiwNat.from_standard(
            rng.standard_normal((k, d)) * 3.0, rng.uniform(0.1, 5.0, size=k),
            a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d), d - 1.0 + rng.uniform(0.01, 5.0, size=k),
        ),
        BetaWorkers.from_taus(rng.uniform(0.1, 10.0, (m, 2)), rng.uniform(0.1, 10.0, (m, 2))),
    )
    q_z = rng.dirichlet(np.full(k, 0.5), size=n)
    _, means, covs = _random_instance(rng, n=n, k=k, d=d)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = rng.choice(len(pairs), size=20, replace=False)
    store = AnnotationStore(
        [(*pairs[p], rng.integers(m), rng.integers(2)) for p in picked], n_items=n, n_workers=m
    )
    scale = rng.uniform(1.0, 10.0)
    target = dataclasses.replace(
        mixture_natural_gradient(prior, q_z, means, covs, scale=scale),
        workers=beta_natural_gradient(worker_counts(store, q_z), rng.uniform(1.0, 10.0)),
    )
    # the target is a valid record of each family: the constructors checked
    # the Dirichlet and Beta domains and kappa, this checks nu and S
    target.components.scale_factor()
    blocks = [
        lambda g: g.pi.eta,
        lambda g: g.workers.eta,
        lambda g: g.components.h1,
        lambda g: g.components.h2,
        lambda g: g.components.h3,
        lambda g: g.components.h4,
    ]
    for rho in (0.0, 1e-12, 0.05, 0.5, 1.0):
        stepped = apply_natural_gradient(current, target, rho)
        for read in blocks:
            np.testing.assert_allclose(
                read(stepped), (1.0 - rho) * read(current) + rho * read(target),
                rtol=1e-12, atol=1e-12,
            )


def test_a_stepped_record_factors_its_scale_once(monkeypatch):
    rng = np.random.default_rng(17)
    prior = MixturePrior(3, 2)
    current = init_global(prior, rng)
    q_z, means, covs = _random_instance(rng, n=6, k=3)
    target = mixture_natural_gradient(prior, q_z, means, covs)
    calls = []
    original = expfam.spd_factor
    monkeypatch.setattr(expfam, "spd_factor", lambda S: calls.append(S.shape) or original(S))
    stepped = apply_natural_gradient(current, target, step=0.5)
    assert calls == [(3, 2, 2)]
    stats = niw_expected_stats(stepped.components)
    log_z = expfam.log_partition(stepped.components)
    global_expectations(stepped)
    assert calls == [(3, 2, 2)]
    fresh = NiwNat(*(getattr(stepped.components, f) for f in ("h1", "h2", "h3", "h4")))
    monkeypatch.setattr(expfam, "spd_factor", original)
    for kept, want in zip(stats, niw_expected_stats(fresh)):
        assert np.array_equal(kept, want)
    assert np.array_equal(log_z, expfam.log_partition(fresh))


def test_prior_records_are_built_once():
    prior = MixturePrior(4, 2)
    assert prior.pi_nat() is prior.pi_nat()
    assert prior.niw_nat() is prior.niw_nat()


# ---------------------------------------------------------------------------
# prior, initialization, expectations


def test_default_prior_values():
    """The records equal those of the NIW(0, 0.5, (d + 0.5) I, d + 0.5) and
    Dirichlet(0.05 / K) prior, and Beta(1, 1), bit for bit."""
    for k, d in ((15, 2), (3, 1)):
        prior = MixturePrior(k, d)
        niw = NiwNat.from_standard(np.zeros(d), 0.5, (d + 0.5) * np.eye(d), d + 0.5)
        for f in ("h1", "h2", "h3", "h4"):
            assert np.array_equal(getattr(prior.niw_nat(), f), getattr(niw, f))
        alpha = np.full(k, 0.05 / k)
        assert np.array_equal(prior.pi_nat().eta, DirichletNat.from_alpha(alpha).eta)
        assert (prior.n_components, prior.latent_dim) == (k, d)
    assert np.array_equal(WORKER_PRIOR.eta, np.zeros((2, 2)))


def test_init_global_distributions_and_determinism():
    prior = MixturePrior(4, 3)
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
    np.testing.assert_array_equal(a.workers.alpha_taus, [[10.0, 1.0], [10.0, 1.0]])
    np.testing.assert_array_equal(a.workers.beta_taus, [[10.0, 1.0], [10.0, 1.0]])


def test_global_expectations_stack_per_component_values():
    rng = np.random.default_rng(23)
    prior = MixturePrior(3, 2)
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
        components=_stacked_prior_components(MixturePrior(6, 2)),
    )
    assert effective_components(glob, threshold=0.5 / 6) == 6


def test_effective_components_dominant():
    alpha = np.concatenate([[99.0], np.full(14, 1.0 / 14)])
    glob = GlobalVariational(
        pi=DirichletNat.from_alpha(alpha),
        components=_stacked_prior_components(MixturePrior(15, 2)),
    )
    assert effective_components(glob, threshold=0.02) == 1
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            effective_components(glob, threshold=bad)


def test_serialization_round_trips_exactly():
    rng = np.random.default_rng(41)
    prior = MixturePrior(3, 2)
    glob = init_global(prior, rng, n_workers=2)

    glob2 = GlobalVariational.from_dict(json.loads(json.dumps(glob.to_dict())))
    np.testing.assert_allclose(glob2.pi.eta, glob.pi.eta, atol=0)
    for a, b in zip(_members(glob2.components), _members(glob.components)):
        np.testing.assert_allclose(a.h1, b.h1, atol=0)
        np.testing.assert_allclose(a.h2, b.h2, atol=0)
        assert a.h3 == b.h3 and a.h4 == b.h4
    np.testing.assert_allclose(glob2.workers.alpha_taus, glob.workers.alpha_taus, atol=0)

    bare_doc = json.loads(json.dumps(GlobalVariational(glob.pi, glob.components).to_dict()))
    assert bare_doc["workers"] == {"alpha_taus": [], "beta_taus": []}
    bare = GlobalVariational.from_dict(bare_doc)
    assert bare.workers.eta.shape == (0, 2, 2)


def test_an_older_document_without_workers_loads_as_zero_workers():
    glob = init_global(MixturePrior(3, 2), np.random.default_rng(43), n_workers=2)
    doc = json.loads(json.dumps(glob.to_dict()))
    del doc["workers"]
    for legacy in ({**doc, "workers": None}, doc):
        loaded = GlobalVariational.from_dict(legacy)
        assert loaded.workers.eta.shape == (0, 2, 2)
        assert np.array_equal(loaded.pi.eta, glob.pi.eta)
        assert np.array_equal(loaded.components.h2, glob.components.h2)


def test_global_variational_validation():
    prior = MixturePrior(3, 2)
    rng = np.random.default_rng(42)
    glob = init_global(prior, rng)
    c = glob.components
    with pytest.raises(ValueError):
        GlobalVariational(glob.pi, NiwNat(c.h1[:2], c.h2[:2], c.h3[:2], c.h4[:2]))
    with pytest.raises(TypeError, match="workers"):  # no record of the workers
        GlobalVariational(glob.pi, c, None)
    with pytest.raises(ValueError):  # components of two latent dimensions
        GlobalVariational(glob.pi, NiwNat(c.h1, np.tile(np.eye(3), (3, 1, 1)), c.h3, c.h4))
