import numpy as np
import pytest
from oracles import grad_log_partition_check
from scipy.special import digamma
from scipy.stats import invwishart

from crowdmix.expfam import (
    BetaNat,
    DirichletNat,
    NiwNat,
    dirichlet_expected_stats,
    log_partition,
    niw_expected_stats,
)


# ---------------------------------------------------------------------------
# Dirichlet


def test_dirichlet_uniform_alpha_one():
    # psi(1) - psi(2) = -1 by the recurrence psi(2) = psi(1) + 1
    stats = dirichlet_expected_stats(DirichletNat.from_alpha([1.0, 1.0]))
    assert np.allclose(stats, [-1.0, -1.0], atol=1e-12)


def test_dirichlet_alpha_two_two_monte_carlo():
    rng = np.random.default_rng(0)
    draws = rng.dirichlet([2.0, 2.0], size=1_000_000)
    mc = np.log(draws).mean(axis=0)
    stats = dirichlet_expected_stats(DirichletNat.from_alpha([2.0, 2.0]))
    assert np.allclose(stats, digamma(2.0) - digamma(4.0))
    assert np.max(np.abs(stats - mc)) < 1e-3


def test_dirichlet_alpha_ten_one():
    stats = dirichlet_expected_stats(DirichletNat.from_alpha([10.0, 1.0]))
    assert abs(stats[0] + 0.1) < 1e-12


def test_dirichlet_entries_negative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha = rng.uniform(0.2, 8.0, size=rng.integers(2, 6))
        stats = dirichlet_expected_stats(DirichletNat.from_alpha(alpha))
        assert np.all(stats < 0.0)
        assert np.all(np.isfinite(stats))


def test_dirichlet_rejects_nonfinite():
    with pytest.raises(ValueError):
        DirichletNat(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        DirichletNat(np.array([0.0, -1.5]))


# ---------------------------------------------------------------------------
# NIW


def test_niw_zero_mean_identity_scale():
    d = 3
    p = NiwNat.from_standard(np.zeros(d), 1.0, np.eye(d), d + 2.0)
    e = niw_expected_stats(p)
    assert np.allclose(e.mean_prec, 0.0, atol=1e-12)
    assert np.allclose(e.neg_half_prec, -0.5 * (d + 2.0) * np.eye(d), atol=1e-12)


def test_niw_mahalanobis_block():
    p = NiwNat.from_standard(np.zeros(2), 2.0, 2.0 * np.eye(2), 4.0)
    e = niw_expected_stats(p)
    assert abs(e.neg_half_mahal + 0.5) < 1e-12


def test_niw_expected_stats_monte_carlo():
    m = np.array([0.5, -0.3])
    kappa, nu = 2.0, 6.0
    S = np.array([[2.0, 0.3], [0.3, 1.5]])
    p = NiwNat.from_standard(m, kappa, S, nu)
    e = niw_expected_stats(p)

    rng = np.random.default_rng(7)
    n = 100_000
    sigmas = invwishart.rvs(df=nu, scale=S, size=n, random_state=rng)
    precs = np.linalg.inv(sigmas)
    chols = np.linalg.cholesky(sigmas / kappa)
    mus = m + np.einsum("nij,nj->ni", chols, rng.standard_normal((n, 2)))

    mc_mean_prec = np.einsum("nij,nj->ni", precs, mus).mean(axis=0)
    mc_neg_half_prec = -0.5 * precs.mean(axis=0)
    mc_mahal = -0.5 * np.einsum("ni,nij,nj->n", mus, precs, mus).mean()
    mc_logdet = -0.5 * np.linalg.slogdet(sigmas)[1].mean()

    assert np.max(np.abs(e.mean_prec - mc_mean_prec)) < 1e-2
    assert np.max(np.abs(e.neg_half_prec - mc_neg_half_prec)) < 1e-2
    assert abs(e.neg_half_mahal - mc_mahal) < 1e-2
    assert abs(e.neg_half_logdet - mc_logdet) < 1e-2


def test_niw_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = rng.standard_normal(d)
        kappa = float(rng.uniform(0.2, 5.0))
        A = rng.standard_normal((d, d))
        S = A @ A.T + d * np.eye(d)
        nu = float(d + rng.uniform(0.5, 4.0))
        m2, kappa2, S2, nu2 = NiwNat.from_standard(m, kappa, S, nu).to_standard()
        assert np.max(np.abs(m - m2)) < 1e-10
        assert abs(kappa - kappa2) < 1e-10
        assert np.max(np.abs(S - S2)) < 1e-10
        assert abs(nu - nu2) < 1e-10


def test_niw_rejects_bad_scale():
    p = NiwNat.from_standard(np.zeros(2), 1.0, np.eye(2), 4.0)
    bad = NiwNat(p.h1, -np.eye(2), p.h3, p.h4)
    with pytest.raises(np.linalg.LinAlgError):
        niw_expected_stats(bad)
    # one bad member fails the whole batch
    batch = NiwNat(np.stack([p.h1, p.h1]), np.stack([p.h2, bad.h2]), [p.h3, p.h3], [p.h4, p.h4])
    with pytest.raises(np.linalg.LinAlgError):
        niw_expected_stats(batch)


def test_batched_records_compute_what_their_members_do():
    rng = np.random.default_rng(19)
    K, d = 4, 3
    A = rng.standard_normal((K, d, d))
    S = A @ np.swapaxes(A, -1, -2) + d * np.eye(d)
    kappa, nu = rng.uniform(0.5, 3.0, K), d + rng.uniform(1.0, 4.0, K)
    niw = NiwNat.from_standard(rng.standard_normal((K, d)), kappa, S, nu)
    stats, log_z = niw_expected_stats(niw), log_partition(niw)
    for k in range(K):
        member = NiwNat(niw.h1[k], niw.h2[k], niw.h3[k], niw.h4[k])
        for batched, single in zip(stats, niw_expected_stats(member)):
            np.testing.assert_array_equal(batched[k], single)
        assert log_z[k] == log_partition(member)
    taus = rng.uniform(0.5, 8.0, size=(5, 2))
    beta = BetaNat.from_tau(taus[:, 0], taus[:, 1])
    alphas = rng.uniform(0.5, 8.0, size=(2, 3))
    dirichlet = DirichletNat.from_alpha(alphas)
    for m in range(5):
        member = BetaNat.from_tau(*taus[m])
        np.testing.assert_array_equal(
            dirichlet_expected_stats(beta)[m], dirichlet_expected_stats(member)
        )
        assert log_partition(beta)[m] == log_partition(member)
    for b in range(2):
        member = DirichletNat.from_alpha(alphas[b])
        np.testing.assert_array_equal(
            dirichlet_expected_stats(dirichlet)[b], dirichlet_expected_stats(member)
        )
        assert log_partition(dirichlet)[b] == log_partition(member)


def _random_records(rng):
    K, d = 3, 2
    A = rng.standard_normal((K, d, d))
    S = A @ np.swapaxes(A, -1, -2) + d * np.eye(d)
    niw = NiwNat.from_standard(
        rng.standard_normal((K, d)), rng.uniform(0.5, 3.0, K), S, d + rng.uniform(1.0, 4.0, K)
    )
    return (
        niw,
        DirichletNat.from_alpha(rng.uniform(0.5, 8.0, size=(2, 4))),
        BetaNat.from_tau(rng.uniform(0.5, 8.0, 5), rng.uniform(0.5, 8.0, 5)),
    )


def _derived(record):
    """Everything a record keeps, as a flat list of arrays."""
    out = [log_partition(record)]
    if isinstance(record, NiwNat):
        out += [*record.to_standard(), record.scale_logdet(), *niw_expected_stats(record)]
    else:
        out.append(dirichlet_expected_stats(record))
    return [np.asarray(a) for a in out]


def test_kept_statistics_equal_those_of_a_fresh_equal_record():
    for record in _random_records(np.random.default_rng(23)):
        first = _derived(record)
        kept = _derived(record)
        fields = [getattr(record, f) for f in ("h1", "h2", "h3", "h4") if hasattr(record, f)]
        fresh = _derived(type(record)(*(fields or [record.eta])))
        for a, b, c in zip(first, kept, fresh):
            assert a.dtype == c.dtype and np.array_equal(a, c)
            assert np.array_equal(b, c)
    niw = _random_records(np.random.default_rng(23))[0]
    assert niw_expected_stats(niw) is niw_expected_stats(niw)
    assert niw.to_standard() is niw.to_standard()
    assert log_partition(niw) is log_partition(niw)


def test_kept_statistics_are_read_only():
    for record in _random_records(np.random.default_rng(24)):
        for a in _derived(record):
            if a.ndim:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0


def test_a_failed_derivation_keeps_nothing_and_fails_again():
    p = NiwNat.from_standard(np.zeros(2), 1.0, np.eye(2), 4.0)
    bad_nu = NiwNat(p.h1, p.h2, p.h3, np.array(4.5))  # nu = 0.5 <= d - 1
    bad_scale = NiwNat(p.h1, -np.eye(2), p.h3, p.h4)
    for _ in range(2):
        with pytest.raises(ValueError, match="nu"):
            niw_expected_stats(bad_nu)
        with pytest.raises(np.linalg.LinAlgError):
            log_partition(bad_scale)


# ---------------------------------------------------------------------------
# Beta


def test_beta_uniform():
    stats = dirichlet_expected_stats(BetaNat.from_tau(1.0, 1.0))
    assert np.allclose(stats, [-1.0, -1.0], atol=1e-12)


def test_beta_ten_one():
    stats = dirichlet_expected_stats(BetaNat.from_tau(10.0, 1.0))
    assert abs(stats[0] + 0.1) < 1e-12


def test_beta_rejects_a_last_axis_other_than_two():
    with pytest.raises(ValueError):
        BetaNat(np.zeros(3))
    with pytest.raises(ValueError):
        BetaNat(np.zeros((4, 3)))


def test_beta_nine_one_monte_carlo():
    rng = np.random.default_rng(11)
    draws = rng.beta(9.0, 1.0, size=1_000_000)
    stats = dirichlet_expected_stats(BetaNat.from_tau(9.0, 1.0))
    assert abs(stats[0] - np.log(draws).mean()) < 1e-3


# ---------------------------------------------------------------------------
# log partitions


def test_log_partition_values():
    assert abs(log_partition(BetaNat.from_tau(1.0, 1.0))) < 1e-12
    assert abs(log_partition(DirichletNat.from_alpha([1.0, 1.0, 1.0])) + np.log(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# gradient identity  grad_eta log Z = E[t]


def test_grad_check_beta_example():
    assert grad_log_partition_check(BetaNat.from_tau(3.0, 2.0), 1e-5) < 1e-5


def test_grad_check_dirichlet_example():
    assert grad_log_partition_check(DirichletNat.from_alpha([2.0, 3.0, 4.0]), 1e-5) < 1e-5


def test_grad_check_niw_example():
    p = NiwNat.from_standard(np.zeros(2), 1.0, np.eye(2), 5.0)
    assert grad_log_partition_check(p, 1e-4) < 1e-3


def _random_family_points(rng):
    k = int(rng.integers(2, 5))
    yield DirichletNat.from_alpha(rng.uniform(0.5, 6.0, size=k)), 1e-4
    yield BetaNat.from_tau(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)), 1e-4
    d = int(rng.integers(1, 4))
    B = rng.standard_normal((d, d))
    S = B @ B.T + d * np.eye(d)
    p = NiwNat.from_standard(
        rng.standard_normal(d), rng.uniform(0.5, 3.0), S, d + rng.uniform(1.0, 4.0)
    )
    yield p, 1e-3


def test_grad_check_random_interior_points():
    rng = np.random.default_rng(17)
    for _ in range(20):
        for p, tol in _random_family_points(rng):
            assert grad_log_partition_check(p, 1e-5) < tol, type(p).__name__


def test_grad_check_domain_error():
    # alpha = 1e-6: a 1e-3 step on eta crosses alpha = 0
    p = DirichletNat.from_alpha([1e-6, 2.0])
    with pytest.raises(ValueError):
        grad_log_partition_check(p, 1e-3)
