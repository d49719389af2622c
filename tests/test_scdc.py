"""Amortized SCDC terms and training loop: the stacked component batch
against the per-component loop, enumeration oracles for both ELBO terms,
finite-difference gradients, determinism, model round trips, divergence
restore and input validation."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from scipy import stats
from scipy.special import log_softmax as np_log_softmax

from crowdmix import scdc
from crowdmix.data import Dataset, WorkerPool, pinwheel_generate, simulate_annotations
from crowdmix.nnet import (
    Mlp,
    Tape,
    backward,
    concat,
    diag_gaussian_loglik,
    exp,
    log_softmax,
    mul,
    parameter,
    reparameterize,
    reshape,
    take_rows,
    tensor_sum,
    zero_grads,
)
from crowdmix.relational import AnnotationStore
from crowdmix.scdc import (
    AmortizedPosterior,
    PointParams,
    ScdcConfig,
    ScdcModel,
    _check_finite,
    elbo_local,
    elbo_rel,
    train_scdc,
)
from crowdmix.vmp import BayesConfig

DIM = 2      # observation width
LATENT = 2   # latent width


def per_component_elbo_local(
    observations, point, posterior, decoder, *, noise, scale=1.0, kl_weight=1.0,
):
    """Per-component reference for elbo_local: one latent-encoder and one
    decoder pass per component, columns joined with concat.  The stacked
    batch must reproduce its value and gradients."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    n, _ = obs.shape
    k_comp = point.n_components
    z_heads = posterior.encoder_z.forward(obs)
    _check_finite(z_heads, "cluster encoder")
    log_q_z = log_softmax(z_heads["logits"], axis=-1)
    q_z = exp(log_q_z)
    per_component = []
    for k in range(k_comp):
        indicator = np.zeros((n, k_comp))
        indicator[:, k] = 1.0
        x_heads = posterior.encoder_x.forward(np.concatenate([indicator, obs], axis=1))
        _check_finite(x_heads, "latent encoder")
        mean, logvar = x_heads["mean"], x_heads["logvar"]
        mu_k = take_rows(point.means, [k])
        lv_k = take_rows(point.log_vars, [k])
        centered = mean - mu_k
        kl_terms = (
            lv_k - logvar + (exp(logvar) + centered * centered) * exp(-lv_k) - 1.0
        )
        kl_k = tensor_sum(kl_terms, axis=-1) * 0.5
        std = exp(logvar * 0.5)
        recon_k = None
        for eps in noise[:, k]:
            draw = reparameterize(mean, std, eps)
            dec = decoder.forward(draw)
            _check_finite(dec, "decoder")
            row = diag_gaussian_loglik(obs, dec["mean"], dec["logvar"])
            recon_k = row if recon_k is None else recon_k + row
        recon_k = recon_k * (1.0 / noise.shape[0])
        per_component.append(reshape(recon_k - kl_k * kl_weight, (n, 1)))
    rows = concat(per_component, axis=1)
    log_pi = reshape(log_softmax(point.pi_logits, axis=-1), (1, k_comp))
    total = tensor_sum(mul(q_z, log_pi - log_q_z + rows))
    return total * scale


def make_parts(k_comp, rng, n_workers=3, hidden=(8,)):
    """Point parameters away from their initial values, and small networks."""
    point = PointParams.init(k_comp, LATENT, n_workers, rng)
    point.pi_logits.data[:] = rng.standard_normal(k_comp)
    point.log_vars.data[:] = rng.normal(-1.0, 1.5, size=(k_comp, LATENT))
    posterior = AmortizedPosterior(
        encoder_z=Mlp([DIM, *hidden], {"logits": k_comp}, rng),
        encoder_x=Mlp(
            [k_comp + DIM, *hidden], {"mean": LATENT, "logvar": LATENT}, rng,
            clamp={"logvar": (-8.0, 8.0)},
        ),
    )
    decoder = Mlp(
        [LATENT, *hidden], {"mean": DIM, "logvar": DIM}, rng, clamp={"logvar": (-8.0, 8.0)}
    )
    return point, posterior, decoder


def all_parameters(point, posterior, decoder):
    return (
        point.parameters()
        + posterior.encoder_z.parameters()
        + posterior.encoder_x.parameters()
        + decoder.parameters()
    )


def value_and_grads(build, params):
    """Objective value and the gradient of every parameter (zeros where the
    objective does not depend on it)."""
    zero_grads(params)
    with Tape() as tape:
        total = build()
    backward(tape, total)
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    zero_grads(params)
    return float(total.data), grads


def assert_rel_close(actual, expected, tol):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected), initial=0.0) <= tol * np.max(
        np.abs(expected), initial=0.0
    )


# ---------------------------------------------------------------------------
# stacked batch against the per-component loop


@pytest.mark.parametrize(
    "k_comp, n_samples, kl_weight, narrow",
    list(itertools.product((1, 2, 5), (1, 3), (0.3, 1.0), (None, -2.0))),
)
def test_stacked_elbo_local_matches_component_loop(k_comp, n_samples, kl_weight, narrow):
    rng = np.random.default_rng(100 + 10 * k_comp + n_samples)
    point, posterior, decoder = make_parts(k_comp, rng)
    if narrow is not None:
        point.log_vars.data[0, 0] = narrow   # one narrow coordinate, one wide
        point.log_vars.data[-1, -1] = 0.5
    obs = rng.standard_normal((7, DIM))
    noise = rng.standard_normal((n_samples, k_comp, obs.shape[0], LATENT))
    params = all_parameters(point, posterior, decoder)
    kwargs = dict(noise=noise, scale=3.5, kl_weight=kl_weight)
    value, grads = value_and_grads(
        lambda: elbo_local(obs, point, posterior, decoder, **kwargs), params
    )
    ref_value, ref_grads = value_and_grads(
        lambda: per_component_elbo_local(obs, point, posterior, decoder, **kwargs), params
    )
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    for grad, ref in zip(grads, ref_grads):
        assert_rel_close(grad, ref, 1e-12)


def test_elbo_local_tape_does_not_grow_with_components():
    lengths = []
    for k_comp in (2, 8):
        rng = np.random.default_rng(5)
        point, posterior, decoder = make_parts(k_comp, rng)
        obs = rng.standard_normal((6, DIM))
        with Tape() as tape:
            elbo_local(obs, point, posterior, decoder, rng, n_samples=2)
        lengths.append(len(tape))
    assert lengths[0] == lengths[1]


def test_elbo_local_draws_noise_from_rng_in_component_major_order():
    rng = np.random.default_rng(8)
    point, posterior, decoder = make_parts(3, rng)
    obs = rng.standard_normal((4, DIM))
    drawn = elbo_local(obs, point, posterior, decoder, np.random.default_rng(21), n_samples=2)
    noise = np.random.default_rng(21).standard_normal((2, 3, 4, LATENT))
    given = elbo_local(obs, point, posterior, decoder, noise=noise)
    assert float(drawn.data) == float(given.data)


# ---------------------------------------------------------------------------
# enumeration oracles


def explicit_elbo_local(obs, point, posterior, decoder, noise, scale, kl_weight):
    """Per-item, per-component sum in plain numpy: univariate Gaussian KLs
    and scipy log-densities, one network evaluation per (item, component)."""
    k_comp = point.n_components
    log_pi = np_log_softmax(point.pi_logits.data)
    total = 0.0
    for i, o in enumerate(obs):
        log_q = np_log_softmax(posterior.encoder_z.forward(o[None])["logits"].data[0])
        for k in range(k_comp):
            heads = posterior.encoder_x.forward(np.concatenate([np.eye(k_comp)[k], o])[None])
            m, lv = heads["mean"].data[0], heads["logvar"].data[0]
            kl = sum(
                0.5 * (plv - qlv) + (np.exp(qlv) + (qm - pm) ** 2) / (2.0 * np.exp(plv)) - 0.5
                for qm, qlv, pm, plv in zip(m, lv, point.means.data[k], point.log_vars.data[k])
            )
            recon = 0.0
            for eps in noise[:, k, i]:
                dec = decoder.forward((m + np.exp(0.5 * lv) * eps)[None])
                dm, dlv = dec["mean"].data[0], dec["logvar"].data[0]
                recon += stats.norm.logpdf(o, dm, np.exp(0.5 * dlv)).sum()
            recon /= noise.shape[0]
            total += np.exp(log_q[k]) * (log_pi[k] - log_q[k] - kl_weight * kl + recon)
    return scale * total


@pytest.mark.parametrize("kl_weight, narrow", [(1.0, None), (0.3, -2.0)])
def test_elbo_local_two_components_against_explicit_sum(kl_weight, narrow):
    rng = np.random.default_rng(31)
    point, posterior, decoder = make_parts(2, rng)
    point.log_vars.data[0, 1] = -2.7
    if narrow is not None:
        point.log_vars.data[1, 0] = narrow
    obs = rng.standard_normal((5, DIM))
    noise = rng.standard_normal((2, 2, 5, LATENT))
    value = elbo_local(
        obs, point, posterior, decoder, noise=noise, scale=1.7, kl_weight=kl_weight
    )
    expected = explicit_elbo_local(obs, point, posterior, decoder, noise, 1.7, kl_weight)
    assert float(value.data) == pytest.approx(expected, rel=1e-12)


def random_store(rng, n_items, n_workers, n_triples):
    pairs = set()
    while len(pairs) < n_triples:
        i, j = rng.choice(n_items, size=2, replace=False)
        pairs.add((int(i), int(j), int(rng.integers(n_workers))))
    triples = [(i, j, m, int(rng.integers(2))) for i, j, m in sorted(pairs)]
    return AnnotationStore(triples, n_items=n_items, n_workers=n_workers)


def test_elbo_rel_against_triple_enumeration():
    rng = np.random.default_rng(41)
    n_items, n_workers = 9, 4
    store = random_store(rng, n_items, n_workers, 25)
    point = PointParams.init(3, LATENT, n_workers, rng)
    point.worker_logits.data[:] = 2.0 * rng.standard_normal((n_workers, 2))
    q = np.exp(np_log_softmax(rng.standard_normal((n_items, 3)), axis=1))
    log_stats = point.log_stats()   # (log a, log 1-a, log b, log 1-b)
    expected = 0.0
    for i, j, m, label in store.triples:
        p_same = float(q[i] @ q[j])
        log_a, log_1ma, log_b, log_1mb = log_stats[m]
        same = log_a if label == 1 else log_1ma
        diff = log_1mb if label == 1 else log_b
        expected += p_same * same + (1.0 - p_same) * diff
    value = elbo_rel(store, q, point, scale=2.5)
    assert float(value.data) == pytest.approx(2.5 * expected, rel=1e-12)


def test_elbo_rel_without_annotations_is_zero():
    point = PointParams.init(2, LATENT, 0, np.random.default_rng(0))
    assert float(elbo_rel(None, np.full((3, 2), 0.5), point).data) == 0.0


# ---------------------------------------------------------------------------
# finite differences


def check_finite_differences(evaluate, build, coordinates, h=1e-6, tol=1e-6):
    """Central differences of `evaluate` at each (tensor, index) against the
    tape gradient of `build`."""
    tensors = list({id(t): t for t, _ in coordinates}.values())
    _, grads = value_and_grads(build, tensors)
    by_id = {id(t): g for t, g in zip(tensors, grads)}
    for tensor, index in coordinates:
        saved = tensor.data[index]
        tensor.data[index] = saved + h
        up = evaluate()
        tensor.data[index] = saved - h
        down = evaluate()
        tensor.data[index] = saved
        numeric = (up - down) / (2.0 * h)
        assert by_id[id(tensor)][index] == pytest.approx(numeric, rel=tol, abs=tol)


@pytest.mark.parametrize("narrow", [None, -2.0])
def test_elbo_local_gradient_finite_differences(narrow):
    rng = np.random.default_rng(51)
    point, posterior, decoder = make_parts(3, rng)
    if narrow is not None:
        point.log_vars.data[0, 0] = narrow
    obs = rng.standard_normal((5, DIM))
    noise = rng.standard_normal((2, 3, 5, LATENT))

    def build():
        return elbo_local(obs, point, posterior, decoder, noise=noise, scale=2.0, kl_weight=0.7)

    coordinates = [
        (t, idx)
        for t in (point.pi_logits, point.means, point.log_vars)
        for idx in np.ndindex(t.data.shape)
    ]
    for net in (posterior.encoder_z, posterior.encoder_x, decoder):
        for t in net.parameters():
            coordinates.append((t, tuple(rng.integers(s) for s in t.data.shape)))
    check_finite_differences(lambda: float(build().data), build, coordinates)


def test_elbo_rel_gradient_finite_differences():
    rng = np.random.default_rng(61)
    n_items, n_workers = 7, 3
    store = random_store(rng, n_items, n_workers, 15)
    point = PointParams.init(3, LATENT, n_workers, rng)
    logits = parameter(rng.standard_normal((n_items, 3)))

    def build():
        return elbo_rel(store, exp(log_softmax(logits, axis=-1)), point, scale=1.5)

    coordinates = [(logits, idx) for idx in np.ndindex(logits.data.shape)]
    coordinates += [(point.worker_logits, idx) for idx in np.ndindex(point.worker_logits.data.shape)]
    check_finite_differences(lambda: float(build().data), build, coordinates)


# ---------------------------------------------------------------------------
# training loop


def small_problem(seed, with_annotations=True):
    rng = np.random.default_rng(seed)
    dataset = pinwheel_generate(3, 20, rng=rng)
    store = None
    if with_annotations:
        store = simulate_annotations(dataset, WorkerPool.homogeneous(4, 0.9, 0.9), 15, 30, rng)
    return dataset, store


SMALL = dict(n_components=4, hidden=(8,), batch_size=20, epochs=2)


def test_same_seed_gives_same_history():
    dataset, store = small_problem(0)
    first = train_scdc(dataset, store, ScdcConfig(**SMALL), np.random.default_rng(7))
    second = train_scdc(dataset, store, ScdcConfig(**SMALL), np.random.default_rng(7))
    assert len(first.history) == SMALL["epochs"]
    assert first.history == second.history
    assert first.model.to_dict() == second.model.to_dict()


@pytest.mark.parametrize("with_annotations", [True, False])
def test_model_json_round_trip_predicts_the_same(with_annotations):
    dataset, store = small_problem(1, with_annotations)
    result = train_scdc(dataset, store, ScdcConfig(**SMALL), np.random.default_rng(2))
    model = result.model
    assert model.point.n_workers == (4 if with_annotations else 0)
    clone = ScdcModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert clone.point.worker_logits.data.shape == (model.point.n_workers, 2)
    assert np.array_equal(clone.predict(dataset.observations), model.predict(dataset.observations))
    assert np.array_equal(
        clone.cluster_probs(dataset.observations), model.cluster_probs(dataset.observations)
    )
    assert clone.to_dict() == model.to_dict()


def test_divergence_restores_last_epoch_snapshot(monkeypatch):
    dataset, store = small_problem(2)
    config = ScdcConfig(**SMALL)
    finished = train_scdc(
        dataset, store, ScdcConfig(**{**SMALL, "epochs": 1}), np.random.default_rng(4)
    )
    updates_per_epoch = -(-dataset.n_items // config.batch_size)
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        total = elbo_local(*args, **kwargs)
        # second update of the second epoch: one update of that epoch has
        # already moved the parameters away from the snapshot
        return total * float("nan") if len(calls) == updates_per_epoch + 2 else total

    monkeypatch.setattr(scdc, "elbo_local", poisoned)
    result = train_scdc(dataset, store, config, np.random.default_rng(4))
    assert result.diverged
    assert len(calls) == updates_per_epoch + 2
    assert result.history == finished.history
    assert result.model.to_dict() == finished.model.to_dict()


# ---------------------------------------------------------------------------
# input validation


def test_elbo_local_rejects_bad_noise_and_sample_count():
    rng = np.random.default_rng(71)
    point, posterior, decoder = make_parts(2, rng)
    obs = rng.standard_normal((3, DIM))
    with pytest.raises(ValueError, match="noise"):
        elbo_local(obs, point, posterior, decoder, noise=np.zeros((0, 2, 3, LATENT)))
    with pytest.raises(ValueError, match="noise"):
        elbo_local(obs, point, posterior, decoder, noise=np.float64(0.5))
    with pytest.raises(ValueError, match="noise"):
        elbo_local(obs, point, posterior, decoder, noise=np.zeros((1, 3, 3, LATENT)))
    with pytest.raises(ValueError, match="n_samples"):
        elbo_local(obs, point, posterior, decoder, rng, n_samples=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("annotation_batch_size", 0),
        ("annotation_batch_size", -3),
        ("logvar_clamp", (2.0, 2.0)),
        ("logvar_clamp", (3.0, -3.0)),
        ("epochs", -1),
        ("batch_size", 0),
        ("kl_warmup", 1.5),
        ("kl_warmup", -0.1),
        ("n_components", 0),
        ("latent_dim", 0),
        ("n_samples", 0),
    ],
)
def test_config_rejects_bad_values_naming_the_field(field, value):
    for config in (ScdcConfig, BayesConfig):
        with pytest.raises(ValueError, match=f"^{field}"):
            config(**{field: value})


def test_config_accepts_valid_batch_and_clamps():
    for config in (ScdcConfig, BayesConfig):
        assert config(annotation_batch_size=1, logvar_clamp=(-1.0, 1.0)).annotation_batch_size == 1


@pytest.mark.parametrize("bounds", [(1.0, 1.0), (2.0, -2.0)])
def test_mlp_rejects_inverted_clamp(bounds):
    with pytest.raises(ValueError, match="clamp"):
        Mlp([2, 4], {"logvar": 2}, np.random.default_rng(0), clamp={"logvar": bounds})


def test_dataset_of_one_item_trains():
    dataset = Dataset(np.array([[0.3, -0.2]]))
    result = train_scdc(dataset, None, ScdcConfig(**{**SMALL, "epochs": 1}),
                        np.random.default_rng(0))
    assert len(result.history) == 1 and not result.diverged


# History and sha256 of the sorted-key model JSON of a 2-epoch run on
# small_problem(0), recorded with the per-node tape engine and the
# per-parameter optimizers (numpy 2.4, OpenBLAS, x86-64).  The lean engine
# must reproduce them bit for bit.
RECORDED_RUNS = {
    "adam": (
        [
            {"epoch": 0, "objective": -260.0935834531627, "effective_k": 4,
             "accuracy": 0.7333333333333333, "nmi": 0.7089943690268218},
            {"epoch": 1, "objective": -257.1720801131327, "effective_k": 4,
             "accuracy": 0.6666666666666666, "nmi": 0.7611702597222879},
        ],
        "f9c400d472c465adda7851dd0387dd2c1919ce804230d1c4561925470b888141",
    ),
}


@pytest.mark.parametrize("optimizer", ["adam"])
def test_training_reproduces_the_recorded_run(optimizer):
    dataset, store = small_problem(0)
    config = ScdcConfig(**SMALL)
    result = train_scdc(dataset, store, config, np.random.default_rng(7))
    history, digest = RECORDED_RUNS[optimizer]
    assert result.history == history
    model_json = json.dumps(result.model.to_dict(), sort_keys=True)
    assert hashlib.sha256(model_json.encode()).hexdigest() == digest
