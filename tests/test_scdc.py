"""Amortized SCDC terms and training loop: the stacked component batch
against the per-component loop, enumeration oracles for both ELBO terms,
finite-difference gradients, determinism, model round trips, divergence
restore and input validation."""

import hashlib
import itertools
import json
import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (
    composed_elbo_local,
    composed_gaussian_loglik,
    exp,
    log_softmax,
    reparameterize,
    reshape,
    worker_counts,
)
from scipy import stats
from scipy.special import log_softmax as np_log_softmax

from crowdmix import scdc
from crowdmix.data import Dataset, WorkerPool, pinwheel_generate, simulate_annotations
from crowdmix.driver import LOGVAR_CLAMP
from crowdmix.metrics import worker_weight_recovery
from crowdmix.mixture import GLOBAL_STEP, MixturePrior, init_global
from crowdmix.nnet import (
    Mlp,
    Tape,
    as_tensor,
    backward,
    constant,
    mul,
    parameter,
    take_rows,
    tensor_sum,
    zero_grads,
)
from crowdmix.relational import (
    AnnotationStore,
    BetaWorkers,
    beta_natural_gradient,
    expected_rel_loglik,
)
from crowdmix.scdc import (
    PointParams,
    ScdcConfig,
    ScdcModel,
    elbo_local,
    elbo_rel,
    train_scdc,
)
from crowdmix.vmp import BayesConfig, global_kl, train_bayes_scdc

DIM = 2      # observation width
LATENT = 2   # latent width


def per_component_elbo_local(observations, model, noise, scale, kl_weight):
    """Per-component reference for elbo_local: one latent-encoder and one
    decoder pass per component, each column placed into the (n, K) table
    by a one-hot mask.  The stacked batch must reproduce its value and
    gradients."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    n, _ = obs.shape
    point = model.point
    k_comp = point.n_components
    z_heads = model.encoder_z.forward(obs)
    log_q_z = log_softmax(z_heads["logits"], axis=-1)
    q_z = exp(log_q_z)
    rows = None
    for k in range(k_comp):
        indicator = np.zeros((n, k_comp))
        indicator[:, k] = 1.0
        x_heads = model.encoder_x.forward(np.concatenate([indicator, obs], axis=1))
        mean, logvar = x_heads["mean"], x_heads["logvar"]
        mu_k = take_rows(point.means, [k])
        lv_k = take_rows(point.log_vars, [k])
        centered = mean - mu_k
        kl_terms = (
            lv_k - logvar + (exp(logvar) + centered * centered) * exp(-lv_k) - 1.0
        )
        kl_k = tensor_sum(kl_terms, axis=-1) * 0.5
        dec = model.decoder.forward(reparameterize(mean, exp(logvar * 0.5), noise[k]))
        recon_k = composed_gaussian_loglik(obs, dec["mean"], dec["logvar"])
        column = reshape(recon_k - kl_k * kl_weight, (n, 1)) * np.eye(k_comp)[k]
        rows = column if rows is None else rows + column
    log_pi = reshape(log_softmax(point.pi_logits, axis=-1), (1, k_comp))
    total = tensor_sum(mul(q_z, log_pi - log_q_z + rows))
    return total * scale


def z_logits(model, obs):
    """Cluster-encoder logits of the batch, the tensor elbo_local takes."""
    return model.encoder_z.forward(obs)["logits"]


def make_model(k_comp, rng, n_workers=3, hidden=(8,)):
    """Point parameters away from their initial values, and small networks."""
    point = PointParams.init(k_comp, LATENT, rng)
    point.pi_logits.data[:] = rng.standard_normal(k_comp)
    point.log_vars.data[:] = rng.normal(-1.0, 1.5, size=(k_comp, LATENT))
    return ScdcModel(
        point=point,
        workers=BetaWorkers.init(n_workers),
        encoder_z=Mlp([DIM, *hidden], {"logits": k_comp}, rng),
        encoder_x=Mlp(
            [k_comp + DIM, *hidden], {"mean": LATENT, "logvar": LATENT}, rng,
            clamp={"logvar": (-8.0, 8.0)},
        ),
        decoder=Mlp(
            [LATENT, *hidden], {"mean": DIM, "logvar": DIM}, rng, clamp={"logvar": (-8.0, 8.0)}
        ),
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
    "k_comp, n_items, kl_weight, narrow",
    list(itertools.product((1, 2, 5), (1, 3), (0.3, 1.0), (None, -2.0))),
)
def test_stacked_elbo_local_matches_component_loop(k_comp, n_items, kl_weight, narrow):
    rng = np.random.default_rng(100 + 10 * k_comp + n_items)
    model = make_model(k_comp, rng)
    if narrow is not None:
        model.point.log_vars.data[0, 0] = narrow   # one narrow coordinate, one wide
        model.point.log_vars.data[-1, -1] = 0.5
    obs = rng.standard_normal((n_items, DIM))
    noise = rng.standard_normal((k_comp, n_items, LATENT))
    params = model.parameters()
    value, grads = value_and_grads(
        lambda: elbo_local(obs, z_logits(model, obs), model, noise, 3.5, kl_weight), params
    )
    ref_value, ref_grads = value_and_grads(
        lambda: per_component_elbo_local(obs, model, noise, 3.5, kl_weight), params
    )
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    for grad, ref in zip(grads, ref_grads):
        assert_rel_close(grad, ref, 1e-12)


def test_elbo_local_tape_does_not_grow_with_components():
    """The encoders' layers (hidden, heads, clamp), then elbo_local's
    three nodes: the draw, the decoder log-likelihood and the bound."""
    lengths = []
    for k_comp in (2, 8):
        rng = np.random.default_rng(5)
        model = make_model(k_comp, rng)
        obs = rng.standard_normal((6, DIM))
        noise = rng.standard_normal((k_comp, 6, LATENT))
        with Tape() as tape:
            elbo_local(obs, z_logits(model, obs), model, noise, 1.0, 1.0)
        lengths.append(len(tape))
    assert lengths == [2 + 4 + 4 + 3] * 2


class Probed:
    """A network whose input and heads pass through leaf offsets of zeros,
    so that the adjoint of each lands, unchanged, in its offset's .grad."""

    def __init__(self, net):
        self.net = net
        self.offsets = {}

    def forward(self, x):
        x = as_tensor(x)
        self.offsets["input"] = parameter(np.zeros(x.data.shape))
        heads = self.net.forward(x + self.offsets["input"])
        for name in heads:
            self.offsets[name] = parameter(np.zeros(heads[name].data.shape))
        return {name: y + self.offsets[name] for name, y in heads.items()}


@pytest.mark.parametrize(
    "k_comp, kl_weight, narrow",
    list(itertools.product((1, 4, 15), (0.0, 0.3, 1.0), (None, -2.0))),
)
def test_elbo_local_equals_the_composed_chain_bit_for_bit(k_comp, kl_weight, narrow):
    """The fused draw, log-likelihood and bound against the tape
    composition they replace (`oracles.composed_elbo_local`): the value,
    and the gradients of the nine tensors the fused nodes touch (the
    batch logits, both latent-encoder heads, the draw, both decoder heads
    and the three point tensors) and of every network weight, under
    np.array_equal."""
    rng = np.random.default_rng(200 + k_comp)
    model = make_model(k_comp, rng)
    if narrow is not None:
        model.point.log_vars.data[0, 0] = narrow
        model.point.log_vars.data[-1, -1] = 0.5
    obs = rng.standard_normal((6, DIM))
    noise = rng.standard_normal((k_comp, 6, LATENT))
    logits = parameter(z_logits(model, obs).data)
    results = []
    for build in (elbo_local, composed_elbo_local):
        encoder_x, decoder = Probed(model.encoder_x), Probed(model.decoder)
        probed = SimpleNamespace(point=model.point, encoder_x=encoder_x, decoder=decoder)
        with Tape() as tape:
            total = build(obs, logits, probed, noise, 3.5, kl_weight)
        tensors = [
            logits, encoder_x.offsets["mean"], encoder_x.offsets["logvar"],
            decoder.offsets["input"], decoder.offsets["mean"], decoder.offsets["logvar"],
            *model.point.parameters(), *model.encoder_x.parameters(), *model.decoder.parameters(),
        ]
        zero_grads(tensors)
        backward(tape, total)
        results.append([total.data] + [t.grad for t in tensors])
        zero_grads(tensors)
    assert len(results[0]) == 1 + 9 + 2 * 6
    for got, want in zip(*results):
        assert got is not None and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# enumeration oracles


def explicit_elbo_local(obs, model, noise, scale, kl_weight):
    """Per-item, per-component sum in plain numpy: univariate Gaussian KLs
    and scipy log-densities, one network evaluation per (item, component)."""
    point = model.point
    k_comp = point.n_components
    log_pi = np_log_softmax(point.pi_logits.data)
    total = 0.0
    for i, o in enumerate(obs):
        log_q = np_log_softmax(model.encoder_z.forward(o[None])["logits"].data[0])
        for k in range(k_comp):
            heads = model.encoder_x.forward(np.concatenate([np.eye(k_comp)[k], o])[None])
            m, lv = heads["mean"].data[0], heads["logvar"].data[0]
            kl = sum(
                0.5 * (plv - qlv) + (np.exp(qlv) + (qm - pm) ** 2) / (2.0 * np.exp(plv)) - 0.5
                for qm, qlv, pm, plv in zip(m, lv, point.means.data[k], point.log_vars.data[k])
            )
            dec = model.decoder.forward((m + np.exp(0.5 * lv) * noise[k, i])[None])
            dm, dlv = dec["mean"].data[0], dec["logvar"].data[0]
            recon = stats.norm.logpdf(o, dm, np.exp(0.5 * dlv)).sum()
            total += np.exp(log_q[k]) * (log_pi[k] - log_q[k] - kl_weight * kl + recon)
    return scale * total


@pytest.mark.parametrize("kl_weight, narrow", [(1.0, None), (0.3, -2.0)])
def test_elbo_local_two_components_against_explicit_sum(kl_weight, narrow):
    rng = np.random.default_rng(31)
    model = make_model(2, rng)
    model.point.log_vars.data[0, 1] = -2.7
    if narrow is not None:
        model.point.log_vars.data[1, 0] = narrow
    obs = rng.standard_normal((5, DIM))
    noise = rng.standard_normal((2, 5, LATENT))
    value = elbo_local(obs, z_logits(model, obs), model, noise, 1.7, kl_weight)
    expected = explicit_elbo_local(obs, model, noise, 1.7, kl_weight)
    assert float(value.data) == pytest.approx(expected, rel=1e-12)


def random_store(rng, n_items, n_workers, n_triples):
    pairs = set()
    while len(pairs) < n_triples:
        i, j = rng.choice(n_items, size=2, replace=False)
        pairs.add((int(i), int(j), int(rng.integers(n_workers))))
    triples = [(i, j, m, int(rng.integers(2))) for i, j, m in sorted(pairs)]
    return AnnotationStore(triples, n_items=n_items, n_workers=n_workers)


def enumerate_triples(store, q, log_stats) -> float:
    """Expected two-coin log-likelihood summed triple by triple."""
    expected = 0.0
    for i, j, m, label in store.triples:
        p_same = float(q[i] @ q[j])
        log_a, log_1ma, log_b, log_1mb = log_stats[m]
        same = log_a if label == 1 else log_1ma
        diff = log_1mb if label == 1 else log_b
        expected += p_same * same + (1.0 - p_same) * diff
    return expected


def test_elbo_rel_against_triple_enumeration():
    rng = np.random.default_rng(41)
    n_items, n_workers = 9, 4
    store = random_store(rng, n_items, n_workers, 25)
    workers = BetaWorkers.from_taus(*rng.uniform(0.5, 20, (2, n_workers, 2)))
    q = np.exp(np_log_softmax(rng.standard_normal((n_items, 3)), axis=1))
    log_stats = workers.log_stats()   # (log a, log 1-a, log b, log 1-b)
    expected = enumerate_triples(store, q, log_stats)
    value, counts = elbo_rel(store, constant(q), workers, 2.5)
    assert float(value.data) == pytest.approx(2.5 * expected, rel=1e-12)
    assert np.array_equal(counts, worker_counts(store, q))

    # the simulator's true workers through the same function
    pool = WorkerPool(rng.uniform(0.05, 1.0, n_workers), rng.uniform(0.05, 1.0, n_workers))
    value, _ = expected_rel_loglik(store, q, pool.log_stats(), 2.5)
    expected = enumerate_triples(store, q, pool.log_stats())
    assert float(value.data) == pytest.approx(2.5 * expected, rel=1e-12)


def test_elbo_rel_without_annotations_is_zero():
    store = AnnotationStore([], n_items=3, n_workers=0)
    value, counts = elbo_rel(store, constant(np.full((3, 2), 0.5)), BetaWorkers.init(0), 1.0)
    assert float(value.data) == 0.0 and counts.shape == (0, 4)


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
    model = make_model(3, rng)
    point = model.point
    if narrow is not None:
        point.log_vars.data[0, 0] = narrow
    obs = rng.standard_normal((5, DIM))
    noise = rng.standard_normal((3, 5, LATENT))

    def build():
        return elbo_local(obs, z_logits(model, obs), model, noise, 2.0, 0.7)

    coordinates = [
        (t, idx)
        for t in (point.pi_logits, point.means, point.log_vars)
        for idx in np.ndindex(t.data.shape)
    ]
    for net in (model.encoder_z, model.encoder_x, model.decoder):
        for t in net.parameters():
            coordinates.append((t, tuple(rng.integers(s) for s in t.data.shape)))
    check_finite_differences(lambda: float(build().data), build, coordinates)


@pytest.mark.parametrize("shape", [(1, 2), (7, 3), (100, 15)])
def test_softmax_node_equals_the_composition_bit_for_bit(shape):
    """`scdc._softmax` against exp(log_softmax(logits)), its three-node
    oracle, with a second path into the logits taped before it, as the
    encoder pass's `take_rows` is in training: the same value, the same
    gradient and one tape node where the composition has three."""
    rng = np.random.default_rng(shape[0])
    logits = parameter(rng.normal(size=shape, scale=5.0))
    weight = constant(rng.normal(size=shape))
    rows = rng.integers(shape[0], size=2 * shape[0])
    results = []
    for softmax in (scdc._softmax, lambda a: exp(log_softmax(a, axis=-1))):
        with Tape() as tape:
            first = tensor_sum(take_rows(logits, rows))
            start = len(tape)
            q_z = softmax(logits)
            nodes = len(tape) - start
            total = first + tensor_sum(mul(q_z, weight))
        backward(tape, total)
        results.append((q_z.data, logits.grad, nodes))
        zero_grads([logits])
    (value, grad, nodes), (want_value, want_grad, want_nodes) = results
    assert np.array_equal(value, want_value) and np.array_equal(grad, want_grad)
    assert (nodes, want_nodes) == (1, 3)


def test_elbo_rel_gradient_finite_differences():
    rng = np.random.default_rng(61)
    n_items, n_workers = 7, 3
    store = random_store(rng, n_items, n_workers, 15)
    workers = BetaWorkers.from_taus(*rng.uniform(0.5, 20, (2, n_workers, 2)))
    logits = parameter(rng.standard_normal((n_items, 3)))

    def build():
        return elbo_rel(store, exp(log_softmax(logits, axis=-1)), workers, 1.5)[0]

    coordinates = [(logits, idx) for idx in np.ndindex(logits.data.shape)]
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
    assert model.workers.n_workers == (4 if with_annotations else 0)
    clone = ScdcModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert clone.workers.eta.shape == (model.workers.n_workers, 2, 2)
    assert np.array_equal(clone.predict(dataset.observations), model.predict(dataset.observations))
    for name in ("encoder_z", "encoder_x", "decoder"):
        net, net_clone = getattr(model, name), getattr(clone, name)
        x = np.random.default_rng(3).standard_normal((5, net.sizes[0]))
        for head, value in net.forward(x).items():
            assert np.array_equal(net_clone.forward(x)[head].data, value.data)
    assert clone.to_dict() == model.to_dict()


def test_model_document_with_a_non_finite_decoder_bias_does_not_load():
    doc = json.loads(json.dumps(make_model(3, np.random.default_rng(0)).to_dict()))
    doc["decoder"]["head_biases"]["mean"][0] = float("inf")
    with pytest.raises(ValueError, match=r"^decoder: head_biases\['mean'\] has non-finite values"):
        ScdcModel.from_dict(doc)


@pytest.mark.parametrize(
    "field, sizes, heads, message",
    [
        ("encoder_z", [DIM, 8], {"logits": 5},
         "encoder_z: head 'logits' has 5 outputs, the point parameters' n_components is 3"),
        ("encoder_z", [DIM, 8], {"mean": 3}, "encoder_z: heads ['mean'], need ['logits']"),
        ("encoder_x", [DIM + 2, 8], {"mean": LATENT, "logvar": LATENT},
         "encoder_x: input width 4, n_components + the encoder_z input width is 5"),
        ("encoder_x", [3 + DIM, 8], {"mean": 3, "logvar": 3},
         "encoder_x: head 'mean' has 3 outputs, the point parameters' latent_dim is 2"),
        ("decoder", [3, 8], {"mean": DIM, "logvar": DIM},
         "decoder: input width 3, the point parameters' latent_dim is 2"),
        ("decoder", [LATENT, 8], {"mean": 3, "logvar": 3},
         "decoder: head 'mean' has 3 outputs, the encoder_z input width is 2"),
    ],
    ids=[
        "encoder-z-logits", "encoder-z-head-names", "encoder-x-input", "encoder-x-latent",
        "decoder-input", "decoder-output",
    ],
)
def test_model_document_with_a_network_of_another_width_does_not_load(
    field, sizes, heads, message
):
    doc = json.loads(json.dumps(make_model(3, np.random.default_rng(0)).to_dict()))
    doc[field] = Mlp(sizes, heads, np.random.default_rng(1)).state_dict()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScdcModel.from_dict(doc)


def _fractional_hidden_width(doc):
    doc["encoder_z"]["sizes"][1] = 8.5


def _no_logits_bias(doc):
    del doc["encoder_z"]["head_biases"]["logits"]


def _ragged_point_means(doc):
    doc["point"]["means"][1] = [0.5]


def _nan_point_means(doc):
    doc["point"]["means"][0][1] = float("nan")


def _no_point_means(doc):
    del doc["point"]["means"]


def _no_point_pi_logits(doc):
    del doc["point"]["pi_logits"]


def _wide_worker_taus(doc):
    doc["workers"]["alpha_taus"] = [[9.0, 1.0, 1.0]] * 3


def _ragged_worker_taus(doc):
    doc["workers"]["beta_taus"][0] = [9.0]


def _empty_worker_rows(doc):
    doc["workers"] = {"alpha_taus": [[]], "beta_taus": [[]]}


def _listed_heads(doc):
    doc["encoder_z"]["heads"] = list(doc["encoder_z"]["heads"])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_fractional_hidden_width, "encoder_z: sizes[1] must be an integer"),
        (_no_logits_bias, "encoder_z: head_biases['logits'] has no saved array"),
        (_ragged_point_means, "point: setting an array element with a sequence"),
        (_nan_point_means, "point: means must be finite"),
        (_wide_worker_taus, "workers.alpha_taus: shape (3, 3), need (M, 2)"),
        (_ragged_worker_taus, "workers.beta_taus: setting an array element with a sequence"),
        (_no_point_means, "point: means is missing"),
        (_no_point_pi_logits, "point: pi_logits is missing"),
        (_empty_worker_rows, "workers.alpha_taus: shape (1, 0), need (M, 2)"),
        (_listed_heads, "encoder_z: 'list' object has no attribute 'items'"),
    ],
    ids=[
        "fractional-size", "missing-head-bias", "ragged-means", "nan-means", "alpha-taus-width",
        "ragged-beta-taus", "missing-means", "missing-pi-logits", "empty-tau-rows",
        "listed-heads",
    ],
)
def test_model_document_names_a_network_that_cannot_load(corrupt, message):
    """A network, the point parameters or the workers that cannot load
    fail naming their field."""
    doc = json.loads(json.dumps(make_model(3, np.random.default_rng(0)).to_dict()))
    corrupt(doc)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        ScdcModel.from_dict(doc)


@pytest.mark.parametrize("bad", [{"a": 1}, "abc"], ids=["object", "string"])
@pytest.mark.parametrize("key", ["alpha_taus", "beta_taus"])
def test_model_document_names_worker_taus_that_hold_no_numbers(key, bad):
    doc = json.loads(json.dumps(make_model(3, np.random.default_rng(0)).to_dict()))
    doc["workers"][key] = bad
    with pytest.raises(ValueError, match=f"^workers.{key}: "):
        ScdcModel.from_dict(doc)


def test_an_older_document_with_worker_logits_loads_with_zero_workers():
    """Documents written before the workers were a Beta record hold
    `point.worker_logits` and no `workers`; they predict as before."""
    dataset, store = small_problem(1)
    model = train_scdc(dataset, store, ScdcConfig(**SMALL), np.random.default_rng(2)).model
    doc = json.loads(json.dumps(model.to_dict()))
    del doc["workers"]
    doc["point"]["worker_logits"] = [[0.3, -1.2]] * model.workers.n_workers
    older = ScdcModel.from_dict(doc)
    assert older.workers.eta.shape == (0, 2, 2)
    assert np.array_equal(older.predict(dataset.observations), model.predict(dataset.observations))


# ---------------------------------------------------------------------------
# input validation


def test_elbo_local_rejects_bad_noise_and_sample_count():
    """Noise must be one draw per (component, item): (K, n, d), with no
    leading sample axis."""
    rng = np.random.default_rng(71)
    model = make_model(2, rng)
    obs = rng.standard_normal((3, DIM))
    for noise in (
        np.zeros((1, 2, 3, LATENT)),
        np.zeros((0, 2, 3, LATENT)),
        np.float64(0.5),
        np.zeros((3, 3, LATENT)),
        np.zeros((2, 4, LATENT)),
        np.zeros((2, 3, LATENT + 1)),
    ):
        with pytest.raises(ValueError, match="noise"):
            elbo_local(obs, z_logits(model, obs), model, noise, 1.0, 1.0)


def test_elbo_local_rejects_logits_not_of_the_batch():
    """The logits must be the batch rows, not those of a larger working
    set, and have one column per component."""
    rng = np.random.default_rng(72)
    model = make_model(2, rng)
    obs = rng.standard_normal((3, DIM))
    noise = np.zeros((2, 3, LATENT))
    working = np.concatenate([obs, rng.standard_normal((2, DIM))])
    for logits in (z_logits(model, working), constant(np.zeros((3, 3)))):
        with pytest.raises(ValueError, match="logits"):
            elbo_local(obs, logits, model, noise, 1.0, 1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", -1),
        ("epochs", 2.5),
        ("batch_size", 0),
        # scalar rows first: pytest numbers the tuple rows' ids by position
        ("batch_size", 50.0),
        ("n_components", "15"),
        ("n_components", 0),
        ("latent_dim", 0),
        ("batch_size", -4),
        ("hidden", 40),
        ("hidden", (0,)),
        ("hidden", (-2,)),
        ("hidden", (40, 0)),
        ("hidden", (40.5,)),
        ("latent_dim", 2.0),
    ],
)
def test_config_rejects_bad_values_naming_the_field(field, value):
    for config in (ScdcConfig, BayesConfig):
        with pytest.raises(ValueError, match=f"^{field}"):
            config(**{field: value})


@pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf"), True, False, "0.1", None, [0.1]])
def test_config_rejects_a_learning_rate_that_is_not_finite_and_non_negative(lr):
    """A bool is no rate, though Python counts it as a number, and a string
    or None fails naming the field, not in the comparison."""
    for config in (ScdcConfig, BayesConfig):
        with pytest.raises(ValueError, match="^lr must be a finite non-negative number"):
            config(lr=lr)


def test_config_accepts_numpy_integer_counts():
    counts = {"n_components": 4, "latent_dim": 2, "epochs": 3, "batch_size": 10}
    for config in (ScdcConfig, BayesConfig):
        numpy_config = config(**{k: np.int64(v) for k, v in counts.items()}, hidden=(np.int32(8),))
        assert numpy_config == config(**counts, hidden=(8,))


def test_config_accepts_valid_batch_and_clamps():
    """Both trainers clip every log-variance head to the one shared
    interval."""
    dataset = Dataset(np.random.default_rng(0).standard_normal((6, DIM)), None)
    for config, train in ((ScdcConfig, train_scdc), (BayesConfig, train_bayes_scdc)):
        model = train(dataset, None, config(epochs=0, hidden=(4,)), np.random.default_rng(1)).model
        nets = [model.decoder] + ([model.encoder_x] if config is ScdcConfig else [])
        assert [net.clamp for net in nets] == [{"logvar": LOGVAR_CLAMP}] * len(nets)
    assert LOGVAR_CLAMP == (-8.0, 8.0)


@pytest.mark.parametrize("bounds", [(1.0, 1.0), (2.0, -2.0)])
def test_mlp_rejects_inverted_clamp(bounds):
    with pytest.raises(ValueError, match="clamp"):
        Mlp([2, 4], {"logvar": 2}, np.random.default_rng(0), clamp={"logvar": bounds})


def test_dataset_of_one_item_trains():
    dataset = Dataset(np.array([[0.3, -0.2]]))
    result = train_scdc(dataset, None, ScdcConfig(**{**SMALL, "epochs": 1}),
                        np.random.default_rng(0))
    assert len(result.history) == 1 and not result.diverged


def test_global_kl_is_the_worker_block_of_the_bayesian_global_kl():
    """The amortized model's KL is that of its worker record from
    WORKER_PRIOR: 0 at the prior, and what `vmp.global_kl` adds for the
    same record."""
    rng = np.random.default_rng(3)
    model = make_model(3, rng, n_workers=4)
    at_prior = replace(model, workers=BetaWorkers(np.zeros((4, 2, 2))))
    assert at_prior.global_kl() == 0.0
    assert replace(model, workers=BetaWorkers.init(0)).global_kl() == 0.0
    prior = MixturePrior(3, LATENT)
    bare = init_global(prior, rng)  # zero workers
    for workers in (BetaWorkers.init(4), BetaWorkers.from_taus(*rng.uniform(0.5, 20, (2, 4, 2)))):
        with_workers = replace(bare, workers=workers)
        block = global_kl(with_workers, prior) - global_kl(bare, prior)
        assert replace(model, workers=workers).global_kl() == pytest.approx(block, rel=1e-12)
        assert block > 0.0


def test_an_update_steps_the_workers_toward_the_working_set_target(monkeypatch):
    """One update (the batch is the whole dataset) moves the worker record
    from its start by GLOBAL_STEP toward beta_natural_gradient's target for
    the confusion counts that the annotation term returned with its value,
    those of the q(z) it saw, bit for bit."""
    dataset, store = small_problem(3)
    seen = []

    def recording(update_store, q_z, workers, scale):
        term, counts = elbo_rel(update_store, q_z, workers, scale)
        seen.append((update_store, q_z.data.copy(), workers, scale, counts))
        return term, counts

    monkeypatch.setattr(scdc, "elbo_rel", recording)
    config = ScdcConfig(**{**SMALL, "epochs": 1, "batch_size": dataset.n_items})
    result = train_scdc(dataset, store, config, np.random.default_rng(5))
    [(update_store, q_z, workers, scale, counts)] = seen
    start = BetaWorkers.init(store.n_workers)
    assert np.array_equal(workers.eta, start.eta)
    assert q_z.shape == (update_store.n_items, SMALL["n_components"])
    assert np.array_equal(counts, worker_counts(update_store, q_z))
    target = beta_natural_gradient(counts, scale)
    want = start.eta + GLOBAL_STEP * (target.eta - start.eta)
    assert np.array_equal(result.model.workers.eta, want)
    assert not np.array_equal(want, start.eta)


def test_an_update_records_twenty_tape_nodes(monkeypatch):
    """At the default hidden widths, (40, 40), one update tapes 20 nodes:
    the cluster encoder's 3 layers, `take_rows`, the latent encoder's 5
    (with the clamp), the draw, the decoder's 5, its log-likelihood, the
    bound, the softmax node, the relational op and the final sum.  A lost
    fusion adds nodes here."""
    dataset, store = small_problem(0)
    lengths = []

    def counting(tape, output):
        lengths.append(len(tape))
        return backward(tape, output)

    monkeypatch.setattr(scdc, "backward", counting)
    config = ScdcConfig(n_components=4, batch_size=20, epochs=1)
    assert config.hidden == (40, 40)
    train_scdc(dataset, store, config, np.random.default_rng(7))
    assert lengths == [20] * -(-dataset.n_items // config.batch_size)


def test_each_update_calls_the_relational_op_once(monkeypatch):
    """crowdbench's `scdc.elbo_rel` span wraps the one call site of the
    relational op: each update calls `elbo_rel` once, and it calls
    `expected_rel_loglik` once, so p_same is computed once per update."""
    dataset, store = small_problem(0)
    config = ScdcConfig(**{**SMALL, "epochs": 1})
    names = ("elbo_rel", "expected_rel_loglik")
    counts, snapshots = Counter(), []

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(scdc, name, counted(name, getattr(scdc, name)))
    batches = scdc.minibatch_iterator

    def snapshotting(*args, **kwargs):
        for batch in batches(*args, **kwargs):
            snapshots.append(Counter(counts))
            yield batch
        snapshots.append(Counter(counts))

    monkeypatch.setattr(scdc, "minibatch_iterator", snapshotting)
    train_scdc(dataset, store, config, np.random.default_rng(7))
    # a snapshot before each update and one after the last
    per_update = [after - before for before, after in zip(snapshots, snapshots[1:])]
    assert len(per_update) == -(-dataset.n_items // config.batch_size)
    assert all(calls == Counter(names) for calls in per_update)


@pytest.mark.parametrize("seed", range(3))
def test_training_ranks_a_mixed_pool_of_workers(seed):
    """Good (0.95), spamming (0.5) and adversarial (0.2) workers: the
    learned vote weights rank the three groups apart."""
    rng = np.random.default_rng(seed)
    dataset = pinwheel_generate(4, 30, rng=rng)
    accuracy = np.repeat([0.95, 0.5, 0.2], [4, 3, 3])
    pool = WorkerPool(accuracy, accuracy)
    store = simulate_annotations(dataset, pool, 80, dataset.n_items, rng)
    config = ScdcConfig(**{**SMALL, "batch_size": 30, "epochs": 10})
    result = train_scdc(dataset, store, config, rng)
    assert worker_weight_recovery(result.model.workers, pool.weights) >= 0.9


# History and sha256 of the sorted-key model JSON of a 2-epoch run on
# small_problem(0), recorded with one cluster-encoder pass per update over
# the working set, the annotation term from relational.expected_rel_loglik,
# and the workers as a BetaWorkers record that starts at Beta(10, 1) and
# steps by GLOBAL_STEP after each Adam step; the worker logits, and their
# uniform draw from the training generator, are gone (numpy 2.4.6,
# OpenBLAS, x86-64; another BLAS may change the last bits).  The two
# objective values were re-taken, with the digest and every other field
# unchanged, once `driver.fit` began subtracting the KL of the epoch's
# worker record from its prior (`ScdcModel.global_kl`) from the mean of
# the updates' ELBO terms (it was -308.85493261456776 and
# -296.4245425169092).  Both objectives and the digest were re-taken once
# the latent KL weight began to ramp over the first half of the updates
# (`scdc.KL_WARMUP`, 0.5) instead of standing at 1 from the first update
# (they were -317.6825549718501, -303.9432333985706 and ee04ba6e...);
# the scores did not change.  Both held, bit for bit, when the annotation
# term became one fused tape node in place of eight, whose value is read
# off the confusion counts it returns for the worker step.  The current
# code must reproduce them bit for bit.
RECORDED_RUNS = {
    "adam": (
        [
            {"epoch": 0, "objective": -238.8054954410181, "effective_k": 4,
             "accuracy": 1.0, "nmi": 1.0},
            {"epoch": 1, "objective": -304.95377730473757, "effective_k": 4,
             "accuracy": 0.9833333333333333, "nmi": 0.9393655163762187},
        ],
        "b0731772e3ee497318e44f3570910a23d26d7f360c5cd61c76fda3768bb29cd9",
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
