"""Block-coordinate local updates, objective brackets and the
natural-gradient training loop, checked against quadrature and
enumeration oracles."""

import hashlib
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import log_softmax

import oracles
from oracles import (
    color_classes,
    local_posteriors,
    neighbor_lists,
    potential_bracket,
    surrogate_elbo,
    with_local_x,
    worker_counts,
)
from test_relational import reference_message_weights
from crowdmix import nnet, vmp
from crowdmix.data import Dataset, WorkerPool, pinwheel_generate, simulate_annotations
from crowdmix.driver import gaussian_mlp
from crowdmix.expfam import DirichletNat, NiwNat
from crowdmix.mixture import (
    NO_WORKERS,
    GlobalExpectations,
    GlobalVariational,
    MixturePrior,
    global_expectations,
    init_global,
    mixture_natural_gradient,
    apply_natural_gradient,
)
from crowdmix.nnet import (
    Mlp,
    Tape,
    Tensor,
    TrainingDivergence,
    backward,
    spd_factor,
    take_rows,
    zero_grads,
)
from crowdmix.relational import (
    AnnotationStore,
    BetaWorkers,
    beta_natural_gradient,
    expected_rel_loglik,
    sample_annotation_minibatch,
)
from crowdmix.vmp import (
    LOCAL_SWEEPS,
    PRECISION_FLOOR,
    PREDICT_SWEEPS,
    AnnotationGraph,
    BayesConfig,
    BayesModel,
    LocalVariational,
    _log_softmax_columns,
    _mix,
    _network_objective,
    annotation_graph,
    block_coordinate_local,
    component_logits,
    evidence,
    final_objective,
    global_kl,
    local_kl,
    recognition_potential,
    train_bayes_scdc,
    update_local_x,
    update_local_z,
)


def scalar_glob(alphas, components, workers=NO_WORKERS) -> GlobalVariational:
    """K scalar components given as (m, kappa, S, nu) tuples."""
    m, kappa, s, nu = np.array(components, dtype=float).T
    return GlobalVariational(
        DirichletNat.from_alpha(np.asarray(alphas, dtype=float)),
        NiwNat.from_standard(m[:, None], kappa, s[:, None, None], nu),
        workers,
    )


def prior_components(prior: MixturePrior) -> NiwNat:
    """The prior NIW repeated once per component."""
    m0, kappa0, s0, nu0 = prior.niw_nat().to_standard()
    return NiwNat.from_standard(
        np.broadcast_to(m0, (prior.n_components, prior.latent_dim)), kappa0, s0, nu0
    )


def scalar_local(resp, means, variances) -> LocalVariational:
    """d=1 local posteriors from responsibilities and Gaussian moments."""
    resp = np.asarray(resp, dtype=float)
    means = np.asarray(means, dtype=float).reshape(-1)
    variances = np.asarray(variances, dtype=float).reshape(-1)
    log_resp = np.full_like(resp, -np.inf)
    np.log(resp, out=log_resp, where=resp > 0.0)
    x_j = (-0.5 / variances)[:, None, None]
    return LocalVariational(
        log_resp=log_resp,
        x_h=(means / variances)[:, None],
        x_j=x_j,
        x_mean=means[:, None],
        x_cov=variances[:, None, None],
        x_logdet=np.linalg.slogdet(-2.0 * x_j)[1],
    )


def point_mass_expectations(pi, means, covs) -> GlobalExpectations:
    """Expected-statistic container for exact (point) mixture parameters."""
    precs = np.linalg.inv(covs)
    return GlobalExpectations(
        log_pi=np.log(np.asarray(pi, dtype=float)),
        mean_prec=np.einsum("kij,kj->ki", precs, means),
        neg_half_prec=-0.5 * precs,
        neg_half_mahal=-0.5 * np.einsum("ki,kij,kj->k", means, precs, means),
        neg_half_logdet=-0.5 * np.linalg.slogdet(covs)[1],
    )


def zeroed_net(sizes, heads, clamp=None) -> Mlp:
    net = Mlp(sizes, heads, np.random.default_rng(0), clamp=clamp)
    for p in net.parameters():
        p.data = np.zeros_like(p.data)
    return net


TEST_COMPONENTS = ((0.3, 2.0, 1.5, 3.2), (-0.8, 1.1, 0.9, 2.7))
TEST_ALPHAS = (2.0, 3.0)
TEST_PRIOR = MixturePrior(2, 1)  # Dirichlet(0.025, 0.025), NIW(0, 0.5, 1.5, 1.5) on each component


def one_worker() -> BetaWorkers:
    return BetaWorkers.from_taus([(3.0, 2.0)], [(4.0, 1.0)])


# ---------------------------------------------------------------------------
# recognition potentials


def test_zero_network_potential_is_flat_with_floor_precision():
    net = zeroed_net([2, 4], {"loc": 3, "prec_raw": 3})
    h, j_diag = recognition_potential(net, np.random.default_rng(1).normal(size=(5, 2)))
    assert np.all(h == 0.0)
    assert np.allclose(j_diag, -(math.log(2.0) + PRECISION_FLOOR))


def test_random_network_potential_precisions_strictly_negative():
    rng = np.random.default_rng(7)
    net = Mlp([3, 8], {"loc": 2, "prec_raw": 2}, rng)
    h, j_diag = recognition_potential(net, rng.normal(size=(40, 3), scale=5.0))
    assert np.all(j_diag < 0.0)
    assert h.shape == (40, 2)


def test_non_finite_network_output_raises_divergence():
    net = zeroed_net([2, 4], {"loc": 2, "prec_raw": 2})
    net.head_biases["loc"].data = np.array([np.nan, 0.0])
    with pytest.raises(TrainingDivergence):
        recognition_potential(net, np.zeros((3, 2)))


def test_potential_validates_shape_and_sign():
    """The local step checks the evidence it is handed: matching (n, d)
    arrays, and a strictly negative j_diag."""
    glob = init_global(MixturePrior(2, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="^j_diag must be strictly negative$"):
        block_coordinate_local(glob, np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^h and j_diag must be matching \(n, d\) arrays$"):
        block_coordinate_local(glob, np.zeros((2, 2)), -np.ones((2, 3)))


# ---------------------------------------------------------------------------
# local x updates


def refresh_items(resp, exps, h, j_diag):
    """update_local_x on (n, K) probabilities and (n, d) evidence, its
    results moved to item-major (n, d), (n, d, d) and (n,) arrays."""
    x_h, x_prec, x_mean, x_cov, x_logdet = update_local_x(
        np.ascontiguousarray(np.asarray(resp, dtype=float).T), exps, h.T, j_diag.T
    )
    return x_h.T, -0.5 * x_prec.transpose(2, 0, 1), x_mean.T, x_cov.transpose(2, 0, 1), x_logdet


def logits_of_items(exps, x_mean, x_cov):
    """component_logits of item-major (n, d) means and (n, d, d) covariances."""
    return logits_of(exps, x_mean.T, x_cov.transpose(1, 2, 0))


def logits_of(exps, x_mean, x_cov):
    """component_logits into (K, n) buffers of its own."""
    out = np.empty((exps.log_pi.shape[0], x_mean.shape[1]))
    return component_logits(exps, x_mean, x_cov, out, np.empty_like(out))


def local_z(logits, neighbors, resp):
    """update_local_z on copies of the logits and probabilities, with a
    scratch array of its own."""
    resp = np.array(resp, dtype=float)
    return update_local_z(np.array(logits, dtype=float), neighbors, resp, np.empty_like(resp))


def test_identical_components_uniform_resp_reduce_to_single_component():
    # two equal components under uniform q(z) act like one: with a barely
    # visible potential the latent natural parameters are the component's
    # expected Gaussian parameters.
    comp = (0.4, 2.5, 1.8, 3.0)
    glob = scalar_glob([1.0, 1.0], [comp, comp])
    exps = global_expectations(glob)
    pot = (np.zeros((1, 1)), np.full((1, 1), -1e-13))
    x_h, x_j, _, _, _ = refresh_items(np.array([[0.5, 0.5]]), exps, *pot)
    assert abs(x_h[0, 0] - exps.mean_prec[0, 0]) < 1e-10
    assert abs(x_j[0, 0, 0] - exps.neg_half_prec[0, 0, 0]) < 1e-10


def test_local_x_update_matches_scalar_arithmetic():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS)
    exps = global_expectations(glob)
    pot = (np.array([[0.5]]), np.array([[-1.0]]))
    resp = np.array([[0.3, 0.7]])
    x_h, x_j, x_mean, x_cov, x_logdet = refresh_items(resp, exps, *pot)
    expected_h = expected_j = 0.0
    for r, (m, _, s, nu) in zip(resp[0], TEST_COMPONENTS):
        expected_h += r * nu * m / s
        expected_j += r * (-0.5 * nu / s)
    expected_h += 0.5
    expected_j += -1.0
    assert abs(x_h[0, 0] - expected_h) < 1e-12
    assert abs(x_j[0, 0, 0] - expected_j) < 1e-12
    assert abs(x_cov[0, 0, 0] - 1.0 / (-2.0 * expected_j)) < 1e-12
    assert abs(x_mean[0, 0] - expected_h / (-2.0 * expected_j)) < 1e-12
    assert abs(x_logdet[0] - math.log(-2.0 * expected_j)) < 1e-12


def test_local_x_precision_always_negative_definite():
    rng = np.random.default_rng(3)
    prior = MixturePrior(4, 3)
    glob = init_global(prior, rng)
    exps = global_expectations(glob)
    resp = rng.dirichlet(np.ones(4), size=20)
    pot = (rng.normal(size=(20, 3), scale=4.0), -np.exp(rng.normal(size=(20, 3), scale=2.0)))
    _, x_j, _, _, x_logdet = refresh_items(resp, exps, *pot)
    eigs = np.linalg.eigvalsh(x_j)
    assert np.all(eigs < 0.0)
    expected_logdet = np.linalg.slogdet(-2.0 * x_j)[1]
    assert np.max(np.abs(x_logdet - expected_logdet)) <= 1e-12 * np.max(np.abs(expected_logdet))


# ---------------------------------------------------------------------------
# the Cholesky kernel of the local step (nnet.spd_factor_rows, here through
# its item-major wrapper nnet.spd_factor) and the contractions with the K
# components


def random_spd(rng, n, d):
    """SPD matrices with eigenvalues of at least 2d, so log|A| > 0."""
    b = rng.standard_normal((n, d, d))
    return b @ np.swapaxes(b, 1, 2) + 2.0 * d * np.eye(d)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 7, 400])
def test_spd_kernel_matches_numpy_inverse_and_logdet(d, n):
    a = random_spd(np.random.default_rng(10 * d + n), n, d)
    inv, logdet, root = spd_factor(a)
    expected = np.linalg.inv(a)
    sign, expected_logdet = np.linalg.slogdet(a)
    expected_root = np.linalg.cholesky(expected)
    assert np.all(sign == 1.0)
    assert inv.shape == root.shape == (n, d, d) and logdet.shape == (n,)
    assert np.max(np.abs(inv - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(logdet - expected_logdet) / np.abs(expected_logdet)) <= 1e-12
    assert np.array_equal(inv, np.swapaxes(inv, 1, 2))
    assert np.max(np.abs(root - expected_root)) <= 1e-12 * np.max(np.abs(expected_root))
    assert np.array_equal(root, np.tril(root))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spd_kernel_rejects_matrices_that_are_not_positive_definite(d):
    rng = np.random.default_rng(d)
    indefinite = np.eye(d)
    indefinite[-1, -1] = -0.5
    singular = np.diag(np.arange(d - 1.0, -1.0, -1.0))  # last pivot exactly 0
    nan_entry = random_spd(rng, 1, d)[0]
    nan_entry[-1, 0] = nan_entry[0, -1] = np.nan
    for bad in (indefinite, singular, nan_entry):
        batch = random_spd(rng, 5, d)
        batch[3] = bad
        with pytest.raises(np.linalg.LinAlgError):
            spd_factor(batch)


def test_local_x_update_raises_linalg_error_on_a_positive_precision_bracket():
    """Expectations that make some x_j indefinite fail with the error the
    training loop catches."""
    rng = np.random.default_rng(4)
    exps = global_expectations(init_global(MixturePrior(3, 2), rng))
    exps = exps._replace(neg_half_prec=-exps.neg_half_prec)
    pot = (rng.standard_normal((6, 2)), np.full((6, 2), -1e-3))
    with pytest.raises(np.linalg.LinAlgError):
        refresh_items(rng.dirichlet(np.ones(3), size=6), exps, *pot)


def test_local_x_update_raises_linalg_error_on_a_nan_precision():
    """A NaN in one evidence row makes that item's pivot NaN, which fails
    the entry-major refresh as a non-positive one does."""
    rng = np.random.default_rng(4)
    exps = global_expectations(init_global(MixturePrior(3, 2), rng))
    j_diag = np.full((2, 6), -1.0)
    j_diag[1, 4] = np.nan
    resp = np.ascontiguousarray(rng.dirichlet(np.ones(3), size=6).T)
    with pytest.raises(np.linalg.LinAlgError):
        update_local_x(resp, exps, rng.standard_normal((2, 6)), j_diag)


def test_component_contractions_equal_einsum():
    rng = np.random.default_rng(8)
    n, K, d = 30, 5, 3
    exps = global_expectations(init_global(MixturePrior(K, d), rng))
    resp = rng.dirichlet(np.ones(K), size=n)
    x_mean = rng.standard_normal((n, d))
    x_cov = np.linalg.inv(random_spd(rng, n, d))

    def close(actual, expected):
        return np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))

    assert close(
        _mix(resp, exps.neg_half_prec), np.einsum("nk,kij->nij", resp, exps.neg_half_prec)
    )
    second = x_cov + x_mean[:, :, None] * x_mean[:, None, :]
    assert close(
        logits_of_items(exps, x_mean, x_cov).T,
        x_mean @ exps.mean_prec.T
        + np.einsum("nij,kij->nk", second, exps.neg_half_prec)
        + exps.neg_half_mahal
        + exps.neg_half_logdet,
    )
    prior = MixturePrior(K, d)
    target = mixture_natural_gradient(prior, resp, x_mean, x_cov, scale=3.0)
    expected_h2 = prior.niw_nat().h2 + 3.0 * np.einsum("nk,nij->kij", resp, second)
    assert close(target.components.h2, expected_h2)


# ---------------------------------------------------------------------------
# local z updates


def test_symmetric_items_get_uniform_responsibilities():
    comp = (0.4, 2.5, 1.8, 3.0)
    glob = scalar_glob([2.0, 2.0], [comp, comp])
    exps = global_expectations(glob)
    base = exps.log_pi[:, None] + logits_of_items(exps, np.array([[0.7]]), np.array([[[0.5]]]))
    out, _ = local_z(base, AnnotationGraph(1, [], [], []), np.full((2, 1), 0.5))
    assert np.allclose(np.exp(out), 0.5, atol=1e-12)


def test_point_mass_neighbor_message_shifts_one_coordinate():
    base = np.array([[0.3, -0.2], [0.0, 0.0]])
    resp = np.array([[0.5, 0.5], [0.0, 1.0]])
    neighbors = AnnotationGraph(2, [0, 1], [1, 0], [math.log(9.0)] * 2)
    out = local_z(base.T, neighbors, resp.T)[0].T
    expected = log_softmax(base[0] + math.log(9.0) * np.array([0.0, 1.0]))
    assert np.allclose(out[0], expected, atol=1e-12)


def test_annotation_graph_weight_matches_point_worker_log_odds():
    store = AnnotationStore([(0, 1, 0, 1)], n_items=2, n_workers=1)
    lists = neighbor_lists(annotation_graph(store, WorkerPool.homogeneous(1, 0.9, 0.9), 2))
    assert lists[0] == [(1, pytest.approx(math.log(9.0), abs=1e-12))]
    assert lists[1] == [(0, pytest.approx(math.log(9.0), abs=1e-12))]
    with pytest.raises(ValueError):
        annotation_graph(store, WorkerPool.homogeneous(1, 0.9, 0.9), 1)


def sequential_local_z(base, neighbors, log_resp, order):
    """Reference q(z) pass: unlinked items at once, then the linked items
    one at a time in the given order, each seeing the freshest state."""
    out = np.array(log_resp, dtype=float)
    resp = np.exp(out)
    lists = neighbor_lists(neighbors)
    free = [p for p, nb in enumerate(lists) if not nb]
    out[free] = log_softmax(base[free], axis=-1)
    resp[free] = np.exp(out[free])
    for p in order:
        eta = base[p].copy()
        for q, w in lists[p]:
            eta += w * resp[q]
        out[p] = log_softmax(eta)
        resp[p] = np.exp(out[p])
    return out


def random_workers(rng, n_workers) -> BetaWorkers:
    taus = rng.uniform(0.5, 12.0, size=(2, n_workers, 2))
    return BetaWorkers.from_taus(taus[0], taus[1])


def random_annotations(rng, n_items=48, n_workers=5, n_pairs=110):
    """Store over items 0..n_items-1; most pairs carry one label, some up
    to three from different workers.  The last items stay unlinked."""
    linked = n_items - 6
    labels = {}
    while len({(i, j) for i, j, _ in labels}) < n_pairs:
        i, j = sorted(rng.choice(linked, size=2, replace=False).tolist())
        for m in rng.choice(n_workers, size=rng.choice([1, 1, 2, 3]), replace=False):
            labels[i, j, int(m)] = int(rng.integers(2))
    triples = [(i, j, m, label) for (i, j, m), label in labels.items()]
    return AnnotationStore(triples, n_items=n_items, n_workers=n_workers)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_color_classes_are_greedy_independent_sets(seed):
    rng = np.random.default_rng(seed)
    store = random_annotations(rng)
    graph = annotation_graph(store, random_workers(rng, store.n_workers), store.n_items)
    classes, lists = color_classes(graph), neighbor_lists(graph)
    assert len(classes) >= 3
    color = {}
    for c, idx in enumerate(classes):
        assert np.all(np.diff(idx) > 0)
        for p in idx.tolist():
            assert p not in color
            color[p] = c
    annotated = np.unique(store.triples[:, :2])
    assert sorted(color) == annotated.tolist()
    assert int(annotated[0]) in classes[0]
    for i, j, _, _ in store.triples.tolist():
        assert color[i] != color[j]
    # greedy in index order: the smallest color no lower-indexed neighbor holds
    for p, c in color.items():
        taken = {color[q] for q, _ in lists[p] if q < p}
        assert c == min(set(range(c + 1)) - taken)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_class_update_equals_sequential_updates_in_class_order(seed):
    rng = np.random.default_rng(seed)
    store = random_annotations(rng)
    graph = annotation_graph(store, random_workers(rng, store.n_workers), store.n_items)
    K = 4
    base = rng.normal(size=(store.n_items, K), scale=2.0)
    log_resp = log_softmax(rng.normal(size=(store.n_items, K), scale=2.0), axis=-1)
    order = np.concatenate(color_classes(graph))
    expected = sequential_local_z(base, graph, log_resp, order)
    logits, resp = block_major(graph, base, np.exp(log_resp))
    out = local_z(logits, graph, resp)[0][:, graph.position].T
    assert np.max(np.abs(out - expected)) < 1e-12
    # the visiting order matters, so the comparison above is not vacuous
    by_index = sequential_local_z(base, graph, log_resp, np.sort(order))
    assert np.max(np.abs(by_index - expected)) > 1e-6


def block_major(graph, *arrays):
    """(n, K) item-order arrays as (K, n) arrays in the graph's block order,
    the base logits and probabilities that update_local_z takes."""
    return [np.ascontiguousarray(a[graph.order].T) for a in arrays]


def class_edges(graph):
    """Per color class: its items, and their edges in item indices as
    (first-edge offsets, other items, weights)."""
    for items, (_, _, starts, other, weight) in zip(color_classes(graph), graph.blocks):
        yield items, (starts, graph.order[other], weight)


def reference_graph(store, workers, n_items):
    """Reference for annotation_graph: per-item neighbor lists built triple
    by triple and colored greedily item by item in Python loops.  Returns
    (neighbors, classes, class_edges)."""
    neighbors = [[] for _ in range(n_items)]
    if store is not None and store.n_annotations:
        t = store.triples
        weights = reference_message_weights(t[:, 3].astype(float), workers.log_stats()[t[:, 2]])
        for i, j, w in zip(t[:, 0].tolist(), t[:, 1].tolist(), weights.tolist()):
            neighbors[i].append((j, w))
            neighbors[j].append((i, w))
    color = {}
    for p, nb in enumerate(neighbors):
        if nb:
            taken = {color.get(q) for q, _ in nb}
            c = 0
            while c in taken:
                c += 1
            color[p] = c
    by_color = [[] for _ in range(max(color.values(), default=-1) + 1)]
    for p, c in color.items():
        by_color[c].append(p)
    classes = [np.array(items, dtype=int) for items in by_color]
    class_edges = []
    for items in by_color:
        other, weight = zip(*(edge for p in items for edge in neighbors[p]))
        sizes = [len(neighbors[p]) for p in items]
        class_edges.append(
            (np.cumsum([0] + sizes[:-1]), np.array(other, dtype=int), np.array(weight, dtype=float))
        )
    return neighbors, classes, class_edges


def clique_store(n_items, n_linked):
    pairs = [(i, j) for i in range(n_linked) for j in range(i + 1, n_linked)]
    return AnnotationStore(
        [(i, j, k % 2, k % 3 == 0) for k, (i, j) in enumerate(pairs)], n_items, n_workers=2
    )


GRAPH_CASES = {
    **{f"random-{seed}": seed for seed in range(10)},
    "none": None,
    "empty": AnnotationStore([], n_items=5, n_workers=2),
    "one-triple": AnnotationStore([(3, 1, 1, 0)], n_items=5, n_workers=2),
    "star": AnnotationStore(
        [(2, q, q % 2, q % 2) for q in (0, 1, 3, 4, 5, 6)] + [(6, 2, 1, 1)], n_items=7, n_workers=2
    ),
    "clique-6": clique_store(6, 6),
    "trailing-unlinked": clique_store(11, 4),
}


def graph_case(case):
    """(rng, store, workers, n_items) of one GRAPH_CASES entry."""
    rng = np.random.default_rng(7)
    store = GRAPH_CASES[case]
    if isinstance(store, int):
        rng = np.random.default_rng(store)
        store = random_annotations(rng)
    n_items = 6 if store is None else store.n_items
    workers = random_workers(rng, 2 if store is None else store.n_workers)
    return rng, store, workers, n_items


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_numpy_graph_equals_the_per_item_loop(case):
    _, store, workers, n_items = graph_case(case)
    graph = annotation_graph(store, workers, n_items)
    neighbors, classes, class_edges_want = reference_graph(store, workers, n_items)
    assert neighbor_lists(graph) == neighbors
    assert graph.linked.tolist() == [bool(nb) for nb in neighbors]
    if case == "clique-6":
        assert len(classes) == 6
    assert len(color_classes(graph)) == len(classes)
    assert len(list(class_edges(graph))) == len(class_edges_want)
    for got, want in zip(color_classes(graph), classes):
        assert np.array_equal(got, want)
    for (_, got), want in zip(class_edges(graph), class_edges_want):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_blocks_partition_the_working_set_into_independent_sets(case):
    """Block order is a permutation with `position` its inverse; the blocks
    tile it, hold the unlinked items in block 0, linked items first, and
    share no edge inside a block; their edges are the per-item lists."""
    _, store, workers, n_items = graph_case(case)
    graph = annotation_graph(store, workers, n_items)
    assert np.array_equal(np.sort(graph.order), np.arange(n_items))
    assert np.array_equal(graph.position[graph.order], np.arange(n_items))
    bounds = [(lo, hi) for lo, hi, *_ in graph.blocks]
    assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
    assert bounds[-1][1] == n_items and all(lo < hi for lo, hi in bounds)
    block_of = np.empty(n_items, dtype=int)
    for b, (lo, hi) in enumerate(bounds):
        block_of[graph.order[lo:hi]] = b
    assert np.all(block_of[~graph.linked] == 0)
    lists = neighbor_lists(graph)
    for p, edges in enumerate(lists):
        assert all(block_of[q] != block_of[p] for q, _ in edges)
    for lo, hi, starts, other, weight in graph.blocks:
        items = graph.order[lo:hi].tolist()
        linked = graph.linked[items].tolist()
        assert linked == [True] * starts.size + [False] * (hi - lo - starts.size)
        ends = np.append(starts, other.size).tolist()
        for p, a, b in zip(items, ends, ends[1:]):
            assert list(zip(graph.order[other[a:b]].tolist(), weight[a:b].tolist())) == lists[p]


@pytest.mark.parametrize("store", [None, AnnotationStore([], n_items=5, n_workers=2)])
def test_a_store_without_triples_gives_one_block_in_item_order(store):
    graph = annotation_graph(store, random_workers(np.random.default_rng(0), 2), 5)
    assert len(graph.blocks) == 1 and graph.blocks[0][:2] == (0, 5)
    assert graph.blocks[0][2].size == 0 and color_classes(graph) == []
    assert np.array_equal(graph.order, np.arange(5))


@pytest.mark.parametrize("n_items", [0, 1, 5])
def test_an_edge_free_graph_has_the_fields_the_coloring_builds(n_items):
    """A graph without edges skips the coloring; each field, dtype
    included, and the per-item lists rebuilt from them equal the
    coloring's."""
    graph = AnnotationGraph(n_items, [], [], [])
    colored = object.__new__(AnnotationGraph)
    colored._color(n_items, np.zeros(0, dtype=int), np.zeros(0, dtype=int), [])
    assert vars(graph).keys() == vars(colored).keys()

    def same(a, b):
        if isinstance(a, np.ndarray):
            return a.dtype == b.dtype and np.array_equal(a, b)
        if isinstance(a, (list, tuple)):
            return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
        return a == b

    for name, value in vars(graph).items():
        assert same(value, getattr(colored, name)), name
    assert neighbor_lists(graph) == neighbor_lists(colored) == [[]] * n_items


@pytest.mark.parametrize("case", [*sorted(GRAPH_CASES), "predict"])
def test_iterating_a_graph_yields_linked(case, monkeypatch):
    """crowdbench/probes.py counts the linked items of each q(z) pass as
    `sum(1 for nb in graph if nb)`, so iteration yields `linked`, on every
    GRAPH_CASES graph and on the edge-free graph that predict builds."""
    if case == "predict":
        graphs = []

        def recording(*args):
            graphs.append(annotation_graph(*args))
            return graphs[-1]

        monkeypatch.setattr(vmp, "annotation_graph", recording)
        BayesModel.from_dict(json.loads(SAVED_MODEL_JSON)).predict(np.ones((7, 2)))
        (graph,) = graphs
    else:
        _, store, workers, n_items = graph_case(case)
        graph = annotation_graph(store, workers, n_items)
    assert list(graph) == graph.linked.tolist()
    assert sum(1 for nb in graph if nb) == np.count_nonzero(graph.linked)


# Row-major references for the component-major local step: (n, K)
# responsibilities and logits, every softmax along the K-wide last axis.


def log_softmax_rows(x):
    x_max = np.max(x, axis=-1, keepdims=True)
    x_max[~np.isfinite(x_max)] = 0
    tmp = x - x_max
    with np.errstate(divide="ignore"):
        return tmp - np.log(np.sum(np.exp(tmp), axis=-1, keepdims=True))


def component_logits_rows(exps, x_mean, x_cov):
    n, d = x_mean.shape
    second = x_cov + x_mean[:, :, None] * x_mean[:, None, :]
    return (
        x_mean @ exps.mean_prec.T
        + second.reshape(n, d * d) @ exps.neg_half_prec.reshape(-1, d * d).T
        + exps.neg_half_mahal
        + exps.neg_half_logdet
    )


def update_local_z_rows(base, neighbors, log_resp):
    """The unlinked items by a boolean gather and scatter, then the linked
    items one color class at a time."""
    out = np.array(log_resp, dtype=float)
    resp = np.exp(out)
    free = ~neighbors.linked
    if np.any(free):
        out[free] = log_softmax_rows(base[free])
        resp[free] = np.exp(out[free])
    for idx, (starts, other, weight) in class_edges(neighbors):
        messages = np.add.reduceat(weight[:, None] * resp[other], starts, axis=0)
        out[idx] = log_softmax_rows(base[idx] + messages)
        resp[idx] = np.exp(out[idx])
    return out


def local_step_rows(glob, h, j_diag, store, sweeps):
    """Log responsibilities of block_coordinate_local from uniform ones."""
    exps = global_expectations(glob)
    n, K = h.shape[0], exps.log_pi.shape[0]
    log_resp = np.full((n, K), -math.log(K))
    neighbors = annotation_graph(store, glob.workers, n)
    _, _, x_mean, x_cov, _ = update_local_x_items(np.exp(log_resp), exps, h, j_diag)
    for _ in range(sweeps):
        base = exps.log_pi + component_logits_rows(exps, x_mean, x_cov)
        log_resp = update_local_z_rows(base, neighbors, log_resp)
        _, _, x_mean, x_cov, _ = update_local_x_items(np.exp(log_resp), exps, h, j_diag)
    return log_resp


# The item-major q(x) refresh, component logits and local step that ran
# before the q(x) side went entry-major, kept as the oracle of the
# entry-major code: (n, K) probabilities in, (n, d) and (n, d, d) arrays
# out, and `spd_factor` on (n, d, d) precisions.


def update_local_x_items(resp, exps, h, j_diag):
    resp = np.asarray(resp, dtype=float)
    d = exps.mean_prec.shape[1]
    x_h = resp @ exps.mean_prec + h
    x_j = _mix(resp, exps.neg_half_prec)
    idx = np.arange(d)
    x_j[:, idx, idx] += j_diag
    x_cov, x_logdet, _ = spd_factor(-2.0 * x_j)
    x_mean = np.einsum("nij,nj->ni", x_cov, x_h)
    return x_h, x_j, x_mean, x_cov, x_logdet


def component_logits_items(exps, x_mean, x_cov):
    n, d = x_mean.shape
    second = x_cov + x_mean[:, :, None] * x_mean[:, None, :]
    return (
        exps.mean_prec @ x_mean.T
        + exps.neg_half_prec.reshape(-1, d * d) @ second.reshape(n, d * d).T
        + (exps.neg_half_mahal + exps.neg_half_logdet)[:, None]
    )


def local_step_items(glob, h, j_diag, store, sweeps=LOCAL_SWEEPS) -> LocalVariational:
    """block_coordinate_local on the item-major oracle refresh and logits."""
    exps = global_expectations(glob)
    graph = annotation_graph(store, glob.workers, h.shape[0])
    order, back = graph.order, graph.position
    h, j_diag = h[order], j_diag[order]
    K = exps.log_pi.shape[0]
    resp = np.exp(np.full((K, h.shape[0]), -math.log(K)))
    for _ in range(sweeps):
        _, _, x_mean, x_cov, _ = update_local_x_items(resp.T, exps, h, j_diag)
        base = exps.log_pi[:, None] + component_logits_items(exps, x_mean, x_cov)
        log_resp, resp = local_z(base, graph, resp)
    x = update_local_x_items(resp.T, exps, h, j_diag)
    return LocalVariational(log_resp.T[back], *(a[back] for a in x))


LOCAL_FIELDS = ("log_resp", "x_h", "x_j", "x_mean", "x_cov", "x_logdet")


@pytest.mark.parametrize("annotated", [False, True], ids=["no-store", "store"])
@pytest.mark.parametrize("n", [1, 50, 122, 300, 411, 500, 5000])
def test_entry_major_local_step_equals_the_item_major_oracle_bit_for_bit(n, annotated):
    """At the latent width 2 of every trainer default, each q(x) mean sums
    two products, whose sum no summation order changes; BLAS picks its
    matmul kernel by operand layout and size, so the sizes include the 300
    and 500 items at which a C-ordered (d, n) mean moved the logits."""
    rng = np.random.default_rng(n)
    K, d, n_workers = 15, 2, 5
    glob = init_global(MixturePrior(K, d), rng, n_workers=n_workers)
    glob = replace(glob, workers=random_workers(rng, n_workers))
    # diffuse evidence, so that the logits' last bits reach log q(z)
    h = rng.normal(size=(n, d), scale=3.0)
    j_diag = -np.exp(rng.normal(-1.0, 1.0, size=(n, d)))
    store = None
    if annotated:
        pairs = [sorted(rng.choice(n, size=2, replace=False).tolist()) for _ in range(n // 2)]
        triples = [(i, j, int(rng.integers(n_workers)), int(rng.integers(2))) for i, j in pairs]
        store = AnnotationStore(triples, n_items=n, n_workers=n_workers)
    expected = local_step_items(glob, h, j_diag, store)
    local = local_posteriors(glob, h, j_diag, store)
    for field in LOCAL_FIELDS:
        got, want = getattr(local, field), getattr(expected, field)
        assert np.array_equal(got, want) and got.flags.c_contiguous, field
    if not annotated:
        # the sweeps as predict calls them, on the evidence's own arrays in
        # item order, at training's count
        graph = annotation_graph(None, glob.workers, n)
        log_resp, _ = vmp._local_sweeps(
            global_expectations(glob), h.T, j_diag.T, graph, LOCAL_SWEEPS
        )
        assert np.array_equal(log_resp.T, expected.log_resp)


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_component_major_local_z_equals_the_row_major_reference(case):
    """Covers graphs that link no item, some items and every item
    (clique-6), with K = 15 so the softmax sums run in another order."""
    rng, store, workers, n_items = graph_case(case)
    graph = annotation_graph(store, workers, n_items)
    K, d = 15, 2
    exps = global_expectations(init_global(MixturePrior(K, d), rng))
    x_mean = rng.standard_normal((n_items, d))
    x_cov = np.linalg.inv(random_spd(rng, n_items, d))
    logits = logits_of_items(exps, x_mean, x_cov)
    expected_logits = component_logits_rows(exps, x_mean, x_cov)
    assert logits.shape == (K, n_items)
    assert np.max(np.abs(logits.T - expected_logits)) <= 1e-12 * np.max(np.abs(expected_logits))
    base = rng.normal(size=(n_items, K), scale=2.0)
    log_resp = log_softmax(rng.normal(size=(n_items, K), scale=2.0), axis=-1)
    logits, resp = block_major(graph, base, np.exp(log_resp))
    out, resp = local_z(logits, graph, resp)
    expected = update_local_z_rows(base, graph, log_resp)
    assert np.max(np.abs(out[:, graph.position].T - expected)) < 1e-12
    assert np.array_equal(resp, np.exp(out))


# The q(z) pass and the local sweeps as they ran before both worked in
# place: the pass refreshed copies of the logits and probabilities it was
# given, and every sweep made its own (K, n) arrays.  The oracles of the
# in-place code.


def copying_local_z(base_logits, neighbors, resp):
    out = np.array(base_logits, dtype=float)
    resp = np.array(resp, dtype=float)
    for lo, hi, starts, other, weight in neighbors.blocks:
        block = out[:, lo:hi]
        if starts.size:
            block[:, :starts.size] += np.add.reduceat(resp[:, other] * weight, starts, axis=1)
        block[...] = log_softmax(block, axis=0)
        np.exp(block, out=resp[:, lo:hi])
    return out, resp


def copying_local_sweeps(exps, h, j_diag, neighbors, sweeps):
    K = exps.log_pi.shape[0]
    resp = np.exp(np.full((K, h.shape[1]), -math.log(K)))
    for _ in range(sweeps):
        _, _, x_mean, x_cov, _ = update_local_x(resp, exps, h, j_diag)
        base = logits_of(exps, x_mean, x_cov)
        base += exps.log_pi[:, None]
        log_resp, resp = copying_local_z(base, neighbors, resp)
    return log_resp, resp


def test_update_local_z_in_place_equals_the_copying_pass_bit_for_bit():
    """On a graph with several classes and some unlinked items, with K = 15;
    every item moves."""
    rng = np.random.default_rng(4)
    store = random_annotations(rng)
    graph = annotation_graph(store, random_workers(rng, store.n_workers), store.n_items)
    assert len(color_classes(graph)) >= 3 and not graph.linked.all()
    base = rng.normal(size=(15, store.n_items), scale=2.0)
    resp = np.exp(log_softmax(rng.normal(size=(15, store.n_items), scale=2.0), axis=0))
    want_log, want = copying_local_z(base, graph, resp)
    assert not np.any(np.all(want == resp, axis=0))
    logits, probs = base.copy(), resp.copy()
    got_log, got = update_local_z(logits, graph, probs, np.empty_like(probs))
    assert got_log is logits and got is probs  # the very arrays it was given
    assert np.array_equal(got_log, want_log) and np.array_equal(got, want)


def test_in_place_local_sweeps_equal_the_copying_sweeps_bit_for_bit():
    """block_coordinate_local's sweeps, on an annotated working set in block
    order, and the sweeps as predict calls them, on one block in item
    order, both at training's count."""
    rng = np.random.default_rng(11)
    store = random_annotations(rng, n_items=300, n_pairs=400)
    glob = init_global(MixturePrior(15, 2), rng, n_workers=store.n_workers)
    glob = replace(glob, workers=random_workers(rng, store.n_workers))
    exps = global_expectations(glob)
    h = rng.normal(size=(2, 300), scale=3.0)
    j_diag = -np.exp(rng.normal(-1.0, 1.0, size=(2, 300)))
    for s in (store, None):
        graph = annotation_graph(s, glob.workers, 300)
        args = (exps, h[:, graph.order], j_diag[:, graph.order], graph, LOCAL_SWEEPS)
        for got, want in zip(vmp._local_sweeps(*args), copying_local_sweeps(*args)):
            assert np.array_equal(got, want)


def predict_model(seed=0, n_items=5000, K=15):
    """A BayesModel of every trainer default width, its recognition net
    calibrated as training starts, and pinwheel rows to predict on."""
    rng = np.random.default_rng(seed)
    obs = pinwheel_generate(5, -(-n_items // 5), rng=rng).observations[:n_items]
    recognition = Mlp([2, 40, 40], {"loc": 2, "prec_raw": 2}, rng)
    vmp._calibrate_recognition_init(recognition, obs)
    glob = init_global(MixturePrior(K, 2), rng)
    return BayesModel(glob, recognition, gaussian_mlp([2, 40, 40], 2, rng)), obs


def test_predict_allocates_under_six_and_a_quarter_item_arrays():
    """tracemalloc's peak of a 5000-item predict at K = 15, in (15, 5000)
    float arrays: 5.78 since the sweeps refresh three such arrays in place,
    7.08 before.  The bound leaves 8% over the measured peak; no timing is
    involved."""
    model, obs = predict_model()
    model.predict(obs)
    tracemalloc.start()
    try:
        model.predict(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.25 * (15 * 5000 * 8)


def trained_tiny_model():
    """`tiny_problem` and its 2-epoch model, with 3000 held-out items of the
    same three arms, 2 of which one local round and LOCAL_SWEEPS rounds
    label apart (and 1 of the 120 training items)."""
    dataset, store = tiny_problem()
    config = BayesConfig(latent_dim=2, epochs=2, batch_size=40)
    model = train_bayes_scdc(dataset, store, config, np.random.default_rng(7)).model
    held_out = pinwheel_generate(3, 1000, rng=np.random.default_rng(100)).observations
    return dataset, store, model, held_out


def test_predict_equals_the_argmax_of_the_row_major_local_step():
    """The local step runs LOCAL_SWEEPS rounds and predict PREDICT_SWEEPS;
    the held-out items, which the two counts label apart, pin predict's."""
    dataset, store, model, held_out = trained_tiny_model()
    pot = recognition_potential(model.recognition, dataset.observations)
    for annotations in (store, None):
        expected = local_step_rows(model.glob, *pot, annotations, LOCAL_SWEEPS)
        log_resp = block_coordinate_local(model.glob, *pot, annotations)
        assert np.max(np.abs(log_resp - expected)) < 1e-9
    # predict passes no store
    pot = recognition_potential(model.recognition, held_out)
    labels = {
        sweeps: np.argmax(np.exp(local_step_rows(model.glob, *pot, None, sweeps)), axis=1)
        for sweeps in (PREDICT_SWEEPS, LOCAL_SWEEPS)
    }
    assert not np.array_equal(labels[PREDICT_SWEEPS], labels[LOCAL_SWEEPS])
    assert np.array_equal(model.predict(held_out), labels[PREDICT_SWEEPS])


def test_predict_labels_agree_with_the_training_rounds_on_99_percent_of_items():
    """Without annotations no messages pass and the evidence dominates, so
    PREDICT_SWEEPS rounds label items as LOCAL_SWEEPS rounds do.  On the
    benchmark workloads' trained models, seeds 0/1/2, the labels agree on
    0.9972 / 0.998 / 0.998 of crowd10x-bayes's items and 1.0 / 0.998 /
    1.0 of pinwheel-bayes's; here on 0.9993 of the held-out items."""
    _, _, model, held_out = trained_tiny_model()
    h, j_diag = recognition_potential(model.recognition, held_out)
    graph = annotation_graph(None, model.glob.workers, h.shape[0])
    exps = global_expectations(model.glob)
    _, resp = vmp._local_sweeps(exps, h.T, j_diag.T, graph, LOCAL_SWEEPS)
    assert np.mean(model.predict(held_out) == np.argmax(resp, axis=0)) >= 0.99


def grid_instance():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=one_worker())
    store = AnnotationStore([(0, 1, 0, 1), (1, 2, 0, 0)], n_items=3, n_workers=1)
    pot = (np.array([[0.6], [-0.4], [0.2]]), np.array([[-0.8], [-1.1], [-0.6]]))
    return glob, store, pot


def test_z_update_is_the_coordinate_optimum_of_the_surrogate():
    glob, store, pot = grid_instance()
    exps = global_expectations(glob)
    local = local_posteriors(glob, *pot, store, sweeps=2)
    base = exps.log_pi[:, None] + logits_of_items(exps, local.x_mean, local.x_cov)
    graph = annotation_graph(store, glob.workers, 3)
    logits, resp = block_major(graph, base.T, local.resp)
    updated = local_z(logits, graph, resp)[0][:, graph.position].T

    # item 0 updates first, so its refresh uses exactly the input state
    def surrogate_at(t: float) -> float:
        cand = replace(local, log_resp=np.array(local.log_resp))
        cand.log_resp[0] = np.log([t, 1.0 - t])
        return surrogate_elbo(glob, TEST_PRIOR, cand, *pot, store)

    grid = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    values = [surrogate_at(t) for t in grid]
    best = grid[int(np.argmax(values))]
    t_updated = float(np.exp(updated[0, 0]))
    assert abs(t_updated - best) < 1e-3
    assert surrogate_at(t_updated) >= max(values) - 1e-8


def resume_local(glob, h, j_diag, store, local, sweeps) -> LocalVariational:
    """`sweeps` rounds of block_coordinate_local's coordinate updates, from
    the responsibilities of `local` instead of uniform ones, in block order
    and with q(x) entry-major, as that function runs them, and the q(x) of
    one refresh of the last q(z), as `local_posteriors` gives it."""
    exps = global_expectations(glob)
    graph = annotation_graph(store, glob.workers, h.shape[0])
    order, back = graph.order, graph.position
    rows_h, rows_j = h.T[:, order], j_diag.T[:, order]
    (resp,) = block_major(graph, np.exp(local.log_resp))
    for _ in range(sweeps):
        x = update_local_x(resp, exps, rows_h, rows_j)
        base = exps.log_pi[:, None] + logits_of(exps, x[2], x[3])
        log_resp, resp = local_z(base, graph, resp)
    return with_local_x(glob, h, j_diag, store, log_resp.T[back])


def local_after(glob, h, j_diag, store, sweeps) -> LocalVariational:
    """The local step's state after exactly `sweeps` sweeps from uniform
    responsibilities: the state after `sweeps - 1` sweeps, swept once more."""
    return local_posteriors(glob, h, j_diag, store, sweeps=sweeps)


def test_block_coordinate_runs_every_sweep_past_convergence(monkeypatch):
    """The step converges on this instance well before 80 sweeps (see the
    fixed-point test below) and still runs all of them."""
    glob, store, pot = grid_instance()
    calls = []
    original = vmp.update_local_z
    monkeypatch.setattr(
        vmp, "update_local_z", lambda *args: calls.append(None) or original(*args)
    )
    block_coordinate_local(glob, *pot, store, sweeps=80)
    assert len(calls) == 80


@pytest.mark.parametrize("sweeps", [True, 2.0, 0])
def test_block_coordinate_names_a_bad_sweep_count(sweeps):
    glob, store, pot = grid_instance()
    with pytest.raises(ValueError, match="^sweeps"):
        block_coordinate_local(glob, *pot, store, sweeps=sweeps)
    assert np.array_equal(
        block_coordinate_local(glob, *pot, store, sweeps=np.int64(2)),
        block_coordinate_local(glob, *pot, store, sweeps=2),
    )


def test_resumed_local_step_equals_the_uninterrupted_one():
    """Checks that resume_local hands update_local_z probabilities: 3 sweeps
    resumed for 4 more equal 7 sweeps to the last bit.  Passing the log
    probabilities instead moves item 0 of this instance by 0.15."""
    glob, store, pot = grid_instance()
    resumed = resume_local(glob, *pot, store, local_after(glob, *pot, store, 3), sweeps=4)
    straight = local_after(glob, *pot, store, 7)
    for field in ("log_resp", "x_h", "x_j", "x_mean", "x_cov", "x_logdet"):
        assert np.array_equal(getattr(resumed, field), getattr(straight, field)), field


def test_block_coordinate_reaches_a_fixed_point():
    glob, store, pot = grid_instance()
    local = local_after(glob, *pot, store, 80)
    again = local_after(glob, *pot, store, 81)
    assert np.max(np.abs(again.log_resp - local.log_resp)) < 1e-8
    assert np.max(np.abs(again.x_h - local.x_h)) < 1e-8
    assert np.max(np.abs(again.x_j - local.x_j)) < 1e-8


def test_block_coordinate_is_order_independent_without_annotations():
    rng = np.random.default_rng(11)
    prior = MixturePrior(3, 2)
    glob = init_global(prior, rng)
    pot_h = rng.normal(size=(6, 2))
    pot_j = -np.exp(rng.normal(size=(6, 2)))
    perm = rng.permutation(6)
    a = local_posteriors(glob, pot_h, pot_j, sweeps=6)
    b = local_posteriors(glob, pot_h[perm], pot_j[perm], sweeps=6)
    assert np.allclose(b.log_resp, a.log_resp[perm], atol=1e-12)
    assert np.allclose(b.x_mean, a.x_mean[perm], atol=1e-12)


def test_surrogate_elbo_is_non_decreasing_under_coordinate_updates():
    glob, store, pot = grid_instance()
    values = [
        surrogate_elbo(glob, TEST_PRIOR, local_after(glob, *pot, store, sweeps), *pot, store)
        for sweeps in range(1, 52)
    ]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-8)


def test_surrogate_elbo_is_non_decreasing_under_coordinate_updates_with_many_classes():
    rng = np.random.default_rng(4)
    store = random_annotations(rng)
    prior = MixturePrior(3, 2)
    glob = replace(init_global(prior, rng), workers=random_workers(rng, store.n_workers))
    assert len(color_classes(annotation_graph(store, glob.workers, store.n_items))) >= 3
    pot = (
        rng.normal(size=(store.n_items, 2), scale=2.0),
        -np.exp(rng.normal(size=(store.n_items, 2))),
    )
    values = [
        surrogate_elbo(glob, prior, local_after(glob, *pot, store, sweeps), *pot, store)
        for sweeps in range(1, 32)
    ]
    assert np.all(np.diff(values) >= -1e-8)
    assert values[-1] > values[0]


def test_surrogate_elbo_is_non_decreasing_under_step_one_global_updates():
    glob, store, pot = grid_instance()
    prior = TEST_PRIOR
    local = local_posteriors(glob, *pot, store, sweeps=30)
    value = surrogate_elbo(glob, prior, local, *pot, store)
    for _ in range(5):
        target = replace(
            mixture_natural_gradient(prior, local.resp, local.x_mean, local.x_cov, scale=1.0),
            workers=beta_natural_gradient(worker_counts(store, local.resp)),
        )
        glob = apply_natural_gradient(glob, target, 1.0)
        new_value = surrogate_elbo(glob, prior, local, *pot, store)
        assert new_value >= value - 1e-8
        value = new_value
        local = resume_local(glob, *pot, store, local, sweeps=10)
        new_value = surrogate_elbo(glob, prior, local, *pot, store)
        assert new_value >= value - 1e-8
        value = new_value


# ---------------------------------------------------------------------------
# KL brackets


def test_local_kl_zero_for_exact_conditional_under_point_mass_globals():
    pi = np.array([0.3, 0.7])
    means = np.array([[0.5], [-1.0]])
    covs = np.array([[[0.8]], [[1.4]]])
    exps = point_mass_expectations(pi, means, covs)
    local = scalar_local([[0.0, 1.0]], means[1], covs[1, 0])
    value = local_kl(exps, local)
    assert abs(value - (-math.log(pi[1]))) < 1e-10


def test_local_kl_doubles_with_duplicated_items():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS)
    exps = global_expectations(glob)
    local = scalar_local([[0.6, 0.4]], [0.5], [0.7])
    doubled = scalar_local([[0.6, 0.4]] * 2, [0.5] * 2, [0.7] * 2)
    assert abs(local_kl(exps, doubled) - 2.0 * local_kl(exps, local)) < 1e-12


def test_local_kl_matches_quadrature_oracle():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS)
    exps = global_expectations(glob)
    resp = [[0.6, 0.4], [0.2, 0.8]]
    means = [0.5, -0.2]
    variances = [0.7, 1.3]
    value = local_kl(exps, scalar_local(resp, means, variances))
    expected = oracles.local_kl_oracle(TEST_ALPHAS, TEST_COMPONENTS, resp, means, variances)
    assert abs(value - expected) < 1e-6


def test_local_kl_is_nonnegative_on_random_instances():
    rng = np.random.default_rng(5)
    prior = MixturePrior(3, 2)
    glob = init_global(prior, rng)
    exps = global_expectations(glob)
    pot = (rng.normal(size=(8, 2)), -np.exp(rng.normal(size=(8, 2))))
    local = local_posteriors(glob, *pot, sweeps=3)
    assert local_kl(exps, local) >= -1e-9


def test_global_kl_zero_when_posterior_equals_prior():
    prior = TEST_PRIOR
    glob = GlobalVariational(
        prior.pi_nat(),
        prior_components(prior),
        BetaWorkers.from_taus([(1.0, 1.0)], [(1.0, 1.0)]),
    )
    assert abs(global_kl(glob, prior)) < 1e-12


def test_global_kl_beta_block_matches_hand_value_and_quadrature():
    from scipy.special import digamma

    prior = TEST_PRIOR
    glob_base = GlobalVariational(prior.pi_nat(), prior_components(prior))
    glob = GlobalVariational(
        prior.pi_nat(),
        prior_components(prior),
        BetaWorkers.from_taus([(2.0, 1.0)], [(1.0, 1.0)]),
    )
    value = global_kl(glob, prior) - global_kl(glob_base, prior)
    hand = (digamma(2.0) - digamma(3.0)) + math.log(2.0)
    assert abs(value - hand) < 1e-12
    assert abs(value - oracles.beta_kl((2.0, 1.0), (1.0, 1.0))) < 1e-9


def test_global_kl_worker_block_matches_beta_oracles_for_many_workers():
    rng = np.random.default_rng(8)
    workers = random_workers(rng, 5)
    glob_base = GlobalVariational(TEST_PRIOR.pi_nat(), prior_components(TEST_PRIOR))
    glob = replace(glob_base, workers=workers)
    value = global_kl(glob, TEST_PRIOR) - global_kl(glob_base, TEST_PRIOR)
    expected = sum(
        oracles.beta_kl(tuple(tau), (1.0, 1.0))
        for taus in (workers.alpha_taus, workers.beta_taus)
        for tau in taus
    )
    assert abs(value - expected) < 1e-7


def test_zero_workers_give_empty_stats_and_add_no_kl():
    # a worker at its Beta(1, 1) prior adds an exact 0 to the KL
    at_prior = BetaWorkers.from_taus([(1.0, 1.0)], [(1.0, 1.0)])
    bare = global_kl(scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=at_prior), TEST_PRIOR)
    for workers in (NO_WORKERS, BetaWorkers(np.zeros((0, 2, 2))), BetaWorkers.from_taus([], [])):
        assert workers.n_workers == 0
        assert workers.alpha_taus.shape == (0, 2) and workers.beta_taus.shape == (0, 2)
        assert workers.log_stats().shape == (0, 4)
        glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=workers)
        assert global_kl(glob, TEST_PRIOR) == bare


def test_global_kl_matches_quadrature_oracle_for_all_blocks():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=one_worker())
    value = global_kl(glob, TEST_PRIOR)
    prior_comp = (0.0, 0.5, 1.5, 1.5)
    expected = oracles.dirichlet2_kl(TEST_ALPHAS, (0.025, 0.025))
    for comp in TEST_COMPONENTS:
        expected += oracles.niw1_kl(comp, prior_comp)
    expected += oracles.beta_kl((3.0, 2.0), (1.0, 1.0))
    expected += oracles.beta_kl((4.0, 1.0), (1.0, 1.0))
    assert abs(value - expected) < 1e-7


def test_global_kl_invariant_under_component_reordering():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS)
    swapped = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS[::-1])
    assert abs(global_kl(glob, TEST_PRIOR) - global_kl(swapped, TEST_PRIOR)) < 1e-12


def test_bayes_model_global_kl_is_taken_from_the_prior_of_its_shape():
    rng = np.random.default_rng(5)
    prior = MixturePrior(3, 2)
    glob = replace(init_global(prior, rng), workers=random_workers(rng, 4))
    model = BayesModel(
        glob,
        Mlp([2, 4], {"loc": 2, "prec_raw": 2}, rng),
        Mlp([2, 4], {"mean": 2, "logvar": 2}, rng),
    )
    assert model.global_kl() == global_kl(glob, prior)


# ---------------------------------------------------------------------------
# final objective


def objective_instance():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=one_worker())
    store = AnnotationStore([(0, 1, 0, 1)], n_items=2, n_workers=1)
    local = scalar_local([[0.6, 0.4], [0.2, 0.8]], [0.5, -0.2], [0.7, 1.3])
    pot = (np.array([[0.4], [-0.3]]), np.array([[-0.9], [-1.2]]))
    return glob, store, local, pot


def objective(glob, local, h, j_diag, store, rel_scale=1.0):
    """final_objective with the potential bracket as its data term and the
    relational op's term on the store."""
    rel = expected_rel_loglik(store, local.resp, glob.workers.log_stats(), rel_scale)[0]
    return final_objective(
        local, global_expectations(glob), potential_bracket(h, j_diag, local), float(rel.data)
    )


def test_final_objective_matches_quadrature_and_enumeration_oracle():
    glob, store, local, pot = objective_instance()
    value = objective(glob, local, *pot, store) - global_kl(glob, TEST_PRIOR)
    expected = oracles.final_objective_oracle(
        TEST_ALPHAS,
        TEST_COMPONENTS,
        (0.025, 0.025),
        (0.0, 0.5, 1.5, 1.5),
        local.resp,
        [0.5, -0.2],
        [0.7, 1.3],
        *pot,
        triples=[(0, 1, 0, 1)],
        worker_taus=[((3.0, 2.0), (4.0, 1.0))],
    )
    assert abs(value - expected) < 1e-6
    assert value == surrogate_elbo(glob, TEST_PRIOR, local, *pot, store)


def test_final_objective_annotation_minibatches_are_unbiased():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=one_worker())
    store = AnnotationStore(
        [(0, 1, 0, 1), (0, 2, 0, 0), (1, 2, 0, 1)], n_items=3, n_workers=1
    )
    local = scalar_local(
        [[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]], [0.5, -0.2, 0.1], [0.7, 1.3, 0.9]
    )
    pot = (np.array([[0.4], [-0.3], [0.1]]), np.array([[-0.9], [-1.2], [-0.7]]))
    full = objective(glob, local, *pot, store)
    from itertools import combinations

    estimates = []
    for rows in combinations(range(3), 2):
        sub = oracles.select_triples(store, rows)
        estimates.append(objective(glob, local, *pot, sub, rel_scale=3.0 / 2.0))
    assert abs(np.mean(estimates) - full) < 1e-10


def test_final_objective_without_store_drops_the_relational_term():
    glob, store, local, pot = objective_instance()
    with_rel = objective(glob, local, *pot, store)
    without = objective(glob, local, *pot, AnnotationStore([], store.n_items, store.n_workers))
    rel = float(expected_rel_loglik(store, local.resp, glob.workers.log_stats())[0].data)
    assert abs(with_rel - without - rel) < 1e-12


def test_final_objective_row_restriction_is_additive():
    """Without annotations the estimate sums over the items: those of each
    item's local posteriors add up to the whole set's."""
    glob, store, local, (h, j_diag) = objective_instance()
    empty = AnnotationStore([], store.n_items, store.n_workers)
    full = objective(glob, local, h, j_diag, empty)
    parts = [
        objective(
            glob, LocalVariational(*(getattr(local, f)[[i]] for f in LOCAL_FIELDS)),
            h[[i]], j_diag[[i]], AnnotationStore([], 1, store.n_workers),
        )
        for i in range(store.n_items)
    ]
    assert abs(full - sum(parts)) < 1e-12


# ---------------------------------------------------------------------------
# network gradient path


def test_network_objective_gradients_match_finite_differences():
    """Central differences through the training step's whole network path:
    one `evidence` pass over the batch rows and the network objective over
    those rows."""
    rng = np.random.default_rng(9)
    prior = MixturePrior(2, 2)
    glob = init_global(prior, rng)
    exps = global_expectations(glob)
    recognition = Mlp([2, 5], {"loc": 2, "prec_raw": 2}, rng)
    decoder = Mlp([2, 5], {"mean": 2, "logvar": 2}, rng, clamp={"logvar": (-8.0, 8.0)})
    batch = rng.normal(size=(4, 2))
    resp = rng.dirichlet(np.ones(2), size=4)
    noise = rng.standard_normal((4, 2))
    params = recognition.parameters() + decoder.parameters()

    def objective():
        h, j_diag = evidence(recognition, batch)
        obj, _, _ = _network_objective(h, j_diag, decoder, batch, resp, exps, noise, 1.7, 1.0)
        return obj

    with Tape() as tape:
        out = objective()
    backward(tape, out)
    assert all(p.grad is not None and np.any(p.grad != 0.0) for p in recognition.parameters())

    def value() -> float:
        return float(objective().data)

    eps = 1e-5
    worst = 0.0
    for p in params:
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = value()
            flat[idx] = orig - eps
            down = value()
            flat[idx] = orig
            fd = (up - down) / (2.0 * eps)
            denom = max(1.0, abs(fd))
            worst = max(worst, abs(grad.reshape(-1)[idx] - fd) / denom)
    zero_grads(params)
    assert worst < 1e-4


def one_update_problem():
    """The state of one training update on `tiny_problem`: a 40-item batch
    whose 20 sampled annotations reach items outside it, calibrated
    default-width networks, and fresh globals."""
    dataset, store = tiny_problem()
    rng = np.random.default_rng(3)
    batch = np.sort(rng.choice(dataset.n_items, size=40, replace=False))
    working, local_store, _ = sample_annotation_minibatch(store, batch, 20, rng)
    rows = np.searchsorted(working, batch)
    assert working.size > batch.size
    recognition = Mlp([2, 40, 40], {"loc": 2, "prec_raw": 2}, rng)
    vmp._calibrate_recognition_init(recognition, dataset.observations)
    decoder = gaussian_mlp([2, 40, 40], 2, rng)
    glob = init_global(MixturePrior(4, 2), rng, n_workers=store.n_workers)
    return dataset.observations, batch, working, rows, local_store, recognition, decoder, glob, rng


def test_batch_only_tape_gives_the_working_set_tapes_gradients():
    """The other working-set rows carry no adjoint, so leaving them off the
    tape changes the parameter gradients only by the exact zeros that
    their rows added to the weight sums."""
    obs, batch, working, rows, local_store, recognition, decoder, glob, rng = one_update_problem()
    exps = global_expectations(glob)
    log_resp = block_coordinate_local(
        glob, *recognition_potential(recognition, obs[working]), local_store
    )
    resp = np.exp(log_resp[rows])
    noise = rng.standard_normal((batch.size, 2))
    params = recognition.parameters() + decoder.parameters()
    grads = []
    for tape_rows in (working, batch):
        with Tape() as tape:
            h, j_diag = evidence(recognition, obs[tape_rows])
            if tape_rows is working:
                h, j_diag = take_rows(h, rows), take_rows(j_diag, rows)
            objective, _, _ = _network_objective(
                h, j_diag, decoder, obs[batch], resp, exps, noise, 3.0, 0.7
            )
        backward(tape, objective)
        grads.append([p.grad for p in params])
        zero_grads(params)
    for want, got in zip(*grads):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 40, 50, 300])
def test_gaussian_refresh_q_x_equals_update_local_x_bit_for_bit(n):
    """The batch rows' q(x) that the training step reads off the network
    objective's refresh, from item-major (n, K) q(z) probabilities, equals
    the entry-major refresh of the local step on the same q(z)."""
    rng = np.random.default_rng(n)
    K, d = 15, 2
    exps = global_expectations(init_global(MixturePrior(K, d), rng))
    resp = np.exp(log_softmax(rng.normal(size=(n, K), scale=3.0), axis=1))
    h = rng.normal(size=(n, d), scale=3.0)
    j_diag = -np.exp(rng.normal(-1.0, 1.0, size=(n, d)))
    _, _, q_x = vmp.gaussian_refresh(
        Tensor(h), Tensor(j_diag), resp @ exps.mean_prec, _mix(resp, exps.neg_half_prec),
        rng.standard_normal((n, d)),
    )
    x_h, x_prec, x_mean, x_cov, x_logdet = update_local_x(
        np.ascontiguousarray(resp.T), exps, h.T, j_diag.T
    )
    want = (x_h.T, -0.5 * x_prec.transpose(2, 0, 1), x_mean.T, x_cov.transpose(2, 0, 1), x_logdet)
    for name, got, expected in zip(("x_h", "x_j", "mean", "cov", "logdet"), q_x, want):
        assert np.array_equal(got, expected), name


# ---------------------------------------------------------------------------
# training loop


def tiny_problem(seed=0, n_per=40, workers=4, pairs=30, subset=60):
    rng = np.random.default_rng(seed)
    dataset = pinwheel_generate(3, n_per, rng=rng)
    pool = WorkerPool.homogeneous(workers, 0.9, 0.9)
    store = simulate_annotations(dataset, pool, pairs, subset, rng)
    return dataset, store


def test_each_update_calls_the_relational_op_once(monkeypatch):
    """One pass over the sampled triples per update: one
    `expected_rel_loglik` call on the working set's q(z) and the globals'
    worker rows, whose counts the worker target is built from and whose
    value is the estimate's relational term.  The estimate's local
    posteriors are the batch rows', whose q(z) the mixture target reads
    too."""
    dataset, store = tiny_problem()
    passes, targets, worker_targets = [], [], []

    def counting(update_store, q_z, log_stats, scale):
        term, counts = expected_rel_loglik(update_store, q_z, log_stats, scale)
        passes.append((update_store, q_z, scale, term, counts))
        return term, counts

    def targeting(prior, q_z, *args, **kwargs):
        targets.append(q_z)
        return mixture_natural_gradient(prior, q_z, *args, **kwargs)

    def worker_targeting(counts, scale):
        _, _, rel_scale, _, seen = passes[-1]
        assert counts is seen and scale == rel_scale
        worker_targets.append(counts)
        return beta_natural_gradient(counts, scale)

    def estimating(local, exps, data, rel, data_scale):
        update_store, q_z, _, term, _ = passes[-1]
        assert q_z.shape == (update_store.n_items, config.n_components)
        assert rel == float(term.data) and np.array_equal(targets[-1], local.resp)
        return final_objective(local, exps, data, rel, data_scale)

    monkeypatch.setattr(vmp, "expected_rel_loglik", counting)
    monkeypatch.setattr(vmp, "mixture_natural_gradient", targeting)
    monkeypatch.setattr(vmp, "beta_natural_gradient", worker_targeting)
    monkeypatch.setattr(vmp, "final_objective", estimating)
    config = BayesConfig(n_components=4, latent_dim=2, epochs=1, batch_size=40)
    result = train_bayes_scdc(dataset, store, config, np.random.default_rng(7))
    assert not result.diverged
    updates = -(-dataset.n_items // config.batch_size)
    assert len(passes) == len(targets) == len(worker_targets) == updates
    assert sum(update_store.n_annotations for update_store, *_ in passes) > 0


def test_zero_step_training_leaves_parameters_at_initialization(monkeypatch):
    dataset, store = tiny_problem()
    base = BayesConfig(n_components=4, latent_dim=2, batch_size=40)
    frozen = replace(base, epochs=1, lr=0.0)
    init_only = replace(base, epochs=0)
    monkeypatch.setattr(vmp, "GLOBAL_STEP", 0.0)
    trained = train_bayes_scdc(dataset, store, frozen, np.random.default_rng(123))
    reference = train_bayes_scdc(dataset, store, init_only, np.random.default_rng(123))
    assert trained.model.glob.to_dict() == reference.model.glob.to_dict()
    assert trained.model.recognition.state_dict() == reference.model.recognition.state_dict()
    assert trained.model.decoder.state_dict() == reference.model.decoder.state_dict()
    assert len(trained.history) == 1
    assert np.isfinite(trained.history[0]["objective"])
    assert reference.history == []


def test_training_is_deterministic_given_the_seed():
    dataset, store = tiny_problem()
    config = BayesConfig(n_components=4, latent_dim=2, epochs=2, batch_size=40)
    a = train_bayes_scdc(dataset, store, config, np.random.default_rng(7))
    b = train_bayes_scdc(dataset, store, config, np.random.default_rng(7))
    assert a.history == b.history
    assert a.model.glob.to_dict() == b.model.glob.to_dict()
    assert np.array_equal(a.model.predict(dataset.observations), b.model.predict(dataset.observations))


def test_training_runs_the_recognition_network_once_per_update(monkeypatch):
    """Each update evaluates every working-set row once: the batch rows on
    the tape, the others in one pass before it opens."""
    dataset, store = tiny_problem()
    config = BayesConfig(n_components=4, latent_dim=2, epochs=1, batch_size=40)
    calls, samples = [], []
    forward = Mlp.forward

    def counting_forward(net, x):
        heads = forward(net, x)
        if set(net.heads) == {"loc", "prec_raw"}:
            calls.append((np.array(x), nnet._current_tape() is not None))
        return heads

    def sampling(update_store, batch, batch_size, rng):
        working, local_store, scale = sample_annotation_minibatch(
            update_store, batch, batch_size, rng
        )
        samples.append((batch, working))
        return working, local_store, scale

    monkeypatch.setattr(Mlp, "forward", counting_forward)
    monkeypatch.setattr(vmp, "sample_annotation_minibatch", sampling)
    result = train_bayes_scdc(dataset, store, config, np.random.default_rng(7))
    assert not result.diverged
    updates = -(-dataset.n_items // config.batch_size)
    obs = dataset.observations
    # calibration, two passes per update, then the epoch's `predict`
    assert len(samples) == updates and len(calls) == 1 + 2 * updates + 1
    for (batch, working), (rest, rest_taped), (rows, taped) in zip(
        samples, calls[1:-1:2], calls[2:-1:2]
    ):
        assert working.size > batch.size
        assert taped and not rest_taped
        assert np.array_equal(rows, obs[batch])
        evaluated, want = np.concatenate([rows, rest]), obs[working]
        assert np.array_equal(evaluated[np.lexsort(evaluated.T)], want[np.lexsort(want.T)])
    assert np.array_equal(calls[-1][0], obs) and not calls[-1][1]


def test_a_non_finite_off_batch_row_still_raises_divergence(monkeypatch):
    """The local step does not check the evidence for finiteness again, so
    a non-finite observation row outside the batch must fail `Mlp.forward`'s
    check of the off-batch pass, inside `recognition_potential`, and the run
    reports a divergence."""
    dataset, store = tiny_problem()
    config = BayesConfig(n_components=4, latent_dim=2, epochs=1, batch_size=40)
    forward, raised = Mlp.forward, []

    def poisoning(net, x):
        off_batch = nnet._current_tape() is None and len(x) < dataset.n_items
        if set(net.heads) == {"loc", "prec_raw"} and off_batch:
            x = np.array(x)
            x[-1, 0] = np.nan
        return forward(net, x)

    def recording(net, observations):
        try:
            return recognition_potential(net, observations)
        except TrainingDivergence as err:
            raised.append(str(err))
            raise

    monkeypatch.setattr(Mlp, "forward", poisoning)
    monkeypatch.setattr(vmp, "recognition_potential", recording)
    result = train_bayes_scdc(dataset, store, config, np.random.default_rng(7))
    assert result.diverged and result.history == []
    assert raised == ["network head 'loc' produced non-finite outputs"]


def test_each_update_enters_every_probed_layer(monkeypatch):
    """crowdbench's per-layer spans wrap these names of vmp; an update that
    stopped calling one through its name would leave that span empty.  One
    update calls each once, `recognition_potential` for the working-set
    rows outside the batch, `expected_rel_loglik` for the worker counts and
    the estimate's relational term, and `global_expectations` twice: for
    the step and for the local step."""
    dataset, store = tiny_problem()
    config = BayesConfig(n_components=4, latent_dim=2, epochs=1, batch_size=40)
    names = (
        "block_coordinate_local", "annotation_graph", "local_kl", "mixture_natural_gradient",
        "apply_natural_gradient", "global_expectations", "recognition_potential",
        "expected_rel_loglik",
    )
    counts, snapshots = Counter(), []

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(vmp, name, counted(name, getattr(vmp, name)))
    batches = vmp.minibatch_iterator

    def snapshotting(*args, **kwargs):
        for batch in batches(*args, **kwargs):
            snapshots.append(Counter(counts))
            yield batch
        snapshots.append(Counter(counts))

    monkeypatch.setattr(vmp, "minibatch_iterator", snapshotting)
    train_bayes_scdc(dataset, store, config, np.random.default_rng(7))
    # a snapshot before each update and one after the last
    per_update = [after - before for before, after in zip(snapshots, snapshots[1:])]
    assert len(per_update) == -(-dataset.n_items // config.batch_size)
    expected = Counter(names)
    expected["global_expectations"] = 2
    assert all(calls == expected for calls in per_update)


def test_an_update_records_nineteen_tape_nodes(monkeypatch):
    """At the default hidden widths, (40, 40), one update tapes 19 nodes:
    the batch rows' recognition pass (4 layers, and softplus, negation and
    floor for j_diag), `gaussian_refresh`'s draw and bracket, the decoder's
    5 layers (with the clamp), its log-likelihood and sum, and the
    weighting, sum and scaling of the objective.  A lost fusion adds nodes
    here."""
    dataset, store = tiny_problem()
    lengths = []

    def counting(tape, output):
        lengths.append(len(tape))
        return backward(tape, output)

    monkeypatch.setattr(vmp, "backward", counting)
    config = BayesConfig(n_components=4, batch_size=40, epochs=1)
    assert config.hidden == (40, 40)
    train_bayes_scdc(dataset, store, config, np.random.default_rng(7))
    assert lengths == [19] * -(-dataset.n_items // config.batch_size)


def test_training_objective_rises_on_a_small_problem():
    dataset, store = tiny_problem()
    config = BayesConfig(n_components=4, latent_dim=2, epochs=8, batch_size=40)
    result = train_bayes_scdc(dataset, store, config, np.random.default_rng(1))
    assert not result.diverged
    assert len(result.history) == 8
    objectives = [h["objective"] for h in result.history]
    assert all(np.isfinite(v) for v in objectives)
    assert objectives[-1] > objectives[0]
    for record in result.history:
        assert set(record) == {"epoch", "objective", "effective_k", "accuracy", "nmi"}


def test_training_without_annotations_runs_and_reports():
    dataset, _ = tiny_problem()
    config = BayesConfig(n_components=4, latent_dim=2, epochs=2, batch_size=40)
    result = train_bayes_scdc(dataset, None, config, np.random.default_rng(3))
    assert not result.diverged
    assert result.model.glob.workers.eta.shape == (0, 2, 2)
    assert len(result.history) == 2


def test_unlabeled_data_reports_nan_metrics():
    dataset, store = tiny_problem()
    unlabeled = Dataset(dataset.observations)
    config = BayesConfig(n_components=4, latent_dim=2, epochs=1, batch_size=40)
    result = train_bayes_scdc(unlabeled, store, config, np.random.default_rng(2))
    assert math.isnan(result.history[0]["accuracy"])
    assert math.isnan(result.history[0]["nmi"])
    assert np.isfinite(result.history[0]["objective"])


def test_bayes_model_round_trips_through_dict():
    dataset, store = tiny_problem()
    config = BayesConfig(n_components=4, latent_dim=2, epochs=2, batch_size=40)
    result = train_bayes_scdc(dataset, store, config, np.random.default_rng(11))
    clone = BayesModel.from_dict(result.model.to_dict())
    assert np.array_equal(
        clone.predict(dataset.observations), result.model.predict(dataset.observations)
    )
    assert clone.to_dict() == result.model.to_dict()


# BayesModel.to_dict() of a trained K = 3, d = 2 model with M = 2 workers,
# written by json.dumps before the globals were stacked into batched records,
# re-recorded without the worker_prior, local_tol, prior and local_sweeps keys.
SAVED_MODEL_JSON = (
    '{"globals": {"pi_eta": [0.5988223651364917, 2.4244481552122368, 0.8262173438480535], '
    '"components": [{"h1": [-1.9013754370193479, -0.6472123638408834], '
    '"h2": [[6.840827952631709, 1.080571678413921], [1.080571678413921, '
    '3.406107783500974]], "h3": 1.1466392042228208, "h4": 7.14663920422282}, '
    '{"h1": [1.4041237413475045, -3.148863364523627], "h2": [[6.435977484082408, '
    '-3.465868002265226], [-3.465868002265226, 8.169266322043036]], '
    '"h3": 3.038835459248059, "h4": 9.038835459248059}, {"h1": [-0.08550707336697488, '
    '2.0865195470025966], "h2": [[2.9602049009409055, -0.19590688510901702], '
    '[-0.19590688510901702, 7.808347709238148]], "h3": 1.0082753365291206, '
    '"h4": 7.00827533652912}], "workers": {"alpha_taus": [[9.30994420351554, '
    '1.232752646846153], [9.499109170855169, 1.0059368777857018]], '
    '"beta_taus": [[9.279747353153848, 1.00255579648446], [9.3165631222143, '
    '1.0133908291448321]]}}, "recognition": {"sizes": [2, 2], "heads": {"loc": 2, '
    '"prec_raw": 2}, "clamp": {}, "weights": [[[0.5971748306658208, -0.24242941989525119], '
    '[0.689365553352741, -0.4423924863880782]]], "biases": [[-0.0019949165381827694, '
    '-0.0020011136154727896]], "head_weights": {"loc": [[469.4438935059312, '
    '-497.74387244194315], [-137.82112857179177, -619.4226862434252]], '
    '"prec_raw": [[0.5060194944796365, 0.46689105964132976], [-0.5111885490588861, '
    '0.03658219418715608]]}, "head_biases": {"loc": [0.0018986341304062125, '
    '0.0019372969520450821], "prec_raw": [99.99806709667642, 100.00165572927445]}}, '
    '"decoder": {"sizes": [2, 2], "heads": {"mean": 2, "logvar": 2}, '
    '"clamp": {"logvar": [-8.0, 8.0]}, "weights": [[[-0.34392318131114447, '
    '-0.013499933098782148], [0.07333368537759348, -0.554976925595048]]], '
    '"biases": [[-0.0003801634560948562, -0.0019354601811088267]], '
    '"head_weights": {"mean": [[0.5134954458372216, -0.311800676857066], '
    '[-0.0729135901809646, -0.624417516678206]], "logvar": [[-0.7051653928216053, '
    '-0.43307926554488396], [-0.22585177555464211, 0.6035924294272526]]}, '
    '"head_biases": {"mean": [0.0017545127370156772, 0.0017730868373515792], '
    '"logvar": [-0.0019653523628250158, -0.001979896188714036]}}}'
)
# The same document as written while BayesModel still kept the prior, the
# worker prior, the local tolerance and the training sweep count, then 4.
SAVED_MODEL_JSON_WITH_DROPPED_KEYS = SAVED_MODEL_JSON.replace(
    '{"globals": ',
    '{"prior": {"n_components": 3, "latent_dim": 2, "alpha0": 0.016666666666666666, '
    '"m0": [0.0, 0.0], "kappa0": 0.5, "s0": [[2.5, 0.0], [0.0, 2.5]], "nu0": 2.5}, '
    '"globals": ',
)[:-1] + ', "worker_prior": [1.0, 1.0], "local_sweeps": 4, "local_tol": 1e-06}'


def test_saved_model_document_round_trips_byte_for_byte():
    doc = json.loads(SAVED_MODEL_JSON)
    model = BayesModel.from_dict(doc)
    assert (model.glob.n_components, model.glob.latent_dim, model.glob.workers.n_workers) == (3, 2, 2)
    assert json.dumps(model.to_dict()) == SAVED_MODEL_JSON


def test_saved_model_document_with_the_dropped_keys_still_loads():
    """The retired keys are ignored, whatever they hold: the document's
    training sweep count, 4, is no longer LOCAL_SWEEPS.  The loaded model
    predicts as the same document without them."""
    doc = json.loads(SAVED_MODEL_JSON_WITH_DROPPED_KEYS)
    assert doc["local_sweeps"] == 4 != LOCAL_SWEEPS
    obs = pinwheel_generate(3, 100, rng=np.random.default_rng(0)).observations
    want = BayesModel.from_dict(json.loads(SAVED_MODEL_JSON)).predict(obs)
    for sweeps in (4, LOCAL_SWEEPS, 0, 2.9, "3", True):
        doc["local_sweeps"] = sweeps
        model = BayesModel.from_dict(doc)
        assert json.dumps(model.to_dict()) == SAVED_MODEL_JSON
        assert np.array_equal(model.predict(obs), want)


def _set(path, value):
    """Corrupts a model document: sets doc[path[0]]...[path[-1]] to value."""
    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return corrupt


def _drop(path):
    """Corrupts a model document: deletes doc[path[0]]...[path[-1]]."""
    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return corrupt


def _widen(net, where, width):
    """Corrupts a model document: gives doc[net] a consistent network whose
    head `where`, or input layer if `where` is "input", has `width` units."""
    def corrupt(doc):
        state = doc[net]
        if where == "input":
            state["sizes"][0] = width
            state["weights"][0] = [[0.0] * len(state["biases"][0])] * width
        else:
            state["heads"][where] = width
            state["head_weights"][where] = [[0.0] * width] * state["sizes"][-1]
            state["head_biases"][where] = [0.0] * width
    return corrupt


def _rename_head(net, old, new):
    """Corrupts a model document: renames head `old` of doc[net] to `new`."""
    def corrupt(doc):
        state = doc[net]
        for key in ("heads", "head_weights", "head_biases"):
            state[key][new] = state[key].pop(old)
    return corrupt


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (_set(["globals", "workers", "alpha_taus"], [[9.0, 1.0, 1.0], [9.0, 1.0, 1.0]]),
         "workers.alpha_taus"),
        (_set(["globals", "workers", "beta_taus"], [9.0, 1.0]), "workers.beta_taus"),
        # S = h2 - h1 h1^T / h3 has S_22 = 1 - 3.15^2 / 3.04 < 0
        (_set(["globals", "components", 1, "h2"], [[1.0, 0.0], [0.0, 1.0]]), "components"),
        (_set(["recognition", "weights", 0, 0, 0], float("nan")), r"recognition: weights\[0\]"),
        (_set(["decoder", "weights", 0, 0, 0], float("nan")), r"decoder: weights\[0\]"),
        (_set(["globals", "pi_eta"], [0.5, -1.5, 0.3]), "pi_eta"),
        (_set(["globals", "workers", "alpha_taus"], [[9.0, -1.0], [9.0, 1.0]]),
         "workers.alpha_taus"),
        (_set(["globals", "workers", "beta_taus"], [[9.0, 1.0], [0.0, 1.0]]), "workers.beta_taus"),
        (_set(["globals", "workers", "beta_taus"], [[9.0, 1.0]]), "workers.beta_taus"),
        # valid networks that disagree with the d = 2 globals or each other
        (_widen("recognition", "loc", 3),
         "recognition: head 'loc' has 3 outputs, the globals' latent_dim is"),
        (_widen("decoder", "input", 3), "decoder: input width 3, the globals' latent_dim is"),
        (_widen("decoder", "logvar", 3),
         "decoder: head 'logvar' has 3 outputs, the recognition input width is"),
        (_rename_head("recognition", "loc", "mean"), "recognition: heads"),
        # widths that are not positive integers, and a missing head array
        (_set(["recognition", "sizes"], [2, 3.9]), r"recognition: sizes\[1\]"),
        (_set(["recognition", "sizes"], [2, "3"]), r"recognition: sizes\[1\]"),
        (_set(["recognition", "sizes"], []), "recognition: sizes"),
        (_set(["decoder", "heads", "mean"], 2.7), r"decoder: heads\['mean'\]"),
        (_drop(["recognition", "head_weights", "loc"]), r"recognition: head_weights\['loc'\]"),
        (_drop(["decoder", "head_biases", "logvar"]), r"decoder: head_biases\['logvar'\]"),
        # missing keys
        (_drop(["globals"]), "globals"),
        (_drop(["globals", "pi_eta"]), "pi_eta"),
        (_drop(["globals", "components"]), "components"),
        (_drop(["globals", "components", 1, "h2"]), "components"),
        (_drop(["recognition"]), "recognition"),
        (_drop(["recognition", "sizes"]), "recognition: sizes"),
        (_drop(["recognition", "weights"]), "recognition: weights"),
        (_drop(["globals", "workers", "alpha_taus"]), "workers.alpha_taus"),
        # containers of the wrong kind
        (_set(["globals", "workers"], {"alpha_taus": [[]], "beta_taus": [[]]}),
         r"workers.alpha_taus: shape \(1, 0\),"),
        (_set(["recognition", "heads"], ["loc", "prec_raw"]), "recognition"),
        (_set(["recognition", "weights"], 3), "recognition"),
        (_set(["globals", "components"], {"h1": [0.0, 0.0], "h2": 1.0, "h3": 1.0, "h4": 3.0}),
         "components"),
    ],
    ids=[
        "alpha-taus-width", "beta-taus-vector", "scale-not-pd", "nan-recognition-weight",
        "nan-decoder-weight", "pi-eta-below-domain", "alpha-tau-negative", "beta-tau-zero",
        "beta-taus-one-row", "recognition-loc-of-other-d", "decoder-input-of-other-d",
        "decoder-of-other-width", "recognition-head-names", "fractional-size", "string-size",
        "no-sizes", "fractional-head-width", "missing-head-weights", "missing-head-biases",
        "missing-globals", "missing-pi-eta", "missing-components", "missing-component-h2", "missing-recognition",
        "missing-sizes", "missing-weights", "missing-alpha-taus", "empty-tau-rows",
        "listed-heads", "scalar-weights", "one-component-record",
    ],
)
def test_saved_model_document_names_a_field_that_cannot_load(corrupt, field):
    doc = json.loads(SAVED_MODEL_JSON)
    corrupt(doc)
    with pytest.raises(ValueError, match=f"^{field}[ :]"):
        BayesModel.from_dict(doc)


@pytest.mark.parametrize("bad", [{"a": 1}, "abc"], ids=["object", "string"])
@pytest.mark.parametrize(
    "path, field",
    [
        (["globals", "pi_eta"], "pi_eta"),
        (["globals", "workers", "alpha_taus"], "workers.alpha_taus"),
        (["globals", "workers", "beta_taus"], "workers.beta_taus"),
    ],
    ids=["pi-eta", "alpha-taus", "beta-taus"],
)
def test_saved_model_document_names_a_field_that_holds_no_numbers(path, field, bad):
    """A JSON object or a string where numbers belong fails naming the
    field, whether numpy refuses it with a TypeError or a ValueError."""
    doc = json.loads(SAVED_MODEL_JSON)
    _set(path, bad)(doc)
    with pytest.raises(ValueError, match=f"^{field}: "):
        BayesModel.from_dict(doc)


def test_config_validation():
    with pytest.raises(ValueError):
        BayesConfig(epochs=-1)
    for name, value in (("n_components", 1), ("n_components", True), ("latent_dim", True),
                        ("epochs", True), ("batch_size", False)):
        with pytest.raises(ValueError, match=f"^{name}"):
            BayesConfig(**{name: value})
    with pytest.raises(ValueError):
        BayesConfig(batch_size=0)
    for lr in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^lr"):
            BayesConfig(lr=lr)
    with pytest.raises(ValueError, match="^epochs"):
        BayesConfig(epochs=2.5)
    assert BayesConfig(epochs=np.int64(2)).epochs == 2


def assert_scratch_paths_equal(x, want):
    """_log_softmax_columns with a scratch array of x's layout, in place
    and not, on x and on x as a column slice of a wider (K, n) array, the
    layout of a q(z) pass's blocks, gives scipy's bits."""
    for wide in (None, 3):
        operand, scratch = x, np.empty_like(x)
        if wide is not None:
            order = "F" if x.flags.f_contiguous and not x.flags.c_contiguous else "C"
            k, n = x.shape
            outer = np.zeros((k, n + 2 * wide), order=order)
            outer[:, wide:wide + n] = x
            operand = outer[:, wide:wide + n]
            scratch = np.empty_like(outer)[:, wide:wide + n]
        out = _log_softmax_columns(operand, scratch)
        assert np.array_equal(out, want, equal_nan=True)
        copy = operand.copy(order="K")
        assert _log_softmax_columns(copy, scratch, out=copy) is copy
        assert np.array_equal(copy, want, equal_nan=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_softmax_columns_equals_scipy_exactly_on_finite_blocks_of_either_layout(seed):
    """Finite operands, the only ones a q(z) pass gives, raise no warning.
    A fancy column gather is F-ordered, a sum of blocks C-ordered; numpy
    reduces the two in different orders, so a scratch array takes the
    operand's layout."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((15, 40)) * 10.0 ** rng.uniform(-2, 3, size=(1, 40))
    gathered = x[:, rng.permutation(40)[:25]]
    assert gathered.flags.f_contiguous and not gathered.flags.c_contiguous
    summed = gathered + rng.standard_normal(gathered.shape)
    assert summed.flags.c_contiguous
    for operand in (x, gathered, summed):
        assert_scratch_paths_equal(operand, log_softmax(operand, axis=0))


# History and sha256 of the sorted-key model JSON of a 2-epoch run on
# tiny_problem(), recorded with the local step holding its responsibilities
# and component logits component-major, (K, n), and adding the
# Mahalanobis and log-determinant terms of the logits as one (K, 1)
# column, and with nnet.spd_factor, which factors the order-reversed
# matrix, as the one factorization of the local q(x) step, the NIW
# statistics and the network objective
# (numpy 2.4.6, OpenBLAS, x86-64; another BLAS may change the last bits).
# The digest was re-taken, from that same document, once the model
# stopped writing its prior section, again once it stopped writing its
# fixed local_sweeps, and again once one recognition pass over the
# working set served both the local step and the network gradient: the
# recognition weight gradients then also sum the working-set rows outside
# the batch, whose adjoint is zero, and the BLAS accumulation order moved
# 4 of the 3848 network parameters by at most 2.8e-17, with the same
# history and globals.  The two objective values were re-taken, with the
# digest and every other field unchanged, once each update's estimate
# stopped subtracting the KL of that update's globals and `driver.fit`
# began subtracting the KL of the epoch's model once per epoch (it was
# -1274.7640362917716 and -1019.2885802780362).  The epoch-1 objective
# and the digest were re-taken once the network objective's final q(x)
# refresh became one fused tape op, `nnet.gaussian_refresh`, which reads
# the covariance and log-determinant off `spd_factor` rather than
# composing them from the Cholesky root (they were -1021.6051650063614
# and cf860537...b23d); accuracy, NMI and effective K are the same, and
# no saved value moved by more than 4.3e-14.  Both held, bit for bit,
# when the local step's q(x) side went entry-major, on
# nnet.spd_factor_rows, and when the local step stopped on its last q(z)
# pass and the step read the batch rows' q(x) off the network
# objective's refresh.  The epoch-1 objective and the digest were
# re-taken once only the batch rows went on the tape, the other
# working-set rows evaluated before it: the weight gradients no longer
# sum those rows' exact zeros (they were -1021.6051650063623 and
# 5be7afa3...0835); the epoch-0 row and every quality field are the
# same.  Both held, bit for bit, when Adam began stepping one flat vector
# that every parameter views.  Both objectives and the digest were
# re-taken once training ran 3 local sweeps, not 4 (they were
# -1279.839212960404, -1021.6051650063614 and d1c8b0e8...5bfb); the
# accuracy, NMI and effective K of both epochs are the same.  The current
# code must reproduce them bit for bit.
RECORDED_RUNS = {
    "adam": (
        [
            {"epoch": 0, "objective": -1280.455123983749, "effective_k": 4,
             "accuracy": 0.65, "nmi": 0.5284607689658716},
            {"epoch": 1, "objective": -1022.5275285942702, "effective_k": 4,
             "accuracy": 0.65, "nmi": 0.5165719394406421},
        ],
        "efd18ac907f3b3af39626b14286fe7044e45853ae2ee956bfadb0664bdd3f4f9",
    ),
}


@pytest.mark.parametrize("optimizer", ["adam"])
def test_training_reproduces_the_recorded_run(optimizer):
    dataset, store = tiny_problem()
    config = BayesConfig(n_components=4, latent_dim=2, epochs=2, batch_size=40)
    result = train_bayes_scdc(dataset, store, config, np.random.default_rng(7))
    history, digest = RECORDED_RUNS[optimizer]
    assert result.history == history
    model_json = json.dumps(result.model.to_dict(), sort_keys=True)
    assert hashlib.sha256(model_json.encode()).hexdigest() == digest
