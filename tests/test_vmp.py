"""Block-coordinate local updates, objective brackets and the
natural-gradient training loop, checked against quadrature and
enumeration oracles."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import log_softmax

import oracles
from crowdmix.data import Dataset, WorkerPool, pinwheel_generate, simulate_annotations
from crowdmix.expfam import BetaNat, DirichletNat, NiwNat
from crowdmix.mixture import (
    GlobalExpectations,
    GlobalVariational,
    MixturePrior,
    global_expectations,
    init_global,
    mixture_natural_gradient,
    apply_natural_gradient,
)
from crowdmix.nnet import Mlp, Tape, TrainingDivergence, backward, zero_grads
from crowdmix.relational import (
    AnnotationStore,
    BetaWorkers,
    _message_weights,
    beta_natural_gradient,
    expected_rel_loglik,
)
from crowdmix.vmp import (
    PRECISION_FLOOR,
    AnnotationGraph,
    BayesConfig,
    BayesModel,
    LocalVariational,
    RecognitionPotential,
    _log_softmax_rows,
    _network_objective,
    annotation_graph,
    block_coordinate_local,
    component_logits,
    final_objective,
    global_kl,
    local_kl,
    potential_bracket,
    recognition_potential,
    surrogate_elbo,
    train_bayes_scdc,
    update_local_x,
    update_local_z,
)


def scalar_glob(alphas, components, workers=None) -> GlobalVariational:
    """K scalar components given as (m, kappa, S, nu) tuples."""
    m, kappa, s, nu = np.array(components, dtype=float).T
    return GlobalVariational(
        DirichletNat.from_alpha(np.asarray(alphas, dtype=float)),
        NiwNat.from_standard(m[:, None], kappa, s[:, None, None], nu),
        workers,
    )


def prior_components(prior: MixturePrior) -> NiwNat:
    """The prior NIW repeated once per component."""
    return NiwNat.from_standard(
        np.broadcast_to(prior.m0, (prior.n_components, prior.latent_dim)),
        prior.kappa0,
        prior.s0,
        prior.nu0,
    )


def scalar_local(resp, means, variances) -> LocalVariational:
    """d=1 local posteriors from responsibilities and Gaussian moments."""
    resp = np.asarray(resp, dtype=float)
    means = np.asarray(means, dtype=float).reshape(-1)
    variances = np.asarray(variances, dtype=float).reshape(-1)
    log_resp = np.full_like(resp, -np.inf)
    np.log(resp, out=log_resp, where=resp > 0.0)
    return LocalVariational(
        log_resp=log_resp,
        x_h=(means / variances)[:, None],
        x_j=(-0.5 / variances)[:, None, None],
        x_mean=means[:, None],
        x_cov=variances[:, None, None],
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
TEST_PRIOR = MixturePrior(
    n_components=2,
    latent_dim=1,
    alpha0=0.5,
    m0=np.zeros(1),
    kappa0=0.7,
    s0=np.array([[1.3]]),
    nu0=1.4,
)


def one_worker() -> BetaWorkers:
    return BetaWorkers.from_taus([(3.0, 2.0)], [(4.0, 1.0)])


# ---------------------------------------------------------------------------
# recognition potentials


def test_zero_network_potential_is_flat_with_floor_precision():
    net = zeroed_net([2, 4], {"loc": 3, "prec_raw": 3})
    pot = recognition_potential(net, np.random.default_rng(1).normal(size=(5, 2)))
    assert np.all(pot.h == 0.0)
    assert np.allclose(pot.j_diag, -(math.log(2.0) + PRECISION_FLOOR))


def test_random_network_potential_precisions_strictly_negative():
    rng = np.random.default_rng(7)
    net = Mlp([3, 8], {"loc": 2, "prec_raw": 2}, rng)
    pot = recognition_potential(net, rng.normal(size=(40, 3), scale=5.0))
    assert np.all(pot.j_diag < 0.0)
    assert pot.h.shape == (40, 2)


def test_non_finite_network_output_raises_divergence():
    net = zeroed_net([2, 4], {"loc": 2, "prec_raw": 2})
    net.head_biases["loc"].data = np.array([np.nan, 0.0])
    with pytest.raises(TrainingDivergence):
        recognition_potential(net, np.zeros((3, 2)))


def test_potential_validates_shape_and_sign():
    with pytest.raises(ValueError):
        RecognitionPotential(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        RecognitionPotential(np.zeros((2, 2)), -np.ones((2, 3)))


# ---------------------------------------------------------------------------
# local x updates


def test_identical_components_uniform_resp_reduce_to_single_component():
    # two equal components under uniform q(z) act like one: with a barely
    # visible potential the latent natural parameters are the component's
    # expected Gaussian parameters.
    comp = (0.4, 2.5, 1.8, 3.0)
    glob = scalar_glob([1.0, 1.0], [comp, comp])
    exps = global_expectations(glob)
    pot = RecognitionPotential(np.zeros((1, 1)), np.full((1, 1), -1e-13))
    x_h, x_j, _, _ = update_local_x(np.array([[0.5, 0.5]]), exps, pot)
    assert abs(x_h[0, 0] - exps.mean_prec[0, 0]) < 1e-10
    assert abs(x_j[0, 0, 0] - exps.neg_half_prec[0, 0, 0]) < 1e-10


def test_local_x_update_matches_scalar_arithmetic():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS)
    exps = global_expectations(glob)
    pot = RecognitionPotential(np.array([[0.5]]), np.array([[-1.0]]))
    resp = np.array([[0.3, 0.7]])
    x_h, x_j, x_mean, x_cov = update_local_x(resp, exps, pot)
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


def test_local_x_precision_always_negative_definite():
    rng = np.random.default_rng(3)
    prior = MixturePrior.default(4, 3)
    glob = init_global(prior, rng)
    exps = global_expectations(glob)
    resp = rng.dirichlet(np.ones(4), size=20)
    pot = RecognitionPotential(
        rng.normal(size=(20, 3), scale=4.0), -np.exp(rng.normal(size=(20, 3), scale=2.0))
    )
    _, x_j, _, _ = update_local_x(resp, exps, pot)
    eigs = np.linalg.eigvalsh(x_j)
    assert np.all(eigs < 0.0)


# ---------------------------------------------------------------------------
# local z updates


def test_symmetric_items_get_uniform_responsibilities():
    comp = (0.4, 2.5, 1.8, 3.0)
    glob = scalar_glob([2.0, 2.0], [comp, comp])
    exps = global_expectations(glob)
    base = exps.log_pi + component_logits(exps, np.array([[0.7]]), np.array([[[0.5]]]))
    out = update_local_z(base, [[]], np.full((1, 2), -math.log(2.0)))
    assert np.allclose(np.exp(out), 0.5, atol=1e-12)


def test_point_mass_neighbor_message_shifts_one_coordinate():
    base = np.array([[0.3, -0.2], [0.0, 0.0]])
    log_resp = np.log(np.array([[0.5, 0.5], [1e-300, 1.0]]))
    neighbors = [[(1, math.log(9.0))], [(0, math.log(9.0))]]
    out = update_local_z(base, neighbors, log_resp)
    expected = log_softmax(base[0] + math.log(9.0) * np.array([0.0, 1.0]))
    assert np.allclose(out[0], expected, atol=1e-12)


def test_annotation_graph_weight_matches_point_worker_log_odds():
    store = AnnotationStore([(0, 1, 0, 1)], n_items=2, n_workers=1)
    graph = annotation_graph(store, WorkerPool.homogeneous(1, 0.9, 0.9), 2)
    assert graph[0] == [(1, pytest.approx(math.log(9.0), abs=1e-12))]
    assert graph[1] == [(0, pytest.approx(math.log(9.0), abs=1e-12))]
    with pytest.raises(ValueError):
        annotation_graph(store, WorkerPool.homogeneous(1, 0.9, 0.9), 1)


def sequential_local_z(base, neighbors, log_resp, order):
    """Reference q(z) pass: unlinked items at once, then the linked items
    one at a time in the given order, each seeing the freshest state."""
    out = np.array(log_resp, dtype=float)
    resp = np.exp(out)
    free = [p for p, nb in enumerate(neighbors) if not nb]
    out[free] = log_softmax(base[free], axis=-1)
    resp[free] = np.exp(out[free])
    for p in order:
        eta = base[p].copy()
        for q, w in neighbors[p]:
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
    assert len(graph.classes) >= 3
    color = {}
    for c, idx in enumerate(graph.classes):
        assert np.all(np.diff(idx) > 0)
        for p in idx.tolist():
            assert p not in color
            color[p] = c
    assert sorted(color) == store.annotated_items.tolist()
    assert int(store.annotated_items[0]) in graph.classes[0]
    for i, j, _, _ in store.triples.tolist():
        assert color[i] != color[j]
    # greedy in index order: the smallest color no lower-indexed neighbor holds
    for p, c in color.items():
        taken = {color[q] for q, _ in graph[p] if q < p}
        assert c == min(set(range(c + 1)) - taken)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_class_update_equals_sequential_updates_in_class_order(seed):
    rng = np.random.default_rng(seed)
    store = random_annotations(rng)
    graph = annotation_graph(store, random_workers(rng, store.n_workers), store.n_items)
    K = 4
    base = rng.normal(size=(store.n_items, K), scale=2.0)
    log_resp = log_softmax(rng.normal(size=(store.n_items, K), scale=2.0), axis=-1)
    order = np.concatenate(graph.classes)
    expected = sequential_local_z(base, graph, log_resp, order)
    assert np.max(np.abs(update_local_z(base, graph, log_resp) - expected)) < 1e-12
    plain = [list(nb) for nb in graph]
    assert np.max(np.abs(update_local_z(base, plain, log_resp) - expected)) < 1e-12
    # the visiting order matters, so the comparison above is not vacuous
    by_index = sequential_local_z(base, graph, log_resp, np.sort(order))
    assert np.max(np.abs(by_index - expected)) > 1e-6


def reference_graph(store, workers, n_items):
    """Reference for annotation_graph: per-item neighbor lists built triple
    by triple and colored greedily item by item in Python loops.  Returns
    (neighbors, classes, class_edges)."""
    neighbors = [[] for _ in range(n_items)]
    if store is not None and store.n_annotations:
        t = store.triples
        weights = _message_weights(t[:, 3].astype(float), workers.log_stats()[t[:, 2]])
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


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_numpy_graph_equals_the_per_item_loop(case):
    rng = np.random.default_rng(7)
    store = GRAPH_CASES[case]
    if isinstance(store, int):
        rng = np.random.default_rng(store)
        store = random_annotations(rng)
    n_items = 6 if store is None else store.n_items
    workers = random_workers(rng, 2 if store is None else store.n_workers)
    graph = annotation_graph(store, workers, n_items)
    neighbors, classes, class_edges = reference_graph(store, workers, n_items)
    assert [list(nb) for nb in graph] == neighbors
    assert [graph[p] for p in range(n_items)] == neighbors
    assert graph.linked.tolist() == [bool(nb) for nb in neighbors]
    if case == "clique-6":
        assert len(classes) == 6
    for built in (graph, AnnotationGraph.from_lists(neighbors)):
        assert len(built.classes) == len(classes)
        assert len(built.class_edges) == len(class_edges)
        for got, want in zip(built.classes, classes):
            assert np.array_equal(got, want)
        for got, want in zip(built.class_edges, class_edges):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def grid_instance():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=one_worker())
    store = AnnotationStore([(0, 1, 0, 1), (1, 2, 0, 0)], n_items=3, n_workers=1)
    pot = RecognitionPotential(
        np.array([[0.6], [-0.4], [0.2]]), np.array([[-0.8], [-1.1], [-0.6]])
    )
    return glob, store, pot


def test_z_update_is_the_coordinate_optimum_of_the_surrogate():
    glob, store, pot = grid_instance()
    exps = global_expectations(glob)
    local = block_coordinate_local(glob, pot, store, sweeps=2, tol=0.0)
    base = exps.log_pi + component_logits(exps, local.x_mean, local.x_cov)
    graph = annotation_graph(store, glob.workers, 3)
    updated = update_local_z(base, graph, local.log_resp)

    # item 0 updates first, so its refresh uses exactly the input state
    def surrogate_at(t: float) -> float:
        cand = LocalVariational(
            np.array(local.log_resp), local.x_h, local.x_j, local.x_mean, local.x_cov
        )
        cand.log_resp[0] = np.log([t, 1.0 - t])
        return surrogate_elbo(glob, TEST_PRIOR, cand, pot, store)

    grid = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    values = [surrogate_at(t) for t in grid]
    best = grid[int(np.argmax(values))]
    t_updated = float(np.exp(updated[0, 0]))
    assert abs(t_updated - best) < 1e-3
    assert surrogate_at(t_updated) >= max(values) - 1e-8


def test_block_coordinate_reaches_a_fixed_point():
    glob, store, pot = grid_instance()
    local = block_coordinate_local(glob, pot, store, sweeps=80, tol=0.0)
    again = block_coordinate_local(
        glob, pot, store, sweeps=1, tol=0.0, init_log_resp=local.log_resp
    )
    assert np.max(np.abs(again.log_resp - local.log_resp)) < 1e-8
    assert np.max(np.abs(again.x_h - local.x_h)) < 1e-8
    assert np.max(np.abs(again.x_j - local.x_j)) < 1e-8


def test_block_coordinate_is_order_independent_without_annotations():
    rng = np.random.default_rng(11)
    prior = MixturePrior.default(3, 2)
    glob = init_global(prior, rng)
    pot_h = rng.normal(size=(6, 2))
    pot_j = -np.exp(rng.normal(size=(6, 2)))
    perm = rng.permutation(6)
    a = block_coordinate_local(glob, RecognitionPotential(pot_h, pot_j), sweeps=6)
    b = block_coordinate_local(glob, RecognitionPotential(pot_h[perm], pot_j[perm]), sweeps=6)
    assert np.allclose(b.log_resp, a.log_resp[perm], atol=1e-12)
    assert np.allclose(b.x_mean, a.x_mean[perm], atol=1e-12)


def test_surrogate_elbo_is_non_decreasing_under_coordinate_updates():
    glob, store, pot = grid_instance()
    local = block_coordinate_local(glob, pot, store, sweeps=1, tol=0.0)
    values = [surrogate_elbo(glob, TEST_PRIOR, local, pot, store)]
    for _ in range(50):
        local = block_coordinate_local(
            glob, pot, store, sweeps=1, tol=0.0, init_log_resp=local.log_resp
        )
        values.append(surrogate_elbo(glob, TEST_PRIOR, local, pot, store))
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-8)


def test_surrogate_elbo_is_non_decreasing_under_coordinate_updates_with_many_classes():
    rng = np.random.default_rng(4)
    store = random_annotations(rng)
    prior = MixturePrior.default(3, 2)
    glob = replace(init_global(prior, rng), workers=random_workers(rng, store.n_workers))
    assert len(annotation_graph(store, glob.workers, store.n_items).classes) >= 3
    pot = RecognitionPotential(
        rng.normal(size=(store.n_items, 2), scale=2.0),
        -np.exp(rng.normal(size=(store.n_items, 2))),
    )
    local = block_coordinate_local(glob, pot, store, sweeps=1, tol=0.0)
    values = [surrogate_elbo(glob, prior, local, pot, store)]
    for _ in range(30):
        local = block_coordinate_local(
            glob, pot, store, sweeps=1, tol=0.0, init_log_resp=local.log_resp
        )
        values.append(surrogate_elbo(glob, prior, local, pot, store))
    assert np.all(np.diff(values) >= -1e-8)
    assert values[-1] > values[0]


def test_surrogate_elbo_is_non_decreasing_under_step_one_global_updates():
    glob, store, pot = grid_instance()
    prior = TEST_PRIOR
    worker_prior = (BetaNat.from_tau(1.0, 1.0), BetaNat.from_tau(1.0, 1.0))
    local = block_coordinate_local(glob, pot, store, sweeps=30, tol=0.0)
    value = surrogate_elbo(glob, prior, local, pot, store)
    for _ in range(5):
        grads = mixture_natural_gradient(
            prior, local.resp, local.x_mean, local.x_cov, glob, scale=1.0
        )
        grad_a, grad_b = beta_natural_gradient(store, local.resp, worker_prior, glob.workers)
        grads = replace(grads, worker_alpha=grad_a, worker_beta=grad_b)
        glob = apply_natural_gradient(glob, grads, 1.0)
        new_value = surrogate_elbo(glob, prior, local, pot, store)
        assert new_value >= value - 1e-8
        value = new_value
        local = block_coordinate_local(
            glob, pot, store, sweeps=10, tol=0.0, init_log_resp=local.log_resp
        )
        new_value = surrogate_elbo(glob, prior, local, pot, store)
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
    assert abs(local_kl(exps, doubled, rows=[0]) - local_kl(exps, local)) < 1e-12


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
    prior = MixturePrior.default(3, 2)
    glob = init_global(prior, rng)
    exps = global_expectations(glob)
    pot = RecognitionPotential(
        rng.normal(size=(8, 2)), -np.exp(rng.normal(size=(8, 2)))
    )
    local = block_coordinate_local(glob, pot, sweeps=3)
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
    worker_prior = (BetaNat.from_tau(2.0, 0.7), BetaNat.from_tau(1.5, 3.0))
    glob_base = GlobalVariational(TEST_PRIOR.pi_nat(), prior_components(TEST_PRIOR))
    glob = replace(glob_base, workers=workers)
    value = global_kl(glob, TEST_PRIOR, worker_prior) - global_kl(glob_base, TEST_PRIOR)
    expected = sum(
        oracles.beta_kl(tuple(tau), tuple(p0.tau))
        for taus, p0 in zip((workers.alpha_taus, workers.beta_taus), worker_prior)
        for tau in taus
    )
    assert abs(value - expected) < 1e-7


def test_zero_workers_give_empty_stats_and_add_no_kl():
    bare = global_kl(scalar_glob(TEST_ALPHAS, TEST_COMPONENTS), TEST_PRIOR)
    for workers in (BetaWorkers.constant_init(0, 10.0, 1.0), BetaWorkers.from_taus([], [])):
        assert workers.n_workers == 0
        assert workers.alpha_taus.shape == (0, 2) and workers.beta_taus.shape == (0, 2)
        assert workers.log_stats().shape == (0, 4)
        glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=workers)
        assert global_kl(glob, TEST_PRIOR) == bare


def test_global_kl_matches_quadrature_oracle_for_all_blocks():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=one_worker())
    value = global_kl(glob, TEST_PRIOR)
    prior_comp = (0.0, 0.7, 1.3, 1.4)
    expected = oracles.dirichlet2_kl(TEST_ALPHAS, (0.5, 0.5))
    for comp in TEST_COMPONENTS:
        expected += oracles.niw1_kl(comp, prior_comp)
    expected += oracles.beta_kl((3.0, 2.0), (1.0, 1.0))
    expected += oracles.beta_kl((4.0, 1.0), (1.0, 1.0))
    assert abs(value - expected) < 1e-7


def test_global_kl_invariant_under_component_reordering():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS)
    swapped = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS[::-1])
    assert abs(global_kl(glob, TEST_PRIOR) - global_kl(swapped, TEST_PRIOR)) < 1e-12


# ---------------------------------------------------------------------------
# final objective


def objective_instance():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=one_worker())
    store = AnnotationStore([(0, 1, 0, 1)], n_items=2, n_workers=1)
    local = scalar_local([[0.6, 0.4], [0.2, 0.8]], [0.5, -0.2], [0.7, 1.3])
    pot = RecognitionPotential(np.array([[0.4], [-0.3]]), np.array([[-0.9], [-1.2]]))
    return glob, store, local, pot


def objective(glob, local, pot, store=None, rel_scale=1.0, rows=None):
    """final_objective with the potential bracket as its data term."""
    return final_objective(
        glob, TEST_PRIOR, local, global_expectations(glob), potential_bracket(pot, local, rows),
        store, rel_scale=rel_scale, rows=rows,
    )


def test_final_objective_matches_quadrature_and_enumeration_oracle():
    glob, store, local, pot = objective_instance()
    value = objective(glob, local, pot, store)
    expected = oracles.final_objective_oracle(
        TEST_ALPHAS,
        TEST_COMPONENTS,
        (0.5, 0.5),
        (0.0, 0.7, 1.3, 1.4),
        local.resp,
        [0.5, -0.2],
        [0.7, 1.3],
        pot.h,
        pot.j_diag,
        triples=[(0, 1, 0, 1)],
        worker_taus=[((3.0, 2.0), (4.0, 1.0))],
    )
    assert abs(value - expected) < 1e-6
    assert value == surrogate_elbo(glob, TEST_PRIOR, local, pot, store)


def test_final_objective_annotation_minibatches_are_unbiased():
    glob = scalar_glob(TEST_ALPHAS, TEST_COMPONENTS, workers=one_worker())
    store = AnnotationStore(
        [(0, 1, 0, 1), (0, 2, 0, 0), (1, 2, 0, 1)], n_items=3, n_workers=1
    )
    local = scalar_local(
        [[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]], [0.5, -0.2, 0.1], [0.7, 1.3, 0.9]
    )
    pot = RecognitionPotential(
        np.array([[0.4], [-0.3], [0.1]]), np.array([[-0.9], [-1.2], [-0.7]])
    )
    full = objective(glob, local, pot, store)
    from itertools import combinations

    estimates = []
    for rows in combinations(range(3), 2):
        sub = oracles.select_triples(store, rows)
        estimates.append(objective(glob, local, pot, sub, rel_scale=3.0 / 2.0))
    assert abs(np.mean(estimates) - full) < 1e-10


def test_final_objective_without_store_drops_the_relational_term():
    glob, store, local, pot = objective_instance()
    with_rel = objective(glob, local, pot, store)
    without = objective(glob, local, pot)
    rel = expected_rel_loglik(store, local.resp, glob.workers)
    assert abs(with_rel - without - rel) < 1e-12


def test_final_objective_row_restriction_is_additive():
    glob, store, local, pot = objective_instance()
    gkl = global_kl(glob, TEST_PRIOR)
    full = objective(glob, local, pot)
    part0 = objective(glob, local, pot, rows=[0])
    part1 = objective(glob, local, pot, rows=[1])
    assert abs((full + gkl) - ((part0 + gkl) + (part1 + gkl))) < 1e-12


# ---------------------------------------------------------------------------
# network gradient path


def test_network_objective_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    prior = MixturePrior.default(2, 2)
    glob = init_global(prior, rng)
    exps = global_expectations(glob)
    recognition = Mlp([2, 5], {"loc": 2, "prec_raw": 2}, rng)
    decoder = Mlp([2, 5], {"mean": 2, "logvar": 2}, rng, clamp={"logvar": (-8.0, 8.0)})
    obs = rng.normal(size=(3, 2))
    resp = rng.dirichlet(np.ones(2), size=3)
    noise = rng.standard_normal((1, 3, 2))
    params = recognition.parameters() + decoder.parameters()

    with Tape() as tape:
        objective, _ = _network_objective(
            recognition, decoder, obs, resp, exps, noise, data_scale=1.7
        )
    backward(tape, objective)

    def value() -> float:
        obj, _ = _network_objective(
            recognition, decoder, obs, resp, exps, noise, data_scale=1.7
        )
        return float(obj.data)

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


# ---------------------------------------------------------------------------
# training loop


def tiny_problem(seed=0, n_per=40, workers=4, pairs=30, subset=60):
    rng = np.random.default_rng(seed)
    dataset = pinwheel_generate(3, n_per, rng=rng)
    pool = WorkerPool.homogeneous(workers, 0.9, 0.9)
    store = simulate_annotations(dataset, pool, pairs, subset, rng)
    return dataset, store


def test_zero_step_training_leaves_parameters_at_initialization():
    dataset, store = tiny_problem()
    base = BayesConfig(n_components=4, latent_dim=2, batch_size=40)
    frozen = replace(base, epochs=1, global_step=0.0, net_lr=0.0)
    init_only = replace(base, epochs=0)
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
    assert result.model.glob.workers is None
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
# written by json.dumps before the globals were stacked into batched records.
SAVED_MODEL_JSON = (
    '{"prior": {"n_components": 3, "latent_dim": 2, "alpha0": 0.016666666666666666, '
    '"m0": [0.0, 0.0], "kappa0": 0.5, "s0": [[2.5, 0.0], [0.0, 2.5]], "nu0": 2.5}, '
    '"globals": {"pi_eta": [0.5988223651364917, 2.4244481552122368, 0.8262173438480535], '
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
    '"logvar": [-0.0019653523628250158, -0.001979896188714036]}}, "worker_prior": [1.0, '
    '1.0], "local_sweeps": 4, "local_tol": 1e-06}'
)


def test_saved_model_document_round_trips_byte_for_byte():
    doc = json.loads(SAVED_MODEL_JSON)
    model = BayesModel.from_dict(doc)
    assert (model.glob.n_components, model.glob.latent_dim, model.glob.n_workers) == (3, 2, 2)
    assert json.dumps(model.to_dict()) == SAVED_MODEL_JSON


def test_config_validation():
    with pytest.raises(ValueError):
        BayesConfig(epochs=-1)
    with pytest.raises(ValueError):
        BayesConfig(batch_size=0)
    with pytest.raises(ValueError):
        BayesConfig(global_step=1.5)
    with pytest.raises(ValueError):
        BayesConfig(local_sweeps=0)
    with pytest.raises(ValueError):
        BayesConfig(net_lr=-1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_softmax_rows_equals_scipy_exactly(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 7)) * 10.0 ** rng.uniform(-2, 3, size=(30, 1))
    x[rng.random(x.shape) < 0.15] = -np.inf
    x[3] = -np.inf
    x[4, 2] = np.inf
    x[5, 1] = np.nan
    assert np.array_equal(_log_softmax_rows(x), log_softmax(x, axis=-1), equal_nan=True)


# History and sha256 of the sorted-key model JSON of a 2-epoch run on
# tiny_problem(), recorded with the per-node tape engine, the per-parameter
# optimizers and scipy's log_softmax in the q(z) step (numpy 2.4, OpenBLAS,
# x86-64).  The current code must reproduce them bit for bit.
RECORDED_RUNS = {
    "adam": (
        [
            {"epoch": 0, "objective": -1274.7640362917691, "effective_k": 4,
             "accuracy": 0.65, "nmi": 0.5284607689658716},
            {"epoch": 1, "objective": -1019.2885802780362, "effective_k": 4,
             "accuracy": 0.65, "nmi": 0.5165719394406421},
        ],
        "ab888071021a997b2d4b60df3ba392bba48193fc81b533a268d7ae3a311fec18",
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
