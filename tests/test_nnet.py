import numpy as np
import pytest
from oracles import (
    composed_gaussian_loglik,
    exp,
    log,
    logsumexp,
    matmul,
    relu,
    reparameterize,
)
from scipy import stats

from crowdmix.data import Dataset
from crowdmix.nnet import (
    Adam,
    Mlp,
    Tape,
    Tensor,
    TrainingDivergence,
    add,
    affine,
    backward,
    clip,
    _record,
    constant,
    diag_gaussian_draw,
    diag_gaussian_loglik,
    gaussian_refresh,
    mul,
    parameter,
    scatter_add_rows,
    softplus,
    spd_factor,
    spd_factor_rows,
    sub,
    take_rows,
    tensor_sum,
    zero_grads,
)
from crowdmix.scdc import ScdcConfig, train_scdc


def _fd_max_rel_err(build_loss, params, eps=1e-6):
    """Central finite differences over every coordinate of every parameter."""
    tape = Tape()
    with tape:
        loss = build_loss()
    backward(tape, loss)
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    zero_grads(params)
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(build_loss().data)
            flat[i] = orig - eps
            lo = float(build_loss().data)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            worst = max(worst, abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])))
    return worst


# ---------------------------------------------------------------------------
# forward pass


def test_zero_weight_net_outputs_zero():
    rng = np.random.default_rng(0)
    net = Mlp([3, 5], {"out": 2}, rng)
    for p in net.parameters():
        p.data = np.zeros_like(p.data)
    out = net.forward(rng.standard_normal((4, 3)))["out"]
    assert np.all(out.data == 0.0)


def test_identity_linear_layer():
    rng = np.random.default_rng(0)
    net = Mlp([3], {"out": 3}, rng)
    net.head_weights["out"].data = np.eye(3)
    net.head_biases["out"].data = np.zeros(3)
    x = rng.standard_normal((5, 3))
    out = net.forward(x)["out"]
    assert np.allclose(out.data, x, atol=0.0)


def test_forward_matches_straight_line_reimplementation():
    rng = np.random.default_rng(42)
    net = Mlp([2, 40, 40], {"out": 2}, rng)
    x = rng.standard_normal((7, 2))
    out = net.forward(x)["out"].data

    h = np.maximum(x @ net.weights[0].data + net.biases[0].data, 0.0)
    h = np.maximum(h @ net.weights[1].data + net.biases[1].data, 0.0)
    expect = h @ net.head_weights["out"].data + net.head_biases["out"].data
    assert np.max(np.abs(out - expect)) < 1e-12


def test_forward_is_deterministic():
    rng = np.random.default_rng(1)
    net = Mlp([4, 16], {"a": 3, "b": 1}, rng)
    x = rng.standard_normal((6, 4))
    first = net.forward(x)
    second = net.forward(x)
    assert np.array_equal(first["a"].data, second["a"].data)
    assert np.array_equal(first["b"].data, second["b"].data)


def test_forward_shape_error():
    net = Mlp([4, 8], {"out": 2}, np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.zeros((3, 5)))


def test_logvar_clamp():
    rng = np.random.default_rng(2)
    net = Mlp([2, 8], {"logvar": 2}, rng, clamp={"logvar": (-8.0, 8.0)})
    net.head_weights["logvar"].data = 100.0 * np.ones_like(net.head_weights["logvar"].data)
    net.head_biases["logvar"].data = -300.0 * np.ones_like(net.head_biases["logvar"].data)
    out = net.forward(rng.standard_normal((20, 2)))["logvar"].data
    assert np.all(out >= -8.0) and np.all(out <= 8.0)
    var = np.exp(out)
    assert np.all(var >= np.exp(-8.0)) and np.all(var <= np.exp(8.0))


@pytest.mark.parametrize("head", ["mean", "logvar", "logits"])
def test_a_nan_in_any_head_raises_naming_the_head(head):
    net = Mlp([2, 4], {"mean": 2, "logvar": 2, "logits": 3}, np.random.default_rng(3),
              clamp={"logvar": (-8.0, 8.0)})
    net.head_biases[head].data[0] = np.nan
    with pytest.raises(TrainingDivergence, match=f"'{head}'"):
        net.forward(np.ones((3, 2)))


def test_an_infinite_clamped_head_is_clipped_not_raised():
    net = Mlp([2, 4], {"mean": 2, "logvar": 2}, np.random.default_rng(4),
              clamp={"logvar": (-8.0, 8.0)})
    net.head_biases["logvar"].data = np.array([np.inf, -np.inf])
    out = net.forward(np.ones((3, 2)))["logvar"].data
    assert np.all(out == [8.0, -8.0])


def test_scdc_predict_with_a_nan_weight_raises():
    dataset = Dataset(np.random.default_rng(5).standard_normal((6, 2)))
    model = train_scdc(dataset, None, ScdcConfig(epochs=0, hidden=(4,)),
                       np.random.default_rng(6)).model
    model.encoder_z.weights[0].data[0, 0] = np.nan
    with pytest.raises(TrainingDivergence, match="'logits'"):
        model.predict(dataset.observations)


def test_state_dict_roundtrip():
    rng = np.random.default_rng(12)
    net = Mlp([3, 7], {"mean": 2, "logvar": 2}, rng, clamp={"logvar": (-8.0, 8.0)})
    clone = Mlp.from_state(net.state_dict())
    x = rng.standard_normal((4, 3))
    a = net.forward(x)
    b = clone.forward(x)
    assert np.array_equal(a["mean"].data, b["mean"].data)
    assert np.array_equal(a["logvar"].data, b["logvar"].data)


def _head_bias_of_width_one(state):
    state["head_biases"]["mean"] = [0.5]


def _truncated_weights(state):
    state["weights"] = state["weights"][:1]


def _transposed_first_weight(state):
    state["weights"][0] = np.asarray(state["weights"][0]).T.tolist()


def _missing_head_weights(state):
    del state["head_weights"]["logvar"]


@pytest.mark.parametrize(
    "corrupt, name",
    [
        (_head_bias_of_width_one, r"head_biases\['mean'\]"),
        (_truncated_weights, "weights"),
        (_transposed_first_weight, r"weights\[0\]"),
        (_missing_head_weights, r"head_weights\['logvar'\]"),
    ],
    ids=["head-bias-width", "truncated-weights", "transposed-weight", "missing-head-weights"],
)
def test_from_state_rejects_arrays_that_do_not_fit(corrupt, name):
    net = Mlp([3, 7, 5], {"mean": 2, "logvar": 2}, np.random.default_rng(13))
    state = net.state_dict()
    corrupt(state)
    with pytest.raises(ValueError, match=f"^{name} has"):
        Mlp.from_state(state)


@pytest.mark.parametrize(
    "sizes, heads, name",
    [
        ([3, 3.9], {"out": 2}, r"sizes\[1\]"),
        ([3, "4"], {"out": 2}, r"sizes\[1\]"),
        ([True, 4], {"out": 2}, r"sizes\[0\]"),
        ([3, 0], {"out": 2}, r"sizes\[1\]"),
        ([], {"out": 2}, "sizes"),
        ([3, 4], {"out": 2.7}, r"heads\['out'\]"),
        ([3, 4], {"out": 0}, r"heads\['out'\]"),
    ],
    ids=["fractional-size", "string-size", "bool-size", "zero-size", "no-sizes",
         "fractional-head", "zero-head"],
)
def test_mlp_names_a_width_that_is_not_a_positive_integer(sizes, heads, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        Mlp(sizes, heads, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# backward pass


def test_square_gradient():
    w = parameter(3.0)
    tape = Tape()
    with tape:
        loss = mul(w, w)
    backward(tape, loss)
    assert np.allclose(w.grad, 6.0)


def test_constant_has_zero_gradient():
    rng = np.random.default_rng(3)
    net = Mlp([2, 4], {"out": 1}, rng)
    tape = Tape()
    with tape:
        loss = mul(parameter(5.0), constant(2.0))
    backward(tape, loss)
    for p in net.parameters():
        assert p.grad is None or np.all(p.grad == 0.0)


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = Mlp([3, 10, 10], {"mean": 2, "logvar": 2}, rng, clamp={"logvar": (-8.0, 8.0)})
    x = rng.standard_normal((5, 3))

    def build():
        heads = net.forward(x)
        return tensor_sum(mul(heads["mean"], heads["mean"])) + tensor_sum(
            softplus(heads["logvar"])
        )

    assert _fd_max_rel_err(build, net.parameters(), eps=1e-5) < 1e-4


def test_every_artifact_network_configuration_fd():
    # decoder, recognition net, z-encoder, x-encoder shapes used by the runs
    rng = np.random.default_rng(5)
    configs = [
        ([2, 40, 40], {"mean": 2, "logvar": 2}, {"logvar": (-8.0, 8.0)}),
        ([2, 40, 40], {"loc": 2, "prec_raw": 2}, None),
        ([2, 40, 40], {"logits": 15}, None),
        ([17, 40, 40], {"mean": 2, "logvar": 2}, {"logvar": (-8.0, 8.0)}),
    ]
    for sizes, heads, clamp_spec in configs:
        net = Mlp(sizes, heads, rng, clamp=clamp_spec)
        x = rng.standard_normal((3, sizes[0]))
        mix = {name: rng.standard_normal((3, w)) for name, w in heads.items()}

        def build(net=net, x=x, mix=mix):
            out = net.forward(x)
            total = constant(0.0)
            for name, w in mix.items():
                total = total + tensor_sum(mul(out[name], constant(w)))
            return total

        err = _fd_max_rel_err(build, net.parameters(), eps=1e-6)
        assert err < 1e-4, (sizes, heads, err)


def test_backward_rejects_nonscalar():
    x = parameter(np.ones(3))
    tape = Tape()
    with tape:
        y = mul(x, x)
    with pytest.raises(ValueError):
        backward(tape, y)


# ---------------------------------------------------------------------------
# primitive op gradients


def test_spd_factor_keeps_the_batch_shape():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((2, 3, 3, 3))
    a = b @ np.swapaxes(b, -1, -2) + 6.0 * np.eye(3)
    inv, logdet, root = spd_factor(a)
    assert inv.shape == root.shape == (2, 3, 3, 3) and logdet.shape == (2, 3)
    single = spd_factor(a[1, 2])
    assert single[0].shape == single[2].shape == (3, 3) and single[1].shape == ()
    for batched, one in zip((inv, logdet, root), single):
        assert np.array_equal(batched[1, 2], one)


@pytest.mark.parametrize("batch", [(1,), (7,), (2, 3)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_spd_factor_rows_equals_spd_factor_bit_for_bit(d, batch):
    """The entry-major kernel on (d, d, n) rows gives spd_factor's inverse,
    log-determinant and root, whatever the batch shape, and factors each
    matrix the same alone as among the others."""
    rng = np.random.default_rng(d)
    b = rng.standard_normal((*batch, d, d))
    a = b @ np.swapaxes(b, -1, -2) + 2.0 * d * np.eye(d)
    n = a.size // (d * d)
    rows = np.ascontiguousarray(np.moveaxis(a.reshape(n, d, d), 0, -1))
    inv, logdet, root = spd_factor_rows(rows)
    assert inv.shape == root.shape == (d, d, n) and logdet.shape == (n,)
    want = spd_factor(a)
    for got, expected in zip((inv, root), (want[0], want[2])):
        assert np.array_equal(np.moveaxis(got, -1, 0).reshape(a.shape), expected)
    assert np.array_equal(logdet.reshape(batch), want[1])
    for p in range(n):
        alone = spd_factor_rows(rows[:, :, p:p + 1])
        for got, one in zip((inv, logdet, root), alone):
            assert np.array_equal(got[..., p:p + 1], one)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("pivot", [0.0, -0.5, np.nan])
def test_spd_factor_rows_rejects_a_bad_pivot(d, pivot):
    """A zero, negative or NaN pivot in one matrix of the rows raises
    LinAlgError; A_00 is the last pivot of the order-reversed factor."""
    rows = np.zeros((d, d, 5))
    rows[np.arange(d), np.arange(d)] = 1.0
    rows[0, 0, 3] = pivot
    with pytest.raises(np.linalg.LinAlgError):
        spd_factor_rows(rows)


def test_misc_op_gradients():
    rng = np.random.default_rng(8)
    a = parameter(rng.standard_normal((4, 3)))
    b = parameter(rng.uniform(0.5, 2.0, size=3))
    idx = np.array([0, 2, 2, 1])

    def build():
        rows = take_rows(a, idx)
        lse = logsumexp(mul(rows, exp(rows)), axis=1)
        s = softplus(mul(a, b)) + relu(a) + clip(a, -0.5, 0.5)
        return tensor_sum(lse) + tensor_sum(s) + tensor_sum(mul(b, b))

    assert _fd_max_rel_err(build, [a, b]) < 1e-4


@pytest.mark.parametrize(
    "n_rows, n_idx, width",
    [(0, 0, (3,)), (4, 0, (2,)), (5, 9, ()), (100, 200, (15,)), (400, 1500, (4,)), (6, 12, (2, 3))],
)
def test_scatter_add_rows_equals_add_at_bit_for_bit(n_rows, n_idx, width):
    """Repeated rows, signed zeros and values of every magnitude: the same
    float64 bits as np.add.at into zeros."""
    rng = np.random.default_rng(n_rows + n_idx)
    idx = rng.integers(max(n_rows, 1), size=n_idx)
    values = rng.standard_normal((n_idx, *width)) * 10.0 ** rng.integers(-8, 9, (n_idx, *width))
    values[::3] *= -0.0
    want = np.zeros((n_rows, *width))
    np.add.at(want, idx, values)
    got = scatter_add_rows(idx, values, n_rows)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_take_rows_accumulates_duplicates():
    a = parameter(np.array([[1.0], [2.0], [3.0]]))
    tape = Tape()
    with tape:
        loss = tensor_sum(take_rows(a, np.array([1, 1, 0])))
    backward(tape, loss)
    assert np.allclose(a.grad, [[1.0], [2.0], [0.0]])


# ---------------------------------------------------------------------------
# the draw and bracket of a q(x) refresh


# The composed tape graph of a refresh, its draw and its bracket, kept as
# the oracle of gaussian_refresh on the refresh's arrays (fused_refresh),
# with the four ops it was built from, on the engine's node recorder.


def einsum2(spec, a, b):
    """Two-operand einsum; every index of an operand appears in the output
    or in the other operand."""
    lhs, out_spec = spec.split("->")
    a_spec, b_spec = lhs.split(",")

    def vjp(g):
        return (
            np.einsum(f"{out_spec},{b_spec}->{a_spec}", g, b.data) if a.requires else None,
            np.einsum(f"{a_spec},{out_spec}->{b_spec}", a.data, g) if b.requires else None,
        )

    return _record(np.einsum(spec, a.data, b.data), (a, b), vjp)


def diag_part(a):
    idx = np.arange(a.data.shape[-1])

    def vjp(g):
        out = np.zeros_like(a.data)
        out[..., idx, idx] = g
        return (out,)

    return _record(a.data[..., idx, idx].copy(), (a,), vjp)


def diag_embed(a):
    idx = np.arange(a.data.shape[-1])
    out = np.zeros(a.data.shape + a.data.shape[-1:])
    out[..., idx, idx] = a.data
    return _record(out, (a,), lambda g: (g[..., idx, idx],))


def inverse_cholesky(a):
    """C = chol(A^-1), with Murray's Cholesky VJP composed with the inverse
    for symmetric perturbations of A."""
    root = spd_factor(a.data)[2]
    root_t = np.swapaxes(root, -1, -2)
    idx = np.arange(root.shape[-1])

    def vjp(g):
        phi = np.tril(root_t @ g)
        phi[..., idx, idx] *= 0.5
        m = root @ phi @ root_t
        return (-0.5 * (m + np.swapaxes(m, -1, -2)),)

    return _record(root, (a,), vjp)


def composed_refresh(h, j_diag, base_h, base_j, noise):
    x_j = constant(base_j) + diag_embed(j_diag)
    root = inverse_cholesky(x_j * (-2.0))
    cov = einsum2("nij,nkj->nik", root, root)
    h_tot = constant(base_h) + h
    mean = einsum2("nij,nj->ni", cov, h_tot)
    log_z = tensor_sum(mean * h_tot) * 0.5 + tensor_sum(log(diag_part(root)))
    second_diag = diag_part(cov) + mean * mean
    psi_term = tensor_sum(h * mean) + tensor_sum(j_diag * second_diag)
    return mean + einsum2("nij,nj->ni", root, constant(noise)), log_z - psi_term


def refresh_instance(d, seed, n=5):
    """Evidence parameters (h, j_diag) and constant (base_h, base_j, noise)
    with a well-conditioned negative definite base_j."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d, d))
    base_j = -0.5 * (a @ np.swapaxes(a, -1, -2) + d * np.eye(d))
    return (
        parameter(rng.standard_normal((n, d))),
        parameter(-rng.uniform(0.2, 2.0, size=(n, d))),
        rng.standard_normal((n, d)),
        base_j,
        rng.standard_normal((n, d)),
    )


def fused_refresh(h, j_diag, base_h, base_j, noise):
    """gaussian_refresh on the q(x) of the natural parameters (base_h + h,
    base_j + diag(j_diag)), its arrays made here from the evidence's
    current values as a refresh makes them."""
    idx = np.arange(h.data.shape[1])
    x_j = np.array(base_j)
    x_j[:, idx, idx] += j_diag.data
    cov, logdet, root = spd_factor(-2.0 * x_j)
    x_h = base_h + h.data
    mean = np.einsum("nij,nj->ni", cov, x_h)
    return gaussian_refresh(h, j_diag, x_h, mean, cov, root, logdet, noise)


def refresh_losses(refresh, h, j_diag, base_h, base_j, noise, adjoint):
    """The draw's loss sum(adjoint * draw), and the bracket."""
    draw, bracket = refresh(h, j_diag, base_h, base_j, noise)
    return tensor_sum(mul(draw, constant(adjoint))), bracket


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gaussian_refresh_equals_the_composed_graph(d):
    """Values and the gradients of the draw and of the bracket, each with
    respect to h and j_diag, to 1e-12; the op records two nodes."""
    h, j_diag, base_h, base_j, noise = refresh_instance(d, 20 + d)
    adjoint = np.random.default_rng(d).standard_normal(h.shape)
    results = []
    for refresh in (fused_refresh, composed_refresh):
        row = []
        for which in (0, 1):
            with Tape() as tape:
                losses = refresh_losses(refresh, h, j_diag, base_h, base_j, noise, adjoint)
            if refresh is fused_refresh:
                assert len(tape) == 2 + 2  # the op's two nodes, the loss's mul and sum
            backward(tape, losses[which])
            row += [losses[which].data, h.grad, j_diag.grad]
            zero_grads([h, j_diag])
        results.append(row)
    for got, want in zip(*results):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gaussian_refresh_gradients_match_finite_differences(d):
    """Also checks Murray's Cholesky VJP through the draw."""
    h, j_diag, base_h, base_j, noise = refresh_instance(d, 30 + d)
    adjoint = np.random.default_rng(d).standard_normal(h.shape)

    def build():
        draw_loss, bracket = refresh_losses(
            fused_refresh, h, j_diag, base_h, base_j, noise, adjoint
        )
        return draw_loss + bracket * 0.7

    assert _fd_max_rel_err(build, [h, j_diag]) < 1e-6, d


@pytest.mark.parametrize("requires", [(True, False), (False, True)])
def test_gaussian_refresh_gives_a_constant_parent_no_gradient(requires):
    h, j_diag, base_h, base_j, noise = refresh_instance(2, 40)
    h.requires, j_diag.requires = requires
    with Tape() as tape:
        fused_refresh(h, j_diag, base_h, base_j, noise)
    for out, _, vjp in tape._nodes:
        grads = vjp(np.ones_like(out.data))
        assert [g is not None for g in grads] == list(requires)


# ---------------------------------------------------------------------------
# reparameterization and the diagonal Gaussian log-likelihood


def _draw(mean, std, noise):
    """`diag_gaussian_draw` at the standard deviations std."""
    return diag_gaussian_draw(mean, constant(2.0 * np.log(std)), noise)


def test_reparameterize_zero_noise():
    out = _draw(constant(np.array([1.0, -2.0])), np.array([0.5, 1.5]), np.zeros(2))
    assert np.allclose(out.data, [1.0, -2.0])


def test_reparameterize_identity():
    noise = np.array([0.3, -0.7])
    out = _draw(constant(np.zeros(2)), np.ones(2), noise)
    assert np.allclose(out.data, noise)


def test_reparameterize_rejects_nonpositive_std():
    """A log-variance of -inf, or one whose exp underflows, has std 0."""
    for logvar in (-np.inf, -2000.0):
        with pytest.raises(ValueError, match="std must be positive"):
            diag_gaussian_draw(constant(np.zeros(2)), constant(np.array([1.0, logvar])), np.zeros(2))


def test_reparameterize_monte_carlo_moments():
    rng = np.random.default_rng(9)
    mean = np.array([0.5, -0.2])
    std = np.array([1.3, 0.7])
    n = 100_000
    noise = rng.standard_normal((n, 2))
    out = _draw(constant(np.tile(mean, (n, 1))), np.tile(std, (n, 1)), noise).data
    se_mean = std / np.sqrt(n)
    assert np.all(np.abs(out.mean(axis=0) - mean) < 3.0 * se_mean)
    se_var = std**2 * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(out.var(axis=0) - std**2) < 3.0 * se_var)


def test_reparameterize_gradient_flows():
    mean = parameter(np.array([0.1, 0.2]))
    logvar = parameter(np.array([0.0, 2.0 * np.log(2.0)]))
    noise = np.array([0.5, -1.0])
    tape = Tape()
    with tape:
        x = diag_gaussian_draw(mean, logvar, noise)
        loss = tensor_sum(x)
    backward(tape, loss)
    assert np.allclose(mean.grad, [1.0, 1.0])
    assert np.allclose(logvar.grad, 0.5 * noise * np.array([1.0, 2.0]))


def _gaussian_instance(seed, shape):
    rng = np.random.default_rng(seed)
    mean = parameter(rng.standard_normal(shape))
    logvar = parameter(np.clip(rng.normal(0.0, 3.0, shape), -8.0, 8.0))
    return rng, mean, logvar


@pytest.mark.parametrize("shape", [(1, 1), (7, 2), (60, 5)])
def test_diag_gaussian_draw_equals_the_composed_graph(shape):
    """Value and both gradients, under np.array_equal, against
    mean + exp(logvar * 0.5) * noise; one node."""
    rng, mean, logvar = _gaussian_instance(shape[0], shape)
    noise, adjoint = rng.standard_normal((2, *shape))
    results = []
    for draw in (diag_gaussian_draw, lambda m, lv, e: reparameterize(m, exp(lv * 0.5), e)):
        with Tape() as tape:
            out = draw(mean, logvar, noise)
            loss = tensor_sum(mul(out, constant(adjoint)))
        if draw is diag_gaussian_draw:
            assert len(tape) == 1 + 2
        backward(tape, loss)
        results.append((out.data, mean.grad, logvar.grad))
        zero_grads([mean, logvar])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(1, 1), (7, 2), (60, 5)])
def test_diag_gaussian_loglik_equals_the_composed_graph(shape):
    """Value and the gradients in mean and logvar, under np.array_equal,
    against the 9-node composition, in one node; the value is the sum of
    scipy's log-densities, a tensor x read as data."""
    rng, mean, logvar = _gaussian_instance(10 + shape[0], shape)
    x = rng.standard_normal(shape)
    adjoint = rng.standard_normal(shape[:-1])
    results = []
    for loglik in (diag_gaussian_loglik, composed_gaussian_loglik):
        with Tape() as tape:
            out = loglik(x, mean, logvar)
            loss = tensor_sum(mul(out, constant(adjoint)))
        if loglik is diag_gaussian_loglik:
            assert len(tape) == 1 + 2
        backward(tape, loss)
        results.append((out.data, mean.grad, logvar.grad))
        zero_grads([mean, logvar])
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    assert np.allclose(
        diag_gaussian_loglik(parameter(x), constant(mean.data), constant(logvar.data)).data,
        stats.norm.logpdf(x, mean.data, np.exp(0.5 * logvar.data)).sum(axis=-1),
        rtol=1e-12, atol=0.0,
    )


# ---------------------------------------------------------------------------
# optimizers


def test_zero_gradient_leaves_params():
    p = parameter(np.array([1.0, 2.0]))
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.allclose(p.data, [1.0, 2.0])


def test_ascent_moves_along_gradient():
    # Adam's first step moves each coordinate by lr * g / (|g| + eps)
    p = parameter(np.array([0.0, 0.0]))
    opt = Adam([p], lr=0.5)
    p.grad = np.array([2.0, -3.0])
    opt.step()
    np.testing.assert_allclose(p.data, [0.5, -0.5], rtol=1e-8)


def test_adam_deterministic_and_finite_check():
    p = parameter(np.array([1.0]))
    opt = Adam([p], lr=0.01)
    p.grad = np.array([0.5])
    opt.step()
    first = p.data.copy()
    q = parameter(np.array([1.0]))
    opt2 = Adam([q], lr=0.01)
    q.grad = np.array([0.5])
    opt2.step()
    assert np.array_equal(first, q.data)
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingDivergence):
        opt.step()


# ---------------------------------------------------------------------------
# lean engine: fused affine node, constant-aware products, released adjoints


def _affine_value_and_grads(build, h_requires, seed):
    rng = np.random.default_rng(seed)
    h = Tensor(rng.standard_normal((6, 4)), requires=h_requires)
    W = parameter(rng.standard_normal((4, 5)))
    b = parameter(rng.standard_normal(5))
    weight = constant(rng.standard_normal((6, 5)))
    with Tape() as tape:
        out = build(h, W, b)
        loss = tensor_sum(mul(mul(out, out), weight))
    backward(tape, loss)
    return out.data, h.grad, W.grad, b.grad


@pytest.mark.parametrize("h_requires", [False, True])
@pytest.mark.parametrize("with_relu", [False, True])
def test_affine_equals_matmul_add_relu_exactly(h_requires, with_relu):
    def fused(h, W, b):
        return affine(h, W, b, relu=with_relu)

    def unfused(h, W, b):
        out = add(matmul(h, W), b)
        return relu(out) if with_relu else out

    got = _affine_value_and_grads(fused, h_requires, seed=30)
    want = _affine_value_and_grads(unfused, h_requires, seed=30)
    if with_relu:
        assert np.any(want[0] == 0.0) and np.any(want[0] > 0.0)
    assert (got[1] is None) == (not h_requires)
    for a, b in zip(got, want):
        assert (a is None and b is None) or np.array_equal(a, b)


def test_affine_relu_cuts_to_positive_zero_and_maps_minus_infinity_to_zero():
    """The ReLU's two edge cases: a cut unit reads +0.0, not relu's -0.0,
    and a pre-activation of -inf reads 0, where relu's product gives NaN;
    neither passes an adjoint back."""
    h = parameter(np.array([[1.0, -1.0]]))
    W = constant(np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    b = constant(np.array([0.0, -np.inf, 0.5]))
    with Tape() as tape:
        out = affine(h, W, b, relu=True)
        loss = tensor_sum(out)
    assert out.data.tolist() == [[0.0, 0.0, 1.5]] and not np.signbit(out.data).any()
    with np.errstate(invalid="ignore"):   # -inf * 0
        assert np.isnan(relu(constant(np.array([-np.inf]))).data).all()
    assert np.signbit(relu(constant(np.array([-1.0]))).data).all()
    backward(tape, loss)
    assert np.array_equal(h.grad, [[1.0, 0.0]])


def test_affine_relu_matches_finite_differences():
    rng = np.random.default_rng(31)
    h = parameter(rng.standard_normal((3, 4)))
    W = parameter(rng.standard_normal((4, 2)))
    b = parameter(rng.standard_normal(2))
    weight = constant(rng.standard_normal((3, 2)))

    def build():
        return tensor_sum(mul(affine(h, W, b, relu=True), weight))

    assert _fd_max_rel_err(build, [h, W, b]) < 1e-6


@pytest.mark.parametrize("op", ["matmul", "mul", "sub", "affine"])
@pytest.mark.parametrize("constant_slot", [0, 1])
def test_constant_parent_gets_no_gradient(op, constant_slot):
    rng = np.random.default_rng(32)
    shapes = {"matmul": [(3, 4), (4, 2)], "affine": [(3, 4), (4, 2)]}
    a_shape, b_shape = shapes.get(op, [(3, 2), (3, 2)])
    operands = [
        Tensor(rng.uniform(0.5, 2.0, a_shape), requires=constant_slot != 0),
        Tensor(rng.uniform(0.5, 2.0, b_shape), requires=constant_slot != 1),
    ]
    bias = parameter(rng.standard_normal(2))
    build = {
        "matmul": lambda a, b: matmul(a, b),
        "mul": lambda a, b: mul(a, b),
        "sub": lambda a, b: sub(a, b),
        "affine": lambda a, b: affine(a, b, bias, relu=True),
    }[op]
    with Tape() as tape:
        loss = tensor_sum(build(*operands))
    out, parents, vjp = tape._nodes[0]
    grads = vjp(np.ones_like(out.data))
    assert grads[constant_slot] is None
    assert grads[1 - constant_slot].shape == operands[1 - constant_slot].shape
    backward(tape, loss)
    assert operands[constant_slot].grad is None
    assert operands[1 - constant_slot].grad is not None


def test_mlp_forward_records_one_node_per_layer_head_and_clamp():
    rng = np.random.default_rng(33)
    net = Mlp([3, 6, 5], {"mean": 2, "logvar": 2, "logits": 4}, rng, clamp={"logvar": (-4.0, 4.0)})
    with Tape() as tape:
        net.forward(rng.standard_normal((7, 3)))
    assert len(tape) == 2 + 3 + 1


def test_second_backward_adds_exactly_one_more_leaf_gradient():
    w = parameter(np.array([0.3, -0.2, 0.1]))
    tape = Tape()
    with tape:
        y = tensor_sum(exp(mul(w, constant(3.0))))
    backward(tape, y)
    once = w.grad.copy()
    backward(tape, y)
    assert np.array_equal(w.grad, 2.0 * once)
    assert all(out.grad is None for out, _, _ in tape._nodes)


# ---------------------------------------------------------------------------
# flat Adam step


class ReferenceAdam:
    """Per-parameter Adam ascent: the loop the flat step replaces.  A
    missing gradient counts as zero."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data = p.data + self.lr * update


def _param_set(rng):
    return [
        parameter(rng.standard_normal((3, 4))),
        parameter(rng.standard_normal(5)),
        parameter(rng.standard_normal(())),
        parameter(rng.standard_normal((2, 1))),
    ]


# `kind` names the optimizer in the ids of the tests below.
@pytest.mark.parametrize("kind", ["adam"])
def test_flat_step_equals_per_parameter_reference(kind):
    rng = np.random.default_rng(34)
    flat_params = _param_set(rng)
    ref_params = [parameter(p.data.copy()) for p in flat_params]
    flat = Adam(flat_params, lr=0.05)
    ref = ReferenceAdam(ref_params, lr=0.05)
    for step in range(10):
        for i, (p, q) in enumerate(zip(flat_params, ref_params)):
            # parameter 1 has no gradient on every third step, parameter 3 on odd steps
            missing = (i == 1 and step % 3 == 0) or (i == 3 and step % 2 == 1)
            g = None if missing else rng.standard_normal(p.data.shape) * 10.0 ** rng.uniform(-3, 1)
            p.grad = g
            q.grad = None if g is None else g.copy()
        flat.step()
        ref.step()
        for p, q in zip(flat_params, ref_params):
            assert np.array_equal(p.data, q.data)
            assert p.data.shape == q.data.shape


def test_step_updates_the_flat_vector_that_every_parameter_views():
    """The constructor copies the parameters into `flat` and makes each
    `.data` its view; twenty steps then leave every view in place, equal
    bit for bit to the per-tensor formula, and a tensor that never has a
    gradient unchanged."""
    rng = np.random.default_rng(39)
    params = [*_param_set(rng), parameter(rng.standard_normal((2, 3)))]
    initial = [p.data.copy() for p in params]
    ref_params = [parameter(a.copy()) for a in initial]
    opt = Adam(params, lr=0.01)
    ref = ReferenceAdam(ref_params, lr=0.01)
    views = [p.data for p in params]
    assert np.array_equal(opt.flat, np.concatenate([a.ravel() for a in initial]))
    for _ in range(20):
        for p, q in zip(params[:-1], ref_params[:-1]):
            p.grad = rng.standard_normal(p.data.shape) * 10.0 ** rng.uniform(-3, 1)
            q.grad = p.grad.copy()
        opt.step()
        ref.step()
        for p, q, view in zip(params, ref_params, views):
            assert p.data is view and np.shares_memory(view, opt.flat)
            assert p.data.shape == q.data.shape and np.array_equal(p.data, q.data)
    assert params[-1].grad is None and np.array_equal(params[-1].data, initial[-1])


def _optimizer_state(opt):
    return opt.m.copy(), opt.v.copy(), opt.t


@pytest.mark.parametrize("kind", ["adam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejected_step_changes_nothing(kind, bad):
    p = parameter(np.array([1.0]))
    q = parameter(np.array([2.0, 3.0]))
    opt = Adam([p, q], lr=0.1)
    for first_step in (True, False):
        p.grad = np.array([0.5])
        q.grad = np.array([0.25, bad])
        values = [p.data.copy(), q.data.copy()]
        state = _optimizer_state(opt)
        with pytest.raises(TrainingDivergence):
            opt.step()
        assert np.array_equal(p.data, values[0]) and np.array_equal(q.data, values[1])
        for before, after in zip(state, _optimizer_state(opt)):
            assert np.array_equal(before, after)
        if first_step:
            assert all(np.all(np.asarray(s) == 0) for s in state)
            q.grad = np.array([0.25, 0.5])
            opt.step()


@pytest.mark.parametrize("kind", ["adam"])
def test_step_rejects_gradient_of_the_wrong_size(kind):
    p = parameter(np.array([1.0, 2.0]))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="gradient sizes"):
        opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])
