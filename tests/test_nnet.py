import numpy as np
import pytest

from crowdmix.nnet import (
    Adam,
    Mlp,
    Tape,
    Tensor,
    TrainingDivergence,
    add,
    affine,
    backward,
    cholesky,
    clip,
    concat,
    constant,
    diag_embed,
    diag_part,
    div,
    einsum2,
    exp,
    log,
    logsumexp,
    mat_inv,
    matmul,
    mul,
    parameter,
    relu,
    reparameterize,
    sigmoid,
    softplus,
    sub,
    take_rows,
    tensor_sum,
    zero_grads,
)


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


def test_state_dict_roundtrip():
    rng = np.random.default_rng(12)
    net = Mlp([3, 7], {"mean": 2, "logvar": 2}, rng, clamp={"logvar": (-8.0, 8.0)})
    clone = Mlp.from_state(net.state_dict())
    x = rng.standard_normal((4, 3))
    a = net.forward(x)
    b = clone.forward(x)
    assert np.array_equal(a["mean"].data, b["mean"].data)
    assert np.array_equal(a["logvar"].data, b["logvar"].data)


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
            sigmoid(heads["logvar"])
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


def test_matrix_op_gradients():
    rng = np.random.default_rng(6)
    A = parameter(rng.standard_normal((3, 3)))
    M = rng.standard_normal((3, 3))
    M = M + M.T

    def build_chol():
        S = einsum2("ij,kj->ik", A, A) + constant(3.0 * np.eye(3))
        return tensor_sum(mul(cholesky(S), constant(np.tril(M))))

    assert _fd_max_rel_err(build_chol, [A]) < 1e-4

    def build_inv():
        S = einsum2("ij,kj->ik", A, A) + constant(3.0 * np.eye(3))
        return tensor_sum(mul(mat_inv(S), constant(M)))

    assert _fd_max_rel_err(build_inv, [A]) < 1e-4


def test_batched_matrix_op_gradients():
    rng = np.random.default_rng(7)
    A = parameter(rng.standard_normal((4, 2, 2)))
    M = rng.standard_normal((4, 2, 2))

    def build():
        S = einsum2("nij,nkj->nik", A, A) + constant(2.0 * np.eye(2))
        L = cholesky(S)
        B = mat_inv(S)
        out = tensor_sum(mul(L, constant(np.tril(M)))) + tensor_sum(mul(B, constant(M)))
        return out + tensor_sum(log(diag_part(S))) + tensor_sum(diag_embed(diag_part(L)))

    assert _fd_max_rel_err(build, [A]) < 1e-4


def test_misc_op_gradients():
    rng = np.random.default_rng(8)
    a = parameter(rng.standard_normal((4, 3)))
    b = parameter(rng.uniform(0.5, 2.0, size=3))
    idx = np.array([0, 2, 2, 1])

    def build():
        rows = take_rows(a, idx)
        cat = concat([rows, exp(rows)], axis=1)
        lse = logsumexp(cat, axis=1)
        s = softplus(a / b) + relu(a) + clip(a, -0.5, 0.5)
        return tensor_sum(lse) + tensor_sum(s) + tensor_sum(mul(b, b))

    assert _fd_max_rel_err(build, [a, b]) < 1e-4


def test_take_rows_accumulates_duplicates():
    a = parameter(np.array([[1.0], [2.0], [3.0]]))
    tape = Tape()
    with tape:
        loss = tensor_sum(take_rows(a, np.array([1, 1, 0])))
    backward(tape, loss)
    assert np.allclose(a.grad, [[1.0], [2.0], [0.0]])


# ---------------------------------------------------------------------------
# reparameterization


def test_reparameterize_zero_noise():
    out = reparameterize(constant(np.array([1.0, -2.0])), constant(np.array([0.5, 1.5])), np.zeros(2))
    assert np.allclose(out.data, [1.0, -2.0])


def test_reparameterize_identity():
    noise = np.array([0.3, -0.7])
    out = reparameterize(constant(np.zeros(2)), constant(np.ones(2)), noise)
    assert np.allclose(out.data, noise)


def test_reparameterize_rejects_nonpositive_std():
    with pytest.raises(ValueError):
        reparameterize(constant(np.zeros(2)), constant(np.array([1.0, 0.0])), np.zeros(2))


def test_reparameterize_monte_carlo_moments():
    rng = np.random.default_rng(9)
    mean = np.array([0.5, -0.2])
    std = np.array([1.3, 0.7])
    n = 100_000
    noise = rng.standard_normal((n, 2))
    out = reparameterize(constant(mean), constant(std), noise).data
    se_mean = std / np.sqrt(n)
    assert np.all(np.abs(out.mean(axis=0) - mean) < 3.0 * se_mean)
    se_var = std**2 * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(out.var(axis=0) - std**2) < 3.0 * se_var)


def test_reparameterize_gradient_flows():
    mean = parameter(np.array([0.1, 0.2]))
    std = parameter(np.array([1.0, 2.0]))
    noise = np.array([0.5, -1.0])
    tape = Tape()
    with tape:
        x = reparameterize(mean, std, noise)
        loss = tensor_sum(x)
    backward(tape, loss)
    assert np.allclose(mean.grad, [1.0, 1.0])
    assert np.allclose(std.grad, noise)


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
    opt = Adam([p], lr=0.5, maximize=True)
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


def test_affine_relu_matches_finite_differences():
    rng = np.random.default_rng(31)
    h = parameter(rng.standard_normal((3, 4)))
    W = parameter(rng.standard_normal((4, 2)))
    b = parameter(rng.standard_normal(2))
    weight = constant(rng.standard_normal((3, 2)))

    def build():
        return tensor_sum(mul(affine(h, W, b, relu=True), weight))

    assert _fd_max_rel_err(build, [h, W, b]) < 1e-6


@pytest.mark.parametrize("op", ["matmul", "mul", "sub", "div", "einsum2", "affine"])
@pytest.mark.parametrize("constant_slot", [0, 1])
def test_constant_parent_gets_no_gradient(op, constant_slot):
    rng = np.random.default_rng(32)
    shapes = {"matmul": [(3, 4), (4, 2)], "einsum2": [(3, 4), (4, 2)], "affine": [(3, 4), (4, 2)]}
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
        "div": lambda a, b: div(a, b),
        "einsum2": lambda a, b: einsum2("ij,jk->ik", a, b),
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
    tape = Tape()
    net.forward(rng.standard_normal((7, 3)), tape=tape)
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
    """Per-parameter Adam: the loop the flat step replaces."""

    def __init__(self, params, lr, maximize, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.sign = 1.0 if maximize else -1.0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data = p.data + self.sign * self.lr * update


def _param_set(rng):
    return [
        parameter(rng.standard_normal((3, 4))),
        parameter(rng.standard_normal(5)),
        parameter(rng.standard_normal(())),
        parameter(rng.standard_normal((2, 1))),
    ]


# `kind` names the optimizer in the ids of the tests below.
@pytest.mark.parametrize("kind", ["adam"])
@pytest.mark.parametrize("maximize", [False, True])
def test_flat_step_equals_per_parameter_reference(kind, maximize):
    rng = np.random.default_rng(34)
    flat_params = _param_set(rng)
    ref_params = [parameter(p.data.copy()) for p in flat_params]
    flat = Adam(flat_params, lr=0.05, maximize=maximize)
    ref = ReferenceAdam(ref_params, lr=0.05, maximize=maximize)
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
