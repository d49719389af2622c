"""Minimal reverse-mode automatic differentiation on numpy arrays, plus the
small feedforward networks (ReLU hidden stack, named linear heads) and
optimizers used for training.

A Tape records operations in execution order while it is active (it is a
context manager); backward() walks the record in reverse, so nodes are
visited in reverse topological order exactly once.  Tensors wrap float64
numpy arrays of any shape and broadcast like numpy.  With no active tape
all operations are plain numpy evaluation.
"""

from __future__ import annotations

import threading

import numpy as np

_ACTIVE = threading.local()


def _tape_stack():
    if not hasattr(_ACTIVE, "stack"):
        _ACTIVE.stack = []
    return _ACTIVE.stack


def _current_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class TrainingDivergence(RuntimeError):
    """Raised when a gradient or objective stops being finite."""


class Tape:
    """Recorded operation graph for one forward pass."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires")

    def __init__(self, data, requires: bool = True):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires = requires

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # operator sugar; constants are wrapped as non-differentiable tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, constant(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __pow__(self, exponent):
        return power(self, exponent)


def constant(data) -> Tensor:
    return Tensor(data, requires=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=float), requires=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over the axes numpy broadcasting introduced."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _record(data, parents, vjp) -> Tensor:
    parents = tuple(parents)
    requires = any(p.requires for p in parents)
    out = Tensor(data, requires=requires)
    tape = _current_tape()
    if tape is not None and requires:
        tape._nodes.append((out, parents, vjp))
    return out


def _accumulate(t: Tensor, grad: np.ndarray):
    if not t.requires:
        return
    grad = _unbroadcast(np.asarray(grad, dtype=float), t.data.shape)
    t.grad = grad if t.grad is None else t.grad + grad


def backward(tape: Tape, output: Tensor):
    """Seed d(output)/d(output) = 1 and accumulate adjoints tape-reversed."""
    if output.data.size != 1:
        raise ValueError("backward seed must be a scalar output")
    output.grad = np.ones_like(output.data)
    for out, parents, vjp in reversed(tape._nodes):
        if out.grad is None:
            continue
        for p, g in zip(parents, vjp(out.grad)):
            if g is not None:
                _accumulate(p, g)


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _record(
        a.data / b.data, (a, b), lambda g: (g / b.data, -g * a.data / b.data**2)
    )


def power(a: Tensor, exponent: float) -> Tensor:
    e = float(exponent)
    return _record(a.data**e, (a,), lambda g: (g * e * a.data ** (e - 1.0),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _record(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _record(out, (a,), lambda g: (g * 0.5 / out,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _record(a.data * mask, (a,), lambda g: (g * mask,))


def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.data)
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return _record(out, (a,), lambda g: (g * sig,))


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _record(out, (a,), lambda g: (g * out * (1.0 - out),))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = (a.data > lo) & (a.data < hi)
    return _record(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _record(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    m = np.max(a.data, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a.data - m), axis=axis, keepdims=True))
    soft = np.exp(a.data - out)
    squeezed = out if keepdims else np.squeeze(out, axis=axis)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return (gg * soft,)

    return _record(squeezed, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _record(
        a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g)
    )


def einsum2(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum.  Every index of each operand must appear in the
    output spec or in the other operand (no unilateral reductions)."""
    lhs, out_spec = spec.split("->")
    a_spec, b_spec = lhs.split(",")
    if "." in spec:
        raise ValueError("ellipsis not supported")
    for s, other in ((a_spec, b_spec), (b_spec, a_spec)):
        if len(set(s)) != len(s):
            raise ValueError("repeated index within one operand not supported")
        if not set(s) <= set(out_spec) | set(other):
            raise ValueError(f"unilateral reduction in '{spec}' not supported")

    def vjp(g):
        ga = np.einsum(f"{out_spec},{b_spec}->{a_spec}", g, b.data)
        gb = np.einsum(f"{a_spec},{out_spec}->{b_spec}", a.data, g)
        return ga, gb

    return _record(np.einsum(spec, a.data, b.data), (a, b), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def take_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=int)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return _record(a.data[idx], (a,), vjp)


def diag_part(a: Tensor) -> Tensor:
    """(..., n, n) -> (..., n)."""
    n = a.data.shape[-1]
    rng = np.arange(n)

    def vjp(g):
        out = np.zeros_like(a.data)
        out[..., rng, rng] = g
        return (out,)

    return _record(a.data[..., rng, rng].copy(), (a,), vjp)


def diag_embed(a: Tensor) -> Tensor:
    """(..., n) -> (..., n, n)."""
    n = a.data.shape[-1]
    rng = np.arange(n)
    out = np.zeros(a.data.shape + (n,))
    out[..., rng, rng] = a.data
    return _record(out, (a,), lambda g: (g[..., rng, rng],))


def _swap(x):
    return np.swapaxes(x, -1, -2)


def mat_inv(a: Tensor) -> Tensor:
    """Batched matrix inverse on the trailing two axes."""
    inv = np.linalg.inv(a.data)

    def vjp(g):
        it = _swap(inv)
        return (-it @ g @ it,)

    return _record(inv, (a,), vjp)


def cholesky(a: Tensor) -> Tensor:
    """Batched lower Cholesky factor; input must be symmetric positive definite."""
    L = np.linalg.cholesky(a.data)
    n = a.data.shape[-1]
    rng = np.arange(n)

    def vjp(g):
        P = _swap(L) @ g
        phi = np.tril(P)
        phi[..., rng, rng] *= 0.5
        Linv = np.linalg.inv(L)
        M = _swap(Linv) @ phi @ Linv
        return (0.5 * (M + _swap(M)),)

    return _record(L, (a,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def reparameterize(mean: Tensor, std: Tensor, noise) -> Tensor:
    """x = mean + std * noise with std constrained positive."""
    mean = _as_tensor(mean)
    std = _as_tensor(std)
    if np.any(std.data <= 0.0):
        raise ValueError("std must be positive")
    return add(mean, mul(std, _as_tensor(noise)))


def diag_gaussian_loglik(x, mean: Tensor, logvar: Tensor) -> Tensor:
    """Row sums of log N(x; mean, diag exp(logvar)); x is treated as data."""
    x = _as_tensor(x)
    centered = sub(x, mean)
    quad = mul(mul(centered, centered), exp(-logvar))
    per_dim = add(add(quad, logvar), constant(np.log(2.0 * np.pi)))
    return mul(tensor_sum(per_dim, axis=-1), constant(-0.5))


# ---------------------------------------------------------------------------
# multilayer perceptron with named linear heads


class Mlp:
    """ReLU hidden stack followed by named linear output heads.

    sizes gives [input width, hidden widths...]; heads maps a head name to
    its output width.  Heads listed in `clamp` are clipped to the given
    (lo, hi) interval after the linear map (used for log-variance heads).
    Weights start uniform in +/- 1/sqrt(fan-in), biases at zero.
    """

    def __init__(self, sizes, heads, rng, clamp=None):
        self.sizes = [int(s) for s in sizes]
        self.heads = {str(k): int(v) for k, v in heads.items()}
        self.clamp = {str(k): (float(lo), float(hi)) for k, (lo, hi) in (clamp or {}).items()}
        for name, (lo, hi) in self.clamp.items():
            if name not in self.heads:
                raise ValueError(f"clamped head '{name}' not among heads")
            if not lo < hi:
                raise ValueError(f"clamp for head '{name}' needs lo < hi")
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]):
            self.weights.append(parameter(self._init(rng, n_in, n_out)))
            self.biases.append(parameter(np.zeros(n_out)))
        self.head_weights = {}
        self.head_biases = {}
        n_last = self.sizes[-1]
        for name, width in self.heads.items():
            self.head_weights[name] = parameter(self._init(rng, n_last, width))
            self.head_biases[name] = parameter(np.zeros(width))

    @staticmethod
    def _init(rng, n_in, n_out):
        return rng.uniform(-1.0, 1.0, size=(n_in, n_out)) / np.sqrt(n_in)

    def parameters(self):
        params = list(self.weights) + list(self.biases)
        for name in self.heads:
            params.append(self.head_weights[name])
            params.append(self.head_biases[name])
        return params

    def forward(self, x, tape: Tape | None = None) -> dict:
        if tape is not None and tape is not _current_tape():
            with tape:
                return self.forward(x)
        if not isinstance(x, Tensor):
            x = Tensor(np.atleast_2d(np.asarray(x, dtype=float)), requires=False)
        if x.data.shape[-1] != self.sizes[0]:
            raise ValueError(
                f"input width {x.data.shape[-1]} does not match first layer {self.sizes[0]}"
            )
        h = x
        for W, b in zip(self.weights, self.biases):
            h = relu(add(matmul(h, W), b))
        out = {}
        for name in self.heads:
            y = add(matmul(h, self.head_weights[name]), self.head_biases[name])
            if name in self.clamp:
                lo, hi = self.clamp[name]
                y = clip(y, lo, hi)
            out[name] = y
        return out

    def state_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "heads": dict(self.heads),
            "clamp": {k: list(v) for k, v in self.clamp.items()},
            "weights": [w.data.tolist() for w in self.weights],
            "biases": [b.data.tolist() for b in self.biases],
            "head_weights": {k: v.data.tolist() for k, v in self.head_weights.items()},
            "head_biases": {k: v.data.tolist() for k, v in self.head_biases.items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "Mlp":
        net = cls(
            state["sizes"],
            state["heads"],
            np.random.default_rng(0),
            clamp={k: tuple(v) for k, v in state.get("clamp", {}).items()},
        )
        for w, saved in zip(net.weights, state["weights"]):
            w.data = np.asarray(saved, dtype=float)
        for b, saved in zip(net.biases, state["biases"]):
            b.data = np.asarray(saved, dtype=float)
        for name in net.heads:
            net.head_weights[name].data = np.asarray(state["head_weights"][name], dtype=float)
            net.head_biases[name].data = np.asarray(state["head_biases"][name], dtype=float)
        return net


# ---------------------------------------------------------------------------
# optimizers


def _finite_grad(p: Tensor) -> np.ndarray | None:
    if p.grad is None:
        return None
    if not np.all(np.isfinite(p.grad)):
        raise TrainingDivergence("non-finite gradient")
    return p.grad


class SgdMomentum:
    """v <- momentum * v + g; param <- param +/- lr * v."""

    def __init__(self, params, lr: float, momentum: float = 0.9, maximize: bool = False):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.sign = 1.0 if maximize else -1.0
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p, v in zip(self.params, self.velocity):
            g = _finite_grad(p)
            if g is None:
                continue
            v *= self.momentum
            v += g
            p.data = p.data + self.sign * self.lr * v

    def zero_grad(self):
        zero_grads(self.params)


class Adam:
    """Adaptive-moment estimation with bias correction."""

    def __init__(
        self,
        params,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        maximize: bool = False,
    ):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.sign = 1.0 if maximize else -1.0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = _finite_grad(p)
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data = p.data + self.sign * self.lr * update

    def zero_grad(self):
        zero_grads(self.params)
