"""Minimal reverse-mode automatic differentiation on numpy arrays, plus the
small feedforward networks (ReLU hidden stack, named linear heads) and
the Adam optimizer used for training.

A Tape records operations in execution order while it is active (it is a
context manager); backward() walks the record in reverse, so nodes are
visited in reverse topological order exactly once.  Tensors wrap float64
numpy arrays of any shape and broadcast like numpy.  With no active tape
all operations are plain numpy evaluation.

The engine keeps a network step lean:

- affine() records one node for a dense layer, h @ W + b with an optional
  ReLU, in place of three; Mlp.forward uses it for every layer and head.
- The vector-Jacobian products of matmul, mul, sub, div, einsum2 and
  affine compute a parent's gradient only when that parent requires one.
- backward() clears each recorded output's adjoint once it has passed it
  to the parents, so only leaves keep a .grad and a second backward over
  the same tape adds exactly one more gradient.
- Adam keeps its moments in one flat vector and steps every parameter
  that has a gradient at once.  The step is atomic: a
  non-finite gradient anywhere is rejected before any parameter or
  moment changes.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np


class _Active(threading.local):
    def __init__(self):
        self.stack = []


_ACTIVE = _Active()


def _current_tape():
    stack = _ACTIVE.stack
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
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.stack.pop()
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
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _record(data, parents, vjp) -> Tensor:
    """Wrap data as an operation's output.  vjp maps the output's adjoint
    to one gradient per parent, None for a parent that requires none."""
    parents = tuple(parents)
    requires = any(p.requires for p in parents)
    out = Tensor(data, requires=requires)
    if requires:
        tape = _current_tape()
        if tape is not None:
            tape._nodes.append((out, parents, vjp))
    return out


def _accumulate(t: Tensor, grad):
    if not t.requires:
        return
    if not isinstance(grad, np.ndarray):
        grad = np.asarray(grad, dtype=float)
    grad = _unbroadcast(grad, t.data.shape)
    t.grad = grad if t.grad is None else t.grad + grad


def backward(tape: Tape, output: Tensor):
    """Seed d(output)/d(output) = 1 and accumulate adjoints tape-reversed.

    Each recorded output's adjoint is released once propagated, so after
    the call only tensors the tape did not produce (the leaves) hold a
    gradient, and calling again adds the same leaf gradients once more.
    """
    if output.data.size != 1:
        raise ValueError("backward seed must be a scalar output")
    output.grad = np.ones_like(output.data)
    for out, parents, vjp in reversed(tape._nodes):
        g = out.grad
        if g is None:
            continue
        for p, pg in zip(parents, vjp(g)):
            if pg is not None:
                _accumulate(p, pg)
        out.grad = None


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return g if a.requires else None, -g if b.requires else None

    return _record(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            g * b.data if a.requires else None,
            g * a.data if b.requires else None,
        )

    return _record(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            g / b.data if a.requires else None,
            -g * a.data / b.data**2 if b.requires else None,
        )

    return _record(a.data / b.data, (a, b), vjp)


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
    def vjp(g):
        return (
            g @ b.data.T if a.requires else None,
            a.data.T @ g if b.requires else None,
        )

    return _record(a.data @ b.data, (a, b), vjp)


def affine(h: Tensor, W: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One node for the dense layer h @ W + b, through a ReLU if relu.

    h is (n, in), W is (in, out) and b is (out,).  The value and every
    gradient equal those of relu(add(matmul(h, W), b)), or of
    add(matmul(h, W), b) without the ReLU, bit for bit.
    """
    out = h.data @ W.data
    out += b.data
    mask = None
    if relu:
        mask = out > 0.0
        out *= mask

    def vjp(g):
        if mask is not None:
            g = g * mask
        return (
            g @ W.data.T if h.requires else None,
            h.data.T @ g if W.requires else None,
            g.sum(axis=0) if b.requires else None,
        )

    return _record(out, (h, W, b), vjp)


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
        ga = np.einsum(f"{out_spec},{b_spec}->{a_spec}", g, b.data) if a.requires else None
        gb = np.einsum(f"{a_spec},{out_spec}->{b_spec}", a.data, g) if b.requires else None
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
            h = affine(h, W, b, relu=True)
        out = {}
        for name in self.heads:
            y = affine(h, self.head_weights[name], self.head_biases[name])
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
# optimizer


class Adam:
    """Adaptive-moment estimation with bias correction.

    The parameters lie end to end in one flat vector.  A step gathers
    the gradients that are present into one vector in parameter order,
    updates the matching slices of the flat moment buffers with
    elementwise expressions and adds each parameter's slice of the
    update back.  Parameters whose gradient is None keep their value and
    their moments.
    """

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
        self._offsets = [0, *itertools.accumulate(p.data.size for p in self.params)]
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.sign = 1.0 if maximize else -1.0
        self.m = np.zeros(self._offsets[-1])
        self.v = np.zeros(self._offsets[-1])
        self.t = 0

    def step(self):
        """Step every parameter that has a gradient.  A gradient of the
        wrong size or a non-finite one raises before any parameter or
        moment changes."""
        present = [i for i, p in enumerate(self.params) if p.grad is not None]
        if not present:
            self.t += 1
            return
        g = np.concatenate([np.ravel(self.params[i].grad) for i in present])
        if len(present) == len(self.params):
            where, size = slice(None), self._offsets[-1]
        else:
            where = np.concatenate(
                [np.arange(self._offsets[i], self._offsets[i + 1]) for i in present]
            )
            size = where.size
        if g.size != size:
            raise ValueError("gradient sizes do not match their parameters")
        if not np.all(np.isfinite(g)):
            raise TrainingDivergence("non-finite gradient")
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        m, v = self.m[where], self.v[where]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        self.m[where], self.v[where] = m, v
        update = self.sign * self.lr * ((m / b1t) / (np.sqrt(v / b2t) + self.eps))
        start = 0
        for i in present:
            p = self.params[i]
            stop = start + p.data.size
            p.data = p.data + update[start:stop].reshape(p.data.shape)
            start = stop
