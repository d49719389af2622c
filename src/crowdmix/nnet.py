"""Minimal reverse-mode automatic differentiation on numpy arrays, plus the
small feedforward networks (ReLU hidden stack, named linear heads),
the Adam optimizer used for training, and `check_count`, the package's
one check of an integer count.

A Tape records operations in execution order while it is active (it is a
context manager); backward() walks the record in reverse, so nodes are
visited in reverse topological order exactly once.  Tensors wrap float64
numpy arrays of any shape and broadcast like numpy.  With no active tape
all operations are plain numpy evaluation.

The engine keeps a network step lean:

- affine() records one node for a dense layer, h @ W + b with an optional
  ReLU, in place of three; Mlp.forward uses it for every layer and head.
- diag_gaussian_draw records the reparameterized draw mean + exp(logvar
  / 2) * noise as one node in place of four, and diag_gaussian_loglik a
  diagonal Gaussian's per-row log-likelihood as one in place of nine;
  both trainers' decoders are scored by the second.
- take_rows' gradient, like the relational op's scatters, sums repeated
  rows by scatter_add_rows: one np.bincount with np.add.at's sums.
- Mlp.forward is the one check that a network's outputs are finite: a
  head that is not, after its clamp, raises TrainingDivergence naming it,
  and no caller checks the heads for finiteness again.
- The vector-Jacobian products of mul, sub, affine, gaussian_refresh and
  the two diagonal Gaussian nodes compute a parent's gradient only when
  that parent requires one.
- Each fused node's value and gradients equal those of the composition it
  replaces, bit for bit: it makes the same arrays by the same numpy
  operations; the tests keep the compositions as oracles, and with them
  the primitives only those compositions use (log, exp, logsumexp,
  log_softmax, relu, matmul, reshape).  This module keeps the primitives
  the package calls.
- backward() clears each recorded output's adjoint once it has passed it
  to the parents, so only leaves keep a .grad and a second backward over
  the same tape adds exactly one more gradient.
- spd_factor_rows is the package's one factorization of symmetric
  positive definite matrices, a Cholesky of n matrices held entry-major,
  as (d, d, n) rows, giving the inverse, the log-determinant and the
  Cholesky factor of the inverse; `vmp.update_local_x`, the one q(x)
  refresh, calls it on its rows, and spd_factor wraps it for (..., d, d)
  matrices, the NIW scales of `expfam`.
- gaussian_refresh records two nodes on the arrays of a Gaussian refresh
  that the caller has made: a reparameterized draw and the summed bracket
  log Z - <evidence, E t(x)>.  It factors, inverts and mixes nothing, and
  its gradients are closed forms that invert no matrix.
- Adam(params, lr) ascends, stepping every parameter at once: the
  parameters are views of one flat vector, which each step updates in
  place from flat gradient and moment buffers; a missing gradient counts
  as zero.  The step is atomic: a non-finite gradient anywhere is
  rejected before any parameter or moment changes.
"""

from __future__ import annotations

import itertools
import math
import threading
from numbers import Integral

import numpy as np


class _Active(threading.local):
    def __init__(self):
        self.stack = []


_ACTIVE = _Active()


def _current_tape():
    stack = _ACTIVE.stack
    return stack[-1] if stack else None


class TrainingDivergence(RuntimeError):
    """Raised when a network output, a gradient, an update's objective
    estimate, an epoch's objective (`driver.fit`) or a global step stops
    being finite or valid."""


def check_count(name: str, value, least: int) -> None:
    """Reject a count that is not an integer (numpy integers are, a bool
    is not) or is below `least`, naming the field first in the message."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def saved_value(doc: dict, key: str, field: str | None = None):
    """`doc[key]` of a saved document; a missing key raises a ValueError
    "<field> is missing", `field` being `key` unless given."""
    if key not in doc:
        raise ValueError(f"{field or key} is missing")
    return doc[key]


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # operator sugar; constants are wrapped as non-differentiable tensors
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __neg__(self):
        return mul(self, constant(-1.0))


def constant(data) -> Tensor:
    return Tensor(data, requires=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=float), requires=True)


def as_tensor(x) -> Tensor:
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


def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.data)
    with np.errstate(over="ignore"):   # exp(-a) = inf below a = -709 gives sig = 0
        sig = 1.0 / (1.0 + np.exp(-a.data))
    return _record(out, (a,), lambda g: (g * sig,))


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


def affine(h: Tensor, W: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One node for the dense layer h @ W + b, through a ReLU if relu.

    h is (n, in), W is (in, out) and b is (out,).  The value and every
    gradient equal those of the three-node relu(add(matmul(h, W), b)), or
    of add(matmul(h, W), b) without the ReLU, bit for bit; the tests keep
    the matmul and relu nodes as its oracles.  Two edge cases differ from
    relu's product with its mask: a unit the ReLU cuts reads +0.0, not
    -0.0, and a pre-activation of -inf reads 0, not NaN.
    """
    out = h.data @ W.data
    out += b.data
    mask = None
    if relu:
        mask = out > 0.0
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        if mask is not None:
            g = g * mask
        return (
            g @ W.data.T if h.requires else None,
            h.data.T @ g if W.requires else None,
            g.sum(axis=0) if b.requires else None,
        )

    return _record(out, (h, W, b), vjp)


def scatter_add_rows(idx: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """An (n_rows, ...) float array of zeros with values[t] added to row
    idx[t], for every t in order: np.add.at's sums, bit for bit, by one
    np.bincount over the flat (row, column) keys.  idx is an integer array
    of rows in [0, n_rows), values a float (len(idx), ...) array."""
    width = math.prod(values.shape[1:])
    keys = idx[:, None] * width + np.arange(width)
    sums = np.bincount(keys.ravel(), weights=values.ravel(), minlength=n_rows * width)
    if keys.size == 0:
        sums = sums.astype(float)  # bincount counts in integers when there is nothing to add
    return sums.reshape(n_rows, *values.shape[1:])


def take_rows(a: Tensor, idx) -> Tensor:
    """Rows idx of a; the gradient sums the adjoints of repeated rows."""
    idx = np.asarray(idx, dtype=int)
    n_rows = a.data.shape[0]

    def vjp(g):
        return (scatter_add_rows(np.where(idx < 0, idx + n_rows, idx), g, n_rows),)

    return _record(a.data[idx], (a,), vjp)


def spd_factor_rows(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse, log-determinant and root of n SPD d x d matrices A, held
    entry-major: t is (d, d, n), its row t[i, j] the entry A_ij of every
    matrix.  Returns the inverses and roots as (d, d, n) and the
    log-determinants as (n,).

    One Cholesky factorization per matrix, of the order-reversed matrix
    J A J = L L^T (J the exchange matrix), by the column loop; M = L^-1 by
    forward substitution.  A^-1 = J M^T M J is computed once per
    upper-triangle entry and mirrored, so it is exactly symmetric;
    log|A| = sum_j log(L_jj^2); the root C = J M^T J is lower triangular
    with C C^T = A^-1: the Cholesky factor of A^-1.  Reads the lower
    triangle of A only.  The loops run over d and every operation over a
    row of all n matrices at once, read and written contiguously when t
    is: batched LAPACK makes one call per small matrix.  Raises
    LinAlgError unless every pivot L_jj^2 is > 0 (a NaN fails too).
    """
    d, n = t.shape[0], t.shape[2]
    r = d - 1
    # (J A J)_ij = A_{r-j, r-i} for i >= j, from the lower triangle of A
    low = [[None] * d for _ in range(d)]
    logdet = np.zeros(n)
    for j in range(d):
        pivot = t[r - j, r - j]
        for k in range(j):
            pivot = pivot - low[j][k] * low[j][k]
        if not (pivot > 0.0).all():
            raise np.linalg.LinAlgError("matrix is not positive definite")
        logdet += np.log(pivot)
        low[j][j] = np.sqrt(pivot)
        for i in range(j + 1, d):
            s = t[r - j, r - i]
            for k in range(j):
                s = s - low[i][k] * low[j][k]
            low[i][j] = s / low[j][j]
    inv_low = [[None] * d for _ in range(d)]
    for i in range(d):
        inv_low[i][i] = 1.0 / low[i][i]
        for j in range(i):
            s = low[i][j] * inv_low[j][j]
            for k in range(j + 1, i):
                s = s + low[i][k] * inv_low[k][j]
            inv_low[i][j] = -s * inv_low[i][i]
    inverse = np.empty((d, d, n))
    root = np.zeros((d, d, n))
    for i in range(d):
        for j in range(i, d):
            s = inv_low[j][i] * inv_low[j][j]
            for k in range(j + 1, d):
                s = s + inv_low[k][i] * inv_low[k][j]
            inverse[r - i, r - j] = s
            inverse[r - j, r - i] = s
            root[r - i, r - j] = inv_low[j][i]
    return inverse, logdet, root


def spd_factor(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse, log-determinant and root of SPD (..., d, d) matrices A:
    `spd_factor_rows` on their entry-major copy, its (d, d, n) outputs
    copied back to (..., d, d).  Raises LinAlgError as that kernel does.
    """
    a = np.asarray(a, dtype=float)
    batch, d = a.shape[:-2], a.shape[-1]
    inverse, logdet, root = spd_factor_rows(
        np.ascontiguousarray(a.reshape(-1, d, d).transpose(1, 2, 0))
    )

    def items(rows):
        return np.ascontiguousarray(rows.transpose(2, 0, 1)).reshape(a.shape)

    return items(inverse), logdet.reshape(batch), items(root)


def gaussian_refresh(h: Tensor, j_diag: Tensor, x_h, mean, cov, root, logdet, noise) -> tuple:
    """One reparameterized draw from each q(x_n) and the summed bracket
    log Z(eta) - <psi, E t(x)>, as two nodes on the arrays of a refresh
    that the caller made; the op factors, inverts and mixes nothing.

    q(x_n) has natural parameters eta = (x_h, base_j + diag(j_diag)), for
    (n, d) evidence psi = (h, j_diag) and a base_j that does not depend on
    it, and the refresh gives x_h (n, d), the mean mu = Sigma x_h (n, d),
    the covariance Sigma (n, d, d), its root C = chol(Sigma) (n, d, d) and
    log|Sigma^-1| (n,).  The draw is mu + C noise, for (n, d) noise, and
    log Z = mu^T x_h / 2 + log|Sigma| / 2, constants dropped.  The bracket's
    gradient is -Cov_q[t(x)] psi: -Sigma s for h and -2 (mu * s + (Sigma *
    Sigma) j) for j_diag, with s = Sigma (h + 2 j * mu).  The draw's
    adjoint g gives Sigma g for h and 2 mu * (Sigma g) + 2 diag(C Phi(C^T
    g noise^T) C^T) for j_diag, the second term Murray's Cholesky VJP,
    where Phi keeps the lower triangle and halves the diagonal; C^T (-2 J)
    C = I, so no matrix is inverted.
    """
    idx = np.arange(h.data.shape[1])
    var = cov[:, idx, idx]
    log_z = 0.5 * (np.einsum("ni,ni->", mean, x_h) - logdet.sum())
    psi = np.einsum("ni,ni->", h.data, mean) + np.einsum("ni,ni->", j_diag.data, var + mean * mean)
    draw = mean + np.einsum("nij,nj->ni", root, noise)

    def draw_vjp(g):
        cov_g = np.einsum("nij,nj->ni", cov, g)
        phi = np.tril(np.einsum("nji,nj->ni", root, g)[:, :, None] * noise[:, None, :])
        phi[:, idx, idx] *= 0.5
        chol = np.einsum("nia,nia->ni", root @ phi, root)  # diag(C Phi C^T)
        return (
            cov_g if h.requires else None,
            2.0 * (mean * cov_g + chol) if j_diag.requires else None,
        )

    def bracket_vjp(g):
        s = np.einsum("nij,nj->ni", cov, h.data + 2.0 * j_diag.data * mean)
        return (
            -g * s if h.requires else None,
            -2.0 * g * (mean * s + np.einsum("nij,nj->ni", cov * cov, j_diag.data))
            if j_diag.requires else None,
        )

    return (
        _record(draw, (h, j_diag), draw_vjp),
        _record(np.asarray(log_z - psi), (h, j_diag), bracket_vjp),
    )


def diag_gaussian_draw(mean: Tensor, logvar: Tensor, noise) -> Tensor:
    """The reparameterized draw mean + exp(logvar / 2) * noise, as one node.

    mean, logvar and the constant noise share one shape.  The value and both
    gradients equal those of the composed mean + exp(logvar * 0.5) * noise,
    bit for bit; the tests keep that composition as its oracle.  Raises
    ValueError if a standard deviation is not positive: a logvar of -inf,
    or one so low that exp underflows.
    """
    noise = np.asarray(noise, dtype=float)
    std = np.exp(logvar.data * 0.5)
    if np.any(std <= 0.0):
        raise ValueError("std must be positive")

    def vjp(g):
        return (
            g if mean.requires else None,
            ((g * noise) * std) * 0.5 if logvar.requires else None,
        )

    return _record(mean.data + std * noise, (mean, logvar), vjp)


_LOG_2PI = np.log(2.0 * np.pi)


def diag_gaussian_loglik(x, mean: Tensor, logvar: Tensor) -> Tensor:
    """Row sums of log N(x; mean, diag exp(logvar)), as one node; x is data
    (a tensor's value gets no gradient) of the shape of mean and logvar.

    The value and both gradients equal those of the 9-node composition of
    sub, mul, exp, add and tensor_sum that the tests keep as its oracle,
    bit for bit: every array below is one of that composition's, made by
    the same numpy operation.
    """
    x = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=float)
    centered = x - mean.data
    squares = centered * centered
    inv_var = np.exp(logvar.data * -1.0)
    per_dim = squares * inv_var + logvar.data + _LOG_2PI

    def vjp(g):
        g_dim = np.expand_dims(g * -0.5, -1)   # per_dim's adjoint, broadcast
        g_inv = (g_dim * squares) * inv_var     # exp(-logvar)'s input's adjoint
        g_centered = (g_dim * inv_var) * centered
        return (
            -(g_centered + g_centered) if mean.requires else None,
            g_dim + g_inv * -1.0 if logvar.requires else None,
        )

    return _record(per_dim.sum(axis=-1) * -0.5, (mean, logvar), vjp)


# ---------------------------------------------------------------------------
# multilayer perceptron with named linear heads


class Mlp:
    """ReLU hidden stack followed by named linear output heads.

    sizes gives [input width, hidden widths...] and heads maps a head name
    to its output width, all positive integers.  Heads listed in `clamp`
    are clipped to the given (lo, hi) interval after the linear map (used
    for log-variance heads).  `forward` raises TrainingDivergence, naming
    the head, when a head holds a value that is not finite after its
    clamp: a clamped head clips an infinity, but not a NaN.  Weights start
    uniform in +/- 1/sqrt(fan-in), biases at zero.
    """

    def __init__(self, sizes, heads, rng, clamp=None):
        if len(sizes) == 0:
            raise ValueError("sizes must give at least the input width")
        for i, size in enumerate(sizes):
            check_count(f"sizes[{i}]", size, 1)
        for name, width in heads.items():
            check_count(f"heads['{name}']", width, 1)
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

    def forward(self, x) -> dict:
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
            if not np.isfinite(y.data).all():
                raise TrainingDivergence(f"network head '{name}' produced non-finite outputs")
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
        """Network from a `state_dict` document.  Every saved array must
        be finite and have the shape that `sizes` and `heads` give it; a
        missing key fails naming it."""
        net = cls(
            saved_value(state, "sizes"),
            saved_value(state, "heads"),
            np.random.default_rng(0),
            clamp={k: tuple(v) for k, v in state.get("clamp", {}).items()},
        )
        keys = ("weights", "biases", "head_weights", "head_biases")
        arrays = {key: saved_value(state, key) for key in keys}
        n_layers = len(net.weights)
        for key in ("weights", "biases"):
            if len(arrays[key]) != n_layers:
                raise ValueError(f"{key} has {len(arrays[key])} layers, sizes give {n_layers}")
        slots = [
            (f"{key}[{i}]", getattr(net, key)[i], arrays[key][i])
            for key in ("weights", "biases") for i in range(n_layers)
        ] + [
            (f"{key}['{name}']", getattr(net, key)[name], arrays[key].get(name))
            for key in ("head_weights", "head_biases") for name in net.heads
        ]
        for label, tensor, saved in slots:
            if saved is None:
                raise ValueError(f"{label} has no saved array")
            value = np.asarray(saved, dtype=float)
            if value.shape != tensor.data.shape:
                raise ValueError(
                    f"{label} has shape {value.shape}, the network needs {tensor.data.shape}"
                )
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{label} has non-finite values")
            tensor.data = value
        return net


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adaptive-moment ascent with bias correction (Kingma & Ba 2015), at
    the paper's constants BETA1, BETA2 and EPS.

    The parameters lie end to end in one flat vector, `flat`: the
    constructor copies them into it and rebinds each tensor's `.data` to
    its view, so a caller that must reset a parameter writes into it in
    place (`p.data[...] = saved`) and keeps the link.  Both moments, the
    gradient and one scratch vector are preallocated, of the same length.
    A step writes each gradient into its slice, updates the moments in
    place, builds the update in the gradient's buffer and adds it to
    `flat`, in the operation order of the per-tensor formula, so every
    parameter takes the same bits.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr: float):
        self.params = list(params)
        offsets = [0, *itertools.accumulate(p.data.size for p in self.params)]
        self._spans = list(zip(self.params, offsets, offsets[1:]))
        self.lr = float(lr)
        self.flat = np.empty(offsets[-1])
        for p, lo, hi in self._spans:
            self.flat[lo:hi] = p.data.ravel()
            p.data = self.flat[lo:hi].reshape(p.data.shape)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._g = np.empty_like(self.flat)
        self._tmp = np.empty_like(self.flat)
        self.t = 0

    def step(self):
        """Step every parameter up its gradient, zero for one the objective
        does not reach (no .grad).  A gradient of the wrong size or a
        non-finite one raises before any parameter or moment changes."""
        g, tmp = self._g, self._tmp
        for p, lo, hi in self._spans:
            if p.grad is None:
                g[lo:hi] = 0.0
            elif np.size(p.grad) != hi - lo:
                raise ValueError("gradient sizes do not match their parameters")
            else:
                g[lo:hi] = np.ravel(p.grad)
        if not np.all(np.isfinite(g)):
            raise TrainingDivergence("non-finite gradient")
        self.t += 1
        b1t = 1.0 - self.BETA1**self.t
        b2t = 1.0 - self.BETA2**self.t
        self.m *= self.BETA1
        self.m += np.multiply(g, 1.0 - self.BETA1, out=tmp)
        self.v *= self.BETA2
        self.v += np.multiply(np.multiply(g, 1.0 - self.BETA2, out=tmp), g, out=tmp)
        # lr * ((m / b1t) / (sqrt(v / b2t) + EPS)), in g's buffer
        update = np.divide(self.m, b1t, out=g)
        np.sqrt(np.divide(self.v, b2t, out=tmp), out=tmp)
        tmp += self.EPS
        update /= tmp
        update *= self.lr
        self.flat += update
