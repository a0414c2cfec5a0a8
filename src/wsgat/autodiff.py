"""Minimal dense reverse-mode autodiff: a Tensor with a recorded backward graph.

64-bit floats throughout. Every op checks its output, and backward() each
gradient, for NaN/Inf (NumericFault). After backward() only leaf tensors keep
.grad, which is never written in place. Broadcasting is limited to
scalar-tensor and row-vector cases; anything else must go through an explicit op.

Row scatters (segment_sum forward, take_rows backward) are one sparse
incidence-matrix product. It sums each row's contributions in index order,
starting from zero, so it gives the same bits as numpy.add.at. Their row indices
must lie in [0, n); anything else raises ShapeError.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NumericFault, ShapeError


def _check_finite(values, where):
    if not np.all(np.isfinite(values)):
        raise NumericFault(f"non-finite values in {where}")


class Tensor:
    """Dense float64 array node of a differentiable computation."""

    def __init__(self, values, requires_grad=False, parents=(), backward=None, op=""):
        self.values = np.asarray(values, dtype=np.float64)
        _check_finite(self.values, op or "tensor")
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.parents = tuple(parents)
        self._backward = backward
        self.op = op
        self.grad = None

    @property
    def shape(self):
        return self.values.shape

    def accumulate_grad(self, g):
        # g may alias an upstream gradient or a view of it, so a .grad is
        # never written in place: + makes a new array
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g, shape):
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _broadcast_ok(a_shape, b_shape):
    # scalar-tensor, identical shapes, or row-vector against a matrix
    if a_shape == b_shape or a_shape == () or b_shape == ():
        return True
    if len(a_shape) == 2 and len(b_shape) == 2:
        if (a_shape[0] == 1 or b_shape[0] == 1) and a_shape[1] == b_shape[1]:
            return True
    if len(a_shape) == 2 and len(b_shape) == 1 and a_shape[1] == b_shape[0]:
        return True
    if len(b_shape) == 2 and len(a_shape) == 1 and b_shape[1] == a_shape[0]:
        return True
    return False


def _binary(a, b, fwd, da, db, op):
    a, b = _as_tensor(a), _as_tensor(b)
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    out_values = fwd(a.values, b.values)

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(da(g, a.values, b.values, out.values), a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(db(g, a.values, b.values, out.values), b.shape))

    return Tensor(out_values, parents=(a, b), backward=backward, op=op)


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y, o: g, lambda g, x, y, o: g, "add")


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y, o: g, lambda g, x, y, o: -g, "sub")


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y, o: g * y, lambda g, x, y, o: g * x, "mul")


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out_values = a.values @ b.values

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(g @ b.values.T)
        if b.requires_grad:
            b.accumulate_grad(a.values.T @ g)

    return Tensor(out_values, parents=(a, b), backward=backward, op="matmul")


def _unary(a, fwd, deriv, op):
    a = _as_tensor(a)
    out_values = fwd(a.values)

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(g * deriv(a.values, out.values))

    return Tensor(out_values, parents=(a,), backward=backward, op=op)


def tanh(a):
    return _unary(a, np.tanh, lambda x, o: 1.0 - o * o, "tanh")


def softplus(a):
    # log(1 + e^x) without overflow. Not _unary: its g * sigmoid(x) rounds
    # differently from g / (1 + e^-x), which would change every report's bits
    out_values = np.logaddexp(0.0, a.values)

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(g / (1.0 + np.exp(-a.values)))

    return Tensor(out_values, parents=(a,), backward=backward, op="softplus")


def sigmoid(a):
    return _unary(a, lambda x: 1.0 / (1.0 + np.exp(-x)), lambda x, o: o * (1.0 - o), "sigmoid")


def leaky_relu(a, slope=0.2):
    return _unary(
        a,
        lambda x: np.where(x >= 0, x, slope * x),
        lambda x, o: np.where(x >= 0, 1.0, slope),
        "leaky_relu",
    )


def elu(a, alpha=1.0):
    return _unary(
        a,
        lambda x: np.where(x >= 0, x, alpha * np.expm1(x)),
        lambda x, o: np.where(x >= 0, 1.0, alpha * np.exp(x)),
        "elu",
    )


def abs_(a):
    # subgradient 0 at x=0 keeps downstream attention gradients bounded
    return _unary(a, np.abs, lambda x, o: np.sign(x), "abs")


def sign_(a):
    # piecewise constant: zero derivative everywhere
    return _unary(a, np.sign, lambda x, o: np.zeros_like(x), "sign")


def log(a):
    a = _as_tensor(a)
    if np.any(a.values <= 0):
        raise NumericFault("log of non-positive value")
    return _unary(a, np.log, lambda x, o: 1.0 / x, "log")


def exp(a):
    return _unary(a, np.exp, lambda x, o: o, "exp")


def sum_(a):
    a = _as_tensor(a)

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(np.full(a.shape, float(g)))

    return Tensor(a.values.sum(), parents=(a,), backward=backward, op="sum")


def mean_(a):
    a = _as_tensor(a)
    n = a.values.size

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(np.full(a.shape, float(g) / n))

    return Tensor(a.values.mean(), parents=(a,), backward=backward, op="mean")


def concat(parts, axis=0):
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    try:
        out_values = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g, out):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                p.accumulate_grad(g[tuple(sl)])

    return Tensor(out_values, parents=tuple(parts), backward=backward, op="concat")


def squeeze_col(a):
    """(n, 1) column -> (n,); a 1-d tensor is returned unchanged."""
    a = _as_tensor(a)
    if a.values.ndim == 1:
        return a
    if a.values.ndim != 2 or a.shape[1] != 1:
        raise ShapeError(f"squeeze_col: expected a column, got {a.shape}")

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(g[:, None])

    return Tensor(a.values[:, 0], parents=(a,), backward=backward, op="squeeze_col")


def _row_index(idx, n, op):
    """idx as int64, after checking that every entry is a row of an n-row array."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"{op}: index out of range [0, {n}): min {idx.min()}, max {idx.max()}")
    return idx


def _scatter_add(values, idx, n):
    """Row i of the result is the sum of values[k] over k with idx[k] == i.

    The product with the n x len(idx) incidence (a 1 at (idx[k], k)), stored
    by column, visits k in ascending order and adds 1.0 * values[k] into a
    zeroed row: the same bits as numpy.add.at into zeros. scipy does not check
    the row indices of a column-stored matrix, so idx must come through
    _row_index first.
    """
    m = len(idx)
    incidence = sp.csc_matrix((np.ones(m), idx, np.arange(m + 1)), shape=(n, m))
    return incidence @ values


def take_rows(a, idx):
    """Gather rows; backward scatter-adds the gradient."""
    a = _as_tensor(a)
    idx = _row_index(idx, a.shape[0], "take_rows")
    out_values = a.values[idx]

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(_scatter_add(g, idx, a.shape[0]))

    return Tensor(out_values, parents=(a,), backward=backward, op="take_rows")


def scale_rows(a, s):
    """Multiply row k of matrix `a` by scalar s[k]."""
    a, s = _as_tensor(a), _as_tensor(s)
    if a.values.ndim != 2 or s.values.ndim != 1 or a.shape[0] != s.shape[0]:
        raise ShapeError(f"scale_rows: shapes {a.shape} and {s.shape}")
    out_values = a.values * s.values[:, None]

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(g * s.values[:, None])
        if s.requires_grad:
            s.accumulate_grad((g * a.values).sum(axis=1))

    return Tensor(out_values, parents=(a, s), backward=backward, op="scale_rows")


def segment_sum(a, segments, num_segments):
    """Sum rows of `a` into their segment; backward gathers."""
    a = _as_tensor(a)
    segments = _row_index(segments, num_segments, "segment_sum")
    if len(segments) != a.shape[0]:
        raise ShapeError(f"segment_sum: {len(segments)} segment ids for {a.shape[0]} rows")
    out_values = _scatter_add(a.values, segments, num_segments)

    def backward(g, out):
        if a.requires_grad:
            a.accumulate_grad(g[segments])

    return Tensor(out_values, parents=(a,), backward=backward, op="segment_sum")


def segment_signed_softmax(logits, segments, num_segments):
    """Per-segment signed softmax: alpha = sign(e) * softmax(|e|).

    Within each segment the |alpha| sum to 1 (max-subtracted for overflow
    safety). The sign factor is treated as locally constant: the backward
    pass is exact away from e=0 and uses subgradient 0 there.
    """
    logits = _as_tensor(logits)
    if logits.values.ndim != 1:
        raise ShapeError("segment_signed_softmax expects a 1-d logits tensor")
    segments = np.asarray(segments, dtype=np.int64)
    if len(segments) != len(logits.values):
        raise ShapeError("one segment id per logit required")
    e = logits.values
    s = np.sign(e)
    m = np.abs(e)
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segments, m)
    shifted = np.exp(m - seg_max[segments])
    denom = np.zeros(num_segments)
    np.add.at(denom, segments, shifted)
    p = shifted / denom[segments]
    alpha = s * p

    def backward(g, out):
        if logits.requires_grad:
            u = g * s * p
            seg_u = np.zeros(num_segments)
            np.add.at(seg_u, segments, u)
            logits.accumulate_grad(s * (u - p * seg_u[segments]))

    return Tensor(alpha, parents=(logits,), backward=backward, op="segment_signed_softmax")


def log_softmax_rows(a):
    """Row-wise log-softmax for classification heads."""
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError("log_softmax_rows expects a matrix")
    m = a.values.max(axis=1, keepdims=True)
    z = a.values - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out_values = z - lse

    def backward(g, out):
        if a.requires_grad:
            p = np.exp(out.values)
            a.accumulate_grad(g - p * g.sum(axis=1, keepdims=True))

    return Tensor(out_values, parents=(a,), backward=backward, op="log_softmax_rows")


def topo_order(output):
    order, seen = [], set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(output):
    """Reverse-mode sweep from a scalar output; only leaf tensors keep .grad."""
    if output.values.size != 1:
        raise ShapeError("backward requires a scalar output")
    output.accumulate_grad(np.ones_like(output.values))
    # reverse topological order reaches a node once its gradient is complete
    for node in reversed(topo_order(output)):
        if node.grad is not None:
            _check_finite(node.grad, f"gradient of {node.op or 'tensor'}")
            if node.parents:
                node._backward(node.grad, node)
                node.grad = None


class Tape:
    """Parameter registry plus a guard against double backward without reset."""

    def __init__(self, seed=0):
        self.params = {}
        self.rng = np.random.default_rng(seed)
        self._swept = False

    def parameter(self, name, values):
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        return t

    def glorot(self, name, shape):
        fan_in, fan_out = (shape[0], shape[-1]) if len(shape) > 1 else (shape[0], shape[0])
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self.parameter(name, self.rng.uniform(-limit, limit, size=shape))

    def zeros(self, name, shape):
        return self.parameter(name, np.zeros(shape))

    def backward(self, loss):
        if self._swept:
            raise RuntimeError("backward called twice without reset()")
        backward(loss)
        self._swept = True

    def reset(self):
        for p in self.params.values():
            p.zero_grad()
        self._swept = False

    def parameter_list(self):
        return [self.params[k] for k in sorted(self.params)]


class Adam:
    """Standard Adam with bias correction, deterministic given gradients."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.values = p.values - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            _check_finite(p.values, "adam update")
