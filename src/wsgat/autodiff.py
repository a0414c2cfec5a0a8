"""Minimal dense reverse-mode autodiff: a Tensor with a recorded backward graph.

64-bit floats throughout. Every op checks its output, and backward() each
gradient, for NaN/Inf (NumericFault); an op with an activation epilogue
checks its pre-activation instead, since the activations map finite values
to finite values. After backward() only leaf tensors keep .grad. A tensor
never writes into a gradient it was handed, which may alias another: the
first becomes its .grad, and the first sum goes into an array the tensor
allocates and then owns, which later sums, a chunk loop's included, add into
in place. An activation's backward writes its gradient over the
activation's own output (see below).

A sweep frees the graph as it passes it. It moves each node's gradient into
the node's backward, which holds the only reference to it, and a node whose
backward has run lets go of its parents and its closure, so an activation
lives only until the last gradient that needs it exists. A swept graph cannot
be swept again: reaching a swept node, from the same root or another, raises
RuntimeError.

Every op but recompute builds its output through one constructor,
_node(values, op, *grads), each grad a (parent, g -> gradient) pair; _node
holds the only backward closure but recompute's, which builds its Tensor
itself. add, sub and mul broadcast in exactly three cases: identical shapes,
a scalar on either side, or an (n, k) matrix on the left plus a (k,) row on
the right (the bias, whose gradient is the column sums of g). Any other pairing
raises ShapeError.

Three fused ops each give the bits of the unfused ops they replace. Two serve
a dense layer over pairs of node rows without building the pair matrix:
linear(x, w, b) is x @ w + b in one node, and
gather_sum(a, first, b, second, extra=None, w=None) is a[first] + b[second],
plus extra @ w added in place when extra and w are given, in one node. The
third, propagate(z, alpha, src, dst, n), is a graph layer's message passing,
alpha[k] * z[src[k]] summed into row dst[k], without the per-edge message
matrix.

linear, gather_sum, concat and mul also take act, a key of _ACTIVATIONS
("tanh", "leaky_relu" or "elu"): an activation epilogue. The node checks its
pre-activation for NaN/Inf (tanh(inf) is 1 and would hide an overflow), not
its output again, then applies the activation in place, keeping only its
output and, for leaky_relu, a boolean mask of the negative entries, for elu
their flat indices and values.
Backward multiplies g by the derivative once, then runs the op's own
gradients. It writes that product over the node's output array, whose
readers' backwards have all run by then, so no second array of its size is
made: after a sweep, an activation node's .values hold its gradient, not its
output. The standalone tanh, leaky_relu and elu run the same two functions
(_ACTIVATIONS) on a copy of their input, so both give the same bits, and
each owns the array it overwrites. _unary, an elementwise op that keeps its
input and its output, serves only sigmoid, abs_, sign_, log and exp.

recompute(fn, *inputs) is gradient checkpointing: fn(*inputs) as one node
that keeps only its inputs and its output, and runs fn again in backward to
sweep the graph it dropped, through the private _sweep that backward() also
runs. A wsGAT layer is one such node, so between forward and backward it
keeps only its input and its output. relay(value, inputs, leaves) is the
root of a loss swept in parts on leaf copies of `inputs`: a scalar whose
backward moves each leaf's gathered gradient to its input. Both hand the
gradients on through one private helper, _leaf_grads.

Row scatters (segment_sum forward, take_rows and gather_sum backward) are one
sparse incidence-matrix product, and propagate's forward and z gradient one
sparse product with alpha in place of the ones. Each sums a row's terms in
index order, starting from zero, so it gives the same bits as numpy.add.at.
Their row indices must be integers in [0, n); anything else, a boolean mask
or a float array included, raises ShapeError. A take_rows or gather_sum
backward whose indices are fewer than the rows is row-sparse: it hands on
(rows, sums), the rows it touched and their sums alone, which the parent adds
into those rows of its own gradient, and a sweep then checks only those rows
for NaN/Inf. A pair head's chunk on a graph of more nodes than the chunk has
pairs thus costs its leaves' gradients chunk-sized work, not node-sized.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NumericFault, ShapeError


def _check_finite(values, where):
    if not np.all(np.isfinite(values)):
        raise NumericFault(f"non-finite values in {where}")


_NO_ROWS = np.empty(0, dtype=np.int64)  # Tensor._fresh once every row is checked


class Tensor:
    """Dense float64 array node of a differentiable computation."""

    def __init__(self, values, requires_grad=False, parents=(), backward=None, op="",
                 check=True):
        self.values = np.asarray(values, dtype=np.float64)
        if check:  # False only for values already checked, or derived finitely from them
            _check_finite(self.values, op or "tensor")
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.parents = tuple(parents)
        self._backward = backward
        self.op = op
        self.grad = self._own = None  # _own: see accumulate_grad

    @property
    def shape(self):
        return self.values.shape

    def accumulate_grad(self, g):
        """Add g, an array of the tensor's shape or a row scatter's (rows,
        sums), into .grad.

        An array handed in may alias another gradient or a view of one (add
        hands one g to both parents, an activation's backward its output), so
        it is never written: the first one becomes .grad as it is, and the
        first sum goes into an array the tensor allocates, its own, into which
        later sums add in place while .grad is that array. An array set as
        .grad from outside is not, so it is never written either. (rows, sums)
        adds sums into those rows of the tensor's own gradient, a zeroed one if
        there was no .grad; _fresh then keeps the rows of it that _check_grad
        has still to read, None for all of them."""
        if isinstance(g, tuple):
            rows, sums = g
            if self.grad is None:
                self._own, self._fresh = np.zeros(self.shape), _NO_ROWS
            elif self.grad is not self._own:
                self._own, self._fresh = self.grad.copy(), None
            self._own[rows] += sums
            self.grad = self._own
            if self._fresh is not None:
                self._fresh = np.concatenate([self._fresh, rows])
        elif self.grad is None:
            self.grad, self._own = g, None
        elif self.grad is self._own:
            self._own += g
            self._fresh = None
        else:
            self.grad = self._own = np.add(self.grad, g, out=np.empty(self.shape))
            self._fresh = None

    def _check_grad(self):
        """Check .grad for NaN/Inf: of the tensor's own gradient only the rows
        added since the last check."""
        owned = self.grad is self._own
        fresh = self.grad[self._fresh] if owned and self._fresh is not None else self.grad
        _check_finite(fresh, f"gradient of {self.op or 'tensor'}")
        if owned:
            self._fresh = _NO_ROWS

    def _take_grad(self):
        """.grad, which the tensor then neither holds nor owns."""
        g, self.grad, self._own = self.grad, None, None
        return g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# rows per slice of chunks(n), the one chunk loop: of propagate's alpha
# gradient (edges), of leaky_relu's derivative, of elu's (negative entries,
# not rows) and of a pair head (pairs, in pipelines): a chunk's transients
# then take 16384 x width floats, however many edges or pairs there are
_CHUNK_ROWS = 16384


def chunks(n):
    """The consecutive slices of at most _CHUNK_ROWS rows that cover range(n),
    in order. _CHUNK_ROWS is read when chunks is called, so a patched value
    holds for the slices it returns."""
    k = _CHUNK_ROWS
    return [slice(lo, min(lo + k, n)) for lo in range(0, n, k)]


def _tanh_(x):
    np.tanh(x, out=x)


def _tanh_grad(g, out, _):
    np.multiply(out, out, out=out)
    np.subtract(1.0, out, out=out)
    out *= g
    return out


def _leaky_relu_(x):
    # 0.2 * x is at least x below zero and at most x above it, -0.0 included:
    # the bits of scaling the negative entries, without numpy's slower masked
    # multiply
    negative = x < 0
    np.maximum(x, x * 0.2, out=x)
    return negative


# the slope of each side, indexed by the negative mask's bytes: the values
# np.where(negative, 0.2, 1.0) picks, without its slower select
_LEAKY_SLOPES = np.array([1.0, 0.2])


def _leaky_relu_grad(g, out, negative):
    # the slopes are taken straight into the output's buffer, _CHUNK_ROWS rows
    # at a time: np.take makes an int64 copy of the mask it indexes by, which
    # is then a chunk's size, not the output's. mode="clip" (the bytes are 0
    # or 1, so nothing is clipped) because the default, "raise", takes them
    # through a temporary as large as its out
    slopes, mask = np.atleast_1d(out, negative.view(np.uint8))
    for rows in chunks(len(slopes)):
        np.take(_LEAKY_SLOPES, mask[rows], out=slopes[rows], mode="clip")
    out *= g
    return out


def _elu_(x):
    # integer indices of the negative entries, not a boolean mask, whose
    # indexing is slower. x is an op's own new array, contiguous in C or F
    # order, so its ravel in memory order is a view, which the write reaches
    # (a reshape(-1) of an F-ordered x would be a copy)
    flat = x.ravel(order="K")
    negative = np.flatnonzero(flat < 0)
    pre = flat[negative]
    flat[negative] = np.expm1(pre)
    return negative, pre


def _elu_grad(g, out, saved):
    # g, times exp(x) at the negative entries: the bits of
    # g * np.where(x >= 0, 1.0, np.exp(x)), whose g * 1.0 is g. The exp and
    # the product are taken _CHUNK_ROWS negative entries at a time
    negative, pre = saved
    np.copyto(out, g)
    flat = out.ravel(order="K")
    for part in chunks(len(negative)):
        idx = negative[part]
        slope = np.exp(pre[part])
        slope *= flat[idx]
        flat[idx] = slope
    return out


# activation name -> (apply in place to x, returning what the derivative
# needs besides the output; g times the derivative, from g, the output and
# that, written over the output and returned). The standalone ops and the
# fused epilogues both run these, and layer.ACTIVATIONS reads the names.
_ACTIVATIONS = {
    "tanh": (_tanh_, _tanh_grad),
    "leaky_relu": (_leaky_relu_, _leaky_relu_grad),
    "elu": (_elu_, _elu_grad),
}


def _node(values, op, *grads, act=None):
    """The output Tensor of `op`. grads are (parent, fn) pairs, fn mapping the
    output's gradient to the parent's; backward accumulates fn(g) into each
    parent that requires a gradient, in the order given.

    With act, a key of _ACTIVATIONS, values is checked for non-finite entries
    and then overwritten by its activation; backward multiplies g by the
    activation's derivative once, before the fns run, and writes the product
    over values: the node must own values, and its consumers' backwards, the
    only readers of the output, have run by then."""
    if act is not None:
        forward, grad = _ACTIVATIONS[act]
        values = np.asarray(values)  # a ufunc of 0-d arrays gives a scalar, which cannot be written
        _check_finite(values, op)
        saved = forward(values)

    def backward(g):
        if act is not None:
            g = grad(g, values, saved)  # frees the incoming g: _sweep keeps no reference
        _accumulate(grads, g)

    # an activation maps finite values to finite values, so the check above stands
    return Tensor(values, parents=tuple(p for p, _ in grads), backward=backward, op=op,
                  check=act is None)


def _accumulate(grads, g):
    """Accumulate fn(g) into each parent of the (parent, fn) pairs that requires a gradient."""
    for parent, fn in grads:
        if parent.requires_grad:
            parent.accumulate_grad(fn(g))


def _leaf_grads(inputs, leaves):
    """The hand-off from leaf copies to the tensors they copy, shared by
    recompute and relay: a (parent, fn) pair per input whose leaf gathered a
    gradient, fn giving that gradient itself. The gradient moves: the leaf
    keeps no .grad and fn lets go of it once called, so the input is left as
    its only holder, which backward frees once it has passed it on."""
    grads = []
    for x, leaf in zip(inputs, leaves):
        if leaf.grad is not None:
            held = [leaf._take_grad()]
            grads.append((x, lambda g, held=held: held.pop()))
    return grads


def _unbroadcast(g, shape):
    """Sum g over its leading axes down to `shape`: a scalar, or the bias row."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g.reshape(shape)


def _binary(a, b, fwd, da, db, op, act=None):
    """Elementwise op in the three broadcast cases of the module docstring;
    da(g, b.values) and db(g, a.values) are the gradients before _unbroadcast.
    With act the activation follows in the same node."""
    a, b = _as_tensor(a), _as_tensor(b)
    if not (a.shape == b.shape or a.shape == () or b.shape == ()
            or (a.values.ndim == 2 and b.shape == a.shape[1:])):
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    return _node(fwd(a.values, b.values), op,
                 (a, lambda g: _unbroadcast(da(g, b.values), a.shape)),
                 (b, lambda g: _unbroadcast(db(g, a.values), b.shape)), act=act)


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, y: g, lambda g, x: g, "add")


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, y: g, lambda g, x: -g, "sub")


def mul(a, b, act=None):
    return _binary(a, b, lambda x, y: x * y, lambda g, y: g * y, lambda g, x: g * x, "mul",
                   act=act)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _node(a.values @ b.values, "matmul",
                 (a, lambda g: g @ b.values.T), (b, lambda g: a.values.T @ g))


def linear(x, w, b, act=None):
    """x @ w + b in one node, b added in place: the bits of add(matmul(x, w), b).
    With act the activation follows in the same node."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if (x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    out = x.values @ w.values
    out += b.values
    return _node(out, "linear", (x, lambda g: g @ w.values.T), (w, lambda g: x.values.T @ g),
                 (b, lambda g: g.sum(axis=0)), act=act)


def _unary(a, fwd, deriv, op):
    """Elementwise op; deriv(x, o) is d out / d x, given the output o."""
    a = _as_tensor(a)
    out = fwd(a.values)
    return _node(out, op, (a, lambda g: g * deriv(a.values, out)))


def _activation_node(a, act):
    """The activation act alone: the epilogue of linear, gather_sum, concat and
    mul, on a copy of a, which the node owns and its backward overwrites."""
    a = _as_tensor(a)
    return _node(a.values.copy(), act, (a, lambda g: g), act=act)


def tanh(a):
    return _activation_node(a, "tanh")


def softplus(a):
    # log(1 + e^x) without overflow. Not _unary: its g * sigmoid(x) rounds
    # differently from g / (1 + e^-x), which would change every report's bits
    a = _as_tensor(a)
    return _node(np.logaddexp(0.0, a.values), "softplus",
                 (a, lambda g: g / (1.0 + np.exp(-a.values))))


def sigmoid(a):
    return _unary(a, lambda x: 1.0 / (1.0 + np.exp(-x)), lambda x, o: o * (1.0 - o), "sigmoid")


def leaky_relu(a):
    return _activation_node(a, "leaky_relu")


def elu(a):
    return _activation_node(a, "elu")


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
    return _node(a.values.sum(), "sum", (a, lambda g: np.full(a.shape, float(g))))


def mean_(a):
    a = _as_tensor(a)
    return _node(a.values.mean(), "mean", (a, lambda g: np.full(a.shape, float(g) / a.values.size)))


def concat(parts, axis=0, act=None):
    """parts joined along axis; with act the activation follows in the same node."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    try:
        out = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    # each part's gradient is its slice of g along `axis`
    lead = (slice(None),) * (axis % out.ndim)
    bounds = np.cumsum([0] + [p.shape[axis] for p in parts])
    return _node(out, "concat", *[(p, lambda g, sl=lead + (slice(lo, hi),): g[sl])
                                  for p, lo, hi in zip(parts, bounds[:-1], bounds[1:])],
                 act=act)


def squeeze_col(a):
    """(n, 1) column -> (n,)."""
    a = _as_tensor(a)
    if a.values.ndim != 2 or a.shape[1] != 1:
        raise ShapeError(f"squeeze_col: expected a column, got {a.shape}")
    return _node(a.values[:, 0], "squeeze_col", (a, lambda g: g[:, None]))


def _row_index(idx, n, op):
    """idx as int64, after checking that it holds integers (an empty list,
    float64 to numpy, passes) and that each is a row of an n-row array."""
    idx = np.asarray(idx)
    if idx.size and idx.dtype.kind not in "iu":
        raise ShapeError(f"{op}: row indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
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


def _scatter_rows(values, idx, n):
    """The gradient of a row gather: _scatter_add(values, idx, n) when idx has
    at least n entries, else (rows, sums), the rows idx touches (np.unique)
    and the same product over those rows alone, which accumulate_grad adds
    into its own gradient in place: the bits of adding the n-row scatter, with
    no n-row array made."""
    if len(idx) >= n:
        return _scatter_add(values, idx, n)
    rows, compact = np.unique(idx, return_inverse=True)
    return rows, _scatter_add(values, compact, len(rows))


def take_rows(a, idx):
    """Gather rows; backward scatter-adds the gradient."""
    a = _as_tensor(a)
    idx = _row_index(idx, a.shape[0], "take_rows")
    return _node(a.values[idx], "take_rows", (a, lambda g: _scatter_rows(g, idx, a.shape[0])))


def gather_sum(a, first, b, second, extra=None, w=None, act=None):
    """a[first] + b[second], plus extra @ w when both are given, in one node:
    the bits of add(add(take_rows(a, first), take_rows(b, second)),
    matmul(extra, w)), without the gathered matrices or the product. With act
    the activation follows in the same node."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"gather_sum: incompatible shapes {a.shape} and {b.shape}")
    first = _row_index(first, a.shape[0], "gather_sum")
    second = _row_index(second, b.shape[0], "gather_sum")
    if first.shape != second.shape or first.ndim != 1:
        raise ShapeError(f"gather_sum: index shapes {first.shape} and {second.shape}")
    if (extra is None) != (w is None):
        raise ShapeError("gather_sum: extra and w must be given together")
    out = a.values[first]
    out += b.values[second]
    grads = [(a, lambda g: _scatter_rows(g, first, a.shape[0])),
             (b, lambda g: _scatter_rows(g, second, b.shape[0]))]
    if extra is not None:
        extra, w = _as_tensor(extra), _as_tensor(w)
        if (extra.values.ndim != 2 or w.values.ndim != 2 or extra.shape[0] != len(first)
                or w.shape != (extra.shape[1], a.shape[1])):
            raise ShapeError(f"gather_sum: extra {extra.shape} and w {w.shape} "
                             f"for {len(first)} rows of width {a.shape[1]}")
        out += extra.values @ w.values
        grads += [(extra, lambda g: g @ w.values.T), (w, lambda g: extra.values.T @ g)]
    return _node(out, "gather_sum", *grads, act=act)


def scale_rows(a, s):
    """Multiply row k of matrix `a` by scalar s[k]."""
    a, s = _as_tensor(a), _as_tensor(s)
    if a.values.ndim != 2 or s.values.ndim != 1 or a.shape[0] != s.shape[0]:
        raise ShapeError(f"scale_rows: shapes {a.shape} and {s.shape}")
    return _node(a.values * s.values[:, None], "scale_rows",
                 (a, lambda g: g * s.values[:, None]), (s, lambda g: (g * a.values).sum(axis=1)))


def segment_sum(a, segments, num_segments):
    """Sum rows of `a` into their segment; backward gathers."""
    a = _as_tensor(a)
    segments = _row_index(segments, num_segments, "segment_sum")
    if len(segments) != a.shape[0]:
        raise ShapeError(f"segment_sum: {len(segments)} segment ids for {a.shape[0]} rows")
    return _node(_scatter_add(a.values, segments, num_segments), "segment_sum",
                 (a, lambda g: g[segments]))


def propagate(z, alpha, src, dst, n):
    """Message passing: row i of the result is the sum of alpha[k] * z[src[k]]
    over k with dst[k] == i. The bits of
    segment_sum(scale_rows(take_rows(z, src), alpha), dst, n), with no
    per-edge message matrix kept for backward.

    Forward is the n x len(z) COO matrix holding alpha[k] at (dst[k], src[k])
    times z, and the z gradient its transpose times g: a COO product adds its
    terms into zeroed rows in k order, as the row scatters do. The alpha
    gradient is (g[dst] * z[src]).sum(axis=1), one chunk of edges at a time.
    """
    z, alpha = _as_tensor(z), _as_tensor(alpha)
    if z.values.ndim != 2:
        raise ShapeError(f"propagate: z must be 2-d, got shape {z.shape}")
    src = _row_index(src, z.shape[0], "propagate")
    dst = _row_index(dst, n, "propagate")
    if src.ndim != 1 or not src.shape == dst.shape == alpha.shape:
        raise ShapeError(f"propagate: {src.shape} sources, {dst.shape} destinations "
                         f"and {alpha.shape} coefficients")
    adjacency = sp.coo_matrix((alpha.values, (dst, src)), shape=(n, z.shape[0]))

    def dalpha(g):
        out = np.empty(len(src))
        for rows in chunks(len(src)):
            products = g[dst[rows]]
            products *= z.values[src[rows]]
            out[rows] = products.sum(axis=1)
        return out

    return _node(adjacency @ z.values, "propagate",
                 (z, lambda g: adjacency.T @ g), (alpha, dalpha))


def segment_signed_softmax(logits, segments, num_segments):
    """Per-segment signed softmax: alpha = sign(e) * softmax(|e|).

    Within each segment the |alpha| sum to 1 (max-subtracted for overflow
    safety). The sign factor is treated as locally constant: the backward
    pass is exact away from e=0 and uses subgradient 0 there.
    """
    logits = _as_tensor(logits)
    if logits.values.ndim != 1:
        raise ShapeError("segment_signed_softmax expects a 1-d logits tensor")
    segments = _row_index(segments, num_segments, "segment_signed_softmax")
    if len(segments) != len(logits.values):
        raise ShapeError("one segment id per logit required")
    e = logits.values
    s = np.sign(e)
    m = np.abs(e)
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segments, m)
    shifted = np.exp(m - seg_max[segments])
    denom = np.bincount(segments, shifted, num_segments)
    p = shifted / denom[segments]

    def dlogits(g):
        u = g * s * p
        seg_u = np.bincount(segments, u, num_segments)
        return s * (u - p * seg_u[segments])

    return _node(s * p, "segment_signed_softmax", (logits, dlogits))


def recompute(fn, *inputs):
    """fn(*inputs) as one node that keeps only its inputs and its output:
    gradient checkpointing. fn maps Tensors to a Tensor through the ops of
    this module and may close over parameters and arrays, but must give the
    same bits each time it runs.

    Forward runs fn on leaf copies of the inputs and keeps the values of its
    output, dropping the graph behind them. Backward runs fn again on new leaf
    copies and sweeps that graph seeded with the node's gradient: the
    parameters fn closes over gather their gradients there, and each input
    that requires one the gradient its copy gathered. The node requires a
    gradient when fn's graph does, even if no input does. A parameter that fn
    and the rest of the graph both use may sum its gradient terms in another
    order than one plain graph would.
    """
    inputs = tuple(_as_tensor(x) for x in inputs)

    def run():
        leaves = [Tensor(x.values, requires_grad=x.requires_grad, check=False) for x in inputs]
        return leaves, _as_tensor(fn(*leaves))

    _, out = run()

    def backward(g):
        leaves, rerun = run()
        _sweep(rerun, g)
        _accumulate(_leaf_grads(inputs, leaves), g)

    return Tensor(out.values, requires_grad=out.requires_grad, parents=inputs,
                  backward=backward, op="recompute", check=False)


def relay(value, inputs, leaves):
    """A scalar node of value ``value`` whose backward gives each of ``inputs``
    the gradient its leaf copy in ``leaves`` has gathered: the last step of a
    loss swept in parts on leaf copies of some tensors, which carries those
    gradients on through the graph behind the tensors.

    Valid only as the root of backward(), whose seed is exactly 1.0: the
    gradients are handed on as they are, not scaled by the node's own. The
    leaves give their gradients up to the node, and a leaf that gathered none
    hands on none.
    """
    return _node(np.float64(value), "relay", *_leaf_grads(inputs, leaves))


def log_softmax_rows(a):
    """Row-wise log-softmax for classification heads."""
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeError("log_softmax_rows expects a matrix")
    m = a.values.max(axis=1, keepdims=True)
    z = a.values - m
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return _node(out, "log_softmax_rows",
                 (a, lambda g: g - np.exp(out) * g.sum(axis=1, keepdims=True)))


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


def _swept(g):
    raise RuntimeError("backward through a graph that has already been swept")


def _sweep(output, g):
    """Reverse-mode sweep from output, seeded with its gradient g, freeing
    the graph as it goes: each node's gradient moves into its backward, which
    holds the only reference to it; a node whose backward has run lets go of
    its parents and its closure, and its backward then raises RuntimeError."""
    output.accumulate_grad(g)
    del g
    order = topo_order(output)
    # reverse topological order reaches a node once its gradient is complete;
    # popping drops the list's reference to each node as it is visited
    while order:
        node = order.pop()
        if node.grad is not None:
            node._check_grad()
            if node._backward is not None:
                held = [node._take_grad()]
                node._backward(held.pop())
                node._backward, node.parents = _swept, ()


def backward(output):
    """Reverse-mode sweep from a scalar output, freeing its graph as it goes;
    only leaf tensors keep .grad."""
    if output.values.size != 1:
        raise ShapeError("backward requires a scalar output")
    _sweep(output, np.ones_like(output.values))


class Tape:
    """Parameter registry: named leaf tensors, their Glorot initialisation from
    one seeded generator, and reset(), which clears their gradients."""

    def __init__(self, seed=0):
        self.params = {}
        self.rng = np.random.default_rng(seed)

    def parameter(self, name, values):
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        return t

    def glorot(self, name, shape):
        fan_in, fan_out = shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self.parameter(name, self.rng.uniform(-limit, limit, size=shape))

    def reset(self):
        for p in self.params.values():
            p.grad = None


class Adam:
    """Adam with bias correction, betas (0.9, 0.999), eps 1e-8; deterministic given gradients."""

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = 0.9, 0.999
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.values = p.values - self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            _check_finite(p.values, "adam update")
