import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import wsgat.autodiff as ad
from wsgat.autodiff import Tensor, Tape, Adam
from wsgat.errors import NumericFault, ShapeError
from wsgat.verify import scatter_add_oracle


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f wrt array x (independent oracle)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    out = ad.matmul(Tensor(a), Tensor(np.eye(3)))
    assert np.allclose(out.values, a)


def test_matmul_1x1():
    out = ad.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.values[0, 0] == 6.0


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(1)
    A = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    B = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    loss = ad.sum_(ad.matmul(A, B))
    ad.backward(loss)
    for t in (A, B):
        ref = fd_grad(lambda: float(ad.sum_(ad.matmul(Tensor(A.values), Tensor(B.values))).values),
                      t.values)
        assert np.max(np.abs(t.grad - ref)) / max(np.max(np.abs(ref)), 1e-8) < 1e-6


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_concat_values_and_empty_part():
    out = ad.concat([Tensor([1.0]), Tensor([2.0]), Tensor([0.5])])
    assert out.values.tolist() == [1.0, 2.0, 0.5]
    x = Tensor([1.0, 2.0])
    out = ad.concat([x, Tensor(np.zeros(0))])
    assert np.array_equal(out.values, x.values)


def test_concat_gradient_routing():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    ad.backward(ad.sum_(ad.concat([x, y])))
    assert np.array_equal(x.grad, np.ones(2))
    assert np.array_equal(y.grad, np.ones(1))


def test_pointwise_values():
    assert ad.leaky_relu(Tensor([-1.0])).values[0] == pytest.approx(-0.2)
    assert ad.sign_(Tensor([3.0, -0.5, 0.0])).values.tolist() == [1.0, -1.0, 0.0]
    x = Tensor([0.0], requires_grad=True)
    ad.backward(ad.sum_(ad.tanh(x)))
    assert x.grad[0] == pytest.approx(1.0)


def test_abs_subgradient_zero_at_zero():
    x = Tensor([0.0, -2.0, 3.0], requires_grad=True)
    ad.backward(ad.sum_(ad.abs_(x)))
    assert x.grad.tolist() == [0.0, -1.0, 1.0]


def test_sign_has_zero_derivative():
    x = Tensor([1.0, -4.0], requires_grad=True)
    ad.backward(ad.sum_(ad.sign_(x)))
    assert x.grad.tolist() == [0.0, 0.0]


def test_nan_input_raises():
    with pytest.raises(NumericFault):
        Tensor([np.nan])


def test_log_of_negative_raises_numeric_fault():
    with pytest.raises(NumericFault):
        ad.log(Tensor([-1.0]))


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    ad.backward(ad.sum_(ad.mul(x, x)))
    assert x.grad[0] == pytest.approx(6.0)


def test_backward_composite_vs_finite_differences():
    rng = np.random.default_rng(5)
    W = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    x = np.abs(rng.standard_normal((3, 2))) + 0.1

    def forward():
        return float(ad.sum_(ad.tanh(ad.matmul(Tensor(W.values), Tensor(x)))).values)

    ad.backward(ad.sum_(ad.tanh(ad.matmul(W, Tensor(x)))))
    ref = fd_grad(forward, W.values)
    assert np.max(np.abs(W.grad - ref)) / max(np.max(np.abs(ref)), 1e-8) < 1e-4


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.backward(ad.tanh(x))


def test_constant_graph_zero_grads():
    x = Tensor([2.0], requires_grad=True)
    c = Tensor([5.0])
    ad.backward(ad.sum_(ad.mul(c, c)))
    assert x.grad is None  # not part of the graph


# each op with two inputs: (op, shape of the first input, shape of the second)
TWO_INPUT_OPS = {
    "add": (ad.add, (3, 4), (3, 4)),
    "sub": (ad.sub, (3, 4), (3, 4)),
    "mul": (ad.mul, (3, 4), (3, 4)),
    "matmul": (ad.matmul, (3, 4), (4, 2)),
    "scale_rows": (ad.scale_rows, (3, 4), (3,)),
    "concat": (lambda x, y: ad.concat([x, y], axis=1), (3, 4), (3, 2)),
    "gather_sum": (lambda x, y: ad.gather_sum(x, [0, 2, 2], y, [1, 1, 0]), (3, 4), (2, 4)),
    "propagate": (lambda z, a: ad.propagate(z, a, [0, 2, 2, 1], [1, 0, 1, 1], 2), (3, 4), (4,)),
}


@pytest.mark.parametrize("constant", [0, 1])
@pytest.mark.parametrize("name", list(TWO_INPUT_OPS))
def test_constant_input_gets_no_gradient(name, constant):
    op, *shapes = TWO_INPUT_OPS[name]
    rng = np.random.default_rng(4)
    values = [rng.standard_normal(shape) for shape in shapes]
    inputs = [Tensor(v, requires_grad=i != constant) for i, v in enumerate(values)]
    coeff = rng.standard_normal(op(*inputs).shape)

    def loss(xs):
        return ad.sum_(ad.mul(op(*xs), coeff))

    ad.backward(loss(inputs))
    assert inputs[constant].grad is None
    variable = 1 - constant
    ref = fd_grad(lambda: float(loss([Tensor(v) for v in values]).values), values[variable])
    assert np.allclose(inputs[variable].grad, ref, rtol=1e-6, atol=1e-8)


BINARY_SHAPES = [
    ((3, 4), (3, 4), True), ((4,), (4,), True), ((), (), True),
    ((), (3, 4), True), ((3, 4), (), True), ((), (4,), True),
    ((3, 4), (4,), True),  # the bias row
    ((1, 4), (3, 4), False), ((3, 4), (1, 4), False), ((4,), (3, 4), False),
    ((3, 4), (3,), False), ((3, 4), (3, 1), False), ((3,), (1,), False),
    ((2, 3, 4), (4,), False),
]


@pytest.mark.parametrize("a_shape,b_shape,accepted", BINARY_SHAPES,
                         ids=[f"{a}{b}".replace(" ", "") for a, b, _ in BINARY_SHAPES])
def test_binary_broadcasts_only_identical_scalar_and_bias_shapes(a_shape, b_shape, accepted):
    rng = np.random.default_rng(6)
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
    if not accepted:
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(ShapeError, match="incompatible shapes"):
                op(a, b)
        return
    out = ad.add(a, b)
    g = rng.standard_normal(out.shape)
    ad.backward(ad.sum_(ad.mul(out, g)))
    for t in (a, b):
        assert t.grad.shape == t.shape
        if t.shape == out.shape:
            assert np.array_equal(t.grad, g)
        elif t.shape == ():
            assert np.isclose(t.grad, g.sum())
        else:
            assert np.array_equal(t.grad, g.sum(axis=0))  # bias: column sums


def test_non_finite_gradient_raises_numeric_fault():
    x = Tensor([1.0, 2.0], requires_grad=True)

    def backward(g):
        x.accumulate_grad(np.full(x.shape, np.inf))

    y = Tensor(x.values.copy(), parents=(x,), backward=backward, op="inf_grad")
    with pytest.raises(NumericFault, match="gradient of"):
        ad.backward(ad.sum_(y))


def test_backward_keeps_grad_on_leaves_only():
    x = Tensor([1.0, -2.0], requires_grad=True)
    hidden = ad.tanh(x)
    loss = ad.sum_(ad.mul(hidden, hidden))
    ad.backward(loss)
    assert hidden.grad is None and loss.grad is None
    assert np.allclose(x.grad, 2.0 * np.tanh(x.values) * (1.0 - np.tanh(x.values) ** 2))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 CPython keeps a call's arguments on the caller's "
                           "stack until the call returns")
def test_a_sweep_moves_each_gradient_into_its_backward():
    """The sweep keeps no reference to the gradient it hands a node's
    backward, so the backward can free it before it returns."""
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    freed = []

    def backward(g):
        ref = weakref.ref(g)
        x.accumulate_grad(2.0 * g)
        del g
        freed.append(ref() is None)

    y = Tensor(2.0 * x.values, parents=(x,), backward=backward, op="double")
    ad.backward(ad.sum_(y))
    assert freed == [True] and np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_a_swept_graph_cannot_be_swept_again():
    """A sweep lets go of each node's parents once the node has passed its
    gradient on, and the node's backward then raises RuntimeError: sweeping
    the same root again, or another root that reaches a swept node, fails
    before any leaf gradient changes."""
    x = Tensor([1.0, -2.0], requires_grad=True)
    hidden = ad.tanh(x)
    loss = ad.sum_(hidden)
    ad.backward(loss)
    first = x.grad.copy()
    assert hidden.parents == () and loss.parents == ()
    with pytest.raises(RuntimeError, match="already been swept"):
        ad.backward(loss)
    with pytest.raises(RuntimeError, match="already been swept"):
        ad.backward(ad.sum_(ad.mul(hidden, 3.0)))
    assert np.array_equal(x.grad, first)
    ad.backward(ad.sum_(ad.tanh(x)))  # a new graph over the same leaf sweeps
    assert np.array_equal(x.grad, 2.0 * first)


def test_two_parents_handed_one_gradient_by_add_keep_it_unchanged():
    """add hands one g to both its parents. When one of them gathers more, the
    sums go into an array of its own, so the other's gradient, and the array
    both were handed, keep their bits."""
    rng = np.random.default_rng(9)
    a, b = (Tensor(rng.standard_normal((4, 3)), requires_grad=True) for _ in range(2))
    g, h = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    ad.backward(ad.sum_(ad.mul(ad.add(a, b), g)))
    handed = b.grad
    assert np.shares_memory(a.grad, b.grad) and a.grad.tobytes() == g.tobytes()
    for _ in range(2):  # a sum into a new array, then one in place
        ad.backward(ad.sum_(ad.mul(a, h)))
    assert b.grad is handed and handed.tobytes() == g.tobytes()
    assert not np.shares_memory(a.grad, handed)
    assert a.grad.tobytes() == (g + h + h).tobytes()


@pytest.mark.parametrize("add", ["dense", "rows"])
def test_an_array_set_as_grad_from_outside_is_never_written(add):
    """An array assigned to .grad is not the tensor's own, even where the
    tensor had summed into one of its own before: a sweep that adds to it, a
    whole gradient or a row scatter's (rows, sums), makes a new array."""
    x = Tensor(np.zeros((5, 2)), requires_grad=True)

    def sweep():
        ad.backward(ad.sum_(ad.mul(x, 2.0) if add == "dense" else ad.take_rows(x, [1, 3])))

    sweep()
    sweep()
    mine = np.ones((5, 2))
    x.grad = mine
    sweep()
    sweep()
    assert np.array_equal(mine, np.ones((5, 2)))
    expected = np.full((5, 2), 5.0) if add == "dense" else [[1, 1], [3, 3], [1, 1], [3, 3], [1, 1]]
    assert x.grad is not mine and np.array_equal(x.grad, expected)


def test_after_tape_reset_a_sweep_starts_a_new_gradient():
    """reset() lets go of a parameter's own gradient: the next sweeps leave the
    array the parameter had summed into unchanged and sum into a new one."""
    tape = Tape()
    w = tape.parameter("w", np.ones((4, 2)))
    for _ in range(3):  # the second sweep allocates w's own gradient, the third adds into it
        ad.backward(ad.sum_(ad.mul(w, 3.0)))
    old = w.grad
    tape.reset()
    assert w.grad is None
    for loss in (ad.mul(w, 3.0), ad.take_rows(w, [2]), ad.mul(w, 3.0)):
        ad.backward(ad.sum_(loss))
    assert np.array_equal(old, np.full((4, 2), 9.0))
    assert w.grad is not old and np.array_equal(w.grad, [[6, 6], [6, 6], [7, 7], [6, 6]])


@pytest.mark.parametrize("seed", range(3))
def test_a_leaf_swept_in_chunks_gets_the_bits_of_add_at_chunk_by_chunk(monkeypatch, seed):
    """A chunk loop like a pair loss's over gather_sum: `a` has twice as many
    rows as a full chunk has pairs, so its full chunks take the dense scatter
    and its last one the row-sparse (rows, sums); every chunk has fewer than
    half as many pairs as `b` has rows, so it is row-sparse throughout. Each
    leaf's gradient is then the np.add.at scatter of each chunk into zeros,
    added chunk by chunk in order, signed zeros included."""
    monkeypatch.setattr(ad, "_CHUNK_ROWS", 6)
    rng = np.random.default_rng(seed)
    m, width = 22, 3  # chunks of 6, 6, 6 and 4 pairs
    values = [rng.standard_normal((12, width)), rng.standard_normal((13, width))]
    first, second = rng.integers(0, 12, m), rng.integers(0, 13, m)
    upstream = rng.standard_normal((m, width)) * rng.choice([0.0, 1.0], (m, width))
    upstream[rng.random((m, width)) < 0.2] = -0.0
    a, b = (Tensor(v, requires_grad=True) for v in values)
    refs = [np.zeros_like(v) for v in values]
    for part in ad.chunks(m):
        out = ad.gather_sum(a, first[part], b, second[part])
        ad.backward(ad.sum_(ad.mul(out, upstream[part])))
        for ref, idx in zip(refs, (first, second)):
            ref += scatter_add_oracle(upstream[part], idx[part], len(ref))
    assert a.grad.tobytes() == refs[0].tobytes() and b.grad.tobytes() == refs[1].tobytes()


def test_a_chunk_sweep_adds_its_rows_into_the_leafs_own_gradient(monkeypatch):
    """A leaf each of whose chunks touches fewer rows than it has: the first
    chunk's sweep allocates its gradient, and each later one adds its rows'
    sums into that array in place, and checks those rows alone. Past the first
    chunk, the sweeps' peak traced memory stays below a sixteenth of the leaf,
    under a whole-gradient NaN/Inf check's boolean array."""
    monkeypatch.setattr(ad, "_CHUNK_ROWS", 256)
    rng = np.random.default_rng(10)
    n, width, m = 50000, 16, 2048
    a = Tensor(rng.standard_normal((n, width)), requires_grad=True)
    b = Tensor(rng.standard_normal((n, width)))
    first, second = rng.integers(0, n, m), rng.integers(0, n, m)
    upstream = rng.standard_normal((m, width))

    def sweep(part):
        out = ad.gather_sum(a, first[part], b, second[part])
        ad.backward(ad.sum_(ad.mul(out, upstream[part])))

    parts = ad.chunks(m)
    sweep(parts[0])
    grad, same = a.grad, []
    tracemalloc.start()
    try:
        for part in parts[1:]:
            sweep(part)
            same.append(a.grad is grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same == [True] * (len(parts) - 1)
    assert peak < a.values.nbytes // 16


def test_a_row_sparse_add_that_overflows_raises_numeric_fault():
    """The sweep checks the rows a row-sparse add touched after the add."""
    x = Tensor(np.zeros((4, 1)), requires_grad=True)
    ad.backward(ad.sum_(ad.mul(ad.take_rows(x, [1]), 1e308)))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericFault, match="gradient of"):
            ad.backward(ad.sum_(ad.mul(ad.take_rows(x, [1]), 1e308)))


@pytest.mark.parametrize("bad", [-1, 3])
def test_scatter_ops_reject_out_of_range_rows(bad):
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="take_rows: index out of range"):
        ad.take_rows(a, [0, bad])
    for first, second in (([0, bad], [0, 1]), ([0, 1], [bad, 0])):
        with pytest.raises(ShapeError, match="gather_sum: index out of range"):
            ad.gather_sum(a, first, a, second)
    with pytest.raises(ShapeError, match="segment_sum: index out of range"):
        ad.segment_sum(a, [0, bad, 1], 3)
    # z has more rows than n in the second case, so each index meets its own bound
    for z_rows, src, dst in ((3, [0, bad], [0, 1]), (4, [0, 1], [bad, 0])):
        with pytest.raises(ShapeError, match="propagate: index out of range"):
            ad.propagate(Tensor(np.ones((z_rows, 2))), Tensor(np.ones(2)), src, dst, 3)
    with pytest.raises(ShapeError, match="segment_signed_softmax: index out of range"):
        ad.segment_signed_softmax(Tensor([1.0, 2.0]), [0, bad], 3)


def test_segment_sum_needs_one_segment_id_per_row():
    with pytest.raises(ShapeError, match="2 segment ids for 3 rows"):
        ad.segment_sum(Tensor(np.ones((3, 2))), [0, 1], 3)


@given(st.data(), st.integers(min_value=1, max_value=6), st.sampled_from([None, 1, 3]))
@settings(max_examples=200, deadline=None)
def test_scatters_give_the_add_at_oracle_bits(data, n, width):
    """Repeated and never-hit rows, empty idx, 1-d values and signed zeros,
    with the take_rows gradient arriving as a non-contiguous concat slice."""
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=12)), dtype=np.int64)
    shape = (len(idx),) if width is None else (len(idx), width)
    values = data.draw(hnp.arrays(np.float64, shape,
                                  elements=st.floats(-4, 4) | st.sampled_from([0.0, -0.0])))
    ref = scatter_add_oracle(values, idx, n)
    assert ad.segment_sum(Tensor(values), idx, n).values.tobytes() == ref.tobytes()

    a = Tensor(np.ones((n,) + shape[1:]), requires_grad=True)
    rows = ad.take_rows(a, idx)
    # concat hands take_rows its slice of the upstream gradient, which is
    # `values` itself (times the exact 1.0 from the sum)
    extra = np.ones((len(idx),) if width is None else (len(idx), 2))
    axis = 0 if width is None else 1
    upstream = np.concatenate([values, extra], axis=axis)
    ad.backward(ad.sum_(ad.mul(ad.concat([rows, Tensor(extra)], axis=axis), upstream)))
    assert a.grad.shape == ref.shape and a.grad.tobytes() == ref.tobytes()


def _grads_after(loss, tensors):
    ad.backward(loss)
    return [t.grad.tobytes() for t in tensors]


@pytest.mark.parametrize("seed", range(3))
def test_linear_gives_the_bits_of_matmul_plus_bias(seed):
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(s) for s in ((7, 5), (5, 3), (3,))]
    g = rng.standard_normal((7, 3))

    def run(op):
        x, w, b = (Tensor(v, requires_grad=True) for v in values)
        out = op(x, w, b)
        return out.values.tobytes(), _grads_after(ad.sum_(ad.mul(out, g)), (x, w, b))

    assert run(ad.linear) == run(lambda x, w, b: ad.add(ad.matmul(x, w), b))


@pytest.mark.parametrize("same, extra", [(False, False), (True, False), (False, True), (True, True)],
                         ids=["False", "True", "False-extra", "True-extra"])
@pytest.mark.parametrize("seed", range(3))
def test_gather_sum_gives_the_bits_of_two_take_rows_added(seed, same, extra):
    """Repeated and never-hit rows; `same` gathers both sides from one tensor;
    `extra` adds an extra @ w term, whose two factors both take gradients."""
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal((4, 3)), rng.standard_normal((5, 3)),
              rng.standard_normal((9, 2)), rng.standard_normal((2, 3))]
    first, second = rng.integers(0, 3, 9), rng.integers(0, 4, 9)
    g = rng.standard_normal((9, 3))

    def run(op):
        a = Tensor(values[0], requires_grad=True)
        b = a if same else Tensor(values[1], requires_grad=True)
        e, w = (Tensor(v, requires_grad=True) for v in values[2:])
        out = op(a, first, b, second, *((e, w) if extra else ()))
        leaves = ((a,) if same else (a, b)) + ((e, w) if extra else ())
        return out.values.tobytes(), _grads_after(ad.sum_(ad.mul(out, g)), leaves)

    def unfused(a, i, b, j, *term):
        x = ad.add(ad.take_rows(a, i), ad.take_rows(b, j))
        return ad.add(x, ad.matmul(*term)) if term else x

    assert run(ad.gather_sum) == run(unfused)


@pytest.mark.parametrize("act", ad._ACTIVATIONS)
@pytest.mark.parametrize("op", ["linear", "gather_sum", "gather_sum-extra", "concat", "mul"])
def test_activation_epilogue_gives_the_bits_of_the_standalone_activation(op, act):
    """linear, gather_sum and the head merges concat and mul with act give the
    values and every parent's gradient of the standalone activation after the
    plain op, to the bit. Row 0 of the pre-activation holds 0.0, -0.0 (not
    reached by linear or by gather_sum with extra: a product's zero is +0.0)
    and a negative subnormal, which pin the activations' kink."""
    rng = np.random.default_rng(5)
    tiny = -5e-324
    kink = [0.0, -0.0, tiny]
    if op == "linear":
        x = rng.standard_normal((6, 4))
        x[0] = 0.0
        values = [x, rng.standard_normal((4, 3)), np.array([0.0, -0.0, tiny])]
        kink = [0.0, 0.0, tiny]
        plain = ad.linear
    elif op == "concat":
        a, b = rng.standard_normal((6, 2)), rng.standard_normal((6, 1))
        a[0], b[0] = kink[:2], kink[2:]
        values = [a, b]

        def plain(a, b, act=None):
            return ad.concat([a, b], axis=1, act=act)
    elif op == "mul":
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        a[0], b[0] = kink, 1.0
        values = [a, b]
        plain = ad.mul
    else:
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        a[0], b[0] = [0.0, -0.0, tiny], [0.0, -0.0, -0.0]
        first, second = np.array([0, 1, 3, 0, 2, 1]), np.array([0, 4, 4, 2, 1, 0])
        values = [a, b]
        if op == "gather_sum-extra":
            extra = rng.standard_normal((6, 2))
            extra[0] = 0.0
            values += [extra, rng.standard_normal((2, 3))]
            kink = [0.0, 0.0, tiny]

        def plain(a, b, *term, act=None):
            return ad.gather_sum(a, first, b, second, *term, act=act)

    g = rng.standard_normal((6, 3))

    def run(fused):
        leaves = [Tensor(v, requires_grad=True) for v in values]
        if fused:
            out = plain(*leaves, act=act)
        else:
            pre = plain(*leaves)
            assert pre.values[0].tobytes() == np.array(kink).tobytes()
            out = getattr(ad, act)(pre)
        return out.values.tobytes(), _grads_after(ad.sum_(ad.mul(out, g)), leaves)

    assert run(True) == run(False)
    if act == "leaky_relu":  # slope 1 at both zeros, 0.2 below them
        x = Tensor(kink, requires_grad=True)
        ad.backward(ad.sum_(ad.leaky_relu(x)))
        assert x.grad.tolist() == [1.0, 1.0, 0.2]


@pytest.mark.parametrize("act", ad._ACTIVATIONS)
def test_a_product_of_scalars_takes_its_activation(act):
    """mul of two 0-d operands, whose numpy product is a scalar rather than an
    array, applies its act like the standalone activation."""
    x = Tensor(-2.0, requires_grad=True)
    fused = ad.mul(x, 3.0, act=act)
    assert fused.values.tobytes() == getattr(ad, act)(ad.mul(x, 3.0)).values.tobytes()
    ad.backward(fused)
    assert x.grad == pytest.approx(fd_grad(lambda: float(getattr(ad, act)(ad.mul(x, 3.0)).values),
                                           x.values))


def test_leaky_relu_gives_the_bits_of_scaling_the_negative_entries(monkeypatch):
    """The forward max(x, 0.2 x) and the derivative g * slope[x < 0] give the
    bits of multiplying by 0.2 only where x < 0, and the derivative those of
    g * where(x < 0, 0.2, 1), at both zeros, the subnormals and the extremes too,
    in one chunk of rows or in many, and for a 0-d array."""
    rng = np.random.default_rng(0)
    edge = [0.0, -0.0, 5e-324, -5e-324, -1e-323, 2.5e-323, -2.2250738585072014e-308,
            1.0, -1.0, 1.7976931348623157e308, -1.7976931348623157e308]
    x = np.concatenate([rng.standard_normal(4000) * 10.0 ** rng.integers(-320, 300, 4000),
                        edge]).reshape(-1, 3)
    g = np.concatenate([rng.standard_normal(4000), edge[::-1]]).reshape(-1, 3)

    def scaled(values, where):
        out = values.copy()
        np.multiply(out, 0.2, out=out, where=where)
        return out

    forward, grad = ad._ACTIVATIONS["leaky_relu"]
    out = x.copy()
    negative = forward(out)
    assert np.array_equal(negative, x < 0)
    assert out.tobytes() == scaled(x, x < 0).tobytes()
    # the derivative is written over the output it is given, so each call gets a copy
    for chunk_rows in (16384, 7):
        monkeypatch.setattr(ad, "_CHUNK_ROWS", chunk_rows)
        assert grad(g, out.copy(), negative).tobytes() == scaled(g, x < 0).tobytes()
        assert grad(g, out.copy(), negative).tobytes() == (g * np.where(x < 0, 0.2, 1.0)).tobytes()
    scalar = np.array(-3.0)
    assert grad(np.array(2.0), scalar, forward(scalar)).tolist() == 0.4


def test_elu_gives_the_bits_of_the_where_form(monkeypatch):
    """The in-place forward and the derivative written over the output give
    the bits of np.where(x >= 0, x, np.expm1(x)) and of
    g * np.where(x >= 0, 1.0, np.exp(x)), at both zeros, the subnormals, where
    exp underflows and at the extremes too, on C- and F-ordered arrays, in one
    chunk of negative entries or in many, and for a 0-d array."""
    rng = np.random.default_rng(6)
    edge = [0.0, -0.0, 5e-324, -5e-324, -2.2250738585072014e-308, -745.0, -800.0,
            1.7976931348623157e308, -1.7976931348623157e308]
    x = np.concatenate([rng.standard_normal(3990) * 10.0 ** rng.integers(-320, 300, 3990),
                        edge]).reshape(-1, 3)
    g = np.concatenate([rng.standard_normal(3990), edge[::-1]]).reshape(-1, 3)
    with np.errstate(over="ignore"):  # the where form takes exp of the large positives too
        expected = np.where(x >= 0, x, np.expm1(x)).tobytes()
        expected_grad = (g * np.where(x >= 0, 1.0, np.exp(x))).tobytes()
    forward, grad = ad._ACTIVATIONS["elu"]
    for order in ("C", "F"):
        out = np.array(x, order=order)
        saved = forward(out)
        assert out.tobytes() == expected and out.flags[f"{order}_CONTIGUOUS"]
        # the derivative is written over the output it is given, so each call gets a copy
        for chunk_rows in (16384, 7):
            monkeypatch.setattr(ad, "_CHUNK_ROWS", chunk_rows)
            buf, g_before = out.copy(order="K"), g.copy()
            result = grad(g, buf, saved)
            assert result is buf and result.tobytes() == expected_grad
            assert g.tobytes() == g_before.tobytes()
    scalar = np.array(-3.0)
    saved = forward(scalar)
    assert scalar.tobytes() == np.expm1(np.array(-3.0)).tobytes()
    assert grad(np.array(2.0), scalar, saved).tobytes() == (2.0 * np.exp(np.array(-3.0))).tobytes()


@pytest.mark.parametrize("k", [1, 5])
def test_chunks_cover_the_rows_in_order_at_the_patched_chunk_size(monkeypatch, k):
    monkeypatch.setattr(ad, "_CHUNK_ROWS", k)
    for n in (0, 1, k - 1, k, k + 1, 3 * k):
        parts = ad.chunks(n)
        assert [i for part in parts for i in range(n)[part]] == list(range(n))
        assert all(1 <= len(range(n)[part]) <= k for part in parts)
        assert len(parts) == -(-n // k)  # the fewest slices of k rows: k is the size used


def test_an_empty_index_list_takes_no_rows():
    # np.asarray([]) is float64: an empty list is no rows, not a float index
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    assert ad.take_rows(a, []).shape == (0, 2)
    assert ad.segment_sum(Tensor(np.ones((0, 2))), [], 3).values.tolist() == [[0.0, 0.0]] * 3


def test_tanh_derivative_gives_the_bits_of_one_minus_the_square_times_g():
    """g times tanh's derivative, written over the output, gives the bits of
    (1 - out * out) * g computed on copies: at both zeros, the subnormals, +-1,
    the saturated outputs just below 1 in magnitude and a large g too."""
    rng = np.random.default_rng(1)
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
            np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), np.tanh(19.0), np.tanh(-0.5)]
    out = np.concatenate([np.tanh(rng.standard_normal(3000) * 10.0 ** rng.integers(-5, 3, 3000)),
                          edge, edge]).reshape(-1, 4)
    g = np.concatenate([rng.standard_normal(3000) * 10.0 ** rng.integers(-300, 300, 3000),
                        [1.0] * len(edge), [1.7976931348623157e308, -1e300, 5e-324] * 4])
    g = g.reshape(-1, 4)
    expected = (1.0 - out * out) * g
    _, grad = ad._ACTIVATIONS["tanh"]
    buf, g_before = out.copy(), g.copy()  # grad overwrites the copy of out
    result = grad(g, buf, None)
    assert result is buf
    assert result.tobytes() == expected.tobytes()
    assert g.tobytes() == g_before.tobytes()


@pytest.mark.parametrize("act", ad._ACTIVATIONS)
def test_an_activation_backward_reuses_its_output_buffer(act):
    """The standalone activation's backward writes the input's gradient over
    the activation's output array instead of allocating a new one."""
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((7, 5)), requires_grad=True)
    y = getattr(ad, act)(x)
    buf = y.values
    ad.backward(ad.sum_(ad.mul(y, rng.standard_normal((7, 5)))))
    assert np.shares_memory(x.grad, buf)


@pytest.mark.parametrize("act", ad._ACTIVATIONS)
def test_a_fused_activation_backward_allocates_no_array_of_its_output_size(act):
    """The backward of one linear(..., act) node keeps no array of its output's
    size besides its parents' gradients: with x twice as wide as the output,
    its peak traced memory is those gradients alone."""
    rng = np.random.default_rng(3)
    x, w, b = (Tensor(v, requires_grad=True) for v in
               (rng.standard_normal((4096, 128)), rng.standard_normal((128, 64)), np.zeros(64)))
    y = ad.linear(x, w, b, act=act)
    g = rng.standard_normal(y.shape)
    tracemalloc.start()
    try:
        y._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parent_grads = x.grad.nbytes + w.grad.nbytes + b.grad.nbytes
    assert peak - parent_grads < y.values.nbytes // 4


def test_leaky_relu_backward_takes_its_slopes_a_chunk_of_rows_at_a_time(monkeypatch):
    """A leaky_relu backward whose output is its largest array, a narrow x
    into 64 columns, allocates less than a quarter of the output beyond its
    parents' gradients: np.take's int64 copy of the mask covers one chunk of
    rows, not the whole output."""
    monkeypatch.setattr(ad, "_CHUNK_ROWS", 512)
    rng = np.random.default_rng(4)
    x, w, b = (Tensor(v, requires_grad=True) for v in
               (rng.standard_normal((4096, 4)), rng.standard_normal((4, 64)), np.zeros(64)))
    y = ad.linear(x, w, b, act="leaky_relu")
    g = rng.standard_normal(y.shape)
    tracemalloc.start()
    try:
        y._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parent_grads = x.grad.nbytes + w.grad.nbytes + b.grad.nbytes
    assert peak - parent_grads < y.values.nbytes // 4


@pytest.mark.parametrize("seed", range(3))
def test_recompute_gives_the_bits_of_the_plain_graph(seed):
    """recompute(fn, *inputs) gives the values of fn(*inputs) and every gradient
    to the bit: of the parameters fn closes over, of an input used twice, and
    through an input that is itself a node. An input that needs no gradient
    leaves its node requiring one when fn closes over a parameter, so that
    parameter's gradient is not lost, and so does a recompute of no inputs.
    Each parameter is used by one recompute only: one used inside and outside
    may sum its terms in another order."""
    rng = np.random.default_rng(seed)
    shapes = ((6, 4), (6, 4), (4, 3), (3,), (4, 3), (3,), (4, 3), (3,))
    values = [rng.standard_normal(s) for s in shapes]
    g = rng.standard_normal((6, 3))

    def run(recompute):
        a = Tensor(values[0], requires_grad=True)
        x = Tensor(values[1])
        params = [Tensor(v, requires_grad=True) for v in values[2:]]
        w, b, v, c, v2, p = params
        r = recompute(lambda x: ad.linear(x, w, b, "tanh"), x)
        assert r.requires_grad
        u = ad.tanh(ad.take_rows(a, [0, 2, 1, 5, 4, 3]))
        out = recompute(lambda u, r: ad.mul(ad.linear(u, v, c, "leaky_relu"),
                                            ad.add(r, ad.matmul(u, v2))), u, r)
        out = ad.add(out, recompute(lambda: ad.tanh(p)))
        grads = _grads_after(ad.sum_(ad.mul(out, g)), [a] + params)
        assert x.grad is None
        return out.values.tobytes(), grads

    assert run(ad.recompute) == run(lambda fn, *xs: fn(*xs))


@pytest.mark.parametrize("chunk_rows", [ad._CHUNK_ROWS, 7])
def test_chunked_matches_its_plain_graph(monkeypatch, chunk_rows):
    """chunked(prepare, fn, n, *inputs) gives the values and every gradient of
    the plain graph fn(slice(0, n), *prepare(*inputs)) to 1e-12 relative, in
    one chunk and in many: of the parameters prepare and fn close over, one
    used by both (as a scorer's w0 is), and through an input that is itself a
    node. An input that needs no gradient gets none. The node keeps only its
    inputs and its output."""
    monkeypatch.setattr(ad, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(3)
    n, nodes = 40, 9
    first, second = rng.integers(0, nodes, n), rng.integers(0, nodes, n)
    extra = rng.standard_normal((n, 1))
    shapes = ((nodes, 4), (nodes, 4), (9, 5), (5,), (5, 2), (2,))
    values = [rng.standard_normal(s) for s in shapes]
    seed = rng.standard_normal((n, 2))

    def run(chunked):
        a, const = Tensor(values[0], requires_grad=True), Tensor(values[1])
        params = [Tensor(v, requires_grad=True) for v in values[2:]]
        w0, b0, w1, b1 = params

        def prepare(x, y):
            return (ad.linear(ad.add(x, y), ad.take_rows(w0, range(4)), b0),
                    ad.matmul(x, ad.take_rows(w0, range(4, 8))))

        def fn(part, r0, r1):
            hidden = ad.gather_sum(r0, first[part], r1, second[part], Tensor(extra[part]),
                                   ad.take_rows(w0, [8]), act="leaky_relu")
            return ad.linear(hidden, w1, b1, act="tanh")

        x = ad.tanh(a)
        out = chunked(prepare, fn, n, x, const)
        values_out = out.values.copy()
        if chunked is ad.chunked:
            assert out.op == "chunked" and out.parents == (x, const) and out.shape == (n, 2)
            assert {id(t) for t in ad.topo_order(out)} == {id(a), id(x), id(const), id(out)}
        ad.backward(ad.sum_(ad.mul(out, seed)))
        assert const.grad is None
        return [values_out, a.grad] + [p.grad for p in params]

    assert len(ad.chunks(n)) == (1 if chunk_rows >= n else 6)
    got = run(ad.chunked)
    ref = run(lambda prepare, fn, n, *xs: fn(slice(0, n), *prepare(*xs)))
    for x, y in zip(got, ref):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def test_chunked_over_zero_rows_raises_shape_error():
    with pytest.raises(ShapeError, match="zero rows"):
        ad.chunked(lambda x: (x,), lambda part, x: x, 0, Tensor(np.ones((2, 1))))


@pytest.mark.parametrize("seed", range(3))
def test_relay_hands_on_the_bits_its_leaves_gathered(seed):
    """relay(value, inputs, leaves) is a scalar of value `value`. As the root of
    backward it gives each input exactly the gradient its leaf copy gathered:
    an input that is a leaf keeps those bits, and one that is a node carries
    them on through its graph, with the bits of the sum(input * gradient) loss
    it replaces, and frees them there. An input that needs no gradient, and
    one whose leaf gathered none, get nothing."""
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(s) for s in ((5, 3), (5, 4), (4, 3), (5, 3), (5, 3), (3, 3))]

    def run(root):
        q, p, w = (Tensor(v, requires_grad=True) for v in values[:3])
        const, unused = Tensor(values[3]), Tensor(values[4], requires_grad=True)
        inputs = [q, ad.matmul(p, w), const, unused]
        leaves = [Tensor(x.values, requires_grad=x.requires_grad, check=False) for x in inputs]
        chunk = ad.sum_(ad.tanh(ad.add(ad.matmul(leaves[0], values[5]),
                                       ad.mul(leaves[1], leaves[2]))))
        ad.backward(chunk)
        gathered = [None if leaf.grad is None else leaf.grad.copy() for leaf in leaves]
        node_grad = weakref.ref(leaves[1].grad)
        out = root(float(chunk.values), inputs, leaves)
        ad.backward(out)
        assert const.grad is None and unused.grad is None
        return (float(chunk.values), out, gathered, [t.grad.tobytes() for t in (q, p, w)],
                [leaf.grad for leaf in leaves], node_grad)

    value, out, gathered, grads, left, node_grad = run(ad.relay)
    assert out.shape == () and float(out.values) == value
    assert gathered[2] is None and gathered[3] is None
    assert left == [None] * 4 and node_grad() is None  # given up to the relay, then freed
    assert grads[0] == gathered[0].tobytes()
    assert grads[1:] == [(gathered[1] @ values[2].T).tobytes(),
                         (values[1].T @ gathered[1]).tobytes()]
    stand_in = run(lambda total, inputs, leaves: ad.add(*[
        ad.sum_(ad.mul(x, leaf.grad)) for x, leaf in zip(inputs[:2], leaves)]))
    assert stand_in[3] == grads and stand_in[5]() is not None


def test_activation_epilogue_checks_the_pre_activation():
    """tanh(inf) is 1, so the fused node checks the product before its activation."""
    big, huge = Tensor([[1e200]]), Tensor([[1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericFault, match="non-finite values in linear"):
            ad.linear(big, big, Tensor([0.0]), act="tanh")
        with pytest.raises(NumericFault, match="non-finite values in gather_sum"):
            ad.gather_sum(huge, [0], huge, [0], act="tanh")


@given(st.data(), st.integers(1, 5), st.integers(0, 3), st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_propagate_gives_the_bits_of_take_scale_segment_sum(data, n, extra_rows, width, chunk):
    """Repeated and never-hit rows, an empty edge list, signed zeros in alpha,
    z with more rows than n, alpha-gradient chunks shorter than the edge list,
    and the upstream gradient arriving as a non-contiguous concat slice, as
    the 2-head concat merge hands it."""
    z_rows = n + extra_rows
    m = data.draw(st.integers(0, 12))
    src = np.array(data.draw(st.lists(st.integers(0, z_rows - 1), min_size=m, max_size=m)))
    dst = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    floats = st.floats(-4, 4) | st.sampled_from([0.0, -0.0])
    z_values = data.draw(hnp.arrays(np.float64, (z_rows, width), elements=floats))
    alpha_values = data.draw(hnp.arrays(np.float64, m, elements=floats))
    upstream = data.draw(hnp.arrays(np.float64, (n, width + 2), elements=floats))

    def run(op):
        z, alpha = Tensor(z_values, requires_grad=True), Tensor(alpha_values, requires_grad=True)
        out = op(z, alpha)
        merged = ad.concat([out, Tensor(np.ones((n, 2)))], axis=1)
        return out.values.tobytes(), _grads_after(ad.sum_(ad.mul(merged, upstream)), (z, alpha))

    with mock.patch.object(ad, "_CHUNK_ROWS", chunk):
        fused = run(lambda z, alpha: ad.propagate(z, alpha, src, dst, n))
    assert fused == run(lambda z, alpha: ad.segment_sum(
        ad.scale_rows(ad.take_rows(z, src), alpha), dst, n))


def test_fused_ops_reject_mismatched_shapes():
    with pytest.raises(ShapeError, match="gather_sum: incompatible shapes"):
        ad.gather_sum(Tensor(np.ones((4, 2))), [0], Tensor(np.ones((4, 3))), [0])
    with pytest.raises(ShapeError, match="gather_sum: index shapes"):
        ad.gather_sum(Tensor(np.ones((4, 2))), [0, 1], Tensor(np.ones((4, 2))), [0])
    a = Tensor(np.ones((4, 2)))
    # extra rows != len(first), w rows != extra columns, w columns != a columns
    for extra, w in (((3, 1), (1, 2)), ((2, 3), (1, 2)), ((2, 1), (1, 3))):
        with pytest.raises(ShapeError, match="gather_sum: extra"):
            ad.gather_sum(a, [0, 1], a, [1, 0], Tensor(np.ones(extra)), Tensor(np.ones(w)))
    for extra, w in ((Tensor(np.ones((2, 1))), None), (None, Tensor(np.ones((1, 2))))):
        with pytest.raises(ShapeError, match="gather_sum: extra and w must be given together"):
            ad.gather_sum(a, [0, 1], a, [1, 0], extra, w)
    with pytest.raises(ShapeError, match="linear: incompatible shapes"):
        ad.linear(Tensor(np.ones((3, 4))), Tensor(np.ones((5, 2))), Tensor(np.ones(2)))
    with pytest.raises(ShapeError, match="linear: incompatible shapes"):
        ad.linear(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2))), Tensor(np.ones(3)))
    for src, dst, alpha in (([0, 1], [0], 2), ([0], [0, 1], 2), ([0, 1], [0, 1], 3),
                            ([0, 1], [0, 1], (2, 1))):
        with pytest.raises(ShapeError, match="propagate: .* sources"):
            ad.propagate(Tensor(np.ones((3, 2))), Tensor(np.ones(alpha)), src, dst, 3)
    with pytest.raises(ShapeError, match="propagate: z must be 2-d"):
        ad.propagate(Tensor(np.ones(3)), Tensor(np.ones(2)), [0, 1], [0, 1], 3)


def test_tape_gradient_accumulated_once():
    tape = Tape(seed=0)
    w = tape.parameter("w", [3.0])
    y = ad.add(ad.mul(w, w), ad.mul(w, Tensor([2.0])))  # w^2 + 2w, grad 2w+2 = 8
    ad.backward(ad.sum_(y))
    assert w.grad[0] == pytest.approx(8.0)


class TestSegmentSignedSoftmax:
    def test_singleton_segment(self):
        out = ad.segment_signed_softmax(Tensor([2.0]), np.array([0]), 1)
        assert out.values.tolist() == [1.0]

    def test_symmetric_pair(self):
        out = ad.segment_signed_softmax(Tensor([1.0, -1.0]), np.array([0, 0]), 1)
        assert np.allclose(out.values, [0.5, -0.5])

    def test_matches_dense_softmax_oracle(self):
        e = np.array([2.0, -1.0, 0.5])
        out = ad.segment_signed_softmax(Tensor(e), np.zeros(3, dtype=int), 1)
        dense = np.exp(np.abs(e)) / np.exp(np.abs(e)).sum()
        assert np.allclose(out.values, np.sign(e) * dense, atol=1e-12)

    def test_empty_segment_ok(self):
        out = ad.segment_signed_softmax(Tensor([1.0]), np.array([1]), 3)
        assert out.values.tolist() == [1.0]

    def test_segment_sums_give_the_add_at_oracle_bits(self):
        # the np.add.at form of the forward and backward, as a reference
        rng = np.random.default_rng(5)
        e = rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-5, 1, 40)
        segs, coeff = rng.integers(0, 6, 40), rng.standard_normal(40)
        s, m = np.sign(e), np.abs(e)
        seg_max = np.full(6, -np.inf)
        np.maximum.at(seg_max, segs, m)
        shifted = np.exp(m - seg_max[segs])
        p = shifted / scatter_add_oracle(shifted, segs, 6)[segs]
        u = coeff * s * p
        x = Tensor(e, requires_grad=True)
        out = ad.segment_signed_softmax(x, segs, 6)
        ad.backward(ad.sum_(ad.mul(out, Tensor(coeff))))
        assert out.values.tobytes() == (s * p).tobytes()
        assert x.grad.tobytes() == (s * (u - p * scatter_add_oracle(u, segs, 6)[segs])).tobytes()

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        e = Tensor(rng.uniform(0.2, 2.0, 7) * rng.choice([-1.0, 1.0], 7), requires_grad=True)
        segs = np.array([0, 0, 0, 1, 1, 2, 2])
        coeff = rng.standard_normal(7)

        def forward():
            a = ad.segment_signed_softmax(Tensor(e.values), segs, 3)
            return float(ad.sum_(ad.mul(a, Tensor(coeff))).values)

        ad.backward(ad.sum_(ad.mul(ad.segment_signed_softmax(e, segs, 3), Tensor(coeff))))
        ref = fd_grad(forward, e.values)
        assert np.max(np.abs(e.grad - ref)) / max(np.max(np.abs(ref)), 1e-8) < 1e-5

    @given(st.lists(st.floats(min_value=-5, max_value=5).filter(lambda v: abs(v) > 1e-3),
                    min_size=1, max_size=12),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_l1_mass_and_range(self, logits, num_segments):
        rng = np.random.default_rng(len(logits) + num_segments)
        segs = rng.integers(0, num_segments, len(logits))
        out = ad.segment_signed_softmax(Tensor(logits), segs, num_segments).values
        mass = np.zeros(num_segments)
        np.add.at(mass, segs, np.abs(out))
        occupied = np.unique(segs)
        assert np.all(np.abs(mass[occupied] - 1.0) < 1e-10)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=5), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_negating_logits_negates_alpha_exactly(self, mags):
        rng = np.random.default_rng(len(mags))
        e = np.array(mags) * rng.choice([-1.0, 1.0], len(mags))
        segs = np.zeros(len(e), dtype=int)
        a = ad.segment_signed_softmax(Tensor(e), segs, 1).values
        b = ad.segment_signed_softmax(Tensor(-e), segs, 1).values
        assert np.array_equal(a, -b)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.values.tolist() == [1.0, 2.0]

    def test_first_step_direction(self):
        # bias-corrected first moment equals g, so step ~ -lr * sign(g)
        p = Tensor([0.0], requires_grad=True)
        p.grad = np.array([2.0])
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.values[0] == pytest.approx(-0.1, rel=1e-6)

    def test_converges_on_quadratic(self):
        # scalar simulation oracle: 200 steps on x^2 from x=5
        x = Tensor([5.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(200):
            x.grad = None
            ad.backward(ad.sum_(ad.mul(x, x)))
            opt.step()
        assert abs(x.values[0]) < 0.5
