import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wsgat.autodiff as ad
from wsgat.autodiff import Tensor, Tape, Adam
from wsgat.errors import NumericFault, ShapeError


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
    assert ad.leaky_relu(Tensor([-1.0]), 0.2).values[0] == pytest.approx(-0.2)
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


def test_non_finite_gradient_raises_numeric_fault():
    x = Tensor([1.0, 2.0], requires_grad=True)

    def backward(g, out):
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


def test_tape_double_backward_errors():
    tape = Tape(seed=0)
    w = tape.parameter("w", [2.0])
    loss = ad.sum_(ad.mul(w, w))
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)
    tape.reset()
    tape.backward(ad.sum_(ad.mul(w, w)))  # allowed after reset


def test_tape_gradient_accumulated_once():
    tape = Tape(seed=0)
    w = tape.parameter("w", [3.0])
    y = ad.add(ad.mul(w, w), ad.mul(w, Tensor([2.0])))  # w^2 + 2w, grad 2w+2 = 8
    tape.backward(ad.sum_(y))
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
            x.zero_grad()
            ad.backward(ad.sum_(ad.mul(x, x)))
            opt.step()
        assert abs(x.values[0]) < 0.5
