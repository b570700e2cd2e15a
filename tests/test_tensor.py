"""Gradient and contract tests for the autodiff core."""

import numpy as np
import pytest

from sswm import tensor as T
from sswm.tensor import GraphError, ShapeError, Tensor, backward, grad_check, make_rng


def _leaf(rng, shape):
    return Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)


def test_matmul_identity():
    x = np.array([1.5, -0.3, 2.0])
    out = T.matmul(Tensor(np.eye(3)), Tensor(x))
    np.testing.assert_allclose(out.data, x)


def test_softmax_symmetry():
    out = T.softmax(Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, np.full(4, 0.25))


def test_softmax_normalized_and_positive():
    rng = make_rng(7)
    for _ in range(20):
        logits = rng.normal(0, 5, size=(3, 6))
        p = T.softmax(Tensor(logits)).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p > 0).all()


def test_complex_exp_euler_identity():
    out = T.complex_exp(Tensor(np.array([0.0, np.pi])))
    np.testing.assert_allclose(out.data, [-1.0, 0.0], atol=1e-12)


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_logsumexp_symmetry():
    x = Tensor([0.0, 0.0], requires_grad=True)
    backward(T.logsumexp(x))
    np.testing.assert_allclose(x.grad, [0.5, 0.5])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError, match="scalar"):
        backward(T.mul(x, x))


def test_backward_twice_is_error():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    backward(loss)
    with pytest.raises(GraphError, match="consumed"):
        backward(loss)


def test_backward_linearity():
    # backward of a sum of two graphs == sum of separate backwards
    rng = make_rng(3)
    base = rng.normal(size=5)
    x1 = Tensor(base.copy(), requires_grad=True)
    loss = T.tsum(T.mul(x1, T.exp(x1))) + T.tsum(T.tanh(x1))
    backward(loss)

    xa = Tensor(base.copy(), requires_grad=True)
    backward(T.tsum(T.mul(xa, T.exp(xa))))
    xb = Tensor(base.copy(), requires_grad=True)
    backward(T.tsum(T.tanh(xb)))
    np.testing.assert_allclose(x1.grad, xa.grad + xb.grad, rtol=1e-12)


def test_shape_error_names_shapes():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match="add"):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


def test_no_grad_blocks_recording():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.exp(x)
    assert not y.requires_grad


def test_detach_blocks_gradient():
    x = Tensor([2.0], requires_grad=True)
    loss = T.tsum(T.mul(x.detach(), x))
    backward(loss)
    np.testing.assert_allclose(x.grad, [2.0])  # only the live branch


# ---------------------------------------------------------------------------
# finite-difference sweep over every op kind
# ---------------------------------------------------------------------------

OP_CASES = {
    "matmul": lambda a, b: T.tsum(T.tanh(T.matmul(a, T.transpose(b, (1, 0))))),
    "add": lambda a, b: T.tsum(T.mul(T.add(a, b), T.add(a, b))),
    "mul": lambda a, b: T.tsum(T.mul(a, b)),
    "neg": lambda a, b: T.tsum(T.neg(T.mul(a, b))),
    "exp": lambda a, b: T.tsum(T.exp(T.mul(a, b))),
    "log": lambda a, b: T.tsum(T.log(T.add(T.mul(a, a), T.mul(b, b) + 0.5))),
    "tanh": lambda a, b: T.tsum(T.tanh(T.mul(a, b))),
    "gelu": lambda a, b: T.tsum(T.gelu(T.mul(a, b))),
    "softmax": lambda a, b: T.tsum(T.mul(T.softmax(T.mul(a, b)), T.exp(a))),
    "logsumexp": lambda a, b: T.tsum(T.logsumexp(T.mul(a, b))),
    "sum": lambda a, b: T.tsum(T.exp(T.tsum(T.mul(a, b), axis=1) * 0.1)),
    "mean": lambda a, b: T.tsum(T.tmean(T.mul(a, b), axis=0)),
    "concat": lambda a, b: T.tsum(T.mul(T.concat([a, b], axis=1), T.concat([b, a], axis=1))),
    "slice": lambda a, b: T.tsum(T.mul(T.tslice(a, (slice(1, 3), slice(None))), T.tslice(b, (slice(0, 2), slice(None))))),
    "l2_norm": lambda a, b: T.l2_norm(T.add(T.mul(a, b), Tensor(np.full((3, 4), 0.1)))),
    "dot": lambda a, b: T.tsum(T.dot(a, b, axis=-1)),
    "reshape": lambda a, b: T.tsum(T.mul(T.reshape(a, (4, 3)), T.reshape(b, (4, 3)))),
    "transpose": lambda a, b: T.tsum(T.mul(T.transpose(a, (1, 0)), T.transpose(b, (1, 0)))),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    fn_of = OP_CASES[name]
    worst = 0.0
    for seed in range(100):
        rng = make_rng(1000 + seed)
        a = _leaf(rng, (3, 4))
        b = _leaf(rng, (3, 4))
        report = grad_check(lambda: fn_of(a, b), {"a": a, "b": b}, epsilon=1e-5)
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-5, f"{name}: rel err {worst}"


COMPLEX_CASES = {
    "complex_mul": lambda a, b: T.tsum(T.mul(T.real_part(T.complex_mul(a, b)), T.real_part(T.complex_mul(a, b)))),
    "complex_exp": lambda a, b: T.tsum(T.real_part(T.complex_mul(T.complex_exp(a), b))),
    "real_part": lambda a, b: T.tsum(T.mul(T.real_part(a), T.real_part(b))),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_CASES))
def test_complex_op_gradients(name):
    fn_of = COMPLEX_CASES[name]
    worst = 0.0
    for seed in range(100):
        rng = make_rng(2000 + seed)
        a = _leaf(rng, (3, 5, 2))
        b = _leaf(rng, (3, 5, 2))
        report = grad_check(lambda: fn_of(a, b), {"a": a, "b": b}, epsilon=1e-5)
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-5, f"{name}: rel err {worst}"


def test_linear_recurrence_gradients():
    worst = 0.0
    for seed in range(30):
        rng = make_rng(3000 + seed)
        lam = Tensor(rng.uniform(-0.9, 0.9, size=(3, 2)), requires_grad=True)
        drive = Tensor(rng.uniform(-1, 1, size=(2, 5, 3, 2)), requires_grad=True)
        gates = (rng.random((2, 5)) > 0.3).astype(float)
        leaves = {"lam": lam, "drive": drive}
        if seed % 2:  # odd seeds resume from a carried state, itself a leaf
            leaves["x0"] = Tensor(rng.uniform(-1, 1, size=(2, 3, 2)), requires_grad=True)

        def fn():
            x = T.linear_recurrence(lam, drive, gates, leaves.get("x0"))
            return T.tsum(T.mul(x, x))

        report = grad_check(fn, leaves, epsilon=1e-5)
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-5, f"linear_recurrence rel err {worst}"


def test_grad_check_cubic():
    x = Tensor([2.0], requires_grad=True)
    report = grad_check(lambda: T.tsum(T.mul(T.mul(x, x), x)), {"x": x}, epsilon=1e-5)
    assert report.max_rel_err < 1e-6  # analytic 12 vs central FD
    assert report.per_leaf["x"]["max_abs_err"] < 1e-6 * 12 + 1e-6


def test_two_layer_net_gradients():
    # random 2-layer net vs finite differences
    rng = make_rng(42)
    w1 = _leaf(rng, (4, 8))
    w2 = _leaf(rng, (8, 1))
    x = Tensor(rng.normal(size=(5, 4)))

    def fn():
        h = T.tanh(T.matmul(x, w1))
        return T.tsum(T.matmul(h, w2))

    report = grad_check(fn, {"w1": w1, "w2": w2}, epsilon=1e-5)
    assert report.max_rel_err < 1e-6
