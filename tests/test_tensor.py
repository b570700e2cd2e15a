"""Gradient and contract tests for the autodiff core."""

import numpy as np
import pytest

from sswm import tensor as T
from sswm.tensor import GraphError, ShapeError, Tensor, backward, grad_check, make_rng


def _leaf(rng, shape):
    return Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)


def _exp(a):
    """Elementwise exp node, for the composed reference graphs."""
    out = np.exp(a.data)
    return T._make(out, (a,), lambda g: (g * out,))


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
    loss = T.tsum(T.mul(x1, T.softmax(x1))) + T.tsum(T.gelu(x1))
    backward(loss)

    xa = Tensor(base.copy(), requires_grad=True)
    backward(T.tsum(T.mul(xa, T.softmax(xa))))
    xb = Tensor(base.copy(), requires_grad=True)
    backward(T.tsum(T.gelu(xb)))
    np.testing.assert_allclose(x1.grad, xa.grad + xb.grad, rtol=1e-12)


SHAPE_ERRORS = {
    "matmul": lambda: T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2)))),
    "matmul_nd": lambda: T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 2)))),
    "add": lambda: T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,)))),
    "mul": lambda: T.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,)))),
    "linear_recurrence": lambda: T.linear_recurrence(Tensor(np.zeros(4)), Tensor(np.zeros((2, 3))), np.ones((2, 3))),
    "affine": lambda: T.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4))),
    "layer_norm": lambda: T.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(3)), 1e-6),
}


@pytest.mark.parametrize("op", list(SHAPE_ERRORS))
def test_shape_error_names_shapes(op):
    # an "_nd" case raises under the name of the op it exercises
    with pytest.raises(ShapeError, match=rf"^{op.removesuffix('_nd')}: .*\(2, 3"):
        SHAPE_ERRORS[op]()


def test_no_grad_blocks_recording():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.gelu(x)
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
    "matmul": lambda a, b: T.tsum(T.gelu(T.matmul(a, T.reshape(b, (4, 3))))),
    "matmul_nd": lambda a, b: T.tsum(T.gelu(T.matmul(T.reshape(a, (3, 2, 2)), T.reshape(b, (2, 6))))),
    "add": lambda a, b: T.tsum(T.mul(T.add(a, b), T.add(a, b))),
    "mul": lambda a, b: T.tsum(T.mul(a, b)),
    "neg": lambda a, b: T.tsum(T.neg(T.mul(a, b))),
    "log": lambda a, b: T.tsum(T.log(T.add(T.mul(a, a), T.mul(b, b) + 0.5))),
    "gelu": lambda a, b: T.tsum(T.gelu(T.mul(a, b))),
    "softmax": lambda a, b: T.tsum(T.mul(T.softmax(T.mul(a, b)), a)),
    "logsumexp": lambda a, b: T.tsum(T.logsumexp(T.mul(a, b))),
    "sum": lambda a, b: T.tsum(T.gelu(T.tsum(T.mul(a, b), axis=1) * 0.1)),
    "mean": lambda a, b: T.tsum(T.tmean(T.mul(a, b), axis=0)),
    "concat": lambda a, b: T.tsum(T.mul(T.concat([a, b], axis=1), T.concat([b, a], axis=1))),
    "slice": lambda a, b: T.tsum(T.mul(T.tslice(a, (slice(1, 3), slice(None))), T.tslice(b, (slice(0, 2), slice(None))))),
    "affine": lambda a, b: T.tsum(T.gelu(T.affine(a, T.reshape(b, (4, 3)), T.tslice(a, (1, slice(0, 3)))))),
    "layer_norm": lambda a, b: T.tsum(
        T.mul(T.layer_norm(a, T.tslice(b, (0, slice(None))), T.tslice(b, (1, slice(None))), 1e-6), b)
    ),
    "l2_norm": lambda a, b: T.l2_norm(T.add(T.mul(a, b), Tensor(np.full((3, 4), 0.1)))),
    "reshape": lambda a, b: T.tsum(T.mul(T.reshape(a, (4, 3)), T.reshape(b, (4, 3)))),
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


def test_linear_recurrence_gradients():
    worst = 0.0
    for seed in range(30):
        rng = make_rng(3000 + seed)
        lam = Tensor(rng.uniform(-0.9, 0.9, size=6), requires_grad=True)  # packed [Re | Im]
        drive = Tensor(rng.uniform(-1, 1, size=(2, 5, 6)), requires_grad=True)  # packed [Re | Im]
        gates = (rng.random((2, 5)) > 0.3).astype(float)
        leaves = {"lam": lam, "drive": drive}
        if seed % 2:  # odd seeds resume from a carried state, itself a leaf
            leaves["x0"] = Tensor(rng.uniform(-1, 1, size=(2, 6)), requires_grad=True)

        def fn():
            x = T.linear_recurrence(lam, drive, gates, leaves.get("x0"))
            return T.tsum(T.mul(x, x))

        report = grad_check(fn, leaves, epsilon=1e-5)
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-5, f"linear_recurrence rel err {worst}"


# ---------------------------------------------------------------------------
# fused nodes against the composed graphs they replace
# ---------------------------------------------------------------------------


def _affine_reference(x, w, b):
    return T.add(T.matmul(x, w), b)


def _layer_norm_reference(x, scale, shift, eps):
    """The composed 12-node LayerNorm graph: 1/sqrt(var + eps) as exp(-0.5 * log(.))."""
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = T.add(x, T.neg(mu))
    var = T.tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = _exp(T.mul(Tensor(-0.5), T.log(T.add(var, Tensor(eps)))))
    return T.add(T.mul(T.mul(centered, inv), scale), shift)


def _value_and_grads(fn, leaves, weight):
    for leaf in leaves:
        leaf.zero_grad()
    out = fn(*leaves)
    backward(T.tsum(T.mul(out, Tensor(weight))))
    return out.data, [leaf.grad for leaf in leaves]


def test_affine_matches_composed_reference():
    for seed in range(20):
        rng = make_rng(4000 + seed)
        n, n_in, n_out = 1 + seed % 6, 3 + seed % 4, 2 + seed % 5
        # odd seeds feed a constant input, whose gradient the fused node skips
        x = Tensor(rng.uniform(-2.0, 2.0, size=(n, n_in)), requires_grad=seed % 2 == 0)
        leaves = [x, _leaf(rng, (n_in, n_out)), _leaf(rng, (n_out,))]
        weight = rng.normal(size=(n, n_out))
        out, grads = _value_and_grads(T.affine, leaves, weight)
        ref_out, ref_grads = _value_and_grads(_affine_reference, leaves, weight)
        np.testing.assert_array_equal(out, ref_out)
        assert (grads[0] is None) == (ref_grads[0] is None) == (seed % 2 == 1)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_array_equal(g, ref)


def test_layer_norm_matches_composed_reference():
    # Widths from 3: at width 2 every normalized row is (-1, 1) up to eps, so
    # the x gradient is a cancellation of terms some 1e8 times larger, and
    # both graphs carry their roundoff there (1e-10 of it, either way).
    fused = lambda x, s, b: T.layer_norm(x, s, b, 1e-6)  # noqa: E731
    reference = lambda x, s, b: _layer_norm_reference(x, s, b, 1e-6)  # noqa: E731
    for seed in range(20):
        rng = make_rng(5000 + seed)
        n, width = 1 + seed % 6, 3 + seed % 7
        x = Tensor(rng.normal(rng.uniform(-3, 3), rng.uniform(0.01, 3), size=(n, width)), requires_grad=True)
        leaves = [x, _leaf(rng, (width,)), _leaf(rng, (width,))]
        weight = rng.normal(size=(n, width))
        out, grads = _value_and_grads(fused, leaves, weight)
        ref_out, ref_grads = _value_and_grads(reference, leaves, weight)
        np.testing.assert_array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_grad_check_cubic():
    x = Tensor([2.0], requires_grad=True)
    report = grad_check(lambda: T.tsum(T.mul(T.mul(x, x), x)), {"x": x}, epsilon=1e-5)
    assert report.max_rel_err < 1e-6  # analytic 12 vs central FD
    assert report.per_leaf["x"]["max_abs_err"] < 1e-6 * 12 + 1e-6


def test_grad_check_perturbs_non_contiguous_leaves():
    # a Fortran-ordered leaf is perturbed in place, not through a copy
    data = make_rng(43).normal(size=(3, 4))
    for order in ("C", "F"):
        x = Tensor(np.asarray(data, order=order), requires_grad=True)
        report = grad_check(lambda: T.tsum(T.mul(x, x)), {"x": x}, epsilon=1e-5)
        assert report.max_rel_err < 1e-8, order
        np.testing.assert_array_equal(x.data, data)


def test_two_layer_net_gradients():
    # random 2-layer net vs finite differences
    rng = make_rng(42)
    w1 = _leaf(rng, (4, 8))
    w2 = _leaf(rng, (8, 1))
    x = Tensor(rng.normal(size=(5, 4)))

    def fn():
        h = T.gelu(T.matmul(x, w1))
        return T.tsum(T.matmul(h, w2))

    report = grad_check(fn, {"w1": w1, "w2": w2}, epsilon=1e-5)
    assert report.max_rel_err < 1e-6
