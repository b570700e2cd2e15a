"""Gradient and contract tests for the autodiff core."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erf

from oracles import grad_check
from sswm import dists
from sswm import tensor as T
from sswm.tensor import GraphError, ShapeError, Tensor, make_rng


def _leaf(rng, shape):
    return Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)


def _exp(a):
    """Elementwise exp node, for the composed reference graphs."""
    out = np.exp(a.data)
    return T._make(out, (a,), lambda g: (g * out,))


def _row_mean(a):
    """Trailing-axis mean node kept as width 1, for the composed reference graphs: a row sum and a division."""
    k = a.shape[-1]
    return T._make(T._row_sum(a.data) / k, (a,), lambda g: (np.broadcast_to(g / k, a.shape).copy(),))


def test_matmul_identity():
    x = np.array([[1.5, -0.3, 2.0]])
    out = T.matmul(Tensor(x), Tensor(np.eye(3)))
    np.testing.assert_allclose(out.data, x)


def test_softmax_symmetry():
    out = T.softmax(Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, np.full(4, 0.25))


ROW_SHAPES = [(1, 4), (1, 8, 8), (128, 1, 4), (1024, 8), (128, 32), (8, 16, 8, 8)]


def _row_inputs():
    """Normal draws at every row shape, plus a transposed view and a column slice (neither contiguous)."""
    rng = make_rng(12)
    xs = [rng.normal(0.0, 5.0, size=shape) for shape in ROW_SHAPES]
    wide = rng.normal(0.0, 5.0, size=(40, 24))
    return xs + [wide.T, wide[:, 3:19]]


def test_row_sum_and_max_match_numpy_reductions():
    for x in _row_inputs():
        got = T._row_sum(x)
        assert got.shape == x.shape[:-1] + (1,)
        # a product sums in BLAS order: within 4 ulp of the row's absolute sum
        assert (np.abs(got[..., 0] - x.sum(axis=-1)) <= 4 * np.spacing(np.abs(x).sum(axis=-1))).all()
        # softmax shifts each row by its max, taken on the class-major copy: exactly numpy's
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(T._softmax(x), e / T._row_sum(e))


def test_trailing_tsum_and_tmean_take_the_row_sum():
    for x in _row_inputs():
        np.testing.assert_array_equal(T.tsum(Tensor(x)).data, T._row_sum(x)[..., 0])


def test_softmax_normalized_and_positive():
    rng = make_rng(7)
    for logits in [rng.normal(0, 5, size=(3, 6)) for _ in range(20)] + _row_inputs():
        p = T.softmax(Tensor(logits)).data
        sums = np.array([math.fsum(row) for row in p.reshape(-1, p.shape[-1])])
        assert np.abs(sums - 1.0).max() <= 1e-15
        assert (p > 0).all()


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError, match="scalar"):
        T.mul(x, x).backward()


def test_backward_twice_is_error():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    loss.backward()
    with pytest.raises(GraphError, match="consumed"):
        loss.backward()


def test_backward_on_a_constant_is_error():
    with pytest.raises(GraphError, match="does not require grad"):
        T.tsum(Tensor([1.0, 2.0])).backward()


def test_backward_linearity():
    # backward of a sum of two graphs == sum of separate backwards
    rng = make_rng(3)
    base = rng.normal(size=5)
    x1 = Tensor(base.copy(), requires_grad=True)
    loss = T.add(T.tsum(T.mul(x1, T.softmax(x1))), T.tsum(T.gelu(x1)))
    loss.backward()

    xa = Tensor(base.copy(), requires_grad=True)
    T.tsum(T.mul(xa, T.softmax(xa))).backward()
    xb = Tensor(base.copy(), requires_grad=True)
    T.tsum(T.gelu(xb)).backward()
    np.testing.assert_allclose(x1.grad, xa.grad + xb.grad, rtol=1e-12)


SHAPE_ERRORS = {
    "matmul": lambda: T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2)))),
    "matmul_nd": lambda: T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 2)))),
    "matmul_rank": lambda: T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3))),
    "add": lambda: T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,)))),
    "mul": lambda: T.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,)))),
    "linear_recurrence": lambda: T.linear_recurrence(Tensor(np.zeros(4)), Tensor(np.zeros((2, 3))), np.ones((2, 3)), np.zeros((2, 4))),
    "linear_recurrence_lam": lambda: T.linear_recurrence(
        Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3, 4))), np.ones((2, 3)), np.zeros((2, 4))
    ),
    "linear_recurrence_gates": lambda: T.linear_recurrence(
        Tensor(np.zeros(4)), Tensor(np.zeros((2, 3, 4))), np.ones((2, 4)), np.zeros((2, 4))
    ),
    "linear_recurrence_x0": lambda: T.linear_recurrence(
        Tensor(np.zeros(4)), Tensor(np.zeros((2, 3, 4))), np.ones((2, 3)), np.zeros((2, 3))
    ),
    "affine": lambda: T.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4))),
    "layer_norm": lambda: T.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(3)), 1e-6),
}


@pytest.mark.parametrize("op", list(SHAPE_ERRORS))
def test_shape_error_names_shapes(op):
    # a suffixed case ("_nd", "_rank", ...) raises under the name of the op it exercises
    name = op if op in T.__all__ else op.rsplit("_", 1)[0]
    with pytest.raises(ShapeError, match=rf"^{name}: .*\(2, 3"):
        SHAPE_ERRORS[op]()


def test_no_grad_blocks_recording():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.gelu(x)
    assert not y.requires_grad


def test_detach_blocks_gradient():
    x = Tensor([2.0], requires_grad=True)
    loss = T.tsum(T.mul(x.detach(), x))
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0])  # only the live branch


@pytest.mark.parametrize("op", [T.add, T.mul])
def test_vjp_computes_no_gradient_for_a_constant_operand(op):
    x = Tensor([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
    c = Tensor([4.0, -1.5])
    g = np.array([[0.25, 2.0], [-1.0, 3.0]])
    gx, gc = op(x, c)._vjp(g)
    assert gc is None
    np.testing.assert_array_equal(gx, g * c.data if op is T.mul else g)
    gc, gx = op(c, x)._vjp(g)
    assert gc is None
    np.testing.assert_array_equal(gx, g * c.data if op is T.mul else g)


# ---------------------------------------------------------------------------
# gelu: the tanh form
# ---------------------------------------------------------------------------


def _gelu_tanh_scalar(v: float) -> float:
    return 0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)))


def test_gelu_matches_scalar_tanh_reference():
    # Relative to x: gelu(x) = x * p with p in [0, 1]. Where p is near 0 (x
    # below about -2), one ulp of tanh is a large share of gelu(x) itself.
    x = np.concatenate([np.linspace(-12.0, 12.0, 4801), make_rng(8).normal(0.0, 3.0, size=2000)])
    got = T.gelu(Tensor(x)).data
    ref = np.array([_gelu_tanh_scalar(v) for v in x])
    assert (np.abs(got - ref) <= 1e-15 * np.abs(x)).all()
    assert T.gelu(Tensor(1.5)).data == pytest.approx(_gelu_tanh_scalar(1.5), rel=1e-15)


def test_gelu_stays_near_the_erf_form():
    x = np.linspace(-12.0, 12.0, 24001)
    exact = 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))
    assert np.abs(T.gelu(Tensor(x)).data - exact).max() <= 4.8e-4


def test_gelu_gradient_matches_finite_differences():
    # gelu is elementwise, so one central difference per coordinate probes
    # that coordinate's derivative without the roundoff of a summed loss
    x = np.linspace(-8.0, 8.0, 321)
    leaf = Tensor(x, requires_grad=True)
    T.tsum(T.gelu(leaf)).backward()
    eps = 1e-6
    fd = (T.gelu(Tensor(x + eps)).data - T.gelu(Tensor(x - eps)).data) / (2.0 * eps)
    np.testing.assert_allclose(leaf.grad, fd, rtol=0.0, atol=1e-8)


def test_gelu_is_finite_and_silent_on_every_finite_input():
    big = np.array([1e300, 1e6, 30.0])
    tiny = np.array([0.0, 5e-324, -5e-324])
    x = Tensor(np.concatenate([big, -big, tiny]), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = T.gelu(x)
        T.tsum(y).backward()
    n = len(big)
    np.testing.assert_array_equal(y.data[:n], big)  # gelu(x) = x ...
    np.testing.assert_array_equal(x.grad[:n], 1.0)  # ... with gradient 1
    np.testing.assert_array_equal(y.data[n : 2 * n], 0.0)
    np.testing.assert_array_equal(x.grad[n : 2 * n], 0.0)
    assert (np.abs(y.data[2 * n :]) <= np.abs(tiny)).all()
    np.testing.assert_array_equal(x.grad[2 * n :], 0.5)


# ---------------------------------------------------------------------------
# finite-difference sweep over every op kind
# ---------------------------------------------------------------------------

BERNOULLI_TARGET = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.3, 1.0], [0.0, 0.0, 1.0, 0.7]])

OP_CASES = {
    "matmul": lambda a, b: T.tmean(T.gelu(T.matmul(a, T.reshape(b, (4, 3))))),
    "matmul_nd": lambda a, b: T.tmean(T.gelu(T.matmul(T.reshape(a, (3, 2, 2)), T.reshape(b, (2, 6))))),
    "add": lambda a, b: T.tmean(T.mul(T.add(a, b), T.add(a, b))),
    "mul": lambda a, b: T.tmean(T.mul(a, b)),
    "neg": lambda a, b: T.tmean(T.neg(T.mul(a, b))),
    "log": lambda a, b: T.tmean(T.log(T.add(T.mul(a, a), T.add(T.mul(b, b), Tensor(0.5))))),
    "gelu": lambda a, b: T.tmean(T.gelu(T.mul(a, b))),
    "softmax": lambda a, b: T.tmean(T.mul(T.softmax(T.mul(a, b)), a)),
    "sum": lambda a, b: T.tmean(T.gelu(T.mul(T.tsum(T.mul(a, b)), Tensor(0.1)))),
    "mean": lambda a, b: T.tmean(T.mul(T.mul(a, b), a)),
    "concat": lambda a, b: T.tmean(T.mul(T.concat([a, b], axis=1), T.concat([b, a], axis=1))),
    "slice": lambda a, b: T.tmean(T.mul(T.tslice(a, (slice(1, 3), slice(None))), T.tslice(b, (slice(0, 2), slice(None))))),
    "affine": lambda a, b: T.tmean(T.gelu(T.affine(a, T.reshape(b, (4, 3)), T.tslice(a, (1, slice(0, 3)))))),
    "layer_norm": lambda a, b: T.tmean(
        T.mul(T.layer_norm(a, T.tslice(b, (0, slice(None))), T.tslice(b, (1, slice(None))), 1e-6), b)
    ),
    "l2_norm": lambda a, b: T.tsum(T.mul(T.l2_norm(T.add(T.mul(a, b), Tensor(0.1))), Tensor([1.0, -2.0, 0.5]))),
    "bernoulli_nll": lambda a, b: T.tmean(dists.bernoulli_nll(T.mul(a, b), BERNOULLI_TARGET)),
    "reshape": lambda a, b: T.tmean(T.mul(T.reshape(a, (4, 3)), T.reshape(b, (4, 3)))),
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


def test_l2_norm_zero_row_has_subgradient_zero():
    # at an all-zero row both central differences are |eps|, so the
    # derivative there is 0, and the VJP must give 0 rather than 0/0
    x = Tensor(make_rng(11).normal(size=(3, 4)), requires_grad=True)
    x.data[1] = 0.0
    report = grad_check(lambda: T.tsum(T.l2_norm(x)), {"x": x}, epsilon=1e-5)
    assert report.max_rel_err < 1e-6
    np.testing.assert_array_equal(x.grad[1], 0.0)


def test_linear_recurrence_gradients():
    worst = 0.0
    for seed in range(30):
        rng = make_rng(3000 + seed)
        lam = Tensor(rng.uniform(-0.9, 0.9, size=6), requires_grad=True)  # (Re, Im) pairs
        drive = Tensor(rng.uniform(-1, 1, size=(2, 5, 6)), requires_grad=True)  # (Re, Im) pairs
        gates = (rng.random((2, 5)) > 0.3).astype(float)
        x0 = np.zeros((2, 6))  # even seeds start from the zero start state
        if seed % 2:  # odd seeds resume from a carried state, a constant
            x0 = rng.uniform(-1, 1, size=(2, 6))

        def fn():
            x = T.linear_recurrence(lam, drive, gates, x0)
            return T.tmean(T.mul(x, x))

        report = grad_check(fn, {"lam": lam, "drive": drive}, epsilon=1e-5)
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-5, f"linear_recurrence rel err {worst}"


def _recurrence_reference(lam, drive, gates, x0, g):
    """States and (lam, drive) adjoints of the gated recurrence, one step at a time, all on complex values.

    The adjoint accumulates lam's gradient inside the loop, step by step.
    """
    lamc, dc, w, x = lam.view(complex), drive.view(complex), g.view(complex), x0.view(complex)
    B, T, P = dc.shape
    gt = gates[..., None]
    xs = np.empty((B, T, P), dtype=complex)
    for t in range(T):
        x = gt[:, t] * (lamc * x) + dc[:, t]
        xs[:, t] = x
    gd = np.empty_like(xs)
    glam = np.zeros(P, dtype=complex)
    acc = np.zeros((B, P), dtype=complex)
    for t in range(T - 1, -1, -1):
        acc = w[:, t] + acc
        gd[:, t] = acc
        x_prev = xs[:, t - 1] if t > 0 else x0.view(complex)
        glam += (gt[:, t] * np.conj(x_prev) * acc).sum(axis=0)
        acc = gt[:, t] * np.conj(lamc) * acc
    return (a.view(np.float64) for a in (xs, glam, gd))


def test_linear_recurrence_matches_per_step_reference():
    # B=3, T=16: row 0 resets at t=0 (x0 dropped), row 1 mid-window, row 2 at both
    rng = make_rng(41)
    p = 4
    lam = Tensor((0.95 * np.exp(1j * rng.uniform(-np.pi, np.pi, size=p))).view(np.float64), requires_grad=True)
    drive = Tensor(rng.normal(size=(3, 16, 2 * p)), requires_grad=True)
    x0 = rng.normal(size=(3, 2 * p))
    gates = np.ones((3, 16))
    gates[0, 0] = gates[1, 7] = gates[2, 0] = gates[2, 11] = 0.0
    g = rng.normal(size=(3, 16, 2 * p))
    x = T.linear_recurrence(lam, drive, gates, x0)
    T.tsum(T.reshape(T.mul(x, Tensor(g)), (-1,))).backward()  # the VJP of x at g

    xs, glam, gdrive = _recurrence_reference(lam.data, drive.data, gates, x0, g)
    np.testing.assert_array_equal(x.data, xs)
    for name, got, want in (("lam", lam.grad, glam), ("drive", drive.grad, gdrive)):
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel < 1e-13, f"{name} adjoint rel err {rel}"


def test_complex_layout_converts_by_views():
    # interleaved (Re, Im) pairs are numpy's complex128 memory: a contiguous
    # array converts both ways without a copy; a non-contiguous one is copied
    z = make_rng(40).normal(size=(3, 4, 2)) @ np.array([1.0, 1j])
    x = T._real(z)
    np.testing.assert_array_equal(x[..., 0::2], z.real)
    np.testing.assert_array_equal(x[..., 1::2], z.imag)
    assert np.shares_memory(T._complex(x), z)
    np.testing.assert_array_equal(T._complex(x), z)
    np.testing.assert_array_equal(T._complex(np.asfortranarray(x)), z)


# ---------------------------------------------------------------------------
# fused nodes against the composed graphs they replace
# ---------------------------------------------------------------------------


def _affine_reference(x, w, b):
    return T.add(T.matmul(x, w), b)


def _layer_norm_reference(x, scale, shift, eps):
    """The composed 12-node LayerNorm graph: 1/sqrt(var + eps) as exp(-0.5 * log(.))."""
    mu = _row_mean(x)
    centered = T.add(x, T.neg(mu))
    var = _row_mean(T.mul(centered, centered))
    inv = _exp(T.mul(Tensor(-0.5), T.log(T.add(var, Tensor(eps)))))
    return T.add(T.mul(T.mul(centered, inv), scale), shift)


def _value_and_grads(fn, leaves, weight):
    for leaf in leaves:
        leaf.grad = None
    out = fn(*leaves)
    T.tmean(T.mul(out, Tensor(weight))).backward()
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
        report = grad_check(lambda: T.tmean(T.mul(x, x)), {"x": x}, epsilon=1e-5)
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
        return T.tmean(T.matmul(h, w2))

    report = grad_check(fn, {"w1": w1, "w2": w2}, epsilon=1e-5)
    assert report.max_rel_err < 1e-6
