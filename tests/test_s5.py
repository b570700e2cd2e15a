"""S5 layer tests: initialization spectrum, discretization, scan equivalences."""

import numpy as np
import pytest

from sswm import s5
from sswm import tensor as T
from sswm.tensor import Tensor, backward, grad_check, make_rng, tsum, mul


def dense_normal_hippo_oracle(n: int) -> np.ndarray:
    """Independent dense construction: -LegS lower-triangular + rank-1 symmetrization."""
    mat = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            if i > k:
                mat[i, k] = -np.sqrt(2 * i + 1) * np.sqrt(2 * k + 1)
            elif i == k:
                mat[i, k] = -(i + 1)
    for i in range(n):
        for k in range(n):
            mat[i, k] += np.sqrt(i + 0.5) * np.sqrt(k + 0.5)
    return mat


def fresh_params(seed=0, p=4, j=1, h=3):
    return s5.hippo_n_init(p, j, h, make_rng(seed))


def unpack(x: np.ndarray) -> np.ndarray:
    """Complex values of a packed (..., 2P) [Re x | Im x] array."""
    p = x.shape[-1] // 2
    return x[..., :p] + 1j * x[..., p:]


def no_resets(t_len: int) -> np.ndarray:
    return np.zeros((1, t_len), dtype=bool)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,j", [(4, 1), (8, 2), (8, 4), (16, 4)])
def test_hippo_real_parts_match_dense_oracle(p, j):
    params = fresh_params(p=p, j=j)
    lam = params.lam_value()
    oracle = np.linalg.eigvals(dense_normal_hippo_oracle(p // j))
    assert np.abs(lam.real + 0.5).max() < 1e-9
    assert np.abs(oracle.real + 0.5).max() < 1e-9
    # eigenvalue multiset of one block matches the dense eigendecomposition
    got = lam.reshape(j, p // j)[0]
    np.testing.assert_allclose(
        np.sort(got.imag), np.sort(oracle.imag), atol=1e-9
    )


def test_hippo_imag_parts_strictly_increasing():
    params = fresh_params(p=4, j=1)
    im = params.lam_value().imag
    assert (np.diff(np.sort(im)) > 0).all()
    # eigh already returns them sorted
    np.testing.assert_array_equal(im, np.sort(im))


def test_hippo_block_structure_repeats_spectrum():
    # J block copies: P/J distinct eigenvalues, each repeated J times.
    params = s5.hippo_n_init(8, 2, 3, make_rng(1))
    lam = np.round(params.lam_value(), 9)
    uniq, counts = np.unique(lam, return_counts=True)
    assert len(uniq) == 4
    assert (counts == 2).all()


def test_hippo_rejects_indivisible_blocks():
    with pytest.raises(s5.ConfigError, match="divisible"):
        s5.hippo_n_init(6, 4, 3, make_rng(0))


def test_log_delta_range():
    params = fresh_params(p=16, j=4, h=8)
    delta = np.exp(params.log_delta.data)
    assert (delta > 0).all() and (delta <= 0.1 + 1e-12).all()


def test_packed_maps_hold_the_init_draws():
    # B = V^H G_b and C = G_c V per block, drawn in the order b, c, b, c;
    # b_mat packs B^T and c_mat is C-contiguous with x @ c_mat = Re(C x)
    p, j, h = 8, 2, 5
    params = s5.hippo_n_init(p, j, h, make_rng(3))
    rng, n = make_rng(3), p // j
    _, v = s5.normal_hippo_eigen(n)
    b_blocks, c_blocks = [], []
    for _ in range(j):
        b_blocks.append(v.conj().T @ rng.normal(0.0, 1.0 / np.sqrt(h), size=(n, h)))
        c_blocks.append(rng.normal(0.0, 1.0 / np.sqrt(p), size=(h, n)) @ v)
    b, c = np.concatenate(b_blocks, axis=0), np.concatenate(c_blocks, axis=1)  # (P, H), (H, P)
    assert params.b_mat.data.flags.c_contiguous and params.c_mat.data.flags.c_contiguous
    np.testing.assert_array_equal(unpack(params.b_mat.data), b.T)
    x = make_rng(4).normal(size=(4, 2 * p))
    np.testing.assert_allclose(x @ params.c_mat.data, (unpack(x) @ c.T).real, atol=1e-14)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_discretize_taylor_limit():
    params = fresh_params()
    params.log_delta.data[:] = np.log(1e-8)
    lam_bar, b_real = s5.discretize(params)
    lam = params.lam_value()
    np.testing.assert_allclose(unpack(lam_bar.data), 1.0 + 1e-8 * lam, rtol=1e-4)
    np.testing.assert_allclose(unpack(b_real.data), 1e-8 * unpack(params.b_mat.data), rtol=1e-4)


def test_discretize_half_life():
    # lam = -1, delta = ln 2 -> decay exactly 0.5
    params = fresh_params()
    params.log_neg_re.data[:] = 0.0
    params.im.data[:] = 0.0
    params.log_delta.data[:] = np.log(np.log(2.0))
    lam_bar, _ = s5.discretize(params)
    np.testing.assert_allclose(lam_bar.data[:4], 0.5, atol=1e-12)
    np.testing.assert_allclose(lam_bar.data[4:], 0.0, atol=1e-12)


def test_discretize_euler_identity():
    # lam = i*pi (up to a real part of -exp(-200)), delta = 1: lam_bar = -1
    params = fresh_params()
    params.log_neg_re.data[:] = -200.0
    params.im.data[:] = np.pi
    params.log_delta.data[:] = 0.0
    lam_bar, _ = s5.discretize(params)
    np.testing.assert_allclose(unpack(lam_bar.data), -1.0, atol=1e-12)


def test_discretize_contraction():
    for seed in range(10):
        params = fresh_params(seed=seed, p=8, j=2)
        lam_bar, _ = s5.discretize(params)
        assert (np.abs(unpack(lam_bar.data)) < 1.0).all()


def test_discretize_zero_eigenvalue_error():
    params = fresh_params()
    params.log_neg_re.data[:] = -200.0  # re -> -exp(-200) ~ 0
    params.im.data[:] = 0.0
    with pytest.raises(s5.DiscretizationError):
        s5.discretize(params)


def zoh_params(seed: int) -> s5.S5Params:
    """Varied sizes and decay rates; odd seeds take delta near the 1e-8 Taylor limit."""
    rng = make_rng(6000 + seed)
    p, h = 2 * (1 + seed % 4), 1 + seed % 5
    params = s5.hippo_n_init(p, 1 + seed % 2, h, rng)
    params.log_neg_re.data[:] = rng.uniform(-2.0, 1.0, size=p)
    if seed % 2:
        params.log_delta.data[:] = np.log(1e-8) + rng.uniform(0.0, 1.0, size=p)
    return params


def test_zoh_gradients_match_finite_differences():
    # Near delta = 1e-8 every gradient is about 1e-8. The loss takes
    # lam_bar - 1, so that an O(1) sum does not round that variation away;
    # what remains is exp's own rounding of lam_bar (1e-16), which a step of
    # 1e-4 keeps under 2e-6 relative.
    worst = 0.0
    for seed in range(20):
        params = zoh_params(seed)
        p = params.state_dim
        rng = make_rng(7000 + seed)
        one = Tensor(np.concatenate([np.ones(p), np.zeros(p)]))
        w_lam = Tensor(rng.normal(size=2 * p))
        w_b = Tensor(rng.normal(size=params.b_mat.shape))

        def fn():
            lam_bar, b_real = s5.discretize(params)
            return tsum(mul(lam_bar - one, w_lam)) + tsum(mul(b_real, w_b))

        leaves = {k: getattr(params, k) for k in ("log_neg_re", "im", "log_delta", "b_mat")}
        worst = max(worst, grad_check(fn, leaves, epsilon=1e-4).max_rel_err)
    assert worst < 1e-5, f"ZOH rel err {worst}"


# The composed zero-order hold that the two ZOH nodes replace: (re, im) pairs
# in a trailing axis of size 2, through generic complex product and exponential.


def _cview(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.complex128)[..., 0]


def _pair(z: np.ndarray) -> np.ndarray:
    return np.stack([z.real, z.imag], axis=-1)


def _complex_mul(a: Tensor, b: Tensor) -> Tensor:
    za, zb = _cview(a.data), _cview(b.data)

    def vjp(g):
        zg = _cview(g)
        return T._unbroadcast(_pair(np.conj(zb) * zg), a.shape), T._unbroadcast(_pair(np.conj(za) * zg), b.shape)

    return T._make(_pair(za * zb), (a, b), vjp)


def _exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return T._make(out, (a,), lambda g: (g * out,))


def _complex_exp(a: Tensor) -> Tensor:
    w = np.exp(_cview(a.data))
    return T._make(_pair(w), (a,), lambda g: (_pair(np.conj(w) * _cview(g)),))


def zoh_pair_reference(params: s5.S5Params, b_pair: Tensor) -> tuple[Tensor, Tensor]:
    """lam_bar (P, 2) and b_bar (P, H, 2) from b_pair, B as (P, H, 2) pairs."""
    p = params.state_dim
    lam = T.concat([T.reshape(T.neg(_exp(params.log_neg_re)), (p, 1)), T.reshape(params.im, (p, 1))], axis=1)
    delta = T.reshape(_exp(params.log_delta), (p, 1))
    lam_bar = _complex_exp(mul(lam, delta))
    num = T.add(lam_bar, Tensor(np.tile([-1.0, 0.0], (p, 1))))
    conj_lam = mul(lam, Tensor(np.tile([1.0, -1.0], (p, 1))))
    inv_abs2 = _exp(T.neg(T.log(tsum(mul(lam, lam), axis=-1, keepdims=True))))
    coef = _complex_mul(num, mul(conj_lam, inv_abs2))
    return lam_bar, _complex_mul(T.reshape(coef, (p, 1, 2)), b_pair)


def test_zoh_matches_composed_pair_reference():
    for seed in range(20):
        params = zoh_params(seed)
        rng = make_rng(8000 + seed)
        w_lam = rng.normal(size=params.log_delta.shape[0] * 2)
        w_b = rng.normal(size=params.b_mat.shape)
        rate = [params.log_neg_re, params.im, params.log_delta]
        b_pair = Tensor(_pair(unpack(params.b_mat.data).T), requires_grad=True)

        lam_bar, b_real = s5.discretize(params)
        backward(tsum(mul(lam_bar, Tensor(w_lam))) + tsum(mul(b_real, Tensor(w_b))))
        grads = [leaf.grad for leaf in rate] + [params.b_mat.grad]
        for leaf in rate:
            leaf.zero_grad()

        ref_lam_bar, b_bar = zoh_pair_reference(params, b_pair)
        w_lam_pair, w_b_pair = _pair(unpack(w_lam)), _pair(unpack(w_b).T)
        backward(tsum(mul(ref_lam_bar, Tensor(w_lam_pair))) + tsum(mul(b_bar, Tensor(w_b_pair))))
        ref_grads = [leaf.grad for leaf in rate] + [T._pack(_cview(b_pair.grad).T)]

        np.testing.assert_allclose(lam_bar.data, T._pack(_cview(ref_lam_bar.data)), rtol=0, atol=1e-15)
        np.testing.assert_allclose(b_real.data, T._pack(_cview(b_bar.data).T), rtol=0, atol=1e-15)
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_block_maps_tensor_count(monkeypatch):
    # lam_bar and b_real are one node each; c_real is the parameter c_mat
    params = s5.hippo_n_init(16, 2, 32, make_rng(0))
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    _, _, c_real = s5.block_maps(params)
    assert len(built) <= 2
    assert c_real is params.c_mat


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def conv_oracle(params, u, resets=None):
    """Naive O(T^2) convolution: x_t = sum_j lam^(t-j) * (B u_j), no resets."""
    lam_bar, b_real = s5.discretize(params)
    lam = unpack(lam_bar.data)
    bmat = unpack(b_real.data).T  # b_bar, (P, H)
    t_len = u.shape[0]
    x = np.zeros((t_len, params.state_dim), dtype=complex)
    for t in range(t_len):
        for j_ in range(t + 1):
            x[t] += lam ** (t - j_) * (bmat @ u[j_])
    return x


def test_sequential_matches_convolution_oracle():
    rng = make_rng(11)
    params = fresh_params(seed=2, p=4, j=2, h=3)
    u = rng.normal(size=(32, 3))
    x, _ = s5.scan_sequential(params, Tensor(u[None]), no_resets(32))
    assert x.shape == (1, 32, 8)
    got = unpack(x.data[0])
    np.testing.assert_allclose(got, conv_oracle(params, u), atol=1e-10)


def test_scan_all_resets_has_no_history():
    rng = make_rng(12)
    params = fresh_params(seed=3)
    u = rng.normal(size=(8, 3))
    _, b_real = s5.discretize(params)
    x, _ = s5.scan_sequential(params, Tensor(u[None]), np.ones((1, 8), dtype=bool))
    got = unpack(x.data[0])
    want = u @ unpack(b_real.data)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_scan_zero_input_stays_zero():
    params = fresh_params(seed=4)
    x, y = s5.scan_sequential(params, Tensor(np.zeros((1, 10, 3))), no_resets(10))
    assert np.abs(x.data).max() == 0.0
    assert np.abs(y.data).max() == 0.0


def test_reset_splits_into_independent_scans():
    rng = make_rng(21)
    params = fresh_params(seed=6)
    u = rng.normal(size=(1, 12, 3))
    resets = no_resets(12)
    resets[0, 5] = True
    x, _ = s5.scan_sequential(params, Tensor(u), resets)
    xa, _ = s5.scan_sequential(params, Tensor(u[:, :5]), no_resets(5))
    xb, _ = s5.scan_sequential(params, Tensor(u[:, 5:]), no_resets(7))
    np.testing.assert_allclose(x.data[:, :5], xa.data, atol=1e-12)
    np.testing.assert_allclose(x.data[:, 5:], xb.data, atol=1e-12)


def test_scan_resumes_from_carried_state():
    # scanning a head, then the tail from the head's last state, is one scan
    rng = make_rng(24)
    params = fresh_params(seed=10, p=4, j=2, h=3)
    u = rng.normal(size=(2, 12, 3))
    resets = np.zeros((2, 12), dtype=bool)
    resets[0, 8] = True  # inside the continuation
    x, y = s5.scan_sequential(params, Tensor(u), resets)
    xa, ya = s5.scan_sequential(params, Tensor(u[:, :5]), resets[:, :5])
    xb, yb = s5.scan_sequential(params, Tensor(u[:, 5:]), resets[:, 5:], x0=Tensor(xa.data[:, -1]))
    np.testing.assert_allclose(np.concatenate([xa.data, xb.data], axis=1), x.data, atol=1e-12)
    np.testing.assert_allclose(np.concatenate([ya.data, yb.data], axis=1), y.data, atol=1e-12)


def test_reset_at_continuation_start_drops_carried_state():
    rng = make_rng(25)
    params = fresh_params(seed=11)
    u = rng.normal(size=(2, 6, 3))
    x0 = Tensor(rng.normal(size=(2, 8)))  # packed [Re x | Im x], P=4
    resets = np.zeros((2, 6), dtype=bool)
    resets[0, 0] = True
    x, y = s5.scan_sequential(params, Tensor(u), resets, x0=x0)
    x_fresh, y_fresh = s5.scan_sequential(params, Tensor(u), np.zeros((2, 6), dtype=bool))
    np.testing.assert_array_equal(x.data[0], x_fresh.data[0])
    np.testing.assert_array_equal(y.data[0], y_fresh.data[0])
    assert np.abs(x.data[1] - x_fresh.data[1]).max() > 1e-3  # row 1 carries x0


def test_reset_isolation_exact():
    # perturbing inputs before a reset changes nothing at or after the reset
    rng = make_rng(22)
    params = fresh_params(seed=7)
    u = rng.normal(size=(1, 16, 3))
    resets = no_resets(16)
    resets[0, 9] = True
    x1, y1 = s5.scan_sequential(params, Tensor(u), resets)
    u2 = u.copy()
    u2[0, :9] += rng.normal(size=(9, 3))
    x2, y2 = s5.scan_sequential(params, Tensor(u2), resets)
    np.testing.assert_array_equal(x1.data[:, 9:], x2.data[:, 9:])
    np.testing.assert_array_equal(y1.data[:, 9:], y2.data[:, 9:])


def test_scan_stability_bound():
    params = fresh_params(seed=8, p=8, j=2)
    lam_bar, b_real = s5.discretize(params)
    mag = np.abs(unpack(lam_bar.data))
    babs = np.abs(unpack(b_real.data))  # |b_bar^T|, (H, P)
    bound = babs.sum(axis=0).max() / (1.0 - mag.max())
    rng = make_rng(23)
    u = np.clip(rng.normal(size=(1, 300, 3)), -1, 1)
    x, _ = s5.scan_sequential(params, Tensor(u), no_resets(300))
    assert np.abs(x.data).max() <= bound + 1e-9


def test_scan_gradients_match_finite_differences():
    rng = make_rng(31)
    params = fresh_params(seed=9, p=4, j=2, h=3)
    u = Tensor(rng.normal(size=(2, 8, 3)), requires_grad=True)
    resets = rng.random((2, 8)) < 0.2

    def fn():
        x, y = s5.scan_sequential(params, u, resets)
        return tsum(mul(y, y)) + tsum(mul(x, x))

    leaves = dict(params.params("s5"))
    leaves["u"] = u
    report = grad_check(fn, leaves, epsilon=1e-5)
    assert report.max_rel_err < 1e-5, report.per_leaf


# ---------------------------------------------------------------------------
# stacked blocks
# ---------------------------------------------------------------------------


def make_stack(seed=0, width=4, p=3, n_blocks=2):
    return s5.S5Stack(make_rng(seed), width, p, n_blocks, 1)


def test_stack_pure_residual():
    stack = make_stack(n_blocks=1)
    blk = stack.blocks[0]
    blk.s5.c_mat.data[:] = 0.0
    blk.s5.d_vec.data[:] = 0.0
    blk.norm.__call__ = blk.norm.__call__  # layer norm still runs; output y is 0
    u = make_rng(40).normal(size=(1, 6, 4))
    m, _ = stack.forward(Tensor(u), no_resets(6))
    np.testing.assert_allclose(m.data, u, atol=1e-12)  # gelu(0) = 0, so m = u


def test_stack_h_width():
    stack = make_stack(width=4, p=3, n_blocks=2)
    u = make_rng(41).normal(size=(1, 5, 4))
    _, h = stack.forward(Tensor(u), no_resets(5))
    assert h.shape == (1, 5, 2 * 2 * 3)  # n_blocks * 2P: each block's [Re x | Im x]


def test_stack_step_matches_sequence():
    stack = make_stack(seed=5)
    rng = make_rng(44)
    t_len = 12
    u = rng.normal(size=(2, t_len, 4))
    resets = np.zeros((2, t_len), dtype=bool)
    resets[0, 4] = True
    m_seq, h_seq = stack.forward(Tensor(u), resets)
    disc = stack.discretized()
    h = Tensor(stack.initial_state(2))
    for t in range(t_len):
        m, h = stack.step(h, Tensor(u[:, t]), resets[:, t], disc)
        np.testing.assert_allclose(m.data, m_seq.data[:, t], atol=1e-10)
        np.testing.assert_allclose(h.data, h_seq.data[:, t], atol=1e-10)


def test_stack_step_tensor_count(monkeypatch):
    # a block step is layer_norm, two matmuls, linear_recurrence, mul(d), add,
    # gelu and the residual add; per step also a slice of h_prev per block,
    # the concat of the states and three reshapes: 8 * 2 + 2 + 1 + 3 = 22
    stack = s5.S5Stack(make_rng(0), 32, 16, 2, 2)
    ctx = stack.discretized()
    h, u = Tensor(stack.initial_state(1)), Tensor(np.ones((1, 32)))
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    stack.step(h, u, np.array([False]), ctx)
    assert len(built) <= 22
