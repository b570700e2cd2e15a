"""Resettable diagonal state-space (S5) sequence layers.

A layer is a diagonal complex linear recurrence x_t = lam_bar*x_{t-1} + b_bar*u_t
with real readout y_t = Re(C x_t) + D u_t, discretized from a continuous system
by zero-order hold with a learned per-state timescale. A scan starts from a
state that its caller passes as a constant ndarray, zeros at rest; episode
boundaries inside a window reset the state to zero by gating the decay term,
so training sequences may span episodes without leaking history across them.
That gate is the only reset mechanism; an online step has none, and its
caller resets by carrying the zero state in. Only the optimizer moves the
timescale, unbounded: the zero-order hold is exact for every delta > 0.

Three entries, one per job. `scan_sequential(params, u, gates, x0)` runs one
SSM over a window as graph nodes: the zero-order hold, then the sequential
scan with an analytic adjoint (tensor.linear_recurrence). `S5Stack.forward(u,
resets, h0)` runs the stack over a window from the carried state h0, as
training does from zeros. `S5Stack.step(h_prev, u, ctx)` is one online step
in plain numpy, never differentiated; its context, `S5Stack.discretized()`,
holds per block the zero-order hold's arrays (lam_bar, b_real), and the
readout matrix is the parameter c_mat itself. The hold has one numpy forward,
`_zoh`, which discretize's graph nodes call too; with the layer norm and GELU
forwards of the graph ops, a step equals forward at T=1 bit for bit.

Complex values have one real layout, numpy's own complex128 memory: each row
holds P interleaved (Re, Im) pairs, width 2P, and tensor's `_complex` and
`_real` convert by a view. The input and output matrices are stored in it,
the zero-order hold produces lam_bar and the drive matrix in it as two graph
nodes with analytic VJPs, and states keep it from the drive through the scan
to the readout; concatenated over blocks, they are the deterministic part
h_t of a world-model state. A block is pre-norm -> drive matmul -> scan ->
readout matmul plus D feedthrough -> GELU -> residual add, eight graph nodes
in training with no layout conversion between them. S5Stack holds its blocks
as two per-block lists, the SSM parameters and the layer norms.

A bad structure (a state width the init blocks do not divide, no block) and a
singular zero-order hold (a continuous eigenvalue of zero) raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import LN_EPS, LayerNorm
from .tensor import Tensor, _complex, _gelu, _layer_norm, _make, _real, add, concat, gelu, linear_recurrence, matmul, mul

INIT_BLOCKS = 2  # HiPPO-N blocks per S5 layer at init (S5, Smith et al., arXiv 2208.04933)


def normal_hippo_dense(n: int) -> np.ndarray:
    """Dense normal part of the HiPPO-LegS matrix (real part -1/2 + skew)."""
    q = np.sqrt(2.0 * np.arange(n) + 1.0)
    a = np.tril(np.outer(q, q)) - np.diag(np.arange(n, dtype=np.float64))
    p = np.sqrt(np.arange(n) + 0.5)
    return -a + np.outer(p, p)


def normal_hippo_eigen(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (sorted by imaginary part) and unitary eigenvectors.

    The normal matrix is -1/2*I plus a skew-symmetric part, so -1j*(S + I/2)
    is Hermitian and eigh gives an exact unitary basis; all real parts are
    exactly -1/2.
    """
    s = normal_hippo_dense(n)
    skew = s + 0.5 * np.eye(n)
    omega, v = np.linalg.eigh(-1j * skew)
    lam = -0.5 + 1j * omega
    return lam, v


@dataclass
class S5Params:
    """One diagonal SSM layer: recurrence diagonal, input/output maps, timescale.

    The continuous diagonal is parameterized as lam = -exp(log_neg_re) + i*im
    so its real part stays negative under gradient updates. The complex input
    matrix B (P, H) and output matrix C (H, P) are stored in the state's
    interleaved layout: b_mat (H, 2P) is B^T viewed as floats, and c_mat
    (2P, H) holds the rows (Re C^T_p, -Im C^T_p) pair by pair, so x @ c_mat
    is Re(C x) for a state x. d_vec is the real feedthrough and log_delta the
    per-state log timescale.
    """

    log_neg_re: Tensor
    im: Tensor
    b_mat: Tensor
    c_mat: Tensor
    d_vec: Tensor
    log_delta: Tensor

    def lam_value(self) -> np.ndarray:
        return -np.exp(self.log_neg_re.data) + 1j * self.im.data


def hippo_n_init(
    state_dim: int,
    blocks: int,
    width: int,
    rng: np.random.Generator,
) -> S5Params:
    """HiPPO-N initialization: J copies of the size-(P/J) normal-matrix spectrum.

    b_mat/c_mat are real Gaussians projected into the eigenvector basis of
    each block; the timescale is log-uniform in [1e-3, 1e-1].
    """
    if state_dim % blocks != 0:
        raise ValueError(f"state_dim {state_dim} not divisible by init blocks {blocks}")
    n = state_dim // blocks
    lam_block, v = normal_hippo_eigen(n)

    im = np.tile(lam_block.imag, blocks)
    log_neg_re = np.full(state_dim, np.log(0.5))

    b_cols = []
    c_cols = []
    for _ in range(blocks):
        b_cols.append(v.conj().T @ rng.normal(0.0, 1.0 / np.sqrt(width), size=(n, width)))
        c_cols.append(rng.normal(0.0, 1.0 / np.sqrt(state_dim), size=(width, n)) @ v)
    b = np.concatenate(b_cols, axis=0)  # B, (P, H) complex
    c = np.concatenate(c_cols, axis=1)  # C, (H, P) complex

    return S5Params(
        log_neg_re=Tensor(log_neg_re, requires_grad=True),
        im=Tensor(im, requires_grad=True),
        b_mat=Tensor(_real(b.T), requires_grad=True),
        c_mat=Tensor(np.ascontiguousarray(_real(np.conj(c)).T), requires_grad=True),
        d_vec=Tensor(rng.normal(0.0, 1.0, size=width), requires_grad=True),
        log_delta=Tensor(rng.uniform(np.log(1e-3), np.log(1e-1), size=state_dim), requires_grad=True),
    )


def _zoh(params: S5Params) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The zero-order hold's numpy forward: (lam, delta, lam_bar, coef), each (P,), with b_bar = coef * B."""
    lam = params.lam_value()  # (P,) complex
    abs2 = lam.real * lam.real + lam.imag * lam.imag
    if abs2.min() < 1e-24:
        raise ValueError("continuous eigenvalue is zero; ZOH coefficient undefined")
    delta = np.exp(params.log_delta.data)
    bar = np.exp(lam * delta)
    # (lam_bar - 1) / lam, taken as (lam_bar - 1) * conj(lam) / |lam|^2
    coef = (bar - 1.0) * (np.conj(lam) * np.exp(-np.log(abs2)))
    return lam, delta, bar, coef


def discretize(params: S5Params) -> tuple[Tensor, Tensor]:
    """Zero-order hold: lam_bar = exp(delta*lam) and b_bar = ((lam_bar-1)/lam)*B.

    Returns (lam_bar, b_real): lam_bar (2P,), and b_real (H, 2P), the drive
    matrix b_bar^T, each viewed as interleaved (Re, Im) pairs, so u @ b_real
    is the drive b_bar u. Each is one graph node with an analytic VJP onto
    log_neg_re, im and log_delta (and b_mat for b_real), its value from
    _zoh. b_real's VJP reads b_mat through a view, not a copy: run backward
    before the optimizer updates b_mat in place.
    """
    lam, delta, bar, coef = _zoh(params)
    b_t = _complex(params.b_mat.data)  # B^T, (H, P), a view of b_mat
    lam_params = (params.log_neg_re, params.im, params.log_delta)

    def to_lam_params(g_lam: np.ndarray, g_delta: np.ndarray) -> tuple[np.ndarray, ...]:
        """Adjoints of (log_neg_re, im, log_delta) from those of lam and delta."""
        return g_lam.real * lam.real, g_lam.imag, g_delta * delta

    def lam_bar_vjp(g):
        gz = np.conj(bar) * _complex(g)  # adjoint of delta * lam
        return to_lam_params(delta * gz, (np.conj(lam) * gz).real)

    def b_real_vjp(g):
        gb = _complex(g)  # adjoint of b_bar^T, (H, P)
        g_coef = (np.conj(b_t) * gb).sum(axis=0)
        # d coef / d lam = (delta * lam_bar - coef) / lam, d coef / d delta = lam_bar
        g_lam = np.conj((delta * bar - coef) / lam) * g_coef
        return to_lam_params(g_lam, (np.conj(bar) * g_coef).real) + (_real(np.conj(coef) * gb),)

    lam_bar = _make(_real(bar), lam_params, lam_bar_vjp)
    b_real = _make(_real(b_t * coef), lam_params + (params.b_mat,), b_real_vjp)
    return lam_bar, b_real


def scan_sequential(params: S5Params, u: Tensor, gates: np.ndarray, x0: np.ndarray) -> tuple[Tensor, Tensor]:
    """One SSM's recurrent scan, differentiable. u: (B,T,H); gates: (B,T) float, 1 - resets.

    Returns internal states x (B,T,2P), each row the interleaved pairs
    (Re x_t, Im x_t), and outputs y_t = Re(C x_t) + D u_t (B,T,H), read out
    through c_mat. A gate of 0 (a reset) at step t zeroes the carried state
    before that step's update. The scan starts from the constant ndarray x0
    (B,2P), laid out alike: zeros for the start state. The zero-order hold
    is built here, by discretize(params).
    """
    lam_bar, b_real = discretize(params)
    x = linear_recurrence(lam_bar, matmul(u, b_real), gates, x0)
    y = add(matmul(x, params.c_mat), mul(u, params.d_vec))
    return x, y


class S5Stack:
    """Stack of pre-norm S5 blocks, each with GELU and a residual connection.

    Block i is the SSM ssms[i] with the layer norm norms[i]. The per-step
    deterministic state h_t is, per block, the internal state as interleaved
    (Re x_t, Im x_t) pairs, concatenated over blocks (width n_blocks * 2P).
    """

    def __init__(self, rng, width: int, state_dim: int, n_blocks: int):
        if n_blocks < 1:
            raise ValueError("need at least one S5 block")
        self.state_dim = state_dim
        self.ssms = [hippo_n_init(state_dim, INIT_BLOCKS, width, rng) for _ in range(n_blocks)]
        self.norms = [LayerNorm(width) for _ in range(n_blocks)]

    def forward(self, u: Tensor, resets, h0: np.ndarray) -> tuple[Tensor, Tensor]:
        """Full-sequence pass over u (B,T,H) and resets (B,T), from the carried state h0.

        h0 (B, n_blocks*2P) is a constant ndarray in h's layout: block i starts
        from its columns i*2P:(i+1)*2P. Resets inside the window return a row
        to the zero state through the gates 1 - resets, built once for all
        blocks. Returns (m, h): the last block's outputs, and per block the
        interleaved (Re x_t, Im x_t) pairs concatenated into (B, T, n_blocks*2P).
        """
        gates = 1.0 - np.asarray(resets, dtype=np.float64)
        w = 2 * self.state_dim
        h_parts = []
        for i, (ssm, norm) in enumerate(zip(self.ssms, self.norms)):
            x, y = scan_sequential(ssm, norm(u), gates, h0[:, i * w : (i + 1) * w])
            u = add(u, gelu(y))
            h_parts.append(x)
        return u, concat(h_parts, axis=2)

    def discretized(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The step context: per block the ndarrays (lam_bar complex (P,), b_real (H, 2P)).

        They are discretize's values, taken from _zoh without a Tensor. The
        context depends on parameters only; step() callers build it once,
        reuse it over many steps and rebuild it after every parameter update.
        """
        ctx = []
        for ssm in self.ssms:
            _, _, lam_bar, coef = _zoh(ssm)
            ctx.append((lam_bar, _real(_complex(ssm.b_mat.data) * coef)))
        return ctx

    def step(self, h_prev: np.ndarray, u: np.ndarray, ctx: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        """One online step in plain numpy, resumed from h_prev; it records no graph.

        h_prev: (B, n_blocks*2P) holds each block's interleaved (Re x, Im x)
        pairs, the layout forward() returns; a zero h_prev is the start
        state, so a caller resets a row by zeroing it. u: (B,H). Returns the
        ndarrays (m, h), h in h_prev's layout. ctx is the step context,
        self.discretized(), read as arrays. Each block is forward's at T=1
        from h0 = h_prev, computed by the graph ops' own numpy forwards, so
        (m, h) equal forward's bit for bit.
        """
        w = 2 * self.state_dim
        h = np.empty((u.shape[0], len(self.ssms) * w))
        for i, (ssm, norm, (lam_bar, b_real)) in enumerate(zip(self.ssms, self.norms, ctx)):
            cols = slice(i * w, (i + 1) * w)
            un = _layer_norm(u, norm.scale.data, norm.shift.data, LN_EPS)[0]
            x = lam_bar * _complex(h_prev[:, cols])
            x += _complex(un @ b_real)
            x_real = _real(x)
            h[:, cols] = x_real
            y = x_real @ ssm.c_mat.data
            y += un * ssm.d_vec.data
            u = u + _gelu(y)[0]
        return u, h
