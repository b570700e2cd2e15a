"""Resettable diagonal state-space (S5) sequence layers.

A layer is a diagonal complex linear recurrence x_t = lam_bar*x_{t-1} + b_bar*u_t
with real readout y_t = Re(C x_t) + D u_t, discretized from a continuous system
by zero-order hold with a learned per-state timescale. Episode boundaries reset
the state to its initial value (zero) by gating the decay term, so training
sequences may span episodes without leaking history across them.

The recurrence has one implementation, a sequential scan with an analytic
adjoint (tensor.linear_recurrence). Training runs it over whole windows from
the zero state; online stepping runs the same scan over one step, resumed
from the carried state, with a step context that holds every block's
parameter-derived maps (lam_bar and the real drive and readout matrices), so
a step builds none of them. States stay in one packed real layout, each row
[Re x | Im x] of width 2P, from the drive through the scan to the readout;
concatenated over blocks, they are the deterministic part h_t of a
world-model state. A block is pre-norm -> drive matmul -> scan -> readout
matmul plus D feedthrough -> GELU -> residual add, eight graph nodes with no
reshape or transpose between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import LayerNorm
from .tensor import (
    Tensor,
    _pair,
    add,
    complex_exp,
    complex_mul,
    concat,
    gelu,
    linear_recurrence,
    matmul,
    mul,
    neg,
    reshape,
    transpose,
    tslice,
    tsum,
    exp,
    log,
)


class ConfigError(ValueError):
    """Invalid structural configuration (dimensions, block counts, ...)."""


class DiscretizationError(ValueError):
    """Zero-order hold is singular (a continuous eigenvalue is zero)."""


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
    so its real part stays negative under gradient updates. b_mat is the
    (P, H, 2) complex input matrix, c_mat the (H, P, 2) complex output matrix,
    d_vec the real feedthrough and log_delta the per-state log timescale.
    """

    log_neg_re: Tensor
    im: Tensor
    b_mat: Tensor
    c_mat: Tensor
    d_vec: Tensor
    log_delta: Tensor

    @property
    def state_dim(self) -> int:
        return self.log_neg_re.shape[0]

    @property
    def width(self) -> int:
        return self.d_vec.shape[0]

    def lam(self) -> Tensor:
        """Continuous diagonal as a (P, 2) pair tensor."""
        p = self.state_dim
        re = reshape(neg(exp(self.log_neg_re)), (p, 1))
        im = reshape(self.im, (p, 1))
        return concat([re, im], axis=1)

    def lam_value(self) -> np.ndarray:
        return -np.exp(self.log_neg_re.data) + 1j * self.im.data

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.log_neg_re": self.log_neg_re,
            f"{prefix}.im": self.im,
            f"{prefix}.b_mat": self.b_mat,
            f"{prefix}.c_mat": self.c_mat,
            f"{prefix}.d_vec": self.d_vec,
            f"{prefix}.log_delta": self.log_delta,
        }


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
        raise ConfigError(f"state_dim {state_dim} not divisible by init blocks {blocks}")
    n = state_dim // blocks
    lam_block, v = normal_hippo_eigen(n)

    im = np.tile(lam_block.imag, blocks)
    log_neg_re = np.full(state_dim, np.log(0.5))

    b_cols = []
    c_cols = []
    for _ in range(blocks):
        b_cols.append(v.conj().T @ rng.normal(0.0, 1.0 / np.sqrt(width), size=(n, width)))
        c_cols.append(rng.normal(0.0, 1.0 / np.sqrt(state_dim), size=(width, n)) @ v)
    b = np.concatenate(b_cols, axis=0)  # (P, H) complex
    c = np.concatenate(c_cols, axis=1)  # (H, P) complex

    return S5Params(
        log_neg_re=Tensor(log_neg_re, requires_grad=True),
        im=Tensor(im, requires_grad=True),
        b_mat=Tensor(_pair(b), requires_grad=True),
        c_mat=Tensor(_pair(c), requires_grad=True),
        d_vec=Tensor(rng.normal(0.0, 1.0, size=width), requires_grad=True),
        log_delta=Tensor(rng.uniform(np.log(1e-3), np.log(1e-1), size=state_dim), requires_grad=True),
    )


def discretize(params: S5Params) -> tuple[Tensor, Tensor]:
    """Zero-order hold: lam_bar = exp(delta*lam), b_bar = ((lam_bar-1)/lam)*B."""
    p = params.state_dim
    lam = params.lam()  # (P, 2)
    lam_abs2 = np.abs(params.lam_value()) ** 2
    if lam_abs2.min() < 1e-24:
        raise DiscretizationError("continuous eigenvalue is zero; ZOH coefficient undefined")
    delta = reshape(exp(params.log_delta), (p, 1))
    lam_bar = complex_exp(mul(lam, delta))
    # (lam_bar - 1) / lam via conj(lam)/|lam|^2.
    num = add(lam_bar, Tensor(np.tile([-1.0, 0.0], (p, 1))))
    conj_lam = mul(lam, Tensor(np.tile([1.0, -1.0], (p, 1))))
    inv_abs2 = exp(neg(log(tsum(mul(lam, lam), axis=-1, keepdims=True))))
    coef = complex_mul(num, mul(conj_lam, inv_abs2))  # (P, 2)
    b_bar = complex_mul(reshape(coef, (p, 1, 2)), params.b_mat)  # (P, H, 2)
    return lam_bar, b_bar


def _as_batched(u, resets):
    """Promote (T,H)/(T,) inputs to batched form; report whether we did."""
    squeeze = False
    if u.data.ndim == 2:
        u = reshape(u, (1,) + u.shape)
        squeeze = True
    resets = np.asarray(resets, dtype=bool)
    if resets.ndim == 1:
        resets = resets[None, :]
    return u, resets, squeeze


def block_maps(params: S5Params) -> tuple[Tensor, Tensor, Tensor]:
    """(lam_bar, b_real, c_real): the ZOH diagonal and the scan's real matrices.

    Both matrices follow the packed [Re x | Im x] state layout: b_real (H, 2P)
    holds the columns [Re b_bar^T | Im b_bar^T], so u @ b_real is the packed
    drive b_bar u; c_real (2P, H) holds the rows [Re C^T ; -Im C^T], so
    x @ c_real is Re(C x) for a packed x. All three depend on parameters only.
    """
    p, h = params.state_dim, params.width
    lam_bar, b_bar = discretize(params)
    b_real = reshape(transpose(b_bar, (1, 2, 0)), (h, 2 * p))
    c_real = reshape(transpose(mul(params.c_mat, Tensor(np.array([1.0, -1.0]))), (2, 1, 0)), (2 * p, h))
    return lam_bar, b_real, c_real


def scan_sequential(
    params: S5Params,
    u: Tensor,
    resets,
    maps: tuple[Tensor, Tensor, Tensor] | None = None,
    x0: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Recurrent scan. u: (T,H) or (B,T,H); resets: bool per step.

    Returns packed internal states x ((B,)T,2P), each row [Re x_t | Im x_t],
    and outputs y_t = Re(C x_t) + D u_t ((B,)T,H). A reset at step t zeroes
    the carried state before that step's update. The scan starts from x0
    (B,2P), packed alike, when given (batched u only), else from zero; maps is
    a precomputed block_maps(params), built here when None.
    """
    u, resets, squeeze = _as_batched(u, resets)
    lam_bar, b_real, c_real = block_maps(params) if maps is None else maps
    gates = 1.0 - resets.astype(np.float64)
    x = linear_recurrence(lam_bar, matmul(u, b_real), gates, x0)
    y = add(matmul(x, c_real), mul(u, params.d_vec))
    if squeeze:
        return reshape(x, x.shape[1:]), reshape(y, y.shape[1:])
    return x, y


class S5Block:
    """Pre-norm S5 layer with GELU nonlinearity and a residual connection."""

    def __init__(self, rng, width: int, state_dim: int, init_blocks: int):
        self.s5 = hippo_n_init(state_dim, init_blocks, width, rng)
        self.norm = LayerNorm(width)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = self.s5.params(f"{prefix}.s5")
        out.update(self.norm.params(f"{prefix}.norm"))
        return out


class S5Stack:
    """Stack of S5 blocks exposing the concatenated internal states.

    The per-step deterministic state h_t is, per block, the realified internal
    state [Re x_t | Im x_t] concatenated over blocks (width n_blocks * 2P).
    """

    def __init__(self, rng, width: int, state_dim: int, n_blocks: int, init_blocks: int):
        if n_blocks < 1:
            raise ConfigError("need at least one S5 block")
        self.width = width
        self.state_dim = state_dim
        self.blocks = [S5Block(rng, width, state_dim, init_blocks) for _ in range(n_blocks)]

    def params(self, prefix: str = "stack") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, blk in enumerate(self.blocks):
            out.update(blk.params(f"{prefix}.b{i}"))
        return out

    def _run(self, u: Tensor, resets: np.ndarray, discretized, x0s) -> tuple[Tensor, Tensor]:
        """Every block over (B,T,H) inputs from per-block packed start states x0s.

        Returns the last block's outputs m and the packed states: per block
        [Re x_t | Im x_t], concatenated over blocks into (B, T, n_blocks*2P).
        """
        h_parts = []
        for blk, disc, x0 in zip(self.blocks, discretized, x0s):
            x, y = scan_sequential(blk.s5, blk.norm(u), resets, disc, x0)
            u = add(u, gelu(y))
            h_parts.append(x)
        return u, concat(h_parts, axis=2)

    def forward(self, u: Tensor, resets) -> tuple[Tensor, Tensor]:
        """Full-sequence pass from the zero state. Returns (m, h): outputs and deterministic states."""
        u, resets, squeeze = _as_batched(u, resets)
        m, h = self._run(u, resets, self.discretized(), [None] * len(self.blocks))
        if squeeze:
            return reshape(m, m.shape[1:]), reshape(h, h.shape[1:])
        return m, h

    def discretized(self) -> list[tuple[Tensor, Tensor, Tensor]]:
        """The step context: per block (lam_bar, b_real, c_real) from block_maps.

        It depends on parameters only; step() callers build it once and reuse
        it over many steps, and rebuild it after every parameter update.
        """
        return [block_maps(blk.s5) for blk in self.blocks]

    def initial_state(self, batch: int) -> np.ndarray:
        """Zero packed state (the reset target), in the layout step() expects."""
        return np.zeros((batch, len(self.blocks) * 2 * self.state_dim))

    def step(
        self,
        h_prev: Tensor,
        u: Tensor,
        reset: np.ndarray,
        discretized: list[tuple[Tensor, Tensor, Tensor]] | None = None,
    ) -> tuple[Tensor, Tensor]:
        """One online step: the sequence pass at T=1, resumed from h_prev.

        h_prev: (B, n_blocks*2P) packs each block's [Re x | Im x], the layout
        forward() returns, and each block resumes from its own slice of it;
        u: (B,H); reset: (B,) bool drops h_prev. The return
        is (m, h) with h in the same packed layout. discretized is the step
        context, self.discretized() when None; pass it in to reuse it over
        many steps.
        """
        if discretized is None:
            discretized = self.discretized()
        bsz, w = u.shape[0], 2 * self.state_dim
        x0s = [tslice(h_prev, (slice(None), slice(i * w, (i + 1) * w))) for i in range(len(self.blocks))]
        resets = np.asarray(reset, dtype=bool).reshape(bsz, 1)
        m, h = self._run(reshape(u, (bsz, 1, self.width)), resets, discretized, x0s)
        return reshape(m, (bsz, self.width)), reshape(h, (bsz, len(self.blocks) * w))
