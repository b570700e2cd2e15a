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
a step builds none of them. Complex values have one packed real layout, each
row [Re x | Im x] of width 2P: the input and output matrices are stored in it,
the zero-order hold produces lam_bar and the drive matrix in it as two graph
nodes with analytic VJPs, and states keep it from the drive through the scan
to the readout; concatenated over blocks, they are the deterministic part h_t
of a world-model state. A block is pre-norm -> drive matmul -> scan -> readout
matmul plus D feedthrough -> GELU -> residual add, eight graph nodes with no
layout conversion between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import LayerNorm
from .tensor import Tensor, _make, _pack, _unpack, add, concat, gelu, linear_recurrence, matmul, mul, reshape, tslice


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
    so its real part stays negative under gradient updates. The complex input
    matrix B (P, H) and output matrix C (H, P) are stored in the packed state
    layout: b_mat (H, 2P) holds the columns [Re B^T | Im B^T], and c_mat
    (2P, H) the rows [Re C^T ; -Im C^T], so x @ c_mat is Re(C x) for a packed
    state x. d_vec is the real feedthrough and log_delta the per-state log
    timescale.
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
    b_t = np.concatenate(b_cols, axis=0).T  # B^T, (H, P) complex
    c_t = np.concatenate(c_cols, axis=1).T  # C^T, (P, H) complex

    return S5Params(
        log_neg_re=Tensor(log_neg_re, requires_grad=True),
        im=Tensor(im, requires_grad=True),
        b_mat=Tensor(np.ascontiguousarray(_pack(b_t)), requires_grad=True),
        c_mat=Tensor(np.ascontiguousarray(np.concatenate([c_t.real, -c_t.imag], axis=0)), requires_grad=True),
        d_vec=Tensor(rng.normal(0.0, 1.0, size=width), requires_grad=True),
        log_delta=Tensor(rng.uniform(np.log(1e-3), np.log(1e-1), size=state_dim), requires_grad=True),
    )


def discretize(params: S5Params) -> tuple[Tensor, Tensor]:
    """Zero-order hold: lam_bar = exp(delta*lam) and b_bar = ((lam_bar-1)/lam)*B.

    Returns (lam_bar, b_real): lam_bar packed (2P,), and b_real (H, 2P), the
    drive matrix of b_bar, which holds the columns
    [Re b_bar^T | Im b_bar^T], so u @ b_real is the packed drive b_bar u.
    Each is one graph node with an analytic VJP onto log_neg_re, im and
    log_delta (and b_mat for b_real).
    """
    lam = params.lam_value()  # (P,) complex
    abs2 = lam.real * lam.real + lam.imag * lam.imag
    if abs2.min() < 1e-24:
        raise DiscretizationError("continuous eigenvalue is zero; ZOH coefficient undefined")
    delta = np.exp(params.log_delta.data)
    bar = np.exp(lam * delta)
    # (lam_bar - 1) / lam, taken as (lam_bar - 1) * conj(lam) / |lam|^2
    coef = (bar - 1.0) * (np.conj(lam) * np.exp(-np.log(abs2)))
    b_t = _unpack(params.b_mat.data)  # B^T, (H, P)
    lam_params = (params.log_neg_re, params.im, params.log_delta)

    def to_lam_params(g_lam: np.ndarray, g_delta: np.ndarray) -> tuple[np.ndarray, ...]:
        """Adjoints of (log_neg_re, im, log_delta) from those of lam and delta."""
        return g_lam.real * lam.real, g_lam.imag, g_delta * delta

    def lam_bar_vjp(g):
        gz = np.conj(bar) * _unpack(g)  # adjoint of delta * lam
        return to_lam_params(delta * gz, (np.conj(lam) * gz).real)

    def b_real_vjp(g):
        gb = _unpack(g)  # adjoint of b_bar^T, (H, P)
        g_coef = (np.conj(b_t) * gb).sum(axis=0)
        # d coef / d lam = (delta * lam_bar - coef) / lam, d coef / d delta = lam_bar
        g_lam = np.conj((delta * bar - coef) / lam) * g_coef
        return to_lam_params(g_lam, (np.conj(bar) * g_coef).real) + (_pack(np.conj(coef) * gb),)

    lam_bar = _make(_pack(bar), lam_params, lam_bar_vjp)
    b_real = _make(_pack(b_t * coef), lam_params + (params.b_mat,), b_real_vjp)
    return lam_bar, b_real


def block_maps(params: S5Params) -> tuple[Tensor, Tensor, Tensor]:
    """(lam_bar, b_real, c_real): the ZOH diagonal and the scan's real matrices.

    All three follow the packed [Re x | Im x] state layout and depend on
    parameters only: lam_bar and b_real come from discretize, and c_real is
    the parameter c_mat itself.
    """
    return (*discretize(params), params.c_mat)


def scan_sequential(
    params: S5Params,
    u: Tensor,
    resets,
    maps: tuple[Tensor, Tensor, Tensor] | None = None,
    x0: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Recurrent scan. u: (B,T,H); resets: (B,T) bool.

    Returns packed internal states x (B,T,2P), each row [Re x_t | Im x_t],
    and outputs y_t = Re(C x_t) + D u_t (B,T,H). A reset at step t zeroes
    the carried state before that step's update. The scan starts from x0
    (B,2P), packed alike, when given, else from zero; maps is a precomputed
    block_maps(params), built here when None.
    """
    lam_bar, b_real, c_real = block_maps(params) if maps is None else maps
    gates = 1.0 - np.asarray(resets, dtype=np.float64)
    x = linear_recurrence(lam_bar, matmul(u, b_real), gates, x0)
    y = add(matmul(x, c_real), mul(u, params.d_vec))
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
        """Full-sequence pass from the zero state over u (B,T,H) and resets (B,T).

        Returns (m, h): outputs and deterministic states.
        """
        return self._run(u, resets, self.discretized(), [None] * len(self.blocks))

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
        discretized: list[tuple[Tensor, Tensor, Tensor]],
    ) -> tuple[Tensor, Tensor]:
        """One online step: the sequence pass at T=1, resumed from h_prev.

        h_prev: (B, n_blocks*2P) packs each block's [Re x | Im x], the layout
        forward() returns, and each block resumes from its own slice of it;
        u: (B,H); reset: (B,) bool drops h_prev. The return
        is (m, h) with h in the same packed layout. discretized is the step
        context, self.discretized(), built once and reused over many steps.
        """
        bsz, w = u.shape[0], 2 * self.state_dim
        x0s = [tslice(h_prev, (slice(None), slice(i * w, (i + 1) * w))) for i in range(len(self.blocks))]
        resets = np.asarray(reset, dtype=bool).reshape(bsz, 1)
        m, h = self._run(reshape(u, (bsz, 1, self.width)), resets, discretized, x0s)
        return reshape(m, (bsz, self.width)), reshape(h, (bsz, len(self.blocks) * w))
