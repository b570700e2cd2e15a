"""Minimal float64 tensor library with reverse-mode automatic differentiation.

Everything downstream (state-space layers, world models, policies) is built on
this fixed op set, each op in one form and called as a function (Tensor has
no arithmetic operators): add, mul (both broadcasting), neg, log, gelu; tsum,
softmax and l2_norm over the trailing axis; tmean over every element; matmul,
(..., k) @ (k, m); affine, layer_norm, linear_recurrence; concat, tslice and
reshape.

Three layers are single graph nodes with analytic VJPs: affine, layer_norm
and linear_recurrence. The one activation, gelu, is the tanh form of GELU
(the default of `jax.nn.gelu`, which the S5 reference code calls): it stays
within 4.7e-4 of the exact x * Phi(x), and at training shapes it costs less
than half as much, because numpy's tanh is far cheaper than scipy's
elementwise error function; at batch 1 it costs more, because it makes
twice the ufunc calls.

Graph and inference share one numpy forward per op that inference runs:
`_affine`, `_gelu`, `_layer_norm`, `_softmax` and `_l2_norm` (and, outside
this module, `dists._unimix_probs`). Each graph op computes its value by
calling its forward. Inference, through which no gradient flows, calls the
forwards on ndarrays: the S5 online step, `nn.MLP.infer` and with them
acting, imagination, novelty and the goal decode. It so gets the ops' values
bit for bit without paying for a Tensor and a VJP closure per call, and no
code in the package enters `no_grad`. `no_grad` remains for a graph forward
that is never differentiated, such as a held-out loss.

Tensors hold real float64 arrays, so the whole engine is real-valued.
Complex values have one layout, numpy's own complex128 memory: a trailing
axis of width 2P holding P interleaved pairs
(Re x_0, Im x_0, Re x_1, Im x_1, ...), the layout of linear_recurrence's
diagonal, drive, start state and states. Converting in either direction is a
view (`_complex`, `_real`), not a copy. The start state is always passed, as
a constant ndarray like the gates, so no gradient flows into it: zeros start
a scan from rest.

`_make(data, parents, vjp)` is the one way to add a fused node, here or in
another module: the node's value is computed in numpy, and the VJP maps the
output gradient to one gradient per parent (None where none is needed).

Every reduction over the trailing axis is a matrix product or runs on a
class-major copy: a row sum is `rows @ ones(k, 1)` (`_row_sum`), a row max
(softmax's shift, its one use) is the max over axis 0 of the transposed
(k, N) copy, and the cumsum of a categorical draw is `rows @ triu(ones(k, k))`.
The reason is that numpy reduces a narrow contiguous trailing axis one row at
a time, at about 100 ns a row: on the 1,024 rows of 8 classes of one imagined
step, (128, 8, 8), a max took 96 us, a sum 31 us and a cumsum 45 us, while
the exp that does the real arithmetic took 10 us (numpy 2.4, OpenBLAS on one
thread, a 2-vCPU Xeon VM). As a product or on the copy, each takes 4-13 us
there; at batch 1 each costs 0.3-0.9 us more than the reduce, for the
reshapes around it, so softmax reshapes once to (N, k) and once back. A row
sum adds in BLAS order, so it may differ from numpy's in the last bits
(within a few ulp of the row's absolute sum); a row max is exact. The ones
columns and triangles are cached per width, read-only.

`loss.backward()` is the one backward pass. Graphs are write-once: it
consumes the graph, and a second call on the same loss raises. Forward passes
are pure, so tensors may be shared read-only across threads; concurrent
backward on one graph is not supported.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import cache

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GraphError",
    "no_grad",
    "make_rng",
    "add",
    "mul",
    "neg",
    "matmul",
    "affine",
    "layer_norm",
    "log",
    "gelu",
    "softmax",
    "tsum",
    "tmean",
    "concat",
    "tslice",
    "reshape",
    "l2_norm",
    "linear_recurrence",
]

# gelu's constants are 0-d arrays: numpy 2 takes one through a ufunc faster
# than a Python float, and at batch 1 the ufunc calls are most of gelu's cost.
_GELU_C = np.array(math.sqrt(2.0 / math.pi))
_GELU_CK = np.array(0.044715 * math.sqrt(2.0 / math.pi))
_GELU_3CK = np.array(3.0 * 0.044715 * math.sqrt(2.0 / math.pi))
_GELU_HALF = np.array(0.5)
_GELU_ONE = np.array(1.0)
# tanh(sqrt(2/pi) (x + 0.044715 x^3)) is already +-1 in float64 at |x| = 10
# (argument 43.6), so clamping x there changes no value and keeps x^3 finite.
_GELU_HI = np.array(10.0)
_GELU_LO = np.array(-10.0)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class GraphError(RuntimeError):
    """Raised on misuse of the computation graph (e.g. repeated backward)."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block, for a graph forward that is never differentiated."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based (Philox) generator; (seed, stream) fully determines draws."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class Tensor:
    """A float64 ndarray plus optional gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def detach(self) -> "Tensor":
        """Constant view of the value: blocks gradient flow (stop-gradient)."""
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar loss; grads accumulate into leaves.

        Each node sums the gradients it receives in its own .grad; in reverse
        topological order, an inner node's VJP runs on that sum and its .grad is
        cleared. The graph is consumed: calling backward twice on the same loss
        raises.
        """
        if self.data.size != 1:
            raise GraphError(f"backward: loss must be scalar, got shape {self.shape}")
        if self._consumed:
            raise GraphError("backward: graph already consumed; rerun the forward pass")
        if not self.requires_grad:
            raise GraphError("backward: loss does not require grad")

        # Iterative topological sort (graphs can be deeper than the recursion limit).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        seed = np.ones_like(self.data)
        self.grad = seed if self.grad is None else self.grad + seed
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue  # a leaf keeps its .grad
            for p, pg in zip(node._parents, node._vjp(node.grad)):
                if p.requires_grad and pg is not None:
                    p.grad = pg if p.grad is None else p.grad + pg
            node.grad = None
            node._vjp = None
            node._consumed = True
        self._consumed = True

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Op output: records parents/vjp only when grad is live on some input."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = parents
        out._vjp = vjp
        return out
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcast_error(op: str, a: Tensor, b: Tensor) -> ShapeError:
    return ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# elementwise and reduction ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise _broadcast_error("add", a, b) from None

    def vjp(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise _broadcast_error("mul", a, b) from None

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gelu's numpy forward: (out, xc, t), x clamped to +-10 and the tanh, which the VJP reuses."""
    xc = np.maximum(np.minimum(x, _GELU_HI), _GELU_LO)
    # updates run in place: at training shapes a fresh array costs about as
    # much as the arithmetic that fills it
    t = xc * xc
    t *= _GELU_CK
    t += _GELU_C
    t *= xc
    t = np.tanh(t)  # not out=t: from a 0-d input, t is a numpy scalar
    out = t * _GELU_HALF
    out += _GELU_HALF
    out *= x
    return out, xc, t


def gelu(a: Tensor) -> Tensor:
    """GELU in its tanh form: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).

    At most 4.7e-4 from the exact x * Phi(x) (Hendrycks & Gimpel, arXiv
    1606.08415), at less than half the cost of it with scipy's error
    function. The tanh argument is taken from x clamped to +-10, where tanh
    is already +-1, so every finite input gives a finite value and gradient
    and raises no floating-point warning: gelu(x) = x with gradient 1 for
    large positive x, 0 with gradient 0 for large negative x. The VJP is
    analytic and reuses the forward's tanh.
    """
    out, xc, t = _gelu(a.data)

    def vjp(g):
        # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3 * 0.044715 x^2),
        # with xc for x: where the two differ, 1 - t^2 is 0
        d = xc * xc
        d *= _GELU_3CK
        d += _GELU_C
        d *= xc
        d *= _GELU_ONE - t * t
        d += t
        d += _GELU_ONE
        d *= _GELU_HALF
        return (g * d,)

    return _make(out, (a,), vjp)


@cache
def _ones(k: int) -> np.ndarray:
    """Read-only (k, 1) column of ones: a product with it is a row sum."""
    col = np.ones((k, 1))
    col.flags.writeable = False
    return col


@cache
def _upper_ones(k: int) -> np.ndarray:
    """Read-only (k, k) upper-triangular ones: a product with it is a row cumsum."""
    tri = np.triu(np.ones((k, k)))
    tri.flags.writeable = False
    return tri


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the trailing axis, kept as width 1: (..., k) -> (..., 1)."""
    k = x.shape[-1]
    return (x.reshape(-1, k) @ _ones(k)).reshape(x.shape[:-1] + (1,))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the trailing axis, on one (N, k) view: one reshape in and one out."""
    k = x.shape[-1]
    rows = x.reshape(-1, k)
    # the max on the class-major copy, and by the ufunc's reduce, not ndarray.max:
    # at batch 1 that method's Python wrapper is a third of the cost
    e = np.exp(rows - np.maximum.reduce(rows.T.copy(), axis=0)[:, None])
    e /= e @ _ones(k)
    return e.reshape(x.shape)


def _softmax_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Input gradient of a trailing-axis softmax with output `out` under output gradient g."""
    return out * (g - _row_sum(g * out))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the trailing axis, as one node: (..., k) -> (..., k)."""
    out = _softmax(a.data)
    return _make(out, (a,), lambda g: (_softmax_vjp(out, g),))


def tsum(a: Tensor) -> Tensor:
    """Sum over the trailing axis by `_row_sum`: (..., k) -> (...)."""
    out = _row_sum(a.data)[..., 0]
    return _make(out, (a,), lambda g: (np.broadcast_to(g[..., None], a.shape).copy(),))


def tmean(a: Tensor) -> Tensor:
    """Mean over every element: the sum and division numpy's mean runs."""
    count = a.data.size
    out = a.data.sum() / count
    return _make(out, (a,), lambda g: (np.broadcast_to(g / count, a.shape).copy(),))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., k) @ (k, m) -> (..., m).

    The leading axes of a are flattened to rows (..., k) -> (N, k), so the
    product is one 2-D matmul whatever the leading shape.
    """
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: only (..., k) @ (k, m) operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    rows = a.data.reshape(-1, a.shape[-1])
    out = (rows @ b.data).reshape(a.shape[:-1] + b.shape[1:])

    def vjp(g):
        g_rows = g.reshape(-1, b.shape[1])
        return (g_rows @ b.data.T).reshape(a.shape), rows.T @ g_rows

    return _make(out, (a, b), vjp)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """affine's numpy forward: x @ w, then b added in place."""
    out = x @ w
    out += b
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: x (N, n_in), w (n_in, n_out), b (n_out,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"affine: widths differ, {x.shape} @ {w.shape} + {b.shape}")
    out = _affine(x.data, w.data, b.data)

    def vjp(g):
        gx = g @ w.data.T if x.requires_grad else None
        return gx, x.data.T @ g, g.sum(axis=0)

    return _make(out, (x, w, b), vjp)


def _layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """layer_norm's numpy forward: (out, normed, inv), the normalized input and 1/std, which the VJP reuses."""
    width = x.shape[-1]
    # Each mean is a row sum and a division.
    centered = x - _row_sum(x) / width
    var = _row_sum(centered * centered) / width
    inv = np.exp(-0.5 * np.log(var + eps))
    normed = centered * inv
    return normed * scale + shift, normed, inv


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * scale + shift over the trailing axis, as one node.

    The forward pass takes 1/sqrt as exp(-0.5 * log(.)), the expressions of
    the composed reference graph in the tests, so its values match it bit for
    bit. The VJP is analytic: dx = inv * (gn - mean(gn) - n * mean(gn * n))
    with gn = g * scale and n the normalized input.
    """
    width = x.shape[-1]
    if scale.shape != (width,) or shift.shape != (width,):
        raise ShapeError(f"layer_norm: widths differ, {x.shape} vs scale {scale.shape}, shift {shift.shape}")
    out, normed, inv = _layer_norm(x.data, scale.data, shift.data, eps)

    def vjp(g):
        rows = g.reshape(-1, width)
        gn = g * scale.data
        gn_mean = _row_sum(gn) / width
        gx = inv * (gn - gn_mean - normed * (_row_sum(gn * normed) / width))
        return gx, (rows * normed.reshape(-1, width)).sum(axis=0), rows.sum(axis=0)

    return _make(out, (x, scale, shift), vjp)


def _l2_norm(x: np.ndarray) -> np.ndarray:
    """l2_norm's numpy forward."""
    return np.sqrt(_row_sum(x * x)[..., 0])


def l2_norm(a: Tensor) -> Tensor:
    """Euclidean norm over the trailing axis: (..., n) -> (...)."""
    out = _l2_norm(a.data)

    def vjp(g):
        # Subgradient 0 at the origin.
        denom = np.where(out == 0.0, 1.0, out)
        return ((g / denom)[..., None] * a.data,)

    return _make(out, (a,), vjp)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def vjp(g):
        ends = np.cumsum([t.shape[axis] for t in tensors])
        return tuple(np.split(g, ends[:-1], axis=axis))

    return _make(out, tuple(tensors), vjp)


def tslice(a: Tensor, key) -> Tensor:
    """Basic indexing (ints and step-1 slices); gradient scatters into zeros."""
    out = a.data[key]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _make(np.ascontiguousarray(out), (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.shape),))


# ---------------------------------------------------------------------------
# complex values, as interleaved (Re, Im) pairs in a trailing axis of width 2P
# ---------------------------------------------------------------------------


def _complex(x: np.ndarray) -> np.ndarray:
    """(..., P) complex128 view of an interleaved (..., 2P) real array (a copy only if x is not contiguous)."""
    return np.ascontiguousarray(x).view(np.complex128)


def _real(z: np.ndarray) -> np.ndarray:
    """(..., 2P) interleaved real view of a (..., P) complex array (a copy only if z is not contiguous)."""
    return np.ascontiguousarray(z).view(np.float64)


def linear_recurrence(lam: Tensor, drive: Tensor, gates: np.ndarray, x0: np.ndarray) -> Tensor:
    """Gated diagonal complex recurrence x_t = gate_t * lam * x_{t-1} + drive_t.

    lam: (2P,) and drive: (B, T, 2P), each a row of P interleaved
    (Re, Im) pairs; gates: (B, T) float 0/1 array (0 resets the state).
    Returns x: (B, T, 2P) in the same layout, a view of the complex states,
    starting from the constant x0: (B, 2P), laid out alike (zeros for the
    start state); a gate of 0 at t=0 drops x0. The whole scan is one
    graph node with an analytically derived adjoint, which is exactly
    backpropagation through time over the unrolled recurrence.

    The per-step decays gate_t * lam are built once per call, (B, T, P),
    exact because a gate is 0 or 1, and both loops index them. The forward
    loop writes each state in place. The adjoint's loop carries only the
    accumulator acc_t = w_t + conj(decay_{t+1}) * acc_{t+1}, which is the
    drive's adjoint; lam's adjoint is one reduction after the loop, the sum
    over all B * T rows of gate_t * conj(x_{t-1}) * acc_t. The loops run on
    complex values: a loop over the real and imaginary parts was measured
    slower at training shapes (2x at B=8, T=16).
    """
    if lam.data.ndim != 1 or lam.shape[0] % 2:
        raise ShapeError(f"linear_recurrence: lam must be (2P,) pairs, got {lam.shape}")
    P = lam.shape[0] // 2
    if drive.data.ndim != 3 or drive.shape[2] != 2 * P:
        raise ShapeError(f"linear_recurrence: drive must be (B,T,{2 * P}), got {drive.shape}")
    B, T, _ = drive.shape
    if gates.shape != (B, T):
        raise ShapeError(f"linear_recurrence: gates must be {(B, T)}, got {gates.shape}")
    if x0.shape != (B, 2 * P):
        raise ShapeError(f"linear_recurrence: x0 must be {(B, 2 * P)}, got {x0.shape}")
    dc = _complex(drive.data)  # (B, T, P)
    decay = gates[..., None] * _complex(lam.data)  # (B, T, P)
    xs = np.empty((B, T, P), dtype=np.complex128)
    x = x_init = _complex(x0)
    for t in range(T):
        x = np.multiply(decay[:, t], x, out=xs[:, t])
        x += dc[:, t]

    def vjp(g):
        w = _complex(g)  # adjoint of xs, (B, T, P)
        decay_conj = np.conj(decay)
        gd = np.empty_like(xs)
        acc = np.zeros((B, P), dtype=np.complex128)
        for t in range(T - 1, -1, -1):
            acc = np.add(w[:, t], acc, out=gd[:, t])
            if t:
                acc = decay_conj[:, t] * acc
        x_prev = np.concatenate((x_init[:, None], xs[:, :-1]), axis=1)
        terms = np.conj(x_prev) * gd * gates[..., None]
        glam = terms.reshape(B * T, P).sum(axis=0)
        return _real(glam), _real(gd)

    return _make(_real(xs), (lam, drive), vjp)
