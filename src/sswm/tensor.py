"""Minimal float64 tensor library with reverse-mode automatic differentiation.

Everything downstream (state-space layers, world models, policies) is built on
this fixed op set. Three layers are single graph nodes with analytic VJPs:
affine (x @ w + b), layer_norm and linear_recurrence. Tensors hold real
float64 arrays, so the whole engine is real-valued. Complex values have one
layout: a trailing axis of width 2P packing [Re x | Im x] (P complex values
per row), the layout of linear_recurrence's diagonal, drive and states.

Graphs are write-once: a backward pass consumes the graph and a second call on
the same loss raises. Forward passes are pure, so tensors may be shared
read-only across threads; concurrent backward on one graph is not supported.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

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
    "logsumexp",
    "tsum",
    "tmean",
    "concat",
    "tslice",
    "reshape",
    "straight_through",
    "l2_norm",
    "linear_recurrence",
    "backward",
    "grad_check",
    "GradCheckReport",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class GraphError(RuntimeError):
    """Raised on misuse of the computation graph (e.g. repeated backward)."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only fast path)."""
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

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        """Constant view of the value: blocks gradient flow (stop-gradient)."""
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    # Operator sugar; scalars and ndarrays are promoted to constant tensors.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise _broadcast_error("mul", a, b) from None

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    out = x * cdf

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return (g * (cdf + x * pdf),)

    return _make(out, (a,), vjp)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Input gradient of a softmax with output `out` under output gradient g."""
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out = _softmax(a.data, axis)
    return _make(out, (a,), lambda g: (_softmax_vjp(out, g, axis),))


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = m + np.log(s)
    if not keepdims:
        out = np.squeeze(out, axis=axis)

    def vjp(g):
        gg = np.expand_dims(g, axis) if not keepdims else g
        return (gg * (e / s),)

    return _make(out, (a,), vjp)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.shape).copy(),)

    return _make(out, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for 1-D and 2-D operands, and (..., k) @ (k, m) -> (..., m).

    An a of more than two dims is flattened to rows (..., k) -> (N, k), so
    the product is one 2-D matmul whatever the leading shape.
    """
    if a.data.ndim == 0 or b.data.ndim not in (1, 2) or (a.data.ndim > 2 and b.data.ndim != 2):
        raise ShapeError(f"matmul: only 1-D/2-D or (..., k) @ (k, m) operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if a.data.ndim >= 2 and b.data.ndim == 2:
        rows = a.data.reshape(-1, a.shape[-1])
        out = (rows @ b.data).reshape(a.shape[:-1] + b.shape[1:])

        def vjp(g):
            g_rows = g.reshape(-1, b.shape[1])
            return (g_rows @ b.data.T).reshape(a.shape), rows.T @ g_rows

        return _make(out, (a, b), vjp)
    out = a.data @ b.data

    def vjp(g):
        ad, bd = a.data, b.data
        if ad.ndim == 1 and bd.ndim == 1:  # dot product
            return g * bd, g * ad
        if ad.ndim == 2:  # (n,k)@(k,) -> (n,)
            return np.outer(g, bd), ad.T @ g
        # (k,)@(k,m) -> (m,)
        return bd @ g, np.outer(ad, g)

    return _make(out, (a, b), vjp)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: x (N, n_in), w (n_in, n_out), b (n_out,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"affine: widths differ, {x.shape} @ {w.shape} + {b.shape}")
    out = x.data @ w.data + b.data

    def vjp(g):
        gx = g @ w.data.T if x.requires_grad else None
        return gx, x.data.T @ g, g.sum(axis=0)

    return _make(out, (x, w, b), vjp)


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
    # Each mean is the sum and division numpy's mean runs, without its wrapper.
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / width
    var = (centered * centered).sum(axis=-1, keepdims=True) / width
    inv = np.exp(-0.5 * np.log(var + eps))
    normed = centered * inv
    out = normed * scale.data + shift.data

    def vjp(g):
        rows = g.reshape(-1, width)
        gn = g * scale.data
        gn_mean = gn.sum(axis=-1, keepdims=True) / width
        gx = inv * (gn - gn_mean - normed * ((gn * normed).sum(axis=-1, keepdims=True) / width))
        return gx, (rows * normed.reshape(-1, width)).sum(axis=0), rows.sum(axis=0)

    return _make(out, (x, scale, shift), vjp)


def l2_norm(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    sq = (a.data * a.data).sum(axis=axis, keepdims=keepdims)
    out = np.sqrt(sq)

    def vjp(g):
        # Subgradient 0 at the origin.
        denom = np.where(out == 0.0, 1.0, out)
        gg = g / denom
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        elif axis is None:
            gg = np.asarray(gg)
        return (gg * a.data,)

    return _make(out, (a,), vjp)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
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


def straight_through(value: np.ndarray, carrier: Tensor) -> Tensor:
    """Forward `value` as-is; route gradients to `carrier` with identity Jacobian.

    The straight-through estimator for discrete samples: the returned tensor
    holds the sampled value exactly, while backward behaves as if the op were
    the (differentiable) carrier, e.g. class probabilities.
    """
    if value.shape != carrier.shape:
        raise ShapeError(f"straight_through: value {value.shape} vs carrier {carrier.shape}")
    return _make(np.asarray(value, dtype=np.float64), (carrier,), lambda g: (g,))


# ---------------------------------------------------------------------------
# complex values, packed [Re | Im] in a trailing axis of width 2P
# ---------------------------------------------------------------------------


def _unpack(x: np.ndarray) -> np.ndarray:
    """Complex values of a packed (..., 2P) [Re | Im] array, as (..., P) complex128."""
    p = x.shape[-1] // 2
    z = np.empty(x.shape[:-1] + (p,), dtype=np.complex128)
    z.real = x[..., :p]
    z.imag = x[..., p:]
    return z


def _pack(z: np.ndarray) -> np.ndarray:
    """Packed (..., 2P) [Re | Im] array of (..., P) complex values."""
    return np.concatenate([z.real, z.imag], axis=-1)


def linear_recurrence(lam: Tensor, drive: Tensor, gates: np.ndarray, x0: Tensor | None = None) -> Tensor:
    """Gated diagonal complex recurrence x_t = gate_t * lam * x_{t-1} + drive_t.

    lam: (2P,) packed [Re lam | Im lam]; drive: (B, T, 2P), each row packing
    [Re drive_t | Im drive_t]; gates: (B, T) float 0/1 array (constant, 0
    resets the state). Returns x: (B, T, 2P) in the same packed layout,
    starting from the carried state x0: (B, 2P), packed alike, or from zero
    when x0 is None; a gate of 0 at t=0 drops x0. The whole scan is one graph
    node with an analytically derived adjoint, which is exactly
    backpropagation through time over the unrolled recurrence; x0's adjoint is
    the accumulator carried past t=0, gate_0 * conj(lam) * acc_0. The loop
    runs on complex values: a loop over the real halves was measured slower at
    training shapes (2x at B=8, T=16).
    """
    if lam.data.ndim != 1 or lam.shape[0] % 2:
        raise ShapeError(f"linear_recurrence: lam must be packed (2P,), got {lam.shape}")
    P = lam.shape[0] // 2
    if drive.data.ndim != 3 or drive.shape[2] != 2 * P:
        raise ShapeError(f"linear_recurrence: drive must be (B,T,{2 * P}), got {drive.shape}")
    B, T, _ = drive.shape
    if gates.shape != (B, T):
        raise ShapeError(f"linear_recurrence: gates must be {(B, T)}, got {gates.shape}")
    if x0 is not None and x0.shape != (B, 2 * P):
        raise ShapeError(f"linear_recurrence: x0 must be {(B, 2 * P)}, got {x0.shape}")
    lamc = _unpack(lam.data)  # (P,)
    dc = _unpack(drive.data)  # (B, T, P)
    gt = gates[..., None]  # (B, T, 1)
    xs = np.empty((B, T, P), dtype=np.complex128)
    x = x_init = 0.0 if x0 is None else _unpack(x0.data)
    for t in range(T):
        x = gt[:, t] * (lamc * x) + dc[:, t]
        xs[:, t] = x

    def vjp(g):
        w = _unpack(g)  # adjoint of xs, (B, T, P)
        lam_conj = np.conj(lamc)
        gd = np.empty_like(xs)
        glam = np.zeros(P, dtype=np.complex128)
        acc = np.zeros((B, P), dtype=np.complex128)
        for t in range(T - 1, -1, -1):
            acc = w[:, t] + acc
            gd[:, t] = acc
            x_prev = xs[:, t - 1] if t > 0 else x_init
            glam += (gt[:, t] * np.conj(x_prev) * acc).sum(axis=0)
            acc = gt[:, t] * lam_conj * acc
        return (_pack(glam), _pack(gd), _pack(acc))[: len(parents)]

    parents = (lam, drive) if x0 is None else (lam, drive, x0)
    return _make(_pack(xs), parents, vjp)


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; grads accumulate into leaves.

    The graph is consumed: calling backward twice on the same loss raises.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._consumed:
        raise GraphError("backward: graph already consumed; rerun the forward pass")
    if not loss.requires_grad:
        raise GraphError("backward: loss does not require grad")

    # Iterative topological sort (graphs can be deeper than the recursion limit).
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            parent_grads = node._vjp(g)
            for p, pg in zip(node._parents, parent_grads):
                if not p.requires_grad or pg is None:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg
            node._vjp = None
            node._consumed = True
        else:
            # Leaf: accumulate into .grad.
            node.grad = g if node.grad is None else node.grad + g
    loss._consumed = True


@dataclass
class GradCheckReport:
    """Comparison of backward gradients against central finite differences."""

    max_rel_err: float = 0.0
    max_abs_err: float = 0.0
    per_leaf: dict = field(default_factory=dict)

    def ok(self, tol: float) -> bool:
        return self.max_rel_err < tol


def grad_check(
    fn,
    leaves: dict[str, Tensor],
    epsilon: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Check d fn / d leaf against central finite differences.

    fn must rebuild its graph on every call and return a scalar Tensor. When
    max_coords is set, only that many randomly chosen coordinates per leaf are
    probed (full sweep otherwise). Relative error is measured against the
    larger coordinate magnitude, floored at 0.1% of the largest gradient seen
    across all leaves: central differences carry roundoff noise proportional
    to the loss scale, so near-zero coordinates cannot be resolved tighter.
    """
    if epsilon <= 0:
        raise ValueError("grad_check: epsilon must be positive")
    for leaf in leaves.values():
        leaf.zero_grad()
    loss = fn()
    backward(loss)
    analytic = {name: (t.grad if t.grad is not None else np.zeros_like(t.data)) for name, t in leaves.items()}

    by_leaf: dict[str, list[tuple[float, float]]] = {}
    for name, leaf in leaves.items():
        flat = leaf.data.flat  # writes through, whatever the memory order
        n = leaf.data.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = make_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        pairs = []
        for i in coords:
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(fn().data)
            flat[i] = orig - epsilon
            f_minus = float(fn().data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * epsilon)
            an = analytic[name].reshape(-1)[i]
            pairs.append((float(an), fd))
        by_leaf[name] = pairs

    scale = max(
        (max(abs(an), abs(fd)) for pairs in by_leaf.values() for an, fd in pairs),
        default=0.0,
    )
    floor = max(1e-6, 1e-3 * scale)
    report = GradCheckReport()
    for name, pairs in by_leaf.items():
        worst_rel = 0.0
        worst_abs = 0.0
        for an, fd in pairs:
            abs_err = abs(an - fd)
            rel_err = abs_err / max(abs(an), abs(fd), floor)
            worst_rel = max(worst_rel, rel_err)
            worst_abs = max(worst_abs, abs_err)
        report.per_leaf[name] = {"max_rel_err": worst_rel, "max_abs_err": worst_abs}
        report.max_rel_err = max(report.max_rel_err, worst_rel)
        report.max_abs_err = max(report.max_abs_err, worst_abs)
    return report
