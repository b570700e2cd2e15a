"""Small neural-net building blocks (linear layers, MLPs, layer norm, AdamW).

Parameters are plain Tensors held as module attributes. `parameters` finds
them by walking a module's attributes and names each by its attribute path
(`wm.encoder.layers.0.w`), so a module lists its parameters once, in its
`__init__`, and the optimizer never needs to know its structure. An
optimizer takes its parameters' storage over at construction: each
`Tensor.data` becomes a view of one flat float64 vector, so an update is a
few whole-vector calls rather than a dozen per parameter. Parameters are
therefore loaded by writing into `p.data` in place, never by rebinding it,
and one optimizer owns a given set of parameters.

Linear and MLP have two forwards: called on a Tensor they record graph
nodes, for training; `infer` takes and returns ndarrays and builds no Tensor,
for inference (acting, imagination, novelty, the goal decode).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .tensor import Tensor, _affine, _gelu, affine, gelu, layer_norm

LN_EPS = 1e-6  # LayerNorm's variance floor, flax.linen.LayerNorm's default
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's defaults (Kingma & Ba, arXiv 1412.6980)
CLIP_NORM = 100.0  # global gradient-norm bound, DreamerV3's actor-critic clip (arXiv 2301.04104)
MAX_SKIPS_IN_A_ROW = 10  # non-finite steps in a row after which AdamW.step raises


def parameters(module, prefix: str) -> dict[str, Tensor]:
    """Every Tensor with requires_grad reachable through module's attributes, by attribute path.

    The walk goes through lists by index, objects by vars() and other
    Mappings by key, in insertion order, so a Tensor at
    module.stack.ssms[1].im is named f"{prefix}.stack.ssms.1.im". Anything
    else (numbers, ndarrays, a Tensor without requires_grad) holds no
    parameter. There is no cycle or sharing check: each parameter is reached
    by one path.
    """
    out: dict[str, Tensor] = {}

    def walk(obj, path: str) -> None:
        if isinstance(obj, Tensor):
            if obj.requires_grad:
                out[path] = obj
            return
        if isinstance(obj, list):
            items = enumerate(obj)
        elif hasattr(obj, "__dict__"):  # before the Mapping test, an ABC check that costs more
            items = vars(obj).items()
        elif isinstance(obj, Mapping):
            items = obj.items()
        else:
            return
        for key, value in items:
            walk(value, f"{path}.{key}")

    walk(module, prefix)
    return out


class Linear:
    """Affine map for 2-D inputs: (N, n_in) -> (N, n_out), one tensor.affine node; `infer` runs it on ndarrays."""

    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int):
        std = 1.0 / np.sqrt(n_in)  # LeCun normal
        self.w = Tensor(rng.normal(0.0, std, size=(n_in, n_out)), requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.w, self.b)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return _affine(x, self.w.data, self.b.data)


class MLP:
    """Stack of Linear layers with GELU between them.

    `infer` is the same forward on ndarrays, through the numpy forwards that
    the graph ops call (`tensor._affine`, `tensor._gelu`): the graph's values
    bit for bit, and no Tensor built.
    """

    def __init__(self, rng, sizes: list[int]):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layers = [Linear(rng, sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = gelu(layer(x))
        return self.layers[-1](x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers[:-1]:
            x = _gelu(layer.infer(x))[0]
        return self.layers[-1].infer(x)


class LayerNorm:
    """Normalization over the trailing axis with learned scale and shift, one tensor.layer_norm node."""

    def __init__(self, width: int):
        self.scale = Tensor(np.ones(width), requires_grad=True)
        self.shift = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.scale, self.shift, LN_EPS)


class AdamW:
    """Adam with global gradient-norm clipping; no weight decay, despite the name.

    Betas, eps and the clip bound are the fixed constants BETA1, BETA2,
    ADAM_EPS and CLIP_NORM; lr defaults to DreamerV3's world-model rate.

    Storage is flat. Construction copies the parameters into one contiguous
    float64 vector and rebinds each `p.data` to a reshaped view of it. The
    first step allocates the state as four more flat vectors in the order of
    `params`: the two moments, the gathered gradient and one scratch vector.
    The state is kept from step to step, because vectors of this size come
    from fresh mmap'd pages that would fault in on every step; it is
    allocated late, so an optimizer that never steps (an agent that only
    acts) holds none. A step applies the update as whole-vector ufunc calls
    in textbook Adam's per-element expression order, so only the norm's
    summation order depends on the layout.

    Every parameter must have a grad at each step; a missing one raises
    ValueError naming it, before any state changes. A step whose gradient
    norm is not finite is skipped whole: parameters, moments and the step
    count t stay as they were, the grads are cleared, and the skip is counted
    in `skipped`. The MAX_SKIPS_IN_A_ROW-th skip in a row raises
    FloatingPointError; a finite step ends the run.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        self.skipped = 0
        self._skips_in_a_row = 0
        self._flat = np.concatenate([p.data for p in params.values()], axis=None)
        for p, view in zip(params.values(), self._views(self._flat)):
            p.data = view
        self._m_flat = self._v_flat = self._grad = self._scratch = None

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a flat vector, in the order of `params`."""
        views, start = [], 0
        for p in self.params.values():
            end = start + p.data.size
            views.append(flat[start:end].reshape(p.shape))
            start = end
        return views

    def step(self) -> float:
        """Apply one update from accumulated grads; returns the raw grad norm."""
        missing = [k for k, p in self.params.items() if p.grad is None]
        if missing:
            raise ValueError(f"AdamW.step: no gradient for {', '.join(missing)}")
        if self._grad is None:
            self._m_flat, self._v_flat, self._grad, self._scratch = np.zeros((4, self._flat.size))
        g, s = self._grad, self._scratch
        np.concatenate([p.grad for p in self.params.values()], axis=None, out=g)
        for p in self.params.values():
            p.grad = None
        norm = float(np.sqrt(g @ g))
        if not np.isfinite(norm):
            self.skipped += 1
            self._skips_in_a_row += 1
            if self._skips_in_a_row == MAX_SKIPS_IN_A_ROW:
                raise FloatingPointError(f"AdamW.step: {self._skips_in_a_row} steps in a row had a non-finite gradient norm")
            return norm
        self._skips_in_a_row = 0
        self.t += 1
        if norm > CLIP_NORM:
            g *= CLIP_NORM / (norm + 1e-12)
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        m, v = self._m_flat, self._v_flat
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=s)
        m += s
        v *= BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - BETA2
        v += s
        # update = (m / b1c) / (sqrt(v / b2c) + eps), built in g
        np.divide(v, b2c, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, b1c, out=g)
        g /= s
        g *= self.lr
        self._flat -= g
        return norm
