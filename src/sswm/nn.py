"""Small neural-net building blocks (linear layers, MLPs, layer norm, AdamW).

Parameters are plain Tensors collected into flat name->Tensor dicts so the
optimizer never needs to know the module structure.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, affine, gelu, layer_norm


class Linear:
    """Affine map for 2-D inputs: (N, n_in) -> (N, n_out), one tensor.affine node."""

    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int, scale: float | None = None):
        std = (1.0 / np.sqrt(n_in)) if scale is None else scale
        self.w = Tensor(rng.normal(0.0, std, size=(n_in, n_out)), requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.w, self.b)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class MLP:
    """Stack of Linear layers with GELU between them."""

    def __init__(self, rng, sizes: list[int]):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layers = [Linear(rng, sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = gelu(layer(x))
        return self.layers[-1](x)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}.l{i}"))
        return out


class LayerNorm:
    """Normalization over the trailing axis with learned scale and shift, one tensor.layer_norm node."""

    def __init__(self, width: int, eps: float = 1e-6):
        self.scale = Tensor(np.ones(width), requires_grad=True)
        self.shift = Tensor(np.zeros(width), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.scale, self.shift, self.eps)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.scale": self.scale, f"{prefix}.shift": self.shift}


class AdamW:
    """Adam with decoupled weight decay and global gradient-norm clipping.

    A step whose gradient norm is not finite is skipped whole: parameters,
    moments and the step count t stay as they were, the grads are cleared,
    and the skip is counted in `skipped`.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        clip_norm: float = 100.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self.t = 0
        self.skipped = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> float:
        """Apply one update from accumulated grads; returns the raw grad norm."""
        sq = 0.0
        for p in self.params.values():
            if p.grad is not None:
                sq += float((p.grad * p.grad).sum())
        norm = float(np.sqrt(sq))
        if not np.isfinite(norm):
            for p in self.params.values():
                p.grad = None
            self.skipped += 1
            return norm
        self.t += 1
        scale = 1.0
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad * scale
            m = self._m[k]
            v = self._v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update
            p.grad = None
        return norm
