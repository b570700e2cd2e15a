"""Distribution helpers: categorical latents, Bernoulli heads, symlog scaling."""

from __future__ import annotations

from functools import cache

import numpy as np

from .tensor import Tensor, _make, _ones, _row_sum, _softmax, _softmax_vjp, _upper_ones, add, log, mul, neg, tsum


def symlog_np(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x))


def symexp_np(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * (np.exp(np.abs(x)) - 1.0)


def _unimix_probs(logits: np.ndarray, unimix: float) -> tuple[np.ndarray, np.ndarray]:
    """unimix_probs's numpy forward: (out, p), the mixture and the softmax p, which the VJP reuses."""
    p = _softmax(logits)
    return p * (1.0 - unimix) + unimix / logits.shape[-1], p


def unimix_probs(logits: Tensor, unimix: float) -> Tensor:
    """Softmax over the trailing axis mixed with a uniform floor, as one node.

    p * (1 - unimix) + unimix / k; its VJP is the softmax VJP of the output
    gradient scaled by (1 - unimix). Inference calls its numpy forward,
    `_unimix_probs`, directly.
    """
    out, p = _unimix_probs(logits.data, unimix)
    keep = 1.0 - unimix
    return _make(out, (logits,), lambda g: (_softmax_vjp(p, g * keep),))


@cache
def _eye(k: int) -> np.ndarray:
    """Read-only (k, k) identity: its row i is the one-hot of class i."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def one_hot(idx: np.ndarray, k: int) -> np.ndarray:
    """Float one-hot rows of width k for integer class indices in [0, k): (...,) -> (..., k), gathered from the identity."""
    return _eye(k).take(idx, axis=0)


def sample_one_hot(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF categorical sampling over the trailing axis; returns one-hots.

    The cumsum is one product with the upper-triangular ones, and the class
    index is the count of cumulative probabilities below the uniform draw,
    a product with a ones column. From two rows up, BLAS's gemm adds each
    row in order, as numpy's cumsum does, so the draws match numpy's bit for
    bit. A single row goes to gemv, which from width 8 adds in another
    order: a cumulative probability may move by an ulp, and a draw with it
    only if the uniform falls within that ulp.
    """
    k = probs.shape[-1]
    cum = probs.reshape(-1, k) @ _upper_ones(k)
    cum[:, -1] = 1.0  # guard rounding
    u = rng.random((cum.shape[0], 1))
    return one_hot(((u > cum) @ _ones(k)).astype(np.intp).reshape(probs.shape[:-1]), k)


def sample_straight_through(probs: Tensor, rng: np.random.Generator) -> Tensor:
    """Straight-through estimator of a categorical sample, as one node.

    The value is a one-hot sample of the probabilities over the trailing
    axis, exactly; the VJP passes the output gradient to the probabilities
    unchanged, as if the node were the identity on them.
    """
    return _make(sample_one_hot(probs.data, rng), (probs,), lambda g: (g,))


def kl_categorical(p: Tensor, q: Tensor) -> Tensor:
    """KL(p || q) over the trailing class axis; inputs are probability tensors."""
    return tsum(mul(p, add(log(p), neg(log(q)))))


def entropy_categorical(p: Tensor) -> Tensor:
    """Shannon entropy over the trailing class axis (nats)."""
    return neg(tsum(mul(p, log(p))))


def latent_entropy_np(p: np.ndarray) -> np.ndarray:
    """Entropy (nats) of a latent of independent categoricals: (..., n_cats, n_classes) -> (...).

    One row sum over the flattened n_cats * n_classes terms.
    """
    terms = p * np.log(p)
    return -_row_sum(terms.reshape(p.shape[:-2] + (-1,)))[..., 0]


def bernoulli_nll(logit: Tensor, target: np.ndarray) -> Tensor:
    """-log p(target) for a Bernoulli parameterized by a logit, as one node.

    softplus(logit) - target * logit, with softplus(x) = m + log(e^(x-m) +
    e^-m) for m = max(x, 0), finite for every finite logit; the VJP is
    g * (sigmoid(logit) - target), with sigmoid(x) = e^(x-m) / (e^(x-m) + e^-m).
    The target is a constant.
    """
    x = logit.data
    m = np.maximum(x, 0.0)
    e = np.exp(x - m)
    s = e + np.exp(-m)
    out = m + np.log(s) - target * x
    return _make(out, (logit,), lambda g: (g * (e / s) - g * target,))


def free_bits(x: Tensor, floor: float) -> Tensor:
    """Elementwise max(floor, x); exerts no gradient where x is below the floor."""
    mask = (x.data > floor).astype(np.float64)
    return add(mul(x, Tensor(mask)), Tensor(floor * (1.0 - mask)))
