"""Distribution helpers: categorical latents, Bernoulli heads, symlog scaling."""

from __future__ import annotations

import numpy as np

from .tensor import (
    Tensor,
    _make,
    _softmax,
    _softmax_vjp,
    add,
    concat,
    log,
    logsumexp,
    mul,
    neg,
    reshape,
    straight_through,
    tsum,
)


def symlog_np(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x))


def symexp_np(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * (np.exp(np.abs(x)) - 1.0)


def unimix_probs(logits: Tensor, unimix: float) -> Tensor:
    """Softmax over the trailing axis mixed with a uniform floor, as one node.

    p * (1 - unimix) + unimix / k; its VJP is the softmax VJP of the output
    gradient scaled by (1 - unimix).
    """
    p = _softmax(logits.data, -1)
    keep = 1.0 - unimix
    out = p * keep + unimix / logits.shape[-1]
    return _make(out, (logits,), lambda g: (_softmax_vjp(p, g * keep, -1),))


def one_hot(idx: np.ndarray, k: int) -> np.ndarray:
    """Float one-hot rows of width k for integer class indices: (...,) -> (..., k)."""
    return (idx[..., None] == np.arange(k)).astype(np.float64)


def sample_one_hot(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF categorical sampling over the trailing axis; returns one-hots."""
    cum = probs.cumsum(axis=-1)
    cum[..., -1] = 1.0  # guard rounding
    u = rng.random(probs.shape[:-1] + (1,))
    return one_hot((u > cum).sum(axis=-1), probs.shape[-1])


def sample_straight_through(probs: Tensor, rng: np.random.Generator) -> Tensor:
    """One-hot sample whose gradient is the identity into the probabilities."""
    return straight_through(sample_one_hot(probs.data, rng), probs)


def kl_categorical(p: Tensor, q: Tensor) -> Tensor:
    """KL(p || q) over the trailing class axis; inputs are probability tensors."""
    return tsum(mul(p, add(log(p), neg(log(q)))), axis=-1)


def entropy_categorical(p: Tensor) -> Tensor:
    """Shannon entropy over the trailing class axis (nats)."""
    return neg(tsum(mul(p, log(p)), axis=-1))


def entropy_categorical_np(p: np.ndarray) -> np.ndarray:
    return -(p * np.log(p)).sum(axis=-1)


def bernoulli_nll(logit: Tensor, target) -> Tensor:
    """-log p(target) for a Bernoulli parameterized by a logit.

    softplus(logit) - target*logit, with softplus expressed as
    logsumexp([logit, 0]) for stability.
    """
    target = target if isinstance(target, Tensor) else Tensor(target)
    shape = logit.shape
    stacked = concat(
        [reshape(logit, shape + (1,)), Tensor(np.zeros(shape + (1,)))], axis=-1
    )
    return add(logsumexp(stacked, axis=-1), neg(mul(target, logit)))


def free_bits(x: Tensor, floor: float) -> Tensor:
    """Elementwise max(floor, x); exerts no gradient where x is below the floor."""
    mask = (x.data > floor).astype(np.float64)
    return add(mul(x, Tensor(mask)), Tensor(floor * (1.0 - mask)))
