"""Distribution helpers: categorical latents, Bernoulli heads, symlog scaling."""

from __future__ import annotations

import numpy as np

from .tensor import (
    Tensor,
    add,
    concat,
    log,
    logsumexp,
    mul,
    neg,
    reshape,
    softmax,
    straight_through,
    tsum,
)


def symlog_np(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x))


def symexp_np(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * (np.exp(np.abs(x)) - 1.0)


def unimix_probs(logits: Tensor, unimix: float) -> Tensor:
    """Softmax over the trailing axis mixed with a uniform floor."""
    p = softmax(logits, axis=-1)
    if unimix <= 0.0:
        return p
    k = logits.shape[-1]
    return add(mul(p, Tensor(1.0 - unimix)), Tensor(np.full(k, unimix / k)))


def sample_one_hot(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF categorical sampling over the trailing axis; returns one-hots."""
    cum = probs.cumsum(axis=-1)
    cum[..., -1] = 1.0  # guard rounding
    u = rng.random(probs.shape[:-1] + (1,))
    idx = (u > cum).sum(axis=-1)
    out = np.zeros_like(probs)
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


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
