"""Discrete subgoal autoencoder over deterministic world states.

Compresses h into a small matrix of categorical codes (default 8 vectors of
size 8) and decodes codes back to the h space. Trained with an L2
reconstruction term on a sampled code plus a KL pull toward the uniform code
prior. Because the autoencoder models the distribution of visited states, its
reconstruction residual doubles as a novelty signal on unfamiliar states.

Only the deterministic part of the latent state goes in; the stochastic part
is deliberately excluded (it is too weakly controllable to make a useful
target).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dists
from .nn import MLP
from .tensor import Tensor, add, l2_norm, mul, neg, no_grad, reshape, softmax, tmean, tsum


@dataclass
class SubgoalConfig:
    h_width: int
    n_codes: int = 8
    code_size: int = 8
    mlp_units: int = 64
    mlp_layers: int = 1
    beta: float = 0.5

    @property
    def flat(self) -> int:
        return self.n_codes * self.code_size


class SubgoalAutoencoder:
    def __init__(self, rng: np.random.Generator, cfg: SubgoalConfig):
        self.cfg = cfg
        sizes_enc = [cfg.h_width] + [cfg.mlp_units] * cfg.mlp_layers + [cfg.flat]
        sizes_dec = [cfg.flat] + [cfg.mlp_units] * cfg.mlp_layers + [cfg.h_width]
        self.encoder = MLP(rng, sizes_enc)
        self.decoder = MLP(rng, sizes_dec)

    def params(self, prefix: str = "ae") -> dict[str, Tensor]:
        out = self.encoder.params(f"{prefix}.enc")
        out.update(self.decoder.params(f"{prefix}.dec"))
        return out

    def encode(self, h: Tensor, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
        """(logits, straight-through one-hot sample), shapes (N, n_codes, code_size).

        Plain softmax codes, no uniform mixing: the KL term of the loss keeps
        the code distribution from collapsing instead.
        """
        n = h.shape[0]
        logits = reshape(self.encoder(h), (n, self.cfg.n_codes, self.cfg.code_size))
        sample = dists.sample_straight_through(softmax(logits, axis=-1), rng)
        return logits, sample

    def decode(self, codes: Tensor) -> Tensor:
        """Codes (N, n_codes, code_size) or flat (N, n_codes*code_size) -> (N, h_width)."""
        if len(codes.shape) == 3:
            codes = reshape(codes, (codes.shape[0], self.cfg.flat))
        return self.decoder(codes)

    def loss(self, h: Tensor, rng: np.random.Generator, sample_mode: str = "sample") -> tuple[Tensor, dict]:
        """L2 reconstruction of h from one sampled code + beta * KL(codes || uniform)."""
        n = h.shape[0]
        logits = reshape(self.encoder(h), (n, self.cfg.n_codes, self.cfg.code_size))
        probs = softmax(logits, axis=-1)
        code = dists.sample_straight_through(probs, rng) if sample_mode == "sample" else probs
        recon = self.decode(code)
        resid = add(recon, neg(h.detach() if h.requires_grad else h))
        recon_term = tmean(l2_norm(resid, axis=1))
        uniform = Tensor(np.full(self.cfg.code_size, 1.0 / self.cfg.code_size))
        kl_term = tmean(tsum(dists.kl_categorical(probs, uniform), axis=-1))
        total = add(recon_term, mul(kl_term, Tensor(self.cfg.beta)))
        return total, {"recon": recon_term.item(), "kl": kl_term.item(), "total": total.item()}

    def novelty(self, h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Round-trip residual norm per row (>= 0), using sampled codes."""
        with no_grad():
            _, code = self.encode(Tensor(h), rng)
            recon = self.decode(code)
        return np.sqrt(((h - recon.data) ** 2).sum(axis=-1))
