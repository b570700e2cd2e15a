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
from .tensor import Tensor, _l2_norm, _softmax, add, l2_norm, log, mul, neg, reshape, softmax, tmean, tsum

KL_BETA = 0.5  # weight of the KL pull toward the uniform code prior; set here, not tuned


@dataclass
class SubgoalConfig:
    h_width: int
    n_codes: int = 8
    code_size: int = 8
    mlp_units: int = 64

    @property
    def flat(self) -> int:
        return self.n_codes * self.code_size


class SubgoalAutoencoder:
    def __init__(self, rng: np.random.Generator, cfg: SubgoalConfig):
        self.cfg = cfg
        self.encoder = MLP(rng, [cfg.h_width, cfg.mlp_units, cfg.flat])
        self.decoder = MLP(rng, [cfg.flat, cfg.mlp_units, cfg.h_width])

    def encode(self, h: Tensor, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
        """(probabilities, straight-through one-hot sample), shapes (N, n_codes, code_size).

        Plain softmax codes, no uniform mixing: the KL term of the loss keeps
        the code distribution from collapsing instead.
        """
        n = h.shape[0]
        probs = softmax(reshape(self.encoder(h), (n, self.cfg.n_codes, self.cfg.code_size)))
        return probs, dists.sample_straight_through(probs, rng)

    def decode(self, codes: Tensor) -> Tensor:
        """Codes (N, n_codes, code_size) -> (N, h_width)."""
        return self.decoder(reshape(codes, (codes.shape[0], self.cfg.flat)))

    def loss(self, h: Tensor, rng: np.random.Generator) -> tuple[Tensor, dict]:
        """L2 reconstruction of h (a constant target) from one sampled code + KL_BETA * KL(codes || uniform).

        The KL to the uniform prior over K classes is taken as sum p * log(K * p):
        near-uniform codes make each log(K * p) small, where log p - log(1/K)
        would sum terms of order log K into a total many orders smaller.
        """
        probs, code = self.encode(h, rng)
        resid = add(self.decode(code), neg(h.detach()))
        recon_term = tmean(l2_norm(resid))
        scaled = mul(probs, Tensor(float(self.cfg.code_size)))
        kl_term = tmean(tsum(tsum(mul(probs, log(scaled)))))
        total = add(recon_term, mul(kl_term, Tensor(KL_BETA)))
        return total, {"recon": recon_term.item(), "kl": kl_term.item(), "total": total.item()}

    def novelty(self, h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Round-trip residual norm per row (>= 0), using sampled codes.

        encode, decode and l2_norm's forwards on ndarrays (h: (N, h_width)),
        the MLPs by `infer`: the values of the graph path, and no Tensor built.
        """
        n = h.shape[0]
        probs = _softmax(self.encoder.infer(h).reshape(n, self.cfg.n_codes, self.cfg.code_size))
        return _l2_norm(h - self.decoder.infer(dists.sample_one_hot(probs, rng).reshape(n, self.cfg.flat)))
