"""Latent world model on a resettable S5 stack.

Six jointly trained networks: observation encoder (categorical posterior),
sequence model (S5 stack), dynamics predictor (categorical prior),
reward head, continue head and observation decoder. The sequence model's
internal states double as the deterministic part h_t of the latent state; the
stochastic part z_t is a matrix of one-hot categoricals sampled straight
through with a 1% uniform mixture on the class probabilities.

Training consumes whole replay windows (posteriors encode in parallel, one
scan over the window); imagination rolls the same networks forward one step
at a time from the prior only, never touching observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dists
from .nn import MLP, Linear, parameters
from .s5 import S5Stack
from .tensor import (
    Tensor,
    add,
    concat,
    mul,
    neg,
    reshape,
    tmean,
    tslice,
    tsum,
)

# DreamerV3's (arXiv 2301.04104) uniform mixture, KL weights and free-bits floor in nats
UNIMIX = 0.01
A_DYN = 0.5  # trains the prior
A_REP = 0.1  # trains the posterior
FREE_BITS = 1.0


@dataclass
class WmConfig:
    obs_dim: int
    action_dim: int
    n_cats: int = 8
    n_classes: int = 8
    model_dim: int = 32
    state_dim: int = 16
    n_blocks: int = 2
    mlp_units: int = 64

    @property
    def z_flat(self) -> int:
        return self.n_cats * self.n_classes

    @property
    def h_width(self) -> int:
        """Width of the deterministic state h_t: each block's 2P interleaved (Re x, Im x) pairs."""
        return self.n_blocks * 2 * self.state_dim


@dataclass
class LatentState:
    """Composite latent: deterministic h plus categorical one-hot matrix z.

    The start state is all zeros, z included: acting starts and resets there,
    and the scan over a training window feeds a zero z before its first record.
    """

    h: np.ndarray  # (B, h_width)
    z: np.ndarray  # (B, n_cats, n_classes), one-hot rows


@dataclass
class WmLossReport:
    l_pred: float
    l_dyn: float
    l_rep: float
    total: float
    reward_nll: float
    continue_nll: float
    obs_nll: float


class WorldModel:
    def __init__(self, rng: np.random.Generator, cfg: WmConfig):
        self.cfg = cfg
        c = cfg
        self.encoder = MLP(rng, [c.obs_dim, c.mlp_units, c.z_flat])
        self.in_proj = Linear(rng, c.z_flat + c.action_dim, c.model_dim)
        self.stack = S5Stack(rng, c.model_dim, c.state_dim, c.n_blocks)
        self.h_width = c.h_width
        self.dyn = MLP(rng, [c.model_dim, c.mlp_units, c.z_flat])
        feat = self.h_width + c.z_flat
        self.reward_head = MLP(rng, [feat, c.mlp_units, 1])
        self.cont_head = MLP(rng, [feat, c.mlp_units, 1])
        self.decoder = MLP(rng, [feat, c.mlp_units, c.obs_dim])

    def params(self) -> dict[str, Tensor]:
        return parameters(self, "wm")

    # -- encoder / dynamics categoricals ------------------------------------

    def encode(self, obs: Tensor) -> Tensor:
        """Unimixed posterior probabilities q(z|o): (N, obs_dim) -> (N, n_cats, n_classes).

        The posterior is independent of h, which is what allows all window
        positions to encode in parallel before the single scan.
        """
        self._check_width(obs)
        n = obs.shape[0]
        return dists.unimix_probs(reshape(self.encoder(obs), (n, self.cfg.n_cats, self.cfg.n_classes)), UNIMIX)

    def encode_step(self, obs: np.ndarray) -> np.ndarray:
        """encode for acting: ndarrays in and out, the same values, and no Tensor built."""
        self._check_width(obs)
        logits = self.encoder.infer(obs).reshape(obs.shape[0], self.cfg.n_cats, self.cfg.n_classes)
        return dists._unimix_probs(logits, UNIMIX)[0]

    def _check_width(self, obs) -> None:
        if obs.shape[-1] != self.cfg.obs_dim:
            raise ValueError(f"observation width {obs.shape[-1]} != configured {self.cfg.obs_dim}")

    def _prior(self, m: Tensor) -> Tensor:
        """Unimixed prior probabilities p(z|m): (N, model_dim) -> (N, n_cats, n_classes)."""
        n = m.shape[0]
        return dists.unimix_probs(reshape(self.dyn(m), (n, self.cfg.n_cats, self.cfg.n_classes)), UNIMIX)

    # -- sequence pass -------------------------------------------------------

    def _seq_inputs(self, z: Tensor, action: np.ndarray, resets: np.ndarray) -> Tensor:
        """u_t = proj(z_{t-1}, a_{t-1}); z shifted one step, zeroed at resets."""
        bsz, t_len = action.shape[:2]
        zf = reshape(z, (bsz, t_len, self.cfg.z_flat))
        zeros = Tensor(np.zeros((bsz, 1, self.cfg.z_flat)))
        z_prev = concat([zeros, tslice(zf, (slice(None), slice(0, t_len - 1)))], axis=1)
        keep = (1.0 - resets.astype(np.float64))[:, :, None]
        z_prev = mul(z_prev, Tensor(keep))
        u = concat([z_prev, Tensor(action)], axis=2)
        flat = reshape(u, (bsz * t_len, self.cfg.z_flat + self.cfg.action_dim))
        return reshape(self.in_proj(flat), (bsz, t_len, self.cfg.model_dim))

    def forward_sequence(self, obs: np.ndarray, action: np.ndarray, resets: np.ndarray, rng) -> dict:
        """Full training pass over (B, T) windows; returns graph tensors.

        Records in a window follow the convention that `action[t]` led into
        `obs[t]` (zeros at episode starts), so the scan at position t consumes
        (z_{t-1}, a_{t-1}) and yields (m_t, h_t) aligned with obs[t]. z is a
        straight-through sample of the posterior probabilities, so the KL
        terms and the sample send their gradients into one posterior node.
        Every window starts from the zero start state, which the S5 stack
        takes as its h0.
        """
        bsz, t_len, _ = obs.shape
        if t_len < 2:
            raise ValueError("training windows must have length >= 2")
        post_probs = self.encode(Tensor(obs.reshape(bsz * t_len, self.cfg.obs_dim)))
        z = reshape(dists.sample_straight_through(post_probs, rng), (bsz, t_len, self.cfg.n_cats, self.cfg.n_classes))
        u = self._seq_inputs(z, action, resets)
        m, h = self.stack.forward(u, resets, np.zeros((bsz, self.h_width)))
        n = bsz * t_len
        feats = concat([reshape(h, (n, self.h_width)), reshape(z, (n, self.cfg.z_flat))], axis=1)
        return {
            "post_probs": post_probs,
            "prior_probs": self._prior(reshape(m, (n, self.cfg.model_dim))),
            "z": z,
            "h": h,
            "reward_sym": reshape(self.reward_head(feats), (n,)),
            "cont_logit": reshape(self.cont_head(feats), (n,)),
            "obs_pred": self.decoder(feats),
        }

    def loss(self, batch: dict, rng) -> tuple[Tensor, WmLossReport, dict]:
        """Joint loss: prediction NLLs plus free-bits KL terms.

        l_dyn trains the prior toward the (stopped) posterior; l_rep trains
        the posterior toward the (stopped) prior; both are clamped at the
        1-nat floor per window position before averaging.
        """
        obs, action = batch["obs"], batch["action"]
        resets = batch["reset"]
        bsz, t_len, _ = obs.shape
        out = self.forward_sequence(obs, action, resets, rng)

        reward_target = Tensor(dists.symlog_np(batch["reward"].reshape(-1)))
        r_err = add(out["reward_sym"], neg(reward_target))
        reward_nll = mul(tmean(mul(r_err, r_err)), Tensor(0.5))
        continue_nll = tmean(dists.bernoulli_nll(out["cont_logit"], batch["cont"].reshape(-1)))
        o_err = add(out["obs_pred"], neg(Tensor(obs.reshape(bsz * t_len, -1))))
        obs_nll = tmean(mul(tsum(mul(o_err, o_err)), Tensor(0.5)))
        l_pred = add(add(reward_nll, continue_nll), obs_nll)

        post, prior = out["post_probs"], out["prior_probs"]
        kl_dyn = tsum(dists.kl_categorical(post.detach(), prior))
        kl_rep = tsum(dists.kl_categorical(post, prior.detach()))
        l_dyn = tmean(dists.free_bits(kl_dyn, FREE_BITS))
        l_rep = tmean(dists.free_bits(kl_rep, FREE_BITS))

        total = add(l_pred, add(mul(l_dyn, Tensor(A_DYN)), mul(l_rep, Tensor(A_REP))))
        report = WmLossReport(
            l_pred=l_pred.item(),
            l_dyn=l_dyn.item(),
            l_rep=l_rep.item(),
            total=total.item(),
            reward_nll=reward_nll.item(),
            continue_nll=continue_nll.item(),
            obs_nll=obs_nll.item(),
        )
        return total, report, out

    # -- stepwise interface ---------------------------------------------------

    def wm_step(self, h_prev: np.ndarray, z_prev: np.ndarray, a_prev: np.ndarray, ctx: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        """One sequence-model step: (h_{t-1}, z_{t-1}, a_{t-1}) -> (h_t, prior probabilities p(z_t|m_t)).

        ndarrays in and out, and no Tensor is built: in_proj and the prior's
        MLP run by their `infer` forwards, the S5 stack by its numpy step.
        z_prev: (B, n_cats, n_classes) one-hots (flattened internally). A row
        starts an episode from all-zero h_prev, z_prev and a_prev, the start
        state, so a caller resets it by zeroing them. ctx is the S5 step
        context, self.stack.discretized(): per block two ndarrays, built
        without a Tensor and reused over many steps.
        """
        n, c = h_prev.shape[0], self.cfg
        u = np.concatenate([z_prev.reshape(n, c.z_flat), a_prev], axis=1)
        m, h = self.stack.step(h_prev, self.in_proj.infer(u), ctx)
        return h, dists._unimix_probs(self.dyn.infer(m).reshape(n, c.n_cats, c.n_classes), UNIMIX)[0]

    # -- imagination -----------------------------------------------------------

    def imagine(self, start: LatentState, act_fn, horizon: int, rng, start_entropy=None) -> dict:
        """Roll the model forward `horizon` steps under a policy, prior-only.

        act_fn(step_index, state_dict) -> one-hot actions (B, action_dim);
        state_dict carries h, z, reward, cont, entropy (all numpy). There is
        deliberately no observation input anywhere on this path, and the
        observation decoder does not run. The heads run by their `infer`
        forwards, the steps by wm_step from one step context of ndarrays, so
        no Tensor is built; the returned trajectory is plain numpy.
        """
        if horizon < 1:
            raise ValueError("imagination horizon must be >= 1")
        bsz = start.h.shape[0]
        c = self.cfg
        ctx = self.stack.discretized()
        h = np.empty((bsz, horizon + 1, start.h.shape[1]))
        z = np.empty((bsz, horizon + 1, c.n_cats, c.n_classes))
        actions = np.empty((bsz, horizon, c.action_dim))
        rewards = np.empty((bsz, horizon + 1))
        conts = np.empty((bsz, horizon + 1))
        entropies = np.zeros((bsz, horizon + 1))
        h[:, 0] = start.h
        z[:, 0] = start.z
        if start_entropy is not None:
            entropies[:, 0] = start_entropy
        for i in range(horizon + 1):
            feats = np.concatenate([h[:, i], z[:, i].reshape(bsz, c.z_flat)], axis=1)
            rewards[:, i] = dists.symexp_np(self.reward_head.infer(feats).reshape(bsz))
            conts[:, i] = 1.0 / (1.0 + np.exp(-self.cont_head.infer(feats).reshape(bsz)))
            if i == horizon:
                break
            state = {
                "h": h[:, i],
                "z": z[:, i],
                "reward": rewards[:, i],
                "cont": conts[:, i],
                "entropy": entropies[:, i],
            }
            a = act_fn(i, state)
            actions[:, i] = a
            h[:, i + 1], prior_probs = self.wm_step(h[:, i], z[:, i], a, ctx)
            z[:, i + 1] = dists.sample_one_hot(prior_probs, rng)
            entropies[:, i + 1] = dists.latent_entropy_np(prior_probs)
        return {
            "h": h,
            "z": z,
            "action": actions,
            "reward": rewards,
            "cont": conts,
            "entropy": entropies,
        }
