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
from .nn import MLP, Linear
from .s5 import ConfigError, S5Stack
from .tensor import (
    Tensor,
    add,
    concat,
    mul,
    neg,
    no_grad,
    reshape,
    tmean,
    tslice,
    tsum,
)


@dataclass
class WmConfig:
    obs_dim: int
    action_dim: int
    n_cats: int = 8
    n_classes: int = 8
    model_dim: int = 32
    state_dim: int = 16
    n_blocks: int = 2
    init_blocks: int = 2
    mlp_units: int = 64
    mlp_layers: int = 1
    unimix: float = 0.01
    a_dyn: float = 0.5
    a_rep: float = 0.1
    free_bits: float = 1.0

    @property
    def z_flat(self) -> int:
        return self.n_cats * self.n_classes

    @property
    def h_width(self) -> int:
        """Width of the deterministic state h_t: each block's packed [Re x | Im x]."""
        return self.n_blocks * 2 * self.state_dim


@dataclass
class LatentState:
    """Composite latent: deterministic h plus categorical one-hot matrix z."""

    h: np.ndarray  # (B, h_width)
    z: np.ndarray  # (B, n_cats, n_classes), one-hot rows

    def validate(self) -> None:
        rows = self.z.sum(axis=-1)
        if not np.allclose(rows, 1.0) or not np.isin(self.z, (0.0, 1.0)).all():
            raise ValueError("z rows must be one-hot")


@dataclass
class WmLossReport:
    l_pred: float
    l_dyn: float
    l_rep: float
    total: float
    reward_nll: float
    continue_nll: float
    obs_nll: float


def _mlp_sizes(n_in: int, units: int, layers: int, n_out: int) -> list[int]:
    return [n_in] + [units] * layers + [n_out]


class WorldModel:
    def __init__(self, rng: np.random.Generator, cfg: WmConfig):
        self.cfg = cfg
        c = cfg
        self.encoder = MLP(rng, _mlp_sizes(c.obs_dim, c.mlp_units, c.mlp_layers, c.z_flat))
        self.in_proj = Linear(rng, c.z_flat + c.action_dim, c.model_dim)
        self.stack = S5Stack(rng, c.model_dim, c.state_dim, c.n_blocks, c.init_blocks)
        self.h_width = c.h_width
        self.dyn = MLP(rng, _mlp_sizes(c.model_dim, c.mlp_units, c.mlp_layers, c.z_flat))
        feat = self.h_width + c.z_flat
        self.reward_head = MLP(rng, _mlp_sizes(feat, c.mlp_units, c.mlp_layers, 1))
        self.cont_head = MLP(rng, _mlp_sizes(feat, c.mlp_units, c.mlp_layers, 1))
        self.decoder = MLP(rng, _mlp_sizes(feat, c.mlp_units, c.mlp_layers, c.obs_dim))

    def params(self) -> dict[str, Tensor]:
        out = self.encoder.params("wm.enc")
        out.update(self.in_proj.params("wm.in_proj"))
        out.update(self.stack.params("wm.stack"))
        out.update(self.dyn.params("wm.dyn"))
        out.update(self.reward_head.params("wm.reward"))
        out.update(self.cont_head.params("wm.cont"))
        out.update(self.decoder.params("wm.decoder"))
        return out

    # -- encoder / dynamics categoricals ------------------------------------

    def encode(self, obs: Tensor) -> Tensor:
        """Posterior logits q(z|o): (N, obs_dim) -> (N, n_cats, n_classes).

        The posterior is independent of h, which is what allows all window
        positions to encode in parallel before the single scan.
        """
        if obs.shape[-1] != self.cfg.obs_dim:
            raise ConfigError(f"observation width {obs.shape[-1]} != configured {self.cfg.obs_dim}")
        n = obs.shape[0]
        return reshape(self.encoder(obs), (n, self.cfg.n_cats, self.cfg.n_classes))

    def dynamics_logits(self, m: Tensor) -> Tensor:
        """Prior logits p(z|m): (N, model_dim) -> (N, n_cats, n_classes)."""
        n = m.shape[0]
        return reshape(self.dyn(m), (n, self.cfg.n_cats, self.cfg.n_classes))

    def probs(self, logits: Tensor) -> Tensor:
        return dists.unimix_probs(logits, self.cfg.unimix)

    def sample(self, logits: Tensor, rng: np.random.Generator) -> Tensor:
        """Unimixed straight-through one-hot sample of shape (N, n_cats, n_classes)."""
        return dists.sample_straight_through(self.probs(logits), rng)

    # -- heads ---------------------------------------------------------------

    def predict_heads(self, feats: Tensor) -> tuple[Tensor, Tensor]:
        """(reward in symlog space, continue logit) from (N, h_width + z_flat) [h, z] features."""
        n = feats.shape[0]
        return reshape(self.reward_head(feats), (n,)), reshape(self.cont_head(feats), (n,))

    # -- sequence pass -------------------------------------------------------

    def _seq_inputs(self, z: Tensor, action: np.ndarray, resets: np.ndarray) -> Tensor:
        """u_t = proj(z_{t-1}, a_{t-1}); z shifted one step, zeroed at resets."""
        bsz, t_len = action.shape[:2]
        zf = reshape(z, (bsz, t_len, self.cfg.z_flat))
        zeros = Tensor(np.zeros((bsz, 1, self.cfg.z_flat)))
        if t_len > 1:
            z_prev = concat([zeros, tslice(zf, (slice(None), slice(0, t_len - 1)))], axis=1)
        else:
            z_prev = zeros
        keep = (1.0 - resets.astype(np.float64))[:, :, None]
        z_prev = mul(z_prev, Tensor(keep))
        u = concat([z_prev, Tensor(action)], axis=2)
        flat = reshape(u, (bsz * t_len, self.cfg.z_flat + self.cfg.action_dim))
        return reshape(self.in_proj(flat), (bsz, t_len, self.cfg.model_dim))

    def forward_sequence(
        self, obs: np.ndarray, action: np.ndarray, resets: np.ndarray, rng, sample_mode: str = "sample"
    ) -> dict:
        """Full training pass over (B, T) windows; returns graph tensors.

        Records in a window follow the convention that `action[t]` led into
        `obs[t]` (zeros at episode starts), so the scan at position t consumes
        (z_{t-1}, a_{t-1}) and yields (m_t, h_t) aligned with obs[t].

        sample_mode "sample" draws straight-through one-hots (training);
        "mean" feeds the class probabilities themselves, a fully smooth path
        used to verify gradients against finite differences (the discrete
        sample is a step function, so FD cannot probe the estimator).
        """
        bsz, t_len, _ = obs.shape
        if t_len < 2:
            raise ConfigError("training windows must have length >= 2")
        flat_obs = Tensor(obs.reshape(bsz * t_len, self.cfg.obs_dim))
        post_logits = self.encode(flat_obs)
        post_probs = self.probs(post_logits)
        if sample_mode == "sample":
            z_flat_t = self.sample(post_logits, rng)
        elif sample_mode == "mean":
            z_flat_t = post_probs
        else:
            raise ConfigError(f"unknown sample_mode {sample_mode!r}")
        z = reshape(z_flat_t, (bsz, t_len, self.cfg.n_cats, self.cfg.n_classes))
        u = self._seq_inputs(z, action, resets)
        m, h = self.stack.forward(u, resets)
        prior_logits = self.dynamics_logits(reshape(m, (bsz * t_len, self.cfg.model_dim)))
        feats = concat([reshape(h, (bsz * t_len, self.h_width)), reshape(z, (bsz * t_len, self.cfg.z_flat))], axis=1)
        reward_sym, cont_logit = self.predict_heads(feats)
        obs_pred = self.decoder(feats)
        return {
            "post_logits": post_logits,
            "post_probs": post_probs,
            "prior_logits": prior_logits,
            "prior_probs": self.probs(prior_logits),
            "z": z,
            "m": m,
            "h": h,
            "reward_sym": reward_sym,
            "cont_logit": cont_logit,
            "obs_pred": obs_pred,
        }

    def loss(self, batch: dict, rng, sample_mode: str = "sample") -> tuple[Tensor, WmLossReport, dict]:
        """Joint loss: prediction NLLs plus free-bits KL terms.

        l_dyn trains the prior toward the (stopped) posterior; l_rep trains
        the posterior toward the (stopped) prior; both are clamped at the
        1-nat floor per window position before averaging.
        """
        obs, action = batch["obs"], batch["action"]
        resets = batch["reset"]
        bsz, t_len, _ = obs.shape
        out = self.forward_sequence(obs, action, resets, rng, sample_mode=sample_mode)

        reward_target = Tensor(dists.symlog_np(batch["reward"].reshape(-1)))
        r_err = add(out["reward_sym"], neg(reward_target))
        reward_nll = mul(tmean(mul(r_err, r_err)), Tensor(0.5))
        continue_nll = tmean(dists.bernoulli_nll(out["cont_logit"], Tensor(batch["cont"].reshape(-1))))
        o_err = add(out["obs_pred"], neg(Tensor(obs.reshape(bsz * t_len, -1))))
        obs_nll = tmean(mul(tsum(mul(o_err, o_err), axis=1), Tensor(0.5)))
        l_pred = add(add(reward_nll, continue_nll), obs_nll)

        post, prior = out["post_probs"], out["prior_probs"]
        kl_dyn = tsum(dists.kl_categorical(post.detach(), prior), axis=-1)
        kl_rep = tsum(dists.kl_categorical(post, prior.detach()), axis=-1)
        l_dyn = tmean(dists.free_bits(kl_dyn, self.cfg.free_bits))
        l_rep = tmean(dists.free_bits(kl_rep, self.cfg.free_bits))

        total = add(l_pred, add(mul(l_dyn, Tensor(self.cfg.a_dyn)), mul(l_rep, Tensor(self.cfg.a_rep))))
        report = WmLossReport(
            l_pred=l_pred.item(),
            l_dyn=l_dyn.item(),
            l_rep=l_rep.item(),
            total=l_pred.item() + self.cfg.a_dyn * l_dyn.item() + self.cfg.a_rep * l_rep.item(),
            reward_nll=reward_nll.item(),
            continue_nll=continue_nll.item(),
            obs_nll=obs_nll.item(),
        )
        return total, report, out

    # -- stepwise interface ---------------------------------------------------

    def step_context(self):
        """The S5 step context (per block lam_bar, b_real, c_real), reused over many online steps."""
        return self.stack.discretized()

    def wm_step(
        self,
        h_prev: Tensor,
        z_prev: Tensor,
        a_prev: Tensor,
        reset: np.ndarray,
        ctx=None,
    ) -> tuple[Tensor, Tensor]:
        """One sequence-model step: (h_{t-1}, z_{t-1}, a_{t-1}) -> (m_t, h_t).

        z_prev: (B, n_cats, n_classes) one-hots (flattened internally);
        reset True drops all dependence on h_prev.
        """
        bsz = h_prev.shape[0]
        zf = reshape(z_prev, (bsz, self.cfg.z_flat))
        u = self.in_proj(concat([zf, a_prev], axis=1))
        return self.stack.step(h_prev, u, reset, ctx)

    def initial_state(self, batch: int) -> LatentState:
        z = np.zeros((batch, self.cfg.n_cats, self.cfg.n_classes))
        z[:, :, 0] = 1.0
        return LatentState(h=np.zeros((batch, self.h_width)), z=z)

    # -- imagination -----------------------------------------------------------

    def imagine(self, start: LatentState, act_fn, horizon: int, rng, start_entropy=None) -> dict:
        """Roll the model forward `horizon` steps under a policy, prior-only.

        act_fn(step_index, state_dict) -> one-hot actions (B, action_dim);
        state_dict carries h, z, reward, cont, entropy (all numpy). There is
        deliberately no observation input anywhere on this path, and the
        observation decoder does not run. Runs without gradient recording;
        the returned trajectory is plain numpy.
        """
        if horizon < 1:
            raise ConfigError("imagination horizon must be >= 1")
        bsz = start.h.shape[0]
        c = self.cfg
        with no_grad():
            ctx = self.step_context()
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
            no_reset = np.zeros(bsz, dtype=bool)
            for i in range(horizon + 1):
                r_t, c_t = self.predict_heads(Tensor(np.concatenate([h[:, i], z[:, i].reshape(bsz, c.z_flat)], axis=1)))
                rewards[:, i] = dists.symexp_np(r_t.data)
                conts[:, i] = 1.0 / (1.0 + np.exp(-c_t.data))
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
                m_t, h_t = self.wm_step(Tensor(h[:, i]), Tensor(z[:, i]), Tensor(a), no_reset, ctx)
                prior_probs = self.probs(self.dynamics_logits(m_t))
                h[:, i + 1] = h_t.data
                z[:, i + 1] = dists.sample_one_hot(prior_probs.data, rng)
                entropies[:, i + 1] = dists.entropy_categorical_np(prior_probs.data).sum(axis=-1)
        return {
            "h": h,
            "z": z,
            "action": actions,
            "reward": rewards,
            "cont": conts,
            "entropy": entropies,
        }
