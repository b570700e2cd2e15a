"""Hierarchical agent: a stack of subactors on per-level world models.

Level 0 consumes environment observations and emits environment actions.
Level i>0 consumes k consecutive (h, z) latent states of the level below as
its observation, and its action is a discrete subgoal for the level below,
held constant for the next k lower-level steps. Every level owns a world
model, a subgoal autoencoder and an actor-critic with three value heads, one
per reward stream (extrinsic, subgoal, novelty); the streams are mixed as
r = w_extr*r_extr + w_g*r_g + w_nov*r_nov when forming policy advantages.

Actor-critics train by REINFORCE on imagined rollouts of their own world
model: lambda-returns per stream from that stream's own value head, a mixed
baseline subtracted from the mixed return, and an entropy bonus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dists
from .nn import MLP, AdamW
from .replay import ExperienceDataset
from .subgoal import SubgoalAutoencoder, SubgoalConfig
from .tensor import Tensor, add, log, mul, neg, no_grad, reshape, softmax, tmean, tsum
from .worldmodel import LatentState, WmConfig, WorldModel

STREAMS = ("extr", "g", "nov")


@dataclass
class MixWeights:
    """Reward mixing weights; extrinsic weight defaults to 1 per convention."""

    w_extr: float = 1.0
    w_g: float = 0.3
    w_nov: float = 0.1

    def __post_init__(self):
        if min(self.w_extr, self.w_g, self.w_nov) < 0:
            raise ValueError("mix weights must be nonnegative")

    def as_dict(self) -> dict[str, float]:
        return {"extr": self.w_extr, "g": self.w_g, "nov": self.w_nov}


def subgoal_reward(g_dec: np.ndarray, h: np.ndarray) -> np.ndarray | float:
    """Cosine-max similarity (g . h) / max(|g|, |h|) over the trailing axis.

    0 where both are zero. Leading axes broadcast, e.g. one goal (d,) against
    states (N, H+1, d) gives (N, H+1); only the trailing widths must match.
    """
    g_dec = np.asarray(g_dec, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if g_dec.shape[-1:] != h.shape[-1:]:
        raise ValueError(f"subgoal_reward: widths differ, {g_dec.shape} vs {h.shape}")
    num = (g_dec * h).sum(axis=-1)
    den = np.maximum(np.linalg.norm(g_dec, axis=-1), np.linalg.norm(h, axis=-1))
    out = np.where(den == 0.0, 0.0, num / np.where(den == 0.0, 1.0, den))
    return float(out) if out.ndim == 0 else out


def uplink_observation(states: list[np.ndarray], k: int) -> np.ndarray:
    """Concatenate k consecutive flattened lower-level states into one vector (width k*d)."""
    if len(states) != k:
        raise ValueError(f"uplink needs exactly {k} buffered states, got {len(states)}")
    return np.concatenate(states)


def lambda_returns(rewards, conts, values, gamma: float, lam: float) -> np.ndarray:
    """Bootstrapped lambda-returns over an imagined rollout.

    rewards/conts/values: (B, H+1) aligned to states (index 0 is the start
    state; rewards[t] was received on arriving at state t). Returns (B, H)
    with R_t = r_{t+1} + gamma*c_{t+1}*((1-lam)*V_{t+1} + lam*R_{t+1}) and
    R_H = V_H as the bootstrap.
    """
    horizon = rewards.shape[1] - 1
    out = np.empty((rewards.shape[0], horizon))
    nxt = values[:, horizon]
    for t in range(horizon - 1, -1, -1):
        out[:, t] = rewards[:, t + 1] + gamma * conts[:, t + 1] * (
            (1.0 - lam) * values[:, t + 1] + lam * nxt
        )
        nxt = out[:, t]
    return out


@dataclass
class AcConfig:
    feat_width: int
    action_groups: int
    action_classes: int
    mlp_units: int = 64
    mlp_layers: int = 1
    gamma: float = 0.99
    lam: float = 0.95
    entropy_coef: float = 3e-3


class ActorCritic:
    """Categorical policy (possibly factored into code groups) + 3 value heads."""

    def __init__(self, rng: np.random.Generator, cfg: AcConfig):
        self.cfg = cfg
        sizes = [cfg.feat_width] + [cfg.mlp_units] * cfg.mlp_layers
        self.policy = MLP(rng, sizes + [cfg.action_groups * cfg.action_classes])
        self.heads = {s: MLP(rng, sizes + [1]) for s in STREAMS}

    def params(self, prefix: str = "ac") -> dict[str, Tensor]:
        out = self.policy.params(f"{prefix}.policy")
        for s in STREAMS:
            out.update(self.heads[s].params(f"{prefix}.v_{s}"))
        return out

    def policy_probs(self, feats: Tensor) -> Tensor:
        n = feats.shape[0]
        logits = reshape(self.policy(feats), (n, self.cfg.action_groups, self.cfg.action_classes))
        return softmax(logits, axis=-1)

    def act(self, feats: np.ndarray, rng: np.random.Generator, greedy: bool = False) -> np.ndarray:
        """Sample (or argmax) a one-hot action matrix (N, groups, classes)."""
        with no_grad():
            probs = self.policy_probs(Tensor(feats)).data
        if greedy:
            return dists.one_hot(probs.argmax(axis=-1), probs.shape[-1])
        return dists.sample_one_hot(probs, rng)

    def log_prob_entropy(self, feats: Tensor, actions: np.ndarray) -> tuple[Tensor, Tensor]:
        """Joint log-probability and entropy per row (summed over code groups)."""
        probs = self.policy_probs(feats)
        picked = tsum(mul(probs, Tensor(actions)), axis=-1)  # (N, G)
        lp = tsum(log(picked), axis=-1)
        ent = tsum(dists.entropy_categorical(probs), axis=-1)
        return lp, ent

    def values(self, feats: Tensor) -> dict[str, Tensor]:
        n = feats.shape[0]
        return {s: reshape(self.heads[s](feats), (n,)) for s in STREAMS}


def reinforce_loss(
    ac: ActorCritic,
    feats: np.ndarray,
    actions: np.ndarray,
    rewards: dict[str, np.ndarray],
    conts: np.ndarray,
    weights: MixWeights,
) -> tuple[Tensor, dict]:
    """REINFORCE policy loss + per-stream value regressions on one rollout.

    feats: (B, H+1, F) states; actions: (B, H, G, K); rewards: per-stream
    (B, H+1); conts: (B, H+1). Per stream s the lambda-return R^s uses only
    that stream's rewards and value head; the policy advantage is the mixed
    return minus the mixed baseline, fully detached.
    """
    bsz, hp1, fdim = feats.shape
    horizon = hp1 - 1
    if horizon < 1:
        raise ValueError("need at least one imagined transition")
    w = weights.as_dict()

    flat_all = Tensor(feats.reshape(bsz * hp1, fdim))
    values = ac.values(flat_all)
    values_np = {s: values[s].data.reshape(bsz, hp1) for s in STREAMS}
    returns = {
        s: lambda_returns(rewards[s], conts, values_np[s], ac.cfg.gamma, ac.cfg.lam) for s in STREAMS
    }
    mixed_return = sum(w[s] * returns[s] for s in STREAMS)
    mixed_value = sum(w[s] * values_np[s][:, :horizon] for s in STREAMS)
    adv = mixed_return - mixed_value  # (B, H), detached by construction

    feats_t = Tensor(feats[:, :horizon].reshape(bsz * horizon, fdim))
    lp, ent = ac.log_prob_entropy(feats_t, actions.reshape(bsz * horizon, *actions.shape[2:]))
    pg = neg(tmean(mul(lp, Tensor(adv.reshape(-1)))))
    policy_loss = add(pg, neg(mul(tmean(ent), Tensor(ac.cfg.entropy_coef))))

    value_loss = Tensor(0.0)
    for s in STREAMS:
        # regress positions 0..H-1 onto their (detached) lambda-return targets;
        # the mask zeroes the bootstrap position, the scale restores the mean
        target = np.zeros(bsz * hp1)
        target.reshape(bsz, hp1)[:, :horizon] = returns[s]
        mask = np.zeros(bsz * hp1)
        mask.reshape(bsz, hp1)[:, :horizon] = 1.0
        err = mul(add(values[s], neg(Tensor(target))), Tensor(mask))
        value_loss = add(value_loss, mul(tmean(mul(err, err)), Tensor(0.5 * hp1 / horizon)))

    total = add(policy_loss, value_loss)
    report = {
        "policy_loss": policy_loss.item(),
        "value_loss": value_loss.item(),
        "entropy": ent.data.mean(),
        "adv_mean": float(adv.mean()),
        "return_extr": float(returns["extr"].mean()),
        "return_g": float(returns["g"].mean()),
        "return_nov": float(returns["nov"].mean()),
    }
    return total, report


@dataclass
class LevelConfig:
    wm: WmConfig
    sg: SubgoalConfig
    ac: AcConfig
    k: int


class Subactor:
    """One hierarchy level: world model + actor-critic + subgoal autoencoder."""

    def __init__(self, level: int, rng: np.random.Generator, cfg: LevelConfig, weights: MixWeights, lr: float, weight_decay: float = 0.0):
        self.level = level
        self.cfg = cfg
        self.weights = weights
        self.wm = WorldModel(rng, cfg.wm)
        self.ae = SubgoalAutoencoder(rng, cfg.sg)
        self.ac = ActorCritic(rng, cfg.ac)
        self.replay = ExperienceDataset(cfg.wm.obs_dim, cfg.wm.action_dim)
        self.wm_opt = AdamW(self.wm.params(), lr=lr, weight_decay=weight_decay)
        self.ae_opt = AdamW(self.ae.params(), lr=lr, weight_decay=weight_decay)
        self.ac_opt = AdamW(self.ac.params(), lr=lr, weight_decay=weight_decay)
        # online state
        self.h = np.zeros((1, self.wm.h_width))
        self.z = np.zeros((1, cfg.wm.n_cats, cfg.wm.n_classes))
        self.a_prev = np.zeros((1, cfg.wm.action_dim))
        self.goal_codes = np.zeros((cfg.sg.n_codes, cfg.sg.code_size))
        self.goal_dirty = True
        self._goal_dec_cache: np.ndarray | None = None
        self._ctx = None
        self.steps_taken = 0
        self.action_emissions = 0

    # -- goal plumbing -------------------------------------------------------

    def set_goal(self, codes: np.ndarray) -> None:
        self.goal_codes = codes
        self.goal_dirty = True

    def decoded_goal(self) -> np.ndarray:
        """Own-decoder decoding of the currently held goal (cached per goal)."""
        if self.goal_dirty or self._goal_dec_cache is None:
            with no_grad():
                flat = self.goal_codes.reshape(1, -1)
                self._goal_dec_cache = self.ae.decode(Tensor(flat)).data[0]
            self.goal_dirty = False
        return self._goal_dec_cache

    def goal_feature(self) -> np.ndarray:
        """The held goal as the policy sees it: its flattened codes."""
        return self.goal_codes.reshape(-1)

    # -- interaction ----------------------------------------------------------

    def refresh_ctx(self) -> None:
        """Drop the cached step context; the next advance rebuilds it from the updated parameters."""
        self._ctx = None

    def _features(self, h, z, goal_vec, reward, cont, entropy):
        zf = z.reshape(z.shape[0], -1)
        scalars = np.stack(
            [dists.symlog_np(np.asarray(reward, dtype=np.float64)), np.asarray(cont, dtype=np.float64), np.asarray(entropy, dtype=np.float64)],
            axis=1,
        )
        if goal_vec.ndim == 1:
            goal_vec = np.broadcast_to(goal_vec, (z.shape[0], goal_vec.size))
        return np.concatenate([h, zf, goal_vec, scalars], axis=1)

    def advance(self, obs: np.ndarray, reward: float, cont: float, reset: bool, episode_id: int, rng) -> np.ndarray:
        """Encode one observation, advance the latent state, record the step.

        Returns the features for action selection at the new state. On reset
        the previous latent and action are dropped before stepping.
        """
        with no_grad():
            if reset:
                self.h = np.zeros_like(self.h)
                self.z = np.zeros_like(self.z)
                self.a_prev = np.zeros_like(self.a_prev)
            if self._ctx is None:
                self._ctx = self.wm.step_context()
            post_logits = self.wm.encode(Tensor(obs[None, :]))
            z_t = dists.sample_one_hot(self.wm.probs(post_logits).data, rng)
            m, h_t = self.wm.wm_step(
                Tensor(self.h), Tensor(self.z), Tensor(self.a_prev), np.array([reset]), self._ctx
            )
            prior_probs = self.wm.probs(self.wm.dynamics_logits(m))
            entropy = dists.entropy_categorical_np(prior_probs.data).sum(axis=-1)
        self.replay.append(obs, self.a_prev[0], reward, cont, episode_id)
        self.h = h_t.data
        self.z = z_t
        self.steps_taken += 1
        return self._features(self.h, z_t, self.goal_feature(), np.array([reward]), np.array([cont]), entropy)

    def choose_action(self, feats: np.ndarray, rng, random_action: bool = False, greedy: bool = False) -> np.ndarray:
        """Pick an action one-hot matrix and remember it as a_prev."""
        g, k = self.cfg.ac.action_groups, self.cfg.ac.action_classes
        if random_action:
            onehot = dists.one_hot(rng.integers(k, size=(1, g)), k)
        else:
            onehot = self.ac.act(feats, rng, greedy=greedy)
        self.a_prev = onehot.reshape(1, -1)
        self.action_emissions += 1
        return onehot[0]

    def latent_snapshot(self) -> np.ndarray:
        """Flattened (h, z) of the current state, for uplink observations."""
        return np.concatenate([self.h[0], self.z.reshape(-1)])

    # -- training --------------------------------------------------------------

    def train_step(self, batch_size: int, seq_len: int, sampler, horizon: int, rng) -> dict | None:
        """One gradient step each for the world model, the AE and the actor-critic."""
        batch = self.replay.sample_batch(rng, batch_size, seq_len, sampler)
        if batch is None:
            return None
        report: dict = {}
        total, wm_report, out = self.wm.loss(batch, rng)
        total.backward()
        report["wm_grad_norm"] = self.wm_opt.step()
        self._project_timescales()
        self.refresh_ctx()
        report["wm"] = wm_report

        h_states = out["h"].data.reshape(-1, self.wm.h_width)
        ae_total, ae_report = self.ae.loss(Tensor(h_states), rng)
        ae_total.backward()
        self.ae_opt.step()
        self.goal_dirty = True
        report["ae"] = ae_report

        report["ac"] = self._train_actor(out, batch, horizon, rng)
        return report

    def _project_timescales(self) -> None:
        # keep exp(log_delta) <= 1 (type invariant) under gradient updates
        for blk in self.wm.stack.blocks:
            np.minimum(blk.s5.log_delta.data, 0.0, out=blk.s5.log_delta.data)

    def _train_actor(self, wm_out: dict, batch: dict, horizon: int, rng) -> dict:
        bsz, t_len = batch["reward"].shape
        n = bsz * t_len
        start = LatentState(
            h=wm_out["h"].data.reshape(n, self.wm.h_width),
            z=dists.sample_one_hot(wm_out["prior_probs"].data, rng),
        )
        start_entropy = dists.entropy_categorical_np(wm_out["prior_probs"].data).sum(axis=-1)
        goal_vec = self.goal_feature()
        goal_dec = self.decoded_goal()
        hp1 = horizon + 1
        feats = np.empty((n, hp1, self.cfg.ac.feat_width))

        def act_fn(i, state):
            f = self._features(state["h"], state["z"], goal_vec, state["reward"], state["cont"], state["entropy"])
            feats[:, i] = f
            return self.ac.act(f, rng).reshape(n, -1)

        traj = self.wm.imagine(start, act_fn, horizon, rng, start_entropy=start_entropy)
        feats[:, horizon] = self._features(
            traj["h"][:, horizon], traj["z"][:, horizon], goal_vec,
            traj["reward"][:, horizon], traj["cont"][:, horizon], traj["entropy"][:, horizon],
        )
        r_g = subgoal_reward(goal_dec, traj["h"])
        # time-major rows draw the sampled codes in the order of a per-step loop
        nov = self.ae.novelty(traj["h"].transpose(1, 0, 2).reshape(hp1 * n, -1), rng).reshape(hp1, n).T
        rewards = {"extr": traj["reward"], "g": r_g, "nov": nov}
        actions = traj["action"].reshape(n, horizon, self.cfg.ac.action_groups, self.cfg.ac.action_classes)
        total, report = reinforce_loss(self.ac, feats, actions, rewards, traj["cont"], self.weights)
        total.backward()
        report["ac_grad_norm"] = self.ac_opt.step()
        return report


class HierarchicalAgent:
    """Subactor stack with the k^i action-emission schedule.

    Per completed environment step n, level i>0 acts exactly when
    n % k^i == 0, i.e. right after its window of k lower-level steps
    completes; its new subgoal then holds for the next k lower-level steps.
    Over T env steps level i therefore emits floor(T / k^i) actions,
    regardless of episode boundaries (windows may span episodes; the reset
    flags carried on the records keep the world models from leaking state
    across them). The top level's goal input stays all-zero.

    Driver protocol per env step:
        a = agent.policy_step(obs, reward, cont, reset)
        result = env.step(a)
        agent.observe_result(result.reward, result.done)
        if result.done: agent.record_terminal(result.observation, result.reward)
    """

    def __init__(self, levels: list[Subactor], k: int, rng_seed: int = 0):
        if not levels:
            raise ValueError("need at least one level")
        self.levels = levels
        self.k = k
        self.depth = len(levels)
        self.rng = _agent_rng(rng_seed)
        self.env_steps = 0
        self._episode_id = 0
        self._random_phase = False
        self._buffers: list[list[np.ndarray]] = [[] for _ in levels]
        self._win_reward = [0.0 for _ in levels]
        self._win_cont = [1.0 for _ in levels]
        # first record of every level starts an episode
        self._win_reset = [True for _ in levels]

    def policy_step(
        self, obs: np.ndarray, reward: float, cont: float, reset: bool,
        random_action: bool = False, greedy: bool = False,
    ) -> int:
        """Advance level 0 on a fresh observation and return an env action index."""
        lvl = self.levels[0]
        if reset:
            self._win_reset[0] = True
        feats = lvl.advance(obs, reward, cont, reset, self._episode_id, self.rng)
        self._buffers[0].append(lvl.latent_snapshot())
        onehot = lvl.choose_action(feats, self.rng, random_action=random_action or self._random_phase, greedy=greedy)
        return int(onehot.reshape(-1).argmax())

    def observe_result(self, reward: float, done: bool) -> None:
        """Fold the step outcome into window accumulators; run the hierarchy clock."""
        self.env_steps += 1
        self._accumulate(0, reward, done)
        for i in range(1, self.depth):
            if self.env_steps % (self.k**i) == 0:
                self._emit(i)
            else:
                break

    def record_terminal(self, obs: np.ndarray, reward: float) -> None:
        """Append the terminal observation to level-0 replay and close the episode.

        The terminal reward was already window-accumulated by observe_result;
        no action is taken from a terminal state, so no snapshot is pushed
        and the hierarchy clock does not tick.
        """
        self.levels[0].advance(obs, reward, 0.0, False, self._episode_id, self.rng)
        self._episode_id += 1

    def _accumulate(self, i: int, reward: float, terminated: bool) -> None:
        self._win_reward[i] += reward
        if terminated:
            self._win_cont[i] = 0.0
            self._win_reset[i] = True

    def _emit(self, i: int) -> None:
        """Level i observes the completed window of level i-1 and emits a subgoal."""
        upper = self.levels[i]
        below = self.levels[i - 1]
        uplink = uplink_observation(self._buffers[i - 1], self.k)
        reward = self._win_reward[i - 1]
        cont = self._win_cont[i - 1]
        reset = self._win_reset[i - 1]
        feats = upper.advance(uplink, reward, cont, reset, self._episode_id, self.rng)
        self._buffers[i].append(upper.latent_snapshot())
        goal = upper.choose_action(feats, self.rng, random_action=self._random_phase)
        below.set_goal(goal)
        self._accumulate(i, reward, cont == 0.0)
        self._buffers[i - 1] = []
        self._win_reward[i - 1] = 0.0
        self._win_cont[i - 1] = 1.0
        self._win_reset[i - 1] = False
        # the top level consumes its own window nowhere; cap the buffer
        if i == self.depth - 1 and len(self._buffers[i]) >= self.k:
            self._buffers[i] = []
            self._win_reward[i] = 0.0
            self._win_cont[i] = 1.0

    def set_random_phase(self, on: bool) -> None:
        """Random actions at every level (warmup prefill)."""
        self._random_phase = on

    def train_due_levels(self, batch_size: int, seq_len: int, sampler_factory, horizon: int, rng) -> dict:
        """One gradient step per level whose clock divides the current step count."""
        reports = {}
        for i, lvl in enumerate(self.levels):
            if self.env_steps % (self.k**i) == 0:
                rep = lvl.train_step(batch_size, seq_len, sampler_factory(i), horizon, rng)
                if rep is not None:
                    reports[i] = rep
        return reports


def _agent_rng(seed: int):
    from .tensor import make_rng

    return make_rng(seed, stream=9)


def build_agent(
    seed: int,
    env_obs_dim: int,
    env_n_actions: int,
    depth: int,
    k: int,
    wm_kwargs: dict | None = None,
    sg_kwargs: dict | None = None,
    ac_kwargs: dict | None = None,
    weights: MixWeights | None = None,
    lr: float = 1e-4,
    weight_decay: float = 0.0,
) -> HierarchicalAgent:
    """Construct a depth-level stack with consistent inter-level widths.

    Level 0 observes the environment and acts in it; level i>0 observes the
    k-window of level i-1 latent states (h and flattened z) and acts in the
    level-(i-1) subgoal code space. The top level's subgoal-reward weight is
    forced to 0 (it has no incoming goal).
    """
    from .tensor import make_rng

    wm_kwargs = dict(wm_kwargs or {})
    sg_kwargs = dict(sg_kwargs or {})
    ac_kwargs = dict(ac_kwargs or {})
    weights = weights or MixWeights()
    rng = make_rng(seed, stream=1)
    levels = []
    obs_dim = env_obs_dim
    action_dim = env_n_actions
    action_groups, action_classes = 1, env_n_actions
    for i in range(depth):
        wm_cfg = WmConfig(obs_dim=obs_dim, action_dim=action_dim, **wm_kwargs)
        h_width = wm_cfg.h_width
        sg_cfg = SubgoalConfig(h_width=h_width, **sg_kwargs)
        feat_width = h_width + wm_cfg.z_flat + sg_cfg.flat + 3
        ac_cfg = AcConfig(
            feat_width=feat_width,
            action_groups=action_groups,
            action_classes=action_classes,
            **ac_kwargs,
        )
        lvl_weights = weights if i < depth - 1 else MixWeights(weights.w_extr, 0.0, weights.w_nov)
        cfg = LevelConfig(wm=wm_cfg, sg=sg_cfg, ac=ac_cfg, k=k)
        levels.append(Subactor(i, rng, cfg, lvl_weights, lr=lr, weight_decay=weight_decay))
        # dimensions seen by the next level up
        obs_dim = k * (h_width + wm_cfg.z_flat)
        action_groups, action_classes = sg_cfg.n_codes, sg_cfg.code_size
        action_dim = sg_cfg.flat
    return HierarchicalAgent(levels, k, rng_seed=seed)
