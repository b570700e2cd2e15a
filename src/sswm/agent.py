"""Hierarchical agent: a stack of subactors on per-level world models.

Level 0 consumes environment observations and emits environment actions.
Level i>0 consumes k consecutive (h, z) latent states of the level below as
its observation, and its action is a discrete subgoal for the level below,
held constant for the next k lower-level steps. Every level owns a world
model, a subgoal autoencoder and an actor-critic with three value heads, one
per reward stream (extrinsic, subgoal, novelty); the streams are mixed as
r = w_extr*r_extr + w_g*r_g + w_nov*r_nov when forming policy advantages,
with the constant weights MIX (1, 0.3, 0.1). The top level holds no goal, so
it weighs the subgoal stream 0 (TOP_MIX).

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
from .tensor import Tensor, add, log, make_rng, mul, neg, no_grad, reshape, softmax, tmean, tsum
from .worldmodel import LatentState, WmConfig, WorldModel

STREAMS = ("extr", "g", "nov")
MIX = {"extr": 1.0, "g": 0.3, "nov": 0.1}
TOP_MIX = {**MIX, "g": 0.0}


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
    gamma: float = 0.99
    lam: float = 0.95
    entropy_coef: float = 3e-3


class ActorCritic:
    """Categorical policy (possibly factored into code groups) + 3 value heads."""

    def __init__(self, rng: np.random.Generator, cfg: AcConfig):
        self.cfg = cfg
        self.policy = MLP(rng, [cfg.feat_width, cfg.mlp_units, cfg.action_groups * cfg.action_classes])
        self.heads = {s: MLP(rng, [cfg.feat_width, cfg.mlp_units, 1]) for s in STREAMS}

    def params(self, prefix: str = "ac") -> dict[str, Tensor]:
        out = self.policy.params(f"{prefix}.policy")
        for s in STREAMS:
            out.update(self.heads[s].params(f"{prefix}.v_{s}"))
        return out

    def policy_probs(self, feats: Tensor) -> Tensor:
        n = feats.shape[0]
        logits = reshape(self.policy(feats), (n, self.cfg.action_groups, self.cfg.action_classes))
        return softmax(logits, axis=-1)

    def act(self, feats: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample a one-hot action matrix (N, groups, classes)."""
        with no_grad():
            probs = self.policy_probs(Tensor(feats)).data
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
    weights: dict[str, float],
) -> tuple[Tensor, dict]:
    """REINFORCE policy loss + per-stream value regressions on one rollout.

    feats: (B, H+1, F) states; actions: (B, H, G, K); rewards: per-stream
    (B, H+1); conts: (B, H+1); weights: per stream, like MIX. Per stream s
    the lambda-return R^s uses only that stream's rewards and value head; the
    policy advantage is the mixed return minus the mixed baseline, fully
    detached.
    """
    bsz, hp1, fdim = feats.shape
    horizon = hp1 - 1
    if horizon < 1:
        raise ValueError("need at least one imagined transition")

    flat_all = Tensor(feats.reshape(bsz * hp1, fdim))
    values = ac.values(flat_all)
    values_np = {s: values[s].data.reshape(bsz, hp1) for s in STREAMS}
    returns = {
        s: lambda_returns(rewards[s], conts, values_np[s], ac.cfg.gamma, ac.cfg.lam) for s in STREAMS
    }
    mixed_return = sum(weights[s] * returns[s] for s in STREAMS)
    mixed_value = sum(weights[s] * values_np[s][:, :horizon] for s in STREAMS)
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


class Subactor:
    """One hierarchy level: world model + actor-critic + subgoal autoencoder."""

    def __init__(self, rng: np.random.Generator, cfg: LevelConfig, weights: dict[str, float], lr: float):
        self.cfg = cfg
        self.weights = weights
        self.wm = WorldModel(rng, cfg.wm)
        self.ae = SubgoalAutoencoder(rng, cfg.sg)
        self.ac = ActorCritic(rng, cfg.ac)
        self.replay = ExperienceDataset(cfg.wm.obs_dim, cfg.wm.action_dim)
        self.wm_opt = AdamW(self.wm.params(), lr=lr)
        self.ae_opt = AdamW(self.ae.params(), lr=lr)
        self.ac_opt = AdamW(self.ac.params(), lr=lr)
        # online state
        self.h = np.zeros((1, self.wm.h_width))
        self.z = np.zeros((1, cfg.wm.n_cats, cfg.wm.n_classes))
        self.a_prev = np.zeros((1, cfg.wm.action_dim))
        self.goal_codes = np.zeros((cfg.sg.n_codes, cfg.sg.code_size))
        self._goal_dec: np.ndarray | None = None  # the held goal decoded; None when stale
        self._ctx = None
        self.action_emissions = 0

    # -- goal plumbing -------------------------------------------------------

    def set_goal(self, codes: np.ndarray) -> None:
        self.goal_codes = codes
        self._goal_dec = None

    def decoded_goal(self) -> np.ndarray:
        """Own-decoder decoding of the currently held goal (cached per goal)."""
        if self._goal_dec is None:
            with no_grad():
                self._goal_dec = self.ae.decode(Tensor(self.goal_codes.reshape(1, -1))).data[0]
        return self._goal_dec

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
        return self._features(self.h, z_t, self.goal_feature(), np.array([reward]), np.array([cont]), entropy)

    def choose_action(self, feats: np.ndarray, rng, random_action: bool) -> np.ndarray:
        """Pick an action one-hot matrix, uniformly or from the policy, and remember it as a_prev."""
        g, k = self.cfg.ac.action_groups, self.cfg.ac.action_classes
        if random_action:
            onehot = dists.one_hot(rng.integers(k, size=(1, g)), k)
        else:
            onehot = self.ac.act(feats, rng)
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
        self._goal_dec = None
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


@dataclass
class _Window:
    """Level i's records since level i+1 last stepped: what level i+1 observes next."""

    states: list[np.ndarray] = field(default_factory=list)
    reward: float = 0.0
    cont: float = 1.0
    reset: bool = False

    def add(self, reward: float, cont: float) -> None:
        """Fold in one record's outcome: rewards sum, and one terminal makes cont 0."""
        self.reward += reward
        self.cont = min(self.cont, cont)


class HierarchicalAgent:
    """Subactor stack with the k^i action-emission schedule.

    Per completed environment step n, level i>0 acts exactly when
    n % k^i == 0, i.e. right after its window of k lower-level steps
    completes; its new subgoal then holds for the next k lower-level steps.
    Over T env steps level i therefore emits floor(T / k^i) actions,
    regardless of episode boundaries. Windows may span episodes: level i's
    record of a window resets its state exactly when one of the window's k
    lower-level records began an episode. That is where level i's replay
    sees a new episode id, so acting and training split episodes at the same
    records. After a terminal on the last step of a window, the reset falls
    on the next window's record. The top level's goal input stays all-zero.

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
        self.rng = make_rng(rng_seed, stream=9)
        self.env_steps = 0
        self._episode_id = 0
        self._random_phase = False
        # _windows[i] fills with level i's records; the top level feeds no window
        self._windows = [_Window() for _ in levels[1:]]

    def policy_step(self, obs: np.ndarray, reward: float, cont: float, reset: bool) -> int:
        """Advance level 0 on a fresh observation and return an env action index."""
        return int(self._step_level(0, obs, reward, cont, reset).argmax())

    def observe_result(self, reward: float, done: bool) -> None:
        """Fold the step outcome into level 0's window; run the hierarchy clock."""
        self.env_steps += 1
        if self._windows:
            self._windows[0].add(reward, 0.0 if done else 1.0)
        for i in range(1, self.depth):
            if self.env_steps % (self.k**i) != 0:
                break
            self._emit(i)

    def record_terminal(self, obs: np.ndarray, reward: float) -> None:
        """Append the terminal observation to level-0 replay and close the episode.

        No action is taken from a terminal state, so the world model does not
        step: the next policy_step resets level 0. The terminal reward was
        already window-accumulated by observe_result, and the hierarchy clock
        does not tick.
        """
        lvl = self.levels[0]
        lvl.replay.append(obs, lvl.a_prev[0], reward, 0.0, self._episode_id)
        self._episode_id += 1

    def _step_level(self, i: int, obs: np.ndarray, reward: float, cont: float, reset: bool) -> np.ndarray:
        """Advance level i, push its snapshot into the window above, choose its action."""
        lvl = self.levels[i]
        feats = lvl.advance(obs, reward, cont, reset, self._episode_id, self.rng)
        if i < self.depth - 1:
            above = self._windows[i]
            above.states.append(lvl.latent_snapshot())
            above.reset = above.reset or reset
        return lvl.choose_action(feats, self.rng, self._random_phase)

    def _emit(self, i: int) -> None:
        """Level i observes the completed window of level i-1 and emits a subgoal."""
        win = self._windows[i - 1]
        self._windows[i - 1] = _Window()
        goal = self._step_level(i, uplink_observation(win.states, self.k), win.reward, win.cont, win.reset)
        self.levels[i - 1].set_goal(goal)
        if i < self.depth - 1:
            self._windows[i].add(win.reward, win.cont)

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


def build_agent(
    seed: int,
    env_obs_dim: int,
    env_n_actions: int,
    depth: int,
    k: int,
    wm_kwargs: dict | None = None,
    sg_kwargs: dict | None = None,
    ac_kwargs: dict | None = None,
    lr: float = 1e-4,
) -> HierarchicalAgent:
    """Construct a depth-level stack with consistent inter-level widths.

    Level 0 observes the environment and acts in it; level i>0 observes the
    k-window of level i-1 latent states (h and flattened z) and acts in the
    level-(i-1) subgoal code space. Every level mixes its reward streams
    with MIX, except the top level, which has no incoming goal: TOP_MIX.
    """
    wm_kwargs = dict(wm_kwargs or {})
    sg_kwargs = dict(sg_kwargs or {})
    ac_kwargs = dict(ac_kwargs or {})
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
        cfg = LevelConfig(wm=wm_cfg, sg=sg_cfg, ac=ac_cfg)
        levels.append(Subactor(rng, cfg, MIX if i < depth - 1 else TOP_MIX, lr=lr))
        # dimensions seen by the next level up
        obs_dim = k * (h_width + wm_cfg.z_flat)
        action_groups, action_classes = sg_cfg.n_codes, sg_cfg.code_size
        action_dim = sg_cfg.flat
    return HierarchicalAgent(levels, k, rng_seed=seed)
