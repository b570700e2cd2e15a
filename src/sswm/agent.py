"""Hierarchical agent: a stack of subactors on per-level world models.

Level 0 consumes environment observations and emits environment actions.
Level i>0 observes k consecutive latent states of the level below, their k h
rows then their k z rows, and its action is a discrete subgoal for the level
below, held constant for the next k lower-level steps. Every level owns a world
model, a subgoal autoencoder and an actor-critic with one value head per
reward stream it mixes (extrinsic, subgoal, novelty); the streams are mixed
as r = w_extr*r_extr + w_g*r_g + w_nov*r_nov when forming policy advantages,
with the constant weights MIX (1, 0.3, 0.1). The top level holds no goal, so
it has no subgoal stream: TOP_MIX leaves it out, and the top actor-critic
builds no subgoal value head and computes no subgoal reward.

Actor-critics train by REINFORCE on imagined rollouts of their own world
model. The reward streams share one trailing array axis in mix order; each
stream's lambda-return bootstraps from its own value head, and the advantage
is the mixed return minus the mixed baseline. GAMMA, LAM and ENTROPY_COEF are
module constants, and every optimizer runs at AdamW's default learning rate.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import dists
from .nn import MLP, AdamW, parameters
from .replay import ExperienceDataset
from .subgoal import SubgoalAutoencoder, SubgoalConfig
from .tensor import Tensor, _row_sum, _softmax, add, concat, log, make_rng, mul, neg, reshape, softmax, tmean, tslice, tsum
from .worldmodel import LatentState, WmConfig, WorldModel

# read-only: every level's actor-critic holds one of these two by reference
MIX = MappingProxyType({"extr": 1.0, "g": 0.3, "nov": 0.1})
TOP_MIX = MappingProxyType({s: w for s, w in MIX.items() if s != "g"})
# lambda-return discount and mixing; DreamerV3 (arXiv 2301.04104) has lambda 0.95, gamma 0.997
GAMMA = 0.99
LAM = 0.95
ENTROPY_COEF = 3e-3  # 10x DreamerV3's 3e-4, which scales normalized returns (ROADMAP item 1.d)


def subgoal_reward(g_dec: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Cosine-max similarity (g . h) / max(|g|, |h|) over the trailing axis.

    0 where both are zero. Leading axes broadcast, e.g. one goal (d,) against
    states (N, H+1, d) gives (N, H+1); only the trailing widths must match.
    """
    g_dec = np.asarray(g_dec, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if g_dec.shape[-1:] != h.shape[-1:]:
        raise ValueError(f"subgoal_reward: widths differ, {g_dec.shape} vs {h.shape}")
    num = _row_sum(g_dec * h)[..., 0]
    den = np.sqrt(np.maximum(_row_sum(g_dec * g_dec), _row_sum(h * h)))[..., 0]
    return np.where(den == 0.0, 0.0, num / np.where(den == 0.0, 1.0, den))


def lambda_returns(rewards, conts, values, gamma: float, lam: float) -> np.ndarray:
    """Bootstrapped lambda-returns over an imagined rollout.

    rewards/conts/values: (B, H+1) aligned to states (index 0 is the start
    state; rewards[t] was received on arriving at state t), or with a stream
    axis: rewards/values (B, H+1, S), conts (B, H+1, 1). Returns (B, H[, S])
    with R_t = r_{t+1} + gamma*c_{t+1}*((1-lam)*V_{t+1} + lam*R_{t+1}) and
    R_H = V_H as the bootstrap.
    """
    horizon = rewards.shape[1] - 1
    out = np.empty((rewards.shape[0], horizon, *rewards.shape[2:]))
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


class ActorCritic:
    """Categorical policy (possibly factored into code groups) + one value head per stream of `mix`."""

    def __init__(self, rng: np.random.Generator, cfg: AcConfig, mix: Mapping[str, float] = MIX):
        self.cfg = cfg
        self.mix = mix
        self.policy = MLP(rng, [cfg.feat_width, cfg.mlp_units, cfg.action_groups * cfg.action_classes])
        self.heads = {s: MLP(rng, [cfg.feat_width, cfg.mlp_units, 1]) for s in mix}

    def act(self, feats: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample a one-hot action matrix (N, groups, classes) from the policy.

        ndarrays in and out: the policy MLP runs by `infer` and the softmax
        by its numpy forward, so no Tensor is built.
        """
        logits = self.policy.infer(feats).reshape(feats.shape[0], self.cfg.action_groups, self.cfg.action_classes)
        return dists.sample_one_hot(_softmax(logits), rng)

    def log_prob_entropy(self, feats: Tensor, actions: np.ndarray) -> tuple[Tensor, Tensor]:
        """Joint log-probability and entropy per row (summed over code groups)."""
        probs = softmax(reshape(self.policy(feats), (feats.shape[0], self.cfg.action_groups, self.cfg.action_classes)))
        picked = tsum(mul(probs, Tensor(actions)))  # (N, G)
        lp = tsum(log(picked))
        ent = tsum(dists.entropy_categorical(probs))
        return lp, ent

    def values(self, feats: Tensor) -> Tensor:
        """Every stream's value, (N, S) with the streams in mix order."""
        return concat([head(feats) for head in self.heads.values()], axis=1)


def reinforce_loss(
    ac: ActorCritic,
    feats: np.ndarray,
    actions: np.ndarray,
    rewards: dict[str, np.ndarray],
    conts: np.ndarray,
) -> tuple[Tensor, dict]:
    """REINFORCE policy loss + the value regressions of every stream on one rollout.

    feats: (B, H+1, F) states; actions: (B, H, G, K); rewards: (B, H+1) for
    each stream of ac.mix; conts: (B, H+1). The S streams share one trailing
    axis in mix order; each stream's lambda-return R bootstraps from its own
    value head. The advantage (R - V) @ mix weights is fully detached, and
    the value loss is 0.5*S*mean((V - R)^2) over positions 0..H-1.
    """
    bsz, hp1, fdim = feats.shape
    horizon = hp1 - 1
    if horizon < 1:
        raise ValueError("need at least one imagined transition")
    n_streams = len(ac.mix)

    values = reshape(ac.values(Tensor(feats.reshape(bsz * hp1, fdim))), (bsz, hp1, n_streams))
    stacked = np.stack([rewards[s] for s in ac.mix], axis=-1)
    returns = lambda_returns(stacked, conts[..., None], values.data, GAMMA, LAM)
    adv = (returns - values.data[:, :horizon]) @ np.fromiter(ac.mix.values(), float)  # (B, H)

    feats_t = Tensor(feats[:, :horizon].reshape(bsz * horizon, fdim))
    lp, ent = ac.log_prob_entropy(feats_t, actions.reshape(bsz * horizon, *actions.shape[2:]))
    pg = neg(tmean(mul(lp, Tensor(adv.reshape(-1)))))
    policy_loss = add(pg, neg(mul(tmean(ent), Tensor(ENTROPY_COEF))))

    err = add(tslice(values, (slice(None), slice(0, horizon))), Tensor(-returns))
    value_loss = mul(tmean(mul(err, err)), Tensor(0.5 * n_streams))

    total = add(policy_loss, value_loss)
    report = {
        "policy_loss": policy_loss.item(),
        "value_loss": value_loss.item(),
        "entropy": ent.data.mean(),
        "adv_mean": float(adv.mean()),
        **{f"return_{s}": float(returns[..., i].mean()) for i, s in enumerate(ac.mix)},
    }
    return total, report


class Subactor:
    """One hierarchy level: world model + actor-critic + subgoal autoencoder, each holding its config."""

    def __init__(self, rng: np.random.Generator, wm_cfg: WmConfig, sg_cfg: SubgoalConfig, ac_cfg: AcConfig, mix: Mapping[str, float], n_binary: int):
        self.wm = WorldModel(rng, wm_cfg)
        self.ae = SubgoalAutoencoder(rng, sg_cfg)
        self.ac = ActorCritic(rng, ac_cfg, mix)
        # n_binary: the trailing observation columns, which hold only 0 and 1 and replay stores as bytes
        self.replay = ExperienceDataset(wm_cfg.obs_dim, wm_cfg.action_dim, n_binary)
        self.wm_opt = AdamW(parameters(self.wm, "wm"))
        self.ae_opt = AdamW(parameters(self.ae, "ae"))
        self.ac_opt = AdamW(parameters(self.ac, "ac"))
        # online state, from the all-zero start state
        self.h = np.zeros((1, self.wm.h_width))
        self.z = np.zeros((1, wm_cfg.n_cats, wm_cfg.n_classes))
        self.a_prev = np.zeros((1, wm_cfg.action_dim))
        # the held goal as the policy sees it: the level above's one-hot codes, flattened
        self.goal = np.zeros(sg_cfg.flat)
        self._ctx = None
        self.action_emissions = 0
        self.episodes = 0  # resets acted on: the replay episode id of the current record

    # -- interaction ----------------------------------------------------------

    def _features(self, h, z, goal_vec, reward, cont, entropy):
        """Actor features [h, z, goal, symlog reward, cont, entropy] per row, (N, feat_width).

        goal_vec is the one held goal (d,), repeated on every row; reward,
        cont and entropy are (N,). Each part is written into its columns of
        one array.
        """
        n, h_end = h.shape
        z_end = h_end + self.wm.cfg.z_flat
        out = np.empty((n, self.ac.cfg.feat_width))
        out[:, :h_end] = h
        out[:, h_end:z_end] = z.reshape(n, -1)
        out[:, z_end:-3] = goal_vec
        out[:, -3] = dists.symlog_np(reward)
        out[:, -2] = cont
        out[:, -1] = entropy
        return out

    def step(self, obs: np.ndarray, reward: float, cont: float, reset: bool, rng, random_action: bool) -> np.ndarray:
        """Record one observation, advance the latent state and act from it.

        On reset h, z and the previous action return to the all-zero start
        state before stepping, and the record begins a replay episode: its
        episode id is the level's count of resets. The action one-hot matrix
        (groups, classes) is drawn uniformly or from the policy, and is
        remembered as a_prev.
        """
        if reset:
            self.h = np.zeros_like(self.h)
            self.z = np.zeros_like(self.z)
            self.a_prev = np.zeros_like(self.a_prev)
        self.episodes += reset
        if self._ctx is None:
            self._ctx = self.wm.stack.discretized()
        z_t = dists.sample_one_hot(self.wm.encode_step(obs[None, :]), rng)
        h_t, prior_probs = self.wm.wm_step(self.h, self.z, self.a_prev, self._ctx)
        self.replay.append(obs, self.a_prev[0], reward, cont, self.episodes)
        self.h = h_t
        self.z = z_t
        g, k = self.ac.cfg.action_groups, self.ac.cfg.action_classes
        if random_action:
            onehot = dists.one_hot(rng.integers(k, size=(1, g)), k)
        else:
            entropy = dists.latent_entropy_np(prior_probs)
            onehot = self.ac.act(self._features(h_t, z_t, self.goal, np.array([reward]), np.array([cont]), entropy), rng)
        self.a_prev = onehot.reshape(1, -1)
        self.action_emissions += 1
        return onehot[0]

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
        self._ctx = None  # the next step rebuilds the step context from the updated parameters
        report["wm"] = wm_report

        h_states = out["h"].data.reshape(-1, self.wm.h_width)
        ae_total, ae_report = self.ae.loss(Tensor(h_states), rng)
        ae_total.backward()
        self.ae_opt.step()
        report["ae"] = ae_report

        report["ac"] = self._train_actor(out, batch, horizon, rng)
        return report

    def _train_actor(self, wm_out: dict, batch: dict, horizon: int, rng) -> dict:
        bsz, t_len = batch["reward"].shape
        n = bsz * t_len
        # Imagination starts where acting stands: the posterior z that the
        # world-model loss drew, with the prior's entropy, as step gives it.
        z = wm_out["z"].data
        start = LatentState(h=wm_out["h"].data.reshape(n, self.wm.h_width), z=z.reshape(n, *z.shape[2:]))
        start_entropy = dists.latent_entropy_np(wm_out["prior_probs"].data)
        hp1 = horizon + 1
        feats = np.empty((n, hp1, self.ac.cfg.feat_width))

        def act_fn(i, state):
            f = self._features(state["h"], state["z"], self.goal, state["reward"], state["cont"], state["entropy"])
            feats[:, i] = f
            return self.ac.act(f, rng).reshape(n, -1)

        traj = self.wm.imagine(start, act_fn, horizon, rng, start_entropy=start_entropy)
        feats[:, horizon] = self._features(
            traj["h"][:, horizon], traj["z"][:, horizon], self.goal,
            traj["reward"][:, horizon], traj["cont"][:, horizon], traj["entropy"][:, horizon],
        )
        nov = self.ae.novelty(traj["h"].reshape(n * hp1, -1), rng).reshape(n, hp1)
        rewards = {"extr": traj["reward"], "nov": nov}
        if "g" in self.ac.mix:
            rewards["g"] = subgoal_reward(self.ae.decoder.infer(self.goal[None])[0], traj["h"])
        actions = traj["action"].reshape(n, horizon, self.ac.cfg.action_groups, self.ac.cfg.action_classes)
        total, report = reinforce_loss(self.ac, feats, actions, rewards, traj["cont"])
        total.backward()
        report["ac_grad_norm"] = self.ac_opt.step()
        return report


@dataclass
class _Window:
    """Level i's records since level i+1 last stepped: what level i+1 observes next."""

    hs: list[np.ndarray] = field(default_factory=list)
    zs: list[np.ndarray] = field(default_factory=list)
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
    regardless of episode boundaries. Episode boundaries come from the
    reset each level acts on: level 0 resets where the driver says so, and
    level i's record of a window resets exactly when one of the window's k
    lower-level records reset. Each level's replay begins an episode at the
    records where that level reset, so acting and training split episodes at
    the same records, with or without a terminal before the restart. After a
    terminal on the last step of a window, the reset falls on the next
    window's record. The top level's goal input stays all-zero.

    Driver protocol per env step:
        a = agent.policy_step(obs, reward, cont, reset)
        result = env.step(a)
        agent.observe_result(result.reward, result.done)
        if result.done: agent.record_terminal(result.observation, result.reward)
    """

    def __init__(self, levels: list[Subactor], k: int, rng_seed: int):
        if not levels:
            raise ValueError("need at least one level")
        self.levels = levels
        self.k = k
        self.depth = len(levels)
        self.rng = make_rng(rng_seed, stream=9)
        self.env_steps = 0
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
        """Append the terminal observation to level-0 replay, in level 0's current episode.

        No action is taken from a terminal state, so the world model does not
        step: the next policy_step resets level 0. The terminal reward was
        already window-accumulated by observe_result, and the hierarchy clock
        does not tick.
        """
        lvl = self.levels[0]
        lvl.replay.append(obs, lvl.a_prev[0], reward, 0.0, lvl.episodes)

    def _step_level(self, i: int, obs: np.ndarray, reward: float, cont: float, reset: bool) -> np.ndarray:
        """Step level i and push its new (h, z) into the window above; returns its action."""
        lvl = self.levels[i]
        action = lvl.step(obs, reward, cont, reset, self.rng, self._random_phase)
        if i < self.depth - 1:
            above = self._windows[i]
            above.hs.append(lvl.h[0])
            above.zs.append(lvl.z.reshape(-1))
            above.reset = above.reset or reset
        return action

    def _emit(self, i: int) -> None:
        """Level i observes the completed window of level i-1 and emits a subgoal."""
        win = self._windows[i - 1]
        self._windows[i - 1] = _Window()
        # the window's k h rows, then its k flattened z rows; encode rejects a window of any other width
        goal = self._step_level(i, np.concatenate(win.hs + win.zs), win.reward, win.cont, win.reset)
        self.levels[i - 1].goal = goal.reshape(-1)
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
) -> HierarchicalAgent:
    """Construct a depth-level stack with consistent inter-level widths.

    Level 0 observes the environment and acts in it; level i>0 observes the
    k-window of level i-1 latent states and acts in the level-(i-1) subgoal
    code space. Every level mixes its reward streams with MIX, except the
    top level, which has no incoming goal: TOP_MIX.

    An upper level's observation is the window's k h rows, then its k
    flattened one-hot z rows. The last k * z_flat columns, with z_flat of
    the level below, hold only 0 and 1, so that level's replay stores them
    as bytes. Level 0's environment observations are floats throughout.
    """
    rng = make_rng(seed, stream=1)
    levels = []
    obs_dim = env_obs_dim
    action_dim = env_n_actions
    action_groups, action_classes = 1, env_n_actions
    n_binary = 0
    for i in range(depth):
        wm_cfg = WmConfig(obs_dim=obs_dim, action_dim=action_dim, **(wm_kwargs or {}))
        h_width = wm_cfg.h_width
        sg_cfg = SubgoalConfig(h_width=h_width, **(sg_kwargs or {}))
        feat_width = h_width + wm_cfg.z_flat + sg_cfg.flat + 3
        ac_cfg = AcConfig(
            feat_width=feat_width,
            action_groups=action_groups,
            action_classes=action_classes,
            **(ac_kwargs or {}),
        )
        levels.append(Subactor(rng, wm_cfg, sg_cfg, ac_cfg, MIX if i < depth - 1 else TOP_MIX, n_binary))
        # dimensions seen by the next level up
        obs_dim = k * (h_width + wm_cfg.z_flat)
        n_binary = k * wm_cfg.z_flat
        action_groups, action_classes = sg_cfg.n_codes, sg_cfg.code_size
        action_dim = sg_cfg.flat
    return HierarchicalAgent(levels, k, rng_seed=seed)
