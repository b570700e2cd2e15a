"""Hierarchical agent tests: the subgoal reward, the clock, the full train step, lambda-returns and the actor-critic loss."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sswm import agent as agent_module
from sswm import dists, tensor
from sswm.agent import (
    ENTROPY_COEF,
    GAMMA,
    LAM,
    MIX,
    TOP_MIX,
    AcConfig,
    ActorCritic,
    HierarchicalAgent,
    Subactor,
    build_agent,
    lambda_returns,
    reinforce_loss,
    subgoal_reward,
)
from sswm.envs import make_env
from sswm.nn import MLP, parameters
from sswm.replay import EtbsSampler, ExperienceDataset
from sswm.s5 import S5Stack
from sswm.tensor import Tensor, add, make_rng, mul, neg, reshape, tmean
from sswm.worldmodel import LatentState

TINY = dict(
    wm_kwargs=dict(n_cats=2, n_classes=4, model_dim=8, state_dim=4, mlp_units=8),
    sg_kwargs=dict(n_codes=2, code_size=4, mlp_units=8),
    ac_kwargs=dict(mlp_units=8),
)


def tiny_agent(seed, depth, k):
    env = make_env("memory_cue", seed=seed, length=5)
    return env, build_agent(seed, env.obs_dim, env.n_actions, depth=depth, k=k, **TINY)


def drive(agent, env, steps, after_step=None, restarts=()) -> int:
    """Run the driver protocol for `steps` env steps; returns the terminal count.

    The driver resets the environment at the start, after every terminal, and
    before each step whose index is in `restarts`, with no terminal then.
    """
    terminals = 0
    obs, reward, reset = env.reset(), 0.0, True
    for t in range(steps):
        if t in restarts:
            obs, reward, reset = env.reset(), 0.0, True
        a = agent.policy_step(obs, reward, 1.0, reset)
        res = env.step(a)
        agent.observe_result(res.reward, res.done)
        if res.done:
            agent.record_terminal(res.observation, res.reward)
            terminals += 1
            obs, reward, reset = env.reset(), 0.0, True
        else:
            obs, reward, reset = res.observation, res.reward, False
        if after_step is not None:
            after_step()
    return terminals


def test_subgoal_reward_broadcasts_one_goal_over_states():
    rng = make_rng(0)
    goal = rng.normal(size=6)
    h = rng.normal(size=(4, 3, 6))  # (N, H+1, d)
    h[1, 2] = 0.0
    got = subgoal_reward(goal, h)
    assert got.shape == (4, 3)
    for i in range(4):
        for t in range(3):
            den = max(np.linalg.norm(goal), np.linalg.norm(h[i, t]))
            assert got[i, t] == pytest.approx(goal @ h[i, t] / den, abs=1e-12)
    # both zero gives 0, not nan
    np.testing.assert_array_equal(subgoal_reward(np.zeros(6), np.zeros((2, 3, 6))), 0.0)
    with pytest.raises(ValueError, match="widths differ"):
        subgoal_reward(goal, h[..., :5])


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_train_due_levels_trains_every_level(depth):
    k = 2
    env = make_env("memory_cue", seed=depth)
    agent = build_agent(depth, env.obs_dim, env.n_actions, depth=depth, k=k, **TINY)
    rng = make_rng(depth, stream=2)
    trained = set()

    def train():
        reports = agent.train_due_levels(2, 3, lambda level: EtbsSampler(0.3), 2, rng)
        for level, rep in reports.items():
            trained.add(level)
            ac = rep["ac"]
            assert np.isfinite([rep["wm"].total, rep["wm_grad_norm"], ac["policy_loss"], ac["ac_grad_norm"]]).all()

    drive(agent, env, 4 * k ** (depth - 1) + k**depth, train)
    assert trained == set(range(depth))


@settings(max_examples=12, deadline=None)
@given(depth=st.integers(1, 3), k=st.integers(2, 4), steps=st.integers(0, 70), seed=st.integers(0, 2**16))
def test_clock_replay_and_uplink_widths(depth, k, steps, seed):
    env, agent = tiny_agent(seed, depth, k)
    terminals = drive(agent, env, steps)
    for i, lvl in enumerate(agent.levels):
        # level i emits floor(T / k^i) actions, whatever the episode boundaries
        assert lvl.action_emissions == steps // k**i
        if i > 0:
            below = agent.levels[i - 1]
            width = k * (below.wm.h_width + below.wm.cfg.z_flat)
            assert lvl.wm.cfg.obs_dim == width
            assert len(lvl.replay) == steps // k**i
            if len(lvl.replay):  # the logical width: replay stores the 0/1 columns apart
                assert lvl.replay.sample_batch(make_rng(0), 1, 1, EtbsSampler(0.3))["obs"].shape == (1, 1, width)
    assert agent.levels[0].replay.n == steps + terminals


def test_replay_record_bytes_per_level():
    # bytes one stored record costs, summed over the stored columns: float64
    # columns at 8 bytes a value, the 0/1 columns (actions, the uplink's
    # one-hot z) at 1. All float64, they were 89 and 4,625.
    agent = build_agent(0, 5, 4, depth=3, k=4)
    per_record = []
    for lvl in agent.levels:
        columns = [getattr(lvl.replay, name) for name in ExperienceDataset.COLUMNS]
        per_record.append(sum(c.itemsize * c[0].size for c in columns))
    assert per_record == [61, 2385, 2385]


@settings(max_examples=12, deadline=None)
@given(
    depth=st.integers(1, 3),
    k=st.integers(2, 4),
    steps=st.integers(0, 70),
    seed=st.integers(0, 2**16),
    restarts=st.sets(st.integers(1, 69), max_size=4),
)
@example(depth=2, k=2, steps=12, seed=0, restarts=set())  # episodes of 6 steps end on the last step of a window
@example(depth=2, k=4, steps=12, seed=0, restarts={6})  # a restart with no terminal, mid-window
def test_window_resets_match_replay(depth, k, steps, seed, restarts):
    """Acting resets each level's state at the records where its replay starts an episode."""
    env, agent = tiny_agent(seed, depth, k)
    passed = {id(lvl): [] for lvl in agent.levels}
    step = Subactor.step

    def recording_step(self, obs, reward, cont, reset, rng, random_action):
        passed[id(self)].append((len(self.replay), reset))
        return step(self, obs, reward, cont, reset, rng, random_action)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Subactor, "step", recording_step)
        drive(agent, env, steps, restarts=restarts)
    for lvl in agent.levels:
        if passed[id(lvl)]:
            rows, resets = map(np.array, zip(*passed[id(lvl)]))
            np.testing.assert_array_equal(resets, lvl.replay.reset[rows])


@pytest.mark.parametrize("depth, k", [(2, 4), (3, 2)])
def test_restart_without_terminal_resets_replay(depth, k):
    # a driver may restart an episode with no terminal before it: replay
    # flags a reset at that record at level 0, and at each level whose
    # window holds it
    env, agent = tiny_agent(12, depth, k)
    rng = make_rng(12, stream=4)
    steps, restart = 4 * k ** (depth - 1), 6
    for t in range(steps):
        # observations from no environment, so no terminal comes
        agent.policy_step(rng.normal(size=env.obs_dim), 0.0, 1.0, t in (0, restart))
        agent.observe_result(0.0, False)
    for i, lvl in enumerate(agent.levels):
        want = np.zeros(steps // k**i, dtype=bool)
        want[[0, restart // k**i]] = True
        np.testing.assert_array_equal(lvl.replay.reset[: len(lvl.replay)], want)


def test_uplink_rows_are_the_window_h_rows_then_z_rows():
    env, agent = tiny_agent(13, depth=3, k=2)
    k, seen = agent.k, {id(lvl): [] for lvl in agent.levels}
    step = Subactor.step

    def recording_step(self, *args):
        action = step(self, *args)
        seen[id(self)].append((self.h[0].copy(), self.z.reshape(-1).copy()))
        return action

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Subactor, "step", recording_step)
        drive(agent, env, 24)
    for below, lvl in zip(agent.levels, agent.levels[1:]):
        n = len(lvl.replay)
        assert n == len(seen[id(below)]) // k > 0
        rows = lvl.replay.sample_batch(make_rng(0), 1, n, EtbsSampler(0.3))["obs"][0]
        hs, zs = (np.stack(block).reshape(n, -1) for block in zip(*seen[id(below)]))
        np.testing.assert_array_equal(rows, np.concatenate([hs, zs], axis=1))
        z_cols = rows[:, -k * below.wm.cfg.z_flat :]
        assert lvl.replay.n_binary == z_cols.shape[1] and set(np.unique(z_cols)) == {0.0, 1.0}


def test_random_phase_acts_without_any_policy(monkeypatch):
    env, agent = tiny_agent(10, depth=3, k=2)
    act = ActorCritic.act

    def no_policy(self, feats, rng):
        raise AssertionError("a level acted from its policy in the random phase")

    monkeypatch.setattr(ActorCritic, "act", no_policy)
    agent.set_random_phase(True)
    terminals = drive(agent, env, 16)
    for i, lvl in enumerate(agent.levels):
        assert lvl.action_emissions == 16 // 2**i
        if i > 0:
            assert len(lvl.replay) == 16 // 2**i
    assert len(agent.levels[0].replay) == 16 + terminals

    acted = []
    monkeypatch.setattr(ActorCritic, "act", lambda self, feats, rng: acted.append(self) or act(self, feats, rng))
    agent.set_random_phase(False)
    drive(agent, env, 8)
    assert len(acted) == 8 + 4 + 2  # every level's policy picks every one of its actions
    assert {id(ac) for ac in acted} == {id(lvl.ac) for lvl in agent.levels}


def test_record_terminal_only_appends_the_row():
    env, agent = tiny_agent(8, depth=2, k=2)
    drive(agent, env, 3)
    lvl = agent.levels[0]
    rows, h, z, rng = len(lvl.replay), lvl.h.copy(), lvl.z.copy(), copy.deepcopy(agent.rng)
    obs = np.full(env.obs_dim, 0.5)
    agent.record_terminal(obs, 2.0)
    np.testing.assert_array_equal(agent.rng.random(4), rng.random(4))  # no draws taken
    np.testing.assert_array_equal(lvl.h, h)
    np.testing.assert_array_equal(lvl.z, z)
    assert len(lvl.replay) == rows + 1
    np.testing.assert_array_equal(lvl.replay.obs[rows], obs)
    np.testing.assert_array_equal(lvl.replay.action[rows], lvl.a_prev[0])
    assert (lvl.replay.reward[rows], lvl.replay.cont[rows]) == (2.0, 0.0)
    assert len(agent.levels[1].replay) == 1


def test_same_seed_gives_identical_runs():
    def run():
        env, agent = tiny_agent(5, depth=2, k=2)
        rng = make_rng(5, stream=2)
        reports, states = [], []

        def record():
            for level, rep in sorted(agent.train_due_levels(2, 3, lambda level: EtbsSampler(0.3), 2, rng).items()):
                reports.append((level, rep["wm_grad_norm"], vars(rep["wm"]), rep["ae"], rep["ac"]))
            states.append(np.concatenate([np.concatenate([lvl.h.ravel(), lvl.z.ravel()]) for lvl in agent.levels]))

        drive(agent, env, 24, record)
        return reports, np.stack(states)

    (reports, states), (reports_again, states_again) = run(), run()
    assert {level for level, *_ in reports} == {0, 1}
    assert reports == reports_again
    np.testing.assert_array_equal(states, states_again)


def test_actor_features_built_once_per_rollout(monkeypatch):
    env, agent = tiny_agent(6, depth=1, k=2)
    drive(agent, env, 12)
    lvl, horizon = agent.levels[0], 3
    features, imagine, reinforce_loss = lvl._features, lvl.wm.imagine, agent_module.reinforce_loss
    calls, seen = [], {}

    def counting_features(*args):
        calls.append(args)
        return features(*args)

    def recording_imagine(*args, **kwargs):
        seen["traj"] = imagine(*args, **kwargs)
        return seen["traj"]

    def recording_loss(ac, feats, *args):
        seen["feats"] = feats
        return reinforce_loss(ac, feats, *args)

    monkeypatch.setattr(lvl, "_features", counting_features)
    monkeypatch.setattr(lvl.wm, "imagine", recording_imagine)
    monkeypatch.setattr(agent_module, "reinforce_loss", recording_loss)
    assert lvl.train_step(2, 3, EtbsSampler(0.3), horizon, make_rng(6, stream=2)) is not None
    assert len(calls) == horizon + 1
    # the features the loss sees equal those rebuilt from the finished rollout, state by state
    traj = seen["traj"]
    for t in range(horizon + 1):
        ref = features(traj["h"][:, t], traj["z"][:, t], lvl.goal, traj["reward"][:, t], traj["cont"][:, t], traj["entropy"][:, t])
        np.testing.assert_array_equal(seen["feats"][:, t], ref)


@pytest.mark.parametrize("case", ["stack_step", "wm_step", "imagine", "act", "novelty", "acting", "acting_after_training"])
def test_inference_builds_no_tensor(case, built_tensors):
    # inference is plain numpy: each entry point, with its step context built
    # in the call, constructs no Tensor at all
    env, agent = tiny_agent(3, depth=3, k=2)
    lvl, rng, n = agent.levels[0], make_rng(3, stream=2), 4
    wm = lvl.wm
    h = rng.normal(size=(n, wm.h_width))
    z = dists.sample_one_hot(np.full((n, wm.cfg.n_cats, wm.cfg.n_classes), 1.0 / wm.cfg.n_classes), rng)
    if case == "acting_after_training":
        drive(agent, env, 16)
        assert set(agent.train_due_levels(2, 3, lambda level: EtbsSampler(0.3), 2, rng)) == {0, 1, 2}
        assert all(level._ctx is None for level in agent.levels)  # acting rebuilds every step context

    def policy(i, state):
        feats = lvl._features(state["h"], state["z"], lvl.goal, state["reward"], state["cont"], state["entropy"])
        return lvl.ac.act(feats, rng).reshape(n, -1)

    calls = {
        "stack_step": lambda: wm.stack.step(h, rng.normal(size=(n, wm.cfg.model_dim)), wm.stack.discretized()),
        "wm_step": lambda: wm.wm_step(h, z, np.zeros((n, wm.cfg.action_dim)), wm.stack.discretized()),
        "imagine": lambda: wm.imagine(LatentState(h=h, z=z), policy, 3, rng),
        "act": lambda: lvl.ac.act(lvl._features(h, z, lvl.goal, np.zeros(n), np.ones(n), np.zeros(n)), rng),
        "novelty": lambda: lvl.ae.novelty(h, rng),
        # 8 env steps hold a terminal, level-1 and level-2 emissions
        "acting": lambda: drive(agent, env, 8),
        "acting_after_training": lambda: drive(agent, env, 8),
    }
    emitted = [level.action_emissions for level in agent.levels]
    built_tensors.clear()
    out = calls[case]()
    assert built_tensors == []
    if case.startswith("acting"):
        assert out == 1
        assert [level.action_emissions - e for level, e in zip(agent.levels, emitted)] == [8, 4, 2]


def _zero_start(wm) -> LatentState:
    return LatentState(h=np.zeros((1, wm.h_width)), z=np.zeros((1, wm.cfg.n_cats, wm.cfg.n_classes)))


# (message, call on a tiny level) for each structure that must not be empty
EMPTY_STRUCTURES = {
    "stack_without_blocks": ("at least one S5 block", lambda lvl: S5Stack(make_rng(0), 4, 4, 0)),
    "mlp_without_output": ("at least input and output sizes", lambda lvl: MLP(make_rng(0), [4])),
    "agent_without_levels": ("at least one level", lambda lvl: HierarchicalAgent([], 2, 0)),
    "rollout_without_transition": (
        "at least one imagined transition",
        lambda lvl: reinforce_loss(lvl.ac, np.zeros((2, 1, lvl.ac.cfg.feat_width)), np.zeros((2, 0, 1, 2)), {}, np.ones((2, 1))),
    ),
    "imagine_without_horizon": ("horizon must be >= 1", lambda lvl: lvl.wm.imagine(_zero_start(lvl.wm), None, 0, make_rng(0))),
}


@pytest.mark.parametrize("case", list(EMPTY_STRUCTURES))
def test_empty_structures_are_rejected(case):
    _, agent = tiny_agent(0, depth=1, k=2)
    match, call = EMPTY_STRUCTURES[case]
    with pytest.raises(ValueError, match=match):
        call(agent.levels[0])


def test_imagination_starts_from_the_posterior(monkeypatch):
    env, agent = tiny_agent(6, depth=1, k=2)
    drive(agent, env, 12)
    lvl = agent.levels[0]
    loss, imagine = lvl.wm.loss, lvl.wm.imagine
    seen = {}

    def recording_loss(*args, **kwargs):
        total, report, seen["out"] = loss(*args, **kwargs)
        return total, report, seen["out"]

    def recording_imagine(start, *args, **kwargs):
        seen["start"] = start
        return imagine(start, *args, **kwargs)

    monkeypatch.setattr(lvl.wm, "loss", recording_loss)
    monkeypatch.setattr(lvl.wm, "imagine", recording_imagine)
    assert lvl.train_step(2, 3, EtbsSampler(0.3), 2, make_rng(6, stream=2)) is not None
    # the start states are the window's (h, z), z as the world-model loss drew it
    z, start = seen["out"]["z"].data, seen["start"]
    np.testing.assert_array_equal(start.z, z.reshape(-1, *z.shape[2:]))
    np.testing.assert_array_equal(start.h, seen["out"]["h"].data.reshape(len(start.z), -1))


def test_step_context_follows_train_step():
    env, agent = tiny_agent(7, depth=1, k=2)
    drive(agent, env, 12)
    lvl = agent.levels[0]
    stale = lvl._ctx
    assert stale is not None
    assert lvl.train_step(2, 3, EtbsSampler(0.3), 2, make_rng(7, stream=2)) is not None

    def step_h(ctx):
        return lvl.wm.wm_step(lvl.h, lvl.z, lvl.a_prev, ctx)[0]

    fresh, old = step_h(lvl.wm.stack.discretized()), step_h(stale)
    assert not np.array_equal(fresh, old)  # the update moved the step maps
    lvl.step(np.zeros(env.obs_dim), 0.0, 1.0, False, make_rng(7, stream=3), random_action=True)
    np.testing.assert_array_equal(lvl.h, fresh)


def test_each_level_trains_every_parameter_in_exactly_one_optimizer():
    _, agent = tiny_agent(1, depth=3, k=2)
    for i, lvl in enumerate(agent.levels):
        opts = [lvl.wm_opt, lvl.ae_opt, lvl.ac_opt]
        held = [{id(p) for p in opt.params.values()} for opt in opts]
        # the top level has no subgoal stream, so no subgoal value head
        assert [len(ids) for ids in held] == ([38, 8, 16] if i < 2 else [38, 8, 12])
        assert sum(map(len, held)) == len(set().union(*held))  # disjoint
        found = {**parameters(lvl.wm, "wm"), **parameters(lvl.ae, "ae"), **parameters(lvl.ac, "ac")}
        assert set().union(*held) == {id(p) for p in found.values()}


def test_top_level_trains_no_subgoal_stream(monkeypatch):
    env, agent = tiny_agent(9, depth=2, k=2)
    drive(agent, env, 8)
    low, top = agent.levels
    heads = lambda ac: {name.split(".")[2] for name in parameters(ac, "ac") if name.startswith("ac.heads.")}  # noqa: E731
    assert heads(low.ac) == {"extr", "g", "nov"} and low.ac.mix == MIX
    assert heads(top.ac) == {"extr", "nov"}
    # built without a mix, an actor-critic has every stream, as a lower level's
    assert heads(ActorCritic(make_rng(0), low.ac.cfg)) == heads(low.ac)

    calls = []
    monkeypatch.setattr(agent_module, "subgoal_reward", lambda *args: calls.append(args) or subgoal_reward(*args))
    reports = agent.train_due_levels(2, 3, lambda level: EtbsSampler(0.3), 2, make_rng(9, stream=2))
    assert set(reports) == {0, 1}
    assert len(calls) == 1  # level 0's train step only
    assert {"return_extr", "return_g", "return_nov"} <= set(reports[0]["ac"])
    assert {"return_extr", "return_nov"} <= set(reports[1]["ac"]) and "return_g" not in reports[1]["ac"]


# ---------------------------------------------------------------------------
# lambda-returns and the actor-critic loss
# ---------------------------------------------------------------------------


def random_rollout(seed, bsz=3, hp1=5, streams=3):
    rng = make_rng(seed)
    rewards = rng.normal(size=(bsz, hp1, streams))
    conts = (rng.random((bsz, hp1, 1)) > 0.2) * rng.uniform(0.5, 1.0, size=(bsz, hp1, 1))
    return rewards, conts, rng.normal(size=(bsz, hp1, streams))


def test_lambda_returns_at_lambda_one_is_the_discounted_sum():
    gamma = 0.9
    rewards, conts, values = (a[..., 0] for a in random_rollout(30))
    horizon = rewards.shape[1] - 1
    want = np.empty((rewards.shape[0], horizon))
    for t in range(horizon):
        total, carry = 0.0, 1.0  # carry: gamma^(j-t-1) times the continuation product over (t, j)
        for j in range(t + 1, horizon + 1):
            total = total + carry * rewards[:, j]
            carry = carry * gamma * conts[:, j]
        want[:, t] = total + carry * values[:, horizon]
    np.testing.assert_allclose(lambda_returns(rewards, conts, values, gamma, 1.0), want, rtol=1e-12)


def test_lambda_returns_at_lambda_zero_is_the_one_step_target():
    gamma = 0.9
    rewards, conts, values = (a[..., 0] for a in random_rollout(31))
    want = rewards[:, 1:] + gamma * conts[:, 1:] * values[:, 1:]
    np.testing.assert_allclose(lambda_returns(rewards, conts, values, gamma, 0.0), want, rtol=1e-14)


def test_lambda_returns_stream_axis_matches_per_stream_calls():
    rewards, conts, values = random_rollout(32)
    got = lambda_returns(rewards, conts, values, 0.99, 0.95)
    assert got.shape == (3, 4, 3)
    for s in range(3):
        np.testing.assert_array_equal(got[..., s], lambda_returns(rewards[..., s], conts[..., 0], values[..., s], 0.99, 0.95))


def reference_reinforce_loss(ac, feats, actions, rewards, conts):
    """One lambda-return, one masked value regression per stream, each from its own head."""
    bsz, hp1, fdim = feats.shape
    horizon = hp1 - 1
    flat_all = Tensor(feats.reshape(bsz * hp1, fdim))
    values = {s: reshape(head(flat_all), (bsz * hp1,)) for s, head in ac.heads.items()}
    values_np = {s: v.data.reshape(bsz, hp1) for s, v in values.items()}
    returns = {s: lambda_returns(rewards[s], conts, values_np[s], GAMMA, LAM) for s in ac.mix}
    mixed_return = sum(w * returns[s] for s, w in ac.mix.items())
    mixed_value = sum(w * values_np[s][:, :horizon] for s, w in ac.mix.items())
    adv = mixed_return - mixed_value

    feats_t = Tensor(feats[:, :horizon].reshape(bsz * horizon, fdim))
    lp, ent = ac.log_prob_entropy(feats_t, actions.reshape(bsz * horizon, *actions.shape[2:]))
    pg = neg(tmean(mul(lp, Tensor(adv.reshape(-1)))))
    policy_loss = add(pg, neg(mul(tmean(ent), Tensor(ENTROPY_COEF))))

    value_loss = Tensor(0.0)
    for s in ac.mix:
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
        **{f"return_{s}": float(r.mean()) for s, r in returns.items()},
    }
    return total, report


def actor_critic_rollout(seed, mix, bsz=4, horizon=5, groups=2, classes=3):
    rng = make_rng(seed)
    ac = ActorCritic(rng, AcConfig(feat_width=7, action_groups=groups, action_classes=classes, mlp_units=8), mix)
    feats = rng.normal(size=(bsz, horizon + 1, 7))
    actions = dists.one_hot(rng.integers(classes, size=(bsz, horizon, groups)), classes)
    rewards = {s: rng.normal(size=(bsz, horizon + 1)) for s in mix}
    conts = (rng.random((bsz, horizon + 1)) > 0.2).astype(float)
    return ac, (feats, actions, rewards, conts)


@pytest.mark.parametrize("mix", [MIX, TOP_MIX], ids=["3-stream", "2-stream"])
def test_reinforce_loss_matches_per_stream_reference(mix):
    ac, args = actor_critic_rollout(33, mix)
    params = parameters(ac, "ac")

    def run(loss_fn):
        total, report = loss_fn(ac, *args)
        total.backward()
        grads = {k: p.grad for k, p in params.items()}
        for p in params.values():
            p.grad = None
        return total.item(), report, grads

    total, report, grads = run(reinforce_loss)
    ref_total, ref_report, ref_grads = run(reference_reinforce_loss)
    assert total == pytest.approx(ref_total, rel=1e-12)
    assert report.keys() == ref_report.keys() and {f"return_{s}" for s in mix} <= report.keys()
    for key, ref in ref_report.items():
        assert report[key] == pytest.approx(ref, rel=1e-12, abs=1e-15), key
    for k, ref in ref_grads.items():
        assert np.abs(grads[k] - ref).max() <= 1e-12 * np.abs(ref).max(), k


def test_reinforce_loss_graph_size(monkeypatch):
    # 3 value heads of 3 nodes, their concat and reshape: 11; the policy loss: 21;
    # one value-loss chain over every stream (slice, error, square, mean, scale): 5;
    # the total: 1. The per-stream form built 55.
    ac, args = actor_critic_rollout(34, MIX)
    made = []
    make = tensor._make

    def counting_make(*a):
        made.append(1)
        return make(*a)

    monkeypatch.setattr(tensor, "_make", counting_make)
    reinforce_loss(ac, *args)
    assert len(made) <= 40
