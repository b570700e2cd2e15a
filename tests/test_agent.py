"""Hierarchical agent tests: the subgoal reward, the clock and the full train step."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sswm import agent as agent_module
from sswm.agent import Subactor, build_agent, subgoal_reward
from sswm.envs import make_env
from sswm.replay import EtbsSampler
from sswm.tensor import Tensor, make_rng, no_grad

TINY = dict(
    wm_kwargs=dict(n_cats=2, n_classes=4, model_dim=8, state_dim=4, mlp_units=8),
    sg_kwargs=dict(n_codes=2, code_size=4, mlp_units=8),
    ac_kwargs=dict(mlp_units=8),
)


def tiny_agent(seed, depth, k):
    env = make_env("memory_cue", seed=seed, length=5)
    return env, build_agent(seed, env.obs_dim, env.n_actions, depth=depth, k=k, **TINY)


def drive(agent, env, steps, after_step=None) -> int:
    """Run the driver protocol for `steps` env steps; returns the terminal count."""
    terminals = 0
    obs, reward, reset = env.reset(), 0.0, True
    for _ in range(steps):
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
            width = k * (below.wm.h_width + below.cfg.wm.z_flat)
            assert lvl.cfg.wm.obs_dim == lvl.replay.obs.shape[1] == width
            assert len(lvl.replay) == steps // k**i
    assert agent.levels[0].replay.n == steps + terminals


@settings(max_examples=12, deadline=None)
@given(depth=st.integers(1, 3), k=st.integers(2, 4), steps=st.integers(0, 70), seed=st.integers(0, 2**16))
@example(depth=2, k=2, steps=12, seed=0)  # episodes of 6 steps end on the last step of a window
def test_window_resets_match_replay(depth, k, steps, seed):
    """Acting resets each level's state at the records where its replay starts an episode."""
    env, agent = tiny_agent(seed, depth, k)
    passed = {id(lvl): [] for lvl in agent.levels}
    advance = Subactor.advance

    def recording_advance(self, obs, reward, cont, reset, episode_id, rng):
        passed[id(self)].append((len(self.replay), reset))
        return advance(self, obs, reward, cont, reset, episode_id, rng)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Subactor, "advance", recording_advance)
        drive(agent, env, steps)
    for lvl in agent.levels:
        if passed[id(lvl)]:
            rows, resets = map(np.array, zip(*passed[id(lvl)]))
            np.testing.assert_array_equal(resets, lvl.replay.reset_flags(rows, 1)[:, 0])


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
    traj, goal_vec = seen["traj"], lvl.goal_feature()
    for t in range(horizon + 1):
        ref = features(traj["h"][:, t], traj["z"][:, t], goal_vec, traj["reward"][:, t], traj["cont"][:, t], traj["entropy"][:, t])
        np.testing.assert_array_equal(seen["feats"][:, t], ref)


def test_step_context_follows_train_step():
    env, agent = tiny_agent(7, depth=1, k=2)
    drive(agent, env, 12)
    lvl = agent.levels[0]
    stale = lvl._ctx
    assert stale is not None
    assert lvl.train_step(2, 3, EtbsSampler(0.3), 2, make_rng(7, stream=2)) is not None

    def step_h(ctx):
        with no_grad():
            _, h = lvl.wm.wm_step(Tensor(lvl.h), Tensor(lvl.z), Tensor(lvl.a_prev), np.array([False]), ctx)
        return h.data

    fresh, old = step_h(lvl.wm.stack.discretized()), step_h(stale)
    assert not np.array_equal(fresh, old)  # the update moved the step maps
    lvl.advance(np.zeros(env.obs_dim), 0.0, 1.0, False, 0, make_rng(7, stream=3))
    np.testing.assert_array_equal(lvl.h, fresh)
