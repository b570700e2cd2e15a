"""Hierarchical agent tests: the subgoal reward and the full train step."""

import numpy as np
import pytest

from sswm.agent import build_agent, subgoal_reward
from sswm.envs import make_env
from sswm.replay import EtbsSampler
from sswm.tensor import make_rng


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
    agent = build_agent(
        depth, env.obs_dim, env.n_actions, depth=depth, k=k,
        wm_kwargs=dict(n_cats=2, n_classes=4, model_dim=8, state_dim=4, mlp_units=8),
        sg_kwargs=dict(n_codes=2, code_size=4, mlp_units=8),
        ac_kwargs=dict(mlp_units=8),
    )
    rng = make_rng(depth, stream=2)
    trained = set()
    obs, reward, reset = env.reset(), 0.0, True
    for _ in range(4 * k ** (depth - 1) + k**depth):
        a = agent.policy_step(obs, reward, 1.0, reset)
        res = env.step(a)
        agent.observe_result(res.reward, res.done)
        if res.done:
            agent.record_terminal(res.observation, res.reward)
            obs, reward, reset = env.reset(), 0.0, True
        else:
            obs, reward, reset = res.observation, res.reward, False
        reports = agent.train_due_levels(2, 3, lambda level: EtbsSampler(0.3), 2, rng)
        for level, rep in reports.items():
            trained.add(level)
            ac = rep["ac"]
            assert np.isfinite([rep["wm"].total, rep["wm_grad_norm"], ac["policy_loss"], ac["ac_grad_norm"]]).all()
    assert trained == set(range(depth))
