"""Environment contract tests, including the Monte-Carlo and BFS oracles."""

from collections import deque

import numpy as np
import pytest

from sswm.envs import LinearSystemEnv, MemoryCueEnv, TwoLevelGridworld, make_env
from sswm.tensor import make_rng


# ---------------------------------------------------------------------------
# memory cue
# ---------------------------------------------------------------------------


def run_episode(env, policy):
    obs = env.reset()
    total = 0.0
    steps = 0
    while True:
        step = env.step(policy(obs, steps))
        total += step.reward
        steps += 1
        if step.done:
            return total, steps


def test_memory_cue_episode_length():
    env = MemoryCueEnv(length=5, n_cues=3, seed=1)
    _, steps = run_episode(env, lambda o, t: 0)
    assert steps == 6


def test_memory_cue_chance_level():
    env = MemoryCueEnv(length=3, n_cues=4, seed=2)
    rewards = [run_episode(env, lambda o, t: 0)[0] for _ in range(4000)]
    assert np.mean(rewards) == pytest.approx(0.25, abs=0.03)


def test_memory_cue_oracle_policy():
    env = MemoryCueEnv(length=6, n_cues=4, seed=3)
    for _ in range(50):
        obs = env.reset()
        cue = int(np.argmax(obs[:4]))
        total, _ = run_episode_from(env, cue)
        assert total == 1.0


def run_episode_from(env, cue):
    total = 0.0
    while True:
        step = env.step(cue)
        total += step.reward
        if step.done:
            return total, None


def test_memory_cue_blank_middle_observations():
    env = MemoryCueEnv(length=4, n_cues=3, seed=4)
    obs = env.reset()
    assert obs[:3].sum() == 1.0 and obs[-1] == 0.0
    mids = []
    for t in range(4):
        step = env.step(0)
        mids.append(step.observation)
    assert all(m[:3].sum() == 0.0 for m in mids)
    assert mids[-1][-1] == 1.0  # query flag at t = L


# ---------------------------------------------------------------------------
# gridworld
# ---------------------------------------------------------------------------


def bfs_shortest_solution(env):
    """Oracle: shortest action sequence solving the two-stage task, or None."""
    start = (env.start, False, False)
    seen = {start}
    queue = deque([(start, [])])
    while queue:
        (pos, key, in_b), path = queue.popleft()
        for a, (dr, dc) in enumerate(env._MOVES):
            r = min(max(pos[0] + dr, 0), env.size - 1)
            c = min(max(pos[1] + dc, 0), env.size - 1)
            npos, nkey, nb = (r, c), key, in_b
            if not in_b:
                if npos == env.key:
                    nkey = True
                if npos == env.door and nkey:
                    nb = True
                    npos = env.start
            elif npos == env.goal:
                return path + [a]
            state = (npos, nkey, nb)
            if state not in seen:
                seen.add(state)
                queue.append((state, path + [a]))
    return None


def test_gridworld_random_policy_rarely_succeeds():
    env = TwoLevelGridworld(size=8, seed=5)
    rng = make_rng(55)
    successes = 0
    episodes = 10_000
    for _ in range(episodes):
        env.reset()
        while True:
            step = env.step(int(rng.integers(4)))
            if step.done:
                successes += step.reward == 1.0  # the gridworld pays 1 exactly on success
                break
    assert successes / episodes < 0.05


def test_gridworld_bfs_oracle_solves_at_minimal_length():
    env = TwoLevelGridworld(size=8, seed=5)
    path = bfs_shortest_solution(env)
    assert path is not None and len(path) <= env.max_steps
    env.reset()
    total = 0.0
    for i, a in enumerate(path):
        step = env.step(a)
        total += step.reward
        assert step.done == (i == len(path) - 1)
    assert total == 1.0


def test_gridworld_room_indicator_channel():
    env = TwoLevelGridworld(size=6, seed=7)
    obs_a = env.reset()
    assert obs_a[-1] == 0.0
    path = bfs_shortest_solution(env)
    obs = None
    for a in path:
        obs = env.step(a).observation
    assert obs[-1] == 1.0  # room B flag set on the terminal observation path


# ---------------------------------------------------------------------------
# linear system
# ---------------------------------------------------------------------------


def test_linear_identity_dynamics_constant_state():
    env = LinearSystemEnv(dim=3, noise_std=0.0, seed=8)
    env.m_mat, env.n_mat = np.eye(3), np.zeros((3, 4))
    obs0 = env.reset()
    for _ in range(10):
        step = env.step(2)
        np.testing.assert_allclose(step.observation, obs0, atol=1e-12)


def test_linear_noise_floor_value():
    env = LinearSystemEnv(dim=3, noise_std=0.1, seed=9)
    assert env.one_step_noise_floor() == pytest.approx(0.02)
    # empirical: predicting M x + N a with exact state knowledge hits the floor
    rng = make_rng(10)
    errs = []
    obs = env.reset()
    x_prev = env._x.copy()
    for _ in range(5000):
        a = int(rng.integers(env.n_actions))
        step = env.step(a)
        pred = env.m_mat @ x_prev + env.n_mat[:, a]
        errs.append((step.observation - pred) ** 2)
        x_prev = env._x.copy()
        if step.done:
            obs = env.reset()
            x_prev = env._x.copy()
    mse = np.mean(errs)
    assert mse == pytest.approx(env.one_step_noise_floor(), rel=0.1)


def test_linear_spectral_radius_below_one():
    for seed in range(5):
        env = LinearSystemEnv(dim=4, noise_std=0.05, seed=seed)
        assert env.spectral_radius < 1.0


# ---------------------------------------------------------------------------
# shared contracts
# ---------------------------------------------------------------------------

SMALL = {"memory_cue": {}, "gridworld": {"size": 5}, "linear": {}}


@pytest.mark.parametrize("name", ["memory_cue", "gridworld", "linear"])
def test_env_deterministic_under_seed(name):
    def trace(seed):
        env = make_env(name, seed=seed, **SMALL[name])
        rng = make_rng(123)
        out = []
        obs = env.reset()
        out.append(obs.copy())
        for _ in range(40):
            step = env.step(int(rng.integers(env.n_actions)))
            out.append(step.observation.copy())
            out.append(np.array([step.reward, float(step.done)]))
            if step.done:
                out.append(env.reset().copy())
        return np.concatenate([o.ravel() for o in out])

    np.testing.assert_array_equal(trace(7), trace(7))
    assert not np.array_equal(trace(7), trace(8))


@pytest.mark.parametrize("name", ["memory_cue", "gridworld", "linear"])
def test_reset_after_done_restores_valid_observation(name):
    env = make_env(name, seed=3, **SMALL[name])
    env.reset()
    while True:
        step = env.step(0)
        if step.done:
            break
    obs = env.reset()
    assert obs.shape == (env.obs_dim,)
    assert np.isfinite(obs).all()


@pytest.mark.parametrize("name", ["memory_cue", "gridworld", "linear"])
def test_step_after_done_raises(name):
    env = make_env(name, seed=3, **SMALL[name])
    env.reset()
    while True:
        if env.step(0).done:
            break
    with pytest.raises(RuntimeError):
        env.step(0)


def test_make_env_passes_keywords_to_the_constructor():
    assert make_env("memory_cue", length=5).length == 5
    assert make_env("gridworld", size=5, max_steps=3).max_steps == 3
    assert make_env("linear", horizon=7, seed=2).horizon == 7
    with pytest.raises(TypeError):
        make_env("memory_cue", lenght=5)
    with pytest.raises(TypeError):
        make_env("gridworld", max_step=3)
    with pytest.raises(ValueError, match="unknown env"):
        make_env("maze")
