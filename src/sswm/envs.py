"""Deterministic, seedable toy environments.

Small enough to run thousands of episodes per minute, but each one isolates a
mechanism the agent stack is supposed to handle: long-range memory (cue
recall), sparse two-stage exploration with a distribution shift (key/door
gridworld), and analytically tractable dynamics (noisy linear system whose
optimal one-step prediction error is known in closed form).

All environments use discrete actions and flat float observation vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import make_rng


@dataclass
class EnvStep:
    """One transition: next observation, reward, termination flag."""

    observation: np.ndarray
    reward: float
    done: bool


class MemoryCueEnv:
    """Cue shown at t=0, blank until the query step, reward for recalling it.

    Observation layout: [cue one-hot (n_cues) | query flag]. The cue channels
    are only populated at t=0 and the query flag only at t=length; an episode
    is exactly length+1 actions, and the final action scores 1 if it matches
    the cue. Chance level is 1/n_cues.
    """

    def __init__(self, length: int = 20, n_cues: int = 4, seed: int = 0):
        self.length = length
        self.n_cues = n_cues
        self.obs_dim = n_cues + 1
        self.n_actions = n_cues
        self._rng = make_rng(seed, stream=101)
        self._cue = 0
        self._t = 0
        self._done = True

    def reset(self) -> np.ndarray:
        self._cue = int(self._rng.integers(self.n_cues))
        self._t = 0
        self._done = False
        obs = np.zeros(self.obs_dim)
        obs[self._cue] = 1.0
        return obs

    def _obs_at(self, t: int) -> np.ndarray:
        obs = np.zeros(self.obs_dim)
        if t == self.length:
            obs[-1] = 1.0
        return obs

    def step(self, action: int) -> EnvStep:
        if self._done:
            raise RuntimeError("step() after episode end; call reset()")
        t = self._t
        self._t += 1
        if t == self.length:
            self._done = True
            reward = 1.0 if action == self._cue else 0.0
            return EnvStep(np.zeros(self.obs_dim), reward, True)
        return EnvStep(self._obs_at(self._t), 0.0, False)


class TwoLevelGridworld:
    """Key-then-door gridworld: pick up the key in room A, unlock the door,
    then reach the goal in room B for a terminal reward of 1.

    Crossing into room B flips a room-indicator observation channel, shifting
    the observation statistics mid-episode. Observation layout:
    [agent position one-hot (size*size) | has_key | in_room_B]. Transitions
    are deterministic; the layout is drawn once from the seed.
    """

    N_ACTIONS = 4
    _MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))

    def __init__(self, size: int = 8, seed: int = 0, max_steps: int | None = None):
        self.size = size
        self.obs_dim = size * size + 2
        self.n_actions = self.N_ACTIONS
        self.max_steps = max_steps if max_steps is not None else 6 * size
        rng = make_rng(seed, stream=202)
        cells = [(r, c) for r in range(size) for c in range(size)]
        picks = rng.choice(len(cells), size=4, replace=False)
        self.start = cells[picks[0]]
        self.key = cells[picks[1]]
        self.door = cells[picks[2]]
        self.goal = cells[picks[3]]  # in room B
        self._pos = self.start
        self._has_key = False
        self._in_b = False
        self._steps = 0
        self._done = True

    def reset(self) -> np.ndarray:
        self._pos = self.start
        self._has_key = False
        self._in_b = False
        self._steps = 0
        self._done = False
        return self._obs()

    def _obs(self) -> np.ndarray:
        obs = np.zeros(self.obs_dim)
        obs[self._pos[0] * self.size + self._pos[1]] = 1.0
        obs[-2] = float(self._has_key)
        obs[-1] = float(self._in_b)
        return obs

    def step(self, action: int) -> EnvStep:
        if self._done:
            raise RuntimeError("step() after episode end; call reset()")
        dr, dc = self._MOVES[action]
        r = min(max(self._pos[0] + dr, 0), self.size - 1)
        c = min(max(self._pos[1] + dc, 0), self.size - 1)
        self._pos = (r, c)
        self._steps += 1
        reward = 0.0
        if not self._in_b:
            if self._pos == self.key:
                self._has_key = True
            if self._pos == self.door and self._has_key:
                self._in_b = True
                self._pos = self.start
        elif self._pos == self.goal:
            reward = 1.0
            self._done = True
        if self._steps >= self.max_steps:
            self._done = True
        return EnvStep(self._obs(), reward, self._done)


class LinearSystemEnv:
    """Noisy controlled linear system: x' = Mx + N a + eps, obs = x + eta.

    M is scaled to spectral radius 0.8 (stable by construction), actions are
    one-hot pushes through N, and the reward is -|x|^2. Both noises are iid
    N(0, noise_std^2), so a predictor that knows x_t and a_t exactly has a
    per-dimension one-step observation MSE of 2*noise_std^2; that value is
    the analytic floor used in accuracy tests.
    """

    N_ACTIONS = 4  # one push per column of N; as many actions as the gridworld has moves

    def __init__(
        self,
        dim: int = 3,
        noise_std: float = 0.05,
        seed: int = 0,
        horizon: int = 32,
    ):
        self.dim = dim
        self.obs_dim = dim
        self.n_actions = self.N_ACTIONS
        self.noise_std = noise_std
        self.horizon = horizon
        rng = make_rng(seed, stream=303)
        m_mat = rng.normal(size=(dim, dim))
        self.m_mat = 0.8 * m_mat / np.abs(np.linalg.eigvals(m_mat)).max()
        self.n_mat = 0.5 * rng.normal(size=(dim, self.N_ACTIONS))
        self._rng = rng
        self._x = np.zeros(dim)
        self._t = 0
        self._done = True

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.m_mat)).max())

    def one_step_noise_floor(self) -> float:
        """Per-dimension MSE floor for one-step observation prediction."""
        return 2.0 * self.noise_std**2

    def reset(self) -> np.ndarray:
        self._x = self._rng.normal(0.0, 0.5, size=self.dim)
        self._t = 0
        self._done = False
        return self._x + self._noise()

    def _noise(self) -> np.ndarray:
        return self._rng.normal(0.0, self.noise_std, size=self.dim)

    def step(self, action: int) -> EnvStep:
        if self._done:
            raise RuntimeError("step() after episode end; call reset()")
        push = self.n_mat[:, action]
        self._x = self.m_mat @ self._x + push + self._noise()
        self._t += 1
        self._done = self._t >= self.horizon
        obs = self._x + self._noise()
        return EnvStep(obs, -float(self._x @ self._x), self._done)


ENVS = {"memory_cue": MemoryCueEnv, "gridworld": TwoLevelGridworld, "linear": LinearSystemEnv}


def make_env(name: str, seed: int = 0, **kwargs):
    """Build the environment registered as `name`; kwargs go to its constructor."""
    if name not in ENVS:
        raise ValueError(f"unknown env {name!r}")
    return ENVS[name](seed=seed, **kwargs)
