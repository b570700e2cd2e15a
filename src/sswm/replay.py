"""Experience dataset and replay-index samplers.

Iteratively appending to a dataset and sampling uniformly oversamples old
entries: an element in place i of a final size-n dataset is drawn
H_n - H_i times in expectation (harmonic numbers). The ETBS draw corrects
for it in O(1): it maps a uniform draw through the closed-form CDF of the
normalized skew density p_s(x) = (ln n - ln x)/Z, mixed with a plain uniform
draw at temperature tau (tau = 0 is the plain uniform draw). Each draw is
constant-time; over the whole add/sample process the cumulative per-index
counts flatten as tau -> 1. The harmonic-number expectation, the skew
density and the O(n) time-balanced sampler that ETBS is held to are test
oracles, in tests/oracles.py.

A replay sampler is an ETBS temperature: sample_batch draws all of a batch's
starts in one etbs_indices call at sampler.tau.

Indices are 1-based ages: index 1 is the oldest element. An argument outside
the domain of a sampler expression (n < 3, x outside [2, n], tau outside
[0, 1]) raises ValueError.

Storage: a column that holds only 0 and 1 is stored as one byte per value
(bool). The action columns always are, since every action is a one-hot
(zeros at an episode start); so is the trailing block of `n_binary`
observation columns a dataset declares. Every other column is float64.
sample_batch returns float64 throughout, equal to what a float64 store
would return.
"""

from __future__ import annotations

import numpy as np


def _log_density_norm(n: float) -> float:
    """Integral of (ln n - ln x)/n over [2, n], times n (the pdf normalizer)."""
    return -2.0 * np.log(n) + n + 2.0 * np.log(2.0) - 2.0


def etbs_cdf(x, n):
    """Closed-form CDF of the skew density on [2, n]; O(1) per evaluation."""
    if n < 3:
        raise ValueError(f"etbs_cdf needs n >= 3, got {n}")
    x = np.asarray(x, dtype=np.float64)
    if (x < 2.0 - 1e-12).any() or (x > n + 1e-9).any():
        raise ValueError(f"etbs_cdf argument outside [2, {n}]")
    ln_n = np.log(float(n))
    num = x * (np.log(x) - ln_n - 1.0) + 2.0 * (ln_n - np.log(2.0) + 1.0)
    return np.clip(num / -_log_density_norm(n), 0.0, 1.0)


def etbs_indices(n: int, tau: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` indices in [1, n]: uniform with prob (1-tau), CDF-corrected with prob tau.

    The corrective branch pushes a Uniform[2, n] draw through the skew CDF and
    rescales to an index, which undersamples old indices each step so that
    cumulative draw counts over the add/sample process flatten. Constant work
    per draw. Falls back to plain uniform for n < 3 (log terms degenerate).
    At tau = 0 the draw is rng.integers(1, n + 1, size) alone.
    """
    out = rng.integers(1, n + 1, size=size)
    if n >= 3 and tau > 0.0:
        corrective = rng.random(size) < tau
        k = int(corrective.sum())
        if k:
            u = rng.uniform(2.0, float(n), size=k)
            mapped = np.clip(np.rint(n * etbs_cdf(u, n)).astype(np.int64), 1, n)
            out[corrective] = mapped
    return out


class EtbsSampler:
    """The O(1) time-balanced replay sampler: its mixing temperature tau in [0, 1]."""

    def __init__(self, tau: float = 0.3):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        self.tau = tau


class UniformSampler(EtbsSampler):
    """The plain uniform replay sampler: ETBS at tau = 0."""

    def __init__(self):
        super().__init__(0.0)


INITIAL_ROWS = 16  # rows a dataset holds before its first grow; each grow doubles them


class ExperienceDataset:
    """Append-only store of environment transitions with episode bookkeeping.

    Each record holds the observation o_t, the action that led into it
    (zeros at an episode start), the reward received on arrival, the continue
    flag (0 when o_t is terminal) and its reset flag: True when the record
    begins an episode, i.e. its episode id differs from the previous record's
    (the first record is a reset). The flag is set once, at append, so it
    reads no other record later. Records are immutable once appended;
    sampling reads a consistent snapshot of the current size.

    0/1 columns are stored as bytes. The action is one byte per value. The
    last `n_binary` observation columns are stored as bytes in `obs_bits`,
    and the leading ones as float64 in `obs`; with no `n_binary`, `obs`
    holds the whole observation. append raises ValueError, before any state
    changes, if a byte column is given a value other than 0.0 or 1.0; -0.0
    is refused too, since it would come back as 0.0. sample_batch joins the
    two blocks back as float64, so it returns the appended values bit for
    bit.
    """

    COLUMNS = ("obs", "obs_bits", "action", "reward", "cont", "reset")  # the stored arrays, one row per record

    def __init__(self, obs_dim: int, action_dim: int, n_binary: int = 0):
        if not 0 <= n_binary <= obs_dim:
            raise ValueError(f"n_binary: {n_binary} outside [0, {obs_dim}]")
        self.n_binary = n_binary
        self._row_shapes = ((obs_dim,), (action_dim,))
        self.obs = np.zeros((INITIAL_ROWS, obs_dim - n_binary), dtype=np.float64)
        self.obs_bits = np.zeros((INITIAL_ROWS, n_binary), dtype=bool)
        self.action = np.zeros((INITIAL_ROWS, action_dim), dtype=bool)
        self.reward = np.zeros(INITIAL_ROWS, dtype=np.float64)
        self.cont = np.zeros(INITIAL_ROWS, dtype=np.float64)
        self.reset = np.zeros(INITIAL_ROWS, dtype=bool)
        self.n = 0
        self._last_episode: int | None = None

    def __len__(self) -> int:
        return self.n

    def _grow(self) -> None:
        cap = self.obs.shape[0] * 2
        for name in self.COLUMNS:
            arr = getattr(self, name)
            grown = np.zeros((cap,) + arr.shape[1:], dtype=arr.dtype)
            grown[: self.n] = arr[: self.n]
            setattr(self, name, grown)

    def append(self, obs, action, reward: float, cont: float, episode_id: int) -> None:
        """Add one record; obs and action must have exactly the row shapes, not broadcast into them."""
        obs, action = np.asarray(obs, dtype=np.float64), np.asarray(action, dtype=np.float64)
        if (obs.shape, action.shape) != self._row_shapes:
            raise ValueError(
                f"append: obs {obs.shape} and action {action.shape}, "
                f"want {self._row_shapes[0]} and {self._row_shapes[1]}"
            )
        action_bits = _bits(action, "action")
        n_float = self.obs.shape[1]
        if self.n_binary:  # level 0 has no byte columns: skip _bits on an empty slice
            obs_bits = _bits(obs[n_float:], "obs", n_float)
        if self.n == self.obs.shape[0]:
            self._grow()
        i = self.n
        self.obs[i] = obs[:n_float]
        if self.n_binary:
            self.obs_bits[i] = obs_bits
        self.action[i] = action_bits
        self.reward[i] = reward
        self.cont[i] = cont
        self.reset[i] = episode_id != self._last_episode
        self._last_episode = episode_id
        self.n = i + 1

    def sample_batch(self, rng: np.random.Generator, batch: int, length: int, sampler):
        """Sample `batch` length-`length` windows; None until enough data.

        All `batch` start offsets come from one etbs_indices draw at
        sampler.tau over the valid range (1 = oldest). Windows may span
        episode boundaries; the stored reset flags of the window's records
        mark the boundary rows, so downstream scans cannot leak state across
        episodes. obs, action, reward and cont come back as float64.
        """
        n = self.n
        if n < length:
            return None
        n_valid = n - length + 1
        starts = etbs_indices(n_valid, sampler.tau, rng, batch) - 1
        gather = starts[:, None] + np.arange(length)[None, :]
        return {
            "obs": np.concatenate([self.obs[gather], self.obs_bits[gather]], axis=-1),
            "action": self.action[gather].astype(np.float64),
            "reward": self.reward[gather],
            "cont": self.cont[gather],
            "reset": self.reset[gather],
            "start": starts,
        }


def _bits(values: np.ndarray, name: str, offset: int = 0) -> np.ndarray:
    """float64 values as bool, if they read back bit for bit; else ValueError naming the first column that does not, from offset."""
    bits = values.astype(bool)
    back = bits.astype(np.float64)
    if back.tobytes() != values.tobytes():  # one bytes compare: the cheapest exact test at these widths
        bad = int(np.flatnonzero((back != values) | np.signbit(values))[0])  # signbit: -0.0
        raise ValueError(f"append: {name} column {offset + bad} holds {float(values[bad])}, want 0 or 1")
    return bits
