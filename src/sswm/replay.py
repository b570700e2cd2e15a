"""Experience dataset and replay-index samplers.

Iteratively appending to a dataset and sampling uniformly oversamples old
entries: an element in place i of a final size-n dataset is drawn
H_n - H_i times in expectation (harmonic numbers). Three samplers are
provided:

* uniform           - the plain baseline (oversamples old entries),
* time-balanced O(n) - explicit per-index corrective weights, recomputed per
                      draw (reference/oracle, linear cost),
* ETBS O(1)         - maps a uniform draw through the closed-form CDF of the
                      normalized skew density p_s(x) = (ln n - ln x)/Z, mixed
                      with a plain uniform draw at temperature tau. Each draw
                      is constant-time; over the whole add/sample process the
                      cumulative per-index counts flatten as tau -> 1.

Indices are 1-based ages: index 1 is the oldest element.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma

_EULER_GAMMA = 0.5772156649015328606


class DomainError(ValueError):
    """Argument outside the mathematical domain of a sampler expression."""


def harmonic(k: int | np.ndarray) -> np.ndarray | float:
    """H_k via digamma (exact to float precision for all k >= 0)."""
    return digamma(np.asarray(k, dtype=np.float64) + 1.0) + _EULER_GAMMA


def expected_draws(i, n) -> np.ndarray | float:
    """Expected draw count H_n - H_i for element i of n under iterative uniform sampling.

    This is the closed-form used by the sampler derivation. The exact process
    expectation is sum_{j=i}^{n} 1/j = H_n - H_{i-1}; the formula drops the
    leading 1/i term (one harmonic step), which the normalized density
    absorbs. Tests pin the exact value by brute-force simulation.
    """
    return harmonic(n) - harmonic(i)


def _log_density_norm(n: float) -> float:
    """Integral of (ln n - ln x)/n over [2, n], times n (the pdf normalizer)."""
    return -2.0 * np.log(n) + n + 2.0 * np.log(2.0) - 2.0


def skew_pdf(x, n):
    """Normalized density p_s(x) = (ln n - ln x) / (-2 ln n + n + 2 ln 2 - 2) on [2, n]."""
    x = np.asarray(x, dtype=np.float64)
    return (np.log(n) - np.log(x)) / _log_density_norm(n)


def etbs_cdf(x, n):
    """Closed-form CDF of the skew density on [2, n]; O(1) per evaluation."""
    if n < 3:
        raise DomainError(f"etbs_cdf needs n >= 3, got {n}")
    x = np.asarray(x, dtype=np.float64)
    if (x < 2.0 - 1e-12).any() or (x > n + 1e-9).any():
        raise DomainError(f"etbs_cdf argument outside [2, {n}]")
    ln_n = np.log(float(n))
    num = x * (np.log(x) - ln_n - 1.0) + 2.0 * (ln_n - np.log(2.0) + 1.0)
    den = 2.0 * ln_n - n - 2.0 * np.log(2.0) + 2.0
    return np.clip(num / den, 0.0, 1.0)


def etbs_indices(n: int, tau: float, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw indices in [1, n]: uniform with prob (1-tau), CDF-corrected with prob tau.

    The corrective branch pushes a Uniform[2, n] draw through the skew CDF and
    rescales to an index, which undersamples old indices each step so that
    cumulative draw counts over the add/sample process flatten. Constant work
    per draw. Falls back to plain uniform for n < 3 (log terms degenerate).
    """
    m = 1 if size is None else size
    out = rng.integers(1, n + 1, size=m)
    if n >= 3 and tau > 0.0:
        corrective = rng.random(m) < tau
        k = int(corrective.sum())
        if k:
            u = rng.uniform(2.0, float(n), size=k)
            mapped = np.clip(np.rint(n * etbs_cdf(u, n)).astype(np.int64), 1, n)
            out[corrective] = mapped
    return int(out[0]) if size is None else out


class UniformSampler:
    """Plain uniform index sampler."""

    name = "uniform"

    def sample(self, n: int, rng: np.random.Generator) -> int:
        return int(rng.integers(1, n + 1))


class EtbsSampler:
    """O(1) time-balanced sampler with mixing temperature tau in [0, 1]."""

    name = "etbs"

    def __init__(self, tau: float = 0.3):
        if not 0.0 <= tau <= 1.0:
            raise DomainError(f"tau must be in [0, 1], got {tau}")
        self.tau = tau

    def sample(self, n: int, rng: np.random.Generator) -> int:
        return etbs_indices(n, self.tau, rng)


class TimeBalancedBaseline:
    """O(n) corrective sampler: explicit per-index weights, recomputed per draw.

    Keeps cumulative draw counts and weights each index by how far it lags the
    uniform target count. Linear cost per draw; used in tests and benchmarks
    as the behavior/latency reference the O(1) sampler approximates.
    """

    name = "tb_baseline"

    def __init__(self, eps: float = 1e-3):
        self.eps = eps
        self.counts = np.zeros(0, dtype=np.int64)
        self.total = 0

    def sample(self, n: int, rng: np.random.Generator) -> int:
        if n > self.counts.size:
            grown = np.zeros(n, dtype=np.int64)
            grown[: self.counts.size] = self.counts
            self.counts = grown
        target = (self.total + 1) / n
        w = np.maximum(self.eps, target - self.counts[:n])
        w = w / w.sum()
        idx = int(rng.choice(n, p=w)) + 1
        self.counts[idx - 1] += 1
        self.total += 1
        return idx


class ExperienceDataset:
    """Append-only store of environment transitions with episode bookkeeping.

    Each record holds the observation o_t, the action that led into it
    (zeros at an episode start), the reward received on arrival, the continue
    flag (0 when o_t is terminal) and an episode id. Records are immutable
    once appended; sampling reads a consistent snapshot of the current size.
    """

    def __init__(self, obs_dim: int, action_dim: int, capacity: int = 1024):
        self.obs = np.zeros((capacity, obs_dim), dtype=np.float64)
        self.action = np.zeros((capacity, action_dim), dtype=np.float64)
        self.reward = np.zeros(capacity, dtype=np.float64)
        self.cont = np.zeros(capacity, dtype=np.float64)
        self.episode = np.zeros(capacity, dtype=np.int64)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def _grow(self) -> None:
        cap = self.obs.shape[0] * 2
        for name in ("obs", "action", "reward", "cont", "episode"):
            arr = getattr(self, name)
            grown = np.zeros((cap,) + arr.shape[1:], dtype=arr.dtype)
            grown[: self.n] = arr[: self.n]
            setattr(self, name, grown)

    def append(self, obs, action, reward: float, cont: float, episode_id: int) -> None:
        if self.n == self.obs.shape[0]:
            self._grow()
        i = self.n
        self.obs[i] = obs
        self.action[i] = action
        self.reward[i] = reward
        self.cont[i] = cont
        self.episode[i] = episode_id
        self.n = i + 1

    def reset_flags(self, starts: np.ndarray, length: int) -> np.ndarray:
        """(len(starts), length) bools: True where a record begins a new episode.

        Row i covers the window [starts[i], starts[i] + length).
        """
        starts = np.asarray(starts)
        episode = self.episode[starts[:, None] + np.arange(length)]
        flags = np.empty(episode.shape, dtype=bool)
        flags[:, 0] = (starts == 0) | (episode[:, 0] != self.episode[starts - 1])
        flags[:, 1:] = episode[:, 1:] != episode[:, :-1]
        return flags

    def sample_batch(self, rng: np.random.Generator, batch: int, length: int, sampler):
        """Sample `batch` length-`length` windows; None until enough data.

        Start offsets come from `sampler` over the valid range (1 = oldest).
        Windows may span episode boundaries; reset flags mark the boundary
        rows so downstream scans cannot leak state across episodes.
        """
        n = self.n
        if n < length:
            return None
        n_valid = n - length + 1
        starts = np.array([sampler.sample(n_valid, rng) - 1 for _ in range(batch)])
        gather = starts[:, None] + np.arange(length)[None, :]
        return {
            "obs": self.obs[gather],
            "action": self.action[gather],
            "reward": self.reward[gather],
            "cont": self.cont[gather],
            "reset": self.reset_flags(starts, length),
            "start": starts,
        }


def simulate_process(n: int, sampler_name: str, tau: float, reps: int, seed: int) -> np.ndarray:
    """Run the add-one-then-sample-once process to size n; per-index draw counts.

    Vectorized across replications for uniform/etbs; the O(n) baseline keeps
    per-replication count state, so it runs rep-by-rep (use modest n).
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 77], dtype=np.uint64)))
    counts = np.zeros((reps, n), dtype=np.int64)
    rows = np.arange(reps)
    if sampler_name in ("uniform", "etbs"):
        t_eff = 0.0 if sampler_name == "uniform" else tau
        for t in range(1, n + 1):
            idx = etbs_indices(t, t_eff, rng, size=reps)
            counts[rows, idx - 1] += 1
        return counts
    if sampler_name == "tb_baseline":
        for r in range(reps):
            sampler = TimeBalancedBaseline()
            for t in range(1, n + 1):
                idx = sampler.sample(t, rng)
                counts[r, idx - 1] += 1
        return counts
    raise DomainError(f"unknown sampler {sampler_name!r}")
