"""Test oracles: the references that the package's analytic gates compare against.

None of this runs in the package. The replay oracles are the harmonic-number
expectation that the O(1) ETBS sampler is derived from, its skew density, and
the O(n) time-balanced sampler that ETBS approximates; `grad_check` compares
the engine's backward gradients with central finite differences. `harmonic`
needs scipy's digamma, which is why scipy is a test dependency only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma

from sswm.replay import _log_density_norm, etbs_indices
from sswm.tensor import Tensor, make_rng

_EULER_GAMMA = 0.5772156649015328606
# weight floor of the O(n) baseline, so an index at or above its target count stays drawable
BASELINE_EPS = 1e-3


# ---------------------------------------------------------------------------
# replay sampling
# ---------------------------------------------------------------------------


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


def skew_pdf(x, n):
    """Normalized density p_s(x) = (ln n - ln x) / (-2 ln n + n + 2 ln 2 - 2) on [2, n]."""
    x = np.asarray(x, dtype=np.float64)
    return (np.log(n) - np.log(x)) / _log_density_norm(n)


class TimeBalancedBaseline:
    """O(n) corrective sampler: explicit per-index weights, recomputed per draw.

    Keeps cumulative draw counts and weights each index by how far it lags the
    uniform target count. Linear cost, one index per call; simulate_process
    and the tests use it as the reference the O(1) sampler approximates.
    """

    def __init__(self):
        self.counts = np.zeros(0, dtype=np.int64)
        self.total = 0

    def sample(self, n: int, rng: np.random.Generator) -> int:
        if n > self.counts.size:
            grown = np.zeros(n, dtype=np.int64)
            grown[: self.counts.size] = self.counts
            self.counts = grown
        target = (self.total + 1) / n
        w = np.maximum(BASELINE_EPS, target - self.counts[:n])
        w = w / w.sum()
        idx = int(rng.choice(n, p=w)) + 1
        self.counts[idx - 1] += 1
        self.total += 1
        return idx


def simulate_process(n: int, sampler_name: str, tau: float, reps: int, seed: int) -> np.ndarray:
    """Run the add-one-then-sample-once process to size n; per-index draw counts.

    Vectorized across replications for etbs (uniform is etbs at tau = 0);
    the O(n) baseline keeps per-replication count state, so it runs
    rep-by-rep (use modest n).
    """
    rng = make_rng(seed, stream=77)
    counts = np.zeros((reps, n), dtype=np.int64)
    rows = np.arange(reps)
    if sampler_name == "etbs":
        for t in range(1, n + 1):
            idx = etbs_indices(t, tau, rng, reps)
            counts[rows, idx - 1] += 1
        return counts
    if sampler_name == "tb_baseline":
        for r in range(reps):
            sampler = TimeBalancedBaseline()
            for t in range(1, n + 1):
                idx = sampler.sample(t, rng)
                counts[r, idx - 1] += 1
        return counts
    raise ValueError(f"unknown sampler {sampler_name!r}")


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Comparison of backward gradients against central finite differences."""

    max_rel_err: float = 0.0
    max_abs_err: float = 0.0
    per_leaf: dict = field(default_factory=dict)


def grad_check(
    fn,
    leaves: dict[str, Tensor],
    epsilon: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Check d fn / d leaf against central finite differences.

    fn must rebuild its graph on every call and return a scalar Tensor. When
    max_coords is set, only that many randomly chosen coordinates per leaf are
    probed (full sweep otherwise). Relative error is measured against the
    larger coordinate magnitude, floored at 0.1% of the largest gradient seen
    across all leaves: central differences carry roundoff noise proportional
    to the loss scale, so near-zero coordinates cannot be resolved tighter.
    """
    if epsilon <= 0:
        raise ValueError("grad_check: epsilon must be positive")
    for leaf in leaves.values():
        leaf.grad = None
    fn().backward()
    analytic = {name: (t.grad if t.grad is not None else np.zeros_like(t.data)) for name, t in leaves.items()}

    by_leaf: dict[str, list[tuple[float, float]]] = {}
    for name, leaf in leaves.items():
        flat = leaf.data.flat  # writes through, whatever the memory order
        n = leaf.data.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = make_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        pairs = []
        for i in coords:
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(fn().data)
            flat[i] = orig - epsilon
            f_minus = float(fn().data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * epsilon)
            an = analytic[name].reshape(-1)[i]
            pairs.append((float(an), fd))
        by_leaf[name] = pairs

    scale = max(
        (max(abs(an), abs(fd)) for pairs in by_leaf.values() for an, fd in pairs),
        default=0.0,
    )
    floor = max(1e-6, 1e-3 * scale)
    report = GradCheckReport()
    for name, pairs in by_leaf.items():
        worst_rel = 0.0
        worst_abs = 0.0
        for an, fd in pairs:
            abs_err = abs(an - fd)
            rel_err = abs_err / max(abs(an), abs(fd), floor)
            worst_rel = max(worst_rel, rel_err)
            worst_abs = max(worst_abs, abs_err)
        report.per_leaf[name] = {"max_rel_err": worst_rel, "max_abs_err": worst_abs}
        report.max_rel_err = max(report.max_rel_err, worst_rel)
        report.max_abs_err = max(report.max_abs_err, worst_abs)
    return report
