"""Replay sampler math and dataset windowing tests."""

import numpy as np
import pytest
from scipy import integrate, stats

from sswm import replay
from sswm.replay import (
    DomainError,
    EtbsSampler,
    ExperienceDataset,
    TimeBalancedBaseline,
    UniformSampler,
    etbs_cdf,
    etbs_indices,
    expected_draws,
    simulate_process,
    skew_pdf,
)
from sswm.tensor import make_rng


# ---------------------------------------------------------------------------
# expected draw counts
# ---------------------------------------------------------------------------


def test_expected_draws_formula_values():
    # formula gives 0 for the newest element; the exact process gives 1/n
    assert expected_draws(3, 3) == pytest.approx(0.0, abs=1e-12)
    assert expected_draws(1, 3) == pytest.approx(1.0 / 2 + 1.0 / 3, rel=1e-12)


def test_expected_draws_monotone_decreasing():
    n = 500
    vals = expected_draws(np.arange(1, n + 1), n)
    assert (np.diff(vals) < 0).all()


def test_exact_process_expectation_brute_force():
    # element added first in an n=3 process is drawn 1 + 1/2 + 1/3 times
    reps = 1_000_000
    rng = make_rng(99)
    hits = np.zeros(reps)
    for t in (1, 2, 3):
        hits += rng.integers(1, t + 1, size=reps) == 1
    per_rep_var = 0.25 + (1 / 3) * (2 / 3)
    three_sigma = 3 * np.sqrt(per_rep_var / reps)
    assert abs(hits.mean() - 11.0 / 6.0) < three_sigma


# ---------------------------------------------------------------------------
# closed-form CDF vs quadrature
# ---------------------------------------------------------------------------


def test_cdf_endpoints_exact():
    for n in (3, 100, 4000, 10**6):
        assert etbs_cdf(2.0, n) == 0.0
        assert etbs_cdf(float(n), n) == pytest.approx(1.0, abs=1e-12)


def test_cdf_strictly_monotone():
    rng = make_rng(5)
    n = 4000
    pairs = np.sort(rng.uniform(2.0, n, size=(10_000, 2)), axis=1)
    lo = etbs_cdf(pairs[:, 0], n)
    hi = etbs_cdf(pairs[:, 1], n)
    assert (hi > lo).all()


def test_cdf_domain_errors():
    with pytest.raises(DomainError):
        etbs_cdf(1.0, 100)
    with pytest.raises(DomainError):
        etbs_cdf(101.0, 100)
    with pytest.raises(DomainError):
        etbs_cdf(2.0, 2)


def test_pdf_integrates_to_one():
    for n in (100, 4000):
        total, err = integrate.quad(lambda x: skew_pdf(x, n), 2.0, n, limit=200)
        assert abs(total - 1.0) < 1e-6


def test_cdf_matches_quadrature():
    n = 4000
    for x in (10.0, 100.0, 1000.0, 3999.0):
        want, _ = integrate.quad(lambda s: skew_pdf(s, n), 2.0, x, limit=200)
        assert abs(etbs_cdf(x, n) - want) < 1e-6


# ---------------------------------------------------------------------------
# index sampling
# ---------------------------------------------------------------------------


def test_tau_zero_is_uniform():
    rng = make_rng(6)
    n = 50
    draws = etbs_indices(n, 0.0, rng, size=100_000)
    counts = np.bincount(draws, minlength=n + 1)[1:]
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_small_n_falls_back_to_uniform():
    rng = make_rng(7)
    draws = etbs_indices(2, 1.0, rng, size=2000)
    assert set(np.unique(draws)) <= {1, 2}


def test_etbs_sampler_validates_tau():
    with pytest.raises(DomainError):
        EtbsSampler(1.5)


def test_process_flattening_and_tau_monotonicity():
    # reduced-size version of the acceptance check
    n, reps = 1000, 60
    stats_by_tau = {}
    for tau in (0.0, 0.3, 1.0):
        counts = simulate_process(n, "etbs" if tau else "uniform", tau, reps, seed=11).sum(axis=0)
        cv = counts.std() / counts.mean()
        d = n // 10
        stats_by_tau[tau] = (cv, counts[:d].mean() / counts[-d:].mean())
    assert stats_by_tau[1.0][0] < stats_by_tau[0.3][0] < stats_by_tau[0.0][0]
    r0, r3, r1 = stats_by_tau[0.0][1], stats_by_tau[0.3][1], stats_by_tau[1.0][1]
    assert abs(r1 - 1) < abs(r3 - 1) < abs(r0 - 1)


def test_baseline_uniform_when_counts_equal():
    rng = make_rng(8)
    n = 40
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(20_000):
        sampler = TimeBalancedBaseline()
        counts[sampler.sample(n, rng) - 1] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_baseline_flattens_process_counts():
    n, reps = 400, 30
    uni = simulate_process(n, "uniform", 0.0, reps, seed=21).sum(axis=0)
    bal = simulate_process(n, "tb_baseline", 0.0, reps, seed=21).sum(axis=0)
    assert bal.std() / bal.mean() < uni.std() / uni.mean()


# ---------------------------------------------------------------------------
# dataset windows
# ---------------------------------------------------------------------------


def fill_dataset(n_episodes=4, ep_len=10, obs_dim=3, act_dim=2):
    ds = ExperienceDataset(obs_dim, act_dim, capacity=8)
    step = 0
    for ep in range(n_episodes):
        for t in range(ep_len):
            obs = np.full(obs_dim, float(step))
            act = np.zeros(act_dim) if t == 0 else np.full(act_dim, 1.0)
            ds.append(obs, act, reward=float(step), cont=0.0 if t == ep_len - 1 else 1.0, episode_id=ep)
            step += 1
    return ds


def test_sample_batch_not_ready():
    ds = ExperienceDataset(3, 2)
    ds.append(np.zeros(3), np.zeros(2), 0.0, 1.0, 0)
    assert ds.sample_batch(make_rng(0), batch=2, length=4, sampler=UniformSampler()) is None


def test_sample_batch_single_records():
    ds = fill_dataset()
    batch = ds.sample_batch(make_rng(1), batch=5, length=1, sampler=UniformSampler())
    assert batch["obs"].shape == (5, 1, 3)
    np.testing.assert_array_equal(batch["reward"][:, 0], batch["obs"][:, 0, 0])


def test_sample_batch_reset_at_boundary():
    ds = fill_dataset(n_episodes=2, ep_len=10)
    # window [5, 15) crosses the episode-1 boundary at global index 10
    flags = ds.reset_flags(np.array([5]), 10)
    assert flags.shape == (1, 10)
    assert flags.sum() == 1
    assert flags[0, 5]  # position of global index 10 in the window


def test_reset_flags_match_per_window_loop():
    ds = fill_dataset(n_episodes=4, ep_len=5)
    length = 6
    starts = np.arange(len(ds) - length + 1)
    want = np.zeros((len(starts), length), dtype=bool)
    for row, s in enumerate(starts):
        for j, i in enumerate(range(s, s + length)):
            want[row, j] = i == 0 or ds.episode[i] != ds.episode[i - 1]
    np.testing.assert_array_equal(ds.reset_flags(starts, length), want)


def test_sample_batch_deterministic():
    ds = fill_dataset()
    b1 = ds.sample_batch(make_rng(42), 4, 6, EtbsSampler(0.3))
    b2 = ds.sample_batch(make_rng(42), 4, 6, EtbsSampler(0.3))
    np.testing.assert_array_equal(b1["obs"], b2["obs"])
    np.testing.assert_array_equal(b1["reset"], b2["reset"])


def test_dataset_growth_preserves_records():
    ds = fill_dataset(n_episodes=8, ep_len=10)  # forces several _grow calls
    assert len(ds) == 80
    np.testing.assert_array_equal(ds.obs[79], np.full(3, 79.0))
    assert ds.episode[79] == 7
