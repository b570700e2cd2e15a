"""Replay sampler math and dataset windowing tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from oracles import TimeBalancedBaseline, expected_draws, simulate_process, skew_pdf
from sswm.replay import INITIAL_ROWS, EtbsSampler, ExperienceDataset, UniformSampler, etbs_cdf, etbs_indices
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
    with pytest.raises(ValueError, match=r"argument outside \[2, 100\]"):
        etbs_cdf(1.0, 100)
    with pytest.raises(ValueError, match=r"argument outside \[2, 100\]"):
        etbs_cdf(101.0, 100)
    with pytest.raises(ValueError, match="needs n >= 3, got 2"):
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
    with pytest.raises(ValueError, match=r"tau must be in \[0, 1\], got 1.5"):
        EtbsSampler(1.5)


def test_process_flattening_and_tau_monotonicity():
    # reduced-size version of the acceptance check
    n, reps = 1000, 60
    stats_by_tau = {}
    for tau in (0.0, 0.3, 1.0):
        counts = simulate_process(n, "etbs", tau, reps, seed=11).sum(axis=0)
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
    uni = simulate_process(n, "etbs", 0.0, reps, seed=21).sum(axis=0)
    bal = simulate_process(n, "tb_baseline", 0.0, reps, seed=21).sum(axis=0)
    assert bal.std() / bal.mean() < uni.std() / uni.mean()


# ---------------------------------------------------------------------------
# dataset windows
# ---------------------------------------------------------------------------


def fill_dataset(n_episodes=4, ep_len=10, obs_dim=3, act_dim=2):
    ds = ExperienceDataset(obs_dim, act_dim)
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
    flags = ds.reset[5:15]
    assert flags.sum() == 1
    assert flags[5]  # position of global index 10 in the window


def test_reset_flags_match_per_window_loop():
    ds = fill_dataset(n_episodes=4, ep_len=5)
    episode = np.repeat(np.arange(4), 5)  # the id fill_dataset appends with each record
    length = 6
    batch = ds.sample_batch(make_rng(3), 64, length, UniformSampler())
    want = np.zeros((64, length), dtype=bool)
    for row, s in enumerate(batch["start"]):
        for j, i in enumerate(range(s, s + length)):
            want[row, j] = i == 0 or episode[i] != episode[i - 1]
    assert set(batch["start"]) == set(range(len(ds) - length + 1))  # every window is checked
    np.testing.assert_array_equal(batch["reset"], want)


def test_sample_batch_draws_every_start_in_one_etbs_call():
    ds = fill_dataset()
    batch = ds.sample_batch(make_rng(42), 8, 6, EtbsSampler(0.3))
    np.testing.assert_array_equal(batch["start"], etbs_indices(len(ds) - 6 + 1, 0.3, make_rng(42), 8) - 1)


@pytest.mark.parametrize("n", [5, 1000, 2**33])
def test_uniform_sampler_draws_what_one_integer_per_row_drew(n):
    # a batch of uniform starts is the sequence of per-row rng.integers draws,
    # so the benchmark's held-out batches are those of the per-row sampler
    rng = make_rng(13)
    per_row = np.array([int(rng.integers(1, n + 1)) for _ in range(16)])
    np.testing.assert_array_equal(etbs_indices(n, UniformSampler().tau, make_rng(13), 16), per_row)
    if n <= 1000:
        ds = ExperienceDataset(1, 1)
        for _ in range(n + 1):
            ds.append(np.zeros(1), np.zeros(1), 0.0, 1.0, 0)
        batch = ds.sample_batch(make_rng(13), 16, 2, UniformSampler())
        np.testing.assert_array_equal(batch["start"], per_row - 1)


def test_sample_batch_deterministic():
    ds = fill_dataset()
    b1 = ds.sample_batch(make_rng(42), 4, 6, EtbsSampler(0.3))
    b2 = ds.sample_batch(make_rng(42), 4, 6, EtbsSampler(0.3))
    np.testing.assert_array_equal(b1["obs"], b2["obs"])
    np.testing.assert_array_equal(b1["reset"], b2["reset"])


def test_dataset_growth_preserves_records():
    ds = fill_dataset(n_episodes=8, ep_len=10)  # from 16 rows: grows to 32, 64 and 128
    assert len(ds) == 80 and len(ds.obs) == 8 * INITIAL_ROWS
    np.testing.assert_array_equal(ds.obs[79], np.full(3, 79.0))
    np.testing.assert_array_equal(np.flatnonzero(ds.reset[:80]), np.arange(0, 80, 10))


@pytest.mark.parametrize(
    "obs, action",
    [(np.ones(1), np.zeros(4)), (np.ones(()), np.zeros(4)), (np.ones(3), np.zeros(1)), (np.ones(3), 0.0), (np.ones((1, 3)), np.zeros(4))],
)
def test_append_rejects_a_row_of_another_shape(obs, action):
    # numpy would broadcast a width-1 or 0-d row across the whole record
    ds = ExperienceDataset(3, 4)
    with pytest.raises(ValueError) as err:
        ds.append(obs, action, 0.0, 1.0, 0)
    assert f"obs {np.shape(obs)} and action {np.shape(action)}, want (3,) and (4,)" in str(err.value)
    assert len(ds) == 0
    ds.append(np.ones(3), np.zeros(4), 0.0, 1.0, 0)
    assert len(ds) == 1


@pytest.mark.parametrize("bad", [0.5, -1.0, np.nan, -0.0])  # -0.0 would read back as 0.0
@pytest.mark.parametrize("column", ["obs", "action"])
def test_append_rejects_a_value_other_than_0_or_1(column, bad):
    # obs columns 1 and 2 are declared 0/1, as the byte block's columns 0 and 1;
    # the action is always stored as bytes
    ds = ExperienceDataset(3, 4, n_binary=2)
    ds.append(np.array([0.5, 1.0, 0.0]), np.eye(4)[2], 0.0, 1.0, 0)
    obs, action = np.array([0.5, 0.0, 1.0]), np.zeros(4)
    (obs if column == "obs" else action)[1] = bad
    with pytest.raises(ValueError, match=f"append: {column} column 1 holds {bad}, want 0 or 1"):
        ds.append(obs, action, 0.0, 1.0, 1)
    assert len(ds) == 1
    batch = ds.sample_batch(make_rng(0), 1, 1, UniformSampler())
    np.testing.assert_array_equal(batch["obs"][0, 0], [0.5, 1.0, 0.0])
    np.testing.assert_array_equal(batch["action"][0, 0], np.eye(4)[2])
    ds.append(np.array([0.5, 0.0, 1.0]), np.zeros(4), 0.0, 1.0, 1)
    assert ds.reset[1]  # the rejected record did not take episode 1's start


def test_n_binary_outside_the_row_is_rejected():
    for n_binary in (4, -1):
        with pytest.raises(ValueError, match=r"outside \[0, 3\]"):
            ExperienceDataset(3, 2, n_binary=n_binary)


@settings(max_examples=40, deadline=None)
@given(
    obs_dim=st.integers(1, 6),
    action_dim=st.integers(1, 4),
    data=st.data(),
    n=st.integers(1, 70),
    length=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_byte_columns_sample_what_float64_storage_samples(obs_dim, action_dim, data, n, length, seed):
    """A dataset that stores its 0/1 columns as bytes samples the float64 arrays, bit for bit."""
    n_binary = data.draw(st.integers(0, obs_dim), label="n_binary")
    rng = make_rng(seed)
    episode = np.cumsum(rng.random(n) < 0.2)
    starts = np.r_[True, episode[1:] != episode[:-1]]
    obs = rng.normal(size=(n, obs_dim))
    obs[:, obs_dim - n_binary :] = rng.integers(0, 2, size=(n, n_binary))
    action = np.eye(action_dim)[rng.integers(action_dim, size=n)]
    action[starts] = 0.0  # no action leads into an episode's first record
    reward, cont = rng.normal(size=n), (rng.random(n) < 0.9).astype(np.float64)
    bytes_ds, plain_ds = ExperienceDataset(obs_dim, action_dim, n_binary), ExperienceDataset(obs_dim, action_dim)
    for i in range(n):
        for ds in (bytes_ds, plain_ds):
            ds.append(obs[i], action[i], reward[i], cont[i], int(episode[i]))
    got = bytes_ds.sample_batch(make_rng(seed, stream=1), 8, length, EtbsSampler(0.3))
    if n < length:
        assert got is None
        return
    plain = plain_ds.sample_batch(make_rng(seed, stream=1), 8, length, EtbsSampler(0.3))
    gather = got["start"][:, None] + np.arange(length)
    want = {"obs": obs, "action": action, "reward": reward, "cont": cont, "reset": starts}
    for key, column in want.items():
        for batch in (got, plain):
            assert batch[key].dtype == column.dtype, key
            np.testing.assert_array_equal(batch[key].view(np.uint8), column[gather].view(np.uint8), err_msg=key)
    np.testing.assert_array_equal(plain["start"], got["start"])
