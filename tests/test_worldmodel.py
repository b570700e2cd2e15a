"""World-model tests: categorical sampling, free-bits loss, step/sequence duality."""

import numpy as np
import pytest
from scipy import stats

from oracles import grad_check
from sswm import dists
from sswm.agent import build_agent
from sswm.tensor import Tensor, add, make_rng, mul, reshape, softmax, tmean, tsum
from sswm.worldmodel import A_DYN, A_REP, UNIMIX, LatentState, WmConfig, WorldModel


def tiny_cfg(**kw):
    base = dict(
        obs_dim=5,
        action_dim=3,
        n_cats=2,
        n_classes=4,
        model_dim=6,
        state_dim=4,
        n_blocks=1,
        mlp_units=8,
    )
    base.update(kw)
    return WmConfig(**base)


def make_wm(seed=0, **kw):
    return WorldModel(make_rng(seed), tiny_cfg(**kw))


def zero_state(wm, batch):
    """The start state acting uses: zero h and an all-zero z."""
    return LatentState(h=np.zeros((batch, wm.h_width)), z=np.zeros((batch, wm.cfg.n_cats, wm.cfg.n_classes)))


def sample(logits, rng):
    """The world model's latent draw: a straight-through sample of the unimixed probabilities."""
    return dists.sample_straight_through(dists.unimix_probs(logits, UNIMIX), rng)


def random_batch(rng, cfg, bsz=2, t_len=6, reset_p=0.15):
    resets = rng.random((bsz, t_len)) < reset_p
    resets[:, 0] = rng.random(bsz) < 0.5
    return {
        "obs": rng.normal(size=(bsz, t_len, cfg.obs_dim)),
        "action": rng.normal(size=(bsz, t_len, cfg.action_dim)),
        "reward": rng.normal(size=(bsz, t_len)),
        "cont": (rng.random((bsz, t_len)) > 0.1).astype(float),
        "reset": resets,
    }


# ---------------------------------------------------------------------------
# categorical sampling
# ---------------------------------------------------------------------------


def test_equal_logits_sample_uniform():
    rng = make_rng(1)
    logits = Tensor(np.zeros((10_000, 1, 4)))
    z = sample(logits, rng)
    counts = z.data.sum(axis=0).ravel()
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_dominant_logit_includes_unimix_leakage():
    rng = make_rng(2)
    logits = np.zeros((20_000, 1, 8))
    logits[:, :, 3] = 20.0
    z = sample(Tensor(logits), rng)
    frac = z.data[:, 0, 3].mean()
    # exact mixture probability: 0.99*softmax + 0.01/K
    e = np.exp(logits[0, 0] - 20.0)
    exact = 0.99 * e[3] / e.sum() + 0.01 / 8
    assert frac >= 0.985
    assert abs(frac - exact) < 0.005


def test_straight_through_gradient_equals_probs_path():
    rng = make_rng(3)
    weights = rng.normal(size=(6, 1, 4))

    logits_a = Tensor(rng.normal(size=(6, 1, 4)), requires_grad=True)
    probs_a = dists.unimix_probs(logits_a, 0.01)
    sample = dists.sample_straight_through(probs_a, make_rng(4))
    # one node: the one-hot sample itself, on top of the probabilities
    assert sample._parents == (probs_a,)
    np.testing.assert_array_equal(sample.data, dists.sample_one_hot(probs_a.data, make_rng(4)))
    tsum(reshape(mul(sample, Tensor(weights)), (-1,))).backward()

    logits_b = Tensor(logits_a.data.copy(), requires_grad=True)
    probs_b = dists.unimix_probs(logits_b, 0.01)
    tsum(reshape(mul(probs_b, Tensor(weights)), (-1,))).backward()

    np.testing.assert_allclose(logits_a.grad, logits_b.grad, atol=1e-12)


def _unimix_reference(logits, unimix):
    """The composed graph the fused node replaces: softmax -> mul -> add."""
    k = logits.shape[-1]
    return add(mul(softmax(logits), Tensor(1.0 - unimix)), Tensor(np.full(k, unimix / k)))


def test_unimix_probs_matches_composed_reference():
    for seed in range(20):
        rng = make_rng(6000 + seed)
        unimix = (0.0, 0.01, 0.3)[seed % 3]
        shape = (1 + seed % 5, 1 + seed % 3, 2 + seed % 7)
        logits = Tensor(rng.normal(0.0, 1.0 + seed % 4, size=shape), requires_grad=True)
        weight = Tensor(rng.normal(size=shape))
        out = dists.unimix_probs(logits, unimix)
        tmean(mul(out, weight)).backward()
        grad, logits.grad = logits.grad, None
        ref = _unimix_reference(logits, unimix)
        tmean(mul(ref, weight)).backward()
        np.testing.assert_array_equal(out.data, ref.data)
        assert np.abs(grad - logits.grad).max() <= 1e-12 * np.abs(logits.grad).max()


def test_one_hot_matches_put_along_axis():
    rng = make_rng(7)
    for shape, k in [((1,), 4), ((1, 3), 5), ((6, 2, 3), 8)]:
        idx = rng.integers(k, size=shape)
        want = np.zeros(shape + (k,))
        np.put_along_axis(want, idx[..., None], 1.0, axis=-1)
        got = dists.one_hot(idx, k)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def test_sample_rows_exactly_one_hot():
    z = sample(Tensor(make_rng(5).normal(size=(64, 2, 4))), make_rng(6))
    assert np.isin(z.data, (0.0, 1.0)).all()
    np.testing.assert_array_equal(z.data.sum(axis=-1), 1.0)


def _numpy_draws(probs, rng):
    """The reference draw: numpy's cumsum with the last entry guarded, and the count of entries below u."""
    cum = probs.cumsum(axis=-1)
    cum[..., -1] = 1.0
    u = rng.random(probs.shape[:-1] + (1,))
    return dists.one_hot((u > cum).sum(axis=-1), probs.shape[-1])


def test_sample_one_hot_draws_what_numpy_cumsum_draws():
    rng = make_rng(8)
    logits = rng.normal(size=(4224, 8, 8))
    cases = {
        "peaked": softmax(Tensor(20.0 * logits)).data,
        "flat": np.full(logits.shape, 1.0 / 8),
        "unimixed": dists.unimix_probs(Tensor(logits), UNIMIX).data,
        "(1, 8, 8)": dists.unimix_probs(Tensor(rng.normal(size=(1, 8, 8))), UNIMIX).data,
        "(128, 1, 4)": softmax(Tensor(rng.normal(size=(128, 1, 4)))).data,
    }
    rows = 0
    for name, probs in cases.items():
        got = dists.sample_one_hot(probs, make_rng(9))
        np.testing.assert_array_equal(got, _numpy_draws(probs, make_rng(9)), err_msg=name)
        assert np.isin(got, (0.0, 1.0)).all() and (got.sum(axis=-1) == 1.0).all(), name
        rows += probs.size // probs.shape[-1]
    assert rows >= 100_000


def test_latent_entropy_matches_the_two_step_form():
    rng = make_rng(10)
    for shape in [(1, 8, 8), (128, 8, 8), (8, 16, 8, 8), (3, 2, 4)]:
        p = dists.unimix_probs(Tensor(rng.normal(0.0, 3.0, size=shape)), UNIMIX).data
        two_step = -(p * np.log(p)).sum(axis=-1).sum(axis=-1)
        got = dists.latent_entropy_np(p)
        assert got.shape == shape[:-2]
        np.testing.assert_allclose(got, two_step, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# symlog / heads
# ---------------------------------------------------------------------------


def test_symlog_identities():
    np.testing.assert_allclose(dists.symlog_np(np.array([0.0, np.e - 1.0, 1.0 - np.e])), [0.0, 1.0, -1.0], atol=1e-12)
    v = np.linspace(-30, 30, 101)
    np.testing.assert_allclose(dists.symexp_np(dists.symlog_np(v)), v, atol=1e-12, rtol=1e-12)


def test_continue_logit_zero_is_even_odds():
    nll1 = dists.bernoulli_nll(Tensor(np.zeros(3)), np.ones(3))
    nll0 = dists.bernoulli_nll(Tensor(np.zeros(3)), np.zeros(3))
    np.testing.assert_allclose(nll1.data, np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(nll0.data, np.log(2.0), atol=1e-12)


def test_bernoulli_nll_is_finite_and_silent_at_extreme_logits():
    x = np.array([0.0, 1.5, -1.5, 30.0, -30.0, 1e3, -1e3, 1e300, -1e300])
    for t in (0.0, 1.0):
        target = np.full(x.shape, t)
        logit = Tensor(x, requires_grad=True)
        nll = dists.bernoulli_nll(logit, target)
        tsum(nll).backward()
        # to within rounding at the scale of |logit| and of 1
        tol = 4e-16 * (1.0 + np.abs(x[:5]))
        assert (np.abs(nll.data[:5] - (np.log1p(np.exp(x[:5])) - t * x[:5])) <= tol).all()
        assert (np.abs(logit.grad[:5] - (1.0 / (1.0 + np.exp(-x[:5])) - t)) <= tol).all()
        # a logit of the target's sign costs nothing; the other sign costs |logit|
        agree = (x[5:] > 0) == (t == 1.0)
        np.testing.assert_array_equal(nll.data[5:], np.where(agree, 0.0, np.abs(x[5:])))
        np.testing.assert_array_equal(logit.grad[5:], np.where(x[5:] > 0, 1.0, 0.0) - t)


def test_encode_rejects_wrong_width():
    wm = make_wm()
    with pytest.raises(ValueError, match="width"):
        wm.encode(Tensor(np.zeros((2, 7))))
    # the acting encode too: a level above relies on it to reject a window of the wrong width
    with pytest.raises(ValueError, match="width"):
        wm.encode_step(np.zeros((2, 7)))


def test_encode_step_equals_encode():
    wm = make_wm(seed=3)
    obs = make_rng(4).normal(size=(3, wm.cfg.obs_dim))
    assert np.array_equal(wm.encode_step(obs), wm.encode(Tensor(obs)).data)


# ---------------------------------------------------------------------------
# sequence model stepping
# ---------------------------------------------------------------------------


def test_step_reset_ignores_history():
    # a reset returns a level to the zero start state before it steps, so two
    # copies of one level with different histories step and act alike from it
    wm_kwargs = dict(n_cats=2, n_classes=4, model_dim=6, state_dim=4, mlp_units=8)
    copies = [build_agent(7, 5, 3, depth=1, k=2, wm_kwargs=wm_kwargs).levels[0] for _ in range(2)]
    for lvl, steps in zip(copies, (3, 5)):
        rng = make_rng(steps)
        for t in range(steps):
            lvl.step(rng.normal(size=5), float(rng.normal()), 1.0, t == 0, rng, random_action=True)
    assert not np.array_equal(copies[0].h, copies[1].h)
    obs = make_rng(8).normal(size=5)
    actions = [lvl.step(obs, 0.0, 1.0, True, make_rng(9), random_action=False) for lvl in copies]
    np.testing.assert_array_equal(actions[0], actions[1])
    np.testing.assert_array_equal(copies[0].h, copies[1].h)
    np.testing.assert_array_equal(copies[0].z, copies[1].z)


def test_unrolled_steps_match_sequence_forward():
    wm = make_wm(seed=9)
    rng = make_rng(10)
    cfg = wm.cfg
    batch = random_batch(rng, cfg, bsz=2, t_len=7)
    out = wm.forward_sequence(batch["obs"], batch["action"], batch["reset"], make_rng(11))
    z = out["z"].data
    h_seq = out["h"].data
    prior_seq = out["prior_probs"].data.reshape(2, 7, cfg.n_cats, cfg.n_classes)

    ctx = wm.stack.discretized()
    bsz, t_len = 2, 7
    h = np.zeros((bsz, wm.h_width))
    z_prev = np.zeros((bsz, cfg.n_cats, cfg.n_classes))
    for t in range(t_len):
        keep = 1.0 - batch["reset"][:, t].astype(float)
        zp = z_prev * keep[:, None, None]
        h = h * keep[:, None]  # a reset row steps from the zero start state
        h, prior = wm.wm_step(h, zp, batch["action"][:, t], ctx)
        np.testing.assert_allclose(h, h_seq[:, t], atol=1e-10)
        np.testing.assert_allclose(prior, prior_seq[:, t], atol=1e-10)
        z_prev = z[:, t]


def test_zero_network_gives_zero_output():
    wm = make_wm(seed=12)
    for name, p in wm.params().items():
        if name.startswith(("wm.in_proj", "wm.stack")):
            p.data[:] = 0.0
    # restore a sane norm scale so the block is still well-defined
    for name, p in wm.params().items():
        if name.startswith("wm.stack.norms") and name.endswith(".scale"):
            p.data[:] = 1.0
    rng = make_rng(13)
    z = np.zeros((2, 2, 4))
    z[:, :, 0] = 1.0
    _, prior = wm.wm_step(np.zeros((2, wm.h_width)), z * 0.0, np.zeros((2, 3)), wm.stack.discretized())
    # the sequence model's output m is zero, so the prior is the one at m = 0
    np.testing.assert_allclose(prior, wm._prior(Tensor(np.zeros((2, wm.cfg.model_dim)))).data, atol=1e-12)


# ---------------------------------------------------------------------------
# loss and free bits
# ---------------------------------------------------------------------------


def test_free_bits_floor_exact_when_prior_equals_posterior():
    wm = make_wm(seed=14)
    # zero the encoder and dynamics nets: both produce all-zero logits
    for name, p in wm.params().items():
        if name.startswith(("wm.enc", "wm.dyn")):
            p.data[:] = 0.0
    batch = random_batch(make_rng(15), wm.cfg)
    _, report, _ = wm.loss(batch, make_rng(16))
    assert report.l_dyn == 1.0
    assert report.l_rep == 1.0


def test_loss_builds_each_categorical_once(monkeypatch):
    # one unimix node for the posterior (the KL terms and the sample share
    # it) and one for the prior
    calls = []
    unimix = dists.unimix_probs
    monkeypatch.setattr(dists, "unimix_probs", lambda logits, mix: calls.append(logits.shape) or unimix(logits, mix))
    wm = make_wm(seed=44)
    wm.loss(random_batch(make_rng(45), wm.cfg), make_rng(46))
    assert calls == [(12, 2, 4), (12, 2, 4)]


def test_free_bits_passthrough_above_floor():
    assert dists.free_bits(Tensor(np.array([2.5])), 1.0).data[0] == 2.5
    assert dists.free_bits(Tensor(np.array([0.3])), 1.0).data[0] == 1.0


def test_loss_total_identity():
    # the report's total is the value of the graph that backward runs on
    wm = make_wm(seed=17)
    for stream in range(10):
        batch = random_batch(make_rng(18, stream=stream), wm.cfg)
        total, report, _ = wm.loss(batch, make_rng(19, stream=stream))
        assert report.total == total.item()
        want = report.l_pred + A_DYN * report.l_dyn + A_REP * report.l_rep
        assert abs(report.total - want) < 1e-12


def test_loss_weight_defaults():
    assert A_DYN == 0.5 and A_REP == 0.1


def test_loss_rejects_short_windows():
    wm = make_wm()
    batch = random_batch(make_rng(20), wm.cfg, t_len=1)
    with pytest.raises(ValueError, match="length"):
        wm.loss(batch, make_rng(21))


def test_kl_analytic_matches_monte_carlo():
    rng = make_rng(22)
    p_logits = rng.normal(size=4)
    q_logits = rng.normal(size=4)
    p = np.exp(p_logits) / np.exp(p_logits).sum()
    q = np.exp(q_logits) / np.exp(q_logits).sum()
    analytic = dists.kl_categorical(Tensor(p), Tensor(q)).item()
    n = 100_000
    draws = rng.choice(4, p=p, size=n)
    ratios = np.log(p[draws] / q[draws])
    mc = ratios.mean()
    sigma = ratios.std(ddof=1) / np.sqrt(n)
    assert abs(analytic - mc) < 3 * sigma


def test_stop_gradient_sidedness():
    # grad of l_dyn w.r.t. posterior logits is exactly zero, and vice versa
    rng = make_rng(23)
    post_logits = Tensor(rng.normal(size=(5, 2, 4)), requires_grad=True)
    prior_logits = Tensor(rng.normal(size=(5, 2, 4)), requires_grad=True)
    post = dists.unimix_probs(post_logits, 0.01)
    prior = dists.unimix_probs(prior_logits, 0.01)
    l_dyn = tmean(dists.kl_categorical(post.detach(), prior))
    l_dyn.backward()
    assert post_logits.grad is None
    assert np.abs(prior_logits.grad).max() > 0

    post_logits2 = Tensor(post_logits.data.copy(), requires_grad=True)
    prior_logits2 = Tensor(prior_logits.data.copy(), requires_grad=True)
    post2 = dists.unimix_probs(post_logits2, 0.01)
    prior2 = dists.unimix_probs(prior_logits2, 0.01)
    tmean(dists.kl_categorical(post2, prior2.detach())).backward()
    assert prior_logits2.grad is None
    assert np.abs(post_logits2.grad).max() > 0


def test_wm_loss_gradients_match_finite_differences(smooth_latents):
    # z is the posterior probabilities themselves, a smooth path FD can
    # actually probe; the straight-through identity is covered separately above.
    wm = make_wm(seed=24)
    batch = random_batch(make_rng(25), wm.cfg, bsz=1, t_len=4)

    def fn():
        total, _, _ = wm.loss(batch, make_rng(26))
        return total

    report = grad_check(fn, wm.params(), epsilon=1e-5, max_coords=6, rng=make_rng(27))
    assert report.max_rel_err < 1e-4, report.per_leaf


# ---------------------------------------------------------------------------
# imagination
# ---------------------------------------------------------------------------


def zero_policy(cfg):
    def act(i, state):
        a = np.zeros((state["h"].shape[0], cfg.action_dim))
        a[:, 0] = 1.0
        return a

    return act


def test_imagine_single_step():
    wm = make_wm(seed=28)
    start = zero_state(wm, 3)
    traj = wm.imagine(start, zero_policy(wm.cfg), horizon=1, rng=make_rng(29))
    assert traj["action"].shape == (3, 1, 3)
    assert traj["h"].shape[1] == 2


def test_imagine_deterministic_given_seed():
    wm = make_wm(seed=30)
    start = zero_state(wm, 2)
    t1 = wm.imagine(start, zero_policy(wm.cfg), horizon=5, rng=make_rng(31))
    t2 = wm.imagine(start, zero_policy(wm.cfg), horizon=5, rng=make_rng(31))
    for key in t1:
        np.testing.assert_array_equal(t1[key], t2[key])


def test_imagine_uniform_prior_entropy():
    wm = make_wm(seed=32)
    for name, p in wm.params().items():
        if name.startswith("wm.dyn"):
            p.data[:] = 0.0
    start = zero_state(wm, 2)
    traj = wm.imagine(start, zero_policy(wm.cfg), horizon=2, rng=make_rng(33))
    want = wm.cfg.n_cats * np.log(wm.cfg.n_classes)
    np.testing.assert_allclose(traj["entropy"][:, 1:], want, atol=1e-9)


def test_imagine_runs_no_observation_decoder():
    wm = make_wm(seed=42)

    def no_decoding(feats):
        raise AssertionError("imagine decoded an observation")

    wm.decoder = no_decoding
    traj = wm.imagine(zero_state(wm, 3), zero_policy(wm.cfg), horizon=2, rng=make_rng(43))
    assert traj["reward"].shape == traj["cont"].shape == (3, 3)
    assert np.isfinite(traj["reward"]).all() and np.isfinite(traj["cont"]).all()


def test_imagine_takes_no_observations():
    import inspect

    sig = inspect.signature(WorldModel.imagine)
    assert "obs" not in sig.parameters and "observation" not in sig.parameters


def test_config_h_width_matches_built_model():
    wm = make_wm(seed=39, n_blocks=2)
    out = wm.forward_sequence(*(random_batch(make_rng(40), wm.cfg)[k] for k in ("obs", "action", "reset")), make_rng(41))
    assert out["h"].shape[-1] == wm.cfg.h_width == wm.h_width
    traj = wm.imagine(zero_state(wm, 3), zero_policy(wm.cfg), horizon=1, rng=make_rng(42))
    assert traj["h"].shape == (3, 2, wm.cfg.h_width)
