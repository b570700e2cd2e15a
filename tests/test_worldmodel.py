"""World-model tests: categorical sampling, free-bits loss, step/sequence duality."""

import numpy as np
import pytest
from scipy import stats

from sswm import dists
from sswm.s5 import ConfigError
from sswm.tensor import Tensor, add, backward, grad_check, make_rng, mul, softmax, tsum
from sswm.worldmodel import LatentState, WmConfig, WorldModel


def tiny_cfg(**kw):
    base = dict(
        obs_dim=5,
        action_dim=3,
        n_cats=2,
        n_classes=4,
        model_dim=6,
        state_dim=4,
        n_blocks=1,
        init_blocks=2,
        mlp_units=8,
    )
    base.update(kw)
    return WmConfig(**base)


def make_wm(seed=0, **kw):
    return WorldModel(make_rng(seed), tiny_cfg(**kw))


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
    wm = make_wm()
    rng = make_rng(1)
    logits = Tensor(np.zeros((10_000, 1, 4)))
    z = wm.sample(logits, rng)
    counts = z.data.sum(axis=0).ravel()
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_dominant_logit_includes_unimix_leakage():
    wm = make_wm(n_classes=8, n_cats=1)
    rng = make_rng(2)
    logits = np.zeros((20_000, 1, 8))
    logits[:, :, 3] = 20.0
    z = wm.sample(Tensor(logits), rng)
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
    backward(tsum(mul(sample, Tensor(weights))))

    logits_b = Tensor(logits_a.data.copy(), requires_grad=True)
    probs_b = dists.unimix_probs(logits_b, 0.01)
    backward(tsum(mul(probs_b, Tensor(weights))))

    np.testing.assert_allclose(logits_a.grad, logits_b.grad, atol=1e-12)


def _unimix_reference(logits, unimix):
    """The composed graph the fused node replaces: softmax -> mul -> add."""
    k = logits.shape[-1]
    return add(mul(softmax(logits, axis=-1), Tensor(1.0 - unimix)), Tensor(np.full(k, unimix / k)))


def test_unimix_probs_matches_composed_reference():
    for seed in range(20):
        rng = make_rng(6000 + seed)
        unimix = (0.0, 0.01, 0.3)[seed % 3]
        shape = (1 + seed % 5, 1 + seed % 3, 2 + seed % 7)
        logits = Tensor(rng.normal(0.0, 1.0 + seed % 4, size=shape), requires_grad=True)
        weight = Tensor(rng.normal(size=shape))
        out = dists.unimix_probs(logits, unimix)
        backward(tsum(mul(out, weight)))
        grad, logits.grad = logits.grad, None
        ref = _unimix_reference(logits, unimix)
        backward(tsum(mul(ref, weight)))
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
    wm = make_wm()
    z = wm.sample(Tensor(make_rng(5).normal(size=(64, 2, 4))), make_rng(6))
    assert np.isin(z.data, (0.0, 1.0)).all()
    np.testing.assert_array_equal(z.data.sum(axis=-1), 1.0)
    LatentState(h=np.zeros((64, 1)), z=z.data).validate()


# ---------------------------------------------------------------------------
# symlog / heads
# ---------------------------------------------------------------------------


def test_symlog_identities():
    np.testing.assert_allclose(dists.symlog_np(np.array([0.0, np.e - 1.0, 1.0 - np.e])), [0.0, 1.0, -1.0], atol=1e-12)
    v = np.linspace(-30, 30, 101)
    np.testing.assert_allclose(dists.symexp_np(dists.symlog_np(v)), v, atol=1e-12, rtol=1e-12)


def test_continue_logit_zero_is_even_odds():
    nll1 = dists.bernoulli_nll(Tensor(np.zeros(3)), Tensor(np.ones(3)))
    nll0 = dists.bernoulli_nll(Tensor(np.zeros(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(nll1.data, np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(nll0.data, np.log(2.0), atol=1e-12)


def test_encode_rejects_wrong_width():
    wm = make_wm()
    with pytest.raises(ConfigError, match="width"):
        wm.encode(Tensor(np.zeros((2, 7))))


# ---------------------------------------------------------------------------
# sequence model stepping
# ---------------------------------------------------------------------------


def test_wm_step_reset_ignores_history():
    wm = make_wm(seed=7)
    rng = make_rng(8)
    z = dists.sample_one_hot(np.full((3, 2, 4), 0.25), rng)
    a = rng.normal(size=(3, 3))
    reset = np.ones(3, dtype=bool)
    m1, h1 = wm.wm_step(Tensor(rng.normal(size=(3, wm.h_width))), Tensor(z), Tensor(a), reset)
    m2, h2 = wm.wm_step(Tensor(rng.normal(size=(3, wm.h_width))), Tensor(z), Tensor(a), reset)
    np.testing.assert_array_equal(m1.data, m2.data)
    np.testing.assert_array_equal(h1.data, h2.data)


def test_unrolled_steps_match_sequence_forward():
    wm = make_wm(seed=9)
    rng = make_rng(10)
    cfg = wm.cfg
    batch = random_batch(rng, cfg, bsz=2, t_len=7)
    out = wm.forward_sequence(batch["obs"], batch["action"], batch["reset"], make_rng(11))
    z = out["z"].data
    m_seq = out["m"].data
    h_seq = out["h"].data

    ctx = wm.step_context()
    bsz, t_len = 2, 7
    h = Tensor(np.zeros((bsz, wm.h_width)))
    z_prev = np.zeros((bsz, cfg.n_cats, cfg.n_classes))
    for t in range(t_len):
        keep = 1.0 - batch["reset"][:, t].astype(float)
        zp = z_prev * keep[:, None, None]
        m, h = wm.wm_step(h, Tensor(zp), Tensor(batch["action"][:, t]), batch["reset"][:, t], ctx)
        np.testing.assert_allclose(m.data, m_seq[:, t], atol=1e-10)
        np.testing.assert_allclose(h.data, h_seq[:, t], atol=1e-10)
        z_prev = z[:, t]


def test_zero_network_gives_zero_output():
    wm = make_wm(seed=12)
    for name, p in wm.params().items():
        if name.startswith(("wm.in_proj", "wm.stack")):
            p.data[:] = 0.0
    # restore a sane norm scale so the block is still well-defined
    for name, p in wm.params().items():
        if name.endswith("norm.scale"):
            p.data[:] = 1.0
    rng = make_rng(13)
    z = np.zeros((2, 2, 4))
    z[:, :, 0] = 1.0
    m, _ = wm.wm_step(Tensor(np.zeros((2, wm.h_width))), Tensor(z * 0.0), Tensor(np.zeros((2, 3))), np.zeros(2, bool))
    np.testing.assert_allclose(m.data, 0.0, atol=1e-12)


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


def test_free_bits_passthrough_above_floor():
    assert dists.free_bits(Tensor(np.array([2.5])), 1.0).data[0] == 2.5
    assert dists.free_bits(Tensor(np.array([0.3])), 1.0).data[0] == 1.0


def test_loss_total_identity():
    wm = make_wm(seed=17)
    batch = random_batch(make_rng(18), wm.cfg)
    total, report, _ = wm.loss(batch, make_rng(19))
    want = report.l_pred + wm.cfg.a_dyn * report.l_dyn + wm.cfg.a_rep * report.l_rep
    assert abs(report.total - want) < 1e-12
    assert abs(total.item() - want) < 1e-9


def test_loss_weight_defaults():
    cfg = WmConfig(obs_dim=3, action_dim=2)
    assert cfg.a_dyn == 0.5 and cfg.a_rep == 0.1


def test_loss_rejects_short_windows():
    wm = make_wm()
    batch = random_batch(make_rng(20), wm.cfg, t_len=1)
    with pytest.raises(ConfigError, match="length"):
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
    l_dyn = tsum(dists.kl_categorical(post.detach(), prior))
    backward(l_dyn)
    assert post_logits.grad is None
    assert np.abs(prior_logits.grad).max() > 0

    post_logits2 = Tensor(post_logits.data.copy(), requires_grad=True)
    prior_logits2 = Tensor(prior_logits.data.copy(), requires_grad=True)
    post2 = dists.unimix_probs(post_logits2, 0.01)
    prior2 = dists.unimix_probs(prior_logits2, 0.01)
    backward(tsum(dists.kl_categorical(post2, prior2.detach())))
    assert prior_logits2.grad is None
    assert np.abs(post_logits2.grad).max() > 0


def test_wm_loss_gradients_match_finite_differences():
    # "mean" latent mode: the smooth surrogate path FD can actually probe;
    # the straight-through identity is covered separately above.
    wm = make_wm(seed=24)
    batch = random_batch(make_rng(25), wm.cfg, bsz=1, t_len=4)

    def fn():
        total, _, _ = wm.loss(batch, make_rng(26), sample_mode="mean")
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
    start = wm.initial_state(3)
    traj = wm.imagine(start, zero_policy(wm.cfg), horizon=1, rng=make_rng(29))
    assert traj["action"].shape == (3, 1, 3)
    assert traj["h"].shape[1] == 2


def test_imagine_deterministic_given_seed():
    wm = make_wm(seed=30)
    start = wm.initial_state(2)
    t1 = wm.imagine(start, zero_policy(wm.cfg), horizon=5, rng=make_rng(31))
    t2 = wm.imagine(start, zero_policy(wm.cfg), horizon=5, rng=make_rng(31))
    for key in t1:
        np.testing.assert_array_equal(t1[key], t2[key])


def test_imagine_uniform_prior_entropy():
    wm = make_wm(seed=32)
    for name, p in wm.params().items():
        if name.startswith("wm.dyn"):
            p.data[:] = 0.0
    start = wm.initial_state(2)
    traj = wm.imagine(start, zero_policy(wm.cfg), horizon=2, rng=make_rng(33))
    want = wm.cfg.n_cats * np.log(wm.cfg.n_classes)
    np.testing.assert_allclose(traj["entropy"][:, 1:], want, atol=1e-9)


def test_imagine_runs_no_observation_decoder():
    wm = make_wm(seed=42)

    def no_decoding(feats):
        raise AssertionError("imagine decoded an observation")

    wm.decoder = no_decoding
    traj = wm.imagine(wm.initial_state(3), zero_policy(wm.cfg), horizon=2, rng=make_rng(43))
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
    assert wm.initial_state(3).h.shape == (3, wm.cfg.h_width)
