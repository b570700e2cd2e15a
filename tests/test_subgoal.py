"""Subgoal autoencoder tests: code distributions, variational loss, novelty."""

import numpy as np
import pytest
from scipy import stats

from oracles import grad_check
from sswm.envs import TwoLevelGridworld
from sswm.nn import AdamW, parameters
from sswm.subgoal import KL_BETA, SubgoalAutoencoder, SubgoalConfig
from sswm.tensor import Tensor, make_rng


def make_ae(seed=0, h_width=6, n_codes=2, code_size=4, units=16):
    cfg = SubgoalConfig(h_width=h_width, n_codes=n_codes, code_size=code_size, mlp_units=units)
    return SubgoalAutoencoder(make_rng(seed), cfg)


def test_equal_logits_uniform_codes():
    ae = make_ae()
    for p in parameters(ae.encoder, "e").values():
        p.data[:] = 0.0
    _, sample = ae.encode(Tensor(np.zeros((20_000, 6))), make_rng(1))
    counts = sample.data.sum(axis=0)[0]
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_paper_scale_shape():
    ae = make_ae(h_width=16, n_codes=8, code_size=8)
    _, sample = ae.encode(Tensor(np.zeros((3, 16))), make_rng(2))
    assert sample.shape == (3, 8, 8)
    assert np.isin(sample.data, (0.0, 1.0)).all()
    np.testing.assert_array_equal(sample.data.sum(axis=-1), 1.0)  # one-hot rows


def test_encode_deterministic_given_seed():
    ae = make_ae(seed=3)
    h = make_rng(4).normal(size=(5, 6))
    _, s1 = ae.encode(Tensor(h), make_rng(7))
    _, s2 = ae.encode(Tensor(h), make_rng(7))
    np.testing.assert_array_equal(s1.data, s2.data)


def test_decode_pure_function_and_width():
    ae = make_ae(seed=5)
    g = np.zeros((4, 2, 4))
    g[:, :, 1] = 1.0
    out1 = ae.decode(Tensor(g))
    out2 = ae.decode(Tensor(g))
    assert out1.shape == (4, 6)
    np.testing.assert_array_equal(out1.data, out2.data)


def test_roundtrip_error_decreases_with_training():
    ae = make_ae(seed=6, h_width=4, n_codes=2, code_size=4, units=16)
    rng = make_rng(8)
    h_data = rng.normal(size=(64, 4))  # fixed distribution
    opt = AdamW(parameters(ae, "ae"), lr=3e-3)
    first = None
    for step in range(500):
        total, parts = ae.loss(Tensor(h_data), make_rng(100 + step))
        if step == 0:
            first = parts["recon"]
        total.backward()
        opt.step()
    final = ae.loss(Tensor(h_data), make_rng(999))[1]["recon"]
    assert final < first


def test_uniform_logits_zero_kl():
    ae = make_ae()
    for p in parameters(ae.encoder, "e").values():
        p.data[:] = 0.0
    _, parts = ae.loss(Tensor(make_rng(9).normal(size=(8, 6))), make_rng(10))
    assert parts["kl"] == pytest.approx(0.0, abs=1e-9)


def test_near_uniform_kl_matches_extended_precision():
    # near-uniform codes (total KL of a few 1e-3 nats): the loss's KL must not
    # lose digits to terms of order ln 8 cancelling, as log p - log(1/8) did
    # (up to 6e-13 relative here)
    worst = 0.0
    for seed in range(20):
        ae = make_ae(seed=seed, h_width=16, n_codes=8, code_size=8, units=32)
        ae.encoder.layers[-1].w.data *= 0.05
        h = Tensor(make_rng(1000 + seed).normal(size=(16, 16)))
        probs, _ = ae.encode(h, make_rng(0))
        p = probs.data.astype(np.longdouble)
        want = (p * (np.log(p) + np.log(np.longdouble(8)))).sum(axis=(1, 2)).mean()
        got = ae.loss(h, make_rng(0))[1]["kl"]
        worst = max(worst, float(abs(got - want) / want))
    assert worst < 2e-14, f"kl rel err {worst}"


def concentrated_ae(seed=11, k=8):
    """Encoder pinned to one code per categorical via a huge bias."""
    ae = make_ae(seed=seed, h_width=6, n_codes=2, code_size=k, units=8)
    last = ae.encoder.layers[-1]
    last.w.data[:] = 0.0
    bias = np.zeros((2, k))
    bias[:, 0] = 20.0
    last.b.data[:] = bias.reshape(-1)
    return ae


def test_concentrated_softmax_kl_is_log_k():
    ae = concentrated_ae(k=8)
    h = make_rng(12).normal(size=(4, 6))
    _, parts = ae.loss(Tensor(h), make_rng(13))
    assert parts["kl"] == pytest.approx(2 * np.log(8.0), abs=2e-3)  # 2 codes, ln 8 each


def test_perfect_reconstruction_leaves_only_kl():
    ae = concentrated_ae(k=4)
    code = np.zeros((3, 2, 4))
    code[:, :, 0] = 1.0
    target = ae.decode(Tensor(code)).data  # h exactly in the decoder image
    total, parts = ae.loss(Tensor(target), make_rng(14))
    assert parts["recon"] == pytest.approx(0.0, abs=1e-9)
    assert parts["total"] == pytest.approx(KL_BETA * parts["kl"], rel=1e-9)


def test_loss_gradients_match_finite_differences(smooth_latents):
    ae = make_ae(seed=15, h_width=4, n_codes=2, code_size=3, units=6)
    h = make_rng(16).normal(size=(3, 4))

    def fn():
        total, _ = ae.loss(Tensor(h), make_rng(17))
        return total

    report = grad_check(fn, parameters(ae, "ae"), epsilon=1e-5)
    assert report.max_rel_err < 1e-5, report.per_leaf


# ---------------------------------------------------------------------------
# novelty
# ---------------------------------------------------------------------------


def test_novelty_nonnegative():
    ae = make_ae(seed=18)
    h = make_rng(19).normal(size=(32, 6)) * 3.0
    nov = ae.novelty(h, make_rng(20))
    assert (nov >= 0.0).all()


def test_novelty_batch_matches_per_rollout_loop():
    # one call over a rollout's (N, H+1, d) states, flattened in row-major
    # order as the actor's train step does, draws the sampled codes as a loop
    # over the N rollouts does
    ae = make_ae(seed=18)
    n, hp1 = 5, 4
    h = make_rng(19).normal(size=(n, hp1, 6)) * 3.0
    loop_rng = make_rng(20)
    loop = np.stack([ae.novelty(h[i], loop_rng) for i in range(n)])
    batched = ae.novelty(h.reshape(n * hp1, -1), make_rng(20)).reshape(n, hp1)
    np.testing.assert_allclose(batched, loop, rtol=0.0, atol=1e-12)


def test_novelty_zero_for_identity_roundtrip():
    ae = concentrated_ae(k=4)
    code = np.zeros((5, 2, 4))
    code[:, :, 0] = 1.0
    h = ae.decode(Tensor(code)).data
    nov = ae.novelty(h, make_rng(21))
    np.testing.assert_allclose(nov, 0.0, atol=1e-9)


def test_novelty_unit_residual():
    ae = concentrated_ae(k=4)
    code = np.zeros((1, 2, 4))
    code[:, :, 0] = 1.0
    base = ae.decode(Tensor(code)).data[0]
    h = base.copy()
    h[0] += 1.0  # differs from the reconstruction by a unit vector
    nov = ae.novelty(h[None, :], make_rng(22))
    assert nov[0] == pytest.approx(1.0, abs=1e-9)


def test_novelty_higher_in_unvisited_region():
    # train on room-A style states only; room-B states must look novel
    env = TwoLevelGridworld(size=5, seed=23)
    rng = make_rng(24)
    proj = rng.normal(size=(env.obs_dim, 8)) / np.sqrt(env.obs_dim)

    def region_states(in_b, n):
        out = []
        while len(out) < n:
            obs = env.reset()
            obs[-1] = float(in_b)  # room indicator as the region marker
            pos = rng.integers(env.size * env.size)
            obs[: env.size * env.size] = 0.0
            obs[pos] = 1.0
            out.append(obs @ proj)
        return np.array(out)

    visited = region_states(False, 256)
    unvisited = region_states(True, 256)
    ae = make_ae(seed=25, h_width=8, n_codes=2, code_size=8, units=32)
    opt = AdamW(parameters(ae, "ae"), lr=3e-3)
    for step in range(600):
        total, _ = ae.loss(Tensor(visited), make_rng(400 + step))
        total.backward()
        opt.step()
    nov_a = ae.novelty(visited, make_rng(26)).mean()
    nov_b = ae.novelty(unvisited, make_rng(27)).mean()
    assert nov_b > nov_a
