"""Optimizer tests: AdamW is bias-corrected Adam on clipped gradients, and skips non-finite ones."""

import numpy as np
import pytest

from sswm.nn import ADAM_EPS, BETA1, BETA2, CLIP_NORM, AdamW
from sswm.tensor import Tensor, make_rng


def test_adamw_matches_bias_corrected_adam_with_clipping():
    rng, lr = make_rng(51), 1e-2
    start = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    params = {k: Tensor(a.copy(), requires_grad=True) for k, a in start.items()}
    opt = AdamW(params, lr=lr)
    # the first gradient is inside the clip bound, the second (norm about 350) outside it
    grads = [{k: rng.normal(size=a.shape) for k, a in start.items()}, {k: 100.0 * rng.normal(size=a.shape) for k, a in start.items()}]
    want = {k: a.copy() for k, a in start.items()}
    m = {k: np.zeros_like(a) for k, a in start.items()}
    v = {k: np.zeros_like(a) for k, a in start.items()}
    for t, grad in enumerate(grads, start=1):
        norm = np.sqrt(sum((g * g).sum() for g in grad.values()))
        clip = min(1.0, CLIP_NORM / norm)
        assert (clip < 1.0) == (t == 2)
        for k, g in grad.items():
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * (g * clip)
            v[k] = BETA2 * v[k] + (1.0 - BETA2) * (g * clip) ** 2
            want[k] -= lr * (m[k] / (1.0 - BETA1**t)) / (np.sqrt(v[k] / (1.0 - BETA2**t)) + ADAM_EPS)
            params[k].grad = g.copy()
        assert opt.step() == pytest.approx(norm, rel=1e-14)
        assert opt.t == t and all(p.grad is None for p in params.values())
        for k in start:
            np.testing.assert_allclose(opt._m[k], m[k], rtol=1e-13)
            np.testing.assert_allclose(opt._v[k], v[k], rtol=1e-13)
            np.testing.assert_allclose(params[k].data, want[k], rtol=1e-13, atol=1e-15)


def test_adamw_skips_non_finite_gradient():
    rng = make_rng(50)
    params = {"w": Tensor(rng.normal(size=(3, 4)), requires_grad=True), "b": Tensor(rng.normal(size=4), requires_grad=True)}
    opt = AdamW(params, lr=1e-2)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    opt.step()  # one finite step, so the moments are nonzero

    def state():
        return [a.copy() for k in params for a in (params[k].data, opt._m[k], opt._v[k])]

    before, t = state(), opt.t
    params["w"].grad = rng.normal(size=(3, 4))
    params["w"].grad[1, 2] = np.nan
    params["b"].grad = rng.normal(size=4)
    norm = opt.step()
    assert np.isnan(norm)
    assert opt.skipped == 1 and opt.t == t
    for a, b in zip(state(), before):
        np.testing.assert_array_equal(a, b)
    assert all(p.grad is None for p in params.values())

    params["b"].grad = rng.normal(size=4)
    opt.step()
    assert opt.t == t + 1 and opt.skipped == 1
