"""Optimizer tests: AdamW skips updates whose gradient norm is not finite."""

import numpy as np

from sswm.nn import AdamW
from sswm.tensor import Tensor, make_rng


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
