"""nn tests: `parameters` finds a module's trainable Tensors by attribute path, and AdamW is
bias-corrected Adam on clipped gradients over flat storage, which skips non-finite ones."""

import dataclasses

import numpy as np
import pytest

from sswm.nn import ADAM_EPS, BETA1, BETA2, CLIP_NORM, MAX_SKIPS_IN_A_ROW, MLP, AdamW, parameters
from sswm.s5 import S5Params, S5Stack, discretize
from sswm.tensor import Tensor, make_rng


@dataclasses.dataclass
class _Cfg:
    width: int
    scale: Tensor


class _Leaf:
    def __init__(self, name: str):
        self.w = Tensor(np.zeros(2), requires_grad=True)
        self.frozen = Tensor(np.ones(2))  # a constant, not a parameter
        self.name = name


def test_parameters_finds_each_trainable_tensor_once_in_attribute_order():
    root = _Leaf("root")
    root.table = np.ones(3)
    root.cfg = _Cfg(width=4, scale=Tensor(np.ones(1), requires_grad=True))
    root.blocks = [_Leaf("a"), {"x": _Leaf("b"), "y": [Tensor(np.zeros(1), requires_grad=True)]}]
    root.b = Tensor(np.zeros(1), requires_grad=True)
    found = parameters(root, "m")
    assert list(found) == ["m.w", "m.cfg.scale", "m.blocks.0.w", "m.blocks.1.x.w", "m.blocks.1.y.0", "m.b"]
    want = [root.w, root.cfg.scale, root.blocks[0].w, root.blocks[1]["x"].w, root.blocks[1]["y"][0], root.b]
    assert all(got is tensor for got, tensor in zip(found.values(), want))
    assert parameters(np.ones(2), "a") == {} and parameters(Tensor(np.ones(2)), "t") == {}


@pytest.mark.parametrize("n", [1, 128])
def test_infer_equals_graph_forward(n):
    # inference runs the numpy forwards that the graph ops call: equal bit for bit
    mlp = MLP(make_rng(3), [12, 16, 16, 5])
    x = make_rng(4).normal(size=(n, 12))
    out = mlp.infer(x)
    assert isinstance(out, np.ndarray) and out.shape == (n, 5)
    assert np.array_equal(mlp.layers[0].infer(x), mlp.layers[0](Tensor(x)).data)
    assert np.array_equal(out, mlp(Tensor(x)).data)


def _moments(opt):
    """The optimizer's two moments by parameter name: views of its flat buffers."""
    return (dict(zip(opt.params, opt._views(flat))) for flat in (opt._m_flat, opt._v_flat))


def _state(opt):
    """Copies of each parameter and its two moments, in the order of `params`."""
    opt_m, opt_v = _moments(opt)
    return [a.copy() for k, p in opt.params.items() for a in (p.data, opt_m[k], opt_v[k])]


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
        opt_m, opt_v = _moments(opt)
        for k in start:
            np.testing.assert_allclose(opt_m[k], m[k], rtol=1e-13)
            np.testing.assert_allclose(opt_v[k], v[k], rtol=1e-13)
            np.testing.assert_allclose(params[k].data, want[k], rtol=1e-13, atol=1e-15)


def test_adamw_skips_non_finite_gradient():
    rng = make_rng(50)
    params = {"w": Tensor(rng.normal(size=(3, 4)), requires_grad=True), "b": Tensor(rng.normal(size=4), requires_grad=True)}
    opt = AdamW(params, lr=1e-2)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    opt.step()  # one finite step, so the moments are nonzero
    before, t = _state(opt), opt.t
    params["w"].grad = rng.normal(size=(3, 4))
    params["w"].grad[1, 2] = np.nan
    params["b"].grad = rng.normal(size=4)
    norm = opt.step()
    assert np.isnan(norm)
    assert opt.skipped == 1 and opt.t == t
    for a, b in zip(_state(opt), before):
        np.testing.assert_array_equal(a, b)
    assert all(p.grad is None for p in params.values())

    params["w"].grad = rng.normal(size=(3, 4))
    params["b"].grad = rng.normal(size=4)
    opt.step()
    assert opt.t == t + 1 and opt.skipped == 1


def test_adamw_raises_after_a_run_of_non_finite_steps():
    rng = make_rng(51)
    params = {"w": Tensor(rng.normal(size=(3, 4)), requires_grad=True)}
    opt = AdamW(params, lr=1e-2)

    def step(finite):
        params["w"].grad = rng.normal(size=(3, 4)) if finite else np.full((3, 4), np.inf)
        return opt.step()

    for _ in range(MAX_SKIPS_IN_A_ROW - 1):
        step(False)
    step(True)  # a finite step ends the run
    assert (opt.t, opt.skipped) == (1, MAX_SKIPS_IN_A_ROW - 1)
    for _ in range(MAX_SKIPS_IN_A_ROW - 1):
        step(False)
    with pytest.raises(FloatingPointError, match=f"{MAX_SKIPS_IN_A_ROW} steps in a row had a non-finite gradient norm"):
        step(False)
    assert (opt.t, opt.skipped) == (1, 2 * MAX_SKIPS_IN_A_ROW - 1)
    assert MAX_SKIPS_IN_A_ROW == 10


def _per_parameter_step(data, m, v, grads, t, lr):
    """One Adam step as a loop over parameters, each in its own arrays: the reference for the flat update."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    scale = CLIP_NORM / (norm + 1e-12) if norm > CLIP_NORM else 1.0
    for k, grad in grads.items():
        g = grad * scale
        m[k] *= BETA1
        m[k] += (1.0 - BETA1) * g
        v[k] *= BETA2
        v[k] += (1.0 - BETA2) * (g * g)
        data[k] -= lr * ((m[k] / (1.0 - BETA1**t)) / (np.sqrt(v[k] / (1.0 - BETA2**t)) + ADAM_EPS))
    return norm


def test_adamw_flat_update_equals_per_parameter_loop():
    # the flat update keeps the per-element expression order, so unclipped
    # steps match the loop bit for bit; a clipped step's scale comes from a
    # norm summed in another order, and may differ by an ulp (the first step
    # clips, so no moment cancels and a bound relative to each array holds)
    rng, lr = make_rng(52), 1e-2
    shapes = {"w": (5, 3), "b": (3,), "s": (), "c": (2, 4, 2)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    data = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = AdamW(params, lr=lr)
    for t in range(1, 7):
        clipped = t == 1
        grads = {k: (300.0 if clipped else 1.0) * rng.normal(size=s) for k, s in shapes.items()}
        for k, p in params.items():
            p.grad = grads[k].copy()
        norm = _per_parameter_step(data, m, v, grads, t, lr)
        assert (norm > CLIP_NORM) == clipped
        assert opt.step() == pytest.approx(norm, rel=1e-15)
        opt_m, opt_v = _moments(opt)
        for k in shapes:
            for got, want in ((params[k].data, data[k]), (opt_m[k], m[k]), (opt_v[k], v[k])):
                if clipped:
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), k
                    want[...] = got  # carry on from the same state
                else:
                    np.testing.assert_array_equal(got, want)


def test_adamw_parameters_and_moments_are_views_of_flat_buffers():
    stack = S5Stack(make_rng(53), width=4, state_dim=4, n_blocks=2)
    params = parameters(stack, "stack")
    opt = AdamW(params)
    assert all(np.shares_memory(p.data, opt._flat) for p in params.values())
    # an optimizer that never steps holds no state
    assert opt._m_flat is None and opt._v_flat is None and opt._grad is None

    # a step is seen through the model: discretize reads the updated b_mat
    ssm = stack.ssms[0]
    before = discretize(ssm)[1].data.copy()
    rng = make_rng(54)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    opt.step()
    for k, p in params.items():
        assert np.shares_memory(p.data, opt._flat), k
    after = discretize(ssm)[1].data
    fresh = S5Params(**{f.name: Tensor(getattr(ssm, f.name).data.copy()) for f in dataclasses.fields(ssm)})
    np.testing.assert_array_equal(after, discretize(fresh)[1].data)
    assert not np.array_equal(after, before)


def test_adamw_missing_gradient_raises_before_any_change():
    rng = make_rng(55)
    params = {"w": Tensor(rng.normal(size=(3, 4)), requires_grad=True), "b": Tensor(rng.normal(size=4), requires_grad=True)}
    opt = AdamW(params, lr=1e-2)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    opt.step()  # one step, so the moments are nonzero
    before = _state(opt)
    w_grad = rng.normal(size=(3, 4))
    params["w"].grad, w_values = w_grad, w_grad.copy()
    with pytest.raises(ValueError, match=r"no gradient for b$"):
        opt.step()
    assert opt.t == 1 and opt.skipped == 0
    for a, b in zip(_state(opt), before):
        np.testing.assert_array_equal(a, b)
    assert params["w"].grad is w_grad and params["b"].grad is None
    np.testing.assert_array_equal(w_grad, w_values)
