"""Per-layer spans recorded from outside the program.

A Tracer wraps the public callables of each `sswm` layer. A wrapper passes
arguments and results through unchanged and records, per layer, the calls, the
inclusive and self time, the calls that raised, and a count of units of work
where the layer has one. Functions that modules import by name (`gelu` inside
`s5` and `nn`, `linear_recurrence` inside `s5`) are replaced in every module
that holds them. `MLP` binds its activation when it is built, so the tracer
must be installed before the program objects are constructed.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from sswm import agent, envs, nn, replay, s5, subgoal, tensor, worldmodel


def _rows(args, out):
    return args[1].shape[0]  # S5Stack.step(self, h_prev, ...)


def _imagined_states(args, out):
    return out["h"].shape[0] * (out["h"].shape[1] - 1)


def _windows(args, out):
    return 0 if out is None else out["obs"].shape[0]


# (layer name, owner, attribute, units of work or None). The layer name is
# "<module>.<callable>"; its prefix is the `src/sswm/` module it belongs to.
LAYERS = (
    ("agent.policy_step", agent.HierarchicalAgent, "policy_step", None),
    ("agent.observe_result", agent.HierarchicalAgent, "observe_result", None),
    ("agent.record_terminal", agent.HierarchicalAgent, "record_terminal", None),
    ("agent.train_due_levels", agent.HierarchicalAgent, "train_due_levels", None),
    ("agent.train_step", agent.Subactor, "train_step", None),
    ("agent.reinforce_loss", agent, "reinforce_loss", None),
    ("agent.ActorCritic.act", agent.ActorCritic, "act", None),
    ("worldmodel.encode", worldmodel.WorldModel, "encode", None),
    ("worldmodel.loss", worldmodel.WorldModel, "loss", None),
    ("worldmodel.imagine", worldmodel.WorldModel, "imagine", _imagined_states),
    ("s5.S5Stack.step", s5.S5Stack, "step", _rows),
    ("s5.S5Stack.forward", s5.S5Stack, "forward", None),
    ("tensor.linear_recurrence", tensor, "linear_recurrence", None),
    ("tensor.gelu", tensor, "gelu", None),
    ("tensor.backward", tensor.Tensor, "backward", None),
    ("subgoal.loss", subgoal.SubgoalAutoencoder, "loss", None),
    ("subgoal.novelty", subgoal.SubgoalAutoencoder, "novelty", None),
    ("replay.append", replay.ExperienceDataset, "append", None),
    ("replay.sample_batch", replay.ExperienceDataset, "sample_batch", _windows),
    ("nn.AdamW.step", nn.AdamW, "step", None),
    ("envs.step", envs.MemoryCueEnv, "step", None),
    ("envs.step", envs.LinearSystemEnv, "step", None),
    ("envs.step", envs.TwoLevelGridworld, "step", None),
)

# The unit of work each layer with one counts, as named in the per-layer metrics.
UNIT_NAMES = {
    "s5.S5Stack.step": "rows_per_call",
    "worldmodel.imagine": "states_per_call",
    "replay.sample_batch": "windows_per_call",
}


def layer_names() -> list[str]:
    return list(dict.fromkeys(name for name, *_ in LAYERS))


@dataclass
class LayerStats:
    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


class Tracer:
    """Aggregated spans per layer; records only while `recording()` is open."""

    def __init__(self):
        self.stats = {name: LayerStats() for name in layer_names()}
        self._child_s: list[float] = []  # time covered by child spans, per open span
        self._active = False
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def recording(self, on: bool = True):
        prev, self._active = self._active, on
        try:
            yield self
        finally:
            self._active = prev

    def paused(self):
        return self.recording(False)

    def call(self, name: str, fn, args, kwargs, units):
        if not self._active:
            return fn(*args, **kwargs)
        stats = self.stats[name]
        self._child_s.append(0.0)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            stats.failed += 1
            raise
        finally:
            dt = perf_counter() - t0
            stats.calls += 1
            stats.total_s += dt
            stats.self_s += dt - self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += dt
        if units is not None:
            stats.units += units(args, out)
        return out

    def _wrap(self, name: str, fn, units):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, units)

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every traced callable, in every `sswm` module that holds it."""
        modules = [m for k, m in sys.modules.items() if k == "sswm" or k.startswith("sswm.")]
        for name, owner, attr, units in LAYERS:
            fn = owner.__dict__[attr]
            traced = self._wrap(name, fn, units)
            if isinstance(owner, type):
                self._replace(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics normalized by the end-to-end operations recorded."""
        out: dict[str, tuple[float, str]] = {}
        per = 1.0 / max(ops, 1)
        for name, st in self.stats.items():
            out[f"{name}.calls_per_op"] = (st.calls * per, "count")
            out[f"{name}.failed_per_op"] = (st.failed * per, "count")
            out[f"{name}.us_per_call"] = (1e6 * st.total_s / st.calls if st.calls else 0.0, "us")
            out[f"{name}.self_ms_per_op"] = (1e3 * st.self_s * per, "ms")
            if name in UNIT_NAMES:
                out[f"{name}.{UNIT_NAMES[name]}"] = (st.units / st.calls if st.calls else 0.0, "count")
        return out
