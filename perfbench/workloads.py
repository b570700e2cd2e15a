"""The benchmark's workloads: closed loops over the public `sswm` API.

Each workload is driven by one process and one thread, and makes all of its
inputs from the seed. It builds its program objects (the timed set-up), makes
its inputs untimed, then runs operations back to back until the time is up.
An exception inside an operation is counted against the operations attempted,
with its type and message, and never hidden. After the loop the workload
checks the program's outputs.

Workloads:
* act    - acting only, no training, on `memory_cue` at depth 3, k=4, with a
           sampled policy; one operation is one period of the level-2 clock,
           16 environment steps through policy_step -> env.step ->
           observe_result (-> record_terminal).
* wm_fit - world-model fitting on `linear`; one operation is
           sample_batch(B=16, T=64, ETBS tau=0.3) -> WorldModel.loss ->
           backward -> AdamW.step on a dataset prefilled by a random policy.
           It is run by name and not listed in BENCHMARK.json: every layer it
           runs also runs in `imagine`, and two listed workloads leave room
           for runs long enough to outlast the slow spells of a shared host.
* imagine - the part of a level-0 train step that runs today, on `memory_cue`
           at depth 2, k=4 after a random-phase prefill; one operation is
           sample_batch(B=8, T=16, ETBS tau=0.3) -> WorldModel.loss ->
           backward -> AdamW.step -> SubgoalAutoencoder.loss -> backward ->
           AdamW.step -> WorldModel.imagine from all B*T=128 posterior states
           for H=8 steps under ActorCritic.act.
* learn  - the full learning loop on `memory_cue` at depth 2, k=4 after a
           random-phase prefill; one operation is one environment step
           followed by train_due_levels(B=8, T=16, H=8, ETBS tau=0.3). Every
           train step raises in `subgoal_reward` today, so every operation
           fails; it is run by name and not listed in BENCHMARK.json.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from sswm import dists
from sswm.agent import AcConfig, ActorCritic, build_agent
from sswm.envs import make_env
from sswm.nn import AdamW
from sswm.replay import EtbsSampler, ExperienceDataset, UniformSampler
from sswm.tensor import Tensor, make_rng, no_grad
from sswm.worldmodel import LatentState, WmConfig, WorldModel

# The set-up is built in two phases, before and after the loop, each with at
# least this many builds and for at least this long.
SETUP_REPEATS = 15
SETUP_MIN_S = 2.0
# Share of a run's operations that the timings pool (see quiet_sample), and
# the least number pooled, so that an 80th percentile has ten beyond it.
QUIET_SHARE = 0.05
MIN_POOLED = 50
HELD_OUT = {"batch": 16, "length": 64, "steps": 2048}

# rng streams, one per purpose, so inputs do not shift when another changes
_MODEL, _LOOP, _PREFILL, _HELD_OUT, _EVAL = 12, 13, 14, 15, 16


@dataclass
class Ledger:
    """Operations attempted and failed, with the exception behind each failure."""

    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)

    def run(self, op) -> bool:
        self.attempted += 1
        try:
            op()
        except Exception as exc:  # counted and reported, never swallowed silently
            self.failed += 1
            self.errors[f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"] += 1
            return False
        return True


def random_rollouts(env, steps: int, rng) -> ExperienceDataset:
    """Records of a uniform random policy, in the agent's replay convention."""
    ds = ExperienceDataset(env.obs_dim, env.n_actions)
    no_action = np.zeros(env.n_actions)
    obs, a_prev, reward, episode = env.reset(), no_action, 0.0, 0
    for _ in range(steps):
        ds.append(obs, a_prev, reward, 1.0, episode)
        a = int(rng.integers(env.n_actions))
        res = env.step(a)
        a_prev = np.eye(env.n_actions)[a]
        if res.done:
            ds.append(res.observation, a_prev, res.reward, 0.0, episode)
            obs, a_prev, reward, episode = env.reset(), no_action, 0.0, episode + 1
        else:
            obs, reward = res.observation, res.reward
    return ds


def held_out_batch(env_name: str, seed: int) -> dict:
    env = make_env(env_name, seed=seed + 1_000_003)
    rng = make_rng(seed, stream=_HELD_OUT)
    ds = random_rollouts(env, HELD_OUT["steps"], rng)
    return ds.sample_batch(rng, HELD_OUT["batch"], HELD_OUT["length"], UniformSampler())


def held_out_loss(wm: WorldModel, batch: dict, seed: int) -> float:
    with no_grad():
        _, report, _ = wm.loss(batch, make_rng(seed, stream=_EVAL))
    return report.total


class AgentLoop:
    """Drives a HierarchicalAgent through the documented per-step protocol."""

    def __init__(self, agent, env, check):
        self.agent = agent
        self.env = env
        self.check = check
        self.policy_steps = 0
        self.terminals = 0
        self._new_episode()

    def _new_episode(self) -> None:
        self.obs, self.reward, self.reset = self.env.reset(), 0.0, True

    def step(self) -> None:
        a = self.agent.policy_step(self.obs, self.reward, 1.0, self.reset)
        self.policy_steps += 1
        self.check(0 <= a < self.env.n_actions, f"action index {a} outside [0, {self.env.n_actions})")
        res = self.env.step(a)
        self.agent.observe_result(res.reward, res.done)
        if res.done:
            self.agent.record_terminal(res.observation, res.reward)
            self.terminals += 1
            self._new_episode()
        else:
            self.obs, self.reward, self.reset = res.observation, res.reward, False

    def check_counts(self) -> None:
        """Hierarchy clock and level-0 replay rows against the steps taken."""
        ag = self.agent
        for i, lvl in enumerate(ag.levels[1:], start=1):
            want = ag.env_steps // ag.k**i
            self.check(lvl.action_emissions == want, f"level {i} emitted {lvl.action_emissions}, want {want}")
        rows, want = len(ag.levels[0].replay), self.policy_steps + self.terminals
        self.check(rows == want, f"level-0 replay has {rows} rows, want {want}")


class Workload:
    """One closed loop. Subclasses set the class attributes and the hooks below."""

    name = ""
    env_name = ""
    config: dict = {}
    # Number of operations after which the workload's mix of operations
    # repeats; timings pool the quietest QUIET_SHARE of the operations at
    # each position of this cycle (see quiet_sample).
    cycle_ops = 1
    # The held-out world-model loss and the resident memory are taken after
    # exactly this many operations, so they depend on the seed alone.
    eval_after_ops = 64
    # Whether the loop trains the evaluated world model: then its held-out
    # loss must fall; otherwise it must not change at all.
    trains_wm = True

    def __init__(self, seed: int):
        self.seed = seed
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.failures) < 20:
            self.failures.append(message)

    def check_finite(self, label: str, *values: float) -> None:
        self.check(all(math.isfinite(v) for v in values), f"non-finite {label}: {values}")

    def build(self):
        """Construct the program objects; timed as the set-up."""
        raise NotImplementedError

    def prepare(self, built) -> None:
        """Make the inputs and warm up, untimed."""
        raise NotImplementedError

    def op(self) -> None:
        raise NotImplementedError

    def eval_model(self) -> WorldModel:
        raise NotImplementedError

    def check_outputs(self) -> None:
        pass


class _AgentWorkload(Workload):
    """A HierarchicalAgent on one environment, built as a training script would build it."""

    env_name = "memory_cue"

    def build(self):
        env = make_env(self.env_name, seed=self.seed)
        agent = build_agent(self.seed, env.obs_dim, env.n_actions, depth=self.config["depth"], k=self.config["k"])
        return env, agent

    def eval_model(self) -> WorldModel:
        return self.loop.agent.levels[0].wm

    def check_outputs(self) -> None:
        self.loop.check_counts()


class Act(_AgentWorkload):
    name = "act"
    config = {"env": "memory_cue", "depth": 3, "k": 4, "policy": "sampled", "train": False, "steps_per_op": 16}
    # A step takes about 0.7 ms, 1.4 ms with a level-1 emission and 2.5 ms
    # with a level-2 one, and contention on a shared host slows the emission
    # steps most, so a per-step 90th percentile sits between modes and moves
    # twice as much as the rate. Every op of one clock period holds 4 level-1
    # emissions and 1 level-2 one. 16 of every 21 ops also hold a reset
    # (about 0.5 ms); 21 ops are 16 episodes of 21 steps.
    cycle_ops = 21
    # Level-0 replay starts with 1024 rows and doubles; after 8192 steps it
    # has grown four times.
    eval_after_ops = 512
    trains_wm = False

    def prepare(self, built) -> None:
        env, agent = built
        self.loop = AgentLoop(agent, env, self.check)
        for _ in range(21):  # one episode, so the cached discretization is built before timing
            self.loop.step()

    def op(self) -> None:
        for _ in range(self.config["steps_per_op"]):
            self.loop.step()


class Learn(_AgentWorkload):
    name = "learn"
    config = {
        "env": "memory_cue", "depth": 2, "k": 4, "batch": 8, "length": 16, "horizon": 8,
        "sampler": "etbs", "tau": 0.3, "prefill_steps": 128,
    }
    cycle_ops = 84  # one period of the depth-2 clock (4) times one episode (21)

    def prepare(self, built) -> None:
        env, agent = built
        self.loop = AgentLoop(agent, env, self.check)
        self.rng = make_rng(self.seed, stream=_LOOP)
        agent.set_random_phase(True)
        for _ in range(self.config["prefill_steps"]):
            self.loop.step()
        agent.set_random_phase(False)

    def op(self) -> None:
        self.loop.step()
        c = self.config
        sampler_factory = lambda level: EtbsSampler(c["tau"])  # noqa: E731
        reports = self.loop.agent.train_due_levels(c["batch"], c["length"], sampler_factory, c["horizon"], self.rng)
        for level, rep in reports.items():
            ac = rep["ac"]
            self.check_finite(
                f"level {level} losses or grad norms",
                rep["wm"].total, rep["wm_grad_norm"], rep["ae"]["total"],
                ac["policy_loss"], ac["value_loss"], ac["ac_grad_norm"],
            )


class Imagine(_AgentWorkload):
    name = "imagine"
    config = {
        "env": "memory_cue", "depth": 2, "k": 4, "level": 0, "batch": 8, "length": 16, "horizon": 8,
        "sampler": "etbs", "tau": 0.3, "prefill_steps": 512,
    }

    def build(self):
        env, agent = super().build()
        wm = agent.levels[self.config["level"]].wm
        # An actor on the latent state alone: the level's own actor also reads
        # the goal, which is where the train step fails today.
        cfg = AcConfig(feat_width=wm.h_width + wm.cfg.z_flat, action_groups=1, action_classes=env.n_actions)
        return env, agent, ActorCritic(make_rng(self.seed, stream=_MODEL), cfg)

    def prepare(self, built) -> None:
        env, agent, self.actor = built
        self.loop = AgentLoop(agent, env, self.check)
        agent.set_random_phase(True)
        for _ in range(self.config["prefill_steps"]):
            self.loop.step()
        agent.set_random_phase(False)
        self.level = agent.levels[self.config["level"]]
        self.rng = make_rng(self.seed, stream=_LOOP)
        self.sampler = EtbsSampler(self.config["tau"])

    def act(self, i: int, state: dict) -> np.ndarray:
        h, z = state["h"], state["z"]
        feats = np.concatenate([h, z.reshape(len(z), -1)], axis=1)
        return self.actor.act(feats, self.rng).reshape(len(h), -1)

    def op(self) -> None:
        c, lvl = self.config, self.level
        batch = lvl.replay.sample_batch(self.rng, c["batch"], c["length"], self.sampler)
        total, report, out = lvl.wm.loss(batch, self.rng)
        total.backward()
        wm_grad_norm = lvl.wm_opt.step()
        n = c["batch"] * c["length"]
        h = out["h"].data.reshape(n, lvl.wm.h_width)
        ae_total, ae_report = lvl.ae.loss(Tensor(h), self.rng)
        ae_total.backward()
        ae_grad_norm = lvl.ae_opt.step()
        probs = out["prior_probs"].data
        start = LatentState(h=h, z=dists.sample_one_hot(probs, self.rng).reshape(n, *probs.shape[-2:]))
        traj = lvl.wm.imagine(start, self.act, c["horizon"], self.rng)
        self.check_finite(
            "world-model or autoencoder loss or grad norm",
            report.total, wm_grad_norm, ae_report["total"], ae_grad_norm,
        )
        self.check(traj["h"].shape == (n, c["horizon"] + 1, lvl.wm.h_width), f"imagined h shape {traj['h'].shape}")
        self.check_finite("imagined reward", float(traj["reward"].sum()))


class WmFit(Workload):
    name = "wm_fit"
    env_name = "linear"
    config = {"env": "linear", "batch": 16, "length": 64, "sampler": "etbs", "tau": 0.3, "prefill_steps": 4096}

    def build(self):
        env = make_env(self.env_name, seed=self.seed)
        wm = WorldModel(make_rng(self.seed, stream=_MODEL), WmConfig(obs_dim=env.obs_dim, action_dim=env.n_actions))
        return env, wm, AdamW(wm.params())

    def prepare(self, built) -> None:
        env, self.wm, self.opt = built
        self.data = random_rollouts(env, self.config["prefill_steps"], make_rng(self.seed, stream=_PREFILL))
        self.rng = make_rng(self.seed, stream=_LOOP)
        self.sampler = EtbsSampler(self.config["tau"])

    def op(self) -> None:
        batch = self.data.sample_batch(self.rng, self.config["batch"], self.config["length"], self.sampler)
        total, report, _ = self.wm.loss(batch, self.rng)
        total.backward()
        grad_norm = self.opt.step()
        self.check_finite("world-model loss or grad norm", report.total, report.l_dyn, report.l_rep, grad_norm)

    def eval_model(self) -> WorldModel:
        return self.wm


WORKLOADS = {w.name: w for w in (Act, WmFit, Imagine, Learn)}


@dataclass
class RunResult:
    latencies_s: np.ndarray
    cycle_ops: int
    ledger: Ledger
    setup_s: float
    rss_mb: float
    wm_loss_initial: float
    wm_loss_final: float
    failures: list[str]

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    def quiet_sample(self) -> np.ndarray:
        return quiet_sample(self.latencies_s, self.cycle_ops)

    def ops_per_s(self) -> float:
        sample = self.quiet_sample()
        return len(sample) / sample.sum()

    def percentile_ms(self, q: float) -> float:
        return 1e3 * float(np.percentile(self.quiet_sample(), q))


def quiet_sample(times: np.ndarray, cycle: int, share: float = QUIET_SHARE) -> np.ndarray:
    """The quietest `share` of the operations at each position of a cycle of
    `cycle` operations, but at least MIN_POOLED operations in all, pooled.

    Other tenants of a shared host slow a process down for seconds at a time
    and never speed it up: per-second rates within one run swing by a factor
    of two, with CPU time equal to wall time, and so does the mean of a whole
    run. The quietest operations measure the code and not the host. Taking
    the same number at every position of the cycle keeps the workload's mix
    of operations (resets, clock emissions) in the pooled sample; costs that
    never recur at one position (a garbage collection, a replay growth copy)
    fall out, and show in the traced run's per-layer totals instead. On a
    shared 2-vCPU VM, act's rate from the quietest operations spread 8%
    between six seeds, against 16% from the quietest 5% of the windows of
    21 operations in a row.
    """
    k = max(len(times) // cycle, 1)
    by_position = np.sort(np.asarray(times)[: k * cycle].reshape(k, -1), axis=0)
    return by_position[: max(round(k * share), math.ceil(MIN_POOLED / cycle))].ravel()


def _rss_mb() -> float:
    """Resident memory now. The lifetime peak (ru_maxrss) is not used: it
    moved by 8 MB between runs of one seed, with the same memory resident
    after the run, as the allocator backed a transient array with fresh
    untouched pages in some runs and with reused ones in others."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _time_builds(wl: Workload, repeats: int, min_s: float, times: list[float]):
    """Build `repeats` times or for `min_s`, whichever is longer, appending
    each build's time; garbage is collected before each build, so garbage of
    earlier builds does not pile up. Returns the last build."""
    until = time.perf_counter() + min_s
    for n in itertools.count(1):
        gc.collect()
        t0 = time.perf_counter()
        built = wl.build()
        times.append(time.perf_counter() - t0)
        if n >= repeats and time.perf_counter() >= until:
            return built


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> RunResult:
    """Set up, then run operations for `seconds` of loop time.

    The set-up is timed in two phases of builds (see _time_builds), one
    before the loop and one after it, and its time is the median build of
    both: the load of other tenants of a shared host drifts over a minute,
    and one phase samples it once. With a tracer it is built once. At
    least eval_after_ops operations, two cycles and twice MIN_POOLED
    operations run; `seconds=0` runs exactly that many, a number set by the
    workload alone. The held-out loss and the resident memory
    are taken after exactly eval_after_ops operations, so neither depends on
    how fast the loop ran. With a tracer, spans are recorded in the loop
    only, not in the held-out evaluation.
    """
    wl = WORKLOADS[name](seed)
    setup_times: list[float] = []
    if tracer is not None:
        wl.prepare(_time_builds(wl, 1, 0.0, setup_times))
    else:
        wl.prepare(_time_builds(wl, SETUP_REPEATS, SETUP_MIN_S, setup_times))
    held_out = held_out_batch(wl.env_name, seed)
    loss_initial = held_out_loss(wl.eval_model(), held_out, seed)

    ledger = Ledger()
    latencies = []
    loss_final = rss_mb = float("nan")
    min_ops = max(wl.eval_after_ops, 2 * wl.cycle_ops, 2 * MIN_POOLED)
    loop_s = 0.0
    with tracer.recording() if tracer is not None else nullcontext():
        while len(latencies) < min_ops or loop_s < seconds:
            t0 = time.perf_counter()
            ledger.run(wl.op)
            dt = time.perf_counter() - t0
            latencies.append(dt)
            loop_s += dt
            if len(latencies) == wl.eval_after_ops:
                rss_mb = _rss_mb()
                with tracer.paused() if tracer is not None else nullcontext():
                    loss_final = held_out_loss(wl.eval_model(), held_out, seed)

    wl.check_outputs()
    wl.check_finite("held-out world-model loss", loss_initial, loss_final)
    if wl.trains_wm:
        wl.check(loss_final < loss_initial, f"held-out loss rose in training: {loss_initial} -> {loss_final}")
    else:
        wl.check(loss_final == loss_initial, f"held-out loss changed without training: {loss_initial} -> {loss_final}")
    if tracer is None:
        _time_builds(wl, SETUP_REPEATS, SETUP_MIN_S, setup_times)
    return RunResult(
        latencies_s=np.asarray(latencies),
        cycle_ops=wl.cycle_ops,
        ledger=ledger,
        setup_s=float(np.median(setup_times)),
        rss_mb=rss_mb,
        wm_loss_initial=loss_initial,
        wm_loss_final=loss_final,
        failures=wl.failures,
    )
