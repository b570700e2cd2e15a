"""Self-checks of the benchmark. Run with `python -m pytest -q perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sswm import nn, s5, tensor  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import MIN_POOLED, WORKLOADS, Act, Ledger, quiet_sample, run_workload  # noqa: E402


def traced_run(name: str, seed: int):
    tracer = Tracer()
    tracer.install()
    try:
        res = run_workload(name, seed, seconds=0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    counts = {k: (st.calls, st.failed, st.units) for k, st in tracer.stats.items()}
    return res, counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_layer_counts_and_loss(name):
    res_a, counts_a = traced_run(name, seed=3)
    res_b, counts_b = traced_run(name, seed=3)
    assert counts_a == counts_b
    assert res_a.wm_loss_final == res_b.wm_loss_final
    assert res_a.failures == [] and res_b.failures == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_passes_results_through(name):
    traced, counts = traced_run(name, seed=5)
    plain = run_workload(name, 5, seconds=0.0)
    assert traced.wm_loss_final == plain.wm_loss_final
    assert traced.ledger.errors == plain.ledger.errors
    assert counts["tensor.gelu"][0] > 0


def test_uninstall_restores_every_replaced_callable():
    originals = (tensor.gelu, s5.gelu, nn.gelu, s5.linear_recurrence, tensor.Tensor.backward)
    tracer = Tracer()
    tracer.install()
    assert s5.gelu is not originals[1] and nn.gelu is not originals[2]
    tracer.uninstall()
    assert (tensor.gelu, s5.gelu, nn.gelu, s5.linear_recurrence, tensor.Tensor.backward) == originals


def test_quiet_sample_pools_the_fastest_share_at_each_position():
    slowdown = 1.0 + np.random.default_rng(0).random(400)  # of the host, per cycle
    times = np.outer(slowdown, [1.0, 3.0]).ravel()  # two kinds of operation in turn
    pooled = quiet_sample(times, 2, share=0.25).reshape(-1, 2)
    assert pooled.shape == (100, 2)
    quiet = np.sort(slowdown)[:100]
    assert np.array_equal(pooled[:, 0], quiet) and np.array_equal(pooled[:, 1], 3.0 * quiet)
    assert len(quiet_sample(times, 2, share=0.01)) == MIN_POOLED


def test_ledger_counts_exceptions_by_type():
    ledger = Ledger()

    def boom():
        raise ValueError("widths differ\nsecond line")

    assert ledger.run(lambda: None)
    assert not ledger.run(boom)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.errors == {"ValueError: widths differ": 1}


def test_count_checks_flag_a_wrong_clock():
    wl = Act(seed=1)
    wl.prepare(wl.build())
    for _ in range(32):
        wl.op()
    wl.check_outputs()
    assert wl.failures == []
    wl.loop.agent.levels[1].action_emissions += 1
    wl.loop.terminals += 1
    wl.check_outputs()
    assert any("level 1 emitted" in f for f in wl.failures)
    assert any("level-0 replay" in f for f in wl.failures)


def test_run_prints_result_last_and_fails_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "act", "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "act", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert bare.returncode != 0 and bare.stdout == ""
