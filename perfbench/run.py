"""Benchmark of the `sswm` agent: one workload per run, metrics as JSON.

    python3 perfbench/run.py --workload act --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from `src/`. With
`--trace 0` the last line of standard output holds the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced run. The line
before it is a JSON record of the run: workload config, thread settings,
versions, exceptions by type and failed output checks. BLAS and OpenMP are
pinned to one thread before numpy is imported, because on a small machine
an unpinned pool makes throughput swing with the load of other processes.
numpy's transparent-huge-page hint is turned off too: with it, the kernel
backs large arrays with 2 MiB pages or not from run to run, and the resident
memory of one seed moved by almost 2 MB between runs.

Self-checks of the benchmark: python -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
HUGEPAGE_VAR = "NUMPY_MADVISE_HUGEPAGE"
# Share of a traced run spent untraced, to measure the tracing overhead.
UNTRACED_SHARE = 0.3


def _environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        HUGEPAGE_VAR: os.environ.get(HUGEPAGE_VAR),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(res) -> dict:
    return {
        "setup_s": _metric(res.setup_s, "s"),
        "rss_mb": _metric(res.rss_mb, "MB"),
        "ops_per_s": _metric(res.ops_per_s(), "1/s"),
        "op_ms_p50": _metric(res.percentile_ms(50), "ms"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "sswm" / "__init__.py").is_file():
        print(f"perfbench: no sswm sources under {src}", file=sys.stderr)
        return 2
    for v in THREAD_VARS:
        os.environ[v] = "1"
    os.environ[HUGEPAGE_VAR] = "0"
    sys.path.insert(0, str(src))
    from tracing import Tracer
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        untraced = run_workload(args.workload, args.seed, UNTRACED_SHARE * args.seconds)
        tracer = Tracer()
        tracer.install()
        try:
            res = run_workload(args.workload, args.seed, (1.0 - UNTRACED_SHARE) * args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = {k: _metric(v, unit) for k, (v, unit) in tracer.metrics(res.ops).items()}
        overhead = untraced.ops_per_s() / res.ops_per_s() - 1.0
        metrics["trace.overhead_pct"] = _metric(100.0 * overhead, "%")
        runs = (untraced, res)
    else:
        res = run_workload(args.workload, args.seed, args.seconds)
        metrics = end_to_end(res)
        runs = (res,)

    failures = [f for r in runs for f in r.failures]
    errors = Counter()
    for r in runs:
        errors.update(r.ledger.errors)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": WORKLOADS[args.workload].config,
        "environment": _environment(),
        "ops": res.ops,
        # The 80th percentile is reported but not gated: on a shared host it
        # follows bursts of interference among the quietest operations, and
        # its spread between seeds was above the largest bound allowed.
        "quiet_sample": {"cycle_ops": res.cycle_ops, "ops": len(res.quiet_sample()), "op_ms_p80": res.percentile_ms(80)},
        "wm_loss": {"initial": res.wm_loss_initial, "final": res.wm_loss_final},
        "errors": dict(errors),
        "checks_failed": failures,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.ledger.attempted for r in runs),
        "failed": sum(r.ledger.failed for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
