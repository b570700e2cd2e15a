"""Test-session setup: pin BLAS and OpenMP to one thread before numpy loads.

The benchmark (`perfbench/run.py`) pins the same variables, so the tests run
the thread configuration that it measures, and their results and run time
do not depend on the machine's core count. pytest loads this file before it
imports any test module, and so before numpy.
"""

import importlib.util
import os
from pathlib import Path

_spec = importlib.util.spec_from_file_location("perfbench_run", Path(__file__).parent / "perfbench" / "run.py")
_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_run)
for _var in _run.THREAD_VARS:
    os.environ[_var] = "1"
