"""The package's public surface: every tensor op and every definition has a caller, every script resolves,
the benchmark finds every name it imports or traces and runs one operation of each listed workload,
trailing-axis reductions, complex layout conversions, parameter lists and argument errors have one form
each, and the package loads nothing beyond the standard library and its declared runtime dependencies."""

import ast
import builtins
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

from sswm import tensor

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sswm"

# The autodiff engine itself, public whether or not a module imports it.
ENGINE_API = {"Tensor", "ShapeError", "GraphError", "no_grad", "make_rng"}


# Definitions that nothing in src/sswm/ calls, each with the caller outside it.
OUTSIDE_CALLERS = {
    "build_agent": "driver protocol: builds the agent",
    "make_env": "driver protocol: builds the environment",
    "policy_step": "driver protocol: once per env step",
    "observe_result": "driver protocol: once per env step",
    "record_terminal": "driver protocol: on a terminal step",
    "train_due_levels": "driver protocol: the training loop",
    "UniformSampler": "driver protocol: the plain replay sampler",
    "set_random_phase": "perfbench/workloads.py: the random prefill",
    "no_grad": "perfbench/workloads.py: the held-out loss, a graph forward with no backward",
    "spectral_radius": "test oracle: tests/test_envs.py",
    "one_step_noise_floor": "test oracle: tests/test_learning.py",
}


def _definitions_and_references() -> tuple[dict[str, list[str]], set[str]]:
    """Every function, class and method defined in src/sswm/, and every name or attribute it reads."""
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_definition_has_a_caller():
    defined, referenced = _definitions_and_references()
    # Python calls the dunder methods itself
    uncalled = {
        name: where
        for name, where in defined.items()
        if name not in referenced and name not in OUTSIDE_CALLERS and not (name.startswith("__") and name.endswith("__"))
    }
    assert not uncalled, f"defined in src/sswm/ and called nowhere: {uncalled}"
    stale = {name for name in OUTSIDE_CALLERS if name not in defined or name in referenced}
    assert not stale, f"allowlisted, but undefined or called in src/sswm/: {sorted(stale)}"


def _names_imported_from_tensor(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "sswm.tensor"):
            names.update(alias.name for alias in node.names)
    return names


def test_every_tensor_op_is_imported_by_another_module():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "tensor.py":
            used |= _names_imported_from_tensor(path)
    unused = set(tensor.__all__) - ENGINE_API - used
    assert not unused, f"tensor ops no module imports: {sorted(unused)}"


def _is_minus_one(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and node.operand.value == 1
    )


def _trailing_axis_reductions(path: Path) -> list[str]:
    """`file:line` of each .sum/.max/.mean/.cumsum or norm call with -1 as its axis, by keyword or by position."""
    lines = sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("sum", "max", "mean", "cumsum", "norm")
        and any(_is_minus_one(arg) for arg in [*node.args, *(kw.value for kw in node.keywords if kw.arg == "axis")])
    )
    return [f"{path.name}:{line}" for line in lines]


def test_trailing_axis_reductions_go_through_the_row_helpers():
    # numpy reduces a narrow trailing axis one row at a time; tensor._row_sum
    # and tensor._softmax's max do it as a product or on a class-major copy
    sites = [site for path in sorted(SRC.glob("*.py")) for site in _trailing_axis_reductions(path)]
    assert not sites, f"trailing-axis reductions outside tensor._row_sum/_softmax: {sites}"


def _layout_conversions(path: Path) -> list[str]:
    """`file:line` of each np.concatenate/np.stack that takes .real or .imag, and of each .view( outside tensor.py."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr in ("concatenate", "stack"):
            operands = [sub for arg in node.args for sub in ast.walk(arg)]
            if any(isinstance(sub, ast.Attribute) and sub.attr in ("real", "imag") for sub in operands):
                lines.append(node.lineno)
        elif node.func.attr == "view" and path.name != "tensor.py":
            lines.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_complex_layout_converts_only_by_the_tensor_views():
    # complex values are interleaved (Re, Im) pairs, numpy's complex128
    # memory: tensor._complex and tensor._real convert by a view, never by
    # splitting into halves and joining them again
    sites = [site for path in sorted(SRC.glob("*.py")) for site in _layout_conversions(path)]
    assert not sites, f"complex layout conversions outside tensor._complex/_real: {sites}"


def test_parameters_are_listed_only_by_the_attribute_walk():
    # nn.parameters finds a module's parameters; a hand-written params method
    # would repeat its __init__, and a Tensor it forgot would never train.
    # WorldModel.params stays, as that walk, for the benchmark's callers.
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "params"
    ]
    world_model = next(
        node
        for node in ast.walk(ast.parse((SRC / "worldmodel.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "WorldModel"
    )
    kept = [f"worldmodel.py:{fn.lineno}" for fn in world_model.body if isinstance(fn, ast.FunctionDef) and fn.name == "params"]
    assert len(kept) == 1 and sites == kept, f"params methods besides WorldModel.params: {sites}"


def _exception_classes() -> list[str]:
    """`module.Class` of each class in src/sswm/ that derives from a built-in exception, directly or through another."""
    bases = {
        f"{path.stem}.{node.name}": {ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases}
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    names = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    found: set[str] = set()
    while more := {cls for cls, base_names in bases.items() if base_names & names} - found:
        found |= more
        names |= {cls.rsplit(".", 1)[1] for cls in more}
    return sorted(found)


def test_only_the_engine_defines_exception_classes():
    # a bad argument raises ValueError with a message that names it; only the
    # autodiff engine's two errors, part of ENGINE_API, are classes of their own
    assert _exception_classes() == ["tensor.GraphError", "tensor.ShapeError"]


def test_project_scripts_resolve_to_callables():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def test_package_imports_only_the_standard_library_and_its_runtime_dependencies():
    # a fresh interpreter, so that the modules this test session has loaded
    # (scipy among them, for the oracles) cannot hide one that sswm loads
    modules = sorted(f"sswm.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__")
    script = (
        "import importlib, json, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    allowed = {"sswm"} | {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_") for dep in dependencies}
    foreign = [name for name in json.loads(out.stdout) if name not in sys.stdlib_module_names and name not in allowed]
    assert not foreign, f"sswm imports modules outside the standard library and {sorted(allowed)}: {foreign}"


def _load_by_path(path: Path, monkeypatch):
    """Import a benchmark module from its file; sys.modules holds it for the test only (dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_imports_and_traces_every_name_it_uses(monkeypatch):
    # the benchmark's own tests take minutes; loading its modules and
    # installing its tracer finds a renamed or deleted name in a second
    _load_by_path(ROOT / "perfbench" / "workloads.py", monkeypatch)
    tracer = _load_by_path(ROOT / "perfbench" / "tracing.py", monkeypatch).Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_benchmark_workloads_run_one_operation_each(monkeypatch):
    # a changed call form of anything a listed workload calls fails here, not
    # only in the benchmark's own tests
    workloads = _load_by_path(ROOT / "perfbench" / "workloads.py", monkeypatch)
    listed = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert listed
    for name in listed:
        wl = workloads.WORKLOADS[name](seed=0)
        wl.prepare(wl.build())
        ledger = workloads.Ledger()
        ledger.run(wl.op)
        wl.check_outputs()
        assert (ledger.attempted, ledger.failed) == (1, 0), f"{name}: {dict(ledger.errors)}"
        assert not wl.failures, f"{name}: {wl.failures}"
