"""The package's public surface: every tensor op has a caller, every script resolves."""

import ast
import importlib
import tomllib
from pathlib import Path

from sswm import tensor

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sswm"

# The autodiff engine itself, public whether or not a module imports it.
ENGINE_API = {"Tensor", "ShapeError", "GraphError", "no_grad", "make_rng", "backward", "grad_check", "GradCheckReport"}


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


def test_project_scripts_resolve_to_callables():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"
