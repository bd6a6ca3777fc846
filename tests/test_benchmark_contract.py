"""The benchmark in perfbench/ calls expertmerge functions by name and traces
the ones tracing.TRACED lists; a rename or deletion here must not go
unnoticed until a traced run fails. perfbench/ is only read."""

import ast
import importlib
from pathlib import Path

import expertmerge

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.Bindings(tracing.Recorder(), expertmerge).problems == []


def test_called_names_exist():
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> expertmerge module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "expertmerge":
                for alias in node.names:
                    modules[alias.asname or alias.name] = f"expertmerge.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("expertmerge."):
                for alias in node.names:
                    if not hasattr(importlib.import_module(node.module), alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                module = importlib.import_module(modules[node.value.id])
                if not hasattr(module, node.attr):
                    missing.append(f"{path.name}: {modules[node.value.id]}.{node.attr}")
    assert missing == []
