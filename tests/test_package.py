"""Structure of the package: the import graph of its modules."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tvgkit"


def package_imports() -> dict[str, set[str]]:
    """Per module of the package, the modules of the package it imports
    anywhere in its code, inside functions too."""
    modules = {p.stem: p for p in PACKAGE.glob("*.py")}
    graph: dict[str, set[str]] = {}
    for name, path in modules.items():
        deps: set[str] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:  # from . import a, b
                    deps.update(alias.name for alias in node.names)
        graph[name] = deps & modules.keys()
    return graph


def test_collects_the_package_imports():
    graph = package_imports()
    assert {"core", "journeys", "windows", "temporal_metrics", "cli"} <= graph.keys()
    assert {"static_metrics", "temporal_metrics", "core"} <= graph["windows"]
    assert {"trace_io", "windows"} <= graph["cli"]


def test_import_graph_is_acyclic():
    try:
        tuple(TopologicalSorter(package_imports()).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle: {' -> '.join(err.args[1])}") from None
