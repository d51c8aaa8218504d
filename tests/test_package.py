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


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module-level imports of ``path`` that its code
    never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import) or (
            isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
        ):
            imported.update((a.asname or a.name).split(".")[0] for a in stmt.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_module_imports_are_used():
    # ``__init__`` imports only to re-export
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert not unused, f"unused module-level imports: {unused}"


def test_numpy_is_imported_only_where_bulk_arithmetic_runs():
    # journey searches ask ``core`` which arcs are present; only the
    # present-arc table and the static indicators' matrices use numpy
    def imports_numpy(node) -> bool:
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "numpy" for a in node.names)
        return (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "numpy"
        )

    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(map(imports_numpy, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    }
    assert importers == {"core", "static_metrics"}
