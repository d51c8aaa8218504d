"""Structure of the package: the import graph of its modules, and which
of them load numpy."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import Iterator, Optional

import pytest

from tvgkit.synth import generate_trace

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


def imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return (
        isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "numpy"
    )


def numpy_imports(node, scope: str, in_function: bool = False) -> Iterator[Optional[str]]:
    """Per numpy import under ``node``: the qualified name of the function
    that runs it, or None for an import that runs at import time."""
    for child in ast.iter_child_nodes(node):
        if imports_numpy(child):
            yield scope if in_function else None
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = in_function or not isinstance(child, ast.ClassDef)
            yield from numpy_imports(child, f"{scope}.{child.name}", inner)
        else:
            yield from numpy_imports(child, scope, in_function)


def test_numpy_is_imported_only_where_bulk_arithmetic_runs():
    # only the conductance sweep's matrix uses numpy, and it imports it on
    # first use, so ``import tvgkit`` does not
    importers = {
        where
        for path in PACKAGE.glob("*.py")
        for where in numpy_imports(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert None not in importers, "a module imports numpy at import time"
    assert importers == {"static_metrics._sweep_order"}


def numpy_loaded_after(*argvs: list[str]) -> list[bool]:
    """Whether numpy is in ``sys.modules`` in a fresh interpreter after it
    imports ``tvgkit.cli``, then after each run of its ``main`` on ``argvs``."""
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import tvgkit.cli
        loaded = ["numpy" in sys.modules]
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert tvgkit.cli.main(argv) == 0, argv
            loaded.append("numpy" in sys.modules)
        print(json.dumps(loaded))
        """
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def pt20(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cold") / "pt20.csv"
    path.write_text(generate_trace("phase-transition", 7, nodes=20), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def ur30(tmp_path_factory) -> str:
    # one window of 10 ticks whose footprint has more than
    # ``EXACT_CONDUCTANCE_LIMIT`` nodes: conductance takes the spectral sweep
    path = tmp_path_factory.mktemp("bulk") / "ur30.csv"
    text = generate_trace("uniform-random", 1, nodes=30, ticks=10, p=0.05)
    path.write_text(text, encoding="utf-8")
    return str(path)


def evolve(trace: str, indicators: str, *options: str) -> list[str]:
    return ["evolve", trace, "--window", "10", "--indicators", indicators, *options]


def query(trace: str, at: int, kind: str) -> list[str]:
    # the PT20 lifetime starts at 0
    return ["query", trace, "--from", "n1", "--to", "n19", "--at", str(at), "--kind", kind]


KINDS = ("shortest", "foremost", "fastest")


def test_cold_start_loads_no_numpy(pt20):
    # searches read the graph's timeline, from any start time
    steps = {
        "import tvgkit.cli": None,
        **{
            f"evolve --kind {kind}": evolve(pt20, "closeness,diameter,betweenness", "--kind", kind)
            for kind in KINDS
        },
        "static evolve": evolve(pt20, "density,avg_clustering,avg_modularity,powerlaw"),
        "footprint": ["footprint", pt20],
        "generate": ["generate", "uniform-random", "--seed", "1", "--nodes", "20", "--ticks", "40"],
        **{f"query --kind {kind} --at 0": query(pt20, 0, kind) for kind in KINDS},
        "query --kind fastest --at 5": query(pt20, 5, "fastest"),
    }
    loaded = numpy_loaded_after(*filter(None, steps.values()))
    assert len(loaded) == len(steps)
    assert not any(loaded), f"numpy loaded by {list(steps)[loaded.index(True)]}"


def test_bulk_arithmetic_loads_numpy(pt20, ur30):
    # the gate above would pass vacuously if no path loaded numpy at all
    assert numpy_loaded_after(evolve(ur30, "conductance")) == [False, True]
