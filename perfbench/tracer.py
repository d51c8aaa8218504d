"""Spans around tvgkit's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function at every name a caller
looks it up through: module attributes of every loaded ``tvgkit`` module
(``tvgkit.windows.footprint``, ``tvgkit.temporal_metrics.distance_map``,
...) and values of module-level dicts such as the indicator registries.
A span's self time is its duration minus the spans of its direct
children.  A function already on the span stack is called through
without a new span, so a recursive call counts once, at the outermost
span.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from workloads import KINDS

STATIC = ("density", "average_clustering", "average_modularity", "powerlaw_exponent")
TEMPORAL = ("temporal_betweenness", "temporal_closeness", "diameter", "eccentricity")


def _kind_at(pos):
    def key(name, args, kwargs):
        kind = kwargs["kind"] if "kind" in kwargs else args[pos]
        return f"{name}.{kind}"

    return key


def _plain(name, args, kwargs):
    return name


#: (module, function, span key) of every traced function
TARGETS = (
    [
        ("trace_io", "parse_trace", _plain),
        ("core", "build_tvg", _plain),
        ("core", "footprint", _plain),
        ("core", "temporal_subgraph", _plain),
        ("windows", "evolve", _plain),
        ("journeys", "distance_map", _kind_at(3)),
        ("journeys", "witness_journey", _kind_at(4)),
        ("journeys", "minimal_route_counts", _kind_at(3)),
        ("cli", "main", _plain),
    ]
    + [("static_metrics", f, _plain) for f in STATIC]
    + [("temporal_metrics", f, _plain) for f in TEMPORAL]
)


#: per-layer metrics -> the end-to-end metric and workload they should move
SHOULD_MOVE = (
    ("trace_io.parse_s, trace_io.rows, core.build_tvg_s",
     "setup_s on all; wall_s on static-sweep"),
    ("core.footprint_calls, core.footprint_s",
     "wall_s on static-sweep; one footprint per window takes calls 764 -> 191"),
    ("core.subgraph_calls, core.subgraph_s",
     "evolve_<kind>_s on temporal-evolve; precomputation moved into graph building shows here and in setup_s"),
    ("windows.evolve_calls, windows.windows, windows.self_s", "wall_s on static-sweep"),
    ("static_metrics.<indicator>_{calls,s}", "wall_s on static-sweep; zero elsewhere"),
    ("temporal_metrics.<indicator>_{calls,self_s}", "evolve_<kind>_s on temporal-evolve"),
    ("journeys.route_count.<kind>_{calls,s}, journeys.route_count_calls_per_window",
     "evolve_<kind>_s on temporal-evolve; a Brandes-style pass takes calls n(n-1) -> n per window"),
    ("journeys.search.<kind>_{calls,s}",
     "query_<kind>_p50_ms on point-queries; small on temporal-evolve"),
    ("journeys.witness.<kind>_{calls,s}, journeys.witness_share",
     "query_<kind>_p50_ms and query_p98_ms on point-queries; a witness that repeats the search is about 0.5"),
    ("cli.invocations, cli.self_s", "wall_s on static-sweep and temporal-evolve"),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        #: windows evaluated per evolve indicator
        self.windows = defaultdict(int)
        self._stack: list[list] = []
        self._active: set = set()
        self._paused = False

    @contextmanager
    def paused(self):
        """Run benchmark-side code (output checks) without recording spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, name, key):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused or fn in self._active:
                return fn(*args, **kwargs)
            span = key(name, args, kwargs)
            frame = [0.0]  # time covered by direct child spans
            self._stack.append(frame)
            self._active.add(fn)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self._active.discard(fn)
                self.calls[span] += 1
                self.total[span] += dt
                self.self_time[span] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
            if name == "evolve":
                indicator = kwargs["indicator"] if "indicator" in kwargs else args[2]
                self.windows[indicator] += len(result.windows)
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every traced function; returns the names patched."""
        import tvgkit.windows

        if tvgkit.windows.STATIC_INDICATORS:
            raise RuntimeError("indicator registry loaded before tracing")
        modules = [m for n, m in sys.modules.items() if n == "tvgkit" or n.startswith("tvgkit.")]
        patched = []
        for mod_name, fn_name, key in TARGETS:
            original = getattr(sys.modules[f"tvgkit.{mod_name}"], fn_name)
            wrapper = self._wrap(original, fn_name, key)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append(f"{mod.__name__}.{attr}")
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapper
                                patched.append(f"{mod.__name__}.{attr}[{k!r}]")
        return patched

    def layer_metrics(self, trace_rows: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything this tracer recorded."""
        c, tot, own = self.calls, self.total, self.self_time
        m: dict[str, tuple[float, str]] = {
            "trace_io.parse_s": (tot["parse_trace"], "s"),
            "trace_io.rows": (c["parse_trace"] * trace_rows, "count"),
            "core.build_tvg_s": (tot["build_tvg"], "s"),
            "core.footprint_calls": (c["footprint"], "count"),
            "core.footprint_s": (tot["footprint"], "s"),
            "core.subgraph_calls": (c["temporal_subgraph"], "count"),
            "core.subgraph_s": (tot["temporal_subgraph"], "s"),
            "windows.evolve_calls": (c["evolve"], "count"),
            "windows.windows": (sum(self.windows.values()), "count"),
            "windows.self_s": (own["evolve"], "s"),
            "cli.invocations": (c["main"], "count"),
            "cli.self_s": (own["main"], "s"),
        }
        for f in STATIC:
            m[f"static_metrics.{f}_calls"] = (c[f], "count")
            m[f"static_metrics.{f}_s"] = (tot[f], "s")
        for f in TEMPORAL:
            m[f"temporal_metrics.{f}_calls"] = (c[f], "count")
            m[f"temporal_metrics.{f}_self_s"] = (own[f], "s")
        for layer, fn in (
            ("route_count", "minimal_route_counts"),
            ("search", "distance_map"),
            ("witness", "witness_journey"),
        ):
            for kind in KINDS:
                m[f"journeys.{layer}.{kind}_calls"] = (c[f"{fn}.{kind}"], "count")
                m[f"journeys.{layer}.{kind}_s"] = (tot[f"{fn}.{kind}"], "s")
        route_calls = sum(c[f"minimal_route_counts.{k}"] for k in KINDS)
        m["journeys.route_count_calls_per_window"] = (
            route_calls / self.windows["betweenness"] if self.windows["betweenness"] else 0.0,
            "calls/window",
        )
        search_s = sum(tot[f"distance_map.{k}"] for k in KINDS)
        witness_s = sum(tot[f"witness_journey.{k}"] for k in KINDS)
        m["journeys.witness_share"] = (
            witness_s / (search_s + witness_s) if witness_s else 0.0,
            "ratio",
        )
        return m
