"""Journey-based indicators on a time-varying graph.

All indicators take an evaluation time ``t`` and a distance kind
(shortest / foremost / fastest).  Unreachable targets make eccentricities
unbounded (returned as ``math.inf``), contribute 0 to betweenness and are
excluded from closeness.

One walk over a graph's sources (``_walk``) serves every temporal
indicator, for a whole graph (``diameter``, ``temporal_betweenness_all``)
and per window (``windows.evolve_many``): it hands each source's search
row to every indicator asked for before the next search.
"""

from __future__ import annotations

import math

from .core import TimeVaryingGraph
from .journeys import _check_query, distance_map, minimal_route_counts


def eccentricity(
    g: TimeVaryingGraph, u: int, t: int, kind: str, strict: bool = False
) -> float:
    """Max ``kind`` distance from ``u`` to every other node; inf if any is unreachable."""
    d = distance_map(g, u, t, kind, strict)
    # u's own entry is 0, so it never raises the max
    return math.inf if len(d) < g.n else float(max(d.values()))


def diameter(g: TimeVaryingGraph, t: int, kind: str, strict: bool = False) -> float:
    """Max eccentricity over all nodes; inf if any is unbounded."""
    _check_query(g, kind, t)
    return max(_walk(g, t, ("diameter",), kind, strict)[0], default=0.0)


def temporal_betweenness_all(
    g: TimeVaryingGraph, t: int, kind: str, strict: bool = False
) -> list[float]:
    """Temporal betweenness of every node, indexed by node.

    Entry q sums, over ordered pairs (u, v) with u, v and q distinct, the
    fraction of minimal routes from u to v (walks of at most n-1 hops, see
    ``minimal_route_counts``) that use q as an interior node; a route
    counts once for q however often it passes q.  One route-count pass
    per source serves every q.  Each entry is the correctly rounded sum of
    its terms, so the order of the sources and targets cannot move it.
    """
    _check_query(g, kind, t)
    return _walk(g, t, ("betweenness",), kind, strict)[2]


def _walk(g: TimeVaryingGraph, t: int, names, kind: str, strict: bool):
    """The walk over ``g``'s sources, in id order, for the temporal
    indicators ``names``: ``(eccentricities, closenesses, betweenness)``,
    each per node, the first two empty unless asked for.

    Each source's indicators read its search row before the next search,
    so the graph's one row (see ``journeys._search``) serves them all.  A
    diameter needs eccentricities up to its first unbounded one only.
    Betweenness keeps each node's sum exact as Shewchuk's non-overlapping
    partials (those of ``math.fsum``, which rounds them once at the end).
    """
    ecc: list[float] = []
    close: list[float] = []
    partials: list[list[float]] = [[] for _ in range(g.n)]
    for u in range(g.n):
        if "eccentricity" in names or ("diameter" in names and math.inf not in ecc):
            ecc.append(eccentricity(g, u, t, kind, strict))
        if "closeness" in names:
            close.append(temporal_closeness(g, u, t, kind, strict))
        if "betweenness" in names:
            for v, (_, c, through) in minimal_route_counts(g, u, t, kind, strict).items():
                for q, cq in enumerate(through):
                    if cq and q != u and q != v:
                        _add_exactly(partials[q], cq / c)
    return ecc, close, [math.fsum(p) for p in partials]


def _add_exactly(partials: list[float], x: float) -> None:
    """Add ``x`` to the partials without rounding: each two-sum keeps its
    rounding error as the next partial."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def temporal_betweenness(
    g: TimeVaryingGraph, q: int, t: int, kind: str, strict: bool = False
) -> float:
    """Temporal betweenness of ``q``: entry q of ``temporal_betweenness_all``."""
    _check_query(g, kind, t, q)
    return temporal_betweenness_all(g, t, kind, strict)[q]


def temporal_closeness(
    g: TimeVaryingGraph, u: int, t: int, kind: str, strict: bool = False
) -> float:
    """Mean ``kind`` distance from ``u`` to its reachable nodes; NaN if none."""
    d = distance_map(g, u, t, kind, strict)
    # u's own entry is 0, so it adds nothing to the sum
    return sum(d.values()) / (len(d) - 1) if len(d) > 1 else math.nan
