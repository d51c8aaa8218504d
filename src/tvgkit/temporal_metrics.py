"""Journey-based indicators on a time-varying graph.

All indicators take an evaluation time ``t`` and a distance kind
(shortest / foremost / fastest).  Unreachable targets make eccentricities
unbounded (returned as ``math.inf``), contribute 0 to betweenness and are
excluded from closeness.
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
    if len(d) < g.n:
        return math.inf
    if g.n == 1:
        return 0.0
    return float(max(v for x, v in d.items() if x != u))


def diameter(g: TimeVaryingGraph, t: int, kind: str, strict: bool = False) -> float:
    """Max eccentricity over all nodes; inf if any is unbounded."""
    _check_query(g, kind, t)
    worst = 0.0
    for u in range(g.n):
        e = eccentricity(g, u, t, kind, strict)
        if math.isinf(e):
            return math.inf
        worst = max(worst, e)
    return worst


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
    partials: list[list[float]] = [[] for _ in range(g.n)]
    for u in range(g.n):
        _add_shares(partials, g, u, t, kind, strict)
    return [math.fsum(p) for p in partials]


def _add_shares(
    partials: list[list[float]], g: TimeVaryingGraph, u: int, t: int, kind: str, strict: bool
) -> None:
    """Add source ``u``'s nonzero terms of q's temporal betweenness (see
    ``temporal_betweenness_all``) to ``partials[q]``, q's running sum kept
    exact as Shewchuk's non-overlapping partials (those of ``math.fsum``,
    which rounds them once at the end)."""
    for v, (_, c, through) in minimal_route_counts(g, u, t, kind, strict).items():
        if v == u:
            continue
        for q, cq in enumerate(through):
            if cq and q != u and q != v:
                _add_exactly(partials[q], cq / c)


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
    others = [v for v in d if v != u]
    if not others:
        return math.nan
    return sum(d[v] for v in others) / len(others)

