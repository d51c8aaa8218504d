"""Journey-based indicators on a time-varying graph.

All indicators take an evaluation time ``t`` and a distance kind
(shortest / foremost / fastest).  Unreachable targets make eccentricities
unbounded (returned as ``math.inf``), contribute 0 to betweenness and are
excluded from closeness.
"""

from __future__ import annotations

import math

from .core import TimeVaryingGraph, _check_node
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
    per source serves every q.
    """
    _check_query(g, kind, t)
    total = [0.0] * g.n
    for u in range(g.n):
        _add_shares(total, g, u, t, kind, strict)
    return total


def _add_shares(
    total: list[float], g: TimeVaryingGraph, u: int, t: int, kind: str, strict: bool
) -> None:
    """Add to ``total[q]`` source ``u``'s terms of q's temporal betweenness
    (see ``temporal_betweenness_all``), target by target."""
    for v, (_, c, through) in minimal_route_counts(g, u, t, kind, strict).items():
        if v == u:
            continue
        for q, cq in enumerate(through):
            if q != u and q != v:
                total[q] += cq / c


def temporal_betweenness(
    g: TimeVaryingGraph, q: int, t: int, kind: str, strict: bool = False
) -> float:
    """Temporal betweenness of ``q``: entry q of ``temporal_betweenness_all``."""
    _check_node(g, q)
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

