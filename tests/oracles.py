"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's search machinery:
presence is checked by linear interval scans, routes by explicit DFS
enumeration over neighbour lists read from ``g.edges`` (not the graph's
own adjacency), and conductance by subset enumeration.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from tvgkit.core import Lifetime, TimeVaryingGraph, build_tvg


def linear_presence(g: TimeVaryingGraph, ei: int, t: int) -> bool:
    return any(a <= t < b for a, b in g.presence[ei].intervals)


def linear_next(g: TimeVaryingGraph, ei: int, lb: int):
    """Smallest present time >= lb of edge ei, by linear scan."""
    best = None
    for a, b in g.presence[ei].intervals:
        if b <= lb:
            continue
        t = max(a, lb)
        if best is None or t < best:
            best = t
    return best


def greedy_crossings(g, route, lb, strict=False):
    """Earliest crossing times of a route given the first crossing >= lb, or None."""
    times = []
    for ei in route:
        t = linear_next(g, ei, lb)
        if t is None:
            return None
        times.append(t)
        lb = t + 1 if strict else t
    return times


def presence_times(g, ei, t0):
    out = []
    for a, b in g.presence[ei].intervals:
        out.extend(range(max(a, t0), b))
    return sorted(out)


def route_best_duration(g, route, t, strict=False):
    """Minimal duration of the route over all departures >= t, or None."""
    best = None
    for f in presence_times(g, route[0], t):
        lb = f + 1 if strict else f
        rest = greedy_crossings(g, route[1:], lb, strict)
        if rest is None:
            continue
        arrival = rest[-1] if rest else f
        d = arrival - f
        if best is None or d < best:
            best = d
    return best


def out_arcs(g):
    """Per node, the (edge index, neighbour) pairs leaving it, read from
    ``g.edges``: an undirected edge goes both ways."""
    out = [[] for _ in range(g.n)]
    for ei, e in enumerate(g.edges):
        out[e.u].append((ei, e.v))
        if not g.directed:
            out[e.v].append((ei, e.u))
    return out


def iter_simple_routes(g, u):
    """All simple routes (edge index lists) out of u, with their end node."""
    arcs = out_arcs(g)

    def rec(x, visited, route):
        for ei, y in arcs[x]:
            if y in visited:
                continue
            route.append(ei)
            yield list(route), y
            visited.add(y)
            yield from rec(y, visited, route)
            visited.remove(y)
            route.pop()

    yield from rec(u, {u}, [])


def iter_feasible_walks(g, u, t, strict=False):
    """All walks of <= n-1 hops out of u realizable as journeys departing >= t."""
    arcs = out_arcs(g)

    def rec(x, lb, route):
        if len(route) == g.n - 1:
            return
        for ei, y in arcs[x]:
            tp = linear_next(g, ei, lb)
            if tp is None:
                continue
            route.append(ei)
            yield list(route), y
            yield from rec(y, tp + 1 if strict else tp, route)
            route.pop()

    yield from rec(u, t, [])


def oracle_distances(g, u, t, strict=False):
    """Exhaustive shortest/foremost/fastest distance maps from u at t."""
    shortest = {u: 0}
    foremost = {u: 0}
    fastest = {u: 0}
    for route, v in iter_simple_routes(g, u):
        times = greedy_crossings(g, route, t, strict)
        if times is None:
            continue
        if v not in shortest or len(route) < shortest[v]:
            shortest[v] = len(route)
        delay = times[-1] - t
        if v not in foremost or delay < foremost[v]:
            foremost[v] = delay
        d = route_best_duration(g, route, t, strict)
        if d is not None and (v not in fastest or d < fastest[v]):
            fastest[v] = d
    return {"shortest": shortest, "foremost": foremost, "fastest": fastest}


def oracle_fastest_departures(g, u, t, strict=False):
    """Per node v != u reachable from u: (fastest duration, earliest
    departure among the journeys with that duration), trying every
    departure >= t on every simple route (cutting a cycle out of a fastest
    journey keeps its departure and its arrival)."""
    best = {}
    for route, v in iter_simple_routes(g, u):
        for f in presence_times(g, route[0], t):
            rest = greedy_crossings(g, route[1:], f + 1 if strict else f, strict)
            if rest is None:
                continue
            key = ((rest[-1] if rest else f) - f, f)
            if v not in best or key < best[v]:
                best[v] = key
    return best


def walk_measure(g, route, t, kind, strict=False):
    """Hops, arrival delay after t or best duration of a feasible walk."""
    if kind == "shortest":
        return len(route)
    if kind == "foremost":
        return greedy_crossings(g, route, t, strict)[-1] - t
    if kind == "fastest":
        return route_best_duration(g, route, t, strict)
    raise ValueError(kind)


def walk_nodes(g, u, route):
    """Node sequence visited by a walk of edge indices out of u."""
    nodes = [u]
    for ei in route:
        e = g.edges[ei]
        nodes.append(e.v if e.u == nodes[-1] else e.u)
    return nodes


def oracle_route_count(g, u, v, t, kind, strict=False):
    """(distance, count of minimal routes up to n-1 hops), or None."""
    if u == v:
        return (0, 1)
    measures = [
        walk_measure(g, route, t, kind, strict)
        for route, end in iter_feasible_walks(g, u, t, strict)
        if end == v
    ]
    if not measures:
        return None
    best = min(measures)
    return best, sum(1 for m in measures if m == best)


def oracle_route_through(g, u, t, kind, strict=False):
    """Per node v reachable from u: (distance, count of minimal routes up to
    n-1 hops, per node q the count of those routes that leave q as an
    interior node), by enumerating every feasible walk.  A walk counts once
    for q however often it leaves q; the source is never interior."""
    by_end = {}
    for route, end in iter_feasible_walks(g, u, t, strict):
        if end != u:
            by_end.setdefault(end, []).append(
                (walk_measure(g, route, t, kind, strict), route)
            )
    out = {u: (0, 1, (0,) * g.n)}
    for v, walks in by_end.items():
        best = min(m for m, _ in walks)
        minimal = [route for m, route in walks if m == best]
        through = [0] * g.n
        for route in minimal:
            for q in set(walk_nodes(g, u, route)[1:-1]) - {u}:
                through[q] += 1
        out[v] = (best, len(minimal), tuple(through))
    return out


def oracle_betweenness(g, t, kind, strict=False):
    """Per-node temporal betweenness by enumerating every feasible walk.

    For each ordered pair (u, v), each minimal walk from u to v adds
    1 / (number of minimal walks) to every node it leaves as an interior
    node, once per walk however often the walk passes it.
    """
    bc = [0.0] * g.n
    for u in range(g.n):
        by_end = {}
        for route, end in iter_feasible_walks(g, u, t, strict):
            if end != u:
                by_end.setdefault(end, []).append(
                    (walk_measure(g, route, t, kind, strict), route)
                )
        for v, walks in by_end.items():
            best = min(m for m, _ in walks)
            minimal = [route for m, route in walks if m == best]
            for route in minimal:
                for q in set(walk_nodes(g, u, route)[1:-1]) - {u, v}:
                    bc[q] += 1 / len(minimal)
    return bc


def oracle_journey_exists(g, u, v, t, strict=False):
    if u == v:
        return True
    return any(
        end == v and greedy_crossings(g, route, t, strict) is not None
        for route, end in iter_simple_routes(g, u)
    )


def oracle_min_conductance(footprint):
    """Exhaustive minimum conductance by subset enumeration over frozensets."""
    nodes = list(footprint.nodes)
    deg = footprint.degrees()
    edges = footprint.undirected_edges()
    best = math.nan
    for r in range(1, len(nodes)):
        for side in combinations(nodes, r):
            s = set(side)
            crossing = sum(1 for a, b in edges if (a in s) != (b in s))
            vol_s = sum(deg[x] for x in s)
            vol_c = sum(deg[x] for x in nodes if x not in s)
            denom = min(vol_s, vol_c)
            if denom == 0:
                continue
            phi = crossing / denom
            if math.isnan(best) or phi < best:
                best = phi
    return best


def _simple_undirected(footprint):
    """Undirected simple edge set of a footprint, canonicalized here."""
    return {(min(u, v), max(u, v)) for u, v in footprint.edges}


def oracle_clustering(footprint):
    """Per node: adjacent neighbour pairs over all neighbour pairs, by
    enumerating the pairs; NaN for degree <= 1."""
    edges = _simple_undirected(footprint)
    nb = {x: set() for x in footprint.nodes}
    for u, v in edges:
        nb[u].add(v)
        nb[v].add(u)
    out = {}
    for x in footprint.nodes:
        k = len(nb[x])
        links = sum(1 for a, b in combinations(sorted(nb[x]), 2) if (a, b) in edges)
        out[x] = math.nan if k <= 1 else 2 * links / (k * (k - 1))
    return out


def oracle_modularity(footprint):
    """Mean of deg(u)*deg(v)/2|E| over unordered node pairs, enumerated and
    summed exactly as fractions, then rounded once; NaN below two nodes or
    without edges."""
    edges = _simple_undirected(footprint)
    nodes = footprint.nodes
    if len(nodes) < 2 or not edges:
        return math.nan
    deg = {x: 0 for x in nodes}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    total = 0
    pairs = 0
    for u, v in combinations(nodes, 2):
        total += deg[u] * deg[v]
        pairs += 1
    return float(Fraction(total, 2 * len(edges) * pairs))


def random_tvg(
    rng: random.Random,
    n_max: int = 7,
    e_max: int = 12,
    horizon: int = 16,
    directed: bool = False,
) -> TimeVaryingGraph:
    """Small random TVG with sparse presence intervals, for oracle suites."""
    n = rng.randint(3, n_max)
    pairs = list(combinations(range(n), 2))
    if directed:
        pairs += [(b, a) for a, b in pairs]
    rng.shuffle(pairs)
    events = []
    for u, v in pairs[: rng.randint(1, min(e_max, len(pairs)))]:
        for _ in range(rng.randint(1, 2)):
            a = rng.randrange(0, horizon - 1)
            b = rng.randrange(a + 1, min(a + 6, horizon) + 1)
            events.append((u, v, a, b))
    return build_tvg(n, directed, Lifetime(0, horizon), events)


def random_always_on_tvg(rng: random.Random, n_max: int = 8, horizon: int = 10):
    """Random TVG whose edges are present for the whole lifetime."""
    n = rng.randint(3, n_max)
    events = [
        (u, v, 0, horizon)
        for u, v in combinations(range(n), 2)
        if rng.random() < 0.5
    ]
    if not events:
        events = [(0, 1, 0, horizon)]
    return build_tvg(n, False, Lifetime(0, horizon), events)
