"""Journeys and temporal distances.

A journey is a walk whose edges are crossed at non-decreasing instants,
each at a time the edge is present.  Crossing is instantaneous (no edge
latency), so several hops may happen at the same instant; pass
``strict=True`` to require strictly increasing crossing times instead.

Three distance notions follow: shortest (fewest hops), foremost (earliest
arrival after a start time) and fastest (smallest arrival minus departure).
"""

from __future__ import annotations

import heapq
from operator import add
from typing import Iterable, Optional

from .core import TimeVaryingGraph

KINDS = ("shortest", "foremost", "fastest")

Step = tuple[int, int]  # (edge index, crossing time)


def _check_time(g: TimeVaryingGraph, t: int) -> None:
    if t not in g.lifetime:
        raise ValueError(f"t={t} outside lifetime [{g.lifetime.start},{g.lifetime.end})")


def is_journey(g: TimeVaryingGraph, steps: Iterable[Step], strict: bool = False) -> bool:
    """Whether ``steps`` is a valid journey of ``g`` (empty sequences are)."""
    steps = list(steps)
    positions: Optional[set[int]] = None
    prev_t: Optional[int] = None
    for ei, t in steps:
        if not 0 <= ei < len(g.edges):
            raise ValueError(f"unknown edge index {ei}")
        e = g.edges[ei]
        if prev_t is not None and (t < prev_t or (strict and t <= prev_t)):
            return False
        if t not in g.presence[ei]:
            return False
        if positions is None:
            positions = {e.v} if g.directed else {e.u, e.v}
        else:
            nxt = set()
            if e.u in positions:
                nxt.add(e.v)
            if not g.directed and e.v in positions:
                nxt.add(e.u)
            if not nxt:
                return False
            positions = nxt
        prev_t = t
    return True


def _earliest_arrival(g: TimeVaryingGraph, u: int, t: int, strict: bool = False):
    """Earliest-arrival relaxation from ``u`` with first crossing >= ``t``.

    Returns (arrival, pred) where arrival[v] is the minimal last-crossing
    time of a journey u->v departing >= t (arrival[u] = t), and pred[v] is
    the (prev node, edge index, crossing time) of one witness.
    """
    arrival = {u: t}
    ready = {u: t}
    pred: dict[int, Optional[tuple[int, int, int]]] = {u: None}
    heap = [(t, u)]
    done: set[int] = set()
    while heap:
        a, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        lb = ready[x]
        for ei, y in g.out_edges(x):
            if y in done:
                continue
            tp = g.presence[ei].next_at_or_after(lb)
            if tp is None:
                continue
            if y not in arrival or tp < arrival[y]:
                arrival[y] = tp
                ready[y] = tp + 1 if strict else tp
                pred[y] = (x, ei, tp)
                heapq.heappush(heap, (tp, y))
    return arrival, pred


def foremost_distance(
    g: TimeVaryingGraph, u: int, t: int, strict: bool = False
) -> dict[int, int]:
    """Minimal arrival delay after ``t`` per reachable node (unreachable absent)."""
    _check_time(g, t)
    arrival, _ = _earliest_arrival(g, u, t, strict)
    return {v: a - t for v, a in arrival.items()}


def _layered_states(g: TimeVaryingGraph, u: int, t: int, strict: bool = False):
    """Per hop budget h, the minimal next-crossing bound reachable at each node.

    Returns (best, pred): best[(h, x)] -> lower bound for the next crossing
    after reaching x in exactly h hops; pred[(h, x)] -> (x_prev, edge,
    crossing time) of a witness route of length h.
    """
    best = {(0, u): t}
    pred: dict[tuple[int, int], Optional[tuple[int, int, int]]] = {(0, u): None}
    frontier = {u: t}
    for h in range(1, g.n):
        nxt: dict[int, int] = {}
        for x, lb in frontier.items():
            for ei, y in g.out_edges(x):
                tp = g.presence[ei].next_at_or_after(lb)
                if tp is None:
                    continue
                r = tp + 1 if strict else tp
                if y not in nxt or r < nxt[y]:
                    nxt[y] = r
                    pred[(h, y)] = (x, ei, tp)
        for y, r in nxt.items():
            best[(h, y)] = r
        frontier = nxt
        if not frontier:
            break
    return best, pred


def shortest_distance(
    g: TimeVaryingGraph, u: int, t: int, strict: bool = False
) -> dict[int, int]:
    """Minimal hop count per reachable node over journeys departing >= ``t``."""
    _check_time(g, t)
    best, _ = _layered_states(g, u, t, strict)
    dist: dict[int, int] = {}
    for (h, x) in sorted(best):
        if x not in dist:
            dist[x] = h
    return dist


def _departure_candidates(g: TimeVaryingGraph, t: int, strict: bool = False) -> list[int]:
    """Times at which an optimal fastest journey may depart.

    Interval starts cover waiting for an edge to open; interval last ticks
    cover leaving as late as possible before an edge closes.  Strict
    ordering forces one tick per hop, so each critical time also spawns
    candidates shifted earlier by up to n-1 ticks.
    """
    base = set()
    for p in g.presence:
        for a, b in p.intervals:
            base.add(a)
            base.add(b - 1)
    cand = {t}
    shifts = range(g.n) if strict else (0,)
    for c in base:
        for j in shifts:
            if c - j >= t:
                cand.add(c - j)
    return sorted(cand)


def fastest_distance(
    g: TimeVaryingGraph, u: int, t: int, strict: bool = False
) -> dict[int, int]:
    """Minimal journey duration (arrival - departure) per reachable node."""
    _check_time(g, t)
    dur: dict[int, int] = {u: 0}
    for s in _departure_candidates(g, t, strict):
        arrival, _ = _earliest_arrival(g, u, s, strict)
        for v, a in arrival.items():
            if v == u:
                continue
            d = a - s
            if v not in dur or d < dur[v]:
                dur[v] = d
    return dur


def temporal_view(
    g: TimeVaryingGraph, u: int, v: int, t: int, strict: bool = False
) -> Optional[int]:
    """Latest departure at ``u`` of a journey to ``v`` arriving by ``t``, or None."""
    _check_time(g, t)
    if u == v:
        return t
    # latest[x]: max departure over journeys x -> v with arrival <= t
    latest = {v: t}
    heap = [(-t, v)]
    done: set[int] = set()
    while heap:
        neg, y = heapq.heappop(heap)
        if y in done:
            continue
        done.add(y)
        cap = latest[y]
        if strict and y != v:
            cap -= 1
        for ei, x in g.in_edges(y):
            if x in done:
                continue
            tp = g.presence[ei].latest_at_or_before(cap)
            if tp is None or tp < g.lifetime.start:
                continue
            if x not in latest or tp > latest[x]:
                latest[x] = tp
                heapq.heappush(heap, (-tp, x))
    return latest.get(u)


def witness_journey(
    g: TimeVaryingGraph, u: int, v: int, t: int, kind: str, strict: bool = False
) -> Optional[list[Step]]:
    """One journey achieving the ``kind`` distance from u to v at t, or None."""
    _check_time(g, t)
    if kind not in KINDS:
        raise ValueError(f"unknown distance kind {kind!r}")
    if u == v:
        return []
    if kind == "foremost":
        arrival, pred = _earliest_arrival(g, u, t, strict)
        if v not in arrival:
            return None
        steps = []
        x = v
        while x != u:
            px, ei, tp = pred[x]
            steps.append((ei, tp))
            x = px
        return steps[::-1]
    if kind == "shortest":
        best, pred = _layered_states(g, u, t, strict)
        hs = [h for (h, x) in best if x == v]
        if not hs:
            return None
        h = min(hs)
        steps = []
        x = v
        while h > 0:
            px, ei, tp = pred[(h, x)]
            steps.append((ei, tp))
            x, h = px, h - 1
        return steps[::-1]
    # fastest: find the best departure candidate, then extract its foremost witness
    best_s = None
    best_d = None
    for s in _departure_candidates(g, t, strict):
        arrival, _ = _earliest_arrival(g, u, s, strict)
        if v in arrival:
            d = arrival[v] - s
            if best_d is None or d < best_d:
                best_d, best_s = d, s
    if best_s is None:
        return None
    return witness_journey(g, u, v, best_s, "foremost", strict)


def distance_map(
    g: TimeVaryingGraph, u: int, t: int, kind: str, strict: bool = False
) -> dict[int, int]:
    """Dispatch to the ``kind`` distance from ``u`` at ``t``."""
    if kind == "shortest":
        return shortest_distance(g, u, t, strict)
    if kind == "foremost":
        return foremost_distance(g, u, t, strict)
    if kind == "fastest":
        return fastest_distance(g, u, t, strict)
    raise ValueError(f"unknown distance kind {kind!r}")


def _fastest_step(pairs: tuple, p, strict: bool, limit: int) -> tuple:
    """Pareto set of ``(departure, bound)`` pairs after crossing an edge.

    ``pairs`` ascend in departure and in bound; a departure of None means
    the route has not left the source yet, so this crossing fixes it.
    Pairs that cannot cross are dropped, as are pairs whose duration
    exceeds ``limit`` and pairs dominated by one that departs no earlier
    with a bound no later.  The result ascends the same way.
    """
    out: list[tuple[int, int]] = []
    for dep, lb in pairs:
        tp = p.next_at_or_after(lb)
        if tp is None:
            break  # later bounds cannot cross either
        if dep is None:
            dep = tp
        elif tp - dep > limit:
            continue
        r = tp + 1 if strict else tp
        if out and out[-1][1] == r:
            out[-1] = (dep, r)
        else:
            out.append((dep, r))
    return tuple(out)


def minimal_route_counts(
    g: TimeVaryingGraph, u: int, t: int, kind: str, strict: bool = False
) -> dict[int, tuple[int, int, tuple[int, ...]]]:
    """Minimal-route counts from ``u`` at time ``t``, with every relay's share.

    A route is a walk (an edge sequence, nodes may repeat) of at most n-1
    hops realizable as a journey departing at or after ``t``; it is
    minimal if its best achievable measure equals the ``kind`` distance to
    its end.  Returns, per reachable node v, ``(distance, routes,
    through)`` where ``through[q]`` is the number of minimal routes to v
    that leave q as an interior node.  A route that visits q twice counts
    once, and the source is never interior.  The source maps to
    ``(0, 1, (0,) * n)``: the empty route.

    One forward pass serves every relay.  Each state, a node with the bound
    for its next crossing, carries its route count and its through-vector
    (the count of its routes that left each node).  States merge only when
    no continuation tells their routes apart, and are dropped only when
    they can never end a minimal route: shortest drops a state whose node
    an earlier hop reached with a bound no later; foremost drops crossings
    after the latest foremost arrival; fastest keys each state by the
    Pareto set of its ``(departure, bound)`` pairs and drops pairs longer
    than the largest fastest distance.
    """
    _check_time(g, t)
    if kind not in KINDS:
        raise ValueError(f"unknown distance kind {kind!r}")
    n = g.n
    if kind == "fastest":
        limit = max(fastest_distance(g, u, t, strict).values())
        start = tuple((None, s) for s in _departure_candidates(g, t, strict))
    else:
        start = t
        reached = {u: t}  # shortest: least bound per node over earlier hops
        if kind == "foremost":
            arrival, _ = _earliest_arrival(g, u, t, strict)
            horizon = max(arrival.values())

    layer = {(u, start): (1, [0] * n)}
    totals: dict[int, list] = {}
    for h in range(1, n):
        nxt: dict[tuple, tuple[int, list[int]]] = {}
        for (x, state), (c, thr) in layer.items():
            if x != u:
                thr = thr.copy()
                thr[x] = c
            for ei, y in g.out_edges(x):
                p = g.presence[ei]
                if kind == "fastest":
                    new = _fastest_step(state, p, strict, limit)
                    if not new:
                        continue
                else:
                    tp = p.next_at_or_after(state)
                    if tp is None or (kind == "foremost" and tp > horizon):
                        continue
                    new = tp + 1 if strict else tp
                    if kind == "shortest" and y in reached and reached[y] <= new:
                        continue
                acc = nxt.get((y, new))
                if acc is None:
                    nxt[(y, new)] = (c, thr)
                else:
                    nxt[(y, new)] = (acc[0] + c, list(map(add, acc[1], thr)))
        for (y, state), (c, thr) in nxt.items():
            if y == u:
                continue  # the empty route is the only minimal route to the source
            if kind == "shortest":
                if y in reached:
                    continue
                m = h
            elif kind == "foremost":
                arr = state - 1 if strict else state
                if arr != arrival[y]:
                    continue
                m = arr - t
            else:
                m = min((r - 1 if strict else r) - dep for dep, r in state)
            acc = totals.get(y)
            if acc is None or m < acc[0]:
                totals[y] = [m, c, thr]
            elif m == acc[0]:
                acc[1] += c
                acc[2] = list(map(add, acc[2], thr))
        if kind == "shortest":
            for y, r in nxt:
                if y not in reached or r < reached[y]:
                    reached[y] = r
        layer = nxt
        if not layer:
            break
    out = {u: (0, 1, (0,) * n)}
    out.update((v, (m, c, tuple(thr))) for v, (m, c, thr) in totals.items())
    return out


def count_minimal_journeys(
    g: TimeVaryingGraph, u: int, v: int, t: int, kind: str, strict: bool = False
) -> Optional[tuple[int, int]]:
    """Distance and number of minimal routes from u to v at t, or None."""
    res = minimal_route_counts(g, u, t, kind, strict)
    if v not in res:
        return None
    d, c, _ = res[v]
    return d, c
