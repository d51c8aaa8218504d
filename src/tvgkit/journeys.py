"""Journeys and temporal distances.

A journey is a walk whose edges are crossed at non-decreasing instants,
each at a time the edge is present.  Crossing is instantaneous (no edge
latency), so several hops may happen at the same instant; pass
``strict=True`` to require strictly increasing crossing times instead.

Three distance notions follow: shortest (fewest hops), foremost (earliest
arrival after a start time) and fastest (smallest arrival minus departure).
Each kind has one search: shortest a pruned hop-by-hop search, foremost
an earliest-arrival search and fastest one time-forward pass over the
critical times at or after the start time, with one label per node (see
``_fastest_flood``).  A pass replays the graph's ``Timeline`` to find the
arcs present at its start time.

Every search returns ``(distances, records)``: the ``kind`` distance per
reachable node, and per reachable node the record of one witness journey,
``(record of the hop before, edge index, crossing time)``, which is None
at the source.  Distances, witnesses and route-count bounds all read
these two as the source's row.  A graph keeps one row, its latest (see
``_search``), so a distance map and the witnesses from the same source,
time, kind and mode run one search, and the row takes the memory of one
search.  A window's indicators walk its sources once and read each row
before the next search (see ``windows.evolve_many``), so they too run one
search per source.  A witness reads its source's row; a witness asked
alone runs the full search and keeps it, so ``tvgkit query`` runs one
search for the witness and the distance it prints.  A shortest or
foremost search stops once every node is settled.

The route-count passes on one graph share their successors: the states
that a ``(node, bound)`` state moves to are computed once per graph, kind,
mode and (fastest) duration limit by ``_MoveTable.moves``, each kind's
one successor rule, and kept on the graph for every later source and hop.
The table gives each state an int id the first time it is met, so a pass
keys its layers by id, and it computes fastest's measure of a state once.
A pass packs each state's through-vector into one int with a slot of W
bits per node: entering a node sets its slot with one shift, subtract and
add, and merging two states is one addition.  No slot exceeds its
state's route count, so while every count stays below 2^(W-1) no sum
carries into the next slot; a pass starts at W = 64 and, the first time
a count reaches 2^(W-1), starts again with 2W.
"""

from __future__ import annotations

import bisect
import heapq
import math
import struct
from itertools import chain, islice
from typing import Iterable, Optional

from .core import TimeVaryingGraph, _check_node, _check_time

KINDS = ("shortest", "foremost", "fastest")

Step = tuple[int, int]  # (edge index, crossing time)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown distance kind {kind!r}")


def _check_query(g: TimeVaryingGraph, kind: str, t: int, *nodes: int) -> None:
    """The argument checks of every search entry point, in one order: the
    kind, then the time, then each node."""
    _check_kind(kind)
    _check_time(g, t)
    for x in nodes:
        _check_node(g, x)


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

    Returns (delay, records) where delay[v] is the minimal last-crossing
    time of a journey u->v departing >= t, minus t.  The search stops once
    every node is settled.
    """
    arrival = {u: t}
    ready = {u: t}
    rec: dict[int, Optional[tuple]] = {u: None}
    heap = [(t, u)]
    done: set[int] = set()
    while heap:
        _, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        if len(done) == g.n:
            break
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
                rec[y] = (rec[x], ei, tp)
                heapq.heappush(heap, (tp, y))
    return {v: a - t for v, a in arrival.items()}, rec


def _layered_states(g: TimeVaryingGraph, u: int, t: int, strict: bool = False):
    """Hop-by-hop search for the least next-crossing bound at each node.

    At hop h a state ``(y, r)`` is dropped when an earlier hop reached y
    with a bound <= r: every continuation is then available in fewer hops.
    So the first hop at which a node enters is its shortest distance.
    Returns (dist, records): dist[x] -> that hop, and records[x] the record
    of x's frontier state at that hop.  The search stops after the hop at
    which every node has entered: later hops only add routes longer than
    any distance read.
    """
    reached = {u: t}  # least bound per node over the hops so far
    dist = {u: 0}
    records: dict[int, Optional[tuple]] = {u: None}
    frontier: dict[int, tuple] = {u: (t, None)}  # node -> (bound, record)
    for h in range(1, g.n):
        nxt: dict[int, tuple] = {}
        for x, (lb, rx) in frontier.items():
            for ei, y in g.out_edges(x):
                tp = g.presence[ei].next_at_or_after(lb)
                if tp is None:
                    continue
                r = tp + 1 if strict else tp
                if y not in nxt or r < nxt[y][0]:
                    nxt[y] = (r, (rx, ei, tp))
        frontier = {y: s for y, s in nxt.items() if s[0] < reached.get(y, math.inf)}
        for y in sorted(frontier):
            reached[y] = frontier[y][0]
            if y not in dist:
                dist[y] = h
                records[y] = frontier[y][1]
        if not frontier or len(dist) == g.n:
            break
    return dist, records


def _critical_ticks(g: TimeVaryingGraph, t: int, before: int, after: int):
    """Ascending ticks of ``[t, end)`` at most ``before`` ticks before or
    ``after`` ticks after ``t`` or a critical time at or after ``t``."""
    times = g.timeline()[0]
    last = g.lifetime.end - 1
    nxt = t
    for c in chain((t,), islice(times, bisect.bisect_right(times, t), None)):
        hi = min(c + after, last)
        yield from range(max(c - before, nxt), hi + 1)
        nxt = max(nxt, hi + 1)


def _fastest_flood(g: TimeVaryingGraph, u: int, t: int, strict: bool = False):
    """Minimal journey duration (arrival - departure) per reachable node.

    One pass over the critical times at or after ``t`` (``t``, interval
    starts and interval last ticks; strict mode adds the ticks within n-1
    of them).  Each node keeps the latest departure of a journey that has
    reached it so far; at each time the source departs, newly opened
    intervals join, and labels spread over the present edges until nothing
    changes (strict: one hop per tick).  A node whose label rises to d at
    time s has a journey of duration s - d; the first time a duration is
    reached it goes with the earliest departure, which wins ties.  No
    duration improves after the last interval start (strict: n-1 ticks
    later), so the pass stops there.  Returns (dur, witness): witness[v]
    is the record of a fastest journey to v, kept when v first reached
    its duration.
    """
    times, opening, closing, longest = g.timeline()
    # the arcs present at t: an interval open at t started in
    # (t - longest, t], so replay those ticks, dropping what closed before t
    live: set[tuple[int, int, int]] = set()
    for c in times[bisect.bisect_right(times, t - longest) : bisect.bisect_right(times, t)]:
        live.update(opening.get(c, ()))
        if c < t:
            live.difference_update(closing.get(c, ()))
    # present[x]: {edge: head} of the arcs out of x present at the current
    # tick, in edge order
    present: list[dict[int, int]] = [{} for _ in range(g.n)]
    for x, ei, y in sorted(live):
        present[x][ei] = y
    label = [t - 1] * g.n  # latest departure reaching each node; t - 1: none yet
    rec: list[Optional[tuple]] = [None] * g.n
    dur = {u: 0}
    witness: dict[int, Optional[tuple]] = {u: None}
    # the strict hops of a journey between two critical times can move to
    # just after the earlier one or just before the later one; after the
    # last interval start, to just after it, so nothing improves later
    hops = g.n - 1 if strict else 0
    horizon = max([t, *opening]) + hops
    waiting: list[int] = []  # strict: raised at the last visited tick
    for s in _critical_ticks(g, t, hops, hops):
        if s > horizon:
            break
        label[u] = s
        seeds = {u, *waiting}
        for x, ei, y in opening.get(s, ()):
            present[x][ei] = y
            if label[x] > label[y]:
                seeds.add(x)
        # max-first, so a node rises at most once per tick; the (label,
        # node) pairs are distinct, so records are never compared
        waiting = []
        for d, x, r in sorted(((label[x], x, rec[x]) for x in seeds), reverse=True):
            if d < label[x] and not strict:
                continue  # x rose since; strict crosses with its old label
            queue = [(x, r)]
            for x, r in queue:  # grows as it goes: breadth-first
                for ei, y in present[x].items():
                    if label[y] < d:
                        label[y] = d
                        rec[y] = ry = (r, ei, s)
                        if y not in dur or s - d < dur[y]:
                            dur[y] = s - d
                            witness[y] = ry
                        if strict:
                            waiting.append(y)
                        else:
                            queue.append((y, ry))
        for x, ei, _ in closing.get(s, ()):
            del present[x][ei]
    return dur, witness


#: distance kind -> its search: (g, u, t, strict) -> (distances, records)
_SEARCHES = {
    "shortest": _layered_states,
    "foremost": _earliest_arrival,
    "fastest": _fastest_flood,
}


def _search(g: TimeVaryingGraph, u: int, t: int, kind: str, strict: bool):
    """``_SEARCHES[kind]``'s ``(distances, records)`` from ``u`` at ``t``.

    The graph keeps the result as its one row, so a later read with the
    same source, time, kind and mode runs no search; any other search
    replaces it.  Callers read the row and never change it.
    """
    key = (u, t, kind, strict)
    if g._row is not None and g._row[0] == key:
        return g._row[1]
    row = _SEARCHES[kind](g, u, t, strict)
    g._row = (key, row)
    return row


def temporal_view(
    g: TimeVaryingGraph, u: int, v: int, t: int, strict: bool = False
) -> Optional[int]:
    """Latest departure at ``u`` of a journey to ``v`` arriving by ``t``, or None."""
    _check_time(g, t)
    _check_node(g, u)
    _check_node(g, v)
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
        if y == u:
            return latest[u]  # settled: no later pop departs later
        done.add(y)
        cap = latest[y]
        if strict and y != v:
            cap -= 1
        for ei, x in g.in_edges(y):
            if x in done:
                continue
            tp = g.presence[ei].latest_at_or_before(cap)
            if tp is None:
                continue
            if x not in latest or tp > latest[x]:
                latest[x] = tp
                heapq.heappush(heap, (-tp, x))
    return None


def witness_journey(
    g: TimeVaryingGraph, u: int, v: int, t: int, kind: str, strict: bool = False
) -> Optional[list[Step]]:
    """One journey achieving the ``kind`` distance from u to v at t, or None.

    Unwinds v's record from u's row (see ``_search``): shortest from the
    hop at which v first enters the pruned layers, foremost from v's
    earliest arrival, fastest from the tick at which v first reached its
    duration, so it departs at the earliest departure of any fastest
    journey.  A witness asked alone runs the full search and keeps it.
    """
    _check_query(g, kind, t, u, v)
    if u == v:
        return []
    records = _search(g, u, t, kind, strict)[1]
    if v not in records:
        return None
    r = records[v]
    steps = []
    while r is not None:
        r, ei, tp = r
        steps.append((ei, tp))
    return steps[::-1]


def distance_map(
    g: TimeVaryingGraph, u: int, t: int, kind: str, strict: bool = False
) -> dict[int, int]:
    """The ``kind`` distance from ``u`` at ``t`` per reachable node
    (unreachable nodes absent): the fewest hops (shortest), the least
    arrival delay after ``t`` (foremost) or the least duration (fastest)
    over journeys departing at or after ``t``.  The map is a copy of u's
    row (see ``_search``), the caller's to change."""
    _check_query(g, kind, t, u)
    return dict(_search(g, u, t, kind, strict)[0])


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


class _MoveTable:
    """One graph's route-move table for one ``(kind, strict, limit)``.

    Every ``(node, bound)`` state gets an int id the first time a pass
    meets it (``ids``).  Per id the table holds the state's node, its
    bound, the ids of the states it moves to (None until a pass first
    leaves it; foremost's ascend in bound) and, for fastest, its measure:
    the least ``bound - departure`` over its Pareto pairs (None at the
    start state, which has not departed, and for the other kinds).
    """

    __slots__ = ("kind", "strict", "limit", "ids", "node", "bound", "succ", "measure", "_words")

    def __init__(self, n: int, kind: str, strict: bool, limit):
        self.kind, self.strict, self.limit = kind, strict, limit
        self._words = struct.Struct(f"<{n}Q")
        self.ids: dict[tuple, int] = {}
        self.node: list[int] = []
        self.bound: list = []
        self.succ: list[Optional[tuple[int, ...]]] = []
        self.measure: list[Optional[int]] = []

    def intern(self, keys: Iterable[tuple]) -> list[int]:
        """The ids of the states ``keys``, each ``(node, bound)``; a new
        state is added."""
        ids, fastest, late = self.ids, self.kind == "fastest", int(self.strict)
        out = []
        for key in keys:
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(self.node)
                x, bound = key
                self.node.append(x)
                self.bound.append(bound)
                self.succ.append(None)
                self.measure.append(
                    min(r - late - dep for dep, r in bound)
                    if fastest and bound[0][0] is not None
                    else None
                )
            out.append(i)
        return out

    def moves(self, g: TimeVaryingGraph, i: int) -> tuple[int, ...]:
        """The ids of the states that state ``i`` moves to, computed on
        first use: per out-edge it can cross, in edge order (foremost's then
        sorted by bound), the head with the next bound, which for fastest is
        the Pareto set that ``_fastest_step`` keeps under the limit."""
        state, fastest = self.bound[i], self.kind == "fastest"
        out = []
        for ei, y in g.out_edges(self.node[i]):
            p = g.presence[ei]
            if fastest:
                new = _fastest_step(state, p, self.strict, self.limit)
                if new:
                    out.append((y, new))
            else:
                tp = p.next_at_or_after(state)
                if tp is not None:
                    out.append((y, tp + 1 if self.strict else tp))
        out = self.intern(out)
        if self.kind == "foremost":
            out.sort(key=self.bound.__getitem__)
        self.succ[i] = out = tuple(out)
        return out

    def unpack(self, packed: int, width: int) -> tuple[int, ...]:
        """The n slots of ``width`` bits of ``packed``, lowest first: at 64
        bits one conversion to bytes and back, above it one shift per slot."""
        words = self._words
        if width == 64:
            return words.unpack(packed.to_bytes(words.size, "little"))
        mask = (1 << width) - 1
        return tuple((packed >> (width * q)) & mask for q in range(words.size // 8))


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
    than the largest fastest distance.  A state at node v adds its routes
    to v's total only when they are minimal: for shortest, at the first
    hop that reaches v; for foremost and fastest, when its measure (its
    arrival after ``t``, or the least duration of its pairs) equals v's
    distance in u's row.  So a total never compares measures.

    The passes on one graph share its route-move table: the states a state
    moves to (``_MoveTable.moves``) depend on the kind, the strictness and
    fastest's limit, not on the hop or the source.
    Foremost's latest crossing and shortest's earlier hops filter what the
    table returns.  That crossing and fastest's limit are read from u's row
    (see ``_search``).
    """
    _check_query(g, kind, t, u)
    n = g.n
    start = t
    horizon = best = limit = None
    if kind != "shortest":
        # no minimal route is longer than the largest distance
        best = _search(g, u, t, kind, strict)[0]
        longest = max(best.values())
        # foremost: the latest bound of a minimal route (it crosses by t + longest)
        horizon = t + longest + 1 if strict else t + longest
    if kind == "fastest":
        limit = longest
        # optimal fastest journeys depart at interval starts (waiting for an
        # edge) or last ticks (leaving just before one closes); strict ordering
        # forces one tick per hop, so each also shifts earlier by up to n - 1
        start = tuple((None, s) for s in _critical_ticks(g, t, n - 1 if strict else 0, 0))
    table = g._route_moves.get((kind, strict, limit))
    if table is None:
        table = g._route_moves[kind, strict, limit] = _MoveTable(n, kind, strict, limit)
    (first,) = table.intern([(u, start)])
    width = 64
    while (totals := _count_routes(g, table, first, t, best, horizon, width)) is None:
        width *= 2
    out = {u: (0, 1, (0,) * n)}
    out.update((v, (m, c, table.unpack(thr, width))) for v, (m, c, thr) in totals.items())
    return out


def _count_routes(
    g: TimeVaryingGraph,
    table: _MoveTable,
    first: int,
    t: int,
    best: Optional[dict[int, int]],
    horizon: Optional[int],
    width: int,
) -> Optional[dict[int, list]]:
    """The pass of ``minimal_route_counts`` from state ``first``: per target
    ``[distance, routes, through]``, with ``through`` packed in one int,
    ``width`` bits per node (see ``_MoveTable.unpack``); None once a count
    reaches ``2 ** (width - 1)``.

    No slot of a through-vector exceeds its state's route count.  Every
    sum adds two counts below ``2 ** (width - 1)``, so no slot of the
    summed vectors reaches ``2 ** width`` and nothing carries into the
    next slot.
    """
    node, bound, succ, measure = table.node, table.bound, table.succ, table.measure
    n, u = g.n, node[first]
    cap, low = 1 << (width - 1), (1 << width) - 1
    kind, late = table.kind, int(table.strict)
    foremost, shortest = kind == "foremost", kind == "shortest"
    reached = {u: t}  # shortest: least bound per node over earlier hops
    layer = {first: (1, 0)}
    totals: dict[int, list] = {}
    for h in range(1, n):
        nxt: dict[int, tuple[int, int]] = {}
        for i, (c, thr) in layer.items():
            x = node[i]
            if x != u:  # every route of the state leaves x: slot x becomes c
                at = width * x
                thr += (c - ((thr >> at) & low)) << at
            moves = succ[i]
            if moves is None:
                moves = table.moves(g, i)
            for j in moves:
                if foremost and bound[j] > horizon:
                    break
                if shortest and reached.get(node[j], math.inf) <= bound[j]:
                    continue
                acc = nxt.get(j)
                if acc is None:
                    nxt[j] = (c, thr)
                else:
                    total = acc[0] + c
                    if total >= cap:
                        return None
                    nxt[j] = (total, acc[1] + thr)
        for j, (c, thr) in nxt.items():
            y = node[j]
            if y == u:
                continue  # the empty route is the only minimal route to the source
            # only a state that ends minimal routes adds to its node's total
            if shortest:
                if y in reached:
                    continue
                m = h
            else:
                m = bound[j] - late - t if foremost else measure[j]
                if m != best[y]:
                    continue
            acc = totals.get(y)
            if acc is None:
                totals[y] = [m, c, thr]
            else:
                acc[1] += c
                if acc[1] >= cap:
                    return None
                acc[2] += thr
        if shortest:
            for j in nxt:
                y, r = node[j], bound[j]
                if y not in reached or r < reached[y]:
                    reached[y] = r
        layer = nxt
        if not layer:
            break
    return totals
