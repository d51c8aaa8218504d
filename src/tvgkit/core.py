"""Core time-varying graph model.

A time-varying graph (TVG) is a node set plus a collection of edges, each
carrying a presence set: the sub-intervals of the graph lifetime during
which the edge exists.  Time is measured in integer ticks whose unit is the
caller's convention (seconds, days, ...).  All intervals are half-open
``[a, b)``.

A graph keeps one index of its intervals by time, its :class:`Timeline`;
this module imports no numpy.
"""

from __future__ import annotations

import bisect
import functools
import gc
from dataclasses import dataclass
from itertools import chain, starmap
from operator import eq
from typing import Iterable, NamedTuple, Optional, Sequence


@dataclass(frozen=True)
class Lifetime:
    """Half-open time span ``[start, end)`` of a system."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"empty lifetime [{self.start}, {self.end})")

    def __contains__(self, t: int) -> bool:
        return self.start <= t < self.end

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Edge:
    """Edge endpoints plus an optional opaque label distinguishing parallel edges."""

    u: int
    v: int
    label: Optional[str] = None


class PresenceSet:
    """Sorted, disjoint, non-adjacent half-open integer intervals.

    Supports O(log k) membership and next/previous presence-time queries.
    The interval starts and ends are kept in two tuples of ints: smaller
    than lists, never changed after construction, and left untracked by the
    cyclic garbage collector after its first pass over them.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[tuple[int, int]]):
        intervals = sorted(intervals)
        for a, b in intervals:
            if a >= b:
                raise ValueError(f"empty interval [{a}, {b})")
        self._starts, self._ends = _union(intervals)

    @classmethod
    def _checked(cls, bounds: list[int]) -> "PresenceSet":
        """The union of the intervals ``[a0, b0), [a1, b1), ...`` of the
        flat list ``bounds = [a0, b0, a1, b1, ...]``, each of which the
        caller has already checked to be non-empty; a single interval
        needs no sort."""
        p = cls.__new__(cls)
        if len(bounds) == 2:
            p._starts, p._ends = (bounds[0],), (bounds[1],)
        else:
            p._starts, p._ends = _union(sorted(zip(bounds[::2], bounds[1::2])))
        return p

    @property
    def intervals(self) -> list[tuple[int, int]]:
        return list(zip(self._starts, self._ends))

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PresenceSet)
            and self._starts == other._starts
            and self._ends == other._ends
        )

    def __hash__(self):
        return hash((self._starts, self._ends))

    def __repr__(self):
        body = " u ".join(f"[{a},{b})" for a, b in self.intervals)
        return f"PresenceSet({body or 'empty'})"

    def __contains__(self, t: int) -> bool:
        i = bisect.bisect_right(self._starts, t) - 1
        return i >= 0 and t < self._ends[i]

    def next_at_or_after(self, t: int) -> Optional[int]:
        """Smallest present instant >= t, or None."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i >= 0 and t < self._ends[i]:
            return t
        if i + 1 < len(self._starts):
            return self._starts[i + 1]
        return None

    def latest_at_or_before(self, t: int) -> Optional[int]:
        """Largest present instant <= t, or None."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return None
        if t < self._ends[i]:
            return t
        return self._ends[i] - 1

    def clip(self, a: int, b: int) -> "PresenceSet":
        """Intersection with the window ``[a, b)``."""
        # the intervals that meet the window; only the first and last can
        # stick out of it, and clipping them leaves them non-empty
        lo = bisect.bisect_right(self._ends, a)
        hi = bisect.bisect_left(self._starts, b)
        p = PresenceSet.__new__(PresenceSet)
        starts, ends = self._starts[lo:hi], self._ends[lo:hi]
        if lo < hi:
            if starts[0] < a:
                starts = (a,) + starts[1:]
            if ends[-1] > b:
                ends = ends[:-1] + (b,)
        p._starts, p._ends = starts, ends
        return p

    def intersects(self, a: int, b: int) -> bool:
        i = bisect.bisect_right(self._ends, a)
        return i < len(self._starts) and self._starts[i] < b


def _union(intervals: list[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Starts and ends of the union of sorted non-empty intervals."""
    starts: list[int] = []
    ends: list[int] = []
    for a, b in intervals:
        if ends and a <= ends[-1]:  # overlap or adjacency: merge
            if b > ends[-1]:
                ends[-1] = b
        else:
            starts.append(a)
            ends.append(b)
    return tuple(starts), tuple(ends)


def _collector_paused(fn):
    """``fn`` run with the cyclic garbage collector paused.

    Graph building allocates tens of thousands of container objects (edges,
    presence sets, event tuples), none of them in a reference cycle, and
    every collection they trigger would also walk every graph still alive.
    The collector is re-enabled on exit only if it was enabled on entry, so
    an error, a nested pause or a caller that had it off find it as it was.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class Timeline(NamedTuple):
    """When the presence intervals of a graph open and close.

    ``times`` are the sorted distinct instants at which some interval
    starts or has its last tick; ``opening[a]`` and ``closing[a]`` list the
    arcs ``(tail, edge index, head)`` of the intervals starting at ``a`` and
    of those whose last tick is ``a`` (both directions when undirected).
    ``longest`` is the length of the graph's longest interval, 0 when it
    has none: an interval that starts ``longest`` or more ticks before
    ``t`` has closed by ``t``.
    """

    times: list[int]
    opening: dict[int, list[tuple[int, int, int]]]
    closing: dict[int, list[tuple[int, int, int]]]
    longest: int


class TimeVaryingGraph:
    """Immutable TVG: node count, edge list, and one presence set per edge.

    The constructor checks that there is one presence set per edge, that
    every endpoint lies in ``[0, n)``, that no edge is a self-loop and that
    every interval lies in the lifetime; parallel edges are allowed.
    ``build_tvg``, ``temporal_subgraph`` and ``restrict_nodes``, whose
    parts are checked by construction, skip these checks.

    What only journey searches read is built on first use and then kept,
    since the graph is immutable: the out- and in-adjacency behind
    :meth:`out_edges` and :meth:`in_edges`, the :meth:`timeline` and, per
    distance kind, mode and fastest limit, the route-move table that every
    route-count pass on the graph shares: each state met so far as an int
    id, with its node, bound, successor ids and fastest's measure (see
    ``journeys._MoveTable``).
    Searches keep one row too: the latest search's ``(distances,
    records)``, which the next search replaces (see ``journeys._search``).
    A graph that only feeds footprints builds none of them, and graphs
    made from a graph (``temporal_subgraph``, ``restrict_nodes``) start
    without them.
    """

    def __init__(
        self,
        n: int,
        directed: bool,
        lifetime: Lifetime,
        edges: Sequence[Edge],
        presence: Sequence[PresenceSet],
    ):
        if len(edges) != len(presence):
            raise ValueError("edges and presence lists differ in length")
        for e, p in zip(edges, presence):
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"edge ({e.u},{e.v}) has an endpoint outside [0,{n})")
            if e.u == e.v:
                raise ValueError(f"self-loop ({e.u}, {e.v}) rejected")
            for a, b in p.intervals:
                if a < lifetime.start or b > lifetime.end:
                    raise ValueError(
                        f"interval [{a},{b}) of edge ({e.u},{e.v}) outside lifetime"
                    )
        self._assign(n, directed, lifetime, edges, presence)

    @classmethod
    def _trusted(cls, *parts) -> "TimeVaryingGraph":
        """The graph of the constructor's arguments ``parts``, which the
        caller has already checked as the constructor would."""
        g = cls.__new__(cls)
        g._assign(*parts)
        return g

    def _assign(self, n, directed, lifetime, edges, presence) -> None:
        # every graph, checked or trusted, is built here
        self.n = n
        self.directed = directed
        self.lifetime = lifetime
        self.edges = tuple(edges)
        self.presence = tuple(presence)
        self._timeline: Optional[Timeline] = None
        # (kind, strict, limit) -> ``journeys._MoveTable``: every route-count
        # state met so far as an int id, with its node, bound, successor ids
        # and (fastest) measure; filled by ``journeys.minimal_route_counts``
        self._route_moves: dict[tuple, object] = {}
        # the latest search row, ((source, t, kind, strict), (distances,
        # records)), kept by ``journeys._search``
        self._row: Optional[tuple] = None

    def _build_adjacency(self) -> None:
        # out- and in-adjacency; undirected, one list with both directions
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        radj = [[] for _ in range(self.n)] if self.directed else adj
        for (x, ei, y), _ in _arcs(self):
            adj[x].append((ei, y))
            if self.directed:
                radj[y].append((ei, x))
        self._adj = adj
        self._radj = radj

    # the adjacency is an attribute once built, so the searches' innermost
    # loops pay no check for it
    def out_edges(self, u: int) -> list[tuple[int, int]]:
        """(edge index, neighbor) pairs usable when standing at ``u``."""
        try:
            return self._adj[u]
        except AttributeError:
            self._build_adjacency()
            return self._adj[u]

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        try:
            return self._radj[v]
        except AttributeError:
            self._build_adjacency()
            return self._radj[v]

    def timeline(self) -> Timeline:
        """The graph's :class:`Timeline`, built on first use: the graph is
        immutable, so one build serves every journey search on it."""
        if self._timeline is None:
            self._timeline = _build_timeline(self)
        return self._timeline

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TimeVaryingGraph)
            and self.n == other.n
            and self.directed == other.directed
            and self.lifetime == other.lifetime
            and sorted(zip(self.edges, self.presence), key=_edge_key)
            == sorted(zip(other.edges, other.presence), key=_edge_key)
        )

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (
            f"TimeVaryingGraph(n={self.n}, {kind}, "
            f"lifetime=[{self.lifetime.start},{self.lifetime.end}), "
            f"{len(self.edges)} edges)"
        )


def _arcs(g: TimeVaryingGraph):
    """Each arc ``(tail, edge index, head)`` with its presence set, in edge
    order; an undirected edge is two arcs, ``u -> v`` first."""
    for ei, (e, p) in enumerate(zip(g.edges, g.presence)):
        yield (e.u, ei, e.v), p
        if not g.directed:
            yield (e.v, ei, e.u), p


def _build_timeline(g: TimeVaryingGraph) -> Timeline:
    opening: dict[int, list[tuple[int, int, int]]] = {}
    closing: dict[int, list[tuple[int, int, int]]] = {}
    for arc, p in _arcs(g):
        for a in p._starts:
            opening.setdefault(a, []).append(arc)
        for b in p._ends:
            closing.setdefault(b - 1, []).append(arc)
    longest = max((b - a for p in g.presence for a, b in zip(p._starts, p._ends)), default=0)
    return Timeline(sorted(opening.keys() | closing.keys()), opening, closing, longest)


def _edge_key(item):
    e, p = item
    return (e.u, e.v, e.label or "", tuple(p.intervals))


class Footprint:
    """Static aggregation of a TVG over a window ``[t1, t2)``.

    ``nodes`` is the node universe used as |V| by the indicator formulas:
    the full node set for ``footprint``, or the active nodes (see
    :func:`active_nodes`) under the windowed sweep's ``active`` policy.

    In the undirected view, :meth:`degrees` and :meth:`links` give per
    node its neighbour count and the number of edges among its neighbours
    (the triangles at the node).  The windowed sweep
    (``windows.footprint_sequence``) keeps both up to date as edges enter
    and leave the window and hands them over ready-made; a footprint built
    by the constructor validates its edges and counts both from
    :meth:`adjacency` when first asked.
    """

    def __init__(
        self,
        nodes: Iterable[int],
        directed: bool,
        edges: Iterable[tuple[int, int]],
        window: tuple[int, int],
    ):
        self.nodes = tuple(sorted(set(nodes)))
        self.directed = directed
        if directed:
            self.edges = frozenset(edges)
        else:
            self.edges = frozenset(
                (u, v) if u < v else (v, u) for u, v in edges
            )
        stray = set(chain.from_iterable(self.edges)).difference(self.nodes)
        if stray:
            e = min(e for e in self.edges if not stray.isdisjoint(e))
            raise ValueError(f"edge {e} has an endpoint outside the node universe")
        if any(starmap(eq, self.edges)):
            e = min(e for e in self.edges if e[0] == e[1])
            raise ValueError(f"self-loop {e} rejected")
        self.window = window
        self._undirected: Optional[frozenset[tuple[int, int]]] = None
        self._bits: Optional[list[int]] = None
        self._degree: Optional[dict[int, int]] = None
        self._links: Optional[dict[int, int]] = None

    @classmethod
    def _swept(
        cls,
        nodes: Iterable[int],
        directed: bool,
        edges: Iterable[tuple[int, int]],
        window: tuple[int, int],
        degrees: dict[int, int],
        links: dict[int, int],
    ) -> "Footprint":
        """A footprint of the windowed sweep, which has already checked and
        canonicalized ``edges``, sorted ``nodes`` and counted ``degrees`` and
        ``links`` for them."""
        f = cls.__new__(cls)
        f.nodes, f.directed, f.window = tuple(nodes), directed, window
        f.edges = frozenset(edges)
        f._undirected = f._bits = None
        f._degree, f._links = degrees, links
        return f

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Edge count: directed arcs, or undirected edges (each once)."""
        return len(self.edges)

    def undirected_edges(self) -> frozenset[tuple[int, int]]:
        """Underlying simple undirected edge set."""
        if not self.directed:
            return self.edges
        if self._undirected is None:
            self._undirected = frozenset(
                (u, v) if u < v else (v, u) for u, v in self.edges
            )
        return self._undirected

    def adjacency(self) -> list[int]:
        """Per node position in ``nodes``: bitmask of its neighbours' positions
        in the undirected view."""
        if self._bits is None:
            index = {x: i for i, x in enumerate(self.nodes)}
            bits = [0] * len(self.nodes)
            for u, v in self.undirected_edges():
                i, j = index[u], index[v]
                bits[i] |= 1 << j
                bits[j] |= 1 << i
            self._bits = bits
        return self._bits

    def _check_node(self, x: int) -> None:
        if x not in self.degrees():
            raise ValueError(f"node {x} is not in the footprint's node universe")

    def degree(self, x: int) -> int:
        self._check_node(x)
        return self._degree[x]

    def degrees(self) -> dict[int, int]:
        """Degree per node of the universe in the undirected view."""
        if self._degree is None:
            self._degree = {
                x: b.bit_count() for x, b in zip(self.nodes, self.adjacency())
            }
        return self._degree

    def links(self) -> dict[int, int]:
        """Edges among the neighbours of each node of the universe in the
        undirected view."""
        if self._links is None:
            index = {x: i for i, x in enumerate(self.nodes)}
            pairs = ((index[u], index[v]) for u, v in self.undirected_edges())
            self._links = dict(zip(self.nodes, _count_links(pairs, self.adjacency())))
        return self._links

    def __eq__(self, other):
        return (
            isinstance(other, Footprint)
            and self.nodes == other.nodes
            and self.directed == other.directed
            and self.edges == other.edges
            and self.window == other.window
        )

    def __repr__(self):
        a, b = self.window
        return (
            f"Footprint([{a},{b}), {len(self.nodes)} nodes, "
            f"{len(self.edges)} edges)"
        )


@_collector_paused
def build_tvg(
    n: int,
    directed: bool,
    lifetime: Lifetime,
    events: Iterable[tuple],
) -> TimeVaryingGraph:
    """Build a TVG from ``(u, v, a, b[, label])`` contact events.

    Overlapping and adjacent intervals of the same (u, v, label) edge are
    unioned; for undirected graphs endpoints are canonicalized to u < v.
    Runs with the cyclic garbage collector paused, and leaves it enabled or
    disabled as it found it, also when it raises.
    """
    # per edge, its intervals as one flat list [a0, b0, a1, b1, ...]
    by_edge: dict[tuple[int, int, Optional[str]], list[int]] = {}
    for rec in events:
        if len(rec) == 5:
            u, v, a, b, label = rec
        elif len(rec) == 4:
            u, v, a, b = rec
            label = None
        else:
            raise ValueError(f"malformed event record {rec!r}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"node id out of range in event {rec!r}")
        if u == v:
            raise ValueError(f"self-loop rejected in event {rec!r}")
        if a >= b:
            raise ValueError(f"empty or inverted interval in event {rec!r}")
        if a < lifetime.start or b > lifetime.end:
            raise ValueError(f"event outside lifetime in event {rec!r}")
        if not directed and u > v:
            u, v = v, u
        bounds = by_edge.get((u, v, label))
        if bounds is None:
            by_edge[u, v, label] = [a, b]
        else:
            bounds += (a, b)
    edges = []
    presence = []
    for (u, v, label), bounds in sorted(
        by_edge.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or "")
    ):
        edges.append(Edge(u, v, label))
        presence.append(PresenceSet._checked(bounds))
    return TimeVaryingGraph._trusted(n, directed, lifetime, edges, presence)


def _check_time(g: TimeVaryingGraph, t: int) -> None:
    if t not in g.lifetime:
        raise ValueError(f"t={t} outside lifetime [{g.lifetime.start},{g.lifetime.end})")


def _check_node(g: TimeVaryingGraph, u: int) -> None:
    if not 0 <= u < g.n:
        raise ValueError(f"node {u} outside [0,{g.n})")


def _check_window(g: TimeVaryingGraph, t1: int, t2: int) -> None:
    if t1 >= t2:
        raise ValueError(f"empty or inverted window [{t1}, {t2})")
    if t1 < g.lifetime.start or t2 > g.lifetime.end:
        raise ValueError(f"window [{t1},{t2}) outside lifetime")


def presence(g: TimeVaryingGraph, e: int, t: int) -> bool:
    """Whether edge ``e`` (by index) is present at instant ``t``."""
    if not 0 <= e < len(g.edges):
        raise ValueError(f"edge {e} outside [0,{len(g.edges)})")
    _check_time(g, t)
    return t in g.presence[e]


def footprint(g: TimeVaryingGraph, t1: int, t2: int) -> Footprint:
    """Static graph of edges present at least once during ``[t1, t2)``."""
    _check_window(g, t1, t2)
    pairs = [
        (e.u, e.v)
        for e, p in zip(g.edges, g.presence)
        if p.intersects(t1, t2)
    ]
    return Footprint(range(g.n), g.directed, pairs, (t1, t2))


def temporal_subgraph(g: TimeVaryingGraph, t1: int, t2: int) -> TimeVaryingGraph:
    """TVG restricted to lifetime ``[t1, t2)``; edges never present there are dropped."""
    _check_window(g, t1, t2)
    edges = []
    presence_sets = []
    for e, p in zip(g.edges, g.presence):
        clipped = p.clip(t1, t2)
        if clipped:
            edges.append(e)
            presence_sets.append(clipped)
    return TimeVaryingGraph._trusted(
        g.n, g.directed, Lifetime(t1, t2), edges, presence_sets
    )


def restrict_nodes(g: TimeVaryingGraph, nodes: Iterable[int]) -> TimeVaryingGraph:
    """TVG induced on ``nodes`` (relabelled densely, in ascending order)."""
    keep = sorted(set(nodes))
    for x in keep[:1] + keep[-1:]:  # sorted: only the ends can be outside
        _check_node(g, x)
    index = {x: i for i, x in enumerate(keep)}
    edges = []
    presence_sets = []
    for e, p in zip(g.edges, g.presence):
        if e.u in index and e.v in index:
            edges.append(Edge(index[e.u], index[e.v], e.label))
            presence_sets.append(p)
    return TimeVaryingGraph._trusted(
        len(index), g.directed, g.lifetime, edges, presence_sets
    )


def _count_links(pairs: Iterable[tuple[int, int]], bits: list[int]) -> list[int]:
    """Edges among the neighbours of each position, given each undirected
    pair of positions once and per position the bitmask of its neighbours.

    The neighbours a pair's ends share close a triangle at both ends, and
    every triangle at a position is seen from both of its edges there.
    """
    links = [0] * len(bits)
    for i, j in pairs:
        c = (bits[i] & bits[j]).bit_count()
        links[i] += c
        links[j] += c
    return [c // 2 for c in links]


def active_nodes(f: Footprint) -> set[int]:
    """Nodes of the footprint with at least one adjacent edge."""
    return set(chain.from_iterable(f.edges))
