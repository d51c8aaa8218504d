"""Window decomposition of a TVG lifetime and windowed indicator series.

The lifetime is cut into consecutive (or sliding) half-open windows; each
window yields either a footprint (for atemporal indicators) or a temporal
subgraph (for journey-based indicators); ``evolve`` / ``evolve_many``,
the one windowed loop, turn each indicator into a per-window series.
Footprints slide from window to window by counting, per footprint edge,
the presence intervals that meet the window: each interval is read once,
and the edges whose count rises from or falls to 0 update per-node
degrees and link counts (``Footprint.degrees``, ``Footprint.links``),
ready-made per footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator, Optional, Sequence

from . import static_metrics as sm
from . import temporal_metrics as tm
from .core import (
    Footprint,
    Lifetime,
    TimeVaryingGraph,
    _count_links,
    restrict_nodes,
    temporal_subgraph,
)
from .journeys import _check_kind

Window = tuple[int, int]
#: node universe of each window: every node, or those with an edge in it
NODE_POLICIES = ("all", "active")
#: per-node reductions of the temporal indicators (diameter ignores them)
REDUCERS = ("mean", "max", "std")


@dataclass(frozen=True)
class WindowSpec:
    """Length/stride decomposition of a lifetime.

    ``stride == length`` gives a disjoint partition; ``stride < length``
    gives overlapping (sliding) windows.  Windows start at the lifetime
    start.
    """

    length: int
    stride: Optional[int] = None

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"window length must be positive, got {self.length}")
        stride = self.length if self.stride is None else self.stride
        if stride <= 0:
            raise ValueError(f"window stride must be positive, got {stride}")
        if stride > self.length:
            raise ValueError(
                f"stride {stride} > length {self.length} would leave gaps"
            )
        object.__setattr__(self, "stride", stride)


@dataclass
class IndicatorSeries:
    """Named per-window indicator values; NaN marks undefined-in-window."""

    name: str
    windows: list[Window]
    values: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.windows) != len(self.values):
            raise ValueError("windows and values differ in length")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.windows, self.values))


def windows_of(lifetime: Lifetime, spec: WindowSpec) -> list[Window]:
    """Windows covering the lifetime from its start.

    The tail window is clipped to the lifetime, not dropped.
    """
    out: list[Window] = []
    s = lifetime.start
    while s < lifetime.end:
        out.append((s, min(s + spec.length, lifetime.end)))
        if out[-1][1] >= lifetime.end:
            break
        s += spec.stride
    return out


def _check_policy(node_policy: str) -> None:
    if node_policy not in NODE_POLICIES:
        raise ValueError(f"unknown node policy {node_policy!r}")


def _count(counts: dict, keys_in: list, keys_out: list) -> tuple[list, list]:
    """Add one to the count of each of ``keys_in``, then take one from each
    of ``keys_out``; the keys whose count rose from 0, and those whose count
    fell to 0 (and that leave ``counts``)."""
    rose, fell = [], []
    for key in keys_in:
        c = counts.get(key, 0)
        counts[key] = c + 1
        if not c:
            rose.append(key)
    for key in keys_out:
        c = counts[key] - 1
        if c:
            counts[key] = c
        else:
            del counts[key]
            fell.append(key)
    return rose, fell


def _footprints(
    g: TimeVaryingGraph, spec: WindowSpec, wins: list[Window], node_policy: str
) -> Iterator[Footprint]:
    """The footprint of each of ``wins`` (the windows of ``spec``), in order.

    Window j is ``[first + j*stride, first + j*stride + length)`` clipped
    to the lifetime, so an interval ``[s, t)`` meets exactly the windows j
    with ``first + j*stride < t`` and ``s < first + j*stride + length``.
    One pass over the presence intervals files each interval's footprint
    edge as entering at the first window it meets and leaving after its
    last.  The sweep then counts, per footprint edge, its intervals that
    meet the window, adding the entries before taking the exits: an edge is
    in the footprint while its count is positive, whichever of its
    intervals, or of its labelled parallel edges' intervals, meet the
    window.  A directed graph counts the same way, per undirected pair, its
    arcs in the window.  Per node id the sweep keeps the neighbour bitmask
    and the edges among the neighbours (see ``Footprint.links``).  A
    window's link counts follow its changed pairs and their common
    neighbours, or, when those outnumber its pairs, are recounted over its
    pairs, the work of a footprint built on its own.
    """
    first, stride, length = g.lifetime.start, spec.stride, spec.length
    n, directed, last = g.n, g.directed, len(wins) - 1
    enter: list[list[tuple[int, int]]] = [[] for _ in wins]
    leave: list[list[tuple[int, int]]] = [[] for _ in range(last + 2)]
    for e, p in zip(g.edges, g.presence):
        uv = (e.u, e.v) if directed or e.u < e.v else (e.v, e.u)
        for s, t in p.intervals:
            # the first and one past the last window that [s, t) meets; it
            # meets at least one, as the windows cover the lifetime
            enter[max(0, (s - length - first) // stride + 1)].append(uv)
            leave[min(last, (t - 1 - first) // stride) + 1].append(uv)
    # per footprint edge and per undirected pair, its intervals or arcs in
    # the window; the keys are the window's edges and pairs
    present: dict[tuple[int, int], int] = {}
    pairs = {} if directed else present
    bits, links = [0] * n, [0] * n
    for win, e_in, e_out in zip(wins, enter, leave):
        p_in, p_out = _count(present, e_in, e_out)
        if directed:  # the arcs that came and went, counted per pair
            p_in = [(u, v) if u < v else (v, u) for u, v in p_in]
            p_out = [(u, v) if u < v else (v, u) for u, v in p_out]
            p_in, p_out = _count(pairs, p_in, p_out)
        # the pairs that vanish or appear, with the neighbours their ends
        # share then (a triangle at both ends and at each common neighbour),
        # as long as following them is less work than recounting every pair
        flips: list[tuple[int, int, int, int]] = []
        budget = len(pairs)
        for batch, sign in ((p_out, -1), (p_in, 1)):
            for u, v in batch:
                if budget >= 0:
                    common = bits[u] & bits[v]  # never holds u or v: no self-loops
                    if common:
                        budget -= 1 + common.bit_count()
                        flips.append((u, v, sign, common))
                bits[u] ^= 1 << v
                bits[v] ^= 1 << u
        if budget >= 0:
            for u, v, sign, common in flips:
                c = sign * common.bit_count()
                links[u] += c
                links[v] += c
                while common:
                    w = common.bit_length() - 1
                    links[w] += sign
                    common ^= 1 << w
        else:
            links = _count_links(pairs, bits)
        deg = [b.bit_count() for b in bits]
        if node_policy == "all":
            nodes = range(n)
            d, k = dict(enumerate(deg)), dict(enumerate(links))
        else:
            nodes = list(compress(range(n), deg))
            d = dict(zip(nodes, compress(deg, deg)))
            k = dict(zip(nodes, compress(links, deg)))
        yield Footprint._swept(nodes, directed, present, win, d, k)


def footprint_sequence(
    g: TimeVaryingGraph, spec: WindowSpec, node_policy: str = "active"
) -> list[Footprint]:
    """One footprint per window; under ``active`` the node universe of each
    footprint is restricted to nodes with at least one adjacent edge."""
    _check_policy(node_policy)
    return list(_footprints(g, spec, windows_of(g.lifetime, spec), node_policy))


def _reduce(values: list[float], reducer: str) -> float:
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return math.nan
    if any(math.isinf(v) for v in finite):
        return math.inf
    if reducer == "max":
        return max(finite)
    # correctly rounded sums: the values' order, and so node ids, cannot move them
    mean = math.fsum(finite) / len(finite)
    if reducer == "mean":
        return mean
    return math.sqrt(math.fsum((v - mean) ** 2 for v in finite) / len(finite))


def _window_temporal(g, t, names, kind, reducer, strict) -> dict[str, float]:
    """The temporal indicators ``names`` of a window, by name, NaN where
    unbounded or undefined: ``g`` is its temporal subgraph and ``t`` its
    start; ``evolve_many`` checks the rest.  The values come from one walk
    over the window's sources (``temporal_metrics._walk``); an edgeless
    window's diameter is undefined, so the walk searches for none.
    """
    walked = names if g.edges else [name for name in names if name != "diameter"]
    ecc, close, between = tm._walk(g, t, walked, kind, strict)
    values = {
        "diameter": _reduce(ecc, "max") if g.edges else math.nan,
        "eccentricity": _reduce(ecc, reducer),
        "closeness": _reduce(close, reducer),
        "betweenness": _reduce(between, reducer),
    }
    return {
        name: values[name] if math.isfinite(values[name]) else math.nan
        for name in names
    }


#: static indicator name -> callable(Footprint) -> float
STATIC_INDICATORS = {}
#: temporal indicator names, evaluated together by ``_window_temporal``
TEMPORAL_INDICATORS = ("betweenness", "closeness", "diameter", "eccentricity")


def _load_registries():
    # filled on first use, not at import: perfbench's tracer refuses to
    # install once the registry holds entries
    if STATIC_INDICATORS:
        return
    STATIC_INDICATORS.update(
        {
            "density": sm.density,
            "avg_clustering": sm.average_clustering,
            "avg_modularity": sm.average_modularity,
            "powerlaw": lambda f: sm.powerlaw_exponent(sm.degree_sequence(f)),
            "conductance": lambda f: sm.graph_conductance(f).value,
        }
    )


def indicator_names() -> list[str]:
    _load_registries()
    return sorted(STATIC_INDICATORS) + sorted(TEMPORAL_INDICATORS)


def evolve_many(
    g: TimeVaryingGraph,
    spec: WindowSpec,
    names: Sequence[str],
    node_policy: str = "active",
    kind: str = "shortest",
    reducer: str = "mean",
    strict: bool = False,
) -> list[IndicatorSeries]:
    """Evaluate several named indicators per window, one series per name.

    Every argument is checked before any window is built.  The windows are
    walked once: each window's footprint is built only if a static
    indicator is requested, its temporal subgraph, restricted once to the
    node policy's nodes, only if a temporal one is.  Static indicators run
    on footprints, temporal ones on the subgraph at the window start.
    Windows where an indicator is undefined or that have no node yield NaN.
    A window's temporal indicators walk its sources once, so each source
    is searched once per window and the subgraph keeps one row.
    """
    _load_registries()
    for name in names:
        if name not in STATIC_INDICATORS and name not in TEMPORAL_INDICATORS:
            raise ValueError(f"unknown indicator {name!r}")
    _check_policy(node_policy)
    _check_kind(kind)
    if reducer not in REDUCERS:
        raise ValueError(f"unknown reducer {reducer!r}")
    wins = windows_of(g.lifetime, spec)
    static = any(name in STATIC_INDICATORS for name in names)
    temporal = [name for name in names if name in TEMPORAL_INDICATORS]
    fps = _footprints(g, spec, wins, node_policy) if static else None
    values: list[list[float]] = [[] for _ in names]
    for a, b in wins:
        f = next(fps) if static else None
        if temporal:
            sub = temporal_subgraph(g, a, b)
            if node_policy == "active":
                sub = restrict_nodes(sub, {x for e in sub.edges for x in (e.u, e.v)})
            got = _window_temporal(sub, a, temporal, kind, reducer, strict)
        for name, vals in zip(names, values):
            if name in STATIC_INDICATORS:
                vals.append(float(STATIC_INDICATORS[name](f)))
            else:
                vals.append(got[name])
    return [IndicatorSeries(name, list(wins), vals) for name, vals in zip(names, values)]


def evolve(
    g: TimeVaryingGraph,
    spec: WindowSpec,
    indicator: str,
    node_policy: str = "active",
    kind: str = "shortest",
    reducer: str = "mean",
    strict: bool = False,
) -> IndicatorSeries:
    """Evaluate one named indicator per window (see ``evolve_many``)."""
    return evolve_many(g, spec, [indicator], node_policy, kind, reducer, strict)[0]
