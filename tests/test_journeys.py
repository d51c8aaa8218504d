import math
import random
import weakref
from collections import Counter
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from tvgkit import core, journeys
from tvgkit.core import (
    Lifetime,
    PresenceSet,
    TimeVaryingGraph,
    build_tvg,
    footprint,
    restrict_nodes,
    temporal_subgraph,
)
from tvgkit.journeys import (
    KINDS,
    _SEARCHES,
    _critical_ticks,
    distance_map,
    is_journey,
    minimal_route_counts,
    temporal_view,
    witness_journey,
)
from tvgkit.synth import generate_trace
from tvgkit.temporal_metrics import (
    diameter,
    eccentricity,
    temporal_betweenness,
    temporal_betweenness_all,
    temporal_closeness,
)
from tvgkit.trace_io import parse_trace
from tvgkit.windows import WindowSpec, evolve_many

from oracles import (
    greedy_crossings,
    iter_feasible_walks,
    oracle_betweenness,
    oracle_distances,
    oracle_fastest_departures,
    oracle_route_count,
    oracle_route_through,
    random_always_on_tvg,
    random_tvg,
)


def tvg(events, n=3, end=10, directed=False):
    return build_tvg(n, directed, Lifetime(0, end), events)


def with_labelled_parallels(rng, g):
    """``g`` plus a labelled parallel copy, with its own presence, of some links."""
    events = [
        (e.u, e.v, a, b, e.label)
        for e, p in zip(g.edges, g.presence)
        for a, b in p.intervals
    ]
    end = g.lifetime.end
    for e in rng.sample(g.edges, rng.randint(1, len(g.edges))):
        a = rng.randrange(0, end - 1)
        events.append((e.u, e.v, a, rng.randrange(a + 1, end + 1), "alt"))
    return build_tvg(g.n, g.directed, g.lifetime, events)


def walk_end(g, u, steps):
    """Node a journey out of u ends at (u itself for the empty journey)."""
    x = u
    for ei, _ in steps:
        e = g.edges[ei]
        x = e.v if e.u == x else e.u
    return x


class TestIsJourney:
    def test_waiting_at_intermediate_node(self):
        g = tvg([(0, 1, 0, 2), (1, 2, 5, 8)])
        assert is_journey(g, [(0, 1), (1, 6)])

    def test_decreasing_times_rejected(self):
        g = tvg([(0, 1, 0, 8), (1, 2, 0, 8)])
        assert not is_journey(g, [(0, 6), (1, 1)])

    def test_absent_edge_rejected(self):
        g = tvg([(0, 1, 0, 2)])
        assert not is_journey(g, [(0, 3)])

    def test_disconnected_steps_rejected(self):
        g = tvg([(0, 1, 0, 8), (0, 2, 0, 8)], n=4)
        # (0,1) then (0,2) is fine undirected (back through 0); break it with a far edge
        g2 = tvg([(0, 1, 0, 8), (2, 3, 0, 8)], n=4)
        assert not is_journey(g2, [(0, 1), (1, 2)])

    def test_empty_journey(self):
        g = tvg([(0, 1, 0, 2)])
        assert is_journey(g, [])

    def test_same_instant_relay_and_strict_mode(self):
        g = tvg([(0, 1, 3, 4), (1, 2, 3, 4)])
        assert is_journey(g, [(0, 3), (1, 3)])
        assert not is_journey(g, [(0, 3), (1, 3)], strict=True)

    def test_unknown_edge_index(self):
        g = tvg([(0, 1, 0, 2)])
        with pytest.raises(ValueError):
            is_journey(g, [(5, 1)])


class TestForemost:
    def test_same_instant_two_hop_chain(self):
        g = tvg([(0, 1, 3, 4), (1, 2, 3, 4)])
        d = distance_map(g, 0, 0, "foremost")
        assert d == {0: 0, 1: 3, 2: 3}

    def test_missed_relay_unreachable(self):
        g = tvg([(0, 1, 3, 4), (1, 2, 1, 2)])
        d = distance_map(g, 0, 0, "foremost")
        assert 2 not in d
        assert d[1] == 3

    def test_self_distance_zero_for_every_t(self):
        g = tvg([(0, 1, 3, 4)])
        for t in range(0, 10):
            assert distance_map(g, 0, t, "foremost")[0] == 0

    def test_later_start_never_earlier_arrival(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_tvg(rng)
            u = rng.randrange(g.n)
            prev = {}
            for t in range(g.lifetime.start, g.lifetime.end):
                d = distance_map(g, u, t, "foremost")
                for v, delay in d.items():
                    assert delay >= 0
                    if v in prev:
                        assert t + delay >= prev[v]
                prev = {v: t + delay for v, delay in d.items()}


class TestShortest:
    def test_later_direct_edge_beats_earlier_two_hop(self):
        g = tvg([(0, 1, 0, 1), (1, 2, 2, 3), (0, 2, 9, 10)])
        assert distance_map(g, 0, 0, "shortest")[2] == 1

    def test_always_present_equals_static_bfs(self):
        import networkx as nx

        rng = random.Random(37)
        for _ in range(20):
            g = random_always_on_tvg(rng)
            G = nx.Graph([(e.u, e.v) for e in g.edges])
            d = distance_map(g, 0, 0, "shortest")
            if 0 in G:
                ref = nx.single_source_shortest_path_length(G, 0)
                assert {v: h for v, h in d.items() if v in ref} == dict(ref)

    def test_self_distance_zero(self):
        g = tvg([(0, 1, 0, 2)])
        assert distance_map(g, 0, 5, "shortest")[0] == 0


class TestFastest:
    def test_wait_for_relay_gives_zero_duration(self):
        g = tvg([(0, 1, 0, 10), (1, 2, 5, 6)])
        assert distance_map(g, 0, 0, "fastest")[2] == 0

    def test_static_graph_all_durations_zero(self):
        g = tvg([(0, 1, 0, 10), (1, 2, 0, 10)])
        assert distance_map(g, 0, 0, "fastest") == {0: 0, 1: 0, 2: 0}

    def test_unreachable_absent(self):
        g = tvg([(0, 1, 0, 2)], n=3)
        assert 2 not in distance_map(g, 0, 0, "fastest")

    def test_late_midinterval_departure_found(self):
        # leaving a long-open first edge as late as possible matters
        g = tvg([(0, 1, 0, 10), (1, 2, 9, 10)])
        assert distance_map(g, 0, 0, "fastest")[2] == 0

    def test_departure_between_onsets(self):
        # optimal departure 4 = last tick of [0,5), neither an onset nor t
        g = tvg([(0, 1, 0, 5), (1, 2, 7, 9)])
        assert distance_map(g, 0, 0, "fastest")[2] == 3

    def test_witness_departs_at_earliest_of_tied_departures(self):
        # departing at 0 or at 5 both give duration 0; the witness leaves at 0
        g = tvg([(0, 1, 0, 1), (0, 1, 5, 6), (1, 2, 0, 1), (1, 2, 5, 6)])
        assert distance_map(g, 0, 0, "fastest")[2] == 0
        assert witness_journey(g, 0, 2, 0, "fastest") == [(0, 0), (1, 0)]

    def test_later_departure_overtakes_an_earlier_one(self):
        # departing at 9 reaches 2..5 at 9; departing at 0 reaches 2 no earlier
        chain = [(i, i + 1, 9, 10) for i in range(1, 5)]
        g = tvg([(0, 1, 0, 10)] + chain, n=6)
        assert distance_map(g, 0, 0, "fastest") == {v: 0 for v in range(6)}
        assert witness_journey(g, 0, 5, 0, "fastest")[0][1] == 9

    def test_strict_hops_next_to_critical_times(self):
        # strict hops on a link open for long cross just before the next
        # critical time (leave at 8, not 0) or just after the last (cross 1-2
        # at 3): ticks that are neither t nor critical
        late = tvg([(0, 1, 0, 10), (1, 2, 9, 10)])
        assert distance_map(late, 0, 0, "fastest", strict=True) == {0: 0, 1: 0, 2: 1}
        assert witness_journey(late, 0, 2, 0, "fastest", strict=True) == [(0, 8), (1, 9)]
        early = tvg([(0, 1, 2, 3), (1, 2, 0, 10)])
        assert distance_map(early, 0, 0, "fastest", strict=True) == {0: 0, 1: 0, 2: 1}
        assert witness_journey(early, 0, 2, 0, "fastest", strict=True) == [(0, 2), (1, 3)]

    def test_edgeless_graph_reaches_only_the_source(self):
        g = tvg([], n=2)
        for strict in (False, True):
            assert distance_map(g, 0, 3, "fastest", strict) == {0: 0}
            assert witness_journey(g, 0, 1, 3, "fastest", strict) is None

    def test_fastest_at_most_foremost(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_tvg(rng)
            u = rng.randrange(g.n)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            fast = distance_map(g, u, t, "fastest")
            fore = distance_map(g, u, t, "foremost")
            assert set(fast) == set(fore)
            for v in fast:
                assert fast[v] <= fore[v]


class TestTemporalView:
    def test_latest_usable_departure(self):
        g = tvg([(0, 1, 0, 2), (0, 1, 6, 7), (1, 2, 3, 4)])
        assert temporal_view(g, 0, 2, 9) == 1

    def test_unreachable_is_none(self):
        g = tvg([(0, 1, 0, 2)], n=3)
        assert temporal_view(g, 0, 2, 9) is None

    def test_self_view_is_t(self):
        g = tvg([(0, 1, 0, 2)])
        assert temporal_view(g, 1, 1, 7) == 7

    def test_view_journey_exists_and_is_maximal(self):
        # cross check against enumeration of all feasible walks
        rng = random.Random(43)
        for _ in range(40):
            g = random_tvg(rng, n_max=5, e_max=8)
            t = rng.randrange(g.lifetime.start + 1, g.lifetime.end)
            for u in range(g.n):
                for v in range(g.n):
                    if u == v:
                        continue
                    best = None
                    for route, end in iter_feasible_walks(g, u, g.lifetime.start):
                        if end != v:
                            continue
                        # latest departure of this route arriving by t
                        for f in range(t, g.lifetime.start - 1, -1):
                            times = greedy_crossings(g, route, f)
                            if times is not None and times[-1] <= t:
                                if best is None or f > best:
                                    best = f
                                break
                    assert temporal_view(g, u, v, t) == best


@st.composite
def bouncing_graphs(draw):
    """(graph, start time): an undirected graph of at most 6 nodes whose
    punctual contacts share 3 ticks, so that walks cross back and forth
    within one tick; some links have a labelled parallel copy."""
    n = draw(st.integers(2, 6))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    contact = st.tuples(pair, st.integers(0, 2), st.sampled_from([None, "alt"]))
    contacts = draw(st.lists(contact, min_size=1, max_size=8))
    events = [(x, y, a, a + 1, label) for (x, y), a, label in contacts]
    return build_tvg(n, False, Lifetime(0, 3), events), draw(st.integers(0, 2))


class TestRouteCounts:
    def test_diamond_two_shortest_routes(self):
        g = tvg([(0, 1, 0, 10), (1, 3, 0, 10), (0, 2, 0, 10), (2, 3, 0, 10)], n=4)
        assert minimal_route_counts(g, 0, 0, "shortest")[3][:2] == (2, 2)

    def test_self_pair_counts_empty_route(self):
        g = tvg([(0, 1, 0, 10)])
        for kind in ("shortest", "foremost", "fastest"):
            assert minimal_route_counts(g, 0, 0, kind)[0][:2] == (0, 1)

    def test_unreachable_is_none(self):
        g = tvg([(0, 1, 0, 2)], n=3)
        assert 2 not in minimal_route_counts(g, 0, 0, "shortest")

    @pytest.mark.parametrize("kind", ["shortest", "foremost", "fastest"])
    def test_matches_walk_enumeration(self, kind):
        rng = random.Random(47)
        for directed in (False, True):
            for strict in (False, True):
                for _ in range(40):
                    g = random_tvg(rng, n_max=5, e_max=8, directed=directed)
                    t = rng.randrange(g.lifetime.start, g.lifetime.end)
                    u, v = rng.sample(range(g.n), 2)
                    res = minimal_route_counts(g, u, t, kind, strict)
                    got = res[v][:2] if v in res else None
                    assert got == oracle_route_count(g, u, v, t, kind, strict)

    def test_interior_counts_on_path(self):
        g = tvg([(0, 1, 0, 10), (1, 2, 0, 10)])
        res = minimal_route_counts(g, 0, 0, "shortest")
        d, c, through = res[2]
        assert (d, c, through[1]) == (2, 1, 1)
        d, c, through = res[1]
        assert (d, c, through[1]) == (1, 1, 0)  # endpoint, not interior

    def test_later_hop_with_earlier_bound_is_kept(self):
        # 1 is reached at hop 1 with bound 1 and at hop 2 (via 2) with bound
        # 0; only the second can still cross 1-3, so the route 0-2-1-3 is
        # the shortest route to 3
        g = tvg([(0, 1, 1, 2), (0, 2, 0, 1), (1, 2, 0, 1), (1, 3, 0, 1)], n=4)
        assert minimal_route_counts(g, 0, 0, "shortest")[3] == (3, 1, (0, 1, 1, 0))
        assert oracle_route_count(g, 0, 3, 0, "shortest") == (3, 1)

    def test_revisited_relay_counts_once_per_route(self):
        # foremost routes to 3: 0-1-3, and 0-1-2-1-3 which leaves 1 twice
        g = tvg(
            [(0, 1, 0, 1), (1, 2, 0, 10), (2, 1, 0, 10), (1, 3, 5, 6)],
            n=5,
            directed=True,
        )
        d, c, through = minimal_route_counts(g, 0, 0, "foremost")[3]
        assert (d, c) == (5, 2)
        assert through == (0, 2, 1, 0, 0)  # the revisiting route adds 1 to node 1, not 2

    def test_counts_past_64_bits_match_matrix_powers(self, monkeypatch):
        # always-on K_n with k labelled links per pair: every walk of at most
        # n - 1 hops arrives at once, so every one is a minimal route
        def clique(n, k):
            events = [(x, y, 0, 2, str(i)) for x in range(n) for y in range(x) for i in range(k)]
            return build_tvg(n, False, Lifetime(0, 2), events)

        def walks(n, k, s, avoid=None):
            # per node, the walks from s of 1 to n - 1 hops that leave no
            # interior node ``avoid``: one row of the powers of k (J - I)
            row = [0 if y == s else k for y in range(n)]
            total = row
            for _ in range(n - 2):
                left = sum(c for x, c in enumerate(row) if x != avoid)
                row = [k * (left - (0 if y == avoid else row[y])) for y in range(n)]
                total = list(map(add, total, row))
            return total

        def closed_form(n, k, s):
            every = walks(n, k, s)
            avoiding = {q: walks(n, k, s, q) for q in range(n) if q != s}
            return {s: (0, 1, (0,) * n)} | {
                v: (0, every[v], tuple(every[v] - avoiding[q][v] if q != s else 0 for q in range(n)))
                for v in range(n)
                if v != s
            }

        widths = []

        def recording(*args):
            widths.append(args[-1])
            return count_routes(*args)

        count_routes = journeys._count_routes
        monkeypatch.setattr(journeys, "_count_routes", recording)
        small = clique(4, 2)
        for kind in ("foremost", "fastest"):
            assert closed_form(4, 2, 1) == oracle_route_through(small, 1, 0, kind)
            del widths[:]
            got = minimal_route_counts(clique(10, 100), 3, 0, kind)
            assert got == closed_form(10, 100, 3)
            # counts near 2 ** 85 overflow 64-bit slots: the pass ran again
            # with 128-bit ones
            assert max(c for _, c, _ in got.values()) > 2**84
            assert widths == [64, 128]

    def test_a_summed_total_past_64_bits_restarts_the_pass(self, monkeypatch):
        # two always-on directed branches from 0 to 1, of 62 and 63 arcs;
        # every arc but the 63-arc branch's first has a labelled parallel
        # copy, so each branch has 2 ** 62 routes and no state's count
        # reaches 2 ** 63, but node 1's total over both branches does
        short = [0, *range(2, 63), 1]
        long = [0, *range(63, 125), 1]
        arcs = [*zip(short, short[1:]), *zip(long, long[1:])]
        events = [(x, y, 0, 2, None) for x, y in arcs]
        events += [(x, y, 0, 2, "alt") for x, y in arcs if (x, y) != (0, 63)]
        g = build_tvg(125, True, Lifetime(0, 2), events)
        widths = []

        def recording(*args):
            widths.append(args[-1])
            return count_routes(*args)

        count_routes = journeys._count_routes
        monkeypatch.setattr(journeys, "_count_routes", recording)
        for kind in ("foremost", "fastest"):
            del widths[:]
            d, c, through = minimal_route_counts(g, 0, 0, kind)[1]
            assert (d, c) == (0, 2**63)
            assert through == (0, 0, *[2**62] * 123)
            assert widths == [64, 128]
        # only the 62-arc branch is minimal in hops
        del widths[:]
        d, c, through = minimal_route_counts(g, 0, 0, "shortest")[1]
        assert (d, c) == (62, 2**62)
        assert through == (0, 0, *[2**62] * 61, *[0] * 62)
        assert widths == [64]

    @pytest.mark.parametrize("directed", [False, True])
    def test_one_move_table_serves_every_caller_exactly(self, directed):
        # passes for every source, start, kind and mode, interleaved on one
        # graph, share its route-move tables; each must equal the same pass
        # on a fresh, equal graph, whose tables are empty
        def fresh(g):
            return TimeVaryingGraph(g.n, g.directed, g.lifetime, g.edges, g.presence)

        rng = random.Random(83 if directed else 89)
        for _ in range(12):
            g = random_tvg(rng, n_max=6, e_max=9, horizon=10, directed=directed)
            g = with_labelled_parallels(rng, g)
            starts = rng.sample(range(g.lifetime.start, g.lifetime.end), 3)
            modes = [(kind, strict) for kind in KINDS for strict in (False, True)]
            calls = [(u, t, *mode) for u in range(g.n) for t in starts for mode in modes]
            rng.shuffle(calls)
            for u, t, kind, strict in calls:
                got = minimal_route_counts(g, u, t, kind, strict)
                assert list(got.items()) == list(
                    minimal_route_counts(fresh(g), u, t, kind, strict).items()
                )
            assert {key[:2] for key in g._route_moves} == set(modes)
            for (kind, strict), t in zip(modes, starts * 2):
                assert temporal_betweenness_all(g, t, kind, strict) == (
                    temporal_betweenness_all(fresh(g), t, kind, strict)
                )

    @settings(max_examples=100, deadline=None)
    @given(case=bouncing_graphs(), kind=st.sampled_from(KINDS), strict=st.booleans())
    def test_zero_latency_back_and_forth_matches_walk_enumeration(self, case, kind, strict):
        g, t = case
        for u in range(g.n):
            assert minimal_route_counts(g, u, t, kind, strict) == (
                oracle_route_through(g, u, t, kind, strict)
            )
        assert temporal_betweenness_all(g, t, kind, strict) == pytest.approx(
            oracle_betweenness(g, t, kind, strict)
        )


class TestOracleSweep:
    @pytest.mark.parametrize("directed", [False, True])
    def test_all_distance_kinds_match_enumeration(self, directed):
        rng = random.Random(53 if directed else 59)
        for _ in range(60):
            g = random_tvg(rng, directed=directed)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            for u in range(g.n):
                expect = oracle_distances(g, u, t)
                assert distance_map(g, u, t, "shortest") == expect["shortest"]
                assert distance_map(g, u, t, "foremost") == expect["foremost"]
                assert distance_map(g, u, t, "fastest") == expect["fastest"]

    def test_strict_mode_matches_enumeration(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_tvg(rng)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            for u in range(g.n):
                expect = oracle_distances(g, u, t, strict=True)
                assert distance_map(g, u, t, "shortest", strict=True) == expect["shortest"]
                assert distance_map(g, u, t, "foremost", strict=True) == expect["foremost"]
                assert distance_map(g, u, t, "fastest", strict=True) == expect["fastest"]

    def test_triangle_style_bound(self):
        # composing a minimal-hop journey to v with a journey leaving v at
        # (or after) its arrival bounds the direct hop count
        rng = random.Random(67)
        for _ in range(30):
            g = random_tvg(rng)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            for u in range(g.n):
                du = distance_map(g, u, t, "shortest")
                for v in du:
                    if v == u:
                        continue
                    steps = witness_journey(g, u, v, t, "shortest")
                    t2 = steps[-1][1]
                    dv = distance_map(g, v, t2, "shortest")
                    for w in dv:
                        if w in du:
                            assert du[w] <= du[v] + dv[w]


class TestWitness:
    @pytest.mark.parametrize("kind", ["shortest", "foremost", "fastest"])
    def test_witness_is_valid_and_optimal(self, kind):
        rng = random.Random(71)
        for directed in (False, True):
            for strict in (False, True):
                for _ in range(40):
                    g = random_tvg(rng, directed=directed)
                    t = rng.randrange(g.lifetime.start, g.lifetime.end)
                    u = rng.randrange(g.n)
                    d = distance_map(g, u, t, kind, strict)
                    for v in range(g.n):
                        steps = witness_journey(g, u, v, t, kind, strict)
                        if v not in d:
                            assert steps is None
                            continue
                        assert is_journey(g, steps, strict=strict)
                        if not steps:
                            assert u == v
                            continue
                        assert steps[0][1] >= t
                        assert walk_end(g, u, steps) == v
                        if kind == "shortest":
                            assert len(steps) == d[v]
                        elif kind == "foremost":
                            assert steps[-1][1] - t == d[v]
                        else:
                            assert steps[-1][1] - steps[0][1] == d[v]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        directed=st.booleans(),
        strict=st.booleans(),
        labelled=st.booleans(),
    )
    def test_pruned_searches_match_oracle(self, seed, directed, strict, labelled):
        rng = random.Random(seed)
        g = random_tvg(rng, n_max=6, e_max=9, horizon=10, directed=directed)
        if labelled:
            g = with_labelled_parallels(rng, g)
        t = rng.randrange(g.lifetime.start, g.lifetime.end)
        for u in range(g.n):
            expect = oracle_distances(g, u, t, strict)
            assert distance_map(g, u, t, "shortest", strict) == expect["shortest"]
            assert distance_map(g, u, t, "fastest", strict) == expect["fastest"]
            for v in range(g.n):
                hops = witness_journey(g, u, v, t, "shortest", strict)
                fast = witness_journey(g, u, v, t, "fastest", strict)
                if v not in expect["shortest"]:
                    assert hops is None and fast is None
                    continue
                for steps in (hops, fast):
                    assert is_journey(g, steps, strict=strict)
                    assert walk_end(g, u, steps) == v
                    assert not steps or steps[0][1] >= t
                assert len(hops) == expect["shortest"][v]
                duration = fast[-1][1] - fast[0][1] if fast else 0
                assert duration == expect["fastest"][v]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        directed=st.booleans(),
        strict=st.booleans(),
        kind=st.sampled_from(["shortest", "foremost"]),
    )
    def test_witness_search_stops_without_changing_the_witness(
        self, seed, directed, strict, kind
    ):
        # a witness unwinds its source's row; it must give the journey the
        # full search's records give
        rng = random.Random(seed)
        g = random_tvg(rng, n_max=7, e_max=12, horizon=10, directed=directed)
        g = with_labelled_parallels(rng, g)
        t = rng.randrange(g.lifetime.start, g.lifetime.end)
        for u in range(g.n):
            full = {}
            for v, r in _SEARCHES[kind](g, u, t, strict)[1].items():
                full[v] = []
                while r is not None:
                    r, ei, tp = r
                    full[v].insert(0, (ei, tp))
            for v in range(g.n):
                assert witness_journey(g, u, v, t, kind, strict) == full.get(v)


@st.composite
def shaped_cases(draw):
    """(graph, source, start time) in shapes ``random_tvg`` does not make: a
    lifetime away from 0, intervals spanning many critical times (and, in
    strict mode, snapshots constant for more than n ticks), a start time
    inside an interval or at its last tick, labelled parallel links."""
    n = draw(st.integers(2, 5))
    start = draw(st.integers(-30, 30))
    length = draw(st.integers(2, 30))
    events = []
    for _ in range(draw(st.integers(1, 5))):
        x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a = draw(st.integers(0, length - 1))
        b = draw(st.one_of(st.just(a + 1), st.integers(a + 1, length)))
        events.append((x, y, start + a, start + b, draw(st.sampled_from([None, "alt"]))))
    g = build_tvg(n, draw(st.booleans()), Lifetime(start, start + length), events)
    inside = [(a + b) // 2 for _, _, a, b, _ in events]
    last = [b - 1 for _, _, _, b, _ in events]
    t = draw(st.one_of(st.integers(start, start + length - 1), st.sampled_from(inside + last)))
    return g, draw(st.integers(0, n - 1)), t


class TestFastestFlood:
    @settings(max_examples=300, deadline=None)
    @given(case=shaped_cases(), strict=st.booleans())
    def test_matches_oracle_and_departs_earliest(self, case, strict):
        g, u, t = case
        expect = oracle_fastest_departures(g, u, t, strict)
        d = distance_map(g, u, t, "fastest", strict)
        assert d == oracle_distances(g, u, t, strict)["fastest"]
        assert d == {u: 0, **{v: dur for v, (dur, _) in expect.items()}}
        for v in range(g.n):
            steps = witness_journey(g, u, v, t, "fastest", strict)
            if v == u or v not in expect:
                assert steps == ([] if v == u else None)
                continue
            assert is_journey(g, steps, strict=strict)
            assert walk_end(g, u, steps) == v
            assert (steps[-1][1] - steps[0][1], steps[0][1]) == expect[v]


@pytest.fixture
def queried(monkeypatch):
    """Patch ``PresenceSet.next_at_or_after`` to record the presence set of
    each call, and return the record."""
    calls = []
    next_at_or_after = PresenceSet.next_at_or_after

    def counting(p, t):
        calls.append(p)
        return next_at_or_after(p, t)

    monkeypatch.setattr(PresenceSet, "next_at_or_after", counting)
    return calls


def path(n):
    """The always-present undirected path 0 - 1 - ... - n-1."""
    return tvg([(i, i + 1, 0, 10) for i in range(n - 1)], n=n)


def check_witness_alone_keeps_its_row(monkeypatch, queried, kind):
    """A ``kind`` witness asked alone on a 30-node path keeps its key's
    row, queries presence sets within the linear bound of a distance map
    (``test_shortest_on_path_is_linear``), and the next witness and
    distance map from its source run no search and query no presence
    set."""
    n = 30
    expect = [witness_journey(path(n), 0, n - 1, 0, kind), distance_map(path(n), 0, 0, kind)]
    g = path(n)
    calls = count_searches(monkeypatch)
    del queried[:]
    assert witness_journey(g, 0, 1, 0, kind) == [(0, 0)]
    assert len(queried) <= 2 * (n - 1)
    assert calls == [(g, 0, 0, kind, False)]
    del calls[:], queried[:]
    assert [witness_journey(g, 0, n - 1, 0, kind), distance_map(g, 0, 0, kind)] == expect
    assert calls == [] and queried == []
    assert g._row == ((0, 0, kind, False), _SEARCHES[kind](path(n), 0, 0, False))


class TestSearchWork:
    """Presence-query counts (not timings) of the pruned searches."""

    def test_shortest_on_path_is_linear(self, queried):
        n = 30
        g = path(n)
        assert distance_map(g, 0, 0, "shortest") == {i: i for i in range(n)}
        assert len(queried) <= 2 * (n - 1)

    def test_shortest_witness_alone_keeps_its_row(self, monkeypatch, queried):
        check_witness_alone_keeps_its_row(monkeypatch, queried, "shortest")

    def test_shortest_stops_once_every_node_has_its_hop(self, queried):
        # every node enters at hop 1, but 1-2 still lowers node 2's bound
        # from 8 to 0 at hop 2, which no distance reads
        g = tvg([(0, 1, 0, 1), (0, 2, 8, 9), (1, 2, 0, 10)])
        assert distance_map(g, 0, 0, "shortest") == {0: 0, 1: 1, 2: 1}
        assert len(queried) == len(g.out_edges(0))

    def test_foremost_witness_alone_keeps_its_row(self, monkeypatch, queried):
        check_witness_alone_keeps_its_row(monkeypatch, queried, "foremost")

    def test_temporal_view_stops_once_its_source_is_settled(self, monkeypatch):
        calls = []
        latest_at_or_before = PresenceSet.latest_at_or_before

        def counting(p, t):
            calls.append(p)
            return latest_at_or_before(p, t)

        monkeypatch.setattr(PresenceSet, "latest_at_or_before", counting)
        # 0 reaches 3 directly at 9, later than any relay; expanding 0, 1 or
        # 2 would query the 0-1 and 1-2 links
        g = tvg([(0, 1, 0, 10), (0, 3, 0, 10), (1, 2, 0, 10), (1, 3, 0, 5), (2, 3, 0, 3)], n=4)
        assert temporal_view(g, 0, 3, 9) == 9
        assert len(calls) == len(g.in_edges(3))

    def test_fastest_from_a_later_start_queries_no_presence_set(self, monkeypatch):
        # the source's only link is present at tick 5; the 1-2-3 links
        # open and close often, which makes many departure candidates
        events = [(0, 1, 5, 6)]
        events += [(1, 2, a, a + 1) for a in range(0, 30, 3)]
        events += [(2, 3, a, a + 2) for a in range(1, 28, 4)]
        g = tvg(events, n=4, end=30)
        assert len(list(_critical_ticks(g, 0, 0, 0))) >= 10
        assert distance_map(g, 0, 0, "fastest") == oracle_distances(g, 0, 0)["fastest"]
        starts = (3, 5, 13, 14)
        expect = [oracle_distances(g, u, t)["fastest"] for t in starts for u in range(g.n)]

        contains, built = [], []
        member, build = PresenceSet.__contains__, core._build_timeline
        monkeypatch.setattr(
            PresenceSet, "__contains__", lambda p, t: contains.append(p) or member(p, t)
        )
        monkeypatch.setattr(core, "_build_timeline", lambda g: built.append(g) or build(g))
        g = tvg(events, n=4, end=30)
        assert [distance_map(g, u, t, "fastest") for t in starts for u in range(g.n)] == expect
        assert contains == []
        assert built == [g]


class TestFootprintSeparation:
    def test_path_without_journey_witness(self):
        # (0,1) opens only after (1,2) has closed: footprint path, no journey
        g = tvg([(0, 1, 5, 6), (1, 2, 1, 2)], end=8)
        f = footprint(g, 0, 8)
        assert f.edges == {(0, 1), (1, 2)}
        assert 2 not in distance_map(g, 0, 0, "foremost")

    def test_journey_implies_footprint_path(self):
        import networkx as nx

        rng = random.Random(73)
        for _ in range(30):
            g = random_tvg(rng)
            G = nx.Graph([(e.u, e.v) for e in g.edges])
            G.add_nodes_from(range(g.n))
            src = rng.randrange(g.n)
            for v in distance_map(g, src, g.lifetime.start, "foremost"):
                assert nx.has_path(G, src, v)


#: every journey entry point that takes a node id, called with ``x`` in that place
NODE_ARGS = {
    "distance_map_shortest": lambda g, x: distance_map(g, x, 0, "shortest"),
    "distance_map_foremost": lambda g, x: distance_map(g, x, 0, "foremost"),
    "distance_map_fastest": lambda g, x: distance_map(g, x, 0, "fastest"),
    "witness_journey_u": lambda g, x: witness_journey(g, x, 0, 0, "foremost"),
    "witness_journey_v": lambda g, x: witness_journey(g, 0, x, 0, "foremost"),
    "temporal_view_u": lambda g, x: temporal_view(g, x, 0, 5),
    "temporal_view_v": lambda g, x: temporal_view(g, 0, x, 5),
    "minimal_route_counts": lambda g, x: minimal_route_counts(g, x, 0, "shortest"),
    "temporal_betweenness": lambda g, x: temporal_betweenness(g, x, 0, "shortest"),
}


@pytest.mark.parametrize("x", [-1, 3], ids=["-1", "n"])
@pytest.mark.parametrize("entry", list(NODE_ARGS))
def test_out_of_range_node_rejected(entry, x):
    g = tvg([(0, 1, 0, 5), (1, 2, 0, 5)])  # n = 3
    with pytest.raises(ValueError, match=rf"node {x} outside \[0,3\)"):
        NODE_ARGS[entry](g, x)


#: the search entry points, each called with kind ``k``, time ``t`` and node ``x``
SEARCH_ARGS = {
    "distance_map": lambda g, k, t, x: distance_map(g, x, t, k),
    "witness_journey_u": lambda g, k, t, x: witness_journey(g, x, 0, t, k),
    "witness_journey_v": lambda g, k, t, x: witness_journey(g, 0, x, t, k),
    "minimal_route_counts": lambda g, k, t, x: minimal_route_counts(g, x, t, k),
    "temporal_betweenness": lambda g, k, t, x: temporal_betweenness(g, x, t, k),
    "eccentricity": lambda g, k, t, x: eccentricity(g, x, t, k),
    "temporal_closeness": lambda g, k, t, x: temporal_closeness(g, x, t, k),
}


@pytest.mark.parametrize("entry", list(SEARCH_ARGS))
def test_search_arguments_checked_kind_then_time_then_node(entry):
    g = tvg([(0, 1, 0, 5), (1, 2, 0, 5)])  # n = 3, lifetime [0, 10)
    call = SEARCH_ARGS[entry]
    with pytest.raises(ValueError, match="unknown distance kind 'quickest'"):
        call(g, "quickest", 10, 3)
    with pytest.raises(ValueError, match=r"t=10 outside lifetime"):
        call(g, "foremost", 10, 3)
    with pytest.raises(ValueError, match=r"node 3 outside"):
        call(g, "foremost", 0, 3)
    assert g._row is None


def fresh(g):
    """A graph equal to ``g`` that has run no search."""
    return TimeVaryingGraph(g.n, g.directed, g.lifetime, g.edges, g.presence)


def count_searches(monkeypatch) -> list:
    """Patch every ``_SEARCHES`` entry to record ``(graph, source, t, kind,
    strict)`` per run, and return the record."""
    calls = []
    for kind, search in list(_SEARCHES.items()):
        def counting(g, u, t, strict, kind=kind, search=search):
            calls.append((g, u, t, kind, strict))
            return search(g, u, t, strict)

        monkeypatch.setitem(_SEARCHES, kind, counting)
    return calls


def rows_held(monkeypatch) -> list:
    """Patch every ``_SEARCHES`` entry to record, per run, how many search
    rows are alive before it, kept by a graph or held by a caller, and
    return the record."""

    class Row(dict):  # a dict that weak references can follow
        pass

    alive: set[int] = set()  # the ids of the rows alive
    held = []
    for kind, search in list(_SEARCHES.items()):
        def holding(g, *args, search=search):
            held.append(len(alive))
            distances, records = search(g, *args)
            row = Row(distances)
            alive.add(id(row))
            weakref.finalize(row, alive.discard, id(row))
            return row, records

        monkeypatch.setitem(_SEARCHES, kind, holding)
    return held


#: the answers that read search rows, called as ``(g, u, v, t, kind, strict)``
ROW_READERS = {
    "distance_map": lambda g, u, v, t, k, s: distance_map(g, u, t, k, s),
    "witness_journey": witness_journey,
    "eccentricity": lambda g, u, v, t, k, s: eccentricity(g, u, t, k, s),
    "temporal_closeness": lambda g, u, v, t, k, s: temporal_closeness(g, u, t, k, s),
    "minimal_route_counts": lambda g, u, v, t, k, s: minimal_route_counts(g, u, t, k, s),
}


class TestSearchRows:
    """One search per source, time, kind and mode on a graph: distances,
    witnesses, eccentricities and route-count bounds read its row."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        shape=st.sampled_from(["random", "directed", "labelled", "always-on"]),
        calls=st.lists(
            st.tuples(
                st.sampled_from(list(ROW_READERS)),
                st.integers(0, 7),  # source
                st.integers(0, 7),  # target
                st.integers(0, 1),  # which of two start times
                st.sampled_from(KINDS),
                st.booleans(),  # strict
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_every_answer_equals_the_answer_on_a_fresh_graph(self, seed, shape, calls):
        rng = random.Random(seed)
        if shape == "always-on":
            g = random_always_on_tvg(rng, n_max=6)
        else:
            g = random_tvg(rng, n_max=6, e_max=9, horizon=10, directed=shape == "directed")
            if shape == "labelled":
                g = with_labelled_parallels(rng, g)
        times = [g.lifetime.start, rng.randrange(g.lifetime.start, g.lifetime.end)]
        for name, u, v, i, kind, strict in calls:
            args = (u % g.n, v % g.n, times[i], kind, strict)
            # repr: an undefined closeness is NaN, equal to no NaN
            assert repr(ROW_READERS[name](g, *args)) == repr(ROW_READERS[name](fresh(g), *args))
            # the row kept is its key's search on a fresh graph
            if g._row is not None:
                (x, t, k, s), row = g._row
                assert row == _SEARCHES[k](fresh(g), x, t, s)

    def test_witness_from_the_row_equals_the_witness_alone(self, monkeypatch):
        calls = count_searches(monkeypatch)
        rng = random.Random(5)
        for kind in KINDS:
            for strict in (False, True):
                for _ in range(10):
                    g = with_labelled_parallels(rng, random_tvg(rng, directed=rng.random() < 0.5))
                    t = rng.randrange(g.lifetime.start, g.lifetime.end)
                    u = rng.randrange(g.n)
                    alone = [witness_journey(fresh(g), u, v, t, kind, strict) for v in range(g.n)]
                    del calls[:]
                    distance_map(g, u, t, kind, strict)
                    assert [witness_journey(g, u, v, t, kind, strict) for v in range(g.n)] == alone
                    # the distance and its witnesses ran one search
                    assert calls == [(g, u, t, kind, strict)]

    def test_a_witness_alone_keeps_its_row(self, monkeypatch, queried):
        g = tvg([(0, 1, 0, 3), (1, 2, 2, 5), (2, 3, 4, 9), (0, 3, 6, 8)], n=4)
        direct = g.edges.index(core.Edge(0, 3))
        expect = {
            "shortest": [(direct, 6)],
            "foremost": [(0, 0), (2, 2), (3, 4)],
            "fastest": [(direct, 6)],
        }
        # every kind's witness reads the source's full search, which it keeps
        for kind in KINDS:
            assert witness_journey(g, 0, 3, 0, kind) == expect[kind]
            assert g._row[0] == (0, 0, kind, False)
        check_witness_alone_keeps_its_row(monkeypatch, queried, "fastest")

    def test_changing_a_distance_map_changes_no_later_answer(self):
        rng = random.Random(11)
        for kind in KINDS:
            g = random_tvg(rng)
            t = g.lifetime.start
            expect = [f(fresh(g), 0, 1, t, kind, False) for f in ROW_READERS.values()]
            d = distance_map(g, 0, t, kind)
            d[0] = 99
            d[g.n] = 1
            d.clear()
            assert [f(g, 0, 1, t, kind, False) for f in ROW_READERS.values()] == expect

    def test_a_graph_keeps_its_latest_row_only(self, monkeypatch):
        g = tvg([(0, 1, 0, 3), (1, 2, 2, 5), (2, 3, 4, 9), (0, 3, 6, 8)], n=4)
        distance_map(g, 0, 1, "foremost")
        eccentricity(g, 2, 1, "foremost")
        assert g._row == ((2, 1, "foremost", False), _SEARCHES["foremost"](g, 2, 1, False))
        # an all-sources pass holds one row at a time, as a search alone does
        held = rows_held(monkeypatch)
        for kind in KINDS:
            diameter(g, 0, kind)
            temporal_betweenness_all(g, 0, kind)
        assert held and max(held) <= 1

    def test_only_the_latest_key_keeps_rows(self, monkeypatch):
        g = tvg([(0, 1, 0, 3), (1, 2, 2, 5), (2, 3, 4, 9), (0, 3, 6, 8)], n=4)
        calls = count_searches(monkeypatch)
        distance_map(g, 0, 1, "foremost")
        eccentricity(g, 2, 1, "foremost")
        # source 2's row replaced source 0's, so 0 is searched again
        distance_map(g, 0, 1, "foremost")
        assert [u for _, u, *_ in calls] == [0, 2, 0]
        for key in [(1, "foremost", True), (2, "foremost", True), (2, "fastest", True)]:
            t, kind, strict = key
            minimal_route_counts(g, 3, t, kind, strict)
            assert g._row[0] == (3, *key)

    def test_derived_graphs_start_without_rows(self):
        g = tvg([(0, 1, 0, 3), (1, 2, 2, 5), (2, 3, 4, 9), (0, 3, 6, 8)], n=4)
        temporal_closeness(g, 0, 0, "fastest")
        assert g._row is not None
        for derived in (temporal_subgraph(g, 0, 10), restrict_nodes(g, range(4))):
            assert derived._row is None

    @pytest.mark.parametrize("kind", ["foremost", "fastest"])
    def test_an_evolve_searches_each_source_once_per_window(self, monkeypatch, kind):
        g = parse_trace(generate_trace("phase-transition", 7, nodes=20)).graph
        calls = count_searches(monkeypatch)
        names = ["closeness", "diameter", "eccentricity", "betweenness"]
        evolve_many(g, WindowSpec(10), names, kind=kind)
        runs = Counter((id(sub), u, t, k, strict) for sub, u, t, k, strict in calls)
        assert {k for _, _, _, k, _ in calls} == {kind}
        assert len({id(sub) for sub, *_ in calls}) == 12
        assert max(runs.values()) == 1

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_an_evolve_holds_one_row_at_a_search(self, monkeypatch, kind, strict):
        # a window's indicators read each source's row before the next
        # search, so no window holds a row per source
        g = parse_trace(generate_trace("phase-transition", 7, nodes=20)).graph
        held = rows_held(monkeypatch)
        names = ["closeness", "diameter", "eccentricity", "betweenness"]
        evolve_many(g, WindowSpec(10), names, kind=kind, strict=strict)
        assert held and max(held) <= 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_diameter_alone_stops_at_its_first_unbounded_source(self, monkeypatch, kind):
        g = parse_trace(generate_trace("phase-transition", 7, nodes=20)).graph
        calls = count_searches(monkeypatch)
        series = evolve_many(g, WindowSpec(10), ["diameter"], kind=kind)[0]
        # every window is disconnected: its first source is unbounded
        assert all(math.isnan(v) for v in series.values)
        assert len(calls) == len({id(sub) for sub, *_ in calls}) == 12

    @pytest.mark.parametrize(
        "kind, names",
        [
            ("foremost", ["closeness"]),
            ("fastest", ["betweenness"]),
            ("shortest", ["closeness", "betweenness"]),
        ],
    )
    def test_an_evolve_with_one_row_reader_keeps_one_row(self, monkeypatch, kind, names):
        g = parse_trace(generate_trace("phase-transition", 7, nodes=20)).graph
        held = rows_held(monkeypatch)
        evolve_many(g, WindowSpec(10), names, kind=kind)
        assert held and max(held) <= 1
