import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tvgkit.core import Lifetime, PresenceSet, build_tvg, footprint
from tvgkit.journeys import (
    _departure_candidates,
    count_minimal_journeys,
    distance_map,
    fastest_distance,
    foremost_distance,
    is_journey,
    minimal_route_counts,
    shortest_distance,
    temporal_view,
    witness_journey,
)

from oracles import (
    greedy_crossings,
    iter_feasible_walks,
    oracle_distances,
    oracle_route_count,
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
        d = foremost_distance(g, 0, 0)
        assert d == {0: 0, 1: 3, 2: 3}

    def test_missed_relay_unreachable(self):
        g = tvg([(0, 1, 3, 4), (1, 2, 1, 2)])
        d = foremost_distance(g, 0, 0)
        assert 2 not in d
        assert d[1] == 3

    def test_self_distance_zero_for_every_t(self):
        g = tvg([(0, 1, 3, 4)])
        for t in range(0, 10):
            assert foremost_distance(g, 0, t)[0] == 0

    def test_later_start_never_earlier_arrival(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_tvg(rng)
            u = rng.randrange(g.n)
            prev = {}
            for t in range(g.lifetime.start, g.lifetime.end):
                d = foremost_distance(g, u, t)
                for v, delay in d.items():
                    assert delay >= 0
                    if v in prev:
                        assert t + delay >= prev[v]
                prev = {v: t + delay for v, delay in d.items()}


class TestShortest:
    def test_later_direct_edge_beats_earlier_two_hop(self):
        g = tvg([(0, 1, 0, 1), (1, 2, 2, 3), (0, 2, 9, 10)])
        assert shortest_distance(g, 0, 0)[2] == 1

    def test_always_present_equals_static_bfs(self):
        import networkx as nx

        rng = random.Random(37)
        for _ in range(20):
            g = random_always_on_tvg(rng)
            G = nx.Graph([(e.u, e.v) for e in g.edges])
            d = shortest_distance(g, 0, 0)
            if 0 in G:
                ref = nx.single_source_shortest_path_length(G, 0)
                assert {v: h for v, h in d.items() if v in ref} == dict(ref)

    def test_self_distance_zero(self):
        g = tvg([(0, 1, 0, 2)])
        assert shortest_distance(g, 0, 5)[0] == 0


class TestFastest:
    def test_wait_for_relay_gives_zero_duration(self):
        g = tvg([(0, 1, 0, 10), (1, 2, 5, 6)])
        assert fastest_distance(g, 0, 0)[2] == 0

    def test_static_graph_all_durations_zero(self):
        g = tvg([(0, 1, 0, 10), (1, 2, 0, 10)])
        assert fastest_distance(g, 0, 0) == {0: 0, 1: 0, 2: 0}

    def test_unreachable_absent(self):
        g = tvg([(0, 1, 0, 2)], n=3)
        assert 2 not in fastest_distance(g, 0, 0)

    def test_late_midinterval_departure_found(self):
        # leaving a long-open first edge as late as possible matters
        g = tvg([(0, 1, 0, 10), (1, 2, 9, 10)])
        assert fastest_distance(g, 0, 0)[2] == 0

    def test_departure_between_onsets(self):
        # optimal departure 4 = last tick of [0,5), neither an onset nor t
        g = tvg([(0, 1, 0, 5), (1, 2, 7, 9)])
        assert fastest_distance(g, 0, 0)[2] == 3

    def test_witness_departs_at_earliest_of_tied_departures(self):
        # departing at 0 or at 5 both give duration 0; the witness leaves at 0
        g = tvg([(0, 1, 0, 1), (0, 1, 5, 6), (1, 2, 0, 1), (1, 2, 5, 6)])
        assert fastest_distance(g, 0, 0)[2] == 0
        assert witness_journey(g, 0, 2, 0, "fastest") == [(0, 0), (1, 0)]

    def test_fastest_at_most_foremost(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_tvg(rng)
            u = rng.randrange(g.n)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            fast = fastest_distance(g, u, t)
            fore = foremost_distance(g, u, t)
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


class TestRouteCounts:
    def test_diamond_two_shortest_routes(self):
        g = tvg([(0, 1, 0, 10), (1, 3, 0, 10), (0, 2, 0, 10), (2, 3, 0, 10)], n=4)
        assert count_minimal_journeys(g, 0, 3, 0, "shortest") == (2, 2)

    def test_self_pair_counts_empty_route(self):
        g = tvg([(0, 1, 0, 10)])
        for kind in ("shortest", "foremost", "fastest"):
            assert count_minimal_journeys(g, 0, 0, 0, kind) == (0, 1)

    def test_unreachable_is_none(self):
        g = tvg([(0, 1, 0, 2)], n=3)
        assert count_minimal_journeys(g, 0, 2, 0, "shortest") is None

    @pytest.mark.parametrize("kind", ["shortest", "foremost", "fastest"])
    def test_matches_walk_enumeration(self, kind):
        rng = random.Random(47)
        for directed in (False, True):
            for strict in (False, True):
                for _ in range(40):
                    g = random_tvg(rng, n_max=5, e_max=8, directed=directed)
                    t = rng.randrange(g.lifetime.start, g.lifetime.end)
                    u, v = rng.sample(range(g.n), 2)
                    assert count_minimal_journeys(
                        g, u, v, t, kind, strict
                    ) == oracle_route_count(g, u, v, t, kind, strict)

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


class TestOracleSweep:
    @pytest.mark.parametrize("directed", [False, True])
    def test_all_distance_kinds_match_enumeration(self, directed):
        rng = random.Random(53 if directed else 59)
        for _ in range(60):
            g = random_tvg(rng, directed=directed)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            for u in range(g.n):
                expect = oracle_distances(g, u, t)
                assert shortest_distance(g, u, t) == expect["shortest"]
                assert foremost_distance(g, u, t) == expect["foremost"]
                assert fastest_distance(g, u, t) == expect["fastest"]

    def test_strict_mode_matches_enumeration(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_tvg(rng)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            for u in range(g.n):
                expect = oracle_distances(g, u, t, strict=True)
                assert shortest_distance(g, u, t, strict=True) == expect["shortest"]
                assert foremost_distance(g, u, t, strict=True) == expect["foremost"]
                assert fastest_distance(g, u, t, strict=True) == expect["fastest"]

    def test_triangle_style_bound(self):
        # composing a minimal-hop journey to v with a journey leaving v at
        # (or after) its arrival bounds the direct hop count
        rng = random.Random(67)
        for _ in range(30):
            g = random_tvg(rng)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            for u in range(g.n):
                du = shortest_distance(g, u, t)
                for v in du:
                    if v == u:
                        continue
                    steps = witness_journey(g, u, v, t, "shortest")
                    t2 = steps[-1][1]
                    dv = shortest_distance(g, v, t2)
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
            assert shortest_distance(g, u, t, strict) == expect["shortest"]
            assert fastest_distance(g, u, t, strict) == expect["fastest"]
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


class TestSearchWork:
    """Presence-query counts (not timings) of the pruned searches."""

    @pytest.fixture
    def queried(self, monkeypatch):
        calls = []
        next_at_or_after = PresenceSet.next_at_or_after

        def counting(p, t):
            calls.append(p)
            return next_at_or_after(p, t)

        monkeypatch.setattr(PresenceSet, "next_at_or_after", counting)
        return calls

    def test_shortest_on_path_is_linear(self, queried):
        n = 30
        g = tvg([(i, i + 1, 0, 10) for i in range(n - 1)], n=n)
        assert shortest_distance(g, 0, 0) == {i: i for i in range(n)}
        assert len(queried) <= 2 * (n - 1)

    def test_fastest_expands_a_one_tick_source_at_most_twice(self, queried):
        # the source's only link is present at tick 5; the 1-2-3 links
        # open and close often, which makes many departure candidates
        events = [(0, 1, 5, 6)]
        events += [(1, 2, a, a + 1) for a in range(0, 30, 3)]
        events += [(2, 3, a, a + 2) for a in range(1, 28, 4)]
        g = tvg(events, n=4, end=30)
        assert len(_departure_candidates(g, 0)) >= 10
        assert fastest_distance(g, 0, 0) == oracle_distances(g, 0, 0)["fastest"]
        source_link = g.presence[g.out_edges(0)[0][0]]
        assert sum(p is source_link for p in queried) <= 2

    def test_fastest_does_not_expand_nodes_a_later_departure_reached(self, queried):
        # departing at 9 reaches 2..5 at 9; departing at 0 reaches 2 no
        # earlier, so the chain beyond 2 is searched once, not twice
        chain = [(i, i + 1, 9, 10) for i in range(1, 5)]
        g = tvg([(0, 1, 0, 10)] + chain, n=6)
        assert fastest_distance(g, 0, 0) == {v: 0 for v in range(6)}
        beyond = [p for e, p in zip(g.edges, g.presence) if min(e.u, e.v) >= 2]
        assert sum(p is q for p in queried for q in beyond) == len(beyond)


class TestFootprintSeparation:
    def test_path_without_journey_witness(self):
        # (0,1) opens only after (1,2) has closed: footprint path, no journey
        g = tvg([(0, 1, 5, 6), (1, 2, 1, 2)], end=8)
        f = footprint(g, 0, 8)
        assert f.edges == {(0, 1), (1, 2)}
        assert 2 not in foremost_distance(g, 0, 0)

    def test_journey_implies_footprint_path(self):
        import networkx as nx

        rng = random.Random(73)
        for _ in range(30):
            g = random_tvg(rng)
            G = nx.Graph([(e.u, e.v) for e in g.edges])
            G.add_nodes_from(range(g.n))
            src = rng.randrange(g.n)
            for v in foremost_distance(g, src, g.lifetime.start):
                assert nx.has_path(G, src, v)
