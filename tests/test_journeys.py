import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tvgkit import core
from tvgkit.core import Lifetime, PresenceSet, TimeVaryingGraph, build_tvg, footprint
from tvgkit.journeys import (
    KINDS,
    _SEARCHES,
    _critical_ticks,
    count_minimal_journeys,
    distance_map,
    is_journey,
    minimal_route_counts,
    temporal_view,
    witness_journey,
)
from tvgkit.temporal_metrics import temporal_betweenness, temporal_betweenness_all

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
        # a witness search stops once its target is settled; the full
        # search's records must give the same journey
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
        assert distance_map(g, 0, 0, "shortest") == {i: i for i in range(n)}
        assert len(queried) <= 2 * (n - 1)

    def test_shortest_witness_stops_at_its_target(self, queried):
        n = 30
        g = tvg([(i, i + 1, 0, 10) for i in range(n - 1)], n=n)
        assert witness_journey(g, 0, 1, 0, "shortest") == [(0, 0)]
        assert len(queried) <= 2

    def test_shortest_stops_once_every_node_has_its_hop(self, queried):
        # every node enters at hop 1, but 1-2 still lowers node 2's bound
        # from 8 to 0 at hop 2, which no distance reads
        g = tvg([(0, 1, 0, 1), (0, 2, 8, 9), (1, 2, 0, 10)])
        assert distance_map(g, 0, 0, "shortest") == {0: 0, 1: 1, 2: 1}
        assert len(queried) == len(g.out_edges(0))

    def test_foremost_witness_expands_only_until_its_target(self, queried):
        # node 1 is settled first; expanding it would query 1-2
        g = tvg([(0, 1, 0, 10), (0, 2, 5, 10), (1, 2, 0, 10), (2, 3, 0, 10)], n=4)
        assert witness_journey(g, 0, 1, 0, "foremost") == [(0, 0)]
        assert len(queried) == len(g.out_edges(0))

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
    "count_minimal_journeys_u": lambda g, x: count_minimal_journeys(g, x, 0, 0, "shortest"),
    "count_minimal_journeys_v": lambda g, x: count_minimal_journeys(g, 0, x, 0, "shortest"),
    "temporal_betweenness": lambda g, x: temporal_betweenness(g, x, 0, "shortest"),
}


@pytest.mark.parametrize("x", [-1, 3], ids=["-1", "n"])
@pytest.mark.parametrize("entry", list(NODE_ARGS))
def test_out_of_range_node_rejected(entry, x):
    g = tvg([(0, 1, 0, 5), (1, 2, 0, 5)])  # n = 3
    with pytest.raises(ValueError, match=rf"node {x} outside \[0,3\)"):
        NODE_ARGS[entry](g, x)
