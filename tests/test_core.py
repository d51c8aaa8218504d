import random

import pytest
from hypothesis import given, strategies as st

from tvgkit.core import (
    Edge,
    Footprint,
    Lifetime,
    PresenceSet,
    TimeVaryingGraph,
    active_nodes,
    build_tvg,
    footprint,
    presence,
    temporal_subgraph,
)

from tvgkit.journeys import distance_map, is_journey, witness_journey

from oracles import oracle_distances, random_tvg


def simple_tvg(events, n=3, end=10, directed=False):
    return build_tvg(n, directed, Lifetime(0, end), events)


class TestPresenceSet:
    def test_overlapping_intervals_merge(self):
        g = simple_tvg([(0, 1, 0, 5), (0, 1, 3, 8)], n=2)
        assert g.presence[0].intervals == [(0, 8)]

    def test_adjacent_half_open_intervals_merge(self):
        g = simple_tvg([(0, 1, 0, 2), (0, 1, 2, 4)], n=2)
        assert g.presence[0].intervals == [(0, 4)]

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^empty interval \[3, 3\)$"):
            PresenceSet([(0, 2), (3, 3)])

    def test_normalization_idempotent(self):
        p = PresenceSet([(5, 8), (0, 2), (6, 9)])
        assert PresenceSet(p.intervals).intervals == p.intervals == [(0, 2), (5, 9)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 8)).map(
                lambda ab: (ab[0], ab[0] + ab[1])
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_normal_form(self, raw):
        p = PresenceSet(raw)
        ivals = p.intervals
        assert all(a < b for a, b in ivals)
        # sorted, disjoint and non-adjacent
        assert all(ivals[i][1] < ivals[i + 1][0] for i in range(len(ivals) - 1))
        # membership preserved
        for a, b in raw:
            for t in range(a, b):
                assert t in p

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 8)).map(
                lambda ab: (ab[0], ab[0] + ab[1])
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(-2, 45),
        st.integers(1, 12),
    )
    def test_bisect_matches_linear_scan(self, raw, t, width):
        p = PresenceSet(raw)
        linear = any(a <= t < b for a, b in p.intervals)
        assert (t in p) == linear
        nxt = min((max(a, t) for a, b in p.intervals if b > t), default=None)
        assert p.next_at_or_after(t) == nxt
        prev = max((min(b - 1, t) for a, b in p.intervals if a <= t), default=None)
        assert p.latest_at_or_before(t) == prev
        clipped = [
            (max(a, t), min(b, t + width))
            for a, b in p.intervals
            if a < t + width and b > t
        ]
        assert p.clip(t, t + width) == PresenceSet(clipped)
        assert p.clip(t, t + width).intervals == clipped

    @pytest.mark.parametrize(
        "built,intervals",
        [
            (lambda: PresenceSet._checked([2, 5]), [(2, 5)]),
            (lambda: PresenceSet._checked([6, 9, 0, 2, 5, 7]), [(0, 2), (5, 9)]),
            (lambda: PresenceSet([(0, 4), (6, 12)]).clip(2, 8), [(2, 4), (6, 8)]),
            (lambda: PresenceSet([(0, 4), (6, 12)]).clip(0, 12), [(0, 4), (6, 12)]),
            (lambda: PresenceSet([(0, 4), (6, 12)]).clip(1, 12), [(1, 4), (6, 12)]),
            (lambda: PresenceSet([(0, 4), (6, 12)]).clip(4, 6), []),
        ],
        ids=["checked-one", "checked-several", "clip-clamped", "clip-whole",
             "clip-clamped-first", "clip-empty"],
    )
    def test_every_construction_path_has_one_representation(self, built, intervals):
        # starts and ends of another container type would compare unequal
        # ([1] != (1,)) or fail to hash
        p, ref = built(), PresenceSet(intervals)
        assert p == ref and ref == p
        assert hash(p) == hash(ref)
        assert p.intervals == intervals

    def test_clip_leaves_its_source_unchanged(self):
        p = PresenceSet([(0, 4), (6, 12)])
        for a, b in [(2, 8), (1, 12), (0, 5), (4, 6), (0, 12)]:
            p.clip(a, b)
        assert p == PresenceSet([(0, 4), (6, 12)])
        assert p.intervals == [(0, 4), (6, 12)]


class TestBuildTvg:
    def test_empty_event_list(self):
        g = simple_tvg([], n=3)
        assert len(g.edges) == 0
        assert footprint(g, 0, 10).edges == frozenset()

    def test_undirected_canonical_endpoints(self):
        g = simple_tvg([(2, 0, 1, 3)])
        assert (g.edges[0].u, g.edges[0].v) == (0, 2)

    def test_label_distinguishes_parallel_edges(self):
        g = simple_tvg([(0, 1, 0, 2, "a"), (0, 1, 4, 6, "b")], n=2)
        assert len(g.edges) == 2

    @pytest.mark.parametrize(
        "events,match",
        [
            ([(0, 1, 5, 2)], "inverted"),
            ([(0, 1, 2, 2)], "inverted"),
            ([(0, 5, 0, 2)], "out of range"),
            ([(0, 1, -3, 2)], "lifetime"),
            ([(0, 1, 8, 12)], "lifetime"),
            ([(1, 1, 0, 2)], "self-loop"),
            pytest.param(
                [(0, 1, 2)], r"^malformed event record \(0, 1, 2\)$",
                id="events6-malformed",
            ),
        ],
    )
    def test_bad_events_rejected_with_diagnostic(self, events, match):
        with pytest.raises(ValueError, match=match):
            simple_tvg(events)

    @pytest.mark.parametrize("directed", [False, True])
    def test_equals_checked_construction(self, directed):
        # build_tvg skips the checks of the public constructors; its graph
        # must still be the one they build, edge for edge, in the same order:
        # edges by (u, v, label), with no label as "", ties in order of
        # first appearance
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(2, 7)
            start = rng.randint(-5, 5)
            life = Lifetime(start, start + rng.randint(1, 25))
            events = []
            for _ in range(rng.randint(0, 25)):
                u, v = rng.sample(range(n), 2)
                label = rng.choice([None, None, "", "x", "y"])
                a = rng.randrange(life.start, life.end)
                # overlapping, adjacent and shuffled intervals of one edge
                for _ in range(rng.randint(1, 3)):
                    b = rng.randint(a + 1, life.end)
                    events.append((u, v, a, b) if label is None else (u, v, a, b, label))
                    a = rng.choice([b, rng.randrange(life.start, b)])
                    if a >= life.end:
                        break
            rng.shuffle(events)
            groups = {}
            for u, v, a, b, *label in events:
                if not directed and u > v:
                    u, v = v, u
                groups.setdefault((u, v, *(label or [None])), []).append((a, b))
            keys = sorted(groups, key=lambda k: (k[0], k[1], k[2] or ""))
            expected = TimeVaryingGraph(
                n, directed, life, [Edge(*k) for k in keys],
                [PresenceSet(groups[k]) for k in keys],
            )
            g = build_tvg(n, directed, life, events)
            assert (g.n, g.directed, g.lifetime) == (n, directed, life)
            assert g.edges == expected.edges
            assert g.presence == expected.presence
            assert [p.intervals for p in g.presence] == [
                p.intervals for p in expected.presence
            ]
            for x in range(n):
                assert g.out_edges(x) == expected.out_edges(x)
                assert g.in_edges(x) == expected.in_edges(x)


class TestConstructor:
    def test_empty_lifetime_rejected(self):
        with pytest.raises(ValueError, match=r"^empty lifetime \[5, 5\)$"):
            Lifetime(5, 5)

    def test_self_loop_rejected(self):
        # an undirected loop would be two identical arcs at its node, so
        # every walk through it would count twice
        for directed in (False, True):
            with pytest.raises(ValueError, match=r"^self-loop \(1, 1\) rejected$"):
                TimeVaryingGraph(
                    2, directed, Lifetime(0, 4), [Edge(0, 1), Edge(1, 1)],
                    [PresenceSet([(0, 2)]), PresenceSet([(1, 3)])],
                )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^edges and presence lists differ in length$"):
            TimeVaryingGraph(2, False, Lifetime(0, 4), [Edge(0, 1)], [])

    def test_interval_outside_lifetime_rejected(self):
        with pytest.raises(
            ValueError, match=r"^interval \[2,6\) of edge \(0,1\) outside lifetime$"
        ):
            TimeVaryingGraph(
                2, False, Lifetime(0, 4), [Edge(0, 1)], [PresenceSet([(0, 1), (2, 6)])]
            )

    @pytest.mark.parametrize("edge", [Edge(-1, 1), Edge(0, 5), Edge(2, 0)])
    def test_endpoint_outside_node_range_rejected(self, edge):
        # a negative index would wrap onto a real node of the adjacency
        message = rf"^edge \({edge.u},{edge.v}\) has an endpoint outside \[0,2\)$"
        with pytest.raises(ValueError, match=message):
            TimeVaryingGraph(2, False, Lifetime(0, 4), [edge], [PresenceSet([(0, 2)])])


class TestAdjacency:
    @pytest.mark.parametrize("directed", [False, True])
    def test_in_edges_list_every_edge_into_a_node(self, directed):
        rng = random.Random(21)
        parallel = 0
        for _ in range(300):
            n = rng.randint(2, 6)
            events = []
            for _ in range(rng.randint(0, 12)):
                u, v = rng.sample(range(n), 2)
                a = rng.randrange(0, 11)
                events.append((u, v, a, a + 1, rng.choice(["x", "y", "z"])))
            g = build_tvg(n, directed, Lifetime(0, 12), events)
            parallel += len(g.edges) - len({(e.u, e.v) for e in g.edges})
            for v in range(n):
                # edge i from x to v, in edge order; undirected, either way round
                expected = [
                    (i, e.u if e.v == v else e.v)
                    for i, e in enumerate(g.edges)
                    if e.v == v or (not directed and e.u == v)
                ]
                assert g.in_edges(v) == expected
        assert parallel > 0


class TestFastestStartState:
    """A fastest flood from ``t`` starts with the arcs present at ``t``,
    replayed from the graph's timeline over the ticks ``(t - longest, t]``."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_floods_from_every_start_match_oracle(self, directed):
        rng = random.Random(23)
        parallel = 0
        for _ in range(3):
            base = random_tvg(rng, n_max=6, e_max=9, horizon=30, directed=directed)
            # a labelled parallel edge beside some edges, present at other times
            events = [
                (e.u, e.v, a, b) for e, p in zip(base.edges, base.presence) for a, b in p.intervals
            ]
            life = base.lifetime
            for e in base.edges:
                if rng.random() < 0.5:
                    a = rng.randrange(life.start, life.end)
                    events.append((e.u, e.v, a, rng.randint(a + 1, life.end), rng.choice("xy")))
            g = build_tvg(base.n, directed, life, events)
            parallel += len(g.edges) - len({(e.u, e.v) for e in g.edges})
            for strict in (False, True):
                for t in range(life.start, life.end):
                    for u in range(g.n):
                        d = distance_map(g, u, t, "fastest", strict)
                        assert d == oracle_distances(g, u, t, strict)["fastest"]
                        for v in d.keys() - {u}:
                            steps = witness_journey(g, u, v, t, "fastest", strict)
                            assert is_journey(g, steps, strict=strict)
                            assert steps[0][1] >= t
                            assert steps[-1][1] - steps[0][1] == d[v]
        assert parallel > 0

    def test_the_longest_interval_is_present_at_its_last_tick(self):
        # (0,1)'s [4, 8) is the longest interval, so a flood at its last tick
        # 7 replays from its start 4; its earlier [1, 3) closed at 2
        g = simple_tvg([(0, 1, 1, 3), (0, 1, 4, 8), (1, 2, 7, 8)], n=3)
        assert g.timeline().longest == 4
        assert distance_map(g, 0, 7, "fastest") == {0: 0, 1: 0, 2: 0}
        assert witness_journey(g, 0, 2, 7, "fastest") == [(0, 7), (1, 7)]
        assert distance_map(g, 0, 7, "fastest", strict=True) == {0: 0, 1: 0}
        for strict in (False, True):
            for t in range(10):
                expect = oracle_distances(g, 0, t, strict)["fastest"]
                assert distance_map(g, 0, t, "fastest", strict) == expect
        assert simple_tvg([], n=2).timeline().longest == 0


class TestPresenceQuery:
    def test_interior_point(self):
        g = simple_tvg([(0, 1, 0, 8)], n=2)
        assert presence(g, 0, 7)

    def test_half_open_right_endpoint(self):
        g = simple_tvg([(0, 1, 0, 8)], n=2)
        assert not presence(g, 0, 8)

    def test_gap_point(self):
        g = simple_tvg([(0, 1, 0, 2), (0, 1, 5, 8)], n=2)
        assert not presence(g, 0, 3)

    def test_outside_lifetime_rejected(self):
        g = simple_tvg([(0, 1, 0, 8)], n=2)
        with pytest.raises(ValueError, match=r"t=10 outside lifetime \[0,10\)"):
            presence(g, 0, 10)

    @pytest.mark.parametrize("e", [-1, 2], ids=["-1", "m"])
    def test_out_of_range_edge_rejected(self, e):
        # -1 would otherwise read the last edge's presence
        g = simple_tvg([(0, 1, 0, 8), (0, 1, 2, 4, "alt")], n=2)
        assert len(g.edges) == 2
        with pytest.raises(ValueError, match=rf"edge {e} outside \[0,2\)"):
            presence(g, e, 3)


class TestFootprint:
    def test_disjoint_window_empty(self):
        g = simple_tvg([(0, 1, 0, 2)])
        assert footprint(g, 3, 5).edges == frozenset()

    def test_overlapping_window_keeps_edge(self):
        g = simple_tvg([(0, 1, 0, 2)])
        assert footprint(g, 1, 5).edges == {(0, 1)}

    def test_total_aggregation_equals_edge_set(self):
        g = simple_tvg([(0, 1, 0, 2), (1, 2, 4, 9)])
        assert footprint(g, 0, 10).edges == {(0, 1), (1, 2)}

    def test_monotone_in_window_growth(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_tvg(rng)
            end = g.lifetime.end
            for t2 in range(1, end):
                assert footprint(g, 0, t2).edges <= footprint(g, 0, end).edges

    def test_inverted_window_rejected(self):
        g = simple_tvg([(0, 1, 0, 2)])
        with pytest.raises(ValueError):
            footprint(g, 5, 3)

    def test_endpoint_outside_universe_rejected(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 2\) has an endpoint outside"):
            Footprint([0, 1], False, [(0, 1), (1, 2), (0, 2)], (0, 1))
        with pytest.raises(ValueError, match=r"^edge \(5, 1\) has an endpoint outside"):
            Footprint([1, 2], True, [(1, 2), (5, 1)], (0, 1))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"self-loop \(1, 1\)"):
            Footprint(range(3), False, [(0, 1), (1, 1)], (0, 1))

    def test_directed_undirected_view_built_once(self):
        f = Footprint(range(3), True, [(0, 1), (1, 0), (2, 1)], (0, 1))
        assert f.undirected_edges() == {(0, 1), (1, 2)}
        assert f.undirected_edges() is f.undirected_edges()

    def test_adjacency_bitmasks_index_universe_positions(self):
        f = Footprint([10, 20, 30, 40], True, [(20, 10), (10, 20), (40, 20)], (0, 1))
        assert f.adjacency() == [0b0010, 0b1001, 0b0000, 0b0010]
        assert f.degrees() == {10: 1, 20: 2, 30: 0, 40: 1}
        b = f.adjacency()[f.nodes.index(20)]
        assert {y for i, y in enumerate(f.nodes) if b >> i & 1} == {10, 40}

    def test_links_count_edges_among_neighbours(self):
        # triangle 1-2-3 plus pendant 4 on 3; both arcs of 1-2 count once
        f = Footprint([1, 2, 3, 4, 5], True, [(1, 2), (2, 1), (2, 3), (3, 1), (3, 4)], (0, 1))
        assert f.degrees() == {1: 2, 2: 2, 3: 3, 4: 1, 5: 0}
        assert f.links() == {1: 1, 2: 1, 3: 1, 4: 0, 5: 0}

    def test_node_outside_universe_rejected(self):
        f = Footprint([0, 1, 2], False, [(0, 1)], (0, 1))
        with pytest.raises(ValueError, match=r"^node 99 is not in the footprint"):
            f.degree(99)
        assert f.degree(2) == 0 and f.adjacency()[f.nodes.index(2)] == 0


class TestTemporalSubgraph:
    def test_clipping(self):
        g = simple_tvg([(0, 1, 0, 10)])
        sub = temporal_subgraph(g, 4, 6)
        assert sub.presence[0].intervals == [(4, 6)]

    def test_edge_dropped_when_never_present(self):
        g = simple_tvg([(0, 1, 0, 3), (1, 2, 5, 9)])
        sub = temporal_subgraph(g, 5, 9)
        assert [(e.u, e.v) for e in sub.edges] == [(1, 2)]
        assert sub.n == g.n  # node set preserved

    def test_full_lifetime_identity_and_idempotence(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_tvg(rng)
            full = temporal_subgraph(g, g.lifetime.start, g.lifetime.end)
            assert full == g
            a, b = g.lifetime.start + 2, g.lifetime.end - 2
            once = temporal_subgraph(g, a, b)
            assert temporal_subgraph(once, a, b) == once

    def test_commutes_with_footprint(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_tvg(rng)
            a, b = 3, 11
            assert footprint(temporal_subgraph(g, a, b), a, b) == footprint(g, a, b)

    def test_window_outside_lifetime_rejected(self):
        g = simple_tvg([(0, 1, 0, 2)])
        with pytest.raises(ValueError):
            temporal_subgraph(g, 5, 12)


class TestActiveNodes:
    def test_isolated_node_excluded(self):
        g = simple_tvg([(0, 1, 0, 2), (1, 2, 0, 2), (0, 2, 0, 2)], n=4)
        assert active_nodes(footprint(g, 0, 10)) == {0, 1, 2}

    def test_empty_footprint(self):
        g = simple_tvg([(0, 1, 0, 2)])
        assert active_nodes(footprint(g, 5, 9)) == set()

    def test_complete_footprint(self):
        events = [(u, v, 0, 2) for u in range(4) for v in range(u + 1, 4)]
        g = simple_tvg(events, n=4)
        assert active_nodes(footprint(g, 0, 10)) == {0, 1, 2, 3}
