import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tvgkit import windows
from tvgkit.core import (
    Edge,
    Footprint,
    Lifetime,
    PresenceSet,
    TimeVaryingGraph,
    active_nodes,
    build_tvg,
    footprint,
    temporal_subgraph,
)
from tvgkit.windows import (
    IndicatorSeries,
    WindowSpec,
    evolve,
    evolve_many,
    footprint_sequence,
    windows_of,
)
from tvgkit.static_metrics import average_clustering, clustering_coefficient, density

from oracles import oracle_clustering, oracle_journey_exists, random_tvg


class TestWindowsOf:
    def test_exact_partition(self):
        assert windows_of(Lifetime(0, 10), WindowSpec(5)) == [(0, 5), (5, 10)]

    def test_sliding(self):
        assert windows_of(Lifetime(0, 10), WindowSpec(4, 2)) == [
            (0, 4),
            (2, 6),
            (4, 8),
            (6, 10),
        ]

    def test_clipped_tail(self):
        assert windows_of(Lifetime(0, 7), WindowSpec(3)) == [(0, 3), (3, 6), (6, 7)]

    def test_coverage_and_disjointness(self):
        rng = random.Random(3)
        for _ in range(50):
            start = rng.randint(-5, 5)
            life = Lifetime(start, start + rng.randint(1, 40))
            length = rng.randint(1, 12)
            stride = rng.randint(1, length)
            wins = windows_of(life, WindowSpec(length, stride))
            covered = set()
            for a, b in wins:
                covered.update(range(a, b))
            assert covered == set(range(life.start, life.end))
            if stride == length:
                assert sum(b - a for a, b in wins) == life.length

    @pytest.mark.parametrize("length,stride", [(0, None), (-1, None), (3, 0), (3, 5)])
    def test_bad_specs_rejected(self, length, stride):
        with pytest.raises(ValueError):
            WindowSpec(length, stride)


class TestFootprintSequence:
    def test_edge_only_in_first_window(self):
        g = build_tvg(2, False, Lifetime(0, 10), [(0, 1, 0, 2)])
        seq = footprint_sequence(g, WindowSpec(5), node_policy="all")
        assert [len(f.edges) for f in seq] == [1, 0]

    def test_single_total_footprint(self):
        g = build_tvg(3, False, Lifetime(0, 10), [(0, 1, 0, 2), (1, 2, 7, 9)])
        seq = footprint_sequence(g, WindowSpec(10))
        assert len(seq) == 1
        assert seq[0].edges == footprint(g, 0, 10).edges

    def test_disjoint_windows_union_is_edge_set(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_tvg(rng)
            seq = footprint_sequence(g, WindowSpec(rng.randint(1, 8)))
            union = set().union(*(f.edges for f in seq))
            assert union == footprint(g, g.lifetime.start, g.lifetime.end).edges

    def test_active_policy_node_universe(self):
        g = build_tvg(4, False, Lifetime(0, 10), [(0, 1, 0, 2)])
        seq = footprint_sequence(g, WindowSpec(5), node_policy="active")
        assert seq[0].nodes == (0, 1)
        assert seq[1].nodes == ()


@st.composite
def graphs_and_specs(draw):
    """Small TVG (directed or not, optional labelled parallel edges, edges
    with several intervals) and a window spec (sliding or partition,
    clipped tail)."""
    n = draw(st.integers(2, 6))
    directed = draw(st.booleans())
    start = draw(st.integers(-5, 5))
    life = Lifetime(start, start + draw(st.integers(1, 30)))
    # short lifetimes, so interval ends often touch window bounds
    ticks = st.integers(life.start, life.end)
    events = []
    for _ in range(draw(st.integers(0, 10))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
        label = draw(st.sampled_from([None, "x", "y"]))
        for _ in range(draw(st.integers(1, 3))):
            a, b = sorted(draw(st.lists(ticks, min_size=2, max_size=2, unique=True)))
            events.append((u, v, a, b) if label is None else (u, v, a, b, label))
    length = draw(st.integers(1, 12))
    stride = draw(st.sampled_from([length, draw(st.integers(1, length))]))
    return build_tvg(n, directed, life, events), WindowSpec(length, stride)


class TestFootprintSweep:
    @settings(max_examples=300, deadline=None)
    @given(case=graphs_and_specs(), node_policy=st.sampled_from(["all", "active"]))
    def test_matches_footprint_per_window(self, case, node_policy):
        g, spec = case
        expected = []
        for a, b in windows_of(g.lifetime, spec):
            f = footprint(g, a, b)
            if node_policy == "active":
                f = Footprint(active_nodes(f), f.directed, f.edges, f.window)
            expected.append(f)
        seq = footprint_sequence(g, spec, node_policy)
        assert seq == expected
        for f, fresh in zip(seq, expected):
            assert f.degrees() == fresh.degrees()
            assert f.links() == fresh.links()

    @pytest.mark.parametrize(
        "directed,handover",
        [
            (True, [(0, 1, 0, 4), (1, 0, 4, 8)]),
            (False, [(0, 1, 0, 4, "x"), (0, 1, 4, 8, "y")]),
            (True, [(0, 1, 0, 4, "x"), (0, 1, 4, 8, "y")]),
        ],
        ids=["arc-to-reverse-arc", "labelled-parallel", "labelled-parallel-arcs"],
    )
    @pytest.mark.parametrize("spec", [WindowSpec(4), WindowSpec(4, 2)])
    def test_pair_handed_over_at_a_window_bound_stays(self, directed, handover, spec):
        # one edge of the pair {0,1} leaves as another enters, so the pair,
        # and with it the triangle 0-1-2, is in every window
        events = handover + [(0, 2, 0, 8), (1, 2, 0, 8)]
        g = build_tvg(3, directed, Lifetime(0, 8), events)
        seq = _matching_fresh_footprints(g, spec)
        assert [f.links() for f in seq] == [{0: 1, 1: 1, 2: 1}] * len(seq)

    def test_edge_with_two_intervals_in_one_window_joins_once(self):
        g = build_tvg(2, False, Lifetime(0, 10), [(0, 1, 1, 2), (0, 1, 3, 4)])
        (f,) = footprint_sequence(g, WindowSpec(10), node_policy="all")
        assert f.edges == {(0, 1)}

    def test_boundary_touching_interval(self):
        # [0, 5) ends where the second window starts: only the first has it
        g = build_tvg(2, False, Lifetime(0, 10), [(0, 1, 0, 5)])
        seq = footprint_sequence(g, WindowSpec(5), node_policy="all")
        assert [len(f.edges) for f in seq] == [1, 0]

    def test_unknown_policy_rejected(self):
        g = build_tvg(2, False, Lifetime(0, 4), [(0, 1, 0, 2)])
        with pytest.raises(ValueError, match="node policy"):
            footprint_sequence(g, WindowSpec(2), node_policy="some")


def _matching_fresh_footprints(g, spec):
    """The footprint sequence of ``g`` under node policy ``all``, after
    checking that it has one footprint per window and each matches a
    footprint built on its own: its edges, degrees and link counts."""
    seq = footprint_sequence(g, spec, "all")
    for f, (a, b) in zip(seq, windows_of(g.lifetime, spec), strict=True):
        assert f == footprint(g, a, b)
        fresh = Footprint(f.nodes, f.directed, f.edges, f.window)
        assert f.degrees() == fresh.degrees()
        assert f.links() == fresh.links()
    return seq


def sweep_case(rng, directed=None):
    """Seeded TVG and sliding or partition window spec for the delta-sweep
    tests: directed or not, node ids up to 79 (bitmasks wider than 64 bits),
    edges concentrated on a pool of nodes so that windows hold triangles,
    labelled parallel edges, intervals from one tick to the whole lifetime,
    and a clipped tail window."""
    n = rng.randint(2, 80)
    if directed is None:
        directed = rng.random() < 0.5
    start = rng.randint(-10, 10)
    life = Lifetime(start, start + rng.randint(1, 60))
    pool = rng.sample(range(n), rng.randint(2, min(n, 14)))
    events = []
    for _ in range(rng.randint(0, 60)):
        u, v = rng.sample(pool if rng.random() < 0.8 else range(n), 2)
        label = rng.choice([None, None, "x", "y"])
        for _ in range(rng.randint(1, 3)):
            a = rng.randrange(life.start, life.end)
            b = min(life.end, a + rng.choice([1, 2, 5, life.length]))
            events.append((u, v, a, b) if label is None else (u, v, a, b, label))
    length = rng.randint(1, 15)
    stride = rng.choice([length, rng.randint(1, length)])
    return build_tvg(n, directed, life, events), WindowSpec(length, stride)


class TestDeltaSweep:
    SEEDS = range(80)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_from_scratch_footprints(self, seed):
        g, spec = sweep_case(random.Random(seed))
        wins = windows_of(g.lifetime, spec)
        for node_policy in ("all", "active"):
            seq = footprint_sequence(g, spec, node_policy)
            assert len(seq) == len(wins)
            for f, (a, b) in zip(seq, wins):
                expected = footprint(g, a, b)
                if node_policy == "active":
                    nodes = active_nodes(expected)
                    expected = Footprint(nodes, g.directed, expected.edges, (a, b))
                assert f == expected
                fresh = Footprint(f.nodes, f.directed, f.edges, f.window)
                assert f == fresh
                assert f.degrees() == fresh.degrees()
                assert f.links() == fresh.links()
                clustering = oracle_clustering(f)
                for x in f.nodes:
                    assert repr(clustering_coefficient(f, x)) == repr(clustering[x])

    def test_instances_cover_the_cases(self):
        cases = [sweep_case(random.Random(seed)) for seed in self.SEEDS]
        graphs = [g for g, _ in cases]
        assert any(g.directed for g in graphs) and not all(g.directed for g in graphs)
        assert any(len({(e.u, e.v) for e in g.edges}) < len(g.edges) for g in graphs)
        arcs = [{(e.u, e.v) for e in g.edges} for g in graphs if g.directed]
        assert any((v, u) in a for a in arcs for u, v in a)  # both arcs of a pair
        assert any(s.stride < s.length for _, s in cases)
        assert any(s.stride == s.length for _, s in cases)
        # a tail window clipped to the lifetime
        assert any(
            b - a < s.length for g, s in cases for a, b in windows_of(g.lifetime, s)[-1:]
        )
        # an interval spanning at least three sliding windows
        assert any(
            b - a >= s.length + 2 * s.stride
            for g, s in cases
            for p in g.presence
            for a, b in p.intervals
        )
        # a window met by two intervals of one footprint edge: of one edge,
        # or of labelled parallel edges
        def met(g, a, b):
            return [
                (e.u, e.v) if g.directed or e.u < e.v else (e.v, e.u)
                for e, p in zip(g.edges, g.presence)
                for s, t in p.intervals
                if s < b and a < t
            ]

        assert any(
            len(set(keys)) < len(keys)
            for g, s in cases
            for a, b in windows_of(g.lifetime, s)
            for keys in [met(g, a, b)]
        )
        fs = [f for g, s in cases for f in footprint_sequence(g, s, "all")]
        assert any(f.edges and max(map(max, f.edges)) >= 64 for f in fs)
        assert sum(1 for f in fs if any(f.links().values())) >= 50

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("stride", [3, 6])
    def test_dense_changing_windows_match_from_scratch(self, directed, stride):
        # most pairs change from window to window and share neighbours, so
        # the link counts are recounted over the window's pairs
        rng = random.Random(stride + directed)
        events = [
            (u, v, a, a + rng.randint(1, 2))
            for u in range(10)
            for v in range(10)
            if u != v
            for a in rng.sample(range(29), 2)
        ]
        g = build_tvg(10, directed, Lifetime(0, 30), events)
        _matching_fresh_footprints(g, WindowSpec(6, stride))

    def test_unsorted_directly_built_tvg(self):
        # a TVG built without build_tvg: undirected endpoints in either order
        g = TimeVaryingGraph(
            3, False, Lifetime(0, 6),
            [Edge(2, 0), Edge(0, 2, "x"), Edge(1, 0), Edge(2, 1)],
            [PresenceSet([(0, 4)]), PresenceSet([(2, 6)]),
             PresenceSet([(1, 2)]), PresenceSet([(3, 5)])],
        )
        _matching_fresh_footprints(g, WindowSpec(2, 1))

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("node_policy", ["all", "active"])
    def test_static_indicators_build_no_adjacency(self, monkeypatch, directed, node_policy):
        # the sweep hands every static indicator its degrees and link counts,
        # so no window rebuilds its neighbour bitmasks
        names = ["density", "avg_clustering", "avg_modularity", "powerlaw"]
        g, _ = sweep_case(random.Random(11), directed)
        spec = WindowSpec(6, 2)
        windows.indicator_names()  # load the registry
        expected = []
        for a, b in windows_of(g.lifetime, spec):
            f = footprint(g, a, b)
            if node_policy == "active":
                f = Footprint(active_nodes(f), f.directed, f.edges, f.window)
            expected.append([repr(float(windows.STATIC_INDICATORS[n](f))) for n in names])

        def no_adjacency(self):
            raise AssertionError("a window built its neighbour bitmasks")

        monkeypatch.setattr(Footprint, "adjacency", no_adjacency)
        series = evolve_many(g, spec, names, node_policy)
        assert [[repr(v) for v in row] for row in zip(*(s.values for s in series))] == expected
        assert any(v > 0 for v in series[1].values)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("node_policy", ["all", "active"])
    def test_static_indicators_build_no_graph_adjacency(
        self, monkeypatch, directed, node_policy
    ):
        # only journey searches read a graph's out- and in-adjacency, so
        # neither building the graph nor a static sweep over it builds them
        names = ["density", "avg_clustering", "avg_modularity", "powerlaw"]

        def no_adjacency(self):
            raise AssertionError("a graph built its adjacency")

        monkeypatch.setattr(TimeVaryingGraph, "_build_adjacency", no_adjacency)
        g, spec = sweep_case(random.Random(12), directed)
        series = evolve_many(g, spec, names, node_policy)
        assert any(v > 0 for v in series[0].values)
        with pytest.raises(AssertionError, match="adjacency"):
            g.in_edges(0)


class TestTvgSequence:
    """One temporal subgraph per window, as ``evolve`` builds them."""

    def test_footprints_commute(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_tvg(rng)
            spec = WindowSpec(rng.randint(2, 8))
            fps = footprint_sequence(g, spec, node_policy="all")
            subs = [temporal_subgraph(g, a, b) for a, b in windows_of(g.lifetime, spec)]
            for sub, f in zip(subs, fps):
                assert footprint(sub, sub.lifetime.start, sub.lifetime.end) == f

    def test_window_journeys_survive_in_subgraph(self):
        # a journey inside window i is a journey of its temporal subgraph, and
        # conversely every subgraph journey is one of the full graph
        rng = random.Random(17)
        checked = 0
        for _ in range(30):
            g = random_tvg(rng, n_max=5, e_max=8)
            for a, b in windows_of(g.lifetime, WindowSpec(6)):
                sub = temporal_subgraph(g, a, b)
                t0 = sub.lifetime.start
                for u in range(g.n):
                    for v in range(g.n):
                        if oracle_journey_exists(sub, u, v, t0):
                            assert oracle_journey_exists(g, u, v, t0)
                            checked += 1
        assert checked > 0


class TestEvolve:
    def test_density_then_empty(self):
        g = build_tvg(3, False, Lifetime(0, 10), [(0, 1, 0, 5), (1, 2, 0, 5)])
        s = evolve(g, WindowSpec(5), "density", node_policy="all")
        assert s.values[0] == pytest.approx(4 / 6)
        assert math.isnan(s.values[1]) or s.values[1] == 0.0

    def test_constant_tvg_constant_series(self):
        events = [(0, 1, 0, 12), (1, 2, 0, 12), (0, 2, 0, 12)]
        g = build_tvg(3, False, Lifetime(0, 12), events)
        for name in ("density", "avg_clustering", "avg_modularity"):
            s = evolve(g, WindowSpec(4), name)
            assert s.values[0] == s.values[1] == s.values[2]
        s = evolve(g, WindowSpec(4), "diameter")
        assert s.values[0] == s.values[1] == s.values[2] == 1.0

    def test_two_phase_clustering_step(self):
        # sparse path contacts then clique contacts, boundary at t=8
        events = [(0, 1, 1, 2), (1, 2, 3, 4), (2, 3, 5, 6)]
        events += [
            (u, v, 8 + (u + v) % 4, 12)
            for u in range(4)
            for v in range(u + 1, 4)
        ]
        g = build_tvg(4, False, Lifetime(0, 16), events)
        s = evolve(g, WindowSpec(8), "avg_clustering", node_policy="all")
        expected = [
            average_clustering(footprint(g, 0, 8)),
            average_clustering(footprint(g, 8, 16)),
        ]
        assert s.values == pytest.approx(expected)
        assert s.values[1] > s.values[0]

    def test_unknown_indicator_rejected(self):
        g = build_tvg(2, False, Lifetime(0, 4), [(0, 1, 0, 2)])
        with pytest.raises(ValueError, match="unknown indicator"):
            evolve(g, WindowSpec(2), "nope")

    def test_determinism(self):
        rng = random.Random(23)
        g = random_tvg(rng)
        a = evolve(g, WindowSpec(4, 2), "avg_modularity")
        b = evolve(g, WindowSpec(4, 2), "avg_modularity")
        assert a.windows == b.windows
        assert all(
            (math.isnan(x) and math.isnan(y)) or x == y
            for x, y in zip(a.values, b.values)
        )

    def test_policies_agree_without_node_count_dependence(self):
        from tvgkit.static_metrics import pair_modularity

        g = build_tvg(5, False, Lifetime(0, 8), [(0, 1, 0, 4), (1, 2, 0, 4)])
        seq_all = footprint_sequence(g, WindowSpec(4), node_policy="all")
        seq_act = footprint_sequence(g, WindowSpec(4), node_policy="active")
        # pairwise modularity ignores |V|: both policies agree on active pairs
        assert pair_modularity(seq_all[0], 0, 2) == pair_modularity(seq_act[0], 0, 2)
        # density differs predictably with isolated nodes present
        assert density(seq_act[0]) > density(seq_all[0])


class TestEvolveMany:
    STATIC = ["density", "avg_clustering", "avg_modularity", "powerlaw"]

    def _count_builds(self, monkeypatch):
        counts = {"footprint": 0, "subgraph": 0}
        init, swept = Footprint.__init__, Footprint._swept
        subgraph = windows.temporal_subgraph

        def counting_init(self, *args, **kwargs):
            counts["footprint"] += 1
            init(self, *args, **kwargs)

        def counting_swept(*args):  # the windowed sweep's footprints
            counts["footprint"] += 1
            return swept(*args)

        def counting_subgraph(*args):
            counts["subgraph"] += 1
            return subgraph(*args)

        monkeypatch.setattr(Footprint, "__init__", counting_init)
        monkeypatch.setattr(Footprint, "_swept", staticmethod(counting_swept))
        monkeypatch.setattr(windows, "temporal_subgraph", counting_subgraph)
        return counts

    @pytest.mark.parametrize("node_policy", ["all", "active"])
    def test_one_footprint_per_window_for_all_static(self, monkeypatch, node_policy):
        g = random_tvg(random.Random(4))
        spec = WindowSpec(4, 2)
        counts = self._count_builds(monkeypatch)
        series = evolve_many(g, spec, self.STATIC, node_policy)
        n = len(windows_of(g.lifetime, spec))
        assert [len(s) for s in series] == [n] * 4
        assert counts == {"footprint": n, "subgraph": 0}

    @pytest.mark.parametrize("node_policy", ["all", "active"])
    def test_one_footprint_and_subgraph_per_window_for_a_mix(
        self, monkeypatch, node_policy
    ):
        g = random_tvg(random.Random(6))
        spec = WindowSpec(5)
        counts = self._count_builds(monkeypatch)
        evolve_many(g, spec, ["density", "diameter", "avg_clustering", "closeness"], node_policy)
        n = len(windows_of(g.lifetime, spec))
        assert counts == {"footprint": n, "subgraph": n}

    @pytest.mark.parametrize("node_policy", ["all", "active"])
    def test_static_indicators_build_no_timeline(self, monkeypatch, node_policy):
        def no_timeline(g):
            raise AssertionError("a static indicator built a timeline")

        monkeypatch.setattr("tvgkit.core._build_timeline", no_timeline)
        g = random_tvg(random.Random(4))
        series = evolve_many(g, WindowSpec(4, 2), self.STATIC, node_policy)
        assert any(v > 0 for v in series[0].values)

    def test_matches_evolve_float_for_float(self):
        names = windows.indicator_names()
        rng = random.Random(31)
        for _ in range(12):
            g = random_tvg(rng, n_max=6, e_max=9, directed=rng.random() < 0.5)
            length = rng.randint(3, 8)
            spec = WindowSpec(length, rng.randint(1, length))
            for node_policy in ("all", "active"):
                kind = rng.choice(["shortest", "foremost", "fastest"])
                many = evolve_many(g, spec, names, node_policy, kind)
                for name, s in zip(names, many):
                    one = evolve(g, spec, name, node_policy, kind)
                    assert s.name == name and s.windows == one.windows
                    assert [repr(v) for v in s.values] == [repr(v) for v in one.values]

    def test_unknown_name_rejected_before_any_window(self, monkeypatch):
        g = build_tvg(2, False, Lifetime(0, 4), [(0, 1, 0, 2)])
        counts = self._count_builds(monkeypatch)
        with pytest.raises(ValueError, match="unknown indicator 'nope'"):
            evolve_many(g, WindowSpec(2), ["density", "nope"])
        for bad, message in (
            ({"kind": "slowest"}, "unknown distance kind 'slowest'"),
            ({"reducer": "median"}, "unknown reducer 'median'"),
            ({"node_policy": "some"}, "unknown node policy 'some'"),
        ):
            with pytest.raises(ValueError, match=message):
                evolve_many(g, WindowSpec(2), ["density", "closeness"], **bad)
        assert counts == {"footprint": 0, "subgraph": 0}

    @pytest.mark.parametrize("node_policy, per_window", [("all", 1), ("active", 2)])
    def test_one_policy_graph_per_window_for_all_temporal(
        self, monkeypatch, node_policy, per_window
    ):
        # the subgraph, plus its restriction to the active nodes; never one
        # per indicator
        built = 0
        assign = TimeVaryingGraph._assign

        def counting_assign(self, *args):  # every graph build, checked or not
            nonlocal built
            built += 1
            assign(self, *args)

        g = random_tvg(random.Random(6))
        spec = WindowSpec(5)
        monkeypatch.setattr(TimeVaryingGraph, "_assign", counting_assign)
        evolve_many(g, spec, ["closeness", "diameter", "betweenness"], node_policy)
        assert built == per_window * len(windows_of(g.lifetime, spec))

    def test_static_value_error_propagates(self, monkeypatch):
        def broken(f):
            raise ValueError("indicator bug")

        windows.indicator_names()  # load the registry before patching it
        monkeypatch.setitem(windows.STATIC_INDICATORS, "density", broken)
        g = build_tvg(2, False, Lifetime(0, 4), [(0, 1, 0, 2)])
        with pytest.raises(ValueError, match="indicator bug"):
            evolve(g, WindowSpec(2), "density")


class TestIndicatorSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IndicatorSeries("x", [(0, 1)], [])
