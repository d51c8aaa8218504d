import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from tvgkit import core
from tvgkit.core import (
    Lifetime,
    active_nodes,
    build_tvg,
    footprint,
    restrict_nodes,
    temporal_subgraph,
)
from tvgkit.journeys import (
    KINDS,
    distance_map,
    minimal_route_counts,
    temporal_view,
    witness_journey,
)
from tvgkit.temporal_metrics import (
    diameter,
    eccentricity,
    temporal_betweenness,
    temporal_betweenness_all,
    temporal_closeness,
)
from tvgkit.windows import (
    REDUCERS,
    TEMPORAL_INDICATORS,
    WindowSpec,
    _reduce,
    _window_temporal,
    evolve,
    evolve_many,
    windows_of,
)

from oracles import (
    oracle_betweenness,
    oracle_distances,
    random_always_on_tvg,
    random_tvg,
)


def tvg(events, n=3, end=10, directed=False):
    return build_tvg(n, directed, Lifetime(0, end), events)


def always(edges, n, end=10):
    return tvg([(u, v, 0, end) for u, v in edges], n=n, end=end)


class TestEccentricity:
    def test_path_endpoint(self):
        g = always([(0, 1), (1, 2)], 3)
        assert eccentricity(g, 0, 0, "shortest") == 2.0

    def test_path_center(self):
        g = always([(0, 1), (1, 2)], 3)
        assert eccentricity(g, 1, 0, "shortest") == 1.0

    def test_unreachable_is_infinite(self):
        g = tvg([(0, 1, 0, 2)], n=3)
        assert math.isinf(eccentricity(g, 0, 0, "shortest"))

    def test_singleton_zero(self):
        g = build_tvg(1, False, Lifetime(0, 4), [])
        assert eccentricity(g, 0, 0, "foremost") == 0.0

    def test_static_clique_fastest_zero(self):
        g = always([(0, 1), (1, 2), (0, 2)], 3)
        for u in range(3):
            assert eccentricity(g, u, 0, "fastest") == 0.0

    def test_path_per_kind(self):
        g = always([(0, 1), (1, 2)], 3)
        assert eccentricity(g, 0, 0, "shortest") == 2.0
        assert eccentricity(g, 0, 0, "foremost") == 0.0
        assert eccentricity(g, 0, 0, "fastest") == 0.0
        assert len(distance_map(g, 0, 0, "foremost")) == 3


class TestDiameter:
    def test_path(self):
        g = always([(0, 1), (1, 2)], 3)
        assert diameter(g, 0, "shortest") == 2.0

    def test_clique_is_one(self):
        g = always([(0, 1), (1, 2), (0, 2)], 3)
        assert diameter(g, 0, "shortest") == 1.0

    def test_clique_fastest_is_zero(self):
        g = always([(0, 1), (1, 2), (0, 2)], 3)
        assert diameter(g, 0, "fastest") == 0.0

    def test_disconnected_infinite(self):
        g = tvg([(0, 1, 0, 2)], n=3)
        assert math.isinf(diameter(g, 0, "foremost"))

    def test_is_max_eccentricity(self):
        rng = random.Random(3)
        for _ in range(15):
            g = random_tvg(rng)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            for kind in ("shortest", "foremost", "fastest"):
                eccs = [eccentricity(g, u, t, kind) for u in range(g.n)]
                assert diameter(g, t, kind) == max(eccs)

    def test_time_outside_lifetime_rejected_on_every_graph(self):
        # a graph without nodes runs no search, so diameter checks t itself
        g = build_tvg(3, False, Lifetime(0, 10), [(0, 1, 0, 4)])
        for h in (g, restrict_nodes(g, [])):
            with pytest.raises(ValueError, match=r"^t=999 outside lifetime \[0,10\)$"):
                diameter(h, 999, "shortest")


class TestBetweenness:
    def test_star_center(self):
        # routes 1-0-2 and 2-0-1 both pass through the hub
        g = always([(0, 1), (0, 2)], 3)
        assert temporal_betweenness(g, 0, 0, "shortest") == 2.0

    def test_clique_interior_never_needed(self):
        g = always([(0, 1), (1, 2), (0, 2)], 3)
        for q in range(3):
            assert temporal_betweenness(g, q, 0, "shortest") == 0.0

    def test_diamond_split_credit(self):
        # two shortest 0-3 routes, one through each middle node
        g = always([(0, 1), (1, 3), (0, 2), (2, 3)], 4)
        assert temporal_betweenness(g, 1, 0, "shortest") == pytest.approx(1.0)
        assert temporal_betweenness(g, 2, 0, "shortest") == pytest.approx(1.0)

    def test_temporal_order_breaks_symmetry(self):
        # relay works 0->2 via 1, but not 2->0: journeys are time-asymmetric
        g = tvg([(0, 1, 1, 2), (1, 2, 5, 6)], n=3)
        b = temporal_betweenness(g, 1, 0, "foremost")
        assert b == 1.0

    def test_invalid_time_rejected(self):
        g = always([(0, 1)], 2)
        with pytest.raises(ValueError):
            temporal_betweenness(g, 0, 99, "shortest")

    @pytest.mark.parametrize("n", [0, 2])
    def test_invalid_time_message_matches_journeys(self, n):
        g = build_tvg(n, False, Lifetime(0, 10), [(0, 1, 0, 10)] if n else [])
        with pytest.raises(ValueError, match=r"^t=99 outside lifetime \[0,10\)$"):
            temporal_betweenness_all(g, 99, "shortest")
        with pytest.raises(ValueError, match=r"^t=99 outside lifetime \[0,10\)$"):
            distance_map(g, 0, 99, "shortest")

    def test_matches_networkx_on_static_graphs(self):
        import networkx as nx

        rng = random.Random(7)
        for _ in range(12):
            g = random_always_on_tvg(rng)
            G = nx.Graph([(e.u, e.v) for e in g.edges])
            G.add_nodes_from(range(g.n))
            ref = nx.betweenness_centrality(G, normalized=False)
            for q in range(g.n):
                # ordered pairs double nx's unordered undirected count
                assert temporal_betweenness(g, q, 0, "shortest") == pytest.approx(
                    2 * ref[q]
                )

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["shortest", "foremost", "fastest"]),
        directed=st.booleans(),
        strict=st.booleans(),
    )
    def test_all_nodes_match_walk_oracle(self, seed, kind, directed, strict):
        rng = random.Random(seed)
        g = random_tvg(rng, n_max=6, e_max=9, horizon=10, directed=directed)
        t = rng.randrange(g.lifetime.start, g.lifetime.end)
        got = temporal_betweenness_all(g, t, kind, strict)
        assert got == pytest.approx(oracle_betweenness(g, t, kind, strict))

    @pytest.mark.parametrize("kind", ["shortest", "foremost", "fastest"])
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("directed", [False, True])
    def test_labelled_parallel_edges_match_walk_oracle(self, kind, strict, directed):
        # two labelled 0-1 links and two 1-2 links with different presences
        g = tvg(
            [
                (0, 1, 0, 3, "bus"),
                (0, 1, 2, 6, "tram"),
                (1, 2, 1, 4, "bus"),
                (1, 2, 5, 8, "tram"),
                (2, 3, 3, 9),
                (1, 3, 7, 9),
            ],
            n=4,
            directed=directed,
        )
        assert len(g.edges) == 6
        for t in (0, 2, 5):
            got = temporal_betweenness_all(g, t, kind, strict)
            assert got == pytest.approx(oracle_betweenness(g, t, kind, strict))
            for q in range(g.n):
                assert temporal_betweenness(g, q, t, kind, strict) == got[q]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        shape=st.sampled_from(["always-on", "undirected", "directed"]),
        strict=st.booleans(),
        data=st.data(),
    )
    def test_relabelling_permutes_every_value_bitwise(self, seed, shape, strict, data):
        rng = random.Random(seed)
        if shape == "always-on":
            g = random_always_on_tvg(rng, n_max=7)
        else:
            g = random_tvg(rng, n_max=6, e_max=9, horizon=10, directed=shape == "directed")
        events = [
            (e.u, e.v, a, b, e.label) for e, p in zip(g.edges, g.presence) for a, b in p.intervals
        ]
        # labelled parallel copies of some links, always-on if the graph is
        life = g.lifetime
        for e in rng.sample(g.edges, rng.randint(1, len(g.edges))):
            a = life.start if shape == "always-on" else rng.randrange(life.start, life.end)
            b = life.end if shape == "always-on" else rng.randint(a + 1, life.end)
            events.append((e.u, e.v, a, b, "alt"))
        g = build_tvg(g.n, g.directed, life, events)
        perm = data.draw(st.permutations(range(g.n)))
        h = build_tvg(g.n, g.directed, life, [(perm[u], perm[v], *rest) for u, v, *rest in events])
        t = data.draw(st.integers(life.start, life.end - 1))
        for kind in KINDS:
            before = temporal_betweenness_all(g, t, kind, strict)
            after = temporal_betweenness_all(h, t, kind, strict)
            assert [after[perm[x]].hex() for x in range(g.n)] == [b.hex() for b in before]
            for f in (eccentricity, temporal_closeness):
                assert [f(h, perm[x], t, kind, strict).hex() for x in range(g.n)] == [
                    f(g, x, t, kind, strict).hex() for x in range(g.n)
                ]
            assert diameter(h, t, kind, strict) == diameter(g, t, kind, strict)
            for reducer in REDUCERS:
                values = [
                    _window_temporal(x, t, TEMPORAL_INDICATORS, kind, reducer, strict)
                    for x in (g, h)
                ]
                assert repr(values[1]) == repr(values[0])

    def test_one_route_count_pass_per_active_node_per_window(self, monkeypatch):
        sources = []

        def counting(g, u, t, kind, strict=False):
            sources.append(u)
            return minimal_route_counts(g, u, t, kind, strict)

        monkeypatch.setattr("tvgkit.temporal_metrics.minimal_route_counts", counting)
        g = tvg(
            [(0, 1, 0, 3), (1, 2, 2, 5), (2, 3, 4, 9), (3, 4, 6, 12), (0, 4, 10, 12)],
            n=5,
            end=12,
        )
        spec = WindowSpec(4)
        evolve(g, spec, "betweenness", kind="foremost")
        active = [
            len(active_nodes(footprint(temporal_subgraph(g, a, b), a, b)))
            for a, b in windows_of(g.lifetime, spec)
        ]
        assert sum(n * (n - 1) for n in active) > sum(active)
        assert sources == [u for n in active for u in range(n)]


class TestWindowTemporal:
    """A window's temporal values are the standalone indicators, reduced."""

    @pytest.mark.parametrize("shape", ["undirected", "directed", "always-on"])
    def test_a_window_equals_the_standalone_functions(self, shape):
        rng = random.Random(17)
        for _ in range(6):
            if shape == "always-on":
                g = random_always_on_tvg(rng, n_max=6)
            else:
                g = random_tvg(rng, n_max=6, e_max=9, horizon=10, directed=shape == "directed")
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            for kind in KINDS:
                for strict in (False, True):
                    per_node = {
                        "eccentricity": [eccentricity(g, u, t, kind, strict) for u in range(g.n)],
                        "closeness": [temporal_closeness(g, u, t, kind, strict) for u in range(g.n)],
                        "betweenness": temporal_betweenness_all(g, t, kind, strict),
                    }
                    d = diameter(g, t, kind, strict)
                    for reducer in REDUCERS:
                        expect = {name: _reduce(v, reducer) for name, v in per_node.items()}
                        expect["diameter"] = d
                        expect = {
                            name: expect[name] if math.isfinite(expect[name]) else math.nan
                            for name in TEMPORAL_INDICATORS
                        }
                        got = _window_temporal(g, t, TEMPORAL_INDICATORS, kind, reducer, strict)
                        assert repr(got) == repr(expect)


class TestTimelineBuilds:
    """Timeline builds (counts, not timings): one per graph, not per source."""

    @pytest.fixture
    def built(self, monkeypatch):
        graphs = []
        build = core._build_timeline

        def counting(g):
            graphs.append(g)
            return build(g)

        monkeypatch.setattr(core, "_build_timeline", counting)
        return graphs

    CASES = {
        "betweenness": lambda g: temporal_betweenness_all(g, 0, "fastest"),
        "closeness": lambda g: _window_temporal(g, 0, ["closeness"], "fastest", "mean", False),
        "strict closeness": lambda g: _window_temporal(
            g, 0, ["closeness"], "fastest", "mean", True
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_all_sources_of_a_window_share_one_timeline(self, built, case):
        g = tvg([(0, 1, 0, 3), (1, 2, 2, 5), (2, 3, 4, 9), (0, 3, 6, 8)], n=4)
        self.CASES[case](g)
        assert built == [g]

    def test_one_timeline_per_window(self, built):
        g = tvg([(0, 1, 0, 3), (1, 2, 2, 5), (2, 3, 4, 9), (0, 3, 6, 8)], n=4)
        series = evolve(g, WindowSpec(4), "closeness", kind="fastest")
        assert len(built) == len(series.values) == 3
        assert len(set(map(id, built))) == 3

    def test_sliding_windows_flood_from_each_window_start(self):
        g = tvg([(0, 1, 0, 3), (1, 2, 2, 5), (2, 3, 4, 9), (0, 3, 6, 8)], n=4)
        for strict in (False, True):
            series = evolve(g, WindowSpec(4, 2), "closeness", kind="fastest", strict=strict)
            assert any(v > 0 for v in series.values)


class TestRouteMoveTables:
    """Route-move tables are filled by route-count passes only, on the
    graph they run on."""

    EVENTS = [(0, 1, 0, 3), (1, 2, 2, 5), (2, 3, 4, 9), (0, 3, 6, 8)]

    def test_other_questions_fill_none(self):
        g = tvg(self.EVENTS, n=4)
        assert g._route_moves == {}
        evolve_many(g, WindowSpec(4, 2), ["density", "avg_clustering", "avg_modularity"])
        for kind in KINDS:
            for strict in (False, True):
                for u in range(g.n):
                    distance_map(g, u, 1, kind, strict)
                    witness_journey(g, u, 3, 0, kind, strict)
                    temporal_closeness(g, u, 2, kind, strict)
                    temporal_view(g, u, 3, 9, strict)
                diameter(g, 0, kind, strict)
                evolve_many(g, WindowSpec(4), ["closeness", "diameter"], kind=kind, strict=strict)
        assert g._route_moves == {}

    @pytest.mark.parametrize("kind", KINDS)
    def test_betweenness_series_fills_only_its_window_graphs(self, monkeypatch, kind):
        counted = []

        def recording(sub, u, t, kind, strict=False):
            counted.append(sub)
            return minimal_route_counts(sub, u, t, kind, strict)

        monkeypatch.setattr("tvgkit.temporal_metrics.minimal_route_counts", recording)
        g = tvg(self.EVENTS, n=4)
        series = evolve(g, WindowSpec(4), "betweenness", kind=kind)
        subs = list({id(sub): sub for sub in counted}.values())
        assert len(subs) == len(series.values) == 3
        assert all(sub is not g for sub in subs)
        assert g._route_moves == {}
        for sub in subs:
            assert {key[:2] for key in sub._route_moves} == {(kind, False)}
            assert all(sub._route_moves.values())
            # a graph derived from it starts with no table
            a, b = sub.lifetime.start, sub.lifetime.end
            assert temporal_subgraph(sub, a, b)._route_moves == {}


class TestReduce:
    def test_any_order_gives_the_fsum(self):
        # left to right, 1e16 + 1.0 - 1e16 is 0.0
        for values in permutations([1e16, 1.0, -1e16]):
            assert _reduce(list(values), "mean") == 1 / 3
        stds = {_reduce(list(values), "std") for values in permutations([0.1, 0.2, 0.7, 1e16])}
        assert len(stds) == 1


class TestCloseness:
    def test_path_center(self):
        g = always([(0, 1), (1, 2)], 3)
        assert temporal_closeness(g, 1, 0, "shortest") == 1.0

    def test_path_endpoint(self):
        g = always([(0, 1), (1, 2)], 3)
        assert temporal_closeness(g, 0, 0, "shortest") == 1.5

    def test_isolated_node_nan(self):
        g = tvg([(0, 1, 0, 2)], n=3)
        assert math.isnan(temporal_closeness(g, 2, 0, "shortest"))

    def test_reachable_only_average(self):
        rng = random.Random(11)
        for _ in range(15):
            g = random_tvg(rng)
            t = rng.randrange(g.lifetime.start, g.lifetime.end)
            u = rng.randrange(g.n)
            for kind in ("shortest", "foremost", "fastest"):
                d = oracle_distances(g, u, t)[kind]
                others = [d[v] for v in d if v != u]
                got = temporal_closeness(g, u, t, kind)
                if others:
                    assert got == pytest.approx(sum(others) / len(others))
                else:
                    assert math.isnan(got)


class TestRestrictNodes:
    def test_induced_edges_and_relabeling(self):
        g = always([(0, 1), (1, 3), (0, 2)], 4)
        sub = restrict_nodes(g, [0, 1, 3])
        assert sub.n == 3
        assert sorted((e.u, e.v) for e in sub.edges) == [(0, 1), (1, 2)]

    def test_rejects_nodes_outside_the_graph(self):
        # an id past the end would add a phantom node; a negative one would
        # shift every other id and rename the edges kept
        g = build_tvg(3, False, Lifetime(0, 10), [(0, 1, 0, 4), (1, 2, 5, 9)])
        with pytest.raises(ValueError, match=r"^node 99 outside \[0,3\)$"):
            restrict_nodes(g, [0, 1, 99])
        with pytest.raises(ValueError, match=r"^node -1 outside \[0,3\)$"):
            restrict_nodes(g, [-1, 0, 1])

    def test_distances_agree_on_closed_subset(self):
        # restricting to a component never changes distances inside it
        g = tvg([(0, 1, 0, 8), (1, 2, 3, 8), (3, 4, 0, 8)], n=5)
        sub = restrict_nodes(g, [0, 1, 2])
        for u in range(3):
            assert distance_map(sub, u, 0, "foremost") == {
                v: d for v, d in distance_map(g, u, 0, "foremost").items() if v < 3
            }


class TestTemporalSeries:
    def test_diameter_series_constant_graph(self):
        g = always([(0, 1), (1, 2)], 3, end=12)
        s = evolve(g, WindowSpec(4), "diameter")
        assert s.values == [2.0, 2.0, 2.0]

    def test_disconnection_shows_as_nan(self):
        g = tvg([(0, 1, 0, 4), (1, 2, 0, 4), (0, 1, 4, 8)], n=3, end=8)
        s = evolve(g, WindowSpec(4), "diameter", node_policy="all")
        assert s.values[0] == 2.0
        assert math.isnan(s.values[1])

    def test_active_policy_ignores_silent_nodes(self):
        g = tvg([(0, 1, 0, 4), (1, 2, 0, 4), (0, 1, 4, 8)], n=3, end=8)
        s = evolve(g, WindowSpec(4), "diameter", node_policy="active")
        assert s.values == [2.0, 1.0]

    def test_window_without_edges_has_no_diameter(self):
        g = build_tvg(1, False, Lifetime(0, 4), [])
        d = evolve(g, WindowSpec(4), "diameter", node_policy="all")
        e = evolve(g, WindowSpec(4), "eccentricity", node_policy="all")
        assert math.isnan(d.values[0]) and e.values == [0.0]

    def test_reducers(self):
        g = always([(0, 1), (1, 2)], 3, end=4)
        mean = evolve(g, WindowSpec(4), "eccentricity", reducer="mean")
        mx = evolve(g, WindowSpec(4), "eccentricity", reducer="max")
        std = evolve(g, WindowSpec(4), "eccentricity", reducer="std")
        assert mean.values[0] == pytest.approx(5 / 3)
        assert mx.values[0] == 2.0
        # eccentricities 2, 1, 2
        assert std.values[0] == pytest.approx(math.sqrt(2) / 3)
        with pytest.raises(ValueError, match="reducer"):
            evolve(g, WindowSpec(4), "eccentricity", reducer="median")
        with pytest.raises(ValueError, match="reducer"):
            evolve(g, WindowSpec(4), "diameter", reducer="median")

    def test_unknown_indicator_and_kind(self):
        g = always([(0, 1)], 2, end=4)
        with pytest.raises(ValueError, match="indicator"):
            evolve(g, WindowSpec(2), "pagerank")
        with pytest.raises(ValueError, match="kind"):
            evolve(g, WindowSpec(2), "diameter", kind="slowest")
