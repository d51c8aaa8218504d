"""Acceptance suite: one test (one pass/fail line) per shipped criterion.

These tests are intentionally heavier than the unit suites; each one is a
self-contained end-to-end check with its own seeds and tolerances.
"""

import math
import random
import time
from pathlib import Path

import pytest

from tvgkit import cli, static_metrics
from tvgkit.core import Lifetime, build_tvg, footprint
from tvgkit.journeys import (
    count_minimal_journeys,
    distance_map,
)
from tvgkit.static_metrics import (
    average_clustering,
    average_modularity,
    density,
    graph_conductance,
    powerlaw_exponent,
)
from tvgkit.synth import generate_trace
from tvgkit.temporal_metrics import (
    diameter,
    eccentricity,
    temporal_betweenness,
    temporal_closeness,
)
from tvgkit.trace_io import parse_trace
from tvgkit.windows import WindowSpec, evolve

from oracles import (
    oracle_distances,
    oracle_journey_exists,
    oracle_min_conductance,
    oracle_route_count,
    random_always_on_tvg,
    random_tvg,
)

DATA = Path(__file__).parent / "data"


def test_1_journey_oracle_suite():
    """500 random TVGs: all three distances and route counts match brute force."""
    t0 = time.monotonic()
    rng = random.Random(2026)
    for i in range(500):
        g = random_tvg(rng, n_max=7, e_max=12, horizon=16)
        t = rng.randrange(g.lifetime.start, g.lifetime.end)
        for u in range(g.n):
            expect = oracle_distances(g, u, t)
            assert distance_map(g, u, t, "shortest") == expect["shortest"]
            assert distance_map(g, u, t, "foremost") == expect["foremost"]
            assert distance_map(g, u, t, "fastest") == expect["fastest"]
        u, v = rng.sample(range(g.n), 2)
        for kind in ("shortest", "foremost", "fastest"):
            assert count_minimal_journeys(g, u, v, t, kind) == oracle_route_count(
                g, u, v, t, kind
            )
    assert time.monotonic() - t0 < 60


def test_2_footprint_vs_journey_separation():
    """3-node instance: footprint has a path 0-1-2 but no journey reaches 2."""
    g = build_tvg(3, False, Lifetime(0, 8), [(0, 1, 5, 6), (1, 2, 1, 2)])
    f = footprint(g, 0, 8)
    assert f.edges == {(0, 1), (1, 2)}  # static path exists
    assert not oracle_journey_exists(g, 0, 2, 0)  # brute force
    assert 2 not in distance_map(g, 0, 0, "foremost")  # algorithm


def test_3_static_indicator_closed_forms():
    """Exact values on cliques, trees and the two-triangles bridge graph."""

    def fp(n, edges):
        g = build_tvg(n, False, Lifetime(0, 1), [(u, v, 0, 1) for u, v in edges])
        return footprint(g, 0, 1)

    from itertools import combinations

    for n in (2, 3, 5):
        assert density(fp(n, combinations(range(n), 2))) == 1.0
    assert average_clustering(fp(4, combinations(range(4), 2))) == 1.0
    assert average_clustering(fp(5, [(0, 1), (0, 2), (1, 3), (1, 4)])) == 0.0
    assert average_modularity(fp(2, [(0, 1)])) == 0.5
    assert graph_conductance(fp(4, combinations(range(4), 2))).value == 2 / 3
    bridge = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    assert graph_conductance(fp(6, bridge)).value == 1 / 7


def test_4_conductance_oracle(monkeypatch):
    """100 graphs <= 12 nodes: exhaustive == enumeration; sweep bound >= it."""
    rng = random.Random(404)
    checked = 0
    for _ in range(100):
        n = rng.randint(3, 12)
        events = [
            (u, v, 0, 1)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = build_tvg(n, False, Lifetime(0, 1), events)
        f = footprint(g, 0, 1)
        expect = oracle_min_conductance(f)
        exact = graph_conductance(f).value
        if math.isnan(expect):
            assert math.isnan(exact)
            continue
        assert exact == expect
        with monkeypatch.context() as m:  # past the limit: the sweep bound
            m.setattr(static_metrics, "EXACT_CONDUCTANCE_LIMIT", 1)
            sweep = graph_conductance(f, approximate=True).value
        assert sweep >= exact
        checked += 1
    assert checked >= 80


def test_5_powerlaw_recovery():
    """MLE recovers gamma = 2.5 +/- 0.1 from 10^5 inverse-CDF samples."""
    import numpy as np

    rng = np.random.default_rng(25)
    kmax = 10**6
    ks = np.arange(1, kmax + 1)
    pdf = ks ** -2.5
    cdf = np.cumsum(pdf / pdf.sum())
    sample = np.searchsorted(cdf, rng.random(10**5)) + 1
    # k_min=5 keeps the closed-form estimator's small-k bias below the tolerance
    gamma = powerlaw_exponent(sample.tolist(), k_min=5)
    assert abs(gamma - 2.5) <= 0.1


def test_6_static_temporal_consistency():
    """Shortest-kind temporal indicators equal static ones on 50 always-on TVGs."""
    import networkx as nx

    rng = random.Random(606)
    for _ in range(50):
        g = random_always_on_tvg(rng)
        G = nx.Graph([(e.u, e.v) for e in g.edges])
        G.add_nodes_from(range(g.n))
        spl = dict(nx.all_pairs_shortest_path_length(G))
        bc = nx.betweenness_centrality(G, normalized=False)
        for u in range(g.n):
            d = distance_map(g, u, 0, "shortest")
            assert d == spl[u]
            if len(d) == g.n and g.n > 1:
                static_ecc = max(h for v, h in spl[u].items() if v != u)
                assert eccentricity(g, u, 0, "shortest") == static_ecc
            others = [h for v, h in spl[u].items() if v != u]
            if others:
                assert temporal_closeness(g, u, 0, "shortest") == pytest.approx(
                    sum(others) / len(others)
                )
            # ordered pairs: exactly twice nx's unordered undirected count
            assert temporal_betweenness(g, u, 0, "shortest") == pytest.approx(
                2 * bc[u]
            )
        if nx.is_connected(G):
            assert diameter(g, 0, "shortest") == nx.diameter(G)


def test_7_phase_transition_pipeline():
    """Generated phase-transition trace shows the clustering step up and the
    power-law exponent drop across the boundary, deterministically."""
    t0 = time.monotonic()
    text = generate_trace("phase-transition", seed=7)
    assert text == generate_trace("phase-transition", seed=7)
    g = parse_trace(text).graph
    boundary = 60  # 6 phase windows x 10 ticks

    def phase_means(series):
        pre = [v for (a, b), v in series if b <= boundary and not math.isnan(v)]
        post = [v for (a, b), v in series if a >= boundary and not math.isnan(v)]
        assert pre and post
        return sum(pre) / len(pre), sum(post) / len(post)

    ac_pre, ac_post = phase_means(evolve(g, WindowSpec(10), "avg_clustering"))
    assert ac_post >= 2 * ac_pre
    pl_pre, pl_post = phase_means(evolve(g, WindowSpec(10), "powerlaw"))
    assert pl_pre > pl_post
    assert time.monotonic() - t0 < 30


def test_8_cli_golden_files(tmp_path, capsys):
    """evolve and query reproduce the checked-in outputs byte for byte."""
    trace = str(DATA / "contacts.csv")
    out = tmp_path / "evolve.csv"
    code = cli.main(
        ["evolve", trace, "--window", "4",
         "--indicators", "density,avg_clustering,diameter",
         "--output", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "evolve_golden.csv").read_bytes()
    code = cli.main(["query", trace, "--from", "alice", "--to", "erin", "--at", "0"])
    assert code == 0
    got = capsys.readouterr().out
    assert got.encode() == (DATA / "query_golden.txt").read_bytes()


@pytest.mark.parametrize("kind", ["shortest", "fastest"])
def test_9_cli_golden_witnesses(kind, capsys):
    """query prints the checked-in shortest and fastest witness byte for byte."""
    trace = str(DATA / "contacts.csv")
    code = cli.main(
        ["query", trace, "--from", "alice", "--to", "erin", "--at", "0", "--kind", kind]
    )
    assert code == 0
    got = capsys.readouterr().out
    assert got.encode() == (DATA / f"query_{kind}_golden.txt").read_bytes()


def test_10_cli_golden_static_indicators(tmp_path):
    """evolve with every atemporal indicator on a denser generated trace
    reproduces the checked-in CSV byte for byte."""
    trace = tmp_path / "trace.csv"
    trace.write_text(generate_trace("uniform-random", seed=3, nodes=80, ticks=120, p=0.02))
    out = tmp_path / "evolve.csv"
    code = cli.main(
        ["evolve", str(trace), "--window", "20", "--stride", "5",
         "--indicators", "density,avg_clustering,avg_modularity,powerlaw",
         "--output", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "evolve_static_golden.csv").read_bytes()


def test_11_cli_golden_static_indicators_directed(tmp_path):
    """The same trace read as directed, with every node in every window's
    universe, reproduces its checked-in CSV byte for byte."""
    trace = tmp_path / "trace.csv"
    trace.write_text(generate_trace("uniform-random", seed=3, nodes=80, ticks=120, p=0.02))
    out = tmp_path / "evolve.csv"
    code = cli.main(
        ["evolve", str(trace), "--directed", "--node-policy", "all",
         "--window", "20", "--stride", "5",
         "--indicators", "density,avg_clustering,avg_modularity,powerlaw",
         "--output", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "evolve_static_directed_golden.csv").read_bytes()
