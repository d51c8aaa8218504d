import math
import random
from itertools import combinations

import numpy as np
import pytest

from tvgkit import static_metrics
from tvgkit.core import Footprint, active_nodes
from tvgkit.static_metrics import (
    LimitExceededError,
    average_clustering,
    average_modularity,
    clustering_coefficient,
    cut_conductance,
    degree_sequence,
    density,
    graph_conductance,
    pair_modularity,
    powerlaw_exponent,
)

from oracles import oracle_clustering, oracle_min_conductance, oracle_modularity


def fp(n, edges, directed=False):
    return Footprint(range(n), directed, edges, (0, 1))


def complete(n):
    return fp(n, combinations(range(n), 2))


def random_footprint(rng, n_max=12, p=0.4):
    n = rng.randint(2, n_max)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return fp(n, edges)


class TestDensity:
    def test_complete_graph_is_one(self):
        assert density(complete(4)) == 1.0

    def test_empty_graph_is_zero(self):
        assert density(fp(5, [])) == 0.0

    def test_path_three_nodes(self):
        assert density(fp(3, [(0, 1), (1, 2)])) == pytest.approx(4 / 6)

    def test_single_node_undefined(self):
        assert math.isnan(density(fp(1, [])))

    def test_directed_counts_arcs_once(self):
        f = fp(3, [(0, 1), (1, 0), (1, 2)], directed=True)
        assert density(f) == pytest.approx(3 / 6)

    def test_bounds_and_monotonicity(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_footprint(rng)
            d = density(f)
            assert 0.0 <= d <= 1.0
            extra = next(
                (p for p in combinations(f.nodes, 2) if p not in f.edges), None
            )
            if extra:
                assert density(fp(len(f.nodes), set(f.edges) | {extra})) >= d


class TestClustering:
    def test_triangle_is_one(self):
        assert clustering_coefficient(complete(3), 0) == 1.0

    def test_star_center_is_zero(self):
        f = fp(4, [(0, 1), (0, 2), (0, 3)])
        assert clustering_coefficient(f, 0) == 0.0

    def test_one_link_among_three_neighbors(self):
        f = fp(4, [(3, 0), (3, 1), (3, 2), (0, 1)])
        assert clustering_coefficient(f, 3) == pytest.approx(2 / 6)

    def test_degree_one_undefined(self):
        f = fp(3, [(0, 1)])
        assert math.isnan(clustering_coefficient(f, 0))

    def test_average_on_clique_and_tree(self):
        assert average_clustering(complete(4)) == 1.0
        tree = fp(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
        assert average_clustering(tree) == 0.0

    def test_triangle_plus_pendant(self):
        f = fp(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        # nodes 0,1 are in a clique neighborhood; node 2 has one adjacent
        # neighbor pair out of three; node 3 has degree 1
        expected = (1.0 + 1.0 + 2 / 6 + 0.0) / 4
        assert average_clustering(f) == pytest.approx(expected)

    def test_values_in_unit_interval(self):
        rng = random.Random(5)
        for _ in range(20):
            f = random_footprint(rng)
            for x in f.nodes:
                c = clustering_coefficient(f, x)
                assert math.isnan(c) or 0.0 <= c <= 1.0

    def test_matches_neighbour_pair_enumeration(self):
        # reference: count adjacent pairs among the neighbours one by one
        rng = random.Random(13)
        for _ in range(40):
            f = random_footprint(rng, n_max=14, p=rng.random())
            if rng.random() < 0.5:
                f = fp(len(f.nodes), [(v, u) for u, v in f.edges] + list(f.edges), True)
            for x in f.nodes:
                nb = f.neighbors(x)
                k = len(nb)
                links = sum(1 for u, v in combinations(nb, 2) if v in f.neighbors(u))
                expected = math.nan if k <= 1 else 2 * links / (k * (k - 1))
                assert repr(clustering_coefficient(f, x)) == repr(expected)


class TestModularity:
    def test_single_edge_pair(self):
        assert pair_modularity(fp(2, [(0, 1)]), 0, 1) == 0.5

    def test_node_outside_universe_rejected(self):
        # with and without edges: an unknown node is an error, not 0.0 or NaN
        for f in (fp(3, [(0, 1), (1, 2)]), fp(3, [])):
            with pytest.raises(ValueError, match=r"^node 99 is not in the footprint"):
                pair_modularity(f, 0, 99)
            with pytest.raises(ValueError, match=r"^node 99 is not in the footprint"):
                clustering_coefficient(f, 99)

    def test_isolated_node_zero(self):
        f = fp(3, [(0, 1)])
        assert pair_modularity(f, 0, 2) == 0.0

    def test_path_endpoints(self):
        f = fp(3, [(0, 1), (1, 2)])
        assert pair_modularity(f, 0, 2) == 0.25

    def test_average_on_k2_and_path(self):
        assert average_modularity(fp(2, [(0, 1)])) == 0.5
        f = fp(3, [(0, 1), (1, 2)])
        assert average_modularity(f) == pytest.approx((0.5 + 0.25 + 0.5) / 3)

    def test_regular_graph_constant(self):
        cycle = fp(5, [(i, (i + 1) % 5) for i in range(5)])
        expected = 4 / (2 * 5)
        for u, v in combinations(range(5), 2):
            assert pair_modularity(cycle, u, v) == expected
        assert average_modularity(cycle) == pytest.approx(expected)

    def test_relabeling_invariance(self):
        rng = random.Random(7)
        for _ in range(10):
            f = random_footprint(rng, n_max=8)
            if not f.edges:
                continue
            perm = list(f.nodes)
            rng.shuffle(perm)
            mapping = dict(zip(f.nodes, perm))
            g = fp(len(f.nodes), [(mapping[u], mapping[v]) for u, v in f.edges])
            assert average_modularity(g) == pytest.approx(average_modularity(f))

    def test_equals_mean_of_pair_terms_exactly(self):
        # the float is the plain left-to-right sum of pair_modularity in
        # combinations order, whatever the interpreter's sum() does
        rng = random.Random(11)
        for _ in range(40):
            f = random_footprint(rng, n_max=30, p=rng.random())
            if not f.edges:
                continue
            pairs = list(combinations(f.nodes, 2))
            total = 0.0
            for u, v in pairs:
                total += pair_modularity(f, u, v)
            assert average_modularity(f) == total / len(pairs)

    def test_no_edges_undefined(self):
        assert math.isnan(average_modularity(fp(3, [])))


def oracle_footprint(rng):
    """Seeded footprint for the differential tests: directed or not, up to
    about 80 nodes (bitmasks wider than 64 bits), ids that are not positions,
    isolated nodes, and sometimes a universe restricted to active nodes."""
    n = rng.randint(0, 82)
    universe = sorted(rng.sample(range(3 * n + 1), n))
    p = rng.choice([0.0, 0.02, 0.1, 0.3, rng.random()])
    directed = rng.random() < 0.5
    edges = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in combinations(universe, 2)
        if rng.random() < p
    ]
    if directed:
        edges += [(v, u) for u, v in edges if rng.random() < 0.3]
    f = Footprint(universe, directed, edges, (0, 1))
    if rng.random() < 0.3:
        return Footprint(active_nodes(f), f.directed, f.edges, f.window)
    return f


class TestAgainstOracles:
    SEEDS = range(60)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_clustering(self, seed):
        f = oracle_footprint(random.Random(seed))
        expected = oracle_clustering(f)
        for x in f.nodes:
            assert repr(clustering_coefficient(f, x)) == repr(expected[x])
        total = 0.0
        for x in f.nodes:
            if not math.isnan(expected[x]):
                total += expected[x]
        mean = total / len(f.nodes) if f.nodes else math.nan
        assert repr(average_clustering(f)) == repr(mean)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_modularity(self, seed):
        f = oracle_footprint(random.Random(seed))
        assert repr(average_modularity(f)) == repr(oracle_modularity(f))

    @pytest.mark.parametrize("block", [1, 5, 64, 1000])
    def test_modularity_in_small_row_blocks(self, block, monkeypatch):
        # blocks of one or several rows, and rows longer than a block,
        # give the same float as one block
        monkeypatch.setattr(static_metrics, "_PAIR_BLOCK", block)
        for seed in range(12):
            f = oracle_footprint(random.Random(seed))
            assert repr(average_modularity(f)) == repr(oracle_modularity(f))

    def test_instances_cover_the_cases(self):
        fs = [oracle_footprint(random.Random(seed)) for seed in self.SEEDS]
        assert any(f.directed for f in fs) and not all(f.directed for f in fs)
        assert any(len(f.nodes) > 64 and f.edges for f in fs)
        assert any(0 in f.degrees().values() for f in fs)
        assert any(f.nodes and f.nodes != tuple(range(len(f.nodes))) for f in fs)
        assert any(
            f.edges and all(d > 0 for d in f.degrees().values()) for f in fs
        )


class TestPowerlaw:
    def test_too_few_degrees(self):
        assert math.isnan(powerlaw_exponent([1] * 9))

    def test_degenerate_distribution(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert math.isnan(powerlaw_exponent([3] * 20))

    def test_closed_form_on_fixed_list(self):
        degrees = [1, 1, 1, 1, 2, 2, 4, 8, 1, 2, 3, 1, 1, 2, 5, 1, 1, 2, 1, 16]
        expected = 1 + 20 / sum(math.log(k / 0.5) for k in degrees)
        assert powerlaw_exponent(degrees) == pytest.approx(expected)

    def test_sums_log_terms_left_to_right(self):
        # a compensated sum (Python >= 3.12 ``sum``, ``math.fsum``) differs here
        degrees = [5, 8, 11, 11, 12, 16, 18, 19, 23, 40]
        terms = [math.log(k / 0.5) for k in degrees]
        total = 0.0
        for x in terms:
            total += x
        assert 1 + 10 / math.fsum(terms) != 1 + 10 / total
        assert powerlaw_exponent(degrees) == 1 + 10 / total

    def test_zero_degrees_excluded(self):
        degrees = [0] * 5 + [1, 2, 3, 1, 1, 2, 4, 1, 1, 2]
        assert powerlaw_exponent(degrees) == pytest.approx(
            powerlaw_exponent([k for k in degrees if k > 0])
        )

    def test_split_sample_stability(self):
        rng = np.random.default_rng(11)
        # Zipf-like sample via inverse CDF
        kmax = 10**5
        ks = np.arange(1, kmax + 1)
        pdf = ks**-2.5
        cdf = np.cumsum(pdf / pdf.sum())
        sample = np.searchsorted(cdf, rng.random(20000)) + 1
        full = powerlaw_exponent(sample.tolist(), k_min=5)
        half_a = powerlaw_exponent(sample[:10000].tolist(), k_min=5)
        half_b = powerlaw_exponent(sample[10000:].tolist(), k_min=5)
        assert abs(half_a - full) < 0.15
        assert abs(half_b - full) < 0.15


class TestCutConductance:
    def test_k4_single_vertex(self):
        assert cut_conductance(complete(4), {0}) == 1.0

    def test_k4_pair(self):
        assert cut_conductance(complete(4), {0, 1}) == pytest.approx(4 / 6)

    def test_separated_clique_zero(self):
        edges = list(combinations(range(3), 2)) + list(combinations(range(3, 6), 2))
        f = fp(6, edges)
        assert cut_conductance(f, {0, 1, 2}) == 0.0

    def test_symmetric_in_complement(self):
        rng = random.Random(13)
        for _ in range(20):
            f = random_footprint(rng, n_max=8)
            side = {x for x in f.nodes if rng.random() < 0.5}
            if not side or side == set(f.nodes):
                continue
            a = cut_conductance(f, side)
            b = cut_conductance(f, set(f.nodes) - side)
            assert (math.isnan(a) and math.isnan(b)) or a == b

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            cut_conductance(complete(3), set())

    def test_zero_volume_side_nan(self):
        f = fp(3, [(0, 1)])
        assert math.isnan(cut_conductance(f, {2}))


class TestGraphConductance:
    def test_k4(self):
        assert graph_conductance(complete(4)).value == pytest.approx(2 / 3)

    def test_two_triangles_with_bridge(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        res = graph_conductance(fp(6, edges))
        assert res.exact
        assert res.value == pytest.approx(1 / 7)

    def test_disconnected_graph_zero(self):
        edges = list(combinations(range(3), 2)) + list(combinations(range(3, 6), 2))
        assert graph_conductance(fp(6, edges)).value == 0.0

    def test_matches_subset_enumeration(self):
        rng = random.Random(17)
        for _ in range(30):
            f = random_footprint(rng, n_max=9)
            expect = oracle_min_conductance(f)
            got = graph_conductance(f).value
            if math.isnan(expect):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(expect)

    def test_limit_enforced_without_approximation(self):
        f = complete(25)
        with pytest.raises(LimitExceededError):
            graph_conductance(f)

    def test_sweep_bound_dominates_exact(self, monkeypatch):
        rng = random.Random(19)
        for _ in range(20):
            f = random_footprint(rng, n_max=10)
            exact = graph_conductance(f).value
            with monkeypatch.context() as m:  # past the limit: the sweep bound
                m.setattr(static_metrics, "EXACT_CONDUCTANCE_LIMIT", 1)
                sweep = graph_conductance(f, approximate=True).value
            if math.isnan(exact) or math.isnan(sweep):
                continue
            assert sweep >= exact - 1e-12

    def test_exact_min_below_sampled_cuts(self):
        rng = random.Random(23)
        for _ in range(10):
            f = random_footprint(rng, n_max=8)
            exact = graph_conductance(f).value
            if math.isnan(exact):
                continue
            for _ in range(20):
                side = {x for x in f.nodes if rng.random() < 0.5}
                if not side or side == set(f.nodes):
                    continue
                phi = cut_conductance(f, side)
                if not math.isnan(phi):
                    assert exact <= phi + 1e-12


class TestDegreeSequence:
    def test_sum_is_twice_edge_count(self):
        rng = random.Random(29)
        for _ in range(10):
            f = random_footprint(rng)
            assert sum(degree_sequence(f)) == 2 * len(f.edges)
