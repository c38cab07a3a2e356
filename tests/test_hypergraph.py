import math

import numpy as np
import pytest

from minecc.hypergraph import (
    EdgeColoredHypergraph,
    accuracy,
    build_incidence,
    hypergraph,
    objective_cost,
    validate,
)
from minecc.instances import gen_integrality_gap, gen_random

from conftest import edges_of, naive_cost, random_instance


class TestValidate:
    def test_valid_single_edge(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        assert validate(h) == []

    def test_member_out_of_range(self):
        h = hypergraph(2, 1, [((0, 2), 1)])
        problems = validate(h)
        assert len(problems) == 1
        assert "out of range" in problems[0]

    def test_color_zero(self):
        h = hypergraph(2, 1, [((0, 1), 0)])
        problems = validate(h)
        assert len(problems) == 1
        assert "color" in problems[0]

    def test_negative_weight_reported(self):
        h = hypergraph(2, 1, [((0, 1), 1, -2.0)])
        assert any("nonnegative" in p for p in validate(h))

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_non_finite_weight_reported(self, weight):
        h = hypergraph(2, 1, [((0, 1), 1, weight)])
        problems = validate(h)
        assert len(problems) == 1 and "finite" in problems[0]

    def test_empty_and_duplicate_edges_reported(self):
        # The raw array constructor keeps members as given.
        h = EdgeColoredHypergraph(3, 1, [0, 2, 0], [0, 0, 3], [1, 1], [1.0, 1.0])
        assert validate(h) == ["edge 0 is empty", "edge 1 has duplicate members"]

    def test_reports_do_not_raise(self):
        h = hypergraph(1, 0, [((5,), 9), ((0,), -1)])
        assert len(validate(h)) >= 2

    @pytest.mark.parametrize("n, k, product", [
        (2**63 - 1, 1, 2**63), (10**20, 1, 10**20 + 1), (5, 10**20, 6 * 10**20),
        (2, 2**63 - 1, 3 * (2**63 - 1)),
    ])
    def test_counts_too_large_to_index(self, n, k, product):
        # (n + 1) * max(k, 1) bounds the incidence offsets and the (node, color)
        # keys and counts: numpy cannot index them from 2^63 on.
        h = hypergraph(n, k, [((0,), 1)])
        assert validate(h) == [
            f"(num_nodes + 1) * max(num_colors, 1) = {product} is not below 2^63"]

    @pytest.mark.parametrize("n, k", [(2**62 - 1, 1), (2**31 - 1, 2**31), (0, 2**63 - 1), (3, 0)])
    def test_counts_below_the_bound_are_valid(self, n, k):
        h = EdgeColoredHypergraph(n, k, [], [0], [], [])
        assert validate(h) == []

    def test_gap_generator_keeps_the_same_bound(self):
        with pytest.raises(ValueError, match=r"^gap construction with k = 3037000500: "):
            gen_integrality_gap(3037000500)
        with pytest.raises(ValueError, match="is not below 2\\^63"):
            gen_integrality_gap(10**20)


class TestConstruction:
    def test_members_deduplicated_and_sorted(self):
        h = hypergraph(4, 1, [((3, 1, 3, 1), 1)])
        assert edges_of(h)[0].members == (1, 3)

    def test_empty_after_dedup_rejected(self):
        with pytest.raises(ValueError):
            hypergraph(2, 1, [((), 1)])

    def test_rank(self):
        h = hypergraph(5, 2, [((0, 1, 2), 1), ((3, 4), 2)])
        assert h.rank == 3
        assert hypergraph(2, 1, []).rank == 0


class TestObjectiveCost:
    def test_satisfied_edge(self):
        h = hypergraph(2, 2, [((0, 1), 2)])
        report = objective_cost(h, [2, 2])
        assert report.total_cost == 0
        assert report.edge_satisfaction == 1.0
        assert naive_cost(h, [2, 2])[1] == set()

    def test_gap_instance_all_color_one(self):
        h = gen_integrality_gap(3)
        report = objective_cost(h, [1, 1, 1])
        # Only the color-1 edge is satisfied; the color-2 and color-3 edges fail.
        assert report.total_cost == 2
        assert report.edge_satisfaction == pytest.approx(1 / 3)
        assert naive_cost(h, [1, 1, 1])[1] == {1, 2}

    def test_matches_independent_recount(self, rng):
        for _ in range(25):
            h = random_instance(rng, n=8, m=12, k=3)
            coloring = [int(c) for c in rng.integers(1, 4, size=8)]
            report = objective_cost(h, coloring)
            expected_cost, expected_mistakes = naive_cost(h, coloring)
            assert report.total_cost == pytest.approx(expected_cost)
            assert report.edge_satisfaction == pytest.approx(1 - len(expected_mistakes) / 12)

    def test_length_mismatch(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        with pytest.raises(ValueError):
            objective_cost(h, [1])

    def test_weighted_cost(self):
        h = hypergraph(2, 2, [((0, 1), 1, 0.5), ((0,), 2, 2.5)])
        report = objective_cost(h, [1, 1])
        assert report.total_cost == pytest.approx(2.5)

    def test_permutation_invariance(self, rng):
        h = random_instance(rng, n=6, m=10, k=3)
        coloring = [int(c) for c in rng.integers(1, 4, size=6)]
        edges = edges_of(h)
        perm = rng.permutation(len(edges))
        shuffled = hypergraph(6, 3, [(e.members, e.color, e.weight) for e in (edges[j] for j in perm)])
        assert objective_cost(h, coloring).total_cost == pytest.approx(
            objective_cost(shuffled, coloring).total_cost
        )

    def test_bounds(self, rng):
        for _ in range(10):
            h = random_instance(rng, n=6, m=8, k=2)
            coloring = [int(c) for c in rng.integers(1, 3, size=6)]
            report = objective_cost(h, coloring)
            assert 0.0 <= report.edge_satisfaction <= 1.0
            assert report.total_cost <= h.total_weight() + 1e-12


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_wrong(self):
        assert accuracy([2, 2, 2], [1, 1, 1]) == 0.0

    def test_partial(self):
        assert accuracy([1, 2, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])

    def test_empty_and_array_inputs(self):
        assert accuracy([], []) == 1.0
        assert accuracy(np.array([1, 2, 2]), [1, 1, 2]) == 2 / 3


class TestIncidence:
    def test_ordered_by_color(self):
        # Node 0 sits in edge 2 (color 3) and edge 5 (color 1).
        edges = [((1,), 2)] * 2 + [((0, 1), 3)] + [((1,), 2)] * 2 + [((0,), 1)]
        h = hypergraph(2, 3, edges)
        inc = build_incidence(h)
        assert inc[0] == (5, 2)

    def test_isolated_node(self):
        h = hypergraph(3, 1, [((0, 1), 1)])
        assert build_incidence(h)[2] == ()

    def test_gap_instance_degrees(self):
        h = gen_integrality_gap(3)
        inc = build_incidence(h)
        assert all(len(inc[v]) == 2 for v in range(h.num_nodes))

    def test_flatten_is_incidence_permutation(self, rng):
        h = random_instance(rng, n=7, m=11, k=3)
        inc = build_incidence(h)
        flat = sorted((v, j) for v in range(h.num_nodes) for j in inc[v])
        expected = sorted((v, j) for j, e in enumerate(edges_of(h)) for v in e.members)
        assert flat == expected

    def test_colors_nondecreasing(self):
        planted = gen_random(15, 30, 4, 4, 0.4, seed=2)
        h = planted.hypergraph
        inc = build_incidence(h)
        edges = edges_of(h)
        for v in range(h.num_nodes):
            colors = [edges[j].color for j in inc[v]]
            assert colors == sorted(colors)
