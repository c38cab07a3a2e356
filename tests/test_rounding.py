import numpy as np
import pytest

from minecc.hypergraph import hypergraph, objective_cost
from minecc.instances import gen_integrality_gap, gen_random
from minecc.lp import solve
from minecc.relaxations import EccLpSolution, build_ecc_lp, extract_ecc_solution
from minecc.rounding import (
    Interval,
    best_interval,
    color_thresholds,
    estimate_mistake_prob,
    gen_color_round,
    make_synthetic_solution,
    rounding_invariant_violations,
    simple_round,
)


def lp_solution(h) -> EccLpSolution:
    return extract_ecc_solution(h, solve(build_ecc_lp(h)).require_optimal())


class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(0.5, 0.5)
        with pytest.raises(ValueError):
            Interval(-0.1, 0.5)


class TestBestInterval:
    def test_rank_two(self):
        choice = best_interval(5, 2)
        assert choice.interval == Interval(0.5, 0.875)
        assert choice.factor == pytest.approx(4 / 3)

    def test_k_dominates(self):
        choice = best_interval(3, 10)
        assert choice.interval == Interval(0.5, 0.75)
        assert choice.factor == pytest.approx(4 / 3)

    def test_rank_dominates(self):
        choice = best_interval(40, 4)
        assert choice.interval == Interval(0.5, 2 / 3)
        assert choice.factor == pytest.approx(1.6)

    def test_two_colors_exact(self):
        assert best_interval(2, 2).factor == 1.0
        assert best_interval(1, 5).factor == 1.0

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            best_interval(3, 1)


class TestGenColorRound:
    def test_integral_solution_recovered(self):
        h = hypergraph(3, 3, [((0, 1), 2), ((2,), 3)])
        x_node = np.ones((3, 3))
        for v, c in enumerate([2, 2, 3]):
            x_node[v, c - 1] = 0.0
        sol = EccLpSolution(x_node, np.zeros(2), 0.0)
        for seed in range(20):
            assert gen_color_round(h, sol, Interval(0.25, 0.75), seed) == [2, 2, 3]

    def test_deterministic_per_seed(self):
        h = gen_integrality_gap(4)
        sol = lp_solution(h)
        interval = best_interval(4, h.rank).interval
        assert gen_color_round(h, sol, interval, 7) == gen_color_round(h, sol, interval, 7)

    def test_k2_always_optimal(self):
        for seed in range(6):
            h = gen_random(8, 12, 3, 2, 0.4, seed=seed).hypergraph
            sol = lp_solution(h)
            for round_seed in range(10):
                coloring = gen_color_round(h, sol, best_interval(2, h.rank).interval, round_seed)
                assert objective_cost(h, coloring).total_cost == pytest.approx(sol.objective)

    def test_infeasible_rejected(self):
        h = hypergraph(2, 2, [((0, 1), 1)])
        bad = EccLpSolution(np.array([[0.0, 0.0], [0.0, 0.0]]), np.zeros(1), 0.0)
        with pytest.raises(ValueError):
            gen_color_round(h, bad, Interval(0.5, 0.875), 0)

    def test_output_always_valid_coloring(self):
        for seed in range(5):
            h = gen_random(9, 14, 3, 4, 0.5, seed=seed).hypergraph
            sol = lp_solution(h)
            interval = best_interval(h.num_colors, max(h.rank, 2)).interval
            for round_seed in range(10):
                coloring = gen_color_round(h, sol, interval, round_seed)
                assert len(coloring) == h.num_nodes
                assert all(1 <= c <= h.num_colors for c in coloring)

    def test_gap3_expected_cost_at_guarantee(self):
        h = gen_integrality_gap(3)
        sol = lp_solution(h)
        costs = [
            objective_cost(h, gen_color_round(h, sol, Interval(0.5, 0.75), s)).total_cost
            for s in range(400)
        ]
        mean = float(np.mean(costs))
        sigma = float(np.std(costs)) / np.sqrt(len(costs))
        assert mean <= (4 / 3) * 1.5 + 3 * sigma + 1e-12


class TestSimpleRound:
    def test_argmin(self):
        sol = EccLpSolution(np.array([[0.2, 0.9, 0.9]]), np.zeros(0), 0.0)
        assert simple_round(sol) == [1]

    def test_tie_lowest_color(self):
        sol = EccLpSolution(np.array([[1.0, 0.5, 0.5]]), np.zeros(0), 0.0)
        assert simple_round(sol) == [2]

    def test_integral(self):
        sol = EccLpSolution(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(0), 0.0)
        assert simple_round(sol) == [2, 1]


class TestColorThresholds:
    def test_direct_definition(self):
        h = hypergraph(2, 3, [((0, 1), 1)])
        x_node = np.array([[0.4, 0.6, 0.7], [0.4, 0.9, 0.8]])
        sol = EccLpSolution(x_node, np.array([0.4]), 0.4)
        z = color_thresholds(h, sol, 0)
        # Per-color minima over members: color 2 -> 0.6, color 3 -> 0.7.
        assert z.values == pytest.approx((0.6, 0.7))
        assert z.z1 == pytest.approx(0.6)

    def test_single_color_empty(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        sol = EccLpSolution(np.zeros((2, 1)), np.zeros(1), 0.0)
        assert len(color_thresholds(h, sol, 0)) == 0

    def test_first_threshold_bound_on_lp_optimum(self):
        for seed in range(4):
            h = gen_random(8, 12, 2, 4, 0.4, seed=seed).hypergraph
            sol = lp_solution(h)
            for j in range(h.num_edges):
                z1 = color_thresholds(h, sol, j).z1
                assert 1.0 - z1 <= sol.x_edge[j] + 1e-9

    def test_bad_index(self):
        h = hypergraph(2, 2, [((0, 1), 1)])
        sol = EccLpSolution(np.ones((2, 2)) * 0.5, np.array([0.5]), 0.5)
        with pytest.raises(IndexError):
            color_thresholds(h, sol, 5)

    def test_edge_index_out_of_range_raises_in_both(self):
        h = gen_integrality_gap(4)
        sol = lp_solution(h)
        for j in (-1, h.num_edges):
            with pytest.raises(IndexError, match=f"edge index {j} out of range"):
                color_thresholds(h, sol, j)
            with pytest.raises(IndexError, match=f"edge index {j} out of range"):
                estimate_mistake_prob(h, sol, Interval(0.5, 0.75), j, 100, seed=0)


class TestInvariantChecks:
    def test_gap3_passes(self):
        h = gen_integrality_gap(3)
        sol = lp_solution(h)
        assert rounding_invariant_violations(h, sol) == []

    def test_corrupted_edge_detected(self):
        h = gen_integrality_gap(3)
        sol = lp_solution(h)
        corrupted = EccLpSolution(sol.x_node, sol.x_edge / 2.0, sol.objective / 2.0)
        problems = rounding_invariant_violations(h, corrupted)
        assert any("first threshold" in p for p in problems)

    def test_threshold_sum_bound_rank_two(self):
        for seed in range(4):
            h = gen_random(9, 14, 2, 5, 0.5, seed=seed).hypergraph
            sol = lp_solution(h)
            assert rounding_invariant_violations(h, sol) == []


class TestSyntheticSolutions:
    def test_family_a_values(self):
        h, sol = make_synthetic_solution("A", 0.2)
        assert sol.x_edge[0] == pytest.approx(0.4)
        assert sol.x_node[0, 1] == pytest.approx(0.6)
        assert sol.violations(h) == []

    def test_family_b_values(self):
        h, sol = make_synthetic_solution("B")
        assert sol.x_edge[0] == pytest.approx(2 / 3)
        assert h.num_colors == 5
        assert sol.violations(h) == []

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            make_synthetic_solution("A", 1.5)
        with pytest.raises(ValueError):
            make_synthetic_solution("C")


class TestEstimateMistakeProb:
    def test_integral_edge_never_missed(self):
        h = hypergraph(2, 2, [((0, 1), 1)])
        x_node = np.array([[0.0, 1.0], [0.0, 1.0]])
        sol = EccLpSolution(x_node, np.zeros(1), 0.0)
        p, err = estimate_mistake_prob(h, sol, Interval(0.5, 0.875), 0, 2000, seed=1)
        assert p == 0.0 and err == 0.0

    def test_family_a_ratio_exceeds_four_thirds(self):
        h, sol = make_synthetic_solution("A", 0.2)
        p, err = estimate_mistake_prob(h, sol, Interval(0.6, 0.9), 0, 20000, seed=3)
        assert p == pytest.approx(2 / 3, abs=0.02)
        ratio = p / sol.x_edge[0]
        assert ratio == pytest.approx(5 / 3, abs=0.05)
        assert ratio > 4 / 3

    def test_matches_full_rounding_frequency(self):
        h = gen_integrality_gap(3)
        sol = lp_solution(h)
        interval = Interval(0.5, 0.75)
        p, err = estimate_mistake_prob(h, sol, interval, 0, 4000, seed=9)
        hits = sum(
            0 in objective_cost(h, gen_color_round(h, sol, interval, s)).mistake_edges
            for s in range(4000)
        )
        direct = hits / 4000
        assert abs(p - direct) <= 4 * max(err, np.sqrt(direct * (1 - direct) / 4000)) + 0.01

    def test_gap3_per_edge_bound(self):
        h = gen_integrality_gap(3)
        sol = lp_solution(h)
        for j in range(h.num_edges):
            p, err = estimate_mistake_prob(h, sol, Interval(0.5, 0.75), j, 8000, seed=j)
            assert p <= (4 / 3) * sol.x_edge[j] + 3 * err

    def test_small_edge_variable_regimes(self):
        # Feasible two-node solutions pinned just around the 1/8 boundary:
        # at 0.12 the nearest competitor sits above 7/8 and the edge is safe;
        # at 0.2 mistakes occur but stay within 4/3 of the edge variable.
        def two_node_solution(xe):
            h = hypergraph(2, 3, [((0, 1), 1)])
            x_node = np.array([[xe, 1 - xe, 1.0], [xe, 1.0, 1 - xe]])
            return h, EccLpSolution(x_node, np.array([xe]), xe)

        h, sol = two_node_solution(0.12)
        p, _ = estimate_mistake_prob(h, sol, Interval(0.5, 0.875), 0, 20000, seed=1)
        assert p == 0.0

        h, sol = two_node_solution(0.2)
        p, err = estimate_mistake_prob(h, sol, Interval(0.5, 0.875), 0, 20000, seed=2)
        # Analytically P(rho > 0.8) * 2/3 = 2/15.
        assert p == pytest.approx(2 / 15, abs=3 * err + 0.005)
        assert 0.0 < p <= (4 / 3) * 0.2 + 3 * err

    def test_conditional_structure(self):
        # Thresholds at 0.75 and 0.85: conditioned between them one competitor
        # wants the edge (miss 1/2); past the second, two do (miss 2/3).
        h = hypergraph(2, 4, [((0, 1), 1)])
        row = np.array([0.4, 0.75, 0.85, 1.0])
        sol = EccLpSolution(np.vstack([row, row]), np.array([0.4]), 0.4)
        p_mid, err_mid = estimate_mistake_prob(h, sol, Interval(0.76, 0.84), 0, 20000, seed=5)
        assert p_mid == pytest.approx(1 / 2, abs=3 * err_mid + 0.01)
        p_hi, err_hi = estimate_mistake_prob(h, sol, Interval(0.86, 0.874), 0, 20000, seed=6)
        assert p_hi == pytest.approx(2 / 3, abs=3 * err_hi + 0.01)
