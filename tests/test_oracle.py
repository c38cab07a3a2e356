import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minecc.hypergraph import hypergraph, objective_cost
from minecc.instances import gen_integrality_gap, gen_random, gen_star
from minecc.oracle import CapExceededError, bruteforce_ecc, bruteforce_vc
from minecc.reductions import WeightedGraph

from conftest import (
    ARRAY_CORE_WEIGHTS,
    exhaustive_ecc,
    naive_cost,
    random_instance,
    reference_bruteforce_vc,
    reference_pruned_bruteforce_ecc,
)


class TestBruteforceEcc:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_gap_instances(self, k):
        result = bruteforce_ecc(gen_integrality_gap(k))
        assert result.value == k - 1
        assert naive_cost(gen_integrality_gap(k), result.witness)[0] == k - 1

    def test_star(self):
        result = bruteforce_ecc(gen_star())
        assert result.value == 2

    def test_zero_noise_planted(self):
        planted = gen_random(12, 20, 3, 3, 0.0, seed=0)
        assert bruteforce_ecc(planted.hypergraph).value == 0

    def test_matches_unpruned_enumeration(self, rng):
        for _ in range(10):
            h = random_instance(rng, n=5, m=8, k=3)
            assert bruteforce_ecc(h).value == pytest.approx(exhaustive_ecc(h))

    def test_witness_achieves_value(self, rng):
        for _ in range(10):
            h = random_instance(rng, n=6, m=9, k=3)
            result = bruteforce_ecc(h)
            assert objective_cost(h, list(result.witness)).total_cost == pytest.approx(
                result.value
            )

    def test_cap_refusal(self):
        h = gen_random(30, 40, 3, 4, 0.5, seed=1).hypergraph
        with pytest.raises(CapExceededError, match="^search explored more than the cap of 1000 "):
            bruteforce_ecc(h, cap=1000)

    @pytest.mark.parametrize("h, explored", [
        (gen_random(14, 100, 2, 3, 1.0, seed=2).hypergraph, 7299),
        (gen_integrality_gap(5), 7205),
    ], ids=["exact14", "gap5"])
    def test_cap_counts_explored_states(self, h, explored):
        # The cap counts the states explored, not the 3^14 and 5^10 raw colorings.
        assert bruteforce_ecc(h, cap=explored).explored == explored
        with pytest.raises(CapExceededError, match=f"cap of {explored - 1} states"):
            bruteforce_ecc(h, cap=explored - 1)

    def test_isolated_nodes_fixed_to_one(self):
        h = hypergraph(3, 2, [((0,), 2)])
        result = bruteforce_ecc(h)
        assert result.witness == (2, 1, 1)

    def test_weighted(self):
        h = hypergraph(2, 2, [((0, 1), 1, 5.0), ((0, 1), 2, 1.0)])
        assert bruteforce_ecc(h).value == pytest.approx(1.0)


class TestBreaksListsMatchReference:
    """The search over per-position lists of the edges each color breaks
    explores the same states, and finds the same value and witness, as the
    search that tests every incident edge's color at each branch."""

    @staticmethod
    def assert_same(h):
        got, want = bruteforce_ecc(h), reference_pruned_bruteforce_ecc(h)
        assert (got.value, got.witness, got.explored) == (want.value, want.witness, want.explored)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4),
           weights=st.sampled_from([(), (0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 2.5), ARRAY_CORE_WEIGHTS]),
           permuted_members=st.booleans())
    def test_criterion_7_shapes(self, seed, k, weights, permuted_members):
        # Criterion 7's instances: 12, 10 or 8 nodes, 10 to 18 edges of up to
        # three members; weighted ones draw weights that tie and miss in float
        # sums, or the array core's, down to 0 and 5e-324 and up to 1e20.
        # Members handed to the constructor in a random order within each edge
        # must still leave each edge's earliest member in enumeration order first.
        rng = np.random.default_rng(seed)
        n = {2: 12, 3: 10, 4: 8}[k]
        h = gen_random(n, int(rng.integers(10, 19)), 3, k, float(rng.uniform(0.3, 0.8)),
                       seed=int(rng.integers(10**6))).hypergraph
        w = rng.choice(weights, h.num_edges) if weights else h.weights
        members = h.members
        if permuted_members:
            members = members[np.lexsort((rng.random(len(members)), h.member_edges()))]
        self.assert_same(type(h)(h.num_nodes, k, members, h.eptr, h.colors, w))

    @pytest.mark.parametrize("seed", range(10))
    def test_desk_exact14_shapes(self, seed):
        self.assert_same(gen_random(14, 100, 2, 3, 1.0, seed=10 * seed + 2).hypergraph)

    def test_desk_counts(self):
        assert bruteforce_ecc(gen_random(14, 100, 2, 3, 1.0, seed=2).hypergraph).explored == 7299
        assert bruteforce_ecc(gen_integrality_gap(5)).explored == 7205


class TestBruteforceVc:
    def test_triangle(self):
        g = WeightedGraph(3, (1.0,) * 3, ((0, 1), (1, 2), (0, 2)))
        result = bruteforce_vc(g)
        assert result.value == 2

    def test_edgeless(self):
        g = WeightedGraph(4, (1.0,) * 4, ())
        result = bruteforce_vc(g)
        assert result.value == 0
        assert sum(result.witness) == 0

    def test_weighted_path(self):
        g = WeightedGraph(3, (1.0, 10.0, 1.0), ((0, 1), (1, 2)))
        result = bruteforce_vc(g)
        assert result.value == 2
        assert result.witness == (1, 0, 1)

    def test_witness_is_cover(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = rng.random(len(possible)) < 0.4
            edges = tuple(e for e, t in zip(possible, take) if t)
            g = WeightedGraph(n, tuple(float(w) for w in rng.integers(1, 5, size=n)), edges)
            result = bruteforce_vc(g)
            cover = {u for u in range(n) if result.witness[u]}
            assert all(u in cover or v in cover for u, v in edges)
            assert sum(g.weights[u] for u in cover) == pytest.approx(result.value)

    def test_refuses_undeletable_endpoints(self):
        g = WeightedGraph(3, (1.0,) * 3, ((0, 1),), undeletable=[False, True, False])
        with pytest.raises(ValueError, match="undeletable"):
            bruteforce_vc(g)
        g = WeightedGraph(3, (1.0, 2.0, 1.0), ((0, 1),), undeletable=[False, False, True])
        assert bruteforce_vc(g).witness == (1, 0, 0)

    def test_cap_refusal(self):
        n = 40
        edges = tuple((i, (i + 1) % n) for i in range(n))
        g = WeightedGraph(n, (1.0,) * n, edges)
        assert bruteforce_vc(g, cap=418).explored == 418
        with pytest.raises(CapExceededError, match="^search explored more than the cap of 417 "):
            bruteforce_vc(g, cap=417)

    @pytest.mark.parametrize("weight", [-5.0, float("nan")])
    def test_refuses_a_negative_or_nan_weight(self, weight):
        # Once a value of 1 for weights (1, 1, -5), and a value of nan.
        g = WeightedGraph(4, (1.0, 1.0, weight, weight), ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match=r"^node 2 weight (-5\.0|nan) is not a nonnegative"):
            bruteforce_vc(g)

    @pytest.mark.parametrize("n, explored", [(20, 108), (30, 238), (40, 418)])
    def test_matching_bound_prunes_the_unit_path(self, n, explored):
        # The search without the bound explored 4072, 131038 and 4194260 states.
        g = WeightedGraph(n, (1.0,) * n, tuple((i, i + 1) for i in range(n - 1)))
        result = bruteforce_vc(g)
        assert (result.value, result.explored) == (n // 2, explored)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), whole=st.booleans())
    def test_same_value_and_witness_as_reference(self, seed, whole):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [pairs[i] for i in np.flatnonzero(rng.random(len(pairs)) < rng.uniform(0.2, 0.7))]
        weights = (rng.integers(0, 6, n) if whole
                   else rng.choice([0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, 2.5], n))
        g = WeightedGraph(n, weights, rng.permutation(edges) if edges else edges)
        got, want = bruteforce_vc(g), reference_bruteforce_vc(g)
        assert (got.value, got.witness) == (want.value, want.witness)
        assert got.explored <= want.explored


def _path(n: int, odd_edge: int):
    """The path on ``n`` nodes, edges ``{i, i + 1}`` of color 1 but ``odd_edge``, of color 2."""
    return hypergraph(n, 2, [((i, i + 1), 2 if i == odd_edge else 1) for i in range(n - 1)])


class TestSearchDepth:
    """A search that would recurse past the interpreter's limit is refused
    before it starts, whatever the cap; the deepest one accepted runs here,
    under pytest's own frames."""

    def test_ecc_refuses_a_deep_path(self):
        depth = sys.getrecursionlimit() // 2 - 2
        with pytest.raises(CapExceededError, match=f"^2400 active nodes exceed the search "
                                                   f"depth of {depth}$"):
            bruteforce_ecc(_path(2400, 1200))

    def test_vc_refuses_a_deep_path(self):
        g = WeightedGraph(2400, (1.0,) * 2400, tuple((i, i + 1) for i in range(2399)))
        with pytest.raises(CapExceededError, match="^2400 active nodes exceed the search depth"):
            bruteforce_vc(g)

    def test_deepest_accepted_search_runs(self):
        # The odd edge comes last, so the search colors every node before it
        # backs up: it recurses once per active node.
        depth = sys.getrecursionlimit() // 2 - 2
        result = bruteforce_ecc(_path(depth, depth - 2))
        assert result.value == 1
        assert objective_cost(_path(depth, depth - 2), list(result.witness)).total_cost == 1
        with pytest.raises(CapExceededError, match="search depth"):
            bruteforce_ecc(_path(depth + 1, depth - 1))
        # A star whose centre the warm start misses, then a matching: the
        # matching bound leaves room until the search has covered every edge,
        # one level per edge of the matching.
        pairs = (depth - 3) // 2
        g = WeightedGraph(3 + 2 * pairs, (3.0, 2.0, 2.0) + (1.0,) * (2 * pairs),
                          ((0, 1), (0, 2)) + tuple((3 + 2 * i, 4 + 2 * i) for i in range(pairs)))
        result = bruteforce_vc(g)
        assert (result.value, result.explored) == (3 + pairs, 2 * pairs + 2)


class TestCrossBounds:
    def test_oracle_between_bounds_and_heuristics(self):
        from minecc.combinatorial import majority_vote, match_coloring, mv_lower_bound
        from minecc.lp import solve
        from minecc.relaxations import build_ecc_lp

        for seed in range(8):
            h = gen_random(9, 15, 3, 3, 0.5, seed=seed).hypergraph
            opt = bruteforce_ecc(h).value
            lp_value = solve(build_ecc_lp(h)).require_optimal().value
            mv = majority_vote(h)
            _, coloring, match_bound = match_coloring(h)
            assert lp_value <= opt + 1e-6
            assert match_bound <= opt + 1e-9
            assert mv_lower_bound(h, mv) <= opt + 1e-9
            assert opt <= objective_cost(h, mv).total_cost + 1e-9
            assert opt <= objective_cost(h, coloring).total_cost + 1e-9
