import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minecc.combinatorial
import minecc.reductions
from minecc.combinatorial import (
    DeletionSet,
    a_posteriori_ratio,
    coloring_from_deletions,
    find_bad_pair,
    hybrid,
    majority_vote,
    match_coloring,
    mv_lower_bound,
    pitt_coloring,
    recolor_uncovered,
)
from minecc.hypergraph import (
    EdgeColoredHypergraph,
    build_incidence,
    hypergraph,
    objective_cost,
    validate,
)
from minecc.instances import gen_integrality_gap, gen_random
from minecc.oracle import bruteforce_ecc
from minecc.reductions import bad_edge_pairs

from conftest import (
    edges_of,
    exhaustive_ecc,
    reference_bad_edge_pairs,
    reference_build_incidence,
    reference_find_bad_pair,
    reference_match_coloring,
    reference_pitt_coloring,
)

hypergraph_module = importlib.import_module("minecc.hypergraph")


def two_edge_conflict():
    return hypergraph(3, 2, [((0, 1), 1), ((1, 2), 2)])


class TestMajorityVote:
    def test_weighted_majority(self):
        h = hypergraph(1, 2, [((0,), 1), ((0,), 1), ((0,), 2)])
        assert majority_vote(h) == [1]

    def test_tie_lowest_color(self):
        h = hypergraph(1, 3, [((0,), 2), ((0,), 3)])
        assert majority_vote(h) == [2]

    def test_isolated_gets_color_one(self):
        h = hypergraph(2, 3, [((0,), 3)])
        assert majority_vote(h)[1] == 1

    def test_weights_matter(self):
        h = hypergraph(1, 2, [((0,), 1, 1.0), ((0,), 2, 5.0)])
        assert majority_vote(h) == [2]

    def test_gap3_cost(self):
        h = gen_integrality_gap(3)
        mv = majority_vote(h)
        # Every node ties between its two colors and takes the smaller one.
        assert mv == [1, 1, 2]
        assert objective_cost(h, mv).total_cost == 2


class TestMvLowerBound:
    def test_zero_noise_planted(self):
        planted = gen_random(15, 25, 3, 3, 0.0, seed=1)
        mv = majority_vote(planted.hypergraph)
        assert mv_lower_bound(planted.hypergraph, mv) == 0.0

    def test_gap3_value(self):
        h = gen_integrality_gap(3)
        mv = majority_vote(h)
        # Independent recount: e2 has one mismatched member, e3 has two; r = 2.
        mismatches = sum(
            1 for e in edges_of(h) for v in e.members if mv[v] != e.color
        )
        assert mismatches == 3
        assert mv_lower_bound(h, mv) == pytest.approx(mismatches / h.rank)

    def test_below_optimum(self):
        for seed in range(12):
            h = gen_random(9, 16, 3, 3, 0.5, seed=seed).hypergraph
            mv = majority_vote(h)
            assert mv_lower_bound(h, mv) <= bruteforce_ecc(h).value + 1e-9


class TestPittColoring:
    def test_single_conflict_deletes_one(self):
        h = two_edge_conflict()
        dels, coloring = pitt_coloring(h, seed=4)
        assert len(dels.indices) == 1
        assert objective_cost(h, coloring).total_cost == 1  # = optimum

    def test_no_conflicts_no_deletions(self):
        h = hypergraph(4, 2, [((0, 1), 1), ((2, 3), 2)])
        dels, coloring = pitt_coloring(h, seed=0)
        assert dels.indices.tolist() == []
        assert objective_cost(h, coloring).total_cost == 0

    def test_survivors_conflict_free(self):
        for seed in range(20):
            h = gen_random(12, 24, 3, 4, 0.6, seed=seed).hypergraph
            dels, _ = pitt_coloring(h, seed=seed)
            assert find_bad_pair(h, dels.flags) is None

    def test_mean_within_twice_optimum(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            h = gen_random(
                8, 14, 3, 3, 0.6, seed=int(rng.integers(0, 10**6))
            ).hypergraph
            opt = bruteforce_ecc(h).value
            costs = [
                objective_cost(h, pitt_coloring(h, seed=s)[1]).total_cost
                for s in range(50)
            ]
            mean = float(np.mean(costs))
            sigma = float(np.std(costs)) / np.sqrt(len(costs))
            assert mean <= 2 * opt + 3 * sigma + 1e-9

    def test_weighted_expectation(self):
        # One conflicting pair with weights 1 and 9: the light edge should go.
        h = hypergraph(2, 2, [((0, 1), 1, 1.0), ((0, 1), 2, 9.0)])
        deleted_weight = [pitt_coloring(h, seed=s)[0].total_weight for s in range(4000)]
        # P(delete heavy) = 1/10, so the mean deleted weight is 0.9*1 + 0.1*9 = 1.8.
        assert np.mean(deleted_weight) == pytest.approx(1.8, abs=0.15)

    def test_deterministic(self):
        h = gen_random(10, 20, 3, 3, 0.5, seed=3).hypergraph
        assert pitt_coloring(h, seed=11) == pitt_coloring(h, seed=11)

    def test_weighted_mean_within_twice_optimum(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            base = gen_random(8, 14, 3, 3, 0.6, seed=int(rng.integers(10**6))).hypergraph
            h = hypergraph(
                8,
                3,
                [
                    (e.members, e.color, float(w))
                    for e, w in zip(edges_of(base), rng.integers(1, 6, size=base.num_edges))
                ],
            )
            opt = bruteforce_ecc(h).value
            costs = [
                objective_cost(h, pitt_coloring(h, seed=s)[1]).total_cost
                for s in range(60)
            ]
            mean = float(np.mean(costs))
            sigma = float(np.std(costs)) / np.sqrt(len(costs))
            assert mean <= 2 * opt + 3 * sigma + 1e-9

    def test_zero_weight_pair_deletes_both(self):
        h = hypergraph(2, 2, [((0, 1), 1, 0.0), ((0, 1), 2, 0.0)])
        dels, _ = pitt_coloring(h, seed=0)
        assert dels.indices.tolist() == [0, 1]


class TestMatchColoring:
    def test_deletes_both(self):
        h = two_edge_conflict()
        dels, coloring, bound = match_coloring(h)
        assert dels.indices.tolist() == [0, 1]
        assert bound == 1
        assert objective_cost(h, coloring).total_cost <= 2

    def test_no_conflicts(self):
        h = hypergraph(4, 2, [((0, 1), 1), ((2, 3), 2)])
        dels, coloring, bound = match_coloring(h)
        assert bound == 0 and dels.indices.tolist() == []
        assert objective_cost(h, coloring).total_cost == 0

    def test_gap3(self):
        h = gen_integrality_gap(3)
        dels, coloring, bound = match_coloring(h)
        assert bound == 1
        assert objective_cost(h, coloring).total_cost == 2  # = optimum

    def test_two_approx_guarantee_unit_weights(self):
        for seed in range(25):
            h = gen_random(10, 18, 3, 3, 0.6, seed=seed).hypergraph
            dels, coloring, bound = match_coloring(h)
            opt = bruteforce_ecc(h).value
            cost = objective_cost(h, coloring).total_cost
            assert cost <= len(dels.indices)
            assert len(dels.indices) == 2 * round(bound)
            assert bound <= opt + 1e-9
            assert cost <= 2 * opt + 1e-9

    def test_weighted_bound_still_valid(self):
        for seed in range(10):
            planted = gen_random(8, 14, 3, 3, 0.6, seed=seed)
            weighted = hypergraph(
                8,
                3,
                [
                    (e.members, e.color, 1.0 + (j % 3))
                    for j, e in enumerate(edges_of(planted.hypergraph))
                ],
            )
            _, _, bound = match_coloring(weighted)
            assert bound <= bruteforce_ecc(weighted).value + 1e-9

    def test_survivors_conflict_free(self):
        for seed in range(20):
            h = gen_random(12, 24, 3, 4, 0.6, seed=seed).hypergraph
            dels, _, _ = match_coloring(h)
            assert find_bad_pair(h, dels.flags) is None


class TestColoringFromDeletions:
    def test_empty_deletions_conflict_free(self):
        h = hypergraph(4, 2, [((0, 1), 1), ((2, 3), 2)])
        coloring = coloring_from_deletions(h, DeletionSet([False, False], 0.0))
        assert objective_cost(h, coloring).total_cost == 0

    def test_delete_everything(self):
        h = two_edge_conflict()
        coloring = coloring_from_deletions(h, DeletionSet([True, True], 2.0))
        assert coloring == [1, 1, 1]

    def test_cost_at_most_deleted_weight(self):
        for seed in range(10):
            h = gen_random(10, 18, 3, 3, 0.6, seed=seed).hypergraph
            dels, _, _ = match_coloring(h)
            coloring = coloring_from_deletions(h, dels)
            assert objective_cost(h, coloring).total_cost <= dels.total_weight + 1e-9

    def test_rejects_conflicting_deletions(self):
        h = two_edge_conflict()
        with pytest.raises(ValueError):
            coloring_from_deletions(h, DeletionSet([False, False], 0.0))

    def test_flags_of_another_length_rejected(self):
        # Ids outside [0, m) were once dropped without a word: find_bad_pair
        # read [-1] as no deletion and gave (0, 1), and {0, 1, 99} passed.
        h = gen_integrality_gap(3)
        stray = DeletionSet(np.isin(np.arange(100), [0, 1, 99]), 2.0)
        with pytest.raises(ValueError, match="one flag per edge"):
            find_bad_pair(h, [-1])
        with pytest.raises(ValueError, match="one flag per edge"):
            coloring_from_deletions(h, stray)
        with pytest.raises(ValueError, match="one flag per edge"):
            recolor_uncovered(h, stray, [1, 1, 1], [1, 1, 1])
        assert find_bad_pair(h, [True, True, False]) is None
        assert find_bad_pair(h, [False, True, False]) == (0, 2)


class TestHybrid:
    def test_two_edge_example(self):
        h = two_edge_conflict()
        coloring = hybrid(h)[0]
        # Deletions isolate all three nodes; majority recoloring satisfies one edge.
        assert coloring == [1, 1, 2]
        assert objective_cost(h, coloring).total_cost == 1
        assert exhaustive_ecc(h) == 1

    def test_no_conflicts_matches_deletion_coloring(self):
        h = hypergraph(4, 2, [((0, 1), 1), ((2, 3), 2)])
        _, base, _ = match_coloring(h)
        assert hybrid(h)[0] == base

    def test_never_worse_than_match(self):
        for seed in range(40):
            h = gen_random(10, 18, 3, 3, 0.6, seed=seed).hypergraph
            _, base, _ = match_coloring(h)
            assert (
                objective_cost(h, hybrid(h)[0]).total_cost
                <= objective_cost(h, base).total_cost
            )

    def test_returns_the_report_and_both_bounds_inputs(self):
        for seed in range(20):
            h = gen_random(10, 18, 3, 3, 0.6, seed=seed).hypergraph
            coloring, report, match_bound, mv = hybrid(h, seed)
            assert report == objective_cost(h, coloring)
            assert match_bound == match_coloring(h, seed)[2]
            assert mv == majority_vote(h)

    def test_guard_against_bad_recoloring(self):
        # Crafted so majority recoloring of the lone uncovered node (2) breaks
        # a deleted-but-satisfied edge without fixing anything; the guard must
        # fall back to the deletion coloring.
        h = hypergraph(
            6,
            2,
            [
                ((3,), 1),
                ((1,), 1),  # deleted together with edge 3 at node 1
                ((1,), 1),  # survives and covers node 1
                ((1, 2), 2),
                ((2, 3), 1),  # deleted at node 2, yet satisfied by default colors
                ((2, 4), 2),
                ((4,), 1),
            ],
        )
        _, base, _ = match_coloring(h)
        result = hybrid(h)[0]
        assert result == base
        assert objective_cost(h, result).total_cost == 2


class TestAPosterioriRatio:
    def test_lp_bound(self):
        assert a_posteriori_ratio(2.0, 1.5) == pytest.approx(4 / 3)

    def test_zero_cost(self):
        assert a_posteriori_ratio(0.0) == 1.0
        assert a_posteriori_ratio(0.0, None, 0.0) == 1.0

    def test_takes_best_bound(self):
        assert a_posteriori_ratio(4.0, 1.0, 2.0, 0.5) == pytest.approx(2.0)
        assert a_posteriori_ratio(4.0, None, 2.0, None) == pytest.approx(2.0)

    def test_zero_bounds_give_none(self):
        assert a_posteriori_ratio(3.0, None, None, 0.0) is None

    def test_no_bounds_give_none(self):
        assert a_posteriori_ratio(3.0) is None
        assert a_posteriori_ratio(3.0, None, None, None) is None


class TestVisitOrder:
    def test_order_seed_changes_runs(self):
        h = gen_random(14, 30, 3, 4, 0.7, seed=2).hypergraph
        results = {
            tuple(match_coloring(h, order_seed=s)[1]) for s in range(8)
        }
        assert len(results) > 1  # shuffled orders genuinely vary

    def test_linear_work(self):
        # Cursor walks touch each incidence a bounded number of times.
        planted = gen_random(300, 900, 5, 6, 0.5, seed=0)
        h = planted.hypergraph
        incidence_size = len(h.members)
        dels, _, _ = match_coloring(h)
        assert len(dels.indices) <= incidence_size


@st.composite
def walk_instances(draw):
    """Small instances whose weights are unit, zero or arbitrary nonnegative."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 4))
    weight = draw(st.sampled_from([
        st.just(1.0),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        st.floats(0.0, 10.0, allow_nan=False),
    ]))
    edges = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
            st.integers(1, k),
            weight,
        ),
        max_size=14,
    ))
    return hypergraph(n, k, edges)


class TestWalkMatchesReference:
    """The shared cursor walk reproduces the separate pitt and match loops exactly."""

    @settings(max_examples=300, deadline=None)
    @given(h=walk_instances(), seed=st.integers(0, 2**32 - 1),
           order_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    def test_same_deletions_colorings_and_bound(self, h, seed, order_seed):
        dels, coloring, bound = match_coloring(h, order_seed)
        assert (dels, coloring, bound) == reference_match_coloring(h, order_seed)
        pdels, pcoloring = pitt_coloring(h, seed, order_seed)
        assert (pdels, pcoloring) == reference_pitt_coloring(h, seed, order_seed)

        assert find_bad_pair(h, dels.flags) is None
        assert find_bad_pair(h, pdels.flags) is None
        if all(e.weight == 1.0 for e in edges_of(h)):
            cost = objective_cost(h, coloring).total_cost
            assert bound <= cost <= 2 * bound
            assert bound <= objective_cost(h, pcoloring).total_cost


class TestFindBadPairMatchesReference:
    """The array pass returns the pair of the per-node scan kept in conftest."""

    @settings(max_examples=300, deadline=None)
    @given(h=walk_instances(), data=st.data())
    def test_same_pair_for_any_deletions(self, h, data):
        m = h.num_edges
        chosen = data.draw(st.frozensets(st.integers(0, m - 1)) if m else st.just(frozenset()))
        dels, _, _ = match_coloring(h)
        ids = set(dels.indices.tolist())
        for deleted in (chosen, ids, ids - {min(ids, default=0)}, ()):
            expected = reference_find_bad_pair(h, deleted)
            flags = np.isin(np.arange(m), sorted(deleted))
            assert find_bad_pair(h, flags) == expected  # reads the incidence match_coloring built
            assert find_bad_pair(replace(h), flags) == expected  # builds its own
        assert find_bad_pair(h) == reference_find_bad_pair(h)
        assert find_bad_pair(h, dels.flags) is None


class TestFlatWalkAtScale:
    """The buffer-indexed walk against the reference loops beyond ``walk_instances``' sizes."""

    @pytest.mark.parametrize("seed, weights, order_seed", [
        (0, "unit", None), (1, "unit", 7), (2, "float", None), (3, "float", 11),
    ])
    def test_pitt_draws_across_uniform_blocks(self, seed, weights, order_seed):
        h = gen_random(2000, 48000, 6, 8, 0.2, seed).hypergraph
        if weights == "float":
            weights = np.random.default_rng(seed).uniform(0.25, 4.0, h.num_edges)
            h = EdgeColoredHypergraph(h.num_nodes, h.num_colors, h.members, h.eptr, h.colors, weights)
        dels, coloring = pitt_coloring(h, seed, order_seed)
        # Every weight is positive, so each deletion used one uniform: past three blocks.
        assert len(dels.indices) > 3 * 4096
        assert (dels, coloring) == reference_pitt_coloring(h, seed, order_seed)

    def test_planted_large_shape(self):
        h = gen_random(25000, 100000, 6, 8, 0.2, 0).hypergraph
        assert match_coloring(h, None) == reference_match_coloring(h, None)
        assert pitt_coloring(h, 0, None) == reference_pitt_coloring(h, 0, None)

    @pytest.mark.parametrize("n, edges, lists, matched, pitt_deletes", [
        # Each pair agrees in its low bits, so a dtype too narrow for it would
        # make the two edges look the same color. One node keeps the incidence
        # a single list whatever the colors.
        (1, [((0,), 300), ((0,), 44)], [(1, 0)], [0, 1], 1),
        (1, [((0,), -1), ((0,), 255)], [(0, 1)], [0, 1], 1),
        (1, [((0,), 2**40 + 1), ((0,), 1)], [(1, 0)], [0, 1], 1),
        # Color 5 on node 0 once reached node 1's keys: node 0 listed edge 1,
        # and edges 0 and 2, which share no node, made the first bad pair.
        (2, [((0,), 5), ((1,), 1), ((1,), 2)], [(0,), (1, 2)], [1, 2], 1),
        (2, [((0,), -3), ((0, 1), 2), ((1,), 1)], [(0, 1), (2, 1)], [0, 1], 1),
        # Colors too far apart for node * span + color in 63 bits.
        (2, [((0,), 2**62), ((0, 1), -(2**62)), ((1,), 7)], [(1, 0), (1, 2)], [0, 1], 2),
    ], ids=["colors0", "colors1", "colors2", "two-nodes0", "two-nodes1", "two-nodes2"])
    def test_unvalidated_colors_do_not_wrap(self, n, edges, lists, matched, pitt_deletes):
        h = hypergraph(n, 2, edges)
        assert validate(h) != []
        inc = build_incidence(h)
        assert [inc[v] for v in range(n)] == lists
        assert find_bad_pair(h) == reference_find_bad_pair(h)
        assert match_coloring(h) == reference_match_coloring(h)
        assert match_coloring(h)[0].indices.tolist() == sorted(find_bad_pair(h)) == matched
        assert pitt_coloring(h, 3) == reference_pitt_coloring(h, 3)
        assert len(pitt_coloring(h, 3)[0].indices) == pitt_deletes
        assert bad_edge_pairs(h).tolist() == [list(p) for p in reference_bad_edge_pairs(h)]


class TestOneIncidencePerInstance:
    """The instance builds its incidence on first read, and every reader shares it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # Counted wherever a module of the package holds the build function.
        calls = []
        original = hypergraph_module.build_incidence
        for module in (hypergraph_module, minecc.combinatorial, minecc.reductions):
            if getattr(module, "build_incidence", None) is original:
                monkeypatch.setattr(module, "build_incidence",
                                    lambda h: calls.append(h) or original(h))
        return calls

    def test_one_build_through_the_walks_and_the_conflict_graph(self, builds):
        h = gen_random(300, 900, 5, 6, 0.5, seed=0).hypergraph
        dels, _, _ = match_coloring(h)
        pitt_coloring(h, 0)
        coloring_from_deletions(h, dels)
        find_bad_pair(h)
        bad_edge_pairs(h)
        assert builds == [h]

    def test_the_cache_is_derived_data(self, builds):
        h = gen_integrality_gap(5)
        twin = replace(h)
        assert h.incidence is h.incidence and "incidence" not in vars(twin)
        assert h.incidence == build_incidence(twin) == reference_build_incidence(h)
        assert h == twin and hash(h) == hash(twin)
        assert len(builds) == 1
