import math

import pytest

from minecc.combinatorial import DeletionSet, match_coloring
from minecc.hypergraph import hypergraph
from minecc.instances import gen_integrality_gap, gen_random, gen_star
from minecc.lp import solve
from minecc.oracle import bruteforce_ecc, bruteforce_vc
from minecc.reductions import (
    WeightedGraph,
    bad_edge_pairs,
    cover_to_deletions,
    deletions_to_cover,
    ecc_to_hyper_mc,
    ecc_to_node_mc,
    ecc_to_vertex_cover,
    parse_graph,
    vertex_cover_to_ecc,
    write_graph,
)
from minecc.relaxations import build_nodemc_lp

from conftest import edges_of


def triangle() -> WeightedGraph:
    return WeightedGraph(3, (1.0, 1.0, 1.0), ((0, 1), (1, 2), (0, 2)))


def path3() -> WeightedGraph:
    return WeightedGraph(3, (1.0, 1.0, 1.0), ((0, 1), (1, 2)))


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, (1.0, 1.0), ((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, (1.0, 1.0), ((0, 5),))

    def test_rejects_duplicate_terminals(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, (1.0, 1.0), (), terminals=((0, 1), (0, 2)))


class TestEccToVertexCover:
    def test_gap3_gives_triangle(self):
        red = ecc_to_vertex_cover(gen_integrality_gap(3))
        assert red.graph.num_nodes == 3
        assert set(red.graph.edges) == {(0, 1), (0, 2), (1, 2)}
        assert bruteforce_vc(red.graph).value == 2 == bruteforce_ecc(red.instance).value

    def test_conflict_free_instance(self):
        h = hypergraph(4, 2, [((0, 1), 1), ((2, 3), 2)])
        red = ecc_to_vertex_cover(h)
        assert red.graph.edges == ()
        assert bruteforce_vc(red.graph).value == 0

    def test_edge_count_equals_bad_pairs(self):
        for seed in range(8):
            h = gen_random(9, 15, 3, 3, 0.5, seed=seed).hypergraph
            red = ecc_to_vertex_cover(h)
            assert len(red.graph.edges) == len(bad_edge_pairs(h))

    def test_value_equivalence_random(self):
        for seed in range(25):
            h = gen_random(8, 13, 3, 3, 0.6, seed=seed).hypergraph
            red = ecc_to_vertex_cover(h)
            assert bruteforce_vc(red.graph).value == pytest.approx(
                bruteforce_ecc(h).value
            )

    def test_weights_propagate(self):
        h = hypergraph(2, 2, [((0, 1), 1, 2.5), ((0, 1), 2, 1.5)])
        red = ecc_to_vertex_cover(h)
        assert red.graph.weights == (2.5, 1.5)
        assert bruteforce_vc(red.graph).value == pytest.approx(1.5)


class TestCoverDeletionMaps:
    def test_triangle_cover_round_trip(self):
        red = ecc_to_vertex_cover(gen_integrality_gap(3))
        dels = cover_to_deletions(red, {0, 1})
        assert dels.indices == frozenset({0, 1})
        assert deletions_to_cover(red, dels) == {0, 1}

    def test_rejects_non_cover(self):
        red = ecc_to_vertex_cover(gen_integrality_gap(3))
        with pytest.raises(ValueError):
            cover_to_deletions(red, {0})

    def test_rejects_conflicting_deletions(self):
        red = ecc_to_vertex_cover(gen_integrality_gap(3))
        with pytest.raises(ValueError):
            deletions_to_cover(red, DeletionSet(frozenset({0}), 1.0))

    def test_empty_cover_on_conflict_free(self):
        h = hypergraph(4, 2, [((0, 1), 1), ((2, 3), 2)])
        red = ecc_to_vertex_cover(h)
        assert cover_to_deletions(red, set()).indices == frozenset()

    def test_match_deletions_are_covers(self):
        for seed in range(10):
            h = gen_random(10, 16, 3, 3, 0.6, seed=seed).hypergraph
            red = ecc_to_vertex_cover(h)
            dels, _, _ = match_coloring(h)
            assert deletions_to_cover(red, dels) == set(dels.indices)


class TestVertexCoverToEcc:
    def test_triangle_matches_gap3(self):
        h, origin = vertex_cover_to_ecc(triangle())
        gap = gen_integrality_gap(3)
        assert h.num_nodes == gap.num_nodes
        assert sorted(len(e) for e in edges_of(h)) == sorted(len(e) for e in edges_of(gap))
        assert sorted(e.color for e in edges_of(h)) == [1, 2, 3]
        pair_sizes = {
            len(set(a.members) & set(b.members))
            for i, a in enumerate(edges_of(h))
            for b in edges_of(h)[i + 1:]
        }
        assert pair_sizes == {1}
        assert origin == [0, 1, 2]

    def test_single_edge_graph(self):
        g = WeightedGraph(2, (1.0, 1.0), ((0, 1),))
        h, _ = vertex_cover_to_ecc(g)
        assert h.num_nodes == 1
        assert [e.members for e in edges_of(h)] == [(0,), (0,)]
        assert bruteforce_ecc(h).value == 1

    def test_path3_value(self):
        h, _ = vertex_cover_to_ecc(path3())
        assert bruteforce_ecc(h).value == 1 == bruteforce_vc(path3()).value

    def test_rank_equals_max_degree(self):
        g = WeightedGraph(5, (1.0,) * 5, ((0, 1), (0, 2), (0, 3), (3, 4)))
        h, _ = vertex_cover_to_ecc(g)
        assert h.rank == 3

    def test_isolated_nodes_dropped(self):
        g = WeightedGraph(4, (1.0,) * 4, ((0, 1),))
        h, origin = vertex_cover_to_ecc(g)
        assert h.num_edges == 2
        assert origin == [0, 1]

    def test_value_equivalence_random_graphs(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 8))
            possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = rng.random(len(possible)) < 0.5
            edges = tuple(e for e, t in zip(possible, take) if t) or (possible[0],)
            weights = tuple(float(w) for w in rng.integers(1, 4, size=n))
            g = WeightedGraph(n, weights, edges)
            h, _ = vertex_cover_to_ecc(g)
            # One color per hyperedge: raw state count outgrows the default cap.
            assert bruteforce_ecc(h, cap=10**12).value == pytest.approx(
                bruteforce_vc(g).value
            )


class TestEccToNodeMc:
    def test_star_shape(self):
        star = gen_star()
        g = ecc_to_node_mc(star)
        assert len(g.terminals) == 3
        assert len(g.undeletable) == 4 + 3  # original nodes plus terminals
        deletable = [u for u in range(g.num_nodes) if u not in g.undeletable]
        assert len(deletable) == 3
        assert all(math.isinf(g.weights[t]) for t, _ in g.terminals)

    def test_single_edge(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        g = ecc_to_node_mc(h)
        # Members attach to the edge node, the edge node to its terminal.
        assert set(g.edges) == {(0, 2), (1, 2), (3, 2)}

    def test_lp_value_matches_direct_build(self):
        from minecc.lp import LinearProgram

        for seed in range(3):
            h = gen_random(7, 10, 3, 3, 0.5, seed=seed).hypergraph
            direct = solve(build_nodemc_lp(h)).require_optimal().value
            g = ecc_to_node_mc(h)

            lp = LinearProgram(sense="min")
            k = h.num_colors
            for u in range(g.num_nodes):
                for i in range(1, k + 1):
                    lp.add_var(f"y_{u}_{i}")
            dvar = {}
            for u in range(g.num_nodes):
                if u not in g.undeletable:
                    dvar[u] = lp.add_var(f"d_{u}", obj=g.weights[u])
            for a, b in g.edges:
                for i in range(k):
                    row = [(b * k + i, 1.0), (a * k + i, -1.0)]
                    if b in dvar:
                        row.append((dvar[b], -1.0))
                    lp.add_constraint(row, "<=", 0.0)
                    row = [(a * k + i, 1.0), (b * k + i, -1.0)]
                    if a in dvar:
                        row.append((dvar[a], -1.0))
                    lp.add_constraint(row, "<=", 0.0)
            for t, c in g.terminals:
                lp.add_constraint([(t * k + c - 1, 1.0)], "=", 0.0)
                for i in range(1, k + 1):
                    if i != c:
                        lp.add_constraint([(t * k + i - 1, 1.0)], ">=", 1.0)
            via_graph = solve(lp).require_optimal().value
            assert via_graph == pytest.approx(direct, abs=1e-6)


class TestEccToHyperMc:
    def test_edge_gains_terminal(self):
        h = hypergraph(2, 2, [((0, 1), 2)])
        th = ecc_to_hyper_mc(h)
        assert th.num_nodes == 4
        assert th.edges == ((0, 1, 3),)
        assert th.terminals == (2, 3)

    def test_gap3_sizes(self):
        th = ecc_to_hyper_mc(gen_integrality_gap(3))
        assert all(len(e) == 3 for e in th.edges)

    def test_edge_count_unchanged(self):
        h = gen_random(8, 14, 3, 3, 0.4, seed=1).hypergraph
        assert len(ecc_to_hyper_mc(h).edges) == h.num_edges


class TestGraphSerialization:
    def test_round_trip(self):
        g = ecc_to_node_mc(gen_star())
        again = parse_graph(write_graph(g))
        assert again == g

    def test_header(self):
        text = write_graph(triangle())
        assert text.splitlines()[0] == "vc 3 3"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_graph("nonsense 1 2\n")
