import math

import numpy as np
import pytest

from minecc.combinatorial import DeletionSet, match_coloring
from minecc.hypergraph import hypergraph, validate
from minecc.instances import ParseError, gen_integrality_gap, gen_random, gen_star
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
    write_hmc,
)
from minecc.relaxations import build_nodemc_lp

from conftest import edges_of, graph_layout, lp_from_rows


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

    def test_rejects_weights_of_another_length(self):
        # Once accepted, after which bruteforce_vc raised IndexError.
        with pytest.raises(ValueError, match="as many weights"):
            WeightedGraph(3, (1.0, 1.0), ((0, 1), (1, 2)))

    def test_rejects_negative_node_count(self):
        with pytest.raises(ValueError, match="node count of 0 or more"):
            WeightedGraph(-1, (), ())

    def test_holds_read_only_arrays(self):
        g = WeightedGraph(3, [1, 2, 3], [(0, 1)], undeletable=[False, True, False])
        assert g.edges.shape == (1, 2) and g.terminals.shape == (0, 2)
        assert g.weights.dtype == np.float64 and g.undeletable.tolist() == [False, True, False]
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2


class TestEccToVertexCover:
    def test_gap3_gives_triangle(self):
        red = ecc_to_vertex_cover(gen_integrality_gap(3))
        assert red.graph.num_nodes == 3
        assert red.graph.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert bruteforce_vc(red.graph).value == 2 == bruteforce_ecc(red.instance).value

    def test_conflict_free_instance(self):
        h = hypergraph(4, 2, [((0, 1), 1), ((2, 3), 2)])
        red = ecc_to_vertex_cover(h)
        assert red.graph.edges.shape == (0, 2)
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
        assert red.graph.weights.tolist() == [2.5, 1.5]
        assert bruteforce_vc(red.graph).value == pytest.approx(1.5)


class TestCoverDeletionMaps:
    def test_triangle_cover_round_trip(self):
        red = ecc_to_vertex_cover(gen_integrality_gap(3))
        dels = cover_to_deletions(red, {0, 1})
        assert dels.indices.tolist() == [0, 1]
        assert deletions_to_cover(red, dels) == {0, 1}

    def test_rejects_non_cover(self):
        red = ecc_to_vertex_cover(gen_integrality_gap(3))
        with pytest.raises(ValueError):
            cover_to_deletions(red, {0})

    @pytest.mark.parametrize("stray", [-1, 7])
    def test_rejects_ids_outside_the_edges(self, stray):
        # -1 once wrapped to edge 2 (deleting {0, 1, 2}, weight 3.0), and 7
        # raised a bare IndexError.
        red = ecc_to_vertex_cover(gen_integrality_gap(3))
        with pytest.raises(ValueError, match=f"cover id {stray} outside"):
            cover_to_deletions(red, {0, 1, stray})

    def test_rejects_conflicting_deletions(self):
        red = ecc_to_vertex_cover(gen_integrality_gap(3))
        with pytest.raises(ValueError):
            deletions_to_cover(red, DeletionSet([True, False, False], 1.0))

    def test_empty_cover_on_conflict_free(self):
        h = hypergraph(4, 2, [((0, 1), 1), ((2, 3), 2)])
        red = ecc_to_vertex_cover(h)
        assert cover_to_deletions(red, set()).indices.tolist() == []

    def test_weight_is_added_in_edge_order(self):
        # Edges 0/1, 32/33 and 64/65 are the only conflicting pairs, each on
        # its own shared node; every other edge is alone on its node. The
        # cover {1, 33, 65} iterates as 65, 1, 33, whose sum is 2.5000000000000004.
        edges = [((j,), 1, 1.0) for j in range(66)]
        for first, shared, weight in ((0, 66, 0.1), (32, 67, 0.2), (64, 68, 2.2)):
            edges[first] = ((first, shared), 1, 1.0)
            edges[first + 1] = ((first + 1, shared), 2, weight)
        h = hypergraph(69, 2, edges)
        red = ecc_to_vertex_cover(h)
        assert red.graph.edges.tolist() == [[0, 1], [32, 33], [64, 65]]
        dels = cover_to_deletions(red, {1, 33, 65})
        assert dels.indices.tolist() == [1, 33, 65]
        assert dels.total_weight == 2.5

    def test_match_deletions_are_covers(self):
        for seed in range(10):
            h = gen_random(10, 16, 3, 3, 0.6, seed=seed).hypergraph
            red = ecc_to_vertex_cover(h)
            dels, _, _ = match_coloring(h)
            assert deletions_to_cover(red, dels) == set(dels.indices.tolist())


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
        assert g.undeletable.sum() == 4 + 3  # original nodes plus terminals
        assert np.flatnonzero(~g.undeletable).tolist() == [4, 5, 6]
        assert all(math.isinf(g.weights[t]) for t, _ in g.terminals)

    def test_single_edge(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        g = ecc_to_node_mc(h)
        # Members attach to the edge node, the edge node to its terminal.
        assert g.edges.tolist() == [[0, 2], [1, 2], [3, 2]]

    def test_lp_value_matches_direct_build(self):
        for seed in range(3):
            h = gen_random(7, 10, 3, 3, 0.5, seed=seed).hypergraph
            direct = solve(build_nodemc_lp(h)).require_optimal().value
            g = ecc_to_node_mc(h)

            k = h.num_colors
            cols = [(f"y_{u}_{i}", 0.0, math.inf, 0.0)
                    for u in range(g.num_nodes) for i in range(1, k + 1)]
            dvar = {}
            for u in np.flatnonzero(~g.undeletable).tolist():
                dvar[u] = len(cols)
                cols.append((f"d_{u}", 0.0, math.inf, float(g.weights[u])))
            rows = []
            for a, b in g.edges.tolist():
                for i in range(k):
                    row = [(b * k + i, 1.0), (a * k + i, -1.0)]
                    if b in dvar:
                        row.append((dvar[b], -1.0))
                    rows.append((row, "<=", 0.0))
                    row = [(a * k + i, 1.0), (b * k + i, -1.0)]
                    if a in dvar:
                        row.append((dvar[a], -1.0))
                    rows.append((row, "<=", 0.0))
            for t, c in g.terminals.tolist():
                rows.append(([(t * k + c - 1, 1.0)], "=", 0.0))
                for i in range(1, k + 1):
                    if i != c:
                        rows.append(([(t * k + i - 1, 1.0)], ">=", 1.0))
            via_graph = solve(lp_from_rows("min", cols, rows)).require_optimal().value
            assert via_graph == pytest.approx(direct, abs=1e-6)


class TestEccToHyperMc:
    def test_edge_gains_terminal(self):
        h = hypergraph(2, 2, [((0, 1), 2)])
        th = ecc_to_hyper_mc(h)
        assert th.num_nodes == 4
        assert (th.members.tolist(), th.eptr.tolist()) == ([0, 1, 3], [0, 3])
        assert th.terminals.tolist() == [2, 3]

    def test_gap3_sizes(self):
        th = ecc_to_hyper_mc(gen_integrality_gap(3))
        assert np.diff(th.eptr).tolist() == [3, 3, 3]

    def test_edge_count_unchanged(self):
        h = gen_random(8, 14, 3, 3, 0.4, seed=1).hypergraph
        assert len(ecc_to_hyper_mc(h).weights) == h.num_edges

    def test_holds_read_only_arrays(self):
        th = ecc_to_hyper_mc(gen_integrality_gap(3))
        for a in (th.members, th.eptr, th.weights, th.terminals):
            assert isinstance(a, np.ndarray) and not a.flags.writeable


class TestTerminalColorRange:
    # Each color here was once taken as another color's terminal, or a node
    # that is no terminal, or failed with a bare IndexError or a misleading
    # message about a graph edge.
    @pytest.mark.parametrize("color", [0, 3, -1])
    @pytest.mark.parametrize("reduce", [ecc_to_hyper_mc, ecc_to_node_mc])
    def test_color_outside_the_range_names_the_edge(self, reduce, color):
        h = hypergraph(3, 2, [((0, 1), 1), ((1, 2), color)])
        with pytest.raises(ValueError, match=rf"^edge 1 color {color} out of range \[1, 2\]$"):
            reduce(h)

    def test_first_bad_edge_is_named(self):
        h = hypergraph(3, 2, [((0, 1), 0), ((1, 2), 2)])
        for reduce in (ecc_to_hyper_mc, ecc_to_node_mc):
            with pytest.raises(ValueError, match=r"^edge 0 color 0 out of range \[1, 2\]$"):
                reduce(h)


class TestTerminalMemberRange:
    # A member outside [0, n) once met the nodes the reductions add: member 2
    # of a two-node instance was written as color 1's terminal, twice, a
    # member -1 was written as -1, and the node multiway cut reported a
    # self-loop at node 2.
    def test_member_past_the_nodes_is_not_written_as_a_terminal(self):
        h = hypergraph(2, 2, [((0, 2), 1), ((1,), 2)])
        with pytest.raises(ValueError, match=r"^edge 0 member 2 out of range \[0, 2\)$"):
            write_hmc(ecc_to_hyper_mc(h))

    @pytest.mark.parametrize("reduce", [ecc_to_hyper_mc, ecc_to_node_mc])
    def test_negative_member_names_the_edge(self, reduce):
        h = hypergraph(2, 2, [((1,), 2), ((-1, 0), 1)])
        with pytest.raises(ValueError, match=r"^edge 1 member -1 out of range \[0, 2\)$"):
            reduce(h)

    def test_node_mc_names_the_member_not_a_self_loop(self):
        h = hypergraph(2, 2, [((0, 2), 1), ((1,), 2)])
        with pytest.raises(ValueError, match=r"^edge 0 member 2 out of range \[0, 2\)$"):
            ecc_to_node_mc(h)

    @pytest.mark.parametrize("edges", [
        [((0, 1), 0), ((1, 5), 2)],  # a bad color before a bad member
        [((0, 1), 1), ((1, 5), 0)],  # a bad member and a bad color in one edge
        [((0, 7), 1), ((1, 2), 3)],
    ])
    def test_first_problem_is_the_one_validate_reports_first(self, edges):
        h = hypergraph(3, 2, edges)
        for reduce in (ecc_to_hyper_mc, ecc_to_node_mc):
            with pytest.raises(ValueError) as err:
                reduce(h)
            assert str(err.value) == validate(h)[0]


class TestGraphSerialization:
    def test_round_trip(self):
        g = ecc_to_node_mc(gen_star())
        again = parse_graph(write_graph(g))
        assert graph_layout(again) == graph_layout(g)

    def test_header(self):
        text = write_graph(triangle())
        assert text.splitlines()[0] == "vc 3 3"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_graph("nonsense 1 2\n")

    @pytest.mark.parametrize("text, detail", [
        # Each of these once raised a bare IndexError or was accepted.
        ("vc 3 1\ne 0\n", "line 2: 'e' record needs two fields"),
        ("vc 3 0\nw 5 1\n", "line 2: node 5 out of range"),
        ("vc 3 1\nw 0 1\ne 0 1 2\n", "line 3: 'e' record needs two fields"),
        ("vc -1 0\n", "line 1: negative count"),
        ("# comment\nvc 2 5\n", "line 2: header declares 5 edges, found 0"),
        ("vc 2 1\ne 0 x\n", "line 2: invalid literal"),
        ("vc 2 0\nvc 2 0\n", "line 2: unknown record 'vc'"),
        ("w 0 1\n", "line 1: expected 'vc <n> <m>' header"),
        ("", "missing 'vc' header"),
    ])
    def test_parse_names_the_line_of_a_malformed_record(self, text, detail):
        with pytest.raises(ParseError, match=detail) as err:
            parse_graph(text)
        assert err.value.line == (int(detail.split()[1][:-1]) if detail.startswith("line") else None)
