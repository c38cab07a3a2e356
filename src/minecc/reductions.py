"""Approximation-preserving constructions to vertex cover and multiway cut.

Deleting edges to destroy every conflicting pair is a vertex cover problem on
the conflict graph (one graph node per hyperedge, one graph edge per
overlapping differently-colored pair), and vertex cover embeds back via one
hypergraph node per graph edge and one uniquely-colored hyperedge per graph
node. The multiway-cut constructions attach one terminal per color.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorial import DeletionSet, find_bad_pair
from .hypergraph import EdgeColoredHypergraph, _ordered_sum, from_flat
from .instances import ParseError, _write_lines, write_int_lines


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Node-weighted undirected graph, optionally with colored terminal nodes.

    Held as read-only arrays: float ``weights`` and bool ``undeletable``, one
    per node, and int64 ``edges`` and ``(node, color)`` ``terminals`` rows,
    of shape ``(P, 2)`` and ``(T, 2)``. ``undeletable`` (no node when None)
    marks nodes whose removal is forbidden (conceptually infinite weight,
    kept as a flag so no large constants leak into LPs).
    """

    num_nodes: int
    weights: np.ndarray
    edges: np.ndarray
    terminals: np.ndarray = ()
    undeletable: np.ndarray | None = None

    def __post_init__(self):
        n = self.num_nodes
        arrays = {"weights": np.array(self.weights, dtype=np.float64),
                  "edges": np.array(self.edges, dtype=np.int64).reshape(-1, 2),
                  "terminals": np.array(self.terminals, dtype=np.int64).reshape(-1, 2),
                  "undeletable": np.array(np.zeros(max(n, 0)) if self.undeletable is None
                                          else self.undeletable, dtype=bool)}
        if n < 0 or arrays["weights"].shape != (n,) or arrays["undeletable"].shape != (n,):
            raise ValueError(f"a graph needs a node count of 0 or more ({n}) and as many "
                             "weights and undeletable flags")
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        u, v = self.edges.T
        bad = self.edges[(u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)].tolist()
        if bad:
            u, v = bad[0]
            raise ValueError(f"self-loop at node {u}" if u == v else f"edge ({u}, {v}) out of range")
        drawn = self.terminals[:, 0]
        if np.any((drawn < 0) | (drawn >= n)) or np.any(np.diff(np.sort(drawn)) == 0):
            raise ValueError("terminal nodes must be distinct nodes of the graph")

    def degrees(self) -> list[int]:
        return np.bincount(self.edges.ravel(), minlength=self.num_nodes).tolist()


@dataclass(frozen=True)
class CoverReduction:
    """Conflict graph of an instance; graph node ``i`` stands for hyperedge ``i``."""

    instance: EdgeColoredHypergraph
    graph: WeightedGraph


def _distinct(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by one in-place sort: numpy 2.4's hashing ``np.unique``
    took 0.92-1.06 s on a million random int64 keys, and this 0.012 s."""
    keys.sort()
    return keys[np.append(True, keys[1:] != keys[:-1])] if len(keys) else keys


def bad_edge_pairs(h: EdgeColoredHypergraph) -> np.ndarray:
    """All overlapping differently-colored edge pairs ``(e, f)``, ``e < f``, of
    a valid instance, in ascending order, as a ``(P, 2)`` int64 array.

    One pass over the color-sorted ``h.incidence``: each membership pairs with the
    later entries of its node's list that lie outside its own color group,
    and one sort of the keys ``e * m + f`` removes the pairs that two edges
    make at more than one shared node.
    """
    inc, m = h.incidence, h.num_edges
    ids = inc.edge_ids.astype(np.int64)
    node = np.repeat(np.arange(h.num_nodes), np.diff(inc.indptr))
    # The lists' (node, color) groups, read off the incidence as find_bad_pair does.
    ends = np.append(np.flatnonzero(np.diff(node) | np.diff(h.colors[ids])) + 1, len(ids))
    group_end = np.repeat(ends, np.diff(ends, prepend=0))
    count = inc.indptr[node + 1] - group_end
    # Output t pairs its membership with list position group_end + (t - the membership's first t).
    later = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - group_end, count)
    e, f = np.repeat(ids, count), ids[later]
    keys = _distinct(np.minimum(e, f) * m + np.maximum(e, f))
    return np.column_stack(np.divmod(keys, max(m, 1)))


def ecc_to_vertex_cover(h: EdgeColoredHypergraph) -> CoverReduction:
    """Conflict-graph construction; minimum-weight covers equal optimal deletions."""
    return CoverReduction(h, WeightedGraph(h.num_edges, h.weights, bad_edge_pairs(h)))


def cover_to_deletions(reduction: CoverReduction, cover) -> DeletionSet:
    """Map a vertex cover of the conflict graph to the matching deletion set."""
    h, edges = reduction.instance, reduction.graph.edges
    chosen = np.fromiter(cover, dtype=np.int64)
    outside = chosen[(chosen < 0) | (chosen >= h.num_edges)]
    if len(outside):
        raise ValueError(f"cover id {outside[0]} outside [0, {h.num_edges})")
    flags = np.zeros(h.num_edges, dtype=bool)
    flags[chosen] = True
    uncovered = np.flatnonzero(~(flags[edges[:, 0]] | flags[edges[:, 1]]))
    if len(uncovered):
        u, v = edges[uncovered[0]].tolist()
        raise ValueError(f"not a cover: edge ({u}, {v}) uncovered")
    return DeletionSet(flags, _ordered_sum(h.weights[flags]))


def deletions_to_cover(reduction: CoverReduction, dels: DeletionSet) -> set[int]:
    """Map a conflict-free deletion set back to a vertex cover."""
    pair = find_bad_pair(reduction.instance, dels.flags)
    if pair is not None:
        raise ValueError(f"deletions leave conflicting pair {pair}")
    return set(dels.indices.tolist())


def vertex_cover_to_ecc(g: WeightedGraph) -> tuple[EdgeColoredHypergraph, list[int]]:
    """Embed vertex cover: one node per graph edge, one unique-color hyperedge per
    graph node (isolated graph nodes are dropped; a cover never needs them).

    The graph's edges are deduplicated and numbered in ascending order.
    Returns the instance and the list mapping hyperedge index to graph node.
    """
    n = g.num_nodes
    lo, hi = np.sort(g.edges, axis=1).T
    keys = _distinct(lo * n + hi)
    ends = np.concatenate(np.divmod(keys, max(n, 1)))  # every edge's lower ends, then its upper
    members = np.tile(np.arange(len(keys)), 2)[np.argsort(ends, kind="stable")]
    sizes = np.bincount(ends, minlength=n)
    origin = np.flatnonzero(sizes)
    h = from_flat(len(keys), len(origin), members, sizes[origin],
                  np.arange(1, len(origin) + 1), g.weights[origin])
    return h, origin.tolist()


def _with_terminals(h: EdgeColoredHypergraph, first: int) -> np.ndarray:
    """Every edge's members, then its color's terminal ``first + color - 1``, back
    to back. The first edge with a member outside ``[0, n)`` (which would meet
    a terminal or an edge node) or a color outside ``[1, k]`` raises
    ``ValueError``, worded as :func:`~minecc.hypergraph.validate` words it."""
    n, k = h.num_nodes, h.num_colors
    bad = (h.colors < 1) | (h.colors > k)
    outside = (h.members < 0) | (h.members >= n)
    if outside.any():
        bad[h.member_edges()[outside]] = True
    if bad.any():
        j = int(bad.argmax())
        ids = h.members[h.eptr[j]:h.eptr[j + 1]]
        v = ids[(ids < 0) | (ids >= n)]
        raise ValueError(f"edge {j} member {v[0]} out of range [0, {n})" if len(v)
                         else f"edge {j} color {h.colors[j]} out of range [1, {k}]")
    return np.insert(h.members, h.eptr[1:], first + h.colors - 1)


def ecc_to_node_mc(h: EdgeColoredHypergraph) -> WeightedGraph:
    """Terminal-graph construction for node-weighted multiway cut.

    Original nodes (indices ``0..n-1``) and terminals are undeletable; each
    hyperedge becomes a deletable node (index ``n + j``) adjacent to its member
    nodes and to the terminal of its color (index ``n + m + color - 1``).
    """
    n, m, k = h.num_nodes, h.num_edges, h.num_colors
    # Edge j's members, then its color's terminal, each joined to node n + j.
    edges = np.column_stack([_with_terminals(h, n + m),
                             n + np.repeat(np.arange(m), np.diff(h.eptr) + 1)])
    weights = np.concatenate([np.full(n, math.inf), h.weights, np.full(k, math.inf)])
    terminals = np.column_stack([n + m + np.arange(k), np.arange(1, k + 1)])
    return WeightedGraph(n + m + k, weights, edges, terminals, np.repeat([True, False, True], [n, m, k]))


@dataclass(frozen=True, eq=False)
class TerminalHypergraph:
    """Uncolored hypergraph with terminal nodes, for edge-deletion multiway cut: read-only
    arrays in the instance layout, and ``terminals[c - 1]``, the terminal of color ``c``."""

    num_nodes: int
    members: np.ndarray
    eptr: np.ndarray
    weights: np.ndarray
    terminals: np.ndarray


def ecc_to_hyper_mc(h: EdgeColoredHypergraph) -> TerminalHypergraph:
    """Append one terminal per color and add it to each edge of that color."""
    n, m, k = h.num_nodes, h.num_edges, h.num_colors
    arrays = (_with_terminals(h, n), h.eptr + np.arange(m + 1), h.weights, n + np.arange(k))
    for a in arrays:
        a.flags.writeable = False
    return TerminalHypergraph(n + k, *arrays)


def write_graph(g: WeightedGraph) -> str:
    """Serialize: ``vc <n> <m>`` header, ``w`` node-weight lines (``inf`` for
    undeletable nodes), ``e`` edge lines, ``t`` terminal lines, through the
    digit columns of the instance writer (:func:`~minecc.instances._write_lines`)."""
    n = g.num_nodes
    w = np.where(g.undeletable | np.isinf(g.weights), math.inf, g.weights)
    return (f"vc {n} {len(g.edges)}\n" + _write_lines("w ", [np.arange(n)], w, np.arange(n + 1))
            + write_int_lines(g.edges, "e ") + write_int_lines(g.terminals, "t "))


def write_hmc(th: TerminalHypergraph) -> str:
    """Serialize: ``hmc <n> <m> <k>`` header, ``e <weight> <members...>`` edge
    lines, ``t <node> <color>`` terminal lines, as :func:`write_graph` does."""
    k = len(th.terminals)
    return (f"hmc {th.num_nodes} {len(th.weights)} {k}\n"
            + _write_lines("e ", [th.weights], th.members, th.eptr)
            + write_int_lines(np.column_stack([th.terminals, np.arange(1, k + 1)]), "t "))


def parse_graph(text: str) -> WeightedGraph:
    """Parse the :func:`write_graph` format; a malformed record raises
    :class:`~minecc.instances.ParseError` naming its line."""
    header, weights, undeletable, edges, terminals = None, [], [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        kind = tokens[0]
        try:
            if (kind == "vc") != (header is None) or kind not in ("vc", "w", "e", "t"):
                raise ValueError(f"unknown record {kind!r}" if header
                                 else "expected 'vc <n> <m>' header")
            if len(tokens) != 3:
                raise ValueError(f"'{kind}' record needs two fields, not {len(tokens) - 1}")
            first, second = int(tokens[1]), tokens[2]
            if kind == "vc":
                header = lineno, first, int(second)
                if min(header[1:]) < 0:
                    raise ValueError("negative count in the 'vc <n> <m>' header")
                weights, undeletable = [1.0] * first, [False] * first
            elif not 0 <= first < header[1]:
                raise ValueError(f"node {first} out of range [0, {header[1]})")
            elif kind == "w":
                weights[first], undeletable[first] = float(second), second == "inf"
            else:
                (edges if kind == "e" else terminals).append((first, int(second)))
        except ValueError as err:
            raise ParseError(str(err), lineno) from None
    if header is None:
        raise ParseError("missing 'vc' header")
    if len(edges) != header[2]:
        raise ParseError(f"header declares {header[2]} edges, found {len(edges)}", header[0])
    return WeightedGraph(header[1], weights, edges, terminals, undeletable)
