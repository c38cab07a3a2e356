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
from .hypergraph import EdgeColoredHypergraph, _num, _ordered_sum, build_incidence, from_flat
from .instances import write_int_lines


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

    One pass over the color-sorted incidence: each membership pairs with the
    later entries of its node's list that lie outside its own color group,
    and one sort of the keys ``e * m + f`` removes the pairs that two edges
    make at more than one shared node.
    """
    inc, m = build_incidence(h), h.num_edges
    ids = inc.edge_ids.astype(np.int64)
    node = np.repeat(np.arange(h.num_nodes), np.diff(inc.indptr))
    key = node * (h.num_colors + 1) + h.colors[ids]  # the incidence's sort key, ascending
    group_end = np.searchsorted(key, key, side="right")
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


def ecc_to_node_mc(h: EdgeColoredHypergraph) -> WeightedGraph:
    """Terminal-graph construction for node-weighted multiway cut.

    Original nodes (indices ``0..n-1``) and terminals are undeletable; each
    hyperedge becomes a deletable node (index ``n + j``) adjacent to its member
    nodes and to the terminal of its color (index ``n + m + color - 1``).
    """
    n, m, k = h.num_nodes, h.num_edges, h.num_colors
    # Edge j's members, then its color's terminal, each joined to node n + j.
    ends = np.insert(h.members, h.eptr[1:], n + m + h.colors - 1)
    edges = np.column_stack([ends, n + np.repeat(np.arange(m), np.diff(h.eptr) + 1)])
    weights = np.concatenate([np.full(n, math.inf), h.weights, np.full(k, math.inf)])
    terminals = np.column_stack([n + m + np.arange(k), np.arange(1, k + 1)])
    return WeightedGraph(n + m + k, weights, edges, terminals, np.repeat([True, False, True], [n, m, k]))


@dataclass(frozen=True)
class TerminalHypergraph:
    """Uncolored hypergraph with terminal nodes, for edge-deletion multiway cut."""

    num_nodes: int
    edges: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]
    terminals: tuple[int, ...]  # terminals[c - 1] is the terminal of color c


def ecc_to_hyper_mc(h: EdgeColoredHypergraph) -> TerminalHypergraph:
    """Append one terminal per color and add it to each edge of that color."""
    n, k = h.num_nodes, h.num_colors
    terminals = tuple(n + c - 1 for c in range(1, k + 1))
    members, bounds = h.members.tolist(), h.eptr.tolist()
    edges = tuple(
        tuple(sorted(members[a:b] + [terminals[c - 1]]))
        for a, b, c in zip(bounds, bounds[1:], h.colors.tolist())
    )
    return TerminalHypergraph(n + k, edges, tuple(h.weights.tolist()), terminals)


def write_graph(g: WeightedGraph) -> str:
    """Serialize: ``vc <n> <m>`` header, ``w`` node-weight lines (``inf`` for
    undeletable nodes), ``e`` edge lines, ``t`` terminal lines. Weights print
    as in the instance writer, which writes each record kind here too
    (:func:`~minecc.instances.write_int_lines`)."""
    w = g.weights
    whole = (w == np.floor(w)) & (np.abs(w) < 1e15) & ~g.undeletable
    other = np.flatnonzero(~whole)
    texts = ["inf" if fixed or math.isinf(x) else repr(x)
             for fixed, x in zip(g.undeletable[other].tolist(), w[other].tolist())]
    nodes = np.column_stack([np.arange(g.num_nodes), np.where(whole, w, 0).astype(np.int64)])
    return (f"vc {g.num_nodes} {len(g.edges)}\n" + write_int_lines(nodes, "w ", 2 * other + 1, texts)
            + write_int_lines(g.edges, "e ") + write_int_lines(g.terminals, "t "))


def write_hmc(th: TerminalHypergraph) -> str:
    """Serialize: ``hmc <n> <m> <k>`` header, ``e <weight> <members...>`` edge
    lines, ``t <node> <color>`` terminal lines; weights print as in :func:`write_graph`."""
    lines = [f"hmc {th.num_nodes} {len(th.edges)} {len(th.terminals)}"]
    for members, w in zip(th.edges, th.weights):
        lines.append(f"e {_num(w)} " + " ".join(str(v) for v in members))
    for c, t in enumerate(th.terminals, start=1):
        lines.append(f"t {t} {c}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> WeightedGraph:
    """Parse the :func:`write_graph` format; a malformed record raises
    ``ValueError`` naming its line."""
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
            raise ValueError(f"line {lineno}: {err}") from None
    if header is None:
        raise ValueError("missing 'vc' header")
    if len(edges) != header[2]:
        raise ValueError(f"line {header[0]}: header declares {header[2]} edges, found {len(edges)}")
    return WeightedGraph(header[1], weights, edges, terminals, undeletable)
