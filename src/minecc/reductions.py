"""Approximation-preserving constructions to vertex cover and multiway cut.

Deleting edges to destroy every conflicting pair is a vertex cover problem on
the conflict graph (one graph node per hyperedge, one graph edge per
overlapping differently-colored pair), and vertex cover embeds back via one
hypergraph node per graph edge and one uniquely-colored hyperedge per graph
node. The multiway-cut constructions attach one terminal per color.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorial import DeletionSet, find_bad_pair
from .hypergraph import EdgeColoredHypergraph, _num, hypergraph


@dataclass(frozen=True)
class WeightedGraph:
    """Node-weighted undirected graph, optionally with colored terminal nodes.

    ``undeletable`` marks nodes whose removal is forbidden (conceptually
    infinite weight, kept as a flag so no large constants leak into LPs).
    """

    num_nodes: int
    weights: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]
    terminals: tuple[tuple[int, int], ...] = ()  # (node, color)
    undeletable: frozenset[int] = frozenset()

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range")
        drawn = [t for t, _ in self.terminals]
        if len(set(drawn)) != len(drawn):
            raise ValueError("terminal nodes must be distinct")

    def degrees(self) -> list[int]:
        deg = [0] * self.num_nodes
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def _normalized_edges(edges) -> tuple[tuple[int, int], ...]:
    seen = set()
    for u, v in edges:
        seen.add((v, u) if v < u else (u, v))
    return tuple(sorted(seen))


@dataclass(frozen=True)
class CoverReduction:
    """Conflict graph of an instance; graph node ``i`` stands for hyperedge ``i``."""

    instance: EdgeColoredHypergraph
    graph: WeightedGraph


def bad_edge_pairs(h: EdgeColoredHypergraph) -> tuple[tuple[int, int], ...]:
    """All overlapping differently-colored edge pairs, via the pairwise node scan."""
    incident: list[list[int]] = [[] for _ in range(h.num_nodes)]
    for v, j in zip(h.members.tolist(), h.member_edges().tolist()):
        incident[v].append(j)
    colors = h.colors.tolist()
    pairs: set[tuple[int, int]] = set()
    for lst in incident:  # each list ascends, so every pair comes out as (lower, higher)
        for e, f in itertools.combinations(lst, 2):
            if colors[e] != colors[f]:
                pairs.add((e, f))
    return tuple(sorted(pairs))


def ecc_to_vertex_cover(h: EdgeColoredHypergraph) -> CoverReduction:
    """Conflict-graph construction; minimum-weight covers equal optimal deletions."""
    graph = WeightedGraph(
        num_nodes=h.num_edges,
        weights=tuple(h.weights.tolist()),
        edges=bad_edge_pairs(h),
    )
    return CoverReduction(h, graph)


def cover_to_deletions(reduction: CoverReduction, cover) -> DeletionSet:
    """Map a vertex cover of the conflict graph to the matching deletion set."""
    chosen = frozenset(int(u) for u in cover)
    for u, v in reduction.graph.edges:
        if u not in chosen and v not in chosen:
            raise ValueError(f"not a cover: edge ({u}, {v}) uncovered")
    flags = np.zeros(reduction.instance.num_edges, dtype=bool)
    flags[list(chosen)] = True
    return DeletionSet.from_flags(reduction.instance, flags)


def deletions_to_cover(reduction: CoverReduction, dels: DeletionSet) -> set[int]:
    """Map a conflict-free deletion set back to a vertex cover."""
    pair = find_bad_pair(reduction.instance, dels.indices)
    if pair is not None:
        raise ValueError(f"deletions leave conflicting pair {pair}")
    return set(dels.indices)


def vertex_cover_to_ecc(
    g: WeightedGraph,
) -> tuple[EdgeColoredHypergraph, list[int]]:
    """Embed vertex cover: one node per graph edge, one unique-color hyperedge per
    graph node (isolated graph nodes are dropped; a cover never needs them).

    Returns the instance and the list mapping hyperedge index to graph node.
    """
    edge_ids = {edge: i for i, edge in enumerate(_normalized_edges(g.edges))}
    incident: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for (u, v), i in edge_ids.items():
        incident[u].append(i)
        incident[v].append(i)
    hyperedges = []
    origin: list[int] = []
    for u in range(g.num_nodes):
        if incident[u]:
            color = len(hyperedges) + 1
            hyperedges.append((tuple(incident[u]), color, g.weights[u]))
            origin.append(u)
    h = hypergraph(len(edge_ids), len(hyperedges), hyperedges)
    return h, origin


def ecc_to_node_mc(h: EdgeColoredHypergraph) -> WeightedGraph:
    """Terminal-graph construction for node-weighted multiway cut.

    Original nodes (indices ``0..n-1``) and terminals are undeletable; each
    hyperedge becomes a deletable node (index ``n + j``) adjacent to its member
    nodes and to the terminal of its color (index ``n + m + color - 1``).
    """
    n, m, k = h.num_nodes, h.num_edges, h.num_colors
    weights = [math.inf] * n + h.weights.tolist() + [math.inf] * k
    members, bounds = h.members.tolist(), h.eptr.tolist()
    edges: list[tuple[int, int]] = []
    for j, (a, b, c) in enumerate(zip(bounds, bounds[1:], h.colors.tolist())):
        edges.extend((v, n + j) for v in members[a:b])
        edges.append((n + m + c - 1, n + j))
    terminals = tuple((n + m + c - 1, c) for c in range(1, k + 1))
    undeletable = frozenset(range(n)) | frozenset(range(n + m, n + m + k))
    return WeightedGraph(n + m + k, tuple(weights), tuple(edges), terminals, undeletable)


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
    undeletable nodes), ``e`` edge lines, ``t`` terminal lines."""
    lines = [f"vc {g.num_nodes} {len(g.edges)}"]
    for i in range(g.num_nodes):
        w = "inf" if i in g.undeletable or math.isinf(g.weights[i]) else _num(g.weights[i])
        lines.append(f"w {i} {w}")
    for u, v in g.edges:
        lines.append(f"e {u} {v}")
    for node, color in g.terminals:
        lines.append(f"t {node} {color}")
    return "\n".join(lines) + "\n"


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
    """Parse the :func:`write_graph` format."""
    num_nodes = 0
    weights: list[float] = []
    edges: list[tuple[int, int]] = []
    terminals: list[tuple[int, int]] = []
    undeletable: set[int] = set()
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not header_seen:
            if tokens[0] != "vc" or len(tokens) != 3:
                raise ValueError(f"line {lineno}: expected 'vc <n> <m>' header")
            num_nodes = int(tokens[1])
            weights = [1.0] * num_nodes
            header_seen = True
            continue
        kind = tokens[0]
        if kind == "w":
            i = int(tokens[1])
            if tokens[2] == "inf":
                weights[i] = math.inf
                undeletable.add(i)
            else:
                weights[i] = float(tokens[2])
        elif kind == "e":
            edges.append((int(tokens[1]), int(tokens[2])))
        elif kind == "t":
            terminals.append((int(tokens[1]), int(tokens[2])))
        else:
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
    if not header_seen:
        raise ValueError("missing 'vc' header")
    return WeightedGraph(
        num_nodes, tuple(weights), tuple(edges), tuple(terminals), frozenset(undeletable)
    )
