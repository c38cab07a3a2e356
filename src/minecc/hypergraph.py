"""Edge-colored hypergraph data model, objective evaluation, and incidence structure.

Conventions used throughout the package:
- node indices are 0-based,
- colors are 1-based integers in ``[1..k]``,
- edge weights are nonnegative floats (default 1).

A *node coloring* is a plain sequence of length ``num_nodes`` with values in
``[1..k]``. An edge is *satisfied* by a coloring when every member node has the
edge's color; otherwise the coloring makes a *mistake* at that edge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NodeColoring = Sequence[int]


@dataclass(frozen=True)
class Edge:
    """One colored hyperedge: sorted deduplicated members, a color, a weight."""

    members: tuple[int, ...]
    color: int
    weight: float = 1.0

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class EdgeColoredHypergraph:
    """Immutable problem instance: ``num_nodes`` nodes, colored weighted hyperedges.

    Instances are safe to share across concurrent workers. Use :func:`hypergraph`
    to build one from raw edge tuples (it normalizes members); the raw constructor
    performs no range checks so that :func:`validate` can report violations.
    """

    num_nodes: int
    num_colors: int
    edges: tuple[Edge, ...]

    @property
    def rank(self) -> int:
        """Maximum edge size (0 for an edgeless instance)."""
        return max((len(e) for e in self.edges), default=0)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return sum(e.weight for e in self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.num_nodes
        for e in self.edges:
            for v in e.members:
                deg[v] += 1
        return deg


def hypergraph(
    num_nodes: int,
    num_colors: int,
    edges: Iterable[tuple | Edge],
) -> EdgeColoredHypergraph:
    """Build an instance from ``(members, color)`` or ``(members, color, weight)`` tuples.

    Members are deduplicated and sorted. Edges that are empty after deduplication
    are rejected. Range checks (member indices, colors, weights) are deferred to
    :func:`validate` so invalid instances can be constructed and reported on.
    """
    built: list[Edge] = []
    for spec in edges:
        if isinstance(spec, Edge):
            members, color, weight = spec.members, spec.color, spec.weight
        elif len(spec) == 2:
            (members, color), weight = spec, 1.0
        else:
            members, color, weight = spec
        uniq = tuple(sorted(set(members)))
        if not uniq:
            raise ValueError("hyperedge has no members after deduplication")
        built.append(Edge(uniq, int(color), float(weight)))
    return EdgeColoredHypergraph(num_nodes, num_colors, tuple(built))


def validate(h: EdgeColoredHypergraph) -> list[str]:
    """Return a list of invariant violations (empty iff the instance is valid).

    Reports, never raises: out-of-range members, empty edges, duplicate members,
    out-of-range colors, negative or non-finite weights.
    """
    problems: list[str] = []
    if h.num_nodes < 0:
        problems.append(f"num_nodes is negative: {h.num_nodes}")
    if h.num_colors < 0:
        problems.append(f"num_colors is negative: {h.num_colors}")
    for j, e in enumerate(h.edges):
        if not e.members:
            problems.append(f"edge {j} is empty")
        if len(set(e.members)) != len(e.members):
            problems.append(f"edge {j} has duplicate members")
        for v in e.members:
            if not (0 <= v < h.num_nodes):
                problems.append(f"edge {j} member {v} out of range [0, {h.num_nodes})")
        if not (1 <= e.color <= h.num_colors):
            problems.append(f"edge {j} color {e.color} out of range [1, {h.num_colors}]")
        if not (0.0 <= e.weight < math.inf):
            problems.append(f"edge {j} weight {e.weight} is not a nonnegative finite number")
    return problems


@dataclass(frozen=True)
class CostReport:
    """Objective evaluation of one coloring.

    ``total_cost`` is the weight of mistake edges; ``edge_satisfaction`` is the
    unweighted fraction of edges that are not mistakes; ``accuracy`` is the
    node-level agreement with a ground-truth coloring when one is supplied.
    """

    total_cost: float
    mistake_edges: tuple[int, ...]
    edge_satisfaction: float
    accuracy: float | None = None


def objective_cost(
    h: EdgeColoredHypergraph,
    coloring: NodeColoring,
    truth: NodeColoring | None = None,
) -> CostReport:
    """Evaluate the minimum-mistake objective of ``coloring`` on ``h``."""
    if len(coloring) != h.num_nodes:
        raise ValueError(
            f"coloring has length {len(coloring)}, instance has {h.num_nodes} nodes"
        )
    mistakes: list[int] = []
    cost = 0.0
    for j, e in enumerate(h.edges):
        c = e.color
        if any(coloring[v] != c for v in e.members):
            mistakes.append(j)
            cost += e.weight
    m = len(h.edges)
    satisfaction = 1.0 if m == 0 else 1.0 - len(mistakes) / m
    acc = accuracy(coloring, truth) if truth is not None else None
    return CostReport(cost, tuple(mistakes), satisfaction, acc)


def accuracy(coloring: NodeColoring, truth: NodeColoring) -> float:
    """Fraction of nodes whose color agrees with the ground truth."""
    if len(coloring) != len(truth):
        raise ValueError("coloring and truth have different lengths")
    if not truth:
        return 1.0
    agree = sum(1 for a, b in zip(coloring, truth) if a == b)
    return agree / len(truth)


@dataclass(frozen=True)
class ColorSortedIncidence:
    """Per-node incident edge lists, each ordered by edge color (ties by index).

    Stored in compressed form: ``edge_ids[indptr[v]:indptr[v+1]]`` is node
    ``v``'s list. The compact layout keeps the cursor walks of the
    deletion-based algorithms cache-friendly on large instances.
    """

    indptr: "np.ndarray"
    edge_ids: "np.ndarray"

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return tuple(self.neighbor_list(v))

    def neighbor_list(self, v: int) -> list[int]:
        return self.edge_ids[self.indptr[v]:self.indptr[v + 1]].tolist()

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColorSortedIncidence):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.edge_ids, other.edge_ids
        )


def build_incidence(h: EdgeColoredHypergraph) -> ColorSortedIncidence:
    """Build the color-sorted incidence structure in O(sum of edge sizes).

    Counting sort on the composite (node, color) key; the stable integer sort
    keeps edge indices ascending within a color.
    """
    n, k, m = h.num_nodes, h.num_colors, len(h.edges)
    sizes = np.fromiter((len(e.members) for e in h.edges), dtype=np.int64, count=m)
    total = int(sizes.sum()) if m else 0
    flat_v = np.fromiter(
        itertools.chain.from_iterable(e.members for e in h.edges),
        dtype=np.int64,
        count=total,
    )
    flat_j = np.repeat(np.arange(m, dtype=np.int64), sizes)
    colors = np.fromiter((e.color for e in h.edges), dtype=np.int64, count=m)
    key = flat_v * np.int64(k + 1) + colors[flat_j]
    order = np.argsort(key, kind="stable")  # radix sort on integer keys
    edge_ids = flat_j[order].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if total:
        np.cumsum(np.bincount(flat_v, minlength=n), out=indptr[1:])
    return ColorSortedIncidence(indptr, edge_ids)
