"""Exact optimization by branch and bound, the ground truth for every
approximation claim at desk scale.

Both solvers refuse rather than return a partial answer: before searching,
when the recursion, a level per active node, would take over half the
interpreter's limit, and as soon as the states explored (``explored``) pass
the cap. A returned value is always exact.

:func:`bruteforce_ecc` prunes a partial coloring when its cost plus a lower
bound on the rest reaches the best cost found. The bound gives every edge to
its earliest member in enumeration order: until that node is colored, no
member of the edge is, so the edges given to the uncolored nodes are disjoint
and still whole, and each such node breaks at least the weight given to it
outside its heaviest color (the majority vote's (node, color) weight table,
of earliest members only). Every completion that the plain search would
take as an improvement is still reached, in the same order, so ``value`` and
``witness`` are those of the plain search; only ``explored`` falls.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .combinatorial import _color_weights, majority_vote
from .hypergraph import EdgeColoredHypergraph, objective_cost

if TYPE_CHECKING:
    from .reductions import WeightedGraph

DEFAULT_CAP = 10**7
# The pruning test scales cost + bound down by this factor. Float sums of a
# completion's weights may round below the exact bound, by a relative
# error of about (number of terms) * 2**-53; the margin covers that for
# instances of up to millions of edges, so no strict improvement is pruned.
PRUNE_SHRINK = 1.0 - 1e-9


class CapExceededError(RuntimeError):
    """More states explored than the cap, or a search too deep; no partial answer."""


def _refuse_deep(active: int) -> None:
    """Refuse a search whose recursion (a level per active node) would take over
    half the interpreter's limit: the rest is the caller's."""
    if active > (depth := sys.getrecursionlimit() // 2 - 2):
        raise CapExceededError(f"{active} active nodes exceed the search depth of {depth}")


def _prune_factor(weights: np.ndarray) -> float:
    """1.0 if sums of ``weights`` are exact (whole, below 2**53), so ties prune too."""
    return 1.0 if np.all(weights == np.floor(weights)) and weights.sum() < 2.0**53 else PRUNE_SHRINK


@dataclass(frozen=True)
class OracleResult:
    value: float
    witness: tuple[int, ...]
    explored: int


def bruteforce_ecc(h: EdgeColoredHypergraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact minimum mistake weight over all colorings.

    Only nodes of positive degree are enumerated (isolated nodes are fixed to
    color 1); raises :class:`CapExceededError` past ``cap`` explored states.
    """
    n, k = h.num_nodes, h.num_colors
    degrees = np.bincount(h.members, minlength=n)
    active = np.flatnonzero(degrees)
    _refuse_deep(len(active) if k > 1 else 0)  # at k = 1 the search stops at the root
    if k < 1:
        raise ValueError("instance has no colors")

    colors, weights = h.colors.tolist(), h.weights.tolist()
    # breaks[i][c - 1]: the (edge, weight) pairs at position i that color c
    # breaks, in incidence order: by_node[a:b] lists the node's edges.
    by_node = h.member_edges()[np.argsort(h.members, kind="stable")].tolist()
    ends = np.cumsum(degrees[active]).tolist()
    breaks = [[[(j, weights[j]) for j in edges if colors[j] != c] for c in range(1, k + 1)]
              for edges in (by_node[a:b] for a, b in zip([0, *ends], ends))]
    broken = bytearray(h.num_edges)
    # suffix[i]: a lower bound on what positions i onward add to the cost.
    # Each node's share is the weight given to it outside its heaviest color,
    # summed from positive terms only, so that no cancellation can push it
    # above the weight it stands for.
    nonempty = np.flatnonzero(np.diff(h.eptr))
    given = _color_weights(h, h.members[h.eptr[nonempty]], nonempty)[active]
    given[np.arange(len(active)), given.argmax(axis=1)] = 0.0
    suffix = np.cumsum(given.sum(axis=1)[::-1])[::-1].tolist() + [0.0]
    shrink = _prune_factor(h.weights)

    start = majority_vote(h)
    best_cost = objective_cost(h, start).total_cost
    best_assignment = [start[v] for v in active.tolist()]
    assignment = [0] * len(active)
    explored = 0

    def dfs(i: int, cost: float) -> None:
        nonlocal best_cost, best_assignment, explored
        if cost >= best_cost or (cost + suffix[i]) * shrink >= best_cost:
            return
        if i == len(active):
            best_cost = cost
            best_assignment = assignment[:i]
            return
        for c, pairs in enumerate(breaks[i], start=1):
            explored += 1
            if explored > cap:
                raise CapExceededError(f"search explored more than the cap of {cap} states")
            newly: list[int] = []
            added = 0.0
            for j, w in pairs:
                if not broken[j]:
                    broken[j] = 1
                    newly.append(j)
                    added += w
            assignment[i] = c
            dfs(i + 1, cost + added)
            for j in newly:
                broken[j] = 0

    dfs(0, 0.0)
    witness = np.ones(n, dtype=np.int64)
    witness[active] = best_assignment
    return OracleResult(best_cost, tuple(witness.tolist()), explored)


def bruteforce_vc(g: WeightedGraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact minimum-weight vertex cover by branching on an uncovered edge.

    Requires a nonnegative weight at every edge's ends; raises
    :class:`CapExceededError` past ``cap`` explored states. A branch is pruned
    when its cost plus a matching bound on the edges still uncovered reaches
    the best cost found, so ``value`` and ``witness`` are those of the plain
    search. The witness is a 0/1 membership tuple over all graph nodes.
    """
    _refuse_deep(int(np.count_nonzero(g.degrees())))
    if g.undeletable[g.edges].any():
        raise ValueError("vertex cover oracle does not handle undeletable nodes")
    ends = np.unique(g.edges)
    bad = ends[~(g.weights[ends] >= 0.0)]
    if len(bad):
        raise ValueError(f"node {bad[0]} weight {g.weights[bad[0]]} is not a nonnegative number")

    edges, weights = g.edges.tolist(), g.weights.tolist()
    # Greedy warm start: cover every edge by its cheaper endpoint.
    in_cover = bytearray(g.num_nodes)
    for u, v in edges:
        if not in_cover[u] and not in_cover[v]:
            in_cover[u if weights[u] <= weights[v] else v] = 1
    best_cover = bytes(in_cover)
    best_cost = sum(w for w, chosen in zip(weights, best_cover) if chosen)
    shrink = _prune_factor(g.weights[ends])
    in_cover = bytearray(g.num_nodes)
    explored = 0

    def first_uncovered(start: int) -> tuple[int, float]:
        """The first uncovered edge from ``start`` on (-1 if none), and the weight
        of the cheaper ends of a greedy matching of the uncovered edges from
        there. The matched edges share no node, so a cover pays that at least."""
        first, bound, matched = -1, 0.0, set()
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            if not (in_cover[u] or in_cover[v] or u in matched or v in matched):
                first = idx if first < 0 else first
                matched.update((u, v))
                bound += min(weights[u], weights[v])
        return first, bound

    def dfs(edge_idx: int, cost: float) -> None:
        nonlocal best_cost, best_cover, explored
        idx, bound = first_uncovered(edge_idx)
        if cost >= best_cost or (cost + bound) * shrink >= best_cost:
            return
        if idx < 0:
            best_cost, best_cover = cost, bytes(in_cover)
            return
        for node in edges[idx]:
            explored += 1
            if explored > cap:
                raise CapExceededError(f"search explored more than the cap of {cap} states")
            in_cover[node] = 1
            dfs(idx, cost + weights[node])
            in_cover[node] = 0

    dfs(0, 0.0)
    return OracleResult(best_cost, tuple(best_cover), explored)
