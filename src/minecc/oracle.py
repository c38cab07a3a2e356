"""Exact optimization by branch and bound, the ground truth for every
approximation claim at desk scale.

Both solvers refuse instances whose raw search space exceeds the cap rather
than return a partial answer; pruning only ever shrinks the explored count, so
a returned value is always exact.

:func:`bruteforce_ecc` prunes a partial coloring when its cost plus a lower
bound on the rest reaches the best cost found. The bound gives every edge to
its first member in enumeration order: until that node is colored, no member
of the edge is, so the edges given to the uncolored nodes are disjoint and
still whole, and each such node breaks at least the edges given to it that do
not have its cheapest color. Every completion that the plain search would
take as an improvement is still reached, in the same order, so ``value`` and
``witness`` are those of the plain search; only ``explored`` falls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .combinatorial import majority_vote
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
    """Search space larger than the configured cap; no partial answer is given."""


@dataclass(frozen=True)
class OracleResult:
    value: float
    witness: tuple[int, ...]
    explored: int


def bruteforce_ecc(h: EdgeColoredHypergraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact minimum mistake weight over all colorings.

    Only nodes of positive degree are enumerated (isolated nodes are fixed to
    color 1); requires ``k ** active_nodes <= cap``.
    """
    n, k = h.num_nodes, h.num_colors
    active = [v for v, d in enumerate(h.degrees()) if d > 0]
    if k > 1 and k ** len(active) > cap:
        raise CapExceededError(
            f"{k}^{len(active)} colorings exceed the cap of {cap}"
        )
    if k < 1:
        raise ValueError("instance has no colors")

    # Position of each active node in enumeration order, edges indexed by it.
    pos = {v: i for i, v in enumerate(active)}
    incident: list[list[int]] = [[] for _ in active]
    for v, j in zip(h.members.tolist(), h.member_edges().tolist()):
        incident[pos[v]].append(j)

    colors, weights = h.colors.tolist(), h.weights.tolist()
    # breaks[i][c - 1]: the (edge, weight) pairs at position i that color c
    # breaks, in incidence order.
    breaks = [[[(j, weights[j]) for j in edges if colors[j] != c] for c in range(1, k + 1)]
              for edges in incident]
    broken = bytearray(h.num_edges)
    suffix = _suffix_bounds(incident, colors, weights)
    # Sums of whole weights below 2**53 are exact, so a tie is pruned as well.
    whole = bool(np.all(h.weights == np.floor(h.weights))) and h.total_weight() < 2.0**53
    shrink = 1.0 if whole else PRUNE_SHRINK

    start = majority_vote(h)
    best_cost = objective_cost(h, start).total_cost
    best_assignment = [start[v] for v in active]
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


def _suffix_bounds(incident: list[list[int]], colors: list[int], weights: list[float]) -> list[float]:
    """``suffix[i]``: a lower bound on what positions ``i`` onward add to the cost.

    Edge ``j`` is given to the first position whose ``incident`` list holds
    it. A position's bound is the least weight it breaks among its edges,
    over its colors; each candidate is summed from positive terms, so that no
    cancellation can push a bound above the weight it stands for.
    """
    given: list[dict[int, list[float]]] = [{} for _ in incident]
    seen = set()
    for i, edges in enumerate(incident):
        for j in edges:
            if j not in seen:
                seen.add(j)
                given[i].setdefault(colors[j], []).append(weights[j])
    suffix = [0.0] * (len(incident) + 1)
    for i in range(len(incident) - 1, -1, -1):
        by_color = given[i]
        least = min((sum(w for d, ws in by_color.items() if d != c for w in ws)
                     for c in by_color), default=0.0)
        suffix[i] = suffix[i + 1] + least
    return suffix


def bruteforce_vc(g: WeightedGraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact minimum-weight vertex cover by branching on an uncovered edge.

    Degree-0 nodes are pruned first; requires ``2 ** remaining_nodes <= cap``.
    The witness is a 0/1 membership tuple over all graph nodes.
    """
    active = int(np.count_nonzero(g.degrees()))
    if 2**active > cap:
        raise CapExceededError(f"2^{active} covers exceed the cap of {cap}")
    if g.undeletable[g.edges].any():
        raise ValueError("vertex cover oracle does not handle undeletable nodes")

    edges, weights = g.edges.tolist(), g.weights.tolist()
    # Greedy warm start: cover every edge by its cheaper endpoint.
    in_cover = bytearray(g.num_nodes)
    for u, v in edges:
        if not in_cover[u] and not in_cover[v]:
            in_cover[u if weights[u] <= weights[v] else v] = 1
    best_cover = bytes(in_cover)
    best_cost = sum(w for w, chosen in zip(weights, best_cover) if chosen)
    in_cover = bytearray(g.num_nodes)
    explored = 0

    def first_uncovered(start: int) -> int:
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            if not in_cover[u] and not in_cover[v]:
                return idx
        return -1

    def dfs(edge_idx: int, cost: float) -> None:
        nonlocal best_cost, best_cover, explored
        if cost >= best_cost:
            return
        idx = first_uncovered(edge_idx)
        if idx < 0:
            best_cost, best_cover = cost, bytes(in_cover)
            return
        for node in edges[idx]:
            explored += 1
            in_cover[node] = 1
            dfs(idx, cost + weights[node])
            in_cover[node] = 0

    dfs(0, 0.0)
    return OracleResult(best_cost, tuple(best_cover), explored)
