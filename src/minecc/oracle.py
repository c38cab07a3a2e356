"""Exact optimization by branch and bound, the ground truth for every
approximation claim at desk scale.

Both solvers refuse instances whose raw search space exceeds the cap rather
than return a partial answer; pruning only ever shrinks the explored count, so
a returned value is always exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorial import majority_vote
from .hypergraph import EdgeColoredHypergraph, objective_cost
from .reductions import WeightedGraph

DEFAULT_CAP = 10**7


class CapExceededError(RuntimeError):
    """Search space larger than the configured cap; no partial answer is given."""


@dataclass(frozen=True)
class OracleResult:
    value: float
    witness: tuple[int, ...]
    explored: int
    within_cap: bool = True


def bruteforce_ecc(h: EdgeColoredHypergraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact minimum mistake weight over all colorings.

    Only nodes of positive degree are enumerated (isolated nodes are fixed to
    color 1); requires ``k ** active_nodes <= cap``.
    """
    n, k = h.num_nodes, h.num_colors
    degrees = h.degrees()
    active = [v for v in range(n) if degrees[v] > 0]
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
    broken = bytearray(h.num_edges)

    start = majority_vote(h)
    best_cost = objective_cost(h, start).total_cost
    best_assignment = [start[v] for v in active]
    assignment = [0] * len(active)
    explored = 0

    def dfs(i: int, cost: float) -> None:
        nonlocal best_cost, best_assignment, explored
        if cost >= best_cost:
            return
        if i == len(active):
            best_cost = cost
            best_assignment = assignment[:i]
            return
        for c in range(1, k + 1):
            explored += 1
            newly: list[int] = []
            added = 0.0
            for j in incident[i]:
                if not broken[j] and colors[j] != c:
                    broken[j] = 1
                    newly.append(j)
                    added += weights[j]
            assignment[i] = c
            dfs(i + 1, cost + added)
            for j in newly:
                broken[j] = 0

    dfs(0, 0.0)
    witness = [1] * n
    for i, v in enumerate(active):
        witness[v] = best_assignment[i]
    return OracleResult(best_cost, tuple(witness), explored)


def bruteforce_vc(g: WeightedGraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exact minimum-weight vertex cover by branching on an uncovered edge.

    Degree-0 nodes are pruned first; requires ``2 ** remaining_nodes <= cap``.
    The witness is a 0/1 membership tuple over all graph nodes.
    """
    degrees = g.degrees()
    active = sum(1 for d in degrees if d > 0)
    if 2**active > cap:
        raise CapExceededError(f"2^{active} covers exceed the cap of {cap}")
    if g.undeletable & {u for edge in g.edges for u in edge}:
        raise ValueError("vertex cover oracle does not handle undeletable nodes")

    edges = list(g.edges)
    in_cover = bytearray(g.num_nodes)
    best_cost = float("inf")
    best_cover: set[int] = set()
    explored = 0

    # Greedy warm start: cover every edge by its cheaper endpoint.
    for u, v in edges:
        if not in_cover[u] and not in_cover[v]:
            in_cover[u if g.weights[u] <= g.weights[v] else v] = 1
    best_cover = {u for u in range(g.num_nodes) if in_cover[u]}
    best_cost = sum(g.weights[u] for u in best_cover)
    in_cover = bytearray(g.num_nodes)

    def first_uncovered(start: int) -> int:
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            if not in_cover[u] and not in_cover[v]:
                return idx
        return -1

    def dfs(edge_idx: int, cost: float, chosen: set[int]) -> None:
        nonlocal best_cost, best_cover, explored
        if cost >= best_cost:
            return
        idx = first_uncovered(edge_idx)
        if idx < 0:
            best_cost = cost
            best_cover = set(chosen)
            return
        u, v = edges[idx]
        for node in (u, v):
            explored += 1
            in_cover[node] = 1
            chosen.add(node)
            dfs(idx, cost + g.weights[node], chosen)
            chosen.discard(node)
            in_cover[node] = 0

    dfs(0, 0.0, set())
    witness = tuple(1 if u in best_cover else 0 for u in range(g.num_nodes))
    return OracleResult(best_cost, witness, explored)
