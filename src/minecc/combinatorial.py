"""Linear-time combinatorial algorithms and their instance-specific lower bounds.

All algorithms run in O(sum of edge sizes). The deletion-based ones share one
walk over each node's color-sorted incidence list with a front and a back
cursor: while the cursor edges have different colors they form a conflicting
pair (overlapping, differently colored) that must be resolved by deleting an
edge. The walk takes one of two pair policies:

- *sample* (:func:`pitt_coloring`): delete one edge, chosen in proportion to
  the opposite edge's weight, which gives an expected 2-approximation;
- *match* (:func:`match_coloring`): delete both edges, which gives a
  deterministic 2-approximation for unit weights plus an explicit lower bound
  (the pairs are edge-disjoint, and any solution pays at least
  ``min(w_e, w_f)`` per pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import (
    ColorSortedIncidence,
    EdgeColoredHypergraph,
    build_incidence,
    objective_cost,
)


@dataclass(frozen=True)
class DeletionSet:
    """Edges removed so that no conflicting pair survives."""

    indices: frozenset[int]
    total_weight: float

    def __contains__(self, j: int) -> bool:
        return j in self.indices

    @classmethod
    def from_flags(cls, h: EdgeColoredHypergraph, flags) -> "DeletionSet":
        chosen = frozenset(j for j in range(len(h.edges)) if flags[j])
        return cls(chosen, sum(h.edges[j].weight for j in chosen))


@dataclass(frozen=True)
class LowerBoundBundle:
    """Instance-specific lower bounds on the optimal cost (any may be absent)."""

    lp_bound: float | None = None
    matching_bound: float | None = None
    mv_bound: float | None = None

    def best(self) -> float | None:
        present = [b for b in (self.lp_bound, self.matching_bound, self.mv_bound) if b is not None]
        return max(present) if present else None


def find_bad_pair(
    h: EdgeColoredHypergraph, deleted=(), incidence: ColorSortedIncidence | None = None
) -> tuple[int, int] | None:
    """Linear scan for a surviving pair of overlapping, differently colored edges."""
    inc = incidence if incidence is not None else build_incidence(h)
    for v in range(h.num_nodes):
        first = -1
        for j in inc.neighbor_list(v):
            if j in deleted:
                continue
            if first < 0:
                first = j
            elif h.edges[j].color != h.edges[first].color:
                return (first, j)
    return None


def _visit_order(n: int, order_seed: int | None) -> range | np.ndarray:
    if order_seed is None:
        return range(n)
    return np.random.default_rng(order_seed).permutation(n)


def majority_vote(h: EdgeColoredHypergraph) -> list[int]:
    """Color every node by its incident weight-majority edge color.

    Ties go to the lowest color; nodes in no edge get color 1.
    """
    n, k = h.num_nodes, h.num_colors
    if k < 1:
        return [1] * n
    counts = np.zeros((n, max(k, 1)))
    nodes: list[int] = []
    cols: list[int] = []
    wts: list[float] = []
    for e in h.edges:
        nodes.extend(e.members)
        cols.extend([e.color - 1] * len(e.members))
        wts.extend([e.weight] * len(e.members))
    if nodes:
        np.add.at(counts, (np.array(nodes), np.array(cols)), np.array(wts))
    return [int(c) for c in counts.argmax(axis=1) + 1]


def mv_lower_bound(h: EdgeColoredHypergraph, mv_coloring) -> float:
    """Lower bound on the optimum from the majority coloring's node mismatches.

    The majority coloring minimizes the per-node mismatch objective, which is at
    most ``rank`` times the edge-mistake objective; mismatches are weighted by
    their edge's weight so the bound stays valid on weighted instances (on unit
    weights this is the plain mismatch count divided by the rank).
    """
    r = h.rank
    if r == 0:
        return 0.0
    total = 0.0
    for e in h.edges:
        bad = sum(1 for v in e.members if mv_coloring[v] != e.color)
        total += e.weight * bad
    return total / r


def _walk(
    h: EdgeColoredHypergraph,
    order_seed: int | None,
    incidence: ColorSortedIncidence | None,
    rand=None,
) -> tuple[bytearray, float]:
    """Resolve every conflicting cursor pair; returns deletion flags and matching bound.

    With ``rand`` (a uniform [0, 1) sampler) one edge of each pair is deleted,
    the back edge with probability proportional to the front edge's weight
    (both when both weights are zero); without it both edges are deleted and
    ``min(w_e, w_f)`` is added to the bound.
    """
    inc = incidence if incidence is not None else build_incidence(h)
    colors = [e.color for e in h.edges]
    weights = [e.weight for e in h.edges]
    deleted = bytearray(len(h.edges))
    bound = 0.0
    for v in _visit_order(h.num_nodes, order_seed):
        lst = inc.neighbor_list(v)
        f, b = 0, len(lst) - 1
        while f < b:
            ef, eb = lst[f], lst[b]
            if deleted[ef]:
                f += 1
                continue
            if deleted[eb]:
                b -= 1
                continue
            if colors[ef] == colors[eb]:
                break
            wf, wb = weights[ef], weights[eb]
            if rand is None or wf + wb <= 0.0:
                deleted[ef] = 1
                deleted[eb] = 1
                bound += min(wf, wb)
                f += 1
                b -= 1
            elif rand() < wf / (wf + wb):
                deleted[eb] = 1
                b -= 1
            else:
                deleted[ef] = 1
                f += 1
    return deleted, bound


def pitt_coloring(
    h: EdgeColoredHypergraph,
    seed: int,
    order_seed: int | None = None,
    incidence: ColorSortedIncidence | None = None,
) -> tuple[DeletionSet, list[int]]:
    """Randomized weighted 2-approximation via implicit vertex-cover sampling.

    Visits nodes (ascending by default, shuffled by ``order_seed``), resolves
    each conflicting cursor pair by deleting one edge with probability
    proportional to the *other* edge's weight, then colors nodes by their
    surviving edges. Deterministic given the seeds.
    """
    deleted, _ = _walk(h, order_seed, incidence, np.random.default_rng(seed).random)
    return DeletionSet.from_flags(h, deleted), _color_survivors(h, deleted)


def match_coloring(
    h: EdgeColoredHypergraph,
    order_seed: int | None = None,
    incidence: ColorSortedIncidence | None = None,
) -> tuple[DeletionSet, list[int], float]:
    """Deterministic deletion of a maximal edge-disjoint set of conflicting pairs.

    Returns the deletions, the induced coloring, and the matching lower bound
    (``sum of min(w_e, w_f)`` over matched pairs; the pair count on unit
    weights). For unit weights the cost is at most twice the bound; for
    non-uniform weights the bound is still valid but the factor-2 guarantee is
    not asserted.
    """
    deleted, bound = _walk(h, order_seed, incidence)
    return DeletionSet.from_flags(h, deleted), _color_survivors(h, deleted), bound


def _color_survivors(h: EdgeColoredHypergraph, deleted) -> list[int]:
    coloring = [1] * h.num_nodes
    for j, e in enumerate(h.edges):
        if not deleted[j]:
            for v in e.members:
                coloring[v] = e.color
    return coloring


def coloring_from_deletions(h: EdgeColoredHypergraph, dels: DeletionSet) -> list[int]:
    """Color nodes by their unique surviving edge color (color 1 when none).

    Raises if the deletion set leaves a conflicting pair, since then the
    surviving color at a node is not well defined.
    """
    pair = find_bad_pair(h, dels.indices)
    if pair is not None:
        raise ValueError(f"deletion set leaves conflicting edge pair {pair}")
    flags = bytearray(len(h.edges))
    for j in dels.indices:
        flags[j] = 1
    return _color_survivors(h, flags)


def hybrid(
    h: EdgeColoredHypergraph,
    order_seed: int | None = None,
    incidence: ColorSortedIncidence | None = None,
) -> list[int]:
    """Pair deletion followed by majority-vote recoloring of uncovered nodes.

    The composition of :func:`match_coloring` and :func:`recolor_uncovered`;
    the result is never worse than :func:`match_coloring`.
    """
    inc = incidence if incidence is not None else build_incidence(h)
    dels, base, _ = match_coloring(h, order_seed, inc)
    return recolor_uncovered(h, dels, base, majority_vote(h))


def recolor_uncovered(
    h: EdgeColoredHypergraph, dels: DeletionSet, base: list[int], mv: list[int]
) -> list[int]:
    """Give nodes in no surviving edge of ``dels`` their majority color ``mv``.

    ``base`` is the deletion coloring. Recoloring can in contrived overlaps
    cost more than it saves, so ``base`` is kept whenever it is strictly
    cheaper.
    """
    covered = bytearray(h.num_nodes)
    for j, e in enumerate(h.edges):
        if j not in dels.indices:
            for v in e.members:
                covered[v] = 1
    recolored = [base[v] if covered[v] else mv[v] for v in range(h.num_nodes)]
    if objective_cost(h, recolored).total_cost > objective_cost(h, base).total_cost:
        return base
    return recolored


def a_posteriori_ratio(cost: float, bounds: LowerBoundBundle) -> float:
    """Cost divided by the best available lower bound (1 when the cost is zero)."""
    if cost == 0.0:
        return 1.0
    best = bounds.best()
    if best is None:
        raise ValueError("no lower bound available")
    if best <= 0.0:
        return float("inf")
    return cost / best
