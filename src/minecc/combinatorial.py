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

import itertools
from dataclasses import dataclass

import numpy as np

from .hypergraph import (
    ColorSortedIncidence,
    EdgeColoredHypergraph,
    _ordered_sum,
    _per_edge_count,
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
        chosen = np.flatnonzero(np.asarray(flags))
        return cls(frozenset(chosen.tolist()), _ordered_sum(h.weights[chosen]))


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
    """A surviving pair of overlapping, differently colored edges, or None.

    The pair is the first surviving edge of the lowest node whose surviving
    edges have more than one color, with the first of that node's surviving
    edges (in incidence order) whose color differs from it. The node is found
    in one array pass: survivors of different colors meet next to each other
    somewhere in its list.
    """
    inc = incidence if incidence is not None else build_incidence(h)
    kept = np.flatnonzero(~_deletion_flags(h, deleted)[inc.edge_ids])
    node = np.repeat(np.arange(len(inc)), np.diff(inc.indptr))[kept]
    color = h.colors[inc.edge_ids[kept]]
    mixed = np.flatnonzero((node[1:] == node[:-1]) & (color[1:] != color[:-1]))
    if len(mixed) == 0:
        return None
    edges = inc.edge_ids[kept[node == node[mixed[0]]]].tolist()
    first = h.colors[edges[0]]
    return next((edges[0], j) for j in edges if h.colors[j] != first)


def _deletion_flags(h: EdgeColoredHypergraph, deleted) -> np.ndarray:
    """One flag per edge, set for the edge indices in ``deleted``; others are ignored."""
    gone = np.fromiter(deleted, dtype=np.int64)
    flags = np.zeros(h.num_edges, dtype=bool)
    flags[gone[(gone >= 0) & (gone < h.num_edges)]] = True
    return flags


def _visit_order(n: int, order_seed: int | None) -> range | memoryview:
    """The nodes in ascending order, or shuffled by ``order_seed``, as Python ints."""
    if order_seed is None:
        return range(n)
    return memoryview(np.random.default_rng(order_seed).permutation(n))


def majority_vote(h: EdgeColoredHypergraph) -> list[int]:
    """Color every node by its incident weight-majority edge color.

    Ties go to the lowest color; nodes in no edge get color 1.
    """
    n, k = h.num_nodes, h.num_colors
    if k < 1:
        return [1] * n
    edge_of = h.member_edges()
    key = h.members * k + (h.colors[edge_of] - 1)
    counts = np.bincount(key, weights=h.weights[edge_of], minlength=n * k)
    return (counts.reshape(n, k).argmax(axis=1) + 1).tolist()


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
    wrong = np.asarray(mv_coloring)[h.members] != h.colors[h.member_edges()]
    return _ordered_sum(h.weights * _per_edge_count(wrong, h.eptr)) / r


def _compact(values: np.ndarray) -> memoryview:
    """A memoryview of ``values`` in the smallest integer dtype that holds all of them."""
    if len(values) == 0:
        return memoryview(values)
    dtype = np.result_type(np.min_scalar_type(values.min()), np.min_scalar_type(values.max()))
    return memoryview(values.astype(dtype))


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
    ``min(w_e, w_f)`` is added to the bound. The cursors index memoryviews
    over the flat incidence, colors and weights, so no per-node list and no
    per-edge object is made.
    """
    inc = incidence if incidence is not None else build_incidence(h)
    ids, ptr = memoryview(inc.edge_ids), memoryview(inc.indptr)
    colors, weights = _compact(h.colors), memoryview(h.weights)
    deleted = bytearray(h.num_edges)
    bound = 0.0
    for v in _visit_order(h.num_nodes, order_seed):
        f, b = ptr[v], ptr[v + 1] - 1
        while f < b:
            ef, eb = ids[f], ids[b]
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


def _uniforms(rng: np.random.Generator):
    """``rng.random()`` draws, one at a time, taken from ``rng.random(4096)`` arrays.

    The doubles and their order are those of one ``rng.random()`` call per draw.
    """
    return itertools.chain.from_iterable(
        memoryview(rng.random(4096)) for _ in itertools.repeat(None)
    ).__next__


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
    deleted, _ = _walk(h, order_seed, incidence, _uniforms(np.random.default_rng(seed)))
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
    """Color each node by the last surviving edge (in index order) that holds it; 1 if none."""
    edge_of = h.member_edges()
    alive = np.flatnonzero(np.asarray(deleted)[edge_of] == 0)
    last = np.full(h.num_nodes, -1, dtype=np.int64)
    np.maximum.at(last, h.members[alive], alive)
    held = last >= 0
    coloring = np.ones(h.num_nodes, dtype=np.int64)
    coloring[held] = h.colors[edge_of[last[held]]]
    return coloring.tolist()


def coloring_from_deletions(h: EdgeColoredHypergraph, dels: DeletionSet) -> list[int]:
    """Color nodes by their unique surviving edge color (color 1 when none).

    Raises if the deletion set leaves a conflicting pair, since then the
    surviving color at a node is not well defined.
    """
    pair = find_bad_pair(h, dels.indices)
    if pair is not None:
        raise ValueError(f"deletion set leaves conflicting edge pair {pair}")
    return _color_survivors(h, _deletion_flags(h, dels.indices))


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
    deleted = _deletion_flags(h, dels.indices)
    covered = np.zeros(h.num_nodes, dtype=bool)
    covered[h.members[~deleted[h.member_edges()]]] = True
    recolored = np.where(covered, base, mv).tolist()
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
