"""Linear-time combinatorial algorithms and their instance-specific lower bounds.

All algorithms run in O(sum of edge sizes). The deletion-based ones share one
walk over each node's list in the color-sorted ``h.incidence`` with a front
and a back cursor: while the cursor edges have different colors they form a
conflicting pair (overlapping, differently colored) that must be resolved by
deleting an edge. The walk takes one of two pair policies:

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

from .hypergraph import CostReport, EdgeColoredHypergraph, _ordered_sum, _per_edge_count
from .hypergraph import objective_cost


@dataclass(frozen=True, eq=False)
class DeletionSet:
    """Edges removed so that no conflicting pair survives: ``flags``, one
    read-only bool per edge, set at each deleted edge, and their total weight."""

    flags: np.ndarray
    total_weight: float

    def __post_init__(self):
        object.__setattr__(self, "flags", np.array(self.flags, dtype=bool))
        self.flags.flags.writeable = False

    @property
    def indices(self) -> np.ndarray:
        """The deleted edge ids, ascending (int64)."""
        return np.flatnonzero(self.flags)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DeletionSet) and self.total_weight == other.total_weight
                and np.array_equal(self.flags, other.flags))


def _checked_flags(h: EdgeColoredHypergraph, flags) -> np.ndarray:
    """``flags`` as a bool array, which must hold one flag per edge of ``h``."""
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != (h.num_edges,):
        raise ValueError(f"deletion flags have shape {flags.shape}, need one flag per edge")
    return flags


def find_bad_pair(h: EdgeColoredHypergraph, deleted=None) -> tuple[int, int] | None:
    """A surviving pair of overlapping, differently colored edges, or None.

    ``deleted`` holds one flag per edge (None: no edge is deleted). The pair
    is the first surviving edge of the lowest node whose surviving edges have
    more than one color, with the first of that node's surviving edges (in
    incidence order) whose color differs from it. The node is found in one
    array pass: survivors of different colors meet next to each other
    somewhere in its list.
    """
    gone = np.zeros(h.num_edges, dtype=bool) if deleted is None else _checked_flags(h, deleted)
    inc = h.incidence
    kept = np.flatnonzero(~gone[inc.edge_ids])
    node = np.repeat(np.arange(len(inc)), np.diff(inc.indptr))[kept]
    color = h.colors[inc.edge_ids[kept]]
    mixed = np.flatnonzero((node[1:] == node[:-1]) & (color[1:] != color[:-1]))
    if len(mixed) == 0:
        return None
    edges = inc.edge_ids[kept[node == node[mixed[0]]]].tolist()
    first = h.colors[edges[0]]
    return next((edges[0], j) for j in edges if h.colors[j] != first)


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
    h: EdgeColoredHypergraph, order_seed: int | None, rand=None
) -> tuple[DeletionSet, float]:
    """Resolve every conflicting cursor pair; returns the deletions and matching bound.

    With ``rand`` (a uniform [0, 1) sampler) one edge of each pair is deleted,
    the back edge with probability proportional to the front edge's weight
    (both when both weights are zero); without it both edges are deleted and
    ``min(w_e, w_f)`` is added to the bound. The cursors index memoryviews
    over ``h.incidence``, the colors and the weights, so no per-node list and
    no per-edge object is made.
    """
    ids, ptr = memoryview(h.incidence.edge_ids), memoryview(h.incidence.indptr)
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
    flags = np.frombuffer(deleted, dtype=bool)
    return DeletionSet(flags, _ordered_sum(h.weights[flags])), bound


def _uniforms(rng: np.random.Generator):
    """``rng.random()`` draws, one at a time, taken from ``rng.random(4096)`` arrays.

    The doubles and their order are those of one ``rng.random()`` call per draw.
    """
    return itertools.chain.from_iterable(
        memoryview(rng.random(4096)) for _ in itertools.repeat(None)
    ).__next__


def pitt_coloring(
    h: EdgeColoredHypergraph, seed: int, order_seed: int | None = None
) -> tuple[DeletionSet, list[int]]:
    """Randomized weighted 2-approximation via implicit vertex-cover sampling.

    Visits nodes (ascending by default, shuffled by ``order_seed``), resolves
    each conflicting cursor pair by deleting one edge with probability
    proportional to the *other* edge's weight, then colors nodes by their
    surviving edges. Deterministic given the seeds.
    """
    dels, _ = _walk(h, order_seed, _uniforms(np.random.default_rng(seed)))
    return dels, _color_survivors(h, dels.flags)


def match_coloring(
    h: EdgeColoredHypergraph, order_seed: int | None = None
) -> tuple[DeletionSet, list[int], float]:
    """Deterministic deletion of a maximal edge-disjoint set of conflicting pairs.

    Returns the deletions, the induced coloring, and the matching lower bound
    (``sum of min(w_e, w_f)`` over matched pairs; the pair count on unit
    weights). For unit weights the cost is at most twice the bound; for
    non-uniform weights the bound is still valid but the factor-2 guarantee is
    not asserted.
    """
    dels, bound = _walk(h, order_seed)
    return dels, _color_survivors(h, dels.flags), bound


def _color_survivors(h: EdgeColoredHypergraph, deleted: np.ndarray) -> list[int]:
    """Color each node by the last surviving edge (in index order) that holds it; 1 if none."""
    edge_of = h.member_edges()
    alive = np.flatnonzero(~deleted[edge_of])
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
    pair = find_bad_pair(h, dels.flags)
    if pair is not None:
        raise ValueError(f"deletion set leaves conflicting edge pair {pair}")
    return _color_survivors(h, dels.flags)


def hybrid(
    h: EdgeColoredHypergraph, order_seed: int | None = None
) -> tuple[list[int], CostReport, float, list[int]]:
    """Pair deletion followed by majority-vote recoloring of uncovered nodes.

    The composition of :func:`match_coloring` and :func:`recolor_uncovered`;
    the coloring is never worse than :func:`match_coloring`'s. Returns the
    coloring, its cost report, the matching lower bound and the majority-vote
    coloring, from which :func:`mv_lower_bound` reads its bound.
    """
    h.incidence  # built here: perfbench's TestRecorder wants the build as a step of hybrid
    dels, base, match_bound = match_coloring(h, order_seed)
    mv = majority_vote(h)
    coloring, report = recolor_uncovered(h, dels, base, mv)
    return coloring, report, match_bound, mv


def recolor_uncovered(
    h: EdgeColoredHypergraph, dels: DeletionSet, base: list[int], mv: list[int]
) -> tuple[list[int], CostReport]:
    """Give nodes in no surviving edge of ``dels`` their majority color ``mv``.

    ``base`` is the deletion coloring. Recoloring can in contrived overlaps
    cost more than it saves, so ``base`` is kept whenever it is strictly
    cheaper. Returns the coloring with the cost report (no accuracy) that
    chose it.
    """
    deleted = _checked_flags(h, dels.flags)
    covered = np.zeros(h.num_nodes, dtype=bool)
    covered[h.members[~deleted[h.member_edges()]]] = True
    recolored = np.where(covered, base, mv).tolist()
    recolored_cost, base_cost = objective_cost(h, recolored), objective_cost(h, base)
    if recolored_cost.total_cost > base_cost.total_cost:
        return base, base_cost
    return recolored, recolored_cost


def a_posteriori_ratio(cost: float, *bounds: float | None) -> float | None:
    """Cost divided by the best of the given lower bounds, skipping ``None``.

    1 when the cost is zero; None when no bound is positive, since then no
    finite ratio is shown.
    """
    if cost == 0.0:
        return 1.0
    best = max((b for b in bounds if b is not None), default=0.0)
    return cost / best if best > 0.0 else None
