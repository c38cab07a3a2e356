"""Edge-colored hypergraph data model, objective evaluation, and incidence structure.

Conventions used throughout the package:
- node indices are 0-based,
- colors are 1-based integers in ``[1..k]``,
- edge weights are nonnegative floats (default 1).

A *node coloring* is a plain sequence of length ``num_nodes`` with values in
``[1..k]``. An edge is *satisfied* by a coloring when every member node has the
edge's color; otherwise the coloring makes a *mistake* at that edge.

Layout: an instance with ``m`` edges is four flat numpy arrays, in the shape
of the benchmark format's edge list:

- ``members`` (int64): every edge's sorted, deduplicated member ids, back to
  back; edge ``j`` owns ``members[eptr[j]:eptr[j + 1]]``;
- ``eptr`` (int64, length ``m + 1``): the edge offsets into ``members``;
- ``colors`` (int64) and ``weights`` (float64), one entry per edge.

Parsing, validation, evaluation and majority vote are single array passes
over these, and the color-sorted incidence is one sort of packed 64-bit words
(:func:`build_incidence`). The constructor copies the arrays it is given and
marks them read-only, so an instance can be shared by concurrent workers and
passed between calls without defensive copies; the parsers and generators
hand over the arrays they built uncopied. The arrays are the only edge
representation; the LP, rounding, oracle and reduction code reads them too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NodeColoring = Sequence[int]

_ARRAYS = (("members", np.int64), ("eptr", np.int64), ("colors", np.int64), ("weights", np.float64))


@dataclass(frozen=True, eq=False)
class EdgeColoredHypergraph:
    """Immutable problem instance: ``num_nodes`` nodes, colored weighted hyperedges.

    The four arrays (see the module docstring) are the only stored data, and
    ``incidence`` is derived from them: built on first read and kept, ignored
    by ``__eq__`` and ``__hash__``, and shared by workers sharing an instance.
    The constructor only checks that the arrays fit together, leaving every
    range to :func:`validate`; :func:`hypergraph` builds one from edge tuples.
    """

    num_nodes: int
    num_colors: int
    members: np.ndarray
    eptr: np.ndarray
    colors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name, dtype in _ARRAYS:
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
        self._seal()

    @classmethod
    def _adopt(cls, num_nodes: int, num_colors: int, *arrays) -> "EdgeColoredHypergraph":
        """An instance that keeps the four given arrays themselves.

        Each is converted only where its dtype differs, and copied only where
        it is a view of another array. The caller must hold none of them
        afterwards: :func:`from_flat` hands over the arrays it built.
        """
        h = object.__new__(cls)
        object.__setattr__(h, "num_nodes", num_nodes)
        object.__setattr__(h, "num_colors", num_colors)
        for (name, dtype), a in zip(_ARRAYS, arrays):
            a = np.asarray(a, dtype=dtype)
            object.__setattr__(h, name, a if a.base is None else a.copy())
        h._seal()
        return h

    def _seal(self) -> None:
        """Switch off writing to the arrays and check that they fit together."""
        for name, _ in _ARRAYS:
            getattr(self, name).flags.writeable = False
        m = len(self.colors)
        shaped = all(getattr(self, name).ndim == 1 for name, _ in _ARRAYS)
        if not (shaped and len(self.weights) == m and len(self.eptr) == m + 1
                and self.eptr[0] == 0 and self.eptr[-1] == len(self.members)
                and np.all(self.eptr[1:] >= self.eptr[:-1])):
            raise ValueError("edge arrays do not fit together: need 1-D colors and weights "
                             "of length m and offsets eptr of length m + 1 rising from 0 "
                             "to len(members)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeColoredHypergraph):
            return NotImplemented
        return (self.num_nodes, self.num_colors) == (other.num_nodes, other.num_colors) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, _ in _ARRAYS
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.num_colors)
                    + tuple(getattr(self, name).tobytes() for name, _ in _ARRAYS))

    @functools.cached_property
    def incidence(self) -> ColorSortedIncidence:
        """:func:`build_incidence` of this instance."""
        return build_incidence(self)

    @property
    def rank(self) -> int:
        """Maximum edge size (0 for an edgeless instance)."""
        return int(np.diff(self.eptr).max()) if len(self.colors) else 0

    @property
    def num_edges(self) -> int:
        return len(self.colors)

    def total_weight(self) -> float:
        return _ordered_sum(self.weights)

    def degrees(self) -> list[int]:
        return np.bincount(self.members, minlength=self.num_nodes).tolist()

    def member_edges(self) -> np.ndarray:
        """The edge index of every entry of ``members``."""
        return np.repeat(np.arange(len(self.colors)), np.diff(self.eptr))


def _ordered_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, the same as adding the values one by one in a loop."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _per_edge_count(flags: np.ndarray, eptr: np.ndarray) -> np.ndarray:
    """Number of true entries of ``flags`` (one per member) in each edge."""
    running = np.zeros(len(flags) + 1, dtype=np.int64)
    np.cumsum(flags, out=running[1:])
    return running[eptr[1:]] - running[eptr[:-1]]


def _sorted_within_edges(
    members: np.ndarray, edge_of: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``members`` with every edge's slice in ascending order, and the repeats in it.

    The mask marks each entry equal to the one before it in the same edge.
    The sort is skipped when every edge already is in order; otherwise the
    edges of each size are sorted together as the rows of one matrix.
    """
    same_edge = edge_of[1:] == edge_of[:-1]
    if not np.all(members[1:][same_edge] >= members[:-1][same_edge]):
        starts = np.cumsum(sizes) - sizes
        members = members.copy()
        for size in np.flatnonzero(np.bincount(sizes)[2:]) + 2:
            rows = starts[sizes == size][:, None] + np.arange(size)
            members[rows] = np.sort(members[rows], axis=1)
    repeat = np.zeros(len(members), dtype=bool)
    repeat[1:] = same_edge & (members[1:] == members[:-1])
    return members, repeat


def _rising_within_edges(members: np.ndarray, eptr: np.ndarray) -> bool:
    """Whether every edge's members rise strictly: sorted, with no repeat.

    One comparison of each entry with the one before it, passed at the first
    entry of every edge.
    """
    rising = members[1:] > members[:-1]
    inner = eptr[1:-1]
    rising[inner[(inner > 0) & (inner < len(members))] - 1] = True
    return bool(rising.all())


def from_flat(num_nodes: int, num_colors: int, members, sizes, colors, weights) -> EdgeColoredHypergraph:
    """Build an instance from flat member ids, edge sizes, colors and weights.

    Each edge's members (the next ``sizes[j]`` ids) are sorted and
    deduplicated; an edge without members is rejected. Range checks are left
    to :func:`validate`. The instance holds copies of the caller's arrays.
    """
    return _from_own_flat(num_nodes, num_colors, np.array(members, dtype=np.int64), sizes,
                          np.array(colors, dtype=np.int64), np.array(weights, dtype=np.float64))


def _from_own_flat(num_nodes: int, num_colors: int, members, sizes, colors,
                   weights) -> EdgeColoredHypergraph:
    """:func:`from_flat` for a caller that hands over ``members``, ``colors``
    and ``weights``: the instance keeps them without a copy, so the caller
    must hold none of them afterwards."""
    members = np.asarray(members, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if np.any(sizes == 0):
        raise ValueError("hyperedge has no members after deduplication")
    eptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=eptr[1:])
    if not _rising_within_edges(members, eptr):
        edge_of = np.repeat(np.arange(len(sizes)), sizes)
        members, repeat = _sorted_within_edges(members, edge_of, sizes)
        if repeat.any():
            members = members[~repeat]
            np.cumsum(np.bincount(edge_of[~repeat], minlength=len(sizes)), out=eptr[1:])
    return EdgeColoredHypergraph._adopt(num_nodes, num_colors, members, eptr, colors, weights)


def hypergraph(
    num_nodes: int,
    num_colors: int,
    edges: Iterable[tuple],
) -> EdgeColoredHypergraph:
    """Build an instance from ``(members, color)`` or ``(members, color, weight)`` tuples.

    Members are deduplicated and sorted, and an edge left empty is rejected.
    Ranges are left to :func:`validate`, so invalid instances can be built and
    reported on.
    """
    members: list[int] = []
    sizes: list[int] = []
    colors: list[int] = []
    weights: list[float] = []
    for spec in edges:
        ids, color, weight = spec if len(spec) == 3 else (*spec, 1.0)
        before = len(members)
        members.extend(ids)
        sizes.append(len(members) - before)
        colors.append(int(color))
        weights.append(float(weight))
    return from_flat(num_nodes, num_colors, members, sizes, colors, weights)


def _too_big(n: int, k: int) -> str | None:
    """Why numpy cannot index ``n`` nodes by ``k`` colors, or None."""
    if (size := (n + 1) * max(k, 1)) >= 1 << 63:
        return f"(num_nodes + 1) * max(num_colors, 1) = {size} is not below 2^63"
    return None


def validate(h: EdgeColoredHypergraph) -> list[str]:
    """Return a list of invariant violations (empty iff the instance is valid).

    Reports, never raises: counts too large to index, out-of-range members,
    empty edges, duplicate members, out-of-range colors, bad weights.
    """
    problems: list[str] = []
    n, k = h.num_nodes, h.num_colors
    if n < 0:
        problems.append(f"num_nodes is negative: {n}")
    if k < 0:
        problems.append(f"num_colors is negative: {k}")
    if too_big := _too_big(n, k):
        problems.append(too_big)
    flagged = (h.members < 0) | (h.members >= n)
    if not _rising_within_edges(h.members, h.eptr):
        flagged |= _sorted_within_edges(h.members, h.member_edges(), np.diff(h.eptr))[1]
    bad = (h.eptr[1:] == h.eptr[:-1]) | (h.colors < 1) | (h.colors > k)
    bad |= ~((h.weights >= 0.0) & (h.weights < math.inf))
    if flagged.any():
        bad[h.member_edges()[flagged]] = True
    for j in np.flatnonzero(bad).tolist():
        ids = h.members[h.eptr[j]:h.eptr[j + 1]].tolist()
        color, weight = int(h.colors[j]), float(h.weights[j])
        if not ids:
            problems.append(f"edge {j} is empty")
        if len(set(ids)) != len(ids):
            problems.append(f"edge {j} has duplicate members")
        for v in ids:
            if not (0 <= v < n):
                problems.append(f"edge {j} member {v} out of range [0, {n})")
        if not (1 <= color <= k):
            problems.append(f"edge {j} color {color} out of range [1, {k}]")
        if not (0.0 <= weight < math.inf):
            problems.append(f"edge {j} weight {weight} is not a nonnegative finite number")
    return problems


@dataclass(frozen=True)
class CostReport:
    """Objective evaluation of one coloring.

    ``total_cost`` is the weight of mistake edges; ``edge_satisfaction`` is the
    unweighted fraction of edges that are not mistakes; ``accuracy`` is the
    node-level agreement with a ground-truth coloring when one is supplied.
    """

    total_cost: float
    edge_satisfaction: float
    accuracy: float | None = None


def objective_cost(
    h: EdgeColoredHypergraph,
    coloring: NodeColoring,
    truth: NodeColoring | None = None,
) -> CostReport:
    """Evaluate the minimum-mistake objective of ``coloring`` on ``h``.

    Every value of ``coloring`` must lie in ``[1, max(k, 1)]``: color 1, the
    color of nodes in no edge, stays valid on an instance without colors.
    """
    if len(coloring) != h.num_nodes:
        raise ValueError(
            f"coloring has length {len(coloring)}, instance has {h.num_nodes} nodes"
        )
    node_colors = np.asarray(coloring)
    top = max(h.num_colors, 1)
    outside = np.flatnonzero((node_colors < 1) | (node_colors > top))
    if len(outside):
        v = int(outside[0])
        raise ValueError(f"coloring gives node {v} color {coloring[v]}, outside [1, {top}]")
    wrong = node_colors[h.members] != h.colors[h.member_edges()]
    mistakes = _per_edge_count(wrong, h.eptr) > 0
    m = h.num_edges
    satisfaction = 1.0 if m == 0 else 1.0 - np.count_nonzero(mistakes) / m
    acc = accuracy(coloring, truth) if truth is not None else None
    return CostReport(_ordered_sum(h.weights[mistakes]), satisfaction, acc)


def accuracy(coloring: NodeColoring, truth: NodeColoring) -> float:
    """Fraction of nodes whose color agrees with the ground truth."""
    if len(coloring) != len(truth):
        raise ValueError("coloring and truth have different lengths")
    if len(truth) == 0:
        return 1.0
    return int(np.count_nonzero(np.asarray(coloring) == np.asarray(truth))) / len(truth)


@dataclass(frozen=True)
class ColorSortedIncidence:
    """Per-node incident edge lists, each ordered by edge color (ties by index).

    Stored in compressed form: ``edge_ids[indptr[v]:indptr[v+1]]`` is node
    ``v``'s list, which the item view makes a tuple.
    """

    indptr: "np.ndarray"
    edge_ids: "np.ndarray"

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return tuple(self.edge_ids[self.indptr[v]:self.indptr[v + 1]].tolist())

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColorSortedIncidence) and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.edge_ids, other.edge_ids))


def build_incidence(h: EdgeColoredHypergraph) -> ColorSortedIncidence:
    """Build the color-sorted incidence structure in O(sum of edge sizes).

    Each membership becomes one ``uint64`` word: its key ``node * span +
    color - least`` (``span`` the range of colors present, so that no color
    outside ``[1, k]`` reaches the next node's keys) above its edge index.
    Two words are equal only when key and edge both are, so one unstable
    ``np.sort`` of the words (a SIMD sort on x86) puts the edges in the order
    of a stable sort on the key, ascending by index within a color; they are
    read back from the low bits. Keys too wide to share a word with the edge
    index take a stable argsort instead.
    """
    n, m = h.num_nodes, h.num_edges
    sizes = np.diff(h.eptr)
    colors = h.colors
    least, most = (int(colors.min()), int(colors.max())) if m else (0, 0)
    if (most - least + 1) * max(n, 1) >= 1 << 63:  # colors too far apart: use their ranks
        colors, least, most = np.searchsorted(np.sort(colors), colors), 0, m - 1
    key = h.members * np.int64(most - least + 1) + np.repeat(colors - least, sizes)
    shift = m.bit_length()
    if len(key) and int(key.max()).bit_length() + shift <= 64:
        packed = key.astype(np.uint64) << np.uint64(shift)
        packed |= np.repeat(np.arange(m, dtype=np.uint64), sizes)
        packed.sort()
        edge_ids = (packed & np.uint64((1 << shift) - 1)).astype(np.int32)
    else:
        edge_ids = np.repeat(np.arange(m, dtype=np.int32), sizes)[np.argsort(key, kind="stable")]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(h.members, minlength=n), out=indptr[1:])
    return ColorSortedIncidence(indptr, edge_ids)
