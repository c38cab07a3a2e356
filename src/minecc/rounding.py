"""Randomized interval rounding of the clustering relaxation.

The rounding draws a threshold from an open interval, draws a uniform priority
permutation of the colors, and assigns each node the highest-priority color
whose distance to the node is below the threshold (nodes wanted by no color get
color 1). The interval is chosen from the instance shape: ``(1/2, 7/8)`` for
graphs, ``(1/2, 3/4)`` or ``(1/2, 2/3)`` for hypergraphs depending on whether
the number of colors or the rank gives the better guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hypergraph import EdgeColoredHypergraph, hypergraph
from .relaxations import EccLpSolution

INVARIANT_TOL = 1e-7  # how far :func:`rounding_invariant_violations` lets a bound miss


@dataclass(frozen=True)
class Interval:
    """Open subinterval of [0, 1] from which rounding thresholds are drawn."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"need 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")


class IntervalChoice(NamedTuple):
    interval: Interval
    factor: float


def best_interval(k: int, r: int) -> IntervalChoice:
    """Interval with the best worst-case guarantee for ``k`` colors and rank ``r``.

    The guarantee is ``min(2 - 2/k, 2 - 2/(r+1))``; for two or fewer colors the
    relaxation is exact and the factor is reported as 1.
    """
    if r < 2:
        raise ValueError("rounding guarantees need rank >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if r == 2:
        interval = Interval(0.5, 0.875)
    elif k <= r + 1:
        interval = Interval(0.5, 0.75)
    else:
        interval = Interval(0.5, 2.0 / 3.0)
    factor = 1.0 if k <= 2 else min(2.0 - 2.0 / k, 2.0 - 2.0 / (r + 1))
    return IntervalChoice(interval, factor)


def _check_feasible(h: EdgeColoredHypergraph, x: EccLpSolution) -> None:
    problems = x.violations(h)
    if problems:
        raise ValueError("infeasible relaxation solution: " + "; ".join(problems[:3]))


def _round_rows(
    rows: np.ndarray, interval: Interval, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Round the rows of a distance matrix ``trials`` times: ``(trials, rows)``
    0-based colors. All thresholds are drawn first, then all permutations; a
    row no color wants below its threshold gets color index 0."""
    u = rng.random(trials)
    boundary = (u <= 0.0) | (u >= 1.0)
    while boundary.any():
        u[boundary] = rng.random(int(boundary.sum()))
        boundary = (u <= 0.0) | (u >= 1.0)
    rho = interval.lo + (interval.hi - interval.lo) * u
    k = rows.shape[1]
    # perms[t, step] = color; for one trial, the draw of rng.permutation(k).
    perms = rng.permuted(np.tile(np.arange(k), (trials, 1)), axis=1)
    # rank[t, c] = 1 + the step at which trial t draws color c. A wanted color
    # scores its rank and an unwanted one 0, so argmax takes the last-drawn
    # wanted color, or index 0 if none. The smallest unsigned type that holds
    # k (uint8 up to k = 255) keeps the (trials, rows, k) score at one byte
    # per cell.
    rank = np.empty(perms.shape, dtype=np.min_scalar_type(k))
    np.put_along_axis(rank, perms, np.broadcast_to(np.arange(1, k + 1), perms.shape), axis=1)
    del perms  # read no further: free it before the larger score array
    score = (rows[None, :, :] < rho[:, None, None]) * rank[:, None, :]
    return score.argmax(axis=2)


def gen_color_round(
    h: EdgeColoredHypergraph,
    x: EccLpSolution,
    interval: Interval,
    seed: int,
) -> list[int]:
    """Round a feasible fractional solution to a node coloring, deterministically per seed."""
    _check_feasible(h, x)
    colors = _round_rows(x.x_node, interval, 1, np.random.default_rng(seed))[0] + 1
    return [int(c) for c in colors]


def simple_round(x: EccLpSolution) -> list[int]:
    """Assign every node its closest color (ties to the lowest color index)."""
    return [int(c) for c in x.x_node.argmin(axis=1) + 1]


def estimate_mistake_prob(
    h: EdgeColoredHypergraph,
    x: EccLpSolution,
    interval: Interval,
    edge_index: int,
    trials: int,
    seed: int,
    *,
    check: bool = True,
) -> tuple[float, float]:
    """Monte Carlo estimate of the probability that rounding mis-colors one edge.

    Returns ``(estimate, standard error)``. It runs :func:`gen_color_round`'s
    kernel on the edge's member rows with ``trials`` trials, so each trial
    rounds as :func:`gen_color_round` does, and only the colors of the edge's
    members are materialized. An edge index outside ``[0, m)`` raises
    IndexError. An infeasible ``x`` raises ValueError; a caller that estimates
    every edge of one solution checks it once with
    :meth:`EccLpSolution.violations` and passes ``check=False``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if check:
        _check_feasible(h, x)
    if not (0 <= edge_index < h.num_edges):
        raise IndexError(f"edge index {edge_index} out of range")
    members = h.members[h.eptr[edge_index]:h.eptr[edge_index + 1]]
    colors = _round_rows(x.x_node[members], interval, trials, np.random.default_rng(seed))
    mistake = (colors != h.colors[edge_index] - 1).any(axis=1)
    p = float(mistake.mean())
    stderr = math.sqrt(p * (1.0 - p) / trials)
    return p, stderr


def make_synthetic_solution(
    family: str, epsilon: float | None = None
) -> tuple[EdgeColoredHypergraph, EccLpSolution]:
    """Hand-built feasible solutions on a single two-node edge.

    Family ``A`` (requires ``0 < epsilon < 1``): the edge's own color sits at
    ``(1 - eps)/2`` on both nodes while each node has one competing color at
    ``(1 + eps)/2``; rounding intervals that start above ``1/2`` mis-color this
    edge too often. Family ``B``: the edge color and two competing colors per
    node all sit at ``2/3``; intervals that end below ``7/8`` fail on it.
    """
    fam = family.upper()
    if fam == "A":
        if epsilon is None or not (0.0 < epsilon < 1.0):
            raise ValueError("family A needs 0 < epsilon < 1")
        lo = (1.0 - epsilon) / 2.0
        hi = (1.0 + epsilon) / 2.0
        h = hypergraph(2, 3, [((0, 1), 1)])
        x_node = np.array([[lo, hi, 1.0], [lo, 1.0, hi]])
        x_edge = np.array([lo])
    elif fam == "B":
        if epsilon is not None:
            raise ValueError("family B takes no epsilon")
        h = hypergraph(2, 5, [((0, 1), 1)])
        t = 2.0 / 3.0
        x_node = np.array([[t, t, t, 1.0, 1.0], [t, 1.0, 1.0, t, t]])
        x_edge = np.array([t])
    else:
        raise ValueError(f"unknown family {family!r}")
    return h, EccLpSolution(x_node, x_edge, float(x_edge.sum()))


def rounding_invariant_violations(h: EdgeColoredHypergraph, x: EccLpSolution) -> list[str]:
    """Numeric checks tying edge variables to color thresholds, each within ``INVARIANT_TOL``.

    For every edge, ``1 - z_1 <= x_e``. On graphs (rank 2) also, for every
    integer ``t <= k/2``, ``t <= x_e + z_t + ... + z_{2t-1}``. Violations are
    reported with the edge index, edge by edge; an empty list means all
    checks pass. An edge without members has no threshold and breaks neither.
    """
    k, m, tol = h.num_colors, h.num_edges, INVARIANT_TOL
    if k <= 1:
        return []
    # mins[j, i]: the smallest distance to color i + 1 over edge j's members
    # (inf for an edge without members); z[j]: the k - 1 entries of colors
    # other than j's own, sorted, so z[j, t - 1] is the edge's z_t.
    mins = np.full((m, k), np.inf)
    filled = np.flatnonzero(np.diff(h.eptr) > 0)
    mins[filled] = np.minimum.reduceat(x.x_node[h.members], h.eptr[filled], axis=0)
    own = np.arange(k) == (h.colors - 1)[:, None]
    z = np.sort(mins[~own].reshape(m, k - 1), axis=1)
    xe = x.x_edge
    found = [(j, 1, f"edge {j}: first threshold bound fails (1 - {z[j, 0]:.9f} > {xe[j]:.9f})")
             for j in np.flatnonzero(1.0 - z[:, 0] > xe + tol).tolist()]
    for t in range(2, (k // 2 if h.rank == 2 else 1) + 1):
        window = np.zeros(m)
        for i in range(t - 1, 2 * t - 1):  # left to right, as z_t + ... + z_2t-1 reads
            window += z[:, i]
        found += [(j, t, f"edge {j}: threshold sum bound fails at t={t} "
                         f"({t} > {xe[j]:.9f} + {window[j]:.9f})")
                  for j in np.flatnonzero(t > xe + window + tol).tolist()]
    return [problem for _, _, problem in sorted(found)]
