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


@dataclass(frozen=True)
class Interval:
    """Open subinterval of [0, 1] from which rounding thresholds are drawn."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"need 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"


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


def _draw_threshold(rng: np.random.Generator, interval: Interval) -> float:
    # Open interval: reject boundary draws of the unit sample.
    while True:
        u = rng.random()
        if 0.0 < u < 1.0:
            return interval.lo + (interval.hi - interval.lo) * u


def _check_feasible(h: EdgeColoredHypergraph, x: EccLpSolution) -> None:
    problems = x.violations(h)
    if problems:
        raise ValueError("infeasible relaxation solution: " + "; ".join(problems[:3]))


def _assign(x_node: np.ndarray, rho: float, priority: np.ndarray) -> np.ndarray:
    # Highest priority among colors below the threshold; color 1 if none is.
    score = np.where(x_node < rho, priority[None, :], -1)
    return score.argmax(axis=1) + 1


def gen_color_round(
    h: EdgeColoredHypergraph,
    x: EccLpSolution,
    interval: Interval,
    seed: int,
) -> list[int]:
    """Round a feasible fractional solution to a node coloring, deterministically per seed."""
    _check_feasible(h, x)
    k = h.num_colors
    rng = np.random.default_rng(seed)
    rho = _draw_threshold(rng, interval)
    perm = rng.permutation(k)  # perm[step] = color index assigned at that step
    priority = np.empty(k, dtype=np.int64)
    priority[perm] = np.arange(k)
    return [int(c) for c in _assign(x.x_node, rho, priority)]


def simple_round(x: EccLpSolution) -> list[int]:
    """Assign every node its closest color (ties to the lowest color index)."""
    return [int(c) for c in x.x_node.argmin(axis=1) + 1]


@dataclass(frozen=True)
class ColorThresholds:
    """Sorted per-edge thresholds: crossing ``values[i-1]`` means at least ``i``
    colors other than the edge's own want some member node."""

    values: tuple[float, ...]

    @property
    def z1(self) -> float:
        return self.values[0]

    def __len__(self) -> int:
        return len(self.values)


def _edge(h: EdgeColoredHypergraph, edge_index: int) -> tuple[np.ndarray, int]:
    """Members and color of one edge; IndexError unless ``0 <= edge_index < m``."""
    if not (0 <= edge_index < h.num_edges):
        raise IndexError(f"edge index {edge_index} out of range")
    return h.members[h.eptr[edge_index]:h.eptr[edge_index + 1]], int(h.colors[edge_index])


def color_thresholds(
    h: EdgeColoredHypergraph, x: EccLpSolution, edge_index: int
) -> ColorThresholds:
    """Compute the ``k - 1`` color thresholds of one edge under solution ``x``."""
    members, color = _edge(h, edge_index)
    mins = x.x_node[members].min(axis=0)
    others = np.delete(mins, color - 1)
    return ColorThresholds(tuple(float(z) for z in np.sort(others)))


def estimate_mistake_prob(
    h: EdgeColoredHypergraph,
    x: EccLpSolution,
    interval: Interval,
    edge_index: int,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the probability that rounding mis-colors one edge.

    Returns ``(estimate, standard error)``. Trials redraw the threshold and the
    priority permutation exactly as :func:`gen_color_round` does; only the
    colors of the edge's members are materialized. An edge index outside
    ``[0, m)`` raises IndexError, as in :func:`color_thresholds`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_feasible(h, x)
    members, color = _edge(h, edge_index)
    k = h.num_colors
    rng = np.random.default_rng(seed)

    u = rng.random(trials)
    boundary = (u <= 0.0) | (u >= 1.0)
    while boundary.any():
        u[boundary] = rng.random(int(boundary.sum()))
        boundary = (u <= 0.0) | (u >= 1.0)
    rho = interval.lo + (interval.hi - interval.lo) * u

    perms = rng.permuted(np.tile(np.arange(k), (trials, 1)), axis=1)
    priority = np.empty_like(perms)
    np.put_along_axis(priority, perms, np.broadcast_to(np.arange(k), perms.shape), axis=1)

    mistake = np.zeros(trials, dtype=bool)
    for v in members.tolist():
        wanted = x.x_node[v][None, :] < rho[:, None]
        score = np.where(wanted, priority, -1)
        mistake |= score.argmax(axis=1) != color - 1
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


def rounding_invariant_violations(
    h: EdgeColoredHypergraph,
    x: EccLpSolution,
    tol: float = 1e-7,
) -> list[str]:
    """Numeric checks tying edge variables to color thresholds.

    For every edge, ``1 - z_1 <= x_e``. On graphs (rank 2) also, for every
    integer ``t <= k/2``, ``t <= x_e + z_t + ... + z_{2t-1}``. Violations are
    reported with the edge index; an empty list means all checks pass.
    """
    problems: list[str] = []
    k = h.num_colors
    if k <= 1:
        return problems
    t_max = k // 2 if h.rank == 2 else 1
    for j in range(h.num_edges):
        z = color_thresholds(h, x, j).values
        xe = x.x_edge[j]
        if 1.0 - z[0] > xe + tol:
            problems.append(
                f"edge {j}: first threshold bound fails (1 - {z[0]:.9f} > {xe:.9f})"
            )
        for t in range(2, t_max + 1):
            window = sum(z[i - 1] for i in range(t, 2 * t))
            if t > xe + window + tol:
                problems.append(
                    f"edge {j}: threshold sum bound fails at t={t} "
                    f"({t} > {xe:.9f} + {window:.9f})"
                )
    return problems
