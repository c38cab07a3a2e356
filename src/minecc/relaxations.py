"""LP relaxations: the clustering relaxation and the multiway-cut relaxation.

The clustering relaxation has a distance variable ``xn_v_i`` between every node
and every color plus a mistake variable ``xe_j`` per edge:

    min  sum_j w_j xe_j
    s.t. sum_i xn_v_i = k - 1           for every node v
         xe_j >= xn_v_c                 for every edge j of color c, v in j
         all variables in [0, 1]

The multiway-cut relaxation is built over the reduced terminal graph (one
terminal per color, one deletable node per hyperedge, original nodes kept
undeletable) using the polynomial distance formulation with ``y_u_i`` node-to-
cluster distances and ``d_j`` deletion variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import EdgeColoredHypergraph
from .lp import LinearProgram, LpResult
from .reductions import ecc_to_node_mc

SNAP_TOL = 1e-7


def build_ecc_lp(h: EdgeColoredHypergraph) -> LinearProgram:
    """Build the clustering relaxation for ``h``."""
    lp = LinearProgram(sense="min")
    n, k = h.num_nodes, h.num_colors
    for v in range(n):
        for i in range(1, k + 1):
            lp.add_var(f"xn_{v}_{i}", 0.0, 1.0)
    for j, w in enumerate(h.weights.tolist()):
        lp.add_var(f"xe_{j}", 0.0, 1.0, obj=w)
    for v in range(n):
        lp.add_constraint(
            [(v * k + i, 1.0) for i in range(k)], "=", float(k - 1)
        )
    # One row per membership, in edge order: x_e against x_v of the edge's color.
    edge_of = h.member_edges()
    xe = (n * k + edge_of).tolist()
    xn = (h.members * k + h.colors[edge_of] - 1).tolist()
    for a, b in zip(xe, xn):
        lp.add_constraint([(a, 1.0), (b, -1.0)], ">=", 0.0)
    return lp


def build_nodemc_lp(h: EdgeColoredHypergraph) -> LinearProgram:
    """Build the multiway-cut relaxation over the reduced graph of ``h``.

    Reduced-graph node indices: original nodes ``0..n-1``, one node per
    hyperedge ``n..n+m-1``, one terminal per color after that. Only hyperedge
    nodes are deletable; everything else has its deletion distance fixed to
    zero (never encoded as a large weight).
    """
    n, m, k = h.num_nodes, h.num_edges, h.num_colors
    total_nodes = n + m + k

    lp = LinearProgram(sense="min")
    for u in range(total_nodes):
        for i in range(1, k + 1):
            lp.add_var(f"y_{u}_{i}", 0.0, math.inf)
    d_offset = total_nodes * k
    for j, w in enumerate(h.weights.tolist()):
        lp.add_var(f"d_{j}", 0.0, math.inf, obj=w)

    def y(u: int, i: int) -> int:
        return u * k + (i - 1)

    deletable = {n + j: d_offset + j for j in range(m)}
    for a, bnode in ecc_to_node_mc(h).edges:
        for i in range(1, k + 1):
            # y_b_i <= y_a_i + d_b and the reverse orientation.
            for u, w in ((bnode, a), (a, bnode)):
                row = [(y(u, i), 1.0), (y(w, i), -1.0)]
                if u in deletable:
                    row.append((deletable[u], -1.0))
                lp.add_constraint(row, "<=", 0.0)
    for c in range(1, k + 1):
        t = n + m + c - 1
        lp.add_constraint([(y(t, c), 1.0)], "=", 0.0)
        for i in range(1, k + 1):
            if i != c:
                lp.add_constraint([(y(t, i), 1.0)], ">=", 1.0)
    return lp


@dataclass(frozen=True)
class EccLpSolution:
    """Fractional solution of the clustering relaxation.

    ``x_node[v, i-1]`` is the distance between node ``v`` and color ``i``;
    ``x_edge[j]`` is the mistake variable of edge ``j``.
    """

    x_node: np.ndarray
    x_edge: np.ndarray
    objective: float

    def violations(self, h: EdgeColoredHypergraph, tol: float = 1e-6) -> list[str]:
        """Check the relaxation invariants; empty list iff feasible within ``tol``."""
        problems: list[str] = []
        n, k = h.num_nodes, h.num_colors
        if self.x_node.shape != (n, k):
            return [f"x_node has shape {self.x_node.shape}, expected {(n, k)}"]
        if self.x_edge.shape != (h.num_edges,):
            return [f"x_edge has shape {self.x_edge.shape}, expected {(h.num_edges,)}"]
        if np.any(self.x_node < -tol) or np.any(self.x_node > 1 + tol):
            problems.append("node distances outside [0, 1]")
        if np.any(self.x_edge < -tol) or np.any(self.x_edge > 1 + tol):
            problems.append("edge distances outside [0, 1]")
        sums = self.x_node.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - (k - 1)) > tol)
        for v in bad:
            problems.append(f"node {v}: color distances sum to {sums[v]:.9f}, expected {k - 1}")
        reach = _reach(h, self.x_node)
        for j in np.flatnonzero(self.x_edge < reach - tol).tolist():
            problems.append(
                f"edge {j}: x_e = {self.x_edge[j]:.9f} below max member distance {reach[j]:.9f}"
            )
        return problems


def _reach(h: EdgeColoredHypergraph, x_node: np.ndarray) -> np.ndarray:
    """Each edge's largest member distance to the edge's color; -inf for an empty edge."""
    edge_of = h.member_edges()
    reach = np.full(h.num_edges, -np.inf)
    np.maximum.at(reach, edge_of, x_node[h.members, h.colors[edge_of] - 1])
    return reach


def _snap(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a[np.abs(a) <= SNAP_TOL] = 0.0
    a[np.abs(a - 1.0) <= SNAP_TOL] = 1.0
    return a


def solution_from_vector(
    h: EdgeColoredHypergraph,
    x,
    tighten: bool = True,
) -> EccLpSolution:
    """Assemble an :class:`EccLpSolution` from a raw primal vector.

    Values within ``1e-7`` of a bound are snapped to it. With ``tighten`` the
    edge variables are replaced by the largest member distance of the edge's
    color (exact at optimality); invariant checkers pass ``tighten=False`` so
    corrupted inputs stay detectable.
    """
    n, k, m = h.num_nodes, h.num_colors, h.num_edges
    x = np.asarray(x, dtype=float)
    if x.shape != (n * k + m,):
        raise ValueError(f"primal vector has length {x.shape}, expected {n * k + m}")
    x_node = _snap(x[: n * k].reshape(n, k))
    x_edge = _snap(x[n * k:])
    if tighten:
        x_edge = _reach(h, x_node)
    return EccLpSolution(x_node, x_edge, float(np.dot(h.weights, x_edge)))


def extract_ecc_solution(
    h: EdgeColoredHypergraph,
    result: LpResult | np.ndarray | list,
) -> EccLpSolution:
    """Extract the solution from a solver result or an external primal vector."""
    if isinstance(result, LpResult):
        result.require_optimal()
        vector = result.x
    else:
        vector = result
    return solution_from_vector(h, vector, tighten=True)
