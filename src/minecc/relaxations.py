"""LP relaxations: the clustering relaxation and the multiway-cut relaxation.

The clustering relaxation has a distance variable ``xn_v_i`` between every node
and every color plus a mistake variable ``xe_j`` per edge:

    min  sum_j w_j xe_j
    s.t. sum_i xn_v_i = k - 1           for every node v
         xe_j >= xn_v_c                 for every edge j of color c, v in j
         all variables in [0, 1]

Its compact form (``build_ecc_lp(h, compact=True)``) has the same optimal
value on fewer variables. A distance to a color that none of v's edges has
occurs only in v's sum row, so it can sit at 1; the node then keeps one
variable per color of its edges, C_v, with the row
``sum_{c in C_v} xn_v_c = |C_v| - 1``. A node with one such color has that
distance at 0 and drops out, and so does a node without edges, as do the
membership rows of both. :func:`extract_ecc_solution` tells a compact primal
by its length and fills the full ``(n, k)`` distances back in: 1 for an
absent color, 0 for a single-color node's color, and 0 on color 1 for a node
without edges, so the filled solution passes :meth:`EccLpSolution.violations`.
Where the two lengths agree, the models have the same columns.

A basic optimum of the compact model fills to a basic optimum of the full
one, so the compact model is the one to solve for rounding as well as for a
bound. Fixing the absent colors' distances at 1, and the distances of
single-color and edgeless nodes at the fill's values, sets variables at their
bounds, so it cuts a face out of the full polytope. That face is the compact
model: under the fixing, each sum row left reads
``sum_{c in C_v} xn_v_c = |C_v| - 1``, the other sum rows hold, and each
membership row dropped reads ``xe_j >= 0``. A vertex of a face is a vertex of
the polytope, so the filled point is a vertex of the full model, and an
optimal one, as both models have the same optimal value. In particular it is
0/1 at ``k = 2``, as every vertex of the full model is there (criterion 9
of the acceptance tests). Only a primal that
carries the full model's ``xn_v_i`` names (a ``--solution`` file, ``export``)
needs the full model built.

The two models differ only in which nodes get a sum row and which
``(node, color)`` cells a column (:func:`_node_colors`), so one column map
builds both and one fill reads both primals back.

The multiway-cut relaxation is built over the reduced terminal graph (one
terminal per color, one deletable node per hyperedge, original nodes kept
undeletable) using the polynomial distance formulation with ``y_u_i`` node-to-
cluster distances and ``d_j`` deletion variables:

    min  sum_j w_j d_j
    s.t. y_b_i - y_a_i - d_j <= 0       for every reduced-graph edge (a, b),
         y_a_i - y_b_i <= 0             b = n + j the node of edge j, every i
         y_t_c = 0, y_t_i >= 1          for the terminal t of color c, i != c
         all variables >= 0

Its rows come edge by edge (each member of edge j, then j's terminal), color
by color within an edge, the two rows of a pair in the order above; then
the terminal rows, color by color, ``y_t_c = 0`` first.

Both builders compute their columns and rows from the instance arrays and
make the LP in one constructor call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import EdgeColoredHypergraph, _with_terminals
from .lp import EQ, GE, LE, VIOLATION_TOL, LinearProgram, LpResult, Rows

SNAP_TOL = 1e-7


def build_ecc_lp(h: EdgeColoredHypergraph, *, compact: bool = False) -> LinearProgram:
    """Build the clustering relaxation for ``h``, or with ``compact`` its compact form.

    Columns: the node distances, node by node and color by color, then one
    ``xe_j`` per edge. Rows: one sum row per node with distances, then one
    row per membership whose node has a distance to the edge's color, in
    edge order.
    """
    n, k, m = h.num_nodes, h.num_colors, h.num_edges
    _, has_row, kept = _node_colors(h, compact)
    cols = np.flatnonzero(kept)
    sizes = kept.sum(axis=1)[has_row]
    column = np.full(n * k, -1, dtype=np.int64)
    column[cols] = np.arange(len(cols))
    edge_of = h.member_edges()
    var = column[h.members * k + h.colors[edge_of] - 1]  # column of x_v^c, or -1
    keep = np.flatnonzero(var >= 0)
    var = var[keep]
    nv = len(cols)

    def names() -> list[str]:
        v, i = np.divmod(cols, max(k, 1))
        return ([f"xn_{a}_{b}" for a, b in zip(v.tolist(), (i + 1).tolist())]
                + [f"xe_{j}" for j in range(m)])

    # Membership rows read [x_v^c, xe_j] = [-1, 1] >= 0; x_v^c comes first.
    pairs = np.column_stack([var, nv + edge_of[keep]]).ravel()
    rows = len(pairs) // 2
    return LinearProgram(np.concatenate([np.zeros(nv), h.weights]), 0.0, 1.0, names, Rows(
        np.concatenate([[0], np.cumsum(sizes), nv + 2 * np.arange(1, rows + 1)]),
        np.concatenate([np.arange(nv), pairs]),
        np.concatenate([np.ones(nv), np.tile([-1.0, 1.0], rows)]),
        np.concatenate([np.full(len(sizes), EQ), np.full(rows, GE)]),
        np.concatenate([sizes - 1.0, np.zeros(rows)]),
    ))


def _node_colors(h: EdgeColoredHypergraph, compact: bool) -> tuple[np.ndarray, ...]:
    """Masks: the colors of each node's edges, and the model's sum rows and
    node variables. The full model has every row (at ``k = 0``, each an empty
    ``0 = -1``) and variable; the compact one has them at nodes whose edges
    have two or more colors, for those colors."""
    present = np.zeros((h.num_nodes, h.num_colors), dtype=bool)
    present[h.members, h.colors[h.member_edges()] - 1] = True
    if not compact:
        return present, np.ones(h.num_nodes, dtype=bool), np.ones_like(present)
    rows = present.sum(axis=1) >= 2
    return present, rows, present & rows[:, None]


def build_nodemc_lp(h: EdgeColoredHypergraph) -> LinearProgram:
    """Build the multiway-cut relaxation over the reduced graph of ``h``.

    Reduced-graph node indices: original nodes ``0..n-1``, one node per
    hyperedge ``n..n+m-1``, one terminal per color after that. Only hyperedge
    nodes are deletable; everything else has its deletion distance fixed to
    zero (never encoded as a large weight). Columns: ``y_u_i`` node by node
    and color by color, then one ``d_j`` per edge. Rows as the module
    docstring lays them out. An invalid ``h`` raises ``ValueError`` with the
    first problem of :func:`~minecc.hypergraph.validate`.
    """
    n, m, k = h.num_nodes, h.num_edges, h.num_colors
    total_nodes = n + m + k

    def names() -> list[str]:
        return ([f"y_{u}_{i}" for u in range(total_nodes) for i in range(1, k + 1)]
                + [f"d_{j}" for j in range(m)])

    # Reduced-graph edges (a, n + j): each member a of edge j, then j's terminal.
    a = _with_terminals(h, n + m)
    j = np.repeat(np.arange(m), np.diff(h.eptr) + 1)
    # Per edge and color i, rows y_b - y_a - d_j <= 0 and y_a - y_b <= 0 with
    # b = n + j. A member's column comes before y_b, a terminal's after it.
    ya = (a[:, None] * k + np.arange(k)).ravel()
    yb = ((n + j)[:, None] * k + np.arange(k)).ravel()
    member = np.repeat(a < n, k)
    lo, hi = np.where(member, ya, yb), np.where(member, yb, ya)
    sign = np.where(member, 1.0, -1.0)  # the coefficient of lo in y_a - y_b
    d = np.repeat(total_nodes * k + j, k)
    pairs = len(ya)
    # Per color c: y_t_c = 0, then y_t_i >= 1 for each other color i in order.
    colors_first = np.argsort(~np.eye(k, dtype=bool), axis=1, kind="stable")
    is_own = np.tile(np.arange(k) == 0, k)
    objective = np.concatenate([np.zeros(total_nodes * k), h.weights])
    return LinearProgram(objective, 0.0, math.inf, names, Rows(
        np.concatenate([(5 * np.arange(pairs)[:, None] + [0, 3]).ravel(),
                        5 * pairs + np.arange(k * k + 1)]),
        np.concatenate([np.column_stack([lo, hi, d, lo, hi]).ravel(),
                        ((n + m + np.arange(k))[:, None] * k + colors_first).ravel()]),
        np.concatenate([np.column_stack([-sign, sign, np.full(pairs, -1.0), sign, -sign]).ravel(),
                        np.ones(k * k)]),
        np.concatenate([np.full(2 * pairs, LE), np.where(is_own, EQ, GE)]),
        np.concatenate([np.zeros(2 * pairs), np.where(is_own, 0.0, 1.0)]),
    ))


@dataclass(frozen=True)
class EccLpSolution:
    """Fractional solution of the clustering relaxation.

    ``x_node[v, i-1]`` is the distance between node ``v`` and color ``i``;
    ``x_edge[j]`` is the mistake variable of edge ``j``.
    """

    x_node: np.ndarray
    x_edge: np.ndarray
    objective: float

    def violations(self, h: EdgeColoredHypergraph) -> list[str]:
        """Check the relaxation invariants; empty list iff feasible within ``VIOLATION_TOL``."""
        problems: list[str] = []
        n, k, tol = h.num_nodes, h.num_colors, VIOLATION_TOL
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
    """Each edge's largest member distance to the edge's color; 0 for an edge
    without members, which no coloring can make a mistake on."""
    edge_of = h.member_edges()
    reach = np.full(h.num_edges, -np.inf)
    np.maximum.at(reach, edge_of, x_node[h.members, h.colors[edge_of] - 1])
    reach[h.eptr[1:] == h.eptr[:-1]] = 0.0
    return reach


def _snap(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a[np.abs(a) <= SNAP_TOL] = 0.0
    a[np.abs(a - 1.0) <= SNAP_TOL] = 1.0
    return a


def extract_ecc_solution(
    h: EdgeColoredHypergraph, x: LpResult | np.ndarray | list
) -> EccLpSolution:
    """The :class:`EccLpSolution` of a primal of the full or the compact model.

    ``x`` is an optimal :class:`LpResult` or a raw vector; its length says
    which model it is a primal of, and the distances that the model has no
    column for are filled in as the module docstring says. Values within
    ``1e-7`` of a bound are snapped to it; the edge variables are kept as
    given, so a checker sees the primal's own ``x_e``.
    """
    if isinstance(x, LpResult):
        x = x.require_optimal().x
    m = h.num_edges
    x = np.asarray(x, dtype=float)
    full = h.num_nodes * h.num_colors + m
    present, _, kept = _node_colors(h, compact=x.size != full)
    size = int(kept.sum()) + m
    if x.shape != (size,):
        raise ValueError(f"primal vector has length {x.shape}, expected {size} or {full}")
    x_node = np.where(present, 0.0, 1.0)
    x_node[~present.any(axis=1), :1] = 0.0
    x_node[kept] = _snap(x[: size - m])
    x_edge = _snap(x[size - m:])
    return EccLpSolution(x_node, x_edge, float(np.dot(h.weights, x_edge)))
