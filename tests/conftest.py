"""Shared helpers: independent re-implementations used as oracles in tests."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from minecc.combinatorial import DeletionSet
from minecc.hypergraph import (
    ColorSortedIncidence,
    CostReport,
    EdgeColoredHypergraph,
    from_flat,
    hypergraph,
)
from minecc.instances import ParseError, PlantedInstance
from minecc.oracle import DEFAULT_CAP, PRUNE_SHRINK, CapExceededError, OracleResult
from minecc.relaxations import EccLpSolution, _snap
from minecc import lp as lp_module
from minecc.lp import (
    DEGENERATE_RUN_LIMIT,
    EQ,
    GE,
    LE,
    PIVOT_TOL,
    RELATIONS,
    LinearProgram,
    LpResult,
    Rows,
)

# The two-phase references' own constants: the phase-1 tolerance above which
# a program is infeasible, and the relation of a negated row.
FEAS_TOL = 1e-7
_FLIPPED = np.array([GE, LE, EQ], dtype=np.int8)

# Weights that tie, miss in float sums, or sit at the ends of the float range;
# the array-core tests and the oracle differential draw from them.
ARRAY_CORE_WEIGHTS = (1.0, 0.0, 2.0, 0.1, 2.5, 1 / 3, 7e-3, 1e15, 1e20, 5e-324)


@dataclass(frozen=True)
class Edge:
    """One colored hyperedge in the per-edge layout the package used to keep:
    sorted deduplicated members, a color, a weight."""

    members: tuple[int, ...]
    color: int
    weight: float = 1.0

    def __len__(self) -> int:
        return len(self.members)


def edges_of(h: EdgeColoredHypergraph) -> tuple[Edge, ...]:
    """The edges of ``h`` as :class:`Edge` objects, read off the four arrays."""
    members, bounds = h.members.tolist(), h.eptr.tolist()
    return tuple(
        Edge(tuple(members[a:b]), c, w)
        for a, b, c, w in zip(bounds, bounds[1:], h.colors.tolist(), h.weights.tolist())
    )


def naive_cost(h: EdgeColoredHypergraph, coloring) -> tuple[float, set[int]]:
    """Second, independent objective evaluation (set-based, per edge)."""
    mistakes = set()
    total = 0.0
    for j, e in enumerate(edges_of(h)):
        colors_seen = {coloring[v] for v in e.members}
        if colors_seen != {e.color}:
            mistakes.add(j)
            total += e.weight
    return total, mistakes


def exhaustive_ecc(h: EdgeColoredHypergraph, chunk: int = 1 << 18) -> float:
    """Plain exhaustive minimum over all k^n colorings (no pruning); tiny instances only.

    Coloring number ``i`` gives node ``v`` the color ``(i // k**v) % k + 1``;
    the colorings are scored ``chunk`` at a time with numpy.
    """
    k, n = h.num_colors, h.num_nodes
    count = k**n
    best = math.inf
    for start in range(0, count, chunk):
        index = np.arange(start, min(start + chunk, count), dtype=np.int64)
        colors = [index // k**v % k + 1 for v in range(n)]
        cost = np.zeros(len(index))
        for e in edges_of(h):
            satisfied = np.full(len(index), bool(e.members))
            for v in e.members:
                satisfied &= colors[v] == e.color
            cost += np.where(satisfied, 0.0, e.weight)
        best = min(best, float(cost.min()))
    return best


def random_instance(rng: np.random.Generator, n: int, m: int, k: int, max_size: int = 3):
    """Unstructured random instance (not planted), for adversarial-ish coverage."""
    edges = []
    for _ in range(m):
        size = int(rng.integers(1, max_size + 1))
        members = rng.choice(n, size=min(size, n), replace=False)
        edges.append((tuple(int(v) for v in members), int(rng.integers(1, k + 1))))
    return hypergraph(n, k, edges)


def reference_incident_lists(h: EdgeColoredHypergraph) -> list[list[int]]:
    """Each node's edges by color, ties by index: a Python sort of the
    ``(node, color, edge)`` triples, right for colors outside ``[1, k]`` too."""
    members, bounds, colors = h.members.tolist(), h.eptr.tolist(), h.colors.tolist()
    lists: list[list[int]] = [[] for _ in range(h.num_nodes)]
    for v, _, j in sorted((v, colors[j], j) for j in range(h.num_edges)
                          for v in members[bounds[j]:bounds[j + 1]]):
        lists[v].append(j)
    return lists


def reference_visit_order(n: int, order_seed: int | None):
    """The walks' node order: ascending, or shuffled by ``order_seed``."""
    if order_seed is None:
        return range(n)
    return np.random.default_rng(order_seed).permutation(n).tolist()


def reference_pitt_coloring(
    h: EdgeColoredHypergraph, seed: int, order_seed: int | None = None
) -> tuple[DeletionSet, list[int]]:
    """The sampling walk as its own loop; the reference for ``pitt_coloring``."""
    lists = reference_incident_lists(h)
    colors, weights = h.colors.tolist(), h.weights.tolist()
    deleted = bytearray(h.num_edges)
    rng = np.random.default_rng(seed)
    rand = rng.random
    for v in reference_visit_order(h.num_nodes, order_seed):
        lst = lists[v]
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
            if wf + wb <= 0.0:
                deleted[ef] = 1
                deleted[eb] = 1
                f += 1
                b -= 1
            elif rand() < wf / (wf + wb):
                deleted[eb] = 1
                b -= 1
            else:
                deleted[ef] = 1
                f += 1
    dels = DeletionSet(deleted, float(sum(w for w, gone in zip(weights, deleted) if gone)))
    return dels, reference_color_survivors(h, dels.flags)


def reference_match_coloring(
    h: EdgeColoredHypergraph, order_seed: int | None = None
) -> tuple[DeletionSet, list[int], float]:
    """The matching walk as its own loop; the reference for ``match_coloring``."""
    lists = reference_incident_lists(h)
    colors, weights = h.colors.tolist(), h.weights.tolist()
    deleted = bytearray(h.num_edges)
    bound = 0.0
    for v in reference_visit_order(h.num_nodes, order_seed):
        lst = lists[v]
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
            deleted[ef] = 1
            deleted[eb] = 1
            bound += min(weights[ef], weights[eb])
            f += 1
            b -= 1
    dels = DeletionSet(deleted, float(sum(w for w, gone in zip(weights, deleted) if gone)))
    return dels, reference_color_survivors(h, dels.flags), bound


# The per-edge loops that the array code of ``hypergraph``, ``instances``,
# ``combinatorial``, ``relaxations``, ``reductions`` and ``oracle`` replaced,
# kept verbatim as references (apart from their names, ``edges_of(h)`` where
# they read the removed ``h.edges`` view, and a reference instance being the
# tuple (num_nodes, num_colors, edges) of the old object layout).


def reference_hypergraph(num_nodes, num_colors, edges):
    """The old tuple-of-Edge constructor; the reference for ``hypergraph``."""
    built: list[Edge] = []
    for spec in edges:
        if len(spec) == 2:
            (members, color), weight = spec, 1.0
        else:
            members, color, weight = spec
        uniq = tuple(sorted(set(members)))
        if not uniq:
            raise ValueError("hyperedge has no members after deduplication")
        built.append(Edge(uniq, int(color), float(weight)))
    return (num_nodes, num_colors, tuple(built))


def reference_parse_canonical(text: str):
    """The old line-by-line parser; the reference for ``parse_canonical``."""
    header: tuple[int, int, int] | None = None
    edges: list[tuple[tuple[int, ...], int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 4 or tokens[0] != "ecc":
                raise ParseError("expected header 'ecc <nodes> <edges> <colors>'", lineno)
            try:
                header = (int(tokens[1]), int(tokens[2]), int(tokens[3]))
            except ValueError:
                raise ParseError("non-integer header field", lineno) from None
            if min(header) < 0:
                raise ParseError("negative header field", lineno)
            continue
        n, m, k = header
        if len(edges) >= m:
            raise ParseError(f"more than the declared {m} edges", lineno)
        if len(tokens) < 3:
            raise ParseError("edge line needs '<color> <weight> <ids...>'", lineno)
        try:
            color = int(tokens[0])
            weight = float(tokens[1])
            members = tuple(int(t) for t in tokens[2:])
        except ValueError:
            raise ParseError("bad token in edge line", lineno) from None
        if not (1 <= color <= k):
            raise ParseError(f"color {color} out of range [1, {k}]", lineno)
        if not (weight >= 0.0) or weight != weight or weight == float("inf"):
            raise ParseError(f"weight {tokens[1]} is not a nonnegative finite number", lineno)
        for v in members:
            if not (0 <= v < n):
                raise ParseError(f"node id {v} out of range [0, {n})", lineno)
        edges.append((members, color, weight))
    if header is None:
        raise ParseError("empty input, no header found")
    n, m, k = header
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but file has {len(edges)}")
    return reference_hypergraph(n, k, edges)


def reference_validate(h: EdgeColoredHypergraph) -> list[str]:
    """The old per-edge validation; the reference for ``validate``."""
    problems: list[str] = []
    if h.num_nodes < 0:
        problems.append(f"num_nodes is negative: {h.num_nodes}")
    if h.num_colors < 0:
        problems.append(f"num_colors is negative: {h.num_colors}")
    for j, e in enumerate(edges_of(h)):
        if not e.members:
            problems.append(f"edge {j} is empty")
        if len(set(e.members)) != len(e.members):
            problems.append(f"edge {j} has duplicate members")
        for v in e.members:
            if not (0 <= v < h.num_nodes):
                problems.append(f"edge {j} member {v} out of range [0, {h.num_nodes})")
        if not (1 <= e.color <= h.num_colors):
            problems.append(f"edge {j} color {e.color} out of range [1, {h.num_colors}]")
        if not (0.0 <= e.weight < math.inf):
            problems.append(f"edge {j} weight {e.weight} is not a nonnegative finite number")
    return problems


def reference_objective_cost(h: EdgeColoredHypergraph, coloring, truth=None) -> CostReport:
    """The old per-edge evaluation; the reference for ``objective_cost``."""
    if len(coloring) != h.num_nodes:
        raise ValueError(
            f"coloring has length {len(coloring)}, instance has {h.num_nodes} nodes"
        )
    mistakes: list[int] = []
    cost = 0.0
    for j, e in enumerate(edges_of(h)):
        c = e.color
        if any(coloring[v] != c for v in e.members):
            mistakes.append(j)
            cost += e.weight
    m = h.num_edges
    satisfaction = 1.0 if m == 0 else 1.0 - len(mistakes) / m
    acc = reference_accuracy(coloring, truth) if truth is not None else None
    return CostReport(cost, satisfaction, acc)


def reference_accuracy(coloring, truth) -> float:
    """The old per-node count; the reference for ``accuracy``."""
    if len(coloring) != len(truth):
        raise ValueError("coloring and truth have different lengths")
    if not truth:
        return 1.0
    agree = sum(1 for a, b in zip(coloring, truth) if a == b)
    return agree / len(truth)


def reference_build_incidence(h: EdgeColoredHypergraph) -> ColorSortedIncidence:
    """The old incidence build from the edge objects; the reference for ``build_incidence``."""
    n, k, m = h.num_nodes, h.num_colors, h.num_edges
    edges = edges_of(h)
    sizes = np.fromiter((len(e.members) for e in edges), dtype=np.int64, count=m)
    total = int(sizes.sum()) if m else 0
    flat_v = np.fromiter(
        itertools.chain.from_iterable(e.members for e in edges),
        dtype=np.int64,
        count=total,
    )
    flat_j = np.repeat(np.arange(m, dtype=np.int64), sizes)
    colors = np.fromiter((e.color for e in edges), dtype=np.int64, count=m)
    key = flat_v * np.int64(k + 1) + colors[flat_j]
    order = np.argsort(key, kind="stable")  # a timsort: numpy radix-sorts only <= 16-bit ints
    edge_ids = flat_j[order].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if total:
        np.cumsum(np.bincount(flat_v, minlength=n), out=indptr[1:])
    return ColorSortedIncidence(indptr, edge_ids)


def reference_find_bad_pair(h: EdgeColoredHypergraph, deleted=()) -> tuple[int, int] | None:
    """The old per-node scan; the reference for ``find_bad_pair``."""
    colors = h.colors.tolist()
    for lst in reference_incident_lists(h):
        first = -1
        for j in lst:
            if j in deleted:
                continue
            if first < 0:
                first = j
            elif colors[j] != colors[first]:
                return (first, j)
    return None


def reference_majority_vote(h: EdgeColoredHypergraph) -> list[int]:
    """The old ``np.add.at`` vote; the reference for ``majority_vote``."""
    n, k = h.num_nodes, h.num_colors
    if k < 1:
        return [1] * n
    counts = np.zeros((n, max(k, 1)))
    nodes: list[int] = []
    cols: list[int] = []
    wts: list[float] = []
    for e in edges_of(h):
        nodes.extend(e.members)
        cols.extend([e.color - 1] * len(e.members))
        wts.extend([e.weight] * len(e.members))
    if nodes:
        np.add.at(counts, (np.array(nodes), np.array(cols)), np.array(wts))
    return [int(c) for c in counts.argmax(axis=1) + 1]


def reference_mv_lower_bound(h: EdgeColoredHypergraph, mv_coloring) -> float:
    """The old per-edge mismatch count; the reference for ``mv_lower_bound``."""
    r = h.rank
    if r == 0:
        return 0.0
    total = 0.0
    for e in edges_of(h):
        bad = sum(1 for v in e.members if mv_coloring[v] != e.color)
        total += e.weight * bad
    return total / r


def reference_color_survivors(h: EdgeColoredHypergraph, deleted) -> list[int]:
    """The old overwrite loop; the reference for ``_color_survivors``."""
    coloring = [1] * h.num_nodes
    for j, e in enumerate(edges_of(h)):
        if not deleted[j]:
            for v in e.members:
                coloring[v] = e.color
    return coloring


def reference_recolor_uncovered(h: EdgeColoredHypergraph, dels: DeletionSet, base, mv):
    """The old per-edge cover loop; the reference for ``recolor_uncovered``."""
    covered = bytearray(h.num_nodes)
    for j, e in enumerate(edges_of(h)):
        if not dels.flags[j]:
            for v in e.members:
                covered[v] = 1
    recolored = [base[v] if covered[v] else mv[v] for v in range(h.num_nodes)]
    if (
        reference_objective_cost(h, recolored).total_cost
        > reference_objective_cost(h, base).total_cost
    ):
        return base
    return recolored


def lp_from_rows(sense: str, cols, rows, constant: float = 0.0) -> LinearProgram:
    """A model written out by hand: ``cols`` as ``(name, lo, hi, obj)`` and
    ``rows`` as ``(coeffs, rel, rhs)`` with ``(column, coefficient)`` pairs in
    any order, made with one constructor call."""
    indptr, indices, data = [0], [], []
    for coeffs, _, _ in rows:
        for j, a in sorted(coeffs):
            indices.append(j)
            data.append(a)
        indptr.append(len(indices))
    names, lo, hi, obj = zip(*cols) if cols else ((),) * 4
    return LinearProgram(
        obj, lo, hi, names,
        Rows(indptr, indices, data, [RELATIONS.index(rel) for _, rel, _ in rows],
             [rhs for _, _, rhs in rows]),
        sense=sense, constant=constant,
    )


def highs_value(lp: LinearProgram) -> float:
    """``lp``'s optimal value from scipy's HiGHS, the external reference for
    ``solve``; the caller skips when scipy is missing."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    rows = lp.rows
    a = csr_matrix((rows.data, rows.indices, rows.indptr), shape=(lp.num_rows, lp.num_vars))
    a_ub = a[rows.rel != EQ].multiply(np.where(rows.rel == LE, 1.0, -1.0)[rows.rel != EQ, None])
    b_ub = np.where(rows.rel == LE, rows.rhs, -rows.rhs)[rows.rel != EQ]
    sign = 1.0 if lp.sense == "min" else -1.0
    res = linprog(sign * lp.objective, A_ub=a_ub.tocsr(), b_ub=b_ub,
                  A_eq=a[rows.rel == EQ], b_eq=rows.rhs[rows.rel == EQ],
                  bounds=np.column_stack([lp.lower, lp.upper]), method="highs")
    assert res.status == 0
    return sign * res.fun + lp.constant


def reference_num(x: float) -> str:
    """The old scalar number formatter; the reference for the writers' numbers."""
    x = float(x)
    if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def reference_export_lp_text(lp: LinearProgram) -> str:
    """The old per-row writer over ``lp.constraints``; the reference for ``export_lp_text``."""

    def term(coef: float, name: str, first: bool) -> str:
        sign = "- " if coef < 0 else ("" if first else "+ ")
        mag = abs(coef)
        body = name if mag == 1.0 else f"{reference_num(mag)} {name}"
        return sign + body

    lines = ["Maximize" if lp.sense == "max" else "Minimize"]
    obj_terms: list[str] = []
    names = lp.names
    for j, coef in enumerate(lp.objective.tolist()):
        if coef != 0.0:
            obj_terms.append(term(coef, names[j], not obj_terms))
    if lp.constant != 0.0:
        sign = "- " if lp.constant < 0 else ("" if not obj_terms else "+ ")
        obj_terms.append(sign + reference_num(abs(lp.constant)))
    lines.append(" obj: " + (" ".join(obj_terms) if obj_terms else "0"))
    lines.append("Subject To")
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        parts: list[str] = []
        for j, coef in coeffs:
            if coef != 0.0:
                parts.append(term(coef, names[j], not parts))
        body = " ".join(parts) if parts else "0 " + names[0]
        lines.append(f" c{i}: {body} {rel} {reference_num(rhs)}")
    lines.append("Bounds")
    for name, lo, hi in zip(names, lp.lower.tolist(), lp.upper.tolist()):
        if hi != math.inf:
            lines.append(f" {reference_num(lo)} <= {name} <= {reference_num(hi)}")
        elif lo == 0.0:
            lines.append(f" {name} >= 0")
        elif lo == -math.inf:
            lines.append(f" {name} free")
        else:
            lines.append(f" {name} >= {reference_num(lo)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def reference_build_ecc_lp(h: EdgeColoredHypergraph) -> LinearProgram:
    """The old per-edge builder; the reference for ``build_ecc_lp``."""
    n, k = h.num_nodes, h.num_colors
    edges = edges_of(h)
    cols = [(f"xn_{v}_{i}", 0.0, 1.0, 0.0) for v in range(n) for i in range(1, k + 1)]
    cols += [(f"xe_{j}", 0.0, 1.0, e.weight) for j, e in enumerate(edges)]
    rows = [([(v * k + i, 1.0) for i in range(k)], "=", float(k - 1)) for v in range(n)]
    for j, e in enumerate(edges):
        xe = n * k + j
        for v in e.members:
            rows.append(([(xe, 1.0), (v * k + e.color - 1, -1.0)], ">=", 0.0))
    return lp_from_rows("min", cols, rows)


def reference_build_nodemc_lp(h: EdgeColoredHypergraph) -> LinearProgram:
    """The old per-edge builder; the reference for ``build_nodemc_lp``."""
    edges = edges_of(h)
    n, m, k = h.num_nodes, len(edges), h.num_colors
    total_nodes = n + m + k

    cols = [(f"y_{u}_{i}", 0.0, math.inf, 0.0)
            for u in range(total_nodes) for i in range(1, k + 1)]
    d_offset = total_nodes * k
    cols += [(f"d_{j}", 0.0, math.inf, e.weight) for j, e in enumerate(edges)]

    def y(u: int, i: int) -> int:
        return u * k + (i - 1)

    graph_edges: list[tuple[int, int]] = []
    for j, e in enumerate(edges):
        enode = n + j
        for v in e.members:
            graph_edges.append((v, enode))
        graph_edges.append((n + m + e.color - 1, enode))

    deletable = {n + j: d_offset + j for j in range(m)}
    rows = []
    for a, bnode in graph_edges:
        for i in range(1, k + 1):
            # y_b_i <= y_a_i + d_b and the reverse orientation.
            row = [(y(bnode, i), 1.0), (y(a, i), -1.0)]
            if bnode in deletable:
                row.append((deletable[bnode], -1.0))
            rows.append((row, "<=", 0.0))
            row = [(y(a, i), 1.0), (y(bnode, i), -1.0)]
            if a in deletable:
                row.append((deletable[a], -1.0))
            rows.append((row, "<=", 0.0))
    for c in range(1, k + 1):
        t = n + m + c - 1
        rows.append(([(y(t, c), 1.0)], "=", 0.0))
        for i in range(1, k + 1):
            if i != c:
                rows.append(([(y(t, i), 1.0)], ">=", 1.0))
    return lp_from_rows("min", cols, rows)


def reference_violations(x: EccLpSolution, h: EdgeColoredHypergraph, tol: float = 1e-6) -> list[str]:
    """The old per-edge check; the reference for ``EccLpSolution.violations``."""
    problems: list[str] = []
    n, k = h.num_nodes, h.num_colors
    edges = edges_of(h)
    if x.x_node.shape != (n, k):
        return [f"x_node has shape {x.x_node.shape}, expected {(n, k)}"]
    if x.x_edge.shape != (len(edges),):
        return [f"x_edge has shape {x.x_edge.shape}, expected {(len(edges),)}"]
    if np.any(x.x_node < -tol) or np.any(x.x_node > 1 + tol):
        problems.append("node distances outside [0, 1]")
    if np.any(x.x_edge < -tol) or np.any(x.x_edge > 1 + tol):
        problems.append("edge distances outside [0, 1]")
    sums = x.x_node.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - (k - 1)) > tol)
    for v in bad:
        problems.append(f"node {v}: color distances sum to {sums[v]:.9f}, expected {k - 1}")
    for j, e in enumerate(edges):
        reach = max(x.x_node[v, e.color - 1] for v in e.members)
        if x.x_edge[j] < reach - tol:
            problems.append(
                f"edge {j}: x_e = {x.x_edge[j]:.9f} below max member distance {reach:.9f}"
            )
    return problems


def reference_extract_ecc_solution(h: EdgeColoredHypergraph, x) -> EccLpSolution:
    """The old assembly of a full-model primal; the reference for ``extract_ecc_solution``."""
    edges = edges_of(h)
    n, k, m = h.num_nodes, h.num_colors, len(edges)
    x = np.asarray(x, dtype=float)
    if x.shape != (n * k + m,):
        raise ValueError(f"primal vector has length {x.shape}, expected {n * k + m}")
    x_node = _snap(x[: n * k].reshape(n, k))
    x_edge = _snap(x[n * k:])
    weights = np.array([e.weight for e in edges])
    return EccLpSolution(x_node, x_edge, float(np.dot(weights, x_edge)))


def reference_node_colors(h: EdgeColoredHypergraph) -> tuple[np.ndarray, np.ndarray]:
    """The colors of each node's edges, and the compact model's node variables."""
    present = np.zeros((h.num_nodes, h.num_colors), dtype=bool)
    present[h.members, h.colors[h.member_edges()] - 1] = True
    return present, present & (present.sum(axis=1) >= 2)[:, None]


def reference_build_compact_ecc_lp(h: EdgeColoredHypergraph) -> LinearProgram:
    """The compact model written out row by row from its node-color mask;
    the reference for ``build_ecc_lp(h, compact=True)``."""
    n, k = h.num_nodes, h.num_colors
    kept = reference_node_colors(h)[1]
    column: dict[tuple[int, int], int] = {}
    cols, rows = [], []
    for v in range(n):
        mine = []
        for i in np.flatnonzero(kept[v]).tolist():
            column[v, i] = len(cols)
            mine.append((len(cols), 1.0))
            cols.append((f"xn_{v}_{i + 1}", 0.0, 1.0, 0.0))
        if mine:
            rows.append((mine, "=", len(mine) - 1.0))
    xe = len(cols)
    cols += [(f"xe_{j}", 0.0, 1.0, w) for j, w in enumerate(h.weights.tolist())]
    for j, c in enumerate(h.colors.tolist()):
        for v in h.members[h.eptr[j]:h.eptr[j + 1]].tolist():
            if (v, c - 1) in column:
                rows.append(([(column[v, c - 1], -1.0), (xe + j, 1.0)], ">=", 0.0))
    return lp_from_rows("min", cols, rows)


def reference_compact_extract_ecc_solution(h: EdgeColoredHypergraph, x) -> EccLpSolution:
    """The compact fill of the two-branch assembly; the reference for
    ``extract_ecc_solution`` on a compact-model primal."""
    m = h.num_edges
    x = np.asarray(x, dtype=float)
    present, kept = reference_node_colors(h)
    size = int(kept.sum()) + m
    if x.shape != (size,):
        raise ValueError(f"primal vector has length {x.shape}, expected {size}")
    x_node = np.where(present, 0.0, 1.0)
    x_node[~present.any(axis=1), :1] = 0.0
    x_node[kept] = _snap(x[: size - m])
    x_edge = _snap(x[size - m:])
    return EccLpSolution(x_node, x_edge, float(np.dot(h.weights, x_edge)))


def reference_check_feasible(h: EdgeColoredHypergraph, x: EccLpSolution) -> None:
    problems = x.violations(h)
    if problems:
        raise ValueError("infeasible relaxation solution: " + "; ".join(problems[:3]))


def reference_gen_color_round(h: EdgeColoredHypergraph, x: EccLpSolution, interval, seed: int) -> list[int]:
    """The scalar-threshold rounding; the reference for ``gen_color_round``."""
    reference_check_feasible(h, x)
    k = h.num_colors
    rng = np.random.default_rng(seed)
    while True:  # open interval: reject boundary draws of the unit sample
        u = rng.random()
        if 0.0 < u < 1.0:
            break
    rho = interval.lo + (interval.hi - interval.lo) * u
    perm = rng.permutation(k)  # perm[step] = color index assigned at that step
    priority = np.empty(k, dtype=np.int64)
    priority[perm] = np.arange(k)
    score = np.where(x.x_node < rho, priority[None, :], -1)
    return [int(c) for c in score.argmax(axis=1) + 1]


def reference_estimate_mistake_prob(
    h: EdgeColoredHypergraph, x: EccLpSolution, interval, edge_index: int, trials: int, seed: int
) -> tuple[float, float]:
    """The per-member trial loop; the reference for ``estimate_mistake_prob``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    reference_check_feasible(h, x)
    if not (0 <= edge_index < h.num_edges):
        raise IndexError(f"edge index {edge_index} out of range")
    members = h.members[h.eptr[edge_index]:h.eptr[edge_index + 1]]
    color = int(h.colors[edge_index])
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


def reference_rounding_invariant_violations(
    h: EdgeColoredHypergraph, x: EccLpSolution, tol: float = 1e-7
) -> list[str]:
    """A per-edge loop over each edge's sorted color thresholds; the reference
    for ``rounding_invariant_violations`` on instances without empty edges."""
    problems: list[str] = []
    k = h.num_colors
    if k <= 1:
        return problems
    t_max = k // 2 if h.rank == 2 else 1
    for j in range(h.num_edges):
        members = h.members[h.eptr[j]:h.eptr[j + 1]].tolist()
        own = int(h.colors[j]) - 1
        # z[t - 1] is z_t: the t-th smallest of the member minima of the other colors
        z = sorted(min(float(x.x_node[v, c]) for v in members) for c in range(k) if c != own)
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


def reference_bad_edge_pairs(h: EdgeColoredHypergraph) -> tuple[tuple[int, int], ...]:
    """The old per-node pair scan over the edge objects; the reference for ``bad_edge_pairs``."""
    edges = edges_of(h)
    incident: list[list[int]] = [[] for _ in range(h.num_nodes)]
    for j, e in enumerate(edges):
        for v in e.members:
            incident[v].append(j)
    pairs: set[tuple[int, int]] = set()
    for lst in incident:
        for a in range(len(lst)):
            for b in range(a + 1, len(lst)):
                e, f = lst[a], lst[b]
                if edges[e].color != edges[f].color:
                    pairs.add((e, f) if e < f else (f, e))
    return tuple(sorted(pairs))


def reference_ecc_to_node_mc(h: EdgeColoredHypergraph):
    """The old per-edge terminal-graph loop; the reference for ``ecc_to_node_mc``.

    Returns the old object layout (num_nodes, weights, edges, terminals,
    undeletable), tuples and a frozenset.
    """
    n, m, k = h.num_nodes, h.num_edges, h.num_colors
    weights = [math.inf] * n + h.weights.tolist() + [math.inf] * k
    members, bounds = h.members.tolist(), h.eptr.tolist()
    edges: list[tuple[int, int]] = []
    for j, (a, b, c) in enumerate(zip(bounds, bounds[1:], h.colors.tolist())):
        edges.extend((v, n + j) for v in members[a:b])
        edges.append((n + m + c - 1, n + j))
    terminals = tuple((n + m + c - 1, c) for c in range(1, k + 1))
    undeletable = frozenset(range(n)) | frozenset(range(n + m, n + m + k))
    return (n + m + k, tuple(weights), tuple(edges), terminals, undeletable)


def graph_layout(g):
    """A ``WeightedGraph`` in the old object layout of ``reference_ecc_to_node_mc``."""
    return (g.num_nodes, tuple(g.weights.tolist()), tuple(map(tuple, g.edges.tolist())),
            tuple(map(tuple, g.terminals.tolist())), frozenset(np.flatnonzero(g.undeletable).tolist()))


def reference_write_graph(layout) -> str:
    """The old per-line writer over the old graph layout; the reference for ``write_graph``."""
    num_nodes, weights, edges, terminals, undeletable = layout
    lines = [f"vc {num_nodes} {len(edges)}"]
    for i in range(num_nodes):
        w = "inf" if i in undeletable or math.isinf(weights[i]) else reference_num(weights[i])
        lines.append(f"w {i} {w}")
    for u, v in edges:
        lines.append(f"e {u} {v}")
    for node, color in terminals:
        lines.append(f"t {node} {color}")
    return "\n".join(lines) + "\n"


def reference_ecc_to_hyper_mc(h: EdgeColoredHypergraph):
    """The old per-edge terminal loop; the reference for ``ecc_to_hyper_mc``.

    Returns the old tuple layout (num_nodes, edges, weights, terminals).
    """
    n, k = h.num_nodes, h.num_colors
    terminals = tuple(n + c - 1 for c in range(1, k + 1))
    members, bounds = h.members.tolist(), h.eptr.tolist()
    edges = tuple(
        tuple(sorted(members[a:b] + [terminals[c - 1]]))
        for a, b, c in zip(bounds, bounds[1:], h.colors.tolist())
    )
    return (n + k, edges, tuple(h.weights.tolist()), terminals)


def hyper_layout(th):
    """A ``TerminalHypergraph`` in the old tuple layout of ``reference_ecc_to_hyper_mc``."""
    members, bounds = th.members.tolist(), th.eptr.tolist()
    edges = tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))
    return (th.num_nodes, edges, tuple(th.weights.tolist()), tuple(th.terminals.tolist()))


def reference_write_hmc(layout) -> str:
    """The old per-line writer over the old tuple layout; the reference for ``write_hmc``."""
    num_nodes, edges, weights, terminals = layout
    lines = [f"hmc {num_nodes} {len(edges)} {len(terminals)}"]
    for members, w in zip(edges, weights):
        lines.append(f"e {reference_num(w)} " + " ".join(str(v) for v in members))
    for c, t in enumerate(terminals, start=1):
        lines.append(f"t {t} {c}")
    return "\n".join(lines) + "\n"


def reference_bruteforce_ecc(h: EdgeColoredHypergraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """The old branch and bound over the edge objects, without the suffix bound: the
    reference for ``bruteforce_ecc``'s value and witness, and the most states it may explore.

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
    edges = edges_of(h)
    for j, e in enumerate(edges):
        for v in e.members:
            incident[pos[v]].append(j)

    colors = [e.color for e in edges]
    weights = [e.weight for e in edges]
    broken = bytearray(len(edges))

    start = reference_majority_vote(h)
    best_cost = reference_objective_cost(h, start).total_cost
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


def reference_suffix_bounds(incident: list[list[int]], colors: list[int],
                            weights: list[float]) -> list[float]:
    """The suffix bound of ``reference_pruned_bruteforce_ecc``, a copy of the
    oracle's loop as it stood when the reference was written, so that the
    reference does not move with the code it checks.

    ``suffix[i]`` is a lower bound on what positions ``i`` onward add to the
    cost. Edge ``j`` is given to the first position whose ``incident`` list
    holds it. A position's bound is the least weight it breaks among its
    edges, over its colors; each candidate is summed from positive terms.
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


def reference_pruned_bruteforce_ecc(h: EdgeColoredHypergraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """The branch and bound with the suffix bound that tests each incident edge's
    color at every branch: the reference for ``bruteforce_ecc``'s value, witness
    and explored count.
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
    suffix = reference_suffix_bounds(incident, colors, weights)
    # Sums of whole weights below 2**53 are exact, so a tie is pruned as well.
    whole = bool(np.all(h.weights == np.floor(h.weights))) and h.total_weight() < 2.0**53
    shrink = 1.0 if whole else PRUNE_SHRINK

    start = reference_majority_vote(h)
    best_cost = reference_objective_cost(h, start).total_cost
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


def reference_bruteforce_vc(g) -> OracleResult:
    """The vertex cover search that prunes on the cost so far alone: the reference
    for ``bruteforce_vc``'s value and witness, and the most states it may explore."""
    edges, weights = g.edges.tolist(), g.weights.tolist()
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


def reference_truth_words(text: str) -> list[int]:
    """The old body of ``cli._read_truth``; the reference for ``parse_int_words``."""
    return [int(t) for t in text.split()]


def reference_write_canonical(h: EdgeColoredHypergraph) -> str:
    """The old writer, one Python string per word; the reference for ``write_canonical``."""
    m = h.num_edges
    w = h.weights
    whole = (w == np.floor(w)) & (np.abs(w) < 1e15)
    # Every word of the body (color, weight, member ids) at an even position,
    # followed by a space, or a line break after an edge's last member.
    size = len(h.members) + 2 * m
    starts = h.eptr[:-1] + 2 * np.arange(m)
    is_member = np.ones(size, dtype=bool)
    is_member[starts] = is_member[starts + 1] = False
    parts = np.full(2 * size, " ", dtype=object)
    words = parts[0::2]
    words[starts] = list(map(str, h.colors.tolist()))
    words[starts[whole] + 1] = list(map(str, w[whole].astype(np.int64).tolist()))
    words[starts[~whole] + 1] = list(map(repr, w[~whole].tolist()))
    words[is_member] = list(map(str, h.members.tolist()))
    parts[2 * (starts + np.diff(h.eptr) + 1) + 1] = "\n"
    return f"ecc {h.num_nodes} {m} {h.num_colors}\n" + "".join(parts.tolist())


def reference_write_truth(truth) -> str:
    """The old truth-file writer of ``cli.cmd_gen``; the reference for ``write_int_lines``."""
    return "\n".join(str(c) for c in truth) + "\n"


def reference_int_tokens(raw: str, lineno: int, what: str) -> list[int]:
    try:
        return [int(t) for t in raw.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"non-integer token in {what}", lineno) from None


def reference_parse_benchmark(
    edges_text: str,
    labels_text: str,
    node_labels_text: str | None = None,
) -> tuple[EdgeColoredHypergraph, list[int] | None]:
    """The old line-by-line reader; the reference for ``parse_benchmark``.

    Node ids are 1-based in the files and shifted to 0-based; all edges get unit
    weight; the number of colors is the maximum label observed.
    """
    edge_lines = [
        (i, line) for i, line in enumerate(edges_text.splitlines(), start=1) if line.strip()
    ]
    label_lines = [
        (i, line) for i, line in enumerate(labels_text.splitlines(), start=1) if line.strip()
    ]
    if len(edge_lines) != len(label_lines):
        raise ParseError(
            f"edges file has {len(edge_lines)} lines but labels file has {len(label_lines)}"
        )
    members_per_edge: list[list[int]] = []
    max_id = 0
    for lineno, raw in edge_lines:
        ids = reference_int_tokens(raw, lineno, "edges file")
        if not ids:
            raise ParseError("empty edge", lineno)
        if min(ids) < 1:
            raise ParseError("node ids are 1-based; found id < 1", lineno)
        max_id = max(max_id, max(ids))
        members_per_edge.append(ids)
    colors: list[int] = []
    for lineno, raw in label_lines:
        tokens = reference_int_tokens(raw, lineno, "labels file")
        if len(tokens) != 1:
            raise ParseError("expected one label per line", lineno)
        if tokens[0] < 1:
            raise ParseError("labels are 1-based; found label < 1", lineno)
        colors.append(tokens[0])

    truth: list[int] | None = None
    num_colors = max(colors, default=0)
    num_nodes = max_id
    if node_labels_text is not None:
        truth = []
        for lineno, raw in enumerate(node_labels_text.splitlines(), start=1):
            if not raw.strip():
                continue
            tokens = reference_int_tokens(raw, lineno, "node labels file")
            if len(tokens) != 1:
                raise ParseError("expected one node label per line", lineno)
            truth.append(tokens[0])
        num_nodes = max(num_nodes, len(truth))
        if len(truth) != num_nodes:
            raise ParseError(
                f"node labels file has {len(truth)} lines but instance has {num_nodes} nodes"
            )
        num_colors = max(num_colors, max(truth, default=0))

    edges = [
        (tuple(v - 1 for v in members), color)
        for members, color in zip(members_per_edge, colors)
    ]
    return hypergraph(num_nodes, num_colors, edges), truth


def reference_anchors(lp: LinearProgram) -> list[tuple[float, float]]:
    """Each column's anchor and the sign of ``x - anchor``, column by column:
    the upper bound and -1 where the min-form cost is negative, the lower
    bound and +1 elsewhere; the reference for ``lp``'s anchor rule."""
    c_min = (lp.objective if lp.sense == "min" else -lp.objective).tolist()
    return [(hi, -1.0) if c < 0 else (lo, 1.0)
            for c, lo, hi in zip(c_min, lp.lower.tolist(), lp.upper.tolist())]


def refused_column(lp: LinearProgram) -> str | None:
    """The first column whose anchor is infinite, which ``solve`` refuses; None if none is."""
    return next((name for name, (anchor, _) in zip(lp.names, reference_anchors(lp))
                 if not math.isfinite(anchor)), None)


def reference_dual_program(lp: LinearProgram) -> LinearProgram:
    """The dual written out column by column from the row records, each
    column of ``lp`` measured from its finite anchor; the reference for
    ``dual_program``, whose constant it gives as a Python sum."""
    anchors = reference_anchors(lp)
    c_min = (lp.objective if lp.sense == "min" else -lp.objective).tolist()
    costs, entries = [], []  # the dual's costs, and its (row, column, coefficient) terms

    def column(terms, sign: float, rhs: float) -> None:
        entries.extend((j, len(costs), sign * a) for j, a in terms)
        costs.append(sign * rhs)

    for con in lp.constraints:
        b = con.rhs - sum(a * anchors[j][0] for j, a in con.coeffs)
        terms = [(j, a * anchors[j][1]) for j, a in con.coeffs]
        if con.rel != "<=":
            column(terms, 1.0, b)
        if con.rel != ">=":
            column(terms, -1.0, b)
    for j, (lo, hi) in enumerate(zip(lp.lower.tolist(), lp.upper.tolist())):
        if math.isfinite(lo) and math.isfinite(hi):
            column([(j, 1.0)], -1.0, hi - lo)
    rows = [([(col, a) for row, col, a in entries if row == j], "<=", abs(c_min[j]))
            for j in range(lp.num_vars)]
    constant = sum(c * anchor for c, (anchor, _) in zip(c_min, anchors)) + (
        lp.constant if lp.sense == "min" else -lp.constant)
    return lp_from_rows("max", [(f"y{i}", 0.0, math.inf, c) for i, c in enumerate(costs)],
                        rows, constant)


def reference_simplex(lp: LinearProgram, iteration_limit: int = 200_000) -> LpResult:
    """The simplex with a dense rank-1 update on every pivot; the reference for ``solve``."""
    n = lp.num_vars
    lo = np.array(lp.lower, dtype=float)
    if not np.all(np.isfinite(lo)):
        raise ValueError("simplex requires finite lower bounds")
    c_user = np.array(lp.objective, dtype=float)
    c_min = c_user if lp.sense == "min" else -c_user

    # Shift x = lo + x' so x' >= 0; finite upper bounds become extra rows.
    rows: list[tuple[np.ndarray, str, float]] = []
    for con in lp.constraints:
        a = np.zeros(n)
        shift = 0.0
        for j, coef in con.coeffs:
            a[j] = coef
            shift += coef * lo[j]
        rows.append((a, con.rel, con.rhs - shift))
    for j in range(n):
        hi = lp.upper[j]
        if math.isfinite(hi):
            a = np.zeros(n)
            a[j] = 1.0
            rows.append((a, "<=", hi - lo[j]))

    m = len(rows)
    n_ineq = sum(1 for _, rel, _ in rows if rel != "=")
    width = n + n_ineq
    A = np.zeros((m, width))
    b = np.zeros(m)
    needs_artificial: list[bool] = []
    basis = np.full(m, -1, dtype=int)
    slack_col = n
    for i, (a, rel, rhs) in enumerate(rows):
        if rhs < 0.0:  # normalize to b >= 0
            a, rhs = -a, -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        A[i, :n] = a
        b[i] = rhs
        if rel == "=":
            needs_artificial.append(True)
        else:
            A[i, slack_col] = 1.0 if rel == "<=" else -1.0
            if rel == "<=":
                basis[i] = slack_col
                needs_artificial.append(False)
            else:
                needs_artificial.append(True)
            slack_col += 1

    art_cols = [i for i, need in enumerate(needs_artificial) if need]
    total = width + len(art_cols)
    T = np.zeros((m, total + 1))
    T[:, :width] = A
    T[:, -1] = b
    for offset, i in enumerate(art_cols):
        col = width + offset
        T[i, col] = 1.0
        basis[i] = col

    # Extra rhs column of distinct positive values, treated as an infinitesimal
    # perturbation of b: degenerate ratio ties are broken on it, which keeps
    # long runs of zero-step pivots rare.
    P = np.arange(1.0, m + 1.0)

    blocked = np.zeros(total, dtype=bool)  # artificials that may never re-enter
    cost2 = np.zeros(total + 1)
    cost2[:n] = c_min
    cost1 = np.zeros(total + 1)
    cost1[width:total] = 1.0
    # Price out the initial basis so reduced costs of basic columns are zero.
    for i in range(m):
        if basis[i] >= width:
            cost1 -= T[i]

    state = {"iterations": 0, "bland": False, "stall": 0}

    def pivot(row: int, col: int) -> None:
        piv = T[row, col]
        T[row] /= piv
        P[row] /= piv
        factors = T[:, col].copy()
        factors[row] = 0.0
        T[...] -= np.outer(factors, T[row])
        P[...] -= factors * P[row]
        for cost in (cost1, cost2):
            if cost[col] != 0.0:
                cost[...] -= cost[col] * T[row]
        leaving = basis[row]
        if leaving >= width:  # an artificial that leaves never re-enters
            blocked[leaving] = True
        basis[row] = col

    def ratio_row(col: int) -> int | None:
        column = T[:, col]
        eligible = column > PIVOT_TOL
        if not eligible.any():
            return None
        ratios = np.full(m, np.inf)
        ratios[eligible] = T[eligible, -1] / column[eligible]
        best = ratios.min()
        candidates = np.flatnonzero(ratios <= best + PIVOT_TOL)
        if len(candidates) > 1:
            # Tie: prefer the row whose perturbed rhs leaves first, then the
            # smallest basis variable index (Bland-compatible).
            pratios = P[candidates] / column[candidates]
            pbest = pratios.min()
            candidates = candidates[pratios <= pbest + PIVOT_TOL]
        return int(candidates[np.argmin(basis[candidates])])

    def run_phase(cost: np.ndarray) -> str:
        while True:
            if state["iterations"] >= iteration_limit:
                return "iteration_limit"
            reduced = np.where(blocked, np.inf, cost[:total])
            if state["bland"]:
                open_cols = np.flatnonzero(reduced < -PIVOT_TOL)
                if len(open_cols) == 0:
                    return "optimal"
                entering = int(open_cols[0])
            else:
                entering = int(np.argmin(reduced))
                if reduced[entering] >= -PIVOT_TOL:
                    return "optimal"
            row = ratio_row(entering)
            if row is None:
                return "unbounded"
            state["iterations"] += 1
            degenerate = abs(T[row, -1]) <= PIVOT_TOL
            pivot(row, entering)
            if degenerate:
                state["stall"] += 1
                if state["stall"] >= DEGENERATE_RUN_LIMIT:
                    state["bland"] = True
            else:
                state["stall"] = 0
                state["bland"] = False

    if art_cols:
        status = run_phase(cost1)
        if status == "iteration_limit":
            return LpResult("iteration_limit", None, None, None, state["iterations"])
        infeas = sum(T[i, -1] for i in range(m) if basis[i] >= width)
        if infeas > FEAS_TOL:
            return LpResult("infeasible", None, None, None, state["iterations"])
        # Drive remaining artificials out of the basis (or leave them on
        # redundant all-zero rows, where they stay at value zero).
        for i in range(m):
            if basis[i] >= width:
                row_vals = np.abs(T[i, :width])
                j = int(np.argmax(row_vals))
                if row_vals[j] > PIVOT_TOL:
                    pivot(i, j)
        blocked[width:total] = True
        state["bland"] = False
        state["stall"] = 0

    status = run_phase(cost2)
    if status != "optimal":
        return LpResult(status, None, None, None, state["iterations"])

    x_shift = np.zeros(total)
    for i in range(m):
        x_shift[basis[i]] = T[i, -1]
    x = lo + x_shift[:n]
    in_basis = set(basis.tolist())
    basic = tuple(j in in_basis for j in range(n))
    return LpResult("optimal", lp.value_of(x), x, basic, state["iterations"])


def reference_solve(lp: LinearProgram, iteration_limit: int = 200_000) -> LpResult:
    """The sparse-update simplex with its perturbation and cost rows kept apart from
    the tableau; the reference for ``solve``'s pivots. ``DEGENERATE_RUN_LIMIT``
    is read from ``minecc.lp`` at call time, so a test can change it on both sides.
    """
    n = lp.num_vars
    lo = lp.lower
    if not np.all(np.isfinite(lo)):
        raise ValueError("simplex requires finite lower bounds")
    c_min = lp.objective if lp.sense == "min" else -lp.objective

    # Shift x = lo + x' so x' >= 0: each row's rhs absorbs its shift, added
    # term by term in row order. Finite upper bounds become rows of their own.
    rows = lp.rows
    row_of = rows.row_ids()
    shift = np.bincount(row_of, weights=rows.data * lo[rows.indices], minlength=len(rows.rhs))
    boxed = np.flatnonzero(np.isfinite(lp.upper))
    rhs = np.concatenate([rows.rhs - shift, lp.upper[boxed] - lo[boxed]])
    rel = np.concatenate([rows.rel, np.full(len(boxed), LE, dtype=np.int8)])
    flip = rhs < 0.0  # normalize to b >= 0 by negating the row
    rhs[flip] = -rhs[flip]
    rel[flip] = _FLIPPED[rel[flip]]
    data = np.where(flip[row_of], -rows.data, rows.data)

    # One tableau, filled in place: structural columns, one slack per
    # inequality row, one artificial per row without a "<=" slack to start
    # the basis, then rhs.
    m = len(rhs)
    ineq = np.flatnonzero(rel != EQ)
    width = n + len(ineq)
    art_rows = np.flatnonzero(rel != LE)
    art_cols = width + np.arange(len(art_rows))
    total = width + len(art_rows)
    T = np.zeros((m, total + 1))
    T[row_of, rows.indices] = data
    T[len(rows.rhs) + np.arange(len(boxed)), boxed] = 1.0
    slack_sign = np.where(rel[ineq] == LE, 1.0, -1.0)
    T[ineq, n + np.arange(len(ineq))] = slack_sign
    T[art_rows, art_cols] = 1.0
    T[:, -1] = rhs
    basis = np.full(m, -1, dtype=int)
    basis[ineq[slack_sign > 0]] = n + np.flatnonzero(slack_sign > 0)
    basis[art_rows] = art_cols

    # Extra rhs column of distinct positive values, treated as an infinitesimal
    # perturbation of b: degenerate ratio ties are broken on it, which keeps
    # long runs of zero-step pivots rare.
    P = np.arange(1.0, m + 1.0)

    cost2 = np.zeros(total + 1)
    cost2[:n] = c_min
    cost1 = np.zeros(total + 1)
    cost1[width:total] = 1.0
    # Price out the initial basis so reduced costs of basic columns are zero:
    # subtract the artificial rows' nonzero entries, each column's in row order.
    on_art = rel[row_of] != LE
    np.subtract.at(
        cost1,
        np.concatenate([rows.indices[on_art], n + np.flatnonzero(slack_sign < 0), art_cols,
                        np.full(len(art_rows), total)]),
        np.concatenate([data[on_art], slack_sign[slack_sign < 0], np.ones(len(art_rows)),
                        rhs[art_rows]]),
    )

    state = {"iterations": 0, "bland": False, "stall": 0}
    flat = T.reshape(-1)

    def block(cols) -> None:
        # An artificial that may never re-enter: an infinite reduced cost
        # keeps it out of every later pricing.
        cost1[cols] = np.inf
        cost2[cols] = np.inf

    def pivot(row: int, col: int, column: np.ndarray) -> None:
        """Pivot on ``T[row, col]``; ``column`` is a copy of ``T[:, col]``."""
        piv = T[row, col]
        T[row] /= piv
        P[row] /= piv
        column[row] = 0.0
        # Rank-1 update restricted to the nonzero rows of the entering column
        # and the nonzero entries of the pivot row: every skipped entry would
        # only have had a zero subtracted.
        nz_rows = column.nonzero()[0]
        nz_cols = T[row].nonzero()[0]
        factors = column[nz_rows]
        pivot_row = T[row, nz_cols]
        cells = (nz_rows * (total + 1))[:, None] + nz_cols  # flat indices into T
        flat[cells] -= factors[:, None] * pivot_row
        P[nz_rows] -= factors * P[row]
        for cost in (cost1, cost2):
            if cost[col] != 0.0:
                cost[nz_cols] -= cost[col] * pivot_row
        leaving = basis[row]
        if leaving >= width:
            block(leaving)
        basis[row] = col

    def ratio_row(column: np.ndarray) -> int | None:
        eligible = column > PIVOT_TOL
        if not eligible.any():
            return None
        ratios = np.divide(T[:, -1], column, out=np.full(m, np.inf), where=eligible)
        best = ratios.min()
        candidates = np.flatnonzero(ratios <= best + PIVOT_TOL)
        if len(candidates) > 1:
            # Tie: prefer the row whose perturbed rhs leaves first, then the
            # smallest basis variable index (Bland-compatible).
            pratios = P[candidates] / column[candidates]
            pbest = pratios.min()
            candidates = candidates[pratios <= pbest + PIVOT_TOL]
        return int(candidates[np.argmin(basis[candidates])])

    def run_phase(cost: np.ndarray) -> str:
        reduced = cost[:total]
        while total:
            if state["iterations"] >= iteration_limit:
                return "iteration_limit"
            if state["bland"]:
                open_cols = np.flatnonzero(reduced < -PIVOT_TOL)
                if len(open_cols) == 0:
                    return "optimal"
                entering = int(open_cols[0])
            else:
                entering = int(np.argmin(reduced))
                if reduced[entering] >= -PIVOT_TOL:
                    return "optimal"
            column = T[:, entering].copy()
            row = ratio_row(column)
            if row is None:
                return "unbounded"
            state["iterations"] += 1
            degenerate = abs(T[row, -1]) <= PIVOT_TOL
            pivot(row, entering, column)
            if degenerate:
                state["stall"] += 1
                if state["stall"] >= lp_module.DEGENERATE_RUN_LIMIT:
                    state["bland"] = True
            else:
                state["stall"] = 0
                state["bland"] = False
        return "optimal"

    if len(art_rows):
        status = run_phase(cost1)
        if status == "iteration_limit":
            return LpResult("iteration_limit", None, None, None, state["iterations"])
        infeas = sum(T[basis >= width, -1].tolist())
        if infeas > FEAS_TOL:
            return LpResult("infeasible", None, None, None, state["iterations"])
        # Drive remaining artificials out of the basis (or leave them on
        # redundant all-zero rows, where they stay at value zero).
        for i in range(m):
            if basis[i] >= width:
                row_vals = np.abs(T[i, :width])
                j = int(np.argmax(row_vals))
                if row_vals[j] > PIVOT_TOL:
                    pivot(i, j, T[:, j].copy())
        block(slice(width, total))
        state["bland"] = False
        state["stall"] = 0

    status = run_phase(cost2)
    if status != "optimal":
        return LpResult(status, None, None, None, state["iterations"])

    x_shift = np.zeros(total)
    x_shift[basis] = T[:, -1]
    x = lo + x_shift[:n]
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    return LpResult("optimal", lp.value_of(x), x, tuple(in_basis[:n].tolist()),
                    state["iterations"])


def reference_gen_integrality_gap(k: int) -> EdgeColoredHypergraph:
    """The scan of every color pair for each color; the reference for
    ``gen_integrality_gap``."""
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    edges = [([v for v, pair in enumerate(pairs) if c in pair], c) for c in range(1, k + 1)]
    return hypergraph(len(pairs), k, edges)


def reference_gen_random(
    n: int,
    m: int,
    max_size: int,
    k: int,
    noise: float,
    seed: int,
) -> PlantedInstance:
    """The per-edge sampling loop; the reference for ``gen_random``."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if max_size < 2:
        raise ValueError("need max_size >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if not (0.0 <= noise <= 1.0):
        raise ValueError("noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    truth = rng.integers(1, k + 1, size=n)
    clusters = [np.flatnonzero(truth == c) for c in range(1, k + 1)]
    usable = [c for c in range(k) if len(clusters[c]) >= 2]
    # The cluster that edges drawn for cluster c use, and its member pool.
    target = [usable[c % len(usable)] if len(clusters[c]) < 2 and usable else c for c in range(k)]
    all_nodes = np.arange(n)
    pools = [clusters[c] if len(clusters[c]) >= 2 else all_nodes for c in target]

    sizes = rng.integers(2, max_size + 1, size=m)
    chosen = rng.integers(0, k, size=m)
    noisy = rng.random(m) < noise
    resampled = rng.integers(1, k + 1, size=m)

    parts = [
        reference_sample_distinct(rng, pools[c], min(size, len(pools[c])))
        for c, size in zip(chosen.tolist(), sizes.tolist())
    ]
    colors = np.where(noisy, resampled, np.array(target)[chosen] + 1)
    members = np.concatenate(parts)
    counts = np.fromiter(map(len, parts), dtype=np.int64, count=m)
    h = from_flat(n, k, members, counts, colors, np.ones(m))
    return PlantedInstance(h, truth.tolist(), noise)


def reference_sample_distinct(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    """The per-edge draw of ``reference_gen_random``."""
    if size >= len(pool):
        return pool
    if len(pool) <= 64:
        return rng.choice(pool, size=size, replace=False)
    # Large pool, tiny sample: rejection is far cheaper than a full permutation.
    while True:
        picks = pool[rng.integers(0, len(pool), size=size)]
        if len(set(picks.tolist())) == size:
            return picks


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
