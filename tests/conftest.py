"""Shared helpers: independent re-implementations used as oracles in tests."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from minecc.combinatorial import DeletionSet, _color_survivors, _visit_order
from minecc.hypergraph import (
    ColorSortedIncidence,
    CostReport,
    Edge,
    EdgeColoredHypergraph,
    build_incidence,
    from_flat,
    hypergraph,
)
from minecc.instances import ParseError, PlantedInstance
from minecc.lp import (
    DEGENERATE_RUN_LIMIT,
    FEAS_TOL,
    PIVOT_TOL,
    LinearProgram,
    LpResult,
)


def naive_cost(h: EdgeColoredHypergraph, coloring) -> tuple[float, set[int]]:
    """Second, independent objective evaluation (set-based, per edge)."""
    mistakes = set()
    total = 0.0
    for j, e in enumerate(h.edges):
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
        for e in h.edges:
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


def reference_pitt_coloring(
    h: EdgeColoredHypergraph,
    seed: int,
    order_seed: int | None = None,
    incidence: ColorSortedIncidence | None = None,
) -> tuple[DeletionSet, list[int]]:
    """The sampling walk as its own loop; the reference for ``pitt_coloring``."""
    inc = incidence if incidence is not None else build_incidence(h)
    colors = [e.color for e in h.edges]
    weights = [e.weight for e in h.edges]
    deleted = bytearray(len(h.edges))
    rng = np.random.default_rng(seed)
    rand = rng.random
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
    dels = DeletionSet.from_flags(h, deleted)
    return dels, _color_survivors(h, deleted)


def reference_match_coloring(
    h: EdgeColoredHypergraph,
    order_seed: int | None = None,
    incidence: ColorSortedIncidence | None = None,
) -> tuple[DeletionSet, list[int], float]:
    """The matching walk as its own loop; the reference for ``match_coloring``."""
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
            deleted[ef] = 1
            deleted[eb] = 1
            bound += min(weights[ef], weights[eb])
            f += 1
            b -= 1
    dels = DeletionSet.from_flags(h, deleted)
    return dels, _color_survivors(h, deleted), bound


# The per-edge loops that the array code of ``hypergraph``, ``instances`` and
# ``combinatorial`` replaced, kept verbatim as references (apart from their
# names, and a reference instance being the tuple (num_nodes, num_colors,
# edges) of the old object layout).


def reference_hypergraph(num_nodes, num_colors, edges):
    """The old tuple-of-Edge constructor; the reference for ``hypergraph``."""
    built: list[Edge] = []
    for spec in edges:
        if isinstance(spec, Edge):
            members, color, weight = spec.members, spec.color, spec.weight
        elif len(spec) == 2:
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
    for j, e in enumerate(h.edges):
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
    for j, e in enumerate(h.edges):
        c = e.color
        if any(coloring[v] != c for v in e.members):
            mistakes.append(j)
            cost += e.weight
    m = len(h.edges)
    satisfaction = 1.0 if m == 0 else 1.0 - len(mistakes) / m
    acc = reference_accuracy(coloring, truth) if truth is not None else None
    return CostReport(cost, tuple(mistakes), satisfaction, acc)


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
    n, k, m = h.num_nodes, h.num_colors, len(h.edges)
    sizes = np.fromiter((len(e.members) for e in h.edges), dtype=np.int64, count=m)
    total = int(sizes.sum()) if m else 0
    flat_v = np.fromiter(
        itertools.chain.from_iterable(e.members for e in h.edges),
        dtype=np.int64,
        count=total,
    )
    flat_j = np.repeat(np.arange(m, dtype=np.int64), sizes)
    colors = np.fromiter((e.color for e in h.edges), dtype=np.int64, count=m)
    key = flat_v * np.int64(k + 1) + colors[flat_j]
    order = np.argsort(key, kind="stable")  # a timsort: numpy radix-sorts only <= 16-bit ints
    edge_ids = flat_j[order].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if total:
        np.cumsum(np.bincount(flat_v, minlength=n), out=indptr[1:])
    return ColorSortedIncidence(indptr, edge_ids)


def reference_find_bad_pair(
    h: EdgeColoredHypergraph, deleted=(), incidence: ColorSortedIncidence | None = None
) -> tuple[int, int] | None:
    """The old per-node scan; the reference for ``find_bad_pair``."""
    inc = incidence if incidence is not None else build_incidence(h)
    colors = h.colors.tolist()
    for v in range(h.num_nodes):
        first = -1
        for j in inc.neighbor_list(v):
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
    for e in h.edges:
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
    for e in h.edges:
        bad = sum(1 for v in e.members if mv_coloring[v] != e.color)
        total += e.weight * bad
    return total / r


def reference_color_survivors(h: EdgeColoredHypergraph, deleted) -> list[int]:
    """The old overwrite loop; the reference for ``_color_survivors``."""
    coloring = [1] * h.num_nodes
    for j, e in enumerate(h.edges):
        if not deleted[j]:
            for v in e.members:
                coloring[v] = e.color
    return coloring


def reference_recolor_uncovered(h: EdgeColoredHypergraph, dels: DeletionSet, base, mv):
    """The old per-edge cover loop; the reference for ``recolor_uncovered``."""
    covered = bytearray(h.num_nodes)
    for j, e in enumerate(h.edges):
        if j not in dels.indices:
            for v in e.members:
                covered[v] = 1
    recolored = [base[v] if covered[v] else mv[v] for v in range(h.num_nodes)]
    if (
        reference_objective_cost(h, recolored).total_cost
        > reference_objective_cost(h, base).total_cost
    ):
        return base
    return recolored


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
