"""Generic linear programs and a self-contained dense simplex solver.

A :class:`LinearProgram` is built once, by one constructor call, from its
columns as arrays (objective, lower and upper bounds) and its rows in CSR
form: ``indptr``, ``indices`` and ``data`` give each row's coefficients, with
column indices strictly rising within a row, and each row has a relation
code (an index into ``RELATIONS``) and a right-hand side. The constructor
copies and checks its inputs; the model is read-only after. Column names may
be given as a function that makes them, so a model that is only solved never
builds its names. ``lp.constraints`` lists the rows as ``(coeffs, rel, rhs)``
records, made when read, for the benchmark harness and the tests; the
package itself reads only the arrays.

The solver is a simplex on one dense tableau, in one form: the dual of the
program's min form, pivoted from its all-slack basis. Each column is
measured from its *anchor*, the bound its min-form cost points to: ``x =
upper - x'`` where the cost is negative and ``x = lower + x'`` elsewhere,
with ``x' >= 0`` (Dantzig's bounded-variable substitution). Every cost of
``x'`` is then ``|c_j|``, so the dual's slack basis is feasible and there is
no phase 1 (Chvátal, *Linear Programming*, 1983). A column whose anchor is
infinite (a negative cost without an upper bound, any other cost without a
lower bound) is refused with ``ValueError``. Over finite anchors the program
is bounded below, so ``solve`` ends optimal, infeasible or at its iteration
limit.

:func:`dual_program` writes the dual out: one ``<=`` row per column, with
``|c_j|`` as its rhs, and one column per ``<=`` or ``>=`` row, two per ``=``
row and one per column with both bounds finite. Column j of the program is
the dual's row j: ``x_j`` is its anchor plus its sign times the final
reduced cost of that row's slack, and ``basic[j]`` says the slack is
nonbasic. A basic column's reduced cost is exactly 0, so every column
strictly inside its bounds is marked basic, and the point read back is the
basic solution complementary to the dual's optimal basis, a vertex. An
optimal dual is an optimal program, an unbounded dual an infeasible one.

The tableau is filled in place from the dual's CSR rows. Its m constraint
rows are followed by the reduced-cost row, and its columns (structural,
slack) by a column of tie-break perturbations and the rhs. So each pivot is
one division of the pivot row and one rank-1 update, which touches only the
rows where the entering column is nonzero (cost row included) and the
columns where the pivot row is nonzero (perturbation and rhs included); on
the clustering LP both are a few percent of the tableau. No cost reaches
the cost row: the costs sit in the rhs column, and the cost row holds the
program's shifted right-hand sides, so on an instance with two weights of
8e307 no cell overflows. Measured on the compact model
(``build_ecc_lp(h, compact=True)``) of
``gen_random(n, 1.6 n, 3, 6, 0.2, 1).hypergraph`` (2-core host, numpy 2.4;
three runs each; peak RSS of the whole process):

    variables   tableau         solve          RSS
    1026        1027 x 3210     0.03-0.05 s     62 MB
    2205        2206 x 7138     0.13-0.16 s    157 MB
    4310        4311 x 13794    0.42-0.57 s    491 MB

The tableau is the largest allocation but not the whole peak: each pivot's
rank-1 update allocates an index array and a product as large as the block
it updates, so the multiway-cut model of ``gen_random(200, 320, 3, 6, 0.2,
1)`` (a 449 MiB tableau) peaks at 1060 MB. ``solve`` refuses a tableau of
more than ``TABLEAU_CELLS`` cells (2 GiB) with ``MemoryError``, before
allocating it. Time is not bounded: the multiway-cut models of 50-node,
80-edge instances (896 columns, about 3400 rows, 897 x 4360 tableaux) take
0.1 s on seed 1 and 0.9-2.3 s on seed 2.
Larger models should be exported with :func:`export_lp_text` and solved
externally, after which the primal vector can be read back with
:func:`parse_primal_text`.

Pivoting is deterministic: entering columns are chosen by steepest reduced
cost with ties broken by lowest index, and the solver switches to Bland's
anti-cycling rule (lowest eligible index) after a run of degenerate pivots,
until the next nondegenerate one, so termination is guaranteed. Optimal
solutions are basic, hence totally unimodular systems yield integral optima.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hypergraph import _rising_within_edges
from .instances import ParseError, _num, _write_lines

PIVOT_TOL = 1e-9
VIOLATION_TOL = 1e-6  # how far a checked LP solution may miss a bound or row
DEGENERATE_RUN_LIMIT = 100
TABLEAU_CELLS = 1 << 28  # the largest tableau solve allocates: 2 GiB of float64

RELATIONS = ("<=", ">=", "=")  # a row's relation code indexes this
LE, GE, EQ = range(3)


class Row(NamedTuple):
    """One row as a record: sparse ``(variable index, coefficient)`` pairs, relation, rhs."""

    coeffs: tuple[tuple[int, float], ...]
    rel: str
    rhs: float


class Rows(NamedTuple):
    """The rows of a program in CSR form."""

    indptr: np.ndarray  # int64, one entry more than there are rows, from 0
    indices: np.ndarray  # int64 column of each coefficient, strictly rising within a row
    data: np.ndarray  # float64 coefficients
    rel: np.ndarray  # int8 relation code of each row
    rhs: np.ndarray  # float64

    def row_ids(self) -> np.ndarray:
        """The row of every coefficient."""
        return np.repeat(np.arange(len(self.rhs)), np.diff(self.indptr))


class LinearProgram:
    """A linear program in the usual min/max c'x subject to rows and box bounds form.

    Built once from its arrays and read-only after: ``objective``,
    ``lower``, ``upper`` and ``rows`` are the model's own copies of the
    inputs, with writing switched off. ``lower`` and ``upper`` are arrays
    with one entry per column or one value for every column. ``names`` is
    the list of column names, or a function that makes it when the names
    are first read. ``rows`` is a :class:`Rows` of array-likes, each row's
    column indices rising strictly; None means no rows. A column whose lower
    bound is not at most its upper bound, or rows that do not fit together
    or reference an unknown column, raise ``ValueError``.
    """

    def __init__(
        self,
        objective,
        lower,
        upper,
        names: list[str] | Callable[[], list[str]],
        rows: Rows | None = None,
        *,
        sense: str = "min",
        constant: float = 0.0,
    ) -> None:
        self.sense = sense
        self.constant = float(constant)
        self._names = names if callable(names) else list(names)
        objective = np.array(objective, dtype=float)
        lower = np.full(objective.shape, lower, dtype=float)
        upper = np.full(objective.shape, upper, dtype=float)
        bad = np.flatnonzero(~(lower <= upper))
        if len(bad):
            j = int(bad[0])
            raise ValueError(f"variable {self.names[j]}: lower bound {lower[j]} exceeds "
                             f"upper bound {upper[j]}")
        if rows is None:
            rows = Rows([0], [], [], [], [])
        indptr, indices, data, rel, rhs = (
            np.array(a, dtype=t) for a, t in zip(rows, (np.int64, np.int64, float, np.int8, float)))
        if not (len(indptr) == len(rel) + 1 == len(rhs) + 1 and indptr[0] == 0
                and np.all(np.diff(indptr) >= 0) and indptr[-1] == len(indices) == len(data)):
            raise ValueError("rows do not fit together: need indptr rising from 0 to the "
                             "number of coefficients, and one relation and rhs per row")
        if np.any((rel < 0) | (rel >= len(RELATIONS))):
            raise ValueError("unknown relation code")
        if len(indices) and not (0 <= indices.min() and indices.max() < len(objective)):
            raise ValueError("rows reference an unknown variable index")
        if not _rising_within_edges(indices, indptr).all():
            raise ValueError("column indices must rise strictly within each row")
        self.objective, self.lower, self.upper = objective, lower, upper
        self.rows = Rows(indptr, indices, data, rel, rhs)
        for a in (objective, lower, upper, *self.rows):
            a.flags.writeable = False

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows.rhs)

    @property
    def constraints(self) -> list[Row]:
        """The rows as :class:`Row` records, made when read."""
        rows = self.rows
        ptr, indices, data = rows.indptr.tolist(), rows.indices.tolist(), rows.data.tolist()
        return [Row(tuple(zip(indices[s:e], data[s:e])), RELATIONS[rel], rhs)
                for s, e, rel, rhs in zip(ptr, ptr[1:], rows.rel.tolist(), rows.rhs.tolist())]

    @property
    def names(self) -> list[str]:
        if callable(self._names):
            self._names = self._names()
        return self._names

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearProgram):
            return NotImplemented
        mine = (self.objective, self.lower, self.upper, *self.rows)
        theirs = (other.objective, other.lower, other.upper, *other.rows)
        return ((self.sense, self.constant, self.names) == (other.sense, other.constant, other.names)
                and all(np.array_equal(a, b) for a, b in zip(mine, theirs)))

    __hash__ = None

    def value_of(self, x) -> float:
        """Objective value (in the program's own sense) of a primal vector."""
        return self.constant + float(np.dot(self.objective, np.asarray(x, dtype=float)))

    def violation(self, x) -> str | None:
        """Describe what ``x`` breaks by more than ``VIOLATION_TOL``; None when it is feasible.

        Lower bounds are checked first, then upper bounds, then the rows in
        order, and the first break found is named. Rows are named ``c<i>`` by
        their position, as in :func:`export_lp_text`.
        """
        x, tol = np.asarray(x, dtype=float), VIOLATION_TOL
        for out, side, bound in ((x < self.lower - tol, "below its lower", self.lower),
                                 (x > self.upper + tol, "above its upper", self.upper)):
            if out.any():
                j = int(np.argmax(out))
                return f"{self.names[j]} = {x[j]:.9g} is {side} bound {_num(bound[j])}"
        rows = self.rows
        # bincount adds each row's terms in order, as a loop over the row would
        lhs = np.bincount(rows.row_ids(), weights=rows.data * x[rows.indices],
                          minlength=len(rows.rhs))
        gap = lhs - rows.rhs
        broken = np.flatnonzero(((gap > tol) & (rows.rel != GE)) | ((gap < -tol) & (rows.rel != LE)))
        if len(broken):
            i = int(broken[0])
            return (f"row c{i} does not hold: {lhs[i]:.9g} {RELATIONS[rows.rel[i]]} "
                    f"{_num(rows.rhs[i])}")
        return None


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "iteration_limit"
    value: float | None
    x: np.ndarray | None
    basic: tuple[bool, ...] | None
    iterations: int = 0

    def require_optimal(self) -> "LpResult":
        if self.status != "optimal":
            raise RuntimeError(f"LP solve ended with status {self.status!r}")
        return self


def _min_form_costs(lp: LinearProgram) -> np.ndarray:
    return lp.objective if lp.sense == "min" else -lp.objective


def _anchors(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """Each column's anchor and the sign of ``x - anchor``: the upper bound
    and -1 where the min-form cost is negative, the lower bound and +1
    elsewhere. An infinite anchor raises ``ValueError`` naming its column."""
    down = _min_form_costs(lp) < 0.0
    anchor = np.where(down, lp.upper, lp.lower)
    infinite = np.flatnonzero(~np.isfinite(anchor))
    if len(infinite):
        j = int(infinite[0])
        raise ValueError(f"variable {lp.names[j]}: the simplex measures it from its "
                         f"{'upper' if down[j] else 'lower'} bound, which is infinite")
    return anchor, np.where(down, -1.0, 1.0)


def dual_program(lp: LinearProgram) -> LinearProgram:
    """The dual of ``lp``'s min form, each column measured from its anchor.

    With ``x = anchor + sign * x'``, ``lp`` reads min |c|'x' over ``x' >= 0``
    and its rows, each coefficient times its column's sign and each rhs less
    the row's terms at the anchors; a column with both bounds finite adds
    the row ``-x'_j >= lower_j - upper_j``. Each row is read as ``>=``,
    negated if it is ``<=``, and an ``=`` row as both. The dual has one
    column ``y >= 0`` per row so read, in row order (an ``=`` row's plain
    copy first), then one per column with both bounds finite, and it
    maximizes their right-hand sides. It has one ``<=`` row per column of
    ``lp``: that column's coefficients in the rows read, at most ``|c_j|``.
    Its constant makes its optimum the min-form optimum of ``lp`` (the
    negated optimum when ``lp`` maximizes). An infinite anchor raises
    ``ValueError``.
    """
    n, rows = lp.num_vars, lp.rows
    c_min = _min_form_costs(lp)
    anchor, col_sign = _anchors(lp)
    row_of = rows.row_ids()
    # Each rhs less its row's terms at the anchors, added term by term in row order.
    b = rows.rhs - np.bincount(row_of, weights=rows.data * anchor[rows.indices],
                               minlength=len(rows.rhs))
    coefs = rows.data * col_sign[rows.indices]
    eq = rows.rel == EQ
    copies = 1 + eq
    first = np.cumsum(copies) - copies  # each row's first dual column
    read = int(copies.sum())
    sign = np.where(rows.rel == LE, -1.0, 1.0)
    boxed = np.flatnonzero(np.isfinite(np.where(col_sign < 0, lp.lower, lp.upper)))
    on_eq, at = eq[row_of], first[row_of]
    # Every coefficient of the dual: its row (a column of lp), its column, its value.
    where = np.concatenate([rows.indices, rows.indices[on_eq], boxed])
    cols = np.concatenate([at, at[on_eq] + 1, read + np.arange(len(boxed))])
    data = np.concatenate([sign[row_of] * coefs, -coefs[on_eq], np.full(len(boxed), -1.0)])
    order = np.lexsort((cols, where))
    objective = np.concatenate([np.zeros(read), lp.lower[boxed] - lp.upper[boxed]])
    objective[first] = sign * b
    objective[first[eq] + 1] = -b[eq]
    constant = float(np.dot(c_min, anchor)) + (lp.constant if lp.sense == "min" else -lp.constant)
    return LinearProgram(
        objective, 0.0, math.inf, lambda: [f"y{j}" for j in range(len(objective))],
        Rows(np.concatenate([[0], np.cumsum(np.bincount(where, minlength=n))]), cols[order],
             data[order], np.full(n, LE), np.abs(c_min)),
        sense="max", constant=constant)


def solve(lp: LinearProgram, iteration_limit: int = 200_000) -> LpResult:
    """Solve ``lp`` through :func:`dual_program`, returning a basic optimal
    solution when one exists; the module docstring says how the primal is
    read back. A program without variables or rows is optimal at once, with
    value ``lp.constant``. An infinite anchor raises ``ValueError``.
    """
    anchor, sign = _anchors(lp)
    dual = dual_program(lp)
    status, iterations, T, basis = _simplex(dual, iteration_limit)
    if status != "optimal":
        # The dual starts feasible, so an unbounded dual is an infeasible lp.
        status = "infeasible" if status == "unbounded" else status
        return LpResult(status, None, None, None, iterations)
    in_basis = np.zeros(T.shape[1] - 2, dtype=bool)
    in_basis[basis] = True
    # Column j of lp is the dual's row j, whose slack is dual column
    # dual.num_vars + j; its final reduced cost is sign_j (x_j - anchor_j).
    slacks = slice(dual.num_vars, dual.num_vars + lp.num_vars)
    x, basic = anchor + sign * T[-1, slacks], ~in_basis[slacks]
    return LpResult("optimal", lp.value_of(x), x, tuple(basic.tolist()), iterations)


def _simplex(lp: LinearProgram, iteration_limit: int):
    """Pivot ``lp`` from its slack basis, as the module docstring says: its
    rows are all ``<=`` with nonnegative right-hand sides, over columns
    ``y >= 0``, so that basis is feasible.

    Returns the status ("optimal", "unbounded" or "iteration_limit"), the
    pivot count, the tableau as the pivots left it and the basic column of
    each constraint row.
    """
    n, m, rows = lp.num_vars, lp.num_rows, lp.rows

    # One tableau, filled in place. Its columns are the structural columns,
    # one slack per row, the perturbation column and the rhs. Below the m
    # constraint rows sit the reduced costs, so one rank-1 update per pivot
    # keeps every part current.
    total = n + m
    if (m + 1) * (total + 2) > TABLEAU_CELLS:
        raise MemoryError(f"the simplex tableau would be {m + 1} x {total + 2} cells, above "
                          f"the budget of {TABLEAU_CELLS} cells")
    T = np.zeros((m + 1, total + 2))
    T[rows.row_ids(), rows.indices] = rows.data
    T[np.arange(m), n + np.arange(m)] = 1.0
    # The perturbation column holds distinct positive values, an
    # infinitesimal perturbation of b: degenerate ratio ties are broken on
    # it, which keeps long runs of zero-step pivots rare.
    T[:m, -2] = np.arange(1.0, m + 1.0)
    T[:m, -1] = rows.rhs
    T[m, :n] = _min_form_costs(lp)
    basis = n + np.arange(m)

    iterations, bland, stall = 0, False, 0
    flat = T.reshape(-1)
    row_starts = np.arange(m + 1) * (total + 2)  # flat index of each row's first cell
    perturbation, b = T[:m, -2], T[:m, -1]  # views of the constraint rows' last two columns
    reduced = T[m, :total]

    def ratio_row(column: np.ndarray) -> int | None:
        eligible = (column[:m] > PIVOT_TOL).nonzero()[0]
        if not len(eligible):
            return None
        ratios = b[eligible] / column[eligible]
        # x[x.argmin()] is x.min(), without the Python wrapper around min
        candidates = eligible[ratios <= ratios[ratios.argmin()] + PIVOT_TOL]
        if len(candidates) > 1:
            # Tie: prefer the row whose perturbed rhs leaves first, then the
            # smallest basis variable index (Bland-compatible).
            pratios = perturbation[candidates] / column[candidates]
            candidates = candidates[pratios <= pratios[pratios.argmin()] + PIVOT_TOL]
        return int(candidates[basis[candidates].argmin()])

    while total:
        if iterations >= iteration_limit:
            return "iteration_limit", iterations, T, basis
        if bland:
            open_cols = np.flatnonzero(reduced < -PIVOT_TOL)
            if len(open_cols) == 0:
                break
            entering = int(open_cols[0])
        else:
            entering = int(reduced.argmin())
            if reduced[entering] >= -PIVOT_TOL:
                break
        column = T[:, entering].copy()
        row = ratio_row(column)
        if row is None:
            return "unbounded", iterations, T, basis
        iterations += 1
        degenerate = abs(b[row]) <= PIVOT_TOL
        pivot_row = T[row]
        pivot_row /= pivot_row[entering]
        column[row] = 0.0
        # Rank-1 update restricted to the nonzero rows of the entering column
        # (cost row included) and the nonzero entries of the pivot row
        # (perturbation and rhs included): every skipped entry would only
        # have had a zero subtracted.
        nz_rows = column.nonzero()[0]
        nz_cols = pivot_row.nonzero()[0]
        flat[np.add.outer(row_starts[nz_rows], nz_cols)] -= np.multiply.outer(
            column[nz_rows], pivot_row[nz_cols])
        basis[row] = entering
        if degenerate:
            stall += 1
            bland = bland or stall >= DEGENERATE_RUN_LIMIT
        else:
            stall, bland = 0, False
    return "optimal", iterations, T, basis


def _nums(values: np.ndarray) -> np.ndarray:
    """Every value as :func:`~minecc.instances._num` prints it, in an object array."""
    text = _write_lines("", [], values, np.arange(len(values) + 1))
    return np.array(text.split("\n")[:-1], dtype=object)


def _bodies(names: np.ndarray, indptr, cols: np.ndarray, coefs: np.ndarray) -> list[str]:
    """The terms (``- 2 x + y``) of each CSR row that ``indptr`` bounds, zeros left out."""
    keep = indptr[0] + np.flatnonzero(coefs[indptr[0]:indptr[-1]])
    ptr = np.searchsorted(keep, indptr)  # the kept terms before each line
    cols, coefs = cols[keep], coefs[keep]
    text = np.where(coefs < 0, "- ", "+ ").astype(object)
    first = ptr[:-1][np.diff(ptr) > 0]  # a line's first term has no plus sign
    text[first[~(coefs[first] < 0)]] = ""
    scaled = np.flatnonzero(np.abs(coefs) != 1.0)
    text[scaled] += _nums(np.abs(coefs[scaled])) + " "
    terms, ptr = (text + names[cols]).tolist(), ptr.tolist()
    return [" ".join(terms[a:b]) for a, b in zip(ptr, ptr[1:])]


_EXPORT_ROWS = 1 << 15  # rows per block of export_lp_text: one block's terms are held at once


def export_lp_text(lp: LinearProgram) -> str:
    """Render the program in the standard LP file format (Minimize/Subject To/...).

    The terms, right-hand sides and bounds are made from the model's arrays,
    the rows in blocks of ``_EXPORT_ROWS``, and each line joins its terms.
    """
    names, rows = np.array(lp.names, dtype=object), lp.rows
    obj = _bodies(names, [0, lp.num_vars], np.arange(lp.num_vars), lp.objective)[0]
    if lp.constant != 0.0:
        sign = "- " if lp.constant < 0 else ("+ " if obj else "")
        obj += (" " if obj else "") + sign + _num(abs(lp.constant))
    lines = ["Maximize" if lp.sense == "max" else "Minimize", f" obj: {obj or 0}", "Subject To"]
    for a in range(0, lp.num_rows, _EXPORT_ROWS):
        bodies = _bodies(names, rows.indptr[a:a + _EXPORT_ROWS + 1], rows.indices, rows.data)
        block = zip(bodies, rows.rel[a:a + _EXPORT_ROWS].tolist(),
                    _nums(rows.rhs[a:a + _EXPORT_ROWS]).tolist())
        lines += [f" c{a + i}: {body or '0 ' + names[0]} {RELATIONS[rel]} {rhs}"
                  for i, (body, rel, rhs) in enumerate(block)]
    lo, hi = lp.lower, lp.upper
    bounds = " " + names + " >= " + _nums(lo)
    free, boxed = lo == -math.inf, hi != math.inf
    bounds[free] = " " + names[free] + " free"
    bounds[boxed] = " " + _nums(lo[boxed]) + " <= " + names[boxed] + " <= " + _nums(hi[boxed])
    return "\n".join([*lines, "Bounds", *bounds.tolist(), "End"]) + "\n"


def parse_primal_text(lp: LinearProgram, text: str) -> np.ndarray:
    """Read a whitespace-separated ``name value`` primal-solution file.

    Unmentioned variables default to their lower bound. A malformed line, an
    unknown name, a name given twice or a value that is not a finite number
    raises :class:`~minecc.instances.ParseError` naming the line.
    """
    x = lp.lower.copy()
    index = {name: j for j, name in enumerate(lp.names)}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ParseError("expected 'name value'", lineno)
        name, value = tokens
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", lineno)
        if name in seen:
            raise ParseError(f"variable {name!r} given twice, first on line {seen[name]}", lineno)
        seen[name] = lineno
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ParseError(f"value {value!r} is not a finite number", lineno)
        x[index[name]] = number
    return x
