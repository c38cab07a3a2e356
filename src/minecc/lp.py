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

The solver is a simplex on one dense tableau, in one of two standard forms.
Both shift ``x = lower + x'`` so ``x' >= 0``, each row's rhs less its terms
at ``lower``, and both use the same pivot loop, ratio test, cell budget and
anti-cycling rule.

- The primal form is the program's own rows, one ``<=`` row more per finite
  upper bound, each row negated where its rhs is negative. It has one slack
  per inequality and one artificial per row without a ``<=`` slack to start
  the basis, and it runs phase 1 on the artificials, then phase 2.
- The dual form is :func:`dual_program`: one ``<=`` row per column, with
  the column's min-form cost as its rhs, and one column per ``<=`` or
  ``>=`` row, two per ``=`` row and one per finite upper bound. When no cost
  is negative, its all-slack basis is feasible: no artificials, no phase 1.

``solve`` takes the dual form exactly when every min-form cost is
nonnegative, as in both relaxations, which minimize nonnegative mistake
weights. Most of the primal form's pivots there only search for a feasible
basis, in phase 1: gap8's and desk-lp's rand1 and rand2 compact models
(seeds 0-9) take 3853 pivots in the primal form and 1686 in the dual. A
program with a negative cost keeps the primal form: its dual would need a
phase 1 of its own, and could not tell an unbounded program from an
infeasible one. On the dual form, column j of the program is the dual's row
j: ``x_j`` is ``lower_j`` plus the final phase-2 reduced cost of that row's
slack, and ``basic[j]`` says the slack is nonbasic. A basic column's reduced
cost is exactly 0, so every column strictly inside its bounds is marked
basic, and the point read back is the basic solution complementary to the
dual's optimal basis, a vertex as the primal form's optimum is. An optimal
dual is an optimal program; an unbounded dual, an infeasible program (a
nonnegative cost over finite lower bounds cannot be unbounded below); an
iteration limit is reported as such.

The tableau is filled in place from the CSR rows. Its m constraint rows are
followed by the phase-1 and the phase-2 reduced-cost rows, and its columns
(structural, slack, artificial) by a column of tie-break perturbations and
the rhs. So each pivot is one division of the pivot row and one rank-1
update, which touches only the rows where the entering column is nonzero
(cost rows included) and the columns where the pivot row is nonzero
(perturbation and rhs included); on the clustering LP both are a few
percent of the tableau. The costs sit in the dual form's rhs column, not in
its cost rows: on an instance with two weights of 8e307, whose primal-form
cost rows overflow, no cell of the dual form does. Measured on the compact
model (``build_ecc_lp(h, compact=True)``) of
``gen_random(n, 1.6 n, 3, 6, 0.2, 1).hypergraph`` (2-core host, numpy 2.4;
the primal form one run each, the dual form three; peak RSS of the whole
process):

    variables   primal tableau   solve    RSS       dual tableau    solve          RSS
    1026        2013 x 3853      0.11 s     96 MB   1028 x 3210     0.03-0.05 s     62 MB
    2205        4533 x 8664      1.50 s    342 MB   2207 x 7138     0.13-0.16 s    157 MB
    4310        8733 x 16713    30.2 s    1169 MB   4312 x 13794    0.42-0.57 s    491 MB

The tableau is nearly all of that memory, so ``solve`` refuses one of more
than ``TABLEAU_CELLS`` cells (2 GiB) with ``MemoryError``, before allocating
it. Time is not bounded: the multiway-cut models of 50-node, 80-edge
instances (896 columns, about 3400 rows, 898 x 4360 dual tableaux) take
0.1 s on seed 1 and 0.9-2.3 s on seed 2.
Larger models should be exported with :func:`export_lp_text` and solved
externally, after which the primal vector can be read back with
:func:`parse_primal_text`.

Pivoting is deterministic: entering columns are chosen by steepest reduced
cost with ties broken by lowest index, and the solver permanently switches to
Bland's anti-cycling rule (lowest eligible index) after a run of degenerate
pivots, so termination is guaranteed. Optimal solutions are basic, hence
totally unimodular systems yield integral optima.
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
FEAS_TOL = 1e-7
VIOLATION_TOL = 1e-6  # how far a checked LP solution may miss a bound or row
DEGENERATE_RUN_LIMIT = 100
TABLEAU_CELLS = 1 << 28  # the largest tableau solve allocates: 2 GiB of float64

RELATIONS = ("<=", ">=", "=")  # a row's relation code indexes this
LE, GE, EQ = range(3)
_FLIPPED = np.array([GE, LE, EQ], dtype=np.int8)  # the relation of a negated row


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
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
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


def _shifted_rhs(lp: LinearProgram, row_of: np.ndarray) -> np.ndarray:
    """Each row's rhs less its terms at ``lp.lower``, added term by term in row order."""
    rows = lp.rows
    return rows.rhs - np.bincount(row_of, weights=rows.data * lp.lower[rows.indices],
                                  minlength=len(rows.rhs))


def dual_program(lp: LinearProgram) -> LinearProgram:
    """The dual of ``lp``'s min form, as a program of its own.

    With ``x = lower + x'``, ``lp`` reads min c'x' over ``x' >= 0`` and its
    rows, each rhs less the row's terms at ``lower``; a finite upper bound
    is the row ``-x'_j >= lower_j - upper_j``. Each row is read as ``>=``,
    negated if it is ``<=``, and an ``=`` row as both. The dual has one
    column ``y >= 0`` per row so read, in row order (an ``=`` row's plain
    copy first), then one per finite upper bound, and it maximizes their
    right-hand sides. It has one ``<=`` row per column of ``lp``: that
    column's coefficients in the rows read, at most its cost ``c_j``. Its
    constant makes its optimum the min-form optimum of ``lp`` (the negated
    optimum when ``lp`` maximizes).
    """
    n, rows, lo = lp.num_vars, lp.rows, lp.lower
    c_min = _min_form_costs(lp)
    row_of = rows.row_ids()
    b = _shifted_rhs(lp, row_of)
    eq = rows.rel == EQ
    copies = 1 + eq
    first = np.cumsum(copies) - copies  # each row's first dual column
    read = int(copies.sum())
    sign = np.where(rows.rel == LE, -1.0, 1.0)
    boxed = np.flatnonzero(np.isfinite(lp.upper))
    on_eq, at = eq[row_of], first[row_of]
    # Every coefficient of the dual: its row (a column of lp), its column, its value.
    where = np.concatenate([rows.indices, rows.indices[on_eq], boxed])
    cols = np.concatenate([at, at[on_eq] + 1, read + np.arange(len(boxed))])
    data = np.concatenate([sign[row_of] * rows.data, -rows.data[on_eq], np.full(len(boxed), -1.0)])
    order = np.lexsort((cols, where))
    objective = np.concatenate([np.zeros(read), lo[boxed] - lp.upper[boxed]])
    objective[first] = sign * b
    objective[first[eq] + 1] = -b[eq]
    constant = float(np.dot(c_min, lo)) + (lp.constant if lp.sense == "min" else -lp.constant)
    return LinearProgram(
        objective, 0.0, math.inf, lambda: [f"y{j}" for j in range(len(objective))],
        Rows(np.concatenate([[0], np.cumsum(np.bincount(where, minlength=n))]), cols[order],
             data[order], np.full(n, LE), c_min),
        sense="max", constant=constant)


def solve(lp: LinearProgram, iteration_limit: int = 200_000) -> LpResult:
    """Solve ``lp``, returning a basic optimal solution when one exists.

    A program whose min-form costs are all nonnegative is solved through
    :func:`dual_program`, any other on its own tableau; the module docstring
    says how the primal is read back. A program without variables or rows
    is optimal at once, with value ``lp.constant``.
    """
    lo = lp.lower
    if not np.all(np.isfinite(lo)):
        raise ValueError("simplex requires finite lower bounds")
    on_dual = bool(np.all(_min_form_costs(lp) >= 0.0))
    program = dual_program(lp) if on_dual else lp
    status, iterations, T, basis = _simplex(program, iteration_limit)
    if status != "optimal":
        # The dual starts feasible, so an unbounded dual is an infeasible lp.
        status = "infeasible" if on_dual and status == "unbounded" else status
        return LpResult(status, None, None, None, iterations)
    in_basis = np.zeros(T.shape[1] - 2, dtype=bool)
    in_basis[basis] = True
    n = lp.num_vars
    if on_dual:
        # Column j of lp is the dual's row j, whose slack is dual column
        # program.num_vars + j; its final phase-2 reduced cost is x_j - lower_j.
        slacks = slice(program.num_vars, program.num_vars + n)
        x, basic = lo + T[-1, slacks], ~in_basis[slacks]
    else:
        x_shift = np.zeros(len(in_basis))
        x_shift[basis] = T[:len(basis), -1]
        x, basic = lo + x_shift[:n], in_basis[:n]
    return LpResult("optimal", lp.value_of(x), x, tuple(basic.tolist()), iterations)


def _simplex(lp: LinearProgram, iteration_limit: int):
    """Pivot ``lp`` on its standard-form tableau, as the module docstring says.

    Returns the status, the pivot count, the tableau as the pivots left it
    and the basic column of each constraint row.
    """
    n = lp.num_vars
    lo = lp.lower
    c_min = _min_form_costs(lp)

    # Shift x = lo + x' so x' >= 0: each row's rhs absorbs its shift. Finite
    # upper bounds become rows of their own.
    rows = lp.rows
    row_of = rows.row_ids()
    boxed = np.flatnonzero(np.isfinite(lp.upper))
    rhs = np.concatenate([_shifted_rhs(lp, row_of), lp.upper[boxed] - lo[boxed]])
    rel = np.concatenate([rows.rel, np.full(len(boxed), LE, dtype=np.int8)])
    flip = rhs < 0.0  # normalize to b >= 0 by negating the row
    rhs[flip] = -rhs[flip]
    rel[flip] = _FLIPPED[rel[flip]]
    data = np.where(flip[row_of], -rows.data, rows.data)

    # One tableau, filled in place. Its columns are the structural columns,
    # one slack per inequality row, one artificial per row without a "<="
    # slack to start the basis, the perturbation column and the rhs. Below
    # the m constraint rows sit the phase-1 and the phase-2 reduced costs,
    # so one rank-1 update per pivot keeps every part current.
    m = len(rhs)
    ineq = np.flatnonzero(rel != EQ)
    width = n + len(ineq)
    art_rows = np.flatnonzero(rel != LE)
    art_cols = width + np.arange(len(art_rows))
    total = width + len(art_rows)
    if (m + 2) * (total + 2) > TABLEAU_CELLS:
        raise MemoryError(f"the simplex tableau would be {m + 2} x {total + 2} cells, above "
                          f"the budget of {TABLEAU_CELLS} cells")
    T = np.zeros((m + 2, total + 2))
    T[row_of, rows.indices] = data
    T[len(rows.rhs) + np.arange(len(boxed)), boxed] = 1.0
    slack_sign = np.where(rel[ineq] == LE, 1.0, -1.0)
    T[ineq, n + np.arange(len(ineq))] = slack_sign
    T[art_rows, art_cols] = 1.0
    # The perturbation column holds distinct positive values, an
    # infinitesimal perturbation of b: degenerate ratio ties are broken on
    # it, which keeps long runs of zero-step pivots rare.
    T[:m, -2] = np.arange(1.0, m + 1.0)
    T[:m, -1] = rhs
    basis = np.full(m, -1, dtype=int)
    basis[ineq[slack_sign > 0]] = n + np.flatnonzero(slack_sign > 0)
    basis[art_rows] = art_cols

    T[m + 1, :n] = c_min
    T[m, width:total] = 1.0
    # Price out the initial basis so reduced costs of basic columns are zero:
    # subtract the artificial rows' nonzero entries, each column's in row order.
    on_art = rel[row_of] != LE
    np.subtract.at(
        T[m],
        np.concatenate([rows.indices[on_art], n + np.flatnonzero(slack_sign < 0), art_cols,
                        np.full(len(art_rows), total + 1)]),
        np.concatenate([data[on_art], slack_sign[slack_sign < 0], np.ones(len(art_rows)),
                        rhs[art_rows]]),
    )

    state = {"iterations": 0, "bland": False, "stall": 0}
    flat = T.reshape(-1)
    row_starts = np.arange(m + 2) * (total + 2)  # flat index of each row's first cell
    perturbation, b = T[:m, -2], T[:m, -1]  # views of the constraint rows' last two columns

    def block(cols) -> None:
        # An artificial that may never re-enter: an infinite reduced cost
        # keeps it out of every later pricing.
        T[m:, cols] = np.inf

    def pivot(row: int, col: int, column: np.ndarray) -> None:
        """Pivot on ``T[row, col]``; ``column`` is a copy of ``T[:, col]``."""
        pivot_row = T[row]
        pivot_row /= pivot_row[col]
        column[row] = 0.0
        # Rank-1 update restricted to the nonzero rows of the entering column
        # (cost rows included) and the nonzero entries of the pivot row
        # (perturbation and rhs included): every skipped entry would only
        # have had a zero subtracted.
        nz_rows = column.nonzero()[0]
        nz_cols = pivot_row.nonzero()[0]
        flat[np.add.outer(row_starts[nz_rows], nz_cols)] -= np.multiply.outer(
            column[nz_rows], pivot_row[nz_cols])
        leaving = basis[row]
        if leaving >= width:
            block(leaving)
        basis[row] = col

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

    def run_phase(cost_row: int) -> str:
        reduced = T[cost_row, :total]
        while total:
            if state["iterations"] >= iteration_limit:
                return "iteration_limit"
            if state["bland"]:
                open_cols = np.flatnonzero(reduced < -PIVOT_TOL)
                if len(open_cols) == 0:
                    return "optimal"
                entering = int(open_cols[0])
            else:
                entering = int(reduced.argmin())
                if reduced[entering] >= -PIVOT_TOL:
                    return "optimal"
            column = T[:, entering].copy()
            row = ratio_row(column)
            if row is None:
                return "unbounded"
            state["iterations"] += 1
            degenerate = abs(b[row]) <= PIVOT_TOL
            pivot(row, entering, column)
            if degenerate:
                state["stall"] += 1
                if state["stall"] >= DEGENERATE_RUN_LIMIT:
                    state["bland"] = True
            else:
                state["stall"] = 0
                state["bland"] = False
        return "optimal"

    if len(art_rows):
        status = run_phase(m)
        if status == "iteration_limit":
            return status, state["iterations"], T, basis
        infeas = sum(b[basis >= width].tolist())
        if infeas > FEAS_TOL:
            return "infeasible", state["iterations"], T, basis
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

    status = run_phase(m + 1)
    return status, state["iterations"], T, basis


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
