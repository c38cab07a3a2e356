"""Generic linear programs and a self-contained dense simplex solver.

The solver is a two-phase primal simplex on one dense standard-form tableau.
Each pivot updates only the rows where the entering column is nonzero and the
columns where the pivot row is nonzero; on the clustering LP both are a few
percent of the tableau. Measured on ``build_ecc_lp(gen_random(n, 1.6 n, 3, 6,
0.2, 1).hypergraph)`` for n = 100, 200, 400 (two runs, 2-core host, numpy 2.4):

    variables   solve time     peak RSS (whole process)
    760         0.17-0.19 s     59 MB
    1520        0.47-0.57 s    130 MB
    3040        1.8-2.5 s      409 MB

The tableau has about 1.65 rows and 3.2 columns per variable, so its memory
grows with the square of the model: about 1 GB at 5000 variables. That
memory, not the solve time, is what bounds the CLI's 5000-variable limit.
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
from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
DEGENERATE_RUN_LIMIT = 100


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[int, float], ...]  # sparse (variable index, coefficient)
    rel: str  # one of "<=", ">=", "="
    rhs: float


@dataclass
class LinearProgram:
    """A linear program in the usual min/max c'x subject to rows and box bounds form.

    Built incrementally with :meth:`add_var` and :meth:`add_constraint`; treated
    as read-only once handed to the solver.
    """

    sense: str = "min"
    names: list[str] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    constant: float = 0.0
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def add_var(
        self, name: str, lo: float = 0.0, hi: float = math.inf, obj: float = 0.0
    ) -> int:
        if not (lo <= hi):
            raise ValueError(f"variable {name}: lower bound {lo} exceeds upper bound {hi}")
        self.names.append(name)
        self.objective.append(float(obj))
        self.lower.append(float(lo))
        self.upper.append(float(hi))
        return len(self.names) - 1

    def add_constraint(
        self, coeffs: list[tuple[int, float]], rel: str, rhs: float
    ) -> None:
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {rel!r}")
        merged: dict[int, float] = {}
        for j, a in coeffs:
            if not (0 <= j < self.num_vars):
                raise ValueError(f"constraint references unknown variable index {j}")
            merged[j] = merged.get(j, 0.0) + float(a)
        self.constraints.append(
            Constraint(tuple(sorted(merged.items())), rel, float(rhs))
        )

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def value_of(self, x) -> float:
        """Objective value (in the program's own sense) of a primal vector."""
        return self.constant + float(np.dot(self.objective, np.asarray(x, dtype=float)))


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


def solve(lp: LinearProgram, iteration_limit: int = 200_000) -> LpResult:
    """Solve ``lp``, returning a basic optimal solution when one exists."""
    n = lp.num_vars
    lo = np.array(lp.lower, dtype=float)
    if not np.all(np.isfinite(lo)):
        raise ValueError("simplex requires finite lower bounds")
    c_user = np.array(lp.objective, dtype=float)
    c_min = c_user if lp.sense == "min" else -c_user

    # Shift x = lo + x' so x' >= 0; finite upper bounds become extra rows.
    # Rows stay sparse (coeffs, rel, rhs) until the tableau is filled.
    lower = lo.tolist()
    rows: list[tuple[tuple[tuple[int, float], ...], str, float]] = []

    def add_row(coeffs, rel: str, rhs: float) -> None:
        if rhs < 0.0:  # normalize to b >= 0
            coeffs = tuple((j, -a) for j, a in coeffs)
            rel, rhs = {"<=": ">=", ">=": "<=", "=": "="}[rel], -rhs
        rows.append((coeffs, rel, rhs))

    for con in lp.constraints:
        shift = 0.0
        for j, coef in con.coeffs:
            shift += coef * lower[j]
        add_row(con.coeffs, con.rel, con.rhs - shift)
    for j in range(n):
        hi = lp.upper[j]
        if math.isfinite(hi):
            add_row(((j, 1.0),), "<=", hi - lower[j])

    # One tableau: structural columns, one slack per inequality row, one
    # artificial per row without a "<=" slack to start the basis, then rhs.
    m = len(rows)
    n_ineq = sum(1 for _, rel, _ in rows if rel != "=")
    width = n + n_ineq
    art_rows = [i for i, (_, rel, _) in enumerate(rows) if rel != "<="]
    total = width + len(art_rows)
    T = np.zeros((m, total + 1))
    basis = np.full(m, -1, dtype=int)
    slack_col = n
    for i, (coeffs, rel, rhs) in enumerate(rows):
        for j, a in coeffs:
            T[i, j] = a
        T[i, -1] = rhs
        if rel != "=":
            T[i, slack_col] = 1.0 if rel == "<=" else -1.0
            if rel == "<=":
                basis[i] = slack_col
            slack_col += 1
    for offset, i in enumerate(art_rows):
        T[i, width + offset] = 1.0
        basis[i] = width + offset

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
    for i in art_rows:
        cost1 -= T[i]

    state = {"iterations": 0, "bland": False, "stall": 0}

    def pivot(row: int, col: int) -> None:
        piv = T[row, col]
        T[row] /= piv
        P[row] /= piv
        factors = T[:, col].copy()
        factors[row] = 0.0
        # Rank-1 update restricted to the nonzero rows of the entering column
        # and the nonzero entries of the pivot row: every skipped entry would
        # only have had a zero subtracted.
        nz_rows = factors.nonzero()[0]
        nz_cols = T[row].nonzero()[0]
        T[nz_rows[:, None], nz_cols] -= factors[nz_rows, None] * T[row, nz_cols]
        P[nz_rows] -= factors[nz_rows] * P[row]
        for cost in (cost1, cost2):
            if cost[col] != 0.0:
                cost[nz_cols] -= cost[col] * T[row, nz_cols]
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

    if art_rows:
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


def export_lp_text(lp: LinearProgram) -> str:
    """Render the program in the standard LP file format (Minimize/Subject To/...)."""

    def term(coef: float, name: str, first: bool) -> str:
        sign = "- " if coef < 0 else ("" if first else "+ ")
        mag = abs(coef)
        body = name if mag == 1.0 else f"{_num(mag)} {name}"
        return sign + body

    lines = ["Maximize" if lp.sense == "max" else "Minimize"]
    obj_terms: list[str] = []
    for j, coef in enumerate(lp.objective):
        if coef != 0.0:
            obj_terms.append(term(coef, lp.names[j], not obj_terms))
    if lp.constant != 0.0:
        sign = "- " if lp.constant < 0 else ("" if not obj_terms else "+ ")
        obj_terms.append(sign + _num(abs(lp.constant)))
    lines.append(" obj: " + (" ".join(obj_terms) if obj_terms else "0"))
    lines.append("Subject To")
    for i, con in enumerate(lp.constraints):
        parts: list[str] = []
        for j, coef in con.coeffs:
            if coef != 0.0:
                parts.append(term(coef, lp.names[j], not parts))
        body = " ".join(parts) if parts else "0 " + lp.names[0]
        lines.append(f" c{i}: {body} {con.rel} {_num(con.rhs)}")
    lines.append("Bounds")
    for j, name in enumerate(lp.names):
        lo, hi = lp.lower[j], lp.upper[j]
        if math.isfinite(hi):
            lines.append(f" {_num(lo)} <= {name} <= {_num(hi)}")
        elif lo == 0.0:
            lines.append(f" {name} >= 0")
        else:
            lines.append(f" {name} >= {_num(lo)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def parse_primal_text(lp: LinearProgram, text: str) -> np.ndarray:
    """Read a whitespace-separated ``name value`` primal-solution file.

    Unmentioned variables default to their lower bound. A malformed line, an
    unknown name or a value that is not a finite number raises ``ValueError``
    naming the line.
    """
    x = np.array(lp.lower, dtype=float)
    index = {name: j for j, name in enumerate(lp.names)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'name value'")
        name, value = tokens
        if name not in index:
            raise ValueError(f"line {lineno}: unknown variable {name!r}")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ValueError(f"line {lineno}: value {value!r} is not a finite number")
        x[index[name]] = number
    return x
