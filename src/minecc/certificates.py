"""Exact verification of the dual certificates behind the 4/3 rounding factor.

The graph-case analysis reduces to 46 small auxiliary linear programs: family A
(six cases, one per ``q``) bounds the mistake-probability-to-distance ratio
while the edge variable is below 1/2, family B (forty ``(p, q)`` pairs) while
it lies in ``[1/2, 3/4)``. Each case carries a known-good nonnegative dual
vector. By weak duality, checking ``A^T y = c`` componentwise and
``constant + b^T y <= 1/2`` proves the primal optimum is at most 1/2, which is
exactly what the 4/3 guarantee needs.

Everything here runs in exact rational arithmetic (`fractions.Fraction`); a
single corrupted table entry flips the verification to a failure. A SHA-256
digest over the embedded table guards against accidental edits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

# The exact check needs no numpy; the LP layer is imported only by the float
# export and cross-check at the end.
if TYPE_CHECKING:
    from .lp import LinearProgram

HALF = Fraction(1, 2)

# Dual variables per case, sparse by constraint label; omitted labels are zero.
# Last element of each entry is the claimed bound (= constant + b^T y).

A_TABLE: dict[int, tuple[dict[str, str], str]] = {
    1: ({"A6": "1/2", "A9": "1/16"}, "3/8"),
    2: ({"A1": "1/6", "A6": "2/3", "A9": "1/12"}, "1/2"),
    3: ({"A6": "1/2", "A7": "1/6", "A9": "5/48", "A10": "1/12"}, "11/24"),
    4: ({"A3": "1/12", "A6": "1/2", "A7": "1/6", "A9": "5/48", "A10": "1/30"}, "11/24"),
    5: ({"A3": "1/12", "A4": "1/30", "A6": "1/2", "A7": "1/6", "A9": "5/48"}, "11/24"),
    6: (
        {
            "A3": "1/12",
            "A4": "1/30",
            "A5": "1/42",
            "A6": "1/2",
            "A7": "1/6",
            "A8": "1/126",
            "A9": "3/28",
        },
        "29/63",
    ),
}

B_TABLE: dict[tuple[int, int], tuple[dict[str, str], str]] = {
    (1, 1): ({"B15": "4/7", "B16": "1/14"}, "3/7"),
    (1, 2): ({"B1": "1/6", "B10": "1/12", "B15": "7/12"}, "1/2"),
    (1, 3): ({"B1": "3/32", "B2": "1/192", "B11": "5/64", "B15": "19/32"}, "31/64"),
    (1, 4): (
        {"B1": "1/10", "B2": "1/30", "B3": "1/20", "B11": "1/10", "B15": "3/5"},
        "1/2",
    ),
    (1, 5): (
        {
            "B1": "47/450",
            "B3": "13/900",
            "B11": "14/225",
            "B12": "8/225",
            "B15": "136/225",
            "B16": "1/450",
        },
        "37/75",
    ),
    (1, 6): (
        {
            "B1": "3/28",
            "B3": "5/252",
            "B4": "17/1260",
            "B5": "1/42",
            "B11": "5/84",
            "B12": "11/252",
            "B15": "17/28",
        },
        "125/252",
    ),
    (1, 7): (
        {
            "B1": "7/64",
            "B3": "37/2016",
            "B4": "257/20160",
            "B5": "1/42",
            "B11": "11/192",
            "B12": "179/4032",
            "B13": "1/224",
            "B15": "39/64",
        },
        "2003/4032",
    ),
    (1, 8): (
        {
            "B1": "1/9",
            "B3": "13/756",
            "B4": "23/1890",
            "B5": "1/42",
            "B7": "1/72",
            "B11": "1/18",
            "B12": "17/378",
            "B13": "1/126",
            "B15": "11/18",
        },
        "94/189",
    ),
    (1, 9): (
        {
            "B1": "9/80",
            "B3": "41/2520",
            "B4": "59/5040",
            "B5": "1/42",
            "B7": "1/40",
            "B8": "1/90",
            "B11": "13/240",
            "B12": "229/5040",
            "B13": "3/280",
            "B15": "49/80",
        },
        "2509/5040",
    ),
    (1, 10): (
        {
            "B1": "5/44",
            "B3": "43/2772",
            "B4": "157/13860",
            "B5": "1/42",
            "B7": "3/88",
            "B8": "2/99",
            "B9": "1/110",
            "B11": "7/132",
            "B12": "127/2772",
            "B13": "1/77",
            "B15": "27/44",
        },
        "1381/2772",
    ),
    (2, 2): ({"B10": "1/12", "B14": "1/12", "B15": "1/6"}, "1/2"),
    (2, 3): ({"B2": "1/192", "B11": "5/64", "B15": "3/32"}, "31/64"),
    (2, 4): ({"B2": "1/30", "B3": "1/20", "B11": "1/10", "B15": "1/10"}, "1/2"),
    (2, 5): (
        {
            "B3": "13/900",
            "B11": "14/225",
            "B12": "8/225",
            "B15": "47/450",
            "B16": "1/450",
        },
        "37/75",
    ),
    (2, 6): (
        {
            "B3": "5/252",
            "B4": "17/1260",
            "B5": "1/42",
            "B11": "5/84",
            "B12": "11/252",
            "B15": "3/28",
        },
        "125/252",
    ),
    (2, 7): (
        {
            "B3": "37/2016",
            "B4": "257/20160",
            "B5": "1/42",
            "B11": "11/192",
            "B12": "179/4032",
            "B13": "1/224",
            "B15": "7/64",
        },
        "2003/4032",
    ),
    (2, 8): (
        {
            "B3": "13/756",
            "B4": "23/1890",
            "B5": "1/42",
            "B7": "1/72",
            "B11": "1/18",
            "B12": "17/378",
            "B13": "1/126",
            "B15": "1/9",
        },
        "94/189",
    ),
    (2, 9): (
        {
            "B3": "41/2520",
            "B4": "59/5040",
            "B5": "1/42",
            "B7": "1/40",
            "B8": "1/90",
            "B11": "13/240",
            "B12": "229/5040",
            "B13": "3/280",
            "B15": "9/80",
        },
        "2509/5040",
    ),
    (2, 10): (
        {
            "B3": "43/2772",
            "B4": "157/13860",
            "B5": "1/42",
            "B7": "3/88",
            "B8": "2/99",
            "B9": "1/110",
            "B11": "7/132",
            "B12": "127/2772",
            "B13": "1/77",
            "B15": "5/44",
        },
        "1381/2772",
    ),
    (3, 3): ({"B11": "5/64", "B14": "5/64", "B15": "1/192"}, "31/64"),
    (3, 4): ({"B3": "1/20", "B11": "1/10", "B14": "1/10", "B15": "1/30"}, "1/2"),
    (3, 5): (
        {
            "B3": "13/900",
            "B11": "14/225",
            "B12": "8/225",
            "B14": "14/225",
            "B16": "1/450",
        },
        "37/75",
    ),
    (3, 6): (
        {
            "B3": "5/252",
            "B4": "17/1260",
            "B5": "1/42",
            "B11": "5/84",
            "B12": "11/252",
            "B14": "5/84",
        },
        "125/252",
    ),
    (3, 7): (
        {
            "B3": "37/2016",
            "B4": "257/20160",
            "B5": "1/42",
            "B11": "11/192",
            "B12": "179/4032",
            "B13": "1/224",
            "B14": "11/192",
        },
        "2003/4032",
    ),
    (3, 8): (
        {
            "B3": "13/756",
            "B4": "23/1890",
            "B5": "1/42",
            "B7": "1/72",
            "B11": "1/18",
            "B12": "17/378",
            "B13": "1/126",
            "B14": "1/18",
        },
        "94/189",
    ),
    (3, 9): (
        {
            "B3": "41/2520",
            "B4": "59/5040",
            "B5": "1/42",
            "B7": "1/40",
            "B8": "1/90",
            "B11": "13/240",
            "B12": "229/5040",
            "B13": "3/280",
            "B14": "13/240",
        },
        "2509/5040",
    ),
    (3, 10): (
        {
            "B3": "43/2772",
            "B4": "157/13860",
            "B5": "1/42",
            "B7": "3/88",
            "B8": "2/99",
            "B9": "1/110",
            "B11": "7/132",
            "B12": "127/2772",
            "B13": "1/77",
            "B14": "7/132",
        },
        "1381/2772",
    ),
    (4, 4): ({"B2": "1/10", "B11": "1/10", "B14": "1/5", "B15": "1/20"}, "1/2"),
    (4, 5): (
        {"B2": "3/64", "B11": "3/64", "B12": "1/20", "B14": "23/160", "B16": "1/60"},
        "157/320",
    ),
    (4, 6): (
        {
            "B2": "5/112",
            "B4": "1/280",
            "B5": "1/42",
            "B11": "5/112",
            "B12": "3/56",
            "B14": "1/7",
        },
        "55/112",
    ),
    (4, 7): (
        {
            "B2": "39/896",
            "B4": "1/280",
            "B5": "1/42",
            "B11": "39/896",
            "B12": "3/56",
            "B13": "1/224",
            "B14": "9/64",
        },
        "63/128",
    ),
    (4, 8): (
        {
            "B2": "43/1008",
            "B4": "1/280",
            "B5": "1/42",
            "B7": "1/72",
            "B11": "43/1008",
            "B12": "3/56",
            "B13": "1/126",
            "B14": "5/36",
        },
        "71/144",
    ),
    (4, 9): (
        {
            "B2": "47/1120",
            "B4": "1/280",
            "B5": "1/42",
            "B7": "1/40",
            "B8": "1/90",
            "B11": "47/1120",
            "B12": "3/56",
            "B13": "3/280",
            "B14": "11/80",
        },
        "79/160",
    ),
    (4, 10): (
        {
            "B2": "51/1232",
            "B4": "1/280",
            "B5": "1/42",
            "B7": "3/88",
            "B8": "2/99",
            "B9": "1/110",
            "B11": "51/1232",
            "B12": "3/56",
            "B13": "1/77",
            "B14": "3/22",
        },
        "87/176",
    ),
    (5, 5): ({"B3": "8/85", "B12": "8/85", "B14": "16/85", "B16": "31/510"}, "41/85"),
    (5, 6): (
        {"B3": "8/85", "B5": "31/510", "B12": "8/85", "B14": "16/85", "B16": "22/595"},
        "41/85",
    ),
    (5, 7): (
        {
            "B3": "8/85",
            "B5": "31/510",
            "B6": "22/595",
            "B12": "8/85",
            "B14": "16/85",
            "B16": "13/680",
        },
        "41/85",
    ),
    (5, 8): (
        {
            "B3": "8/85",
            "B5": "31/510",
            "B6": "22/595",
            "B7": "13/680",
            "B12": "8/85",
            "B14": "16/85",
            "B16": "4/765",
        },
        "41/85",
    ),
    (5, 9): (
        {
            "B3": "3/32",
            "B5": "29/480",
            "B6": "41/1120",
            "B7": "1/40",
            "B8": "1/90",
            "B12": "3/32",
            "B13": "1/640",
            "B14": "3/16",
        },
        "309/640",
    ),
    (5, 10): (
        {
            "B3": "41/440",
            "B5": "79/1320",
            "B6": "111/3080",
            "B7": "3/88",
            "B8": "2/99",
            "B9": "1/110",
            "B12": "41/440",
            "B13": "7/1760",
            "B14": "41/220",
        },
        "851/1760",
    ),
}

TABLE_DIGEST = "a57efae625b500dac4672ce0e7ed77da95a6b898ee548f5135834f87b4ec7b0d"


def table_digest() -> str:
    """SHA-256 over a canonical rendering of the embedded certificate table."""
    parts: list[str] = []
    for q in sorted(A_TABLE):
        duals, bound = A_TABLE[q]
        entries = ",".join(f"{k}={v}" for k, v in sorted(duals.items()))
        parts.append(f"A q={q} {entries} bound={bound}")
    for (p, q) in sorted(B_TABLE):
        duals, bound = B_TABLE[(p, q)]
        entries = ",".join(f"{k}={v}" for k, v in sorted(duals.items()))
        parts.append(f"B p={p} q={q} {entries} bound={bound}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass(frozen=True)
class AuxLpCase:
    """One auxiliary maximization case: exact rows ``A x <= b``, exact objective."""

    family: str
    p: int | None
    q: int
    var_names: tuple[str, ...]
    rows: tuple[tuple[str, dict[int, Fraction], Fraction], ...]
    objective: tuple[Fraction, ...]
    constant: Fraction

    @property
    def case_id(self) -> str:
        if self.family == "A":
            return f"A q={self.q}"
        return f"B p={self.p} q={self.q}"

    def row_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.rows)


@dataclass(frozen=True)
class DualCertificate:
    """Nonnegative dual variables (sparse by constraint label) and the bound they claim."""

    case_id: str
    duals: dict[str, Fraction]
    claimed: Fraction


def build_lp_a(q: int) -> AuxLpCase:
    """Family-A case for ``q`` competitor colors (threshold variables w1..w6, chi)."""
    if not (1 <= q <= 6):
        raise ValueError("family A needs 1 <= q <= 6")
    w = list(range(6))  # variables w1..w6 at indices 0..5
    chi = 6
    rows: list[tuple[str, dict[int, Fraction], Fraction]] = []
    for i in range(1, 6):
        rows.append((f"A{i}", {w[i - 1]: Fraction(1), w[i]: Fraction(-1)}, Fraction(0)))
    rows.append(("A6", {chi: Fraction(1), w[0]: Fraction(-1)}, Fraction(1)))
    rows.append(("A7", {chi: Fraction(2), w[1]: Fraction(-1), w[2]: Fraction(-1)}, Fraction(1)))
    rows.append(("A8", {chi: Fraction(3), w[4]: Fraction(-3)}, Fraction(1)))
    rows.append(("A9", {chi: Fraction(-1)}, Fraction(-2)))
    rows.append(("A10", {w[q - 1]: Fraction(1), chi: Fraction(-7, 8)}, Fraction(0)))
    objective = [Fraction(0)] * 7
    objective[chi] = Fraction(7 * q, 8 * (q + 1))
    for j in range(1, q + 1):
        objective[j - 1] = Fraction(-1, j * (j + 1))
    names = tuple(f"w{i}" for i in range(1, 7)) + ("chi",)
    return AuxLpCase("A", None, q, names, tuple(rows), tuple(objective), Fraction(0))


def build_lp_b(p: int, q: int) -> AuxLpCase:
    """Family-B case for thresholds straddling the edge variable (w1..w10, chi)."""
    if not (1 <= p <= 5 and p <= q <= 10):
        raise ValueError("family B needs 1 <= p <= 5 and p <= q <= 10")
    w = list(range(10))
    chi = 10
    rows: list[tuple[str, dict[int, Fraction], Fraction]] = []
    for i in range(1, 10):
        rows.append((f"B{i}", {w[i - 1]: Fraction(1), w[i]: Fraction(-1)}, Fraction(0)))
    rows.append(("B10", {chi: Fraction(1), w[0]: Fraction(-1)}, Fraction(1)))
    rows.append(("B11", {chi: Fraction(2), w[1]: Fraction(-1), w[2]: Fraction(-1)}, Fraction(1)))
    rows.append(
        ("B12", {chi: Fraction(3), w[2]: Fraction(-1), w[3]: Fraction(-1), w[4]: Fraction(-1)}, Fraction(1))
    )
    rows.append(("B13", {chi: Fraction(4), w[6]: Fraction(-4)}, Fraction(1)))
    # For p = 1 the w_0 in "w_{p-1} <= 1" is the constant zero, so the row is empty.
    b14: dict[int, Fraction] = {} if p == 1 else {w[p - 2]: Fraction(1)}
    rows.append(("B14", b14, Fraction(1)))
    rows.append(("B15", {w[p - 1]: Fraction(-1)}, Fraction(-1)))
    rows.append(("B16", {w[q - 1]: Fraction(1), chi: Fraction(-7, 8)}, Fraction(0)))
    objective = [Fraction(0)] * 11
    objective[chi] = Fraction(q, q + 1) * Fraction(7, 8) - HALF
    for j in range(p, q + 1):
        objective[j - 1] = Fraction(-1, j * (j + 1))
    names = tuple(f"w{i}" for i in range(1, 11)) + ("chi",)
    return AuxLpCase("B", p, q, names, tuple(rows), tuple(objective), Fraction(1, p))


def embedded_certificate(case: AuxLpCase) -> DualCertificate:
    """Look up the embedded dual vector for a case."""
    if case.family == "A":
        raw, bound = A_TABLE[case.q]
    else:
        raw, bound = B_TABLE[(case.p, case.q)]
    duals = {label: Fraction(value) for label, value in raw.items()}
    return DualCertificate(case.case_id, duals, Fraction(bound))


def verify_certificate(
    case: AuxLpCase, cert: DualCertificate
) -> tuple[Fraction, bool, list[str]]:
    """Exact weak-duality check of one certificate.

    Confirms nonnegativity, the stationarity ``A^T y = c`` componentwise, and
    that ``constant + b^T y`` equals the claimed bound and is at most 1/2.
    Returns ``(bound, ok, failure messages)``.
    """
    labels = case.row_labels()
    failures: list[str] = []
    unknown = set(cert.duals) - set(labels)
    if unknown:
        raise ValueError(f"{case.case_id}: certificate names unknown constraints {sorted(unknown)}")
    y = [cert.duals.get(label, Fraction(0)) for label in labels]
    for label, value in zip(labels, y):
        if value < 0:
            failures.append(f"dual for {label} is negative: {value}")
    combo = [Fraction(0)] * len(case.var_names)
    bound = case.constant
    for (label, coeffs, rhs), value in zip(case.rows, y):
        bound += value * rhs
        if value:
            for var, coef in coeffs.items():
                combo[var] += value * coef
    for var, (got, want) in enumerate(zip(combo, case.objective)):
        if got != want:
            failures.append(
                f"stationarity fails at {case.var_names[var]}: A^T y = {got}, c = {want}"
            )
    if bound > HALF:
        failures.append(f"bound {bound} exceeds 1/2")
    if bound != cert.claimed:
        failures.append(f"bound {bound} differs from claimed {cert.claimed}")
    return bound, not failures, failures


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    lines: tuple[str, ...]
    max_bound: Fraction
    verified: int


def all_cases() -> list[AuxLpCase]:
    cases = [build_lp_a(q) for q in range(1, 7)]
    cases += [build_lp_b(p, q) for p in range(1, 6) for q in range(p, 11)]
    return cases


def verify_all() -> CertificateReport:
    """Verify all 46 embedded certificates; any failure aborts with the case named."""
    if table_digest() != TABLE_DIGEST:
        raise RuntimeError("certificate table digest mismatch; table was modified")
    lines: list[str] = []
    max_bound = Fraction(0)
    count = 0
    for case in all_cases():
        cert = embedded_certificate(case)
        bound, ok, failures = verify_certificate(case, cert)
        if not ok:
            raise RuntimeError(f"certificate {case.case_id} failed: " + "; ".join(failures))
        lines.append(f"{case.case_id} bound={bound} OK")
        max_bound = max(max_bound, bound)
        count += 1
    return CertificateReport(True, tuple(lines), max_bound, count)


# The printed cases leave some variables without finite upper bounds (they are
# ratios with implicit domain limits), so the numeric program boxes every
# variable into [0, VAR_BOUND]: the box gives each negative min-form cost the
# finite upper bound that the simplex measures its column from. The exact
# certificate check needs no such box.
VAR_BOUND = 16.0


def case_to_lp(case: AuxLpCase) -> LinearProgram:
    """Float version of a case for the numeric cross-check and for text export."""
    from .lp import LE, LinearProgram, Rows

    indptr, indices, data = [0], [], []
    for _, coeffs, _ in case.rows:
        for j in sorted(coeffs):
            indices.append(j)
            data.append(float(coeffs[j]))
        indptr.append(len(indices))
    rhs = [float(b) for _, _, b in case.rows]
    return LinearProgram([float(c) for c in case.objective], 0.0, VAR_BOUND, case.var_names,
                         Rows(indptr, indices, data, [LE] * len(rhs), rhs),
                         sense="max", constant=float(case.constant))


def solve_aux_numeric(case: AuxLpCase) -> float:
    """Primal optimum of a case via the reference simplex (cross-check only)."""
    from .lp import solve

    result = solve(case_to_lp(case)).require_optimal()
    return float(result.value)
