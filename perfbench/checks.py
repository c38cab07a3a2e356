"""Output checks for benchmark commands.

Every check returns a list of problems; a command whose list is not empty
counts as failed. Checks read only what the command printed, plus reference
values the harness computed on its own (``Refs``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

BOUND_TOL = 1e-9  # float slack when a bound is compared with a mistake count
LP_TOL = 1e-6  # agreement required between reported and reference LP values
EXPECTED_REL_TOL = 1e-9  # recorded float fields may differ in the last digits only

CERTS_SUMMARY = "46/46 certificates verified, max bound 1/2"
_COMPARE_RE = re.compile(
    r"^dataset=(\S+) ecc_lp=(\S+) nodemc_lp=(\S+) gap=(\S+)$")


@dataclass
class Refs:
    """Values the harness computed independently of the program's output."""

    ecc_lp: dict[str, float] = field(default_factory=dict)  # instance -> LP optimum
    nodemc_lp: dict[str, float] = field(default_factory=dict)
    match_mistakes: dict[str, float] = field(default_factory=dict)


def outcome(kind: str, code, stdout: str, error: str | None) -> dict:
    """The non-timing result of one command, as compared with recorded results."""
    if error is not None:
        return {"exit": code, "error": error}
    if kind != "solve" or code != 0:
        return {"exit": code, "stdout": stdout}
    try:
        (record,) = json.loads(stdout)
    except ValueError:
        return {"exit": code, "error": "solve did not print one JSON record",
                "stdout": stdout}
    record.pop("seconds", None)
    return {"exit": code, **record}


def solve_problems(algo: str, rec: dict) -> list[str]:
    problems = []
    for key in ("lp_bound", "match_bound", "mv_bound"):
        if rec.get(key) is not None and rec[key] > rec["mistakes"] + BOUND_TOL:
            problems.append(f"{key} {rec[key]} exceeds mistakes {rec['mistakes']}")
    if algo == "match" and rec["mistakes"] > 2 * rec["match_bound"] + BOUND_TOL:
        problems.append(
            f"match mistakes {rec['mistakes']} exceed 2 * match_bound {rec['match_bound']}")
    return problems


def hybrid_problems(rec: dict, match_rec: dict) -> list[str]:
    if rec["mistakes"] > match_rec["mistakes"] + BOUND_TOL:
        return [f"hybrid mistakes {rec['mistakes']} exceed match mistakes {match_rec['mistakes']}"]
    return []


def exact_problems(rec: dict, lp_value: float, match_mistakes: float) -> list[str]:
    problems = []
    if rec["mistakes"] < lp_value - LP_TOL:
        problems.append(f"exact mistakes {rec['mistakes']} below the LP bound {lp_value}")
    if rec["mistakes"] > match_mistakes + BOUND_TOL:
        problems.append(f"exact mistakes {rec['mistakes']} exceed match mistakes {match_mistakes}")
    return problems


def lp_value_problems(what: str, reported: float, reference: float) -> list[str]:
    if abs(reported - reference) > LP_TOL:
        return [f"{what} {reported} differs from the reference LP value {reference}"]
    return []


def compare_lp_problems(stdout: str, ecc_expected: float, ecc_ref: float,
                        mc_ref: float) -> list[str]:
    match = _COMPARE_RE.match(stdout.strip())
    if match is None:
        return [f"unrecognised compare-lp output {stdout!r}"]
    ecc, mc, gap = (float(g) for g in match.groups()[1:])
    problems = []
    if abs(ecc - ecc_expected) > LP_TOL:
        problems.append(f"ecc_lp {ecc} differs from the known value {ecc_expected}")
    if gap < 0:
        problems.append(f"negative gap {gap}")
    problems += lp_value_problems("ecc_lp", ecc, ecc_ref)
    problems += lp_value_problems("nodemc_lp", mc, mc_ref)
    return problems


def certs_problems(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != CERTS_SUMMARY:
        return [f"certificate summary is {lines[-1] if lines else ''!r}, not {CERTS_SUMMARY!r}"]
    return []


def invariants_problems(stdout: str, dataset: str) -> list[str]:
    if not re.fullmatch(rf"{re.escape(dataset)}: .* hold on the LP solution\n", stdout):
        return [f"invariant check did not report success: {stdout[:200]!r}"]
    return []


def reduce_vc_problems(stdout: str, conflict_edges: int) -> list[str]:
    lines = stdout.splitlines()
    found = sum(1 for line in lines if line.startswith("e "))
    problems = []
    if not lines or lines[0].split()[:1] != ["vc"]:
        problems.append("missing 'vc' header")
    if found != conflict_edges:
        problems.append(f"{found} conflict edges, expected {conflict_edges}")
    return problems


def expected_problems(got: dict, want: dict) -> list[str]:
    """Compare a command's outcome with the one recorded at the default seed."""
    problems = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if isinstance(a, float) and isinstance(b, (int, float)) and not isinstance(b, bool):
            same = math.isclose(a, b, rel_tol=EXPECTED_REL_TOL, abs_tol=0.0)
        else:
            same = a == b
        if not same:
            problems.append(f"{key} is {str(a)[:80]!r}, recorded {str(b)[:80]!r}")
    return problems
