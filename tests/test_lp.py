import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minecc.certificates import all_cases, case_to_lp
from minecc.hypergraph import hypergraph
from minecc.instances import gen_integrality_gap, gen_random, gen_star
from minecc.lp import LinearProgram, export_lp_text, parse_primal_text, solve
from minecc.relaxations import (
    build_ecc_lp,
    build_nodemc_lp,
    extract_ecc_solution,
    solution_from_vector,
)

from conftest import edges_of, random_instance, reference_simplex


def ecc_value(h) -> float:
    return float(solve(build_ecc_lp(h)).require_optimal().value)


def nodemc_value(h) -> float:
    return float(solve(build_nodemc_lp(h)).require_optimal().value)


class TestSimplex:
    def test_min_with_lower_constraint(self):
        lp = LinearProgram(sense="min")
        lp.add_var("x", 0, 10, obj=1.0)
        lp.add_constraint([(0, 1.0)], ">=", 2.0)
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0)

    def test_unbounded(self):
        lp = LinearProgram(sense="max")
        lp.add_var("x", 0, math.inf, obj=1.0)
        assert solve(lp).status == "unbounded"

    def test_infeasible(self):
        lp = LinearProgram(sense="min")
        lp.add_var("x", 0, 1, obj=1.0)
        lp.add_constraint([(0, 1.0)], ">=", 3.0)
        assert solve(lp).status == "infeasible"

    def test_redundant_equalities(self):
        # Duplicate equality rows leave an artificial stuck on a zero row.
        lp = LinearProgram(sense="min")
        lp.add_var("x", 0, 5, obj=1.0)
        lp.add_var("y", 0, 5, obj=1.0)
        for _ in range(3):
            lp.add_constraint([(0, 1.0), (1, 1.0)], "=", 2.0)
        res = solve(lp).require_optimal()
        assert res.value == pytest.approx(2.0)

    def test_equality_and_negative_rhs(self):
        lp = LinearProgram(sense="min")
        lp.add_var("x", 0, 5, obj=1.0)
        lp.add_var("y", 0, 5, obj=2.0)
        lp.add_constraint([(0, 1.0), (1, 1.0)], "=", 3.0)
        lp.add_constraint([(0, -1.0)], "<=", -1.0)  # x >= 1
        res = solve(lp).require_optimal()
        assert res.value == pytest.approx(3.0)
        assert res.x[0] == pytest.approx(3.0)

    def test_max_sense_value(self):
        lp = LinearProgram(sense="max")
        lp.add_var("x", 0, 4, obj=2.0)
        lp.constant = 1.0
        res = solve(lp).require_optimal()
        assert res.value == pytest.approx(9.0)

    def test_deterministic(self):
        h = gen_random(8, 14, 3, 3, 0.4, seed=3).hypergraph
        lp = build_ecc_lp(h)
        a = solve(lp).require_optimal()
        b = solve(lp).require_optimal()
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations

    def test_values_match_external_solver(self):
        scipy_opt = pytest.importorskip("scipy.optimize")

        def reference(lp):
            n = lp.num_vars
            c = np.array(lp.objective) * (1 if lp.sense == "min" else -1)
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for con in lp.constraints:
                row = np.zeros(n)
                for j, coef in con.coeffs:
                    row[j] = coef
                if con.rel == "<=":
                    a_ub.append(row), b_ub.append(con.rhs)
                elif con.rel == ">=":
                    a_ub.append(-row), b_ub.append(-con.rhs)
                else:
                    a_eq.append(row), b_eq.append(con.rhs)
            bounds = [
                (lo, hi if math.isfinite(hi) else None)
                for lo, hi in zip(lp.lower, lp.upper)
            ]
            res = scipy_opt.linprog(
                c,
                A_ub=np.array(a_ub) if a_ub else None,
                b_ub=b_ub or None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=b_eq or None,
                bounds=bounds,
                method="highs",
            )
            assert res.status == 0
            return (1 if lp.sense == "min" else -1) * res.fun + lp.constant

        rng = np.random.default_rng(4242)
        for _ in range(6):
            h = gen_random(
                int(rng.integers(4, 10)), int(rng.integers(5, 13)), 3,
                int(rng.integers(2, 5)), float(rng.uniform(0, 0.9)),
                seed=int(rng.integers(10**6)),
            ).hypergraph
            for build in (build_ecc_lp, build_nodemc_lp):
                lp = build(h)
                assert solve(lp).require_optimal().value == pytest.approx(
                    reference(lp), abs=1e-7
                )


def assert_same_as_reference(lp, iteration_limit=200_000):
    got = solve(lp, iteration_limit)
    want = reference_simplex(lp, iteration_limit)
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert got.basic == want.basic and got.value == want.value
    assert (got.x is None and want.x is None) or np.array_equal(got.x, want.x)


@st.composite
def generic_lps(draw):
    """Small LPs with every row relation, negative rhs, shifted or boxed
    variables, either sense, and optionally a repeated equality row."""
    coef = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    lp = LinearProgram(sense=draw(st.sampled_from(["min", "max"])))
    n = draw(st.integers(1, 6))
    for j in range(n):
        lo = draw(st.sampled_from([0.0, 0.0, -2.0, -0.5, 1.0]))
        width = draw(st.sampled_from([math.inf, 0.0, 1.0, 2.5, 4.0]))
        lp.add_var(f"x{j}", lo, lo + width, obj=draw(coef))
    for _ in range(draw(st.integers(0, 6))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        rel = draw(st.sampled_from(["<=", ">=", "="]))
        rhs = draw(st.sampled_from([-4.0, -1.0, 0.0, 1.0, 2.5, 6.0]))
        lp.add_constraint([(j, draw(coef)) for j in support], rel, rhs)
    equalities = [con for con in lp.constraints if con.rel == "="]
    if equalities and draw(st.booleans()):
        lp.constraints.append(equalities[0])
    return lp


class TestSparsePivotMatchesReference:
    """``solve`` takes the same pivots as the dense-update reference simplex,
    so status, iteration count, primal vector, basis and value are equal."""

    @settings(max_examples=300, deadline=None)
    @given(lp=generic_lps(), iteration_limit=st.sampled_from([200_000, 2]))
    def test_generic(self, lp, iteration_limit):
        assert_same_as_reference(lp, iteration_limit)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 9),
        m=st.integers(1, 14),
        k=st.integers(2, 4),
        nodemc=st.booleans(),
    )
    def test_relaxations(self, seed, n, m, k, nodemc):
        h = random_instance(np.random.default_rng(seed), n, m, k)
        assert_same_as_reference((build_nodemc_lp if nodemc else build_ecc_lp)(h))

    @pytest.mark.parametrize("case", all_cases(), ids=lambda case: f"{case.family}-p{case.p}-q{case.q}")
    def test_certificate_lps(self, case):
        assert_same_as_reference(case_to_lp(case))


class TestEccLp:
    def test_single_edge_single_color(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        assert ecc_value(h) == pytest.approx(0.0)

    @pytest.mark.parametrize("k,expected", [(3, 1.5), (4, 2.0), (5, 2.5)])
    def test_gap_value(self, k, expected):
        assert ecc_value(gen_integrality_gap(k)) == pytest.approx(expected, abs=1e-6)

    def test_star_value(self):
        assert ecc_value(gen_star()) == pytest.approx(2.0, abs=1e-6)

    def test_gap3_solution_structure(self):
        h = gen_integrality_gap(3)
        sol = extract_ecc_solution(h, solve(build_ecc_lp(h)))
        assert np.allclose(sol.x_edge, 0.5, atol=1e-6)
        assert sol.violations(h) == []

    def test_k2_basic_solutions_integral(self):
        for seed in range(8):
            h = gen_random(8, 12, 3, 2, 0.4, seed=seed).hypergraph
            res = solve(build_ecc_lp(h)).require_optimal()
            distance = np.minimum(np.abs(res.x), np.abs(res.x - 1.0))
            assert distance.max() <= 1e-7

    def test_weights_enter_objective(self):
        h = hypergraph(3, 2, [((0, 1), 1, 3.0), ((1, 2), 2, 1.0)])
        # One conflicting pair; fractional LP pays the cheaper side at least.
        assert ecc_value(h) <= 1.0 + 1e-9

    def test_planted_zero_noise_reads_truth(self):
        planted = gen_random(10, 18, 3, 3, 0.0, seed=4)
        h = planted.hypergraph
        sol = extract_ecc_solution(h, solve(build_ecc_lp(h)))
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        for v in range(h.num_nodes):
            zero_colors = np.flatnonzero(sol.x_node[v] == 0.0) + 1
            if len(zero_colors) == 1 and any(v in e.members for e in edges_of(h)):
                assert zero_colors[0] == planted.truth[v]


class TestNodeMcLp:
    def test_star_value_three_halves(self):
        assert nodemc_value(gen_star()) == pytest.approx(1.5, abs=1e-6)

    def test_single_edge_single_color(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        assert nodemc_value(h) == pytest.approx(0.0, abs=1e-9)

    def test_never_exceeds_ecc_lp(self):
        for seed in range(6):
            h = gen_random(9, 14, 3, 3, 0.4, seed=seed).hypergraph
            assert nodemc_value(h) <= ecc_value(h) + 1e-6

    def test_strict_gap_on_star(self):
        star = gen_star()
        assert nodemc_value(star) < ecc_value(star) - 0.4


class TestExtract:
    def test_snapping(self):
        h = hypergraph(2, 2, [((0, 1), 1)])
        raw = np.array([1e-9, 1 - 1e-9, 1e-9, 1 - 1e-9, 1e-9])
        sol = solution_from_vector(h, raw)
        assert sol.x_node[0, 0] == 0.0 and sol.x_node[0, 1] == 1.0

    def test_tighten_sets_edge_to_member_max(self):
        h = hypergraph(2, 2, [((0, 1), 1)])
        raw = np.array([0.25, 0.75, 0.5, 0.5, 0.9])
        sol = solution_from_vector(h, raw, tighten=True)
        assert sol.x_edge[0] == pytest.approx(0.5)
        loose = solution_from_vector(h, raw, tighten=False)
        assert loose.x_edge[0] == pytest.approx(0.9)

    def test_rejects_non_optimal_result(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        lp = LinearProgram(sense="min")
        lp.add_var("x", 0, 1, obj=1.0)
        lp.add_constraint([(0, 1.0)], ">=", 2.0)
        res = solve(lp)
        with pytest.raises(RuntimeError):
            extract_ecc_solution(h, res)

    def test_feasibility_roundtrip(self):
        h = gen_random(8, 12, 3, 3, 0.4, seed=6).hypergraph
        sol = extract_ecc_solution(h, solve(build_ecc_lp(h)))
        assert sol.violations(h, tol=1e-6) == []


def _parse_lp_text(text: str):
    """Minimal reader for the exported LP subset, used to cross-check exports."""
    section = None
    sense = None
    obj: dict[str, float] = {}
    constraints = []
    bounds: dict[str, tuple[float, float]] = {}

    def parse_terms(expr: str) -> dict[str, float]:
        terms: dict[str, float] = {}
        tokens = expr.replace("+", " + ").replace("-", " - ").split()
        sign, coef = 1.0, None
        for tok in tokens:
            if tok == "+":
                sign, coef = 1.0, None
            elif tok == "-":
                sign, coef = -1.0, None
            else:
                try:
                    coef = float(tok)
                except ValueError:
                    terms[tok] = terms.get(tok, 0.0) + sign * (1.0 if coef is None else coef)
                    sign, coef = 1.0, None
        return terms

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line in ("Minimize", "Maximize"):
            sense = "min" if line == "Minimize" else "max"
            section = "obj"
            continue
        if line == "Subject To":
            section = "con"
            continue
        if line == "Bounds":
            section = "bounds"
            continue
        if line == "End":
            break
        if section == "obj":
            obj = parse_terms(line.split(":", 1)[1])
        elif section == "con":
            body = line.split(":", 1)[1]
            match = re.search(r"(<=|>=|=)", body)
            rel = match.group(1)
            lhs, rhs = body.split(rel)
            constraints.append((parse_terms(lhs), rel, float(rhs)))
        elif section == "bounds":
            if "<=" in line:
                lo, name, hi = re.match(r"(\S+) <= (\S+) <= (\S+)", line).groups()
                bounds[name] = (float(lo), float(hi))
            else:
                name, lo = re.match(r"(\S+) >= (\S+)", line).groups()
                bounds[name] = (float(lo), math.inf)
    return sense, obj, constraints, bounds


class TestExport:
    def test_sections_present(self):
        lp = LinearProgram(sense="min")
        lp.add_var("x", 0, 1, obj=1.0)
        text = export_lp_text(lp)
        for token in ("Minimize", "Subject To", "Bounds", "End"):
            assert token in text

    def test_one_line_per_membership_constraint(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        text = export_lp_text(build_ecc_lp(h))
        rows = [l for l in text.splitlines() if l.startswith(" c") and "xe_0" in l]
        assert len(rows) == 2  # one per (edge, member) pair

    @staticmethod
    def _solve_exported(text: str) -> float:
        from scipy.optimize import linprog

        sense, obj, constraints, bounds = _parse_lp_text(text)
        assert sense == "min"
        names = sorted(bounds)
        idx = {n: i for i, n in enumerate(names)}
        c = np.zeros(len(names))
        for name, coef in obj.items():
            c[idx[name]] = coef
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for terms, rel, rhs in constraints:
            row = np.zeros(len(names))
            for name, coef in terms.items():
                row[idx[name]] = coef
            if rel == "<=":
                a_ub.append(row), b_ub.append(rhs)
            elif rel == ">=":
                a_ub.append(-row), b_ub.append(-rhs)
            else:
                a_eq.append(row), b_eq.append(rhs)
        res = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[bounds[n] for n in names],
            method="highs",
        )
        assert res.status == 0
        return float(res.fun)

    def test_exported_gap3_solved_externally(self):
        pytest.importorskip("scipy")
        value = self._solve_exported(export_lp_text(build_ecc_lp(gen_integrality_gap(3))))
        assert value == pytest.approx(1.5, abs=1e-6)

    def test_exported_nodemc_star_solved_externally(self):
        pytest.importorskip("scipy")
        value = self._solve_exported(export_lp_text(build_nodemc_lp(gen_star())))
        assert value == pytest.approx(1.5, abs=1e-6)


class TestPrimalImport:
    def test_round_trip_through_text(self):
        h = gen_integrality_gap(3)
        lp = build_ecc_lp(h)
        res = solve(lp).require_optimal()
        text = "\n".join(f"{name} {float(value)!r}" for name, value in zip(lp.names, res.x))
        x = parse_primal_text(lp, text)
        assert np.allclose(x, res.x)
        sol = extract_ecc_solution(h, x)
        assert sol.objective == pytest.approx(1.5, abs=1e-9)

    def test_unknown_name_rejected(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(ValueError):
            parse_primal_text(lp, "y 1.0\n")


class TestViolation:
    @staticmethod
    def small_lp() -> LinearProgram:
        lp = LinearProgram()
        a, b = lp.add_var("a", 0.0, 1.0), lp.add_var("b", -1.0)
        lp.add_constraint([(a, 1.0), (b, 1.0)], "<=", 1.5)
        lp.add_constraint([(a, 2.0)], ">=", 1.0)
        lp.add_constraint([(a, 1.0), (b, -1.0)], "=", 0.5)
        return lp

    @pytest.mark.parametrize("x, expected", [
        ([0.5, 0.0], None),
        ([0.5 + 9e-7, 0.0], None),  # within the 1e-6 tolerance
        ([0.5, -1.5], "b = -1.5 is below its lower bound -1"),
        ([1.25, 0.75], "a = 1.25 is above its upper bound 1"),
        ([-0.5, 2.0], "a = -0.5 is below its lower bound 0"),
        ([1.0, 0.75], "row c0 does not hold: 1.75 <= 1.5"),
        ([0.25, -0.25], "row c1 does not hold: 0.5 >= 1"),
        ([0.75, 0.0], "row c2 does not hold: 0.75 = 0.5"),
        ([0.5, 0.25], "row c2 does not hold: 0.25 = 0.5"),
    ])
    def test_first_broken_bound_or_row(self, x, expected):
        assert self.small_lp().violation(x) == expected

    def test_solved_clustering_lp_is_feasible(self, rng):
        h = random_instance(rng, n=6, m=8, k=3)
        lp = build_ecc_lp(h)
        assert lp.violation(solve(lp).require_optimal().x) is None
