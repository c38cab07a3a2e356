import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minecc.lp
from minecc.certificates import all_cases, case_to_lp
from minecc.hypergraph import EdgeColoredHypergraph, hypergraph, validate
from minecc.instances import ParseError, gen_integrality_gap, gen_random, gen_star
from minecc.lp import LinearProgram, Rows, export_lp_text, parse_primal_text, solve
from minecc.oracle import bruteforce_ecc
from minecc.relaxations import (
    build_ecc_lp,
    build_nodemc_lp,
    extract_ecc_solution,
)
from minecc.rounding import rounding_invariant_violations

from conftest import (
    edges_of,
    lp_from_rows,
    random_instance,
    reference_export_lp_text,
    reference_simplex,
    reference_solve,
)


def ecc_value(h) -> float:
    return float(solve(build_ecc_lp(h)).require_optimal().value)


def nodemc_value(h) -> float:
    return float(solve(build_nodemc_lp(h)).require_optimal().value)


class TestSimplex:
    def test_min_with_lower_constraint(self):
        lp = lp_from_rows("min", [("x", 0, 10, 1.0)], [([(0, 1.0)], ">=", 2.0)])
        res = solve(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0)

    def test_unbounded(self):
        lp = lp_from_rows("max", [("x", 0, math.inf, 1.0)], [])
        assert solve(lp).status == "unbounded"

    def test_infeasible(self):
        lp = lp_from_rows("min", [("x", 0, 1, 1.0)], [([(0, 1.0)], ">=", 3.0)])
        assert solve(lp).status == "infeasible"

    def test_tableau_over_the_cell_budget_is_refused(self, monkeypatch):
        # gap8's compact model: 148 rows and 268 columns, with the two cost
        # rows and the perturbation and rhs columns a 150 x 270 tableau.
        lp = build_ecc_lp(gen_integrality_gap(8), compact=True)
        monkeypatch.setattr(minecc.lp, "TABLEAU_CELLS", 150 * 270)
        assert solve(lp).require_optimal().value == pytest.approx(4.0)
        monkeypatch.setattr(minecc.lp, "TABLEAU_CELLS", 150 * 270 - 1)
        with pytest.raises(MemoryError, match=r"^the simplex tableau would be 150 x 270 cells, "
                                              r"above the budget of 40499 cells$"):
            solve(lp)

    def test_redundant_equalities(self):
        # Duplicate equality rows leave an artificial stuck on a zero row.
        lp = lp_from_rows("min", [("x", 0, 5, 1.0), ("y", 0, 5, 1.0)],
                          [([(0, 1.0), (1, 1.0)], "=", 2.0)] * 3)
        res = solve(lp).require_optimal()
        assert res.value == pytest.approx(2.0)

    def test_equality_and_negative_rhs(self):
        lp = lp_from_rows("min", [("x", 0, 5, 1.0), ("y", 0, 5, 2.0)], [
            ([(0, 1.0), (1, 1.0)], "=", 3.0),
            ([(0, -1.0)], "<=", -1.0),  # x >= 1
        ])
        res = solve(lp).require_optimal()
        assert res.value == pytest.approx(3.0)
        assert res.x[0] == pytest.approx(3.0)

    def test_max_sense_value(self):
        lp = lp_from_rows("max", [("x", 0, 4, 2.0)], [], constant=1.0)
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
    sense = draw(st.sampled_from(["min", "max"]))
    n = draw(st.integers(1, 6))
    cols = []
    for j in range(n):
        lo = draw(st.sampled_from([0.0, 0.0, -2.0, -0.5, 1.0]))
        width = draw(st.sampled_from([math.inf, 0.0, 1.0, 2.5, 4.0]))
        cols.append((f"x{j}", lo, lo + width, draw(coef)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        rel = draw(st.sampled_from(["<=", ">=", "="]))
        rhs = draw(st.sampled_from([-4.0, -1.0, 0.0, 1.0, 2.5, 6.0]))
        rows.append(([(j, draw(coef)) for j in support], rel, rhs))
    equalities = [row for row in rows if row[1] == "="]
    if equalities and draw(st.booleans()):
        rows.append(equalities[0])
    return lp_from_rows(sense, cols, rows)


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


def assert_same_pivots(lp, iteration_limit=200_000):
    """Equal to ``reference_solve`` to the byte: it does the same float
    operations in the same order."""
    got = solve(lp, iteration_limit)
    want = reference_solve(lp, iteration_limit)
    assert (got.status, got.iterations, got.basic) == (want.status, want.iterations, want.basic)
    assert (got.x is None) == (want.x is None) and got.value == want.value
    assert got.x is None or got.x.tobytes() == want.x.tobytes()
    return got


def random_csr_lp(seed: int) -> LinearProgram:
    """A model given straight as CSR rows: every relation, right-hand sides of
    either sign, finite and infinite upper bounds and either sense. Most rows
    hold at a point drawn inside the bounds: about two draws in three are
    optimal, and the others split between infeasible and unbounded."""
    rng = np.random.default_rng(seed)
    n, num_rows = int(rng.integers(1, 8)), int(rng.integers(0, 7))
    support = [np.flatnonzero(rng.random(n) < 0.6) for _ in range(num_rows)]
    indptr = np.cumsum([0] + [len(c) for c in support])
    indices = np.concatenate([[], *support]).astype(int)
    data = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 3.0], indptr[-1])
    lower = rng.choice([0.0, 0.0, -1.0, 2.0], n)
    upper = lower + rng.choice([math.inf, math.inf, 0.0, 1.0, 3.0], n)
    point = lower + rng.choice([0.0, 0.5, 1.0], n) * np.minimum(upper - lower, 2.0)
    rel = rng.choice([0, 0, 0, 1, 1, 2], num_rows)
    at_point = np.bincount(np.repeat(np.arange(num_rows), np.diff(indptr)),
                           weights=data * point[indices], minlength=num_rows)
    slack = rng.choice([0.0, 1.0, 2.0], num_rows) * np.where(rel == 0, 1.0, -1.0) * (rel != 2)
    rhs = np.where(rng.random(num_rows) < 0.85, at_point + slack,
                   rng.choice([-3.0, -1.0, 0.0, 1.0, 2.0, 5.0], num_rows))
    return LinearProgram(rng.choice([-1.0, 0.0, 1.0, 2.0], n), lower, upper,
                         [f"x{j}" for j in range(n)], Rows(indptr, indices, data, rel, rhs),
                         sense=str(rng.choice(["min", "max"])))


def gap_models():
    """gap3-8 as compact, full and multiway-cut models."""
    for k in range(3, 9):
        h = gen_integrality_gap(k)
        yield f"gap{k}-compact", build_ecc_lp(h, compact=True)
        yield f"gap{k}-full", build_ecc_lp(h)
        yield f"gap{k}-nodemc", build_nodemc_lp(h)


def desk_models():
    """The clustering models of desk-lp's instances: the gap models, and the
    rand1, rand2 and exact14 shapes at seeds 0-9 as compact and full models."""
    yield from gap_models()
    shapes = {"rand1": (50, 80, 3, 6, 0.2, 1), "rand2": (50, 80, 3, 6, 0.2, 2),
              "exact14": (14, 100, 2, 3, 1.0, 2)}
    for seed in range(10):
        for name, (n, m, size, k, noise, offset) in shapes.items():
            h = gen_random(n, m, size, k, noise, seed=10 * seed + offset).hypergraph
            yield f"{name}-{seed}-compact", build_ecc_lp(h, compact=True)
            yield f"{name}-{seed}-full", build_ecc_lp(h)


class TestTableauPivotsMatchReference:
    """``solve`` keeps both cost rows and the perturbation column in its
    tableau and takes exactly the pivots of the reference that keeps them
    apart: status, iterations, basis, primal bytes and value are equal."""

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), iteration_limit=st.sampled_from([200_000, 200_000, 1, 3]))
    def test_drawn_csr_models(self, seed, iteration_limit):
        assert_same_pivots(random_csr_lp(seed), iteration_limit)

    def test_drawn_models_reach_every_status(self):
        statuses = [assert_same_pivots(random_csr_lp(seed)).status for seed in range(300)]
        assert set(statuses) == {"optimal", "infeasible", "unbounded"}

    def test_desk_models(self):
        for name, lp in desk_models():
            assert assert_same_pivots(lp).status == "optimal", name

    @pytest.mark.parametrize("limit", [1, 2])
    def test_blands_rule_from_the_first_degenerate_pivots(self, monkeypatch, limit):
        # A run limit of 1 or 2 switches both solvers to Bland's rule almost at
        # once; the gap models' degenerate pivots make the switch change the path.
        default = {name: solve(lp).iterations for name, lp in gap_models()}
        monkeypatch.setattr(minecc.lp, "DEGENERATE_RUN_LIMIT", limit)
        changed = [name for name, lp in gap_models()
                   if assert_same_pivots(lp).iterations != default[name]]
        assert changed

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), limit=st.sampled_from([1, 2]))
    def test_blands_rule_on_drawn_models(self, seed, limit):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(minecc.lp, "DEGENERATE_RUN_LIMIT", limit)
            assert_same_pivots(random_csr_lp(seed))

    @pytest.mark.parametrize("limit", [0, 1, 5, 40, 120])
    def test_iteration_limit(self, limit):
        lp = build_ecc_lp(gen_random(50, 80, 3, 6, 0.2, seed=1).hypergraph, compact=True)
        res = assert_same_pivots(lp, limit)
        assert (res.status, res.iterations) == ("iteration_limit", limit)


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


SHAPES = ["weighted", "gap", "isolated-node", "single-color", "empty-edge", "edgeless"]


@st.composite
def shaped_instances(draw, shape=None, k=None):
    """Weighted random instances, gap instances, and the shapes that the
    compact model treats apart: nodes without edges, nodes whose edges all
    have one color, an edge without members, and no edges at all."""
    shape = shape or draw(st.sampled_from(SHAPES))
    if shape == "gap":
        return gen_integrality_gap(draw(st.integers(3, 6)))
    k = k or draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    if shape == "edgeless":
        return hypergraph(n, k, [])
    h = random_instance(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n,
                        draw(st.integers(1, 10)), k)
    weight = st.sampled_from([1.0, 0.0, 2.0, 0.5, 2.5, 1 / 3, 7e-3])
    edges = [(e.members, e.color, draw(weight)) for e in edges_of(h)]
    if shape == "isolated-node":
        n += draw(st.integers(1, 3))
    elif shape == "single-color":
        edges = [(members, 1, w) for members, _, w in edges]
    h = hypergraph(n, k, edges)
    if shape == "empty-edge":
        at = draw(st.integers(0, h.num_edges))
        eptr = np.insert(h.eptr, at, h.eptr[at])
        h = EdgeColoredHypergraph(n, k, h.members, eptr, np.insert(h.colors, at, 1),
                                  np.insert(h.weights, at, draw(weight)))
    return h


class TestCompactModel:
    """``build_ecc_lp(h, compact=True)``: the same optimum on fewer variables,
    filled back into a full solution that passes the relaxation's checks."""

    @settings(max_examples=200, deadline=None)
    @given(shaped_instances())
    def test_same_value_as_the_full_model(self, h):
        full, compact = build_ecc_lp(h), build_ecc_lp(h, compact=True)
        assert compact.num_vars <= full.num_vars and compact.num_rows <= full.num_rows
        want = solve(full).require_optimal().value
        assert solve(compact).require_optimal().value == pytest.approx(want, rel=1e-9, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(shaped_instances().filter(lambda h: not validate(h)))
    def test_filled_solution_is_feasible_with_the_same_objective(self, h):
        full = extract_ecc_solution(h, solve(build_ecc_lp(h)))
        filled = extract_ecc_solution(h, solve(build_ecc_lp(h, compact=True)))
        assert filled.x_node.shape == (h.num_nodes, h.num_colors)
        assert filled.violations(h) == []
        assert rounding_invariant_violations(h, filled) == []
        assert filled.objective == pytest.approx(full.objective, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(shaped_instances(shape="weighted", k=2))
    def test_two_colors_exact(self, h):
        res = solve(build_ecc_lp(h, compact=True)).require_optimal()
        assert np.minimum(np.abs(res.x), np.abs(res.x - 1.0)).max(initial=0.0) <= 1e-7
        assert res.value == pytest.approx(bruteforce_ecc(h).value, abs=1e-7)

    def test_variables_and_rows(self):
        # node 0: colors 1 and 2; node 1: colors 1, 2, 3; node 2: color 3 only;
        # node 3: no edges
        h = hypergraph(4, 3, [((0, 1), 1, 1.0), ((0, 1), 2, 2.0), ((1, 2), 3, 1.0)])
        lp = build_ecc_lp(h, compact=True)
        assert lp.names == ["xn_0_1", "xn_0_2", "xn_1_1", "xn_1_2", "xn_1_3",
                            "xe_0", "xe_1", "xe_2"]
        assert list(lp.objective) == [0, 0, 0, 0, 0, 1, 2, 1]
        assert list(lp.constraints) == [
            (((0, 1.0), (1, 1.0)), "=", 1.0), (((2, 1.0), (3, 1.0), (4, 1.0)), "=", 2.0),
            (((0, -1.0), (5, 1.0)), ">=", 0.0), (((2, -1.0), (5, 1.0)), ">=", 0.0),
            (((1, -1.0), (6, 1.0)), ">=", 0.0), (((3, -1.0), (6, 1.0)), ">=", 0.0),
            (((4, -1.0), (7, 1.0)), ">=", 0.0),
        ]

    def test_fill(self):
        h = hypergraph(4, 3, [((0, 1), 1, 1.0), ((0, 1), 2, 2.0), ((1, 2), 3, 1.0)])
        x = np.array([0.25, 0.75, 0.5, 0.5, 1.0, 0.5, 0.75, 1.0])
        sol = extract_ecc_solution(h, x)
        assert sol.x_node.tolist() == [[0.25, 0.75, 1.0], [0.5, 0.5, 1.0], [1.0, 1.0, 0.0],
                                       [0.0, 1.0, 1.0]]
        assert sol.x_edge.tolist() == [0.5, 0.75, 1.0]
        with pytest.raises(ValueError, match="expected 8 or 15"):
            extract_ecc_solution(h, x[:-1])
        # The full model's 15 columns read as such: node by node, color by color.
        full = extract_ecc_solution(h, np.concatenate([sol.x_node.ravel(), sol.x_edge]))
        assert full.x_node.tobytes() == sol.x_node.tobytes()
        assert (full.x_edge.tobytes(), full.objective) == (sol.x_edge.tobytes(), sol.objective)

    def test_edgeless_model_is_empty_and_solves_to_zero(self):
        h = hypergraph(3, 2, [])
        lp = build_ecc_lp(h, compact=True)
        assert (lp.num_vars, lp.num_rows) == (0, 0)
        res = solve(lp).require_optimal()
        assert (res.value, res.iterations, res.basic) == (0.0, 0, ())
        sol = extract_ecc_solution(h, res)
        assert sol.x_node.tolist() == [[0.0, 1.0]] * 3 and sol.objective == 0.0


class TestRowStorage:
    def test_rows_read_back_as_records(self):
        lp = LinearProgram(np.zeros(3), 0.0, 1.0, ["x0", "x1", "x2"],
                           Rows([0, 2, 2, 4, 4], [0, 2, 0, 1], [2.0, 1.5, 1.0, -1.0],
                                [0, 2, 1, 2], [4.0, -1.0, 0.0, 0.0]))
        rows = lp.constraints
        assert len(rows) == 4 and rows[-1] == ((), "=", 0.0)
        assert rows[0].coeffs == ((0, 2.0), (2, 1.5)) and rows[0].rel == "<="
        assert list(rows) == [rows[i] for i in range(4)]
        assert rows[1] == ((), "=", -1.0) and rows[2] == (((0, 1.0), (1, -1.0)), ">=", 0.0)
        with pytest.raises(IndexError):
            rows[4]

    @pytest.mark.parametrize("indptr, indices, rel, message", [
        ([0, 2], [1, 0], [0], "rise strictly"),
        ([0, 2], [0, 0], [0], "rise strictly"),
        ([0, 1], [3], [0], "unknown variable"),
        ([0, 1], [-1], [0], "unknown variable"),
        ([0, 1], [0], [3], "relation code"),
        ([1, 1], [0], [0], "do not fit"),
    ])
    def test_bad_rows_are_rejected(self, indptr, indices, rel, message):
        rows = Rows(indptr, indices, np.ones(len(indices)), rel, [0.0] * len(rel))
        with pytest.raises(ValueError, match=message):
            LinearProgram(np.zeros(3), 0.0, 1.0, ["a", "b", "c"], rows)

    @pytest.mark.parametrize("lower, upper, message", [
        ([0.0, 1.0, 0.0], [1.0, 0.0, math.inf], "variable b: lower bound 1.0 exceeds upper bound 0.0"),
        ([0.0, 0.0, math.nan], math.inf, "variable c: lower bound nan exceeds upper bound inf"),
    ], ids=["bounds", "nan-bound"])
    def test_bad_bounds_are_rejected(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            LinearProgram(np.zeros(3), lower, upper, ["a", "b", "c"])

    def test_inputs_are_copied_and_read_only(self):
        objective, rhs = np.array([1.0, 2.0]), np.array([1.0])
        lp = LinearProgram(objective, 0.0, 1.0, ["a", "b"], Rows([0, 2], [0, 1], [1.0, 1.0], [0], rhs))
        objective[0] = rhs[0] = 5.0
        assert list(lp.objective) == [1.0, 2.0] and list(lp.rows.rhs) == [1.0]
        for a in (lp.objective, lp.lower, lp.upper, *lp.rows):
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = 0

    def test_names_are_made_when_first_read(self):
        made = []
        lp = LinearProgram([0.0, 1.0, 2.0, 3.0], 0.0, [math.inf, 1.0, math.inf, math.inf],
                           lambda: made.append(1) or ["a", "b", "c", "d"])
        assert made == [] and lp.num_vars == 4
        assert lp.names == ["a", "b", "c", "d"] and lp.names.index("c") == 2 and made == [1]
        assert list(lp.objective) == [0.0, 1.0, 2.0, 3.0]
        assert list(lp.upper) == [math.inf, 1.0, math.inf, math.inf]
        with pytest.raises(ValueError, match="variable y: lower bound"):
            LinearProgram([0.0, 0.0], [0.0, 2.0], 1.0, lambda: ["x", "y"])


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
        sol = extract_ecc_solution(h, raw)
        assert sol.x_node[0, 0] == 0.0 and sol.x_node[0, 1] == 1.0
        assert sol.x_edge[0] == 0.0

    @pytest.mark.parametrize("x_e, problems", [(0.9, 0), (0.5, 0), (0.25, 1)])
    def test_edge_variable_kept_as_given(self, x_e, problems):
        h = hypergraph(2, 2, [((0, 1), 1)])
        sol = extract_ecc_solution(h, [0.25, 0.75, 0.5, 0.5, x_e])
        assert sol.x_edge.tolist() == [x_e] and sol.objective == x_e
        assert len(sol.violations(h)) == problems

    def test_edge_without_members_reaches_zero(self):
        h = EdgeColoredHypergraph(2, 2, [0, 1], [0, 2, 2], [1, 2], [1.0, 1.0])
        sol = extract_ecc_solution(h, [0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        assert sol.x_edge.tolist() == [0.0, 0.0] and sol.objective == 0.0
        assert sol.violations(h) == []

    def test_rejects_non_optimal_result(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        res = solve(lp_from_rows("min", [("x", 0, 1, 1.0)], [([(0, 1.0)], ">=", 2.0)]))
        with pytest.raises(RuntimeError):
            extract_ecc_solution(h, res)

    def test_feasibility_roundtrip(self):
        h = gen_random(8, 12, 3, 3, 0.4, seed=6).hypergraph
        sol = extract_ecc_solution(h, solve(build_ecc_lp(h)))
        assert sol.violations(h) == []


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


# Numbers the writers print by repr or as digits, on both sides of 1e15.
LP_NUMBERS = st.sampled_from([-3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 1 / 3, 1e15 - 1, 1e15,
                              -1e20, 5e-324, math.inf, -math.inf, math.nan])


@st.composite
def exported_lps(draw):
    """Models with every number kind in every place the writer prints one:
    zero and non-finite coefficients, rows left with no term, free, boxed
    and shifted columns, and a constant."""
    n = draw(st.integers(1, 5))
    lower = draw(st.lists(st.sampled_from([0.0, -0.0, -2.0, 0.5, 1e16, -math.inf]),
                          min_size=n, max_size=n))
    upper = [lo + draw(st.sampled_from([0.0, 1.5, 3.0])) if draw(st.booleans()) else math.inf
             for lo in lower]
    indptr, indices = [0], []
    for _ in range(draw(st.integers(0, 5))):
        indices += sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        indptr.append(len(indices))
    return LinearProgram(
        draw(st.lists(LP_NUMBERS, min_size=n, max_size=n)), lower, upper,
        [f"v{j}" for j in range(n)],
        Rows(indptr, indices, draw(st.lists(LP_NUMBERS, min_size=len(indices),
                                             max_size=len(indices))),
             draw(st.lists(st.integers(0, 2), min_size=len(indptr) - 1, max_size=len(indptr) - 1)),
             draw(st.lists(LP_NUMBERS, min_size=len(indptr) - 1, max_size=len(indptr) - 1))),
        sense=draw(st.sampled_from(["min", "max"])), constant=draw(LP_NUMBERS),
    )


class TestExport:
    # Blocks of one or two rows, or every row in one block.
    @pytest.mark.parametrize("block", [1, 2, minecc.lp._EXPORT_ROWS])
    @settings(max_examples=200, deadline=None)
    @given(exported_lps())
    def test_same_text_as_the_row_writer(self, block, lp):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(minecc.lp, "_EXPORT_ROWS", block)
            assert export_lp_text(lp) == reference_export_lp_text(lp)

    def test_same_text_on_the_models(self):
        h = gen_random(40, 80, 4, 3, 0.3, 1).hypergraph
        for lp in [build_ecc_lp(h), build_ecc_lp(h, compact=True), build_nodemc_lp(h),
                   *map(case_to_lp, all_cases())]:
            assert export_lp_text(lp) == reference_export_lp_text(lp)

    def test_sections_present(self):
        text = export_lp_text(lp_from_rows("min", [("x", 0, 1, 1.0)], []))
        for token in ("Minimize", "Subject To", "Bounds", "End"):
            assert token in text

    def test_one_line_per_membership_constraint(self):
        h = hypergraph(2, 1, [((0, 1), 1)])
        text = export_lp_text(build_ecc_lp(h))
        rows = [l for l in text.splitlines() if l.startswith(" c") and "xe_0" in l]
        assert len(rows) == 2  # one per (edge, member) pair

    def test_bounds_of_unbounded_columns(self):
        lp = LinearProgram([1.0, 2.0, 3.0, 4.0, 5.0], [-math.inf, -math.inf, 0.0, -1.5, 2.0],
                           [math.inf, 4.0, math.inf, math.inf, 2.5], ["a", "b", "c", "d", "e"])
        text = export_lp_text(lp)
        bounds = text[text.index("Bounds\n") + len("Bounds\n"):text.index("End\n")]
        assert bounds.splitlines() == [" a free", " -inf <= b <= 4", " c >= 0", " d >= -1.5",
                                       " 2 <= e <= 2.5"]

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
        lp = lp_from_rows("min", [("x", 0.0, math.inf, 0.0)], [])
        with pytest.raises(ValueError):
            parse_primal_text(lp, "y 1.0\n")

    @pytest.mark.parametrize("text, line, message", [
        ("# x 1\n\nx 1 2\n", 3, "expected 'name value'"),
        ("x 1\ny 1.0\n", 2, "unknown variable 'y'"),
        ("x inf\n", 1, "value 'inf' is not a finite number"),
        ("x 0.25\n\nx 0.75\n", 3, "variable 'x' given twice, first on line 1"),
    ])
    def test_malformed_line_is_named(self, text, line, message):
        lp = lp_from_rows("min", [("x", 0.0, math.inf, 0.0)], [])
        with pytest.raises(ParseError) as err:
            parse_primal_text(lp, text)
        assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


class TestViolation:
    @staticmethod
    def small_lp() -> LinearProgram:
        return lp_from_rows("min", [("a", 0.0, 1.0, 0.0), ("b", -1.0, math.inf, 0.0)], [
            ([(0, 1.0), (1, 1.0)], "<=", 1.5),
            ([(0, 2.0)], ">=", 1.0),
            ([(0, 1.0), (1, -1.0)], "=", 0.5),
        ])

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
