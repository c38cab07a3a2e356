"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line, with tolerances pinned in the assertions."""

import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from minecc.certificates import verify_all
from minecc.cli import main as cli_main
from minecc.combinatorial import hybrid, match_coloring, pitt_coloring
from minecc.hypergraph import objective_cost
from minecc.instances import gen_integrality_gap, gen_random, gen_star, write_canonical
from minecc.lp import solve
from minecc.oracle import bruteforce_ecc, bruteforce_vc
from minecc.reductions import WeightedGraph, ecc_to_vertex_cover, vertex_cover_to_ecc
from minecc.relaxations import build_ecc_lp, build_nodemc_lp, extract_ecc_solution
from minecc.rounding import Interval, best_interval, estimate_mistake_prob, gen_color_round

from conftest import edges_of


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def ecc_lp_value(h) -> float:
    return float(solve(build_ecc_lp(h)).require_optimal().value)


def test_criterion_1_certificate_suite(capsys):
    start = time.perf_counter()
    rep = verify_all()
    elapsed = time.perf_counter() - start
    bounds = {line.split(" bound=")[0]: line.split("bound=")[1].split()[0] for line in rep.lines}
    spot_ok = (
        bounds["A q=1"] == "3/8"
        and bounds["A q=2"] == "1/2"
        and bounds["A q=6"] == "29/63"
        and bounds["B p=1 q=1"] == "3/7"
        and bounds["B p=5 q=10"] == "851/1760"
    )
    ok = rep.verified == 46 and rep.ok and str(rep.max_bound) == "1/2" and spot_ok and elapsed < 1.0
    with capsys.disabled():
        report(
            "criterion-1 certificates",
            ok,
            f"46/46 exact, max bound {rep.max_bound}, spot values match, {elapsed:.3f}s",
        )


def test_criterion_2_integrality_gap(capsys):
    start = time.perf_counter()
    details = []
    ok = True
    for k in (3, 4, 5):
        h = gen_integrality_gap(k)
        opt = bruteforce_ecc(h).value
        lp_value = ecc_lp_value(h)
        ratio = opt / lp_value
        ok = (
            ok
            and opt == k - 1
            and abs(lp_value - k / 2) <= 1e-6
            and abs(ratio - 2 * (1 - 1 / k)) <= 1e-6
        )
        details.append(f"k={k}: opt={opt:g} lp={lp_value:.6f} ratio={ratio:.6f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    with capsys.disabled():
        report("criterion-2 integrality-gap", ok, "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_3_lp_dominance(capsys):
    star = gen_star()
    ecc_star = ecc_lp_value(star)
    mc_star = float(solve(build_nodemc_lp(star)).require_optimal().value)
    star_ok = abs(ecc_star - 2.0) <= 1e-6 and abs(mc_star - 1.5) <= 1e-6

    rng = np.random.default_rng(30303)
    violations = 0
    checked = 0
    for _ in range(50):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(8, 19))
        k = int(rng.integers(2, 5))
        h = gen_random(n, m, 3, k, float(rng.uniform(0.1, 0.7)), seed=int(rng.integers(10**6))).hypergraph
        ecc = ecc_lp_value(h)
        mc = float(solve(build_nodemc_lp(h)).require_optimal().value)
        checked += 1
        if mc > ecc + 1e-6:
            violations += 1
    ok = star_ok and checked >= 50 and violations == 0
    with capsys.disabled():
        report(
            "criterion-3 lp-dominance",
            ok,
            f"star ecc={ecc_star:.6f} nodemc={mc_star:.6f}; {checked} random instances, "
            f"{violations} violations",
        )


def test_criterion_4_rounding_guarantee(capsys):
    rng = np.random.default_rng(40404)
    worst = -np.inf
    ok = True
    checked = 0
    for _ in range(30):
        max_size = int(rng.choice([2, 2, 3, 4]))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(8, 12))
        m = int(rng.integers(12, 20))
        h = gen_random(n, m, max_size, k, float(rng.uniform(0.2, 0.7)), seed=int(rng.integers(10**6))).hypergraph
        if h.rank < 2:
            continue
        sol = extract_ecc_solution(h, solve(build_ecc_lp(h)).require_optimal())
        choice = best_interval(h.num_colors, h.rank)
        if h.rank == 2 and h.num_colors >= 3:
            assert abs(choice.factor - 4 / 3) <= 1e-12
        costs = [
            objective_cost(h, gen_color_round(h, sol, choice.interval, s)).total_cost
            for s in range(200)
        ]
        mean = float(np.mean(costs))
        stderr = float(np.std(costs)) / np.sqrt(len(costs))
        limit = choice.factor * sol.objective + 3 * stderr
        slack = mean - limit
        worst = max(worst, slack)
        ok = ok and mean <= limit + 1e-9
        checked += 1
    ok = ok and checked >= 30
    with capsys.disabled():
        report(
            "criterion-4 rounding-guarantee",
            ok,
            f"{checked} instances, 200 trials each, worst mean-minus-limit={worst:.4f}",
        )


def test_criterion_5_per_edge_probability(capsys):
    rng = np.random.default_rng(50505)
    interval = Interval(0.5, 0.875)
    checked_edges = 0
    ok = True
    for trial in range(4):
        k = int(rng.integers(3, 6))
        h = gen_random(10, 16, 2, k, 0.6, seed=int(rng.integers(10**6))).hypergraph
        assert h.rank == 2
        sol = extract_ecc_solution(h, solve(build_ecc_lp(h)).require_optimal())
        for j in range(h.num_edges):
            xe = float(sol.x_edge[j])
            if xe >= 0.75:
                continue
            p, err = estimate_mistake_prob(h, sol, interval, j, 20000, seed=1000 + j)
            checked_edges += 1
            if xe <= 0.125:
                ok = ok and p == 0.0
            else:
                ok = ok and p <= (4 / 3) * xe + 3 * err
    with capsys.disabled():
        report(
            "criterion-5 per-edge-probability",
            ok and checked_edges > 0,
            f"{checked_edges} edges at 20000 trials each under (1/2, 7/8)",
        )


def test_criterion_6_interval_lower_bound_counterexample(capsys):
    from minecc.rounding import make_synthetic_solution

    h, sol = make_synthetic_solution("A", 0.2)
    p, err = estimate_mistake_prob(h, sol, Interval(0.6, 0.9), 0, 20000, seed=66)
    ratio = p / float(sol.x_edge[0])
    ok = abs(ratio - 5 / 3) <= 0.05 and ratio > 4 / 3
    with capsys.disabled():
        report(
            "criterion-6 family-A counterexample",
            ok,
            f"p={p:.4f}, ratio={ratio:.4f} (target 5/3, exceeds 4/3)",
        )


def test_criterion_7_combinatorial_two_approx(capsys):
    rng = np.random.default_rng(70707)
    ok = True
    pitt_worst = -np.inf
    for idx in range(100):
        k = int(rng.integers(2, 5))
        n = {2: 12, 3: 10, 4: 8}[k]
        m = int(rng.integers(10, 19))
        h = gen_random(n, m, 3, k, float(rng.uniform(0.3, 0.8)), seed=int(rng.integers(10**6))).hypergraph
        opt = bruteforce_ecc(h).value
        dels, coloring, bound = match_coloring(h)
        match_cost = objective_cost(h, coloring).total_cost
        hybrid_cost = objective_cost(h, hybrid(h)[0]).total_cost
        ok = ok and match_cost <= 2 * bound + 1e-9
        ok = ok and match_cost <= 2 * opt + 1e-9
        ok = ok and hybrid_cost <= 2 * opt + 1e-9
        ok = ok and hybrid_cost <= match_cost + 1e-9
        pitt_costs = [
            objective_cost(h, pitt_coloring(h, seed=s)[1]).total_cost for s in range(50)
        ]
        mean = float(np.mean(pitt_costs))
        sigma = float(np.std(pitt_costs)) / np.sqrt(len(pitt_costs))
        slack = mean - (2 * opt + 3 * sigma)
        pitt_worst = max(pitt_worst, slack)
        ok = ok and slack <= 1e-9
    with capsys.disabled():
        report(
            "criterion-7 combinatorial-2-approx",
            ok,
            f"100 instances; match<=2*bound, match/hybrid<=2*opt, hybrid<=match, "
            f"worst pitt mean slack={pitt_worst:.4f}",
        )


def _isomorphic_small(h1, h2) -> bool:
    if (
        h1.num_nodes != h2.num_nodes
        or h1.num_edges != h2.num_edges
        or h1.num_colors != h2.num_colors
    ):
        return False
    nodes = range(h1.num_nodes)
    colors = range(1, h1.num_colors + 1)
    target = {
        (frozenset(e.members), e.color) for e in edges_of(h2)
    }
    edges = edges_of(h1)
    for node_map in itertools.permutations(nodes):
        for color_map in itertools.permutations(colors):
            mapped = {
                (
                    frozenset(node_map[v] for v in e.members),
                    color_map[e.color - 1],
                )
                for e in edges
            }
            if mapped == target:
                return True
    return False


def test_criterion_8_reduction_equivalence(capsys):
    rng = np.random.default_rng(80808)
    ok = True
    for _ in range(50):
        h = gen_random(
            int(rng.integers(6, 10)), int(rng.integers(8, 15)), 3,
            int(rng.integers(2, 4)), float(rng.uniform(0.3, 0.8)),
            seed=int(rng.integers(10**6)),
        ).hypergraph
        red = ecc_to_vertex_cover(h)
        ok = ok and abs(bruteforce_vc(red.graph).value - bruteforce_ecc(h).value) <= 1e-9
    for _ in range(50):
        n = int(rng.integers(3, 7))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        take = rng.random(len(possible)) < 0.55
        edges = tuple(e for e, t in zip(possible, take) if t) or (possible[0],)
        g = WeightedGraph(n, tuple(float(w) for w in rng.integers(1, 4, size=n)), edges)
        h2, _ = vertex_cover_to_ecc(g)
        ok = ok and abs(bruteforce_ecc(h2, cap=10**12).value - bruteforce_vc(g).value) <= 1e-9
    triangle = WeightedGraph(3, (1.0,) * 3, ((0, 1), (1, 2), (0, 2)))
    h_tri, _ = vertex_cover_to_ecc(triangle)
    iso = _isomorphic_small(h_tri, gen_integrality_gap(3))
    ok = ok and iso
    with capsys.disabled():
        report(
            "criterion-8 reduction-equivalence",
            ok,
            f"50 forward + 50 backward value matches; triangle-vs-gap3 isomorphic={iso}",
        )


def test_criterion_9_two_color_exactness(capsys):
    rng = np.random.default_rng(90909)
    ok = True
    for _ in range(30):
        h = gen_random(
            int(rng.integers(6, 11)), int(rng.integers(8, 15)), 3, 2,
            float(rng.uniform(0.2, 0.6)), seed=int(rng.integers(10**6)),
        ).hypergraph
        res = solve(build_ecc_lp(h)).require_optimal()
        distance = np.minimum(np.abs(res.x), np.abs(res.x - 1.0)).max()
        ok = ok and distance <= 1e-7
        opt = bruteforce_ecc(h).value
        ok = ok and abs(res.value - opt) <= 1e-7
        sol = extract_ecc_solution(h, res)
        interval = best_interval(2, max(h.rank, 2)).interval
        for seed in range(20):
            cost = objective_cost(h, gen_color_round(h, sol, interval, seed)).total_cost
            ok = ok and abs(cost - opt) <= 1e-9
    with capsys.disabled():
        report(
            "criterion-9 two-color-exactness",
            ok,
            "30 instances: basic optima 0/1 within 1e-7, rounding hits the optimum on all seeds",
        )


def test_criterion_10_linear_time_scaling(capsys):
    targets = [100_000, 200_000, 400_000, 800_000, 1_600_000]
    slopes = {}
    ok = True
    lines = []
    for algo, runner in (
        ("pitt", lambda h: pitt_coloring(h, seed=0)),
        ("match", lambda h: match_coloring(h)),
    ):
        sizes, times = [], []
        for target in targets:
            m = target // 4  # mean edge size is 4 with sizes in [2..6]
            n = max(256, m // 4)
            h = gen_random(n, m, 6, 8, 0.2, seed=10).hypergraph
            actual = len(h.members)
            best = np.inf
            for _ in range(2):
                fresh = replace(h)  # a copy, so that each timed run builds its own incidence
                t0 = time.perf_counter()
                runner(fresh)
                best = min(best, time.perf_counter() - t0)
            sizes.append(actual)
            times.append(best)
        slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        slopes[algo] = slope
        lines.append(f"{algo}: slope={slope:.3f} times={[round(t, 3) for t in times]}")
        ok = ok and slope <= 1.2
    with capsys.disabled():
        report("criterion-10 linear-scaling", ok, "; ".join(lines))


def test_criterion_11_invariants_via_cli(tmp_path, capsys):
    instances = {
        "gap3": gen_integrality_gap(3),
        "gap4": gen_integrality_gap(4),
        "star": gen_star(),
        "rank2": gen_random(10, 16, 2, 4, 0.5, seed=5).hypergraph,
        "rank3": gen_random(9, 14, 3, 3, 0.4, seed=6).hypergraph,
    }
    ok = True
    for name, h in instances.items():
        path = tmp_path / f"{name}.ecc"
        path.write_text(write_canonical(h))
        code = cli_main(["verify", "--invariants", str(path)])
        ok = ok and code == 0
    capsys.readouterr()
    with capsys.disabled():
        report(
            "criterion-11 invariants",
            ok,
            f"verify --invariants exits 0 on {len(instances)} LP-solved instances (tol 1e-7)",
        )


BENCHMARK_DIR = os.environ.get("ECC_BENCHMARK_DIR", "")
EXPECTED_MV_RATIOS = {
    "Brain": 1.01,
    "Cooking": 1.21,
    "DAWN": 1.09,
    "MAG-10": 1.18,
    "Walmart-Trips": 1.2,
}


@pytest.mark.skipif(
    not BENCHMARK_DIR, reason="published benchmark files not present (set ECC_BENCHMARK_DIR)"
)
def test_criterion_12_benchmark_ratios(capsys):
    """Data-dependent and optional: checks the majority-vote ratio against the
    published LP bounds when the benchmark files and external LP solutions are
    available locally. The large proprietary rows are excluded by design."""
    from minecc.combinatorial import a_posteriori_ratio, majority_vote
    from minecc.instances import parse_benchmark

    ok = True
    details = []
    for name, expected in EXPECTED_MV_RATIOS.items():
        base = os.path.join(BENCHMARK_DIR, name)
        try:
            with open(base + "-edges.txt") as fh:
                edges_text = fh.read()
            with open(base + "-labels.txt") as fh:
                labels_text = fh.read()
            with open(base + "-lp-bound.txt") as fh:
                lp_bound = float(fh.read().strip())
        except OSError:
            pytest.skip(f"benchmark files for {name} missing")
        h, _ = parse_benchmark(edges_text, labels_text)
        mv = majority_vote(h)
        cost = objective_cost(h, mv).total_cost
        ratio = a_posteriori_ratio(cost, lp_bound)
        details.append(f"{name}: ratio={ratio:.3f} expected={expected}")
        ok = ok and abs(ratio - expected) <= 0.02
    with capsys.disabled():
        report("criterion-12 benchmark-ratios", ok, "; ".join(details))
