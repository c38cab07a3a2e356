"""Command-line interface: generate, solve, benchmark, reduce, export, verify.

Exit codes: 0 success, 2 parse/usage error, 3 verification failure,
4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import certificates
from .combinatorial import (
    LowerBoundBundle,
    a_posteriori_ratio,
    hybrid,
    majority_vote,
    match_coloring,
    mv_lower_bound,
    pitt_coloring,
    recolor_uncovered,
)
from .hypergraph import EdgeColoredHypergraph, build_incidence, objective_cost, validate
from .oracle import bruteforce_ecc
from .instances import (
    ParseError,
    gen_integrality_gap,
    gen_random,
    gen_star,
    parse_benchmark,
    parse_canonical,
    write_canonical,
)
from .lp import export_lp_text, parse_primal_text, solve
from .oracle import DEFAULT_CAP, CapExceededError
from .reductions import ecc_to_hyper_mc, ecc_to_node_mc, ecc_to_vertex_cover, write_graph
from .relaxations import build_ecc_lp, build_nodemc_lp, extract_ecc_solution, solution_from_vector
from .rounding import (
    Interval,
    best_interval,
    estimate_mistake_prob,
    gen_color_round,
    rounding_invariant_violations,
    simple_round,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_CAPACITY = 4

SOLVER_VAR_LIMIT = 5000  # the simplex tableau takes about 1 GB here; beyond this, export instead

CSV_HEADER = "dataset,algo,seed,mistakes,satisfaction,lp_bound,match_bound,mv_bound,ratio,accuracy,seconds"


@dataclass
class RunRecord:
    dataset: str
    algo: str
    seed: int
    mistakes: float
    satisfaction: float
    lp_bound: float | None
    match_bound: float | None
    mv_bound: float | None
    ratio: float | None
    accuracy: float | None
    seconds: float

    def csv_row(self) -> str:
        def cell(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return format(x, ".6g")
            return str(x)

        return ",".join(
            cell(v)
            for v in (
                self.dataset,
                self.algo,
                self.seed,
                self.mistakes,
                self.satisfaction,
                self.lp_bound,
                self.match_bound,
                self.mv_bound,
                self.ratio,
                self.accuracy,
                self.seconds,
            )
        )


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _count(flag: str, least: int = 0):
    """The argparse type of ``flag``: an integer of at least ``least``.

    Seeds are non-negative, as numpy's generators need. The type raises
    :class:`CliError`, which argparse lets through, so a bad value exits
    with 2 and one ``error:`` line, like every other malformed input.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise CliError(f"bad {flag} {text!r}, expected an integer >= {least}", EXIT_PARSE)
        return value

    return parse


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    except UnicodeDecodeError as exc:  # read() decodes in one call: start is a file offset
        raise CliError(
            f"{path}: not UTF-8 text, byte {exc.object[exc.start]:#04x} at offset {exc.start}",
            EXIT_PARSE,
        ) from None


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_instance(args) -> tuple[EdgeColoredHypergraph, list[int] | None, str]:
    """Load from canonical text or, with --labels, the benchmark two-file format."""
    name = os.path.splitext(os.path.basename(args.instance))[0]
    try:
        if args.labels:
            truth_text = _read(args.node_labels) if args.node_labels else None
            h, truth = parse_benchmark(_read(args.instance), _read(args.labels), truth_text)
        else:
            h = parse_canonical(_read(args.instance))
            truth = None
            if getattr(args, "truth", None):
                truth = _read_truth(args.truth)
    except ParseError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    problems = validate(h)
    if problems:
        raise CliError("invalid instance: " + "; ".join(problems[:5]), EXIT_PARSE)
    if truth is not None and len(truth) != h.num_nodes:
        raise CliError(
            f"truth file has {len(truth)} colors but instance has {h.num_nodes} nodes", EXIT_PARSE
        )
    return h, truth, name


def _read_truth(path: str) -> list[int]:
    try:
        return [int(t) for t in _read(path).split()]
    except ValueError:
        raise CliError(f"{path}: non-integer token in truth file", EXIT_PARSE) from None


def _parse_interval(text: str) -> Interval:
    try:
        lo, hi = text.split(":")
        return Interval(float(lo), float(hi))
    except ValueError as exc:
        raise CliError(f"bad interval {text!r}, expected lo:hi", EXIT_PARSE) from exc


def _oracle_cap() -> int:
    raw = os.environ.get("ECC_ORACLE_CAP")
    if not raw:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"ECC_ORACLE_CAP must be an integer, got {raw!r}", EXIT_PARSE) from None


def cmd_gen(args) -> int:
    try:
        if args.kind == "gap":
            h = gen_integrality_gap(args.colors)
            truth = None
        elif args.kind == "star":
            h = gen_star()
            truth = None
        else:
            planted = gen_random(
                args.nodes, args.edges, args.max_size, args.colors, args.noise, args.seed
            )
            h, truth = planted.hypergraph, planted.truth
    except ValueError as exc:  # a generator parameter out of range
        raise CliError(str(exc), EXIT_PARSE) from None
    _write_out(write_canonical(h), args.output)
    if truth is not None and args.truth_output:
        _write_out("\n".join(str(c) for c in truth) + "\n", args.truth_output)
    return EXIT_OK


def _primal(lp, solution: str | None, flag: str, check: bool = True):
    """Primal vector of ``lp``: read from the ``solution`` file, or solved here.

    A malformed ``solution`` file exits with the parse code, and so does one
    that breaks a bound or row of ``lp`` by more than 1e-6, unless ``check``
    is off (``verify`` reports such vectors itself). Models above
    ``SOLVER_VAR_LIMIT`` variables are refused with the capacity exit code;
    ``flag`` names the option that supplies an external solution.
    """
    if solution:
        try:
            x = parse_primal_text(lp, _read(solution))
        except ValueError as exc:
            raise CliError(f"{solution}: {exc}", EXIT_PARSE) from None
        problem = lp.violation(x) if check else None
        if problem:
            raise CliError(f"{solution}: infeasible LP solution: {problem}", EXIT_PARSE)
        return x
    if lp.num_vars > SOLVER_VAR_LIMIT:
        raise CliError(
            f"LP has {lp.num_vars} variables, above the reference-solver limit "
            f"({SOLVER_VAR_LIMIT}); use 'minecc export' and supply {flag}",
            EXIT_CAPACITY,
        )
    return solve(lp).require_optimal().x


def _one_run(h, args, algo: str, seed: int, shuffled: bool, lp_sol, inc):
    """Run one algorithm once; returns (coloring, match_bound, mv_bound).

    ``shuffled`` switches the deletion algorithms to a seed-derived node visit
    order (the best-of-N protocol); single runs visit nodes in ascending order.
    """
    order_seed = seed if shuffled else None
    match_bound = mv_bound = None
    if algo == "mv":
        coloring = majority_vote(h)
        mv_bound = mv_lower_bound(h, coloring)
    elif algo == "pitt":
        _, coloring = pitt_coloring(h, seed, order_seed, inc)
    elif algo == "match":
        _, coloring, match_bound = match_coloring(h, order_seed, inc)
    elif algo == "hybrid":
        # hybrid() step by step, keeping the bounds of both steps
        dels, base, match_bound = match_coloring(h, order_seed, inc)
        mv = majority_vote(h)
        coloring = recolor_uncovered(h, dels, base, mv)
        mv_bound = mv_lower_bound(h, mv)
    elif algo == "lp-simple":
        coloring = simple_round(lp_sol)
    elif algo == "lp":
        if args.interval:
            interval = _parse_interval(args.interval)
        else:
            interval = best_interval(h.num_colors, max(h.rank, 2)).interval
        coloring = gen_color_round(h, lp_sol, interval, seed)
    elif algo == "exact":
        coloring = list(bruteforce_ecc(h, cap=_oracle_cap()).witness)
    else:
        raise CliError(f"unknown algorithm {algo!r}", EXIT_PARSE)
    return coloring, match_bound, mv_bound


def cmd_solve(args) -> int:
    h, truth, name = _load_instance(args)
    algo = args.algo

    t0 = time.perf_counter()
    lp_sol = None
    if algo in ("lp", "lp-simple") or args.with_lp_bound:
        lp_sol = extract_ecc_solution(h, _primal(build_ecc_lp(h), args.solution, "--solution"))
    inc = build_incidence(h) if algo in ("pitt", "match", "hybrid") else None
    best = None
    for trial in range(args.runs):
        seed = args.seed + trial
        coloring, match_bound, mv_bound = _one_run(
            h, args, algo, seed, args.runs > 1, lp_sol, inc
        )
        report = objective_cost(h, coloring, truth)
        if best is None or report.total_cost < best[0].total_cost:
            best = (report, seed, match_bound, mv_bound)
    seconds = time.perf_counter() - t0

    report, seed, match_bound, mv_bound = best
    lp_bound = lp_sol.objective if lp_sol is not None else None
    bounds = LowerBoundBundle(lp_bound, match_bound, mv_bound)
    ratio = None
    if report.total_cost == 0 or bounds.best() is not None:
        ratio = a_posteriori_ratio(report.total_cost, bounds)
    record = RunRecord(
        dataset=name,
        algo=algo,
        seed=seed,
        mistakes=report.total_cost,
        satisfaction=report.edge_satisfaction,
        lp_bound=lp_bound,
        match_bound=match_bound,
        mv_bound=mv_bound,
        ratio=ratio,
        accuracy=report.accuracy,
        seconds=seconds,
    )
    _emit_records([record], args.format, args.output)
    return EXIT_OK


def _emit_records(records, fmt: str, output: str | None) -> None:
    if fmt == "csv":
        text = CSV_HEADER + "\n" + "\n".join(r.csv_row() for r in records) + "\n"
    elif fmt == "json":
        text = json.dumps([asdict(r) for r in records], indent=2) + "\n"
    else:
        lines = []
        for r in records:
            parts = [
                f"{key}={format(value, '.6g') if isinstance(value, float) else value}"
                for key, value in asdict(r).items()
                if value is not None
            ]
            lines.append("  ".join(parts))
        text = "\n".join(lines) + "\n"
    _write_out(text, output)


def cmd_bench_scaling(args) -> int:
    try:
        sizes = [int(float(s)) for s in args.sizes.split(",")]
    except (ValueError, OverflowError):  # not a number, nan, or an infinity
        raise CliError(
            f"bad --sizes {args.sizes!r}, expected comma-separated finite numbers", EXIT_PARSE
        ) from None
    rows = []
    for target in sizes:
        avg_size = (2 + args.max_size) / 2
        m = max(1, int(target / avg_size))
        n = max(64, m // 4)
        try:
            h = gen_random(n, m, args.max_size, args.colors, 0.2, args.seed).hypergraph
        except ValueError as exc:
            raise CliError(str(exc), EXIT_PARSE) from None
        actual = len(h.members)
        elapsed = math.inf
        for _ in range(2):  # best of two to damp timer noise
            t0 = time.perf_counter()
            if args.algo == "pitt":
                pitt_coloring(h, args.seed)
            elif args.algo == "match":
                match_coloring(h)
            elif args.algo == "hybrid":
                hybrid(h)
            elif args.algo == "mv":
                majority_vote(h)
            else:
                raise CliError(f"unknown algorithm {args.algo!r}", EXIT_PARSE)
            elapsed = min(elapsed, time.perf_counter() - t0)
        rows.append((actual, elapsed))
        print(f"incidence={actual} seconds={elapsed:.4f}")
    if len(rows) >= 2:
        logs = np.log([r[0] for r in rows])
        logt = np.log([max(r[1], 1e-9) for r in rows])
        slope = float(np.polyfit(logs, logt, 1)[0])
        print(f"fitted log-log slope: {slope:.3f}")
    return EXIT_OK


def cmd_compare_lp(args) -> int:
    h, _, name = _load_instance(args)
    ecc_lp = build_ecc_lp(h)
    mc_lp = build_nodemc_lp(h)
    ecc_value = ecc_lp.value_of(_primal(ecc_lp, args.ecc_solution, "--ecc-solution"))
    mc_value = mc_lp.value_of(_primal(mc_lp, args.nodemc_solution, "--nodemc-solution"))
    gap = ecc_value - mc_value
    print(f"dataset={name} ecc_lp={ecc_value:.6f} nodemc_lp={mc_value:.6f} gap={gap:.6f}")
    if mc_value > ecc_value + 1e-6:
        print("VIOLATION: multiway-cut relaxation exceeds the clustering relaxation")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.certs:
        try:
            report = certificates.verify_all()
        except RuntimeError as exc:
            print(f"certificate verification failed: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        for line in report.lines:
            print(line)
        print(
            f"{report.verified}/{report.verified} certificates verified, "
            f"max bound {report.max_bound}"
        )
        if args.emit_lp:
            os.makedirs(args.emit_lp, exist_ok=True)
            for case in certificates.all_cases():
                fname = case.case_id.replace(" ", "_").replace("=", "") + ".lp"
                with open(os.path.join(args.emit_lp, fname), "w", encoding="utf-8") as fh:
                    fh.write(export_lp_text(certificates.case_to_lp(case)))
        return EXIT_OK

    h, _, name = _load_instance(args)
    vector = _primal(build_ecc_lp(h), args.solution, "--solution", check=False)
    # A supplied primal is checked as given, so that corrupted inputs stay detectable.
    sol = solution_from_vector(h, vector, tighten=not args.solution)
    problems = sol.violations(h) + rounding_invariant_violations(h, sol)
    checked = "feasibility and threshold invariants"
    if args.trials > 0 and h.rank >= 2:
        # Empirical per-edge check: the mistake frequency of interval rounding
        # must stay within the guaranteed multiple of each edge variable.
        choice = best_interval(h.num_colors, h.rank)
        interval = _parse_interval(args.interval) if args.interval else choice.interval
        for j in range(h.num_edges):
            p, err = estimate_mistake_prob(h, sol, interval, j, args.trials, args.seed + j)
            if p > choice.factor * float(sol.x_edge[j]) + 3 * err:
                problems.append(
                    f"edge {j}: mistake frequency {p:.4f} exceeds "
                    f"{choice.factor:.4f} * {sol.x_edge[j]:.4f} + 3 * {err:.4f}"
                )
        checked += f" and {args.trials}-trial rounding frequencies"
    if problems:
        print(f"{name}: {len(problems)} invariant violation(s)")
        for p in problems:
            print("  " + p)
        return EXIT_VERIFY
    print(f"{name}: {checked} hold on the LP solution")
    return EXIT_OK


def cmd_reduce(args) -> int:
    h, _, _ = _load_instance(args)
    if args.to == "vc":
        text = write_graph(ecc_to_vertex_cover(h).graph)
    elif args.to == "nodemc":
        text = write_graph(ecc_to_node_mc(h))
    else:
        th = ecc_to_hyper_mc(h)
        lines = [f"hmc {th.num_nodes} {len(th.edges)} {len(th.terminals)}"]
        for members, w in zip(th.edges, th.weights):
            ids = " ".join(str(v) for v in members)
            lines.append(f"e {w:g} {ids}")
        for c, t in enumerate(th.terminals, start=1):
            lines.append(f"t {t} {c}")
        text = "\n".join(lines) + "\n"
    _write_out(text, args.output)
    return EXIT_OK


def cmd_export(args) -> int:
    h, _, _ = _load_instance(args)
    lp = build_ecc_lp(h) if args.lp == "ecc" else build_nodemc_lp(h)
    _write_out(export_lp_text(lp), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minecc",
        description="Minimum edge-colored clustering: solvers, bounds, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command that reads an instance also reads the benchmark two-file format.
    labels = argparse.ArgumentParser(add_help=False)
    labels.add_argument("--labels",
                        help="benchmark mode: instance is the edges file, this the labels file")
    labels.add_argument("--node-labels", help="benchmark mode: ground-truth node labels file")

    p = sub.add_parser("gen", help="generate an instance in canonical format")
    p.add_argument("kind", choices=["random", "gap", "star"])
    p.add_argument("--nodes", type=int, default=50)
    p.add_argument("--edges", type=int, default=100)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--colors", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--seed", type=_count("--seed"), default=0)
    p.add_argument("-o", "--output")
    p.add_argument("--truth-output", help="write the planted coloring, one color per line")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", parents=[labels], help="run one algorithm on an instance")
    p.add_argument("instance")
    p.add_argument("--truth", help="canonical mode: ground-truth colors file")
    p.add_argument("--algo", default="hybrid",
                   choices=["mv", "pitt", "match", "hybrid", "lp", "lp-simple", "exact"])
    p.add_argument("--seed", type=_count("--seed"), default=0)
    p.add_argument("--runs", type=_count("--runs", 1), default=1,
                   help="best of N runs with derived seeds")
    p.add_argument("--interval", help="rounding interval lo:hi (lp only)")
    p.add_argument("--with-lp-bound", action="store_true")
    p.add_argument("--solution", help="externally solved LP primal ('name value' lines)")
    p.add_argument("--format", default="text", choices=["csv", "json", "text"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench-scaling", help="time an algorithm over doubling instance sizes")
    p.add_argument("--algo", default="pitt", choices=["pitt", "match", "hybrid", "mv"])
    p.add_argument("--sizes", default="1e5,2e5,4e5,8e5,1.6e6",
                   help="comma-separated incidence targets")
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--colors", type=int, default=8)
    p.add_argument("--seed", type=_count("--seed"), default=0)
    p.set_defaults(func=cmd_bench_scaling)

    p = sub.add_parser("compare-lp", parents=[labels], help="compare the two relaxation values")
    p.add_argument("instance")
    p.add_argument("--ecc-solution")
    p.add_argument("--nodemc-solution")
    p.set_defaults(func=cmd_compare_lp)

    p = sub.add_parser("verify", parents=[labels],
                       help="verify certificates or LP-solution invariants")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--certs", action="store_true")
    group.add_argument("--invariants", dest="instance")
    p.add_argument("--solution", help="check an externally supplied primal instead of solving")
    p.add_argument("--emit-lp", help="with --certs, write each case as an LP file into this directory")
    p.add_argument("--trials", type=_count("--trials"), default=0,
                   help="with --invariants, also Monte Carlo check per-edge mistake frequencies")
    p.add_argument("--interval", help="rounding interval lo:hi for the --trials check")
    p.add_argument("--seed", type=_count("--seed"), default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", parents=[labels], help="emit a reduction of the instance")
    p.add_argument("instance")
    p.add_argument("--to", required=True, choices=["vc", "nodemc", "hypermc"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("export", parents=[labels], help="export a relaxation as LP text")
    p.add_argument("instance")
    p.add_argument("--lp", default="ecc", choices=["ecc", "nodemc"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
