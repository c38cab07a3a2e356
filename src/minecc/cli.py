"""Command-line interface: generate, solve, benchmark, reduce, export, verify.

Exit codes: 0 success, 2 parse/usage error, 3 verification failure,
4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING

# Library modules are imported inside the functions that call them, so each
# subcommand loads only what it runs: `gen` never loads the LP layer, and
# `verify --certs` never loads numpy.
if TYPE_CHECKING:
    from .hypergraph import EdgeColoredHypergraph
    from .rounding import Interval

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_CAPACITY = 4


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


CSV_HEADER = ",".join(f.name for f in fields(RunRecord))


def _cell(value) -> str:
    """A record field as csv and text print it: floats to 6 significant digits."""
    if value is None:
        return ""
    return format(value, ".6g") if isinstance(value, float) else str(value)


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
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_PARSE) from exc


def _load_instance(args) -> tuple[EdgeColoredHypergraph, list[int] | None, str]:
    """Load from canonical text or, with --labels, the benchmark two-file format.

    A truth option of the other mode is an error, not ignored: ``--truth``
    reads canonical mode's colors file, ``--node-labels`` benchmark mode's.
    """
    from .hypergraph import validate
    from .instances import ParseError, parse_benchmark, parse_canonical

    name = os.path.splitext(os.path.basename(args.instance))[0]
    truth_path = getattr(args, "truth", None)
    if args.labels and truth_path:
        raise CliError("--truth applies to a canonical instance only; "
                       "with --labels, pass the ground truth as --node-labels", EXIT_PARSE)
    if args.node_labels and not args.labels:
        raise CliError("--node-labels applies with --labels (benchmark mode) only", EXIT_PARSE)
    try:
        if args.labels:
            truth_text = _read(args.node_labels) if args.node_labels else None
            h, truth = parse_benchmark(_read(args.instance), _read(args.labels), truth_text)
        else:
            h = parse_canonical(_read(args.instance))
            truth = _read_truth(truth_path) if truth_path else None
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
    from .instances import ParseError, parse_int_words

    try:
        return parse_int_words(_read(path))
    except ParseError as exc:
        raise CliError(f"{path}: {exc} in truth file", EXIT_PARSE) from None


def _interval(text: str) -> Interval:
    """The argparse type of ``--interval``, so a bad value exits before any work."""
    from .rounding import Interval

    try:
        lo, hi = text.split(":")
        return Interval(float(lo), float(hi))
    except ValueError as exc:
        raise CliError(f"bad --interval {text!r}, expected lo:hi", EXIT_PARSE) from exc


def _oracle_cap() -> int:
    from .oracle import DEFAULT_CAP

    raw = os.environ.get("ECC_ORACLE_CAP")
    if not raw:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise CliError(f"ECC_ORACLE_CAP must be a non-negative integer, got {raw!r}", EXIT_PARSE)
    return cap


def _need_colors(h: EdgeColoredHypergraph, what: str) -> None:
    """Refuse an instance without colors where ``what`` needs one: the full clustering
    LP's node rows would read 0 = -1, and rounding and the oracle have no color to give."""
    if h.num_colors == 0:
        raise CliError(f"{what} needs at least one color; the instance has none", EXIT_PARSE)


def cmd_gen(args) -> int:
    from .instances import (
        gen_integrality_gap,
        gen_random,
        gen_star,
        write_canonical,
        write_int_lines,
    )

    truth = None
    try:
        if args.kind == "gap":
            h = gen_integrality_gap(args.colors)
        elif args.kind == "star":
            h = gen_star()
        else:
            planted = gen_random(
                args.nodes, args.edges, args.max_size, args.colors, args.noise, args.seed
            )
            h, truth = planted.hypergraph, planted.truth
    except ValueError as exc:  # a generator parameter out of range
        raise CliError(str(exc), EXIT_PARSE) from None
    _write_out(write_canonical(h), args.output)
    if truth is not None and args.truth_output:
        _write_out(write_int_lines(truth), args.truth_output)
    return EXIT_OK


def _primal(lp, solution: str | None, flag: str, check: bool = True):
    """Primal vector of ``lp``: read from the ``solution`` file, or solved here.

    A malformed ``solution`` file exits with the parse code, and so does one
    that breaks a bound or row of ``lp`` by more than 1e-6, unless ``check``
    is off (``verify`` reports such vectors itself). A model that
    :func:`~minecc.lp.solve` refuses, or solves short of optimal, exits with the
    capacity code; ``flag`` names the option that supplies an external solution.
    """
    from .lp import parse_primal_text, solve

    if solution:
        try:
            x = parse_primal_text(lp, _read(solution))
        except ValueError as exc:
            raise CliError(f"{solution}: {exc}", EXIT_PARSE) from None
        problem = lp.violation(x) if check else None
        if problem:
            raise CliError(f"{solution}: infeasible LP solution: {problem}", EXIT_PARSE)
        return x
    try:
        return solve(lp).require_optimal().x
    except (MemoryError, RuntimeError) as exc:  # over the tableau budget, or not optimal
        raise CliError(f"{exc}; use 'minecc export' and supply {flag}", EXIT_CAPACITY) from None


def _clustering_solution(h: EdgeColoredHypergraph, solution: str | None, check: bool = True):
    """The clustering LP's solution: the ``solution`` file's primal of the full
    model, or the compact model solved here; ``check`` as in :func:`_primal`."""
    from .relaxations import build_ecc_lp, extract_ecc_solution

    lp = build_ecc_lp(h, compact=not solution)
    return extract_ecc_solution(h, _primal(lp, solution, "--solution", check))


# One-seed runs: (h, args, seed, order_seed, sol) -> (coloring, match_bound, mv_bound,
# report), ``report`` being set when the run scored the coloring already. Each imports
# what it calls when it is called, so it reads the owning module's current binding:
# tracing and tests rebind the name there.
def _run_mv(h, args, seed, order_seed, sol):
    from .combinatorial import majority_vote, mv_lower_bound

    coloring = majority_vote(h)
    return coloring, None, mv_lower_bound(h, coloring), None


def _run_pitt(h, args, seed, order_seed, sol):
    from .combinatorial import pitt_coloring

    return pitt_coloring(h, seed, order_seed)[1], None, None, None


def _run_match(h, args, seed, order_seed, sol):
    from .combinatorial import match_coloring

    _, coloring, match_bound = match_coloring(h, order_seed)
    return coloring, match_bound, None, None


def _run_hybrid(h, args, seed, order_seed, sol):
    from .combinatorial import hybrid, mv_lower_bound

    coloring, report, match_bound, mv = hybrid(h, order_seed)
    return coloring, match_bound, mv_lower_bound(h, mv), report


def _run_lp(h, args, seed, order_seed, sol):
    from .rounding import best_interval, gen_color_round

    interval = args.interval or best_interval(h.num_colors, max(h.rank, 2)).interval
    return gen_color_round(h, sol, interval, seed), None, None, None


def _run_lp_simple(h, args, seed, order_seed, sol):
    from .rounding import simple_round

    return simple_round(sol), None, None, None


def _run_exact(h, args, seed, order_seed, sol):
    from .oracle import CapExceededError, bruteforce_ecc

    try:
        result = bruteforce_ecc(h, cap=_oracle_cap())
    except CapExceededError as exc:
        raise CliError(str(exc), EXIT_CAPACITY) from None
    return list(result.witness), None, None, None


# --algo name: one-seed run
ALGORITHMS = {"mv": _run_mv, "pitt": _run_pitt, "match": _run_match, "hybrid": _run_hybrid,
              "lp": _run_lp, "lp-simple": _run_lp_simple, "exact": _run_exact}
ROUNDS_LP = ("lp", "lp-simple")  # runs that round the LP solution ``sol``
SEEDLESS = ("mv", "lp-simple", "exact")  # runs that read neither seed: run once for any --runs
LINEAR = ("mv", "pitt", "match", "hybrid")  # linear-time runs, timed by bench-scaling


def cmd_solve(args) -> int:
    from .combinatorial import a_posteriori_ratio
    from .hypergraph import accuracy, objective_cost

    run, rounds_lp = ALGORITHMS[args.algo], args.algo in ROUNDS_LP
    if args.solution and not rounds_lp:
        raise CliError("--solution needs --algo lp or lp-simple", EXIT_PARSE)
    if args.interval and args.algo != "lp":
        raise CliError("--interval needs --algo lp", EXIT_PARSE)
    h, truth, name = _load_instance(args)
    if rounds_lp:
        _need_colors(h, "the clustering LP")
    if args.algo == "exact":
        _need_colors(h, "the exact oracle")

    t0 = time.perf_counter()
    lp_sol = _clustering_solution(h, args.solution) if rounds_lp or args.with_lp_bound else None
    best = None
    runs = 1 if args.algo in SEEDLESS else args.runs
    for trial in range(runs):
        seed = args.seed + trial
        # best of N shuffles the walks' node visit order per seed; one run visits in order
        order_seed = seed if runs > 1 else None
        coloring, match_bound, mv_bound, report = run(h, args, seed, order_seed, lp_sol)
        if report is None:
            report = objective_cost(h, coloring, truth)
        elif truth is not None:
            report = replace(report, accuracy=accuracy(coloring, truth))
        if best is None or report.total_cost < best[0].total_cost:
            best = (report, seed, match_bound, mv_bound)
    seconds = time.perf_counter() - t0

    report, seed, match_bound, mv_bound = best
    # A supplied primal is feasible, not shown optimal, so its value bounds nothing.
    lp_bound = lp_sol.objective if lp_sol is not None and not args.solution else None
    values = asdict(RunRecord(
        dataset=name,
        algo=args.algo,
        seed=seed,
        mistakes=report.total_cost,
        satisfaction=report.edge_satisfaction,
        lp_bound=lp_bound,
        match_bound=match_bound,
        mv_bound=mv_bound,
        ratio=a_posteriori_ratio(report.total_cost, lp_bound, match_bound, mv_bound),
        accuracy=report.accuracy,
        seconds=seconds,
    ))
    if args.format == "csv":
        text = CSV_HEADER + "\n" + ",".join(_cell(v) for v in values.values())
    elif args.format == "json":
        text = json.dumps([values], indent=2)  # a list of records, as readers of it expect
    else:
        text = "  ".join(f"{key}={_cell(v)}" for key, v in values.items() if v is not None)
    _write_out(text + "\n", args.output)
    return EXIT_OK


def cmd_bench_scaling(args) -> int:
    import numpy as np

    from .instances import gen_random

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
        elapsed = np.inf
        for _ in range(2):  # best of two to damp timer noise
            fresh = replace(h)  # a copy, so that each run builds its own incidence
            t0 = time.perf_counter()
            ALGORITHMS[args.algo](fresh, args, args.seed, None, None)  # one solve seed's work
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
    from .relaxations import build_ecc_lp, build_nodemc_lp

    h, _, name = _load_instance(args)
    ecc_lp = build_ecc_lp(h, compact=not args.ecc_solution)  # the value alone is needed
    mc_lp = build_nodemc_lp(h)
    ecc_value = ecc_lp.value_of(_primal(ecc_lp, args.ecc_solution, "--ecc-solution"))
    mc_value = mc_lp.value_of(_primal(mc_lp, args.nodemc_solution, "--nodemc-solution"))
    gap = round(ecc_value - mc_value, 6) + 0.0  # printed as rounded; + 0.0 makes -0.0 zero
    print(f"dataset={name} ecc_lp={ecc_value:.6f} nodemc_lp={mc_value:.6f} gap={gap:.6f}")
    if mc_value > ecc_value + 1e-6:
        print("VIOLATION: multiway-cut relaxation exceeds the clustering relaxation")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    # Each mode rejects the other mode's flags rather than ignore them.
    if args.certs:
        for flag, given in (("--trials", args.trials > 0), ("--interval", args.interval),
                            ("--solution", args.solution), ("--labels", args.labels),
                            ("--node-labels", args.node_labels)):
            if given:
                raise CliError(f"{flag} applies to --invariants only", EXIT_PARSE)
    elif args.emit_lp:
        raise CliError("--emit-lp applies to --certs only", EXIT_PARSE)
    if args.certs:
        from .certificates import all_cases, case_to_lp, verify_all

        if args.emit_lp:
            try:
                os.makedirs(args.emit_lp, exist_ok=True)
            except OSError as exc:
                raise CliError(f"cannot write {args.emit_lp}: {exc}", EXIT_PARSE) from exc
        try:
            report = verify_all()
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
            from .lp import export_lp_text

            for case in all_cases():
                fname = case.case_id.replace(" ", "_").replace("=", "") + ".lp"
                lp_text = export_lp_text(case_to_lp(case))
                _write_out(lp_text, os.path.join(args.emit_lp, fname))
        return EXIT_OK

    if args.interval and args.trials == 0:
        raise CliError("--interval needs --trials above 0", EXIT_PARSE)
    from .rounding import best_interval, estimate_mistake_prob, rounding_invariant_violations

    h, _, name = _load_instance(args)
    _need_colors(h, "the clustering LP")
    sol = _clustering_solution(h, args.solution, check=False)
    problems = sol.violations(h) + rounding_invariant_violations(h, sol)
    checked = "feasibility and threshold invariants"
    # The frequency trials round the solution, so they need it to hold, checked once here.
    if args.trials > 0 and h.rank >= 2 and not problems:
        # Empirical per-edge check: the mistake frequency of interval rounding
        # must stay within the guaranteed multiple of each edge variable.
        choice = best_interval(h.num_colors, h.rank)
        interval = args.interval or choice.interval
        for j in range(h.num_edges):
            p, _ = estimate_mistake_prob(h, sol, interval, j, args.trials, args.seed + j,
                                         check=False)
            # The error of a frequency whose probability sits at the bound b.
            b = min(max(choice.factor * float(sol.x_edge[j]), 0.0), 1.0)
            err = math.sqrt(b * (1.0 - b) / args.trials)
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
    from . import reductions as red

    h, _, _ = _load_instance(args)
    if args.to == "hypermc":
        text = red.write_hmc(red.ecc_to_hyper_mc(h))
    else:
        text = red.write_graph(red.ecc_to_vertex_cover(h).graph if args.to == "vc"
                               else red.ecc_to_node_mc(h))
    _write_out(text, args.output)
    return EXIT_OK


def cmd_export(args) -> int:
    from .lp import export_lp_text
    from .relaxations import build_ecc_lp, build_nodemc_lp

    h, _, _ = _load_instance(args)
    if args.lp == "ecc":
        _need_colors(h, "the clustering LP")
    lp = build_ecc_lp(h) if args.lp == "ecc" else build_nodemc_lp(h)
    _write_out(export_lp_text(lp), args.output)
    return EXIT_OK


@functools.cache  # one parser per process: parse_args keeps no per-call state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minecc",
        description="Minimum edge-colored clustering: solvers, bounds, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options that several commands share, each defined once. Every command
    # that reads an instance also reads the benchmark two-file format.
    labels = argparse.ArgumentParser(add_help=False)
    labels.add_argument("--labels",
                        help="benchmark mode: instance is the edges file, this the labels file")
    labels.add_argument("--node-labels", help="benchmark mode: ground-truth node labels file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_count("--seed"), default=0)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output")

    p = sub.add_parser("gen", parents=[seed, output],
                       help="generate an instance in canonical format")
    p.add_argument("kind", choices=["random", "gap", "star"])
    p.add_argument("--nodes", type=int, default=50)
    p.add_argument("--edges", type=int, default=100)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--colors", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--truth-output", help="write the planted coloring, one color per line")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", parents=[labels, seed, output],
                       help="run one algorithm on an instance")
    p.add_argument("instance")
    p.add_argument("--truth", help="canonical mode: ground-truth colors file")
    p.add_argument("--algo", default="hybrid", choices=list(ALGORITHMS))
    p.add_argument("--runs", type=_count("--runs", 1), default=1,
                   help="best of N runs with derived seeds")
    p.add_argument("--interval", type=_interval, help="rounding interval lo:hi (lp only)")
    p.add_argument("--with-lp-bound", action="store_true")
    p.add_argument("--solution", help="externally solved LP primal ('name value' lines)")
    p.add_argument("--format", default="text", choices=["csv", "json", "text"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench-scaling", parents=[seed],
                       help="time an algorithm over doubling instance sizes")
    p.add_argument("--algo", default="pitt", choices=LINEAR)
    p.add_argument("--sizes", default="1e5,2e5,4e5,8e5,1.6e6",
                   help="comma-separated incidence targets")
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--colors", type=int, default=8)
    p.set_defaults(func=cmd_bench_scaling)

    p = sub.add_parser("compare-lp", parents=[labels], help="compare the two relaxation values")
    p.add_argument("instance")
    p.add_argument("--ecc-solution")
    p.add_argument("--nodemc-solution")
    p.set_defaults(func=cmd_compare_lp)

    p = sub.add_parser("verify", parents=[labels, seed],
                       help="verify certificates or LP-solution invariants")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--certs", action="store_true")
    group.add_argument("--invariants", dest="instance")
    p.add_argument("--solution", help="check an externally supplied primal instead of solving")
    p.add_argument("--emit-lp", help="with --certs, write each case as an LP file into this directory")
    p.add_argument("--trials", type=_count("--trials"), default=0,
                   help="with --invariants, also Monte Carlo check per-edge mistake frequencies")
    p.add_argument("--interval", type=_interval, help="rounding interval lo:hi (--trials only)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", parents=[labels, output], help="emit a reduction of the instance")
    p.add_argument("instance")
    p.add_argument("--to", required=True, choices=["vc", "nodemc", "hypermc"])
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("export", parents=[labels, output], help="export a relaxation as LP text")
    p.add_argument("instance")
    p.add_argument("--lp", default="ecc", choices=["ecc", "nodemc"])
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except MemoryError as exc:  # sizes that pass every check but do not fit
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
