"""minecc benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload {planted-large,desk-lp,cli-small} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` times whole commands with tracing off for S seconds and prints
the end-to-end metrics. ``--trace 1`` is a separate run: it alternates
untraced passes with passes under the span recorder and prints the per-layer
metrics. Every command's output is checked in both. A report goes to stdout,
and its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--write-expected`` (at the default seed only) records every command's
non-timing output in ``expected.json``; later runs at that seed count any
difference as a failed command.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
# One thread per numeric library: the machine has two cores and one client.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
IMPORT_PROBES = 5

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

_S, _N = "s", "count"
PER_LAYER = {
    "cli.main.self_s": _S, "cli.import_s": _S, "cli.seconds_share": "ratio",
    "instances.parse_canonical.s": _S, "instances.parse_canonical.calls": _N,
    "instances.gen_random.s": _S, "instances.write_canonical.s": _S,
    "hypergraph.hypergraph.s": _S, "hypergraph.validate.s": _S,
    "hypergraph.build_incidence.s": _S, "hypergraph.build_incidence.calls": _N,
    "hypergraph.objective_cost.s": _S, "hypergraph.objective_cost.calls": _N,
    "combinatorial.majority_vote.s": _S, "combinatorial.majority_vote.calls": _N,
    "combinatorial.mv_lower_bound.s": _S,
    "combinatorial.match_coloring.s": _S, "combinatorial.match_coloring.calls": _N,
    "combinatorial.pitt_coloring.s": _S, "combinatorial.pitt_coloring.calls": _N,
    "combinatorial.hybrid.self_s": _S, "combinatorial.deleted_edges": _N,
    "relaxations.build_ecc_lp.s": _S, "relaxations.build_ecc_lp.calls": _N,
    "relaxations.extract_ecc_solution.s": _S, "relaxations.build_nodemc_lp.s": _S,
    "lp.solve.s": _S, "lp.solve.calls": _N, "lp.solve.iterations": _N,
    "lp.vars": _N, "lp.rows": _N, "lp.solve.nonoptimal": _N,
    "rounding.gen_color_round.s": _S, "rounding.gen_color_round.calls": _N,
    "rounding.rounding_invariant_violations.s": _S,
    "rounding.estimate_mistake_prob.s": _S, "rounding.estimate_mistake_prob.calls": _N,
    "oracle.bruteforce_ecc.s": _S, "oracle.bruteforce_ecc.explored": _N,
    "reductions.ecc_to_vertex_cover.s": _S, "certificates.verify_all.s": _S,
    "trace.overhead_frac": "ratio",
}
# Per-layer metrics named differently from the span totals they read.
SELF_ALIASES = {"cli.main.self_s": "cli.main.s", "combinatorial.hybrid.self_s": "combinatorial.hybrid.s"}
# Measured over the workload's set-up instead of per pass.
SETUP_LAYER = ("instances.gen_random.s", "instances.write_canonical.s")
# Calls per command printed by the traced run: the duplicated work inside one command.
CALL_BREAKDOWN = ("hypergraph.build_incidence.calls", "combinatorial.match_coloring.calls",
                  "combinatorial.majority_vote.calls", "hypergraph.objective_cost.calls",
                  "lp.solve.calls")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["planted-large", "desk-lp", "cli-small"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--write-expected", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minecc" / "cli.py").is_file():
        print(f"error: minecc sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads  # imports minecc (and numpy) from SRC

    harness_import_s = time.perf_counter() - T0
    if args.write_expected and args.seed != workloads.DEFAULT_SEED:
        print(f"error: results are recorded at seed {workloads.DEFAULT_SEED} only", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            return traced_run(args, workload, workdir)
        return timed_run(args, workload, workdir, harness_import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def timed_run(args, workload, workdir: Path, harness_import_s: float) -> int:
    import workloads

    setup_times = []
    for rep in range(SETUP_REPS):
        inputs = workdir / f"setup{rep}"
        inputs.mkdir(parents=True)
        runner = workloads.Runner(workload, inputs)
        t0 = time.perf_counter()
        runner.gen_fresh()
        setup_times.append(time.perf_counter() - t0)

    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(runner.run_pass(len(passes), traced=False))
    if workload.fresh_process:
        peak_kb = max(r.rss_kb for results in passes for r in results)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed, attempted, inst_stats = check(args, workload, runner.workdir, passes)
    metrics = {
        "setup_s": harness_import_s + statistics.median(setup_times),
        "pass_s": pass_s(passes),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    print(f"workload={workload.name} seed={args.seed} trace=0 passes={len(passes)} "
          f"attempted={attempted} failed={failed}")
    print_instances(inst_stats)
    print(f"  setup_s        {metrics['setup_s']:.4f} s  (harness import {harness_import_s:.4f} s "
          f"+ median of {SETUP_REPS} set-ups)")
    print(f"  pass_s         {metrics['pass_s']:.4f} s  (sum of per-command medians over "
          f"{len(passes)} passes)")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac    {failed / attempted:.4f}  ({failed}/{attempted} commands)")
    for group, samples in group_samples(workload, passes).items():
        print("  " + describe(group, samples))
        if group == "cold_cmd_s":
            n = len(samples)
            print(f"  cold_cmd_p90_s {stats.percentile(samples, 90):.4f} s  "
                  f"(n={n}, {stats.beyond(n, 90)} samples beyond)")
    for label, rs in command_samples(passes).items():
        print(f"  samples {label}: " + " ".join(f"{r.wall:.4f}" for r in rs))
    emit(failed, attempted, metrics, END_TO_END)
    return 0


def pass_s(passes) -> float:
    """Wall time of one pass: the sum of each command's median over the passes."""
    return sum(statistics.median([r.wall for r in rs]) for rs in command_samples(passes).values())


def command_samples(passes) -> dict[str, list]:
    """Each command's results over the passes, by label."""
    out: dict[str, list] = {}
    for results in passes:
        for r in results:
            out.setdefault(r.cmd.label, []).append(r)
    return out


def group_samples(workload, passes) -> dict[str, list[float]]:
    """Wall-time samples per command group: one per command for fresh-process
    workloads, otherwise the group's total in each pass."""
    out: dict[str, list[float]] = {g: [] for g in workload.groups}
    for results in passes:
        totals = dict.fromkeys(workload.groups, 0.0)
        for r in results:
            if workload.fresh_process:
                out[r.cmd.group].append(r.wall)
            totals[r.cmd.group] += r.wall
        if not workload.fresh_process:
            for g, v in totals.items():
                out[g].append(v)
    return out


def describe(name: str, samples: list[float]) -> str:
    text = f"{name:<14} {statistics.median(samples):.4f} s  (median, n={len(samples)}"
    p = stats.tail_percentile(len(samples))
    if p is not None and p > 50:
        text += f"; p{p:g} {stats.percentile(samples, p):.4f} s"
    return text + ")"


def traced_run(args, workload, workdir: Path) -> int:
    import workloads

    recorder = spans.Recorder()
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    runner = workloads.Runner(workload, inputs, recorder)
    setup_ids = runner.gen_traced()
    import_samples = [] if workload.fresh_process else runner.import_times(IMPORT_PROBES)

    untraced, traced = [], []
    t0 = time.perf_counter()
    while not (untraced and traced) or time.perf_counter() - t0 < args.seconds:
        side = traced if len(untraced) > len(traced) else untraced
        side.append(runner.run_pass(len(untraced) + len(traced), traced=side is traced))

    failed, attempted, inst_stats = check(args, workload, inputs, untraced + traced)

    per_pass = [spans.totals(recorder.spans, {r.cmd_id for r in results}) for results in traced]
    setup = spans.totals(recorder.spans, setup_ids)
    import_samples += [r.import_s for results in traced for r in results
                       if r.import_s is not None]
    shares = [r.reported_seconds / r.wall for results in untraced for r in results
              if r.reported_seconds is not None]
    metrics = {}
    for name in PER_LAYER:
        if name in SETUP_LAYER:
            metrics[name] = setup.get(name, 0.0)
        elif name not in ("cli.import_s", "cli.seconds_share", "trace.overhead_frac"):
            key = SELF_ALIASES.get(name, name)
            metrics[name] = statistics.median([t.get(key, 0) for t in per_pass])
    metrics["cli.import_s"] = statistics.median(import_samples)
    metrics["cli.seconds_share"] = statistics.median(shares) if shares else 0.0
    metrics["trace.overhead_frac"] = pass_s(traced) / pass_s(untraced) - 1.0

    print(f"workload={workload.name} seed={args.seed} trace=1 untraced_passes={len(untraced)} "
          f"traced_passes={len(traced)} attempted={attempted} failed={failed}")
    print_instances(inst_stats)
    for r in traced[0]:
        counts = spans.totals(recorder.spans, {r.cmd_id})
        calls = " ".join(f"{k}={counts.get(k, 0)}" for k in CALL_BREAKDOWN if counts.get(k))
        print(f"  calls in {r.cmd.label}: {calls or '-'}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:.6g} {PER_LAYER[name]}")
    emit(failed, attempted, metrics, PER_LAYER)
    return 0


def check(args, workload, inputs: Path, all_results):
    """Check every command; returns (failed, attempted, instance stats)."""
    import workloads

    names = sorted({c.instance for c in workload.commands if c.instance})
    inst_stats = workloads.instance_stats(inputs, names)
    refs = workloads.compute_refs(workload, inputs, inst_stats)
    expected = None
    if args.seed == workloads.DEFAULT_SEED and not args.write_expected:
        recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        expected = recorded.get(workload.name, {})
    workloads.check_passes(all_results, refs, expected)
    flat = [r for results in all_results for r in results]
    bad = [r for r in flat if r.problems]
    for r in bad[:10]:
        print(f"FAILED {r.cmd.label} (pass {r.pass_no}): " + "; ".join(r.problems[:5]),
              file=sys.stderr)
    if args.write_expected:
        if bad:
            print("error: not recording results while checks fail", file=sys.stderr)
        else:
            recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
            recorded[workload.name] = {r.cmd.label: r.outcome for r in all_results[0]}
            EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return len(bad), len(flat), inst_stats


def print_instances(inst_stats: dict[str, dict]) -> None:
    for name, st in inst_stats.items():
        print(f"  instance {name}: " + " ".join(f"{k}={v}" for k, v in st.items()))


def emit(failed: int, attempted: int, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    sys.exit(main())
