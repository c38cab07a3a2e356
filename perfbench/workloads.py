"""The benchmark's workloads and the runner that executes and checks their commands.

Load is a closed loop with one client: one command in flight at a time. Each
workload's inputs are written by fresh-process ``minecc gen`` commands from
the workload seed; the commands then see only those files.

- ``planted-large``: one planted instance of about 400k incidences, solved
  in-process by the four combinatorial algorithms. Parsing, validation, the
  incidence build, the walks and evaluation do nearly all the work and no LP
  is built, so it shows the instance, hypergraph, combinatorial and cli layers
  and predicts no change for LP work.
- ``desk-lp``: desk-scale LP instances (142 to 380 LP variables), each solved
  again by every command as separate commands do, plus one exact oracle run.
  The dense simplex, LP building, rounding and the oracle dominate; parsing
  and the walks are negligible.
- ``cli-small``: fresh-process commands on tiny inputs, where interpreter
  start-up and imports dominate and the LP layer solves many 12 to
  105-variable models. The gap family has no seed, so the workload seed does
  not change these inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import minecc.cli
import spans

DEFAULT_SEED = 0
CHILD = Path(__file__).with_name("child.py")


@dataclass(frozen=True)
class Command:
    label: str  # unique within a pass
    group: str  # end-to-end metric its wall time counts toward
    kind: str  # solve | verify-inv | compare-lp | verify-certs | reduce-vc
    instance: str | None  # dataset name: the input file without ".ecc"
    argv: tuple[str, ...]
    facts: tuple[tuple[str, float], ...] = ()  # results known exactly in advance

    @property
    def algo(self) -> str | None:
        return self.argv[self.argv.index("--algo") + 1] if "--algo" in self.argv else None


@dataclass(frozen=True)
class Workload:
    name: str
    fresh_process: bool
    gens: tuple[tuple[str, ...], ...]  # arguments of each set-up ``minecc gen``
    commands: tuple[Command, ...]  # one pass

    @property
    def groups(self) -> list[str]:
        return list(dict.fromkeys(c.group for c in self.commands))


def _solve(instance: str, group: str, label: str, *extra: str, facts=()) -> Command:
    argv = ("solve", instance + ".ecc", *extra, "--format", "json")
    return Command(f"{instance}/{label}", group, "solve", instance, argv, facts)


def planted_large(seed: int) -> Workload:
    gen = ("gen", "random", "--nodes", "25000", "--edges", "100000", "--max-size", "6",
           "--colors", "8", "--seed", str(seed), "-o", "planted.ecc",
           "--truth-output", "planted.truth")
    truth = ("--truth", "planted.truth")
    return Workload("planted-large", False, (gen,), (
        _solve("planted", "solve_mv_s", "solve-mv", *truth, "--algo", "mv"),
        _solve("planted", "solve_match_s", "solve-match", *truth, "--algo", "match"),
        _solve("planted", "solve_hybrid_s", "solve-hybrid", *truth, "--algo", "hybrid"),
        _solve("planted", "solve_pitt3_s", "solve-pitt3", *truth, "--algo", "pitt",
               "--runs", "3"),
    ))


def desk_lp(seed: int) -> Workload:
    def rand(name, *args):
        return ("gen", "random", *args, "-o", name + ".ecc")

    gens = (
        ("gen", "gap", "--colors", "8", "-o", "gap8.ecc"),
        rand("rand1", "--nodes", "50", "--edges", "80", "--max-size", "3", "--colors", "6",
             "--seed", str(10 * seed + 1)),
        rand("rand2", "--nodes", "50", "--edges", "80", "--max-size", "3", "--colors", "6",
             "--seed", str(10 * seed + 2)),
        rand("exact14", "--nodes", "14", "--edges", "100", "--max-size", "2", "--colors", "3",
             "--noise", "1.0", "--seed", str(10 * seed + 2)),
    )
    commands = []
    for inst in ("gap8", "rand1", "rand2"):
        commands += [
            _solve(inst, "solve_lp_s", "solve-lp", "--algo", "lp", "--runs", "5"),
            _solve(inst, "lp_bound_s", "lp-bound", "--algo", "match", "--with-lp-bound"),
            Command(f"{inst}/verify-inv", "verify_inv_s", "verify-inv", inst,
                    ("verify", "--invariants", inst + ".ecc", "--trials", "500")),
        ]
    commands.append(_solve("exact14", "solve_exact_s", "solve-exact", "--algo", "exact"))
    return Workload("desk-lp", False, gens, tuple(commands))


def cli_small(seed: int) -> Workload:
    gens = tuple(("gen", "gap", "--colors", str(k), "-o", f"gap{k}.ecc") for k in (3, 4, 5))
    commands = [Command("verify-certs", "cold_cmd_s", "verify-certs", None, ("verify", "--certs"))]
    commands += [Command(f"gap{k}/compare-lp", "cold_cmd_s", "compare-lp", f"gap{k}",
                         ("compare-lp", f"gap{k}.ecc"), (("ecc_lp", k / 2),))
                 for k in (3, 4, 5)]
    commands += [
        _solve("gap5", "cold_cmd_s", "solve-exact", "--algo", "exact", facts=(("mistakes", 4.0),)),
        Command("gap5/reduce-vc", "cold_cmd_s", "reduce-vc", "gap5",
                ("reduce", "gap5.ecc", "--to", "vc"), (("conflict_edges", 10),)),
    ]
    return Workload("cli-small", True, gens, tuple(commands))


WORKLOADS = {"planted-large": planted_large, "desk-lp": desk_lp, "cli-small": cli_small}


@dataclass
class Result:
    cmd: Command
    cmd_id: int  # span command id
    pass_no: int
    wall: float
    code: int | None
    stdout: str
    error: str | None = None
    rss_kb: int = 0  # fresh-process commands only
    import_s: float | None = None  # traced fresh-process commands only
    problems: list[str] = field(default_factory=list)

    @property
    def outcome(self) -> dict:
        return checks.outcome(self.cmd.kind, self.code, self.stdout, self.error)

    @property
    def reported_seconds(self) -> float | None:
        """The ``seconds`` field a solve command printed, if it printed one."""
        if self.cmd.kind != "solve" or self.code != 0:
            return None
        try:
            return json.loads(self.stdout)[0]["seconds"]
        except (ValueError, LookupError, TypeError):
            return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(minecc.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], workdir: Path, env: dict[str, str]):
    """Run one process to completion; returns (exit code, wall seconds, stdout, stderr, max RSS KB)."""
    out_path, err_path = workdir / "proc.out", workdir / "proc.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"), usage.ru_maxrss)


def run_in_process(argv) -> tuple[int | None, float, str, str | None]:
    """Call ``minecc.cli.main`` with output captured; returns (code, wall, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = minecc.cli.main(list(argv))
    except SystemExit as exc:
        error = f"SystemExit({exc.code}): {err.getvalue()[-300:]}"
    except Exception as exc:  # a crash is a failed command, not a harness error
        error = repr(exc)
    wall = time.perf_counter() - t0
    if code not in (0, None) and error is None:
        error = f"exit {code}: {err.getvalue()[-300:]}"
    return code, wall, out.getvalue(), error


class Runner:
    """Runs one workload's commands in ``workdir``; traced runs record spans into ``recorder``."""

    def __init__(self, workload: Workload, workdir: Path, recorder: spans.Recorder | None = None):
        self.workload = workload
        self.workdir = workdir
        self.recorder = recorder
        self.env = child_env()
        self.next_cmd = 0

    def gen_fresh(self) -> None:
        """The workload's set-up: every input written by a fresh ``minecc gen`` process."""
        for argv in self.workload.gens:
            code, _, _, err, _ = spawn([sys.executable, "-m", "minecc", *argv], self.workdir,
                                       self.env)
            if code != 0:
                raise RuntimeError(f"set-up command {' '.join(argv)} failed: {err[-300:]}")

    def gen_traced(self) -> set[int]:
        """The set-up run in-process under the recorder; returns the command ids used."""
        ids = set()
        uninstall = self.recorder.install()
        try:
            with contextlib.chdir(self.workdir):
                for argv in self.workload.gens:
                    ids.add(self._new_cmd_id())
                    code, _, _, error = run_in_process(argv)
                    if error is not None:
                        raise RuntimeError(f"set-up command {' '.join(argv)} failed: {error}")
        finally:
            uninstall()
        return ids

    def _new_cmd_id(self) -> int:
        self.next_cmd += 1
        if self.recorder is not None:
            self.recorder.cmd = self.next_cmd
        return self.next_cmd

    def run_pass(self, pass_no: int, traced: bool) -> list[Result]:
        """One pass over the workload's commands, in order."""
        uninstall = self.recorder.install() if traced and not self.workload.fresh_process else None
        try:
            return [self._run(cmd, pass_no, traced) for cmd in self.workload.commands]
        finally:
            if uninstall is not None:
                uninstall()

    def _run(self, cmd: Command, pass_no: int, traced: bool) -> Result:
        cmd_id = self._new_cmd_id()
        if not self.workload.fresh_process:
            with contextlib.chdir(self.workdir):
                code, wall, stdout, error = run_in_process(cmd.argv)
            return Result(cmd, cmd_id, pass_no, wall, code, stdout, error)
        if not traced:
            argv = [sys.executable, "-m", "minecc", *cmd.argv]
        else:
            argv = [sys.executable, str(CHILD), str(self.workdir / "spans.json"), *cmd.argv]
            (self.workdir / "spans.json").unlink(missing_ok=True)
        code, wall, stdout, stderr, rss_kb = spawn(argv, self.workdir, self.env)
        error = None if code == 0 else f"exit {code}: {stderr[-300:]}"
        result = Result(cmd, cmd_id, pass_no, wall, code, stdout, error, rss_kb)
        if traced and (self.workdir / "spans.json").exists():
            data = json.loads((self.workdir / "spans.json").read_text())
            result.import_s = data["import_s"]
            spans.extend_from_rows(self.recorder, data["spans"])
        return result

    def import_times(self, count: int) -> list[float]:
        """``import minecc.cli`` time in ``count`` fresh processes."""
        out = []
        for _ in range(count):
            code, _, _, err, _ = spawn([sys.executable, str(CHILD), str(self.workdir / "import.json")],
                                       self.workdir, self.env)
            if code != 0:
                raise RuntimeError(f"import probe failed: {err[-300:]}")
            out.append(json.loads((self.workdir / "import.json").read_text())["import_s"])
        return out


def instance_stats(workdir: Path, names) -> dict[str, dict]:
    """n, m, k and incidence count of each input, read from its canonical file."""
    stats = {}
    for name in names:
        tokens = (workdir / f"{name}.ecc").read_text().split()
        n, m, k = int(tokens[1]), int(tokens[2]), int(tokens[3])
        stats[name] = {"n": n, "m": m, "k": k, "incidences": len(tokens) - 4 - 2 * m}
    return stats


def compute_refs(workload: Workload, workdir: Path, stats: dict[str, dict]) -> checks.Refs:
    """Reference LP values (HiGHS) and untimed match results for the checked commands.

    Also records each built model's size in ``stats``. A value that cannot be
    computed is left out, which fails the commands that need it.
    """
    import reference
    from minecc.instances import parse_canonical
    from minecc.relaxations import build_ecc_lp, build_nodemc_lp

    refs = checks.Refs()
    for cmd in workload.commands:
        inst = cmd.instance
        needs_ecc = cmd.kind == "compare-lp" or (cmd.kind == "solve" and (
            cmd.algo in ("lp", "exact") or "--with-lp-bound" in cmd.argv))
        if not needs_ecc or inst in refs.ecc_lp:
            continue
        try:
            h = parse_canonical((workdir / f"{inst}.ecc").read_text())
            lp = build_ecc_lp(h)
            stats[inst].update(ecc_lp_vars=lp.num_vars, ecc_lp_rows=len(lp.constraints))
            refs.ecc_lp[inst] = reference.lp_value(lp)
            if cmd.kind == "compare-lp":
                mc = build_nodemc_lp(h)
                stats[inst].update(nodemc_lp_vars=mc.num_vars, nodemc_lp_rows=len(mc.constraints))
                refs.nodemc_lp[inst] = reference.lp_value(mc)
        except (OSError, ValueError, RuntimeError) as exc:
            print(f"reference LP for {inst} failed: {exc!r}", file=sys.stderr)
    for cmd in workload.commands:
        if cmd.algo == "exact":
            with contextlib.chdir(workdir):
                code, _, stdout, error = run_in_process(
                    ("solve", f"{cmd.instance}.ecc", "--algo", "match", "--format", "json"))
            if error is None:
                refs.match_mistakes[cmd.instance] = json.loads(stdout)[0]["mistakes"]
            else:
                print(f"reference match run on {cmd.instance} failed: {error}", file=sys.stderr)
    return refs


def _ref(table: dict[str, float], inst: str, what: str, problems: list[str]) -> float | None:
    if inst not in table:
        problems.append(f"no reference {what} for {inst}")
    return table.get(inst)


def command_problems(r: Result, pass_results: dict[str, Result], refs: checks.Refs) -> list[str]:
    """Everything wrong with one command's output; empty when it passes."""
    out = r.outcome
    if r.error is not None or "error" in out:
        return [r.error or out["error"]]
    cmd, facts, problems = r.cmd, dict(r.cmd.facts), []
    inst = cmd.instance
    if cmd.kind == "solve":
        problems += checks.solve_problems(cmd.algo, out)
        if cmd.algo == "hybrid":
            match = pass_results[f"{inst}/solve-match"].outcome
            if "error" not in match:
                problems += checks.hybrid_problems(out, match)
        if cmd.algo == "exact":
            lp_value = _ref(refs.ecc_lp, inst, "LP value", problems)
            match_mistakes = _ref(refs.match_mistakes, inst, "match result", problems)
            if lp_value is not None and match_mistakes is not None:
                problems += checks.exact_problems(out, lp_value, match_mistakes)
        if out.get("lp_bound") is not None:
            lp_value = _ref(refs.ecc_lp, inst, "LP value", problems)
            if lp_value is not None:
                problems += checks.lp_value_problems("lp_bound", out["lp_bound"], lp_value)
        if "mistakes" in facts and out["mistakes"] != facts["mistakes"]:
            problems.append(f"mistakes {out['mistakes']}, known optimum {facts['mistakes']}")
    elif cmd.kind == "verify-inv":
        problems += checks.invariants_problems(r.stdout, inst)
    elif cmd.kind == "compare-lp":
        ecc = _ref(refs.ecc_lp, inst, "LP value", problems)
        mc = _ref(refs.nodemc_lp, inst, "multiway-cut LP value", problems)
        if ecc is not None and mc is not None:
            problems += checks.compare_lp_problems(r.stdout, facts["ecc_lp"], ecc, mc)
    elif cmd.kind == "verify-certs":
        problems += checks.certs_problems(r.stdout)
    elif cmd.kind == "reduce-vc":
        problems += checks.reduce_vc_problems(r.stdout, int(facts["conflict_edges"]))
    return problems


def check_passes(passes: list[list[Result]], refs: checks.Refs, expected: dict | None) -> None:
    """Set ``problems`` on every result; ``expected`` maps labels to recorded outcomes."""
    for results in passes:
        by_label = {r.cmd.label: r for r in results}
        for r in results:
            r.problems = command_problems(r, by_label, refs)
            if expected is not None:
                want = expected.get(r.cmd.label)
                if want is None:
                    r.problems.append("no recorded result at the default seed")
                else:
                    r.problems += checks.expected_problems(r.outcome, want)
