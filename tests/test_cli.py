import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import minecc
import minecc.certificates
import minecc.cli
import minecc.combinatorial
import minecc.instances
import minecc.lp
import minecc.oracle
import minecc.relaxations
import minecc.rounding
from minecc.cli import CSV_HEADER, build_parser, main
from minecc.combinatorial import (
    hybrid,
    majority_vote,
    match_coloring,
    mv_lower_bound,
    pitt_coloring,
)
from minecc.hypergraph import objective_cost
from minecc.instances import gen_star, parse_canonical, write_canonical
from minecc.lp import solve as lp_solve
from minecc.oracle import bruteforce_ecc
from minecc.relaxations import build_ecc_lp, build_nodemc_lp, extract_ecc_solution
from minecc.rounding import best_interval, gen_color_round, simple_round

from conftest import highs_value

# The module: the package attribute minecc.hypergraph is its function of that name.
hypergraph_module = importlib.import_module("minecc.hypergraph")

# The csv header as README documents it: written out here, not derived from the code.
HEADER = "dataset,algo,seed,mistakes,satisfaction,lp_bound,match_bound,mv_bound,ratio,accuracy,seconds"
ALGOS = ["mv", "pitt", "match", "hybrid", "lp", "lp-simple", "exact"]
# desk-lp's rand1 and rand2 at workload seeds 0-9: instances whose LP optimum is integral.
DESK_RAND = {f"rand{r}-s{s}": ["random", "--nodes", "50", "--edges", "80", "--max-size", "3",
                               "--colors", "6", "--seed", str(10 * s + r)]
             for s in range(10) for r in (1, 2)}


@pytest.fixture
def gap3_file(tmp_path):
    path = tmp_path / "gap3.ecc"
    assert main(["gen", "gap", "--colors", "3", "-o", str(path)]) == 0
    return str(path)


def run_csv(capsys, argv) -> dict:
    assert main(argv + ["--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == HEADER
    return dict(zip(HEADER.split(","), out[1].split(",")))


def run_python(code: str, *argv: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports minecc from this tree."""
    src = os.path.dirname(os.path.dirname(minecc.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout


# Runs one command with its output discarded, then prints its exit code, the minecc
# submodules loaded and whether numpy is loaded.
LOADS = (
    "import contextlib, io, json, sys\n"
    "from minecc.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m.split('.', 1)[1] for m in sys.modules\n"
    "                               if m.startswith('minecc.')), 'numpy' in sys.modules]))\n"
)
STARTUP_COMMANDS = {
    "gen": ["gen", "gap", "--colors", "3", "-o", "{tmp}/gen.ecc"],
    **{f"solve-{algo}": ["solve", "{inst}", "--algo", algo] for algo in ALGOS},
    "solve-match-with-lp-bound": ["solve", "{inst}", "--algo", "match", "--with-lp-bound"],
    "bench-scaling": ["bench-scaling", "--algo", "mv", "--sizes", "300", "--colors", "3"],
    "compare-lp": ["compare-lp", "{inst}"],
    "verify-certs": ["verify", "--certs"],
    "verify-invariants": ["verify", "--invariants", "{inst}"],
    "reduce": ["reduce", "{inst}", "--to", "vc"],
    "export": ["export", "{inst}"],
}


class TestImportCost:
    @pytest.fixture(scope="class")
    def loads(self, tmp_path_factory):
        """Per command of STARTUP_COMMANDS, in a fresh process: (exit code,
        loaded minecc submodules, whether numpy is loaded)."""
        tmp = tmp_path_factory.mktemp("startup")
        inst = tmp / "gap3.ecc"
        assert main(["gen", "gap", "--colors", "3", "-o", str(inst)]) == 0
        out = {}
        for label, argv in STARTUP_COMMANDS.items():
            code, modules, numpy = json.loads(
                run_python(LOADS, *(a.format(tmp=tmp, inst=inst) for a in argv)))
            out[label] = (code, set(modules), numpy)
        return out

    def test_every_command_runs(self, loads):
        assert {label: code for label, (code, _, _) in loads.items()} == dict.fromkeys(loads, 0)

    def test_verify_certs_loads_no_numpy(self, loads):
        assert loads["verify-certs"][1:] == ({"cli", "certificates"}, False)

    def test_gen_loads_only_the_instance_layer(self, loads):
        assert loads["gen"][1] == {"cli", "instances", "hypergraph"}

    def test_only_verify_certs_loads_certificates(self, loads):
        assert {label for label, (_, mods, _) in loads.items() if "certificates" in mods} == {
            "verify-certs"}

    def test_only_lp_rounding_commands_load_rounding(self, loads):
        assert {label for label, (_, mods, _) in loads.items() if "rounding" in mods} == {
            "solve-lp", "solve-lp-simple", "verify-invariants"}

    def test_solve_exact_loads_no_lp_layer(self, loads):
        # The oracle builds no LP and writes no text (the number formatter lives
        # in instances), and the vertex-cover oracle names WeightedGraph only in
        # an annotation.
        assert loads["solve-exact"][1] == {
            "cli", "instances", "hypergraph", "combinatorial", "oracle"}

    def test_import_minecc_loads_no_submodule(self):
        out = run_python("import sys, minecc\n"
                         "print(sorted(m for m in sys.modules if m.startswith('minecc')),\n"
                         "      'numpy' in sys.modules)\n")
        assert out == "['minecc'] False\n"

    def test_every_export_resolves_to_its_owning_module(self):
        for name in minecc.__all__:
            value = getattr(minecc, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert set(minecc.__all__) <= set(dir(minecc))
        with pytest.raises(AttributeError):
            minecc.no_such_name

    def test_cli_and_parse_leave_out_numpy_ma_and_scipy(self):
        # np.unique or a table-kind np.isin imports numpy.ma: every cold command would pay,
        # gen too, which writes what it generates, and reduce and export, which write text.
        code = (
            "import sys, minecc.cli\n"
            "from minecc.instances import parse_canonical, write_canonical, write_int_lines\n"
            "from minecc.reductions import ecc_to_hyper_mc, ecc_to_node_mc, ecc_to_vertex_cover\n"
            "from minecc.reductions import write_graph, write_hmc\n"
            "from minecc.lp import export_lp_text\n"
            "from minecc.relaxations import build_ecc_lp\n"
            "parse_canonical('ecc 2 1 1\\n1 1 0 1\\n')\n"
            "write_canonical(parse_canonical('ecc 2 1 1\\u2028\\uff11 0.5 0 1\\n'))\n"
            "write_int_lines([1, -2])\n"
            "h = parse_canonical('ecc 3 2 2\\n1 1 0 1\\n2 0.5 1 2\\n')\n"
            "write_graph(ecc_to_vertex_cover(h).graph), write_graph(ecc_to_node_mc(h))\n"
            "write_hmc(ecc_to_hyper_mc(h)), export_lp_text(build_ecc_lp(h))\n"
            "print(sorted({'numpy.ma', 'scipy'} & set(sys.modules)))\n"
        )
        assert run_python(code) == "[]\n"


class TestTracedNames:
    def test_every_name_perfbench_traces_resolves(self):
        # Read, not imported: a missing name would otherwise show only when a
        # traced benchmark run fails to install its recorder.
        spans = Path(minecc.cli.__file__).parents[2] / "perfbench" / "spans.py"
        targets = next(node.value for node in ast.parse(spans.read_text()).body
                       if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS")
        names = [ast.literal_eval(key) for key in targets.keys]
        assert "relaxations.extract_ecc_solution" in names
        for name in names:
            module, function = name.split(".")
            assert callable(getattr(importlib.import_module(f"minecc.{module}"), function)), name


class TestGen:
    def test_gap_file(self, gap3_file):
        with open(gap3_file) as fh:
            assert fh.readline().strip() == "ecc 3 3 3"

    def test_random_with_truth(self, tmp_path, capsys):
        inst = tmp_path / "r.ecc"
        truth = tmp_path / "r.truth"
        code = main([
            "gen", "random", "--nodes", "12", "--edges", "20", "--colors", "3",
            "--noise", "0", "--seed", "5", "-o", str(inst), "--truth-output", str(truth),
        ])
        assert code == 0
        labels = [int(t) for t in truth.read_text().split()]
        assert len(labels) == 12


class TestSolve:
    def test_match_on_gap3(self, gap3_file, capsys):
        row = run_csv(capsys, ["solve", gap3_file, "--algo", "match"])
        assert row["mistakes"] == "2"
        assert row["match_bound"] == "1"
        assert row["ratio"] == "2"

    def test_match_with_lp_bound(self, gap3_file, capsys):
        row = run_csv(capsys, ["solve", gap3_file, "--algo", "match", "--with-lp-bound"])
        assert float(row["lp_bound"]) == pytest.approx(1.5)
        assert float(row["ratio"]) == pytest.approx(4 / 3, abs=1e-4)

    def test_zero_cost_ratio_one(self, tmp_path, capsys):
        inst = tmp_path / "easy.ecc"
        main(["gen", "random", "--nodes", "10", "--edges", "15", "--colors", "2",
              "--noise", "0", "--seed", "1", "-o", str(inst)])
        row = run_csv(capsys, ["solve", str(inst), "--algo", "lp"])
        assert row["mistakes"] == "0"
        assert row["ratio"] == "1"

    def test_no_positive_bound_leaves_ratio_out(self, tmp_path, capsys):
        # One mistake, but the match bound is 0 and no other bound is computed:
        # no finite ratio is shown, and strict JSON has no Infinity to print.
        inst = tmp_path / "zero.ecc"
        inst.write_text("ecc 2 2 2\n2 1 0 1\n1 0 1\n")
        argv = ["solve", str(inst), "--algo", "match"]
        row = run_csv(capsys, argv)
        assert (row["mistakes"], row["match_bound"], row["ratio"]) == ("1", "0", "")
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "match_bound=0 " in text and "ratio" not in text

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        assert main(argv + ["--format", "json"]) == 0
        (record,) = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert (record["mistakes"], record["match_bound"], record["ratio"]) == (1.0, 0.0, None)

    def test_same_seed_rows_identical_except_time(self, gap3_file, capsys):
        rows = []
        for _ in range(2):
            row = run_csv(capsys, ["solve", gap3_file, "--algo", "pitt", "--seed", "3"])
            del row["seconds"]
            rows.append(row)
        assert rows[0] == rows[1]

    def test_best_of_runs(self, tmp_path, capsys):
        inst = tmp_path / "r.ecc"
        main(["gen", "random", "--nodes", "14", "--edges", "30", "--colors", "3",
              "--noise", "0.5", "--seed", "2", "-o", str(inst)])
        single = run_csv(capsys, ["solve", str(inst), "--algo", "pitt", "--seed", "0"])
        best = run_csv(capsys, ["solve", str(inst), "--algo", "pitt", "--seed", "0",
                                "--runs", "20"])
        assert float(best["mistakes"]) <= float(single["mistakes"])

    def test_json_format(self, gap3_file, capsys):
        assert main(["solve", gap3_file, "--algo", "mv", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["algo"] == "mv"
        assert records[0]["mistakes"] == 2

    def test_accuracy_with_truth(self, tmp_path, capsys):
        inst = tmp_path / "p.ecc"
        truth = tmp_path / "p.truth"
        main(["gen", "random", "--nodes", "10", "--edges", "18", "--colors", "2",
              "--noise", "0", "--seed", "4", "-o", str(inst), "--truth-output", str(truth)])
        row = run_csv(capsys, ["solve", str(inst), "--algo", "lp", "--truth", str(truth)])
        assert float(row["accuracy"]) >= 0.5

    def test_unreadable_file(self, capsys):
        assert main(["solve", "/nonexistent/x.ecc", "--algo", "mv"]) == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ecc"
        bad.write_text("ecc 2 5 1\n1 1 0 1\n")
        assert main(["solve", str(bad), "--algo", "mv"]) == 2

    def test_benchmark_mode(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        labels = tmp_path / "labels.txt"
        node_labels = tmp_path / "nodes.txt"
        edges.write_text("1 2\n2 3\n")
        labels.write_text("1\n2\n")
        node_labels.write_text("1\n1\n2\n")
        row = run_csv(capsys, [
            "solve", str(edges), "--labels", str(labels),
            "--node-labels", str(node_labels), "--algo", "mv",
        ])
        assert row["dataset"] == "edges"
        assert row["accuracy"] != ""


class TestMalformedInputExitCodes:
    def test_truth_error_names_the_line(self, gap3_file, tmp_path, capsys):
        truth = tmp_path / "bad.truth"
        truth.write_text("1\n\n2 x\n3\n")
        assert main(["solve", gap3_file, "--truth", str(truth)]) == 2
        assert capsys.readouterr().err == (
            f"error: {truth}: line 3: non-integer token 'x' in truth file\n")

    @pytest.mark.parametrize("truth_text, argv", [
        ("1\nx\n2\n", ["solve", "{gap3}", "--truth", "{truth}"]),
        ("1\n2\n", ["solve", "{gap3}", "--truth", "{truth}"]),  # gap3 has 3 nodes
        ("", ["bench-scaling", "--sizes", "abc"]),
        ("", ["bench-scaling", "--sizes", "100", "--colors", "0"]),
        ("", ["bench-scaling", "--sizes", "100", "--max-size", "1"]),
        ("", ["gen", "random", "--nodes", "0"]),
        ("", ["gen", "random", "--nodes", str(2**32)]),
        ("", ["gen", "random", "--edges", "-3"]),
        ("", ["gen", "random", "--max-size", "1"]),
        ("", ["gen", "random", "--colors", "0"]),
        ("", ["gen", "random", "--noise", "1.5"]),
        ("", ["gen", "gap", "--colors", "2"]),
        ("", ["solve", "{gap3}", "--algo", "pitt", "--seed", "-1"]),
        ("", ["solve", "{gap3}", "--algo", "lp", "--seed", "-1"]),
        ("", ["solve", "{gap3}", "--algo", "match", "--runs", "3", "--seed", "-2"]),
        ("", ["verify", "--invariants", "{gap3}", "--trials", "5", "--seed", "-3"]),
        ("", ["gen", "random", "--seed", "-1"]),
        ("", ["bench-scaling", "--sizes", "100", "--seed", "-1"]),
        ("", ["solve", "{gap3}", "--algo", "pitt", "--seed", "1.5"]),
        ("", ["bench-scaling", "--sizes", "inf"]),
        ("", ["bench-scaling", "--sizes=-inf"]),
        ("", ["solve", "{gap3}", "--algo", "match", "--runs", "-4"]),
        ("", ["solve", "{gap3}", "--algo", "match", "--runs", "0"]),
        ("", ["verify", "--invariants", "{gap3}", "--trials", "-7"]),
        ("1\n", ["solve", "{truth}", "--labels", "{truth}", "--truth", "{truth}"]),
        ("1\n2\n3\n", ["solve", "{gap3}", "--node-labels", "{truth}"]),
        ("1\n2\n3\n", ["reduce", "{gap3}", "--to", "vc", "--node-labels", "{truth}"]),
        ("", ["gen", "gap", "--colors", "3", "-o", "{missing}"]),
        ("", ["solve", "{gap3}", "-o", "{missing}"]),
        ("", ["gen", "random", "-o", "{truth}", "--truth-output", "{missing}"]),
        ("", ["reduce", "{gap3}", "--to", "hypermc", "-o", "{missing}"]),
        ("", ["export", "{gap3}", "-o", "{missing}"]),
        ("", ["verify", "--certs", "--emit-lp", "{truth}"]),  # an existing file, not a directory
        ("", ["solve", "{gap3}", "--algo", "lp", "--interval", "0.9:0.1"]),
        ("", ["solve", "{gap3}", "--algo", "lp", "--interval", "0.5"]),
        ("", ["verify", "--invariants", "{gap3}", "--trials", "5", "--interval", "a:b"]),
        ("", ["solve", "{gap3}", "--algo", "match", "--interval", "0.2:0.8"]),
        ("", ["verify", "--invariants", "{gap3}", "--interval", "0.2:0.8"]),
        ("", ["verify", "--certs", "--trials", "5", "--interval", "0.2:0.8"]),
        ("", ["verify", "--certs", "--interval", "0.2:0.8"]),
        ("", ["verify", "--certs", "--solution", "{missing}"]),
        ("", ["verify", "--certs", "--labels", "{truth}"]),
        ("", ["verify", "--certs", "--node-labels", "{truth}"]),
        ("", ["verify", "--invariants", "{gap3}", "--emit-lp", "{missing}"]),
        ("ecc 2 0 0\n", ["solve", "{truth}", "--algo", "lp"]),  # nodes but no colors
        ("ecc 2 0 0\n", ["solve", "{truth}", "--algo", "lp-simple"]),
        ("ecc 2 0 0\n", ["solve", "{truth}", "--algo", "exact"]),
        ("ecc 2 0 0\n", ["verify", "--invariants", "{truth}"]),
        ("ecc 2 0 0\n", ["export", "{truth}", "--lp", "ecc"]),
        # Counts numpy cannot index, once a traceback from numpy.
        ("ecc 99999999999999999999 1 1\n1 1 0\n", ["solve", "{truth}"]),
        ("ecc 9223372036854775807 1 1\n1 1 0\n", ["solve", "{truth}"]),
        ("ecc 5 1 99999999999999999999\n1 1 0\n", ["solve", "{truth}"]),
        ("", ["gen", "gap", "--colors", "99999999999999999999"]),
        # Counts that once ended in numpy's bincount overflow or its bounds check.
        ("", ["gen", "random", "--nodes", "10", "--edges", "10", "--colors", str(2**63 - 1)]),
        ("", ["bench-scaling", "--sizes", "100", "--colors", str(2**63 - 1)]),
        ("", ["gen", "random", "--colors", str(2**63)]),
        ("", ["gen", "random", "--max-size", str(2**63)]),
        ("", ["bench-scaling", "--sizes", "100", "--max-size", str(2**63)]),
        # Weights that are each finite but sum to inf: json once printed
        # Infinity and NaN, and compare-lp's solve hit its iteration limit.
        *(("ecc 1 3 3\n1 1e308 0\n2 1e308 0\n3 1e308 0\n", argv) for argv in (
            ["solve", "{truth}", "--algo", "mv", "--format", "json"], ["compare-lp", "{truth}"],
            ["verify", "--invariants", "{truth}"], ["reduce", "{truth}", "--to", "vc"])),
    ], ids=["truth-token", "truth-length", "sizes", "scaling-colors", "scaling-max-size",
            "gen-nodes", "gen-nodes-2**32", "gen-edges", "gen-max-size", "gen-colors",
            "gen-noise", "gen-gap-colors", "solve-pitt-seed", "solve-lp-seed",
            "solve-runs-seed", "verify-trials-seed", "gen-seed", "scaling-seed",
            "solve-seed-not-integer", "sizes-inf", "sizes-minus-inf", "solve-runs-negative",
            "solve-runs-zero", "verify-trials-negative", "truth-with-labels",
            "node-labels-without-labels", "reduce-node-labels-without-labels",
            "gen-output-unwritable", "solve-output-unwritable", "gen-truth-output-unwritable",
            "reduce-output-unwritable", "export-output-unwritable", "emit-lp-onto-a-file",
            "solve-interval-reversed", "solve-interval-no-colon", "verify-interval-not-numbers",
            "solve-interval-without-lp", "verify-interval-without-trials",
            "certs-trials", "certs-interval", "certs-solution", "certs-labels",
            "certs-node-labels", "invariants-emit-lp", "no-colors-lp", "no-colors-lp-simple",
            "no-colors-exact", "no-colors-verify", "no-colors-export-ecc", "nodes-1e20",
            "nodes-2**63-1", "colors-1e20", "gen-gap-colors-1e20",
            "gen-colors-2**63-1", "scaling-colors-2**63-1", "gen-colors-2**63",
            "gen-max-size-2**63", "scaling-max-size-2**63", "weight-sum-solve-json",
            "weight-sum-compare-lp", "weight-sum-verify", "weight-sum-reduce"])
    def test_exit_2_with_error_line(self, truth_text, argv, gap3_file, tmp_path, capsys):
        truth = tmp_path / "gap3.truth"
        truth.write_text(truth_text)
        missing = tmp_path / "no-such-dir" / "out"
        assert main([a.format(gap3=gap3_file, truth=truth, missing=missing) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edges, labels, extra, product", [
        ("9223372036854775807\n", "1\n", ["--algo", "match"], 2**63),
        ("1 2\n", "9223372036854775807\n", [], 3 * (2**63 - 1)),
    ], ids=["nodes", "colors"])
    def test_benchmark_counts_numpy_cannot_index_exit_2(self, edges, labels, extra, product,
                                                        tmp_path, capsys):
        # Each once raised from numpy (a dimension or an int64 overflow) as a
        # traceback, as did the canonical headers of this kind in the cases above.
        (tmp_path / "edges").write_text(edges)
        (tmp_path / "labels").write_text(labels)
        argv = ["solve", str(tmp_path / "edges"), "--labels", str(tmp_path / "labels"), *extra]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: invalid instance: (num_nodes + 1) * "
                                       f"max(num_colors, 1) = {product} is not below 2^63\n")

    def test_weights_with_a_finite_sum_still_solve(self, tmp_path, capsys):
        inst = tmp_path / "near.ecc"
        inst.write_text("ecc 1 2 2\n1 8e307 0\n2 8e307 0\n")
        assert main(["solve", str(inst), "--algo", "mv", "--format", "json"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        del record["seconds"]
        assert record == {"dataset": "near", "algo": "mv", "seed": 0, "mistakes": 8e307,
                          "satisfaction": 0.5, "lp_bound": None, "match_bound": None,
                          "mv_bound": 8e307, "ratio": 1.0, "accuracy": None}
        # The LP commands pivot on the dual tableau, where the weights sit in
        # the rhs column, not in the cost rows, so no tableau cell overflows.
        big = f"{8e307:.6f}"  # compare-lp prints every digit
        commands = [
            (["solve", "{inst}", "--algo", "lp"],
             "dataset=near  algo=lp  seed=0  mistakes=8e+307  satisfaction=0.5  "
             "lp_bound=8e+307  ratio=1  seconds="),
            (["solve", "{inst}", "--algo", "match", "--with-lp-bound"],
             "dataset=near  algo=match  seed=0  mistakes=8e+307  satisfaction=0.5  "
             "lp_bound=8e+307  match_bound=8e+307  ratio=1  seconds="),
            (["verify", "--invariants", "{inst}"],
             "near: feasibility and threshold invariants hold on the LP solution\n"),
            (["compare-lp", "{inst}"],
             f"dataset=near ecc_lp={big} nodemc_lp={big} gap=0.000000\n"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for argv, want in commands:
                assert main([a.format(inst=inst) for a in argv]) == 0
                out = capsys.readouterr().out
                assert out.startswith(want) and (out == want or want.endswith("seconds="))

    @pytest.mark.parametrize("argv, what", [
        (["solve", "{inst}", "--algo", "lp"], "the clustering LP"),
        (["solve", "{inst}", "--algo", "exact", "--with-lp-bound"], "the exact oracle"),
        (["verify", "--invariants", "{inst}", "--trials", "5"], "the clustering LP"),
        (["export", "{inst}"], "the clustering LP"),
    ], ids=["lp", "exact-with-bound", "verify-trials", "export"])
    def test_no_colors_exits_before_an_lp_is_built(self, argv, what, tmp_path, monkeypatch,
                                                   capsys):
        inst = tmp_path / "nocolor.ecc"
        inst.write_text("ecc 2 0 0\n")
        builds = []
        monkeypatch.setattr(minecc.relaxations, "build_ecc_lp", lambda *a, **kw: builds.append(a))
        assert main([a.format(inst=inst) for a in argv]) == 2
        assert capsys.readouterr() == (
            "", f"error: {what} needs at least one color; the instance has none\n")
        assert builds == []

    @pytest.mark.parametrize("argv", [
        *(["solve", "{inst}", "--algo", algo, *bound]
          for algo in ("mv", "pitt", "match", "hybrid") for bound in ([], ["--with-lp-bound"])),
        ["compare-lp", "{inst}"],
        *(["reduce", "{inst}", "--to", to] for to in ("vc", "nodemc", "hypermc")),
        ["export", "{inst}", "--lp", "nodemc"],
    ], ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "{inst}"))
    def test_no_colors_runs_where_no_full_model_is_needed(self, argv, tmp_path, capsys):
        inst = tmp_path / "nocolor.ecc"
        inst.write_text("ecc 2 0 0\n")
        assert main([a.format(inst=inst) for a in argv]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_interval_exits_before_the_lp_is_solved(self, gap3_file, monkeypatch, capsys):
        solves = []
        monkeypatch.setattr(minecc.lp, "solve", lambda lp: solves.append(lp))
        assert main(["solve", gap3_file, "--algo", "lp", "--interval", "0.9:0.1"]) == 2
        assert main(["verify", "--invariants", gap3_file, "--trials", "5", "--interval", "x"]) == 2
        assert solves == []
        assert capsys.readouterr().err.count("error: bad --interval") == 2

    @pytest.mark.parametrize("bound", [[], ["--with-lp-bound"]], ids=["alone", "with-lp-bound"])
    @pytest.mark.parametrize("algo", ["mv", "pitt", "match", "hybrid", "exact"])
    def test_solution_without_an_lp_to_solve(self, algo, bound, gap3_file, monkeypatch, capsys):
        # A supplied primal is only rounded: its value bounds nothing.
        reads = []
        monkeypatch.setattr(minecc.cli, "_read", lambda path: reads.append(path))
        assert main(["solve", gap3_file, "--algo", algo, "--solution", "primal.txt", *bound]) == 2
        assert capsys.readouterr().err == "error: --solution needs --algo lp or lp-simple\n"
        assert reads == []

    @pytest.mark.parametrize("algo", [a for a in ALGOS if a != "lp"])
    def test_interval_without_lp_rounding(self, algo, gap3_file, monkeypatch, capsys):
        loads = []
        monkeypatch.setattr(minecc.instances, "parse_canonical", lambda text: loads.append(text))
        assert main(["solve", gap3_file, "--algo", algo, "--interval", "0.2:0.8"]) == 2
        assert capsys.readouterr().err == "error: --interval needs --algo lp\n"
        assert loads == []

    @pytest.mark.parametrize("trials", [[], ["--trials", "0"]], ids=["default", "zero"])
    def test_interval_without_trials(self, trials, gap3_file, monkeypatch, capsys):
        loads = []
        monkeypatch.setattr(minecc.instances, "parse_canonical", lambda text: loads.append(text))
        argv = ["verify", "--invariants", gap3_file, "--interval", "0.2:0.8", *trials]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --interval needs --trials above 0\n"
        assert loads == []

    def test_emit_lp_onto_a_file_fails_before_the_certificates(self, tmp_path, monkeypatch,
                                                               capsys):
        path = tmp_path / "cases"
        path.write_text("")
        runs = []
        monkeypatch.setattr(minecc.certificates, "verify_all", lambda: runs.append(1))
        assert main(["verify", "--certs", "--emit-lp", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and runs == []
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["--certs", "--trials", "5"], "--trials applies to --invariants only"),
        (["--certs", "--trials", "0", "--interval", "0.2:0.8"],
         "--interval applies to --invariants only"),
        (["--certs", "--solution", "no-such-file.txt"], "--solution applies to --invariants only"),
        (["--certs", "--labels", "x", "--node-labels", "y"],
         "--labels applies to --invariants only"),
        (["--certs", "--node-labels", "y"], "--node-labels applies to --invariants only"),
        (["--invariants", "{gap3}", "--emit-lp", "{out}"], "--emit-lp applies to --certs only"),
    ], ids=["trials", "interval", "solution", "labels", "node-labels", "emit-lp"])
    def test_verify_rejects_the_other_modes_flags_before_any_work(
        self, argv, message, gap3_file, tmp_path, monkeypatch, capsys
    ):
        work = []
        monkeypatch.setattr(minecc.certificates, "verify_all", lambda: work.append("certs"))
        monkeypatch.setattr(minecc.instances, "parse_canonical", lambda text: work.append("parse"))
        out = tmp_path / "lp-files"
        assert main(["verify", *(a.format(gap3=gap3_file, out=out) for a in argv)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert work == [] and not out.exists()

    PAD = b"#" * 9000 + b"\n"  # past the first read-ahead block: the offset is the file's

    @pytest.mark.parametrize("bad, content, argv", [
        ("x.ecc", b"ecc 2 1 1\n" + PAD + b"1 1 0 \xff1\n", ["solve", "{bad}", "--algo", "mv"]),
        ("x.labels", b"1\n" + PAD + b"\xff\n",
         ["solve", "{edges}", "--labels", "{bad}", "--algo", "mv"]),
        ("x.truth", b"1\n" + PAD + b"\xff\n", ["solve", "{gap3}", "--truth", "{bad}"]),
    ], ids=["bad-utf8-instance", "bad-utf8-labels", "bad-utf8-truth"])
    def test_non_utf8_file_exits_2_naming_the_byte(
        self, bad, content, argv, gap3_file, tmp_path, capsys
    ):
        path, edges = tmp_path / bad, tmp_path / "edges.txt"
        path.write_bytes(content)
        edges.write_text("1 2\n")
        assert main([a.format(bad=path, edges=edges, gap3=gap3_file) for a in argv]) == 2
        err = capsys.readouterr().err
        offset = content.index(b"\xff")
        assert err == f"error: {path}: not UTF-8 text, byte 0xff at offset {offset}\n"


class TestMalformedLpSolutionExitCodes:
    @pytest.mark.parametrize("solution_text, detail", [
        ("xe_0 1\nnot_a_variable 0.5\n", "line 2: unknown variable"),
        ("xe_0 half\n", "line 1: value 'half' is not a finite number"),
        ("xe_0 0.5\nxe_1 nan\n", "line 2: value 'nan' is not a finite number"),
    ], ids=["unknown-name", "non-numeric", "nan"])
    @pytest.mark.parametrize("argv", [
        ["solve", "{gap3}", "--algo", "lp", "--solution", "{sol}"],
        ["verify", "--invariants", "{gap3}", "--solution", "{sol}"],
        ["compare-lp", "{gap3}", "--ecc-solution", "{sol}"],
    ], ids=["solve", "verify", "compare-lp"])
    def test_exit_2_naming_the_line(self, argv, solution_text, detail, gap3_file, tmp_path, capsys):
        sol = tmp_path / "primal.txt"
        sol.write_text(solution_text)
        assert main([a.format(gap3=gap3_file, sol=sol) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and detail in err and "Traceback" not in err


class TestInfeasibleLpSolutionExitCodes:
    @pytest.mark.parametrize("solution_text, detail", [
        ("xe_0 0.5\n", "row c0 does not hold: 0 = 2"),
        ("xe_0 1.5\n", "xe_0 = 1.5 is above its upper bound 1"),
        ("xn_0_1 -0.25\n", "xn_0_1 = -0.25 is below its lower bound 0"),
    ], ids=["row", "upper-bound", "lower-bound"])
    @pytest.mark.parametrize("argv", [
        ["solve", "{gap3}", "--algo", "lp", "--solution", "{sol}"],
        ["solve", "{gap3}", "--algo", "lp-simple", "--solution", "{sol}"],
        ["solve", "{gap3}", "--algo", "lp", "--with-lp-bound", "--solution", "{sol}"],
        ["compare-lp", "{gap3}", "--ecc-solution", "{sol}"],
    ], ids=["solve-lp", "solve-lp-simple", "solve-lp-bound", "compare-lp"])
    def test_exit_2_naming_the_row_or_bound(
        self, argv, solution_text, detail, gap3_file, tmp_path, capsys
    ):
        sol = tmp_path / "primal.txt"
        sol.write_text(solution_text)
        assert main([a.format(gap3=gap3_file, sol=sol) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "infeasible LP solution" in captured.err
        assert detail in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_nodemc_solution_checked_too(self, gap3_file, tmp_path, capsys):
        sol = tmp_path / "primal.txt"
        sol.write_text("d_0 0.5\n")
        assert main(["compare-lp", gap3_file, "--nodemc-solution", str(sol)]) == 2
        assert "infeasible LP solution: row c" in capsys.readouterr().err

    def test_verify_still_reports_violations(self, gap3_file, tmp_path, capsys):
        sol = tmp_path / "primal.txt"
        sol.write_text("xe_0 0.5\n")
        assert main(["verify", "--invariants", gap3_file, "--solution", str(sol)]) == 3
        assert "invariant violation" in capsys.readouterr().out

    def test_verify_runs_no_trials_on_a_solution_that_breaks_the_invariants(
        self, gap3_file, tmp_path, capsys
    ):
        sol = tmp_path / "primal.txt"
        sol.write_text("xe_0 0.5\n")
        argv = ["verify", "--invariants", gap3_file, "--solution", str(sol)]
        assert main(argv) == 3
        without = capsys.readouterr()
        assert main(argv + ["--trials", "20"]) == 3
        assert capsys.readouterr() == without


class TestWorkDoneOncePerSolve:
    # Each counted function by its owning module, which the CLI imports it from
    # at call time.
    COUNTED = {
        "build_incidence": hypergraph_module, "match_coloring": minecc.combinatorial,
        "majority_vote": minecc.combinatorial, "pitt_coloring": minecc.combinatorial,
        "mv_lower_bound": minecc.combinatorial, "gen_color_round": minecc.rounding,
        "simple_round": minecc.rounding, "bruteforce_ecc": minecc.oracle,
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        # Counted through the names bound in the owning modules, and in
        # combinatorial, whose walks build the incidence themselves when not
        # handed one.
        counts = Counter()
        for name, owner in self.COUNTED.items():
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in (owner, minecc.combinatorial):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    def test_hybrid_matches_and_votes_once(self, gap3_file, calls, capsys):
        row = run_csv(capsys, ["solve", gap3_file, "--algo", "hybrid"])
        assert row["match_bound"] != "" and row["mv_bound"] != ""
        assert calls == {"build_incidence": 1, "match_coloring": 1, "majority_vote": 1,
                         "mv_lower_bound": 1}

    @pytest.mark.parametrize("algo, expected", [
        ("mv", {"majority_vote": 1, "mv_lower_bound": 1}),
        ("pitt", {"build_incidence": 1, "pitt_coloring": 2}),
        ("match", {"build_incidence": 1, "match_coloring": 2}),
        ("hybrid", {"build_incidence": 1, "match_coloring": 2, "majority_vote": 2,
                    "mv_lower_bound": 2}),
        ("lp", {"gen_color_round": 2}),
        ("lp-simple", {"simple_round": 1}),
        ("exact", {"bruteforce_ecc": 1}),
    ])
    def test_each_algorithm_calls_its_library_functions(
        self, algo, expected, gap3_file, calls, capsys
    ):
        # Two runs: the per-seed calls come twice, the shared incidence once;
        # mv, lp-simple and exact read no seed, so they run once.
        run_csv(capsys, ["solve", gap3_file, "--algo", algo, "--runs", "2"])
        assert calls == expected

    @pytest.mark.parametrize("algo, counted", [
        ("mv", "majority_vote"), ("lp-simple", "simple_round"), ("exact", "bruteforce_ecc"),
    ])
    def test_seedless_algorithms_run_once(self, algo, counted, tmp_path, calls, capsys):
        # Every run of these gives the same record, so the first one is reported.
        gap5 = str(tmp_path / "gap5.ecc")
        assert main(["gen", "gap", "--colors", "5", "-o", gap5]) == 0
        one = run_csv(capsys, ["solve", gap5, "--algo", algo])
        calls.clear()
        three = run_csv(capsys, ["solve", gap5, "--algo", algo, "--runs", "3"])
        assert calls[counted] == 1
        del one["seconds"], three["seconds"]
        assert three == one

    def test_pitt_runs_share_one_incidence(self, gap3_file, calls, capsys):
        run_csv(capsys, ["solve", gap3_file, "--algo", "pitt", "--runs", "3"])
        assert calls["build_incidence"] == 1

    def test_hybrid_scores_each_coloring_once(self, gap3_file, tmp_path, monkeypatch, capsys):
        # recolor_uncovered scores the recolored and the match coloring; the
        # solve reuses the chosen one's cost and adds its accuracy.
        scored = []
        original = minecc.combinatorial.objective_cost
        for module in (hypergraph_module, minecc.combinatorial):
            monkeypatch.setattr(module, "objective_cost",
                                lambda *args: scored.append(args) or original(*args))
        truth = tmp_path / "gap3.truth"
        truth.write_text("1\n3\n3\n")
        argv = ["solve", gap3_file, "--algo", "hybrid", "--truth", str(truth), "--format", "json"]
        assert main(argv) == 0
        assert len(scored) == 2
        got = json.loads(capsys.readouterr().out)[0]
        h = parse_canonical(open(gap3_file).read())
        expected = original(h, hybrid(h)[0], [1, 3, 3])
        assert (got["mistakes"], got["satisfaction"], got["accuracy"]) == (
            expected.total_cost, expected.edge_satisfaction, expected.accuracy)


def library_coloring(h, algo: str, seed: int, order_seed):
    """The library call that ``solve --algo algo`` makes for one seed."""
    if algo == "mv":
        return majority_vote(h)
    if algo == "pitt":
        return pitt_coloring(h, seed, order_seed)[1]
    if algo == "match":
        return match_coloring(h, order_seed)[1]
    if algo == "hybrid":
        return hybrid(h, order_seed)[0]
    if algo == "exact":
        return list(bruteforce_ecc(h).witness)
    lp_sol = extract_ecc_solution(h, lp_solve(build_ecc_lp(h, compact=True)))
    if algo == "lp-simple":
        return simple_round(lp_sol)
    interval = best_interval(h.num_colors, max(h.rank, 2)).interval
    return gen_color_round(h, lp_sol, interval, seed)


class TestEveryAlgorithmAndFormat:
    BOUNDS = {"mv": {"mv_bound"}, "pitt": set(), "match": {"match_bound"},
              "hybrid": {"match_bound", "mv_bound"}, "lp": {"lp_bound"},
              "lp-simple": {"lp_bound"}, "exact": set()}

    @staticmethod
    def records(gap3_file, algo, runs, capsys) -> list[dict]:
        """The record as csv, json and text print it, as field -> str, float or None."""
        def value(text):
            try:
                return float(text)
            except ValueError:
                return text

        argv = ["solve", gap3_file, "--algo", algo, "--runs", str(runs), "--format"]
        got = []
        assert main(argv + ["csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == HEADER
        got.append({k: value(v) if v else None for k, v in zip(HEADER.split(","), row.split(","))})
        assert main(argv + ["json"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        got.append({k: float(v) if isinstance(v, (int, float)) else v for k, v in record.items()})
        assert main(argv + ["text"]) == 0
        pairs = dict(p.split("=", 1) for p in capsys.readouterr().out.split())
        got.append({k: value(pairs[k]) if k in pairs else None for k in HEADER.split(",")})
        for r in got:
            del r["seconds"]
        return got

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("algo", ALGOS)
    def test_formats_agree_and_mistakes_match_the_library(self, algo, runs, gap3_file, capsys):
        csv_rec, json_rec, text_rec = self.records(gap3_file, algo, runs, capsys)
        assert list(json_rec) == list(csv_rec)
        for key in csv_rec:
            if isinstance(json_rec[key], float):
                assert csv_rec[key] == pytest.approx(json_rec[key], rel=1e-5), key
                assert text_rec[key] == csv_rec[key], key
            else:
                assert csv_rec[key] == json_rec[key] == text_rec[key], key
        h = parse_canonical(open(gap3_file).read())
        costs = [objective_cost(h, library_coloring(h, algo, s, s if runs > 1 else None)).total_cost
                 for s in range(runs)]
        assert json_rec["mistakes"] == min(costs)
        assert json_rec["seed"] == costs.index(min(costs))
        assert (json_rec["dataset"], json_rec["algo"]) == ("gap3", algo)
        bounds = {"lp_bound", "match_bound", "mv_bound"}
        assert {b for b in bounds if json_rec[b] is not None} == self.BOUNDS[algo]


class TestExactAndCapacity:
    def test_exact_algo(self, gap3_file, capsys):
        row = run_csv(capsys, ["solve", gap3_file, "--algo", "exact"])
        assert row["mistakes"] == "2"

    def test_oracle_cap_env_exit_code(self, gap3_file, capsys, monkeypatch):
        for cap in ("2", "0"):
            monkeypatch.setenv("ECC_ORACLE_CAP", cap)
            assert main(["solve", gap3_file, "--algo", "exact"]) == 4
            assert capsys.readouterr().err == (
                f"error: search explored more than the cap of {cap} states\n")
        for cap in ("-1", "1.5", "x"):  # malformed, as a bad --seed is
            monkeypatch.setenv("ECC_ORACLE_CAP", cap)
            assert main(["solve", gap3_file, "--algo", "exact"]) == 2
            assert capsys.readouterr().err == (
                f"error: ECC_ORACLE_CAP must be a non-negative integer, got {cap!r}\n")

    def test_cap_counts_explored_states_not_colorings(self, tmp_path, capsys):
        # 4^20 colorings, far above the default cap, in a search of 28 states.
        inst = tmp_path / "r20.ecc"
        assert main(["gen", "random", "--nodes", "20", "--edges", "40", "--max-size", "3",
                     "--colors", "4", "-o", str(inst)]) == 0
        assert run_csv(capsys, ["solve", str(inst), "--algo", "exact"])["mistakes"] == "6"

    def test_search_deeper_than_the_stack_exit_code(self, tmp_path, capsys):
        # The path's search would recurse 2400 levels deep: refused before
        # it starts, whatever the cap, not a RecursionError.
        inst = tmp_path / "path.ecc"
        inst.write_text("ecc 2400 2399 2\n" + "".join(
            f"{2 if i == 1200 else 1} 1 {i} {i + 1}\n" for i in range(2399)))
        assert main(["solve", str(inst), "--algo", "exact"]) == 4
        depth = sys.getrecursionlimit() // 2 - 2
        assert capsys.readouterr().err == (
            f"error: 2400 active nodes exceed the search depth of {depth}\n")

    @staticmethod
    def run_under_memory_limit(*argv: str) -> tuple[int, str]:
        """The resident peak (VmHWM, kB) and the exit code and stderr of one
        command, run only under an address-space limit, in a child."""
        code = ("import contextlib, io, resource, sys\n"
                "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
                "limit = 1_500_000 * 1024 if hard == resource.RLIM_INFINITY else "
                "min(hard, 1_500_000 * 1024)\n"
                "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
                "from minecc.cli import main\n"
                "err = io.StringIO()\n"
                "with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = main(sys.argv[1:])\n"
                "peak = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')]\n"
                "print(peak[0], code, err.getvalue(), end='')\n")
        peak_kb, out = run_python(code, *argv).split(" ", 1)
        return int(peak_kb), out

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_gap_beyond_memory_exits_with_the_capacity_code(self, tmp_path):
        # k = 100000 asks for about 10^10 member ids, and the first array of
        # them cannot be had, so the child fails before it has built anything
        # (its resident peak stays near the interpreter's own).
        peak_kb, out = self.run_under_memory_limit(
            "gen", "gap", "--colors", "100000", "-o", str(tmp_path / "g.ecc"))
        assert out.startswith("4 error: out of memory") and out.count("\n") == 1
        assert peak_kb < 200_000
        assert not (tmp_path / "g.ecc").exists()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    @pytest.mark.parametrize("spec, want", [
        # gap3's LP optimum is fractional: its first edge asks for 10^9 thresholds.
        (["gap", "--colors", "3"], "4 error: out of memory"),
        # desk-lp's rand1 at workload seed 0: an integral optimum, so no edge draws.
        (DESK_RAND["rand1-s0"], "0 "),
    ], ids=["fractional", "integral"])
    def test_verify_trials_beyond_memory(self, spec, want, tmp_path):
        # Never run in this process: a draw that is not patched out allocates.
        inst = str(tmp_path / "inst.ecc")
        assert main(["gen", *spec, "-o", inst]) == 0
        peak_kb, out = self.run_under_memory_limit(
            "verify", "--invariants", inst, "--trials", "1000000000")
        assert out.startswith(want) and out.count("\n") == want.count("error")
        assert peak_kb < 200_000

    def test_lp_capacity_exit_code(self, tmp_path, capsys):
        # The compact model (9897 variables; the full one has 18000) needs a
        # 9898 x 34643 tableau for its dual, 2.55 GiB: refused before it is
        # allocated.
        inst = tmp_path / "big.ecc"
        assert main(["gen", "random", "--nodes", "3000", "--edges", "6000", "--colors", "4",
                     "--noise", "0.2", "--seed", "0", "-o", str(inst)]) == 0
        for argv in (["solve", str(inst), "--algo", "lp"],
                     ["solve", str(inst), "--algo", "lp-simple"],
                     ["solve", str(inst), "--algo", "match", "--with-lp-bound"],
                     ["verify", "--invariants", str(inst)]):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: the simplex tableau would be 9898 x 34643 cells")
            assert err.endswith("; use 'minecc export' and supply --solution\n")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_multiway_cut_tableau_over_the_budget_is_never_allocated(self, tmp_path):
        # Its 8636 columns need an 8637 x 42052 tableau for the dual, 2.71
        # GiB, after the clustering LP's 1349 x 4299. Under the child's
        # address-space limit, numpy once failed to allocate such a tableau.
        inst = str(tmp_path / "r500.ecc")
        assert main(["gen", "random", "--nodes", "500", "--edges", "800", "--max-size", "3",
                     "--colors", "6", "--seed", "1", "-o", inst]) == 0
        peak_kb, out = self.run_under_memory_limit("compare-lp", inst)
        assert out == (f"4 error: the simplex tableau would be 8637 x 42052 cells, above the "
                       f"budget of {minecc.lp.TABLEAU_CELLS} cells; use 'minecc export' "
                       f"and supply --nodemc-solution\n")
        assert peak_kb < 200_000

    def test_solve_that_ends_short_of_optimal_exit_code(self, tmp_path, monkeypatch, capsys):
        inst = str(tmp_path / "gap4.ecc")
        assert main(["gen", "gap", "--colors", "4", "-o", inst]) == 0
        solve = minecc.lp.solve
        monkeypatch.setattr(minecc.lp, "solve", lambda lp: solve(lp, iteration_limit=1))
        assert main(["solve", inst, "--algo", "lp"]) == 4
        assert capsys.readouterr() == ("", "error: LP solve ended with status 'iteration_limit'; "
                                           "use 'minecc export' and supply --solution\n")

    def test_in_house_solves_check_the_compact_model(self, tmp_path, monkeypatch, capsys):
        # gap8: the full model's tableau is 233 x 578 and the compact one's 65 x 242
        inst = str(tmp_path / "gap8.ecc")
        assert main(["gen", "gap", "--colors", "8", "-o", inst]) == 0
        commands = [["solve", inst, "--algo", "match", "--with-lp-bound"],
                    ["solve", inst, "--algo", "lp"], ["solve", inst, "--algo", "lp-simple"],
                    ["verify", "--invariants", inst, "--trials", "500"]]
        monkeypatch.setattr(minecc.lp, "TABLEAU_CELLS", 65 * 242)
        for argv in commands:
            assert main(argv) == 0
        assert "lp_bound=4 " in capsys.readouterr().out
        monkeypatch.setattr(minecc.lp, "TABLEAU_CELLS", 65 * 242 - 1)
        for argv in commands:
            assert main(argv) == 4
            assert "tableau would be 65 x 242 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("owner, name, argv", [
        (minecc.rounding, "estimate_mistake_prob",
         ["verify", "--invariants", "{inst}", "--trials", "1000000000"]),
        (minecc.instances, "gen_random",
         ["gen", "random", "--nodes", "1000", "--edges", "400000000", "-o", "{tmp}/r.ecc"]),
        (minecc.instances, "gen_random", ["bench-scaling", "--algo", "mv", "--sizes", "1e10"]),
    ], ids=["verify-trials", "gen-edges", "bench-scaling-sizes"])
    @pytest.mark.parametrize("message", ["Unable to allocate 7.45 GiB for an array", ""])
    def test_out_of_memory_exits_with_the_capacity_code(
            self, owner, name, argv, message, gap3_file, tmp_path, monkeypatch, capsys):
        # Sizes that pass every check but do not fit; nothing is allocated here.
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(owner, name, out_of_memory)
        assert main([a.format(inst=gap3_file, tmp=tmp_path) for a in argv]) == 4
        assert capsys.readouterr().err == (
            f"error: out of memory: {message}\n" if message else "error: out of memory\n")

    def test_invariants_with_trials(self, gap3_file, capsys):
        code = main(["verify", "--invariants", gap3_file, "--trials", "2000"])
        assert code == 0
        assert "rounding frequencies" in capsys.readouterr().out


class TestClusteringLpModel:
    """Every in-house solve of the clustering LP runs on the compact model; the
    full one is built only where a primal carries its ``xn_v_i`` names."""

    def test_two_colors_round_to_the_optimum(self, tmp_path, monkeypatch, capsys):
        # Criterion 9 through the CLI: at k = 2 the filled compact optimum is
        # 0/1 and its rounding costs OPT.
        filled = []
        extract = minecc.relaxations.extract_ecc_solution
        monkeypatch.setattr(minecc.relaxations, "extract_ecc_solution",
                            lambda *a, **kw: filled.append(extract(*a, **kw)) or filled[-1])
        inst = tmp_path / "k2.ecc"
        for seed in range(20):
            assert main(["gen", "random", "--nodes", str(6 + seed % 5), "--edges",
                         str(8 + seed % 7), "--max-size", "3", "--colors", "2", "--noise", "0.4",
                         "--seed", str(seed), "-o", str(inst)]) == 0
            row = run_csv(capsys, ["solve", str(inst), "--algo", "lp", "--seed", str(seed)])
            opt = bruteforce_ecc(parse_canonical(inst.read_text())).value
            assert float(row["mistakes"]) == pytest.approx(opt, abs=1e-9)
            assert float(row["lp_bound"]) == pytest.approx(opt, abs=1e-9)
            sol = filled[-1]
            assert set(sol.x_node.ravel().tolist()) | set(sol.x_edge.tolist()) <= {0.0, 1.0}

    @pytest.mark.parametrize("argv, compact", [
        (["solve", "{inst}", "--algo", "lp"], True),
        (["solve", "{inst}", "--algo", "lp-simple"], True),
        (["solve", "{inst}", "--algo", "match", "--with-lp-bound"], True),
        (["verify", "--invariants", "{inst}", "--trials", "100"], True),
        (["compare-lp", "{inst}"], True),
        (["solve", "{inst}", "--algo", "lp", "--solution", "{sol}"], False),
        (["solve", "{inst}", "--algo", "lp-simple", "--solution", "{sol}"], False),
        (["verify", "--invariants", "{inst}", "--solution", "{sol}"], False),
        (["compare-lp", "{inst}", "--ecc-solution", "{sol}"], False),
        (["export", "{inst}"], False),
    ], ids=lambda v: "-".join(a.strip("-{}") for a in v) if isinstance(v, list) else str(v))
    def test_which_model_is_built(self, argv, compact, gap3_file, tmp_path, monkeypatch, capsys):
        h = parse_canonical(open(gap3_file).read())
        lp = build_ecc_lp(h)
        sol = tmp_path / "gap3.sol"
        sol.write_text("".join(f"{name} {value!r}\n" for name, value in
                               zip(lp.names, lp_solve(lp).require_optimal().x.tolist())))
        built = []
        build = minecc.relaxations.build_ecc_lp
        monkeypatch.setattr(minecc.relaxations, "build_ecc_lp",
                            lambda h, **kw: built.append(kw.get("compact", False)) or build(h, **kw))
        assert main([a.format(inst=gap3_file, sol=sol) for a in argv]) == 0
        assert built == [compact]

    def test_verify_checks_the_solution_once(self, gap3_file, monkeypatch, capsys):
        calls = []
        violations = minecc.relaxations.EccLpSolution.violations
        monkeypatch.setattr(minecc.relaxations.EccLpSolution, "violations",
                            lambda self, *a, **kw: calls.append(a) or violations(self, *a, **kw))
        assert main(["verify", "--invariants", gap3_file, "--trials", "100"]) == 0
        assert "100-trial rounding frequencies hold" in capsys.readouterr().out
        assert len(calls) == 1


class TestSuppliedPrimalGivesNoBound:
    """A supplied primal is feasible, not shown optimal. On gap3 (OPT 2) the
    primal of the coloring (3, 3, 1) has value 3, so it bounds nothing."""

    @pytest.fixture
    def primal(self, tmp_path):
        zeros = {"xn_0_3", "xn_1_3", "xn_2_1"}
        lines = [f"xn_{v}_{i} {int(f'xn_{v}_{i}' not in zeros)}"
                 for v in range(3) for i in range(1, 4)] + [f"xe_{j} 1" for j in range(3)]
        path = tmp_path / "gap3-331.sol"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("bound", [[], ["--with-lp-bound"]], ids=["alone", "with-lp-bound"])
    @pytest.mark.parametrize("algo", ["lp", "lp-simple"])
    def test_rounding_it_reports_no_lp_bound(self, algo, bound, gap3_file, primal, capsys):
        row = run_csv(capsys, ["solve", gap3_file, "--algo", algo, "--solution", primal, *bound])
        assert (row["mistakes"], row["lp_bound"], row["ratio"]) == ("3", "", "")

    @pytest.mark.parametrize("algo", ["exact", "match"])
    def test_bounding_with_it_exits_2(self, algo, gap3_file, primal, capsys):
        argv = ["solve", gap3_file, "--algo", algo, "--with-lp-bound", "--solution", primal]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --solution needs --algo lp or lp-simple\n"
        assert captured.out == ""


class TestCompareLp:
    def test_star_values(self, tmp_path, capsys):
        inst = tmp_path / "star.ecc"
        inst.write_text(write_canonical(gen_star()))
        assert main(["compare-lp", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "ecc_lp=2.000000" in out
        assert "nodemc_lp=1.500000" in out
        assert "gap=0.500000" in out

    def test_gap3(self, gap3_file, capsys):
        assert main(["compare-lp", gap3_file]) == 0
        assert "ecc_lp=1.500000" in capsys.readouterr().out

    def test_conflict_free(self, tmp_path, capsys):
        inst = tmp_path / "free.ecc"
        inst.write_text("ecc 4 2 2\n1 1 0 1\n2 1 2 3\n")
        assert main(["compare-lp", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "ecc_lp=0.000000" in out and "nodemc_lp=0.000000" in out

    def test_equal_values_print_a_zero_gap(self, tmp_path, capsys):
        # The multiway-cut value comes out a few ulps above the clustering
        # value here; the gap prints as zero, not as -0.000000.
        inst = tmp_path / "r50.ecc"
        assert main(["gen", *DESK_RAND["rand1-s2"], "-o", str(inst)]) == 0
        assert main(["compare-lp", str(inst)]) == 0
        assert capsys.readouterr().out == (
            "dataset=r50 ecc_lp=14.000000 nodemc_lp=14.000000 gap=0.000000\n")

    @pytest.mark.parametrize("name", ["rand1-s0", "rand2-s0"])
    def test_desk_instances_match_highs(self, name, tmp_path, capsys):
        # The multiway-cut models have 896 columns and 3456 or 3384 rows.
        pytest.importorskip("scipy.optimize")
        inst = tmp_path / "r50.ecc"
        assert main(["gen", *DESK_RAND[name], "-o", str(inst)]) == 0
        assert main(["compare-lp", str(inst)]) == 0
        h = parse_canonical(inst.read_text())
        ecc, mc = highs_value(build_ecc_lp(h)), highs_value(build_nodemc_lp(h))
        assert capsys.readouterr().out.startswith(
            f"dataset=r50 ecc_lp={ecc:.6f} nodemc_lp={mc:.6f} gap=")


class TestVerify:
    def test_certs(self, capsys):
        assert main(["verify", "--certs"]) == 0
        out = capsys.readouterr().out
        assert "46/46 certificates verified, max bound 1/2" in out
        assert "A q=1 bound=3/8 OK" in out

    def test_certs_emit_lp(self, tmp_path, capsys):
        target = tmp_path / "cases"
        assert main(["verify", "--certs", "--emit-lp", str(target)]) == 0
        files = os.listdir(target)
        assert len(files) == 46
        assert any(name.endswith(".lp") for name in files)

    def test_invariants_pass(self, gap3_file, capsys):
        assert main(["verify", "--invariants", gap3_file]) == 0
        assert "invariants hold" in capsys.readouterr().out

    def test_invariants_detect_corruption(self, gap3_file, tmp_path, capsys):
        from minecc.instances import parse_canonical
        from minecc.lp import solve as lp_solve
        from minecc.relaxations import build_ecc_lp

        with open(gap3_file) as fh:
            h = parse_canonical(fh.read())
        lp = build_ecc_lp(h)
        res = lp_solve(lp).require_optimal()
        lines = []
        for name, value in zip(lp.names, res.x):
            if name.startswith("xe_"):
                value = value / 2.0  # halve the edge variables
            lines.append(f"{name} {float(value)!r}")
        solfile = tmp_path / "corrupt.sol"
        solfile.write_text("\n".join(lines))
        code = main(["verify", "--invariants", gap3_file, "--solution", str(solfile)])
        assert code == 3
        out = capsys.readouterr().out
        assert "first threshold" in out

    def test_invariants_check_the_simplex_edge_variables(self, gap3_file, monkeypatch, capsys):
        # The simplex's x_e is checked as returned, not replaced by its members' maximum.
        solve = minecc.lp.solve

        def low_edge(lp):
            res = solve(lp)
            x = res.x.copy()
            x[lp.names.index("xe_1")] = 0.0
            return replace(res, x=x)

        monkeypatch.setattr(minecc.lp, "solve", low_edge)
        assert main(["verify", "--invariants", gap3_file]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "  edge 1: x_e = 0.000000000 below max member distance 0.500000000",
            "  edge 1: first threshold bound fails (1 - 0.500000000 > 0.000000000)",
        ]

    @pytest.mark.parametrize("trials", [10, 20, 50, 100])
    def test_trials_allow_for_sampling_error_at_the_bound(self, trials, tmp_path, capsys):
        # gap8's guarantee is tight on some edges: a frequency of 1 over few
        # trials is within three standard errors of the bound 0.875.
        inst = tmp_path / "gap8.ecc"
        assert main(["gen", "gap", "--colors", "8", "-o", str(inst)]) == 0
        assert main(["verify", "--invariants", str(inst), "--trials", str(trials)]) == 0
        assert f"{trials}-trial rounding frequencies hold" in capsys.readouterr().out

    def test_trials_flag_an_interval_without_the_guarantee(self, tmp_path, capsys):
        inst = tmp_path / "gap8.ecc"
        assert main(["gen", "gap", "--colors", "8", "-o", str(inst)]) == 0
        argv = ["verify", "--invariants", str(inst), "--trials", "500", "--interval", "0.1:0.3"]
        assert main(argv) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(": 7 invariant violation(s)")
        assert all("mistake frequency" in line for line in lines[1:]) and len(lines) == 8


# `verify --invariants` on gap3-gap8: the exit code and the SHA-256 of stdout,
# recorded when every edge drew its trials. 0.25:0.6 prints sampled
# frequencies; 0.1:0.4 prints frequencies of 1 from edges that no longer draw.
VERIFY_TRIALS = {"500": ["--trials", "500"], "50 0.9:1": ["--trials", "50", "--interval", "0.9:1"],
                 "500 0.25:0.6": ["--trials", "500", "--interval", "0.25:0.6"],
                 "500 0.1:0.4": ["--trials", "500", "--interval", "0.1:0.4"]}
VERIFY_SHA256 = {
    ("gap3", "500"): (0, "949ad54d3d87557a766bcefbdef83a9e8ccc289cbe2fdd8114f57c52c7de549b"),
    ("gap3", "50 0.9:1"): (0, "f1f13c4a3e0780868e9cbf2dd888f1b874e31716fff5aaa338b55e12a791f4f9"),
    ("gap3", "500 0.25:0.6"): (3, "785c03f143e5abccbc8a1174358e2b1488c92af8ce96cb62918df4b084ec6007"),
    ("gap3", "500 0.1:0.4"): (3, "32d8ca9f90de261f2005a1073e2d0c361506185eb15a188c4c3c44729f9a0b07"),
    ("gap4", "500"): (0, "b2154a5dd827bc972b7b656e23ed45a5eb325ce4c13ab0f4bd64d212dbdca2ae"),
    ("gap4", "50 0.9:1"): (0, "d7493634d7a1c00a13c39fb25254a9792d1f8477b5d2ed8326a32023c8a18434"),
    ("gap4", "500 0.25:0.6"): (3, "6f8cf8e1f177c65e4a56d134dc58108780e24ab46d24b538c13ed1b242b76f95"),
    ("gap4", "500 0.1:0.4"): (3, "e7900dfac1162b73c07a431ff689f3ca887be75d99fc14aa02de71b19640c795"),
    ("gap5", "500"): (0, "77b1d0e19024f41eb6e765b100d68653384125bbd6c0c176f92c7d17dac3753b"),
    ("gap5", "50 0.9:1"): (0, "52f9ab996a4a8b08b9901bd6011b96c442d712dcae38f370a623890c046d4927"),
    ("gap5", "500 0.25:0.6"): (3, "19917acb113b5c5e29934d7f718089b2e15cf95917678136ad02d497f80761ce"),
    ("gap5", "500 0.1:0.4"): (3, "126aa8e3eebe074bd1d881474b8a6225c19e88012bd2bfe4221a080d9879c996"),
    ("gap6", "500"): (0, "f2f6de758ebae17e846e10979e74741581a5c7032b8e02e1e161cbb2149c8d76"),
    ("gap6", "50 0.9:1"): (0, "5dec14975fd8068b6b5daa96bd57112b0ed1085fea9d81c7969789e920900769"),
    ("gap6", "500 0.25:0.6"): (3, "4ad44f5f4d70ba9f8d292dae0e05fdaa5cf169daf1c161f935b81b766e02ab30"),
    ("gap6", "500 0.1:0.4"): (3, "c191cf0995f98c2cf22221e2e7f633edb46bff6f5f104be30cfa692d30e33b74"),
    ("gap7", "500"): (0, "4f1c5620131ca5caef2574791a9a496463a4798fbc16a0613cd18972310d60fc"),
    ("gap7", "50 0.9:1"): (0, "8e9cf7c065a6abe3f125d63da196cf71d50ff8f586fb4c8379d9c3f4a0681a8a"),
    ("gap7", "500 0.25:0.6"): (3, "cf61f84250fa211d7bbd97d8d98f1754cba97d58babd974d3cd75f2885de1472"),
    ("gap7", "500 0.1:0.4"): (3, "24e38f2dbbaf3737eb608e25091b89f5d6863f770bee670c1737c25f9ae83661"),
    ("gap8", "500"): (0, "29e70b214b27081b572685b3a1c0aeb8100bcc4863d4e1e7447f9f193a5db083"),
    ("gap8", "50 0.9:1"): (0, "35164f3a228537d706565dee681975832cc0933e1450ac6f06ca8211d8a4f760"),
    ("gap8", "500 0.25:0.6"): (3, "dc2757e99f37c3241468a497a7b2c53df3a473d5f18146402c733459caf71a82"),
    ("gap8", "500 0.1:0.4"): (3, "2c4f83bf35cac1fe9ad67d446e5057bfb50abf7e2e9e259ac7b4c1c153016206"),
}


class TestVerifyOutputsUnchanged:
    """Skipping the draws of fixed-outcome edges changes no ``verify`` output."""

    @pytest.mark.parametrize("name, trials", sorted(VERIFY_SHA256))
    def test_gap_outputs_are_pinned(self, name, trials, tmp_path, capsys):
        inst = str(tmp_path / f"{name}.ecc")
        assert main(["gen", "gap", "--colors", name[3:], "-o", inst]) == 0
        code = main(["verify", "--invariants", inst, *VERIFY_TRIALS[trials]])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == VERIFY_SHA256[name, trials]

    def test_desk_instances_pass(self, tmp_path, capsys):
        for name, spec in DESK_RAND.items():
            inst = str(tmp_path / f"{name}.ecc")
            assert main(["gen", *spec, "-o", inst]) == 0
            assert main(["verify", "--invariants", inst, "--trials", "500"]) == 0
            assert capsys.readouterr().out == (f"{name}: feasibility and threshold invariants and "
                                               "500-trial rounding frequencies hold on the LP solution\n")

    @pytest.mark.parametrize("name, interval, code, generators", [
        ("rand1-s0", [], 0, 0), ("rand2-s9", [], 0, 0), ("gap8", [], 0, 8),
        # Every member of gap8 wants no color below 0.4 and lands on color 1.
        ("gap8", ["--interval", "0.1:0.4"], 3, 0),
    ], ids=["rand1-s0", "rand2-s9", "gap8", "gap8-0.1:0.4"])
    def test_only_edges_whose_outcome_can_vary_draw(self, name, interval, code, generators,
                                                     tmp_path, monkeypatch, capsys):
        inst = str(tmp_path / f"{name}.ecc")
        spec = DESK_RAND.get(name, ["gap", "--colors", "8"])
        assert main(["gen", *spec, "-o", inst]) == 0
        made = []
        default_rng = minecc.rounding.np.random.default_rng

        def counted(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(minecc.rounding.np.random, "default_rng", counted)
        assert main(["verify", "--invariants", inst, "--trials", "500", *interval]) == code
        assert len(made) == generators


# SHA-256 of `reduce --to vc|nodemc|hypermc` stdout, recorded with the per-edge
# reduction loops that the array code replaced.
REDUCE_SHA256 = {
    ("gap3", "vc"): "ee1261f2a00e7991477f3965fe8954f8347fb4e803ca845778bc3ae997d96b51",
    ("gap3", "nodemc"): "ea29d7619afec8fc243b3bb13cefd4f149cfe710996b547b8793888ac64a58f3",
    ("gap3", "hypermc"): "adaa63bf29f6b3f3b3f8ac6e51ab517e61077a95b2ea4eff4e10040646528b06",
    ("gap4", "vc"): "cdf22f943ebe69d70e60588cf85ac7c20cf5e09836468fc434cb150f175c164f",
    ("gap4", "nodemc"): "c178cee2631d20a9110c948c655ccccc616cf1ff95873e95d4139601bda3736c",
    ("gap4", "hypermc"): "a01480f01d3febc1da6690cf656032e2436e03e062797bb2acc9e7be320146f7",
    ("gap5", "vc"): "56f9fb5b096c0e6e83fa365022533cf99caebc10bd3cf091c7e31e6b31132fb2",
    ("gap5", "nodemc"): "275b0cd90fb0980f395c2b00c09d4621579e8fc1aa4e946ed062bc6a25a34552",
    ("gap5", "hypermc"): "e1c2c941652016f6d4510c37f7187f746ed00b73835c48fef779b6af0ab717e9",
    ("gap6", "vc"): "a5e7964cdb34f4a4b566b15e65fc095f5f17e03b5027179a7914083aff0b1d97",
    ("gap6", "nodemc"): "247fb8a030d7788441c18e2daa073b7be3db0f595a53c21339fd8bbb26033265",
    ("gap6", "hypermc"): "5dc32d30a61e3e8c7b9de2d3a9cda7828f60dced2fffc9b956ba1e31db9ed447",
    ("gap7", "vc"): "b55b1bf66c5361625c0c57df930cd7d906bdb0a56936b0a791464b97193a0960",
    ("gap7", "nodemc"): "3096c3304055baa267351a98069af68925961079492f93160c2387ae9c52db78",
    ("gap7", "hypermc"): "45a9fc49faaf702eefbccf2f64f38e4a2500b4e3900042bddc40edcd64ee305e",
    ("gap8", "vc"): "9cb5452523e1eb43a86bbc29fd7c35d168384d424905407d6b02c95a7993c418",
    ("gap8", "nodemc"): "85977f2121c871490141b15352e516a80b1af8e5e212fb978f8d1e54fa0d6170",
    ("gap8", "hypermc"): "386de490869abab0e6091b3675e1919ceef91f0e7e355a1b1b02d5eaa7f417d2",
    ("rand-s1", "vc"): "a19d399019d6cba9ec33c72e84b5aa3d25dd7b4c9c466063ea8666b58413d212",
    ("rand-s1", "nodemc"): "bdfc8823595e7d017668cee8e09c4bb9a4e60bc1b29f2e604b99e2538d522960",
    ("rand-s1", "hypermc"): "25b6bdaee02fe2e3b354e3f2b965fe692bfe9ec92e36a1f9999d028d1042311c",
    ("rand-s2", "vc"): "d7247d90827c2fd17e3a919e8924a7c3cb7532b522b099433fb3bbab61031a20",
    ("rand-s2", "nodemc"): "8008b1971e715272d96a20b6cc07d7a68649f242329ada128b1a5f25ca6eaee7",
    ("rand-s2", "hypermc"): "aad7be78369bcb723b3ffd6ce917926f0a10ea4382dcc3f31d147b419c366603",
}
REDUCE_INSTANCES = {
    **{f"gap{k}": ["gap", "--colors", str(k)] for k in range(3, 9)},
    "rand-s1": ["random", "--nodes", "40", "--edges", "80", "--max-size", "4", "--colors", "3",
                "--seed", "1"],
    "rand-s2": ["random", "--nodes", "60", "--edges", "150", "--max-size", "5", "--colors", "5",
                "--noise", "0.5", "--seed", "2"],
}


@pytest.mark.parametrize("name", sorted(REDUCE_INSTANCES))
def test_reduce_outputs_are_pinned(name, tmp_path, capsys):
    path = str(tmp_path / f"{name}.ecc")
    assert main(["gen", *REDUCE_INSTANCES[name], "-o", path]) == 0
    for to in ("vc", "nodemc", "hypermc"):
        capsys.readouterr()
        assert main(["reduce", path, "--to", to]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == REDUCE_SHA256[name, to], to


# SHA-256 of `export --lp ecc|nodemc` stdout on the instances above, and of
# `reduce` on the weighted instance of test_reduce_hypermc_prints_exact_weights,
# recorded with the per-row LP writer and the per-edge multiway-cut writer that
# the array code replaced.
EXPORT_SHA256 = {
    ("gap3", "ecc"): "03cd22f853bf137a68be6471dfb3458a2ea97bd95f2aadee530fbd1cd6164148",
    ("gap3", "nodemc"): "7b751c991802580838e614f5ab2ab9244ffce184a95ece42c1daf9496bea3a11",
    ("gap4", "ecc"): "49534faa8d3588e17673e5eac0f506bcc7086c440c020b8ce813fe7260166ada",
    ("gap4", "nodemc"): "4a7eae133ff8a4286de28f31197f016081a4081efebe7a542010850a31693c9c",
    ("gap5", "ecc"): "592f8098059e3e8fa947e3c533f47d7124c3ef5ff62993bce521dc9b8612241d",
    ("gap5", "nodemc"): "64b070aac15ba713bccdafea722e82f2cf3c52b5a29ef8e7249dd7b3a3a43de7",
    ("gap6", "ecc"): "3b7196afdddf968c2257a4f8446512133544dc78a2214af82809951fc7eabf51",
    ("gap6", "nodemc"): "1a2a2ed6a4aa5a040a67d917f8f670f28589aa02949ba454717021e0ef138e80",
    ("gap7", "ecc"): "425abcf3acedac074dec4b56cee7c2a9c647ad4dced2d1e7c9dd0165c7c13465",
    ("gap7", "nodemc"): "e09340ddd5b51b377c916a86512d745418fd346ebe5b42f98c71961e15dc339a",
    ("gap8", "ecc"): "f7bf64ed5fe3b4b78ad2f6b46763dc9c6fa409bed5fd49c2becbd32a182831e0",
    ("gap8", "nodemc"): "c100ddde87e95962e0ad4b51dbc15340ca310c5b474df9f68fb13bb63554decd",
    ("rand-s1", "ecc"): "dc746ec7f12a2a0ffcefb7a207264737160723c3403554838e04162562a37b1e",
    ("rand-s1", "nodemc"): "6a5730c4ee1f616cd3427147234d1be3781cea5e7d2404db7055a10b751956c0",
    ("rand-s2", "ecc"): "53c132a4a0e7886e1ad0564a99d5c7c8064f859ab7090ca20d6fc721ee36597d",
    ("rand-s2", "nodemc"): "b9447dc4d9e5c48db358659f1a046e141c8d9dd713d836bde1f9f60f9fbd2e21",
}
WEIGHTED_TEXT = "ecc 3 3 2\n1 1234567.5 0 1\n2 0.1234567891 1 2\n1 1e+20 0 2\n"
WEIGHTED_REDUCE_SHA256 = {
    "vc": "3b255d73acd1a95f0dd67d79f80c7288bb35c763989c1e900b6a988021782d61",
    "nodemc": "19f8d3c5f2f1f6870f29c91878e06be192182f0785b915bcf5be99198dfe596b",
    "hypermc": "514a4c8d03ccc56b58e1dbc12f0060ae45c5fea4337ea1e04b6ccff8f4f82ea0",
}
# SHA-256 over the sorted names and contents of the 46 `verify --certs --emit-lp`
# files, each name and each content followed by a NUL byte.
EMIT_LP_SHA256 = "07bab4cc5ccef2667de37a374caad06294fca793b6fe5ef530bd94bc1a4c29cc"


@pytest.mark.parametrize("name", sorted(REDUCE_INSTANCES))
def test_export_outputs_are_pinned(name, tmp_path, capsys):
    path = str(tmp_path / f"{name}.ecc")
    assert main(["gen", *REDUCE_INSTANCES[name], "-o", path]) == 0
    for lp in ("ecc", "nodemc"):
        capsys.readouterr()
        assert main(["export", path, "--lp", lp]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == EXPORT_SHA256[name, lp], lp


@pytest.mark.parametrize("to", sorted(WEIGHTED_REDUCE_SHA256))
def test_weighted_reduce_outputs_are_pinned(to, tmp_path, capsys):
    inst = tmp_path / "weighted.ecc"
    inst.write_text(WEIGHTED_TEXT)
    assert main(["reduce", str(inst), "--to", to]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == WEIGHTED_REDUCE_SHA256[to]


def test_emitted_certificate_lps_are_pinned(tmp_path, capsys):
    assert main(["verify", "--certs", "--emit-lp", str(tmp_path)]) == 0
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert len(list(tmp_path.iterdir())) == 46
    assert digest.hexdigest() == EMIT_LP_SHA256


class TestReduceExport:
    def test_reduce_vc(self, gap3_file, capsys):
        assert main(["reduce", gap3_file, "--to", "vc"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("vc 3 3")

    def test_reduce_nodemc_round_trips(self, gap3_file, tmp_path):
        target = tmp_path / "g.vc"
        assert main(["reduce", gap3_file, "--to", "nodemc", "-o", str(target)]) == 0
        from minecc.reductions import parse_graph

        g = parse_graph(target.read_text())
        assert len(g.terminals) == 3

    def test_reduce_hypermc(self, gap3_file, capsys):
        assert main(["reduce", gap3_file, "--to", "hypermc"]) == 0
        assert capsys.readouterr().out.startswith("hmc 6 3 3")

    def test_reduce_hypermc_prints_exact_weights(self, tmp_path, capsys):
        text = WEIGHTED_TEXT
        inst = tmp_path / "weighted.ecc"
        inst.write_text(text)
        assert main(["reduce", str(inst), "--to", "hypermc"]) == 0
        lines = capsys.readouterr().out.splitlines()
        weights = [float(line.split()[1]) for line in lines if line.startswith("e ")]
        assert weights == parse_canonical(text).weights.tolist()

    def test_export_ecc(self, gap3_file, capsys):
        assert main(["export", gap3_file, "--lp", "ecc"]) == 0
        out = capsys.readouterr().out
        assert "Minimize" in out and "xe_0" in out

    def test_export_nodemc(self, gap3_file, capsys):
        assert main(["export", gap3_file, "--lp", "nodemc"]) == 0
        assert "d_0" in capsys.readouterr().out


class TestBenchScaling:
    @pytest.mark.parametrize("algo, counted", [
        ("mv", "mv_lower_bound"), ("pitt", "pitt_coloring"), ("hybrid", "mv_lower_bound"),
    ])
    def test_times_the_solve_run_of_each_linear_algorithm(self, algo, counted, monkeypatch, capsys):
        # Two sizes, best of two each: four one-seed runs, bounds included.
        calls = []
        original = getattr(minecc.combinatorial, counted)
        monkeypatch.setattr(minecc.combinatorial, counted, lambda *a: calls.append(a) or original(*a))
        argv = ["bench-scaling", "--algo", algo, "--sizes", "3000,6000", "--colors", "4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("incidence=") == 2 and "fitted log-log slope" in out
        assert len(calls) == 4

    def test_each_timed_run_builds_its_own_incidence(self, monkeypatch, capsys):
        # Two sizes, best of two each: the instance's cached incidence must not
        # let the second run of a size skip the build the first one timed.
        builds = []
        original = hypergraph_module.build_incidence
        monkeypatch.setattr(hypergraph_module, "build_incidence",
                            lambda h: builds.append(h) or original(h))
        argv = ["bench-scaling", "--algo", "pitt", "--sizes", "3000,6000", "--colors", "4"]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(builds) == 4 and len({id(h) for h in builds}) == 4

    def test_small_run_reports_rows_and_slope(self, capsys):
        code = main([
            "bench-scaling", "--algo", "match", "--sizes", "3000,6000", "--colors", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("incidence=") == 2
        assert "fitted log-log slope" in out


class TestParser:
    # Each subcommand's options, written out: a shared parent parser must not
    # add an option to, or drop one from, any subcommand.
    OPTIONS = {
        "gen": "--colors --edges --max-size --nodes --noise -o/--output --seed --truth-output",
        "solve": "--algo --format --interval --labels --node-labels -o/--output --runs --seed "
                 "--solution --truth --with-lp-bound",
        "bench-scaling": "--algo --colors --max-size --seed --sizes",
        "compare-lp": "--ecc-solution --labels --node-labels --nodemc-solution",
        "verify": "--certs --emit-lp --interval --invariants --labels --node-labels --seed "
                  "--solution --trials",
        "reduce": "--labels --node-labels -o/--output --to",
        "export": "--labels --lp --node-labels -o/--output",
    }

    @staticmethod
    def subparsers():
        (action,) = [a for a in build_parser()._actions if a.dest == "command"]
        return action.choices

    def test_each_subcommand_keeps_its_options(self):
        subs = self.subparsers()
        assert list(subs) == list(self.OPTIONS)
        for name, sub in subs.items():
            got = sorted("/".join(a.option_strings) for a in sub._actions
                         if a.option_strings and a.dest != "help")
            assert got == sorted(self.OPTIONS[name].split()), name

    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_carry_nothing_over(self, gap3_file, capsys):
        # On a new parser, then after a call that sets other options on the same one.
        build_parser.cache_clear()
        alone = run_csv(capsys, ["solve", gap3_file])
        run_csv(capsys, ["solve", gap3_file, "--algo", "pitt", "--runs", "3", "--seed", "5"])
        after = run_csv(capsys, ["solve", gap3_file])
        assert {**after, "seconds": None} == {**alone, "seconds": None}
        assert alone["algo"] == "hybrid" and alone["seed"] == "0"

    def test_algo_choices_and_defaults(self):
        subs = self.subparsers()
        algo = {name: next(a for a in subs[name]._actions if a.dest == "algo")
                for name in ("solve", "bench-scaling")}
        assert (algo["solve"].choices, algo["solve"].default) == (ALGOS, "hybrid")
        assert sorted(algo["bench-scaling"].choices) == ["hybrid", "match", "mv", "pitt"]
        assert algo["bench-scaling"].default == "pitt"
        assert CSV_HEADER == HEADER
