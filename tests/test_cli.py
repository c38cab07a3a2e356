import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import minecc.cli
import minecc.combinatorial
from minecc.cli import CSV_HEADER, main
from minecc.instances import gen_star, write_canonical


@pytest.fixture
def gap3_file(tmp_path):
    path = tmp_path / "gap3.ecc"
    assert main(["gen", "gap", "--colors", "3", "-o", str(path)]) == 0
    return str(path)


def run_csv(capsys, argv) -> dict:
    assert main(argv + ["--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == CSV_HEADER
    return dict(zip(CSV_HEADER.split(","), out[1].split(",")))


class TestImportCost:
    def test_cli_and_parse_leave_out_numpy_ma_and_scipy(self):
        # np.unique or a table-kind np.isin imports numpy.ma: every cold command would pay.
        code = (
            "import sys, minecc.cli\n"
            "from minecc.instances import parse_canonical\n"
            "parse_canonical('ecc 2 1 1\\n1 1 0 1\\n')\n"
            "parse_canonical('ecc 2 1 1\\u2028\\uff11 1 0 1\\n')\n"
            "print(sorted({'numpy.ma', 'scipy'} & set(sys.modules)))\n"
        )
        src = os.path.dirname(os.path.dirname(minecc.cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "[]\n"


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
    ], ids=["truth-token", "truth-length", "sizes", "scaling-colors", "scaling-max-size",
            "gen-nodes", "gen-nodes-2**32", "gen-edges", "gen-max-size", "gen-colors",
            "gen-noise", "gen-gap-colors", "solve-pitt-seed", "solve-lp-seed",
            "solve-runs-seed", "verify-trials-seed", "gen-seed", "scaling-seed",
            "solve-seed-not-integer", "sizes-inf", "sizes-minus-inf", "solve-runs-negative",
            "solve-runs-zero", "verify-trials-negative"])
    def test_exit_2_with_error_line(self, truth_text, argv, gap3_file, tmp_path, capsys):
        truth = tmp_path / "gap3.truth"
        truth.write_text(truth_text)
        assert main([a.format(gap3=gap3_file, truth=truth) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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
        ["solve", "{gap3}", "--algo", "match", "--with-lp-bound", "--solution", "{sol}"],
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


class TestWorkDoneOncePerSolve:
    COUNTED = ("build_incidence", "match_coloring", "majority_vote")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in self.COUNTED:
            original = getattr(minecc.combinatorial, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in (minecc.cli, minecc.combinatorial):
                monkeypatch.setattr(module, name, counted)
        return counts

    def test_hybrid_matches_and_votes_once(self, gap3_file, calls, capsys):
        row = run_csv(capsys, ["solve", gap3_file, "--algo", "hybrid"])
        assert row["match_bound"] != "" and row["mv_bound"] != ""
        assert calls == {"build_incidence": 1, "match_coloring": 1, "majority_vote": 1}

    def test_pitt_runs_share_one_incidence(self, gap3_file, calls, capsys):
        run_csv(capsys, ["solve", gap3_file, "--algo", "pitt", "--runs", "3"])
        assert calls["build_incidence"] == 1


class TestExactAndCapacity:
    def test_exact_algo(self, gap3_file, capsys):
        row = run_csv(capsys, ["solve", gap3_file, "--algo", "exact"])
        assert row["mistakes"] == "2"

    def test_oracle_cap_env_exit_code(self, gap3_file, capsys, monkeypatch):
        monkeypatch.setenv("ECC_ORACLE_CAP", "2")
        assert main(["solve", gap3_file, "--algo", "exact"]) == 4

    def test_lp_capacity_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "big.ecc"
        main(["gen", "random", "--nodes", "2000", "--edges", "100", "--colors", "3",
              "--noise", "0.2", "--seed", "0", "-o", str(inst)])
        assert main(["solve", str(inst), "--algo", "lp"]) == 4

    def test_invariants_with_trials(self, gap3_file, capsys):
        code = main(["verify", "--invariants", gap3_file, "--trials", "2000"])
        assert code == 0
        assert "rounding frequencies" in capsys.readouterr().out


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

    def test_export_ecc(self, gap3_file, capsys):
        assert main(["export", gap3_file, "--lp", "ecc"]) == 0
        out = capsys.readouterr().out
        assert "Minimize" in out and "xe_0" in out

    def test_export_nodemc(self, gap3_file, capsys):
        assert main(["export", gap3_file, "--lp", "nodemc"]) == 0
        assert "d_0" in capsys.readouterr().out


class TestBenchScaling:
    def test_small_run_reports_rows_and_slope(self, capsys):
        code = main([
            "bench-scaling", "--algo", "match", "--sizes", "3000,6000", "--colors", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("incidence=") == 2
        assert "fitted log-log slope" in out
