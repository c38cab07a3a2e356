"""Tests of the benchmark harness's own logic.

Run from the repository root: python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, cmd=1, **counters):
    return spans.Span(name, start, end, parent, cmd, counters)


class TestSelfTime:
    def test_synthetic_tree(self):
        tree = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 3.0, parent=0),
            span("a.x", 1.5, 2.5, parent=1),
            span("b", 2.0, 5.0, parent=0),  # overlaps a: covered once
            span("c", 6.0, 7.0, parent=0),
        ]
        assert spans.self_times(tree) == pytest.approx([5.0, 1.0, 1.0, 3.0, 1.0])

    def test_child_outside_parent_is_clipped(self):
        tree = [span("p", 0.0, 2.0), span("c", 1.0, 4.0, parent=0)]
        assert spans.self_times(tree)[0] == pytest.approx(1.0)

    def test_totals_by_command(self):
        tree = [
            span("f", 0.0, 4.0, cmd=1),
            span("g", 1.0, 2.0, parent=0, cmd=1, rows=3),
            span("g", 5.0, 6.0, cmd=2, rows=4),
        ]
        one = spans.totals(tree, {1})
        assert one == pytest.approx({"f.s": 3.0, "f.calls": 1, "g.s": 1.0, "g.calls": 1, "rows": 3})
        assert spans.totals(tree, {1, 2})["rows"] == 7

    def test_rows_from_another_process_keep_their_tree(self):
        rec = spans.Recorder()
        rec.spans.append(span("local", 0.0, 1.0))
        rec.cmd = 7
        spans.extend_from_rows(rec, [["p", 0.0, 2.0, -1, {}], ["c", 0.5, 1.0, 0, {"n": 1}]])
        assert [(s.parent, s.cmd) for s in rec.spans[1:]] == [(-1, 7), (1, 7)]


class TestRecorder:
    def test_nested_calls_through_module_globals(self):
        import minecc.combinatorial
        from minecc.instances import gen_integrality_gap

        original = minecc.combinatorial.match_coloring
        h = gen_integrality_gap(4)
        rec = spans.Recorder()
        uninstall = rec.install()
        try:
            minecc.combinatorial.hybrid(h)
        finally:
            uninstall()
        assert minecc.combinatorial.match_coloring is original
        got = spans.totals(rec.spans, {0})
        assert got["combinatorial.hybrid.calls"] == 1
        assert got["combinatorial.match_coloring.calls"] == 1
        assert got["hypergraph.build_incidence.calls"] == 1
        assert got["hypergraph.objective_cost.calls"] == 2
        assert got["combinatorial.deleted_edges"] > 0
        hybrid_index = next(i for i, s in enumerate(rec.spans) if s.name == "combinatorial.hybrid")
        assert all(s.parent == hybrid_index for s in rec.spans if s.name != "combinatorial.hybrid")


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 90) == 90
        assert stats.percentile(values, 50) == 50
        assert stats.percentile([3.0], 99) == 3.0

    @pytest.mark.parametrize("n,expected", [
        (5, None), (19, None), (20, 50.0), (39, 50.0), (50, 80.0), (99, 80.0),
        (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
    ])
    def test_tail_needs_ten_samples_beyond(self, n, expected):
        p = stats.tail_percentile(n)
        assert p == expected
        if p is not None:
            assert stats.beyond(n, p) >= 10


GOOD_MATCH = {"exit": 0, "algo": "match", "mistakes": 9.0, "lp_bound": 8.0,
              "match_bound": 8.0, "mv_bound": None}


class TestCheckers:
    def test_good_outputs_pass(self):
        assert checks.solve_problems("match", GOOD_MATCH) == []
        assert checks.hybrid_problems({"mistakes": 8.0}, GOOD_MATCH) == []
        assert checks.exact_problems({"mistakes": 8.0}, 7.5, 9.0) == []
        assert checks.certs_problems("A q=1 bound=1/2 OK\n" + checks.CERTS_SUMMARY + "\n") == []
        line = "dataset=gap5 ecc_lp=2.500000 nodemc_lp=2.500000 gap=0.000000\n"
        assert checks.compare_lp_problems(line, 2.5, 2.5, 2.5) == []
        assert checks.reduce_vc_problems("vc 3 2\nw 0 1\ne 0 1\ne 1 2\n", 2) == []
        ok = "r1: feasibility and threshold invariants hold on the LP solution\n"
        assert checks.invariants_problems(ok, "r1") == []

    def test_bound_above_mistakes(self):
        assert checks.solve_problems("match", dict(GOOD_MATCH, mistakes=7.0))

    def test_match_beyond_twice_its_bound(self):
        assert checks.solve_problems("match", dict(GOOD_MATCH, mistakes=17.0, lp_bound=None))

    def test_hybrid_worse_than_match(self):
        assert checks.hybrid_problems({"mistakes": 10.0}, GOOD_MATCH)

    def test_exact_outside_its_bounds(self):
        assert checks.exact_problems({"mistakes": 7.0}, 7.5, 9.0)
        assert checks.exact_problems({"mistakes": 10.0}, 7.5, 9.0)

    def test_lp_value_off_reference(self):
        assert checks.lp_value_problems("lp_bound", 8.00001, 8.0)
        assert checks.lp_value_problems("lp_bound", 8.0000001, 8.0) == []

    @pytest.mark.parametrize("line", [
        "dataset=gap5 ecc_lp=2.400000 nodemc_lp=2.400000 gap=0.000000",  # wrong k/2
        "dataset=gap5 ecc_lp=2.500000 nodemc_lp=2.600000 gap=-0.100000",  # negative gap
        "dataset=gap5 ecc_lp=2.500000 nodemc_lp=2.000000 gap=0.500000",  # off reference
        "something else",
    ])
    def test_compare_lp_corrupted(self, line):
        assert checks.compare_lp_problems(line + "\n", 2.5, 2.5, 2.5)

    def test_certs_wrong_summary(self):
        assert checks.certs_problems("45/46 certificates verified, max bound 1/2\n")
        assert checks.certs_problems("46/46 certificates verified, max bound 3/4\n")
        assert checks.certs_problems("")

    def test_reduce_wrong_edge_count(self):
        assert checks.reduce_vc_problems("vc 3 1\ne 0 1\n", 2)
        assert checks.reduce_vc_problems("e 0 1\ne 1 2\n", 2)

    def test_invariants_violation(self):
        assert checks.invariants_problems("r1: 2 invariant violation(s)\n  edge 3\n", "r1")

    def test_expected_results(self):
        want = {"exit": 0, "mistakes": 9.0, "ratio": 1.125, "stdout": None}
        assert checks.expected_problems(dict(want), want) == []
        assert checks.expected_problems(dict(want, ratio=1.125 * (1 + 1e-12)), want) == []
        assert checks.expected_problems(dict(want, mistakes=10.0), want)
        assert checks.expected_problems(dict(want, exit=3), want)
        assert checks.expected_problems({"exit": 0}, want)

    def test_solve_outcome_drops_timing_only(self):
        record = {"algo": "mv", "mistakes": 3.0, "seconds": 0.25}
        got = checks.outcome("solve", 0, json.dumps([record]), None)
        assert got == {"exit": 0, "algo": "mv", "mistakes": 3.0}
        assert "error" in checks.outcome("solve", 0, "not json", None)


def result(cmd, code, stdout, error=None):
    return workloads.Result(cmd, 1, 0, 0.1, code, stdout, error)


class TestCommandProblems:
    refs = checks.Refs(ecc_lp={"gap5": 2.5}, nodemc_lp={"gap5": 2.5},
                       match_mistakes={"gap5": 4.0})

    def cli_cmd(self, label):
        return next(c for c in workloads.cli_small(0).commands if c.label == label)

    def test_exact_known_optimum(self):
        cmd = self.cli_cmd("gap5/solve-exact")
        rec = {"algo": "exact", "mistakes": 4.0, "lp_bound": None, "match_bound": None,
               "mv_bound": None, "seconds": 0.1}
        r = result(cmd, 0, json.dumps([rec]))
        assert workloads.command_problems(r, {}, self.refs) == []
        r = result(cmd, 0, json.dumps([dict(rec, mistakes=3.0)]))
        assert workloads.command_problems(r, {}, self.refs)

    def test_missing_reference_fails(self):
        cmd = self.cli_cmd("gap5/compare-lp")
        r = result(cmd, 0, "dataset=gap5 ecc_lp=2.500000 nodemc_lp=2.500000 gap=0.000000\n")
        assert workloads.command_problems(r, {}, self.refs) == []
        assert workloads.command_problems(r, {}, checks.Refs())

    def test_crash_or_exit_code_fails(self):
        cmd = self.cli_cmd("verify-certs")
        assert workloads.command_problems(result(cmd, 3, "", "exit 3: boom"), {}, self.refs)

    def test_hybrid_compared_with_match_of_the_same_pass(self):
        cmds = {c.label: c for c in workloads.planted_large(0).commands}
        base = {"lp_bound": None, "match_bound": 8.0, "mv_bound": None, "seconds": 1.0}
        match = result(cmds["planted/solve-match"], 0,
                       json.dumps([dict(base, algo="match", mistakes=9.0)]))
        hybrid = result(cmds["planted/solve-hybrid"], 0,
                        json.dumps([dict(base, algo="hybrid", mistakes=10.0)]))
        by_label = {"planted/solve-match": match, "planted/solve-hybrid": hybrid}
        assert workloads.command_problems(hybrid, by_label, checks.Refs())


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
