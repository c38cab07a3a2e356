"""The benchmark's pinned outputs, checked in the test suite.

Each workload of ``perfbench/workloads.py`` is set up and run once at its
default seed, in-process and in a temporary directory, and every command's
non-timing output must match the one recorded in ``perfbench/expected.json``.
``perfbench`` is read, never written, and is on ``sys.path`` only while its
modules are imported.
"""

import contextlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import checks
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_match_the_recorded_ones(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    expected = EXPECTED[name]
    assert sorted(expected) == sorted(cmd.label for cmd in workload.commands)
    problems = []
    with contextlib.chdir(tmp_path):
        for argv in workload.gens:
            _, _, _, error = workloads.run_in_process(argv)
            assert error is None, f"set-up {' '.join(argv)}: {error}"
        for cmd in workload.commands:
            code, _, stdout, error = workloads.run_in_process(cmd.argv)
            got = checks.outcome(cmd.kind, code, stdout, error)
            problems += [f"{cmd.label}: {p}"
                         for p in checks.expected_problems(got, expected[cmd.label])]
    assert problems == []
