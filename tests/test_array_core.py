"""The array code of the instance core against the per-edge loops it replaced.

The references are the old loops, kept in ``conftest.py``. Every function
must give the same result (floats bit for bit), and the parser the same
``ParseError`` message and line for every malformed text.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minecc.cli
from minecc.cli import main
from minecc.combinatorial import (
    DeletionSet,
    _color_survivors,
    hybrid,
    majority_vote,
    match_coloring,
    mv_lower_bound,
    pitt_coloring,
    recolor_uncovered,
)
from minecc.hypergraph import (
    Edge,
    EdgeColoredHypergraph,
    build_incidence,
    hypergraph,
    objective_cost,
    validate,
)
from minecc.instances import ParseError, gen_random, parse_canonical, write_canonical

from conftest import (
    random_instance,
    reference_build_incidence,
    reference_color_survivors,
    reference_hypergraph,
    reference_majority_vote,
    reference_mv_lower_bound,
    reference_objective_cost,
    reference_parse_canonical,
    reference_recolor_uncovered,
    reference_validate,
)

SETTINGS = settings(max_examples=300, deadline=None)


def as_reference(h: EdgeColoredHypergraph):
    """An instance in the reference layout (num_nodes, num_colors, edges)."""
    return (h.num_nodes, h.num_colors, h.edges)


WEIGHTS = st.sampled_from([1.0, 0.0, 2.0, 0.1, 2.5, 1 / 3, 7e-3, 1e15, 1e20, 5e-324])


@st.composite
def instances(draw):
    """``random_instance`` with unit, whole or float weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 8)), draw(st.integers(0, 12))
    h = random_instance(rng, n=n, m=m, k=draw(st.integers(1, 4)), max_size=draw(st.integers(1, 4)))
    weights = draw(st.sampled_from(["unit", "listed"]))
    if weights == "unit":
        return h
    w = draw(st.lists(WEIGHTS, min_size=m, max_size=m))
    return hypergraph(n, h.num_colors, [(e.members, e.color, x) for e, x in zip(h.edges, w)])


# Words of canonical text: valid, odd-but-valid for int()/float(), and junk.
INT_WORDS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["+5", "1_0", "0_1", "01", "+0", "-0", "٣", "99999999999999999999",
                     "-99999999999999999999", "9223372036854775807", "9223372036854775808",
                     "-9223372036854775808", "-9223372036854775809"]),
)
WEIGHT_WORDS = st.sampled_from(["1", "0", "2.5", "+5", "1_0", "1e0", ".5", "1e400", "nan", "inf",
                                "-inf", "-1", "-0.0", "Infinity", "1e-3", "1_0.5", "NaN"])
JUNK_WORDS = st.sampled_from(["x", "1.5", "1e3", "#", "#x", "ecc", "0x1", "--1", "1__0", "½"])
ANY_WORD = st.one_of(INT_WORDS, WEIGHT_WORDS, JUNK_WORDS)
GAPS = st.sampled_from([" ", "  ", "\t", "\u00a0", " \x1f "])  # whitespace, not line breaks
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"])
NOISE = st.sampled_from(["", "   ", "\t", "# comment", "  #x 1 2", "#", "# ecc 1 1 1"])


@st.composite
def canonical_texts(draw):
    """Canonical text around a header that mostly fits its edge lines."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    edge_lines = []
    for _ in range(draw(st.integers(0, 7))):
        if n and draw(st.integers(0, 9)) < 8:
            # Mostly in range; sometimes an odd color, weight or member.
            color = st.integers(1, max(k, 1)).map(str)
            weight = st.sampled_from(["1", "2.5", "0", "1_0", "+5", "1e0", "0.1"])
            member = st.integers(0, n - 1).map(str)
            words = [draw(color | INT_WORDS if draw(st.integers(0, 9)) == 0 else color),
                     draw(weight | WEIGHT_WORDS if draw(st.integers(0, 4)) == 0 else weight)]
            words += draw(st.lists(member | INT_WORDS if draw(st.integers(0, 4)) == 0 else member,
                                   min_size=1, max_size=5))
        else:
            words = draw(st.lists(ANY_WORD, max_size=6))
        edge_lines.append(words)
    m = max(len(edge_lines) + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1])), 0)
    header = ["ecc", str(n), str(m), str(k)]
    if draw(st.integers(0, 9)) < 2:
        header = draw(st.lists(ANY_WORD, max_size=5) | st.sampled_from([
            ["ecc", "1", "2"], ["ecc", "a", "1", "1"], ["ecc", "-1", "0", "1"],
            ["foo", "1", "1", "1"], ["ecc", "1_0", "+0", "٣"]]))
    lines = draw(st.lists(NOISE, max_size=2)) + [header]
    for words in edge_lines:
        lines += draw(st.lists(NOISE, max_size=1)) + [words]
    lines += draw(st.lists(NOISE, max_size=2))
    text = ""
    for line in lines:
        if isinstance(line, list):
            line = draw(st.sampled_from(["", " "])) + "".join(
                w + draw(GAPS) for w in line
            ).rstrip(" ")
        text += line + draw(BREAKS)
    return text if draw(st.booleans()) else text.rstrip("\n")


class TestParse:
    @SETTINGS
    @given(canonical_texts())
    def test_same_instance_or_same_error(self, text):
        try:
            expected = reference_parse_canonical(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_canonical(text)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
        else:
            assert as_reference(parse_canonical(text)) == expected

    @pytest.mark.parametrize("text, message", [
        ("ecc 30 1 2\n+2 1_0 0 +1 2_0\n", None),
        ("ecc 3 1 2\n2 nan 0 1\n", "line 2: weight nan is not a nonnegative finite number"),
        ("ecc 3 1 2\n2 inf 0 1\n", "line 2: weight inf is not a nonnegative finite number"),
        ("ecc 3 1 2\n2 1 0 99999999999999999999\n",
         "line 2: node id 99999999999999999999 out of range [0, 3)"),
        ("ecc 3 2 2\n1 1\n1 x 1\n", "line 2: edge line needs"),
        ("ecc 3 2 1\n1 1 9223372036854775807\n1 1 x\n",
         "line 2: node id 9223372036854775807 out of range [0, 3)"),
        ("ecc 3 1 2\n1 1 0 1\n1 1 x\n", "line 3: more than the declared 1 edges"),
    ])
    def test_python_number_rules(self, text, message):
        if message is None:
            assert parse_canonical(text).edges == (Edge((0, 1, 20), 2, 10.0),)
        else:
            with pytest.raises(ParseError, match=re.escape(message)):
                parse_canonical(text)

    @SETTINGS
    @given(instances())
    def test_write_then_parse_round_trips(self, h):
        again = parse_canonical(write_canonical(h))
        assert again == h
        assert again.weights.tobytes() == h.weights.tobytes()


class TestConstruction:
    SPEC = st.tuples(
        st.lists(st.integers(-2, 8), max_size=5),
        st.integers(-1, 5),
        st.sampled_from([1.0, 0.0, 2.5, -1.0, float("inf")]),
        st.sampled_from(["pair", "triple", "edge"]),
    )

    @SETTINGS
    @given(st.integers(0, 8), st.integers(0, 5), st.lists(SPEC, max_size=8))
    def test_hypergraph_matches_reference(self, n, k, specs):
        edges = []
        for members, color, weight, form in specs:
            if form == "pair":
                edges.append((members, color))
            elif form == "triple":
                edges.append((tuple(members), color, weight))
            else:
                edges.append(Edge(tuple(members), color, weight))
        try:
            expected = reference_hypergraph(n, k, edges)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                hypergraph(n, k, edges)
        else:
            assert as_reference(hypergraph(n, k, edges)) == expected

    @SETTINGS
    @given(
        st.integers(4, 6) | st.integers(-1, 6),
        st.integers(3, 4) | st.integers(-1, 4),
        st.lists(st.tuples(
            st.lists(st.integers(0, 3), max_size=4) | st.lists(st.integers(-2, 8), max_size=4),
            st.integers(1, 3) | st.integers(-1, 5),
            st.sampled_from([1.0, 0.0, 2.5]) | st.sampled_from([-1.0, -0.0, float("inf"),
                                                                float("nan")]),
        ), max_size=8),
    )
    def test_validate_matches_reference(self, n, k, raw):
        sizes = [len(members) for members, _, _ in raw]
        h = EdgeColoredHypergraph(
            n, k,
            [v for members, _, _ in raw for v in members],
            np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]),
            [color for _, color, _ in raw],
            [weight for _, _, weight in raw],
        )
        assert validate(h) == reference_validate(h)


class TestEvaluation:
    @SETTINGS
    @given(instances(), st.data())
    def test_objective_vote_and_bound(self, h, data):
        n, k = h.num_nodes, h.num_colors
        coloring = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        truth = data.draw(st.none() | st.lists(st.integers(1, k), min_size=n, max_size=n))
        assert objective_cost(h, coloring, truth) == reference_objective_cost(h, coloring, truth)
        mv = majority_vote(h)
        assert mv == reference_majority_vote(h)
        assert mv_lower_bound(h, mv) == reference_mv_lower_bound(h, mv)
        assert mv_lower_bound(h, coloring) == reference_mv_lower_bound(h, coloring)
        assert build_incidence(h) == reference_build_incidence(h)

    @SETTINGS
    @given(instances(), st.data())
    def test_survivors_and_recoloring(self, h, data):
        n, m, k = h.num_nodes, h.num_edges, h.num_colors
        flags = bytearray(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
        assert _color_survivors(h, flags) == reference_color_survivors(h, flags)
        dels = DeletionSet.from_flags(h, flags)
        assert sorted(dels.indices) == [j for j in range(m) if flags[j]]
        base = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        mv = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        assert recolor_uncovered(h, dels, base, mv) == reference_recolor_uncovered(h, dels, base, mv)


class TestObjectiveColorRange:
    @pytest.mark.parametrize("coloring, node", [([1, 0, 1], 1), ([1, 1, 4], 2), ([-2, 9, 1], 0)])
    def test_out_of_range_color_raises_naming_the_node(self, coloring, node):
        h = hypergraph(3, 3, [((0, 1), 1), ((1, 2), 3)])
        with pytest.raises(ValueError, match=f"node {node} color {coloring[node]}"):
            objective_cost(h, coloring)

    def test_color_one_is_valid_without_colors(self):
        h = hypergraph(2, 0, [])
        assert objective_cost(h, [1, 1]).total_cost == 0.0
        with pytest.raises(ValueError, match="node 0 color 2, outside \\[1, 1\\]"):
            objective_cost(h, [2, 1])


class TestSolvePathKeepsToArrays:
    def test_library_calls_never_build_the_edge_view(self):
        planted = gen_random(300, 900, 5, 6, 0.2, seed=4)
        h = parse_canonical(write_canonical(planted.hypergraph))
        assert validate(h) == []
        inc = build_incidence(h)
        mv = majority_vote(h)
        mv_lower_bound(h, mv)
        dels, base, _ = match_coloring(h, None, inc)
        pitt_coloring(h, 0, 3, inc)
        recolor_uncovered(h, dels, base, mv)
        objective_cost(h, hybrid(h), planted.truth)
        assert "edges" not in vars(h)
        assert len(h.edges) == 900 and "edges" in vars(h)  # the view is built on demand

    @pytest.mark.parametrize("algo", ["mv", "match", "hybrid", "pitt"])
    def test_cli_solve_never_builds_the_edge_view(self, algo, tmp_path, monkeypatch, capsys):
        inst, truth = tmp_path / "p.ecc", tmp_path / "p.truth"
        assert main(["gen", "random", "--nodes", "200", "--edges", "600", "--seed", "2",
                     "-o", str(inst), "--truth-output", str(truth)]) == 0
        parsed = []

        def recording_parse(text):
            parsed.append(parse_canonical(text))
            return parsed[-1]

        monkeypatch.setattr(minecc.cli, "parse_canonical", recording_parse)
        assert main(["solve", str(inst), "--algo", algo, "--truth", str(truth),
                     "--runs", "2"]) == 0
        capsys.readouterr()
        assert len(parsed) == 1 and "edges" not in vars(parsed[0])


class TestReadOnlyArrays:
    def test_arrays_are_copied_and_write_protected(self):
        members = np.array([0, 1, 1, 2])
        h = EdgeColoredHypergraph(3, 2, members, [0, 2, 4], [1, 2], [1.0, 1.0])
        members[0] = 2
        assert h.members.tolist() == [0, 1, 1, 2]
        for name in ("members", "eptr", "colors", "weights"):
            with pytest.raises(ValueError):
                getattr(h, name)[0] = 0

    @pytest.mark.parametrize("eptr, colors, weights", [
        ([0, 2], [1, 2], [1.0, 1.0]),
        ([0, 3, 5], [1, 2], [1.0, 1.0]),
        ([0, 2, 4], [1, 2], [1.0]),
        ([1, 2, 4], [1, 2], [1.0, 1.0]),
        ([0, 5, 4], [1, 2], [1.0, 1.0]),
    ])
    def test_arrays_that_do_not_fit_are_rejected(self, eptr, colors, weights):
        with pytest.raises(ValueError, match="do not fit"):
            EdgeColoredHypergraph(3, 2, [0, 1, 1, 2], eptr, colors, weights)

    def test_equal_instances_hash_equal(self):
        a = hypergraph(3, 2, [((2, 0), 1), ((1,), 2, 0.5)])
        b = parse_canonical(write_canonical(a))
        assert a == b and hash(a) == hash(b)
        assert a != hypergraph(3, 2, [((2, 0), 1), ((1,), 2, 0.25)])
