"""The array code of the instance core against the per-edge loops it replaced.

The references are the old loops, kept in ``conftest.py``. Every function
must give the same result (floats bit for bit), and the parsers the same
``ParseError`` message and line for every malformed text. The LP builders,
LP-solution checks, conflict pairs and exact oracle, which read the removed
per-edge view, are held to their old code on weighted instances.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minecc
from minecc.combinatorial import (
    DeletionSet,
    _color_survivors,
    majority_vote,
    mv_lower_bound,
    recolor_uncovered,
)
from minecc.hypergraph import (
    EdgeColoredHypergraph,
    accuracy,
    build_incidence,
    hypergraph,
    objective_cost,
    validate,
)
from minecc.instances import (
    _LAST_SPACE,
    ParseError,
    gen_random,
    parse_benchmark,
    parse_canonical,
    write_canonical,
)
from minecc.oracle import CapExceededError, bruteforce_ecc
from minecc.reductions import bad_edge_pairs
from minecc.relaxations import EccLpSolution, build_ecc_lp, build_nodemc_lp, solution_from_vector

from conftest import (
    Edge,
    edges_of,
    random_instance,
    reference_accuracy,
    reference_bad_edge_pairs,
    reference_bruteforce_ecc,
    reference_build_ecc_lp,
    reference_build_incidence,
    reference_build_nodemc_lp,
    reference_color_survivors,
    reference_hypergraph,
    reference_majority_vote,
    reference_mv_lower_bound,
    reference_objective_cost,
    reference_parse_benchmark,
    reference_parse_canonical,
    reference_recolor_uncovered,
    reference_solution_from_vector,
    reference_validate,
    reference_violations,
)

SETTINGS = settings(max_examples=300, deadline=None)


def as_reference(h: EdgeColoredHypergraph):
    """An instance in the reference layout (num_nodes, num_colors, edges)."""
    return (h.num_nodes, h.num_colors, edges_of(h))


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
    return hypergraph(n, h.num_colors, [(e.members, e.color, x) for e, x in zip(edges_of(h), w)])


# Words of 15 to 20 digits, around the longest words decoded without int()/float().
LONG_DIGITS = st.one_of(
    st.integers(15, 20).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)).map(str),
    st.tuples(st.integers(14, 19), st.integers(0, 9)).map(lambda t: "0" * t[0] + str(t[1])),
    st.integers(15, 20).flatmap(lambda d: st.text("0123456789", min_size=d, max_size=d)),
)
# Words of canonical text: valid, odd-but-valid for int()/float(), and junk.
INT_WORDS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["+5", "1_0", "0_1", "01", "+0", "-0", "٣", "99999999999999999999",
                     "-99999999999999999999", "9223372036854775807", "9223372036854775808",
                     "-9223372036854775808", "-9223372036854775809"]),
    st.sampled_from(["\uff11\uff12", "\uff10", "999999999999999", "000000000000001"]),
    LONG_DIGITS,
)
WEIGHT_WORDS = st.one_of(
    st.sampled_from(["1", "0", "2.5", "+5", "1_0", "1e0", ".5", "1e400", "nan", "inf",
                     "-inf", "-1", "-0.0", "Infinity", "1e-3", "1_0.5", "NaN"]),
    st.sampled_from(["\uff11\uff12", "\uff12.5", "999999999999999", "9007199254740993"]),
    LONG_DIGITS,
)
JUNK_WORDS = st.sampled_from(["x", "1.5", "1e3", "#", "#x", "ecc", "0x1", "--1", "1__0", "½"])
ANY_WORD = st.one_of(INT_WORDS, WEIGHT_WORDS, JUNK_WORDS)
# Between them, GAPS and BREAKS hold every code point that str.split splits on.
SPACES = ["\u1680", *map(chr, range(0x2000, 0x200B)), "\u202f", "\u205f", "\u3000"]
GAPS = st.sampled_from([" ", "  ", "\t", "\u00a0", " \x1f ", *SPACES])  # not line breaks
LINE_BREAKS = ["\x0c", "\x1d", "\x1e", "\x85", "\u2029"]
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028", *LINE_BREAKS])
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
            # A "\n" opening a line after a "\r" break makes one "\r\n" break.
            line = draw(st.sampled_from(["", " ", "\n"])) + "".join(
                w + draw(GAPS) for w in line
            ).rstrip(" ")
        text += line + draw(BREAKS)
    return text if draw(st.booleans()) else text.rstrip("\n")


def assert_parses_like_reference(text):
    try:
        expected = reference_parse_canonical(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_canonical(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert as_reference(parse_canonical(text)) == expected


class TestParse:
    @SETTINGS
    @given(canonical_texts())
    def test_same_instance_or_same_error(self, text):
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("word", [
        "999999999999999", "1000000000000000", "9007199254740993", "9223372036854775808",
        "9999999999999999999", "18446744073709551617", "000000000000000002", "0" * 20,
    ])
    def test_long_digit_words(self, word):
        assert_parses_like_reference(f"ecc 3 1 2\n2 {word} 0 1\n")  # as the weight
        assert_parses_like_reference(f"ecc 3 1 2\n2 1 0 {word}\n")  # as a member id

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
            assert edges_of(parse_canonical(text)) == (Edge((0, 1, 20), 2, 10.0),)
        else:
            with pytest.raises(ParseError, match=re.escape(message)):
                parse_canonical(text)

    @SETTINGS
    @given(instances())
    def test_write_then_parse_round_trips(self, h):
        again = parse_canonical(write_canonical(h))
        assert again == h
        assert again.weights.tobytes() == h.weights.tobytes()

    def test_fuzzed_whitespace_is_all_of_pythons(self):
        space = {chr(c) for c in range(0x110000) if chr(c).isspace()}
        assert max(map(ord, space)) == _LAST_SPACE  # the tokenizer's table ends there
        fuzzed = set(" \t\u00a0\x1f\n\r\x0b\x1c\u2028") | set(SPACES) | set(LINE_BREAKS)
        assert fuzzed == space
        breaks = {c for c in space if len(f"a{c}b".splitlines()) == 2}
        assert breaks == set("\n\r\x0b\x1c\u2028") | set(LINE_BREAKS)


class TestParseAtScale:
    @pytest.mark.parametrize("weights", ["unit", "float"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_text_matches_reference(self, seed, weights):
        h = gen_random(2000, 8000, 6, 8, 0.2, seed).hypergraph
        if weights == "float":
            rng = np.random.default_rng(seed)
            w = rng.random(h.num_edges) * 10.0 ** rng.integers(-3, 17, h.num_edges)
            w = np.where(rng.random(h.num_edges) < 0.3, np.floor(w), w)
            h = EdgeColoredHypergraph(h.num_nodes, h.num_colors, h.members, h.eptr, h.colors, w)
        text = write_canonical(h)
        parsed = parse_canonical(text)
        assert as_reference(parsed) == reference_parse_canonical(text)
        assert parsed == h
        assert parsed.weights.tobytes() == h.weights.tobytes()

    def test_non_ascii_text_matches_reference(self):
        # One non-ASCII comment sends the whole text down the utf-32 path, with
        # node ids and weights of three and four digits.
        h = gen_random(2000, 8000, 6, 8, 0.2, 0).hypergraph
        h = EdgeColoredHypergraph(h.num_nodes, h.num_colors, h.members, h.eptr, h.colors,
                                  np.arange(h.num_edges, dtype=np.float64) + 900.0)
        text = "# café \U0001f600　\n" + write_canonical(h)
        parsed = parse_canonical(text)
        assert as_reference(parsed) == reference_parse_canonical(text)
        assert parsed == h


# Words of the benchmark files: small integers, words int() reads in its own
# way (signs, "_", other scripts' digits, 64-bit edges and beyond), and junk.
SMALL = st.integers(1, 9).map(str)
BENCH_WORDS = st.one_of(SMALL, SMALL, SMALL, st.integers(-1, 0).map(str), INT_WORDS, JUNK_WORDS)
BENCH_GAPS = st.sampled_from([" ", ",", ", ", " ,", ",,", "\t", "\u00a0"])
BLANKS = st.sampled_from(["", "  ", "\t"])
COMMAS = st.sampled_from([",", " , ", ",,"])  # not blank, but a line without words


@st.composite
def benchmark_file(draw, word, sizes):
    """One file of ``len(sizes)`` non-blank lines of ``word`` words, with blank lines between.

    A line of no words is a line of commas.
    """
    lines = []
    for size in sizes:
        words = "".join(draw(word) + draw(BENCH_GAPS) for _ in range(size))
        if draw(st.booleans()):
            words = words.rstrip(" ,")
        lines += draw(st.lists(BLANKS, max_size=1))
        lines.append(draw(st.sampled_from(["", " ", ","])) + words if size else draw(COMMAS))
    lines += draw(st.lists(BLANKS, max_size=1))
    text = "".join(line + draw(BREAKS) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


@st.composite
def benchmark_texts(draw):
    """Edges, labels and maybe node-labels texts; each file is clean in two draws of three."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    clean = [draw(st.integers(0, 2)) > 0 for _ in range(3)]
    size = st.integers(1, 4) if clean[0] else st.sampled_from([1, 2, 2, 3, 3, 4, 4, 0])
    texts = [draw(benchmark_file(st.integers(1, n).map(str) if clean[0] else BENCH_WORDS,
                                 [draw(size) for _ in range(m)]))]
    for clean_file, word, count in ((clean[1], st.integers(1, 4).map(str), m),
                                    (clean[2], st.integers(-1, 4).map(str), n)):
        if clean_file:
            texts.append(draw(benchmark_file(word, [1] * count)))
        else:
            count = max(count + draw(st.sampled_from([0, 0, 0, 1, -1])), 0)
            sizes = [draw(st.sampled_from([1, 1, 1, 0, 2])) for _ in range(count)]
            texts.append(draw(benchmark_file(BENCH_WORDS, sizes)))
    return texts if draw(st.booleans()) else texts[:2]


def assert_reads_like_reference(texts):
    try:
        expected = reference_parse_benchmark(*texts)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_benchmark(*texts)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    except OverflowError:  # an id or a label beyond 64 bits: the old reader had no error for it
        with pytest.raises(ParseError, match="integer beyond 64 bits in (edges|labels) file"):
            parse_benchmark(*texts)
    else:
        if not all(-(2**63) <= c < 2**63 for c in expected[1] or ()):  # nor for such a truth
            with pytest.raises(ParseError, match="integer beyond 64 bits in node labels file"):
                parse_benchmark(*texts)
        else:
            assert parse_benchmark(*texts) == expected


class TestBenchmarkParse:
    @SETTINGS
    @given(benchmark_texts())
    def test_same_instance_or_same_error(self, texts):
        assert_reads_like_reference(texts)

    @pytest.mark.parametrize("texts", [
        ["1,2,4\n", "3\n"], [",\n", "1\n"], ["1 2\r\n\r\n2 3\r\n", "1\n2"],
        ["1 2\n", "1\n", "1\n2\n"], ["1 2\n", "1\n", "1\n-9223372036854775808\n"],
        ["1 -9223372036854775808\n", "1\n"], ["1 -99999999999999999999\n", "1\n"],
        ["0 1\n1 x\n", "1\n1\n"], ["1 2\n", "0\n", "1\n"], ["1 2\n", " 1 2\n"],
        ["1 99999999999999999999\n", "1\n", "1\n2\n"],
        ["1 99999999999999999999\n", "1\n"], ["1 2\n", "1\n", "1\n99999999999999999999\n"],
    ])
    def test_edge_cases(self, texts):
        assert_reads_like_reference(texts)


class TestLpAndOracleMatchReference:
    @SETTINGS
    @given(instances())
    def test_lp_builders_give_the_same_rows(self, h):
        assert build_ecc_lp(h) == reference_build_ecc_lp(h)
        assert build_nodemc_lp(h) == reference_build_nodemc_lp(h)

    @SETTINGS
    @given(instances(), st.data())
    def test_lp_solution_checks_and_assembly(self, h, data):
        n, k, m = h.num_nodes, h.num_colors, h.num_edges
        value = st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 2 / 3, 0.25, 1e-8, 1 - 1e-8, -1e-3, 1.01])
        x = np.array(data.draw(st.lists(value, min_size=n * k + m, max_size=n * k + m)))
        for tighten in (True, False):
            got = solution_from_vector(h, x, tighten)
            want = reference_solution_from_vector(h, x, tighten)
            assert got.x_node.tobytes() == want.x_node.tobytes()
            assert got.x_edge.tobytes() == want.x_edge.tobytes()
            assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
            for tol in (1e-6, 0.1):
                assert got.violations(h, tol) == reference_violations(got, h, tol)
        short = EccLpSolution(got.x_node, got.x_edge[:-1], 0.0)
        assert short.violations(h) == reference_violations(short, h)

    @SETTINGS
    @given(instances())
    def test_same_conflict_pairs(self, h):
        assert bad_edge_pairs(h) == reference_bad_edge_pairs(h)

    @settings(max_examples=120, deadline=None)
    @given(instances(), st.sampled_from([10**7, 300]))
    def test_oracle_same_value_witness_and_states(self, h, cap):
        try:
            expected = reference_bruteforce_ecc(h, cap)
        except (CapExceededError, ValueError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                bruteforce_ecc(h, cap)
        else:
            assert bruteforce_ecc(h, cap) == expected


class TestConstruction:
    SPEC = st.tuples(
        st.lists(st.integers(-2, 8), max_size=5),
        st.integers(-1, 5),
        st.sampled_from([1.0, 0.0, 2.5, -1.0, float("inf")]),
        st.sampled_from(["pair", "triple"]),
    )

    @SETTINGS
    @given(st.integers(0, 8), st.integers(0, 5), st.lists(SPEC, max_size=8))
    def test_hypergraph_matches_reference(self, n, k, specs):
        edges = []
        for members, color, weight, form in specs:
            if form == "pair":
                edges.append((members, color))
            else:
                edges.append((tuple(members), color, weight))
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
        if truth is not None:
            assert accuracy(coloring, truth) == reference_accuracy(coloring, truth)
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


class TestIncidenceBuild:
    """The packed-word sort against the 64-bit stable argsort it replaces."""

    @pytest.mark.parametrize("n, k", [(500, 8), (70_000, 3), (70_000, 70_000), (4096, 2**50)])
    def test_narrow_wide_and_too_wide_keys(self, n, k):
        # Keys of up to 13, 19 and 33 bits share a word with the edge index;
        # keys near 2**62 in the last shape do not, so it takes the stable argsort.
        h = random_instance(np.random.default_rng(n + k), n=n, m=300, k=k, max_size=5)
        assert build_incidence(h) == reference_build_incidence(h)

    @pytest.mark.parametrize("n, k", [(0, 3), (5, 2), (0, 0)])
    def test_no_nodes_or_no_edges(self, n, k):
        h = hypergraph(n, k, [])
        inc = build_incidence(h)
        assert inc == reference_build_incidence(h)
        assert inc.indptr.tolist() == [0] * (n + 1) and len(inc.edge_ids) == 0

    def test_repeated_members_of_an_unvalidated_edge(self):
        h = EdgeColoredHypergraph(3, 2, [1, 1, 0, 1, 2], [0, 2, 5], [2, 1], [1.0, 1.0])
        assert build_incidence(h) == reference_build_incidence(h)


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


class TestOneEdgeRepresentation:
    def test_no_edge_view_and_no_edge_class(self):
        h = gen_random(30, 90, 5, 6, 0.2, seed=4).hypergraph
        assert not hasattr(h, "edges") and not hasattr(EdgeColoredHypergraph, "edges")
        assert not hasattr(minecc, "Edge") and not hasattr(minecc.hypergraph, "Edge")


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
