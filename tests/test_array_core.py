"""The array code of the instance core against the per-edge loops it replaced.

The references are the old loops, kept in ``conftest.py``. Every function
must give the same result (floats bit for bit), and the parsers the same
``ParseError`` message and line for every malformed text. The LP builders,
LP-solution checks, conflict pairs, reduced graphs and their text, and exact
oracle, which read the removed per-edge view or tuples, are held to their old
code on weighted instances; the oracle
only to the old value and witness, since its pruning now explores fewer
states.
"""

import contextlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minecc
import minecc.instances as instances_module
import minecc.relaxations as relaxations_module
import minecc.rounding as rounding_module
from minecc.combinatorial import (
    DeletionSet,
    _color_survivors,
    majority_vote,
    mv_lower_bound,
    recolor_uncovered,
)
from minecc.hypergraph import (
    EdgeColoredHypergraph,
    _from_own_flat,
    accuracy,
    build_incidence,
    from_flat,
    hypergraph,
    objective_cost,
    validate,
)
from minecc.instances import (
    _LAST_SPACE,
    ParseError,
    _ascii_classes,
    _char_classes,
    _num,
    gen_random,
    parse_benchmark,
    parse_canonical,
    parse_int_words,
    write_canonical,
    write_int_lines,
)
from minecc.oracle import CapExceededError, bruteforce_ecc
from minecc.reductions import (
    WeightedGraph,
    bad_edge_pairs,
    ecc_to_hyper_mc,
    ecc_to_node_mc,
    ecc_to_vertex_cover,
    write_graph,
    write_hmc,
)
from minecc.relaxations import EccLpSolution, build_ecc_lp, build_nodemc_lp, extract_ecc_solution
from minecc.rounding import (
    Interval,
    estimate_mistake_prob,
    gen_color_round,
    rounding_invariant_violations,
)

from conftest import (
    ARRAY_CORE_WEIGHTS,
    Edge,
    edges_of,
    graph_layout,
    hyper_layout,
    random_instance,
    reference_accuracy,
    reference_bad_edge_pairs,
    reference_bruteforce_ecc,
    reference_build_compact_ecc_lp,
    reference_build_ecc_lp,
    reference_build_incidence,
    reference_build_nodemc_lp,
    reference_color_survivors,
    reference_compact_extract_ecc_solution,
    reference_ecc_to_hyper_mc,
    reference_ecc_to_node_mc,
    reference_estimate_mistake_prob,
    reference_extract_ecc_solution,
    reference_gen_color_round,
    reference_hypergraph,
    reference_majority_vote,
    reference_mv_lower_bound,
    reference_node_colors,
    reference_num,
    reference_objective_cost,
    reference_parse_benchmark,
    reference_parse_canonical,
    reference_recolor_uncovered,
    reference_rounding_invariant_violations,
    reference_truth_words,
    reference_validate,
    reference_violations,
    reference_write_canonical,
    reference_write_graph,
    reference_write_hmc,
    reference_write_truth,
)

SETTINGS = settings(max_examples=300, deadline=None)


def as_reference(h: EdgeColoredHypergraph):
    """An instance in the reference layout (num_nodes, num_colors, edges)."""
    return (h.num_nodes, h.num_colors, edges_of(h))


WEIGHTS = st.sampled_from(ARRAY_CORE_WEIGHTS)


@st.composite
def instances(draw, weight_values=WEIGHTS):
    """``random_instance`` with unit, whole or float weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 8)), draw(st.integers(0, 12))
    h = random_instance(rng, n=n, m=m, k=draw(st.integers(1, 4)), max_size=draw(st.integers(1, 4)))
    weights = draw(st.sampled_from(["unit", "listed"]))
    if weights == "unit":
        return h
    w = draw(st.lists(weight_values, min_size=m, max_size=m))
    return hypergraph(n, h.num_colors, [(e.members, e.color, x) for e, x in zip(edges_of(h), w)])


# Instances without edges, including those without colors (k = 0).
EDGELESS = st.builds(lambda n, k: hypergraph(n, k, []), st.integers(0, 8), st.integers(0, 4))


@st.composite
def feasible_solutions(draw, h: EdgeColoredHypergraph) -> EccLpSolution:
    """A feasible clustering-LP solution of ``h``: each node's distances are
    ``1 - a/d`` for a composition ``a`` of ``d``, on the grid of the interval
    ends below, so a threshold finds no color, one or several below it; each
    edge variable is the edge's reach or a draw between it and 1."""
    n, k, m = h.num_nodes, h.num_colors, h.num_edges
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 3, 4, 8]))
    x_node = 1.0 - rng.multinomial(d, np.full(k, 1.0 / k), size=n) / d
    slack = rng.random(m) * draw(st.sampled_from([0.0, 1.0]))
    reach = np.array([max(x_node[v, e.color - 1] for v in e.members) for e in edges_of(h)])
    return EccLpSolution(x_node, reach + (1.0 - reach) * slack, 0.0)


@st.composite
def grid_solutions(draw, h: EdgeColoredHypergraph) -> EccLpSolution:
    """A feasible clustering-LP solution of ``h`` with every distance on the
    grid of step ``1/d``, ``d`` in (1, 2, 4, 8), so distances land exactly on
    interval ends such as 0.5, 0.75 and 0.875: each node splits its closeness
    ``1 - x`` between at most two colors, and in one draw in three gives it
    all to one, which makes the solution integral. Each edge variable is the
    edge's reach."""
    n, k = h.num_nodes, h.num_colors
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 4, 8]))
    near = rng.integers(0, k, (n, 2))
    share = rng.integers(0, d + 1, n) if draw(st.integers(0, 2)) else np.full(n, d)
    close = np.zeros((n, k), dtype=np.int64)
    np.add.at(close, (np.arange(n), near[:, 0]), share)
    np.add.at(close, (np.arange(n), near[:, 1]), d - share)
    x_node = 1.0 - close / d
    reach = [max(x_node[v, e.color - 1] for v in e.members) for e in edges_of(h)]
    return EccLpSolution(x_node, np.array(reach, dtype=np.float64), 0.0)


SOLVED = instances().flatmap(lambda h: st.tuples(st.just(h), feasible_solutions(h)))
SOLVED_ON_GRID = instances().flatmap(lambda h: st.tuples(st.just(h), grid_solutions(h)))
INTERVALS = st.one_of(
    st.sampled_from([Interval(0.5, 0.875), Interval(0.5, 0.75), Interval(0.5, 2 / 3),
                     Interval(0.9, 1.0), Interval(0.0, 1.0), Interval(0.25, 0.75)]),
    st.tuples(st.integers(0, 7), st.integers(1, 8)).filter(lambda t: t[0] < t[1]).map(
        lambda t: Interval(t[0] / 8, t[1] / 8)),
)


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


def assert_planted_text_parses(seed, weights):
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


def assert_non_ascii_text_parses():
    # One non-ASCII comment sends the whole text down the utf-32 path, with
    # node ids and weights of three and four digits.
    h = gen_random(2000, 8000, 6, 8, 0.2, 0).hypergraph
    h = EdgeColoredHypergraph(h.num_nodes, h.num_colors, h.members, h.eptr, h.colors,
                              np.arange(h.num_edges, dtype=np.float64) + 900.0)
    text = "# café \U0001f600　\n" + write_canonical(h)
    parsed = parse_canonical(text)
    assert as_reference(parsed) == reference_parse_canonical(text)
    assert parsed == h


class TestParseAtScale:
    @pytest.mark.parametrize("weights", ["unit", "float"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_text_matches_reference(self, seed, weights):
        assert_planted_text_parses(seed, weights)

    def test_non_ascii_text_matches_reference(self):
        assert_non_ascii_text_parses()


@contextlib.contextmanager
def blocks_of(size):
    """``parse_canonical`` reading blocks of ``size`` characters: ``_BLOCK`` is
    2**18, past every other test's text."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instances_module, "_BLOCK", size)
        yield


SMALL_BLOCKS = [1, 7, 64]


class TestParseInBlocks:
    """The parse tests again, with blocks that cut every text many times."""

    # 100 examples per block size: each text is cut every line or two, and
    # the three sizes together cost what one run of TestParse's test costs.
    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @settings(max_examples=100, deadline=None)
    @given(canonical_texts())
    def test_same_instance_or_same_error(self, block, text):
        with blocks_of(block):
            assert_parses_like_reference(text)

    # A text of 8000 edge lines in blocks of one line each (or ten for 64),
    # each block size on one of the texts of TestParseAtScale.
    @pytest.mark.parametrize("block, check", [
        (1, lambda: assert_planted_text_parses(0, "unit")),
        (7, assert_non_ascii_text_parses),
        (64, lambda: assert_planted_text_parses(1, "float")),
    ], ids=["1-planted-unit", "7-non-ascii", "64-planted-float"])
    def test_at_scale(self, block, check):
        with blocks_of(block):
            check()

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @pytest.mark.parametrize("text", [
        "#\n" * 40 + "\n \n" * 40 + "ecc 3 1 2\n2 1 0 1\n",  # the header after many blocks
        "ecc 3 1 2\n" + "# " * 60 + "x\n2 1 0 1",  # a block of no "\n" runs on
        "ecc 3 2 2\r\n2 1 0 1\r\n1 1 2\r\n",
        "ecc 3 1 2\n2 1 0 1\n" + "#\n" * 30 + "1 1 2\n",  # past the count, blocks later
        "ecc 3 3 2\n2 1 0 1\n" + "#\n" * 30 + "1 1\n",  # short, blocks later
        "ecc 3 3 2\n" + "2 1 0 1\n" * 20 + "1 1 3\n",  # out of range, blocks later
        "ecc 3 3 2\n" + "2 1 0 1\n" * 2 + "#\n" * 30,  # too few edges
        "ecc 3 1 2\n1 1\n" + "#\n" * 30 + "1 1 2\n",  # short, then past the count
    ], ids=["header-after-blocks", "no-newline-runs-on", "crlf", "past-count", "short",
            "out-of-range", "too-few", "short-then-past-count"])
    def test_lines_across_blocks(self, block, text):
        with blocks_of(block):
            assert_parses_like_reference(text)

    def test_huge_edge_count_is_not_allocated(self):
        with pytest.raises(ParseError, match="^header declares 1000000000000 edges but file has 0$"):
            parse_canonical("ecc 1 1000000000000 1")

    def test_ascii_classes_are_pythons(self):
        space, breaks = _char_classes(128)
        got = _ascii_classes(np.arange(128, dtype=np.uint8))
        assert np.array_equal(got[0], space[:128]) and np.array_equal(got[1], breaks[:128])

    def test_peak_memory_of_a_large_parse(self):
        text = write_canonical(gen_random(25000, 100000, 6, 8, 0.2, 0).hypergraph)
        tracemalloc.start()
        try:
            parse_canonical(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6, f"parse peak {peak / 1e6:.1f} MB above its start"

    def test_peak_memory_of_a_large_write(self):
        h = gen_random(25000, 100000, 6, 8, 0.2, 0).hypergraph
        tracemalloc.start()
        try:
            write_canonical(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6, f"write peak {peak / 1e6:.1f} MB above its start"


# Numbers the raw constructor takes and the writer must print as the old one
# did: ids and colors of 1 to 19 digits up to 2**63 - 1, zero and negative
# ones, and weights on both sides of the cut at 1e15 between words printed
# as integers and words printed by repr.
INT64_WORDS = st.one_of(
    st.integers(1, 19).flatmap(lambda d: st.integers(10 ** (d - 1) - (d == 1),
                                                     min(10**d - 1, 2**63 - 1))),
    st.sampled_from([0, -1, 2**63 - 1, -(2**63), 2**32 - 1, 2**32, 10**9 - 1, 10**9]),
    st.integers(-(2**63), -1),
)
WRITER_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1e15 - 1, 1e15, 1e16, 1e-300, math.nan, math.inf,
                     -math.inf, -3.0, -(1e15 - 1), 1e15 - 0.5, 5e-324, 2.0**63]),
    st.integers(-(10**15) + 1, 10**15 - 1).map(float),
    st.floats(),
)


@st.composite
def raw_instances(draw):
    """Instances the raw constructor accepts, out-of-range words included,
    with ``m = 0`` and ``n = 0`` among them."""
    sizes = draw(st.lists(st.integers(0, 4), max_size=8))
    eptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=eptr[1:])
    members = draw(st.lists(INT64_WORDS, min_size=int(eptr[-1]), max_size=int(eptr[-1])))
    colors = draw(st.lists(INT64_WORDS, min_size=len(sizes), max_size=len(sizes)))
    weights = draw(st.lists(WRITER_WEIGHTS, min_size=len(sizes), max_size=len(sizes)))
    n, k = draw(st.integers(0, 9) | st.integers(0, 2**63 - 1)), draw(st.integers(0, 9))
    return EdgeColoredHypergraph(n, k, members, eptr, colors, weights)


@contextlib.contextmanager
def write_blocks_of(words):
    """``write_canonical`` encoding blocks of about ``words`` words."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instances_module, "_WRITE_BLOCK", words)
        yield


class TestWriteCanonical:
    """The digit-column writer against the old writer, byte for byte."""

    @SETTINGS
    @given(raw_instances())
    def test_same_text_as_reference(self, h):
        assert write_canonical(h) == reference_write_canonical(h)

    # Blocks of one edge line, or of one to three.
    @pytest.mark.parametrize("block", [1, 3])
    @settings(max_examples=100, deadline=None)
    @given(raw_instances())
    def test_same_text_in_small_blocks(self, block, h):
        with write_blocks_of(block):
            assert write_canonical(h) == reference_write_canonical(h)

    @pytest.mark.parametrize("weights", [1.0, 0.5, -0.0, 1e15 - 1, 1e15, 1e16, 1e-300,
                                         math.nan, math.inf])
    def test_listed_weights(self, weights):
        h = EdgeColoredHypergraph(3, 2, [0, 2, 2**63 - 1], [0, 2, 2, 3], [1, 2, -5],
                                  [weights, 3.0, -weights])
        assert write_canonical(h) == reference_write_canonical(h)

    def test_empty_instances(self):
        for h in [EdgeColoredHypergraph(0, 0, [], [0], [], []),
                  EdgeColoredHypergraph(0, 3, [], [0, 0, 0], [1, 0], [2.0, 0.5])]:
            assert write_canonical(h) == reference_write_canonical(h)

    @pytest.mark.parametrize("block", [61, instances_module._WRITE_BLOCK])
    @pytest.mark.parametrize("weights", ["unit", "float"])
    def test_planted_at_scale(self, weights, block):
        h = gen_random(2000, 8000, 6, 8, 0.2, 1).hypergraph
        if weights == "float":
            rng = np.random.default_rng(1)
            w = rng.random(h.num_edges) * 10.0 ** rng.integers(-3, 17, h.num_edges)
            w = np.where(rng.random(h.num_edges) < 0.3, np.floor(w), w)
            h = EdgeColoredHypergraph(h.num_nodes, h.num_colors, h.members * 10**12, h.eptr,
                                      h.colors, w)
        with write_blocks_of(block):
            assert write_canonical(h) == reference_write_canonical(h)

    @SETTINGS
    @given(st.lists(INT64_WORDS, min_size=1))
    def test_int_lines_as_the_old_truth_writer(self, values):
        text = write_int_lines(values)
        assert text == reference_write_truth(values)
        assert parse_int_words(text) == values

    def test_no_int_lines(self):
        assert write_int_lines([]) == ""

    @SETTINGS
    @given(WRITER_WEIGHTS | st.integers(-(2**53), 2**53))
    def test_one_number_as_the_old_formatter(self, x):
        assert _num(x) == reference_num(x)


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
        return
    except OverflowError:  # an id or a label beyond 64 bits: the old reader had no error for it
        expected = None
    # Nor for the id word 2**63, which is 2**63 - 1 once shifted to 0-based
    if expected is None or expected[0].num_nodes >= 2**63:
        with pytest.raises(ParseError, match="integer beyond 64 bits in (edges|labels) file"):
            parse_benchmark(*texts)
    elif not all(-(2**63) <= c < 2**63 for c in expected[1] or ()):  # nor for such a truth
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
        ["1 \n1 \n9223372036854775808 ", "1 \n1 \n1 "],
    ])
    def test_edge_cases(self, texts):
        assert_reads_like_reference(texts)


@st.composite
def truth_texts(draw):
    """Truth files: labels, Python's odd integers, long words and sometimes junk."""
    word = st.one_of(SMALL, INT_WORDS, LONG_DIGITS) if draw(st.booleans()) else ANY_WORD
    words = draw(st.lists(word, max_size=8))
    return "".join(draw(st.sampled_from(["", " "])) + w + draw(GAPS | BREAKS) for w in words)


def first_non_integer(text):
    """The 1-based line, as ``str.splitlines`` numbers it, and the first word ``int()`` refuses."""
    for number, line in enumerate(text.splitlines(), start=1):
        for word in line.split():
            try:
                int(word)
            except ValueError:
                return number, word


def assert_truth_words_like_reference(text):
    try:
        expected = reference_truth_words(text)
    except ValueError:
        line, word = first_non_integer(text)
        with pytest.raises(ParseError) as err:
            parse_int_words(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: non-integer token {word!r}"
    else:
        got = parse_int_words(text)
        assert got == expected and all(type(v) is int for v in got)


class TestTruthWords:
    @SETTINGS
    @given(truth_texts())
    def test_same_list_or_same_error(self, text):
        assert_truth_words_like_reference(text)

    @pytest.mark.parametrize("text", [
        "", "+5 1_0 \u0663\n", "1\r\n2\u20283", "1 x", "1__0", "\uff11\uff12",
        "1\r\n2\n\n x", "1\r2\x853\u2029\n4 1.5\n",
        pytest.param("1\n" * 5 + "9" * 5000, id="5000-digit-word"),
        "-9223372036854775808 9223372036854775808 -99999999999999999999",
    ])
    def test_edge_cases(self, text):
        assert_truth_words_like_reference(text)


class TestLpAndOracleMatchReference:
    @SETTINGS
    @given(instances() | EDGELESS)
    def test_lp_builders_give_the_same_rows(self, h):
        # At k = 0 the full model keeps one empty sum row, 0 = -1, per node.
        assert build_ecc_lp(h) == reference_build_ecc_lp(h)
        assert build_nodemc_lp(h) == reference_build_nodemc_lp(h)

    @SETTINGS
    @given(instances() | EDGELESS)
    def test_compact_builder_gives_the_same_rows(self, h):
        assert build_ecc_lp(h, compact=True) == reference_build_compact_ecc_lp(h)

    @SETTINGS
    @given(instances() | EDGELESS, st.data())
    def test_compact_fill_gives_the_same_solution(self, h, data):
        size = int(reference_node_colors(h)[1].sum()) + h.num_edges
        value = st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 1e-8, 1 - 1e-8, -1e-3, 1.01])
        x = np.array(data.draw(st.lists(value, min_size=size, max_size=size)), dtype=float)
        # Where the compact model has every column, the vector reads as the full model's.
        got = extract_ecc_solution(h, x)
        want = reference_compact_extract_ecc_solution(h, x)
        assert got.x_node.tobytes() == want.x_node.tobytes()
        assert got.x_edge.tobytes() == want.x_edge.tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        full = h.num_nodes * h.num_colors + h.num_edges
        with pytest.raises(ValueError, match=f"expected {size} or {full}"):
            extract_ecc_solution(h, np.zeros(size + 1 + (size + 1 == full)))

    @pytest.mark.parametrize("h", [
        hypergraph(2, 0, []),
        hypergraph(2, 2, []),
        hypergraph(3, 2, [((1,), 2, 1.5), ((0, 2), 1)]),
        hypergraph(3, 1, [((0, 1), 1), ((1, 2), 1, 2.0)]),
    ], ids=["edgeless-no-colors", "edgeless-two-colors", "one-member-edge", "one-color"])
    def test_nodemc_builder_where_no_instance_is_drawn(self, h):
        assert build_nodemc_lp(h) == reference_build_nodemc_lp(h)

    @SETTINGS
    @given(instances(), st.data())
    def test_lp_solution_checks_and_assembly(self, h, data):
        n, k, m = h.num_nodes, h.num_colors, h.num_edges
        value = st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 2 / 3, 0.25, 1e-8, 1 - 1e-8, -1e-3, 1.01])
        x = np.array(data.draw(st.lists(value, min_size=n * k + m, max_size=n * k + m)))
        got = extract_ecc_solution(h, x)
        want = reference_extract_ecc_solution(h, x)
        assert got.x_node.tobytes() == want.x_node.tobytes()
        assert got.x_edge.tobytes() == want.x_edge.tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        for tol in (1e-6, 0.1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(relaxations_module, "VIOLATION_TOL", tol)
                assert got.violations(h) == reference_violations(got, h, tol)
        short = EccLpSolution(got.x_node, got.x_edge[:-1], 0.0)
        assert short.violations(h) == reference_violations(short, h)

    @SETTINGS
    @given(instances() | EDGELESS)
    def test_same_conflict_pairs(self, h):
        pairs = bad_edge_pairs(h)
        assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
        assert list(map(tuple, pairs.tolist())) == list(reference_bad_edge_pairs(h))

    @SETTINGS
    @given(instances() | EDGELESS)
    def test_same_reduced_graphs_and_text(self, h):
        g = ecc_to_node_mc(h)
        assert graph_layout(g) == reference_ecc_to_node_mc(h)
        assert write_graph(g) == reference_write_graph(reference_ecc_to_node_mc(h))
        cover = ecc_to_vertex_cover(h).graph
        assert write_graph(cover) == reference_write_graph(graph_layout(cover))

    @SETTINGS
    @given(instances(WEIGHTS | st.sampled_from([-0.0, 1e15 - 1, 1234567.5, 0.1234567891]))
           | EDGELESS)
    def test_same_hypergraph_cut_and_text(self, h):
        th = ecc_to_hyper_mc(h)
        assert hyper_layout(th) == reference_ecc_to_hyper_mc(h)
        assert write_hmc(th) == reference_write_hmc(reference_ecc_to_hyper_mc(h))

    def test_same_hypergraph_cut_text_at_scale(self):
        h = gen_random(2000, 8000, 6, 8, 0.2, 1).hypergraph
        rng = np.random.default_rng(1)
        w = rng.random(h.num_edges) * 10.0 ** rng.integers(-3, 17, h.num_edges)
        w = np.where(rng.random(h.num_edges) < 0.3, np.floor(w), w)
        h = EdgeColoredHypergraph(h.num_nodes, h.num_colors, h.members, h.eptr, h.colors, w)
        with write_blocks_of(61):
            assert write_hmc(ecc_to_hyper_mc(h)) == reference_write_hmc(reference_ecc_to_hyper_mc(h))

    @SETTINGS
    @given(st.data())
    def test_same_text_for_any_graph(self, data):
        n = data.draw(st.integers(0, 8))
        weight = st.sampled_from([1.0, 0.0, -2.0, -0.0, 2.5, 1 / 3, 1e15, 1e20, 5e-324,
                                  math.inf, -math.inf, math.nan])
        node = st.integers(0, max(n - 1, 0))
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=12 if n else 0))
        g = WeightedGraph(
            n, data.draw(st.lists(weight, min_size=n, max_size=n)),
            [(u, v) for u, v in pairs if u != v],
            [(t, c) for c, t in enumerate(data.draw(st.permutations(range(n)))[:3], start=1)],
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        )
        assert write_graph(g) == reference_write_graph(graph_layout(g))

    @settings(max_examples=120, deadline=None)
    @given(instances(WEIGHTS | st.sampled_from([0.1, 0.2, 0.3, 0.7])),
           st.sampled_from([10**7, 300, 30]))
    def test_oracle_same_value_and_witness_in_fewer_states(self, h, cap):
        # The reference is the search without the suffix bound, run whatever
        # its raw space (at most 4^8 colorings here): its explored count is
        # the most the pruned search may take, so the oracle answers at that
        # cap. Weights such as 0.1, 0.2 and 0.3, whose float sums tie or miss
        # by one unit, check that the pruning margin never cuts a strict
        # improvement. At ``cap`` the oracle answers exactly when it explores
        # no more than ``cap`` states.
        try:
            expected = reference_bruteforce_ecc(h, cap=4**8)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                bruteforce_ecc(h, cap)
            return
        got = bruteforce_ecc(h, cap=expected.explored)
        assert (got.value, got.witness) == (expected.value, expected.witness)
        if got.explored <= cap:
            assert bruteforce_ecc(h, cap) == got
        else:
            with pytest.raises(CapExceededError, match=f"more than the cap of {cap} states$"):
                bruteforce_ecc(h, cap)


class TestRoundingMatchesReference:
    """One rounding kernel for ``gen_color_round`` and ``estimate_mistake_prob``
    gives what the scalar-threshold rounding and the per-member trial loop gave."""

    @SETTINGS
    @given(SOLVED, INTERVALS, st.integers(0, 2**32 - 1))
    def test_same_coloring(self, hx, interval, seed):
        h, x = hx
        assert gen_color_round(h, x, interval, seed) == reference_gen_color_round(h, x, interval, seed)

    @settings(max_examples=150, deadline=None)
    @given(SOLVED | SOLVED_ON_GRID, INTERVALS, st.integers(0, 2**32 - 1),
           st.sampled_from([1, 2, 500]))
    def test_same_estimates(self, hx, interval, seed, trials):
        h, x = hx
        for j in range(h.num_edges):
            got = estimate_mistake_prob(h, x, interval, j, trials, seed)
            want = reference_estimate_mistake_prob(h, x, interval, j, trials, seed)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 12), st.integers(1, 8),
           st.integers(1, 4), st.sampled_from([1, 2, 3, 4, 8]), st.sampled_from([1e-7, 0.1]))
    def test_same_invariant_problems(self, seed, n, m, k, max_size, d, tol):
        # Distances and edge variables on a grid of step 1/d, feasible or not,
        # so that both bounds fail on some edges; rank 2 with up to 8 colors
        # reaches the threshold sums up to t = 4.
        rng = np.random.default_rng(seed)
        h = random_instance(rng, n, m, k, max_size)
        x = EccLpSolution(rng.integers(0, d + 1, (n, k)) / d, rng.integers(0, d + 1, m) / d, 0.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rounding_module, "INVARIANT_TOL", tol)
            assert (rounding_invariant_violations(h, x)
                    == reference_rounding_invariant_violations(h, x, tol))

    @pytest.mark.parametrize("h", [hypergraph(2, 0, []), hypergraph(2, 3, [((0, 1), 1)])])
    def test_same_error_on_an_infeasible_solution(self, h):
        x = EccLpSolution(np.zeros((2, h.num_colors)), np.zeros(h.num_edges), 0.0)
        with pytest.raises(ValueError) as want:
            reference_gen_color_round(h, x, Interval(0.5, 0.75), 0)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            gen_color_round(h, x, Interval(0.5, 0.75), 0)


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

    def test_members_are_sorted_within_each_edge(self):
        # Once kept in the order given: validate passed, and the text was
        # parsed back to an instance with members [0 2 1], not equal to it.
        h = EdgeColoredHypergraph(3, 2, [2, 0, 1], [0, 2, 3], [1, 2], [1.0, 1.0])
        assert h.members.tolist() == [0, 2, 1]
        assert parse_canonical(write_canonical(h)) == h
        repeated = EdgeColoredHypergraph(3, 2, [2, 0, 2, 1], [0, 3, 4], [1, 2], [1.0, 1.0])
        assert repeated.members.tolist() == [0, 2, 2, 1]
        assert validate(repeated) == ["edge 0 has duplicate members"]


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
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
        assert _color_survivors(h, flags) == reference_color_survivors(h, flags)
        dels = DeletionSet(flags, 0.0)
        assert dels.indices.tolist() == [j for j in range(m) if flags[j]]
        base = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        mv = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        assert recolor_uncovered(h, dels, base, mv)[0] == reference_recolor_uncovered(h, dels, base, mv)


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

    @pytest.mark.parametrize("build", ["from_flat", "hypergraph"])
    def test_callers_arrays_stay_theirs(self, build):
        # from_flat keeps the arrays it builds without a copy, but never one
        # that the caller still holds, sorted or not, in any dtype.
        for members, colors in ((np.array([0, 1, 2, 3]), np.array([1, 2])),
                                (np.array([1, 0, 3, 2]), np.array([1, 2], dtype=np.int32)),
                                (np.array([0, 0, 1, 2, 3]), np.array([1, 2]))):
            weights = np.array([1.0, 2.0])
            sizes = [len(members) - 2, 2]
            if build == "from_flat":
                h = from_flat(4, 2, members, sizes, colors, weights)
            else:
                edges = np.split(members, [sizes[0]])
                h = hypergraph(4, 2, [(e, c, w) for e, c, w in zip(edges, colors, weights)])
            before = (h.members.tolist(), h.eptr.tolist(), h.colors.tolist(), h.weights.tolist())
            for a in (members, colors, weights):
                a[:] = 3
            assert (h.members.tolist(), h.eptr.tolist(), h.colors.tolist(),
                    h.weights.tolist()) == before
            for name in ("members", "eptr", "colors", "weights"):
                a = getattr(h, name)
                assert a.base is None
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_handed_over_arrays_are_kept(self):
        members, colors, weights = np.array([0, 1, 1, 2]), np.array([1, 2]), np.array([1.0, 2.0])
        h = _from_own_flat(3, 2, members, [2, 2], colors, weights)
        assert h.members is members and h.colors is colors and h.weights is weights
        assert not members.flags.writeable

    def test_parsed_and_generated_arrays_are_read_only(self):
        planted = gen_random(30, 60, 4, 3, 0.2, seed=1)
        parsed = parse_canonical(write_canonical(planted.hypergraph))
        assert parsed == planted.hypergraph
        benchmark = parse_benchmark("1 2\n3 2 1\n", "1\n2\n")[0]
        assert benchmark == hypergraph(3, 2, [((0, 1), 1), ((0, 1, 2), 2)])
        for h in (planted.hypergraph, parsed, benchmark):
            for name in ("members", "eptr", "colors", "weights"):
                a = getattr(h, name)
                assert a.base is None and not a.flags.writeable

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
