"""Tests for instance parsing, serialization, and the generators."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minecc.hypergraph import EdgeColoredHypergraph, hypergraph, objective_cost, validate
from minecc.instances import (
    ParseError,
    _distinct_draws,
    gen_integrality_gap,
    gen_random,
    gen_star,
    parse_benchmark,
    parse_canonical,
    write_canonical,
)

from conftest import (
    ARRAY_CORE_WEIGHTS,
    edges_of,
    exhaustive_ecc,
    naive_cost,
    random_instance,
    reference_gen_integrality_gap,
    reference_gen_random,
)


class TestCanonical:
    def test_parse_minimal(self):
        h = parse_canonical("ecc 2 1 1\n1 1 0 1\n")
        assert h.num_nodes == 2 and h.num_colors == 1
        assert edges_of(h)[0].members == (0, 1)
        assert edges_of(h)[0].weight == 1.0

    def test_edge_count_shortfall(self):
        with pytest.raises(ParseError, match="declares 3 edges but file has 2"):
            parse_canonical("ecc 3 3 2\n1 1 0 1\n2 1 1 2\n")

    def test_round_trip(self):
        text = "ecc 4 2 3\n# comment\n2 2.5 0 1 2\n3 1 1 3\n"
        h = parse_canonical(text)
        again = parse_canonical(write_canonical(h))
        assert again == h
        assert edges_of(again)[0].weight == 2.5

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_of_members_in_any_order(self, seed):
        # The raw constructor takes each edge's members in any order and keeps
        # them sorted, so every valid instance's text parses back to it.
        rng = np.random.default_rng(seed)
        h = random_instance(rng, int(rng.integers(1, 12)), int(rng.integers(0, 15)),
                            int(rng.integers(1, 5)), max_size=5)
        members = h.members[np.lexsort((rng.random(len(h.members)), h.member_edges()))]
        permuted = EdgeColoredHypergraph(h.num_nodes, h.num_colors, members, h.eptr, h.colors,
                                         rng.choice(ARRAY_CORE_WEIGHTS, h.num_edges))
        assert validate(permuted) == []
        assert parse_canonical(write_canonical(permuted)) == permuted

    def test_bad_token_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_canonical("ecc 2 2 1\n1 1 0\n1 x 1\n")

    def test_out_of_range_id(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_canonical("ecc 2 1 1\n1 1 0 2\n")

    def test_out_of_range_color(self):
        with pytest.raises(ParseError, match="color"):
            parse_canonical("ecc 2 1 1\n0 1 0 1\n")

    def test_negative_weight(self):
        with pytest.raises(ParseError, match="nonnegative"):
            parse_canonical("ecc 2 1 1\n1 -1 0 1\n")

    def test_write_format(self):
        h = hypergraph(2, 1, [((1, 0), 1)])
        lines = write_canonical(h).strip().splitlines()
        assert lines == ["ecc 2 1 1", "1 1 0 1"]

    def test_crlf_line_endings(self):
        h = parse_canonical("ecc 2 1 1\r\n1 1 0 1\r\n")
        assert edges_of(h)[0].members == (0, 1)

    def test_gap_header(self):
        assert write_canonical(gen_integrality_gap(3)).splitlines()[0] == "ecc 3 3 3"


class TestBenchmark:
    def test_basic(self):
        h, truth = parse_benchmark("1 2\n2 3\n", "1\n2\n")
        assert h.num_nodes == 3 and h.num_edges == 2 and h.num_colors == 2
        assert edges_of(h)[0].members == (0, 1)
        assert truth is None

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="lines"):
            parse_benchmark("1 2\n2 3\n", "1\n")

    def test_node_labels(self):
        _, truth = parse_benchmark("1 2\n2 3\n", "1\n2\n", "1\n1\n2\n")
        assert truth == [1, 1, 2]

    def test_comma_separated(self):
        h, _ = parse_benchmark("1,2,4\n", "3\n")
        assert h.num_nodes == 4 and edges_of(h)[0].members == (0, 1, 3)

    def test_non_integer_token(self):
        with pytest.raises(ParseError):
            parse_benchmark("1 two\n", "1\n")


class TestGapInstance:
    @pytest.mark.parametrize("k,nodes,size", [(3, 3, 2), (4, 6, 3)])
    def test_shape(self, k, nodes, size):
        h = gen_integrality_gap(k)
        assert h.num_nodes == nodes
        assert h.num_edges == k
        assert all(len(e) == size for e in edges_of(h))
        assert h.rank == k - 1
        assert validate(h) == []

    def test_pairwise_single_intersection(self):
        h = gen_integrality_gap(5)
        for a, b in itertools.combinations(edges_of(h), 2):
            assert len(set(a.members) & set(b.members)) == 1

    def test_k5_optimum(self):
        # Exhaustive check on the k=5 instance via the unpruned oracle.
        h = gen_integrality_gap(5)
        assert exhaustive_ecc(h) == 4

    def test_same_instance_and_text_as_reference(self):
        for k in range(3, 41):
            h, want = gen_integrality_gap(k), reference_gen_integrality_gap(k)
            assert h == want
            assert write_canonical(h) == write_canonical(want)

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            gen_integrality_gap(2)


def _tiny_random(seed):
    rng = np.random.default_rng(seed)
    return random_instance(rng, int(rng.integers(2, 7)), 8, int(rng.integers(2, 4)))


TINY_INSTANCES = {
    "star": gen_star(),
    "gap3": gen_integrality_gap(3),
    "gap4": gen_integrality_gap(4),
    "weighted": hypergraph(4, 3, [((0, 1), 1, 2.5), ((1, 2, 3), 2, 0.5), ((0, 3), 3, 1.0)]),
    **{f"random-{seed}": _tiny_random(seed) for seed in range(4)},
}


class TestExhaustiveHelper:
    @pytest.mark.parametrize("h", TINY_INSTANCES.values(), ids=TINY_INSTANCES.keys())
    def test_matches_itertools_product(self, h):
        colorings = itertools.product(range(1, h.num_colors + 1), repeat=h.num_nodes)
        expected = min(naive_cost(h, coloring)[0] for coloring in colorings)
        # A chunk smaller than k^n makes the chunk boundaries count too.
        assert exhaustive_ecc(h, chunk=7) == expected
        assert exhaustive_ecc(h) == expected


class TestStarInstance:
    def test_shape(self):
        h = gen_star()
        assert h.num_nodes == 4 and h.num_edges == 3 and h.num_colors == 3
        assert all(0 in e.members for e in edges_of(h))

    def test_optimum_cost_two(self):
        assert exhaustive_ecc(gen_star()) == 2


class TestGenRandom:
    def test_noise_zero_truth_is_perfect(self):
        planted = gen_random(30, 50, 4, 3, 0.0, seed=1)
        cost = objective_cost(planted.hypergraph, planted.truth).total_cost
        assert cost == 0

    def test_deterministic(self):
        a = gen_random(20, 30, 3, 4, 0.5, seed=9)
        b = gen_random(20, 30, 3, 4, 0.5, seed=9)
        assert a.hypergraph == b.hypergraph
        assert a.truth == b.truth

    def test_different_seeds_differ(self):
        a = gen_random(20, 30, 3, 4, 0.5, seed=9)
        b = gen_random(20, 30, 3, 4, 0.5, seed=10)
        assert a.hypergraph != b.hypergraph

    def test_valid_instances(self):
        for seed in range(5):
            planted = gen_random(12, 25, 4, 3, 0.3, seed=seed)
            assert validate(planted.hypergraph) == []
            assert all(1 <= t <= 3 for t in planted.truth)

    def test_truth_upper_bounds_optimum(self):
        from minecc.oracle import bruteforce_ecc

        planted = gen_random(20, 40, 3, 3, 0.3, seed=7)
        opt = bruteforce_ecc(planted.hypergraph).value
        assert opt <= objective_cost(planted.hypergraph, planted.truth).total_cost

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_random(0, 1, 2, 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_random(5, 5, 1, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_random(5, 5, 3, 2, 1.5, seed=0)
        with pytest.raises(ValueError, match="n < 2"):
            gen_random(2**32, 5, 3, 2, 0.0, seed=0)

    # sha256 of the canonical text and the truth line, recorded with the
    # per-edge loop: a numpy whose ``integers`` or ``choice`` stream changed
    # would move the loop and the bulk sampler together, but not these.
    DIGESTS = {
        (2000, 8000, 6, 8, 0.2, 0):
            "6b939681c34a1ff2e60586eb1c3eb7184aadc33c24eacbec1df563606a9801b1",
        (500, 2000, 6, 20, 0.2, 1):  # every pool has 64 or fewer nodes
            "c5a1de6f556dbdefae1ab4ed981bcb43a442c6616d7c636bbcf85a166ee961af",
        (10, 300, 5, 16, 0.3, 2):  # more colors than nodes
            "9af75c2b68aaa890bbf2445a529af2e58589b6e9e1fa05b665bd284fc3c48bdd",
    }

    @pytest.mark.parametrize("args", DIGESTS, ids=["planted", "small-pools", "k-above-n"])
    def test_pinned_digest(self, args):
        planted = gen_random(*args)
        text = write_canonical(planted.hypergraph) + " ".join(map(str, planted.truth)) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[args]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 400),
        m=st.integers(1, 300),
        # Sizes stay far below the large pools (over 64 nodes), where the
        # loop's rejection sampling would almost never find distinct picks.
        max_size=st.integers(2, 12),
        k=st.integers(1, 12) | st.integers(13, 40),
        noise=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**63),
    )
    def test_matches_the_loop(self, n, m, max_size, k, noise, seed):
        planted = gen_random(n, m, max_size, k, noise, seed)
        expected = reference_gen_random(n, m, max_size, k, noise, seed)
        assert planted.hypergraph == expected.hypergraph
        assert planted.truth == expected.truth

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_large_matches_the_loop(self, seed):
        planted = gen_random(25000, 100000, 6, 8, 0.2, seed)
        expected = reference_gen_random(25000, 100000, 6, 8, 0.2, seed)
        assert planted.hypergraph == expected.hypergraph
        assert planted.truth == expected.truth


def reference_distinct_draws(rng, bounds, sizes, by_choice=None):
    """``rng.integers`` per entry, redrawn until the picks are distinct, or ``rng.choice``."""
    out = []
    for j, (bound, size) in enumerate(zip(bounds, sizes)):
        if by_choice is not None and by_choice[j]:
            out.extend(rng.choice(bound, size=size, replace=False).tolist())
            continue
        while True:
            picks = rng.integers(0, bound, size=size)
            if len(set(picks.tolist())) == size:
                break
        out.extend(picks.tolist())
    return out


class TestDistinctDraws:
    """The windowed draws on their own, where rejections and repeats are common."""

    BOUNDS = st.sampled_from([2, 3, 7, 65, 3125, 2**31 + 1, 3 * 2**30, 2**32 - 1])

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        prior=st.integers(0, 5),
        edges=st.lists(st.tuples(BOUNDS, st.integers(0, 6)), max_size=400),
    )
    def test_matches_integers(self, seed, prior, edges):
        bounds = [b for b, _ in edges]
        sizes = [min(s, b) for b, s in edges]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        # An odd number of earlier 32-bit draws leaves a half pending.
        rng.integers(0, 10, size=prior)
        ref.integers(0, 10, size=prior)
        drawn = _distinct_draws(rng, np.array(bounds, dtype=np.int64), sizes)
        assert drawn.tolist() == reference_distinct_draws(ref, bounds, sizes)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        edges=st.lists(st.tuples(st.integers(60, 70), st.integers(2, 6)), max_size=300),
    )
    def test_choice_edges_split_the_windows(self, seed, edges):
        bounds = [b for b, _ in edges]
        sizes = [s for _, s in edges]
        by_choice = [b <= 64 for b in bounds]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = _distinct_draws(rng, np.array(bounds, dtype=np.int64), sizes, by_choice)
        assert drawn.tolist() == reference_distinct_draws(ref, bounds, sizes, by_choice)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("bound", [3 * 2**30, 2**31 + 1, 2**32 - 1])
    @pytest.mark.parametrize("prior", [0, 1])
    def test_long_runs_span_many_windows(self, bound, prior):
        # Half of the draws below 2**31 + 1 are rejected, so a window's
        # draws consume far more of the stream than its picks.
        rng, ref = np.random.default_rng(prior + 7), np.random.default_rng(prior + 7)
        rng.integers(0, 10, size=prior)
        ref.integers(0, 10, size=prior)
        bounds, sizes = [bound] * 3000, [1, 4, 6] * 1000
        drawn = _distinct_draws(rng, np.array(bounds, dtype=np.int64), sizes)
        assert drawn.tolist() == reference_distinct_draws(ref, bounds, sizes)
        assert rng.bit_generator.state == ref.bit_generator.state
