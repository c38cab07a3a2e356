"""Instance parsing, serialization, and generators.

Two text formats are supported:

- the canonical format: a header line ``ecc <num_nodes> <num_edges> <num_colors>``
  followed by one line per edge, ``<color> <weight> <node ids...>`` with 0-based
  ids; lines starting with ``#`` are ignored;
- the published benchmark two-file format: an edges file with one
  whitespace/comma-separated list of 1-based node ids per line, a labels file
  with one integer color per line, and an optional node-label file holding the
  ground-truth node colors.

Both readers tokenize a text as one array of code points and check its words
as flat arrays, with no Python string per word (:func:`_tokenize`,
:func:`_convert`), then build the instance with :func:`from_flat`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hypergraph import EdgeColoredHypergraph, _per_edge_count, from_flat, hypergraph


class ParseError(ValueError):
    """Malformed instance text; ``line`` is the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def write_canonical(h: EdgeColoredHypergraph) -> str:
    """Serialize to canonical text; edges in index order, members sorted.

    Weights that are whole numbers below ``1e15`` print as integers, others
    as their ``repr``.
    """
    m = h.num_edges
    w = h.weights
    whole = (w == np.floor(w)) & (np.abs(w) < 1e15)
    # Every word of the body (color, weight, member ids) at an even position,
    # followed by a space, or a line break after an edge's last member.
    size = len(h.members) + 2 * m
    starts = h.eptr[:-1] + 2 * np.arange(m)
    is_member = np.ones(size, dtype=bool)
    is_member[starts] = is_member[starts + 1] = False
    parts = np.full(2 * size, " ", dtype=object)
    words = parts[0::2]
    words[starts] = list(map(str, h.colors.tolist()))
    words[starts[whole] + 1] = list(map(str, w[whole].astype(np.int64).tolist()))
    words[starts[~whole] + 1] = list(map(repr, w[~whole].tolist()))
    words[is_member] = list(map(str, h.members.tolist()))
    parts[2 * (starts + np.diff(h.eptr) + 1) + 1] = "\n"
    return f"ecc {h.num_nodes} {m} {h.num_colors}\n" + "".join(parts.tolist())


def _edge_line_error(tokens: list[str], n: int, k: int) -> str | None:
    """The first problem of one edge line, in the order the checks apply."""
    if len(tokens) < 3:
        return "edge line needs '<color> <weight> <ids...>'"
    try:
        color = int(tokens[0])
        weight = float(tokens[1])
        members = [int(t) for t in tokens[2:]]
    except ValueError:
        return "bad token in edge line"
    if not (1 <= color <= k):
        return f"color {color} out of range [1, {k}]"
    if not (0.0 <= weight < math.inf):
        return f"weight {tokens[1]} is not a nonnegative finite number"
    for v in members:
        if not (0 <= v < n):
            return f"node id {v} out of range [0, {n})"
    return None


_LAST_SPACE = 0x3000  # U+3000 IDEOGRAPHIC SPACE: str.split splits on no higher code point


@functools.cache
def _char_classes(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Whitespace and line-break flags of the code points below ``size``.

    Taken from Python itself: whitespace as ``str.split`` splits on it, line
    breaks as ``str.splitlines`` ends lines on them (every break is also
    whitespace). Entry ``size`` is False and stands for every higher code point.
    """
    space = np.zeros(size + 1, dtype=bool)
    space[[c for c in range(size) if chr(c).isspace()]] = True
    breaks = np.zeros(size + 1, dtype=bool)
    breaks[[c for c in np.flatnonzero(space) if len(f"a{chr(c)}b".splitlines()) == 2]] = True
    space.flags.writeable = breaks.flags.writeable = False  # shared by every later call
    return space, breaks


def _tokenize(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``text`` as code points, with its word spans and its words per line.

    Returns ``(codes, starts, ends, line_ptr)``: word ``i`` is
    ``text[starts[i]:ends[i]]``, split as ``str.split`` splits, and line ``l``
    (numbered as ``str.splitlines`` would, ``\\r\\n`` being one break) holds
    words ``line_ptr[l]`` to ``line_ptr[l + 1]``. A text ending in a line
    break gets one more, empty line, which changes nothing for its words.
    """
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        space, breaks = _char_classes(128)
    else:
        # Every code point above _LAST_SPACE is a word character: clipped into
        # uint16 as the utf-32 buffer is read, so two bytes per character stay.
        codes = np.minimum(
            np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32),
            _LAST_SPACE + 1, out=np.empty(len(text), dtype=np.uint16), casting="unsafe",
        )
        space, breaks = _char_classes(_LAST_SPACE + 1)
    bounds = np.flatnonzero(np.diff(space[codes], prepend=True, append=True))
    starts, ends = bounds[0::2], bounds[1::2]
    line_ends = np.flatnonzero(breaks[codes])
    crlf = (codes[line_ends] == 10) & (codes[line_ends - 1] == 13) & (line_ends > 0)
    line_ends = np.append(line_ends[~crlf], len(codes))
    line_ptr = np.concatenate([[0], np.searchsorted(starts, line_ends)])
    return codes, starts, ends, line_ptr


def _line_words(text: str, starts, ends, line_ptr, line: int) -> list[str]:
    """The words of one line of ``text``, as strings (see :func:`_tokenize`)."""
    a, b = line_ptr[line], line_ptr[line + 1]
    return [text[s:e] for s, e in zip(starts[a:b].tolist(), ends[a:b].tolist())]


_EXACT_DIGITS = 15  # below 10**15 < 2**53, so such words are exact in int64 and float64 alike


def _convert(text: str, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray,
             kind, invalid) -> np.ndarray:
    """Words ``text[starts[i]:ends[i]]`` through ``int`` or ``float``.

    A word that fails becomes ``invalid``, and so do integers beyond int64.
    Words of at most 15 ASCII digits are decoded here, one digit column at a
    time from the right; every other word (signs, ``_``, ``.``, exponents,
    ``nan``, other scripts' digits, longer words) goes through ``kind``
    itself, so Python's number rules hold throughout. Callers pick an
    ``invalid`` value that their range check rejects, and re-read the
    reported line for the message.
    """
    lengths = ends - starts
    values = np.zeros(len(starts), dtype=np.int64)
    simple = lengths <= _EXACT_DIGITS
    for j in range(min(int(lengths.max(initial=0)), _EXACT_DIGITS)):
        # Column j from the right; a shorter word rereads its first character,
        # which must be a digit too. The unsigned subtraction wraps every
        # non-digit to 10 or more.
        digit = codes[np.maximum(ends - 1 - j, starts)] - ord("0")
        simple &= digit < 10
        digit[lengths <= j] = 0
        # An int64 loop named outright: numpy 1.x would keep the product of the
        # small unsigned digits and a fitting scalar in the digits' dtype.
        values += np.multiply(digit, 10**j, dtype=np.int64)
    if kind is float:
        values = values.astype(np.float64)
    others = np.flatnonzero(~simple)
    for i, s, e in zip(others.tolist(), starts[others].tolist(), ends[others].tolist()):
        try:
            value = kind(text[s:e])
        except ValueError:
            value = invalid
        if kind is int and not -(1 << 63) <= value < 1 << 63:
            value = invalid
        values[i] = value
    return values


def parse_canonical(text: str) -> EdgeColoredHypergraph:
    """Parse canonical text, raising :class:`ParseError` with a line number.

    The text is read as one array of code points: whitespace and line-break
    masks give every word's span and each line's word count (see
    :func:`_tokenize`), and the edge lines' colors, weights and member ids
    are decoded from their spans and range-checked as flat arrays, with no
    Python string per word. When some edge line is bad, the first one is
    re-read to name its first problem.
    """
    codes, starts, ends, line_ptr = _tokenize(text)
    counts = np.diff(line_ptr)
    first = line_ptr[:-1]  # each line's first word
    filled = np.flatnonzero(counts)
    comment = codes[starts[first[filled]]] == ord("#")
    data = filled[~comment]
    if not len(data):
        raise ParseError("empty input, no header found")
    lineno = int(data[0]) + 1
    header = _line_words(text, starts, ends, line_ptr, lineno - 1)
    if len(header) != 4 or header[0] != "ecc":
        raise ParseError("expected header 'ecc <nodes> <edges> <colors>'", lineno)
    try:
        n, m, k = int(header[1]), int(header[2]), int(header[3])
    except ValueError:
        raise ParseError("non-integer header field", lineno) from None
    if min(n, m, k) < 0:
        raise ParseError("negative header field", lineno)

    edge_lines = data[1:m + 1]  # a line beyond the declared count is an error in itself
    full = edge_lines[counts[edge_lines] >= 3]
    sizes = counts[full] - 2
    head = first[full]
    colors = _convert(text, codes, starts[head], ends[head], int, 0)
    weights = _convert(text, codes, starts[head + 1], ends[head + 1], float, math.nan)
    in_full = np.zeros(len(counts), dtype=bool)
    in_full[full] = True
    is_member = np.repeat(in_full, counts)
    is_member[head] = is_member[head + 1] = False
    members = _convert(text, codes, starts[is_member], ends[is_member], int, -1)

    bad = (colors < 1) | (colors > k) | ~((weights >= 0.0) & (weights < math.inf))
    outside = (members < 0) | (members >= n)
    bad[np.repeat(np.arange(len(full)), sizes)[outside]] = True
    # The first line that fails: a line past the count, a short or a bad edge line.
    bad_lines = [data[m + 1]] if len(data) > m + 1 else []
    if len(full) < len(edge_lines):
        bad_lines.append(edge_lines[counts[edge_lines] < 3][0])
    if bad.any():
        bad_lines.append(full[np.argmax(bad)])
    if bad_lines:
        first_bad = int(min(bad_lines))
        if len(data) > m + 1 and first_bad == data[m + 1]:
            raise ParseError(f"more than the declared {m} edges", first_bad + 1)
        tokens = _line_words(text, starts, ends, line_ptr, first_bad)
        raise ParseError(_edge_line_error(tokens, n, k), first_bad + 1)
    if len(edge_lines) != m:
        raise ParseError(f"header declares {m} edges but file has {len(edge_lines)}")
    return from_flat(n, k, members, sizes, colors, weights)


class _IntLines(NamedTuple):
    """The non-blank lines of one benchmark file: their 0-based numbers, word
    counts and words as integers, per line whether a word is no integer, an
    integer below 1 or one beyond 64 bits, and the largest word beyond 64 bits
    (0 if none). A non-integer word reads as 1; one beyond 64 bits as 1, or 0
    if negative."""

    lines: np.ndarray
    counts: np.ndarray
    values: np.ndarray
    bad: np.ndarray
    low: np.ndarray
    wide: np.ndarray
    big: int


def _int_lines(text: str) -> _IntLines:
    """Read one benchmark file with the tokenizer and decoder of :func:`parse_canonical`.

    Commas separate words as whitespace does, but a line of commas alone is
    not blank. Words decoded as 0 go through ``int()`` again, which tells a
    0 from a non-integer and from an integer beyond 64 bits.
    """
    codes, starts, ends, line_ptr = _tokenize(text)
    lines = np.flatnonzero(np.diff(line_ptr))
    if "," in text:
        text = text.replace(",", " ")
        codes, starts, ends, line_ptr = _tokenize(text)
    ptr = np.append(line_ptr[lines], line_ptr[-1])
    values = _convert(text, codes, starts, ends, int, 0)
    bad = np.zeros(len(values), dtype=bool)
    wide = np.zeros(len(values), dtype=bool)
    big = 0
    marked = np.flatnonzero(values == 0)
    for i, s, e in zip(marked.tolist(), starts[marked].tolist(), ends[marked].tolist()):
        try:
            value = int(text[s:e])
        except ValueError:
            bad[i] = values[i] = True
            continue
        if value:
            wide[i], values[i], big = True, value > 0, max(big, value)
    flags = (_per_edge_count(a, ptr) > 0 for a in (bad, values < 1, wide))
    return _IntLines(lines, np.diff(ptr), values, *flags, big)


def _raise_first(f: _IntLines, what: str, *checks) -> None:
    """Raise at the first line of file ``what`` that holds a non-integer or has
    the flag of a ``(line flags, message)`` check set, with the first message
    that applies there."""
    checks = ((f.bad, f"non-integer token in {what}"),) + checks
    failing = np.logical_or.reduce([flags for flags, _ in checks])
    if failing.any():
        i = int(np.argmax(failing))
        message = next(message for flags, message in checks if flags[i])
        raise ParseError(message, int(f.lines[i]) + 1)


def parse_benchmark(
    edges_text: str,
    labels_text: str,
    node_labels_text: str | None = None,
) -> tuple[EdgeColoredHypergraph, list[int] | None]:
    """Parse the benchmark two-file format, returning ``(instance, truth-or-None)``.

    Node ids are 1-based in the files and shifted to 0-based; all edges get unit
    weight; the number of colors is the maximum label observed. The line
    counts of the two files are compared first, then each file is checked in
    turn at its first failing line; an integer beyond 64 bits is reported last.
    """
    edges, labels = _int_lines(edges_text), _int_lines(labels_text)
    if len(edges.lines) != len(labels.lines):
        raise ParseError(
            f"edges file has {len(edges.lines)} lines but labels file has {len(labels.lines)}"
        )
    files = {"edges file": edges, "labels file": labels}
    _raise_first(edges, "edges file", (edges.counts == 0, "empty edge"),
                 (edges.low, "node ids are 1-based; found id < 1"))
    _raise_first(labels, "labels file", (labels.counts != 1, "expected one label per line"),
                 (labels.low, "labels are 1-based; found label < 1"))
    truth: list[int] | None = None
    num_colors = int(labels.values.max(initial=0))
    num_nodes = max(int(edges.values.max(initial=0)), edges.big)
    if node_labels_text is not None:
        nodes = files["node labels file"] = _int_lines(node_labels_text)
        _raise_first(nodes, "node labels file",
                     (nodes.counts != 1, "expected one node label per line"))
        truth = nodes.values.tolist()
        num_nodes = max(num_nodes, len(truth))
        if len(truth) != num_nodes:
            raise ParseError(
                f"node labels file has {len(truth)} lines but instance has {num_nodes} nodes"
            )
        num_colors = max(num_colors, max(truth, default=0))
    for what, f in files.items():
        _raise_first(f, what, (f.wide, f"integer beyond 64 bits in {what}"))
    h = from_flat(num_nodes, num_colors, edges.values - 1, edges.counts, labels.values,
                  np.ones(len(edges.counts)))
    return h, truth


def gen_integrality_gap(k: int) -> EdgeColoredHypergraph:
    """Worst-case LP instance: one edge per color, one shared node per edge pair.

    For ``k >= 3`` this builds C(k,2) nodes indexed by color pairs ``(i, j)``;
    node ``(i, j)`` lies in edges ``i`` and ``j``, every edge has ``k - 1``
    members and unit weight. The best coloring mis-colors all but one edge while
    the fractional relaxation achieves ``k / 2``.
    """
    if k < 3:
        raise ValueError("gap construction needs k >= 3")
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    edges = [([v for v, pair in enumerate(pairs) if c in pair], c) for c in range(1, k + 1)]
    return hypergraph(len(pairs), k, edges)


def gen_star() -> EdgeColoredHypergraph:
    """Three-leaf star with one edge per color; node 0 is the center."""
    edges = [((0, i), i, 1.0) for i in (1, 2, 3)]
    return hypergraph(4, 3, edges)


@dataclass(frozen=True)
class PlantedInstance:
    """A generated instance together with the planted ground-truth coloring."""

    hypergraph: EdgeColoredHypergraph
    truth: list[int]
    noise: float


def gen_random(
    n: int,
    m: int,
    max_size: int,
    k: int,
    noise: float,
    seed: int,
) -> PlantedInstance:
    """Random planted instance: one cluster per color, deterministic per seed.

    Each node gets a uniform truth color. Each edge draws a size in
    ``[2..max_size]`` and a cluster, takes its members from that cluster (the
    size is clamped to the cluster when the cluster is smaller; clusters with
    fewer than two nodes are not used unless no usable cluster exists, in which
    case members are drawn uniformly from all nodes), and is colored by the
    cluster; with probability ``noise`` the edge color is redrawn uniformly.

    The instance for a seed is the one the per-edge loop gives: an edge whose
    pool has at most 64 nodes calls ``Generator.choice`` without replacement,
    a larger pool redraws ``Generator.integers(0, len(pool), size)`` until
    the picks are distinct, in edge order from one generator. Runs of
    larger-pool edges are drawn with one ``integers`` call per window
    (:func:`_distinct_draws`), so an instance is tied to numpy's
    ``Generator.integers`` and ``Generator.choice`` streams; the
    differential test against the loop and the pinned digests in
    ``tests/test_instances.py`` guard it. 100k edges over 25k nodes take
    0.07-0.15 s, against 1.1-1.4 s for the loop; pools of at most 64 nodes,
    or on both sides of 64, cost what the loop costs (2-core host).
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if n >= 2**32:
        raise ValueError("need n < 2**32")
    if max_size < 2:
        raise ValueError("need max_size >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if not (0.0 <= noise <= 1.0):
        raise ValueError("noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    truth = rng.integers(1, k + 1, size=n)
    counts = np.bincount(truth, minlength=k + 1)[1:]
    # Every cluster's nodes in ascending order, the clusters back to back,
    # then all nodes.
    nodes = np.concatenate([np.argsort(truth, kind="stable"), np.arange(n)])
    usable = np.flatnonzero(counts >= 2)
    # The cluster that edges drawn for color c use, and its member pool:
    # that cluster, or all nodes when no cluster has two nodes.
    target = np.arange(k)
    if len(usable):
        target = np.where(counts < 2, usable[target % len(usable)], target)
    whole = counts[target] < 2
    pool_len = np.where(whole, n, counts[target])
    pool_start = np.where(whole, n, (np.cumsum(counts) - counts)[target])

    sizes = rng.integers(2, max_size + 1, size=m)
    chosen = rng.integers(0, k, size=m)
    noisy = rng.random(m) < noise
    resampled = rng.integers(1, k + 1, size=m)

    bound = pool_len[chosen]
    take = np.minimum(sizes, bound)
    is_sampled = take < bound
    # Each member's index into its pool: whole-pool edges keep 0, 1, ...,
    # sampled edges get their draws.
    eptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(take, out=eptr[1:])
    local = np.arange(eptr[-1]) - np.repeat(eptr[:-1], take)
    sampled = np.flatnonzero(is_sampled)
    local[np.repeat(is_sampled, take)] = _distinct_draws(
        rng, bound[sampled], take[sampled], by_choice=bound[sampled] <= 64
    )
    members = nodes[np.repeat(pool_start[chosen], take) + local]
    colors = np.where(noisy, resampled, target[chosen] + 1)
    h = from_flat(n, k, members, take, colors, np.ones(m))
    return PlantedInstance(h, truth.tolist(), noise)


_WINDOW = 2048  # draws per bulk ``integers`` call


def _distinct_draws(rng: np.random.Generator, bounds, sizes, by_choice=None) -> np.ndarray:
    """``sizes[j]`` distinct picks below ``bounds[j]`` for each j, as one call per edge draws them.

    An edge marked in ``by_choice`` calls ``rng.choice(bounds[j], sizes[j],
    replace=False)``; any other calls ``rng.integers(0, bounds[j], sizes[j])``
    until its picks are distinct. Returns the picks back to back and leaves
    ``rng`` in the state those calls leave it in. Every bound must lie in
    ``[1, 2**32]``.

    ``integers`` with an array of bounds draws each entry in order through
    the same bounded-integer routine as one call per edge, rejections
    included, so a window of unmarked edges is drawn in one call. Every edge
    before the first one with a repeated pick is kept; when later edges were
    drawn too, the generator is set back and only the kept edges and that
    one are drawn again, which gives the same values. That edge is then
    redrawn on its own until its picks are distinct, as is a window of one
    edge, and the next window starts after it.
    """
    count = len(sizes)
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    highs = np.repeat(bounds, sizes)
    # Each pick's edge in the high bits, so one sort finds the first repeat.
    edge_keys = np.repeat(np.arange(count, dtype=np.int64) << 32, sizes)
    # The first edge at or after each edge that is drawn by ``choice``.
    stop = [count] * count
    if by_choice is not None:
        marked = np.append(np.flatnonzero(by_choice), count)
        stop = marked[np.searchsorted(marked, np.arange(count))].tolist()
    bounds, sizes, starts = bounds.tolist(), sizes.tolist(), starts.tolist()
    out = np.empty(starts[-1], dtype=np.int64)
    j = 0
    while j < count:
        a = starts[j]
        if stop[j] == j:
            out[a:starts[j + 1]] = rng.choice(bounds[j], size=sizes[j], replace=False)
            j += 1
            continue
        hi = min(stop[j], max(bisect.bisect_right(starts, a + _WINDOW) - 1, j + 1))
        bad = j
        if hi > j + 1:
            state = rng.bit_generator.state
            picks = rng.integers(0, highs[a:starts[hi]])
            keys = np.sort(edge_keys[a:starts[hi]] | picks)
            repeats = np.flatnonzero(keys[1:] == keys[:-1])
            bad = int(keys[repeats[0]]) >> 32 if len(repeats) else hi
            if bad + 1 < hi:  # later edges were drawn: draw again up to ``bad``
                rng.bit_generator.state = state
                rng.integers(0, highs[a:starts[bad + 1]])
            out[a:starts[bad]] = picks[:starts[bad] - a]
        if bad < hi:
            while True:
                redrawn = rng.integers(0, bounds[bad], size=sizes[bad])
                if len(set(redrawn.tolist())) == sizes[bad]:
                    break
            out[starts[bad]:starts[bad + 1]] = redrawn
            hi = bad + 1
        j = hi
    return out
