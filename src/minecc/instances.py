"""Instance parsing, serialization, and generators.

Two text formats are supported:

- the canonical format: a header line ``ecc <num_nodes> <num_edges> <num_colors>``
  followed by one line per edge, ``<color> <weight> <node ids...>`` with 0-based
  ids; lines starting with ``#`` are ignored;
- the published benchmark two-file format: an edges file with one
  whitespace/comma-separated list of 1-based node ids per line, a labels file
  with one integer color per line, and an optional node-label file holding the
  ground-truth node colors.

Both readers check a text's words as flat arrays of code points, with no
Python string per word (:func:`parse_canonical` tells how), and hand their
arrays to the instance uncopied; truth files go through the same kernels.

The writers use the same digit columns the other way round: every word's
place comes from its digit count, and its digits are written one column at
a time into one ASCII buffer, with no Python string per word
(:func:`_write_lines`, which every writer of the package goes through).
Numbers print by one rule (:func:`_num`), and every reader that names a bad
line raises :class:`ParseError`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hypergraph import EdgeColoredHypergraph, _from_own_flat, _per_edge_count, _too_big, hypergraph


class ParseError(ValueError):
    """Malformed text (an instance, a graph, a primal); ``line`` is the offending 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _num(x: float) -> str:
    """``x`` as every writer prints a number (:func:`_words`): a whole number
    below ``1e15`` as digits, anything else as its ``repr``."""
    return _write_lines("", [], np.array([x], dtype=np.float64), np.arange(2))[:-1]


_WRITE_BLOCK = 1 << 16  # words per write block, about 2**18 characters of planted text


def write_canonical(h: EdgeColoredHypergraph) -> str:
    """Serialize to canonical text; edges in index order, members sorted.
    :func:`parse_canonical` reads the text back to an equal instance for
    every valid ``h``, as every instance keeps each edge's members sorted.

    Weights print by :func:`_num`. Through the digit columns
    (:func:`_write_lines`), the 2.6 MB text of a 400k-incidence instance is
    written in 19-25 ms (best of 7) with a peak 6.3 MB above the start
    (tracemalloc, 2-core host).
    """
    return (f"ecc {h.num_nodes} {h.num_edges} {h.num_colors}\n"
            + _write_lines("", [h.colors, h.weights], h.members, h.eptr))


class _Words(NamedTuple):
    """Words to write: ``digits`` in decimal, except the words at ``other``,
    written as ``texts``; ``lengths`` in characters, and ``width``, the most
    digits of any entry of ``digits``."""

    digits: np.ndarray  # uint32 when every entry fits, else uint64; 0 at ``other``
    lengths: np.ndarray  # uint8
    width: int
    other: np.ndarray
    texts: list[str]


def _words(values: np.ndarray) -> _Words:
    """``values`` as :class:`_Words`: integers in decimal, floats as
    :func:`_num` prints them; the negative ones and the floats that are not
    whole numbers below ``1e15`` by their ``str`` or ``repr``."""
    other, texts = np.empty(0, dtype=np.int64), []
    if values.dtype.kind == "f":
        whole = (values == np.floor(values)) & (np.abs(values) < 1e15)
        other = np.flatnonzero(~whole)
        texts = list(map(repr, values[other].tolist()))
        values = np.where(whole, values, 0).astype(np.int64)
    negative = np.flatnonzero(values < 0)
    other = np.concatenate([other, negative])
    texts += map(str, values[negative].tolist())
    digits = np.maximum(values, 0)
    digits[other] = 0
    top = int(digits.max(initial=0))
    digits = digits.astype(np.uint32 if top < 1 << 32 else np.uint64)
    lengths = np.ones(len(digits), dtype=np.uint8)
    width = 1 if len(digits) else 0
    while 10**width <= top:
        lengths += digits >= 10**width
        width += 1
    lengths[other] = list(map(len, texts))
    return _Words(digits, lengths, width, other, texts)


_PAD = 18  # room for the 18 zeros a one-digit word writes in a part 19 digits wide


def _fill(size: int, parts: list[tuple[_Words, np.ndarray]]) -> np.ndarray:
    """``size`` ASCII codes holding every ``(words, last)`` part: word ``i``
    ends at ``last[i]`` and is followed by a space.

    The digits are written one column at a time, from the widest column of
    any part down to the units, every word of a part in every one of its
    columns: a word with fewer digits writes zeros before its first
    character, over its neighbours, whose own digits in that place belong
    to a lower column and come later. The spaces and the other words'
    texts are written last.
    """
    buf = np.empty(_PAD + size, dtype=np.uint8)
    high = [0] * len(parts)  # each part's digits above the current column
    for column in range(max((words.width for words, _ in parts), default=0) - 1, -1, -1):
        shifted = buf[_PAD - column:]  # ``shifted[last]`` is ``column`` places left of ``last``
        for p, (words, last) in enumerate(parts):
            if column < words.width:
                above = words.digits // words.digits.dtype.type(10**column)
                shifted[last] = (above - high[p] * 10 + ord("0")).astype(np.uint8)
                high[p] = above
    text = buf[_PAD:]
    for words, last in parts:
        text[last + 1] = ord(" ")
        if len(words.other):
            codes = np.frombuffer("".join(words.texts).encode("ascii"), dtype=np.uint8)
            lengths = words.lengths[words.other].astype(np.int64)
            first = last[words.other] + 1 - lengths
            text[np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
                 + np.arange(len(codes))] = codes
    return text


def write_int_lines(values, head: str = "") -> str:
    """A line per row of 64-bit integers (per entry when 1-D): ``head``, then
    the row's words joined by spaces (:func:`_write_lines`); the inverse of
    :func:`parse_int_words` on its own 1-D output."""
    rows = np.asarray(values, dtype=np.int64)
    rows = rows[:, None] if rows.ndim == 1 else rows
    return _write_lines(head, list(rows[:, :-1].T), rows[:, -1], np.arange(len(rows) + 1))


def _write_lines(lead: str, columns: list[np.ndarray], members: np.ndarray,
                 eptr: np.ndarray) -> str:
    """A line per row ``i``: ``lead``, the row's entry of every column, then
    ``members[eptr[i]:eptr[i + 1]]``, written as :func:`_words` writes them;
    in blocks of about ``_WRITE_BLOCK`` words (:func:`_lines`)."""
    count = len(eptr) - 1
    line_words = eptr + len(columns) * np.arange(count + 1)  # words before each line
    cuts = np.searchsorted(line_words, np.arange(0, line_words[-1], _WRITE_BLOCK)).tolist()
    text = bytearray()
    for a, b in itertools.pairwise(sorted({*cuts, count})):
        text += memoryview(_lines(lead, [column[a:b] for column in columns],
                                  members[eptr[a]:eptr[b]], eptr[a:b + 1] - eptr[a]))
    return text.decode("ascii")


def _lines(lead: str, columns: list[np.ndarray], members: np.ndarray,
           eptr: np.ndarray) -> np.ndarray:
    """The ASCII codes of one block of :func:`_write_lines`.

    Every word's place comes from the word lengths by cumulative sums: the
    members' last characters from one ``cumsum`` over the members, with each
    line's head (``lead`` and the column words, with their spaces) added at
    its first member.
    """
    heads = [_words(column) for column in columns]
    tails = _words(members)
    # Characters of the heads of every line up to each.
    head_chars = np.full(len(eptr) - 1, len(lead) + len(heads), dtype=np.int64)
    for words in heads:
        head_chars += words.lengths
    np.cumsum(head_chars, out=head_chars)
    # A member's last character follows the members up to it, each with its
    # space, and the heads of its line and those before: the heads go in at
    # each line's first member, less 2 for the member's own space and for
    # counting from 0.
    filled = np.flatnonzero(eptr[1:] > eptr[:-1])
    member_last = np.add(tails.lengths, 1, dtype=np.int64)
    member_last[eptr[filled]] += np.diff(head_chars[filled], prepend=2)
    np.cumsum(member_last, out=member_last)
    # Characters of the members of every line up to each, with their spaces;
    # a line with no members repeats the line before.
    through = np.zeros(len(eptr) - 1, dtype=np.int64)
    through[filled] = member_last[eptr[filled + 1] - 1] - head_chars[filled] + 2
    np.maximum.accumulate(through, out=through)
    breaks = head_chars + through - 1
    starts = np.append(0, breaks[:-1] + 1)
    parts, last = [], starts + (len(lead) - 2)
    for words in heads:
        last = last + 1 + words.lengths
        parts.append((words, last))
    text = _fill(int(breaks[-1]) + 1, parts + [(tails, member_last)])
    text[breaks] = ord("\n")
    text[starts[:, None] + np.arange(len(lead))] = np.frombuffer(lead.encode("ascii"), np.uint8)
    return text


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


def _ascii_classes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flags of :func:`_char_classes` for ASCII ``uint8`` codes, by comparison.

    Whitespace is 9-13 and 28-32, line breaks 10-13 and 28-30. Each range is
    one comparison of the codes less the range's first code, an unsigned
    subtraction that wraps every code below it past the range.
    """
    tab, sep = codes - np.uint8(9), codes - np.uint8(28)
    return (tab < 5) | (sep < 5), (codes - np.uint8(10) < 4) | (sep < 3)


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
        space, breaks = _ascii_classes(codes)
    else:
        # Every code point above _LAST_SPACE is a word character: clipped into
        # uint16 as the utf-32 buffer is read, so two bytes per character stay.
        codes = np.minimum(
            np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32),
            _LAST_SPACE + 1, out=np.empty(len(text), dtype=np.uint16), casting="unsafe",
        )
        space, breaks = (table[codes] for table in _char_classes(_LAST_SPACE + 1))
    bounds = np.flatnonzero(np.diff(space, prepend=True, append=True))
    starts, ends = bounds[0::2], bounds[1::2]
    line_ends = np.flatnonzero(breaks)
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
    Words of at most 15 ASCII digits are decoded here, grouped by length:
    one gather per digit column, from the left, with no mask. Every other
    word (signs, ``_``, ``.``, exponents, ``nan``, other scripts' digits,
    longer words) goes through ``kind`` itself, so Python's number rules hold
    throughout. Callers pick an ``invalid`` value that their range check
    rejects, and re-read the reported line for the message.
    """
    lengths = np.minimum(ends - starts, _EXACT_DIGITS + 1).astype(np.uint8)
    order = np.argsort(lengths, kind="stable")  # a radix sort of one byte per word
    group = np.searchsorted(lengths[order], np.arange(_EXACT_DIGITS + 2, dtype=np.uint8)).tolist()
    decoded = np.empty(len(starts), dtype=np.int64)  # in the order of ``order``
    others = [order[group[-1]:]]  # the longer words
    for size, lo, hi in zip(range(1, _EXACT_DIGITS + 1), group[1:], group[2:]):
        if lo == hi:
            continue
        words = order[lo:hi]
        at = starts[words]
        # Column j reads codes[at + j] through a view that starts j later. The
        # unsigned subtraction wraps every non-digit to 10 or more.
        top = digit = codes.take(at) - ord("0")
        value = digit.astype(np.int64 if size > 9 else np.uint32)  # 10**9 < 2**32
        for j in range(1, size):
            digit = codes[j:].take(at) - ord("0")
            np.maximum(top, digit, out=top)
            value *= 10
            value += digit
        decoded[lo:hi] = value
        others.append(words[top >= 10])
    values = np.empty(len(starts), dtype=np.float64 if kind is float else np.int64)
    values[order] = decoded
    others = np.concatenate(others)
    for i, s, e in zip(others.tolist(), starts[others].tolist(), ends[others].tolist()):
        try:
            value = kind(text[s:e])
        except ValueError:
            value = invalid
        if kind is int and not -(1 << 63) <= value < 1 << 63:
            value = invalid
        values[i] = value
    return values


_BLOCK = 1 << 18  # characters per parse block, so that its arrays stay in cache


def _blocks(text: str):
    """``text`` in pieces that end just after the first ``"\\n"`` at or past
    ``_BLOCK`` characters (the last one at the end of the text), so that no
    word and no ``\\r\\n`` break is split."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _BLOCK - 1) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _header(words: list[str], lineno: int) -> tuple[int, int, int]:
    """``(nodes, edges, colors)`` of a header line's words."""
    if len(words) != 4 or words[0] != "ecc":
        raise ParseError("expected header 'ecc <nodes> <edges> <colors>'", lineno)
    try:
        n, m, k = int(words[1]), int(words[2]), int(words[3])
    except ValueError:
        raise ParseError("non-integer header field", lineno) from None
    if min(n, m, k) < 0:
        raise ParseError("negative header field", lineno)
    return n, m, k


def parse_canonical(text: str) -> EdgeColoredHypergraph:
    """Parse canonical text, raising :class:`ParseError` with a line number.

    The text is read in blocks of about ``_BLOCK`` characters, each ending
    after a ``"\\n"`` (:func:`_blocks`), so that every block's arrays stay in
    cache. Each block is one array of code points: whitespace and
    line-break flags give every word's span and each line's word count
    (:func:`_tokenize`), and the edge lines' colors, weights and member ids
    are decoded from their spans (:func:`_convert`) and range-checked as
    flat arrays, with no Python string per word. The first failing line is
    found block by block, and re-read to name its first problem. Only the
    blocks' decoded arrays are kept, and no buffer is sized from the header:
    the 2.6 MB text of a 400k-incidence instance parses in about 26 ms with
    a peak 12 MB above the start (tracemalloc, 2-core host).
    """
    header = None
    n = m = k = 0
    room = 0  # edge lines still declared by the header
    line0 = 0  # lines before the block
    parts = ([], [], [], [])  # members, sizes, colors and weights of each block
    for block in _blocks(text):
        codes, starts, ends, line_ptr = _tokenize(block)
        counts = np.diff(line_ptr)
        first = line_ptr[:-1]  # each line's first word
        filled = np.flatnonzero(counts)
        data = filled[codes[starts[first[filled]]] != ord("#")]
        if header is None and len(data):
            n, m, k = header = _header(_line_words(block, starts, ends, line_ptr, data[0]),
                                       line0 + int(data[0]) + 1)
            room = m
            data = data[1:]
        edge_lines = data[:room]  # a line beyond the declared count is an error in itself
        room -= len(edge_lines)
        full = edge_lines[counts[edge_lines] >= 3]
        sizes = counts[full] - 2
        head = first[full]
        colors = _convert(block, codes, starts[head], ends[head], int, 0)
        weights = _convert(block, codes, starts[head + 1], ends[head + 1], float, math.nan)
        ptr = np.zeros(len(full) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        word = np.repeat(head + 2 - ptr[:-1], sizes) + np.arange(ptr[-1])
        members = _convert(block, codes, starts[word], ends[word], int, -1)

        # The first line that fails: a line past the count, a short or a bad edge line.
        bad_lines = [data[len(edge_lines)]] if len(data) > len(edge_lines) else []
        if len(full) < len(edge_lines):
            bad_lines.append(edge_lines[counts[edge_lines] < 3][0])
        bad = (colors < 1) | (colors > k) | ~((weights >= 0.0) & (weights < math.inf))
        if bad.any():
            bad_lines.append(full[np.argmax(bad)])
        outside = (members < 0) | (members >= n)
        if outside.any():
            bad_lines.append(full[np.searchsorted(ptr, np.argmax(outside), "right") - 1])
        if bad_lines:
            first_bad = int(min(bad_lines))
            if len(data) > len(edge_lines) and first_bad == data[len(edge_lines)]:
                raise ParseError(f"more than the declared {m} edges", line0 + first_bad + 1)
            tokens = _line_words(block, starts, ends, line_ptr, first_bad)
            raise ParseError(_edge_line_error(tokens, n, k), line0 + first_bad + 1)
        for part, a in zip(parts, (members, sizes, colors, weights)):
            part.append(a)
        line0 += len(counts) - 1
    if header is None:
        raise ParseError("empty input, no header found")
    if room:
        raise ParseError(f"header declares {m} edges but file has {m - room}")
    columns = []
    for part in parts:  # each column's blocks are freed once it is gathered
        columns.append(np.concatenate(part))
        part.clear()
    return _from_own_flat(n, k, *columns)


_INT64_MIN = -(1 << 63)


def parse_int_words(text: str) -> list[int]:
    """``[int(word) for word in text.split()]``, decoded by :func:`_convert`.

    Only the words that do not fit in 64 bits, or read as ``-2**63``, go
    through ``int()`` again here; the first word that is no integer raises
    :class:`ParseError` at its line, numbered as ``str.splitlines`` numbers them.
    """
    codes, starts, ends, line_ptr = _tokenize(text)
    values = _convert(text, codes, starts, ends, int, _INT64_MIN)
    words = values.tolist()
    for i in np.flatnonzero(values == _INT64_MIN).tolist():
        word = text[starts[i]:ends[i]]
        try:
            words[i] = int(word)
        except ValueError:
            line = int(np.searchsorted(line_ptr, i, side="right"))
            raise ParseError(f"non-integer token {word!r}", line) from None
    return words


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
    h = _from_own_flat(num_nodes, num_colors, edges.values - 1, edges.counts, labels.values,
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
    if too_big := _too_big(n := k * (k - 1) // 2, k):
        raise ValueError(f"gap construction with k = {k}: {too_big}")
    # Edge c meets color o at node (min(c, o), max(c, o)); pairs go in lexicographic order.
    c = np.repeat(np.arange(k), k - 1)
    o = np.tile(np.arange(k - 1), k)
    o += o >= c
    lo, hi = np.minimum(c, o), np.maximum(c, o)
    members = lo * (2 * k - 1 - lo) // 2 + hi - lo - 1
    return _from_own_flat(n, k, members, np.full(k, k - 1), np.arange(1, k + 1), np.ones(k))


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
    if not 2 <= max_size < 2**63:
        raise ValueError("need 2 <= max_size < 2**63")
    if k < 1:
        raise ValueError("need k >= 1")
    if too_big := _too_big(n, k):
        raise ValueError(f"random instance with n = {n}, k = {k}: {too_big}")
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
    h = _from_own_flat(n, k, members, take, colors, np.ones(m))
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
