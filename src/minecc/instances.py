"""Instance parsing, serialization, and generators.

Two text formats are supported:

- the canonical format: a header line ``ecc <num_nodes> <num_edges> <num_colors>``
  followed by one line per edge, ``<color> <weight> <node ids...>`` with 0-based
  ids; lines starting with ``#`` are ignored;
- the published benchmark two-file format: an edges file with one
  whitespace/comma-separated list of 1-based node ids per line, a labels file
  with one integer color per line, and an optional node-label file holding the
  ground-truth node colors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import EdgeColoredHypergraph, from_flat, hypergraph


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


def _convert(tokens: list[str], kind, invalid) -> np.ndarray:
    """Tokens through ``int`` or ``float``; a token that fails becomes ``invalid``.

    So do integers beyond int64. Callers pick an ``invalid`` value that their
    range check rejects, and re-read the reported line for the message.
    """
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.fromiter(map(kind, tokens), dtype=dtype, count=len(tokens))
    except (ValueError, OverflowError):
        pass
    values = np.full(len(tokens), invalid, dtype=dtype)
    for i, token in enumerate(tokens):
        try:
            value = kind(token)
        except ValueError:
            continue
        if kind is float or -(1 << 63) <= value < 1 << 63:
            values[i] = value
    return values


def parse_canonical(text: str) -> EdgeColoredHypergraph:
    """Parse canonical text, raising :class:`ParseError` with a line number.

    One split of the whole text and a token count per line; the edge lines'
    colors, weights and member ids are then converted and range-checked as
    flat arrays. When some edge line is bad, the first one is re-read to name
    its first problem.
    """
    lines = text.splitlines()
    counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
    words = np.array(text.split(), dtype=object)  # line breaks are whitespace too
    starts = np.cumsum(counts) - counts
    filled = np.flatnonzero(counts)
    comment = np.array([w[0] == "#" for w in words[starts[filled]].tolist()], dtype=bool)
    data = filled[~comment]
    if not len(data):
        raise ParseError("empty input, no header found")
    lineno = int(data[0]) + 1
    header = lines[lineno - 1].split()
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
    colors = _convert(words[starts[full]].tolist(), int, 0)
    weights = _convert(words[starts[full] + 1].tolist(), float, math.nan)
    in_full = np.zeros(len(lines), dtype=bool)
    in_full[full] = True
    is_member = np.repeat(in_full, counts)
    is_member[starts[full]] = is_member[starts[full] + 1] = False
    members = _convert(words[is_member].tolist(), int, -1)

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
        first = int(min(bad_lines))
        if len(data) > m + 1 and first == data[m + 1]:
            raise ParseError(f"more than the declared {m} edges", first + 1)
        raise ParseError(_edge_line_error(lines[first].split(), n, k), first + 1)
    if len(edge_lines) != m:
        raise ParseError(f"header declares {m} edges but file has {len(edge_lines)}")
    return from_flat(n, k, members, sizes, colors, weights)


def _int_tokens(raw: str, lineno: int, what: str) -> list[int]:
    try:
        return [int(t) for t in raw.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"non-integer token in {what}", lineno) from None


def parse_benchmark(
    edges_text: str,
    labels_text: str,
    node_labels_text: str | None = None,
) -> tuple[EdgeColoredHypergraph, list[int] | None]:
    """Parse the benchmark two-file format, returning ``(instance, truth-or-None)``.

    Node ids are 1-based in the files and shifted to 0-based; all edges get unit
    weight; the number of colors is the maximum label observed.
    """
    edge_lines = [
        (i, line) for i, line in enumerate(edges_text.splitlines(), start=1) if line.strip()
    ]
    label_lines = [
        (i, line) for i, line in enumerate(labels_text.splitlines(), start=1) if line.strip()
    ]
    if len(edge_lines) != len(label_lines):
        raise ParseError(
            f"edges file has {len(edge_lines)} lines but labels file has {len(label_lines)}"
        )
    members_per_edge: list[list[int]] = []
    max_id = 0
    for lineno, raw in edge_lines:
        ids = _int_tokens(raw, lineno, "edges file")
        if not ids:
            raise ParseError("empty edge", lineno)
        if min(ids) < 1:
            raise ParseError("node ids are 1-based; found id < 1", lineno)
        max_id = max(max_id, max(ids))
        members_per_edge.append(ids)
    colors: list[int] = []
    for lineno, raw in label_lines:
        tokens = _int_tokens(raw, lineno, "labels file")
        if len(tokens) != 1:
            raise ParseError("expected one label per line", lineno)
        if tokens[0] < 1:
            raise ParseError("labels are 1-based; found label < 1", lineno)
        colors.append(tokens[0])

    truth: list[int] | None = None
    num_colors = max(colors, default=0)
    num_nodes = max_id
    if node_labels_text is not None:
        truth = []
        for lineno, raw in enumerate(node_labels_text.splitlines(), start=1):
            if not raw.strip():
                continue
            tokens = _int_tokens(raw, lineno, "node labels file")
            if len(tokens) != 1:
                raise ParseError("expected one node label per line", lineno)
            truth.append(tokens[0])
        num_nodes = max(num_nodes, len(truth))
        if len(truth) != num_nodes:
            raise ParseError(
                f"node labels file has {len(truth)} lines but instance has {num_nodes} nodes"
            )
        num_colors = max(num_colors, max(truth, default=0))

    edges = [
        (tuple(v - 1 for v in members), color)
        for members, color in zip(members_per_edge, colors)
    ]
    return hypergraph(num_nodes, num_colors, edges), truth


def gen_integrality_gap(k: int) -> EdgeColoredHypergraph:
    """Worst-case LP instance: one edge per color, one shared node per edge pair.

    For ``k >= 3`` this builds C(k,2) nodes indexed by color pairs ``(i, j)``;
    node ``(i, j)`` lies in edges ``i`` and ``j``, every edge has ``k - 1``
    members and unit weight. The best coloring mis-colors all but one edge while
    the fractional relaxation achieves ``k / 2``.
    """
    if k < 3:
        raise ValueError("gap construction needs k >= 3")
    pair_index: dict[tuple[int, int], int] = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            pair_index[(i, j)] = len(pair_index)
    edges = []
    for c in range(1, k + 1):
        members = [idx for (i, j), idx in pair_index.items() if c in (i, j)]
        edges.append((tuple(members), c, 1.0))
    return hypergraph(len(pair_index), k, edges)


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
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if max_size < 2:
        raise ValueError("need max_size >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if not (0.0 <= noise <= 1.0):
        raise ValueError("noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    truth = rng.integers(1, k + 1, size=n)
    clusters = [np.flatnonzero(truth == c) for c in range(1, k + 1)]
    usable = [c for c in range(k) if len(clusters[c]) >= 2]
    # The cluster that edges drawn for cluster c use, and its member pool.
    target = [usable[c % len(usable)] if len(clusters[c]) < 2 and usable else c for c in range(k)]
    all_nodes = np.arange(n)
    pools = [clusters[c] if len(clusters[c]) >= 2 else all_nodes for c in target]

    sizes = rng.integers(2, max_size + 1, size=m)
    chosen = rng.integers(0, k, size=m)
    noisy = rng.random(m) < noise
    resampled = rng.integers(1, k + 1, size=m)

    parts = [
        _sample_distinct(rng, pools[c], min(size, len(pools[c])))
        for c, size in zip(chosen.tolist(), sizes.tolist())
    ]
    colors = np.where(noisy, resampled, np.array(target)[chosen] + 1)
    members = np.concatenate(parts)
    counts = np.fromiter(map(len, parts), dtype=np.int64, count=m)
    h = from_flat(n, k, members, counts, colors, np.ones(m))
    return PlantedInstance(h, truth.tolist(), noise)


def _sample_distinct(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    if size >= len(pool):
        return pool
    if len(pool) <= 64:
        return rng.choice(pool, size=size, replace=False)
    # Large pool, tiny sample: rejection is far cheaper than a full permutation.
    while True:
        picks = pool[rng.integers(0, len(pool), size=size)]
        if len(set(picks.tolist())) == size:
            return picks
