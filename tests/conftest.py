"""Shared helpers: independent re-implementations used as oracles in tests."""

from __future__ import annotations

import numpy as np
import pytest

from minecc.combinatorial import DeletionSet, _color_survivors, _visit_order
from minecc.hypergraph import (
    ColorSortedIncidence,
    EdgeColoredHypergraph,
    build_incidence,
    hypergraph,
)


def naive_cost(h: EdgeColoredHypergraph, coloring) -> tuple[float, set[int]]:
    """Second, independent objective evaluation (set-based, per edge)."""
    mistakes = set()
    total = 0.0
    for j, e in enumerate(h.edges):
        colors_seen = {coloring[v] for v in e.members}
        if colors_seen != {e.color}:
            mistakes.add(j)
            total += e.weight
    return total, mistakes


def exhaustive_ecc(h: EdgeColoredHypergraph) -> float:
    """Plain exhaustive minimum over all colorings (no pruning); tiny instances only."""
    import itertools

    k, n = h.num_colors, h.num_nodes
    best = float("inf")
    for assignment in itertools.product(range(1, k + 1), repeat=n):
        best = min(best, naive_cost(h, assignment)[0])
    return best


def random_instance(rng: np.random.Generator, n: int, m: int, k: int, max_size: int = 3):
    """Unstructured random instance (not planted), for adversarial-ish coverage."""
    edges = []
    for _ in range(m):
        size = int(rng.integers(1, max_size + 1))
        members = rng.choice(n, size=min(size, n), replace=False)
        edges.append((tuple(int(v) for v in members), int(rng.integers(1, k + 1))))
    return hypergraph(n, k, edges)


def reference_pitt_coloring(
    h: EdgeColoredHypergraph,
    seed: int,
    order_seed: int | None = None,
    incidence: ColorSortedIncidence | None = None,
) -> tuple[DeletionSet, list[int]]:
    """The sampling walk as its own loop; the reference for ``pitt_coloring``."""
    inc = incidence if incidence is not None else build_incidence(h)
    colors = [e.color for e in h.edges]
    weights = [e.weight for e in h.edges]
    deleted = bytearray(len(h.edges))
    rng = np.random.default_rng(seed)
    rand = rng.random
    for v in _visit_order(h.num_nodes, order_seed):
        lst = inc.neighbor_list(v)
        f, b = 0, len(lst) - 1
        while f < b:
            ef, eb = lst[f], lst[b]
            if deleted[ef]:
                f += 1
                continue
            if deleted[eb]:
                b -= 1
                continue
            if colors[ef] == colors[eb]:
                break
            wf, wb = weights[ef], weights[eb]
            if wf + wb <= 0.0:
                deleted[ef] = 1
                deleted[eb] = 1
                f += 1
                b -= 1
            elif rand() < wf / (wf + wb):
                deleted[eb] = 1
                b -= 1
            else:
                deleted[ef] = 1
                f += 1
    dels = DeletionSet.from_flags(h, deleted)
    return dels, _color_survivors(h, deleted)


def reference_match_coloring(
    h: EdgeColoredHypergraph,
    order_seed: int | None = None,
    incidence: ColorSortedIncidence | None = None,
) -> tuple[DeletionSet, list[int], float]:
    """The matching walk as its own loop; the reference for ``match_coloring``."""
    inc = incidence if incidence is not None else build_incidence(h)
    colors = [e.color for e in h.edges]
    weights = [e.weight for e in h.edges]
    deleted = bytearray(len(h.edges))
    bound = 0.0
    for v in _visit_order(h.num_nodes, order_seed):
        lst = inc.neighbor_list(v)
        f, b = 0, len(lst) - 1
        while f < b:
            ef, eb = lst[f], lst[b]
            if deleted[ef]:
                f += 1
                continue
            if deleted[eb]:
                b -= 1
                continue
            if colors[ef] == colors[eb]:
                break
            deleted[ef] = 1
            deleted[eb] = 1
            bound += min(weights[ef], weights[eb])
            f += 1
            b -= 1
    dels = DeletionSet.from_flags(h, deleted)
    return dels, _color_survivors(h, deleted), bound


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
