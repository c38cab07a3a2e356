"""Minimum edge-colored clustering toolkit.

Clustering nodes of an edge-colored hypergraph into one cluster per color so
that as little edge weight as possible is mis-colored: LP relaxations with
optimal interval rounding, linear-time combinatorial 2-approximations,
approximation-preserving reductions to vertex cover and multiway cut, exact
brute-force oracles, and exact verification of the dual certificates behind
the 4/3 rounding guarantee for graphs.

The package imports lazily: ``import minecc`` loads no submodule (and no
numpy), and each name below loads its own module when it is first read, so
``from minecc import X`` costs only what ``X`` needs.
"""

import importlib
import sys
import types

# Each exported name, by the submodule that defines it.
_EXPORTS = {
    "combinatorial": (
        "DeletionSet", "a_posteriori_ratio", "coloring_from_deletions", "find_bad_pair",
        "hybrid", "majority_vote", "match_coloring", "mv_lower_bound", "pitt_coloring",
    ),
    "hypergraph": (
        "ColorSortedIncidence", "CostReport", "EdgeColoredHypergraph", "accuracy",
        "build_incidence", "hypergraph", "objective_cost", "validate",
    ),
    "instances": (
        "ParseError", "PlantedInstance", "gen_integrality_gap", "gen_random", "gen_star",
        "parse_benchmark", "parse_canonical", "write_canonical",
    ),
    "lp": ("LinearProgram", "LpResult", "export_lp_text", "parse_primal_text", "solve"),
    "oracle": ("CapExceededError", "OracleResult", "bruteforce_ecc", "bruteforce_vc"),
    "reductions": (
        "CoverReduction", "TerminalHypergraph", "WeightedGraph", "cover_to_deletions",
        "deletions_to_cover", "ecc_to_hyper_mc", "ecc_to_node_mc", "ecc_to_vertex_cover",
        "vertex_cover_to_ecc",
    ),
    "relaxations": ("EccLpSolution", "build_ecc_lp", "build_nodemc_lp", "extract_ecc_solution"),
    "rounding": (
        "Interval", "IntervalChoice", "best_interval", "estimate_mistake_prob",
        "gen_color_round", "make_synthetic_solution", "rounding_invariant_violations",
        "simple_round",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached here: each read sees the owning module's current binding.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # The import system binds each loaded submodule on its package. The
        # function ``hypergraph`` keeps that name, not its module.
        if name in _OWNER and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
