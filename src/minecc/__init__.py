"""Minimum edge-colored clustering toolkit.

Clustering nodes of an edge-colored hypergraph into one cluster per color so
that as little edge weight as possible is mis-colored: LP relaxations with
optimal interval rounding, linear-time combinatorial 2-approximations,
approximation-preserving reductions to vertex cover and multiway cut, exact
brute-force oracles, and exact verification of the dual certificates behind
the 4/3 rounding guarantee for graphs.
"""

from .combinatorial import (
    DeletionSet,
    LowerBoundBundle,
    a_posteriori_ratio,
    coloring_from_deletions,
    find_bad_pair,
    hybrid,
    majority_vote,
    match_coloring,
    mv_lower_bound,
    pitt_coloring,
)
from .hypergraph import (
    ColorSortedIncidence,
    CostReport,
    EdgeColoredHypergraph,
    accuracy,
    build_incidence,
    hypergraph,
    objective_cost,
    validate,
)
from .instances import (
    ParseError,
    PlantedInstance,
    gen_integrality_gap,
    gen_random,
    gen_star,
    parse_benchmark,
    parse_canonical,
    write_canonical,
)
from .lp import LinearProgram, LpResult, export_lp_text, parse_primal_text, solve
from .oracle import CapExceededError, OracleResult, bruteforce_ecc, bruteforce_vc
from .reductions import (
    CoverReduction,
    TerminalHypergraph,
    WeightedGraph,
    cover_to_deletions,
    deletions_to_cover,
    ecc_to_hyper_mc,
    ecc_to_node_mc,
    ecc_to_vertex_cover,
    vertex_cover_to_ecc,
)
from .relaxations import (
    EccLpSolution,
    build_ecc_lp,
    build_nodemc_lp,
    extract_ecc_solution,
    solution_from_vector,
)
from .rounding import (
    ColorThresholds,
    Interval,
    IntervalChoice,
    best_interval,
    color_thresholds,
    estimate_mistake_prob,
    gen_color_round,
    make_synthetic_solution,
    rounding_invariant_violations,
    simple_round,
)

__version__ = "0.1.0"
