"""Exact search algorithms: A*-tw (Ch. 5), BB-tw (§4.4), BB-ghw (Ch. 8),
A*-ghw (Ch. 9) and A*-fhw — one elimination-ordering search
(:mod:`.ordering_search`) under different bag costs — plus their shared
reductions and pruning rules, and the hypertree-width deciders
det-k-decomp and opt-k-decomp."""

from .astar_fhw import astar_fhw, brute_force_fhw
from .astar_ghw import astar_ghw
from .astar_tw import astar_treewidth, brute_force_treewidth
from .bb_ghw import branch_and_bound_ghw, brute_force_ghw
from .bb_tw import branch_and_bound_treewidth
from .detkdecomp import LadderExhausted, det_k_decomp, hypertree_width
from .optkdecomp import OptKResult, opt_k_decomp, opt_k_hypertree_width
from .common import (
    BoundHooks,
    BoundsConverged,
    BudgetExceeded,
    GraphReplayer,
    RaceStopped,
    SearchBudget,
    SearchResult,
    SearchStats,
)
from .pruning import (
    default_precedes,
    pr1_closes_subtree,
    pr1_effective_width,
    swap_equivalent,
)
from .reductions import (
    find_reducible,
    find_simplicial,
    find_strongly_almost_simplicial,
    reduce_graph,
)

__all__ = [
    "BoundHooks",
    "BoundsConverged",
    "BudgetExceeded",
    "GraphReplayer",
    "LadderExhausted",
    "OptKResult",
    "RaceStopped",
    "SearchBudget",
    "SearchResult",
    "SearchStats",
    "astar_fhw",
    "astar_ghw",
    "astar_treewidth",
    "branch_and_bound_ghw",
    "branch_and_bound_treewidth",
    "brute_force_fhw",
    "brute_force_ghw",
    "brute_force_treewidth",
    "default_precedes",
    "det_k_decomp",
    "hypertree_width",
    "opt_k_decomp",
    "opt_k_hypertree_width",
    "find_reducible",
    "find_simplicial",
    "find_strongly_almost_simplicial",
    "pr1_closes_subtree",
    "pr1_effective_width",
    "reduce_graph",
    "swap_equivalent",
]
