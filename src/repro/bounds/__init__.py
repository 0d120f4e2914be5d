"""Upper- and lower-bound heuristics for treewidth and generalized
hypertree width."""

from .ghw_lower import (
    clique_cover_lower_bound,
    ghw_lower_bound,
    tw_ksc_width,
)
from .mcs import (
    chordal_treewidth,
    fill_in_of_ordering,
    is_chordal,
    is_perfect_elimination_ordering,
    mcs_ordering,
)
from .lower import (
    degeneracy_lower_bound,
    gamma_r,
    minor_gamma_r,
    minor_min_width,
    treewidth_lower_bound,
)
from .upper import (
    best_heuristic_ordering,
    min_degree_ordering,
    min_fill_ordering,
    min_width_ordering,
    treewidth_upper_bound,
)

__all__ = [
    "best_heuristic_ordering",
    "chordal_treewidth",
    "clique_cover_lower_bound",
    "fill_in_of_ordering",
    "is_chordal",
    "is_perfect_elimination_ordering",
    "mcs_ordering",
    "degeneracy_lower_bound",
    "gamma_r",
    "ghw_lower_bound",
    "min_degree_ordering",
    "min_fill_ordering",
    "min_width_ordering",
    "minor_gamma_r",
    "minor_min_width",
    "treewidth_lower_bound",
    "treewidth_upper_bound",
    "tw_ksc_width",
]
