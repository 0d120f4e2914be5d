"""BB-ghw: branch and bound for generalized hypertree width (Chapter 8).

Depth-first search over elimination orderings of the primal graph; a
node's cost is the largest exact bag-cover size so far, its heuristic the
node-wise tw-ksc-width bound (§8.1), pruned by:

* f-pruning against the incumbent (``f = max(g, h, parent f) >= ub``),
* the PR 1 analogue (cover of the whole remaining vertex set closes the
  subtree — §8.3),
* PR 2 swap equivalence (sound for ghw: swapped orderings produce the
  same bags — §8.3),
* the simplicial-vertex reduction (§8.2; sound for ghw because a
  simplicial neighborhood is a primal clique that some bag of every GHD
  contains).  The strongly-almost-simplicial rule is available behind
  ``use_sas`` for fidelity with the thesis, default off because its ghw
  soundness argument is weaker.

The loop itself is :func:`~.ordering_search.depth_first` over
:class:`~.ghw_common.GhwCosts`.
"""

from __future__ import annotations

import random

from ..hypergraph.hypergraph import Hypergraph
from ..setcover.exact import exact_set_cover
from ..telemetry import Metrics
from .common import SearchBudget, SearchResult, brute_force_elimination_width
from .ghw_common import ghw_search
from .ordering_search import depth_first


def branch_and_bound_ghw(
    hypergraph: Hypergraph,
    budget: SearchBudget | None = None,
    rng: random.Random | None = None,
    use_reductions: bool = True,
    use_sas: bool = False,
    use_pr2: bool = True,
    metrics: Metrics | None = None,
) -> SearchResult:
    """Compute ``ghw(H)`` by branch and bound (exact when the budget
    allows; anytime bounds otherwise).

    ``metrics`` receives the cover engine's cache counters.
    """
    return ghw_search(
        depth_first, "bb-ghw", hypergraph, budget, rng, metrics=metrics,
        use_sas=use_sas, use_reductions=use_reductions, use_pr2=use_pr2,
    )


def brute_force_ghw(hypergraph: Hypergraph) -> int:
    """Exact ghw over all elimination orderings with exact frozenset
    covers — reference oracle for tests and the fuzzer (a DP over vertex
    subsets; small inputs only).

    Sound and complete by Theorem 3: some ordering reaches ghw(H).
    """
    if hypergraph.num_vertices > 8:
        raise ValueError("brute force ghw is limited to 8 vertices")
    if hypergraph.num_edges == 0:
        return 0
    return brute_force_elimination_width(
        hypergraph.primal_graph(),
        lambda bag: len(exact_set_cover(bag, hypergraph)),
    )
