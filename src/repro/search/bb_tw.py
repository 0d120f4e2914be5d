"""BB-tw: depth-first branch and bound for treewidth (thesis §4.4.1).

This is the QuickBB / BB-tw style baseline that A*-tw is compared against
in Table 5.1.  It explores the same elimination-ordering search tree as
A*-tw but depth-first with an incumbent upper bound:

* initial upper bound from the best greedy ordering (min-fill et al.),
* per-node values g (partial width), h (lower bound of the remaining
  graph) and f = max(g, h, parent f); subtrees with ``f >= ub`` are cut,
* PR 1 closes subtrees whose completions cannot beat ``g``,
* PR 2 skips swap-equivalent sibling branches,
* simplicial / strongly-almost-simplicial reductions force moves.

Being depth-first, it uses O(n) memory where A* may use exponential
memory — the classic trade-off the thesis discusses (§4.2).  The loop
itself is :func:`~.ordering_search.depth_first`.
"""

from __future__ import annotations

import random

from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from .astar_tw import treewidth_search
from .common import SearchBudget, SearchResult
from .ordering_search import depth_first


def branch_and_bound_treewidth(
    structure: Graph | BitGraph | Hypergraph,
    budget: SearchBudget | None = None,
    rng: random.Random | None = None,
    use_reductions: bool = True,
    use_pr2: bool = True,
    child_lower_bound: str = "mmw",
) -> SearchResult:
    """Exact treewidth by depth-first branch and bound.

    Anytime: an interrupted run reports the incumbent upper bound and,
    as its lower bound, the root bound or an adopted external one.

    Runs on :class:`BitGraph` with the cost model and remaining-vertex
    caches of :func:`~repro.search.astar_tw.astar_treewidth`.
    """
    return treewidth_search(
        depth_first, "bb-tw", structure, budget, rng, child_lower_bound,
        use_reductions=use_reductions, use_pr2=use_pr2,
    )
