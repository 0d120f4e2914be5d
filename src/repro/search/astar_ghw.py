"""A*-ghw: an A* algorithm for generalized hypertree width (Chapter 9).

Best-first counterpart of BB-ghw over the same search space with the same
node values: g = largest exact bag-cover size along the partial ordering,
h = node-wise tw-ksc-width bound of the remaining graph, and
f = max(g, h, parent f).  Since h is admissible and f monotone, popped
f-values never decrease — interrupted runs therefore report the last
popped f as a proven ghw lower bound, the anytime behaviour highlighted
in Tables 9.1–9.2.  The loop itself is
:func:`~.ordering_search.best_first` over
:class:`~.ghw_common.GhwCosts`.
"""

from __future__ import annotations

import random

from ..hypergraph.hypergraph import Hypergraph
from ..telemetry import Metrics
from .common import SearchBudget, SearchResult
from .ghw_common import ghw_search
from .ordering_search import best_first


def astar_ghw(
    hypergraph: Hypergraph,
    budget: SearchBudget | None = None,
    rng: random.Random | None = None,
    use_reductions: bool = True,
    use_sas: bool = False,
    use_pr2: bool = True,
    metrics: Metrics | None = None,
) -> SearchResult:
    """Compute ``ghw(H)`` with A* (exact when the budget allows; anytime
    upper/lower bounds otherwise).

    ``metrics`` receives the cover engine's cache counters.
    """
    return ghw_search(
        best_first, "astar-ghw", hypergraph, budget, rng, metrics=metrics,
        use_sas=use_sas, use_reductions=use_reductions, use_pr2=use_pr2,
    )
