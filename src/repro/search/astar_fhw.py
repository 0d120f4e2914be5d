"""A*-fhw: fractional hypertree width over elimination orderings.

The fhw analogue of :mod:`.astar_ghw`, and deliberately almost nothing
but a re-instantiation of it: the search walks the *same* elimination
tree (:func:`~.ordering_search.best_first` over
:class:`~.ghw_common.GhwCosts`) with a
:class:`~repro.search.ghw_common.GhwSearchContext` whose measure is
``"fractional"`` — every bag costs its exact rational LP optimum
(:mod:`repro.setcover.fractional`) instead of its minimum integral
cover.  Widths are ``int`` or ``Fraction``, never float.

Soundness notes relative to the ghw search:

* ``width_f(σ, H) = max_bag ρ*(bag)`` over elimination orderings reaches
  ``fhw(H)``: Theorem 3's argument only uses that the bag cost is a
  monotone function of the bag's vertex set, which ``ρ*`` is.
* The PR 2 swap-equivalence rule and the simplicial reduction carry over
  for the same reason (they equate/eliminate states by bag *sets*, not
  by costs).  The strongly-almost-simplicial rule is proven against
  integral widths only, so ``astar_fhw`` never enables it.
* ``ghw_lower_bound`` is *not* sound for fhw (fhw <= ghw); the root
  lower bound is the context's own heuristic — ``(mmw + 1) / rank``
  without the integral ceiling, and at least 1 once any edge exists.
"""

from __future__ import annotations

import random

from ..hypergraph.hypergraph import Hypergraph
from ..setcover.bitcover import BitCoverEngine
from ..setcover.fractional import fractional_set_cover
from ..telemetry import Metrics
from ..widths import Width, as_width
from .common import SearchBudget, SearchResult, brute_force_elimination_width
from .ghw_common import ghw_search
from .ordering_search import best_first


def astar_fhw(
    hypergraph: Hypergraph,
    budget: SearchBudget | None = None,
    rng: random.Random | None = None,
    use_reductions: bool = True,
    use_pr2: bool = True,
    metrics: Metrics | None = None,
    engine: BitCoverEngine | None = None,
) -> SearchResult:
    """Compute ``fhw(H)`` with A* (exact when the budget allows; anytime
    rational upper/lower bounds otherwise).

    ``metrics`` receives the ``cover.fractional.*`` counters of the
    engine's dominance-cached fractional layer.  ``engine`` shares a
    caller-owned cover engine, whose solved LPs can then certify the
    result (``fhd_from_ordering(..., engine=engine)``).
    """
    return ghw_search(
        best_first, "astar-fhw", hypergraph, budget, rng,
        measure="fractional", metrics=metrics, engine=engine,
        use_reductions=use_reductions, use_pr2=use_pr2,
    )


def brute_force_fhw(hypergraph: Hypergraph) -> Width:
    """Exact fhw over all elimination orderings with exact frozenset LP
    covers — reference oracle for tests and the fuzzer (a DP over vertex
    subsets; small inputs only)."""
    if hypergraph.num_vertices > 8:
        raise ValueError("brute force fhw is limited to 8 vertices")
    if hypergraph.num_edges == 0:
        return 0
    return brute_force_elimination_width(
        hypergraph.primal_graph(),
        lambda bag: as_width(fractional_set_cover(bag, hypergraph)[0]),
    )
