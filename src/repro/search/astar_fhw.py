"""A*-fhw: fractional hypertree width over elimination orderings.

The fhw analogue of :mod:`.astar_ghw`, and deliberately almost nothing
but a re-instantiation of it: the search walks the *same* elimination
tree (``_astar_ghw_run`` is reused verbatim) with a
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

from ..bounds.upper import best_heuristic_ordering
from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.hypergraph import Hypergraph
from ..setcover.bitcover import BitCoverEngine
from ..setcover.fractional import fractional_set_cover
from ..telemetry import Metrics
from ..widths import Width, as_width
from .astar_ghw import _astar_ghw_run
from .common import (
    SearchBudget,
    SearchResult,
    SearchStats,
    brute_force_elimination_width,
    root_settled,
)
from .ghw_common import GhwSearchContext, initial_ghw_bounds


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
    stats = SearchStats()
    isolated = hypergraph.isolated_vertices()
    if isolated:
        raise ValueError(
            f"hypergraph has isolated vertices {sorted(map(repr, isolated))}; "
            "no fractional hypertree decomposition exists"
        )
    if hypergraph.num_edges == 0:
        return SearchResult(0, 0, hypergraph.vertex_list(), True, stats)
    graph = BitGraph.from_hypergraph(hypergraph)
    context = GhwSearchContext(
        hypergraph, metrics=metrics, measure="fractional", engine=engine
    )
    all_vertices = graph.vertex_list()
    if graph.num_vertices <= 1:
        return SearchResult(1, 1, all_vertices, True, stats)

    lb: Width = context.heuristic(graph)
    ub_ordering, _tw = best_heuristic_ordering(hypergraph, rng)
    ub = initial_ghw_bounds(hypergraph, context, ub_ordering)
    if lb >= ub:
        return root_settled(budget, stats, ub, ub_ordering)

    clock = (budget or SearchBudget()).start()
    span = clock.tracer.span(
        "search", algo="astar-fhw", n=graph.num_vertices,
        edges=hypergraph.num_edges, lb=lb, ub=ub,
    )
    with span:
        return _astar_ghw_run(
            graph, clock, stats, context, all_vertices, lb, ub, ub_ordering,
            use_reductions, False, use_pr2,
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
