"""Shared machinery for the generalized and fractional hypertree width
searches (BB-ghw, Chapter 8; A*-ghw, Chapter 9; A*-fhw).

The searches walk the elimination-ordering tree of the primal graph.
The cost of a partial ordering is the largest bag cost of any
elimination bag produced so far (Definition 17's ``width(σ, H)``, which
Chapter 3 proves reaches ``ghw(H)`` for some ordering).  The *measure*
decides what a bag costs: ``"integral"`` is the exact set-cover size
(ghw); ``"fractional"`` is the exact rational LP optimum of
:mod:`repro.setcover.fractional` (fhw) — same search tree, rational
costs, so ``astar_fhw`` differs from ``astar_ghw`` only in the measure
and its root lower bound.  Exact covers come from the bitmask cover
engine (:class:`repro.setcover.bitcover.BitCoverEngine`) — bags arrive
as integer masks straight off the BitGraph kernel and repeat queries
are answered through the dominance cache.

The heuristic ``h`` of a node combines a treewidth lower bound of the
remaining (filled) graph with the k-set-cover bound of §8.1: some future
bag has at least ``mmw + 1`` vertices and hyperedges contribute at most
``rank`` of them each.  The rank restricted to the remaining vertex set
is a popcount over precomputed edge masks, memoized per remaining set
(siblings ask about the same set).

A PR 1 analogue closes subtrees: every future bag is a subset of the
remaining vertex set R, and any cover of R covers all of its subsets, so
``max(g, cover(R))`` bounds every completion — when ``cover(R) <= g``
the node is a goal of width exactly ``g``.  Callers pass that ``g`` as
``good_enough`` so a dominance answer of at most ``g`` closes the
subtree without running a cover.
"""

from __future__ import annotations

import math
import random

from fractions import Fraction

from ..bounds.ghw_lower import ghw_lower_bound
from ..bounds.lower import minor_min_width
from ..bounds.upper import best_heuristic_ordering
from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.graph import Vertex
from ..hypergraph.hypergraph import Hypergraph
from ..setcover.bitcover import BitCoverEngine
from ..telemetry import Metrics
from ..widths import Width, as_width
from .common import SearchBudget, SearchResult, SearchStats
from .ordering_search import run_ordering_search
from .pruning import pr2_rank
from .reductions import find_simplicial, find_strongly_almost_simplicial


class GhwSearchContext:
    """Bag-cover bookkeeping shared by the ghw searches.

    Every cover query goes through one
    :class:`~repro.setcover.bitcover.BitCoverEngine` and its dominance
    cache.  Search states are :class:`~repro.hypergraph.bitgraph.BitGraph`
    primal graphs of the hypergraph, whose vertex bits match the
    engine's; the frozenset-bag methods intern their bag first.  Pass a
    :class:`~repro.telemetry.Metrics` registry to export the engine's
    cache counters.

    ``measure`` selects the bag cost: ``"integral"`` (exact set cover,
    the ghw default) or ``"fractional"`` (the exact rational LP optimum,
    fhw).  Fractional costs are ``int`` or ``Fraction``, never float.
    ``engine`` shares a caller-owned engine (built over ``hypergraph``)
    instead of a fresh one.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        metrics: Metrics | None = None,
        measure: str = "integral",
        engine: BitCoverEngine | None = None,
    ):
        if measure not in ("integral", "fractional"):
            raise ValueError(f"unknown bag-cost measure {measure!r}")
        self.hypergraph = hypergraph
        self.measure = measure
        self.engine = engine or BitCoverEngine(hypergraph, metrics)
        self._rank_memo: dict[int, int] = {}

    # -- covers ---------------------------------------------------------

    def exact_cover_size(self, bag: frozenset) -> int:
        """Minimum cover cardinality of a frozenset bag."""
        return self.engine.exact_size(self.engine.mask_of(bag))

    def greedy_cover_size(self, bag: frozenset) -> int:
        """Size of a valid (greedy-or-better) cover of a frozenset bag."""
        return self.engine.greedy_size(self.engine.mask_of(bag))

    def bag_cost(self, bag: frozenset) -> Width:
        """The measure's cost of a frozenset bag: exact cover size for
        ``"integral"``, LP optimum for ``"fractional"``."""
        return self._mask_cost(self.engine.mask_of(bag))

    def _mask_cost(self, mask: int) -> Width:
        if self.measure == "fractional":
            return self.engine.fractional_size(mask)
        return self.engine.exact_size(mask)

    # -- node values ----------------------------------------------------

    def child_cost(self, graph: BitGraph, vertex: Vertex) -> Width:
        """Bag cost of eliminating ``vertex`` from the current graph
        state (the bag is ``{v} ∪ N(v)``), under the context's measure."""
        return self._mask_cost(
            graph.neighbors_mask(vertex) | (1 << graph.bit(vertex))
        )

    def remaining_rank(self, remaining: frozenset | int) -> int:
        """Largest hyperedge restriction to the remaining vertices
        (a frozenset or an interned mask), memoized per remaining set."""
        mask = (
            remaining
            if isinstance(remaining, int)
            else self.engine.mask_of(remaining)
        )
        best = self._rank_memo.get(mask)
        if best is None:
            best = self.engine.restricted_rank(mask)
            self._rank_memo[mask] = best
        return best

    def heuristic(self, graph: BitGraph) -> Width:
        """Admissible lower bound for the remaining subproblem:
        ``ceil((mmw(G) + 1) / rank)`` with the rank restricted to the
        remaining vertices (tw-ksc-width, §8.1, applied node-wise).

        Under the fractional measure the ceiling is dropped — some
        future bag has ``mmw + 1`` vertices and a fractional cover of a
        ``b``-vertex bag weighs at least ``b / rank``, so the raw
        ``Fraction`` is the (tighter-typed) admissible bound."""
        if len(graph) == 0:
            return 0
        mmw = minor_min_width(graph)
        rank = self.remaining_rank(graph.present_mask)
        if self.measure == "fractional":
            return max(1, as_width(Fraction(mmw + 1, rank)))
        return max(1, math.ceil((mmw + 1) / rank))

    def completion_bound(
        self, graph: BitGraph, good_enough: int | None = None
    ) -> Width:
        """Upper bound on the largest cover any completion from this
        graph state can require: a cover of the whole remaining vertex
        set covers every future bag.  ``good_enough`` (the caller's
        current width ``g``) lets a dominance answer of at most that
        value close the subtree without running a cover.

        Under the fractional measure the bound is the exact LP optimum
        of the remaining set (fractional covers restrict to subsets just
        like integral ones, and the LP layer has its own dominance
        cache, so ``good_enough`` is not needed to stay cheap)."""
        if self.measure == "fractional":
            return self.engine.fractional_size(graph.present_mask)
        return self.engine.upper_size(graph.present_mask, good_enough)


def initial_ghw_bounds(
    hypergraph: Hypergraph, context: GhwSearchContext, ordering: list[Vertex]
) -> Width:
    """Exact ``width(σ, H)`` of a heuristic ordering under the context's
    measure — the searches' initial upper bound (achievable, hence
    sound).  An ``int`` for integral contexts, ``int | Fraction`` for
    fractional ones."""
    from ..decomposition.elimination import elimination_bags

    bags = elimination_bags(hypergraph, ordering)
    width: Width = 0
    for bag in bags.values():
        size = context.bag_cost(bag)
        if size > width:
            width = size
    return width


class GhwCosts:
    """The ghw / fhw cost model of the ordering searches (see
    :mod:`.ordering_search`): a vertex costs the cover of its bag under
    the context's measure, and a cover of the remaining vertex set
    bounds every completion.  There is no per-child bound: a cover query
    per generated child would change the search trees.  The reduction is
    the simplicial rule, plus the strongly-almost-simplicial rule when
    ``use_sas`` is set (soundness: :mod:`.bb_ghw`)."""

    def __init__(
        self, context: GhwSearchContext, graph: BitGraph, use_sas: bool
    ):
        self.context = context
        self.use_sas = use_sas
        self.cost = context.child_cost
        self.h = context.heuristic
        self.rank = pr2_rank(graph.adjacency_masks()[1])

    def completion(self, graph: BitGraph, g: Width) -> Width:
        return self.context.completion_bound(graph, good_enough=g)

    def child_bound(self, g: Width, remaining: int) -> None:
        return None

    def reducible(self, graph: BitGraph, bound: Width) -> Vertex | None:
        vertex = find_simplicial(graph)
        if vertex is None and self.use_sas:
            vertex = find_strongly_almost_simplicial(graph, bound)
        return vertex


def ghw_search(
    driver,
    algo: str,
    hypergraph: Hypergraph,
    budget: SearchBudget | None,
    rng: random.Random | None,
    measure: str = "integral",
    metrics: Metrics | None = None,
    engine: BitCoverEngine | None = None,
    use_sas: bool = False,
    **options,
) -> SearchResult:
    """Run an ordering-search driver for ghw (``measure="integral"``) or
    fhw (``"fractional"``).  The root upper bound is the best greedy
    ordering's width under the measure; the root lower bound is
    :func:`~repro.bounds.ghw_lower.ghw_lower_bound` for ghw and the
    context's own heuristic for fhw (fhw <= ghw, so the ghw bound is not
    sound there)."""
    isolated = hypergraph.isolated_vertices()
    if isolated:
        kind = "fractional" if measure == "fractional" else "generalized"
        raise ValueError(
            f"hypergraph has isolated vertices {sorted(map(repr, isolated))}; "
            f"no {kind} hypertree decomposition exists"
        )
    if hypergraph.num_edges == 0:
        return SearchResult(
            0, 0, hypergraph.vertex_list(), True, SearchStats()
        )
    graph = BitGraph.from_hypergraph(hypergraph)
    context = GhwSearchContext(
        hypergraph, metrics=metrics, measure=measure, engine=engine
    )
    if graph.num_vertices <= 1:
        return SearchResult(1, 1, graph.vertex_list(), True, SearchStats())
    if measure == "fractional":
        lb = context.heuristic(graph)
    else:
        lb = ghw_lower_bound(hypergraph, rng)
    ub_ordering, _tw = best_heuristic_ordering(hypergraph, rng)
    ub = initial_ghw_bounds(hypergraph, context, ub_ordering)
    return run_ordering_search(
        driver, GhwCosts(context, graph, use_sas), graph, lb, ub,
        ub_ordering, budget, algo, {"edges": hypergraph.num_edges},
        **options,
    )
