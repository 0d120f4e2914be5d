"""A*-tw: an A* algorithm for exact treewidth (thesis Chapter 5), and
the treewidth cost model it shares with BB-tw.

The search space is the tree of partial elimination orderings; a
state's cost-so-far ``g`` is the largest elimination degree along its
ordering and its heuristic ``h`` a treewidth lower bound of the
remaining graph (§5.1).  Simplicial / strongly-almost-simplicial
vertices force a single child (§4.4.3), PR 2 removes swap-equivalent
siblings and PR 1 tightens the incumbent at every child (§4.4.5).  The
loop itself is :func:`~.ordering_search.best_first`.

Anytime behaviour (§5.3): popped f-values are nondecreasing, so when the
budget expires the largest popped ``f`` is a proven treewidth lower
bound, reported in the result.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from ..bounds.lower import minor_gamma_r, minor_min_width
from ..bounds.upper import best_heuristic_ordering
from ..hypergraph.bitgraph import BitGraph, as_bitgraph
from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from .common import (
    SearchBudget,
    SearchResult,
    SearchStats,
    brute_force_elimination_width,
)
from .ordering_search import best_first, run_ordering_search
from .pruning import pr1_effective_width, pr2_rank
from .reductions import find_simplicial, find_strongly_almost_simplicial

LowerBoundName = str

_NO_SAS = object()  # negative strongly-almost-simplicial cache entry


class _KernelCaches:
    """The treewidth cost model of the ordering searches (see
    :mod:`.ordering_search`), with per-run memoization keyed on the
    remaining-vertex bitmask.

    A vertex costs its degree; PR 1 bounds every completion by
    ``n' - 1`` and is applied to each child as the best-first search
    generates it.

    Partial orderings over the same vertex *set* leave the same residual
    graph (elimination is order-independent on the filled result), so
    the lower bound ``h`` and the reduction scan are shared across all
    states — and all sibling subtrees — that reach the same mask.  The
    strongly-almost-simplicial cache exploits that the scan is
    degree-ascending: a positive answer ``(vertex, degree)`` is the
    (degree, repr)-first almost-simplicial vertex, so it answers *every*
    bound exactly (``vertex`` if ``degree <= bound`` else ``None``); a
    negative answer is recorded with the bound it scanned up to and
    covers every query at or below it.  Answers equal the uncached
    ``h_fn`` and :func:`~repro.search.reductions.find_reducible`
    (property-tested).
    """

    __slots__ = ("h_fn", "h_cache", "simplicial", "sas", "rank")

    def __init__(self, h_fn: Callable[[Graph], int], graph: BitGraph):
        self.h_fn = h_fn
        self.h_cache: dict[int, int] = {}
        self.simplicial: dict[int, object] = {}
        self.sas: dict[int, tuple | None] = {}
        # PR 2 tie-break ranks, precomputed over the interned labels.
        self.rank = pr2_rank(graph.adjacency_masks()[1])

    def cost(self, graph: BitGraph, vertex) -> int:
        return graph.degree(vertex)

    def completion(self, graph: BitGraph, g: int) -> int:
        return len(graph) - 1

    def child_bound(self, g: int, remaining: int) -> int:
        return pr1_effective_width(g, remaining)

    def h(self, graph: BitGraph) -> int:
        mask = graph.present_mask
        h = self.h_cache.get(mask)
        if h is None:
            h = self.h_fn(graph)
            self.h_cache[mask] = h
        return h

    def reducible(self, graph: BitGraph, bound: int):
        mask = graph.present_mask
        try:
            vertex = self.simplicial[mask]
        except KeyError:
            vertex = find_simplicial(graph)
            self.simplicial[mask] = vertex
        if vertex is not None:
            return vertex
        entry = self.sas.get(mask)
        if entry is not None:
            cached, covered = entry
            if cached is not _NO_SAS:
                return cached if covered <= bound else None
            if bound <= covered:
                return None
            # A larger bound than any scanned so far: scan again.
        vertex = find_strongly_almost_simplicial(graph, bound)
        if vertex is None:
            self.sas[mask] = (_NO_SAS, bound)
        else:
            self.sas[mask] = (vertex, graph.degree(vertex))
        return vertex


def _child_lower_bound(name: LowerBoundName) -> Callable[[Graph], int]:
    """Resolve the per-child heuristic.  ``mmw`` is the default trade-off;
    ``both`` matches the thesis exactly (max of minor-min-width and
    minor-γ_R); ``none`` disables h (degenerates towards branch and
    bound on g alone)."""
    if name == "mmw":
        return lambda graph: minor_min_width(graph)
    if name == "both":
        return lambda graph: max(minor_min_width(graph), minor_gamma_r(graph))
    if name == "none":
        return lambda graph: 0
    raise ValueError(f"unknown child lower bound {name!r}")


def astar_treewidth(
    structure: Graph | BitGraph | Hypergraph,
    budget: SearchBudget | None = None,
    rng: random.Random | None = None,
    use_reductions: bool = True,
    use_pr2: bool = True,
    child_lower_bound: LowerBoundName = "mmw",
    memoize: bool = False,
) -> SearchResult:
    """Compute the treewidth of a graph (or of a hypergraph, via its
    primal graph — Lemma 1) with A*.

    Returns a :class:`SearchResult`; ``exact`` is True when the treewidth
    was fixed within the budget, otherwise ``lower_bound``/``upper_bound``
    bracket it.

    ``memoize`` enables a transposition table over *eliminated vertex
    sets* (an extension beyond the thesis): two partial orderings over
    the same set leave the same graph, so a state is dominated — and can
    be skipped — when the set was already expanded with a cost-so-far no
    larger than its own.  Exactness is preserved; memory grows with the
    number of distinct expanded sets.

    The search runs on the bitset kernel (:class:`BitGraph`) with a
    per-run lower-bound and reduction cache keyed on the remaining-vertex
    bitmask: states whose partial orderings eliminate the same vertex set
    share one residual graph and therefore one ``h`` evaluation.
    """
    return treewidth_search(
        best_first, "astar-tw", structure, budget, rng, child_lower_bound,
        use_reductions=use_reductions, use_pr2=use_pr2, memoize=memoize,
    )


def treewidth_search(
    driver, algo: str, structure, budget, rng, child_lower_bound, **options
) -> SearchResult:
    """Run an ordering-search driver for treewidth: the root bounds are
    max(minor-min-width, minor-γ_R) and the best greedy ordering."""
    graph = as_bitgraph(structure)
    if graph.num_vertices <= 1:
        return SearchResult(0, 0, graph.vertex_list(), True, SearchStats())
    h_fn = _child_lower_bound(child_lower_bound)
    lb = max(minor_min_width(graph, rng), minor_gamma_r(graph, rng))
    ub_ordering, ub = best_heuristic_ordering(graph, rng)
    return run_ordering_search(
        driver, _KernelCaches(h_fn, graph), graph, lb, ub, ub_ordering,
        budget, algo, **options,
    )


def brute_force_treewidth(graph: Graph) -> int:
    """Exact treewidth by dynamic programming over vertex subsets
    (reference oracle for tests; exponential — use only for small n):
    the largest bag minus one, minimized over all elimination orderings.
    """
    if graph.num_vertices > 20:
        raise ValueError("brute force is limited to 20 vertices")
    return brute_force_elimination_width(graph, lambda bag: len(bag) - 1)
