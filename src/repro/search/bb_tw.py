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
memory — the classic trade-off the thesis discusses (§4.2).
"""

from __future__ import annotations

import random
from collections.abc import Callable

from ..bounds.lower import minor_gamma_r, minor_min_width
from ..bounds.upper import best_heuristic_ordering
from ..hypergraph.bitgraph import BitGraph, as_bitgraph
from ..hypergraph.graph import Graph, Vertex
from ..hypergraph.hypergraph import Hypergraph
from .astar_tw import _child_lower_bound, _KernelCaches
from .common import (
    BoundsConverged,
    BudgetExceeded,
    SearchBudget,
    SearchResult,
    SearchStats,
    root_settled,
)
from .pruning import pr1_closes_subtree, pr2_allowed_bit


def branch_and_bound_treewidth(
    structure: Graph | BitGraph | Hypergraph,
    budget: SearchBudget | None = None,
    rng: random.Random | None = None,
    use_reductions: bool = True,
    use_pr2: bool = True,
    child_lower_bound: str = "mmw",
) -> SearchResult:
    """Exact treewidth by depth-first branch and bound.

    Anytime: interrupted runs report the incumbent upper bound; the
    lower bound reported is the smallest ``f`` of any unexplored cut
    branch (everything explored was either expanded or had f >= ub), or
    the initial heuristic bound if the search never completed a level.

    Runs on :class:`BitGraph` with the remaining-vertex-bitmask caches of
    :func:`~repro.search.astar_tw.astar_treewidth`.
    """
    graph = as_bitgraph(structure)
    stats = SearchStats()
    n = graph.num_vertices
    all_vertices = graph.vertex_list()
    if n == 0:
        return SearchResult(0, 0, [], True, stats)
    if n == 1:
        return SearchResult(0, 0, all_vertices, True, stats)

    h_fn = _child_lower_bound(child_lower_bound)
    lb = max(minor_min_width(graph, rng), minor_gamma_r(graph, rng))
    ub_ordering, ub = best_heuristic_ordering(graph, rng)
    if lb >= ub:
        return root_settled(budget, stats, ub, ub_ordering)

    clock = (budget or SearchBudget()).start()
    span = clock.tracer.span(
        "search", algo="bb-tw", n=n, lb=lb, ub=ub
    )
    with span:
        clock.publish_lower(lb)
        clock.publish_upper(ub)
        search = _DepthFirstSearch(
            graph, h_fn, clock, stats, use_reductions, use_pr2, all_vertices
        )
        search.ub = ub
        search.ub_ordering = list(ub_ordering)
        try:
            forced = (
                search.caches.reducible(graph, lb) if use_reductions else None
            )
            if forced is not None:
                stats.reductions_forced += 1
            roots = (forced,) if forced is not None else tuple(all_vertices)
            search.descend(prefix=[], g=0, f=lb, children=roots,
                           reduced=forced is not None)
            # With an external incumbent tighter than ours, subtrees were
            # cut at its value; the DFS then proves tw >= that value while
            # the certificate for the matching upper bound lives in
            # another worker.  Standalone, prune_bound == search.ub and
            # the result is exact as before.
            proven = clock.prune_bound(search.ub)
            clock.publish_lower(proven)
            clock.finish(stats)
            return SearchResult(
                search.ub, proven, search.ub_ordering, proven >= search.ub,
                stats,
            )
        except BoundsConverged:
            clock.finish(stats)
            proven = min(search.converged_lb, search.ub)
            return SearchResult(
                search.ub, proven, search.ub_ordering, proven >= search.ub,
                stats,
            )
        except BudgetExceeded:
            stats.budget_exhausted = True
            best_lb = lb
            if clock.external_lb is not None and clock.external_lb > best_lb:
                best_lb = min(clock.external_lb, search.ub)
                stats.bounds_adopted += 1
            clock.finish(stats)
            exact = best_lb >= search.ub
            return SearchResult(
                search.ub, best_lb, search.ub_ordering, exact, stats
            )


class _DepthFirstSearch:
    """Recursive DFS over the elimination tree with graph undo."""

    def __init__(
        self,
        graph: BitGraph,
        h_fn: Callable[[Graph], int],
        clock,
        stats: SearchStats,
        use_reductions: bool,
        use_pr2: bool,
        all_vertices: list[Vertex],
    ):
        self.graph = graph
        self.clock = clock
        self.stats = stats
        self.use_reductions = use_reductions
        self.use_pr2 = use_pr2
        self.all_vertices = all_vertices
        self.ub: int = len(all_vertices)
        self.ub_ordering: list[Vertex] = list(all_vertices)
        self.converged_lb: int = 0
        # h / reduction memoization keyed on the remaining-vertex bitmask:
        # sibling subtrees that eliminate the same vertex set share a
        # residual graph, hence one evaluation.
        self.caches = _KernelCaches(h_fn, graph)

    def descend(
        self,
        prefix: list[Vertex],
        g: int,
        f: int,
        children: tuple,
        reduced: bool,
    ) -> None:
        self.clock.tick()
        self.stats.nodes_expanded += 1
        # For a DFS the memory axis is the recursion depth, reported in
        # the slot the best-first searches use for their open list.
        depth = len(prefix) + 1
        if depth > self.stats.max_frontier:
            self.stats.max_frontier = depth
        external_lb = self.clock.external_lb
        if external_lb is not None and external_lb >= self.clock.prune_bound(
            self.ub
        ):
            # The proven external lower bound met the global incumbent.
            self.stats.bounds_adopted += 1
            self.converged_lb = external_lb
            raise BoundsConverged
        remaining = len(self.graph)
        # PR 1: every completion fits in max(g, remaining - 1).
        completion = max(g, remaining - 1)
        if completion < self.ub:
            self.ub = completion
            self.ub_ordering = prefix + [
                v for v in self.all_vertices if v not in prefix
            ]
            self.clock.publish_upper(self.ub)
        if pr1_closes_subtree(g, remaining):
            return
        for vertex in children:
            if vertex not in self.graph:
                continue
            degree = self.graph.degree(vertex)
            child_g = max(g, degree)
            if child_g >= self.clock.prune_bound(self.ub):
                continue
            if self.use_pr2 and not reduced:
                allowed = pr2_allowed_bit(self.graph, vertex, self.caches.rank)
            else:
                allowed = tuple(
                    w for w in self.graph.vertex_list() if w != vertex
                )
            self.graph.eliminate(vertex)
            try:
                child_f = max(child_g, self.caches.h(self.graph), f)
                if child_f < self.clock.prune_bound(self.ub):
                    child_reduced = False
                    child_children = allowed
                    if self.use_reductions:
                        forced = self.caches.reducible(self.graph, child_f)
                        if forced is not None:
                            child_children = (forced,)
                            child_reduced = True
                            self.stats.reductions_forced += 1
                    prefix.append(vertex)
                    try:
                        self.descend(
                            prefix, child_g, child_f, child_children,
                            child_reduced,
                        )
                    finally:
                        prefix.pop()
            finally:
                self.graph.restore()
