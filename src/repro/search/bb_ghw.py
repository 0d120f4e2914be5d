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
"""

from __future__ import annotations

import random

from ..bounds.ghw_lower import ghw_lower_bound
from ..bounds.upper import best_heuristic_ordering
from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.graph import Vertex
from ..hypergraph.hypergraph import Hypergraph
from ..setcover.exact import exact_set_cover
from ..telemetry import Metrics
from .common import (
    BoundsConverged,
    BudgetExceeded,
    SearchBudget,
    SearchResult,
    SearchStats,
    brute_force_elimination_width,
    root_settled,
)
from .ghw_common import GhwSearchContext, initial_ghw_bounds
from .pruning import pr2_allowed_bit, pr2_rank
from .reductions import find_simplicial, find_strongly_almost_simplicial


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
    stats = SearchStats()
    isolated = hypergraph.isolated_vertices()
    if isolated:
        raise ValueError(
            f"hypergraph has isolated vertices {sorted(map(repr, isolated))}; "
            "no generalized hypertree decomposition exists"
        )
    if hypergraph.num_edges == 0:
        return SearchResult(0, 0, hypergraph.vertex_list(), True, stats)
    graph = BitGraph.from_hypergraph(hypergraph)
    n = graph.num_vertices
    context = GhwSearchContext(hypergraph, metrics=metrics)
    all_vertices = graph.vertex_list()
    if n <= 1:
        return SearchResult(1, 1, all_vertices, True, stats)

    lb = ghw_lower_bound(hypergraph, rng)
    ub_ordering, _tw = best_heuristic_ordering(hypergraph, rng)
    ub = initial_ghw_bounds(hypergraph, context, ub_ordering)
    if lb >= ub:
        return root_settled(budget, stats, ub, ub_ordering)

    clock = (budget or SearchBudget()).start()
    span = clock.tracer.span(
        "search", algo="bb-ghw", n=n, edges=hypergraph.num_edges,
        lb=lb, ub=ub,
    )
    with span:
        clock.publish_lower(lb)
        clock.publish_upper(ub)
        search = _GhwDfs(
            graph, context, clock, stats, use_reductions, use_sas, use_pr2,
            all_vertices,
        )
        search.ub = ub
        search.ub_ordering = list(ub_ordering)
        try:
            forced = search.forced_vertex(lb) if use_reductions else None
            if forced is not None:
                stats.reductions_forced += 1
            roots = (forced,) if forced is not None else tuple(all_vertices)
            search.descend([], 0, lb, roots, forced is not None)
            # See BB-tw: a tighter external incumbent turns the completed
            # DFS into a proof of ghw >= prune_bound; standalone it
            # equals ub.
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
            return SearchResult(
                search.ub, best_lb, search.ub_ordering, best_lb >= search.ub,
                stats,
            )


class _GhwDfs:
    """The recursive DFS body; mirrors BB-tw with cover-based costs."""

    def __init__(
        self,
        graph: BitGraph,
        context: GhwSearchContext,
        clock,
        stats: SearchStats,
        use_reductions: bool,
        use_sas: bool,
        use_pr2: bool,
        all_vertices: list[Vertex],
    ):
        self.graph = graph
        self.context = context
        self.clock = clock
        self.stats = stats
        self.use_reductions = use_reductions
        self.use_sas = use_sas
        self.use_pr2 = use_pr2
        self.rank = pr2_rank(graph.adjacency_masks()[1])
        self.all_vertices = all_vertices
        self.ub: int = len(context.hypergraph.edges)
        self.ub_ordering: list[Vertex] = list(all_vertices)
        self.converged_lb: int = 0

    def forced_vertex(self, bound: int) -> Vertex | None:
        vertex = find_simplicial(self.graph)
        if vertex is None and self.use_sas:
            vertex = find_strongly_almost_simplicial(self.graph, bound)
        return vertex

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
        # DFS memory axis: peak recursion depth (see BB-tw).
        depth = len(prefix) + 1
        if depth > self.stats.max_frontier:
            self.stats.max_frontier = depth
        external_lb = self.clock.external_lb
        if external_lb is not None and external_lb >= self.clock.prune_bound(
            self.ub
        ):
            self.stats.bounds_adopted += 1
            self.converged_lb = external_lb
            raise BoundsConverged
        completion = self.context.completion_bound(self.graph, good_enough=g)
        total = max(g, completion)
        if total < self.ub:
            self.ub = total
            self.ub_ordering = prefix + [
                v for v in self.all_vertices if v not in prefix
            ]
            self.clock.publish_upper(self.ub)
        if completion <= g or len(self.graph) == 0:
            return  # PR 1 analogue: every completion has width exactly g
        for vertex in children:
            if vertex not in self.graph:
                continue
            cost = self.context.child_cost(self.graph, vertex)
            child_g = max(g, cost)
            if child_g >= self.clock.prune_bound(self.ub):
                continue
            if self.use_pr2 and not reduced:
                allowed = pr2_allowed_bit(self.graph, vertex, self.rank)
            else:
                allowed = tuple(
                    w for w in self.graph.vertex_list() if w != vertex
                )
            self.graph.eliminate(vertex)
            try:
                h = self.context.heuristic(self.graph)
                child_f = max(child_g, h, f)
                if child_f < self.clock.prune_bound(self.ub):
                    child_children = allowed
                    child_reduced = False
                    if self.use_reductions:
                        forced = self.forced_vertex(child_f)
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
