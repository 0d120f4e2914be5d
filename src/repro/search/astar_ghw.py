"""A*-ghw: an A* algorithm for generalized hypertree width (Chapter 9).

Best-first counterpart of BB-ghw over the same search space with the same
node values: g = largest exact bag-cover size along the partial ordering,
h = node-wise tw-ksc-width bound of the remaining graph, and
f = max(g, h, parent f).  Since h is admissible and f monotone, popped
f-values never decrease — interrupted runs therefore report the last
popped f as a proven ghw lower bound, the anytime behaviour highlighted
in Tables 9.1–9.2.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field

from ..bounds.ghw_lower import ghw_lower_bound
from ..bounds.upper import best_heuristic_ordering
from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.hypergraph import Hypergraph
from ..telemetry import Metrics
from .common import (
    BudgetExceeded,
    GraphReplayer,
    SearchBudget,
    SearchResult,
    SearchStats,
    root_settled,
)
from .ghw_common import GhwSearchContext, initial_ghw_bounds
from .pruning import pr2_allowed_bit, pr2_rank
from .reductions import find_simplicial, find_strongly_almost_simplicial


@dataclass(order=True)
class _State:
    f: int
    neg_depth: int
    tiebreak: int
    g: int = field(compare=False)
    ordering: tuple = field(compare=False)
    children: tuple = field(compare=False)
    reduced: bool = field(compare=False)


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
    context = GhwSearchContext(hypergraph, metrics=metrics)
    all_vertices = graph.vertex_list()
    if graph.num_vertices <= 1:
        return SearchResult(1, 1, all_vertices, True, stats)

    lb = ghw_lower_bound(hypergraph, rng)
    ub_ordering, _tw = best_heuristic_ordering(hypergraph, rng)
    ub = initial_ghw_bounds(hypergraph, context, ub_ordering)
    if lb >= ub:
        return root_settled(budget, stats, ub, ub_ordering)

    clock = (budget or SearchBudget()).start()
    span = clock.tracer.span(
        "search", algo="astar-ghw", n=graph.num_vertices,
        edges=hypergraph.num_edges, lb=lb, ub=ub,
    )
    with span:
        return _astar_ghw_run(
            graph, clock, stats, context, all_vertices, lb, ub, ub_ordering,
            use_reductions, use_sas, use_pr2,
        )


def _astar_ghw_run(
    graph, clock, stats, context, all_vertices, lb, ub, ub_ordering,
    use_reductions, use_sas, use_pr2,
):
    clock.publish_lower(lb)
    clock.publish_upper(ub)
    if clock.external_lb is not None and clock.external_lb >= ub:
        stats.bounds_adopted += 1
        clock.finish(stats)
        return SearchResult(ub, ub, ub_ordering, True, stats)
    replayer = GraphReplayer(graph)
    counter = itertools.count()
    rank = pr2_rank(graph.adjacency_masks()[1])

    def forced_vertex(current, bound):
        vertex = find_simplicial(current)
        if vertex is None and use_sas:
            vertex = find_strongly_almost_simplicial(current, bound)
        return vertex

    forced = forced_vertex(graph, lb) if use_reductions else None
    if forced is not None:
        stats.reductions_forced += 1
    root = _State(
        f=lb,
        neg_depth=0,
        tiebreak=next(counter),
        g=0,
        ordering=(),
        children=(forced,) if forced is not None else tuple(all_vertices),
        reduced=forced is not None,
    )
    queue = [root]
    best_lb = lb
    best_ub = ub
    best_ub_ordering = list(ub_ordering)

    try:
        while queue:
            state = heapq.heappop(queue)
            if state.f >= clock.prune_bound(best_ub):
                continue
            clock.tick()
            stats.nodes_expanded += 1
            if state.f > best_lb:
                best_lb = state.f
                clock.publish_lower(best_lb)
            external_lb = clock.external_lb
            if external_lb is not None and external_lb > best_lb:
                best_lb = external_lb
                stats.bounds_adopted += 1
            if best_lb >= clock.prune_bound(best_ub):
                # The proven lower bound met the global incumbent (see
                # A*-tw): stop; exact only if our own incumbent is met.
                stats.max_frontier = max(stats.max_frontier, len(queue))
                clock.finish(stats)
                lower = min(best_lb, best_ub)
                return SearchResult(
                    best_ub, lower, best_ub_ordering, lower >= best_ub, stats
                )
            current = replayer.move_to(state.ordering)
            completion = context.completion_bound(current, good_enough=state.g)
            total = max(state.g, completion)
            if total < best_ub:
                best_ub = total
                best_ub_ordering = list(state.ordering) + [
                    v for v in all_vertices if v not in state.ordering
                ]
                clock.publish_upper(best_ub)
            if completion <= state.g or len(current) == 0:
                # Goal: every completion has width exactly g.
                stats.max_frontier = max(stats.max_frontier, len(queue))
                clock.publish_upper(state.g)
                clock.publish_lower(state.g)
                clock.finish(stats)
                return SearchResult(
                    state.g, state.g, best_ub_ordering, True, stats
                )
            for vertex in state.children:
                if vertex not in current:
                    continue
                cost = context.child_cost(current, vertex)
                g = max(state.g, cost)
                if g >= best_ub:
                    continue
                if use_pr2 and not state.reduced:
                    allowed = pr2_allowed_bit(current, vertex, rank)
                else:
                    allowed = tuple(
                        w for w in current.vertex_list() if w != vertex
                    )
                current.eliminate(vertex)
                h = context.heuristic(current)
                f = max(g, h, state.f)
                child_children = allowed
                reduced = False
                if use_reductions and f < best_ub:
                    fv = forced_vertex(current, f)
                    if fv is not None:
                        child_children = (fv,)
                        reduced = True
                        stats.reductions_forced += 1
                current.restore()
                if f < clock.prune_bound(best_ub):
                    heapq.heappush(
                        queue,
                        _State(
                            f=f,
                            neg_depth=-(len(state.ordering) + 1),
                            tiebreak=next(counter),
                            g=g,
                            ordering=state.ordering + (vertex,),
                            children=child_children,
                            reduced=reduced,
                        ),
                    )
            stats.max_frontier = max(stats.max_frontier, len(queue))
        # Queue exhausted: see A*-tw — the proven lower bound is the
        # final prune bound (ub standalone; possibly an external value).
        proven = max(clock.prune_bound(best_ub), best_lb)
        clock.publish_lower(proven)
        clock.finish(stats)
        return SearchResult(
            best_ub, proven, best_ub_ordering, proven >= best_ub, stats
        )
    except BudgetExceeded:
        stats.budget_exhausted = True
        stats.max_frontier = max(stats.max_frontier, len(queue))
        clock.finish(stats)
        return SearchResult(
            best_ub, best_lb, best_ub_ordering, best_lb >= best_ub, stats
        )
