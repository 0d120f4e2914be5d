"""The one search behind A*-tw, BB-tw, A*-ghw, BB-ghw and A*-fhw.

All five walk the same tree: partial elimination orderings of the
primal graph, complete for treewidth and — by Theorem 3 — for ghw, and
for fhw with fractional covers.  They differ only in what eliminating a
vertex costs, so a *cost model* supplies that and the two drivers here
supply the rest: :func:`best_first` (A*, thesis Ch. 5 and 9) and
:func:`depth_first` (branch and bound, §4.4.1 and Ch. 8).

A cost model offers:

* ``cost(graph, v)`` — the cost of eliminating ``v`` from the current
  state: its degree (tw) or the cover of its bag ``N[v]`` (ghw, fhw);
* ``h(graph)`` — an admissible lower bound for the remaining graph;
* ``completion(graph, g)`` — an upper bound on the largest cost of any
  completion from this state (PR 1, ``n' - 1`` for tw; a cover of the
  remaining vertex set for ghw/fhw).  A value ``<= g`` makes the node a
  goal of width ``g``; ``g`` is passed so a cheap answer may stop there;
* ``reducible(graph, bound)`` — the vertex a reduction rule forces
  (simplicial, or strongly almost simplicial up to ``bound``), or None;
* ``rank`` — the PR 2 tie-break ranks (:func:`~.pruning.pr2_rank`);
* ``child_bound(g, remaining)`` — an upper bound the best-first driver
  applies to each child as it is generated, or None.

A node's ``g`` is the largest cost along its ordering and
``f = max(g, h, parent f)``, an admissible and monotone estimate;
branches with ``f`` at or above the incumbent are cut.  PR 2 skips
swap-equivalent siblings below every node that no reduction forced.

External bounds arrive through the budget's :class:`BoundHooks`: a
branch is cut against the tighter of the run's own incumbent and the
external one (``clock.prune_bound``), so when the external value is
the tighter one the run proves a lower bound whose witness lives
elsewhere and reports an honest bracket.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.graph import Vertex
from ..widths import Width
from .common import (
    BoundsConverged,
    BudgetExceeded,
    GraphReplayer,
    SearchBudget,
    SearchResult,
    SearchStats,
)
from .pruning import pr2_allowed_bit


def run_ordering_search(
    driver: Callable[..., SearchResult],
    costs,
    graph: BitGraph,
    lb: Width,
    ub: Width,
    ub_ordering: Sequence[Vertex],
    budget: SearchBudget | None,
    algo: str,
    span_attrs: dict | None = None,
    **options,
) -> SearchResult:
    """Run ``driver`` (:func:`best_first` or :func:`depth_first`) from
    the root bounds ``lb`` and ``ub`` (witnessed by ``ub_ordering``),
    after publishing both.  ``options`` go to the driver.

    A root whose lower bound already meets its upper bound is exact
    without a search; the width is still published both ways so a
    portfolio channel learns the proof."""
    stats = SearchStats()
    clock = (budget or SearchBudget()).start()
    if lb >= ub:
        clock.publish_lower(ub)
        clock.publish_upper(ub)
        return _finish(clock, stats, ub, ub, list(ub_ordering))
    span = clock.tracer.span(
        "search", algo=algo, n=graph.num_vertices, **(span_attrs or {}),
        lb=lb, ub=ub,
    )
    with span:
        clock.publish_lower(lb)
        clock.publish_upper(ub)
        return driver(
            graph, costs, clock, stats, lb, ub, list(ub_ordering), **options
        )


@dataclass(order=True)
class _State:
    """A best-first state; the dataclass ordering drives the priority
    queue: smallest f first, deepest first among equals (§5.3), then
    FIFO."""

    f: Width
    neg_depth: int
    tiebreak: int
    g: Width = field(compare=False)
    ordering: tuple = field(compare=False)
    children: tuple = field(compare=False)
    reduced: bool = field(compare=False)


def best_first(
    graph, costs, clock, stats, lb, ub, ub_ordering,
    use_reductions: bool = True, use_pr2: bool = True, memoize: bool = False,
) -> SearchResult:
    """A* over elimination orderings.

    Popped f-values never decrease, so the largest popped ``f`` is a
    proven lower bound, and an interrupted run reports it (§5.3).  A
    child at or above the incumbent is never pushed (§5.2.3).

    ``memoize`` keeps a transposition table over eliminated vertex sets:
    two partial orderings over the same set leave the same graph, so a
    state is skipped when its set was already expanded at a cost no
    larger than its own.
    """
    if clock.external_lb is not None and clock.external_lb >= ub:
        stats.bounds_adopted += 1
        return _finish(clock, stats, ub, ub, ub_ordering)
    all_vertices = graph.vertex_list()
    replayer = GraphReplayer(graph)
    counter = itertools.count()
    cost, h, child_bound = costs.cost, costs.h, costs.child_bound
    children, reduced = _branches(
        graph, lb, tuple(all_vertices), costs, use_reductions, stats
    )
    queue = [_State(lb, 0, next(counter), 0, (), children, reduced)]
    best_lb = lb
    expanded: dict[int, Width] = {}

    try:
        while queue:
            state = heapq.heappop(queue)
            if state.f >= clock.prune_bound(ub):
                continue  # stale: an incumbent improved since the push
            if memoize:
                key = graph.mask_of(state.ordering)
                seen = expanded.get(key)
                if seen is not None and seen <= state.g:
                    continue  # same set reached before with cost <= ours
                expanded[key] = state.g
            clock.tick()
            stats.nodes_expanded += 1
            if state.f > best_lb:
                best_lb = state.f
                clock.publish_lower(best_lb)
            external_lb = clock.external_lb
            if external_lb is not None and external_lb > best_lb:
                best_lb = external_lb
                stats.bounds_adopted += 1
            if best_lb >= clock.prune_bound(ub):
                # The proven lower bound met the global incumbent.  When
                # that incumbent is external, the certificate lives in
                # another worker and the result is an honest bracket.
                stats.max_frontier = max(stats.max_frontier, len(queue))
                return _finish(clock, stats, ub, min(best_lb, ub), ub_ordering)
            current = replayer.move_to(state.ordering)
            completion = costs.completion(current, state.g)
            if max(state.g, completion) < ub:
                ub = max(state.g, completion)
                ub_ordering = _completed(state.ordering, all_vertices)
                clock.publish_upper(ub)
            if completion <= state.g:
                # Goal: every completion has width exactly g.  g is
                # already published as the upper bound above: a popped
                # state has g <= f < prune_bound <= ub.
                stats.max_frontier = max(stats.max_frontier, len(queue))
                clock.publish_lower(state.g)
                return _finish(clock, stats, state.g, state.g, ub_ordering)
            pr2 = use_pr2 and not state.reduced
            for vertex in state.children:
                g = max(state.g, cost(current, vertex))
                if g >= ub:
                    continue
                allowed = _survivors(current, vertex, pr2, costs)
                current.eliminate(vertex)
                f = max(g, h(current), state.f)
                children, reduced = _branches(
                    current, f, allowed, costs, use_reductions and f < ub,
                    stats,
                )
                bound = child_bound(g, len(current))
                current.restore()
                ordering = state.ordering + (vertex,)
                if bound is not None and bound < ub:
                    ub = bound
                    ub_ordering = _completed(ordering, all_vertices)
                    clock.publish_upper(ub)
                if f < clock.prune_bound(ub):
                    heapq.heappush(queue, _State(
                        f, -len(ordering), next(counter), g, ordering,
                        children, reduced,
                    ))
            stats.max_frontier = max(stats.max_frontier, len(queue))
        # Queue exhausted: every branch was cut at f >= prune_bound, so
        # that bound is proven too.  Standalone it is ub and the width
        # is exactly ub; a tighter external incumbent gives a bracket.
        proven = max(clock.prune_bound(ub), best_lb)
        clock.publish_lower(proven)
        return _finish(clock, stats, ub, proven, ub_ordering)
    except BudgetExceeded:
        stats.budget_exhausted = True
        stats.max_frontier = max(stats.max_frontier, len(queue))
        return _finish(clock, stats, ub, best_lb, ub_ordering)


def depth_first(
    graph, costs, clock, stats, lb, ub, ub_ordering,
    use_reductions: bool = True, use_pr2: bool = True,
) -> SearchResult:
    """Branch and bound over elimination orderings, with graph undo: O(n)
    memory where A* may need exponential memory (§4.2).

    Every node applies ``completion`` to the incumbent as it is entered.
    An interrupted run reports the incumbent upper bound and, as its
    lower bound, the root bound ``lb`` or the adopted external lower
    bound, whichever is larger — a depth-first order proves nothing
    about the unexplored branches.
    """
    all_vertices = graph.vertex_list()
    cost, h = costs.cost, costs.h
    prefix: list[Vertex] = []

    def descend(g, f, children, reduced):
        nonlocal ub, ub_ordering
        clock.tick()
        stats.nodes_expanded += 1
        # The memory axis of a DFS is its depth, reported in the slot
        # the best-first search uses for its open list.
        stats.max_frontier = max(stats.max_frontier, len(prefix) + 1)
        external_lb = clock.external_lb
        if external_lb is not None and external_lb >= clock.prune_bound(ub):
            stats.bounds_adopted += 1
            raise BoundsConverged
        completion = costs.completion(graph, g)
        if max(g, completion) < ub:
            ub = max(g, completion)
            ub_ordering = _completed(prefix, all_vertices)
            clock.publish_upper(ub)
        if completion <= g:
            return  # every completion has width exactly g
        pr2 = use_pr2 and not reduced
        for vertex in children:
            child_g = max(g, cost(graph, vertex))
            if child_g >= clock.prune_bound(ub):
                continue
            allowed = _survivors(graph, vertex, pr2, costs)
            graph.eliminate(vertex)
            try:
                child_f = max(child_g, h(graph), f)
                if child_f < clock.prune_bound(ub):
                    prefix.append(vertex)
                    try:
                        descend(child_g, child_f, *_branches(
                            graph, child_f, allowed, costs, use_reductions,
                            stats,
                        ))
                    finally:
                        prefix.pop()
            finally:
                graph.restore()

    try:
        descend(0, lb, *_branches(
            graph, lb, tuple(all_vertices), costs, use_reductions, stats
        ))
        proven = clock.prune_bound(ub)
        clock.publish_lower(proven)
    except BoundsConverged:
        # The external lower bound met the global incumbent.
        proven = min(clock.external_lb, ub)
    except BudgetExceeded:
        stats.budget_exhausted = True
        proven = lb
        if clock.external_lb is not None and clock.external_lb > lb:
            proven = min(clock.external_lb, ub)
            stats.bounds_adopted += 1
    return _finish(clock, stats, ub, proven, ub_ordering)


def _branches(graph, bound, allowed, costs, use_reductions, stats):
    """``(children, reduced)`` of a state: the vertex a reduction rule
    forces, or else the ``allowed`` siblings."""
    if use_reductions:
        forced = costs.reducible(graph, bound)
        if forced is not None:
            stats.reductions_forced += 1
            return (forced,), True
    return allowed, False


def _survivors(graph, vertex, pr2, costs) -> tuple:
    """The vertices that may follow ``vertex``: PR 2's survivors, or
    every other vertex when PR 2 is off for this state.  Computed while
    ``vertex`` is still present."""
    if pr2:
        return pr2_allowed_bit(graph, vertex, costs.rank)
    return tuple(w for w in graph.vertex_list() if w != vertex)


def _completed(prefix: Sequence[Vertex], all_vertices: list) -> list:
    """``prefix`` followed by every other vertex in graph order."""
    placed = set(prefix)
    return list(prefix) + [v for v in all_vertices if v not in placed]


def _finish(clock, stats, upper, lower, ordering) -> SearchResult:
    clock.finish(stats)
    return SearchResult(upper, lower, ordering, lower >= upper, stats)
