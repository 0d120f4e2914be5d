"""A*-tw: an A* algorithm for exact treewidth (thesis Chapter 5).

The search space is the tree of partial elimination orderings.  A state
holds a partial ordering; its cost-so-far ``g`` is the largest elimination
degree along the ordering, its heuristic ``h`` a treewidth lower bound of
the remaining graph, and ``f = max(g, h, parent.f)`` — an admissible,
monotone estimate of the best width reachable below the state (§5.1).

Search-space reductions: simplicial / strongly-almost-simplicial vertices
force a single child (§4.4.3); pruning rule PR 2 removes swap-equivalent
sibling branches (§4.4.5); PR 1 tightens the incumbent upper bound at
every evaluation.  States with ``f >= ub`` are discarded (the thesis'
memory-saving measure, §5.2.3).

Anytime behaviour (§5.3): popped f-values are nondecreasing, so when the
budget expires the largest popped ``f`` is a proven treewidth lower
bound, reported in the result.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from ..bounds.lower import minor_gamma_r, minor_min_width
from ..bounds.upper import best_heuristic_ordering
from ..hypergraph.bitgraph import BitGraph, as_bitgraph
from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from .common import (
    BudgetExceeded,
    GraphReplayer,
    SearchBudget,
    SearchResult,
    SearchStats,
    brute_force_elimination_width,
    root_settled,
)
from .pruning import pr1_effective_width, pr2_allowed_bit, pr2_rank
from .reductions import find_simplicial, find_strongly_almost_simplicial


@dataclass(order=True)
class _State:
    """A search state; the dataclass ordering drives the priority queue:
    smallest f first, deepest first among equals (§5.3), then FIFO."""

    f: int
    neg_depth: int
    tiebreak: int
    g: int = field(compare=False)
    ordering: tuple = field(compare=False)
    children: tuple = field(compare=False)
    reduced: bool = field(compare=False)


LowerBoundName = str

_NO_SAS = object()  # negative strongly-almost-simplicial cache entry


class _KernelCaches:
    """Per-run memoization keyed on the remaining-vertex bitmask.

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
    graph = as_bitgraph(structure)
    stats = SearchStats()
    n = graph.num_vertices
    if n == 0:
        return SearchResult(0, 0, [], True, stats)
    all_vertices = graph.vertex_list()
    if n == 1:
        return SearchResult(0, 0, all_vertices, True, stats)

    h_fn = _child_lower_bound(child_lower_bound)
    lb = max(minor_min_width(graph, rng), minor_gamma_r(graph, rng))
    ub_ordering, ub = best_heuristic_ordering(graph, rng)
    if lb >= ub:
        return root_settled(budget, stats, ub, ub_ordering)

    clock = (budget or SearchBudget()).start()
    span = clock.tracer.span(
        "search", algo="astar-tw", n=n, lb=lb, ub=ub
    )
    with span:
        return _astar_treewidth_run(
            graph, clock, stats, n, all_vertices, h_fn, lb, ub, ub_ordering,
            use_reductions, use_pr2, memoize,
        )


def _astar_treewidth_run(
    graph, clock, stats, n, all_vertices, h_fn, lb, ub, ub_ordering,
    use_reductions, use_pr2, memoize,
):
    clock.publish_lower(lb)
    clock.publish_upper(ub)
    if clock.external_lb is not None and clock.external_lb >= ub:
        stats.bounds_adopted += 1
        clock.finish(stats)
        return SearchResult(ub, ub, ub_ordering, True, stats)
    replayer = GraphReplayer(graph)
    counter = itertools.count()
    # h and reduction memoization over residual graphs (the mask is an
    # O(1) canonical key for the eliminated vertex set).
    caches = _KernelCaches(h_fn, graph)

    root_children = _initial_children(graph, lb, use_reductions, caches, stats)
    root = _State(
        f=lb,
        neg_depth=0,
        tiebreak=next(counter),
        g=0,
        ordering=(),
        children=root_children[0],
        reduced=root_children[1],
    )
    queue: list[_State] = [root]
    best_lb = lb
    expanded_sets: dict = {}

    try:
        while queue:
            state = heapq.heappop(queue)
            # Prune against the tighter of our incumbent and the external
            # one; the external value is witnessed by another worker, so
            # cutting at it never loses the optimum.
            prune = clock.prune_bound(ub)
            if state.f >= prune:
                continue  # stale: an incumbent improved since the push
            if memoize:
                key = graph.mask_of(state.ordering)
                dominated = expanded_sets.get(key)
                if dominated is not None and dominated <= state.g:
                    continue  # same set reached before with cost <= ours
                expanded_sets[key] = state.g
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
                # The proven lower bound met the global incumbent: the
                # treewidth is fixed without exhausting the queue.  When
                # the meeting incumbent is external, the certificate
                # lives in another worker and the local result is an
                # honest bracket.
                stats.max_frontier = max(stats.max_frontier, len(queue))
                clock.finish(stats)
                lower = min(best_lb, ub)
                return SearchResult(ub, lower, ub_ordering, lower >= ub, stats)
            current = replayer.move_to(state.ordering)
            remaining = len(current)
            if state.g >= remaining - 1:
                ordering = list(state.ordering) + current.vertex_list()
                stats.max_frontier = max(stats.max_frontier, len(queue))
                clock.publish_upper(state.g)
                clock.publish_lower(state.g)
                clock.finish(stats)
                return SearchResult(state.g, state.g, ordering, True, stats)
            for child in _expand(
                state, current, counter, use_reductions, use_pr2, caches,
                stats,
            ):
                completion = pr1_effective_width(child.g, remaining - 1)
                if completion < ub:
                    ub = completion
                    ub_ordering = list(child.ordering) + [
                        v for v in all_vertices if v not in child.ordering
                    ]
                    clock.publish_upper(ub)
                if child.f < clock.prune_bound(ub):
                    heapq.heappush(queue, child)
            stats.max_frontier = max(stats.max_frontier, len(queue))
        # Queue exhausted: every branch was pruned at f >= prune_bound,
        # so that bound is also a proven lower bound.  Standalone the
        # bound is ub and the treewidth is exactly ub; with a tighter
        # external incumbent the certificate lives in another worker, so
        # we report our own witnessed ub against the proven lower bound.
        proven = max(clock.prune_bound(ub), best_lb)
        clock.publish_lower(proven)
        clock.finish(stats)
        return SearchResult(ub, proven, ub_ordering, proven >= ub, stats)
    except BudgetExceeded:
        stats.budget_exhausted = True
        stats.max_frontier = max(stats.max_frontier, len(queue))
        clock.finish(stats)
        return SearchResult(ub, best_lb, ub_ordering, best_lb >= ub, stats)


def _initial_children(
    graph: BitGraph,
    lower_bound: int,
    use_reductions: bool,
    caches: _KernelCaches,
    stats: SearchStats,
) -> tuple[tuple, bool]:
    if use_reductions:
        forced = caches.reducible(graph, lower_bound)
        if forced is not None:
            stats.reductions_forced += 1
            return (forced,), True
    return tuple(graph.vertex_list()), False


def _expand(
    state: _State,
    current: BitGraph,
    counter,
    use_reductions: bool,
    use_pr2: bool,
    caches: _KernelCaches,
    stats: SearchStats,
) -> list[_State]:
    """Evaluate all children of ``state`` (graph positioned at its
    ordering on entry and on exit)."""
    children: list[_State] = []
    for vertex in state.children:
        if vertex not in current:
            continue  # defensive: reductions may have consumed it
        degree = current.degree(vertex)
        # PR 2 candidates must be computed while `vertex` is present.
        if use_pr2 and not state.reduced:
            allowed = pr2_allowed_bit(current, vertex, caches.rank)
        else:
            allowed = tuple(w for w in current.vertex_list() if w != vertex)
        record = current.eliminate(vertex)
        g = max(state.g, degree)
        f = max(g, caches.h(current), state.f)
        reduced = False
        child_children = allowed
        if use_reductions:
            forced = caches.reducible(current, f)
            if forced is not None:
                child_children = (forced,)
                reduced = True
                stats.reductions_forced += 1
        children.append(
            _State(
                f=f,
                neg_depth=-(len(state.ordering) + 1),
                tiebreak=next(counter),
                g=g,
                ordering=state.ordering + (vertex,),
                children=child_children,
                reduced=reduced,
            )
        )
        current.restore()
        assert record.vertex == vertex
    return children


def brute_force_treewidth(graph: Graph) -> int:
    """Exact treewidth by dynamic programming over vertex subsets
    (reference oracle for tests; exponential — use only for small n):
    the largest bag minus one, minimized over all elimination orderings.
    """
    if graph.num_vertices > 20:
        raise ValueError("brute force is limited to 20 vertices")
    return brute_force_elimination_width(graph, lambda bag: len(bag) - 1)
