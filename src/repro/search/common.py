"""Shared infrastructure for the branch-and-bound and A* searches.

Search results carry the anytime semantics of the thesis' experiments: a
search interrupted by its budget still reports the best upper bound found
and the best proven lower bound (§5.3 — the f-values of visited states
are nondecreasing, so the last visited f is a valid lower bound).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.graph import Graph, Vertex
from ..widths import Width, format_width
from ..telemetry import NULL_TRACER

# Node-expansion events are batched: one "node_batch" trace record per
# this many ticks keeps traced runs readable and untraced runs cheap.
TRACE_NODE_BATCH = 256

# The hooks are polled every ``poll_interval`` nodes or after this many
# seconds, whichever comes first: one expansion of a wide search can
# cost a large fraction of a second, and the race's stop word rides the
# same poll.
POLL_SECONDS = 0.01


class BudgetExceeded(Exception):
    """Internal signal: the node or time budget ran out."""


class BoundsConverged(Exception):
    """Internal signal: an externally injected lower bound met the
    incumbent upper bound, so the width is fixed without finishing the
    search.  Only raised when :class:`BoundHooks` are installed."""


class RaceStopped(Exception):
    """The portfolio proved the answer elsewhere: the run is abandoned.

    Raised by :meth:`BoundHooks.check_stop` at a solver's poll points
    once the runner has written the stop word.  Unlike
    :class:`BudgetExceeded` no solver catches it — it unwinds to the
    worker, which ships a report with no bounds (and no witness).
    """


@dataclass
class BoundHooks:
    """Callbacks wiring a search into an external incumbent channel.

    The portfolio runner races several anytime solvers on the same
    instance; each solver polls the others' best bounds through these
    hooks and publishes its own improvements back.  All callables are
    optional — a hook left ``None`` is simply skipped — so the same
    search code runs unchanged standalone.

    Soundness contract: ``poll_upper`` must return a width some witness
    ordering achieves (any worker's incumbent), and ``poll_lower`` a
    proven lower bound; under that contract external pruning never cuts
    the optimum.  Published values follow the same convention.

    Attributes:
        poll_upper: returns the best known external upper bound, or None.
        poll_lower: returns the best proven external lower bound, or None.
        publish_upper: called with every strict improvement of the
            caller's incumbent upper bound.
        publish_lower: called with every strict improvement of the
            caller's proven lower bound.
        poll_interval: nodes between polls (polling crosses a process
            boundary in the portfolio; every node would be wasteful).
        tracer: telemetry tap riding the same seam — the portfolio
            installs a per-worker tracer here so solvers trace without
            a second plumbing path.  Defaults to the no-op tracer.
        should_stop: returns True once the race is decided elsewhere;
            solvers call :meth:`check_stop` at their existing polls.
    """

    poll_upper: Callable[[], int | None] | None = None
    poll_lower: Callable[[], int | None] | None = None
    publish_upper: Callable[[int], None] | None = None
    publish_lower: Callable[[int], None] | None = None
    poll_interval: int = 64
    tracer: object = NULL_TRACER
    should_stop: Callable[[], bool] | None = None

    def check_stop(self) -> None:
        """Raise :class:`RaceStopped` once ``should_stop`` says so."""
        if self.should_stop is not None and self.should_stop():
            raise RaceStopped


@dataclass
class SearchBudget:
    """Limits for a search run.

    Attributes:
        max_nodes: maximum number of expanded / visited search states
            (``None`` = unlimited).
        max_seconds: wall-clock limit (``None`` = unlimited).
        hooks: optional :class:`BoundHooks` connecting the run to an
            external incumbent channel (portfolio mode).
        tracer: telemetry tracer for the run; overrides the hooks'
            tracer when set.  ``None`` falls back to the hooks' tracer
            (or the no-op tracer).
    """

    max_nodes: int | None = None
    max_seconds: float | None = None
    hooks: BoundHooks | None = None
    tracer: object | None = None

    def start(self) -> "_BudgetClock":
        return _BudgetClock(self)


class _BudgetClock:
    """Mutable per-run counter for a :class:`SearchBudget`.

    Also the per-run cache of the external incumbent bounds: ``tick``
    refreshes ``external_ub`` / ``external_lb`` from the hooks every
    ``poll_interval`` nodes or :data:`POLL_SECONDS`, so searches read
    plain attributes on their hot path instead of crossing a process
    boundary per node.
    """

    def __init__(self, budget: SearchBudget):
        self._budget = budget
        self._start = time.monotonic()
        self.nodes = 0
        self._hooks = budget.hooks
        self.external_ub: int | None = None
        self.external_lb: int | None = None
        self.published = 0
        self.adopted = 0
        self._polled_nodes = 0
        self._polled_at = self._start
        tracer = budget.tracer
        if tracer is None:
            tracer = (
                self._hooks.tracer if self._hooks is not None else NULL_TRACER
            )
        self.tracer = tracer
        # One cached bool keeps the untraced tick at a single branch.
        self._tracing = bool(getattr(tracer, "enabled", False))
        if self._hooks is not None:
            self.poll()

    def tick(self) -> None:
        """Count one expanded node; raise :class:`BudgetExceeded` when the
        budget runs out.  A run with a time limit or hooks reads the
        clock on every tick; one with neither never does."""
        self.nodes += 1
        if self._tracing and self.nodes % TRACE_NODE_BATCH == 0:
            self.tracer.event("node_batch", nodes=self.nodes)
        limit = self._budget.max_nodes
        if limit is not None and self.nodes > limit:
            raise BudgetExceeded
        seconds = self._budget.max_seconds
        hooks = self._hooks
        if seconds is None and hooks is None:
            return
        now = time.monotonic()
        if seconds is not None and now - self._start > seconds:
            raise BudgetExceeded
        if hooks is not None and (
            self.nodes - self._polled_nodes >= hooks.poll_interval
            or now - self._polled_at >= POLL_SECONDS
        ):
            self.poll()

    def poll(self) -> None:
        """Refresh the cached external bounds from the hooks; raise
        :class:`RaceStopped` once the race is decided elsewhere."""
        hooks = self._hooks
        if hooks is None:
            return
        self._polled_nodes = self.nodes
        self._polled_at = time.monotonic()
        hooks.check_stop()
        if hooks.poll_upper is not None:
            value = hooks.poll_upper()
            if value is not None and (
                self.external_ub is None or value < self.external_ub
            ):
                self.external_ub = value
                self.adopted += 1
                if self._tracing:
                    self.tracer.event("bound_adopt", kind="ub", value=value)
        if hooks.poll_lower is not None:
            value = hooks.poll_lower()
            if value is not None and (
                self.external_lb is None or value > self.external_lb
            ):
                self.external_lb = value
                self.adopted += 1
                if self._tracing:
                    self.tracer.event("bound_adopt", kind="lb", value=value)

    def publish_upper(self, value) -> None:
        if self._tracing:
            self.tracer.event("bound_publish", kind="ub", value=value)
        if self._hooks is not None and self._hooks.publish_upper is not None:
            self._hooks.publish_upper(value)
            self.published += 1

    def publish_lower(self, value) -> None:
        if self._tracing:
            self.tracer.event("bound_publish", kind="lb", value=value)
        if self._hooks is not None and self._hooks.publish_lower is not None:
            self._hooks.publish_lower(value)
            self.published += 1

    def finish(self, stats: "SearchStats") -> "SearchStats":
        """Stamp the run's final accounting into ``stats`` — every exit
        path of every search funnels through here so no field is left
        at its default on some paths but not others."""
        stats.elapsed_seconds = self.elapsed
        stats.bounds_published = self.published
        if self._tracing:
            self.tracer.event("search_finish", **stats.as_dict())
        return stats

    def prune_bound(self, own_ub: int) -> int:
        """The bound to cut branches against: the tighter of the caller's
        incumbent and the external incumbent."""
        external = self.external_ub
        if external is not None and external < own_ub:
            return external
        return own_ub

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._start


@dataclass
class SearchStats:
    """Bookkeeping reported with every search result.

    ``max_frontier`` is the peak open-list size for the best-first
    searches and the peak recursion depth for the depth-first ones (the
    memory axis of the thesis' A*-vs-BB trade-off, §4.2).
    ``reductions_forced`` counts states where a simplicial /
    strongly-almost-simplicial vertex collapsed the branching to one
    child (§4.4.3).  The rule runs on the root and on each generated
    child whose ``f`` is below the incumbent, so a child the incumbent
    already cuts is never counted, while a best-first child counted here
    may still be dropped before it is expanded.
    """

    nodes_expanded: int = 0
    max_frontier: int = 0
    elapsed_seconds: float = 0.0
    budget_exhausted: bool = False
    bounds_adopted: int = 0
    bounds_published: int = 0
    reductions_forced: int = 0

    def as_dict(self) -> dict:
        """JSON-ready dump (trace ``search_finish`` events carry this)."""
        return {
            "nodes_expanded": self.nodes_expanded,
            "max_frontier": self.max_frontier,
            "elapsed_seconds": self.elapsed_seconds,
            "budget_exhausted": self.budget_exhausted,
            "bounds_adopted": self.bounds_adopted,
            "bounds_published": self.bounds_published,
            "reductions_forced": self.reductions_forced,
        }


@dataclass
class SearchResult:
    """Outcome of a width search.

    ``exact`` is True when ``lower_bound == upper_bound`` was proven — the
    thesis' bold table entries.  ``ordering`` witnesses the upper bound
    (first-eliminated-first); it is ``None`` only for empty inputs.
    """

    upper_bound: Width
    lower_bound: Width
    ordering: Sequence[Vertex] | None
    exact: bool
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def width(self) -> Width:
        """The best known width (the upper bound's witness) — ``int``
        for tw/ghw, possibly ``Fraction`` for fhw."""
        return self.upper_bound

    def summary(self, metric: str = "width") -> str:
        """One line with the bounds and the full stats — every counter
        the search maintains, so nothing is collected but unreported.

        Bounds render through :func:`repro.widths.format_width`: exact
        rationals print as ``7/3``, and a float bound (always a width
        bug) raises instead of printing a plausible-looking ``2.33``."""
        bounds = (
            f"{metric} = {format_width(self.upper_bound)}"
            if self.exact
            else (
                f"{metric} in [{format_width(self.lower_bound)}, "
                f"{format_width(self.upper_bound)}]"
            )
        )
        s = self.stats
        return (
            f"{bounds} | nodes={s.nodes_expanded} frontier={s.max_frontier} "
            f"reductions={s.reductions_forced} published={s.bounds_published} "
            f"adopted={s.bounds_adopted} elapsed={s.elapsed_seconds:.3f}s"
            f"{' budget-exhausted' if s.budget_exhausted else ''}"
        )


class GraphReplayer:
    """Moves a single undo-stack graph between elimination states.

    A* jumps between search states whose partial orderings share prefixes;
    re-eliminating from scratch per expansion would dominate the runtime.
    The replayer keeps the currently applied ordering and, given a target
    ordering, restores back to the longest common prefix and eliminates
    forward (thesis §5.2.1's "common postfix" optimization, adjusted to
    our first-eliminated-first convention).

    Works with either elimination kernel — the reference :class:`Graph`
    or the bitset :class:`BitGraph` — since both expose the same
    ``copy`` / ``eliminate`` / ``restore`` surface.
    """

    def __init__(self, graph: Graph | BitGraph):
        self._graph = graph.copy()
        self._applied: list[Vertex] = []

    @property
    def graph(self) -> Graph | BitGraph:
        """The live graph, positioned at the last requested state."""
        return self._graph

    def move_to(self, ordering: Sequence[Vertex]) -> Graph | BitGraph:
        """Reposition the graph to the state after eliminating
        ``ordering`` (in order) from the original graph."""
        common = 0
        for mine, target in zip(self._applied, ordering):
            if mine != target:
                break
            common += 1
        while len(self._applied) > common:
            self._graph.restore()
            self._applied.pop()
        for vertex in ordering[common:]:
            self._graph.eliminate(vertex)
            self._applied.append(vertex)
        return self._graph


def brute_force_elimination_width(
    graph: Graph, bag_cost: Callable[[frozenset], Width]
) -> Width:
    """Smallest ``max bag_cost(bag)`` over all elimination orderings of
    ``graph``, by dynamic programming over vertex subsets (the reference
    oracle behind the ``brute_force_*`` widths; exponential — small n
    only).

    The bag of ``v`` depends only on the set S eliminated before it: ``v``
    plus every vertex outside S reachable from ``v`` through S.  So
    ``f(S)``, the best width of an ordering eliminating exactly S first,
    is ``min over v in S of max(f(S - v), cost(bag(v, S - v)))``.  Costs
    are memoized per distinct bag.
    """
    vertices = graph.vertex_list()
    n = len(vertices)
    if n == 0:
        return 0
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * n
    for i, v in enumerate(vertices):
        for u in graph.neighbors(v):
            adj[i] |= 1 << index[u]

    def bag_mask(v: int, eliminated: int) -> int:
        seen = 1 << v
        frontier = [v]
        boundary = 0
        while frontier:
            fresh = adj[frontier.pop()] & ~seen
            seen |= fresh
            boundary |= fresh & ~eliminated
            inner = fresh & eliminated
            while inner:
                low = inner & -inner
                inner ^= low
                frontier.append(low.bit_length() - 1)
        return boundary | (1 << v)

    costs: dict[int, Width] = {}
    best: list[Width] = [0] * (1 << n)
    for mask in range(1, 1 << n):
        value: Width | None = None
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            prev = mask ^ low
            bag = bag_mask(low.bit_length() - 1, prev)
            cost = costs.get(bag)
            if cost is None:
                cost = bag_cost(frozenset(
                    vertices[i] for i in range(n) if (bag >> i) & 1
                ))
                costs[bag] = cost
            candidate = max(best[prev], cost)
            if value is None or candidate < value:
                value = candidate
        best[mask] = value
    return best[-1]
