"""Incremental re-solve: warm-start from the previous decomposition.

Live workloads mutate their constraint hypergraph one edge at a time;
recomputing the decomposition from scratch after every edit throws away
everything the previous solve learned.  :class:`IncrementalSolver` owns
a hypergraph, a long-lived :class:`~repro.setcover.bitcover.BitCoverEngine`
(edits invalidate only the cover-cache entries they touch, via
``apply_edit``) and the last certified result.

Two entry points:

* :meth:`IncrementalSolver.solve` — the cold path: a full portfolio
  race from scratch (:func:`~repro.portfolio.runner.run_portfolio`).
* :meth:`IncrementalSolver.resolve_incremental` — the warm path: repair
  the previous ordering against the edited vertex set, re-score it on
  the live engine (its caches survive the edit wherever the edit didn't
  touch), run a short seeded GA, and optionally finish exactly with
  BB-ghw pruning against the warm incumbent from node one.

Every result — warm or cold — carries a decomposition certificate
checked by :func:`repro.verify.certify`; the returned width is the
*measured* width of that certificate, so the warm path can never
silently over- or under-claim after an edit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..decomposition import ghd_from_ordering
from ..genetic import GAParameters, ga_ghw
from ..hypergraph.hypergraph import EditTicket, Hypergraph
from ..search import BoundHooks, SearchBudget, branch_and_bound_ghw
from ..setcover.bitcover import BitCoverEngine
from ..setcover.exact import exact_set_cover
from ..telemetry import Metrics
from ..verify.certificate import certify
from .runner import run_portfolio

# Node budget for per-bag exact covers when building certificates; the
# same budget ga_ghw's rescore uses, so certificate widths match the
# GA's rescored fitness bit for bit.
_CERT_COVER_NODES = 20_000


def _exact_cover_function(bag, hypergraph):
    return exact_set_cover(bag, hypergraph, max_nodes=_CERT_COVER_NODES)


class IncrementalSolveError(RuntimeError):
    """Raised when the edited hypergraph admits no decomposition (e.g.
    an edit left isolated vertices) or certification fails."""


@dataclass
class IncrementalResult:
    """One certified (re-)solve of the current hypergraph revision.

    ``width`` is the *measured* ghw of ``certificate``'s decomposition
    (witnessed by ``ordering``), never a bare claim.  ``warm`` tells
    whether the warm path produced it; ``source`` names the component
    that found the witness (``"portfolio:<backend>"``, ``"ga-warm"`` or
    ``"bb-finish"``).  ``exact`` means ``lower_bound == width`` was
    proven for *this* revision — warm results inherit nothing from
    before the edit, because an edit can move ghw in either direction.
    """

    width: int
    ordering: list
    lower_bound: int
    exact: bool
    warm: bool
    source: str
    elapsed_seconds: float
    revision: int
    certificate: object

    @property
    def upper_bound(self) -> int:
        return self.width


class IncrementalSolver:
    """Solve → edit → re-solve loop over one mutable hypergraph.

    The solver owns the hypergraph: route edits through
    :meth:`add_edge` / :meth:`remove_edge` so the live cover engine sees
    every :class:`~repro.hypergraph.hypergraph.EditTicket` (edits made
    directly on the hypergraph can be replayed with
    :meth:`apply_ticket`).  ``exact_limit`` bounds the instance size for
    the warm path's BB-ghw exact finish; above it the warm result is
    heuristic (``exact=False``) unless the GA's width meets a proven
    lower bound.

    >>> solver = IncrementalSolver(hypergraph, seed=7)
    >>> base = solver.solve()
    >>> solver.remove_edge("e3")
    >>> patched = solver.resolve_incremental()
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        seed: int = 0,
        metrics: Metrics | None = None,
        ga_population: int = 16,
        ga_generations: int = 12,
        exact_limit: int = 32,
        exact_nodes: int = 50_000,
    ):
        self.hypergraph = hypergraph
        self.seed = seed
        self.metrics = metrics if metrics is not None else Metrics()
        self.ga_population = ga_population
        self.ga_generations = ga_generations
        self.exact_limit = exact_limit
        self.exact_nodes = exact_nodes
        self._engine: BitCoverEngine | None = None
        self.last: IncrementalResult | None = None

    # -- the live engine ------------------------------------------------

    @property
    def engine(self) -> BitCoverEngine:
        """The long-lived cover engine (built on first use)."""
        if self._engine is None:
            self._engine = BitCoverEngine(self.hypergraph, self.metrics)
        return self._engine

    # -- edits ----------------------------------------------------------

    def add_edge(self, members, name=None) -> EditTicket:
        """Add a hyperedge and invalidate only the touched cache entries."""
        ticket = self.hypergraph.add_edge(members, name=name)
        return self.apply_ticket(ticket)

    def remove_edge(self, name) -> EditTicket:
        """Remove a hyperedge and invalidate only the touched entries."""
        ticket = self.hypergraph.remove_edge(name)
        return self.apply_ticket(ticket)

    def apply_ticket(self, ticket: EditTicket) -> EditTicket:
        """Replay an edit made directly on the hypergraph into the
        engine (no-op if the engine was never built — it will see the
        edited hypergraph when first constructed)."""
        if self._engine is not None:
            self._engine.apply_edit(ticket)
        return ticket

    # -- solving --------------------------------------------------------

    def solve(
        self,
        jobs: int = 2,
        budget_seconds: float | None = None,
        max_nodes: int | None = None,
        deterministic: bool = True,
        backends=None,
    ) -> IncrementalResult:
        """Cold solve: race the full portfolio from scratch.

        The result seeds every later :meth:`resolve_incremental`.
        """
        self._check_solvable()
        start = time.monotonic()
        outcome = run_portfolio(
            self.hypergraph,
            backends=backends,
            jobs=jobs,
            budget_seconds=budget_seconds,
            max_nodes=max_nodes,
            seed=self.seed,
            deterministic=deterministic,
            metric="ghw",
        )
        self.metrics.counter("incremental.cold_solves").inc()
        if outcome.ordering is None:
            raise IncrementalSolveError(
                "portfolio produced no witness ordering"
            )
        return self._finish(
            ordering=list(outcome.ordering),
            lower_bound=outcome.lower_bound,
            warm=False,
            source=f"portfolio:{outcome.best_backend}",
            start=start,
        )

    def resolve_incremental(self) -> IncrementalResult:
        """Warm re-solve after edits: repair, seed, finish, certify.

        Requires a previous result (from :meth:`solve` or an earlier
        warm re-solve).  The previous ordering is repaired — removed
        vertices dropped, new vertices appended — and injected into a
        short GA running on the live engine, whose cover caches carry
        every bag the edit did not touch.  On instances up to
        ``exact_limit`` vertices a BB-ghw finish then proves the width
        exact, pruning against the GA's incumbent from node one.
        """
        if self.last is None:
            return self.solve()
        self._check_solvable()
        start = time.monotonic()
        self.metrics.counter("incremental.warm_solves").inc()
        repaired = self._repair_ordering(self.last.ordering)
        rng = random.Random(self.seed)
        parameters = GAParameters(
            population_size=self.ga_population,
            generations=self.ga_generations,
        )
        ga = ga_ghw(
            self.hypergraph,
            parameters,
            rng=rng,
            metrics=self.metrics,
            engine=self.engine,
            seed_individuals=[repaired],
        )
        ordering = list(ga.best_individual) or repaired
        width = int(ga.best_fitness)
        lower, source = 0, "ga-warm"

        if self.hypergraph.num_vertices <= self.exact_limit:
            # Exact finish: BB prunes against the GA's witnessed width
            # from node one (a static poll answer — sound because the
            # width is witnessed by ``ordering`` on *this* revision).
            hooks = BoundHooks(poll_upper=lambda: width)
            result = branch_and_bound_ghw(
                self.hypergraph,
                budget=SearchBudget(max_nodes=self.exact_nodes, hooks=hooks),
                rng=random.Random(self.seed),
                metrics=self.metrics,
            )
            lower = max(lower, result.lower_bound)
            if (
                result.ordering is not None
                and result.upper_bound < width
            ):
                ordering = list(result.ordering)
                width = result.upper_bound
                source = "bb-finish"

        return self._finish(
            ordering=ordering,
            lower_bound=lower,
            warm=True,
            source=source,
            start=start,
        )

    # -- internals ------------------------------------------------------

    def _check_solvable(self) -> None:
        isolated = self.hypergraph.isolated_vertices()
        if isolated:
            raise IncrementalSolveError(
                "hypergraph has isolated vertices "
                f"{sorted(map(repr, isolated))}; remove them or cover "
                "them with an edge before re-solving"
            )

    def _repair_ordering(self, previous: list) -> list:
        """Patch the previous witness ordering onto the edited vertex
        set: surviving vertices keep their relative order, new vertices
        append in the hypergraph's interning order."""
        current = set(self.hypergraph.vertex_list())
        kept = [v for v in previous if v in current]
        seen = set(kept)
        kept.extend(
            v for v in self.hypergraph.vertex_list() if v not in seen
        )
        return kept

    def _finish(
        self, ordering, lower_bound, warm, source, start
    ) -> IncrementalResult:
        """Certify the witness and freeze the result.

        The decomposition is rebuilt with per-bag exact covers (same
        node budget as the GA's rescore), so the measured width equals
        the solver's claim whenever the claim was honest — and wins
        when it was not.
        """
        ghd = ghd_from_ordering(
            self.hypergraph, ordering, cover_function=_exact_cover_function
        )
        width = ghd.ghw_width
        certificate = certify(ghd, self.hypergraph, claimed_width=width)
        if not certificate.ok:
            problems = "; ".join(
                violation.message for violation in certificate.violations
            )
            raise IncrementalSolveError(
                f"certification failed after {source}: {problems}"
            )
        lower_bound = min(lower_bound, width)
        result = IncrementalResult(
            width=width,
            ordering=list(ordering),
            lower_bound=lower_bound,
            exact=lower_bound >= width,
            warm=warm,
            source=source,
            elapsed_seconds=time.monotonic() - start,
            revision=self.hypergraph.revision,
            certificate=certificate,
        )
        self.last = result
        return result
