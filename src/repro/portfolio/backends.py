"""The solver backends the portfolio races.

Each backend adapts one of the repo's anytime solvers to a uniform
surface: ``run(structure, config, hooks) -> BackendReport``.  Treewidth
backends accept graphs (and hypergraphs via their primal graph, which
every solver already handles); ghw and fhw backends require
hypergraphs (graphs are lifted).  fhw bounds are exact rationals
(``int`` or ``Fraction``) — the shared channel and the reports carry
them without rounding.

The ``min-fill`` backend is the portfolio's seed: it computes the greedy
heuristic bounds in milliseconds and publishes them, so the expensive
searches start with a tight incumbent no matter which worker wins the
scheduling race.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from ..bounds.ghw_lower import ghw_lower_bound
from ..bounds.lower import minor_gamma_r, minor_min_width
from ..bounds.upper import best_heuristic_ordering
from ..decomposition import ghw_ordering_width
from ..genetic import GAParameters, ga_fhw, ga_ghw, ga_treewidth
from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from ..search import (
    BoundHooks,
    SearchBudget,
    astar_fhw,
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
)
from ..search.ghw_common import GhwSearchContext, initial_ghw_bounds
from ..widths import Width, as_width


@dataclass
class BackendConfig:
    """Per-worker knobs, picklable for the process boundary.

    ``deterministic`` trades the wall-clock budget for a fixed amount of
    work (node budget for the searches, generation budget for the GA) so
    a worker's outcome depends only on its seed.  ``trace`` turns on the
    worker-local telemetry tracer (a bool, not a tracer object — the
    config crosses the process boundary).

    ``initial_upper`` / ``initial_lower`` / ``warm_ordering`` are the
    warm-start seam of the incremental re-solve API: the caller asserts
    a witnessed upper bound (``warm_ordering`` is its certificate) and a
    proven lower bound, the searches start with that incumbent, and the
    GAs inject the ordering into their initial population.  Soundness is
    the caller's contract — the runner never invents these.
    """

    max_seconds: float | None = None
    max_nodes: int | None = None
    seed: int = 0
    deterministic: bool = False
    ga_population: int = 40
    ga_generations: int = 120
    poll_interval: int = 64
    trace: bool = False
    initial_upper: int | None = None
    initial_lower: int | None = None
    warm_ordering: list | None = None


@dataclass
class BackendReport:
    """What one worker sends home.

    ``upper_bound`` is witnessed by ``ordering``; ``lower_bound`` is the
    worker's own proof (``None`` for heuristic-only backends like the
    GA).  ``events`` is the worker-local bound stream (filled in by the
    runner's worker shim, which also stamps ``elapsed_seconds`` with the
    worker's wall time).  ``error`` marks a worker that raised — the
    bound fields are then meaningless.

    ``witness`` is the decomposition payload
    (:meth:`~repro.decomposition.htd.HypertreeDecomposition.to_payload`)
    for metrics whose certificate is a tree rather than an elimination
    ordering — the hw backends fill it and leave ``ordering`` None.
    """

    backend: str
    upper_bound: Width | None = None
    lower_bound: Width | None = None
    ordering: list | None = None
    exact: bool = False
    nodes: int = 0
    elapsed_seconds: float = 0.0
    stopped_by_bound: bool = False
    error: str | None = None
    events: list = field(default_factory=list)
    trace_records: list = field(default_factory=list)
    witness: dict | None = None


def _budget(config: BackendConfig, hooks: BoundHooks) -> SearchBudget:
    return SearchBudget(
        max_nodes=config.max_nodes,
        max_seconds=None if config.deterministic else config.max_seconds,
        hooks=hooks,
    )


def _search_report(name: str, result) -> BackendReport:
    return BackendReport(
        backend=name,
        upper_bound=result.upper_bound,
        lower_bound=result.lower_bound,
        ordering=list(result.ordering) if result.ordering is not None else None,
        exact=result.exact,
        nodes=result.stats.nodes_expanded,
    )


def _ga_report(name: str, result) -> BackendReport:
    # as_width, not int(): truncating a rational fitness (int(3/2) == 1)
    # would report an unwitnessed — unsound — upper bound.
    return BackendReport(
        backend=name,
        upper_bound=as_width(result.best_fitness),
        lower_bound=None,
        ordering=list(result.best_individual) or None,
        exact=False,
        nodes=result.evaluations,
        stopped_by_bound=result.stopped_by_bound,
    )


def _ga_parameters(config: BackendConfig) -> GAParameters:
    return GAParameters(
        population_size=config.ga_population,
        generations=config.ga_generations,
    )


def _warm_seeds(config: BackendConfig) -> list | None:
    """The warm-start ordering as a GA seed population (or None)."""
    if config.warm_ordering is None:
        return None
    return [list(config.warm_ordering)]


def _as_hypergraph(structure: Graph | Hypergraph) -> Hypergraph:
    if isinstance(structure, Hypergraph):
        return structure
    return Hypergraph.from_graph(structure)


# -- treewidth backends -------------------------------------------------


def _run_astar_tw(structure, config: BackendConfig, hooks: BoundHooks):
    result = astar_treewidth(
        structure,
        budget=_budget(config, hooks),
        rng=random.Random(config.seed),
    )
    return _search_report("astar-tw", result)


def _run_bb_tw(structure, config: BackendConfig, hooks: BoundHooks):
    result = branch_and_bound_treewidth(
        structure,
        budget=_budget(config, hooks),
        rng=random.Random(config.seed),
    )
    return _search_report("bb-tw", result)


def _run_ga_tw(structure, config: BackendConfig, hooks: BoundHooks):
    result = ga_treewidth(
        structure,
        _ga_parameters(config),
        rng=random.Random(config.seed),
        max_seconds=None if config.deterministic else config.max_seconds,
        hooks=hooks,
        seed_individuals=_warm_seeds(config),
    )
    return _ga_report("ga-tw", result)


# -- ghw backends -------------------------------------------------------


def _run_bb_ghw(structure, config: BackendConfig, hooks: BoundHooks):
    result = branch_and_bound_ghw(
        _as_hypergraph(structure),
        budget=_budget(config, hooks),
        rng=random.Random(config.seed),
    )
    return _search_report("bb-ghw", result)


def _run_astar_ghw(structure, config: BackendConfig, hooks: BoundHooks):
    result = astar_ghw(
        _as_hypergraph(structure),
        budget=_budget(config, hooks),
        rng=random.Random(config.seed),
    )
    return _search_report("astar-ghw", result)


def _run_ga_ghw(structure, config: BackendConfig, hooks: BoundHooks):
    result = ga_ghw(
        _as_hypergraph(structure),
        _ga_parameters(config),
        rng=random.Random(config.seed),
        max_seconds=None if config.deterministic else config.max_seconds,
        hooks=hooks,
        seed_individuals=_warm_seeds(config),
    )
    return _ga_report("ga-ghw", result)


# -- hw backends --------------------------------------------------------


def _run_optk_hw(structure, config: BackendConfig, hooks: BoundHooks):
    """opt-k-decomp: the descending certified ladder with cross-rung
    (component, connector) dominance records.  Publishes every rung's
    certified incumbent and consumes external bounds between rungs."""
    from ..search.optkdecomp import opt_k_decomp

    hypergraph = _as_hypergraph(structure)
    result = opt_k_decomp(
        hypergraph,
        max_states=(
            config.max_nodes if config.max_nodes is not None else 200000
        ),
        tracer=hooks.tracer,
        hooks=hooks,
    )
    return BackendReport(
        backend="optk-hw",
        upper_bound=result.upper,
        lower_bound=result.lower,
        ordering=None,
        exact=result.exact,
        nodes=result.subproblems,
        witness=(
            result.decomposition.to_payload()
            if result.decomposition is not None
            else None
        ),
    )


def _run_cdcl_hw(structure, config: BackendConfig, hooks: BoundHooks):
    """The pure-python CDCL backend: one hw formula, incremental
    k-ladder assumptions, learned clauses shared across rungs.  The
    conflict budget plays the role of the node budget."""
    from ..sat import cdcl_hypertree_width

    hypergraph = _as_hypergraph(structure)
    result = cdcl_hypertree_width(
        hypergraph,
        max_conflicts=(
            config.max_nodes if config.max_nodes is not None else 100000
        ),
        tracer=hooks.tracer,
        hooks=hooks,
    )
    return BackendReport(
        backend="cdcl-hw",
        upper_bound=result.upper,
        lower_bound=result.lower,
        ordering=None,
        exact=result.exact,
        nodes=result.conflicts,
        witness=(
            result.decomposition.to_payload()
            if result.decomposition is not None
            else None
        ),
    )


# -- fhw backends -------------------------------------------------------


def _run_astar_fhw(structure, config: BackendConfig, hooks: BoundHooks):
    result = astar_fhw(
        _as_hypergraph(structure),
        budget=_budget(config, hooks),
        rng=random.Random(config.seed),
    )
    return _search_report("astar-fhw", result)


def _run_ga_fhw(structure, config: BackendConfig, hooks: BoundHooks):
    result = ga_fhw(
        _as_hypergraph(structure),
        _ga_parameters(config),
        rng=random.Random(config.seed),
        max_seconds=None if config.deterministic else config.max_seconds,
        hooks=hooks,
        seed_individuals=_warm_seeds(config),
    )
    return _ga_report("ga-fhw", result)


# -- min-fill seed backends ---------------------------------------------


def _minfill_tw_bounds(graph: Graph, rng: random.Random):
    lb = max(minor_min_width(graph, rng), minor_gamma_r(graph, rng))
    ordering, ub = best_heuristic_ordering(graph, rng)
    return lb, ub, list(ordering), None


def _minfill_ghw_bounds(hypergraph: Hypergraph, rng: random.Random):
    lb = ghw_lower_bound(hypergraph, rng)
    ordering, _tw = best_heuristic_ordering(hypergraph, rng)
    ub = ghw_ordering_width(hypergraph, list(ordering))
    return lb, ub, list(ordering), None


def _minfill_hw_bounds(hypergraph: Hypergraph, rng: random.Random):
    """A certified ``htd_from_ordering`` witness on the min-fill
    ordering for the upper bound, the ghw lower-bound battery
    (ghw ≤ hw) for the lower."""
    from ..bounds.upper import min_fill_ordering
    from ..decomposition.htd import htd_from_ordering
    from ..verify.certificate import assert_certified

    lb = ghw_lower_bound(hypergraph, rng)
    htd = htd_from_ordering(hypergraph, min_fill_ordering(hypergraph, rng))
    assert_certified(htd, hypergraph, "min-fill hw witness")
    return lb, htd.ghw_width, None, htd.to_payload()


def _minfill_fhw_bounds(hypergraph: Hypergraph, rng: random.Random):
    """Min-fill ordering scored with exact rational LP covers for the
    upper bound, the un-ceiled (mmw+1)/rank bound for the lower."""
    context = GhwSearchContext(hypergraph, measure="fractional")
    lb = context.heuristic(BitGraph.from_hypergraph(hypergraph))
    ordering, _tw = best_heuristic_ordering(hypergraph, rng)
    ub = initial_ghw_bounds(hypergraph, context, list(ordering))
    return lb, ub, list(ordering), None


def _run_minfill(
    name: str, metric: str, bounds: Callable, structure,
    config: BackendConfig, hooks: BoundHooks,
):
    """A seed backend: ``bounds(structure, rng)`` returns
    ``(lb, ub, ordering, witness)`` in milliseconds, published before
    the report goes home.  Edgeless instances (vertexless graphs for tw)
    have width 0 and publish nothing."""
    if metric == "tw":
        structure = (
            structure.primal_graph()
            if isinstance(structure, Hypergraph)
            else structure.copy()
        )
        empty = structure.num_vertices == 0
    else:
        structure = _as_hypergraph(structure)
        empty = structure.num_edges == 0
    if empty:
        return BackendReport(
            backend=name, upper_bound=0, lower_bound=0,
            ordering=None if metric == "hw" else structure.vertex_list(),
            exact=True,
        )
    lb, ub, ordering, witness = bounds(structure, random.Random(config.seed))
    if hooks.publish_lower is not None:
        hooks.publish_lower(lb)
    if hooks.publish_upper is not None:
        hooks.publish_upper(ub)
    return BackendReport(
        backend=name,
        upper_bound=ub,
        lower_bound=lb,
        ordering=ordering,
        exact=lb >= ub,
        nodes=0,
        witness=witness,
    )


def _run_balanced_ghw(structure, config: BackendConfig, hooks: BoundHooks):
    """Balanced-separator splitting (`repro.parallel`).

    The recursion runs inside this backend's worker process, as it does
    in ``python -m repro balanced``.  Every certified incumbent is
    published through the shared channel and external upper bounds are
    consumed to skip dead rungs of the k-ladder.

    ``ordering`` is None: the witness is a stitched GHD, not an
    elimination ordering — which is why this backend is not in
    ``DEFAULT_BACKENDS`` (downstream witness-replay paths expect
    orderings); select it explicitly.
    """
    from ..parallel import BalancedConfig, balanced_ghw

    result = balanced_ghw(
        _as_hypergraph(structure),
        BalancedConfig(
            deterministic=config.deterministic,
            max_seconds=config.max_seconds,
        ),
        hooks=hooks,
    )
    return BackendReport(
        backend="balanced-ghw",
        upper_bound=result.width,
        lower_bound=result.lower_bound,
        ordering=None,
        exact=result.exact,
        nodes=int(result.stats.get("parallel.subproblems", 0)),
    )


@dataclass(frozen=True)
class BackendSpec:
    """A named backend: which metric it bounds and how to run it."""

    name: str
    kind: str  # "tw" | "ghw" | "fhw" | "hw"
    run: Callable


BACKENDS: dict[str, BackendSpec] = {
    spec.name: spec
    for spec in (
        BackendSpec("astar-tw", "tw", _run_astar_tw),
        BackendSpec("bb-tw", "tw", _run_bb_tw),
        BackendSpec("ga-tw", "tw", _run_ga_tw),
        BackendSpec(
            "min-fill", "tw",
            partial(_run_minfill, "min-fill", "tw", _minfill_tw_bounds),
        ),
        BackendSpec("bb-ghw", "ghw", _run_bb_ghw),
        BackendSpec("astar-ghw", "ghw", _run_astar_ghw),
        BackendSpec("ga-ghw", "ghw", _run_ga_ghw),
        BackendSpec(
            "min-fill-ghw", "ghw",
            partial(_run_minfill, "min-fill-ghw", "ghw", _minfill_ghw_bounds),
        ),
        BackendSpec("balanced-ghw", "ghw", _run_balanced_ghw),
        BackendSpec("astar-fhw", "fhw", _run_astar_fhw),
        BackendSpec("ga-fhw", "fhw", _run_ga_fhw),
        BackendSpec(
            "min-fill-fhw", "fhw",
            partial(_run_minfill, "min-fill-fhw", "fhw", _minfill_fhw_bounds),
        ),
        BackendSpec("optk-hw", "hw", _run_optk_hw),
        BackendSpec("cdcl-hw", "hw", _run_cdcl_hw),
        BackendSpec(
            "min-fill-hw", "hw",
            partial(_run_minfill, "min-fill-hw", "hw", _minfill_hw_bounds),
        ),
    )
}

DEFAULT_BACKENDS: dict[str, tuple[str, ...]] = {
    "tw": ("astar-tw", "bb-tw", "ga-tw", "min-fill"),
    "ghw": ("bb-ghw", "astar-ghw", "ga-ghw", "min-fill-ghw"),
    "fhw": ("astar-fhw", "ga-fhw", "min-fill-fhw"),
    "hw": ("optk-hw", "cdcl-hw", "min-fill-hw"),
}


def resolve_backends(
    names: list[str] | tuple[str, ...] | None, kind: str
) -> list[BackendSpec]:
    """Validate a backend selection against the instance kind."""
    if names is None:
        names = DEFAULT_BACKENDS[kind]
    specs = []
    for name in names:
        spec = BACKENDS.get(name)
        if spec is None:
            raise ValueError(
                f"unknown backend {name!r} (known: {sorted(BACKENDS)})"
            )
        if spec.kind != kind:
            raise ValueError(
                f"backend {name!r} computes {spec.kind}, not {kind}"
            )
        specs.append(spec)
    if not specs:
        raise ValueError("no backends selected")
    return specs
