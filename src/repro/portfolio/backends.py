"""The solver backends the portfolio races.

Each backend adapts one of the repo's anytime solvers to a uniform
surface: ``run(structure, config, hooks) -> BackendReport``.  Treewidth
backends accept graphs (and hypergraphs via their primal graph, which
every solver already handles); ghw and fhw backends require
hypergraphs (graphs are lifted).  fhw bounds are exact rationals
(``int`` or ``Fraction``) — the shared channel and the reports carry
them without rounding.

Every default backend is an exact search that computes the min-fill
upper bound and its metric's lower bound at its own root and publishes
them, so the race needs no separate worker to seed an incumbent.

Every default backend's solver module is imported here, at module
level: the runner forks its workers from a process that has imported
this module, so no worker pays a solver import of its own.  Only the
opt-in ``balanced-ghw`` imports :mod:`repro.parallel` when it runs.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from ..decomposition import (
    TreeDecomposition,
    bucket_elimination,
    fhd_from_ordering,
    ghd_from_ordering,
)
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
    opt_k_decomp,
)
from ..setcover import exact_set_cover
from ..setcover.bitcover import BitCoverEngine
from ..widths import Width


@dataclass
class BackendConfig:
    """Per-worker knobs, picklable for the process boundary.

    ``deterministic`` trades the wall-clock budget for a fixed amount of
    work (the node budget) so a worker's outcome depends only on its
    seed.  ``trace`` turns on the worker-local telemetry tracer (a bool,
    not a tracer object — the config crosses the process boundary).

    ``initial_upper`` / ``initial_lower`` are the warm-start seam: the
    caller asserts a witnessed upper bound and a proven lower bound, and
    the searches start with that incumbent.  Soundness is the caller's
    contract — the runner never invents these.
    """

    max_seconds: float | None = None
    max_nodes: int | None = None
    seed: int = 0
    deterministic: bool = False
    trace: bool = False
    initial_upper: int | None = None
    initial_lower: int | None = None


@dataclass
class BackendReport:
    """What one worker sends home.

    ``upper_bound`` is witnessed by ``witness``, the decomposition the
    worker built for it: a :class:`TreeDecomposition` for tw, a GHD with
    exact λ-labels for ghw, an FHD with ``Fraction`` weights for fhw and
    a :class:`HypertreeDecomposition` for hw.  ``ordering`` is the
    elimination ordering the tw, ghw and fhw witnesses were built from
    (None for hw and ``balanced-ghw``, whose trees come from no
    ordering).  ``lower_bound`` is the worker's own proof (``None`` when
    the backend proves none).  ``events`` is the
    worker-local bound stream (filled in by the runner's worker shim,
    which also stamps ``elapsed_seconds`` with the worker's wall time).
    ``error`` marks a worker that raised — the bound fields are then
    meaningless.  ``stopped`` marks a worker that abandoned its run
    because the race was decided elsewhere: it carries no bounds and no
    witness, so a report is either complete or stopped, never a bound
    without its witness.
    """

    backend: str
    upper_bound: Width | None = None
    lower_bound: Width | None = None
    ordering: list | None = None
    exact: bool = False
    nodes: int = 0
    elapsed_seconds: float = 0.0
    error: str | None = None
    stopped: bool = False
    events: list = field(default_factory=list)
    trace_records: list = field(default_factory=list)
    witness: TreeDecomposition | None = None


def _budget(config: BackendConfig, hooks: BoundHooks) -> SearchBudget:
    return SearchBudget(
        max_nodes=config.max_nodes,
        max_seconds=None if config.deterministic else config.max_seconds,
        hooks=hooks,
    )


def _certificate(
    kind: str, structure, ordering, hooks: BoundHooks | None = None,
    engine: BitCoverEngine | None = None,
) -> TreeDecomposition | None:
    """The decomposition a tw, ghw or fhw ``ordering`` witnesses, built
    in the worker so the verify-on-insert gate only checks it.  A race
    decided elsewhere raises :class:`RaceStopped` here, before any
    witness work.  ``engine`` is the fhw solver's cover engine: its
    solved LPs give the witness's weights."""
    if hooks is not None:
        hooks.check_stop()
    if ordering is None:
        return None
    if kind == "tw":
        return bucket_elimination(structure, ordering)
    if kind == "ghw":
        # Exact covers: greedy λ-labels could measure wider than the
        # backend's claim and get an honest certificate rejected.
        return ghd_from_ordering(
            _as_hypergraph(structure), ordering,
            cover_function=exact_set_cover,
        )
    return fhd_from_ordering(_as_hypergraph(structure), ordering, engine)


def _search_report(
    name: str, kind: str, structure, result, hooks: BoundHooks | None = None,
    engine: BitCoverEngine | None = None,
) -> BackendReport:
    ordering = list(result.ordering) if result.ordering is not None else None
    return BackendReport(
        backend=name,
        upper_bound=result.upper_bound,
        lower_bound=result.lower_bound,
        ordering=ordering,
        exact=result.exact,
        nodes=result.stats.nodes_expanded,
        witness=_certificate(kind, structure, ordering, hooks, engine),
    )


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
    return _search_report("astar-tw", "tw", structure, result, hooks)


def _run_bb_tw(structure, config: BackendConfig, hooks: BoundHooks):
    result = branch_and_bound_treewidth(
        structure,
        budget=_budget(config, hooks),
        rng=random.Random(config.seed),
    )
    return _search_report("bb-tw", "tw", structure, result, hooks)


# -- ghw backends -------------------------------------------------------


def _run_bb_ghw(structure, config: BackendConfig, hooks: BoundHooks):
    result = branch_and_bound_ghw(
        _as_hypergraph(structure),
        budget=_budget(config, hooks),
        rng=random.Random(config.seed),
    )
    return _search_report("bb-ghw", "ghw", structure, result, hooks)


def _run_astar_ghw(structure, config: BackendConfig, hooks: BoundHooks):
    result = astar_ghw(
        _as_hypergraph(structure),
        budget=_budget(config, hooks),
        rng=random.Random(config.seed),
    )
    return _search_report("astar-ghw", "ghw", structure, result, hooks)


# -- hw backends --------------------------------------------------------


def _run_optk_hw(structure, config: BackendConfig, hooks: BoundHooks):
    """opt-k-decomp: the descending certified ladder with cross-rung
    (component, connector) dominance records.  Publishes every rung's
    certified incumbent and consumes external bounds between rungs."""
    hypergraph = _as_hypergraph(structure)
    result = opt_k_decomp(
        hypergraph,
        max_states=(
            config.max_nodes if config.max_nodes is not None else 200000
        ),
        max_seconds=None if config.deterministic else config.max_seconds,
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
        witness=result.decomposition,
    )


# -- fhw backends -------------------------------------------------------


def _run_astar_fhw(structure, config: BackendConfig, hooks: BoundHooks):
    hypergraph = _as_hypergraph(structure)
    engine = BitCoverEngine(hypergraph)
    result = astar_fhw(
        hypergraph,
        budget=_budget(config, hooks),
        rng=random.Random(config.seed),
        engine=engine,
    )
    return _search_report(
        "astar-fhw", "fhw", structure, result, hooks, engine
    )


def _run_balanced_ghw(structure, config: BackendConfig, hooks: BoundHooks):
    """Balanced-separator splitting (`repro.parallel`).

    The recursion runs inside this backend's worker process, as it does
    in ``python -m repro balanced``.  Every certified incumbent is
    published through the shared channel and external upper bounds are
    consumed to skip dead rungs of the k-ladder.

    The witness is the stitched GHD and ``ordering`` is None: no
    elimination ordering built that tree, so a ghw answer it wins is
    served without one — which is why this backend is not in
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
        witness=result.decomposition,
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
        BackendSpec("bb-ghw", "ghw", _run_bb_ghw),
        BackendSpec("astar-ghw", "ghw", _run_astar_ghw),
        BackendSpec("balanced-ghw", "ghw", _run_balanced_ghw),
        BackendSpec("astar-fhw", "fhw", _run_astar_fhw),
        BackendSpec("optk-hw", "hw", _run_optk_hw),
    )
}

DEFAULT_BACKENDS: dict[str, tuple[str, ...]] = {
    "tw": ("astar-tw", "bb-tw"),
    "ghw": ("bb-ghw", "astar-ghw"),
    "fhw": ("astar-fhw",),
    "hw": ("optk-hw",),
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
