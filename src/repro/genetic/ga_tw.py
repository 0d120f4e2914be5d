"""GA-tw: a genetic algorithm for treewidth upper bounds (Chapter 6).

Individuals are elimination orderings; the fitness of an ordering is the
width of the tree decomposition bucket elimination builds from it
(Fig. 6.2 — computed by :func:`repro.decomposition.ordering_width` in
O(|V| + |E'|)).  Applied to a hypergraph the GA runs on the primal graph
(Lemma 1 makes the bound valid for the hypergraph too).

Fitness evaluation runs on the bitset kernel: the shared
:class:`~repro.decomposition.elimination.OrderingEvaluator` snapshots the
primal adjacency as per-vertex bitmasks once, so each of the thousands of
width evaluations per run is a loop over machine-word operations.
"""

from __future__ import annotations

import random

from ..decomposition.elimination import OrderingEvaluator
from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from ..telemetry import NULL_TRACER, Metrics
from .engine import GAParameters, GAResult, run_permutation_ga


def ga_treewidth(
    structure: Graph | Hypergraph,
    parameters: GAParameters | None = None,
    rng: random.Random | None = None,
    max_seconds: float | None = None,
    seed_with_heuristics: bool = False,
    tracer=NULL_TRACER,
    metrics: Metrics | None = None,
    seed_individuals: list | None = None,
) -> GAResult:
    """Run GA-tw; ``result.best_fitness`` is a treewidth upper bound and
    ``result.best_individual`` the witnessing elimination ordering.

    ``seed_with_heuristics`` injects the min-fill / min-degree orderings
    into the initial population (an extension beyond the thesis' fully
    random initialization; useful in practice, off by default for
    fidelity); ``seed_individuals`` injects explicit orderings on top.
    ``tracer`` receives the run's ``ga`` span and events.
    ``metrics`` keeps the call surface uniform with :func:`ga_ghw`;
    GA-tw has no cover cache, so it records no counters.
    """
    graph = (
        structure.primal_graph()
        if isinstance(structure, Hypergraph)
        else structure
    )
    params = parameters or GAParameters()
    generator = rng or random.Random(0)
    vertices = graph.vertex_list()
    if len(vertices) == 0:
        return GAResult(0, [], 0, 0, [0])

    seeds = [list(seed) for seed in seed_individuals or []]
    if seed_with_heuristics:
        from ..bounds.upper import min_degree_ordering, min_fill_ordering

        seeds += [min_fill_ordering(graph), min_degree_ordering(graph)]
    seeds = seeds or None

    return run_permutation_ga(
        elements=vertices,
        fitness=OrderingEvaluator(graph).width,
        parameters=params,
        rng=generator,
        max_seconds=max_seconds,
        seed_individuals=seeds,
        tracer=tracer,
    )
