"""GA-ghw: a genetic algorithm for generalized hypertree width upper
bounds (Chapter 7.1).

Identical to GA-tw except for the fitness: the width of the GHD obtained
from the ordering by bucket elimination plus greedy set covering of every
bag (Fig. 7.1 + Fig. 7.2).  Greedy covers make the fitness an upper bound
on ``width(σ, H)`` — cheap and good enough for evolution; the final best
ordering can be re-scored with exact covers for a tighter reported bound.

The hot fitness path runs on bitmask kernels end to end: bags come from
the :class:`~repro.decomposition.elimination.OrderingEvaluator` (bitset
adjacency), and the greedy covers use the hypergraph's cached incidence
index (per-edge vertex bitmasks) for popcount gain computation.

The fitness path is *incremental* (:class:`PrefixGhwEvaluator`):
the evaluator keeps one BitGraph elimination in flight, rewinds to the
longest prefix an ordering shares with the previous one (eliminate /
restore are reversible), and re-eliminates only the changed suffix —
crossover and mutation children share long prefixes with their parents,
and each generation is evaluated in lexicographic order of interned
vertex bits to maximize that sharing.  Bags go to the bitmask cover
engine (:class:`~repro.setcover.bitcover.BitCoverEngine`), whose strict
greedy memo keeps the fitness values bit-identical to the Fig. 7.1 + 7.2
reference (direct elimination produces the same bags as the Fig. 6.2
indirect propagation — ``vertex_elimination`` is property-tested against
``bucket_elimination``).
"""

from __future__ import annotations

import random

from ..decomposition.elimination import OrderingEvaluator, elimination_bags
from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.hypergraph import Hypergraph
from ..setcover.bitcover import BitCoverEngine
from ..setcover.exact import exact_set_cover
from ..setcover.greedy import greedy_set_cover
from ..telemetry import NULL_TRACER, Metrics
from ..widths import Width
from .engine import GAParameters, GAResult, run_permutation_ga


def ghw_fitness(
    hypergraph: Hypergraph,
    ordering: list,
    rng: random.Random | None = None,
    cache: dict | None = None,
    evaluator: "OrderingEvaluator | None" = None,
) -> int:
    """GHD width of ``ordering`` under greedy covers (Fig. 7.1).

    A shared ``cache`` (bag -> cover size) lets a GA run amortize covers
    across individuals, which share many bags; a shared ``evaluator``
    amortizes the primal-adjacency construction.
    """
    if evaluator is not None:
        bags = evaluator.bags(ordering)
    else:
        bags = elimination_bags(hypergraph, ordering)
    width = 0
    for bag in bags.values():
        if cache is not None and bag in cache:
            size = cache[bag]
        else:
            size = len(greedy_set_cover(bag, hypergraph, rng))
            if cache is not None:
                cache[bag] = size
        if size > width:
            width = size
    return width


class PrefixGhwEvaluator:
    """Incremental GA-ghw fitness: shared elimination prefixes are
    evaluated once.

    Keeps a single :class:`BitGraph` elimination in flight together with
    the running width after each prefix position.  Scoring an ordering
    restores the graph back to the longest prefix it shares with the
    previously scored ordering and eliminates only the suffix; each
    bag's greedy cover comes from the engine's strict memo, so values
    equal ``ghw_fitness`` exactly.  ``evaluate_population`` additionally
    sorts each generation's individuals lexicographically (by interned
    vertex bit) before scoring — siblings produced by crossover share
    long prefixes, and neighbours in lexicographic order share the
    longest ones — then reports fitnesses in the original positions.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        engine: BitCoverEngine | None = None,
        metrics: Metrics | None = None,
        measure: str = "integral",
    ):
        if measure not in ("integral", "fractional"):
            raise ValueError(f"unknown bag-cost measure {measure!r}")
        self.engine = engine or BitCoverEngine(hypergraph, metrics)
        self.measure = measure
        # The per-bag scorer: greedy covers for GA-ghw (bit-identical to
        # Fig. 7.2), the exact rational LP for GA-fhw (fitness is then
        # the true width_f of the ordering, not just an upper bound).
        self._size = (
            self.engine.fractional_size
            if measure == "fractional"
            else self.engine.greedy_size
        )
        # Elimination state: filled adjacency masks (BitGraph interning,
        # mutated in place) with a per-step undo log of (bit, old mask)
        # pairs — the minimal reversible elimination, much lighter than
        # BitGraph's record objects on this innermost GA loop.
        graph = BitGraph.from_hypergraph(hypergraph)
        self._index, self._labels, self._adj = graph.adjacency_masks()
        self._adj = list(self._adj)
        self._present = (1 << len(self._labels)) - 1
        self._undo: list[list[tuple[int, int]]] = []
        self._path_bits: list[int] = []
        self._widths: list[Width] = []
        self._reused = metrics.counter("ga.prefix.reused") if metrics else None
        self._scored = metrics.counter("ga.prefix.scored") if metrics else None

    def order_bits(self, ordering: list) -> list[int]:
        """``ordering`` as interned bit positions (the engine's / the
        BitGraph's shared numbering)."""
        index = self._index
        return [index[v] for v in ordering]

    def fitness(self, ordering: list) -> Width:
        """``ghw_fitness`` of ``ordering`` (its ``width_f`` under the
        fractional measure), reusing the shared prefix."""
        return self._fitness_bits(self.order_bits(ordering))

    def _fitness_bits(self, order_bits: list[int]) -> Width:
        path = self._path_bits
        widths = self._widths
        adj = self._adj
        shared = 0
        limit = min(len(path), len(order_bits))
        while shared < limit and path[shared] == order_bits[shared]:
            shared += 1
        while len(path) > shared:
            for b, old in self._undo.pop():
                adj[b] = old
            self._present |= 1 << path.pop()
            widths.pop()
        if self._reused is not None:
            self._reused.inc(shared)
            self._scored.inc(len(order_bits))
        width = widths[-1] if widths else 0
        bag_size = self._size
        present = self._present
        for b in order_bits[shared:]:
            bit = 1 << b
            nbrs = adj[b] & present
            # The bag of b is its closed neighborhood in the current
            # filled graph — read it before eliminating.
            size = bag_size(nbrs | bit)
            if size > width:
                width = size
            present &= ~bit
            undo = []
            m = nbrs
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                old = adj[u]
                new = (old | nbrs) & ~low
                if new != old:
                    undo.append((u, old))
                    adj[u] = new
            self._undo.append(undo)
            path.append(b)
            widths.append(width)
        self._present = present
        return width

    def evaluate_population(self, population: list[list]) -> list[Width]:
        """Fitnesses of a whole generation, scored in prefix-friendly
        order, reported in the population's order."""
        as_bits = [self.order_bits(ind) for ind in population]
        order = sorted(range(len(population)), key=as_bits.__getitem__)
        fitnesses: list[Width] = [0] * len(population)
        for i in order:
            fitnesses[i] = self._fitness_bits(as_bits[i])
        return fitnesses


def ga_ghw(
    hypergraph: Hypergraph,
    parameters: GAParameters | None = None,
    rng: random.Random | None = None,
    max_seconds: float | None = None,
    rescore_exact: bool = True,
    seed_with_heuristics: bool = False,
    tracer=NULL_TRACER,
    metrics: Metrics | None = None,
    engine: BitCoverEngine | None = None,
    seed_individuals: list | None = None,
) -> GAResult:
    """Run GA-ghw; ``result.best_fitness`` is a ghw upper bound and
    ``result.best_individual`` the witnessing ordering.

    With ``rescore_exact`` the returned best fitness is the exact
    ``width(σ, H)`` of the best ordering (never larger than the greedy
    score, still an upper bound on ghw).  ``seed_with_heuristics``
    injects the min-fill / min-degree orderings into the initial
    population — an extension beyond the thesis' fully random
    initialization (off by default for fidelity; it collapses the
    thesis' adder/bridge regressions because min-fill already finds the
    structured optima there).  ``tracer`` receives the run's ``ga``
    span and events.

    Individuals are scored by a :class:`PrefixGhwEvaluator` — the same
    values as :func:`ghw_fitness` bit for bit, with shared elimination
    prefixes evaluated once.  ``metrics`` receives its cover-cache and
    prefix-reuse counters.  ``engine`` shares a live
    :class:`BitCoverEngine` (and its cover cache) with the caller — the
    incremental re-solve API passes its edited engine here.
    ``seed_individuals`` injects explicit orderings into the initial
    population (e.g. the previous decomposition's repaired ordering),
    on top of ``seed_with_heuristics``.
    """
    result = _prefix_ga(
        hypergraph, "integral", parameters, rng,
        max_seconds, seed_with_heuristics, tracer, metrics, engine,
        seed_individuals,
    )
    if rescore_exact and result.best_individual:
        bags = elimination_bags(hypergraph, result.best_individual)
        exact_width = max(
            len(exact_set_cover(bag, hypergraph, max_nodes=20000))
            for bag in bags.values()
        )
        if exact_width < result.best_fitness:
            result.best_fitness = exact_width
    return result


def ga_fhw(
    hypergraph: Hypergraph,
    parameters: GAParameters | None = None,
    rng: random.Random | None = None,
    max_seconds: float | None = None,
    seed_with_heuristics: bool = False,
    tracer=NULL_TRACER,
    metrics: Metrics | None = None,
    engine: BitCoverEngine | None = None,
    seed_individuals: list | None = None,
) -> GAResult:
    """Run GA-fhw; ``result.best_fitness`` is a rational fhw upper bound
    (``int`` or ``Fraction``, never float) witnessed by
    ``result.best_individual``.

    GA-ghw with the fitness measure swapped: each bag is scored by the
    exact rational LP of :mod:`repro.setcover.fractional` through the
    engine's dominance-cached fractional layer, so the fitness *is* the
    exact ``width_f(σ, H)`` of the ordering — no rescore pass exists
    because there is nothing tighter to rescore with.
    """
    return _prefix_ga(
        hypergraph, "fractional", parameters, rng,
        max_seconds, seed_with_heuristics, tracer, metrics, engine,
        seed_individuals,
    )


def _prefix_ga(
    hypergraph, measure, parameters, rng, max_seconds,
    seed_with_heuristics, tracer, metrics, engine, seed_individuals,
) -> GAResult:
    """The GA run shared by :func:`ga_ghw` and :func:`ga_fhw`: one
    :class:`PrefixGhwEvaluator` under the bag-cost ``measure``."""
    isolated = hypergraph.isolated_vertices()
    if isolated:
        kind = "fractional" if measure == "fractional" else "generalized"
        raise ValueError(
            f"hypergraph has isolated vertices {sorted(map(repr, isolated))}; "
            f"no {kind} hypertree decomposition exists"
        )
    params = parameters or GAParameters()
    generator = rng or random.Random(0)
    vertices = hypergraph.vertex_list()
    if not vertices or hypergraph.num_edges == 0:
        return GAResult(0, list(vertices), 0, 0, [0])

    seeds = [list(seed) for seed in seed_individuals or []]
    if seed_with_heuristics:
        from ..bounds.upper import min_degree_ordering, min_fill_ordering

        seeds += [
            min_fill_ordering(hypergraph),
            min_degree_ordering(hypergraph),
        ]

    evaluator = PrefixGhwEvaluator(
        hypergraph, engine=engine, metrics=metrics, measure=measure
    )
    return run_permutation_ga(
        elements=vertices,
        fitness=evaluator.fitness,
        parameters=params,
        rng=generator,
        max_seconds=max_seconds,
        seed_individuals=seeds or None,
        tracer=tracer,
        fitness_batch=evaluator.evaluate_population,
    )
