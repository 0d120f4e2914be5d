"""Frozenset vs. bitmask cover engine benchmarks for the ghw hot paths.

Two workloads, per ghw table instance:

* ``covers`` — the bag-cover query stream of an elimination search:
  exact covers of the elimination bags of several random orderings plus
  greedy covers of the shrinking remaining vertex sets (the completion
  bounds).  The baseline answers it the way the pre-engine
  ``GhwSearchContext`` did — :func:`exact_set_cover` /
  :func:`greedy_set_cover` over frozensets with flat dict caches; the
  contender is :class:`~repro.setcover.bitcover.BitCoverEngine` fed the
  interned masks (what the searches hand it).  All exact sizes are
  asserted equal.  **This is the gated ≥2x median.**
* ``ga`` — the permutation GA over the per-individual reference
  fitness :func:`~repro.genetic.ga_ghw.ghw_fitness` vs. GA-ghw, which
  scores through :class:`~repro.genetic.ga_ghw.PrefixGhwEvaluator`.  Best
  fitness, history and evaluation counts are asserted bit-identical for
  the fixed seed; the evaluations/sec ratio must exceed 1 (gated).

Acceptance: median ``covers`` speedup >= 2x and GA evals/sec ratio > 1,
both enforced at ``REPRO_BENCH_SCALE >= 0.25``; starved budgets (e.g.
the CI smoke at 0.05) still run every assertion on the answers, but the
timing gates are report-only.  Results go to
``benchmarks/results/cover.{txt,json}``.  Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_cover.py
"""

from __future__ import annotations

import random
import statistics
import sys
import time

from repro.decomposition.elimination import OrderingEvaluator, elimination_bags
from repro.genetic.engine import GAParameters, run_permutation_ga
from repro.genetic.ga_ghw import ga_ghw, ghw_fitness
from repro.instances import get_instance
from repro.setcover import BitCoverEngine, exact_set_cover, greedy_set_cover

from _harness import METRICS, bench_seed, report, scale

SPEEDUP_TARGET = 2.0


def _instances() -> list[str]:
    names = [
        "adder_5", "adder_10", "adder_15",
        "clique_6", "clique_8", "clique_10",
        "grid2d_4",
    ]
    if scale() >= 0.25:
        names += ["grid2d_6", "bridge_10", "b06"]
    return names


def _cover_workload(hypergraph, orderings: int):
    """The (exact bags, greedy remaining-sets) query stream of a search:
    elimination bags of random orderings, and every suffix's remaining
    vertex set (what the completion bound covers)."""
    rng = random.Random(bench_seed())
    vertices = hypergraph.vertex_list()
    exact_queries: list[frozenset] = []
    greedy_queries: list[frozenset] = []
    for _ in range(orderings):
        ordering = list(vertices)
        rng.shuffle(ordering)
        exact_queries.extend(elimination_bags(hypergraph, ordering).values())
        remaining = set(vertices)
        for v in ordering:
            remaining.discard(v)
            if remaining:
                greedy_queries.append(frozenset(remaining))
    return exact_queries, greedy_queries


def _run_set_arm(hypergraph, exact_queries, greedy_queries):
    """The frozenset cover path with the flat dict caches the pre-engine
    ``GhwSearchContext`` used."""
    exact_cache: dict[frozenset, int] = {}
    greedy_cache: dict[frozenset, int] = {}
    for bag in exact_queries:
        if bag not in exact_cache:
            exact_cache[bag] = len(exact_set_cover(bag, hypergraph))
    for bag in greedy_queries:
        if bag not in greedy_cache:
            greedy_cache[bag] = len(greedy_set_cover(bag, hypergraph))
    return exact_cache


def _run_bit_arm(engine, exact_masks, greedy_masks):
    for mask in exact_masks:
        engine.exact_size(mask)
    for mask in greedy_masks:
        engine.upper_size(mask)


def run_cover_benchmark() -> tuple[list[list], dict]:
    orderings = 4 if scale() >= 0.25 else 2
    pop, gens = (40, 40) if scale() >= 0.25 else (16, 10)
    rows: list[list] = []
    cover_speedups: list[float] = []
    ga_ratios: list[float] = []
    for name in _instances():
        hypergraph = get_instance(name).build()

        # -- covers: the raw query stream ------------------------------
        exact_queries, greedy_queries = _cover_workload(
            hypergraph, orderings
        )
        start = time.perf_counter()
        exact_ref = _run_set_arm(hypergraph, exact_queries, greedy_queries)
        t_set = time.perf_counter() - start
        engine = BitCoverEngine(hypergraph, metrics=METRICS)
        exact_masks = [engine.mask_of(bag) for bag in exact_queries]
        greedy_masks = [engine.mask_of(bag) for bag in greedy_queries]
        start = time.perf_counter()
        _run_bit_arm(engine, exact_masks, greedy_masks)
        t_bit = time.perf_counter() - start
        for bag, mask in zip(exact_queries, exact_masks):
            assert exact_ref[bag] == engine.cache.exact[mask], (name, bag)
        speedup = t_set / t_bit if t_bit > 0 else float("inf")
        cover_speedups.append(speedup)
        rows.append([name, "covers", t_set * 1e3, t_bit * 1e3, speedup])

        # -- ga: reference vs incremental fitness ----------------------
        # The reference arm is the Fig. 7.1 fitness per individual, with
        # the flat bag cache and shared evaluator the pre-prefix GA used.
        params = GAParameters(population_size=pop, generations=gens)
        start = time.perf_counter()
        bag_cache: dict = {}
        evaluator = OrderingEvaluator(hypergraph)
        g_ref = run_permutation_ga(
            hypergraph.vertex_list(),
            lambda ordering: ghw_fitness(
                hypergraph, ordering, cache=bag_cache, evaluator=evaluator
            ),
            params, random.Random(bench_seed()),
        )
        t_set = time.perf_counter() - start
        start = time.perf_counter()
        g_inc = ga_ghw(
            hypergraph, parameters=params, rng=random.Random(bench_seed()),
            rescore_exact=False, metrics=METRICS,
        )
        t_bit = time.perf_counter() - start
        assert g_ref.best_fitness == g_inc.best_fitness, name
        assert g_ref.history == g_inc.history, name
        assert g_ref.evaluations == g_inc.evaluations, name
        ratio = t_set / t_bit if t_bit > 0 else float("inf")
        ga_ratios.append(ratio)
        rows.append([name, "ga", t_set * 1e3, t_bit * 1e3, ratio])
        METRICS.histogram("cover.ga.evals_per_second").observe(
            g_inc.evaluations / t_bit if t_bit > 0 else 0.0
        )

    extra = {
        "median_cover_speedup": statistics.median(cover_speedups),
        "median_ga_ratio": statistics.median(ga_ratios),
        "speedup_target": SPEEDUP_TARGET,
        "orderings_per_instance": orderings,
        "ga_population": pop,
        "ga_generations": gens,
        "gate_enforced": scale() >= 0.25,
    }
    return rows, extra


def _report(rows: list[list], extra: dict) -> None:
    report(
        "cover",
        "Cover engine — frozensets (flat caches) vs bitmasks (dominance)",
        ["hypergraph", "workload", "set ms", "bit ms", "speedup"],
        rows,
        extra=extra,
    )
    gate = "enforced" if extra["gate_enforced"] else "report-only at this scale"
    print(
        f"median cover speedup: {extra['median_cover_speedup']:.2f}x "
        f"(target >= {SPEEDUP_TARGET:.0f}x, {gate}); "
        f"median GA evals/sec ratio: {extra['median_ga_ratio']:.2f}x "
        f"(target > 1x, {gate})"
    )


def _gate_ok(extra: dict) -> bool:
    if not extra["gate_enforced"]:
        return True
    return (
        extra["median_cover_speedup"] >= SPEEDUP_TARGET
        and extra["median_ga_ratio"] > 1.0
    )


def test_cover_speedup(benchmark):
    rows, extra = benchmark.pedantic(
        run_cover_benchmark, rounds=1, iterations=1
    )
    _report(rows, extra)
    if extra["gate_enforced"]:
        assert extra["median_cover_speedup"] >= SPEEDUP_TARGET
        assert extra["median_ga_ratio"] > 1.0


if __name__ == "__main__":
    rows, extra = run_cover_benchmark()
    _report(rows, extra)
    sys.exit(0 if _gate_ok(extra) else 1)
