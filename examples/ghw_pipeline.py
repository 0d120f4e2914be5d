#!/usr/bin/env python
"""Generalized hypertree width pipeline — the Chapters 7–9 workflow.

For a CSP hypergraph: GA-ghw and SAIGA-ghw compute upper bounds, the
tw-ksc combination gives a lower bound, BB-ghw / A*-ghw try to fix the
exact value, and Chapter 3's leaf-normal-form machinery demonstrates
that the search ordering round-trips through a tree decomposition.

Run:  python examples/ghw_pipeline.py [instance-name]
      (default adder_15; try clique_10, grid2d_6, b06, bridge_10, ...)
"""

import random
import sys

from repro.bounds import ghw_lower_bound
from repro.decomposition import (
    bucket_elimination,
    ghd_from_ordering,
    ghw_ordering_width,
    ordering_from_decomposition,
)
from repro.genetic import (
    GAParameters,
    SAIGAParameters,
    ga_ghw,
    saiga_ghw,
)
from repro.instances import get_instance
from repro.search import SearchBudget, astar_ghw, branch_and_bound_ghw
from repro.setcover import exact_set_cover
from repro.verify import check_ghd


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "adder_15"
    instance = get_instance(name)
    hypergraph = instance.build()
    flag = "" if instance.provenance == "exact" else " (synthetic stand-in)"
    print(f"instance {name}{flag}: |V|={hypergraph.num_vertices}, "
          f"|H|={hypergraph.num_edges}, rank={hypergraph.rank()}")

    # --- lower bound (tw-ksc-width, Ch. 8.1) -----------------------------
    lb = ghw_lower_bound(hypergraph)
    print(f"tw-ksc lower bound: {lb}")

    # --- genetic upper bounds (Ch. 7) ------------------------------------
    ga = ga_ghw(
        hypergraph,
        GAParameters(population_size=24, generations=30),
        rng=random.Random(0),
    )
    print(f"GA-ghw upper bound: {ga.best_fitness}")
    saiga = saiga_ghw(
        hypergraph,
        SAIGAParameters(num_islands=4, island_population=6, epochs=6),
        rng=random.Random(0),
    )
    tuned = [
        (round(v.crossover_rate, 2), round(v.mutation_rate, 2),
         v.tournament_size)
        for v in saiga.final_parameters
    ]
    print(f"SAIGA-ghw upper bound: {saiga.best_fitness} "
          f"(self-adapted (pc, pm, s) per island: {tuned})")

    # --- exact searches (Ch. 8–9) -----------------------------------------
    budget = SearchBudget(max_nodes=3000, max_seconds=20)
    bb = branch_and_bound_ghw(hypergraph, budget=budget)
    astar = astar_ghw(hypergraph, budget=budget)
    for label, result in (("BB-ghw", bb), ("A*-ghw", astar)):
        if result.exact:
            print(f"{label}: ghw = {result.width} exactly "
                  f"({result.stats.nodes_expanded} nodes)")
        else:
            print(f"{label}: ghw in [{result.lower_bound}, "
                  f"{result.upper_bound}] (budget exhausted)")

    # --- build and verify the witness GHD ---------------------------------
    best = bb if bb.upper_bound <= astar.upper_bound else astar
    ghd = ghd_from_ordering(hypergraph, best.ordering,
                            cover_function=exact_set_cover)
    assert not check_ghd(ghd, hypergraph)
    print(f"witness GHD verified: width {ghd.ghw_width}, "
          f"{ghd.num_nodes} nodes")

    # --- Chapter 3 round trip ----------------------------------------------
    td = bucket_elimination(hypergraph, best.ordering)
    recovered = ordering_from_decomposition(hypergraph, td)
    width = ghw_ordering_width(hypergraph, recovered,
                               cover_function=exact_set_cover)
    print(f"Chapter 3 round trip (TD -> leaf normal form -> dca "
          f"ordering): width {width} <= {ghd.ghw_width}")
    assert width <= ghd.ghw_width


if __name__ == "__main__":
    main()
