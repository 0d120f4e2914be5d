#!/usr/bin/env python
"""Treewidth hunting on a DIMACS-style graph — the Chapter 5/6 workflow.

Given a graph, bracket its treewidth from both sides the way the thesis
does: heuristic upper bounds, minor-based lower bounds, a genetic
algorithm tightening the upper bound, and A* trying to close the gap
exactly (with an anytime lower bound if the budget runs out first).

Run:  python examples/treewidth_hunt.py [instance-name]
      (default queen6_6; try myciel4, grid5, DSJC125.1, anna, ...)
"""

import random
import sys

from repro.bounds import (
    min_degree_ordering,
    min_fill_ordering,
    minor_gamma_r,
    minor_min_width,
)
from repro.decomposition import bucket_elimination, ordering_width
from repro.genetic import GAParameters, ga_treewidth
from repro.instances import get_instance
from repro.search import SearchBudget, astar_treewidth
from repro.verify import check_td


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "queen6_6"
    instance = get_instance(name)
    graph = instance.build()
    flag = "" if instance.provenance == "exact" else " (synthetic stand-in)"
    print(f"instance {name}{flag}: |V|={graph.num_vertices}, "
          f"|E|={graph.num_edges}")

    # --- bounds from cheap heuristics -----------------------------------
    lb = max(minor_min_width(graph), minor_gamma_r(graph))
    fill_width = ordering_width(graph, min_fill_ordering(graph))
    degree_width = ordering_width(graph, min_degree_ordering(graph))
    ub = min(fill_width, degree_width)
    print(f"minor lower bound: {lb}")
    print(f"min-fill / min-degree upper bounds: {fill_width} / {degree_width}")

    # --- the GA tightens the upper bound ---------------------------------
    ga = ga_treewidth(
        graph,
        GAParameters(population_size=40, generations=60),
        rng=random.Random(0),
    )
    print(f"GA-tw upper bound: {ga.best_fitness} "
          f"({ga.evaluations} evaluations, "
          f"history {ga.history[0]} -> {ga.history[-1]})")
    ub = min(ub, ga.best_fitness)

    # --- A* tries to close the gap ---------------------------------------
    result = astar_treewidth(
        graph, budget=SearchBudget(max_nodes=3000, max_seconds=20)
    )
    if result.exact:
        print(f"A*-tw fixed the treewidth: {result.width} "
              f"({result.stats.nodes_expanded} nodes)")
        td = bucket_elimination(graph, result.ordering)
        assert not check_td(td, graph) and td.width == result.width
        print(f"witness tree decomposition verified "
              f"({td.num_nodes} bags)")
    else:
        print(f"A*-tw budget exhausted: treewidth in "
              f"[{result.lower_bound}, {min(ub, result.upper_bound)}]")

    paper = instance.paper.get("table_5_1") or instance.paper.get("table_6_6")
    if paper:
        print(f"paper reference values: {paper}")


if __name__ == "__main__":
    main()
