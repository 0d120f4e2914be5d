#!/usr/bin/env python
"""Bayesian network triangulation — the §4.5 lineage of GA-tw.

Builds a random Bayesian network, moralizes it, and compares three ways
of finding a low-cost junction tree:

* the min-fill heuristic on the moral graph (width-focused),
* GA-tw minimizing the *width* of the triangulation,
* GA-bn (Larrañaga et al.) minimizing the *state-space weight*
  ``log2 Σ_bags Π states`` — the quantity inference actually pays for.

The point the thesis makes in §4.5: width and weight are correlated but
not identical objectives, and the permutation-GA machinery optimizes
either.

Run:  python examples/bayes_triangulation.py
"""

import random

from repro.bounds import min_fill_ordering
from repro.csp import junction_tree_weight, random_bayesian_network
from repro.decomposition import bucket_elimination, ordering_width
from repro.decomposition.render import summarize_decomposition
from repro.genetic import GAParameters, ga_treewidth, ga_triangulation
from repro.verify import check_td


def main() -> None:
    network = random_bayesian_network(
        num_nodes=24, max_parents=3, seed=7, max_states=4
    )
    moral = network.moral_graph()
    print(f"Bayesian network: {len(network.nodes)} variables, "
          f"moral graph has {moral.num_edges} edges")
    print(f"state counts: {dict(sorted(network.states.items()))}")

    # 1. min-fill baseline -------------------------------------------------
    fill = min_fill_ordering(moral)
    print("\nmin-fill ordering:")
    print(f"  width  = {ordering_width(moral, fill)}")
    print(f"  weight = {junction_tree_weight(network, fill):.2f} "
          "(log2 total clique table size)")

    # 2. GA optimizing width ----------------------------------------------
    params = GAParameters(population_size=30, generations=40)
    by_width = ga_treewidth(moral, params, rng=random.Random(1))
    print("\nGA-tw (optimizes width):")
    print(f"  width  = {by_width.best_fitness}")
    print(f"  weight = "
          f"{junction_tree_weight(network, by_width.best_individual):.2f}")

    # 3. GA optimizing weight (the §4.5 algorithm) -------------------------
    by_weight = ga_triangulation(network, params, rng=random.Random(1))
    print("\nGA-bn (optimizes state-space weight, Larrañaga et al.):")
    print(f"  width  = "
          f"{ordering_width(moral, by_weight.best_individual)}")
    print(f"  weight = {by_weight.best_fitness:.2f}")

    td = bucket_elimination(moral, by_weight.best_individual)
    assert not check_td(td, moral)
    print(f"\njunction-tree skeleton: {summarize_decomposition(td)}")


if __name__ == "__main__":
    main()
