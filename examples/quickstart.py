#!/usr/bin/env python
"""Quickstart: decompose a hypergraph and solve a CSP with it.

Walks the core API end to end in under a minute:

1. build a constraint hypergraph (the thesis' running example 5),
2. compute a good elimination ordering (min-fill),
3. turn it into a tree decomposition (bucket elimination) and a
   generalized hypertree decomposition (+ set covering),
4. fix the exact treewidth and generalized hypertree width with the
   exact searches,
5. solve the CSP from the GHD.

Run:  python examples/quickstart.py
"""

from repro.bounds import min_fill_ordering
from repro.csp import solve_from_ghd, thesis_example_5
from repro.decomposition import (
    bucket_elimination,
    ghd_from_ordering,
    ordering_width,
)
from repro.search import astar_treewidth, branch_and_bound_ghw
from repro.setcover import exact_set_cover
from repro.verify import check_ghd, check_td


def main() -> None:
    # 1. A CSP and its constraint hypergraph -----------------------------
    csp = thesis_example_5()
    hypergraph = csp.constraint_hypergraph()
    print(f"CSP: {len(csp.variables)} variables, "
          f"{len(csp.constraints)} constraints")
    print(f"constraint hypergraph: {hypergraph}")

    # 2. A heuristic elimination ordering --------------------------------
    ordering = min_fill_ordering(hypergraph)
    print(f"\nmin-fill ordering: {ordering}")
    print(f"its treewidth-sense width: {ordering_width(hypergraph, ordering)}")

    # 3. Decompositions from the ordering --------------------------------
    td = bucket_elimination(hypergraph, ordering)
    print(f"\ntree decomposition: {td.num_nodes} bags, width {td.width}")
    assert not check_td(td, hypergraph)

    ghd = ghd_from_ordering(hypergraph, ordering,
                            cover_function=exact_set_cover)
    print(f"GHD: width {ghd.ghw_width} "
          f"(λ-labels: {dict(ghd.covers)})")
    assert not check_ghd(ghd, hypergraph)

    # 4. Exact widths -----------------------------------------------------
    tw = astar_treewidth(hypergraph)
    ghw = branch_and_bound_ghw(hypergraph)
    print(f"\nexact treewidth  = {tw.width} (A*-tw, "
          f"{tw.stats.nodes_expanded} nodes)")
    print(f"exact ghw        = {ghw.width} (BB-ghw, "
          f"{ghw.stats.nodes_expanded} nodes)")

    # 5. Solve the CSP from the decomposition ----------------------------
    solution = solve_from_ghd(csp, ghd)
    print(f"\nsolution from GHD: {solution}")
    assert csp.is_solution(solution)
    print("verified: the assignment satisfies every constraint")


if __name__ == "__main__":
    main()
