"""Cross-module integration tests: the full pipelines the thesis builds.

Each test exercises a complete workflow across several packages —
generator → heuristic → decomposition → search/GA → CSP solving — and
checks end-to-end consistency between independent implementations.
"""

import random

import pytest

from repro.bounds import (
    ghw_lower_bound,
    min_fill_ordering,
    treewidth_lower_bound,
    treewidth_upper_bound,
)
from repro.csp import (
    graph_coloring_csp,
    solve,
    solve_from_ghd,
    solve_from_tree_decomposition,
)
from repro.decomposition import (
    bucket_elimination,
    ghd_from_ordering,
    ghw_ordering_width,
    ordering_from_decomposition,
    ordering_width,
)
from repro.genetic import GAParameters, ga_ghw, ga_treewidth
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    adder_hypergraph,
    clique_hypergraph,
    grid2d_hypergraph,
    grid_graph,
    myciel_graph,
    queen_graph,
    random_gnm_graph,
)
from repro.search import (
    SearchBudget,
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
)
from repro.setcover import exact_set_cover
from repro.verify import check_ghd, check_td


class TestTreewidthPipeline:
    """heuristic ub >= GA ub >= exact tw >= lb, all consistent."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_sandwich(self, seed):
        g = random_gnm_graph(10, 20, seed=seed + 2000)
        lb = treewidth_lower_bound(g)
        exact = astar_treewidth(g)
        assert exact.exact
        ga = ga_treewidth(
            g, GAParameters(population_size=24, generations=30),
            rng=random.Random(seed),
        )
        heuristic = treewidth_upper_bound(g)
        assert lb <= exact.width <= ga.best_fitness <= heuristic + 1
        # GA result is achievable:
        assert ordering_width(g, ga.best_individual) == ga.best_fitness

    def test_astar_equals_bb(self):
        for seed in range(5):
            g = random_gnm_graph(9, 16, seed=seed + 2100)
            a = astar_treewidth(g)
            b = branch_and_bound_treewidth(g)
            assert a.exact and b.exact and a.width == b.width

    def test_decomposition_from_search_witness(self, grid4):
        result = astar_treewidth(grid4)
        td = bucket_elimination(grid4, result.ordering)
        assert not check_td(td, grid4)
        assert td.width == result.width


class TestGhwPipeline:
    def test_bb_astar_ga_consistent(self):
        h = clique_hypergraph(8)
        bb = branch_and_bound_ghw(h)
        astar = astar_ghw(h)
        assert bb.exact and astar.exact and bb.width == astar.width == 4
        ga = ga_ghw(
            h, GAParameters(population_size=20, generations=15),
            rng=random.Random(1),
        )
        assert ga.best_fitness >= bb.width
        assert ghw_lower_bound(h) <= bb.width

    def test_search_witness_builds_valid_ghd(self):
        h = adder_hypergraph(6)
        result = branch_and_bound_ghw(h)
        ghd = ghd_from_ordering(
            h, result.ordering, cover_function=exact_set_cover
        )
        assert not check_ghd(ghd, h)
        assert ghd.ghw_width == result.width

    def test_chapter3_roundtrip_on_search_output(self):
        """search ordering -> TD -> leaf normal form -> dca ordering:
        the recovered ordering must reach the same exact ghw."""
        h = adder_hypergraph(5)
        result = branch_and_bound_ghw(h)
        td = bucket_elimination(h, result.ordering)
        recovered = ordering_from_decomposition(h, td)
        width = ghw_ordering_width(h, recovered,
                                   cover_function=exact_set_cover)
        assert width == result.width

    def test_ghw_less_than_tw_on_cliques(self):
        h = clique_hypergraph(12)
        tw = astar_treewidth(h, budget=SearchBudget(max_nodes=500))
        ghw = branch_and_bound_ghw(h)
        assert ghw.exact and ghw.width == 6
        assert ghw.width < tw.upper_bound


class TestCSPDecompositionPipeline:
    def test_coloring_via_searched_decomposition(self):
        """Solve a graph colouring CSP from the A*-optimal TD."""
        g = grid_graph(3)
        csp = graph_coloring_csp(g, 3)
        h = csp.constraint_hypergraph()
        result = astar_treewidth(h)
        td = bucket_elimination(h, result.ordering)
        solution = solve_from_tree_decomposition(csp, td)
        assert csp.is_solution(solution)

    def test_coloring_via_ghd(self):
        g = myciel_graph(3)
        csp = graph_coloring_csp(g, 4)  # Grötzsch graph is 4-chromatic
        h = csp.constraint_hypergraph()
        ordering = min_fill_ordering(h)
        ghd = ghd_from_ordering(h, ordering)
        solution = solve_from_ghd(csp, ghd)
        assert csp.is_solution(solution)

    def test_three_coloring_grotzsch_unsat(self):
        csp = graph_coloring_csp(myciel_graph(3), 3)
        assert solve(csp, "td") is None


class TestInstanceWorkflows:
    def test_table_5_2_shape(self):
        """Grid treewidths are exactly n for n <= 5 within small budgets
        (the Table 5.2 reproduction in miniature)."""
        for n in (2, 3, 4, 5):
            result = astar_treewidth(grid_graph(n))
            assert result.exact and result.width == n

    def test_table_7_1_shape_clique_20(self):
        """clique_20: paper's prior ub 10 (= ghw); GA-ghw got 11. Our GA
        should land in [10, 12]."""
        h = clique_hypergraph(20)
        ga = ga_ghw(
            h, GAParameters(population_size=30, generations=30),
            rng=random.Random(7),
        )
        assert 10 <= ga.best_fitness <= 12

    def test_grid2d_ghw_small(self):
        h = grid2d_hypergraph(4)
        result = branch_and_bound_ghw(h)
        assert result.exact
        assert result.width <= 3

    def test_queen5_full_stack(self):
        g = queen_graph(5)
        exact = astar_treewidth(g)
        assert exact.width == 18
        td = bucket_elimination(g, exact.ordering)
        assert not check_td(td, g) and td.width == 18
