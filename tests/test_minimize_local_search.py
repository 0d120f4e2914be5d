"""Tests for TD minimization and the hill-climbing baseline."""

import random

import pytest

from repro.bounds import min_fill_ordering
from repro.decomposition import (
    TreeDecomposition,
    bucket_elimination,
    is_reduced,
    ordering_width,
    remove_subsumed_bags,
)
from repro.genetic import GAParameters, ga_treewidth, hill_climb_ordering
from repro.hypergraph.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    queen_graph,
    random_gnm_graph,
)
from repro.search import brute_force_treewidth
from repro.verify import check_td


class TestRemoveSubsumedBags:
    @pytest.mark.parametrize("seed", range(8))
    def test_preserves_validity_and_width(self, seed):
        g = random_gnm_graph(10, 18, seed=seed + 15000)
        td = bucket_elimination(g, min_fill_ordering(g))
        reduced = remove_subsumed_bags(td)
        assert not check_td(reduced, g)
        assert reduced.width == td.width
        assert is_reduced(reduced)
        assert reduced.num_nodes <= td.num_nodes

    def test_path_collapses_to_minimum(self):
        g = path_graph(6)
        td = bucket_elimination(g, min_fill_ordering(g))
        reduced = remove_subsumed_bags(td)
        # P6 has 5 edges -> 5 distinct width-1 bags
        assert reduced.num_nodes == 5

    def test_input_untouched(self):
        g = cycle_graph(6)
        td = bucket_elimination(g, min_fill_ordering(g))
        nodes_before = td.num_nodes
        remove_subsumed_bags(td)
        assert td.num_nodes == nodes_before

    def test_single_node_unchanged(self):
        td = TreeDecomposition()
        td.add_node("only", {1, 2})
        reduced = remove_subsumed_bags(td)
        assert reduced.num_nodes == 1

    def test_equal_bags_merge(self):
        td = TreeDecomposition()
        td.add_node("a", {1, 2})
        td.add_node("b", {1, 2})
        td.add_node("c", {2, 3})
        td.add_tree_edge("a", "b")
        td.add_tree_edge("b", "c")
        reduced = remove_subsumed_bags(td)
        assert reduced.num_nodes == 2


class TestHillClimb:
    def test_reaches_optimum_on_easy_graphs(self):
        for g, opt in ((cycle_graph(7), 2), (grid_graph(3), 3)):
            result = hill_climb_ordering(
                g, rng=random.Random(1), max_rounds=300
            )
            assert result.best_fitness == opt

    def test_plateau_behavior_on_paths(self):
        """Strict-improvement climbing stalls on width plateaus — the
        path's width-1 orderings are unreachable from width-2 local
        optima by single insertions.  This is the hill climber's
        authentic weakness (and why the thesis uses populations)."""
        result = hill_climb_ordering(
            path_graph(8), rng=random.Random(1), max_rounds=300
        )
        assert result.best_fitness in (1, 2)

    def test_result_is_achievable(self):
        g = queen_graph(5)
        result = hill_climb_ordering(g, rng=random.Random(2), max_rounds=100)
        assert ordering_width(g, result.best_individual) == \
            result.best_fitness

    @pytest.mark.parametrize("seed", range(5))
    def test_upper_bound_of_treewidth(self, seed):
        g = random_gnm_graph(8, 14, seed=seed + 15100)
        result = hill_climb_ordering(g, rng=random.Random(seed))
        assert result.best_fitness >= brute_force_treewidth(g)

    def test_history_monotone(self):
        g = queen_graph(5)
        result = hill_climb_ordering(g, rng=random.Random(3), max_rounds=50)
        assert all(
            a >= b for a, b in zip(result.history, result.history[1:])
        )

    def test_custom_start(self):
        g = grid_graph(3)
        start = min_fill_ordering(g)
        result = hill_climb_ordering(g, start=start, rng=random.Random(0))
        assert result.best_fitness <= ordering_width(g, start)

    def test_bad_start_rejected(self):
        g = grid_graph(3)
        with pytest.raises(ValueError):
            hill_climb_ordering(g, start=[(0, 0)], rng=random.Random(0))

    def test_empty_graph(self):
        from repro.hypergraph import Graph

        result = hill_climb_ordering(Graph())
        assert result.best_fitness == 0

    def test_time_budget_respected(self):
        g = queen_graph(6)
        result = hill_climb_ordering(
            g, rng=random.Random(0), max_rounds=10**6, max_seconds=0.5
        )
        assert result.iterations < 10**6

    def test_comparable_to_tiny_ga(self):
        """The baseline claim: a budgeted GA beats or ties the hill
        climber's local optimum on queen5_5 (both find 18 here)."""
        g = queen_graph(5)
        climb = hill_climb_ordering(g, rng=random.Random(4), max_rounds=200)
        ga = ga_treewidth(
            g, GAParameters(population_size=30, generations=40),
            rng=random.Random(4),
        )
        assert ga.best_fitness <= climb.best_fitness
