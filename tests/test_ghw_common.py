"""Tests for the shared ghw-search machinery (GhwSearchContext)."""

import pytest

from repro.hypergraph import Hypergraph
from repro.hypergraph.bitgraph import BitGraph
from repro.hypergraph.generators import adder_hypergraph, clique_hypergraph
from repro.search.ghw_common import GhwSearchContext, initial_ghw_bounds
from repro.bounds import min_fill_ordering
from repro.decomposition import elimination_bags, ghw_ordering_width
from repro.setcover import exact_set_cover


@pytest.fixture
def context(example_hypergraph):
    return GhwSearchContext(example_hypergraph)


class TestCoverCaching:
    def test_exact_cover_size(self, context, example_hypergraph):
        bag = frozenset({"x1", "x2", "x3"})
        assert context.exact_cover_size(bag) == \
            len(exact_set_cover(bag, example_hypergraph))

    def test_cache_hits_are_consistent(self, context):
        bag = frozenset({"x1", "x4"})
        first = context.exact_cover_size(bag)
        second = context.exact_cover_size(bag)
        assert first == second

    def test_greedy_at_least_exact(self, context):
        for bag in (frozenset({"x1", "x4"}), frozenset({"x2", "x5", "x6"})):
            assert context.exact_cover_size(bag) <= \
                context.greedy_cover_size(bag)

    def test_child_cost_matches_bag_cover(self, example_hypergraph):
        context = GhwSearchContext(example_hypergraph)
        primal = BitGraph.from_hypergraph(example_hypergraph)
        for v in primal.vertex_list():
            bag = frozenset(primal.neighbors(v) | {v})
            assert context.child_cost(primal, v) == \
                context.exact_cover_size(bag)


class TestHeuristic:
    def test_empty_graph_zero(self, context, example_hypergraph):
        primal = BitGraph.from_hypergraph(example_hypergraph)
        for v in list(primal.vertex_list()):
            primal.remove_vertex(v)
        assert context.heuristic(primal) == 0

    def test_admissible_on_cliques(self):
        # h at the root must not exceed the true ghw.
        for n in (4, 6, 8):
            h = clique_hypergraph(n)
            context = GhwSearchContext(h)
            assert context.heuristic(BitGraph.from_hypergraph(h)) <= n // 2

    def test_remaining_rank(self, context, example_hypergraph):
        all_vertices = frozenset(example_hypergraph.vertex_list())
        assert context.remaining_rank(all_vertices) == 3
        assert context.remaining_rank(frozenset({"x1", "x2"})) == 2
        assert context.remaining_rank(frozenset()) == 1

    def test_completion_bound_covers_every_future_bag(self):
        h = adder_hypergraph(4)
        context = GhwSearchContext(h)
        primal = BitGraph.from_hypergraph(h)
        bound = context.completion_bound(primal)
        # any elimination bag's exact cover is at most the bound
        bags = elimination_bags(h, h.vertex_list())
        assert all(
            context.exact_cover_size(bag) <= bound
            for bag in bags.values()
        )


class TestInitialBounds:
    def test_matches_evaluator(self, example_hypergraph):
        context = GhwSearchContext(example_hypergraph)
        ordering = min_fill_ordering(example_hypergraph)
        ub = initial_ghw_bounds(example_hypergraph, context, ordering)
        assert ub == ghw_ordering_width(
            example_hypergraph, ordering, cover_function=exact_set_cover
        )

    def test_is_achievable(self, example_hypergraph):
        context = GhwSearchContext(example_hypergraph)
        ordering = min_fill_ordering(example_hypergraph)
        ub = initial_ghw_bounds(example_hypergraph, context, ordering)
        assert ub >= 2  # ghw of the example
