"""Unit tests for bucket elimination, vertex elimination and the
ordering-width evaluators."""

import pytest

from repro.decomposition import (
    OrderingError,
    bucket_elimination,
    check_ordering,
    elimination_bags,
    ghd_from_ordering,
    ghw_ordering_width,
    ordering_width,
    vertex_elimination,
)
from repro.hypergraph import Graph, Hypergraph
from repro.hypergraph.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_gnm_graph,
)
from repro.setcover import exact_set_cover
from repro.verify import check_ghd, check_td


class TestOrderingChecks:
    def test_duplicate_rejected(self, triangle):
        with pytest.raises(OrderingError):
            check_ordering(triangle, [1, 1, 2])

    def test_missing_rejected(self, triangle):
        with pytest.raises(OrderingError):
            check_ordering(triangle, [1, 2])

    def test_extra_rejected(self, triangle):
        with pytest.raises(OrderingError):
            check_ordering(triangle, [1, 2, 3, 4])


class TestOrderingWidth:
    def test_path_width_one(self, path6):
        assert ordering_width(path6, [0, 1, 2, 3, 4, 5]) == 1
        assert ordering_width(path6, [0, 5, 1, 4, 2, 3]) == 1

    def test_path_bad_ordering(self, path6):
        # Eliminating the middle first creates larger bags but a path's
        # width never exceeds... eliminating 2 first gives bag {1,2,3}.
        assert ordering_width(path6, [2, 0, 1, 3, 4, 5]) == 2

    def test_cycle_width_two(self, cycle5):
        for ordering in ([0, 1, 2, 3, 4], [3, 0, 4, 1, 2]):
            assert ordering_width(cycle5, ordering) == 2

    def test_complete_graph(self):
        g = complete_graph(5)
        assert ordering_width(g, [0, 1, 2, 3, 4]) == 4

    def test_empty_and_singleton(self):
        assert ordering_width(Graph(), []) == 0
        assert ordering_width(Graph(vertices=[7]), [7]) == 0

    def test_thesis_fig_2_11_ordering(self):
        """Fig. 2.11: eliminating x1..x6 of the example hypergraph in
        order x1 first (thesis σ reversed) gives width 3 bags."""
        h = Hypergraph(
            edges={
                "h1": {"x1", "x2"},
                "h2": {"x1", "x3"},
                "h3": {"x2", "x4"},
                "h4": {"x3", "x5"},
                "h5": {"x2", "x3", "x6"},
                "h6": {"x4", "x5", "x6"},
            }
        )
        ordering = ["x1", "x2", "x3", "x4", "x5", "x6"]
        bags = elimination_bags(h, ordering)
        assert bags["x1"] == frozenset({"x1", "x2", "x3"})
        # eliminating x1 connects x2-x3; bag of x2 holds later nbrs
        assert "x3" in bags["x2"]

    def test_width_matches_bags(self, grid4):
        ordering = grid4.vertex_list()
        bags = elimination_bags(grid4, ordering)
        expected = max(len(bag) for bag in bags.values()) - 1
        assert ordering_width(grid4, ordering) == expected


class TestBucketVsVertexElimination:
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_bags_on_random_graphs(self, seed):
        import random

        g = random_gnm_graph(10, 18, seed=seed)
        ordering = g.vertex_list()
        random.Random(seed).shuffle(ordering)
        td_bucket = bucket_elimination(g, ordering)
        td_vertex = vertex_elimination(g, ordering)
        assert td_bucket.bags == td_vertex.bags
        assert sorted(map(sorted, td_bucket.tree_edges())) == sorted(
            map(sorted, td_vertex.tree_edges())
        )

    def test_bags_match_elimination_bags(self, grid4):
        ordering = grid4.vertex_list()
        bags = elimination_bags(grid4, ordering)
        td = bucket_elimination(grid4, ordering)
        assert td.bags == bags


class TestBucketElimination:
    def test_produces_valid_td(self, small_graph):
        ordering = small_graph.vertex_list()
        td = bucket_elimination(small_graph, ordering)
        assert not check_td(td, small_graph)
        assert td.width == ordering_width(small_graph, ordering)

    def test_hypergraph_input(self, example_hypergraph):
        ordering = example_hypergraph.vertex_list()
        td = bucket_elimination(example_hypergraph, ordering)
        assert not check_td(td, example_hypergraph)

    def test_disconnected_graph_still_a_tree(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        g.add_vertex(5)
        td = bucket_elimination(g, [1, 2, 3, 4, 5])
        assert td.is_tree()
        assert not check_td(td, g)

    def test_every_vertex_has_a_bucket(self, grid4):
        td = bucket_elimination(grid4, grid4.vertex_list())
        assert set(td.nodes) == set(grid4.vertex_list())


class TestGhwWidth:
    def test_example_ghd_width_two(self, example_hypergraph):
        # Some ordering of the example reaches ghw = 2 (Fig. 2.7).
        import itertools

        best = min(
            ghw_ordering_width(
                example_hypergraph, list(p),
                cover_function=exact_set_cover,
            )
            for p in itertools.permutations(example_hypergraph.vertex_list())
        )
        assert best == 2

    def test_greedy_at_least_exact(self, adder5):
        ordering = adder5.vertex_list()
        greedy = ghw_ordering_width(adder5, ordering)
        exact = ghw_ordering_width(
            adder5, ordering, cover_function=exact_set_cover
        )
        assert exact <= greedy

    def test_ghd_from_ordering_valid(self, adder5):
        ordering = adder5.vertex_list()
        ghd = ghd_from_ordering(adder5, ordering)
        assert not check_ghd(ghd, adder5)
        assert ghd.ghw_width == ghw_ordering_width(adder5, ordering)

    def test_ghd_from_ordering_exact_cover(self, example_hypergraph):
        ordering = example_hypergraph.vertex_list()
        ghd = ghd_from_ordering(
            example_hypergraph, ordering, cover_function=exact_set_cover
        )
        assert not check_ghd(ghd, example_hypergraph)


class TestStructuralWidthFacts:
    """Known widths of classic families via good orderings."""

    def test_tree_width_one(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        ordering = [3, 4, 5, 2, 1, 0]
        assert ordering_width(g, ordering) == 1

    def test_grid_row_ordering(self):
        g = grid_graph(4)
        row_major = [(r, c) for r in range(4) for c in range(4)]
        assert ordering_width(g, row_major) == 4

    def test_clique_any_ordering(self):
        g = complete_graph(6)
        assert ordering_width(g, list(range(6))) == 5
        assert ordering_width(g, [3, 1, 4, 0, 5, 2]) == 5
