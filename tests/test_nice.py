"""Tests for nice tree decompositions."""

import pytest

from repro.bounds import min_fill_ordering
from repro.decomposition import (
    DecompositionError,
    TreeDecomposition,
    bucket_elimination,
)
from repro.decomposition.nice import NiceTreeDecomposition
from repro.hypergraph import Graph
from repro.hypergraph.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_gnm_graph,
)
from repro.verify import check_td


def nice_of(graph):
    td = bucket_elimination(graph, min_fill_ordering(graph))
    return NiceTreeDecomposition.from_tree_decomposition(td, graph), td


class TestConversion:
    @pytest.mark.parametrize(
        "builder",
        [lambda: path_graph(6), lambda: cycle_graph(7),
         lambda: grid_graph(3), lambda: grid_graph(4)],
    )
    def test_structurally_nice(self, builder):
        graph = builder()
        nice, _ = nice_of(graph)
        assert nice.violations() == []

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        graph = random_gnm_graph(9, 16, seed=seed + 8000)
        nice, td = nice_of(graph)
        assert nice.violations() == []
        assert nice.width == td.width
        flat = nice.to_tree_decomposition()
        assert not check_td(flat, graph)

    def test_width_preserved(self):
        graph = grid_graph(4)
        nice, td = nice_of(graph)
        assert nice.width == td.width

    def test_root_bag_empty(self):
        nice, _ = nice_of(cycle_graph(5))
        assert nice.root.bag == frozenset()

    def test_join_nodes_have_two_children(self):
        graph = Graph.from_edges([(0, 1), (0, 2), (0, 3)])  # star: branchy TD
        nice, _ = nice_of(graph)
        for node_id in range(nice.num_nodes):
            node = nice.node(node_id)
            if node.kind == "join":
                assert len(node.children) == 2

    def test_postorder_children_first(self):
        nice, _ = nice_of(grid_graph(3))
        seen = set()
        for node in nice.postorder():
            for child in node.children:
                assert child in seen
            seen.add(node.identifier)

    def test_single_node_decomposition(self):
        graph = Graph.from_edges([(1, 2)])
        td = TreeDecomposition()
        td.add_node("only", {1, 2})
        nice = NiceTreeDecomposition.from_tree_decomposition(td, graph)
        assert nice.violations() == []
        kinds = [nice.node(i).kind for i in range(nice.num_nodes)]
        assert kinds.count("leaf") == 1

    def test_invalid_input_rejected(self):
        graph = Graph.from_edges([(1, 2), (2, 3)])
        bogus = TreeDecomposition()
        bogus.add_node("a", {1})
        with pytest.raises(DecompositionError):
            NiceTreeDecomposition.from_tree_decomposition(bogus, graph)

    def test_empty_rejected(self):
        with pytest.raises(DecompositionError):
            NiceTreeDecomposition.from_tree_decomposition(
                TreeDecomposition(), None
            )

    def test_disconnected_tree_rejected(self):
        td = TreeDecomposition()
        td.add_node("a", {1})
        td.add_node("b", {2})
        with pytest.raises(DecompositionError):
            NiceTreeDecomposition.from_tree_decomposition(td, None)
