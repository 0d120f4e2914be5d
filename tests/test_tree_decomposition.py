"""Unit tests for TreeDecomposition (structure and validity checking)."""

import pytest

from repro.decomposition import DecompositionError, TreeDecomposition
from repro.hypergraph import Graph, Hypergraph
from repro.verify import check_td


def simple_td():
    td = TreeDecomposition()
    td.add_node("a", {1, 2, 3})
    td.add_node("b", {2, 3, 4})
    td.add_node("c", {4, 5})
    td.add_tree_edge("a", "b")
    td.add_tree_edge("b", "c")
    return td


class TestStructure:
    def test_width(self):
        td = simple_td()
        assert td.width == 2

    def test_empty_width(self):
        assert TreeDecomposition().width == -1

    def test_duplicate_node_rejected(self):
        td = simple_td()
        with pytest.raises(DecompositionError):
            td.add_node("a", {9})

    def test_edge_unknown_node(self):
        td = simple_td()
        with pytest.raises(DecompositionError):
            td.add_tree_edge("a", "zzz")

    def test_loop_edge_rejected(self):
        td = simple_td()
        with pytest.raises(DecompositionError):
            td.add_tree_edge("a", "a")

    def test_leaves(self):
        td = simple_td()
        assert set(td.leaves()) == {"a", "c"}

    def test_remove_node(self):
        td = simple_td()
        td.remove_node("c")
        assert td.num_nodes == 2
        assert "c" not in td.tree_neighbors("b")

    def test_is_tree(self):
        td = simple_td()
        assert td.is_tree()
        td.add_node("d", {7})
        assert not td.is_tree()  # disconnected
        td.add_tree_edge("d", "a")
        assert td.is_tree()
        td.add_tree_edge("d", "b")
        assert not td.is_tree()  # cycle

    def test_rooted_parents_and_depths(self):
        td = simple_td()
        parents = td.rooted_parents("a")
        assert parents == {"a": None, "b": "a", "c": "b"}
        assert td.depths("a") == {"a": 0, "b": 1, "c": 2}

    def test_topological_order(self):
        td = simple_td()
        order = td.topological_order("b")
        assert order[0] == "b"
        assert set(order) == {"a", "b", "c"}

    def test_path_between(self):
        td = simple_td()
        assert td.path_between("a", "c") == ["a", "b", "c"]
        assert td.path_between("b", "b") == ["b"]

    def test_nodes_containing(self):
        td = simple_td()
        assert set(td.nodes_containing(3)) == {"a", "b"}

    def test_covered_vertices(self):
        assert simple_td().covered_vertices() == {1, 2, 3, 4, 5}

    def test_copy_independent(self):
        td = simple_td()
        clone = td.copy()
        clone.set_bag("a", {9})
        assert td.bag("a") == frozenset({1, 2, 3})


class TestValidityOnGraphs:
    def test_valid_path_decomposition(self):
        g = Graph.from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])
        td = simple_td()
        assert not check_td(td, g)

    def test_missing_edge_detected(self):
        g = Graph.from_edges([(1, 5)])
        td = simple_td()
        problems = [p.message for p in check_td(td, g)]
        assert any("not contained" in p for p in problems)

    def test_connectedness_violation_detected(self):
        td = TreeDecomposition()
        td.add_node("a", {1, 2})
        td.add_node("b", {2, 3})
        td.add_node("c", {1, 3})  # vertex 1 in a and c, but b between them
        td.add_tree_edge("a", "b")
        td.add_tree_edge("b", "c")
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        problems = [p.message for p in check_td(td, g)]
        assert any("connectedness" in p for p in problems)

    def test_uncovered_vertex_detected(self):
        g = Graph(vertices=[1, 2, 3, 4, 5, 99])
        g.add_edge(1, 2)
        problems = [p.message for p in check_td(simple_td(), g)]
        assert any("99" in p and "no bag" in p for p in problems)

    def test_non_tree_detected(self):
        td = TreeDecomposition()
        td.add_node("a", {1})
        td.add_node("b", {1})
        problems = [p.message for p in check_td(td, Graph(vertices=[1]))]
        assert "node graph is not a tree" in problems


class TestValidityOnHypergraphs:
    def test_hyperedge_containment(self):
        h = Hypergraph(edges={"big": {1, 2, 3, 4}})
        td = simple_td()
        problems = [p.message for p in check_td(td, h)]
        assert any("big" in p for p in problems)

    def test_valid_hypergraph_decomposition(self, example_hypergraph):
        td = TreeDecomposition()
        td.add_node("p1", {"x1", "x2", "x3"})
        td.add_node("p2", {"x1", "x3", "x5"})
        td.add_node("p3", {"x3", "x4", "x5"})
        td.add_node("p4", {"x1", "x5", "x6"})
        td.add_tree_edge("p1", "p2")
        td.add_tree_edge("p2", "p3")
        td.add_tree_edge("p2", "p4")
        assert not check_td(td, example_hypergraph)
        assert td.width == 2
