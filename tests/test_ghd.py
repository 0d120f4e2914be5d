"""Unit tests for GeneralizedHypertreeDecomposition."""

import pytest

from repro.decomposition import (
    DecompositionError,
    GeneralizedHypertreeDecomposition,
)
from repro.hypergraph import Hypergraph
from repro.verify import check_ghd


def example_ghd():
    """Width-2 GHD of the thesis' example 5 hypergraph (Fig. 2.7)."""
    ghd = GeneralizedHypertreeDecomposition()
    ghd.add_node("p1", bag={"x1", "x3", "x5"}, cover={"C1", "C3"})
    ghd.add_node("p2", bag={"x1", "x2", "x3"}, cover={"C1"})
    ghd.add_node("p3", bag={"x3", "x4", "x5"}, cover={"C3"})
    ghd.add_node("p4", bag={"x1", "x5", "x6"}, cover={"C2"})
    ghd.add_tree_edge("p1", "p2")
    ghd.add_tree_edge("p1", "p3")
    ghd.add_tree_edge("p1", "p4")
    return ghd


class TestStructure:
    def test_ghw_width(self):
        assert example_ghd().ghw_width == 2

    def test_cover_access(self):
        ghd = example_ghd()
        assert ghd.cover("p1") == frozenset({"C1", "C3"})
        with pytest.raises(DecompositionError):
            ghd.cover("zzz")

    def test_set_cover(self):
        ghd = example_ghd()
        ghd.set_cover("p2", {"C1", "C2"})
        assert ghd.ghw_width == 2
        with pytest.raises(DecompositionError):
            ghd.set_cover("zzz", set())

    def test_remove_node_clears_cover(self):
        ghd = example_ghd()
        ghd.remove_node("p4")
        assert "p4" not in ghd.covers

    def test_copy(self):
        ghd = example_ghd()
        clone = ghd.copy()
        clone.set_cover("p1", {"C1"})
        assert ghd.cover("p1") == frozenset({"C1", "C3"})


class TestValidity:
    def test_valid_example(self, example_hypergraph):
        assert not check_ghd(example_ghd(), example_hypergraph)

    def test_requires_hypergraph(self, triangle):
        with pytest.raises(TypeError):
            check_ghd(example_ghd(), triangle)

    def test_uncovered_bag_detected(self, example_hypergraph):
        ghd = example_ghd()
        ghd.set_cover("p4", {"C1"})  # C1 does not contain x5, x6
        problems = [p.message for p in check_ghd(ghd, example_hypergraph)]
        assert any("not covered" in p for p in problems)

    def test_unknown_lambda_edge_detected(self, example_hypergraph):
        ghd = example_ghd()
        ghd.set_cover("p2", {"nope"})
        problems = [p.message for p in check_ghd(ghd, example_hypergraph)]
        assert any("unknown hyperedges" in p for p in problems)

    def test_td_conditions_still_checked(self, example_hypergraph):
        ghd = example_ghd()
        ghd.remove_node("p4")  # C2 no longer contained in any bag
        problems = [p.message for p in check_ghd(ghd, example_hypergraph)]
        assert any("C2" in p for p in problems)


class TestCompletion:
    def test_example_is_already_complete(self, example_hypergraph):
        assert example_ghd().is_complete(example_hypergraph)

    def test_completion_adds_witnesses(self, example_hypergraph):
        ghd = GeneralizedHypertreeDecomposition()
        # A single fat node covering everything with all three edges.
        ghd.add_node(
            "root",
            bag={"x1", "x2", "x3", "x4", "x5", "x6"},
            cover={"C1", "C2", "C3"},
        )
        assert not check_ghd(ghd, example_hypergraph)
        assert ghd.is_complete(example_hypergraph)  # λ lists all edges

        # Drop C3 from λ but keep coverage via C1/C2... C3's vertices are
        # x3, x4, x5 — not covered by C1 ∪ C2 (x4 missing), so use a
        # different construction: bag contains C3 but λ doesn't list it.
        ghd2 = GeneralizedHypertreeDecomposition()
        ghd2.add_node("a", bag={"x1", "x2", "x3"}, cover={"C1"})
        ghd2.add_node("b", bag={"x3", "x4", "x5"}, cover={"C3"})
        ghd2.add_node("c", bag={"x1", "x5", "x6"}, cover={"C2"})
        ghd2.add_node("bridge", bag={"x1", "x3", "x5"}, cover={"C1", "C3"})
        ghd2.add_tree_edge("bridge", "a")
        ghd2.add_tree_edge("bridge", "b")
        ghd2.add_tree_edge("bridge", "c")
        assert ghd2.is_complete(example_hypergraph)

    def test_completion_of_incomplete(self, example_hypergraph):
        ghd = GeneralizedHypertreeDecomposition()
        ghd.add_node("a", bag={"x1", "x2", "x3"}, cover={"C1"})
        ghd.add_node(
            "rest", bag={"x1", "x3", "x4", "x5", "x6"}, cover={"C2", "C3"}
        )
        ghd.add_tree_edge("a", "rest")
        assert not check_ghd(ghd, example_hypergraph)
        # C2 ⊆ bag("rest") and C2 ∈ λ("rest") — but is C3 witnessed?
        # C3 = {x3,x4,x5} ⊆ bag("rest") and C3 ∈ λ("rest"): complete.
        assert ghd.is_complete(example_hypergraph)

        ghd.set_cover("rest", {"C2", "C3"})
        # Break completeness by splitting λ so C3 has no witness node.
        ghd2 = GeneralizedHypertreeDecomposition()
        ghd2.add_node("a", bag={"x1", "x2", "x3"}, cover={"C1"})
        ghd2.add_node("b", bag={"x3", "x4"}, cover={"C3"})
        ghd2.add_node("c", bag={"x1", "x3", "x4", "x5", "x6"},
                      cover={"C2", "C3"})
        ghd2.add_tree_edge("a", "c")
        ghd2.add_tree_edge("b", "c")
        assert not check_ghd(ghd2, example_hypergraph)
        completed = ghd2.completed(example_hypergraph)
        assert completed.is_complete(example_hypergraph)
        assert completed.ghw_width == ghd2.ghw_width
        assert not check_ghd(completed, example_hypergraph)

    def test_completion_width_never_increases(self, example_hypergraph):
        ghd = GeneralizedHypertreeDecomposition()
        ghd.add_node(
            "root",
            bag={"x1", "x2", "x3", "x4", "x5", "x6"},
            cover={"C1", "C2", "C3"},
        )
        completed = ghd.completed(example_hypergraph)
        assert completed.ghw_width <= ghd.ghw_width
