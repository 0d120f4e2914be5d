"""Tests for hypertree decompositions (the descendant condition)."""

import random

import pytest

from repro.decomposition.htd import (
    HypertreeDecomposition,
    htd_from_ordering,
    hypertree_width_upper_bound,
)
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    adder_hypergraph,
    clique_hypergraph,
    grid2d_hypergraph,
    random_hypergraph,
)
from repro.search import branch_and_bound_ghw
from repro.verify import check_htd
from tests.conftest import make_covered_hypergraph


class TestValidator:
    def test_valid_example(self, example_hypergraph):
        htd = HypertreeDecomposition(root="p1")
        htd.add_node("p1", bag={"x1", "x3", "x5"}, cover={"C1", "C3"})
        htd.add_node("p2", bag={"x1", "x2", "x3"}, cover={"C1"})
        htd.add_node("p3", bag={"x3", "x4", "x5"}, cover={"C3"})
        htd.add_node("p4", bag={"x1", "x5", "x6"}, cover={"C2"})
        htd.add_tree_edge("p1", "p2")
        htd.add_tree_edge("p1", "p3")
        htd.add_tree_edge("p1", "p4")
        # p1 uses C1 whose x2 appears in p2's bag (below p1) but not in
        # p1's bag -> descendant condition violated at p1.
        problems = [p.message for p in check_htd(htd, example_hypergraph)]
        assert any("descendant" in p for p in problems)

    def test_descendant_condition_satisfied(self, example_hypergraph):
        htd = HypertreeDecomposition(root="p2")
        # Rooting at p2 moves the C1 leak above: check a construction
        # where every λ-var below each node is in its bag.
        htd.add_node("p2", bag={"x1", "x2", "x3"}, cover={"C1"})
        htd.add_node("p1", bag={"x1", "x3", "x5"}, cover={"C1", "C3"})
        htd.add_node("p3", bag={"x3", "x4", "x5"}, cover={"C3"})
        htd.add_node("p4", bag={"x1", "x5", "x6"}, cover={"C2"})
        htd.add_tree_edge("p2", "p1")
        htd.add_tree_edge("p1", "p3")
        htd.add_tree_edge("p1", "p4")
        # p1 covers with C1 = {x1,x2,x3}; x2 does not occur below p1;
        # C3 = {x3,x4,x5}; x4 occurs below in p3... and x4 ∉ χ(p1): leak!
        problems = [p.message for p in check_htd(htd, example_hypergraph)]
        assert any("descendant" in p for p in problems) == ("x4" not in
                                                            {"x1", "x3", "x5"})

    def test_single_node_never_leaks(self):
        h = Hypergraph(edges={"e": {1, 2, 3}})
        htd = HypertreeDecomposition(root="n")
        htd.add_node("n", bag={1, 2, 3}, cover={"e"})
        assert check_htd(htd, h) == []

    def test_copy_keeps_root(self):
        htd = HypertreeDecomposition(root="r")
        htd.add_node("r", bag={1}, cover=())
        assert htd.copy().root == "r"


class TestConstructor:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: adder_hypergraph(6),
            lambda: clique_hypergraph(8),
            lambda: grid2d_hypergraph(4),
        ],
    )
    def test_produces_valid_htd(self, builder, example_hypergraph):
        for h in (builder(), example_hypergraph):
            ordering = h.vertex_list()
            htd = htd_from_ordering(h, ordering)
            assert check_htd(htd, h) == [], h

    @pytest.mark.parametrize("seed", range(10))
    def test_random_hypergraphs(self, seed):
        h = make_covered_hypergraph(8, 10, seed=seed + 11000)
        ordering = h.vertex_list()
        random.Random(seed).shuffle(ordering)
        htd = htd_from_ordering(h, ordering)
        assert check_htd(htd, h) == [], seed

    @pytest.mark.parametrize("seed", range(6))
    def test_hw_ub_at_least_ghw(self, seed):
        """ghw(H) <= hw(H) <= our upper bound."""
        h = make_covered_hypergraph(6, 8, seed=seed + 11100)
        ghw = branch_and_bound_ghw(h).width
        hw_ub = hypertree_width_upper_bound(h, h.vertex_list())
        assert hw_ub >= ghw

    def test_acyclic_hypergraph_width_one(self):
        # A path hypergraph is acyclic: hw = 1, and a good ordering
        # finds it.
        h = Hypergraph(edges={"a": {1, 2}, "b": {2, 3}, "c": {3, 4}})
        hw_ub = hypertree_width_upper_bound(h, [1, 4, 2, 3])
        assert hw_ub <= 2  # small; = 1 with the perfect ordering
        best = min(
            hypertree_width_upper_bound(h, list(p))
            for p in __import__("itertools").permutations([1, 2, 3, 4])
        )
        assert best == 1

    def test_empty(self):
        h = Hypergraph()
        htd = htd_from_ordering(h, [])
        assert htd.num_nodes == 0
