"""Failure-injection tests: corrupted inputs must be *detected*, not
silently accepted — the validators are load-bearing for every search
result in this package."""

import random

import pytest

from repro.decomposition import (
    GeneralizedHypertreeDecomposition,
    TreeDecomposition,
    bucket_elimination,
    ghd_from_ordering,
    is_leaf_normal_form,
    transform_leaf_normal_form,
)
from repro.bounds import min_fill_ordering
from repro.hypergraph import Graph, Hypergraph
from repro.hypergraph.generators import grid_graph, random_gnm_graph
from repro.verify import check_ghd, check_td
from tests.conftest import make_covered_hypergraph


def valid_td_of(graph):
    return bucket_elimination(graph, min_fill_ordering(graph))


class TestCorruptedTreeDecompositions:
    @pytest.mark.parametrize("seed", range(6))
    def test_dropping_a_vertex_from_a_bag_is_caught(self, seed):
        g = random_gnm_graph(8, 14, seed=seed + 12000)
        td = valid_td_of(g)
        rng = random.Random(seed)
        # remove one vertex from one multi-vertex bag
        for node in td.nodes:
            bag = td.bag(node)
            if len(bag) >= 2:
                victim = sorted(bag, key=repr)[0]
                td.set_bag(node, bag - {victim})
                break
        assert check_td(td, g)

    @pytest.mark.parametrize("seed", range(6))
    def test_cutting_a_tree_edge_is_caught(self, seed):
        g = random_gnm_graph(8, 14, seed=seed + 12100)
        td = valid_td_of(g)
        edges = td.tree_edges()
        if not edges:
            return
        a, b = edges[0]
        td._tree[a].discard(b)  # simulate corruption below the API
        td._tree[b].discard(a)
        assert not td.is_tree() or check_td(td, g)

    def test_swapping_two_bags_is_caught(self):
        g = grid_graph(3)
        td = valid_td_of(g)
        nodes = td.nodes
        bag_a, bag_b = td.bag(nodes[0]), td.bag(nodes[-1])
        if bag_a != bag_b:
            td.set_bag(nodes[0], bag_b)
            td.set_bag(nodes[-1], bag_a)
            assert check_td(td, g)

    def test_foreign_vertices_in_bags_are_tolerated_but_edges_checked(self):
        # Adding unknown vertices to a bag does not mask a missing edge.
        g = Graph.from_edges([(1, 2), (2, 3)])
        td = TreeDecomposition()
        td.add_node("a", {1, 2, 99})
        td.add_node("b", {2, 42})  # edge (2,3) nowhere
        td.add_tree_edge("a", "b")
        assert check_td(td, g)


class TestCorruptedGHDs:
    @pytest.mark.parametrize("seed", range(6))
    def test_removing_a_lambda_edge_is_caught(self, seed):
        h = make_covered_hypergraph(7, 9, seed=seed + 12200)
        ghd = ghd_from_ordering(h, min_fill_ordering(h))
        for node in ghd.nodes:
            cover = ghd.cover(node)
            bag = ghd.bag(node)
            if len(cover) >= 1 and len(bag) >= 2:
                ghd.set_cover(node, set(list(cover)[1:]))
                if not check_ghd(ghd, h):
                    continue  # removal happened to be redundant
                return  # caught
        pytest.skip("no prunable λ-label found on this instance")

    def test_lambda_pointing_at_ghost_edges_is_caught(self, adder5):
        ghd = ghd_from_ordering(adder5, min_fill_ordering(adder5))
        node = ghd.nodes[0]
        ghd.set_cover(node, {"ghost-edge"})
        problems = [p.message for p in check_ghd(ghd, adder5)]
        assert any("unknown hyperedges" in p for p in problems)

    def test_empty_cover_on_nonempty_bag_is_caught(self, adder5):
        ghd = ghd_from_ordering(adder5, min_fill_ordering(adder5))
        node = next(n for n in ghd.nodes if ghd.bag(n))
        ghd.set_cover(node, set())
        assert check_ghd(ghd, adder5)


class TestLeafNormalFormRobustness:
    def test_rejects_non_decompositions(self, example_hypergraph):
        bogus = TreeDecomposition()
        bogus.add_node("x", {"x1"})
        from repro.decomposition import DecompositionError

        with pytest.raises(DecompositionError):
            transform_leaf_normal_form(example_hypergraph, bogus)

    def test_is_lnf_rejects_plain_bucket_output(self, example_hypergraph):
        td = bucket_elimination(
            example_hypergraph, example_hypergraph.vertex_list()
        )
        # bucket elimination output has vertex-named leaves, not
        # hyperedge leaves: not in leaf normal form
        assert not is_leaf_normal_form(example_hypergraph, td)

    def test_tampered_lnf_detected(self, example_hypergraph):
        td = bucket_elimination(
            example_hypergraph, example_hypergraph.vertex_list()
        )
        lnf = transform_leaf_normal_form(example_hypergraph, td)
        leaf = lnf.leaves()[0]
        lnf.set_bag(leaf, lnf.bag(leaf) | {"x1", "x2", "x3", "x4"})
        assert not is_leaf_normal_form(example_hypergraph, lnf)


class TestSearchResultsSurviveValidation:
    """Every search witness must pass the validators — end to end."""

    @pytest.mark.parametrize("seed", range(4))
    def test_astar_witness_validates(self, seed):
        from repro.search import astar_treewidth

        g = random_gnm_graph(8, 13, seed=seed + 12300)
        result = astar_treewidth(g)
        td = bucket_elimination(g, result.ordering)
        assert not check_td(td, g)
        assert td.width <= result.width

    @pytest.mark.parametrize("seed", range(4))
    def test_bb_ghw_witness_validates(self, seed):
        from repro.search import branch_and_bound_ghw
        from repro.setcover import exact_set_cover

        h = make_covered_hypergraph(6, 8, seed=seed + 12400)
        result = branch_and_bound_ghw(h)
        ghd = ghd_from_ordering(
            h, result.ordering, cover_function=exact_set_cover
        )
        assert not check_ghd(ghd, h)
        assert ghd.ghw_width <= result.width
