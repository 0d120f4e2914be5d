"""Tests for the Chapter 3 machinery: Transform Leaf Normal Form,
dca orderings and the ghw search-space theorem."""

import itertools

import pytest

from repro.decomposition import (
    DecompositionError,
    TreeDecomposition,
    bucket_elimination,
    dca_ordering,
    elimination_bags,
    ghw_ordering_width,
    is_leaf_normal_form,
    ordering_from_decomposition,
    ordering_width,
    transform_leaf_normal_form,
)
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    adder_hypergraph,
    random_hypergraph,
)
from repro.setcover import exact_set_cover
from repro.verify import check_td


def covered(h):
    for v in sorted(h.isolated_vertices()):
        h.add_edge({v}, name=f"iso{v}")
    return h


class TestTransform:
    def test_output_is_lnf(self, example_hypergraph):
        td = bucket_elimination(
            example_hypergraph, example_hypergraph.vertex_list()
        )
        lnf = transform_leaf_normal_form(example_hypergraph, td)
        assert not check_td(lnf, example_hypergraph)
        assert is_leaf_normal_form(example_hypergraph, lnf)

    def test_bags_dominated_by_input(self, example_hypergraph):
        """Theorem 1: every LNF bag is contained in some input bag."""
        td = bucket_elimination(
            example_hypergraph, example_hypergraph.vertex_list()
        )
        lnf = transform_leaf_normal_form(example_hypergraph, td)
        original = list(td.bags.values())
        for bag in lnf.bags.values():
            assert any(bag <= o for o in original)

    def test_width_never_increases(self, adder5):
        td = bucket_elimination(adder5, adder5.vertex_list())
        lnf = transform_leaf_normal_form(adder5, td)
        assert lnf.width <= td.width

    def test_leaves_equal_hyperedges(self, example_hypergraph):
        td = bucket_elimination(
            example_hypergraph, example_hypergraph.vertex_list()
        )
        lnf = transform_leaf_normal_form(example_hypergraph, td)
        leaf_bags = sorted(
            tuple(sorted(lnf.bag(leaf))) for leaf in lnf.leaves()
        )
        edge_sets = sorted(
            tuple(sorted(edge))
            for edge in example_hypergraph.edges.values()
        )
        assert leaf_bags == edge_sets

    def test_invalid_input_rejected(self, example_hypergraph):
        td = TreeDecomposition()
        td.add_node("only", {"x1"})
        with pytest.raises(DecompositionError):
            transform_leaf_normal_form(example_hypergraph, td)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_hypergraphs(self, seed):
        h = covered(random_hypergraph(8, 8, seed=seed, min_arity=2,
                                      max_arity=4))
        td = bucket_elimination(h, h.vertex_list())
        lnf = transform_leaf_normal_form(h, td)
        assert not check_td(lnf, h)
        assert is_leaf_normal_form(h, lnf)
        original = list(td.bags.values())
        for bag in lnf.bags.values():
            assert any(bag <= o for o in original)


class TestDcaOrdering:
    def test_lemma_13_bag_containment(self, example_hypergraph):
        """Every elimination bag of the dca ordering is inside a bag of
        the leaf normal form (hence of the original TD)."""
        td = bucket_elimination(
            example_hypergraph, example_hypergraph.vertex_list()
        )
        lnf = transform_leaf_normal_form(example_hypergraph, td)
        ordering = dca_ordering(example_hypergraph, lnf)
        bags = elimination_bags(example_hypergraph, ordering)
        lnf_bags = list(lnf.bags.values())
        for bag in bags.values():
            assert any(bag <= b for b in lnf_bags), bag

    def test_ordering_is_permutation(self, adder5):
        ordering = ordering_from_decomposition(
            adder5, bucket_elimination(adder5, adder5.vertex_list())
        )
        assert sorted(map(str, ordering)) == sorted(
            map(str, adder5.vertex_list())
        )

    def test_width_dominated_by_original(self, adder5):
        td = bucket_elimination(adder5, adder5.vertex_list())
        ordering = ordering_from_decomposition(adder5, td)
        assert ordering_width(adder5, ordering) <= td.width

    @pytest.mark.parametrize("seed", range(6))
    def test_width_dominated_random(self, seed):
        h = covered(random_hypergraph(9, 10, seed=seed + 50, min_arity=2,
                                      max_arity=3))
        td = bucket_elimination(h, h.vertex_list())
        ordering = ordering_from_decomposition(h, td)
        assert ordering_width(h, ordering) <= td.width


class TestChapter3Theorem:
    """Theorems 2–3: elimination orderings reach ghw."""

    def test_roundtrip_preserves_ghw_width(self, example_hypergraph):
        # Find the best ordering by brute force (6 vertices).
        vertices = example_hypergraph.vertex_list()
        best_width = min(
            ghw_ordering_width(example_hypergraph, list(p),
                               cover_function=exact_set_cover)
            for p in itertools.permutations(vertices)
        )
        # Build the GHD from a best ordering, push it through Chapter 3,
        # and confirm the recovered ordering is no worse (Theorem 2).
        for p in itertools.permutations(vertices):
            if ghw_ordering_width(example_hypergraph, list(p),
                                  cover_function=exact_set_cover) == best_width:
                td = bucket_elimination(example_hypergraph, list(p))
                recovered = ordering_from_decomposition(
                    example_hypergraph, td
                )
                assert ghw_ordering_width(
                    example_hypergraph, recovered,
                    cover_function=exact_set_cover,
                ) <= best_width
                break

    def test_adder_ordering_roundtrip(self):
        h = adder_hypergraph(4)
        ordering = h.vertex_list()
        td = bucket_elimination(h, ordering)
        recovered = ordering_from_decomposition(h, td)
        original_w = ghw_ordering_width(h, ordering,
                                        cover_function=exact_set_cover)
        recovered_w = ghw_ordering_width(h, recovered,
                                         cover_function=exact_set_cover)
        assert recovered_w <= max(original_w, td.width)
