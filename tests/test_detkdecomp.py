"""Tests for det-k-decomp and exact hypertree width."""

import pytest

from repro.hypergraph import Hypergraph, is_alpha_acyclic
from repro.hypergraph.generators import (
    adder_hypergraph,
    clique_hypergraph,
    grid2d_hypergraph,
)
from repro.search import (
    branch_and_bound_ghw,
    det_k_decomp,
    hypertree_width,
)
from repro.verify import check_htd
from tests.conftest import make_covered_hypergraph


class TestDetKDecomp:
    def test_k_must_be_positive(self, example_hypergraph):
        with pytest.raises(ValueError):
            det_k_decomp(example_hypergraph, 0)

    def test_isolated_vertices_rejected(self):
        h = Hypergraph(vertices=[1, 2], edges={"a": {1}})
        with pytest.raises(ValueError):
            det_k_decomp(h, 2)

    def test_edgeless(self):
        htd = det_k_decomp(Hypergraph(), 1)
        assert htd is not None and htd.ghw_width == 0

    def test_single_edge_width_one(self):
        h = Hypergraph(edges={"e": {1, 2, 3}})
        htd = det_k_decomp(h, 1)
        assert htd is not None
        assert check_htd(htd, h) == []
        assert htd.ghw_width == 1

    def test_triangle_needs_two(self):
        tri = Hypergraph(edges={"a": {1, 2}, "b": {2, 3}, "c": {1, 3}})
        assert det_k_decomp(tri, 1) is None
        htd = det_k_decomp(tri, 2)
        assert htd is not None and check_htd(htd, tri) == []

    def test_monotone_in_k(self, example_hypergraph):
        # if width k works, width k+1 works too
        for k in range(1, 4):
            a = det_k_decomp(example_hypergraph, k)
            b = det_k_decomp(example_hypergraph, k + 1)
            if a is not None:
                assert b is not None

    def test_disconnected_hypergraph(self):
        h = Hypergraph(edges={"a": {1, 2}, "b": {3, 4}, "c": {4, 5}})
        hw, htd = hypertree_width(h)
        assert hw == 1
        assert check_htd(htd, h) == []
        assert htd.is_tree()

    @pytest.mark.parametrize("seed", range(10))
    def test_output_always_valid(self, seed):
        h = make_covered_hypergraph(7, 9, seed=seed + 13000)
        hw, htd = hypertree_width(h)
        assert check_htd(htd, h) == [], seed
        assert htd.ghw_width <= hw


class TestHypertreeWidthFacts:
    def test_width_one_iff_acyclic(self):
        """hw(H) = 1 iff H is α-acyclic — cross-validated against GYO."""
        for seed in range(12):
            h = make_covered_hypergraph(6, 6, seed=seed + 13100)
            hw, _ = hypertree_width(h)
            assert (hw == 1) == is_alpha_acyclic(h), seed

    def test_clique_family(self):
        # hw(binary clique hypergraph on n vertices) = ceil(n/2)
        for n in (3, 4, 5, 6):
            h = clique_hypergraph(n)
            hw, _ = hypertree_width(h)
            assert hw == -(-n // 2), n

    def test_adder_family(self):
        hw, _ = hypertree_width(adder_hypergraph(4))
        assert hw == 2

    def test_grid2d_small(self):
        h = grid2d_hypergraph(4)
        hw, htd = hypertree_width(h)
        assert check_htd(htd, h) == []
        assert 1 <= hw <= 3

    @pytest.mark.parametrize("seed", range(8))
    def test_ghw_le_hw(self, seed):
        """ghw(H) <= hw(H) (GHDs drop a condition)."""
        h = make_covered_hypergraph(6, 8, seed=seed + 13200)
        ghw = branch_and_bound_ghw(h).width
        hw, _ = hypertree_width(h)
        assert ghw <= hw, seed

    @pytest.mark.parametrize("seed", range(6))
    def test_hw_le_ghw_repair_bound(self, seed):
        """det-k-decomp's exact hw never exceeds the fixpoint
        constructor's upper bound."""
        from repro.decomposition import hypertree_width_upper_bound

        h = make_covered_hypergraph(6, 8, seed=seed + 13300)
        hw, _ = hypertree_width(h)
        ub = hypertree_width_upper_bound(h, h.vertex_list())
        assert hw <= ub, seed

    def test_example_5_hypergraph(self, example_hypergraph):
        hw, htd = hypertree_width(example_hypergraph)
        ghw = branch_and_bound_ghw(example_hypergraph).width
        assert ghw == 2
        assert hw in (2, 3)
        assert check_htd(htd, example_hypergraph) == []
