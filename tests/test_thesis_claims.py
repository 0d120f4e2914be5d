"""Executable checks of concrete claims made in the thesis text.

Each test cites the chapter/section making the claim.  These complement
the per-table benchmarks: they are the claims small enough to verify
inside the unit-test budget.
"""

import itertools

import pytest

from repro.bounds import (
    ghw_lower_bound,
    min_fill_ordering,
    treewidth_lower_bound,
    treewidth_upper_bound,
)
from repro.decomposition import (
    bucket_elimination,
    ghd_from_ordering,
    ghw_ordering_width,
    ordering_width,
)
from repro.hypergraph.generators import (
    adder_hypergraph,
    clique_hypergraph,
    grid_graph,
    myciel_graph,
    queen_graph,
)
from repro.search import (
    SearchBudget,
    astar_treewidth,
    branch_and_bound_ghw,
    hypertree_width,
)
from repro.setcover import exact_set_cover
from repro.verify import check_ghd


class TestChapter2Claims:
    def test_ghw_le_hw_le_tw_chain(self):
        """§2.3.2: ghw(H) <= hw(H) <= tw(H) (the thesis states the chain
        with tw; with our +1 convention tw means bag-size-1, and the
        correct modern statement is hw <= tw + 1)."""
        for factory in (lambda: adder_hypergraph(4),
                        lambda: clique_hypergraph(6)):
            h = factory()
            ghw = branch_and_bound_ghw(h).width
            hw, _ = hypertree_width(h)
            tw = astar_treewidth(h).width
            assert ghw <= hw <= tw + 1

    def test_width_of_example_decompositions(self, example_hypergraph):
        """Figs. 2.6/2.7: the example CSP has a width-2 TD and a width-2
        GHD; both are optimal."""
        tw = astar_treewidth(example_hypergraph)
        ghw = branch_and_bound_ghw(example_hypergraph)
        assert tw.exact and tw.width == 2
        assert ghw.exact and ghw.width == 2

    def test_bucket_elimination_reaches_treewidth(self):
        """§2.5.1: at least one ordering yields an optimal TD."""
        g = grid_graph(3)
        best = min(
            ordering_width(g, list(p))
            for p in itertools.permutations(g.vertex_list())
            if p[0] == (0, 0)  # symmetry cut to keep the test fast
        )
        assert best == astar_treewidth(g).width == 3


class TestChapter3Claims:
    def test_orderings_reach_ghw(self, example_hypergraph):
        """Theorem 3: some ordering σ has width(σ, H) = ghw(H)."""
        ghw = branch_and_bound_ghw(example_hypergraph).width
        best = min(
            ghw_ordering_width(example_hypergraph, list(p),
                               cover_function=exact_set_cover)
            for p in itertools.permutations(
                example_hypergraph.vertex_list())
        )
        assert best == ghw

    def test_no_ordering_beats_ghw(self):
        """Theorem 3's other half: no ordering does better than ghw."""
        h = clique_hypergraph(5)
        ghw = branch_and_bound_ghw(h).width
        for p in itertools.permutations(h.vertex_list()):
            assert ghw_ordering_width(
                h, list(p), cover_function=exact_set_cover
            ) >= ghw


class TestChapter5Claims:
    def test_queen5_treewidth_18(self):
        """Table 5.1: tw(queen5_5) = 18 (exact construction)."""
        result = astar_treewidth(queen_graph(5))
        assert result.exact and result.width == 18

    def test_myciel_widths(self):
        """Table 5.1: tw(myciel3) = 5, tw(myciel4) = 10."""
        assert astar_treewidth(myciel_graph(3)).width == 5
        assert astar_treewidth(myciel_graph(4)).width == 10

    def test_grid_treewidth_is_n(self):
        """§5.4.2: 'It is folklore that the treewidth of an n×n-grid
        is n.'"""
        for n in (2, 3, 4, 5):
            result = astar_treewidth(grid_graph(n))
            assert result.exact and result.width == n

    def test_anytime_lower_bounds_are_sound(self):
        """§5.3: an interrupted A* returns a valid treewidth lower
        bound."""
        g = queen_graph(6)  # tw = 25
        for nodes in (3, 10, 50):
            result = astar_treewidth(g, budget=SearchBudget(max_nodes=nodes))
            assert result.lower_bound <= 25

    def test_initial_bounds_bracket(self):
        """§5.1: A* starts from heuristic bounds lb <= tw <= ub."""
        g = queen_graph(5)
        assert treewidth_lower_bound(g) <= 18 <= treewidth_upper_bound(g)


class TestChapter7To9Claims:
    def test_adder_family_ghw_2(self):
        """The adder family's known ghw is 2 (Table 7.1 prior column);
        our exact search confirms it on tractable sizes."""
        for n in (3, 5, 8, 12):
            result = branch_and_bound_ghw(adder_hypergraph(n))
            assert result.exact and result.width == 2, n

    def test_clique_family_ghw_half_n(self):
        """clique_N's ghw = N/2 (prior column 10 for clique_20)."""
        for n in (4, 6, 8, 10):
            result = branch_and_bound_ghw(clique_hypergraph(n))
            assert result.exact and result.width == n // 2, n

    def test_ghd_construction_from_ga_quality_ordering(self):
        """§2.5.2 / Ch. 7: a GHD built from any ordering via bucket
        elimination + covering is valid and achieves the evaluated
        width."""
        h = adder_hypergraph(10)
        ordering = min_fill_ordering(h)
        ghd = ghd_from_ordering(h, ordering,
                                cover_function=exact_set_cover)
        assert not check_ghd(ghd, h)
        assert ghd.ghw_width == ghw_ordering_width(
            h, ordering, cover_function=exact_set_cover
        )

    def test_tw_ksc_bound_sound_on_families(self):
        """§8.1: tw-ksc-width never exceeds the true ghw."""
        for factory in (
            lambda: adder_hypergraph(8),
            lambda: clique_hypergraph(8),
        ):
            h = factory()
            ghw = branch_and_bound_ghw(h).width
            assert ghw_lower_bound(h) <= ghw
