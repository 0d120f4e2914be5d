"""Differential testing: independent solvers must agree.

Hypothesis generates random graphs and hypergraphs; on each one the
exact solvers (A*, branch and bound, the deterministic portfolio) must
report the same width — and that width must match the brute-force
oracle where the instance is small enough to enumerate.  Heuristic
upper bounds (GA, min-fill) may be loose but must never undercut the
exact width; proven lower bounds must never exceed it.
"""

import random

from hypothesis import given, settings, strategies as st

from tests.conftest import make_covered_hypergraph, random_graphs
from repro.bounds import minor_gamma_r, minor_min_width
from repro.bounds.upper import best_heuristic_ordering
from repro.decomposition import ghw_ordering_width
from repro.genetic import GAParameters, ga_ghw, ga_treewidth
from repro.hypergraph import Graph, Hypergraph
from repro.portfolio import run_portfolio
from repro.search import (
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
    brute_force_ghw,
    brute_force_treewidth,
)

GA_SMALL = GAParameters(population_size=8, generations=5)


@st.composite
def graphs(draw, max_vertices=9):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    g = Graph(vertices=range(n))
    for u, v in edges:
        g.add_edge(u, v)
    return g


@st.composite
def covered_hypergraphs(draw, max_vertices=6, max_edges=6):
    """Random hypergraphs without isolated vertices (ghw needs every
    vertex covered by an edge)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edges = []
    for _ in range(num_edges):
        size = draw(st.integers(min_value=1, max_value=min(3, n)))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        edges.append(members)
    h = Hypergraph.from_edges(edges) if edges else Hypergraph()
    for v in range(n):
        if v not in h or v in h.isolated_vertices():
            h.add_edge({v, (v + 1) % n}, name=f"cover{v}")
    return h


# ----------------------------------------------------------------------
# Treewidth: exact solvers agree, and match the oracle
# ----------------------------------------------------------------------

class TestTreewidthAgreement:
    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_astar_bb_and_oracle_agree(self, g):
        astar = astar_treewidth(g.copy())
        bb = branch_and_bound_treewidth(g.copy())
        assert astar.exact and bb.exact
        assert astar.upper_bound == bb.upper_bound
        assert astar.upper_bound == brute_force_treewidth(g)

    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_upper_bounds_never_undercut_exact(self, g):
        tw = brute_force_treewidth(g)
        rng = random.Random(0)
        _, heuristic_ub = best_heuristic_ordering(g.copy(), rng)
        assert heuristic_ub >= tw
        ga = ga_treewidth(g.copy(), GA_SMALL, rng=random.Random(1))
        assert ga.best_fitness >= tw

    @settings(max_examples=25, deadline=None)
    @given(graphs())
    def test_lower_bounds_never_exceed_exact(self, g):
        tw = brute_force_treewidth(g)
        rng = random.Random(0)
        assert minor_min_width(g.copy(), rng) <= tw
        assert minor_gamma_r(g.copy(), rng) <= tw

    def test_fixed_batch_cross_checks(self):
        # A deterministic batch (no hypothesis shrink churn) over
        # slightly larger graphs than the strategy generates.
        for g in random_graphs(8, max_n=11, seed=42):
            astar = astar_treewidth(g.copy())
            bb = branch_and_bound_treewidth(g.copy())
            assert astar.exact and bb.exact
            assert astar.upper_bound == bb.upper_bound


class TestPortfolioAgreement:
    def test_deterministic_portfolio_matches_astar(self):
        # Two fixed seeds: the deterministic portfolio's witnessed width
        # equals the exact treewidth (its exact backends finish within
        # the node budget at this size).
        for seed, g in enumerate(random_graphs(2, max_n=9, seed=7)):
            exact = astar_treewidth(g.copy())
            result = run_portfolio(
                g,
                backends=["astar-tw", "bb-tw"],
                jobs=1,
                deterministic=True,
                max_nodes=200_000,
                seed=seed,
            )
            assert exact.exact
            assert result.upper_bound == exact.upper_bound
            assert result.lower_bound <= exact.upper_bound


# ----------------------------------------------------------------------
# ghw: exact solvers agree, and match the oracle
# ----------------------------------------------------------------------

class TestGhwAgreement:
    @settings(max_examples=15, deadline=None)
    @given(covered_hypergraphs())
    def test_astar_bb_and_oracle_agree(self, h):
        astar = astar_ghw(h.copy())
        bb = branch_and_bound_ghw(h.copy())
        assert astar.exact and bb.exact
        assert astar.upper_bound == bb.upper_bound
        assert astar.upper_bound == brute_force_ghw(h)

    @settings(max_examples=10, deadline=None)
    @given(covered_hypergraphs(max_vertices=5, max_edges=5))
    def test_ga_and_ordering_bounds_never_undercut(self, h):
        ghw = brute_force_ghw(h)
        rng = random.Random(0)
        ordering, _ = best_heuristic_ordering(h, rng)
        assert ghw_ordering_width(h, list(ordering)) >= ghw
        ga = ga_ghw(h, GA_SMALL, rng=random.Random(1))
        assert ga.best_fitness >= ghw

    def test_fixed_batch_cross_checks(self):
        for seed in range(4):
            h = make_covered_hypergraph(6, 5, seed=seed)
            astar = astar_ghw(h.copy())
            bb = branch_and_bound_ghw(h.copy())
            assert astar.exact and bb.exact
            assert astar.upper_bound == bb.upper_bound
            assert astar.upper_bound == brute_force_ghw(h)
