"""Tests for BB-ghw and A*-ghw — exactness, anytime bounds, budgets."""

import time

import pytest

from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    adder_hypergraph,
    bridge_hypergraph,
    clique_hypergraph,
    grid2d_hypergraph,
)
from repro.instances import get_instance
from repro.search import (
    SearchBudget,
    astar_ghw,
    branch_and_bound_ghw,
    brute_force_ghw,
)
from tests.conftest import make_covered_hypergraph

SOLVERS = [branch_and_bound_ghw, astar_ghw]


@pytest.mark.parametrize("solver", SOLVERS)
class TestExactness:
    def test_edgeless(self, solver):
        result = solver(Hypergraph())
        assert result.exact and result.width == 0

    def test_single_edge(self, solver):
        result = solver(Hypergraph(edges={"e": {1, 2, 3}}))
        assert result.exact and result.width == 1

    def test_example_hypergraph(self, solver, example_hypergraph):
        result = solver(example_hypergraph)
        assert result.exact and result.width == 2  # Fig. 2.7

    @pytest.mark.parametrize("seed", range(12))
    def test_random_match_brute_force(self, solver, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 7)
        m = rng.randint(1, 10)
        h = make_covered_hypergraph(n, m, seed=seed + 700)
        expected = brute_force_ghw(h)
        result = solver(h)
        assert result.exact and result.width == expected, (seed, result)

    def test_clique_family(self, solver):
        # ghw(clique hypergraph on n vertices) = ceil(n/2)
        for n in (4, 6, 8):
            result = solver(clique_hypergraph(n))
            assert result.exact and result.width == n // 2, n

    def test_adder_family(self, solver):
        result = solver(adder_hypergraph(6))
        assert result.exact and result.width == 2

    def test_isolated_vertex_rejected(self, solver):
        h = Hypergraph(vertices=[1, 2], edges={"a": {1}})
        with pytest.raises(ValueError):
            solver(h)

    def test_witness_ordering_is_permutation(self, solver, adder5):
        result = solver(adder5)
        assert sorted(map(str, result.ordering)) == sorted(
            map(str, adder5.vertex_list())
        )


@pytest.mark.parametrize("solver", SOLVERS)
class TestAblationFlags:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_without_reductions(self, solver, seed):
        h = make_covered_hypergraph(6, 8, seed=seed + 800)
        expected = brute_force_ghw(h)
        result = solver(h, use_reductions=False)
        assert result.exact and result.width == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_without_pr2(self, solver, seed):
        h = make_covered_hypergraph(6, 8, seed=seed + 900)
        expected = brute_force_ghw(h)
        result = solver(h, use_pr2=False)
        assert result.exact and result.width == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_sas_rule_preserves_exactness(self, solver, seed):
        """The strongly-almost-simplicial rule (thesis §8.2) — enabled
        via use_sas — must not change results on small instances."""
        h = make_covered_hypergraph(6, 8, seed=seed + 1000)
        expected = brute_force_ghw(h)
        result = solver(h, use_sas=True)
        assert result.exact and result.width == expected


class TestBudgets:
    def test_bb_budget_returns_bounds(self):
        h = grid2d_hypergraph(8)
        result = branch_and_bound_ghw(h, budget=SearchBudget(max_nodes=30))
        assert result.lower_bound <= result.upper_bound

    def test_astar_budget_returns_bounds(self):
        h = grid2d_hypergraph(8)
        result = astar_ghw(h, budget=SearchBudget(max_nodes=30))
        assert result.lower_bound <= result.upper_bound

    def test_bounds_bracket_known_ghw(self):
        h = bridge_hypergraph(10)
        result = branch_and_bound_ghw(h, budget=SearchBudget(max_nodes=200))
        # whatever the exact value, the bracket must be consistent
        assert 1 <= result.lower_bound <= result.upper_bound

    def test_anytime_lower_bound_monotone(self):
        h = grid2d_hypergraph(8)
        small = astar_ghw(h, budget=SearchBudget(max_nodes=5))
        large = astar_ghw(h, budget=SearchBudget(max_nodes=200))
        assert large.lower_bound >= small.lower_bound

    def test_time_budget_stops_within_a_node(self):
        # One A*-ghw expansion on c499 costs a few hundred milliseconds,
        # so the budget holds only if the clock is read at every node.
        h = get_instance("c499").build()
        started = time.monotonic()
        result = astar_ghw(h, budget=SearchBudget(max_seconds=1.0))
        assert time.monotonic() - started < 3.0
        assert result.stats.budget_exhausted
        assert 1 <= result.lower_bound <= result.upper_bound


class TestGhwVsTreewidth:
    """ghw(H) <= tw(H) + 1 relations and cross-checks."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ghw_at_most_tw_plus_one(self, seed):
        from repro.search import astar_treewidth

        h = make_covered_hypergraph(6, 8, seed=seed + 1100)
        ghw = branch_and_bound_ghw(h).width
        tw = astar_treewidth(h).width
        # covering a bag of size tw+1 needs at most tw+1 edges; in fact
        # ghw <= tw + 1 always (cover each vertex by one edge).
        assert ghw <= tw + 1

    def test_clique_gap(self):
        """clique_10: tw = 9 but ghw = 5 — the gap that motivates GHDs."""
        from repro.search import astar_treewidth

        h = clique_hypergraph(10)
        assert astar_treewidth(h).width == 9
        assert branch_and_bound_ghw(h).width == 5
