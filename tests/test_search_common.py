"""Tests for the shared search infrastructure (budgets, replayer)."""

import time

import pytest

from repro.hypergraph.generators import grid_graph, random_gnm_graph
from repro.search import (
    BudgetExceeded,
    GraphReplayer,
    SearchBudget,
    astar_treewidth,
    branch_and_bound_treewidth,
)
from repro.search.common import BoundHooks, SearchResult, SearchStats


class TestBudget:
    def test_node_budget_raises(self):
        clock = SearchBudget(max_nodes=3).start()
        clock.tick()
        clock.tick()
        clock.tick()
        with pytest.raises(BudgetExceeded):
            clock.tick()

    def test_unlimited_budget(self):
        clock = SearchBudget().start()
        for _ in range(1000):
            clock.tick()
        assert clock.nodes == 1000

    def test_time_budget(self):
        clock = SearchBudget(max_seconds=0.05).start()
        time.sleep(0.08)
        with pytest.raises(BudgetExceeded):
            clock.tick()  # the clock is read on every tick

    def test_hooks_polled_after_poll_seconds(self):
        # A slow expansion must not hold the poll (and the race's stop
        # word) back until poll_interval nodes have passed.
        polls = []
        hooks = BoundHooks(
            poll_upper=lambda: polls.append(1), poll_interval=10**6
        )
        clock = SearchBudget(hooks=hooks).start()
        assert len(polls) == 1  # the poll at start
        time.sleep(0.02)
        clock.tick()
        assert len(polls) == 2

    def test_elapsed(self):
        clock = SearchBudget().start()
        assert clock.elapsed >= 0


class TestSearchResult:
    def test_width_is_upper_bound(self):
        result = SearchResult(5, 3, [1, 2], False, SearchStats())
        assert result.width == 5
        assert not result.exact


class TestGraphReplayer:
    def test_move_forward_and_back(self):
        g = grid_graph(3)
        replayer = GraphReplayer(g)
        full = [(r, c) for r in range(3) for c in range(3)]
        state_a = replayer.move_to(full[:4])
        assert len(state_a) == 5
        state_b = replayer.move_to(full[:1])
        assert len(state_b) == 8
        state_c = replayer.move_to([])
        assert state_c == g

    def test_divergent_orderings(self):
        g = random_gnm_graph(8, 14, seed=1)
        replayer = GraphReplayer(g)
        vertices = g.vertex_list()
        a = vertices[:3]
        b = [vertices[0], vertices[4], vertices[5]]
        ga = replayer.move_to(a).copy()
        gb = replayer.move_to(b).copy()
        # reference: eliminate from scratch
        ref_a = g.copy()
        for v in a:
            ref_a.eliminate(v)
        ref_b = g.copy()
        for v in b:
            ref_b.eliminate(v)
        assert ga == ref_a
        assert gb == ref_b

    def test_original_graph_untouched(self):
        g = grid_graph(3)
        reference = g.copy()
        replayer = GraphReplayer(g)
        replayer.move_to(g.vertex_list()[:5])
        assert g == reference

    def test_many_random_jumps(self):
        import random

        g = random_gnm_graph(10, 20, seed=5)
        vertices = g.vertex_list()
        rng = random.Random(0)
        replayer = GraphReplayer(g)
        for _ in range(25):
            k = rng.randint(0, 8)
            ordering = rng.sample(vertices, k)
            got = replayer.move_to(ordering)
            ref = g.copy()
            for v in ordering:
                ref.eliminate(v)
            assert got == ref


class TestStatsConsistency:
    """Every search exit path must report the full SearchStats — no field
    may be left at its default on some paths but not others."""

    def test_finish_stamps_elapsed_and_published(self):
        published = []
        hooks = BoundHooks(publish_upper=published.append)
        clock = SearchBudget(hooks=hooks).start()
        clock.publish_upper(9)
        clock.publish_upper(7)
        stats = clock.finish(SearchStats(nodes_expanded=3))
        assert stats.bounds_published == 2
        assert stats.elapsed_seconds > 0
        assert published == [9, 7]

    def test_astar_reports_all_fields(self):
        from repro.instances import get_instance

        result = astar_treewidth(get_instance("myciel4").build())
        s = result.stats
        assert s.nodes_expanded > 0
        assert s.max_frontier > 0
        assert s.elapsed_seconds > 0
        assert s.reductions_forced > 0  # myciel4 hits forced reductions
        assert not s.budget_exhausted

    def test_bb_reports_peak_depth(self):
        from repro.instances import get_instance

        result = branch_and_bound_treewidth(get_instance("myciel4").build())
        s = result.stats
        assert s.nodes_expanded > 0
        # max_frontier is the peak recursion depth for the DFS searches;
        # BB must descend at least one level to do any work.
        assert s.max_frontier > 0
        assert s.elapsed_seconds > 0

    def test_budget_exhausted_path_reports_stats(self):
        from repro.instances import get_instance

        result = astar_treewidth(
            get_instance("myciel4").build(), budget=SearchBudget(max_nodes=50)
        )
        s = result.stats
        assert s.budget_exhausted
        assert s.elapsed_seconds > 0
        assert s.max_frontier > 0
        assert not result.exact
        assert "budget-exhausted" in result.summary()

    def test_summary_surfaces_every_counter(self):
        stats = SearchStats(
            nodes_expanded=11,
            max_frontier=22,
            elapsed_seconds=0.5,
            budget_exhausted=False,
            bounds_adopted=33,
            bounds_published=44,
            reductions_forced=55,
        )
        line = SearchResult(6, 4, [1], False, stats).summary("tw")
        assert "tw in [4, 6]" in line
        for token in (
            "nodes=11", "frontier=22", "reductions=55",
            "published=44", "adopted=33", "elapsed=0.500s",
        ):
            assert token in line
        exact_line = SearchResult(6, 6, [1], True, stats).summary("tw")
        assert exact_line.startswith("tw = 6")

    def test_as_dict_covers_every_field(self):
        import dataclasses

        stats = SearchStats()
        assert set(stats.as_dict()) == {
            f.name for f in dataclasses.fields(SearchStats)
        }
