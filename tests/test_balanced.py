"""Tests for the balanced-separator decomposition (``repro.parallel``):
golden and pinned results, split invariants (hypothesis),
cross-component cache sharing, trace events and entry points.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypergraph import Graph, Hypergraph
from repro.hypergraph.bitgraph import BitGraph
from repro.instances import get_instance
from repro.parallel import (
    BALANCE_LADDER,
    BalancedBudgetExceeded,
    BalancedConfig,
    BalancedCore,
    balanced_ghw,
    decide_balanced_ghw,
)
from repro.parallel.balanced import UNBALANCED_RUNG, as_hypergraph
from repro.telemetry import MemoryTracer, Metrics
from repro.verify import check_ghd


# ----------------------------------------------------------------------
# Strategies (same shape as tests/test_properties.py)
# ----------------------------------------------------------------------

@st.composite
def hypergraphs(draw, max_vertices=8, max_edges=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    h = Hypergraph(vertices=range(n))
    for i in range(num_edges):
        size = draw(st.integers(min_value=1, max_value=min(4, n)))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        h.add_edge(members, name=f"e{i}")
    for v in sorted(h.isolated_vertices()):
        h.add_edge({v}, name=f"iso{v}")
    return h


# ----------------------------------------------------------------------
# Golden widths
# ----------------------------------------------------------------------

# Known ghw values the balanced search must reproduce exactly.
# queen5_5 is pinned by the treewidth golden: ghw >= ceil((tw+1)/2)
# = ceil(19/2) = 10 (every bag of <= k edges spans <= 2k vertices...
# more precisely each hyperedge is binary, so a width-k GHD yields a
# tree decomposition of width <= 2k - 1, i.e. tw <= 2*ghw - 1), and
# the balanced search witnesses 10 from the min-fill start.
GOLDEN_BALANCED = {
    "fano": 3,
    "clique_5": 3,
    "grid2d_4": 2,
    "adder_5": 2,
    "bridge_5": 2,
}


@pytest.mark.parametrize("name,width", sorted(GOLDEN_BALANCED.items()))
def test_balanced_matches_golden_ghw(name, width):
    hg = as_hypergraph(get_instance(name).build())
    result = balanced_ghw(hg, BalancedConfig(deterministic=True))
    assert result.width == width
    assert result.certified
    assert not check_ghd(result.decomposition, hg, claimed_width=width)


# (width, attempts, parallel.subproblems, parallel.splits) of the
# deterministic run, recorded before the subproblem pool was removed:
# the in-process recursion must reproduce every search tree exactly.
PINNED_BALANCED = {
    "grid2d_4": (2, [(1, False)], 9, 10),
    "grid2d_6": (3, [(3, True), (2, False)], 185, 709),
    "adder_5": (2, [(1, False)], 33, 59),
    "clique_6": (3, [(2, False)], 51, 750),
    "fano": (3, [(2, False)], 29, 70),
    "bridge_10": (2, [(1, False)], 78, 114),
}


def _pinned_view(result):
    return (
        result.width,
        result.attempts,
        result.stats["parallel.subproblems"],
        result.stats["parallel.splits"],
    )


@pytest.mark.parametrize("config", [
    BalancedConfig(deterministic=True),
    # perfbench's ``solve`` workload builds exactly this config.
    BalancedConfig(workers=0, deterministic=True),
], ids=["deterministic", "perfbench-solve"])
@pytest.mark.parametrize("name", sorted(PINNED_BALANCED))
def test_balanced_deterministic_run_is_pinned(name, config):
    hg = as_hypergraph(get_instance(name).build())
    result = balanced_ghw(hg, config)
    assert _pinned_view(result) == PINNED_BALANCED[name]
    assert not check_ghd(result.decomposition, hg, claimed_width=result.width)


def test_workers_other_than_zero_rejected():
    with pytest.raises(ValueError, match="in process"):
        BalancedConfig(workers=1)


def test_deterministic_ignores_max_seconds():
    """A deterministic run is bounded by ``max_subproblems`` alone: a
    wall-clock budget that has already run out changes nothing."""
    hg = as_hypergraph(get_instance("grid2d_6").build())
    result = balanced_ghw(
        hg, BalancedConfig(deterministic=True, max_seconds=0.0)
    )
    assert _pinned_view(result) == PINNED_BALANCED["grid2d_6"]


def test_balanced_queen5_5_is_exactly_ten():
    hg = as_hypergraph(get_instance("queen5_5").build())
    result = balanced_ghw(
        hg,
        BalancedConfig(
            deterministic=True, max_subproblems=50, max_candidates=128
        ),
    )
    # tw(queen5_5) = 18 (golden), and binary edges give
    # tw <= 2*ghw - 1, so ghw >= ceil(19/2) = 10: the witnessed 10
    # is provably optimal.
    assert result.width == 10
    assert not check_ghd(result.decomposition, hg, claimed_width=10)


def test_balanced_b06_family():
    """The ISCAS b-family: b06 is pinned at 3 — better than the thesis
    Table 7.1 GA record of 4 — and the k=2 refusal is exhaustive, so
    the width is stable under any budget.  Siblings are bounded by
    their min-fill starts (balanced only ever improves on its start)."""
    hg = as_hypergraph(get_instance("b06").build())
    result = balanced_ghw(hg, BalancedConfig(deterministic=True))
    assert result.width == 3
    assert result.attempts == [(2, False)]
    assert not check_ghd(result.decomposition, hg, claimed_width=3)
    # Width 3 beats the published record, so double-check the witness
    # through the independent legacy validity API as well.
    assert not result.decomposition.violations(hg)

    for name, bound in (("b08", 7), ("b09", 10), ("b10", 10)):
        sibling = as_hypergraph(get_instance(name).build())
        res = balanced_ghw(
            sibling,
            BalancedConfig(max_seconds=3.0, max_subproblems=2000),
        )
        assert res.width <= min(bound, res.initial_upper)
        assert not check_ghd(
            res.decomposition, sibling, claimed_width=res.width
        )


# ----------------------------------------------------------------------
# Split invariants (satellite: hypothesis property)
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_accepted_splits_are_disconnected_and_balanced(h):
    """Every Split the candidate machinery accepts satisfies the two
    properties recursion correctness rests on: the child components are
    pairwise disconnected outside chi (checked against the BitGraph
    primal adjacency, an independent implementation), and the worst
    component respects the rung's balance ratio."""
    core = BalancedCore(h)
    bitgraph = BitGraph.from_hypergraph(h)
    k = 2
    for component, _ in core.top_components():
        scope = core.scope_mask(component, 0)
        for rung in (*BALANCE_LADDER, UNBALANCED_RUNG):
            for split in core.splits(component, 0, scope, k, rung, set()):
                live_total = (scope & ~split.chi_mask).bit_count()
                live_masks = []
                for child_component, child_connector in split.children:
                    child_scope = core.scope_mask(child_component, 0)
                    live_masks.append(child_scope & ~split.chi_mask)
                    # the child's connector is exactly its boundary in chi
                    assert core.engine.mask_of(child_connector) == (
                        child_scope & split.chi_mask
                    )
                worst = max(
                    (m.bit_count() for m in live_masks), default=0
                )
                assert split.balance == (worst, live_total)
                assert worst * rung.denominator <= (
                    live_total * rung.numerator
                )
                # pairwise disconnected: no primal edge crosses between
                # the live parts of two different components
                for i, mask_a in enumerate(live_masks):
                    for mask_b in live_masks[i + 1:]:
                        assert mask_a & mask_b == 0
                        reach = 0
                        for v in core.engine.mask_to_vertices(mask_a):
                            reach |= bitgraph.neighbors_mask(v)
                        assert reach & mask_b == 0
                # progress: covered an edge or genuinely split
                assert split.covered or len(split.children) >= 2


@settings(max_examples=25, deadline=None)
@given(hypergraphs(max_vertices=7, max_edges=7))
def test_balanced_width_is_certified_and_sound(h):
    result = balanced_ghw(h, BalancedConfig(deterministic=True))
    assert result.certified
    assert not check_ghd(
        result.decomposition, h, claimed_width=result.width
    )
    assert result.width <= result.initial_upper


# ----------------------------------------------------------------------
# Cross-component cache sharing (satellite 1)
# ----------------------------------------------------------------------

class TestComponentCache:
    def test_cross_component_hit_on_identical_edge_sets(self):
        """Two components with identical edge sets (the same subproblem
        reached along two different recursion paths) are solved once:
        the second ``decompose`` is answered from the component layer
        and bumps ``cache.cross_component_hit``."""
        hg = as_hypergraph(get_instance("grid2d_4").build())
        metrics = Metrics()
        core = BalancedCore(hg, BalancedConfig(deterministic=True), metrics)
        (component, _), *_ = core.top_components()
        hits = metrics.counter("cache.cross_component_hit")

        first = core.decompose(component, frozenset(), 2)
        assert first is not None
        hits_before = hits.value  # interior subproblems already share
        states_before = core.states

        second = core.decompose(component, frozenset(), 2)
        assert hits.value == hits_before + 1
        assert second is first  # reused, not re-solved
        assert core.states == states_before  # no new subproblem opened

    def test_negative_results_are_shared_too(self):
        hg = as_hypergraph(get_instance("fano").build())
        metrics = Metrics()
        core = BalancedCore(hg, BalancedConfig(deterministic=True), metrics)
        (component, _), *_ = core.top_components()
        assert core.decompose(component, frozenset(), 2) is None
        hits = metrics.counter("cache.cross_component_hit")
        before = hits.value  # interior subproblems already share
        assert core.decompose(component, frozenset(), 2) is None
        assert hits.value == before + 1

    def test_component_layer_dropped_on_edit(self):
        """Edge indices shift under hypergraph edits; the component
        memo must be invalidated wholesale."""
        hg = as_hypergraph(get_instance("grid2d_4").build())
        core = BalancedCore(hg, BalancedConfig(deterministic=True))
        (component, _), *_ = core.top_components()
        core.decompose(component, frozenset(), 2)
        assert core.cache.component
        core.cache.invalidate_intersecting(
            core.engine.mask_of(hg.vertex_list()[:1])
        )
        assert not core.cache.component


# ----------------------------------------------------------------------
# Trace events
# ----------------------------------------------------------------------

class TestTraceEvents:
    def test_split_and_stitch_events_are_traced(self):
        hg = as_hypergraph(get_instance("grid2d_6").build())
        tracer = MemoryTracer()
        result = balanced_ghw(
            hg, BalancedConfig(deterministic=True), tracer=tracer
        )
        kinds = {record.get("name") for record in tracer.records}
        assert "split" in kinds
        assert "stitch" in kinds
        assert result.stats["parallel.splits"] >= 1
        assert result.stats["parallel.stitches"] >= 1


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

class TestEntryPoints:
    def test_backend_is_registered_but_not_default(self):
        from repro.portfolio.backends import BACKENDS, DEFAULT_BACKENDS

        assert "balanced-ghw" in BACKENDS
        assert BACKENDS["balanced-ghw"].kind == "ghw"
        assert "balanced-ghw" not in DEFAULT_BACKENDS["ghw"]

    def test_backend_report_shape(self):
        from repro.portfolio.backends import BACKENDS, BackendConfig
        from repro.search import BoundHooks

        hg = as_hypergraph(get_instance("fano").build())
        report = BACKENDS["balanced-ghw"].run(
            hg, BackendConfig(deterministic=True), BoundHooks()
        )
        assert report.backend == "balanced-ghw"
        assert report.upper_bound == 3
        assert report.ordering is None  # the witness is a GHD
        assert report.error is None

    def test_backend_publishes_incumbents(self):
        from repro.portfolio.backends import BACKENDS, BackendConfig
        from repro.search import BoundHooks

        hg = as_hypergraph(get_instance("grid2d_6").build())
        published = []
        hooks = BoundHooks(publish_upper=published.append)
        report = BACKENDS["balanced-ghw"].run(
            hg, BackendConfig(deterministic=True), hooks
        )
        assert published  # min-fill start, then every improvement
        assert min(published) == report.upper_bound

    def test_cli_balanced(self, capsys):
        from repro.cli import main

        assert main(["balanced", "fano", "--deterministic"]) == 0
        out = capsys.readouterr().out
        assert "ghw" in out
        assert "certified" in out

    def test_cli_balanced_metrics(self, capsys):
        from repro.cli import main

        code = main([
            "balanced", "grid2d_4", "--deterministic", "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ghw <= 2" in out
        assert "parallel.subproblems: 9" in out
        assert "parallel.splits: 10" in out

    def test_empty_and_trivial_instances(self):
        empty = Hypergraph()
        result = balanced_ghw(empty)
        assert result.width == 0 and result.exact

        single = Hypergraph(vertices=[1, 2])
        single.add_edge({1, 2}, name="e")
        result = balanced_ghw(single, BalancedConfig(deterministic=True))
        assert result.width == 1 and result.exact

    def test_isolated_vertices_rejected(self):
        h = Hypergraph(vertices=[1, 2, 3])
        h.add_edge({1, 2}, name="e")
        with pytest.raises(ValueError, match="isolated"):
            balanced_ghw(h)

    def test_graphs_are_lifted(self):
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        result = balanced_ghw(g, BalancedConfig(deterministic=True))
        assert result.width == 2  # triangle: two binary edges
