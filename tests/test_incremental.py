"""The incremental re-solve API.

``EditTicket`` / ``apply_edit`` keep a live :class:`BitCoverEngine`
equivalent to a fresh build on the edited hypergraph, invalidation
drops only the cache entries an edit touches, and
``IncrementalSolver.resolve_incremental`` produces certified widths
equal to solving the edited instance from scratch.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.decomposition import ghw_ordering_width
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import random_hypergraph
from repro.portfolio import IncrementalSolver, run_portfolio
from repro.setcover.bitcover import BitCoverEngine
from repro.telemetry import Metrics


@st.composite
def hypergraphs(draw, max_vertices=8, max_edges=8):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
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
# Edit tickets and targeted cache invalidation
# ----------------------------------------------------------------------


def test_edit_tickets_are_str_compatible_and_bump_revision():
    h = Hypergraph(vertices=range(4))
    rev0 = h.revision
    ticket = h.add_edge({0, 1}, name="ab")
    assert ticket == "ab"  # str-compatible: old call sites keep working
    assert ticket.kind == "add"
    assert ticket.members == frozenset({0, 1})
    assert h.revision > rev0
    removed = h.remove_edge("ab")
    assert removed.kind == "remove"
    assert removed.members == frozenset({0, 1})
    assert h.revision > ticket.revision


@settings(max_examples=40, deadline=None)
@given(hypergraphs(max_vertices=7, max_edges=6), st.integers(0, 2**16))
def test_apply_edit_matches_fresh_engine(h, seed):
    rng = random.Random(seed)
    live = BitCoverEngine(h)
    # Warm the caches on a few random bags before editing.
    vertices = h.vertex_list()
    for _ in range(5):
        bag = rng.sample(vertices, rng.randint(1, len(vertices)))
        live.greedy_size(live.mask_of(bag))

    names = list(h.edges)
    name = rng.choice(names)
    members = h.edges[name]
    live.apply_edit(h.remove_edge(name))
    if h.isolated_vertices():
        # Removing this edge isolated a vertex: put it back, so the
        # sequence exercises both edit directions.
        live.apply_edit(h.add_edge(members, name=name))
    fresh = BitCoverEngine(h)

    assert live.edge_names == fresh.edge_names
    assert live.edge_order == fresh.edge_order
    for _ in range(8):
        bag = rng.sample(vertices, rng.randint(1, len(vertices)))
        mask = live.mask_of(bag)
        assert live.greedy_cover(mask) == fresh.greedy_cover(mask)
        assert live.greedy_size(mask) == fresh.greedy_size(mask)
        assert live.exact_size(mask) == fresh.exact_size(mask)


def test_invalidation_is_targeted_and_counted():
    h = Hypergraph(vertices=range(6))
    h.add_edge({0, 1}, name="a")
    h.add_edge({2, 3}, name="b")
    h.add_edge({4, 5}, name="c")
    metrics = Metrics()
    engine = BitCoverEngine(h, metrics)
    left = engine.mask_of([0, 1])
    right = engine.mask_of([4, 5])
    engine.greedy_size(left)
    engine.greedy_size(right)
    ticket = h.add_edge({0, 2}, name="d")
    dropped = engine.apply_edit(ticket)
    counters = metrics.snapshot()["counters"]
    assert counters["cache.invalidate.calls"] == 1
    assert dropped >= 1
    # The untouched bag's entry survived: a hit, not a recompute.
    before = counters.get("cover.greedy.computed", 0)
    engine.greedy_cover(right)
    assert metrics.snapshot()["counters"].get(
        "cover.greedy.computed", 0
    ) == before


# ----------------------------------------------------------------------
# Incremental re-solve equivalence
# ----------------------------------------------------------------------


def _removable_edge(h, rng):
    """An edge whose removal leaves no isolated vertex (or None)."""
    names = list(h.edges)
    rng.shuffle(names)
    for name in names:
        if all(len(h.edges_containing(v)) > 1 for v in h.edges[name]):
            return name
    return None


def test_resolve_incremental_matches_scratch_solve():
    h = random_hypergraph(10, 14, seed=21, min_arity=2, max_arity=3)
    for v in sorted(h.isolated_vertices()):
        h.add_edge({v}, name=f"iso{v}")
    rng = random.Random(21)
    solver = IncrementalSolver(h, seed=4, exact_limit=16)
    base = solver.solve(jobs=1, deterministic=True, max_nodes=20000,
                        backends=["bb-ghw", "astar-ghw"])
    assert base.certificate.ok

    for _ in range(3):
        name = _removable_edge(h, rng)
        if name is None:
            break
        members = h.edges[name]
        solver.remove_edge(name)
        warm = solver.resolve_incremental()
        assert warm.warm and warm.certificate.ok
        assert warm.revision == h.revision

        scratch = IncrementalSolver(h.copy(), seed=4, exact_limit=16)
        cold = scratch.solve(jobs=1, deterministic=True, max_nodes=20000,
                             backends=["bb-ghw", "astar-ghw"])
        if warm.exact and cold.exact:
            assert warm.width == cold.width
        else:  # budget-limited: both are certified upper bounds
            assert warm.width >= cold.lower_bound
        solver.add_edge(members, name=name)
        solver.resolve_incremental()


def test_resolve_incremental_rejects_isolated_vertices():
    h = Hypergraph(vertices=range(3))
    h.add_edge({0, 1}, name="a")
    h.add_edge({1, 2}, name="b")
    solver = IncrementalSolver(h, seed=0, exact_limit=8)
    solver.solve(jobs=1, deterministic=True, max_nodes=2000,
                 backends=["bb-ghw"])
    solver.remove_edge("b")  # isolates vertex 2
    with pytest.raises(Exception, match="isolated"):
        solver.resolve_incremental()


def test_incremental_solver_tracks_ordering_repair():
    h = Hypergraph(vertices=range(4))
    h.add_edge({0, 1}, name="a")
    h.add_edge({1, 2}, name="b")
    h.add_edge({2, 3}, name="c")
    solver = IncrementalSolver(h, seed=0, exact_limit=8)
    solver.solve(jobs=1, deterministic=True, max_nodes=2000,
                 backends=["bb-ghw"])
    solver.add_edge({0, 3, 4}, name="d")  # introduces a new vertex
    warm = solver.resolve_incremental()
    assert set(warm.ordering) == set(h.vertex_list())
    assert warm.certificate.ok
    assert 4 in warm.ordering  # the repaired ordering picked up vertex 4


# ----------------------------------------------------------------------
# Portfolio warm-start plumbing
# ----------------------------------------------------------------------


def test_portfolio_accepts_warm_start_bounds():
    h = random_hypergraph(8, 10, seed=3)
    cold = run_portfolio(
        h, backends=["astar-ghw", "bb-ghw"], jobs=1,
        deterministic=True, max_nodes=5000, metric="ghw",
    )
    warm = run_portfolio(
        h, backends=["astar-ghw", "bb-ghw"], jobs=1,
        deterministic=True, max_nodes=5000, metric="ghw",
        initial_upper=cold.upper_bound,
        initial_lower=1,
    )
    assert warm.upper_bound <= cold.upper_bound
    assert warm.lower_bound >= 1
    width = ghw_ordering_width(h, list(warm.ordering))
    assert warm.lower_bound <= width <= warm.upper_bound
