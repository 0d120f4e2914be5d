"""Property-based tests (hypothesis) for the extension modules: nice
tree decompositions, DP applications, hypertree decompositions,
enumeration, MCS and the transposition-table A*."""

import random

from hypothesis import given, settings, strategies as st

from repro.apps import (
    brute_force_dominating_set,
    brute_force_mwis,
    count_colorings,
    max_weight_independent_set,
    min_weight_dominating_set,
)
from repro.bounds import (
    is_chordal,
    is_perfect_elimination_ordering,
    mcs_ordering,
    min_fill_ordering,
)
from repro.csp import (
    CSP,
    Constraint,
    build_join_tree,
    count_solutions,
    enumerate_solutions,
    not_equal_relation,
)
from repro.decomposition import bucket_elimination
from repro.decomposition.nice import NiceTreeDecomposition
from repro.hypergraph import Graph
from repro.search import astar_treewidth, brute_force_treewidth
from repro.verify import check_td


@st.composite
def graphs(draw, max_vertices=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible))
    ) if possible else []
    g = Graph(vertices=range(n))
    for u, v in edges:
        g.add_edge(u, v)
    return g


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_nice_conversion_preserves_width_and_validity(g):
    td = bucket_elimination(g, min_fill_ordering(g))
    nice = NiceTreeDecomposition.from_tree_decomposition(td, g)
    assert nice.violations() == []
    assert nice.width == td.width
    assert not check_td(nice.to_tree_decomposition(), g)


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=7))
def test_mwis_matches_brute_force(g):
    value, solution = max_weight_independent_set(g)
    assert value == brute_force_mwis(g)
    assert all(
        not g.has_edge(u, v) for u in solution for v in solution if u != v
    )


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=7))
def test_dominating_set_matches_brute_force(g):
    value, solution = min_weight_dominating_set(g)
    assert value == brute_force_dominating_set(g)
    for v in g.vertex_list():
        assert v in solution or (g.neighbors(v) & solution)


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=6), st.integers(min_value=1, max_value=3))
def test_coloring_count_nonnegative_and_monotone(g, k):
    few = count_colorings(g, k)
    more = count_colorings(g, k + 1)
    assert 0 <= few <= more  # more colors never reduce the count


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_mcs_perfect_iff_fill_free_triangulation(g):
    ordering = mcs_ordering(g)
    if is_perfect_elimination_ordering(g, ordering):
        assert is_chordal(g)
    # and min-fill on a chordal graph is also fill-free
    if is_chordal(g):
        assert is_perfect_elimination_ordering(g, min_fill_ordering(g))


@settings(max_examples=20, deadline=None)
@given(graphs(max_vertices=7))
def test_memoized_astar_agrees(g):
    plain = astar_treewidth(g)
    memo = astar_treewidth(g, memoize=True)
    assert plain.width == memo.width == brute_force_treewidth(g)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=3),
)
def test_chain_enumeration_complete(n, k):
    domain = tuple(range(k))
    constraints = [
        Constraint(f"c{i}", not_equal_relation(f"v{i}", f"v{i+1}", domain))
        for i in range(n - 1)
    ]
    csp = CSP(
        domains={f"v{i}": domain for i in range(n)},
        constraints=constraints,
    )
    tree = build_join_tree(csp)
    assert tree is not None
    enumerated = list(enumerate_solutions(tree))
    assert len(enumerated) == count_solutions(tree)
    assert len(enumerated) == k * (k - 1) ** (n - 1)
    for solution in enumerated:
        assert csp.is_solution(solution)
