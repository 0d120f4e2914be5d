"""Property-based tests (hypothesis) for the core invariants listed in
DESIGN.md."""

import random

from hypothesis import given, settings, strategies as st

from repro.bounds import (
    min_fill_ordering,
    minor_gamma_r,
    minor_min_width,
    treewidth_upper_bound,
)
from repro.decomposition import (
    bucket_elimination,
    elimination_bags,
    ghw_ordering_width,
    ordering_from_decomposition,
    ordering_width,
    transform_leaf_normal_form,
    vertex_elimination,
)
from repro.genetic import CROSSOVER_OPERATORS, MUTATION_OPERATORS
from repro.hypergraph import Graph, Hypergraph
from repro.search import brute_force_treewidth
from repro.setcover import exact_set_cover, greedy_set_cover
from repro.verify import check_td


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def graphs(draw, max_vertices=9):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible))
    ) if possible else []
    g = Graph(vertices=range(n))
    for u, v in edges:
        g.add_edge(u, v)
    return g


@st.composite
def graphs_with_ordering(draw, max_vertices=9):
    g = draw(graphs(max_vertices))
    ordering = draw(st.permutations(g.vertex_list()))
    return g, list(ordering)


@st.composite
def hypergraphs(draw, max_vertices=8, max_edges=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edges = []
    for _ in range(num_edges):
        size = draw(st.integers(min_value=1, max_value=min(4, n)))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        edges.append(members)
    h = Hypergraph(vertices=range(n))
    for i, members in enumerate(edges):
        h.add_edge(members, name=f"e{i}")
    # cover isolated vertices so ghw machinery applies
    for v in sorted(h.isolated_vertices()):
        h.add_edge({v}, name=f"iso{v}")
    return h


# ----------------------------------------------------------------------
# Elimination invariants
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(graphs_with_ordering())
def test_bucket_elimination_is_valid_td(data):
    g, ordering = data
    td = bucket_elimination(g, ordering)
    assert not check_td(td, g)


@settings(max_examples=60, deadline=None)
@given(graphs_with_ordering())
def test_bucket_equals_vertex_elimination(data):
    g, ordering = data
    assert bucket_elimination(g, ordering).bags == \
        vertex_elimination(g, ordering).bags


@settings(max_examples=60, deadline=None)
@given(graphs_with_ordering())
def test_ordering_width_matches_td_width(data):
    g, ordering = data
    td = bucket_elimination(g, ordering)
    assert ordering_width(g, ordering) == max(td.width, 0)


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=8))
def test_lower_bounds_below_upper_bounds(g):
    if g.num_vertices == 0:
        return
    lb = max(minor_min_width(g), minor_gamma_r(g))
    ub = treewidth_upper_bound(g)
    assert lb <= ub


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=7))
def test_lower_bounds_sound_vs_brute_force(g):
    if g.num_vertices == 0:
        return
    tw = brute_force_treewidth(g)
    assert minor_min_width(g) <= tw
    assert minor_gamma_r(g) <= tw
    assert ordering_width(g, min_fill_ordering(g)) >= tw


# ----------------------------------------------------------------------
# Chapter 3 invariants
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(hypergraphs())
def test_leaf_normal_form_dominated(h):
    td = bucket_elimination(h, h.vertex_list())
    lnf = transform_leaf_normal_form(h, td)
    assert not check_td(lnf, h)
    original = list(td.bags.values())
    for bag in lnf.bags.values():
        assert any(bag <= o for o in original)


@settings(max_examples=30, deadline=None)
@given(hypergraphs())
def test_dca_ordering_width_dominated(h):
    td = bucket_elimination(h, h.vertex_list())
    ordering = ordering_from_decomposition(h, td)
    assert ordering_width(h, ordering) <= max(td.width, 0)


# ----------------------------------------------------------------------
# Set cover invariants
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(hypergraphs(), st.randoms(use_true_random=False))
def test_exact_cover_at_most_greedy(h, rnd):
    vertices = h.vertex_list()
    bag = {v for v in vertices if rnd.random() < 0.5}
    greedy = greedy_set_cover(bag, h)
    exact = exact_set_cover(bag, h)
    assert len(exact) <= len(greedy)
    union = frozenset().union(
        frozenset(), *(h.edge(name) for name in exact)
    )
    assert bag <= union


@settings(max_examples=30, deadline=None)
@given(hypergraphs())
def test_ghw_width_at_most_tw_width_bags(h):
    ordering = h.vertex_list()
    ghw_w = ghw_ordering_width(h, ordering, cover_function=exact_set_cover)
    bags = elimination_bags(h, ordering)
    biggest = max(len(b) for b in bags.values())
    assert ghw_w <= biggest  # cover never needs more than one edge/vertex


# ----------------------------------------------------------------------
# Genetic operator invariants
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.permutations(list(range(8))),
    st.permutations(list(range(8))),
    st.integers(min_value=0, max_value=2**31),
)
def test_crossovers_preserve_permutations(p1, p2, seed):
    rng = random.Random(seed)
    for op in CROSSOVER_OPERATORS.values():
        child = op(list(p1), list(p2), rng)
        assert sorted(child) == list(range(8))


@settings(max_examples=60, deadline=None)
@given(
    st.permutations(list(range(8))),
    st.integers(min_value=0, max_value=2**31),
)
def test_mutations_preserve_permutations(p, seed):
    rng = random.Random(seed)
    for op in MUTATION_OPERATORS.values():
        mutant = op(list(p), rng)
        assert sorted(mutant) == list(range(8))


# ----------------------------------------------------------------------
# Graph elimination/restore invariants
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(graphs_with_ordering(max_vertices=8))
def test_eliminate_restore_roundtrip(data):
    g, ordering = data
    reference = g.copy()
    for v in ordering:
        g.eliminate(v)
    assert len(g) == 0
    for _ in ordering:
        g.restore()
    assert g == reference
