"""Property-based equivalence suite for the bitset kernel.

:class:`repro.hypergraph.bitgraph.BitGraph` must be observationally
equivalent to the reference :class:`repro.hypergraph.graph.Graph` — not
just "same answers" but the same *orders*: ``vertex_list`` mirrors the
dict insertion order, restore re-appends at the end, and tie-breaks in
every consumer (searches, orderings, bounds) resolve identically.  These
tests drive both kernels through random operation sequences and through
the production consumers, comparing exhaustively.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.bounds import min_fill_ordering, minor_min_width
from repro.hypergraph import Graph, Hypergraph
from repro.hypergraph.bitgraph import BitGraph, as_bitgraph
from repro.search import brute_force_treewidth
from repro.search.astar_tw import (
    _child_lower_bound,
    _KernelCaches,
    astar_treewidth,
)
from repro.search.bb_tw import branch_and_bound_treewidth
from repro.search.pruning import (
    default_precedes,
    pr2_allowed_bit,
    pr2_rank,
    swap_equivalent,
)
from repro.search.reductions import find_reducible
from repro.setcover import greedy_set_cover

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
def op_sequences(draw, max_vertices=7, max_ops=14):
    """A start graph plus a random op script exercising the mutable API.

    Structural ops (remove_vertex / remove_edge / contract_edge) are only
    drawn while the undo stack is empty — both kernels forbid them with
    pending eliminations — and op arguments are drawn as indices into the
    *current* vertex list so the script stays valid as the graph shrinks.
    """
    g = draw(graphs(max_vertices))
    ops = []
    depth = 0  # eliminations not yet restored
    present = len(g)
    for _ in range(draw(st.integers(min_value=0, max_value=max_ops))):
        choices = ["add_edge"]
        if present > 0:
            choices += ["eliminate", "eliminate"]
        if depth > 0:
            choices += ["restore", "restore"]
        if depth == 0 and present > 0:
            choices += ["remove_vertex", "remove_edge", "contract_edge"]
        op = draw(st.sampled_from(choices))
        if op == "add_edge":
            if present < 2:
                continue
            i = draw(st.integers(min_value=0, max_value=present - 1))
            j = draw(st.integers(min_value=0, max_value=present - 1))
            if i == j:
                continue
            ops.append(("add_edge", i, j))
        elif op == "eliminate":
            ops.append(("eliminate", draw(st.integers(0, present - 1))))
            depth += 1
            present -= 1
        elif op == "restore":
            ops.append(("restore",))
            depth -= 1
            present += 1
        elif op == "remove_vertex":
            ops.append(("remove_vertex", draw(st.integers(0, present - 1))))
            present -= 1
        elif op == "remove_edge":
            i = draw(st.integers(min_value=0, max_value=present - 1))
            j = draw(st.integers(min_value=0, max_value=present - 1))
            if i == j:
                continue
            ops.append(("remove_edge", i, j))
        elif op == "contract_edge":
            if present < 2:
                continue
            i = draw(st.integers(min_value=0, max_value=present - 1))
            j = draw(st.integers(min_value=0, max_value=present - 1))
            if i == j:
                continue
            ops.append(("contract_edge", i, j))
            present -= 1
    return g, ops


def assert_same_observations(ref: Graph, bit: BitGraph) -> None:
    """Every read-only observation must agree, including orders."""
    assert bit.vertex_list() == ref.vertex_list()
    assert bit.num_edges == ref.num_edges
    assert len(bit) == len(ref)
    assert sorted(map(repr, bit.edges())) == sorted(map(repr, ref.edges()))
    for v in ref.vertex_list():
        assert v in bit
        assert bit.neighbors(v) == ref.neighbors(v)
        assert bit.degree(v) == ref.degree(v)
        assert bit.fill_in_count(v) == ref.fill_in_count(v)
        assert bit.is_simplicial(v) == ref.is_simplicial(v)
        # Any neighbor whose exclusion leaves a clique is a valid witness,
        # and the kernels may pick different ones — the searches only
        # branch on existence, so compare None-ness and validity.
        w_ref = ref.almost_simplicial_witness(v)
        w_bit = bit.almost_simplicial_witness(v)
        assert (w_bit is None) == (w_ref is None)
        if w_bit is not None:
            assert w_bit in ref.neighbors(v)
            assert ref.is_clique(ref.neighbors(v) - {w_bit})
    assert (
        sorted(map(sorted, bit.connected_components()))
        == sorted(map(sorted, ref.connected_components()))
    )
    assert bit.to_graph() == ref


# ----------------------------------------------------------------------
# Kernel equivalence under random op sequences
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(op_sequences())
def test_bitgraph_tracks_graph_through_op_sequences(case):
    ref, ops = case
    bit = as_bitgraph(ref)
    assert_same_observations(ref, bit)
    for op in ops:
        vl = ref.vertex_list()
        if op[0] == "add_edge":
            u, v = vl[op[1]], vl[op[2]]
            ref.add_edge(u, v)
            bit.add_edge(u, v)
        elif op[0] == "eliminate":
            v = vl[op[1]]
            r_ref = ref.eliminate(v)
            r_bit = bit.eliminate(v)
            assert r_bit.vertex == r_ref.vertex
            assert r_bit.neighbors == r_ref.neighbors
            assert (
                sorted(map(sorted, r_bit.fill_edges))
                == sorted(map(sorted, r_ref.fill_edges))
            )
        elif op[0] == "restore":
            r_ref = ref.restore()
            r_bit = bit.restore()
            assert r_bit.vertex == r_ref.vertex
        elif op[0] == "remove_vertex":
            v = vl[op[1]]
            ref.remove_vertex(v)
            bit.remove_vertex(v)
        elif op[0] == "remove_edge":
            u, v = vl[op[1]], vl[op[2]]
            if not ref.has_edge(u, v):
                continue  # both kernels raise on non-edges
            ref.remove_edge(u, v)
            bit.remove_edge(u, v)
        elif op[0] == "contract_edge":
            u, v = vl[op[1]], vl[op[2]]
            if not ref.has_edge(u, v):
                continue  # both kernels raise on non-edges
            ref.contract_edge(u, v)
            bit.contract_edge(u, v)
        assert_same_observations(ref, bit)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=8))
def test_copy_is_independent(ref):
    bit = as_bitgraph(ref)
    clone = bit.copy()
    for v in list(bit.vertex_list()):
        bit.eliminate(v)
    assert len(bit) == 0
    assert_same_observations(ref, clone)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=8))
def test_swap_equivalent_matches_reference(ref):
    bit = as_bitgraph(ref)
    vl = ref.vertex_list()
    for v in vl:
        for w in vl:
            if v != w:
                assert swap_equivalent(bit, v, w) == swap_equivalent(ref, v, w)


# ----------------------------------------------------------------------
# Production consumers: same results on either kernel
# ----------------------------------------------------------------------


def _minfill_set_reference(graph, rng=None):
    """Pre-kernel incremental min-fill over the Graph set API."""
    fill = {v: graph.fill_in_count(v) for v in graph.vertex_list()}
    ordering = []
    while len(graph) > 0:
        best_fill = min(fill.values())
        candidates = [v for v, f in fill.items() if f == best_fill]
        if rng is not None and len(candidates) > 1:
            vertex = candidates[rng.randrange(len(candidates))]
        else:
            vertex = min(candidates, key=repr)
        ordering.append(vertex)
        affected = graph.neighbors(vertex)
        record = graph.eliminate(vertex)
        for a, b in record.fill_edges:
            affected.add(a)
            affected.add(b)
            affected |= graph.neighbors(a) & graph.neighbors(b)
        del fill[vertex]
        for u in affected:
            if u in fill:
                fill[u] = graph.fill_in_count(u)
    return ordering


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=9), st.integers(min_value=0, max_value=2**20))
def test_min_fill_matches_set_reference(ref, seed):
    assert min_fill_ordering(ref) == _minfill_set_reference(ref.copy())
    assert min_fill_ordering(ref, random.Random(seed)) == _minfill_set_reference(
        ref.copy(), random.Random(seed)
    )


def _mmw_reference(graph):
    """Reference minor-min-width over the Graph set API (Fig. 4.7)."""
    g = graph.copy()
    bound = 0
    while len(g) > 0:
        degree = {v: g.degree(v) for v in g.vertex_list()}
        best_d = min(degree.values())
        vertex = min(
            (v for v in degree if degree[v] == best_d), key=repr
        )
        bound = max(bound, best_d)
        nbrs = g.neighbors(vertex)
        if not nbrs:
            g.remove_vertex(vertex)
            continue
        least = min(degree[u] for u in nbrs)
        neighbor = min((u for u in nbrs if degree[u] == least), key=repr)
        g.contract_edge(neighbor, vertex)
    return bound


@settings(max_examples=80, deadline=None)
@given(graphs(max_vertices=9))
def test_minor_min_width_matches_reference(ref):
    assert minor_min_width(ref) == _mmw_reference(ref)


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=8), st.booleans())
def test_astar_width_matches_brute_force(ref, memoize):
    assert astar_treewidth(ref, memoize=memoize).width == \
        brute_force_treewidth(ref)


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=8))
def test_bb_width_matches_brute_force(ref):
    assert branch_and_bound_treewidth(ref).width == brute_force_treewidth(ref)


# ----------------------------------------------------------------------
# Search components against their set-form references
# ----------------------------------------------------------------------


@st.composite
def chorded_cycles(draw, max_vertices=9):
    """A Hamiltonian cycle plus random chords: no vertex of degree < 2,
    so the reduction scans get past the simplicial check to the
    strongly-almost-simplicial one."""
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    g = Graph(vertices=range(n))
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    chords = [(i, j) for i in range(n) for j in range(i + 2, n)
              if (i, j) != (0, n - 1)]
    for u, v in draw(st.lists(st.sampled_from(chords), max_size=n)):
        g.add_edge(u, v)
    return g


@st.composite
def residual_states(draw, max_vertices=9):
    """A random graph plus a random prefix of eliminations: the residual
    states the searches actually branch on (fill edges included)."""
    ref = draw(st.one_of(graphs(max_vertices), chorded_cycles(max_vertices)))
    vertices = ref.vertex_list()
    prefix = draw(st.permutations(vertices))[
        :draw(st.integers(min_value=0, max_value=len(vertices) - 1))
    ]
    return ref, prefix


@settings(max_examples=80, deadline=None)
@given(residual_states())
def test_pr2_allowed_bit_matches_reference(state):
    ref, prefix = state
    bit = as_bitgraph(ref)
    rank = pr2_rank(bit.adjacency_masks()[1])
    for v in prefix:
        ref.eliminate(v)
        bit.eliminate(v)
    for v in ref.vertex_list():
        expected = tuple(
            w
            for w in ref.vertex_list()
            if w != v
            and (not swap_equivalent(ref, v, w) or default_precedes(v, w))
        )
        assert pr2_allowed_bit(bit, v, rank) == expected


@settings(max_examples=80, deadline=None)
@given(
    residual_states(),
    st.randoms(use_true_random=False),
    st.sampled_from(["mmw", "both"]),
    st.lists(st.integers(min_value=0, max_value=9), max_size=6),
)
def test_kernel_caches_match_uncached_reference(state, rng, lower, bounds):
    """The mask-keyed caches answer like the uncached scans when the
    residual state is reached again by another elimination order and the
    reduction bounds arrive out of order: ascending on the first visit
    (negative entries grow one bound at a time), then descending and in
    a drawn order on the second (positive entries answer lower bounds)."""
    ref, prefix = state
    h_fn = _child_lower_bound(lower)
    bit = as_bitgraph(ref)
    caches = _KernelCaches(h_fn, bit)
    for v in prefix:
        ref.eliminate(v)
    shuffled = list(prefix)
    rng.shuffle(shuffled)
    sweeps = (list(range(10)), list(range(9, -1, -1)) + bounds)
    for order, sweep in zip((prefix, shuffled), sweeps):
        for v in order:
            bit.eliminate(v)
        assert bit.present_mask == bit.mask_of(ref.vertex_list())
        assert caches.h(bit) == h_fn(ref)
        for bound in sweep:
            assert caches.reducible(bit, bound) == find_reducible(ref, bound)
        for _ in order:
            bit.restore()


# ----------------------------------------------------------------------
# Hypergraph incidence index / greedy cover fast path
# ----------------------------------------------------------------------


@st.composite
def hypergraphs(draw, max_vertices=8, max_edges=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    h = Hypergraph()
    for e in range(num_edges):
        size = draw(st.integers(min_value=1, max_value=min(4, n)))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        h.add_edge(members, f"e{e}")
    return h


@settings(max_examples=60, deadline=None)
@given(hypergraphs(), st.data())
def test_greedy_cover_bitmask_path_is_valid_and_deterministic(h, data):
    vertices = sorted(h.vertices)
    bag = data.draw(
        st.lists(st.sampled_from(vertices), max_size=len(vertices), unique=True)
    )
    cover = greedy_set_cover(bag, h)
    covered = set()
    for name in cover:
        covered |= h.edge(name)
    assert set(bag) <= covered
    assert len(set(cover)) == len(cover)
    # Deterministic: same call, same answer.
    assert greedy_set_cover(bag, h) == cover
