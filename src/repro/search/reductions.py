"""Search-space reductions: simplicial and strongly almost simplicial
vertices (thesis §4.4.3, after Bodlaender et al. [8]).

* A **simplicial** vertex (its neighborhood is a clique) can always be
  eliminated first: removing it never increases the treewidth, and its
  bag N[v] is a clique that every tree decomposition must contain anyway.
* An almost simplicial vertex (all but one neighbor form a clique) whose
  degree does not exceed a known treewidth lower bound — a **strongly
  almost simplicial** vertex — can likewise be eliminated first.

For generalized hypertree width the simplicial rule remains sound
(§8.2): N[v] is a primal clique, so some bag of every GHD contains it and
that bag's λ covers it; eliminating v first costs at most ghw and leaves
a hypergraph of no larger ghw.  The strongly-almost-simplicial rule is
applied to ghw searches exactly as the thesis does, guarded by the same
degree test against the ghw-appropriate bound.
"""

from __future__ import annotations

from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.graph import Graph, Vertex

_Kernel = Graph | BitGraph


def find_simplicial(graph: _Kernel) -> Vertex | None:
    """A simplicial vertex of ``graph``, or ``None``.

    Scans vertices by increasing degree — low-degree vertices are cheap
    to check and most likely simplicial.
    """
    degree = {v: graph.degree(v) for v in graph.vertex_list()}
    for vertex in sorted(degree, key=lambda v: (degree[v], repr(v))):
        if graph.is_simplicial(vertex):
            return vertex
    return None


def find_strongly_almost_simplicial(
    graph: _Kernel, lower_bound: int
) -> Vertex | None:
    """An almost simplicial vertex of degree <= ``lower_bound``, or None."""
    degree = {v: graph.degree(v) for v in graph.vertex_list()}
    for vertex in sorted(degree, key=lambda v: (degree[v], repr(v))):
        if degree[vertex] > lower_bound:
            break  # degrees ascending: no later vertex qualifies
        if degree[vertex] >= 1 and graph.almost_simplicial_witness(vertex) is not None:
            return vertex
    return None


def find_reducible(graph: _Kernel, lower_bound: int) -> Vertex | None:
    """The next vertex forced by the reduction rules, or ``None``.

    Order matters for determinism only: simplicial vertices first, then
    strongly almost simplicial ones.
    """
    vertex = find_simplicial(graph)
    if vertex is not None:
        return vertex
    return find_strongly_almost_simplicial(graph, lower_bound)


def reduce_graph(graph: _Kernel, lower_bound: int) -> tuple[list[Vertex], int]:
    """Exhaustively eliminate reducible vertices from ``graph`` in place.

    Returns ``(prefix, width)`` where ``prefix`` is the forced elimination
    prefix and ``width`` the largest elimination degree encountered (a
    lower bound on the width of any ordering extending the prefix, and an
    exact contribution to it).  The caller's ``lower_bound`` is also
    raised to each simplicial degree (a clique of that size exists).
    """
    prefix: list[Vertex] = []
    width = 0
    bound = lower_bound
    while True:
        vertex = find_simplicial(graph)
        if vertex is not None:
            degree = graph.degree(vertex)
            bound = max(bound, degree)  # N[v] is a (degree+1)-clique
        else:
            vertex = find_strongly_almost_simplicial(graph, bound)
            if vertex is None:
                return prefix, width
            degree = graph.degree(vertex)
        width = max(width, degree)
        graph.eliminate(vertex)
        prefix.append(vertex)
        if len(graph) == 0:
            return prefix, width
