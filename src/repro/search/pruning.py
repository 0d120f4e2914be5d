"""Pruning rules for elimination-ordering searches (thesis §4.4.5).

* **PR 1** (Bachoore & Bodlaender): at a node with partial width ``g``
  and ``n'`` remaining vertices, *any* completion has width at most
  ``max(g, n' - 1)`` — so that value can update the incumbent upper
  bound, and if ``n' - 1 <= g`` the subtree need not be searched at all
  (the node is effectively a goal of width ``g``).

* **PR 2** (swap equivalence): if ``v`` and ``w`` are eliminated
  consecutively and either (a) they are non-adjacent in the current
  graph, or (b) they are adjacent and each has a remaining neighbor that
  is not a neighbor of the other, then swapping them changes neither the
  resulting graph nor the width.  Only one of the two sibling branches
  needs exploring.  Because the equivalence is at the level of the
  produced *bags*, it is sound for generalized hypertree width too
  (§8.3): the swapped orderings produce identical bag sets, hence
  identical cover sizes.
"""

from __future__ import annotations

from ..hypergraph.bitgraph import BitGraph
from ..hypergraph.graph import Graph, Vertex


def pr1_effective_width(partial_width: int, remaining: int) -> int:
    """The PR 1 completion bound ``max(g, n' - 1)``."""
    return max(partial_width, remaining - 1)


def pr1_closes_subtree(partial_width: int, remaining: int) -> bool:
    """True when PR 1 certifies the whole subtree: every completion has
    width exactly ``g`` (``n' - 1 <= g``)."""
    return remaining - 1 <= partial_width


def swap_equivalent(graph: Graph, v: Vertex, w: Vertex) -> bool:
    """PR 2 test on the graph state in which both ``v`` and ``w`` are
    still present: may the consecutive eliminations ``v, w`` and ``w, v``
    be exchanged without affecting width or the resulting graph?

    * Non-adjacent ``v, w``: always exchangeable (their bags are N[v] and
      N[w] either way, and the final graph is identical).
    * Adjacent ``v, w``: exchangeable when v has a neighbor outside
      N[w] and w has a neighbor outside N[v] (then the second bag —
      N(v) ∪ N(w) minus the pair — is at least as large as both first
      bags, making the width order-independent).

    The searches run the mask form, :func:`pr2_allowed_bit`; this set
    form, with :func:`default_precedes`, is its test reference.
    """
    if not graph.has_edge(v, w):
        return True
    nv = graph.neighbors(v)
    nw = graph.neighbors(w)
    v_private = nv - nw - {w}
    w_private = nw - nv - {v}
    return bool(v_private) and bool(w_private)


def default_precedes(a: Vertex, b: Vertex) -> bool:
    """The default total order used to pick the surviving PR 2 branch."""
    return (str(type(a)), repr(a)) < (str(type(b)), repr(b))


def pr2_rank(labels: list) -> list[int]:
    """Per-bit rank of :func:`default_precedes`' total order.

    Bit indices are permanent, so the searches compute this once per run
    and test ``rank[a] < rank[b]`` instead of building the string keys on
    every sibling comparison.
    """
    order = sorted(
        range(len(labels)),
        key=lambda b: (str(type(labels[b])), repr(labels[b])),
    )
    rank = [0] * len(labels)
    for i, b in enumerate(order):
        rank[b] = i
    return rank


def pr2_allowed_bit(graph: BitGraph, vertex: Vertex,
                    rank: list[int]) -> tuple:
    """The PR 2 sibling filter of every elimination-ordering search
    (A*-tw, BB-tw, A*-ghw, BB-ghw, A*-fhw): the tuple of vertices ``w``
    (in ``vertex_list`` order) whose branch survives below ``vertex`` —
    exactly the set the reference expression

    ``tuple(w for w in vertex_list if w != v and
    (not swap_equivalent(g, v, w) or default_precedes(v, w)))``

    produces, with the adjacency/private tests inlined as mask ops."""
    adj = graph.adjacency_rows
    vb = graph.bit(vertex)
    bv = 1 << vb
    nv = adj[vb]
    rv = rank[vb]
    out = []
    append = out.append
    for w, wb in graph.vertex_bit_items():
        if wb == vb:
            continue
        bw = 1 << wb
        if nv & bw:
            nw = adj[wb]
            if not ((nv & ~nw & ~bw) and (nw & ~nv & ~bv)):
                append(w)       # adjacent, no private neighbors: keep
                continue
        if rv < rank[wb]:
            append(w)           # swap-equivalent: first in order survives
    return tuple(out)
