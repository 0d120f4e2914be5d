"""Upper-bound ordering heuristics for treewidth (thesis §4.4.2).

Greedy vertex-ordering constructions; the width of the resulting ordering
(via :func:`repro.decomposition.ordering_width`) is an upper bound on the
treewidth.  All heuristics run on a scratch copy of the graph, eliminating
one vertex per step:

* **min-fill** — pick the vertex whose elimination inserts the fewest
  fill edges (QuickBB's initial upper bound).
* **min-degree** — pick a minimum-degree vertex.
* **min-width** — pick a minimum-degree vertex but *remove* instead of
  eliminate (no fill), yielding the degeneracy ordering.

Orderings are first-eliminated-first.  Ties break randomly with an
``rng`` (as in the thesis) or deterministically otherwise.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from ..decomposition.elimination import ordering_width
from ..hypergraph.bitgraph import BitGraph, as_bitgraph
from ..hypergraph.graph import Graph, Vertex
from ..hypergraph.hypergraph import Hypergraph

_Kernel = Graph | BitGraph


def _as_graph(structure: _Kernel | Hypergraph) -> BitGraph:
    """Scratch copy on the bitset kernel (fill-count hot loops)."""
    return as_bitgraph(structure)


def _pick(
    graph: _Kernel,
    score: Callable[[_Kernel, Vertex], int],
    rng: random.Random | None,
) -> Vertex:
    best_score: int | None = None
    best: list[Vertex] = []
    for vertex in graph.vertex_list():
        s = score(graph, vertex)
        if best_score is None or s < best_score:
            best_score = s
            best = [vertex]
        elif s == best_score:
            best.append(vertex)
    if rng is not None and len(best) > 1:
        return best[rng.randrange(len(best))]
    return min(best, key=repr)


def _mask_fill_count(adj: list[int], b: int) -> int:
    """Fill-in count of bit ``b`` over clean adjacency rows."""
    m = adj[b]
    missing = 0
    while m:
        low = m & -m
        m ^= low            # only higher-indexed partners remain
        missing += (m & ~adj[low.bit_length() - 1]).bit_count()
    return missing


def min_fill_ordering(
    structure: _Kernel | Hypergraph, rng: random.Random | None = None
) -> list[Vertex]:
    """The min-fill elimination ordering (thesis §4.4.2).

    Fill-in counts are maintained incrementally: eliminating ``v`` only
    changes the count of vertices whose neighborhood or neighborhood
    adjacency changed — v's neighbors, fill-edge endpoints, and common
    neighbors of fill-edge endpoints.  The whole loop runs on a local
    mask snapshot of the bitset kernel: the ordering needs no undo log,
    so elimination is a plain in-place clique-and-clear on the rows.
    """
    graph = _as_graph(structure)
    _, labels, adj = graph.adjacency_masks()
    # Bit-keyed, in vertex_list order, so rng tie candidates enumerate
    # exactly as the reference vertex-keyed dict would.
    fill = {b: _mask_fill_count(adj, b) for _, b in graph.vertex_bit_items()}
    # The deterministic tie-break, ``repr`` order, as one int per bit.
    # The stable sort keeps equal reprs in ``fill`` order, as ``min``
    # over the candidate list would.
    by_repr = sorted(fill, key=lambda b: repr(labels[b]))
    rank = {b: i for i, b in enumerate(by_repr)}
    ordering: list[Vertex] = []
    while fill:
        best_fill = min(fill.values())
        candidates = [b for b, f in fill.items() if f == best_fill]
        if rng is not None and len(candidates) > 1:
            vb = candidates[rng.randrange(len(candidates))]
        else:
            vb = min(candidates, key=rank.__getitem__)
        ordering.append(labels[vb])
        del fill[vb]
        # Eliminate vb: clique the neighborhood, recording fill pairs.
        nbrs = adj[vb]
        fill_pairs = []
        m = nbrs
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            missing = m & ~adj[u]
            while missing:
                wlow = missing & -missing
                missing ^= wlow
                w = wlow.bit_length() - 1
                adj[u] |= wlow
                adj[w] |= low
                fill_pairs.append((u, w))
        # Remove vb from the rows, then collect the affected set.
        clear = ~(1 << vb)
        m = nbrs
        while m:
            low = m & -m
            m ^= low
            adj[low.bit_length() - 1] &= clear
        adj[vb] = 0
        affected = nbrs
        for u, w in fill_pairs:
            affected |= adj[u] & adj[w]
            affected |= (1 << u) | (1 << w)
        while affected:
            low = affected & -affected
            affected ^= low
            u = low.bit_length() - 1
            if u in fill:
                fill[u] = _mask_fill_count(adj, u)
    return ordering


def min_degree_ordering(
    structure: _Kernel | Hypergraph, rng: random.Random | None = None
) -> list[Vertex]:
    """The min-degree elimination ordering."""
    graph = _as_graph(structure)
    ordering: list[Vertex] = []
    while len(graph) > 0:
        vertex = _pick(graph, lambda g, v: g.degree(v), rng)
        ordering.append(vertex)
        graph.eliminate(vertex)
    return ordering


def min_width_ordering(
    structure: _Kernel | Hypergraph, rng: random.Random | None = None
) -> list[Vertex]:
    """The min-width (degeneracy) ordering: remove, never fill."""
    graph = _as_graph(structure)
    ordering: list[Vertex] = []
    while len(graph) > 0:
        vertex = _pick(graph, lambda g, v: g.degree(v), rng)
        ordering.append(vertex)
        graph.remove_vertex(vertex)
    return ordering


def best_heuristic_ordering(
    structure: _Kernel | Hypergraph,
    rng: random.Random | None = None,
    heuristics: Sequence[Callable] = (
        min_fill_ordering,
        min_degree_ordering,
        min_width_ordering,
    ),
) -> tuple[list[Vertex], int]:
    """Run several ordering heuristics and return ``(ordering, width)`` of
    the best one — the combined initial upper bound used by the searches."""
    best_ordering: list[Vertex] | None = None
    best_width: int | None = None
    for heuristic in heuristics:
        ordering = heuristic(structure, rng)
        width = ordering_width(structure, ordering)
        if best_width is None or width < best_width:
            best_width = width
            best_ordering = ordering
    assert best_ordering is not None and best_width is not None
    return best_ordering, best_width


def treewidth_upper_bound(
    structure: _Kernel | Hypergraph, rng: random.Random | None = None
) -> int:
    """Width of the best heuristic ordering — an upper bound on tw."""
    return best_heuristic_ordering(structure, rng)[1]
