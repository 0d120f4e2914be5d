"""Lower bounds for generalized hypertree width (thesis §8.1, Fig. 8.1).

Algorithm *tw-ksc-width* combines a treewidth lower bound with a
k-set-cover lower bound:

1. every tree decomposition of H — hence every GHD of H — has a bag of at
   least ``tw_lb + 1`` vertices, where ``tw_lb`` is any treewidth lower
   bound of the primal graph;
2. covering a bag of ``b`` vertices with hyperedges of at most
   ``rank(H)`` vertices requires at least ``ceil(b / rank(H))`` of them.

Consequently ``ghw(H) >= ceil((tw_lb + 1) / rank(H))``.  The module also
exposes a per-neighborhood refinement: for each vertex v the closed
neighborhood N[v] appears inside a single bag of *some* optimal
decomposition only in the eliminated-vertex sense, so instead we bound
via hyperedge-counting on cliques of the primal graph, which must be
fully contained in one bag of every tree decomposition.
"""

from __future__ import annotations

import random

from ..hypergraph.hypergraph import Hypergraph
from ..setcover.ksc import cover_lower_bound, ksc_lower_bound
from .lower import treewidth_lower_bound


def tw_ksc_width(
    hypergraph: Hypergraph, rng: random.Random | None = None
) -> int:
    """Algorithm *tw-ksc-width* (Fig. 8.1): the basic combined bound
    ``ceil((tw_lb + 1) / rank)``.

    Every hypergraph with at least one edge has ghw >= 1.
    """
    if hypergraph.num_edges == 0:
        return 0
    rank = hypergraph.rank()
    tw_lb = treewidth_lower_bound(hypergraph, rng)
    return max(1, ksc_lower_bound(tw_lb + 1, rank))


def clique_cover_lower_bound(hypergraph: Hypergraph) -> int:
    """Refinement: every hyperedge *is* a clique of the primal graph and
    sits inside a bag of every TD; bags around large primal cliques must
    be covered.  For each hyperedge h, the bag containing h needs at
    least ``cover_lower_bound(h)`` λ-edges — but that is trivially 1.

    The useful refinement instead looks at unions of overlapping
    hyperedges that form primal cliques: if ``h1 ∪ h2`` induces a clique
    in the primal graph, some bag contains it entirely and its cover size
    lower-bounds ghw.  We scan hyperedge pairs (bounded work) and keep
    the best bound.
    """
    if hypergraph.num_edges == 0:
        return 0
    primal = hypergraph.primal_graph()
    edges = list(hypergraph.edges.values())
    best = 1
    limit = 2000  # pair-scan budget; instances here have <= ~700 edges
    scanned = 0
    for i, a in enumerate(edges):
        for b in edges[i + 1:]:
            scanned += 1
            if scanned > limit:
                return best
            if not (a & b):
                continue
            union = a | b
            if len(union) <= max(len(a), len(b)):
                continue
            if primal.is_clique(union):
                bound = cover_lower_bound(union, hypergraph)
                if bound > best:
                    best = bound
    return best


def ghw_lower_bound(
    hypergraph: Hypergraph, rng: random.Random | None = None
) -> int:
    """The combined ghw lower bound used by BB-ghw and A*-ghw: the best
    of tw-ksc-width and the clique-cover refinement."""
    if hypergraph.num_edges == 0:
        return 0
    return max(
        tw_ksc_width(hypergraph, rng),
        clique_cover_lower_bound(hypergraph),
    )

