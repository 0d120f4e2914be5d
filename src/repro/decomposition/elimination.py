"""Elimination orderings: bucket elimination, vertex elimination and the
fast ordering evaluators that power every heuristic in this package.

Ordering convention
-------------------

Throughout this library an *elimination ordering* is a sequence whose
**first element is eliminated first**.  The thesis writes orderings
σ = (v_1, ..., v_n) and eliminates v_n first; our ``ordering`` therefore
corresponds to ``reversed(σ)``.  The convention is purely notational — the
produced decompositions and widths are identical.

Contents
--------

* :func:`bucket_elimination` — Algorithm *Bucket Elimination* (Fig. 2.10),
  producing a tree decomposition from a hypergraph and an ordering.
* :func:`vertex_elimination` — Algorithm *Vertex Elimination* (Fig. 2.12),
  the primal-graph formulation; produces identical bags.
* :func:`elimination_bags` / :func:`ordering_width` — the O(|V| + |E'|)
  indirect evaluation of Fig. 6.2 (the GA-tw fitness function).
* :func:`ghw_ordering_width` / :func:`ghd_from_ordering` — the GHD-width
  evaluation of Fig. 7.1: bags covered by hyperedges via a set-cover
  routine (greedy by default, exact optionally), per §2.5.2.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..hypergraph.graph import Graph, Vertex
from ..hypergraph.hypergraph import Hypergraph
from ..setcover.greedy import greedy_set_cover
from .ghd import GeneralizedHypertreeDecomposition
from .tree_decomposition import TreeDecomposition

CoverFunction = Callable[[frozenset, Hypergraph], list]


class OrderingError(Exception):
    """Raised when an ordering is not a permutation of the vertices."""


def check_ordering(structure: Graph | Hypergraph, ordering: Sequence[Vertex]) -> None:
    """Raise :class:`OrderingError` unless ``ordering`` is a permutation of
    the structure's vertex set."""
    vertices = set(structure.vertex_list())
    seen = set(ordering)
    if len(ordering) != len(seen):
        raise OrderingError("ordering contains duplicate vertices")
    if seen != vertices:
        missing = vertices - seen
        extra = seen - vertices
        raise OrderingError(
            f"ordering is not a permutation (missing={sorted(map(repr, missing))},"
            f" extra={sorted(map(repr, extra))})"
        )


# ----------------------------------------------------------------------
# Bag computation (Definition 16: cliques(σ, H))
# ----------------------------------------------------------------------


def elimination_bags(
    structure: Graph | Hypergraph, ordering: Sequence[Vertex]
) -> dict[Vertex, frozenset]:
    """The bag produced for every vertex by eliminating along ``ordering``.

    Bags include the eliminated vertex itself: the bag of ``v`` is
    ``clique(v, σ, H)`` in Definition 16.  Uses the indirect fill
    propagation of Fig. 6.2, which never materializes fill edges
    explicitly and runs in O(|V| + |E'|).
    """
    check_ordering(structure, ordering)
    adjacency = _initial_adjacency(structure)
    position = {v: i for i, v in enumerate(ordering)}
    bags: dict[Vertex, frozenset] = {}
    for i, vertex in enumerate(ordering):
        later = {x for x in adjacency[vertex] if position[x] > i}
        bags[vertex] = frozenset(later | {vertex})
        if later:
            successor = min(later, key=position.__getitem__)
            adjacency[successor] |= later - {successor}
            adjacency[successor].discard(successor)
    return bags


def ordering_width(structure: Graph | Hypergraph, ordering: Sequence[Vertex]) -> int:
    """Treewidth-sense width of ``ordering``: ``max |bag| - 1``.

    This is the fitness function of GA-tw (Fig. 6.2).  Early-exits once the
    width cannot grow any further (bags over the remaining ``r`` vertices
    have at most ``r`` members).
    """
    check_ordering(structure, ordering)
    adjacency = _initial_adjacency(structure)
    position = {v: i for i, v in enumerate(ordering)}
    n = len(ordering)
    width = 0
    for i, vertex in enumerate(ordering):
        if width >= n - i - 1:
            break  # no later bag can exceed the current width
        later = {x for x in adjacency[vertex] if position[x] > i}
        if len(later) > width:
            width = len(later)
        if later:
            successor = min(later, key=position.__getitem__)
            adjacency[successor] |= later - {successor}
            adjacency[successor].discard(successor)
    return width


def _initial_adjacency(structure: Graph | Hypergraph) -> dict[Vertex, set]:
    """Primal adjacency sets, copied so evaluation can mutate them."""
    if isinstance(structure, Hypergraph):
        adjacency: dict[Vertex, set] = {v: set() for v in structure.vertex_list()}
        for edge in structure.edges.values():
            members = list(edge)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        return adjacency
    return {v: structure.neighbors(v) for v in structure.vertex_list()}


class OrderingEvaluator:
    """Amortized ordering evaluation for GA fitness loops.

    Building the primal adjacency from a hypergraph costs O(Σ|e|²);
    genetic algorithms evaluate thousands of orderings of the *same*
    structure, so this class interns the base adjacency once — as
    bitmasks on the :class:`~repro.hypergraph.bitgraph.BitGraph` kernel —
    and runs the Fig. 6.2 indirect fill propagation with word-parallel
    mask operations per evaluation (the single hottest loop of GA-tw /
    GA-ghw; property-tested against :func:`ordering_width` /
    :func:`elimination_bags`, which remain the set-based reference).
    """

    def __init__(self, structure: "Graph | Hypergraph"):
        from ..hypergraph.bitgraph import as_bitgraph

        self._index, self._labels, self._adj = (
            as_bitgraph(structure).adjacency_masks()
        )
        self._vertices = frozenset(self._labels)

    def _check(self, ordering: Sequence[Vertex]) -> None:
        if len(ordering) != len(self._vertices) or set(ordering) != self._vertices:
            raise OrderingError("ordering is not a permutation of the vertices")

    def _order_bits(self, ordering: Sequence[Vertex]) -> list[int]:
        index = self._index
        return [index[v] for v in ordering]

    @staticmethod
    def _min_position_bit(mask: int, position: list[int]) -> int:
        """The set bit of ``mask`` whose vertex is eliminated earliest."""
        best_bit = -1
        best_pos: int | None = None
        while mask:
            low = mask & -mask
            mask ^= low
            b = low.bit_length() - 1
            p = position[b]
            if best_pos is None or p < best_pos:
                best_pos = p
                best_bit = b
        return best_bit

    def width(self, ordering: Sequence[Vertex]) -> int:
        """Treewidth-sense ordering width (as :func:`ordering_width`)."""
        self._check(ordering)
        adjacency = list(self._adj)
        order_bits = self._order_bits(ordering)
        position = [0] * len(adjacency)
        for i, b in enumerate(order_bits):
            position[b] = i
        n = len(ordering)
        remaining = (1 << len(adjacency)) - 1
        width = 0
        for i, b in enumerate(order_bits):
            remaining ^= 1 << b
            if width >= n - i - 1:
                break
            later = adjacency[b] & remaining
            size = later.bit_count()
            if size > width:
                width = size
            if later:
                successor = self._min_position_bit(later, position)
                adjacency[successor] = (
                    (adjacency[successor] | later) & ~(1 << successor)
                )
        return width

    def bags(self, ordering: Sequence[Vertex]) -> dict[Vertex, frozenset]:
        """Elimination bags (as :func:`elimination_bags`)."""
        self._check(ordering)
        adjacency = list(self._adj)
        labels = self._labels
        order_bits = self._order_bits(ordering)
        position = [0] * len(adjacency)
        for i, b in enumerate(order_bits):
            position[b] = i
        remaining = (1 << len(adjacency)) - 1
        out: dict[Vertex, frozenset] = {}
        for vertex, b in zip(ordering, order_bits):
            remaining ^= 1 << b
            later = adjacency[b] & remaining
            bag = {vertex}
            m = later
            while m:
                low = m & -m
                m ^= low
                bag.add(labels[low.bit_length() - 1])
            out[vertex] = frozenset(bag)
            if later:
                successor = self._min_position_bit(later, position)
                adjacency[successor] = (
                    (adjacency[successor] | later) & ~(1 << successor)
                )
        return out


# ----------------------------------------------------------------------
# Bucket elimination (Fig. 2.10)
# ----------------------------------------------------------------------


def bucket_elimination(
    structure: Graph | Hypergraph, ordering: Sequence[Vertex]
) -> TreeDecomposition:
    """Algorithm *Bucket Elimination*: build a tree decomposition from an
    elimination ordering.

    Nodes of the result are the eliminated vertices (one bucket each); the
    bag of bucket ``v`` is ``clique(v, σ, H)``.  The bucket of the last
    vertex of each connected component has no successor, so the returned
    tree may be a forest for disconnected inputs — in that case buckets
    are chained to keep the result a tree (bags are unaffected).
    """
    bags = elimination_bags(structure, ordering)
    position = {v: i for i, v in enumerate(ordering)}
    td = TreeDecomposition()
    for vertex in ordering:
        td.add_node(vertex, bags[vertex])
    roots: list[Vertex] = []
    for vertex in ordering:
        later = [x for x in bags[vertex] if x != vertex]
        if later:
            successor = min(later, key=position.__getitem__)
            td.add_tree_edge(vertex, successor)
        else:
            roots.append(vertex)
    # Components leave one root each; chain them so the result is a tree.
    for a, b in zip(roots, roots[1:]):
        td.add_tree_edge(a, b)
    return td


# ----------------------------------------------------------------------
# Vertex elimination (Fig. 2.12)
# ----------------------------------------------------------------------


def vertex_elimination(
    structure: Graph | Hypergraph, ordering: Sequence[Vertex]
) -> TreeDecomposition:
    """Algorithm *Vertex Elimination*: same output as bucket elimination,
    computed by explicitly eliminating vertices from the primal graph.

    Kept as the executable specification; :func:`bucket_elimination` is the
    faster equivalent (property-tested to agree).
    """
    check_ordering(structure, ordering)
    graph = (
        structure.primal_graph()
        if isinstance(structure, Hypergraph)
        else structure.copy()
    )
    position = {v: i for i, v in enumerate(ordering)}
    td = TreeDecomposition()
    successors: list[tuple[Vertex, Vertex]] = []
    roots: list[Vertex] = []
    for vertex in ordering:
        record = graph.eliminate(vertex)
        bag = set(record.neighbors) | {vertex}
        td.add_node(vertex, bag)
        if record.neighbors:
            successor = min(record.neighbors, key=position.__getitem__)
            successors.append((vertex, successor))
        else:
            roots.append(vertex)
    for a, b in successors:
        td.add_tree_edge(a, b)
    for a, b in zip(roots, roots[1:]):
        td.add_tree_edge(a, b)
    return td


# ----------------------------------------------------------------------
# GHD width along an ordering (Fig. 7.1 / §2.5.2)
# ----------------------------------------------------------------------


def ghw_ordering_width(
    hypergraph: Hypergraph,
    ordering: Sequence[Vertex],
    cover_function: CoverFunction | None = None,
) -> int:
    """GHD-sense width of ``ordering``: the largest number of hyperedges
    needed to cover any elimination bag.

    With the default greedy cover this is the GA-ghw fitness (Fig. 7.1) —
    an upper bound on ``width(σ, H)``.  Pass an exact cover function to
    compute ``width(σ, H)`` itself (Definition 17), which Chapter 3 proves
    reaches ``ghw(H)`` for at least one ordering.
    """
    cover = cover_function or greedy_set_cover
    bags = elimination_bags(hypergraph, ordering)
    width = 0
    memo: dict[frozenset, int] = {}
    for bag in bags.values():
        if bag in memo:
            size = memo[bag]
        else:
            size = len(cover(bag, hypergraph))
            memo[bag] = size
        if size > width:
            width = size
    return width


def ghd_from_ordering(
    hypergraph: Hypergraph,
    ordering: Sequence[Vertex],
    cover_function: CoverFunction | None = None,
) -> GeneralizedHypertreeDecomposition:
    """Build a generalized hypertree decomposition from an ordering:
    bucket elimination for the tree and bags, then a set cover per bag for
    the λ-labels (McMahan's construction, §2.5.2)."""
    cover = cover_function or greedy_set_cover
    td = bucket_elimination(hypergraph, ordering)
    ghd = GeneralizedHypertreeDecomposition()
    for node in td.nodes:
        bag = td.bag(node)
        ghd.add_node(node, bag=bag, cover=cover(bag, hypergraph))
    for a, b in td.tree_edges():
        ghd.add_tree_edge(a, b)
    return ghd
