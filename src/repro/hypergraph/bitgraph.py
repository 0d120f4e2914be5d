"""Bitset-backed graph kernel for the elimination hot paths.

Every search in this package (A*-tw, BB-tw, the minor lower bounds, the
greedy upper-bound orderings, GA fitness) bottoms out in neighborhood
intersections, clique tests and fill-in counts.  :class:`BitGraph` stores
adjacency as one arbitrary-precision Python integer per vertex, so those
primitives become machine-word-parallel mask operations:

* ``fill_in_count(v)`` — per neighbor ``u``, a popcount of
  ``nbrs & ~adj[u]`` (missing partners), halved over the pair double-count;
* ``is_clique(S)`` — one subset test ``S & ~adj[u] & ~bit(u) == 0`` per
  member;
* elimination — fill edges discovered by masking each neighbor's
  adjacency against the higher-indexed remainder of the neighborhood.

Interning
---------

Vertices may be arbitrary hashables, as in :class:`~.graph.Graph`.  A
*vertex-interning table* assigns each vertex a permanent bit index the
first time it is seen; indices are never reused, so masks stay meaningful
across eliminate/restore cycles and :attr:`present_mask` is a canonical
key for the current residual vertex set (used by the search-side
lower-bound memoization caches).

Observational equivalence
-------------------------

``BitGraph`` mirrors :class:`~.graph.Graph` *exactly*, including
iteration order: ``vertex_list()`` is insertion-ordered and a restored
vertex re-appends at the end, just as ``Graph``'s dict does.  The two
kernels are therefore interchangeable inside the searches (property-tested
in ``tests/test_bitgraph.py``); ``Graph`` remains the reference
implementation and the public construction API.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .graph import EliminationRecord, Graph, GraphError, Vertex, _sort_key
from .hypergraph import Hypergraph


class BitEliminationRecord:
    """Field-compatible stand-in for :class:`~.graph.EliminationRecord`.

    The searches eliminate tens of thousands of times per run and read
    only ``vertex`` from the returned record, so the label-level
    ``neighbors`` / ``fill_edges`` views are materialized lazily from the
    masks on first access (safe: bit indices are permanent, and the
    labels list only ever grows).
    """

    __slots__ = ("vertex", "_nbrs_mask", "_fill_bits", "_labels",
                 "_neighbors", "_fill_edges")

    def __init__(self, vertex: Vertex, nbrs_mask: int,
                 fill_bits: tuple, labels: list):
        self.vertex = vertex
        self._nbrs_mask = nbrs_mask
        self._fill_bits = fill_bits
        self._labels = labels
        self._neighbors: frozenset | None = None
        self._fill_edges: tuple | None = None

    @property
    def neighbors(self) -> frozenset:
        if self._neighbors is None:
            labels = self._labels
            out = []
            m = self._nbrs_mask
            while m:
                low = m & -m
                m ^= low
                out.append(labels[low.bit_length() - 1])
            self._neighbors = frozenset(out)
        return self._neighbors

    @property
    def fill_edges(self) -> tuple:
        if self._fill_edges is None:
            labels = self._labels
            self._fill_edges = tuple(
                (labels[u], labels[w]) for u, w in self._fill_bits
            )
        return self._fill_edges

    def __repr__(self) -> str:
        return (f"BitEliminationRecord(vertex={self.vertex!r}, "
                f"neighbors={set(self.neighbors)!r}, "
                f"fill_edges={self.fill_edges!r})")


class BitGraph:
    """An undirected simple graph over interned bitmask adjacency.

    Supports the full reversible-elimination API of
    :class:`~.graph.Graph` (eliminate/restore undo log, contraction,
    fill-in counts, simpliciality predicates, components) with the same
    observable semantics, plus mask-level accessors (:meth:`bit`,
    :meth:`neighbors_mask`, :attr:`present_mask`, :meth:`mask_of`,
    :meth:`mask_to_set`) for hot paths that want to stay in bit space.
    """

    __slots__ = ("_index", "_labels", "_adj", "_present", "_order",
                 "_num_edges", "_undo_stack")

    def __init__(self, vertices: Iterable[Vertex] = (), edges: Iterable[tuple] = ()):
        self._index: dict[Vertex, int] = {}   # vertex -> permanent bit
        self._labels: list[Vertex] = []       # bit -> vertex
        self._adj: list[int] = []             # bit -> neighbor mask
        self._present: int = 0                # mask of live vertices
        self._order: dict[Vertex, int] = {}   # live vertices, insertion order
        self._num_edges = 0
        # (record, bit, neighbor mask, fill bit pairs) per elimination
        self._undo_stack: list[tuple] = []
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple]) -> "BitGraph":
        """Build a graph from an iterable of ``(u, v)`` pairs."""
        graph = cls()
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_graph(cls, graph: Graph) -> "BitGraph":
        """An independent bitset copy of a set-backed :class:`Graph`."""
        bit = cls(vertices=graph.vertex_list())
        index = bit._index
        adj = bit._adj
        for v in graph.vertex_list():
            mask = 0
            for u in graph.neighbors(v):
                mask |= 1 << index[u]
            adj[index[v]] = mask
        bit._num_edges = graph.num_edges
        return bit

    @classmethod
    def from_hypergraph(cls, hypergraph: Hypergraph) -> "BitGraph":
        """The primal (Gaifman) graph of ``hypergraph``, built directly in
        mask space (no intermediate set-backed graph)."""
        bit = cls(vertices=hypergraph.vertex_list())
        index = bit._index
        adj = bit._adj
        for edge in hypergraph.edges.values():
            mask = 0
            for v in edge:
                mask |= 1 << index[v]
            m = mask
            while m:
                low = m & -m
                m ^= low
                adj[low.bit_length() - 1] |= mask & ~low
        bit._num_edges = sum(a.bit_count() for a in adj) // 2
        return bit

    @classmethod
    def complete(cls, vertices: Iterable[Vertex]) -> "BitGraph":
        """Build the complete graph on ``vertices``."""
        vs = list(vertices)
        graph = cls(vertices=vs)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                graph.add_edge(u, v)
        return graph

    def copy(self) -> "BitGraph":
        """Return an independent copy (the undo stack is not copied).

        Bit assignments are preserved, so masks from the copy and the
        original are mutually comparable.
        """
        clone = BitGraph()
        clone._index = dict(self._index)
        clone._labels = list(self._labels)
        clone._adj = list(self._adj)
        clone._present = self._present
        clone._order = dict(self._order)
        clone._num_edges = self._num_edges
        return clone

    def subgraph(self, vertices: Iterable[Vertex]) -> "BitGraph":
        """Return the induced subgraph on ``vertices``."""
        keep = set(vertices)
        unknown = keep - self._order.keys()
        if unknown:
            raise GraphError(f"unknown vertices: {sorted(map(repr, unknown))}")
        keep_mask = 0
        for v in keep:
            keep_mask |= 1 << self._order[v]
        sub = BitGraph(vertices=keep)
        for v in keep:
            m = self._adj[self._order[v]] & keep_mask
            while m:
                low = m & -m
                m ^= low
                sub.add_edge(self._labels[low.bit_length() - 1], v)
        return sub

    def to_graph(self) -> Graph:
        """Convert back to the set-backed reference :class:`Graph`."""
        graph = Graph(vertices=self.vertex_list())
        for u, v in self.edges():
            graph.add_edge(u, v)
        return graph

    # ------------------------------------------------------------------
    # Mask-level accessors (the raison d'être of this class)
    # ------------------------------------------------------------------

    @property
    def present_mask(self) -> int:
        """Bitmask of the live vertices — a canonical key for the
        residual graph (elimination of a vertex set yields the same
        filled graph in any order)."""
        return self._present

    def bit(self, vertex: Vertex) -> int:
        """The permanent bit index interned for ``vertex``."""
        try:
            return self._index[vertex]
        except KeyError:
            raise GraphError(f"unknown vertex: {vertex!r}") from None

    def label(self, bit: int) -> Vertex:
        """The vertex interned at ``bit``."""
        return self._labels[bit]

    def neighbors_mask(self, vertex: Vertex) -> int:
        """The neighborhood of ``vertex`` as a bitmask."""
        b = self._order.get(vertex)
        if b is None:
            raise GraphError(f"unknown vertex: {vertex!r}")
        return self._adj[b]

    def mask_of(self, vertices: Iterable[Vertex]) -> int:
        """OR of the interned bits of ``vertices`` (live or eliminated)."""
        mask = 0
        index = self._index
        for v in vertices:
            try:
                mask |= 1 << index[v]
            except KeyError:
                raise GraphError(f"unknown vertex: {v!r}") from None
        return mask

    def mask_to_set(self, mask: int) -> set:
        """The vertex labels of the bits set in ``mask``."""
        labels = self._labels
        out = set()
        while mask:
            low = mask & -mask
            mask ^= low
            out.add(labels[low.bit_length() - 1])
        return out

    def adjacency_masks(self) -> tuple[dict[Vertex, int], list[Vertex], list[int]]:
        """``(index, labels, adj)`` snapshot for external bit-space loops
        (e.g. the GA ordering evaluator): the interning table, the
        bit→vertex labels, and a copy of the adjacency masks."""
        return dict(self._index), list(self._labels), list(self._adj)

    @property
    def adjacency_rows(self) -> list[int]:
        """The live per-bit adjacency masks — shared, NOT a copy.  For
        read-only hot loops (PR 2); mutate the graph only through its
        methods."""
        return self._adj

    def vertex_bit_items(self) -> list[tuple[Vertex, int]]:
        """``(vertex, bit)`` pairs of the live vertices, in
        :meth:`vertex_list` order."""
        return list(self._order.items())

    # ------------------------------------------------------------------
    # Basic queries (Graph API parity)
    # ------------------------------------------------------------------

    @property
    def vertices(self) -> set:
        return set(self._order)

    def vertex_list(self) -> list:
        """Vertices in insertion order (deterministic iteration; restored
        vertices re-append at the end, mirroring :class:`Graph`)."""
        return list(self._order)

    @property
    def num_vertices(self) -> int:
        return len(self._order)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._order

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._order)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        bu = self._order.get(u)
        bv = self._order.get(v)
        if bu is None or bv is None:
            return False
        return bool(self._adj[bu] >> bv & 1)

    def neighbors(self, vertex: Vertex) -> set:
        """The neighborhood of ``vertex`` as a set of labels."""
        return self.mask_to_set(self.neighbors_mask(vertex))

    def degree(self, vertex: Vertex) -> int:
        return self.neighbors_mask(vertex).bit_count()

    def edges(self) -> Iterator[tuple]:
        """Iterate every edge exactly once."""
        seen = 0
        for v, b in self._order.items():
            m = self._adj[b] & ~seen
            while m:
                low = m & -m
                m ^= low
                yield (v, self._labels[low.bit_length() - 1])
            seen |= 1 << b


    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _intern(self, vertex: Vertex) -> int:
        b = self._index.get(vertex)
        if b is None:
            b = len(self._labels)
            self._index[vertex] = b
            self._labels.append(vertex)
            self._adj.append(0)
        return b

    def add_vertex(self, vertex: Vertex) -> None:
        if vertex in self._order:
            return
        b = self._intern(vertex)
        self._adj[b] = 0
        self._present |= 1 << b
        self._order[vertex] = b

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert edge ``{u, v}``, creating endpoints as needed."""
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        bu = self._order[u]
        bv = self._order[v]
        if not self._adj[bu] >> bv & 1:
            self._adj[bu] |= 1 << bv
            self._adj[bv] |= 1 << bu
            self._num_edges += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"no edge between {u!r} and {v!r}")
        bu = self._order[u]
        bv = self._order[v]
        self._adj[bu] &= ~(1 << bv)
        self._adj[bv] &= ~(1 << bu)
        self._num_edges -= 1

    def remove_vertex(self, vertex: Vertex) -> None:
        """Delete ``vertex`` and all incident edges (not undoable)."""
        b = self._order.get(vertex)
        if b is None:
            raise GraphError(f"unknown vertex: {vertex!r}")
        nbrs = self._adj[b]
        clear = ~(1 << b)
        adj = self._adj
        m = nbrs
        while m:
            low = m & -m
            m ^= low
            adj[low.bit_length() - 1] &= clear
        self._num_edges -= nbrs.bit_count()
        adj[b] = 0
        self._present &= clear
        del self._order[vertex]

    # ------------------------------------------------------------------
    # Elimination with undo (the BB / A* workhorse)
    # ------------------------------------------------------------------

    def eliminate(self, vertex: Vertex) -> BitEliminationRecord:
        """Eliminate ``vertex``: clique its neighborhood, then remove it.

        Same contract as :meth:`Graph.eliminate`; fill edges are found by
        masking each neighbor's adjacency against the higher-indexed rest
        of the neighborhood.
        """
        b = self._order.get(vertex)
        if b is None:
            raise GraphError(f"unknown vertex: {vertex!r}")
        adj = self._adj
        nbrs = adj[b]
        fill_bits: list[tuple[int, int]] = []
        m = nbrs
        while m:
            low = m & -m
            m ^= low            # m now holds only higher-indexed neighbors
            u = low.bit_length() - 1
            missing = m & ~adj[u]
            while missing:
                wlow = missing & -missing
                missing ^= wlow
                w = wlow.bit_length() - 1
                adj[u] |= wlow
                adj[w] |= low
                self._num_edges += 1
                fill_bits.append((u, w))
        record = BitEliminationRecord(
            vertex, nbrs, tuple(fill_bits), self._labels
        )
        # Inline remove_vertex, reusing nbrs (fill edges already counted).
        clear = ~(1 << b)
        m = nbrs
        while m:
            low = m & -m
            m ^= low
            adj[low.bit_length() - 1] &= clear
        self._num_edges -= nbrs.bit_count()
        adj[b] = 0
        self._present &= clear
        del self._order[vertex]
        self._undo_stack.append((record, b, nbrs, fill_bits))
        return record

    def restore(self) -> BitEliminationRecord:
        """Undo the most recent :meth:`eliminate` call."""
        if not self._undo_stack:
            raise GraphError("nothing to restore: undo stack is empty")
        record, b, nbrs, fill_bits = self._undo_stack.pop()
        adj = self._adj
        for u, w in fill_bits:
            adj[u] &= ~(1 << w)
            adj[w] &= ~(1 << u)
            self._num_edges -= 1
        bit = 1 << b
        adj[b] = nbrs
        m = nbrs
        while m:
            low = m & -m
            m ^= low
            adj[low.bit_length() - 1] |= bit
        self._num_edges += nbrs.bit_count()
        self._present |= bit
        self._order[record.vertex] = b  # re-append at the end, like Graph
        return record

    @property
    def elimination_depth(self) -> int:
        """How many eliminations are currently undoable."""
        return len(self._undo_stack)

    def fill_in_count(self, vertex: Vertex) -> int:
        """Number of edges elimination of ``vertex`` would insert."""
        nbrs = self.neighbors_mask(vertex)
        adj = self._adj
        missing = 0
        m = nbrs
        while m:
            low = m & -m
            m ^= low            # only higher-indexed partners remain
            missing += (m & ~adj[low.bit_length() - 1]).bit_count()
        return missing

    # ------------------------------------------------------------------
    # Minor operations (for lower-bound heuristics)
    # ------------------------------------------------------------------

    def contract_edge(self, u: Vertex, v: Vertex) -> None:
        """Contract edge ``{u, v}`` into ``u`` (``v`` disappears)."""
        if not self.has_edge(u, v):
            raise GraphError(f"cannot contract non-edge {u!r}-{v!r}")
        bu = self._order[u]
        bv = self._order[v]
        adj = self._adj
        bit_u = 1 << bu
        new = adj[bv] & ~adj[bu] & ~bit_u
        adj[bu] |= new
        m = new
        while m:
            low = m & -m
            m ^= low
            adj[low.bit_length() - 1] |= bit_u
            self._num_edges += 1
        self.remove_vertex(v)

    # ------------------------------------------------------------------
    # Structure predicates
    # ------------------------------------------------------------------

    def _mask_is_clique(self, mask: int) -> bool:
        adj = self._adj
        m = mask
        while m:
            low = m & -m
            m ^= low            # higher-indexed members remain
            if m & ~adj[low.bit_length() - 1]:
                return False
        return True

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """True iff ``vertices`` are pairwise adjacent."""
        mask = 0
        order = self._order
        for v in vertices:
            b = order.get(v)
            if b is None:
                raise GraphError(f"unknown vertex: {v!r}")
            mask |= 1 << b
        return self._mask_is_clique(mask)

    def is_simplicial(self, vertex: Vertex) -> bool:
        """True iff the neighborhood of ``vertex`` induces a clique."""
        return self._mask_is_clique(self.neighbors_mask(vertex))

    def almost_simplicial_witness(self, vertex: Vertex) -> Vertex | None:
        """If all but one neighbor of ``vertex`` induce a clique, return
        an odd neighbor out; return ``None`` otherwise (simplicial
        vertices too — same semantics as :class:`Graph`)."""
        nbrs = self.neighbors_mask(vertex)
        if self._mask_is_clique(nbrs):
            return None
        m = nbrs
        while m:
            low = m & -m
            m ^= low
            if self._mask_is_clique(nbrs & ~low):
                return self._labels[low.bit_length() - 1]
        return None

    def connected_components(self) -> list[set]:
        """Return the connected components as a list of vertex sets."""
        adj = self._adj
        remaining = self._present
        components: list[set] = []
        while remaining:
            seed = remaining & -remaining
            comp = seed
            frontier = seed
            while frontier:
                grow = 0
                m = frontier
                while m:
                    low = m & -m
                    m ^= low
                    grow |= adj[low.bit_length() - 1]
                frontier = grow & remaining & ~comp
                comp |= frontier
            components.append(self.mask_to_set(comp))
            remaining &= ~comp
        return components

    def min_degree_vertex(self) -> Vertex:
        """A vertex of minimum degree (deterministic tie-break by order)."""
        if not self._order:
            raise GraphError("graph is empty")
        adj = self._adj
        return min(
            self._order,
            key=lambda v: (adj[self._order[v]].bit_count(), _sort_key(v)),
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def _adjacency_dict(self) -> dict[Vertex, set]:
        return {v: self.mask_to_set(self._adj[b]) for v, b in self._order.items()}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitGraph):
            return self._adjacency_dict() == other._adjacency_dict()
        if isinstance(other, Graph):
            return self._adjacency_dict() == {
                v: other.neighbors(v) for v in other.vertex_list()
            }
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitGraph(|V|={self.num_vertices}, |E|={self.num_edges})"


def as_bitgraph(structure: "Graph | Hypergraph | BitGraph") -> BitGraph:
    """Normalize ``structure`` to an independent :class:`BitGraph`.

    * ``BitGraph`` → a :meth:`~BitGraph.copy`;
    * ``Graph`` → :meth:`BitGraph.from_graph`;
    * ``Hypergraph`` → its primal graph via :meth:`BitGraph.from_hypergraph`.

    This is the single adapter the search/bounds/GA hot paths use to enter
    bit space; the set-backed :class:`Graph` stays the reference
    implementation and public API.
    """
    if isinstance(structure, BitGraph):
        return structure.copy()
    if isinstance(structure, Hypergraph):
        return BitGraph.from_hypergraph(structure)
    if isinstance(structure, Graph):
        return BitGraph.from_graph(structure)
    raise TypeError(f"cannot view {type(structure).__name__} as a BitGraph")
