"""Hypergraphs: vertex sets plus named hyperedges, with primal/dual views.

A hypergraph (Definition 2 of the thesis) is a pair ``(V, H)`` where every
hyperedge in ``H`` is a subset of ``V``.  Constraint hypergraphs of CSPs are
the motivating instance: one vertex per variable, one hyperedge per
constraint scope.

Hyperedges carry names so that set covers and GHD λ-labels can refer to them
stably; unnamed edges are auto-named ``e0, e1, ...`` in insertion order.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass

from .graph import Graph, Vertex


class HypergraphError(Exception):
    """Raised on invalid hypergraph operations."""


class EditTicket(str):
    """Receipt for one hyperedge edit, the currency of the incremental
    re-solve API.

    A ticket records what changed — ``kind`` (``"add"``/``"remove"``),
    the edge ``name``, the member ``members`` and the hypergraph's
    ``revision`` after the edit — which is exactly what incremental
    consumers need: :meth:`~repro.setcover.bitcover.BitCoverEngine.apply_edit`
    invalidates only the cover-cache entries intersecting ``members``,
    and :class:`~repro.portfolio.incremental.IncrementalSolver` repairs
    the previous decomposition instead of recomputing it.

    Tickets subclass :class:`str` (the string value is the edge name),
    so historical callers that used :meth:`Hypergraph.add_edge`'s
    returned name — as a dict key, in comparisons — keep working
    unchanged.  Non-string edge names are carried in ``name``; the
    string value is then their ``repr``.
    """

    kind: str
    name: Hashable
    members: frozenset
    revision: int

    def __new__(
        cls,
        name: Hashable,
        kind: str,
        members: Iterable[Vertex],
        revision: int,
    ) -> "EditTicket":
        ticket = str.__new__(
            cls, name if isinstance(name, str) else repr(name)
        )
        ticket.kind = kind
        ticket.name = name
        ticket.members = frozenset(members)
        ticket.revision = revision
        return ticket


@dataclass(frozen=True)
class IncidenceIndex:
    """Interned bitmask view of a hypergraph's incidence structure.

    Vertices and hyperedge names are assigned bit positions; the index
    exposes, per vertex, the bitmask of edges containing it and, per
    edge, the bitmask of its member vertices.  Set-cover gains then
    become single popcounts (``(edge_mask & uncovered).bit_count()``) —
    the hot path of GA-ghw's greedy covers.

    The index is a frozen snapshot: it is built lazily by
    :meth:`Hypergraph.incidence_index` and invalidated (rebuilt on next
    request) whenever the hypergraph mutates.
    """

    vertex_bit: dict      # vertex -> bit position (vertex space)
    vertex_labels: list   # bit position -> vertex
    edge_bit: dict        # edge name -> bit position (edge space)
    edge_labels: list     # bit position -> edge name
    vertex_edge_masks: dict  # vertex -> mask over edge space
    edge_vertex_masks: dict  # edge name -> mask over vertex space

    def mask_to_vertices(self, mask: int) -> list:
        """Vertex labels of the bits set in ``mask`` (ascending bits)."""
        out = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(self.vertex_labels[low.bit_length() - 1])
        return out


class Hypergraph:
    """A hypergraph with named hyperedges.

    Example:
        >>> h = Hypergraph.from_edges([{1, 2, 3}, {3, 4}, {4, 5, 1}])
        >>> h.num_vertices, h.num_edges
        (5, 3)
        >>> sorted(h.primal_graph().neighbors(3))
        [1, 2, 4]
        >>> sorted(h.edges_containing(4))
        ['e1', 'e2']
    """

    __slots__ = ("_vertices", "_edges", "_incidence", "_index_cache", "_rev")

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Mapping[Hashable, Iterable[Vertex]] | None = None,
    ):
        self._vertices: dict[Vertex, None] = {}  # insertion-ordered set
        self._edges: dict[Hashable, frozenset] = {}
        self._incidence: dict[Vertex, set] = {}  # vertex -> edge names
        self._index_cache: IncidenceIndex | None = None  # lazy bitmask view
        self._rev = 0  # bumped by every mutation (see ``revision``)
        for v in vertices:
            self.add_vertex(v)
        if edges:
            for name, members in edges.items():
                self.add_edge(members, name=name)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable[Vertex]]) -> "Hypergraph":
        """Build a hypergraph from bare vertex collections, auto-naming
        the hyperedges ``e0, e1, ...``."""
        hypergraph = cls()
        for members in edges:
            hypergraph.add_edge(members)
        return hypergraph

    @classmethod
    def from_graph(cls, graph: Graph) -> "Hypergraph":
        """View a regular graph as a hypergraph with 2-element edges."""
        hypergraph = cls(vertices=graph.vertex_list())
        for u, v in sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))):
            hypergraph.add_edge((u, v))
        return hypergraph

    def copy(self) -> "Hypergraph":
        clone = Hypergraph()
        clone._vertices = dict(self._vertices)
        clone._edges = dict(self._edges)
        clone._incidence = {v: set(names) for v, names in self._incidence.items()}
        clone._rev = self._rev
        return clone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> None:
        if vertex not in self._vertices:
            self._index_cache = None
            self._rev += 1
        self._vertices.setdefault(vertex, None)
        self._incidence.setdefault(vertex, set())

    def add_edge(
        self, members: Iterable[Vertex], name: Hashable | None = None
    ) -> EditTicket:
        """Add a hyperedge over ``members``; returns an
        :class:`EditTicket` (str-compatible with the edge name)."""
        edge = frozenset(members)
        if not edge:
            raise HypergraphError("empty hyperedges are not allowed")
        if name is None:
            name = f"e{len(self._edges)}"
            while name in self._edges:
                name = f"{name}_"
        if name in self._edges:
            raise HypergraphError(f"duplicate hyperedge name: {name!r}")
        self._index_cache = None
        self._rev += 1
        self._edges[name] = edge
        for v in edge:
            self.add_vertex(v)
            self._incidence[v].add(name)
        return EditTicket(name, "add", edge, self._rev)

    def remove_edge(self, name: Hashable) -> EditTicket:
        """Remove a hyperedge; returns an :class:`EditTicket` recording
        the removed members (the invalidation footprint)."""
        try:
            edge = self._edges.pop(name)
        except KeyError:
            raise HypergraphError(f"unknown hyperedge: {name!r}") from None
        self._index_cache = None
        self._rev += 1
        for v in edge:
            self._incidence[v].discard(name)
        return EditTicket(name, "remove", edge, self._rev)

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` from the vertex set and from every hyperedge.

        Hyperedges that become empty are dropped.
        """
        if vertex not in self._vertices:
            raise HypergraphError(f"unknown vertex: {vertex!r}")
        self._index_cache = None
        self._rev += 1
        for name in list(self._incidence[vertex]):
            shrunk = self._edges[name] - {vertex}
            if shrunk:
                self._edges[name] = shrunk
            else:
                del self._edges[name]
            self._incidence[vertex].discard(name)
        del self._incidence[vertex]
        del self._vertices[vertex]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def revision(self) -> int:
        """Monotone mutation counter: any structural change bumps it.

        Incremental consumers use it to detect stale warm-start state
        (a ticket's ``revision`` names the state it produced)."""
        return self._rev

    @property
    def vertices(self) -> set:
        return set(self._vertices)

    def vertex_list(self) -> list:
        """Vertices in insertion order."""
        return list(self._vertices)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> dict[Hashable, frozenset]:
        """Mapping of edge name to frozen member set (copy)."""
        return dict(self._edges)

    def edge(self, name: Hashable) -> frozenset:
        try:
            return self._edges[name]
        except KeyError:
            raise HypergraphError(f"unknown hyperedge: {name!r}") from None

    def edge_names(self) -> list:
        return list(self._edges)

    def edges_containing(self, vertex: Vertex) -> set:
        """Names of hyperedges containing ``vertex``."""
        try:
            return set(self._incidence[vertex])
        except KeyError:
            raise HypergraphError(f"unknown vertex: {vertex!r}") from None

    def incidence_index(self) -> IncidenceIndex:
        """The interned bitmask incidence view (see :class:`IncidenceIndex`).

        Built lazily on first request and cached; any mutation
        (``add_vertex``/``add_edge``/``remove_edge``/``remove_vertex``)
        invalidates the cache, so callers may hold the returned snapshot
        only as long as they do not mutate the hypergraph.
        """
        index = self._index_cache
        if index is None:
            vertex_labels = list(self._vertices)
            vertex_bit = {v: i for i, v in enumerate(vertex_labels)}
            edge_labels = list(self._edges)
            edge_bit = {name: i for i, name in enumerate(edge_labels)}
            edge_vertex_masks = {}
            vertex_edge_masks = {v: 0 for v in vertex_labels}
            for name, edge in self._edges.items():
                mask = 0
                ebit = 1 << edge_bit[name]
                for v in edge:
                    mask |= 1 << vertex_bit[v]
                    vertex_edge_masks[v] |= ebit
                edge_vertex_masks[name] = mask
            index = IncidenceIndex(
                vertex_bit=vertex_bit,
                vertex_labels=vertex_labels,
                edge_bit=edge_bit,
                edge_labels=edge_labels,
                vertex_edge_masks=vertex_edge_masks,
                edge_vertex_masks=edge_vertex_masks,
            )
            self._index_cache = index
        return index

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def rank(self) -> int:
        """Maximum hyperedge cardinality (0 for edgeless hypergraphs)."""
        return max((len(e) for e in self._edges.values()), default=0)

    def isolated_vertices(self) -> set:
        """Vertices occurring in no hyperedge.

        A hypergraph with isolated vertices has *no* generalized
        hypertree decomposition (no λ can cover such a vertex's bag), so
        the ghw algorithms reject these inputs.
        """
        return {v for v, names in self._incidence.items() if not names}

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def primal_graph(self) -> Graph:
        """The Gaifman/primal graph (Definition 3): vertices of the
        hypergraph, with an edge wherever two vertices co-occur in a
        hyperedge."""
        graph = Graph(vertices=self.vertex_list())
        for edge in self._edges.values():
            members = list(edge)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    graph.add_edge(u, v)
        return graph

    def dual_graph(self) -> Graph:
        """The dual graph (Definition 4): one vertex per hyperedge name,
        adjacent iff the hyperedges intersect."""
        graph = Graph(vertices=self.edge_names())
        names = self.edge_names()
        for i, a in enumerate(names):
            ea = self._edges[a]
            for b in names[i + 1:]:
                if ea & self._edges[b]:
                    graph.add_edge(a, b)
        return graph

    def induced_hypergraph(self, vertices: Iterable[Vertex]) -> "Hypergraph":
        """Restrict every hyperedge to ``vertices``, dropping empties."""
        keep = set(vertices)
        sub = Hypergraph(vertices=[v for v in self._vertices if v in keep])
        for name, edge in self._edges.items():
            shrunk = edge & keep
            if shrunk:
                sub.add_edge(shrunk, name=name)
        return sub

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            set(self._vertices) == set(other._vertices)
            and self._edges == other._edges
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypergraph(|V|={self.num_vertices}, |H|={self.num_edges})"
