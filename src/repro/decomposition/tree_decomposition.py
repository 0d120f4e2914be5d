"""Tree decompositions of graphs and hypergraphs (thesis Definition 11).

A tree decomposition of a hypergraph H is a tree whose nodes carry bags
(χ-labels, vertex subsets) such that

1. every hyperedge is contained in some bag, and
2. for every vertex, the nodes whose bags contain it induce a connected
   subtree (the *connectedness condition*).

Its width is ``max |bag| - 1``; the minimum over all tree decompositions is
the *treewidth*.  By Lemma 1 of the thesis a tree decomposition of H is
exactly a tree decomposition of H's primal graph, so the checker
(:func:`repro.verify.certificate.check_td`) accepts either a
:class:`~repro.hypergraph.Graph` or a :class:`~repro.hypergraph.Hypergraph`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from ..hypergraph.graph import Vertex


class DecompositionError(Exception):
    """Raised when a decomposition is structurally broken."""


class TreeDecomposition:
    """A tree of bags.

    Nodes are arbitrary hashable identifiers; each carries a bag
    (a frozen set of underlying graph vertices).

    Example:
        >>> td = TreeDecomposition()
        >>> td.add_node("a", {1, 2, 3})
        >>> td.add_node("b", {2, 3, 4})
        >>> td.add_tree_edge("a", "b")
        >>> td.width
        2
    """

    def __init__(self):
        self._bags: dict[Hashable, frozenset] = {}
        self._tree: dict[Hashable, set] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node: Hashable, bag: Iterable[Vertex]) -> None:
        if node in self._bags:
            raise DecompositionError(f"duplicate node: {node!r}")
        self._bags[node] = frozenset(bag)
        self._tree[node] = set()

    def add_tree_edge(self, a: Hashable, b: Hashable) -> None:
        if a not in self._bags or b not in self._bags:
            raise DecompositionError(f"unknown node in edge ({a!r}, {b!r})")
        if a == b:
            raise DecompositionError("tree edges cannot be loops")
        self._tree[a].add(b)
        self._tree[b].add(a)

    def remove_node(self, node: Hashable) -> None:
        """Remove a node and its incident tree edges."""
        if node not in self._bags:
            raise DecompositionError(f"unknown node: {node!r}")
        for other in self._tree[node]:
            self._tree[other].discard(node)
        del self._tree[node]
        del self._bags[node]

    def set_bag(self, node: Hashable, bag: Iterable[Vertex]) -> None:
        if node not in self._bags:
            raise DecompositionError(f"unknown node: {node!r}")
        self._bags[node] = frozenset(bag)

    def copy(self) -> "TreeDecomposition":
        clone = TreeDecomposition()
        clone._bags = dict(self._bags)
        clone._tree = {n: set(nbrs) for n, nbrs in self._tree.items()}
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> list:
        return list(self._bags)

    @property
    def num_nodes(self) -> int:
        return len(self._bags)

    def bag(self, node: Hashable) -> frozenset:
        try:
            return self._bags[node]
        except KeyError:
            raise DecompositionError(f"unknown node: {node!r}") from None

    @property
    def bags(self) -> dict[Hashable, frozenset]:
        return dict(self._bags)

    def tree_neighbors(self, node: Hashable) -> set:
        try:
            return set(self._tree[node])
        except KeyError:
            raise DecompositionError(f"unknown node: {node!r}") from None

    def tree_edges(self) -> list[tuple]:
        seen: set = set()
        edges = []
        for a, nbrs in self._tree.items():
            for b in nbrs:
                if b not in seen:
                    edges.append((a, b))
            seen.add(a)
        return edges

    def leaves(self) -> list:
        """Nodes of tree-degree <= 1 (a single node counts as a leaf)."""
        return [n for n, nbrs in self._tree.items() if len(nbrs) <= 1]

    @property
    def width(self) -> int:
        """``max |bag| - 1``; -1 for the empty decomposition."""
        return max((len(b) for b in self._bags.values()), default=0) - 1

    def covered_vertices(self) -> set:
        out: set = set()
        for bag in self._bags.values():
            out |= bag
        return out

    def nodes_containing(self, vertex: Vertex) -> list:
        return [n for n, bag in self._bags.items() if vertex in bag]

    # ------------------------------------------------------------------
    # Tree structure helpers
    # ------------------------------------------------------------------

    def is_tree(self) -> bool:
        """True iff the node graph is connected and acyclic."""
        if not self._bags:
            return True
        edge_count = sum(len(nbrs) for nbrs in self._tree.values()) // 2
        if edge_count != len(self._bags) - 1:
            return False
        return self._is_connected()

    def _is_connected(self) -> bool:
        start = next(iter(self._bags))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for other in self._tree[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(self._bags)

    def rooted_parents(self, root: Hashable) -> dict:
        """Parent map of the tree rooted at ``root`` (root maps to None)."""
        if root not in self._bags:
            raise DecompositionError(f"unknown root: {root!r}")
        parents: dict = {root: None}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for other in self._tree[node]:
                if other not in parents:
                    parents[other] = node
                    frontier.append(other)
        return parents

    def depths(self, root: Hashable) -> dict:
        """Distance of every node from ``root``."""
        parents = self.rooted_parents(root)
        depths: dict = {root: 0}
        order = self.topological_order(root)
        for node in order[1:]:
            depths[node] = depths[parents[node]] + 1
        return depths

    def topological_order(self, root: Hashable) -> list:
        """Nodes in BFS order from ``root`` (parents before children)."""
        parents = self.rooted_parents(root)
        order = [root]
        index = 0
        while index < len(order):
            node = order[index]
            index += 1
            for other in self._tree[node]:
                if parents.get(other) == node:
                    order.append(other)
        return order

    def path_between(self, a: Hashable, b: Hashable) -> list:
        """The unique tree path from ``a`` to ``b`` (inclusive)."""
        parents = self.rooted_parents(a)
        if b not in parents:
            raise DecompositionError(f"{a!r} and {b!r} are not connected")
        path = [b]
        while path[-1] != a:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeDecomposition(nodes={self.num_nodes}, width={self.width})"
