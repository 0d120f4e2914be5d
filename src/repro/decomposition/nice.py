"""Nice tree decompositions.

A *nice* tree decomposition normalizes an arbitrary tree decomposition
into four node kinds — the form dynamic programming over tree
decompositions is usually written against (cf. `repro.apps`):

* **leaf**: an empty bag with no children,
* **introduce(v)**: bag = child's bag + {v},
* **forget(v)**: bag = child's bag − {v},
* **join**: two children with bags equal to the node's bag.

The conversion preserves validity and width and produces O(w · n) nodes.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable
from dataclasses import dataclass

from ..hypergraph.graph import Graph, Vertex
from ..hypergraph.hypergraph import Hypergraph
from .tree_decomposition import DecompositionError, TreeDecomposition


@dataclass(frozen=True)
class NiceNode:
    """One node of a nice tree decomposition."""

    identifier: int
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: frozenset
    vertex: Vertex | None  # the introduced/forgotten vertex
    children: tuple


class NiceTreeDecomposition:
    """A rooted nice tree decomposition.

    Build one from any valid tree decomposition with :meth:`from_tree_
    decomposition`; traverse bottom-up via :meth:`postorder`.
    """

    def __init__(self, root: NiceNode, nodes: dict[int, NiceNode]):
        self.root = root
        self._nodes = nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def width(self) -> int:
        return max(
            (len(node.bag) for node in self._nodes.values()), default=0
        ) - 1

    def node(self, identifier: int) -> NiceNode:
        return self._nodes[identifier]

    def postorder(self) -> list[NiceNode]:
        """Children before parents (DP evaluation order)."""
        order: list[NiceNode] = []
        stack: list[tuple[NiceNode, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for child_id in node.children:
                    stack.append((self._nodes[child_id], False))
        return order

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tree_decomposition(
        cls,
        td: TreeDecomposition,
        structure: Graph | Hypergraph | None = None,
    ) -> "NiceTreeDecomposition":
        """Convert ``td`` (validated against ``structure`` if given)."""
        if structure is not None:
            from ..verify.certificate import check_td

            problems = check_td(td, structure)
            if problems:
                raise DecompositionError(
                    "invalid tree decomposition: "
                    + "; ".join(p.message for p in problems)
                )
        if td.num_nodes == 0:
            raise DecompositionError("cannot convert an empty decomposition")
        if not td.is_tree():
            raise DecompositionError("node graph is not a tree")
        builder = _NiceBuilder()
        root_id = builder.build(td, td.nodes[0])
        # Forget the root's bag down to empty so the root is canonical.
        root_id = builder.forget_down(root_id, frozenset())
        nodes = builder.nodes
        return cls(nodes[root_id], nodes)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def violations(self) -> list[str]:
        """Structural nice-ness violations (empty iff well-formed)."""
        problems: list[str] = []
        for node in self._nodes.values():
            kids = [self._nodes[c] for c in node.children]
            if node.kind == "leaf":
                if node.bag or kids:
                    problems.append(f"leaf {node.identifier} malformed")
            elif node.kind == "introduce":
                if len(kids) != 1 or node.vertex is None:
                    problems.append(f"introduce {node.identifier} malformed")
                elif node.bag != kids[0].bag | {node.vertex} or \
                        node.vertex in kids[0].bag:
                    problems.append(
                        f"introduce {node.identifier} bag mismatch"
                    )
            elif node.kind == "forget":
                if len(kids) != 1 or node.vertex is None:
                    problems.append(f"forget {node.identifier} malformed")
                elif node.bag != kids[0].bag - {node.vertex} or \
                        node.vertex not in kids[0].bag:
                    problems.append(f"forget {node.identifier} bag mismatch")
            elif node.kind == "join":
                if len(kids) != 2 or any(k.bag != node.bag for k in kids):
                    problems.append(f"join {node.identifier} malformed")
            else:
                problems.append(f"unknown kind {node.kind!r}")
        if self.root.bag:
            problems.append("root bag is not empty")
        return problems

    def to_tree_decomposition(self) -> TreeDecomposition:
        """Flatten back to a plain TreeDecomposition (for validation)."""
        td = TreeDecomposition()
        for node in self._nodes.values():
            td.add_node(node.identifier, node.bag)
        for node in self._nodes.values():
            for child in node.children:
                td.add_tree_edge(node.identifier, child)
        return td


class _NiceBuilder:
    def __init__(self):
        self.nodes: dict[int, NiceNode] = {}
        self._counter = itertools.count()

    def _add(self, kind: str, bag: frozenset, vertex, children: tuple) -> int:
        identifier = next(self._counter)
        self.nodes[identifier] = NiceNode(
            identifier=identifier, kind=kind, bag=bag, vertex=vertex,
            children=children,
        )
        return identifier

    def leaf_chain_up(self, bag: frozenset) -> int:
        """A leaf followed by introduces building up ``bag``."""
        current = self._add("leaf", frozenset(), None, ())
        built: set = set()
        for vertex in sorted(bag, key=repr):
            built.add(vertex)
            current = self._add(
                "introduce", frozenset(built), vertex, (current,)
            )
        return current

    def morph(self, node_id: int, target: frozenset) -> int:
        """Forget/introduce chain from the node's bag to ``target``."""
        node_id = self.forget_down(
            node_id, self.nodes[node_id].bag & target
        )
        current_bag = set(self.nodes[node_id].bag)
        for vertex in sorted(target - current_bag, key=repr):
            current_bag.add(vertex)
            node_id = self._add(
                "introduce", frozenset(current_bag), vertex, (node_id,)
            )
        return node_id

    def forget_down(self, node_id: int, target: frozenset) -> int:
        """Forget chain from the node's bag down to ``target`` ⊆ bag."""
        current_bag = set(self.nodes[node_id].bag)
        for vertex in sorted(current_bag - target, key=repr):
            current_bag.discard(vertex)
            node_id = self._add(
                "forget", frozenset(current_bag), vertex, (node_id,)
            )
        return node_id

    def build(self, td: TreeDecomposition, root: Hashable) -> int:
        """Recursively convert the subtree of ``td`` rooted at ``root``;
        returns a nice node whose bag equals the root's bag."""
        parents = td.rooted_parents(root)
        order = td.topological_order(root)
        children_of: dict[Hashable, list] = {n: [] for n in order}
        for node in order[1:]:
            children_of[parents[node]].append(node)

        built: dict[Hashable, int] = {}
        for node in reversed(order):  # children first
            bag = td.bag(node)
            kid_ids = [
                self.morph(built[child], bag)
                for child in children_of[node]
            ]
            if not kid_ids:
                built[node] = self.leaf_chain_up(bag)
                continue
            current = kid_ids[0]
            for other in kid_ids[1:]:
                current = self._add("join", bag, None, (current, other))
            built[node] = current
        return built[root]
