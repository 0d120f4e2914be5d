"""Hypertree decompositions proper (thesis §2.3.2, after Gottlob, Leone
and Scarcello [29]).

A *hypertree decomposition* is a generalized hypertree decomposition that
additionally satisfies the **descendant condition** (condition 4 of
Definition 4.1 in [29]): for every node p,

    var(λ(p)) ∩ χ(T_p) ⊆ χ(p)

— a λ-edge used at p may not reintroduce, below p, vertices that p
itself dropped.  This is the condition that makes ``hw ≤ k`` checkable
in polynomial time for fixed k, and the one *generalized* hypertree
decompositions drop; consequently ``ghw(H) ≤ hw(H) ≤ tw(H) + 1``.

This module provides the rooted decomposition type plus an upper-bound
constructor: starting from bucket-elimination bags, bags are grown to a
fixpoint that restores the descendant condition and connectedness, then
re-covered.  The result is always a valid hypertree decomposition
(property-tested); its width upper-bounds hw(H).  The descendant
condition is checked by :func:`repro.verify.certificate.check_htd`.
"""

from __future__ import annotations

from collections.abc import Hashable

from ..hypergraph.hypergraph import Hypergraph
from .ghd import GeneralizedHypertreeDecomposition


class HypertreeDecomposition(GeneralizedHypertreeDecomposition):
    """A GHD with a distinguished root, which the descendant condition
    is checked against."""

    def __init__(self, root: Hashable | None = None):
        super().__init__()
        self.root = root

    def copy(self) -> "HypertreeDecomposition":
        clone = HypertreeDecomposition(root=self.root)
        clone._bags = dict(self._bags)
        clone._tree = {n: set(nbrs) for n, nbrs in self._tree.items()}
        clone._lambdas = dict(self._lambdas)
        return clone

    def effective_root(self) -> Hashable:
        if self.root in self._bags:
            return self.root
        return self.nodes[0]

    def to_payload(self) -> dict:
        """A JSON-shaped dump of the decomposition (node ids, bags and
        λ-names must be JSON-representable — true for every witness the
        hw backends produce).  The service cache and the portfolio's
        process boundary both ship witnesses in this form."""
        return {
            "nodes": [
                [
                    node,
                    sorted(self.bag(node), key=repr),
                    sorted(self.cover(node), key=repr),
                ]
                for node in self.nodes
            ],
            "tree": [[a, b] for a, b in self.tree_edges()],
            "root": self.effective_root() if self._bags else None,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "HypertreeDecomposition":
        """Rebuild a decomposition from :meth:`to_payload` output.

        Validates shape only — callers must certify the result with
        ``check_htd`` before trusting it (the service does exactly
        that on insert)."""
        htd = cls(root=payload.get("root"))
        for node, bag, cover in payload["nodes"]:
            htd.add_node(node, bag=bag, cover=cover)
        for a, b in payload["tree"]:
            htd.add_tree_edge(a, b)
        return htd

    def subtree_variables(self, root: Hashable) -> dict[Hashable, set]:
        """Union of bags per rooted subtree (children-first computed)."""
        parents = self.rooted_parents(root)
        order = self.topological_order(root)
        out: dict[Hashable, set] = {}
        for node in reversed(order):
            vars_here = set(self.bag(node))
            for child in self.tree_neighbors(node):
                if parents.get(child) == node:
                    vars_here |= out[child]
            out[node] = vars_here
        return out


def htd_from_ordering(
    hypergraph: Hypergraph, ordering
) -> HypertreeDecomposition:
    """An always-valid hypertree decomposition from an elimination
    ordering (hw upper-bound constructor).

    Bucket elimination provides the skeleton; bags are then grown to a
    fixpoint: (1) greedily re-cover every bag, (2) pull every λ-vertex
    that occurs in the node's subtree into the bag (descendant
    condition), (3) close each vertex's occurrence set upward to its
    ancestors (connectedness).  Steps (2)–(3) only add vertices already
    in the subtree's variable set, which is therefore invariant, so the
    loop terminates; the result satisfies all four hypertree conditions.
    """
    from ..setcover.greedy import greedy_set_cover
    from .elimination import bucket_elimination

    td = bucket_elimination(hypergraph, ordering)
    htd = HypertreeDecomposition(
        root=ordering[-1] if len(ordering) else None
    )
    for node in td.nodes:
        htd.add_node(node, bag=td.bag(node), cover=())
    for a, b in td.tree_edges():
        htd.add_tree_edge(a, b)
    if htd.num_nodes == 0:
        return htd
    root = htd.effective_root()
    htd.root = root
    parents = htd.rooted_parents(root)
    depths = htd.depths(root)
    order = htd.topological_order(root)
    subtree_vars = htd.subtree_variables(root)  # invariant, see docstring
    edges = hypergraph.edges

    changed = True
    while changed:
        changed = False
        # (1) cover current bags
        for node in order:
            htd.set_cover(node, greedy_set_cover(htd.bag(node), hypergraph))
        # (2) descendant condition: pull leaked λ-vertices into bags
        for node in order:
            lambda_vars: set = set()
            for name in htd.cover(node):
                lambda_vars |= edges[name]
            extension = (lambda_vars & subtree_vars[node]) - htd.bag(node)
            if extension:
                htd.set_bag(node, htd.bag(node) | extension)
                changed = True
        # (3) connectedness: close occurrences upward toward the root
        holders: dict = {}
        for node in order:
            for v in htd.bag(node):
                holders.setdefault(v, []).append(node)
        for vertex, nodes in holders.items():
            if len(nodes) < 2:
                continue
            # Minimal spanning subtree: union of anchor-to-holder paths.
            anchor = nodes[0]
            marked = {anchor}
            for node in nodes[1:]:
                for step in _tree_path(parents, depths, anchor, node):
                    marked.add(step)
            for node in marked:
                if vertex not in htd.bag(node):
                    htd.set_bag(node, htd.bag(node) | {vertex})
                    changed = True
    return htd


def _tree_path(parents: dict, depths: dict, a: Hashable, b: Hashable) -> list:
    """All nodes on the tree path between ``a`` and ``b`` (inclusive)."""
    path_a: list = []
    path_b: list = []
    while depths[a] > depths[b]:
        path_a.append(a)
        a = parents[a]
    while depths[b] > depths[a]:
        path_b.append(b)
        b = parents[b]
    while a != b:
        path_a.append(a)
        path_b.append(b)
        a = parents[a]
        b = parents[b]
    return path_a + [a] + path_b


def hypertree_width_upper_bound(hypergraph: Hypergraph, ordering) -> int:
    """``max |λ|`` of :func:`htd_from_ordering` — a valid hw upper bound.

    Sanity-checks the constructed decomposition and raises
    :class:`AssertionError` if the fixpoint ever produced an invalid one
    (it cannot; the check is a guard for future edits).
    """
    from ..verify.certificate import assert_certified

    htd = htd_from_ordering(hypergraph, ordering)
    assert_certified(htd, hypergraph, "repaired HTD")
    return htd.ghw_width
