"""Leaf normal form and ordering extraction (thesis Chapter 3).

Chapter 3 proves that elimination orderings are a complete search space
for generalized hypertree width: for every hypergraph H there is an
ordering σ with ``width(σ, H) = ghw(H)``.  The constructive machinery is

1. **Transform Leaf Normal Form** (Fig. 3.1): rewrite any tree
   decomposition into one where the leaves are exactly the hyperedges
   (``χ(leaf(h)) = h``) and inner labels contain a vertex only on paths
   between leaves holding it, with every new bag contained in an original
   bag (Theorem 1).
2. **dca ordering** (Lemma 13): order vertices by the depth of the
   deepest common ancestor of the leaves containing them; eliminating in
   decreasing-depth order produces bags each contained in an original bag.

Combined with exact set covering this turns any width-k GHD into an
ordering of GHD-width at most k (Theorems 2 and 3).
"""

from __future__ import annotations

from collections.abc import Hashable

from ..hypergraph.graph import Vertex
from ..hypergraph.hypergraph import Hypergraph
from ..verify.certificate import check_td
from .tree_decomposition import DecompositionError, TreeDecomposition


def transform_leaf_normal_form(
    hypergraph: Hypergraph, td: TreeDecomposition
) -> TreeDecomposition:
    """Algorithm *Transform Leaf Normal Form* (Fig. 3.1).

    Returns a new tree decomposition of ``hypergraph`` in leaf normal
    form whose every bag is contained in some bag of ``td`` (Theorem 1).
    The hyperedge-leaves are nodes named ``("leaf", edge_name)``.
    """
    problems = check_td(td, hypergraph)
    if problems:
        raise DecompositionError(
            "input is not a tree decomposition of the hypergraph: "
            + "; ".join(p.message for p in problems)
        )
    result = td.copy()
    # Step 2: one fresh leaf per hyperedge, attached to an original node
    # whose bag contains the hyperedge.
    leaf_of: dict[Hashable, Hashable] = {}
    original_nodes = list(td.nodes)
    for name, edge in hypergraph.edges.items():
        host = next(node for node in original_nodes if edge <= td.bag(node))
        leaf = ("leaf", name)
        result.add_node(leaf, edge)
        result.add_tree_edge(leaf, host)
        leaf_of[name] = leaf
    mapped_leaves = set(leaf_of.values())
    # Step 3: repeatedly delete leaves that are not hyperedge leaves.
    changed = True
    while changed:
        changed = False
        for node in result.leaves():
            if node not in mapped_leaves and result.num_nodes > 1:
                result.remove_node(node)
                changed = True
    # Step 4: prune inner labels down to the leaf-path condition.
    _prune_inner_labels(result, mapped_leaves)
    return result


def _prune_inner_labels(td: TreeDecomposition, leaves: set) -> None:
    """Keep vertex Y in an inner bag only if the node lies on a path
    between two leaves containing Y.

    For each vertex, the union of leaf-to-leaf paths among the leaves
    holding it equals the Steiner tree of those leaves, computed as the
    union of paths from each such leaf to a fixed one.
    """
    inner = [node for node in td.nodes if node not in leaves]
    if not inner:
        return
    holders: dict[Vertex, list] = {}
    for leaf in leaves:
        for vertex in td.bag(leaf):
            holders.setdefault(vertex, []).append(leaf)
    keep: dict[Hashable, set] = {node: set() for node in inner}
    for vertex, vertex_leaves in holders.items():
        if len(vertex_leaves) < 2:
            continue
        anchor = vertex_leaves[0]
        parents = td.rooted_parents(anchor)
        marked = {anchor}
        for leaf in vertex_leaves[1:]:
            node = leaf
            while node not in marked:
                marked.add(node)
                node = parents[node]
        for node in marked:
            if node in keep:
                keep[node].add(vertex)
    for node in inner:
        td.set_bag(node, td.bag(node) & keep[node])


def is_leaf_normal_form(hypergraph: Hypergraph, td: TreeDecomposition) -> bool:
    """Check Definition 18: hyperedges ↔ leaves bijectively with equal
    labels, and inner labels satisfy the leaf-path condition."""
    leaves = td.leaves()
    edges = hypergraph.edges
    if len(leaves) != len(edges):
        return False
    # Leaf bags and hyperedges must match as multisets (a bijection with
    # equal labels exists iff the multisets coincide).
    remaining = list(edges.values())
    for leaf in leaves:
        bag = td.bag(leaf)
        if bag in remaining:
            remaining.remove(bag)
        else:
            return False
    # Inner condition.
    leaf_set = set(leaves)
    for node in td.nodes:
        if node in leaf_set:
            continue
        for vertex in td.bag(node):
            if not _on_leaf_path(td, node, vertex, leaf_set):
                return False
        # And conversely: every vertex on a leaf path must be present
        # (Definition 18 is an iff) — checked via connectedness in the
        # validity test, and re-checked here for pairs of leaves.
    for vertex in hypergraph.vertex_list():
        vertex_leaves = [lf for lf in leaves if vertex in td.bag(lf)]
        for i, a in enumerate(vertex_leaves):
            for b in vertex_leaves[i + 1:]:
                for node in td.path_between(a, b):
                    if vertex not in td.bag(node):
                        return False
    return True


def _on_leaf_path(
    td: TreeDecomposition, node: Hashable, vertex: Vertex, leaves: set
) -> bool:
    vertex_leaves = [lf for lf in leaves if vertex in td.bag(lf)]
    if len(vertex_leaves) < 2:
        return False
    anchor = vertex_leaves[0]
    parents = td.rooted_parents(anchor)
    marked = {anchor}
    for leaf in vertex_leaves[1:]:
        current = leaf
        while current not in marked:
            marked.add(current)
            current = parents[current]
    return node in marked


# ----------------------------------------------------------------------
# dca orderings (Lemma 13)
# ----------------------------------------------------------------------


def dca_ordering(
    hypergraph: Hypergraph, lnf: TreeDecomposition, root: Hashable | None = None
) -> list[Vertex]:
    """Extract an elimination ordering from a leaf-normal-form TD.

    For every hypergraph vertex v, compute the deepest common ancestor of
    the leaves whose bags contain v, and order vertices by **decreasing**
    dca depth (our orderings eliminate their first element first; the
    thesis' σ is the reverse).  By Lemma 13 every elimination bag of this
    ordering is contained in some bag of ``lnf``.
    """
    if root is None:
        root = _default_root(lnf)
    parents = lnf.rooted_parents(root)
    depths = lnf.depths(root)
    leaves = [node for node in lnf.leaves()]
    vertex_depth: dict[Vertex, int] = {}
    for vertex in hypergraph.vertex_list():
        holders = [leaf for leaf in leaves if vertex in lnf.bag(leaf)]
        if not holders:
            raise DecompositionError(
                f"vertex {vertex!r} appears in no leaf of the decomposition"
            )
        dca = holders[0]
        for leaf in holders[1:]:
            dca = _lowest_common_ancestor(parents, depths, dca, leaf)
        vertex_depth[vertex] = depths[dca]
    return sorted(
        hypergraph.vertex_list(),
        key=lambda v: (-vertex_depth[v], repr(v)),
    )


def _default_root(td: TreeDecomposition) -> Hashable:
    """Prefer an inner node as root so leaf depths are meaningful."""
    leaves = set(td.leaves())
    for node in td.nodes:
        if node not in leaves:
            return node
    return td.nodes[0]


def _lowest_common_ancestor(
    parents: dict, depths: dict, a: Hashable, b: Hashable
) -> Hashable:
    while depths[a] > depths[b]:
        a = parents[a]
    while depths[b] > depths[a]:
        b = parents[b]
    while a != b:
        a = parents[a]
        b = parents[b]
    return a


def ordering_from_decomposition(
    hypergraph: Hypergraph, td: TreeDecomposition
) -> list[Vertex]:
    """The Chapter 3 pipeline: leaf normal form, then dca ordering.

    The returned ordering's elimination bags are each contained in some
    bag of ``td`` (Lemma 13 via Theorem 1), so its treewidth-sense width
    is at most ``td.width`` and — covered exactly — its GHD-sense width
    is at most the width of any GHD refining ``td`` (Theorem 2).
    """
    lnf = transform_leaf_normal_form(hypergraph, td)
    return dca_ordering(hypergraph, lnf)
