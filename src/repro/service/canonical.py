"""Canonical forms for hypergraphs: the cache key of the service layer.

The service amortizes decomposition solves across *isomorphic*
resubmissions — two clients sending the same constraint hypergraph with
different variable names must hit the same cache entry.  That needs a
key that is invariant under vertex relabelings and hyperedge renamings
(widths are isomorphism-invariant, so one answer serves the whole
class).

The construction is classic individualization–refinement on the
bipartite incidence structure:

1. **Color refinement.**  Vertices and hyperedges start in one color
   class each (edges keyed by cardinality) and are repeatedly split by
   the multiset of colors on the other side of the incidence relation —
   a degree/orbit refinement that never uses the labels themselves, so
   its fixed point is isomorphism-invariant.
2. **Individualization.**  If refinement leaves a non-singleton vertex
   class, every member of the first such class is individualized in
   turn, refinement re-run, and the recursion keeps the
   lexicographically smallest resulting edge list.  The minimum over
   all branches is a true canonical form.
3. **Automorphism pruning.**  Two leaves with equal edge lists differ
   by a proven automorphism (McKay & Piperno, "Practical graph
   isomorphism, II").  At each node the search explores one child per
   orbit of the automorphisms found so far that fix the node's
   individualized vertices, and a leaf that such an automorphism maps
   onto an earlier leaf ends the subtree below their common ancestor.
   Pruned subtrees are images of explored ones, so they hold the same
   edge lists: the minimum, the first leaf reaching it, and hence the
   key and ``vertex_order`` are exactly those of the unpruned search
   wherever that search finishes within the budget.  On an input it
   cut short it kept the best leaf seen before the cut; pruning
   finishes such inputs, so their key is now the true canonical one,
   which differs unless that leaf already held the minimum (it does
   for K12 and K6,6, whose leaves all share one edge list).

The search is budgeted (``max_branch_nodes``): refinement plus pruning
settles cliques, strongly regular graphs and hypercubes in under a
hundred nodes, but the tree is still exponential in the worst case.
Once the budget runs out the form keeps the best leaf seen, or, when no
leaf was reached, completes the ordering by the refined colors with a
deterministic label-based tie-break.  Either way the key is stable for
the *same labeled* input but no longer relabel-invariant, and
``CanonicalForm.canonical`` is False; it is True only when the tree was
fully explored or pruned by proven automorphisms alone.  Soundness never
depends on it: the cache stores the canonical edge list with each entry
and treats a key collision with a different edge list as a miss, so a
hash collision (or a truncated search) can only cost a cache hit, never
a wrong answer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph

# Individualization branch budget: refinement discretizes almost every
# irregular instance immediately, so the budget only bites on highly
# symmetric inputs (cliques, projective planes at scale).
DEFAULT_BRANCH_BUDGET = 20_000


@dataclass(frozen=True)
class CanonicalForm:
    """A hypergraph reduced to canonical coordinates.

    ``vertex_order[i]`` is the original vertex with canonical index
    ``i`` — the isomorphism out of canonical space, used to map cached
    certificate orderings onto a newly submitted isomorphic instance.
    ``edges`` is the canonical edge list (sorted tuples of canonical
    indices, sorted lexicographically, multiplicity preserved); ``key``
    is its SHA-256 over a fixed serialization, so it is stable across
    runs, platforms and ``PYTHONHASHSEED``.  ``canonical`` is False when
    the branch budget cut the search short, so the key may differ
    between isomorphic inputs.
    """

    key: str
    num_vertices: int
    edges: tuple[tuple[int, ...], ...]
    vertex_order: tuple
    canonical: bool

    def map_ordering_out(self, canonical_ordering) -> list:
        """Translate an ordering over canonical indices to this
        instance's own vertex labels."""
        return [self.vertex_order[i] for i in canonical_ordering]

    def map_ordering_in(self, ordering) -> list[int]:
        """Translate an ordering over instance labels to canonical
        indices (the form certificates are cached in)."""
        index = {v: i for i, v in enumerate(self.vertex_order)}
        return [index[v] for v in ordering]


def canonical_key(structure: Graph | Hypergraph, **kwargs) -> str:
    """Shorthand for ``canonical_form(structure).key``."""
    return canonical_form(structure, **kwargs).key


def canonical_form(
    structure: Graph | Hypergraph,
    max_branch_nodes: int = DEFAULT_BRANCH_BUDGET,
) -> CanonicalForm:
    """Compute the canonical form of a graph or hypergraph.

    Graphs are viewed as 2-uniform hypergraphs (edge identity carries no
    information either way).  The result depends only on the abstract
    incidence structure: vertex labels, hyperedge names, and insertion
    orders are all erased.
    """
    if isinstance(structure, Graph):
        vertices = structure.vertex_list()
        index = {v: i for i, v in enumerate(vertices)}
        edges = [
            frozenset((index[u], index[v])) for u, v in structure.edges()
        ]
    else:
        vertices = structure.vertex_list()
        index = {v: i for i, v in enumerate(vertices)}
        edges = [
            frozenset(index[v] for v in members)
            for members in structure.edges.values()
        ]
    searcher = _CanonicalSearch(
        len(vertices), edges, max_branch_nodes=max_branch_nodes
    )
    perm, canonical = searcher.run()
    # ``perm[i]`` is the canonical index of internal vertex ``i``.
    order = [None] * len(vertices)
    for i, v in enumerate(vertices):
        order[perm[i]] = v
    canon_edges = _apply(edges, perm)
    return CanonicalForm(
        key=_digest(len(vertices), canon_edges),
        num_vertices=len(vertices),
        edges=canon_edges,
        vertex_order=tuple(order),
        canonical=canonical,
    )


def _digest(n: int, edges: tuple[tuple[int, ...], ...]) -> str:
    text = f"{n};" + ";".join(
        ",".join(str(i) for i in edge) for edge in edges
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _apply(
    edges: list[frozenset], perm: list[int]
) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(
        tuple(sorted(perm[v] for v in edge)) for edge in edges
    ))


class _CanonicalSearch:
    """Individualization–refinement over internal vertex indices."""

    def __init__(
        self, n: int, edges: list[frozenset], max_branch_nodes: int
    ):
        self.n = n
        self.edges = edges
        self.incidence: list[list[int]] = [[] for _ in range(n)]
        for j, edge in enumerate(edges):
            for v in edge:
                self.incidence[v].append(j)
        self.budget = max_branch_nodes
        self.truncated = False
        self.best: tuple[tuple[int, ...], ...] | None = None
        self.best_perm: list[int] | None = None
        self.best_inverse: list[int] | None = None
        self.best_path: tuple[int, ...] = ()
        # Proven automorphisms as (images, bitmask of fixed points).
        self.generators: list[tuple[list[int], int]] = []
        self.path: list[int] = []
        self.path_mask = 0

    # -- color refinement ----------------------------------------------

    def refine(
        self, vcolors: list[int], individualized: int | None = None
    ) -> list[int]:
        """Fixed point of bipartite color refinement from ``vcolors``.

        Colors are renumbered canonically every round (by sorted
        signature), so the resulting coloring depends only on the input
        coloring's *partition*, never on label order.
        """
        if individualized is not None:
            vcolors = list(vcolors)
            # A fresh color distinguishable from every other: signatures
            # are renumbered from sorted order, so tagging with a bool
            # keeps the renumbering label-free.
            vcolors[individualized] = -1
            vcolors = _renumber(
                [(c == -1, c) for c in vcolors]
            )
        ecolors = [len(edge) for edge in self.edges]
        ecolors = _renumber([(c,) for c in ecolors])
        previous = -1
        while True:
            ecolors = _renumber([
                (ecolors[j], tuple(sorted(vcolors[v] for v in self.edges[j])))
                for j in range(len(self.edges))
            ])
            vcolors = _renumber([
                (
                    vcolors[v],
                    tuple(sorted(ecolors[j] for j in self.incidence[v])),
                )
                for v in range(self.n)
            ])
            classes = len(set(vcolors)) + len(set(ecolors))
            if classes == previous:
                return vcolors
            previous = classes

    # -- canonical search ----------------------------------------------

    def run(self) -> tuple[list[int], bool]:
        vcolors = self.refine([0] * self.n)
        if self.budget > 0:
            self._search(vcolors)
        else:
            self.truncated = True
        if self.best_perm is not None:
            return self.best_perm, not self.truncated
        # Budget exhausted before any branch reached a discrete
        # coloring: fall back to refined colors with a deterministic
        # label-order tie-break (stable per labeled input, not
        # relabel-invariant — flagged via ``canonical=False``).
        perm = _rank([(vcolors[i], i) for i in range(self.n)])
        return perm, False

    def _search(self, vcolors: list[int]) -> int:
        """Explore the subtree at ``self.path`` and return the depth at
        which the search resumes: normally the parent's, shallower when
        a leaf proved an ancestor's whole subtree to be an automorphic
        image of one already explored (``-1`` unwinds everything)."""
        self.budget -= 1
        depth = len(self.path)
        cell = _first_nonsingleton_cell(vcolors)
        if cell is None:
            return self._leaf(vcolors)
        orbits = _Orbits(cell)
        for vertex in cell:
            orbits.update(self.generators, self.path_mask)
            if orbits.find(vertex) != vertex:
                # A proven automorphism fixing the path maps an earlier
                # child onto this one: same leaf candidates, same minimum.
                continue
            if self.budget <= 0:
                self.truncated = True
                return -1
            self.path.append(vertex)
            self.path_mask |= 1 << vertex
            resume = self._search(self.refine(vcolors, individualized=vertex))
            self.path.pop()
            self.path_mask &= ~(1 << vertex)
            if resume < depth:
                return resume
        return depth - 1

    def _leaf(self, vcolors: list[int]) -> int:
        # A discrete coloring is dense in 0..n-1, so it is the
        # permutation: ``perm[v]`` is the canonical index of ``v``.
        perm = vcolors
        candidate = _apply(self.edges, perm)
        path = tuple(self.path)
        resume = len(path) - 1
        if self.best is None or candidate < self.best:
            self.best = candidate
            self.best_perm = perm
            self.best_inverse = _inverse(perm)
            self.best_path = path
            return resume
        if candidate != self.best:
            return resume
        # Equal candidates: ``gamma`` maps this leaf's labelling onto the
        # best leaf's, so it is an automorphism.
        gamma = [self.best_inverse[perm[v]] for v in range(self.n)]
        self._add_generator(gamma)
        best_path = self.best_path
        if len(path) == len(best_path) and all(
            gamma[v] == b for v, b in zip(path, best_path)
        ):
            # ``gamma`` maps this path onto the best leaf's, so the
            # subtree below their common prefix is the image of the
            # (earlier, finished) one holding the best leaf.
            common = 0
            while path[common] == best_path[common]:
                common += 1
            resume = common
        return resume

    def _add_generator(self, gamma: list[int]) -> None:
        fixed = 0
        for v, image in enumerate(gamma):
            if image == v:
                fixed |= 1 << v
        if fixed != (1 << self.n) - 1:
            self.generators.append((gamma, fixed))


class _Orbits:
    """Orbits of a target cell under the recorded automorphisms that fix
    the current path pointwise; grown incrementally as generators are
    found, with each orbit's smallest vertex as its root."""

    def __init__(self, cell: list[int]):
        self.parent = {v: v for v in cell}
        self.seen = 0

    def update(self, generators: list, path_mask: int) -> None:
        for gamma, fixed in generators[self.seen:]:
            if path_mask & ~fixed:
                continue
            for v in self.parent:
                a, b = self.find(v), self.find(gamma[v])
                if a != b:
                    self.parent[max(a, b)] = min(a, b)
        self.seen = len(generators)

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v


def _renumber(signatures: list) -> list[int]:
    """Map signatures to dense ints by sorted signature order."""
    mapping = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [mapping[sig] for sig in signatures]


def _rank(keys: list) -> list[int]:
    """Permutation assigning canonical index ``rank of keys[i]`` to
    vertex ``i`` (keys must be unique)."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    perm = [0] * len(keys)
    for rank, i in enumerate(order):
        perm[i] = rank
    return perm


def _inverse(perm: list[int]) -> list[int]:
    inverse = [0] * len(perm)
    for v, image in enumerate(perm):
        inverse[image] = v
    return inverse


def _first_nonsingleton_cell(vcolors: list[int]) -> list[int] | None:
    """Members of the smallest-colored class with ≥2 members, or None
    when the coloring is discrete."""
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(vcolors):
        by_color.setdefault(c, []).append(v)
    for color in sorted(by_color):
        if len(by_color[color]) > 1:
            return by_color[color]
    return None
