"""Generalized hypertree decompositions (thesis Definition 13).

A GHD extends a tree decomposition with λ-labels: each node additionally
carries a set of hyperedge *names* whose union must contain the node's bag
(χ ⊆ vars(λ)).  Its width is ``max |λ(p)|`` — the number of constraints per
subproblem, a sharper complexity measure than bag size.

This module also implements *completion* (Definition 14 / Lemma 2): turning
any GHD into a complete GHD — one where every hyperedge ``h`` has a node
with ``h ⊆ χ(p)`` and ``h ∈ λ(p)`` — without increasing the width, which is
what CSP solving from a GHD requires.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from ..hypergraph.hypergraph import Hypergraph
from .tree_decomposition import DecompositionError, TreeDecomposition


class GeneralizedHypertreeDecomposition(TreeDecomposition):
    """A tree decomposition whose nodes also carry λ-labels (edge names)."""

    def __init__(self):
        super().__init__()
        self._lambdas: dict[Hashable, frozenset] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        node: Hashable,
        bag: Iterable = (),
        cover: Iterable[Hashable] = (),
    ) -> None:
        super().add_node(node, bag)
        self._lambdas[node] = frozenset(cover)

    def set_cover(self, node: Hashable, cover: Iterable[Hashable]) -> None:
        if node not in self._lambdas:
            raise DecompositionError(f"unknown node: {node!r}")
        self._lambdas[node] = frozenset(cover)

    def cover(self, node: Hashable) -> frozenset:
        """The λ-label of ``node``: a frozen set of hyperedge names."""
        try:
            return self._lambdas[node]
        except KeyError:
            raise DecompositionError(f"unknown node: {node!r}") from None

    @property
    def covers(self) -> dict[Hashable, frozenset]:
        return dict(self._lambdas)

    def remove_node(self, node: Hashable) -> None:
        super().remove_node(node)
        del self._lambdas[node]

    def copy(self) -> "GeneralizedHypertreeDecomposition":
        clone = GeneralizedHypertreeDecomposition()
        clone._bags = dict(self._bags)
        clone._tree = {n: set(nbrs) for n, nbrs in self._tree.items()}
        clone._lambdas = dict(self._lambdas)
        return clone

    # ------------------------------------------------------------------
    # Width & validity
    # ------------------------------------------------------------------

    @property
    def ghw_width(self) -> int:
        """``max |λ(p)|`` over all nodes — the GHD width measure."""
        return max((len(lam) for lam in self._lambdas.values()), default=0)

    def is_complete(self, hypergraph: Hypergraph) -> bool:
        """Definition 14: every hyperedge has a node that both contains it
        in the bag and lists it in λ."""
        for name, edge in hypergraph.edges.items():
            if not any(
                edge <= self.bag(node) and name in self._lambdas[node]
                for node in self.nodes
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # Completion (Lemma 2)
    # ------------------------------------------------------------------

    def completed(self, hypergraph: Hypergraph) -> "GeneralizedHypertreeDecomposition":
        """Return an equal-width *complete* GHD (Lemma 2).

        For every hyperedge ``h`` lacking a witnessing node, attach a fresh
        node with ``χ = h`` and ``λ = {h}`` to any node whose bag contains
        ``h`` (one exists by TD condition 1).  Width never increases since
        the new λ-labels are singletons.
        """
        result = self.copy()
        edges = hypergraph.edges
        counter = 0
        for name, edge in edges.items():
            if any(
                edge <= result.bag(node) and name in result._lambdas[node]
                for node in result.nodes
            ):
                continue
            host = next(
                (node for node in result.nodes if edge <= result.bag(node)), None
            )
            if host is None:
                raise DecompositionError(
                    f"hyperedge {name!r} is not contained in any bag; "
                    "not a tree decomposition of the hypergraph"
                )
            fresh = ("complete", name, counter)
            counter += 1
            result.add_node(fresh, bag=edge, cover=[name])
            result.add_tree_edge(fresh, host)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GHD(nodes={self.num_nodes}, ghw_width={self.ghw_width}, "
            f"tw_width={self.width})"
        )
