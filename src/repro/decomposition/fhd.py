"""Fractional hypertree decompositions (Grohe & Marx).

An FHD replaces the GHD's λ-labels with *fractional* edge covers: each
node ``p`` carries a weight function γ_p mapping hyperedge names to
non-negative rationals such that every bag vertex is covered with total
weight at least 1 (``Σ_{e ∋ v} γ_p(e) ≥ 1``).  Its width is
``max_p Σ_e γ_p(e)`` — the objective of the per-bag LP whose optimum is
ρ*(χ(p)) — so ``fhw(H) ≤ ghw(H)`` always (an integral cover is a 0/1
weight function) and the gap can be real: the triangle with its three
binary edges has ghw 2 but fhw 3/2.

Weights are exact rationals (``int`` or ``fractions.Fraction``) end to
end.  Floats are rejected at construction: a float weight is always a
width bug upstream, and silently accepting one would let a rounded
"1.4999…" certificate masquerade as the exact 3/2.

The λ-label surface of the GHD base class is kept in sync with the
*support* of γ, so every GHD consumer (rendering, completion, the
duck-typed checker dispatch) sees a meaningful cover set.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from fractions import Fraction

from ..hypergraph.graph import Vertex
from ..hypergraph.hypergraph import Hypergraph
from ..widths import Width, as_width
from .elimination import bucket_elimination
from .ghd import GeneralizedHypertreeDecomposition
from .tree_decomposition import DecompositionError


def _as_weight(name: Hashable, value) -> Fraction:
    """Validate one γ entry: exact rational, never float/bool."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(
            f"fractional cover weight for edge {name!r} must be an int or "
            f"Fraction, got {type(value).__name__}"
        )
    return Fraction(value)


class FractionalHypertreeDecomposition(GeneralizedHypertreeDecomposition):
    """A tree decomposition whose nodes carry fractional edge covers."""

    def __init__(self):
        super().__init__()
        self._weights: dict[Hashable, dict[Hashable, Fraction]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        node: Hashable,
        bag: Iterable = (),
        weights: Mapping[Hashable, Fraction] | None = None,
    ) -> None:
        gamma = {
            name: _as_weight(name, value)
            for name, value in dict(weights or {}).items()
        }
        super().add_node(node, bag, cover=gamma)
        self._weights[node] = gamma

    def set_weights(
        self, node: Hashable, weights: Mapping[Hashable, Fraction]
    ) -> None:
        if node not in self._weights:
            raise DecompositionError(f"unknown node: {node!r}")
        gamma = {
            name: _as_weight(name, value) for name, value in weights.items()
        }
        self._weights[node] = gamma
        self.set_cover(node, gamma)

    def weight_function(self, node: Hashable) -> dict[Hashable, Fraction]:
        """The γ-label of ``node``: hyperedge name → rational weight."""
        try:
            return dict(self._weights[node])
        except KeyError:
            raise DecompositionError(f"unknown node: {node!r}") from None

    @property
    def weight_functions(self) -> dict[Hashable, dict[Hashable, Fraction]]:
        return {node: dict(gamma) for node, gamma in self._weights.items()}

    def remove_node(self, node: Hashable) -> None:
        super().remove_node(node)
        del self._weights[node]

    def copy(self) -> "FractionalHypertreeDecomposition":
        clone = FractionalHypertreeDecomposition()
        clone._bags = dict(self._bags)
        clone._tree = {n: set(nbrs) for n, nbrs in self._tree.items()}
        clone._lambdas = dict(self._lambdas)
        clone._weights = {n: dict(g) for n, g in self._weights.items()}
        return clone

    # ------------------------------------------------------------------
    # Width
    # ------------------------------------------------------------------

    @property
    def fhw_width(self) -> Width:
        """``max_p Σ_e γ_p(e)`` — the FHD width measure (exact rational,
        collapsed to ``int`` when integral)."""
        totals = [
            sum(gamma.values(), Fraction(0))
            for gamma in self._weights.values()
        ]
        return as_width(max(totals, default=Fraction(0)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FHD(nodes={self.num_nodes}, fhw_width={self.fhw_width}, "
            f"tw_width={self.width})"
        )


def fhd_from_ordering(
    hypergraph: Hypergraph, ordering: Sequence[Vertex], engine=None
) -> FractionalHypertreeDecomposition:
    """Build a fractional hypertree decomposition from an elimination
    ordering: bucket elimination for the tree and bags, then the exact
    rational cover LP per bag for the γ-labels.

    The result's :attr:`~FractionalHypertreeDecomposition.fhw_width` is
    exactly ``width_f(ordering, H) = max_bag ρ*(bag)``, so minimizing it
    over orderings reaches ``fhw(H)`` — the certificate the fhw searches
    hand back.  ``engine`` (the
    :class:`~repro.setcover.bitcover.BitCoverEngine` of the search that
    found ``ordering``) answers each bag's LP, reusing the ones that
    search already solved.
    """
    from ..setcover.fractional import fractional_set_cover

    td = bucket_elimination(hypergraph, ordering)
    fhd = FractionalHypertreeDecomposition()
    memo: dict[frozenset, dict[Hashable, Fraction]] = {}
    for node in td.nodes:
        bag = td.bag(node)
        if bag not in memo:
            if engine is None:
                _value, weights = fractional_set_cover(bag, hypergraph)
            else:
                _value, weights = engine.fractional_cover(engine.mask_of(bag))
            memo[bag] = weights
        fhd.add_node(node, bag=bag, weights=memo[bag])
    for a, b in td.tree_edges():
        fhd.add_tree_edge(a, b)
    return fhd
