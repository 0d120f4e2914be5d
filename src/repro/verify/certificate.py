"""First-class decomposition certificates: structured violations and
full checkers for the three decomposition classes.

Every solver in this package ultimately witnesses its width claim with a
decomposition (or an ordering that deterministically builds one).
Checking that witness is itself subtle — a GHD needs the bag-cover
condition χ(p) ⊆ vars(λ(p)) on top of the tree-decomposition conditions
(Fischl, Gottlob & Pichler), and a hypertree decomposition proper
additionally needs the descendant condition of Gottlob–Leone–Scarcello,
which is what makes bounded hypertree width tractable.  This module is
the single source of truth for all of those checks:

* :func:`check_td` — the two tree-decomposition conditions (edge
  coverage and vertex connectedness) plus tree-shape sanity.
* :func:`check_ghd` — :func:`check_td` plus λ-name sanity and the
  bag-cover condition, with optional width accounting.
* :func:`check_htd` — :func:`check_ghd` plus the rooted descendant
  condition ``vars(λ(p)) ∩ χ(T_p) ⊆ χ(p)``.
* :func:`check_fhd` — :func:`check_td` plus γ-weight sanity (exact
  non-negative rationals over known hyperedges), per-vertex fractional
  coverage ≥ 1, and the γ-width against a width claim.

Checkers return lists of :class:`Violation` — structured objects with a
machine-readable ``kind``, the witnessing nodes/vertices/edges, and a
human-readable message.  They check the covers a decomposition carries
and never compute one: no set cover, no LP.  That is enough for
fractional widths too — if every bag vertex has γ-coverage ≥ 1, then γ_p
is a feasible fractional cover of χ(p), so ρ*(χ(p)) ≤ Σγ_p ≤ the claim.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from fractions import Fraction

from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from ..widths import Width, as_width, format_width

# ----------------------------------------------------------------------
# Violation kinds (machine-readable; messages stay human-readable)
# ----------------------------------------------------------------------

NOT_A_TREE = "not-a-tree"
EDGE_UNCOVERED = "edge-uncovered"
VERTEX_UNCOVERED = "vertex-uncovered"
VERTEX_DISCONNECTED = "vertex-disconnected"
UNKNOWN_LAMBDA_EDGE = "unknown-lambda-edge"
BAG_NOT_COVERED = "bag-not-covered"
DESCENDANT_CONDITION = "descendant-condition"
FRACTIONAL_WEIGHT_INVALID = "fractional-weight-invalid"
WIDTH_OVERCLAIM = "width-overclaim"

ALL_KINDS = frozenset({
    NOT_A_TREE,
    EDGE_UNCOVERED,
    VERTEX_UNCOVERED,
    VERTEX_DISCONNECTED,
    UNKNOWN_LAMBDA_EDGE,
    BAG_NOT_COVERED,
    DESCENDANT_CONDITION,
    FRACTIONAL_WEIGHT_INVALID,
    WIDTH_OVERCLAIM,
})


@dataclass(frozen=True)
class Violation:
    """One broken decomposition condition, with its witness.

    Attributes:
        kind: machine-readable condition tag (one of :data:`ALL_KINDS`).
        message: human-readable description.
        nodes: decomposition nodes witnessing the violation.
        vertices: structure vertices witnessing the violation.
        edges: hyperedge names (or graph-edge labels) involved.
    """

    kind: str
    message: str
    nodes: tuple = ()
    vertices: tuple = ()
    edges: tuple = ()

    def __str__(self) -> str:
        return self.message


@dataclass
class Certificate:
    """A checked decomposition: the claimed width, the measured width and
    every violation found.  ``valid`` means the structural conditions
    hold; ``ok`` additionally requires the width claim to be honest."""

    claimed_width: Width | None
    measured_width: Width
    violations: list[Violation] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not any(v.kind != WIDTH_OVERCLAIM for v in self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# Tree decompositions
# ----------------------------------------------------------------------


def check_td(
    td, structure: Graph | Hypergraph, claimed_width: int | None = None
) -> list[Violation]:
    """All tree-decomposition violations of ``td`` against ``structure``.

    Checks, in order: the node graph is a tree; every (hyper)edge is
    contained in some bag; every vertex occurs in some bag and its
    occurrence nodes induce a connected subtree.  With ``claimed_width``
    the bag-size width (``max |χ| - 1``) may not exceed the claim.
    """
    problems: list[Violation] = []
    if not td.is_tree():
        problems.append(Violation(NOT_A_TREE, "node graph is not a tree"))
    bags = td.bags
    bag_values = list(bags.values())
    for label, members in _edge_sets(structure):
        if not any(members <= bag for bag in bag_values):
            problems.append(
                Violation(
                    EDGE_UNCOVERED,
                    f"edge {label} is not contained in any bag",
                    vertices=tuple(sorted(members, key=repr)),
                    edges=(label,),
                )
            )
    for vertex in structure.vertex_list():
        holders = [node for node, bag in bags.items() if vertex in bag]
        if not holders:
            problems.append(
                Violation(
                    VERTEX_UNCOVERED,
                    f"vertex {vertex!r} appears in no bag",
                    vertices=(vertex,),
                )
            )
        elif not _nodes_connected(td, holders):
            problems.append(
                Violation(
                    VERTEX_DISCONNECTED,
                    f"vertex {vertex!r} violates the connectedness condition",
                    nodes=tuple(holders),
                    vertices=(vertex,),
                )
            )
    if claimed_width is not None:
        measured = td.width
        if measured > claimed_width:
            problems.append(_width_overclaim("bag", claimed_width, measured))
    return problems


# ----------------------------------------------------------------------
# Generalized hypertree decompositions
# ----------------------------------------------------------------------


def check_ghd(
    ghd, hypergraph: Hypergraph, claimed_width: int | None = None
) -> list[Violation]:
    """Tree-decomposition violations plus the GHD bag-cover condition
    χ(p) ⊆ vars(λ(p)) and λ-name sanity.

    With ``claimed_width`` the λ-width (``max |λ|``) may not exceed the
    claim (the tree-decomposition bag width is *not* the GHD measure, so
    it is deliberately left unchecked here).
    """
    if not isinstance(hypergraph, Hypergraph):
        raise TypeError("GHD validation requires a Hypergraph")
    problems = check_td(ghd, hypergraph)
    edges = hypergraph.edges
    for node, lam in ghd.covers.items():
        unknown = [name for name in lam if name not in edges]
        if unknown:
            problems.append(
                Violation(
                    UNKNOWN_LAMBDA_EDGE,
                    f"node {node!r} covers unknown hyperedges {unknown!r}",
                    nodes=(node,),
                    edges=tuple(unknown),
                )
            )
            continue
        covered: set = set()
        for name in lam:
            covered |= edges[name]
        missing = ghd.bag(node) - covered
        if missing:
            problems.append(
                Violation(
                    BAG_NOT_COVERED,
                    f"node {node!r}: bag vertices "
                    f"{sorted(map(repr, missing))} not covered by λ",
                    nodes=(node,),
                    vertices=tuple(sorted(missing, key=repr)),
                    edges=tuple(sorted(lam, key=repr)),
                )
            )
    if claimed_width is not None:
        measured = ghd.ghw_width
        if measured > claimed_width:
            problems.append(_width_overclaim("λ", claimed_width, measured))
    return problems


# ----------------------------------------------------------------------
# Hypertree decompositions proper
# ----------------------------------------------------------------------


def check_htd(
    htd,
    hypergraph: Hypergraph,
    root: Hashable | None = None,
    claimed_width: int | None = None,
) -> list[Violation]:
    """GHD violations plus the rooted descendant condition.

    ``root`` defaults to the decomposition's own root
    (``effective_root()``) when it has one, else its first node.  The
    descendant check is skipped on an empty or non-tree node graph —
    the :data:`NOT_A_TREE` violation already covers those, and subtree
    variables are undefined without a tree.
    """
    problems = check_ghd(htd, hypergraph, claimed_width=claimed_width)
    if htd.num_nodes == 0 or not htd.is_tree():
        return problems
    if root is None:
        effective = getattr(htd, "effective_root", None)
        root = effective() if callable(effective) else htd.nodes[0]
    problems.extend(_descendant_violations(htd, hypergraph, root))
    return problems


def _descendant_violations(htd, hypergraph: Hypergraph, root) -> list[Violation]:
    problems: list[Violation] = []
    subtree_vars = _subtree_variables(htd, root)
    edges = hypergraph.edges
    for node in htd.topological_order(root):
        lambda_vars: set = set()
        for name in htd.cover(node):
            if name in edges:
                lambda_vars |= edges[name]
        leaked = (lambda_vars & subtree_vars[node]) - htd.bag(node)
        if leaked:
            problems.append(
                Violation(
                    DESCENDANT_CONDITION,
                    f"node {node!r} violates the descendant condition: "
                    f"λ-vertices {sorted(map(repr, leaked))} reappear in "
                    "its subtree but not in its bag",
                    nodes=(node,),
                    vertices=tuple(sorted(leaked, key=repr)),
                )
            )
    return problems


# ----------------------------------------------------------------------
# Fractional hypertree decompositions
# ----------------------------------------------------------------------


def check_fhd(
    fhd, hypergraph: Hypergraph, claimed_width: Width | None = None
) -> list[Violation]:
    """Tree-decomposition violations plus the FHD conditions.

    Per node: every γ-weighted name is a real hyperedge, every weight is
    an exact non-negative rational (``int`` or ``Fraction`` — a float
    weight is flagged, never coerced), and every bag vertex is covered
    with total weight at least 1.  With ``claimed_width`` the measured
    γ-width (``max Σγ``) may not exceed the claim.  Feasible weights make
    that sufficient: ρ*(χ(p)) ≤ Σγ_p for every node, so a decomposition
    that passes at claim c has fractional width at most c.
    """
    if not isinstance(hypergraph, Hypergraph):
        raise TypeError("FHD validation requires a Hypergraph")
    problems = check_td(fhd, hypergraph)
    edges = hypergraph.edges
    for node, gamma in fhd.weight_functions.items():
        unknown = [name for name in gamma if name not in edges]
        if unknown:
            problems.append(
                Violation(
                    UNKNOWN_LAMBDA_EDGE,
                    f"node {node!r} weights unknown hyperedges {unknown!r}",
                    nodes=(node,),
                    edges=tuple(unknown),
                )
            )
            continue
        bad = sorted(
            (
                name
                for name, weight in gamma.items()
                if isinstance(weight, bool)
                or not isinstance(weight, (int, Fraction))
                or weight < 0
            ),
            key=repr,
        )
        if bad:
            problems.append(
                Violation(
                    FRACTIONAL_WEIGHT_INVALID,
                    f"node {node!r}: weights for edges "
                    f"{sorted(map(repr, bad))} are not non-negative exact "
                    "rationals",
                    nodes=(node,),
                    edges=tuple(bad),
                )
            )
            continue
        uncovered = [
            vertex
            for vertex in fhd.bag(node)
            if sum(
                (gamma[name] for name in gamma if vertex in edges[name]),
                Fraction(0),
            ) < 1
        ]
        if uncovered:
            problems.append(
                Violation(
                    BAG_NOT_COVERED,
                    f"node {node!r}: bag vertices "
                    f"{sorted(map(repr, uncovered))} have fractional "
                    "coverage below 1",
                    nodes=(node,),
                    vertices=tuple(sorted(uncovered, key=repr)),
                    edges=tuple(sorted(gamma, key=repr)),
                )
            )
    if claimed_width is not None:
        claimed = as_width(claimed_width)
        measured = _fhw_measure(fhd)
        if measured > claimed:
            problems.append(_width_overclaim("γ", claimed, measured))
    return problems


def _fhw_measure(fhd) -> Width:
    """``max Σγ`` over nodes, skipping entries already flagged as
    non-rational so one bad weight cannot crash the width accounting."""
    best = Fraction(0)
    for gamma in fhd.weight_functions.values():
        total = Fraction(0)
        for weight in gamma.values():
            if isinstance(weight, bool) or not isinstance(
                weight, (int, Fraction)
            ):
                break
            total += weight
        else:
            if total > best:
                best = total
    return as_width(best)


# ----------------------------------------------------------------------
# Dispatch + certificates
# ----------------------------------------------------------------------


def check_decomposition(
    decomposition, structure: Graph | Hypergraph,
    claimed_width: int | None = None,
) -> list[Violation]:
    """Run the strictest checker the decomposition's type supports.

    Dispatches on duck type: anything with a γ-weight surface
    (``weight_functions``) is checked as an FHD, anything with a λ-label
    surface (``covers``) as a GHD, anything that additionally roots
    itself (``effective_root``) as an HTD, and everything else as a
    plain tree decomposition.
    """
    if hasattr(decomposition, "weight_functions"):
        return check_fhd(decomposition, structure, claimed_width=claimed_width)
    if hasattr(decomposition, "effective_root"):
        return check_htd(decomposition, structure, claimed_width=claimed_width)
    if hasattr(decomposition, "covers"):
        return check_ghd(decomposition, structure, claimed_width=claimed_width)
    return check_td(decomposition, structure, claimed_width=claimed_width)


def assert_certified(
    decomposition, structure: Graph | Hypergraph, what: str
) -> None:
    """Raise :class:`AssertionError` when :func:`check_decomposition`
    finds a violation — the guard on decompositions that are valid by
    construction, naming the producer as ``what``."""
    problems = check_decomposition(decomposition, structure)
    if problems:
        raise AssertionError(
            f"{what} failed certification: "
            + "; ".join(p.message for p in problems)
        )


def certify(
    decomposition, structure: Graph | Hypergraph,
    claimed_width: Width | None = None,
) -> Certificate:
    """Bundle :func:`check_decomposition` with the width accounting."""
    if hasattr(decomposition, "weight_functions"):
        measured = decomposition.fhw_width
    elif hasattr(decomposition, "covers"):
        measured = decomposition.ghw_width
    else:
        measured = decomposition.width
    return Certificate(
        claimed_width=claimed_width,
        measured_width=measured,
        violations=check_decomposition(
            decomposition, structure, claimed_width=claimed_width
        ),
    )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _width_overclaim(measure: str, claimed: Width, measured: Width) -> Violation:
    return Violation(
        WIDTH_OVERCLAIM,
        f"claimed {measure}-width {format_width(claimed)} but the "
        f"decomposition measures {format_width(measured)}",
    )


def _edge_sets(structure: Graph | Hypergraph) -> list[tuple[str, frozenset]]:
    if isinstance(structure, Hypergraph):
        return [(str(name), edge) for name, edge in structure.edges.items()]
    return [(f"{u!r}-{v!r}", frozenset((u, v))) for u, v in structure.edges()]


def _nodes_connected(td, nodes: list) -> bool:
    """True iff ``nodes`` induce a connected subgraph of the node tree."""
    target = set(nodes)
    start = nodes[0]
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for other in td.tree_neighbors(node):
            if other in target and other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(target)


def _subtree_variables(htd, root) -> dict:
    """Union of bags per rooted subtree (children-first computed)."""
    parents = htd.rooted_parents(root)
    order = htd.topological_order(root)
    out: dict = {}
    for node in reversed(order):
        vars_here = set(htd.bag(node))
        for child in htd.tree_neighbors(node):
            if parents.get(child) == node:
                vars_here |= out[child]
        out[node] = vars_here
    return out
