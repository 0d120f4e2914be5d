"""Solving CSPs from tree decompositions and generalized hypertree
decompositions (thesis §2.4, Figs. 2.8–2.9).

Both routes transform the CSP into a solution-equivalent acyclic CSP
whose join tree is the decomposition, then run Acyclic Solving:

* **From a tree decomposition** (Join Tree Clustering, Fig. 2.8): place
  every constraint at a node whose bag contains its scope; per node,
  enumerate all bag-variable assignments consistent with the placed
  constraints (cost O(d^(w+1)) per node — the treewidth guarantee).

* **From a complete GHD** (Fig. 2.9): per node, join the λ-relations and
  project onto the bag (cost O(|I|^(λ-width)) — the ghw guarantee; no
  domain enumeration at all).
"""

from __future__ import annotations

from collections.abc import Hashable

from ..decomposition.ghd import GeneralizedHypertreeDecomposition
from ..decomposition.tree_decomposition import TreeDecomposition
from ..telemetry import NULL_TRACER
from .acyclic import JoinTree, acyclic_solving
from .csp import CSP, CSPError
from .relation import Relation, cartesian_relation


def _constrained_hypergraph(csp: CSP) -> "object":
    """The constraint hypergraph restricted to constrained variables.

    Variables in no constraint scope (Tasmania in the Australia example)
    cannot appear in any GHD bag — they are decomposed away and assigned
    an arbitrary domain value after Acyclic Solving.
    """
    hypergraph = csp.constraint_hypergraph()
    for vertex in sorted(hypergraph.isolated_vertices(), key=repr):
        hypergraph.remove_vertex(vertex)
    return hypergraph


def _decomposition_join_tree(td: TreeDecomposition) -> JoinTree:
    """Wrap the decomposition's tree as a JoinTree rooted at its first
    node (relations attached later)."""
    nodes = td.nodes
    if not nodes:
        raise CSPError("decomposition has no nodes")
    root = nodes[0]
    tree = JoinTree(root)
    parents = td.rooted_parents(root)
    for node in td.topological_order(root)[1:]:
        tree.add_child(parents[node], node)
    return tree


def solve_from_tree_decomposition(
    csp: CSP, td: TreeDecomposition, tracer=NULL_TRACER
) -> dict | None:
    """Join Tree Clustering (Fig. 2.8): solve ``csp`` using a tree
    decomposition of its constraint hypergraph.

    Raises :class:`CSPError` when ``td`` is not a valid tree
    decomposition of the CSP's constraint hypergraph.
    """
    from ..verify.certificate import check_td

    hypergraph = _constrained_hypergraph(csp)
    problems = check_td(td, hypergraph)
    if problems:
        raise CSPError(
            "not a tree decomposition of the constraint hypergraph: "
            + "; ".join(p.message for p in problems)
        )
    tracing = bool(getattr(tracer, "enabled", False))
    with tracer.span(
        "csp.jtc", nodes=len(td.nodes), constraints=len(csp.constraints)
    ):
        tree = _decomposition_join_tree(td)
        # 1. Place every constraint at one node containing its scope.
        placement: dict[Hashable, list] = {node: [] for node in td.nodes}
        for constraint in csp.constraints:
            scope = frozenset(constraint.scope)
            host = next(node for node in td.nodes if scope <= td.bag(node))
            placement[host].append(constraint)
        # 2. Solve every subproblem: all consistent bag assignments.
        for node in td.nodes:
            bag = sorted(td.bag(node), key=repr)
            relation = cartesian_relation(bag, csp.domains)
            for constraint in placement[node]:
                relation = relation.natural_join(constraint.relation)
                relation = relation.project(bag)
            tree.set_relation(node, relation)
            if tracing:
                # Per-node cost evidence: the O(d^(w+1)) guarantee shows
                # up as the enumerated relation's row count.
                tracer.metric(
                    "csp_node", bag=len(bag), rows=len(relation)
                )
        # 3. Acyclic Solving on the resulting join tree.
        with tracer.span("csp.acyclic_solving"):
            assignment = acyclic_solving(tree)
        if tracing:
            tracer.event("csp_solved", satisfiable=assignment is not None)
        if assignment is None:
            return None
        for variable in csp.variables:
            assignment.setdefault(variable, csp.domains[variable][0])
        return assignment


def solve_from_ghd(
    csp: CSP, ghd: GeneralizedHypertreeDecomposition, tracer=NULL_TRACER
) -> dict | None:
    """Solve ``csp`` from a generalized hypertree decomposition of its
    constraint hypergraph (Fig. 2.9).

    The GHD is completed first (Lemma 2) so that every constraint is
    enforced; λ-labels must name constraints of the CSP.  Per node the
    relation is ``π_bag( ⨝ λ-relations )`` — no domain enumeration, which
    is the whole point of hypertree decompositions for databases.
    """
    from ..verify.certificate import check_ghd

    hypergraph = _constrained_hypergraph(csp)
    problems = check_ghd(ghd, hypergraph)
    if problems:
        raise CSPError(
            "not a GHD of the constraint hypergraph: "
            + "; ".join(p.message for p in problems)
        )
    tracing = bool(getattr(tracer, "enabled", False))
    with tracer.span(
        "csp.ghd_solve", nodes=len(ghd.nodes),
        constraints=len(csp.constraints),
    ):
        complete = ghd.completed(hypergraph)
        tree = _decomposition_join_tree(complete)
        constraint_by_name = {c.name: c for c in csp.constraints}
        for node in complete.nodes:
            bag = sorted(complete.bag(node), key=repr)
            relation: Relation | None = None
            cover = sorted(complete.cover(node), key=repr)
            for name in cover:
                constraint = constraint_by_name[name]
                relation = (
                    constraint.relation
                    if relation is None
                    else relation.natural_join(constraint.relation)
                )
            if relation is None:
                # Empty λ is only legal for empty bags; attach the trivial
                # relation so the join tree stays total.
                relation = Relation((), [()])
            relation = relation.project(bag)
            tree.set_relation(node, relation)
            if tracing:
                # The O(|I|^λ) guarantee: joined λ-relations per node.
                tracer.metric(
                    "csp_node",
                    bag=len(bag),
                    cover=len(cover),
                    rows=len(relation),
                )
        with tracer.span("csp.acyclic_solving"):
            assignment = acyclic_solving(tree)
        if tracing:
            tracer.event("csp_solved", satisfiable=assignment is not None)
        if assignment is None:
            return None
        for variable in csp.variables:
            assignment.setdefault(variable, csp.domains[variable][0])
        return assignment


def solve(csp: CSP, method: str = "ghd", tracer=NULL_TRACER) -> dict | None:
    """One-call solver: decompose the constraint hypergraph with the
    min-fill heuristic and solve from the resulting decomposition.

    ``method``: ``"ghd"`` (bucket elimination + greedy covers, Fig. 2.9),
    ``"td"`` (bucket elimination, Fig. 2.8) or ``"backtracking"``.

    ``tracer`` traces the two phases (decomposition, then the per-node
    relational work) into the same record stream the width searches use.
    """
    if method == "backtracking":
        return csp.solve_backtracking()
    from ..bounds.upper import min_fill_ordering
    from ..decomposition.elimination import bucket_elimination, ghd_from_ordering

    hypergraph = _constrained_hypergraph(csp)
    if hypergraph.num_edges == 0:
        return {v: csp.domains[v][0] for v in csp.variables}
    with tracer.span(
        "csp.decompose",
        variables=len(csp.variables),
        edges=hypergraph.num_edges,
        method=method,
    ):
        ordering = min_fill_ordering(hypergraph)
        if method == "td":
            td = bucket_elimination(hypergraph, ordering)
        elif method == "ghd":
            ghd = ghd_from_ordering(hypergraph, ordering)
        else:
            raise ValueError(f"unknown method {method!r}")
    if method == "td":
        return solve_from_tree_decomposition(csp, td, tracer=tracer)
    return solve_from_ghd(csp, ghd, tracer=tracer)
