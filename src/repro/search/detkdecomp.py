"""det-k-decomp: deciding hypertree width ≤ k (Gottlob & Samer,
"A backtracking-based algorithm for hypertree decomposition", 2009).

The thesis computes *generalized* hypertree width; hypertree width
proper (hw) — with the descendant condition — is the variant checkable
in polynomial time for fixed k, and det-k-decomp is the canonical
algorithm (its C implementation ``detkdecomp`` is the classic reference
tool).  We include it as an extension so the package covers the whole
width family: tw, ghw and hw, with ``ghw ≤ hw ≤ tw + 1``.

Sketch: ``decompose(C, Conn)`` asks whether the sub-hypergraph induced
by component edges ``C``, hanging below a bag containing the connector
vertices ``Conn``, admits a hypertree of width ≤ k.  It guesses a
separator λ of at most k edges that covers Conn and (by the normal form
of Gottlob–Leone–Scarcello) contains at least one edge of C, sets
``χ = var(λ) ∩ (var(C) ∪ Conn)``, splits the uncovered edges of C into
connected components with respect to vertices outside χ, and recurses.
Memoization on ``(C, Conn)`` keeps the procedure polynomial for fixed k.
The recursion takes k as an argument and keeps one cross-rung record
per subproblem, so opt-k-decomp (:mod:`.optkdecomp`) runs the same
core down a ladder of k; :func:`det_k_decomp` runs one rung of it.

The constructed decomposition is returned as a
:class:`~repro.decomposition.htd.HypertreeDecomposition` and satisfies
all four conditions by construction (and by the validator, in tests).
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Hashable

from ..decomposition.htd import HypertreeDecomposition
from ..hypergraph.hypergraph import Hypergraph
from ..setcover.bitcover import BitCoverEngine
from ..telemetry import NULL_TRACER, Metrics

# One optk_subproblem trace event per this many fresh subproblems.
_SUBPROBLEM_TRACE_EVERY = 64


class LadderExhausted(RuntimeError):
    """The width ladder hit its cap without finding a decomposition.

    Raised by :func:`hypertree_width` when ``max_width`` is exhausted —
    callers (the CLI in particular) must treat this as "no answer", not
    as a width result."""


class _Node:
    """One node of the decomposition under construction."""

    __slots__ = ("chi", "lam", "children")

    def __init__(self, chi: frozenset, lam: frozenset, children: list):
        self.chi = chi
        self.lam = lam
        self.children = children


def det_k_decomp(
    hypergraph: Hypergraph, k: int, max_states: int | None = 200000,
    metrics: Metrics | None = None,
) -> HypertreeDecomposition | None:
    """A width-≤-k hypertree decomposition of ``hypergraph``, or ``None``
    when none exists.

    ``max_states`` bounds the number of distinct ``(component,
    connector)`` subproblems explored (a safety valve for adversarial
    inputs; ``None`` = unlimited).  Raises :class:`ValueError` for
    hypergraphs with isolated vertices (no decomposition can cover
    them) and for k < 1.  ``metrics`` receives the bitmask cover
    engine's cache counters (separator enumeration runs on it).
    """
    if k < 1:
        raise ValueError("width bound k must be positive")
    isolated = hypergraph.isolated_vertices()
    if isolated:
        raise ValueError(
            f"hypergraph has isolated vertices {sorted(map(repr, isolated))}"
        )
    if hypergraph.num_edges == 0:
        htd = HypertreeDecomposition(root="root")
        htd.add_node("root", bag=(), cover=())
        return htd

    result = _KDecomp(hypergraph, max_states, metrics).rung(k)
    return None if result is None else _materialize(result[0])


def hypertree_width(
    hypergraph: Hypergraph, max_width: int | None = None,
    max_states: int | None = 200000,
) -> tuple[int, HypertreeDecomposition]:
    """Exact hypertree width by trying k = 1, 2, ... upward.

    Returns ``(hw, decomposition)``; raises :class:`LadderExhausted`
    (a RuntimeError) if ``max_width`` is hit without success.  A
    ``max_width`` below 1 exhausts immediately: no ladder rung is ever
    tried (every nonempty hypergraph has hw ≥ 1), instead of the old
    behaviour of silently rounding the cap up to 1.
    """
    limit = (
        max_width
        if max_width is not None
        else max(hypergraph.num_edges, 1)
    )
    for k in range(1, limit + 1):
        result = det_k_decomp(hypergraph, k, max_states)
        if result is not None:
            return k, result
    raise LadderExhausted(
        f"no hypertree decomposition of width <= {limit}"
    )


class _Record:
    """Cross-rung state of one (component, connector) subproblem."""

    __slots__ = ("witness", "width", "infeasible_k")

    def __init__(self):
        self.witness: _Node | None = None
        self.width: int | None = None  # actual subtree width of witness
        self.infeasible_k = 0  # max k proven to admit no decomposition


class _KDecomp:
    """The (component, connector) backtracking with the width bound as
    a call argument, shared by det-k-decomp (one rung) and opt-k-decomp
    (a descending ladder of rungs).  Each subproblem keeps a cross-rung
    record:

    * a witness subtree together with its actual width ``w`` answers
      every later rung ``k ≥ w`` without re-searching, and
    * a failure at rung ``k`` answers every later rung ``k' ≤ k``
      (separator space only shrinks as k drops).

    On a single rung this is det-k-decomp's memo: each subproblem is
    decided once.  Running out of states or past ``deadline`` (a
    ``time.monotonic()`` value) raises ``RuntimeError``;
    ``hooks.check_stop`` may raise :class:`RaceStopped`."""

    def __init__(
        self,
        hypergraph: Hypergraph,
        max_states: int | None,
        metrics: Metrics | None = None,
        tracer=NULL_TRACER,
        deadline: float | None = None,
        hooks=None,
    ):
        self.hypergraph = hypergraph
        self.edges = hypergraph.edges
        self.max_states = max_states
        self.tracer = tracer
        self.deadline = deadline
        self.hooks = hooks
        # Bitmask cover engine: per-edge vertex masks for the separator
        # enumeration, exact covers (dominance-cached) for the connector
        # feasibility prune.
        self.engine = BitCoverEngine(hypergraph, metrics)
        self.edge_mask = dict(
            zip(self.engine.edge_names, self.engine.edge_masks)
        )
        self.rank = {name: i for i, name in enumerate(self.engine.edge_names)}
        self.records: dict[tuple[frozenset, frozenset], _Record] = {}
        self.states = 0
        self.components = _edge_components(
            hypergraph, frozenset(self.edge_mask), frozenset(), self.rank
        )

    def rung(self, k: int) -> tuple[list[_Node], int] | None:
        """Witness subtrees of width ≤ k for the hypergraph's connected
        components with their joint actual width, or ``None`` when
        provably none exists."""
        roots: list[_Node] = []
        width = 0
        for component in self.components:
            result = self.decompose(component, frozenset(), k)
            if result is None:
                return None
            roots.append(result[0])
            width = max(width, result[1])
        return roots, width

    def decompose(
        self, component: frozenset, connector: frozenset, k: int
    ) -> tuple[_Node, int] | None:
        """A witness subtree of width ≤ k for the subproblem, with its
        actual width, or ``None`` when provably none exists."""
        key = (component, connector)
        record = self.records.get(key)
        if record is None:
            record = self.records[key] = _Record()
        if record.infeasible_k >= k:
            return None
        if record.witness is not None and record.width <= k:
            return record.witness, record.width
        self.states += 1
        if self.max_states is not None and self.states > self.max_states:
            raise RuntimeError(
                "hypertree decomposition state budget exhausted; "
                "raise max_states"
            )
        # Every fresh subproblem reads the clock and the stop word: one
        # can cost tens of milliseconds on a wide instance.
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise RuntimeError(
                "hypertree decomposition time budget exhausted"
            )
        if self.hooks is not None:
            self.hooks.check_stop()
        if self.states % _SUBPROBLEM_TRACE_EVERY == 0:
            self.tracer.event(
                "optk_subproblem",
                states=self.states,
                component_edges=len(component),
                connector_size=len(connector),
                k=k,
            )
        connector_mask = 0
        if connector:
            # Feasibility prune: every λ must cover the connector, and a
            # minimum cover over ALL hyperedges lower-bounds any cover by
            # a λ of ≤ k of them — if even that exceeds k, no separator
            # exists for this subproblem.
            connector_mask = self.engine.mask_of(connector)
            if self.engine.exact_size(connector_mask) > k:
                record.infeasible_k = max(record.infeasible_k, k)
                return None
        edge_mask = self.edge_mask
        scope_mask = connector_mask
        for name in component:
            scope_mask |= edge_mask[name]
        for lam, lam_vars_mask in self._separators(
            component, connector_mask, scope_mask, k
        ):
            chi_mask = lam_vars_mask & scope_mask
            chi = (
                frozenset(self.engine.mask_to_vertices(chi_mask)) | connector
            )
            covered = {
                name
                for name in component
                if edge_mask[name] & ~chi_mask == 0
            }
            if not covered:
                continue  # no progress; normal form requires some
            remaining = component - covered
            children: list[_Node] = []
            width = len(lam)
            ok = True
            for child_component in _edge_components(
                self.hypergraph, remaining, chi, self.rank
            ):
                child_vars = frozenset().union(
                    *(self.edges[name] for name in child_component)
                )
                child_connector = child_vars & chi
                child = self.decompose(child_component, child_connector, k)
                if child is None:
                    ok = False
                    break
                child_node, child_width = child
                children.append(child_node)
                width = max(width, child_width)
            if ok:
                node = _Node(chi, lam, children)
                if record.width is None or width < record.width:
                    record.witness = node
                    record.width = width
                return node, width
        record.infeasible_k = max(record.infeasible_k, k)
        return None

    def _separators(
        self, component: frozenset, connector_mask: int, scope_mask: int,
        k: int,
    ):
        """Candidate λ sets: ≤ k edges touching the scope, at least one
        from the component, jointly covering the connector.  Yielded
        with their vertex masks, in a deterministic order, component
        edges first (they make progress), then by name ``repr``."""
        edge_mask = self.edge_mask
        touching = sorted(
            (
                name
                for name, mask in edge_mask.items()
                if mask & scope_mask
            ),
            key=lambda name: (name not in component, repr(name)),
        )
        for size in range(1, k + 1):
            for lam in itertools.combinations(touching, size):
                lam_set = frozenset(lam)
                if not (lam_set & component):
                    continue
                lam_vars_mask = 0
                for name in lam:
                    lam_vars_mask |= edge_mask[name]
                if connector_mask & ~lam_vars_mask == 0:
                    yield lam_set, lam_vars_mask


def _edge_components(
    hypergraph: Hypergraph, edge_names: frozenset, separator_vars: frozenset,
    rank: dict,
) -> list[frozenset]:
    """Connected components of ``edge_names`` where two edges touch iff
    they share a vertex outside ``separator_vars``, ordered by their
    lowest-``rank`` edge.  ``rank`` numbers the edge names (insertion
    order), so the order does not depend on string hashing and with it
    neither do the subproblems a search visits nor its witness's node
    numbering."""
    edges = hypergraph.edges
    vertex_to_edges: dict[Hashable, list] = {}
    for name in edge_names:
        for v in edges[name]:
            if v not in separator_vars:
                vertex_to_edges.setdefault(v, []).append(name)
    remaining = set(edge_names)
    components: list[frozenset] = []
    for seed in sorted(edge_names, key=rank.__getitem__):
        if seed not in remaining:
            continue
        remaining.discard(seed)
        group = {seed}
        frontier = [seed]
        while frontier:
            name = frontier.pop()
            for v in edges[name]:
                if v in separator_vars:
                    continue
                for other in vertex_to_edges.get(v, ()):
                    if other in remaining:
                        remaining.discard(other)
                        group.add(other)
                        frontier.append(other)
        components.append(frozenset(group))
    return components


def _materialize(roots: list[_Node]) -> HypertreeDecomposition:
    """Flatten the node trees into a HypertreeDecomposition (multiple
    roots — disconnected hypergraphs — are chained; their vertex sets
    are disjoint, so connectedness is preserved)."""
    htd = HypertreeDecomposition()
    counter = itertools.count()

    def add(node: _Node) -> int:
        identifier = next(counter)
        htd.add_node(identifier, bag=node.chi, cover=node.lam)
        for child in node.children:
            child_id = add(child)
            htd.add_tree_edge(identifier, child_id)
        return identifier

    root_ids = [add(root) for root in roots]
    for a, b in zip(root_ids, root_ids[1:]):
        htd.add_tree_edge(a, b)
    htd.root = root_ids[0] if root_ids else None
    return htd
