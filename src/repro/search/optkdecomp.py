"""opt-k-decomp: exact hypertree width by a descending certified ladder
(Gottlob & Samer, arXiv:cs/0701083).

det-k-decomp answers one decision question — "is hw ≤ k?".  opt-k-decomp
turns the same (component, connector) backtracking into an *optimum*
search: start from a certified heuristic incumbent
(``htd_from_ordering`` on min-fill), walk k downward, and after every
successful rung jump straight below the witness's actual width.  The
rungs share one :class:`~repro.setcover.bitcover.BitCoverEngine` and its
:class:`~repro.setcover.bitcover.CoverCache`: each ``(component,
connector)`` subproblem keeps a *cross-rung dominance record* in the
cache's component layer —

* a witness subtree together with its actual width ``w`` answers every
  later rung ``k ≥ w`` without re-searching, and
* a failure at rung ``k`` answers every later rung ``k' ≤ k``
  (separator space only shrinks as k drops)

— which is the cross-run reuse the original opt-k-decomp gets from its
shared cut-tracking tables, here riding the same cache layer the
balanced-separator pool uses for cross-component sharing.

Every rung's decomposition is certified by ``check_htd`` before its
width is believed; the ladder publishes/polls
:class:`~repro.search.common.BoundHooks` so it can race in the
portfolio and exchange incumbents with the other hw backends.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bounds.ghw_lower import ghw_lower_bound
from ..bounds.upper import min_fill_ordering
from ..decomposition.htd import HypertreeDecomposition, htd_from_ordering
from ..hypergraph.hypergraph import Hypergraph
from ..setcover.bitcover import BitCoverEngine
from ..telemetry import NULL_TRACER, Metrics
from .detkdecomp import _edge_components, _iter_separators, _materialize, _Node

# One optk_subproblem trace event per this many fresh subproblems.
_SUBPROBLEM_TRACE_EVERY = 64


class _Record:
    """Cross-rung state of one (component, connector) subproblem."""

    __slots__ = ("witness", "width", "infeasible_k")

    def __init__(self):
        self.witness: _Node | None = None
        self.width: int | None = None  # actual subtree width of witness
        self.infeasible_k = 0  # max k proven to admit no decomposition


@dataclass
class OptKResult:
    """Outcome of :func:`opt_k_decomp`."""

    upper: int
    lower: int
    exact: bool
    decomposition: HypertreeDecomposition | None
    subproblems: int = 0
    rungs: int = 0

    @property
    def width(self) -> int:
        return self.upper


class _OptKDecomp:
    """The rung-parametric backtracking core (det-k-decomp's recursion
    with the width bound as a call argument and the memo replaced by
    cross-rung dominance records)."""

    def __init__(
        self,
        hypergraph: Hypergraph,
        max_states: int | None,
        metrics: Metrics | None = None,
        tracer=NULL_TRACER,
    ):
        self.hypergraph = hypergraph
        self.edges = hypergraph.edges
        self.max_states = max_states
        self.tracer = tracer
        self.engine = BitCoverEngine(hypergraph, metrics)
        self.cache = self.engine.cache
        self.edge_mask = {
            name: mask
            for name, mask in zip(self.engine.edge_names,
                                  self.engine.edge_masks)
        }
        self.states = 0

    def _record(self, component: frozenset, connector: frozenset) -> _Record:
        key = ("optk", component, connector)
        hit, record = self.cache.component_result(key)
        if not hit:
            record = _Record()
            self.cache.store_component(key, record)
        return record

    def decompose(
        self, component: frozenset, connector: frozenset, k: int
    ) -> tuple[_Node, int] | None:
        """A witness subtree of width ≤ k for the subproblem, with its
        actual width, or ``None`` when provably none exists."""
        record = self._record(component, connector)
        if record.infeasible_k >= k:
            return None
        if record.witness is not None and record.width <= k:
            return record.witness, record.width
        self.states += 1
        if self.max_states is not None and self.states > self.max_states:
            raise RuntimeError(
                "opt-k-decomp state budget exhausted; raise max_states"
            )
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
            connector_mask = self.engine.mask_of(connector)
            if self.engine.exact_size(connector_mask) > k:
                record.infeasible_k = max(record.infeasible_k, k)
                return None
        edge_mask = self.edge_mask
        scope_mask = connector_mask
        for name in component:
            scope_mask |= edge_mask[name]
        for lam, lam_vars_mask in _iter_separators(
            edge_mask, self.engine, component, connector, scope_mask, k
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
                self.hypergraph, frozenset(remaining), chi
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
                node = _Node(frozenset(chi), frozenset(lam), children)
                if record.width is None or width < record.width:
                    record.witness = node
                    record.width = width
                return node, width
        record.infeasible_k = max(record.infeasible_k, k)
        return None


def opt_k_decomp(
    hypergraph: Hypergraph,
    *,
    max_width: int | None = None,
    max_states: int | None = 200000,
    metrics: Metrics | None = None,
    tracer=NULL_TRACER,
    hooks=None,
) -> OptKResult:
    """Exact hypertree width with a certified witness.

    The ladder starts below the min-fill ``htd_from_ordering``
    incumbent and descends; ``max_width`` (when given) jumps the first
    rung down to that cap, so a single UNSAT rung proves
    ``hw > max_width``.  ``max_states`` bounds the *total* number of
    fresh subproblems across all rungs; on exhaustion the best
    certified bracket so far is returned with ``exact=False``.
    ``hooks`` is polled between rungs and receives published bound
    improvements, exactly like the other portfolio searches.

    Raises :class:`ValueError` for isolated vertices or ``max_width``
    below 1, mirroring :func:`~repro.search.detkdecomp.det_k_decomp`.
    """
    from ..verify.certificate import assert_certified

    if max_width is not None and max_width < 1:
        raise ValueError("max_width must be at least 1")
    isolated = hypergraph.isolated_vertices()
    if isolated:
        raise ValueError(
            f"hypergraph has isolated vertices {sorted(map(repr, isolated))}"
        )
    if hypergraph.num_edges == 0:
        htd = HypertreeDecomposition(root="root")
        htd.add_node("root", bag=(), cover=())
        return OptKResult(
            upper=0, lower=0, exact=True, decomposition=htd
        )
    ordering = min_fill_ordering(hypergraph)
    incumbent = htd_from_ordering(hypergraph, ordering)
    assert_certified(incumbent, hypergraph, "opt-k-decomp witness")
    upper = incumbent.ghw_width
    lower = max(1, ghw_lower_bound(hypergraph))
    if hooks is not None and hooks.publish_upper:
        hooks.publish_upper(upper)
    if hooks is not None and hooks.publish_lower:
        hooks.publish_lower(lower)
    solver = _OptKDecomp(hypergraph, max_states, metrics, tracer)
    components = _edge_components(
        hypergraph, frozenset(hypergraph.edge_names()), frozenset()
    )
    exact = True
    rungs = 0
    k = upper - 1 if max_width is None else min(upper - 1, max_width)
    while k >= lower:
        if hooks is not None:
            ext_upper = hooks.poll_upper() if hooks.poll_upper else None
            ext_lower = hooks.poll_lower() if hooks.poll_lower else None
            if ext_upper is not None and ext_upper <= k:
                k = ext_upper - 1
                if k < lower:
                    break
            if ext_lower is not None and ext_lower > lower:
                lower = ext_lower
                if k < lower:
                    break
        rungs += 1
        roots: list[_Node] = []
        width = 0
        feasible = True
        try:
            for component in components:
                result = solver.decompose(component, frozenset(), k)
                if result is None:
                    feasible = False
                    break
                node, node_width = result
                roots.append(node)
                width = max(width, node_width)
        except RuntimeError:
            exact = False
            break
        tracer.event(
            "optk_rung",
            k=k,
            feasible=feasible,
            states=solver.states,
        )
        if feasible:
            witness = _materialize(roots)
            assert_certified(witness, hypergraph, "opt-k-decomp witness")
            assert witness.ghw_width == width <= k, (witness.ghw_width, k)
            incumbent = witness
            upper = width
            if hooks is not None and hooks.publish_upper:
                hooks.publish_upper(upper)
            k = width - 1
        else:
            lower = k + 1
            if hooks is not None and hooks.publish_lower:
                hooks.publish_lower(lower)
            break
    return OptKResult(
        upper=upper,
        lower=lower,
        exact=exact and lower >= upper,
        decomposition=incumbent,
        subproblems=solver.states,
        rungs=rungs,
    )


def opt_k_hypertree_width(
    hypergraph: Hypergraph,
    max_width: int | None = None,
    max_states: int | None = 200000,
) -> tuple[int, HypertreeDecomposition]:
    """``hypertree_width``-shaped wrapper over :func:`opt_k_decomp`:
    returns ``(hw, certified decomposition)`` or raises
    :class:`~repro.search.detkdecomp.LadderExhausted` when ``max_width``
    (or the state budget) leaves the question open."""
    from .detkdecomp import LadderExhausted

    result = opt_k_decomp(
        hypergraph, max_width=max_width, max_states=max_states
    )
    if max_width is not None and result.lower > max_width:
        raise LadderExhausted(
            f"no hypertree decomposition of width <= {max_width}"
        )
    if not result.exact:
        raise LadderExhausted(
            f"opt-k-decomp could not close the bracket "
            f"[{result.lower}, {result.upper}] within budget"
        )
    return result.upper, result.decomposition

