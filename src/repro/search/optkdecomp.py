"""opt-k-decomp: exact hypertree width by a descending certified ladder
(Gottlob & Samer, arXiv:cs/0701083).

det-k-decomp answers one decision question — "is hw ≤ k?".  opt-k-decomp
turns the same (component, connector) backtracking into an *optimum*
search: start from a certified heuristic incumbent
(``htd_from_ordering`` on min-fill), walk k downward, and after every
successful rung jump straight below the witness's actual width.  The
rungs share one instance of det-k-decomp's core
(:class:`~repro.search.detkdecomp._KDecomp`), whose per-subproblem
cross-rung records — a witness of width ``w`` answers every rung
``k ≥ w``, a failure at ``k`` every rung ``k' ≤ k`` — are the cross-run
reuse the original opt-k-decomp gets from its shared cut-tracking
tables.

Every rung's decomposition is certified by ``check_htd`` before its
width is believed; the ladder publishes/polls
:class:`~repro.search.common.BoundHooks` so it can race in the
portfolio and exchange incumbents with the other hw backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..bounds.ghw_lower import ghw_lower_bound
from ..bounds.upper import min_fill_ordering
from ..decomposition.htd import HypertreeDecomposition, htd_from_ordering
from ..hypergraph.hypergraph import Hypergraph
from ..telemetry import NULL_TRACER, Metrics
from ..verify.certificate import assert_certified
from .detkdecomp import LadderExhausted, _KDecomp, _materialize


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


def opt_k_decomp(
    hypergraph: Hypergraph,
    *,
    max_width: int | None = None,
    max_states: int | None = 200000,
    max_seconds: float | None = None,
    metrics: Metrics | None = None,
    tracer=NULL_TRACER,
    hooks=None,
) -> OptKResult:
    """Exact hypertree width with a certified witness.

    The ladder starts below the min-fill ``htd_from_ordering``
    incumbent and descends; ``max_width`` (when given) jumps the first
    rung down to that cap, so a single UNSAT rung proves
    ``hw > max_width``.  ``max_states`` bounds the *total* number of
    fresh subproblems across all rungs and ``max_seconds`` the wall
    time; on exhaustion of either the best certified bracket so far is
    returned with ``exact=False``.  ``hooks`` is polled between rungs
    and receives published bound improvements, exactly like the other
    portfolio searches; its stop check also runs inside a rung.

    Raises :class:`ValueError` for isolated vertices or ``max_width``
    below 1, mirroring :func:`~repro.search.detkdecomp.det_k_decomp`.
    """
    if max_width is not None and max_width < 1:
        raise ValueError("max_width must be at least 1")
    isolated = hypergraph.isolated_vertices()
    if isolated:
        raise ValueError(
            f"hypergraph has isolated vertices {sorted(map(repr, isolated))}"
        )
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
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
    solver = _KDecomp(
        hypergraph, max_states, metrics, tracer, deadline, hooks
    )
    exact = True
    rungs = 0
    k = upper - 1 if max_width is None else min(upper - 1, max_width)
    while k >= lower:
        if hooks is not None:
            hooks.check_stop()
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
        try:
            result = solver.rung(k)
        except RuntimeError:
            exact = False
            break
        tracer.event(
            "optk_rung",
            k=k,
            feasible=result is not None,
            states=solver.states,
        )
        if result is not None:
            roots, width = result
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

