"""The shared incumbent-bound channel between portfolio workers.

Workers race on the same instance, so any worker's incumbent upper bound
is a global upper bound and any worker's proven lower bound a global
lower bound.  :class:`SharedBounds` keeps the tightest of each as an
exact rational — a lock-protected ``(numerator, denominator)`` pair of
shared integers per bound, so the fhw backends' ``Fraction`` incumbents
(7/3, say) cross the process boundary without rounding while tw/ghw
integers ride along with denominator 1.  Workers poll through their
:class:`~repro.search.common.BoundHooks` (throttled by
``poll_interval``) and propose improvements back.  Both proposals are
monotone merges (compared by cross-multiplication) — a stale write can
never loosen the channel.

The channel carries *values only*.  Certificates stay in the worker
that found them: it builds the decomposition witnessing its bound
(bucket-elimination tree, exact-cover GHD, rational-weight FHD or
hypertree decomposition) and ships it home in its
:class:`~repro.portfolio.backends.BackendReport`; the aggregator picks
the certificate matching the winning bound.  This keeps the shared state
four machine words, so polling is cheap enough for search inner loops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..search.common import BoundHooks
from ..telemetry import NULL_TRACER
from ..widths import Width, as_width, format_width, from_ratio, width_ratio


@dataclass(frozen=True)
class BoundEvent:
    """One improvement of a worker's incumbent, for the result timeline.

    ``at`` is seconds since the portfolio started; ``seq`` the worker's
    own monotone counter, which orders events reproducibly when wall
    clocks cannot (``--deterministic``).  ``value`` is ``int`` for
    tw/ghw bounds and may be a ``Fraction`` for fhw — never a float.
    """

    backend: str
    kind: str  # "ub" | "lb"
    value: Width
    at: float
    seq: int


class EventRecorder:
    """Worker-local log of published bound improvements."""

    def __init__(self, backend: str, t0: float):
        self.backend = backend
        self.t0 = t0
        self.events: list[BoundEvent] = []

    def record(self, kind: str, value: Width) -> None:
        self.events.append(
            BoundEvent(
                backend=self.backend,
                kind=kind,
                value=as_width(value),
                at=time.monotonic() - self.t0,
                seq=len(self.events),
            )
        )


class SharedBounds:
    """Tightest-known global bounds in shared memory.

    Built in the parent from a multiprocessing context and inherited by
    (or pickled to) the worker processes.  Each bound is one
    ``ctx.Array("q", 2)`` holding ``[numerator, denominator]`` under a
    single lock (the pair must merge atomically); ``denominator == 0``
    means "no bound yet".
    """

    def __init__(self, ctx):
        self._ub = ctx.Array("q", [0, 0])
        self._lb = ctx.Array("q", [0, 0])

    # -- worker side ----------------------------------------------------

    def propose_upper(self, value: Width) -> bool:
        """Merge a witnessed upper bound; True if it tightened the channel."""
        num, den = width_ratio(value)
        with self._ub.get_lock():
            current_num, current_den = self._ub[0], self._ub[1]
            if current_den == 0 or num * current_den < current_num * den:
                self._ub[0], self._ub[1] = num, den
                return True
        return False

    def propose_lower(self, value: Width) -> bool:
        """Merge a proven lower bound; True if it tightened the channel."""
        num, den = width_ratio(value)
        with self._lb.get_lock():
            current_num, current_den = self._lb[0], self._lb[1]
            if current_den == 0 or num * current_den > current_num * den:
                self._lb[0], self._lb[1] = num, den
                return True
        return False

    def upper(self) -> Width | None:
        with self._ub.get_lock():
            num, den = self._ub[0], self._ub[1]
        return None if den == 0 else from_ratio(num, den)

    def lower(self) -> Width | None:
        with self._lb.get_lock():
            num, den = self._lb[0], self._lb[1]
        return None if den == 0 else from_ratio(num, den)


def make_worker_hooks(
    shared: SharedBounds | None,
    recorder: EventRecorder,
    poll_interval: int = 64,
    tracer=NULL_TRACER,
    initial_upper: Width | None = None,
    initial_lower: Width | None = None,
) -> BoundHooks:
    """Build the :class:`BoundHooks` a worker hands to its solver.

    With ``shared=None`` (deterministic mode) the hooks only record the
    worker's own bound stream — no cross-worker exchange — so the run's
    outcome depends on nothing but the worker's seed.
    ``initial_upper`` / ``initial_lower`` (the warm-start seam) are then
    served as *static* poll answers: the solver prunes against the
    caller-witnessed incumbent from node one, and determinism survives
    because the answers are constants of the config.  In shared mode the
    runner seeds the channel itself before workers start.

    ``tracer`` rides along on the hooks (the solvers' telemetry seam);
    every proposal that actually tightens the shared channel is
    additionally traced as a ``bound_exchange`` event — the message
    level of the portfolio's cooperation, one layer above the solvers'
    own ``bound_publish`` stream.  Rational values are traced in their
    exact ``"7/3"`` rendering (ints stay ints) so the JSONL never sees a
    lossy float.
    """
    tracing = bool(getattr(tracer, "enabled", False))
    if shared is None:
        return BoundHooks(
            poll_upper=(
                None if initial_upper is None
                else lambda: initial_upper
            ),
            poll_lower=(
                None if initial_lower is None
                else lambda: initial_lower
            ),
            publish_upper=lambda v: recorder.record("ub", v),
            publish_lower=lambda v: recorder.record("lb", v),
            poll_interval=poll_interval,
            tracer=tracer,
        )

    def _trace_value(value: Width):
        value = as_width(value)
        return value if isinstance(value, int) else format_width(value)

    def publish_upper(value: Width) -> None:
        if shared.propose_upper(value):
            recorder.record("ub", value)
            if tracing:
                tracer.event(
                    "bound_exchange", kind="ub", value=_trace_value(value)
                )

    def publish_lower(value: Width) -> None:
        if shared.propose_lower(value):
            recorder.record("lb", value)
            if tracing:
                tracer.event(
                    "bound_exchange", kind="lb", value=_trace_value(value)
                )

    return BoundHooks(
        poll_upper=shared.upper,
        poll_lower=shared.lower,
        publish_upper=publish_upper,
        publish_lower=publish_lower,
        poll_interval=poll_interval,
        tracer=tracer,
    )
