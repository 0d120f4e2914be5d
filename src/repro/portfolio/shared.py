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
four machine words and a stop byte, so polling is cheap enough for
search inner loops.
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

    Every lock is taken with a short timeout.  A worker that dies while
    holding one (killed at its grace period, say) leaves it held for
    good; the reads then answer None — no bound, never a guess — and a
    proposal is dropped (its bound still rides home in the report), so
    neither the runner nor the server's deadline path can wedge on it.

    The stop word is a lock-free byte the runner writes once, when a
    finished report has proven the answer; workers read it at their
    polls (:meth:`BoundHooks.check_stop`) and abandon their runs.
    """

    def __init__(self, ctx):
        self._ub = ctx.Array("q", [0, 0])
        self._lb = ctx.Array("q", [0, 0])
        self._stop = ctx.RawValue("b", 0)

    # -- worker side ----------------------------------------------------

    def propose_upper(self, value: Width) -> bool:
        """Merge a witnessed upper bound; True if it tightened the channel."""
        return _merge(self._ub, value, -1)

    def propose_lower(self, value: Width) -> bool:
        """Merge a proven lower bound; True if it tightened the channel."""
        return _merge(self._lb, value, 1)

    def upper(self) -> Width | None:
        return _read(self._ub)

    def lower(self) -> Width | None:
        return _read(self._lb)

    def stopped(self) -> bool:
        return bool(self._stop.value)

    # -- runner side ----------------------------------------------------

    def stop(self) -> None:
        """Tell every worker the race is decided (write-once)."""
        self._stop.value = 1


# Seconds a channel access waits for its lock before giving up.
LOCK_TIMEOUT = 0.05


def _merge(pair, value: Width, direction: int) -> bool:
    """Store ``value`` in ``pair`` if the pair is empty or ``value`` is
    tighter: smaller for ``direction=-1``, larger for ``+1`` (compared
    by cross-multiplication)."""
    num, den = width_ratio(value)
    lock = pair.get_lock()
    if not lock.acquire(timeout=LOCK_TIMEOUT):
        return False
    try:
        current_num, current_den = pair[0], pair[1]
        if current_den == 0 or direction * (
            num * current_den - current_num * den
        ) > 0:
            pair[0], pair[1] = num, den
            return True
        return False
    finally:
        lock.release()


def _read(pair) -> Width | None:
    lock = pair.get_lock()
    if not lock.acquire(timeout=LOCK_TIMEOUT):
        return None
    try:
        num, den = pair[0], pair[1]
    finally:
        lock.release()
    return None if den == 0 else from_ratio(num, den)


def make_worker_hooks(
    shared: SharedBounds | None,
    recorder: EventRecorder,
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
        tracer=tracer,
        should_stop=shared.stopped,
    )
