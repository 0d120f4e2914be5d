"""The multiprocessing portfolio runner.

``run_portfolio`` races solver backends in worker processes on one
instance.  Workers exchange incumbent bounds through a
:class:`~repro.portfolio.shared.SharedBounds` channel — each worker
tightens its pruning from the others' progress — and the parent
aggregates everything into a single anytime :class:`PortfolioResult`:
the best witnessed width, its certificate decomposition, the max of the
proven lower bounds, per-backend stats and the merged bound-event
timeline.

Scheduling is wave-based: at most ``jobs`` workers run concurrently;
when one finishes the next queued backend starts (inheriting whatever
bounds the finished workers left in the channel).  Once a finished
report witnesses the optimum — it is exact, or its upper bound meets
the channel's proven lower bound — the race is decided: the queued
backends are skipped, and the runner writes the channel's stop word.
Running workers read it at their next poll, build no witness and send
a stopped report (no bounds), so the call returns within a poll of the
proof with every worker exited on its own — no signal is sent on this
path.  A worker that raises is reported as an error and the race goes
on; a worker that exceeds its grace period (twice the budget plus
slack) is terminated.

``deterministic=True`` makes the outcome a pure function of the seeds:
workers run isolated (no live bound exchange), wall-clock budgets are
replaced by node budgets, every requested backend runs, and
all merging — winner selection and the event timeline — happens in the
fixed backend order rather than arrival order.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, replace

from ..decomposition import TreeDecomposition
from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from ..search.common import RaceStopped
from ..telemetry import NULL_TRACER, MemoryTracer, merge_records, write_jsonl
from ..widths import Width
from .backends import (
    BACKENDS,
    BackendConfig,
    BackendReport,
    resolve_backends,
)
from .shared import BoundEvent, EventRecorder, SharedBounds, make_worker_hooks

# Bounded work for deterministic runs that did not pick a node budget
# (wall-clock budgets are disabled there, so *something* must bound the
# searches on hard instances).
_DETERMINISTIC_DEFAULT_NODES = 1_000_000


class PortfolioError(RuntimeError):
    """Raised when every backend failed to produce a bound."""


def shutdown_workers(processes, queues=(), grace: float = 5.0) -> None:
    """Terminate-and-join worker processes and tear their queues down.

    The wave runner's teardown (the repo's only process stack):
    terminate every process still alive, join with a grace period, kill
    the ones that ignore SIGTERM, then close each queue and cancel its
    feeder thread so the parent never blocks on a dead child's buffer.

    Idempotent and interrupt-safe by construction — every step
    tolerates processes that are already dead (or were never started)
    and queues that are already closed, so callers can run it from
    ``finally`` blocks on any interrupt path and call it again on
    explicit shutdown without a second teardown misbehaving.
    """
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except ValueError:  # pragma: no cover - process already closed
            pass
    for process in processes:
        try:
            process.join(timeout=grace)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join()
        except (ValueError, AssertionError):  # pragma: no cover
            pass  # already closed / never started
    for q in queues:
        try:
            q.close()
            q.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass


@dataclass
class PortfolioResult:
    """Aggregated outcome of a portfolio race.

    ``upper_bound`` is witnessed by ``witness``, the decomposition
    ``best_backend`` built in its worker (see
    :class:`~repro.portfolio.backends.BackendReport`), and ``ordering``
    is the elimination ordering it was built from, when there is one;
    ``lower_bound`` is the max of the workers' proven lower bounds, so
    ``exact`` means the width is fixed even when no single worker proved
    both sides itself — that combination is the point of the shared
    channel.
    """

    metric: str  # "tw" | "ghw" | "fhw" | "hw"
    upper_bound: Width
    lower_bound: Width
    exact: bool
    ordering: list | None
    best_backend: str
    reports: dict[str, BackendReport]
    events: list[BoundEvent]
    elapsed_seconds: float
    jobs: int
    deterministic: bool
    trace_path: str | None = None
    trace_records: int = 0
    witness: TreeDecomposition | None = None

    @property
    def width(self) -> Width:
        """The best known width (the upper bound's witness) — an ``int``
        for tw/ghw, possibly a ``Fraction`` for fhw."""
        return self.upper_bound


def _worker_main(name, structure, config, shared, report_queue, t0):
    """Process entry point: run one backend, send its report home.

    Every exception becomes an error report — a failing backend must
    never take the portfolio down with it — except :class:`RaceStopped`,
    which becomes a stopped report.  Every report, error or not,
    carries the worker's wall time in ``elapsed_seconds``.  Traced runs
    buffer records locally (a worker cannot append to the parent's file)
    and ship them home inside the report; the tracer shares the parent's
    time base so merged timelines line up.
    """
    tracer = (
        MemoryTracer(worker=name, t0=t0) if config.trace else NULL_TRACER
    )
    recorder = EventRecorder(name, t0)
    hooks = make_worker_hooks(
        shared, recorder, tracer=tracer,
        initial_upper=config.initial_upper,
        initial_lower=config.initial_lower,
    )
    start = time.monotonic()
    try:
        with tracer.span("worker", backend=name, seed=config.seed):
            report = BACKENDS[name].run(structure, config, hooks)
    except RaceStopped:
        report = BackendReport(backend=name, stopped=True)
    except Exception as exc:  # noqa: BLE001 — forwarded, not swallowed
        report = BackendReport(
            backend=name, error=f"{type(exc).__name__}: {exc}"
        )
    report.elapsed_seconds = time.monotonic() - start
    report.events = recorder.events
    if config.trace:
        report.trace_records = tracer.records
    report_queue.put(report)


def run_portfolio(
    structure: Graph | Hypergraph,
    backends: list[str] | tuple[str, ...] | None = None,
    jobs: int = 2,
    budget_seconds: float | None = None,
    max_nodes: int | None = None,
    seed: int = 0,
    deterministic: bool = False,
    metric: str | None = None,
    trace: str | None = None,
    initial_upper: int | None = None,
    initial_lower: int | None = None,
    grace_seconds: float | None = None,
    shared_bounds: SharedBounds | None = None,
) -> PortfolioResult:
    """Race solver backends on ``structure`` and merge their bounds.

    ``metric`` defaults to ``"tw"`` for graphs and ``"ghw"`` for
    hypergraphs (graphs are lifted when a ghw/fhw metric is forced, and
    hypergraphs drop to their primal graph for tw — the solvers already
    handle both); ``"fhw"`` races the rational-width backends, whose
    bounds are exact ``Fraction``s end to end.  ``backends`` defaults to
    the full backend set for the metric; with fewer ``jobs`` than
    backends the surplus runs in later waves, seeded by the earlier
    waves' bounds.  A live race is decided once a finished report
    witnesses the optimum: the waves still queued are skipped (absent
    from ``reports``, traced as ``worker_skipped``) and the running
    workers are told to stop; each sends a ``stopped`` report with no
    bounds (traced as ``worker_stopped``).

    ``initial_upper`` / ``initial_lower`` warm-start the race: the upper
    bound pre-seeds the shared channel (static poll answers in
    deterministic mode) and the lower bound joins the aggregation.  The
    caller asserts soundness: ``initial_upper`` must be witnessed and
    ``initial_lower`` proven for the *current* structure.

    ``trace`` (a file path) turns on telemetry: every worker traces into
    a local buffer, the parent traces scheduling, and the merged
    single-timeline JSONL is written to the path (validated by
    ``python -m repro.telemetry.schema``).

    ``grace_seconds`` overrides the hang-kill grace period (default
    ``2 * budget_seconds + 30``) — deadline-bound callers like the
    service layer need workers reaped promptly.  ``shared_bounds`` lets
    the caller supply (and keep a handle on) the bound channel, so it
    can watch incumbents live and salvage them if the call is abandoned;
    a channel serves one race (its stop word is never cleared), and it
    is incompatible with ``deterministic`` (which runs workers isolated).

    Deadline expiry degrades gracefully: if every worker was killed or
    crashed before reporting, the best incumbent bracket left in the
    shared channel is returned (no ``witness`` or ``ordering``,
    ``best_backend="shared-channel"``) rather than raising — only a race
    with a truly empty channel raises :class:`PortfolioError`.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if metric is None:
        metric = "ghw" if isinstance(structure, Hypergraph) else "tw"
    if metric not in ("tw", "ghw", "fhw", "hw"):
        raise ValueError(
            f"unknown metric {metric!r} (use 'tw', 'ghw', 'fhw' or 'hw')"
        )
    specs = resolve_backends(backends, metric)
    if deterministic and max_nodes is None:
        max_nodes = _DETERMINISTIC_DEFAULT_NODES

    base_config = BackendConfig(
        max_seconds=budget_seconds,
        max_nodes=max_nodes,
        seed=seed,
        deterministic=deterministic,
        trace=trace is not None,
        initial_upper=initial_upper,
        initial_lower=initial_lower,
    )

    ctx = multiprocessing.get_context()
    if shared_bounds is not None and deterministic:
        raise ValueError(
            "shared_bounds is incompatible with deterministic mode "
            "(deterministic workers run isolated)"
        )
    if deterministic:
        shared = None
    else:
        shared = shared_bounds if shared_bounds is not None else SharedBounds(ctx)
    if shared is not None:
        if initial_upper is not None:
            shared.propose_upper(initial_upper)
        if initial_lower is not None:
            shared.propose_lower(initial_lower)
    report_queue = ctx.Queue()
    t0 = time.monotonic()
    tracer = (
        MemoryTracer(worker="portfolio", t0=t0)
        if trace is not None
        else NULL_TRACER
    )
    tracing = tracer.enabled
    if grace_seconds is not None:
        grace = grace_seconds
    else:
        grace = None if budget_seconds is None else 2.0 * budget_seconds + 30.0

    pending = list(enumerate(specs))
    shared_stopped = False
    running: dict[str, tuple] = {}
    reports: dict[str, BackendReport] = {}

    def drain(timeout: float | None = None) -> bool:
        try:
            report = report_queue.get(
                timeout=timeout if timeout is not None else 0.05
            )
        except queue_module.Empty:
            return False
        reports[report.backend] = report
        if tracing and report.stopped:
            tracer.event("worker_stopped", backend=report.backend)
        elif tracing:
            tracer.event(
                "worker_report",
                backend=report.backend,
                error=report.error,
                upper_bound=report.upper_bound,
                lower_bound=report.lower_bound,
            )
        entry = running.pop(report.backend, None)
        if entry is not None:
            entry[0].join()
        return True

    def bracket_closed() -> bool:
        # A finished report witnesses the optimum.  Live races only:
        # deterministic runs stay a pure function of the backend list.
        if shared is None:
            return False
        lower = shared.lower()
        return any(
            report.error is None
            and report.upper_bound is not None
            and (report.exact
                 or (lower is not None and report.upper_bound <= lower))
            for report in reports.values()
        )

    try:
        with tracer.span(
            "portfolio",
            metric=metric,
            jobs=jobs,
            backends=[spec.name for spec in specs],
            deterministic=deterministic,
        ):
            while pending or running:
                if not shared_stopped and bracket_closed():
                    shared.stop()
                    shared_stopped = True
                    if tracing:
                        for _, spec in pending:
                            tracer.event("worker_skipped", backend=spec.name)
                    pending.clear()
                while pending and len(running) < jobs:
                    index, spec = pending.pop(0)
                    config = replace(base_config, seed=seed + index)
                    process = ctx.Process(
                        target=_worker_main,
                        args=(
                            spec.name, structure, config, shared,
                            report_queue, t0,
                        ),
                        daemon=True,
                    )
                    process.start()
                    running[spec.name] = (process, time.monotonic())
                    if tracing:
                        tracer.event(
                            "worker_start", backend=spec.name,
                            seed=seed + index,
                        )
                if drain():
                    continue
                for name, (process, started) in list(running.items()):
                    if not process.is_alive():
                        # The report may still be in flight from the feeder
                        # thread; give it a moment to land before declaring
                        # the worker dead-without-report (hard crash).
                        while drain(timeout=0.2):
                            pass
                        if name in reports:
                            break
                        process.join()
                        running.pop(name)
                        code = process.exitcode
                        reports[name] = BackendReport(
                            backend=name,
                            error="worker exited without a report "
                            f"(exitcode {code})",
                        )
                    elif (grace is not None
                          and time.monotonic() - started > grace):
                        process.terminate()
                        process.join()
                        running.pop(name)
                        reports[name] = BackendReport(
                            backend=name,
                            error="worker exceeded the grace period "
                            f"({grace:.0f}s); terminated",
                        )
    finally:
        # The wait loop can be interrupted at any point (KeyboardInterrupt,
        # an unexpected exception while draining reports).  Without this
        # cleanup the live workers leak past the call — terminate and join
        # every straggler and tear the report queue down.  On the normal
        # path ``running`` is already empty and this is a no-op.
        shutdown_workers(
            [process for process, _ in running.values()], (report_queue,)
        )
        running.clear()

    ordered = [reports[spec.name] for spec in specs if spec.name in reports]
    result = _aggregate(
        metric, ordered, time.monotonic() - t0, jobs, deterministic,
        initial_lower=initial_lower,
        channel_upper=None if shared is None else shared.upper(),
        channel_lower=None if shared is None else shared.lower(),
    )
    if trace is not None:
        # One timeline: the parent's scheduling records plus every
        # worker's buffered stream, chronological (worker order in
        # deterministic mode), written as schema-valid JSONL.
        merged = merge_records(
            [tracer.records] + [r.trace_records for r in ordered],
            deterministic=deterministic,
        )
        result.trace_records = write_jsonl(trace, merged)
        result.trace_path = str(trace)
    return result


def _aggregate(
    metric: str,
    ordered: list[BackendReport],
    elapsed: float,
    jobs: int,
    deterministic: bool,
    initial_lower: int | None = None,
    channel_upper: Width | None = None,
    channel_lower: Width | None = None,
) -> PortfolioResult:
    """Merge the per-backend reports into the portfolio result.

    Ties on the upper bound go to the earlier backend in the requested
    order (``min`` is stable), which together with fixed seeds makes the
    deterministic mode's winner reproducible.  ``initial_lower`` (a
    caller-proven warm-start bound) joins the lower-bound merge, as does
    the shared channel's final lower bound — a worker may have proven it
    and then been killed before reporting.

    When *no* backend reported a witnessed upper bound (deadline expiry
    killed or crashed them all), the channel's incumbent upper bound —
    published by a worker before it died — still yields an anytime
    bracket: no ``witness`` or ``ordering``,
    ``best_backend="shared-channel"``.  Only an empty channel raises.
    """
    candidates = [
        report
        for report in ordered
        if report.error is None and report.upper_bound is not None
    ]
    lower = max(
        (
            report.lower_bound
            for report in ordered
            if report.error is None and report.lower_bound is not None
        ),
        default=0,
    )
    if initial_lower is not None:
        lower = max(lower, initial_lower)
    if channel_lower is not None:
        lower = max(lower, channel_lower)
    if not candidates:
        if channel_upper is None:
            failures = "; ".join(
                f"{report.backend}: {report.error or 'no bound'}"
                for report in ordered
            )
            raise PortfolioError(f"every backend failed — {failures}")
        return PortfolioResult(
            metric=metric,
            upper_bound=channel_upper,
            lower_bound=min(lower, channel_upper),
            exact=lower >= channel_upper,
            ordering=None,
            best_backend="shared-channel",
            reports={report.backend: report for report in ordered},
            events=[],
            elapsed_seconds=elapsed,
            jobs=jobs,
            deterministic=deterministic,
        )
    best = min(candidates, key=lambda report: report.upper_bound)
    lower = min(lower, best.upper_bound)

    order_index = {report.backend: i for i, report in enumerate(ordered)}
    events = [
        event for report in ordered for event in report.events
    ]
    if deterministic:
        events.sort(key=lambda e: (order_index[e.backend], e.seq))
    else:
        events.sort(key=lambda e: (e.at, order_index[e.backend], e.seq))

    return PortfolioResult(
        metric=metric,
        upper_bound=best.upper_bound,
        lower_bound=lower,
        exact=lower >= best.upper_bound,
        ordering=best.ordering,
        best_backend=best.backend,
        reports={report.backend: report for report in ordered},
        events=events,
        elapsed_seconds=elapsed,
        jobs=jobs,
        deterministic=deterministic,
        witness=best.witness,
    )
