"""The decomposition service: a long-running asyncio server in front of
the portfolio runner.

Request lifecycle (the ``solve`` op)::

    parse → canonicalize → cache lookup ──hit──▶ map certificate, reply
                │ miss
                ▼
        coalesce on (metric, canonical key)   # one solve per key
                │ leader
                ▼
        admission control (semaphore + bounded wait queue)
                │
                ▼
        portfolio race on a worker-pool thread, per-request deadline,
        live shared-bounds channel
                │                         │ deadline expired
                ▼                         ▼
        verify-on-insert, cache     best anytime bracket from the
        reply (certified)           channel — never a traceback

Everything is stdlib: ``asyncio.start_server`` for the transport (JSON
lines, see :mod:`repro.service.protocol`), a thread pool for the
blocking portfolio calls (each of which manages its own worker
*processes*), and :class:`~repro.telemetry.Metrics` counters +
an optional JSONL tracer for observability.  Every response is also
emitted as a ``service_response`` trace event carrying the request
fingerprint and outcome, so a timeline is a replayable record of what
the service answered (:func:`replay_responses`).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..decomposition import TreeDecomposition
from ..hypergraph.hypergraph import Hypergraph
from ..portfolio.runner import PortfolioError, run_portfolio
from ..portfolio.shared import SharedBounds
from ..telemetry import NULL_TRACER, Metrics
from ..widths import Width
from . import protocol
from .cache import CacheEntry, CertificateRejected, DecompositionCache
from .canonical import CanonicalForm, canonical_form
from .protocol import (
    BAD_REQUEST,
    CERTIFICATE_REJECTED,
    OVERLOADED,
    PROTOCOL_VERSION,
    SOLVER_ERROR,
    TOO_LARGE,
    UNSUPPORTED_METRIC,
    ProtocolError,
    error_response,
    width_to_json,
)


@dataclass
class ServiceConfig:
    """Service knobs; defaults suit a local single-host deployment."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (bound port in Service.port)
    cache_capacity: int = 512
    max_concurrent_solves: int = 2     # admission-control semaphore
    max_queued_solves: int = 16        # beyond this: "overloaded"
    default_budget: float = 10.0       # seconds, per request
    max_budget: float = 60.0
    deadline_slack: float = 2.0        # channel-salvage window past budget
    max_request_bytes: int = 1 << 20
    max_batch: int = 64
    max_vertices: int = 2_000
    max_edges: int = 10_000
    portfolio_jobs: int = 2
    seed: int = 0


@dataclass
class SolveOutcome:
    """What a solver hands back to the service (a thin, picklable slice
    of :class:`~repro.portfolio.runner.PortfolioResult`): ``witness`` is
    the decomposition behind ``upper``, ``ordering`` the elimination
    ordering served with it, if any."""

    upper: Width | None
    lower: Width
    ordering: list | None
    backend: str
    witness: TreeDecomposition | None = None


def portfolio_solver(structure, metric, budget, shared, config):
    """The default solver: race the portfolio under the request deadline.

    Runs on an executor thread; ``shared`` is the caller-owned bound
    channel the event loop watches for deadline degradation.  The grace
    period is pinned to the deadline so hung workers are reaped before
    the service gives up on the thread.
    """
    result = run_portfolio(
        structure,
        metric=metric,
        jobs=config.portfolio_jobs,
        budget_seconds=budget,
        grace_seconds=budget + config.deadline_slack,
        shared_bounds=shared,
        seed=config.seed,
    )
    return SolveOutcome(
        upper=result.upper_bound,
        lower=result.lower_bound,
        ordering=result.ordering,
        backend=result.best_backend,
        witness=result.witness,
    )


@dataclass
class _Inflight:
    """One in-flight solve, shared by coalesced requests."""

    future: asyncio.Future
    followers: int = 0


class DecompositionService:
    """The service core: transport-independent request handling.

    ``solver`` is pluggable for tests —
    ``solver(structure, metric, budget, shared, config) -> SolveOutcome``,
    called on an executor thread.  The default is
    :func:`portfolio_solver`.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        solver=None,
        tracer=None,
        metrics: Metrics | None = None,
    ):
        self.config = config or ServiceConfig()
        self.solver = solver or portfolio_solver
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or Metrics()
        # Registered up front so ``stats`` reports 0, not an absent key.
        self.metrics.counter("service.canonical_fallbacks")
        self.cache = DecompositionCache(self.config.cache_capacity)
        self._inflight: dict[tuple[str, str], _Inflight] = {}
        self._admission = asyncio.Semaphore(
            self.config.max_concurrent_solves
        )
        self._waiting = 0
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.config.max_concurrent_solves + 1),
            thread_name_prefix="repro-service",
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._shutdown = asyncio.Event()
        self._started = time.monotonic()
        self.solves = 0          # solver launches (≠ requests, thanks to
        self.timeouts = 0        # the cache and coalescing)
        self.coalesced = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_request_bytes + 1024,
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`close` or a ``shutdown`` op."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Stop accepting, let in-flight requests finish, release the
        worker pool."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        inflight = [entry.future for entry in self._inflight.values()]
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
        # Drain connection handlers: closing the transport EOFs the
        # readline an idle handler sits in, so every task exits its
        # loop normally (cancellation would leave CancelledError noise
        # in the streams machinery).
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # The line outgrew the stream limit; the framing is
                    # lost, so reject and drop the connection.
                    writer.write(protocol.encode_response(error_response(
                        TOO_LARGE,
                        f"request exceeds "
                        f"{self.config.max_request_bytes} bytes",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self.handle_line(line)
                writer.write(protocol.encode_response(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # Request handling (transport-independent; tests call these directly)
    # ------------------------------------------------------------------

    async def handle_line(self, line: bytes) -> dict:
        try:
            request = protocol.parse_request(
                line, self.config.max_request_bytes
            )
        except ProtocolError as exc:
            self.errors += 1
            self.metrics.counter("service.bad_requests").inc()
            return error_response(exc.code, str(exc))
        return await self.handle_request(request)

    async def handle_request(self, request: dict) -> dict:
        op = request.get("op", "solve")
        if op == "ping":
            return {"v": PROTOCOL_VERSION, "status": "ok", "op": "ping"}
        if op == "stats":
            return self.stats_response()
        if op == "shutdown":
            self._shutdown.set()
            return {"v": PROTOCOL_VERSION, "status": "ok", "op": "shutdown"}
        if op == "batch":
            return await self.handle_batch(request)
        return await self.handle_solve(request)

    async def handle_batch(self, request: dict) -> dict:
        requests = request.get("requests")
        if not isinstance(requests, list):
            self.errors += 1
            return error_response(
                BAD_REQUEST, "'requests' must be a list",
                request.get("id"),
            )
        if len(requests) > self.config.max_batch:
            self.errors += 1
            return error_response(
                TOO_LARGE,
                f"batch exceeds {self.config.max_batch} requests",
                request.get("id"),
            )
        responses = await asyncio.gather(*(
            self.handle_solve(sub) if isinstance(sub, dict)
            else asyncio.sleep(
                0, error_response(BAD_REQUEST, "not a request object")
            )
            for sub in requests
        ))
        return {
            "v": PROTOCOL_VERSION,
            "status": "ok",
            "op": "batch",
            "id": request.get("id"),
            "responses": list(responses),
        }

    async def handle_solve(self, request: dict) -> dict:
        started = time.monotonic()
        request_id = request.get("id")
        self.metrics.counter("service.requests").inc()
        try:
            metric = request.get("metric", "ghw")
            if metric not in ("tw", "ghw", "fhw", "hw"):
                raise ProtocolError(
                    UNSUPPORTED_METRIC, f"unsupported metric {metric!r}"
                )
            structure = protocol.decode_structure(
                request,
                max_vertices=self.config.max_vertices,
                max_edges=self.config.max_edges,
            )
            if metric in ("ghw", "fhw", "hw") and structure.isolated_vertices():
                raise ProtocolError(
                    BAD_REQUEST,
                    f"no {metric} decomposition exists: isolated "
                    "vertices cannot be covered by any hyperedge",
                )
            budget = request.get("budget")
            if budget is None:
                budget = self.config.default_budget
            if not isinstance(budget, (int, float)) or isinstance(
                budget, bool
            ) or budget <= 0:
                raise ProtocolError(
                    BAD_REQUEST, "budget must be a positive number"
                )
            budget = min(float(budget), self.config.max_budget)
        except ProtocolError as exc:
            self.errors += 1
            self.metrics.counter("service.bad_requests").inc()
            return error_response(exc.code, str(exc), request_id)

        form = canonical_form(structure)
        if not form.canonical:
            # The search budget ran out: the key is stable for these
            # labels but isomorphic resubmissions may miss the cache.
            self.metrics.counter("service.canonical_fallbacks").inc()
        try:
            response = await self._solve(metric, structure, form, budget)
        except Exception as exc:  # noqa: BLE001 — the response boundary:
            # a bug in the solve path must surface as a one-line error
            # response, never a traceback on the wire.
            self.errors += 1
            self.metrics.counter("service.internal_errors").inc()
            response = error_response(
                SOLVER_ERROR, f"internal error: {type(exc).__name__}: {exc}"
            )
        response = dict(response)
        response["id"] = request_id
        response["elapsed_ms"] = round(
            (time.monotonic() - started) * 1000.0, 3
        )
        self._trace_response(metric, form, response)
        return response

    # ------------------------------------------------------------------
    # The solve path: cache → coalesce → admit → race → verify
    # ------------------------------------------------------------------

    async def _solve(
        self,
        metric: str,
        structure: Hypergraph,
        form: CanonicalForm,
        budget: float,
    ) -> dict:
        entry = self.cache.lookup(metric, form)
        if entry is not None:
            self.metrics.counter("service.cache_hits").inc()
            return self._entry_response(entry, form, cache="hit")
        self.metrics.counter("service.cache_misses").inc()

        key = (metric, form.key)
        inflight = self._inflight.get(key)
        if inflight is not None:
            # Coalesce: ride the in-flight solve for the same canonical
            # key instead of launching a duplicate portfolio race.
            inflight.followers += 1
            self.coalesced += 1
            self.metrics.counter("service.coalesced").inc()
            template = await asyncio.shield(inflight.future)
            response = dict(template)
            if response.get("cache") == "miss":
                response["cache"] = "coalesced"
            return response

        if self._waiting >= self.config.max_queued_solves:
            self.errors += 1
            self.metrics.counter("service.overloaded").inc()
            return error_response(
                OVERLOADED,
                "admission queue full "
                f"({self.config.max_queued_solves} waiting solves)",
            )

        loop = asyncio.get_running_loop()
        inflight = _Inflight(future=loop.create_future())
        self._inflight[key] = inflight
        try:
            response = await self._admitted_solve(
                metric, structure, form, budget
            )
            if not inflight.future.done():
                inflight.future.set_result(response)
            return response
        except BaseException as exc:
            if not inflight.future.done():  # pragma: no cover - defensive
                inflight.future.set_exception(exc)
                # Consumed by coalesced followers, if any.
                inflight.future.exception()
            raise
        finally:
            self._inflight.pop(key, None)

    async def _admitted_solve(
        self,
        metric: str,
        structure: Hypergraph,
        form: CanonicalForm,
        budget: float,
    ) -> dict:
        self._waiting += 1
        try:
            await self._admission.acquire()
        finally:
            self._waiting -= 1
        try:
            return await self._launch_solve(metric, structure, form, budget)
        finally:
            self._admission.release()

    async def _launch_solve(
        self,
        metric: str,
        structure: Hypergraph,
        form: CanonicalForm,
        budget: float,
    ) -> dict:
        loop = asyncio.get_running_loop()
        shared = SharedBounds(multiprocessing.get_context())
        self.solves += 1
        self.metrics.counter("service.solves").inc()
        future = loop.run_in_executor(
            self._executor,
            self.solver, structure, metric, budget, shared, self.config,
        )
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(future),
                timeout=budget + 2 * self.config.deadline_slack,
            )
        except asyncio.TimeoutError:
            # The solver thread overran even the slack (hung worker,
            # livelocked solve).  Degrade: answer with whatever bracket
            # the shared channel accumulated.  The thread is left to
            # finish on its own — the portfolio's grace reaper kills its
            # worker processes; we must not block the event loop on it.
            self.timeouts += 1
            self.metrics.counter("service.timeouts").inc()
            future.add_done_callback(lambda f: f.exception())
            return self._bracket_response(
                metric, shared.upper(), shared.lower(),
                backend="deadline", note="deadline expired",
            )
        except Exception as exc:  # noqa: BLE001 — solver boundary
            self.errors += 1
            self.metrics.counter("service.solver_errors").inc()
            if isinstance(exc, PortfolioError):
                return error_response(SOLVER_ERROR, str(exc))
            return error_response(
                SOLVER_ERROR, f"{type(exc).__name__}: {exc}"
            )
        if outcome.upper is None or outcome.witness is None:
            # Witness-free bracket (e.g. every worker died and the
            # channel carried the incumbent): serve it, don't cache it.
            return self._bracket_response(
                metric, outcome.upper, outcome.lower,
                backend=outcome.backend,
            )
        try:
            entry = self.cache.insert(
                metric, form, structure,
                upper=outcome.upper,
                lower=outcome.lower,
                ordering=outcome.ordering,
                backend=outcome.backend,
                witness=outcome.witness,
            )
        except CertificateRejected as exc:
            # The solver's witness failed verification — never serve or
            # cache an unproven claim as if it were one.
            self.errors += 1
            self.metrics.counter("service.certificates_rejected").inc()
            return error_response(CERTIFICATE_REJECTED, str(exc))
        return self._entry_response(entry, form, cache="miss")

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    def _entry_response(
        self, entry: CacheEntry, form: CanonicalForm, cache: str
    ) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "status": "ok" if entry.exact else "bracket",
            "metric": entry.metric,
            "key": entry.key,
            "cache": cache,
            "width": width_to_json(entry.upper),
            "upper_bound": width_to_json(entry.upper),
            "lower_bound": width_to_json(entry.lower),
            "exact": entry.exact,
            "certified": True,
            "backend": entry.backend,
            "ordering": (
                None
                if entry.ordering is None
                else form.map_ordering_out(entry.ordering)
            ),
        }

    def _bracket_response(
        self,
        metric: str,
        upper: Width | None,
        lower: Width | None,
        backend: str,
        note: str | None = None,
    ) -> dict:
        response = {
            "v": PROTOCOL_VERSION,
            "status": "bracket",
            "metric": metric,
            "cache": "miss",
            "width": width_to_json(upper),
            "upper_bound": width_to_json(upper),
            "lower_bound": width_to_json(lower if lower is not None else 0),
            "exact": False,
            "certified": False,
            "backend": backend,
            "ordering": None,
        }
        if note is not None:
            response["note"] = note
        return response

    def stats_response(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "status": "ok",
            "op": "stats",
            "uptime_seconds": round(
                time.monotonic() - self._started, 3
            ),
            "cache": self.cache.stats(),
            "solves": self.solves,
            "coalesced": self.coalesced,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "inflight": len(self._inflight),
            "counters": self.metrics.snapshot()["counters"],
        }

    def _trace_response(
        self, metric: str, form: CanonicalForm, response: dict
    ) -> None:
        if not getattr(self.tracer, "enabled", False):
            return
        self.tracer.event(
            "service_response",
            id=response.get("id"),
            metric=metric,
            key=form.key,
            status=response.get("status"),
            code=response.get("code"),
            cache=response.get("cache"),
            width=response.get("width"),
            lower_bound=response.get("lower_bound"),
            exact=bool(response.get("exact")),
            elapsed_ms=response.get("elapsed_ms"),
        )


def replay_responses(records) -> list[dict]:
    """Reconstruct the response stream from a service JSONL timeline.

    Every ``service_response`` trace event carries the request
    fingerprint (metric + canonical key) and the outcome the client saw,
    so a trace file *is* a replayable record of the service's answers.
    """
    out = []
    for record in records:
        if record.get("kind") == "event" and (
            record.get("name") == "service_response"
        ):
            out.append(dict(record.get("fields") or {}))
    return out


async def run_service(
    config: ServiceConfig,
    solver=None,
    tracer=None,
    ready=None,
) -> None:
    """Start a service and serve until shutdown (the CLI entry point).

    ``ready`` (an optional callback) receives the bound
    :class:`DecompositionService` once it is listening — tests and the
    CLI use it to learn the ephemeral port.
    """
    service = DecompositionService(config, solver=solver, tracer=tracer)
    await service.start()
    if ready is not None:
        ready(service)
    await service.serve_forever()
