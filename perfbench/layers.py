"""The traced run's in-process replay of a service request.

The same request bytes the server receives are driven, in this
process, through the public functions of each service layer in the
order ``repro.service.server`` calls them, with a span around each
call.  Spans live in the benchmark, not in the program.
"""

from __future__ import annotations

import multiprocessing
import resource

from repro.portfolio import run_portfolio
from repro.portfolio.shared import SharedBounds
from repro.service import protocol
from repro.service.cache import DecompositionCache
from repro.service.canonical import canonical_form
from repro.service.server import ServiceConfig

import common

CONFIG = ServiceConfig()  # the defaults `python -m repro serve` runs with

def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Replay:
    """A local cache plus the per-request layer calls, each in a span."""

    def __init__(self, spans):
        self.spans = spans
        self.cache = DecompositionCache(CONFIG.cache_capacity)
        self.portfolio: list[dict] = []
        self.inserts: dict[str, list[float]] = {}

    def decode(self, op: int, line: bytes):
        with self.spans.span("protocol.decode", op):
            request = protocol.parse_request(line, CONFIG.max_request_bytes)
            structure = protocol.decode_structure(
                request, CONFIG.max_vertices, CONFIG.max_edges
            )
        with self.spans.span("canonical.form", op):
            form = canonical_form(structure)
        return request["metric"], structure, form

    def lookup(self, op: int, metric: str, form):
        with self.spans.span("cache.lookup", op):
            return self.cache.lookup(metric, form)

    def respond(self, op: int, entry, form) -> bytes:
        with self.spans.span("canonical.map_out", op):
            ordering = (
                None if entry.ordering is None
                else form.map_ordering_out(entry.ordering)
            )
        with self.spans.span("protocol.encode", op):
            return protocol.encode_response({
                "status": "ok", "metric": entry.metric, "key": entry.key,
                "width": protocol.width_to_json(entry.upper),
                "ordering": ordering,
            })

    def solve_and_insert(self, op: int, metric: str, structure, form):
        """A cold portfolio race with the server's settings, then
        verify-on-insert into the local cache."""
        cpu0 = _children_cpu()
        with self.spans.span("portfolio.run", op):
            result = run_portfolio(
                structure,
                metric=metric,
                jobs=CONFIG.portfolio_jobs,
                budget_seconds=CONFIG.default_budget,
                grace_seconds=CONFIG.default_budget + CONFIG.deadline_slack,
                shared_bounds=SharedBounds(multiprocessing.get_context()),
                seed=CONFIG.seed,
            )
        wall = self.spans.durations_of_last("portfolio.run")
        reports = [r for r in result.reports.values() if r.error is None]
        best = result.reports.get(result.best_backend)
        self.portfolio.append({
            "wall_s": wall,
            "dispatch_s": wall - max(
                (r.elapsed_seconds for r in reports), default=0.0
            ),
            "child_cpu_s": _children_cpu() - cpu0,
            "search_s": best.elapsed_seconds if best is not None else 0.0,
        })
        with self.spans.span("cache.insert", op):
            entry = self.cache.insert(
                metric, form, structure,
                upper=result.upper_bound,
                lower=result.lower_bound,
                ordering=(
                    None if result.ordering is None
                    else list(result.ordering)
                ),
                backend=result.best_backend,
                witness=result.witness,
            )
        self.inserts.setdefault(metric, []).append(
            self.spans.durations_of_last("cache.insert")
        )
        return entry


# The replay's layer spans; an operation's other spans are its root
# ("op") and the real round trip to the server ("server.request").
LAYER_SPANS = ("protocol.decode", "canonical.form", "cache.lookup",
               "portfolio.run", "cache.insert", "canonical.map_out",
               "protocol.encode")


def service_values(spans, wire_ms: list[float], served_ms: list[float],
                   stats: dict) -> dict:
    """The per-layer metrics of the service layers, from the replay's
    spans, the wire times, the ``elapsed_ms`` the server stamped on each
    operation and the server's ``stats`` answer."""

    def ms(name: str) -> list[float]:
        return [x * 1000.0 for x in spans.durations(name)]

    layers_ms = sum(sum(ms(name)) for name in LAYER_SPANS)

    return {
        "protocol.decode_ms": common.median(ms("protocol.decode")),
        "canonical.form_ms": common.median(ms("canonical.form")),
        "canonical.form_p90_ms": common.p90(ms("canonical.form")),
        "cache.lookup_ms": common.median(ms("cache.lookup")),
        "server.wire_ms": common.median(wire_ms),
        # The replayed layers against the server's own time for the same
        # requests: how much of a served operation the layers account for.
        "trace.coverage": layers_ms / sum(served_ms),
        "cache.hits": stats["cache"]["hits"],
        "cache.misses": stats["cache"]["misses"],
        "server.solves": stats["solves"],
    }
