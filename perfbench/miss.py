"""The ``miss`` workload: every request is a cold solve.

Each run starts a fresh server.  Every request is a structure that is
not isomorphic to any earlier one of the run (told apart by a colour
refinement invariant), so every request runs the portfolio race and
verify-on-insert, and writes the cache that ``hit`` only reads.  The
structures are small seeded random graphs and hypergraphs plus small
named instances, across all four metrics; all of them close exactly
well inside the default request budget.

This process never imports numpy or ``repro.vector`` while it loads the
server (the fhw checks import scipy only after the timed phase), so it
pre-imports nothing the server pays for on every miss.
"""

from __future__ import annotations

import json
import random
import sys
import time

import common
from checks import References, check_response, parse_width
from inputs import invariant, named, random_graph, random_hypergraph, relabel

# One round of 20: tw and ghw race the GA backends (about 0.3 s each,
# 70%: p50 and p90 both inside this class); hw and fhw do not (30-70
# ms, 30%).
ROUND = [
    "tw", "ghw", "hw", "tw", "ghw", "fhw", "tw", "ghw", "tw", "hw",
    "ghw", "tw", "fhw", "ghw", "tw", "hw", "ghw", "tw", "fhw", "ghw",
]

NAMED = {
    "tw": ["myciel3", "grid3", "grid4"],
    "ghw": ["fano", "clique_5", "grid2d_4"],
    "fhw": ["fano", "clique_5", "grid2d_4"],
    "hw": ["fano", "clique_5", "clique_6", "grid2d_4"],
}


def _random(metric: str, rng: random.Random) -> list[list]:
    if metric == "tw":
        n = rng.randint(8, 10)
        return random_graph(rng, n, rng.randint(n + 3, 2 * n + 2))
    if metric == "fhw":
        return random_hypergraph(rng, rng.randint(6, 7), rng.randint(5, 7))
    n = rng.randint(7, 9)
    return random_hypergraph(rng, n, rng.randint(n - 2, n + 1))


class Requests:
    """The run's requests, made on demand from the seed: the named
    instances first (per metric), then random ones, skipping any whose
    invariant was already sent for that metric."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"miss-{seed}")
        self.seen: set = set()
        self.named = {m: list(names) for m, names in NAMED.items()}

    def next(self, metric: str):
        while True:
            if self.named[metric]:
                label = self.named[metric].pop(0)
                edges = named(label)
            else:
                label, edges = None, _random(metric, self.rng)
            key = (metric, invariant(edges))
            if key not in self.seen:
                self.seen.add(key)
                break
        line = common.encode({"op": "solve", "metric": metric,
                              "edges": relabel(edges, self.rng)})
        return label, metric, line


# setup_s is the median of this many set-ups (a set-up is one server start).
SETUPS = 5


def run(seed: int, seconds: float, trace: bool):
    setup_times = []
    server = None
    for _ in range(SETUPS):
        if server is not None:
            server.close()
        start = time.perf_counter()
        requests = Requests(seed)
        server = common.Server()
        server.request({"op": "ping"})
        setup_times.append(time.perf_counter() - start)
    try:
        if trace:
            return _traced(server, requests, seconds)
        ops = []
        cpu0 = common.process_cpu_seconds(server.pid)
        start = time.perf_counter()
        while True:
            for metric in ROUND:
                label, metric, line = requests.next(metric)
                t0 = time.perf_counter()
                response = server.send(line)
                ops.append((label, metric, line, response,
                            time.perf_counter() - t0))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(ops) >= common.MIN_OPS:
                break
        cpu = common.process_cpu_seconds(server.pid) - cpu0
        rss = common.process_peak_rss_kb(server.pid)
        stats = server.request({"op": "stats"})
    finally:
        server.close()
    assert_lean()
    failed = check(ops, stats)
    metrics = common.end_to_end(
        [op[4] for op in ops], elapsed, cpu, setup_times, rss
    )
    return failed == 0, len(ops), failed, metrics


def assert_lean() -> None:
    heavy = [m for m in ("numpy", "repro.vector") if m in sys.modules]
    if heavy:
        raise RuntimeError(f"the load generator imported {heavy}")


def check(ops, stats) -> int:
    """Check every answer; returns the number of failed requests."""
    refs = References()
    failed = 0
    for i, (label, metric, line, raw, _) in enumerate(ops):
        response = json.loads(raw)
        edges = json.loads(line)["edges"]
        try:
            claimed = parse_width(response.get("width"))
        except ValueError:
            claimed = None
        try:
            reference = refs.get(f"op{i}", label, metric, edges, claimed)
        except ValueError as exc:
            problems = [f"no reference at the claimed width: {exc}"]
        else:
            problems = check_response(metric, edges, response, reference,
                                      "miss")
        if problems:
            failed += 1
            if failed <= 5:
                common.note(f"miss: {label or 'random'}/{metric}: "
                            f"{problems[0]}")
    if stats["solves"] != len(ops):
        common.note(f"miss: {stats['solves']} solves for {len(ops)} "
                    "requests")
        failed = max(failed, 1)
    return failed


def _traced(server, requests, seconds):
    from layers import Replay, service_values

    spans = common.Spans()
    replay = Replay(spans)
    ops = []
    wire = []
    served = []
    start = time.perf_counter()
    k = 0
    while True:
        for metric in ROUND:
            label, metric, line = requests.next(metric)
            with spans.span("op", k):
                with spans.span("server.request", k):
                    raw = server.send(line)
                metric, structure, form = replay.decode(k, line)
                if replay.lookup(k, metric, form) is not None:
                    raise RuntimeError("a miss request hit the cache")
                entry = replay.solve_and_insert(k, metric, structure, form)
                replay.respond(k, entry, form)
            served.append(json.loads(raw)["elapsed_ms"])
            wire.append(spans.durations_of_last("server.request") * 1000.0
                        - served[-1])
            ops.append((label, metric, line, raw, 0.0))
            k += 1
        if (time.perf_counter() - start >= seconds
                and len(ops) >= common.MIN_OPS):
            break
    stats = server.request({"op": "stats"})
    server.close()
    assert_lean()
    failed = check(ops, stats)

    def ms(key: str) -> list[float]:
        return [p[key] * 1000.0 for p in replay.portfolio]

    values = service_values(spans, wire, served, stats)
    values.update({
        "portfolio.wall_ms": common.median(ms("wall_s")),
        "portfolio.dispatch_ms": common.median(ms("dispatch_s")),
        "portfolio.child_cpu_ms": common.median(ms("child_cpu_s")),
        # A mean: the winning backend often closes on its initial
        # bounds and reports 0 s, so the median would read 0.
        "backend.search_ms": common.mean(ms("search_s")),
    })
    for metric, times in replay.inserts.items():
        values[f"cache.insert_ms.{metric}"] = common.median(
            [x * 1000.0 for x in times])
    summary = {
        "workload": "miss",
        "ops": len(ops),
        "server_request_p50_ms": common.median(
            [x * 1000.0 for x in spans.durations("server.request")]),
        **values,
    }
    return failed == 0, len(ops), failed, values, spans, summary
