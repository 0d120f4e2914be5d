"""The ``hit`` workload: isomorphic resubmissions served from the cache.

Set-up starts a real ``python -m repro serve --port 0`` process and
submits each base structure once (a cold solve).  The timed phase then
resubmits fresh random relabelings of the bases, round-robin in a fixed
round: new string vertex names and shuffled edge and member order.  A
hit runs no search, so its time is the time of decoding, canonical
labelling and the cache lookup; the workload only reads the cache.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

import common
from checks import References, check_response, parse_width
from inputs import named, random_graph, random_hypergraph, relabel


@dataclass
class Base:
    label: str
    metric: str
    named: str | None
    edges: list


def make_bases(seed: int) -> dict[str, Base]:
    """Irregular seeded random structures (canonical form in about a
    millisecond), named graphs and symmetric hypergraphs (tens of
    milliseconds) and one symmetric hypergraph near 0.1 s."""
    rng = random.Random(f"hit-bases-{seed}")
    bases = [
        Base("rand_tw", "tw", None, random_graph(rng, 10, 18)),
        Base("rand_ghw", "ghw", None, random_hypergraph(rng, 9, 8)),
        Base("rand_fhw", "fhw", None, random_hypergraph(rng, 7, 6)),
        Base("rand_hw", "hw", None, random_hypergraph(rng, 9, 8)),
    ]
    for name, metric in [("grid4", "tw"), ("myciel4", "tw"),
                         ("queen5_5", "tw"), ("fano", "fhw"),
                         ("clique_5", "ghw"), ("clique_6", "hw")]:
        bases.append(Base(name, metric, name, named(name)))
    return {b.label: b for b in bases}


# One round of 25, by decode + canonical-form cost: the four random bases
# and grid4 three times under 7 ms (ranks 0-28%), myciel4 ten times at
# 8-17 ms (28-68%: p50 lies inside this one base), fano, clique_5 and
# queen5_5 once each at 12-24 ms (68-80%) and clique_6 five times at
# 100-160 ms (80-100%: p90 lies inside this one base).
ROUND = [
    "rand_tw", "myciel4", "clique_6", "grid4", "myciel4",
    "rand_ghw", "myciel4", "fano", "clique_6", "myciel4",
    "grid4", "myciel4", "clique_5", "clique_6", "myciel4",
    "rand_fhw", "myciel4", "queen5_5", "clique_6", "myciel4",
    "rand_hw", "grid4", "myciel4", "clique_6", "myciel4",
]


def _request(base: Base, rng: random.Random) -> bytes:
    return common.encode({"op": "solve", "metric": base.metric,
                          "edges": relabel(base.edges, rng)})


def _setup(seed: int, rng: random.Random):
    """Start a server and cold-solve every base; returns the server,
    the bases and the cold (request, response) lines."""
    bases = make_bases(seed)
    server = common.Server()
    try:
        cold = {}
        for label, base in bases.items():
            line = _request(base, rng)
            cold[label] = (line, server.send(line))
    except BaseException:
        server.close()
        raise
    return server, bases, cold


# setup_s is the median of this many set-ups (each set-up cold-solves every base).
SETUPS = 3


def run(seed: int, seconds: float, trace: bool):
    rng = random.Random(f"hit-relabel-{seed}")
    setup_times = []
    server = None
    for _ in range(SETUPS):
        if server is not None:
            server.close()
        start = time.perf_counter()
        server, bases, cold = _setup(seed, rng)
        setup_times.append(time.perf_counter() - start)
    try:
        if trace:
            return _traced(server, bases, cold, rng, seconds)
        ops = []
        cpu0 = common.process_cpu_seconds(server.pid)
        start = time.perf_counter()
        while True:
            for label in ROUND:
                line = _request(bases[label], rng)
                t0 = time.perf_counter()
                response = server.send(line)
                ops.append((label, line, response,
                            time.perf_counter() - t0))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(ops) >= common.MIN_OPS:
                break
        cpu = common.process_cpu_seconds(server.pid) - cpu0
        rss = common.process_peak_rss_kb(server.pid)
    finally:
        server.close()
    failed = check(bases, cold, ops)
    metrics = common.end_to_end(
        [op[3] for op in ops], elapsed, cpu, setup_times, rss
    )
    return failed == 0, len(ops), failed, metrics


def check(bases, cold, ops) -> int:
    """Check every cold answer and every resubmission; returns the
    number of failed resubmissions (a failed cold solve fails every
    resubmission of its base)."""
    refs = References()
    bad_bases = set()
    for label, (line, raw) in cold.items():
        base = bases[label]
        problems = _check_one(refs, base, json.loads(line)["edges"],
                              json.loads(raw), "miss")
        if problems:
            bad_bases.add(label)
            common.note(f"hit: cold {label}/{base.metric}: {problems[0]}")
    failed = 0
    for label, line, raw, _ in ops:
        base = bases[label]
        problems = _check_one(
            refs, base, json.loads(line)["edges"], json.loads(raw), "hit"
        )
        if problems or label in bad_bases:
            failed += 1
            if problems and failed <= 5:
                common.note(f"hit: {label}/{base.metric}: {problems[0]}")
    return failed


def _check_one(refs, base, edges, response, cache) -> list[str]:
    try:
        claimed = parse_width(response.get("width"))
    except ValueError:
        claimed = None
    try:
        reference = refs.get(base.label, base.named, base.metric,
                             base.edges, claimed)
    except ValueError as exc:
        return [f"no reference at the claimed width: {exc}"]
    return check_response(base.metric, edges, response, reference, cache)


def _traced(server, bases, cold, rng, seconds):
    from layers import Replay, service_values

    replay = Replay(common.Spans())
    for label, base in bases.items():
        metric, structure, form = replay.decode(-1, _request(base, rng))
        replay.solve_and_insert(-1, metric, structure, form)
    spans = replay.spans = common.Spans()
    ops = []
    wire = []
    served = []
    start = time.perf_counter()
    k = 0
    while True:
        for label in ROUND:
            line = _request(bases[label], rng)
            with spans.span("op", k):
                with spans.span("server.request", k):
                    raw = server.send(line)
                metric, structure, form = replay.decode(k, line)
                entry = replay.lookup(k, metric, form)
                if entry is not None:
                    replay.respond(k, entry, form)
            served.append(json.loads(raw)["elapsed_ms"])
            wire.append(spans.durations_of_last("server.request") * 1000.0
                        - served[-1])
            ops.append((label, line, raw, 0.0))
            k += 1
        if (time.perf_counter() - start >= seconds
                and len(ops) >= common.MIN_OPS):
            break
    stats = server.request({"op": "stats"})
    server.close()
    failed = check(bases, cold, ops)
    values = service_values(spans, wire, served, stats)
    summary = {
        "workload": "hit",
        "ops": len(ops),
        "server_request_p50_ms": common.median(
            [x * 1000.0 for x in spans.durations("server.request")]),
        **values,
    }
    return failed == 0, len(ops), failed, values, spans, summary
