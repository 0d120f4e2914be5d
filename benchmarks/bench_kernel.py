"""Graph vs. BitGraph kernel benchmark for the elimination hot path.

One workload, per registered instance: ``minfill`` — the min-fill
ordering.  The baseline is the set-kernel reference implementation
(incremental fill counts over ``Graph``, as the repo shipped before the
bitset kernel); the contender is the production
:func:`repro.bounds.upper.min_fill_ordering`, which runs on mask
snapshots of :class:`BitGraph`.  Both produce the identical ordering
(asserted).  The exact searches run on the bitset kernel only, so they
have no set-kernel baseline to time against.

Acceptance: the median speedup across the instances is >= 3x.  The
assertion is enforced at ``REPRO_BENCH_SCALE >= 0.25``; starved budgets
(e.g. the CI smoke at 0.05) still run and report, but timing noise at
that size is not a meaningful gate.  Results go to
``benchmarks/results/kernel.{txt,json}``.  Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_kernel.py
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.bounds.upper import min_fill_ordering
from repro.hypergraph.bitgraph import as_bitgraph
from repro.instances import get_instance

from _harness import report, scale

SPEEDUP_TARGET = 3.0


def _instances() -> list[str]:
    names = ["myciel4", "queen5_5", "grid6", "myciel5"]
    if scale() >= 0.25:
        names += ["queen6_6"]
    if scale() >= 1.0:
        names += ["queen7_7", "miles1000", "anna"]
    return names


def minfill_set_reference(graph, rng=None):
    """The pre-kernel set-based min-fill (incremental recount on Graph)."""
    fill = {v: graph.fill_in_count(v) for v in graph.vertex_list()}
    ordering = []
    while len(graph) > 0:
        best_fill = min(fill.values())
        candidates = [v for v, f in fill.items() if f == best_fill]
        if rng is not None and len(candidates) > 1:
            vertex = candidates[rng.randrange(len(candidates))]
        else:
            vertex = min(candidates, key=repr)
        ordering.append(vertex)
        affected = graph.neighbors(vertex)
        record = graph.eliminate(vertex)
        for a, b in record.fill_edges:
            affected.add(a)
            affected.add(b)
            affected |= graph.neighbors(a) & graph.neighbors(b)
        del fill[vertex]
        for u in affected:
            if u in fill:
                fill[u] = graph.fill_in_count(u)
    return ordering


def _best_of(repeats, fn):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def run_kernel_benchmark() -> tuple[list[list], dict]:
    repeats = 2 if scale() >= 0.25 else 1
    rows: list[list] = []
    speedups: list[float] = []
    for name in _instances():
        base = get_instance(name).build()
        bit = as_bitgraph(base)

        t_set, o_set = _best_of(
            repeats, lambda: minfill_set_reference(base.copy())
        )
        t_bit, o_bit = _best_of(repeats, lambda: min_fill_ordering(bit))
        assert o_set == o_bit, name  # kernels must agree
        speedup = t_set / t_bit if t_bit > 0 else float("inf")
        speedups.append(speedup)
        rows.append([name, "minfill", t_set * 1e3, t_bit * 1e3, speedup])
    extra = {
        "median_speedup": statistics.median(speedups),
        "speedup_target": SPEEDUP_TARGET,
        "gate_enforced": scale() >= 0.25,
    }
    return rows, extra


def _report(rows: list[list], extra: dict) -> None:
    report(
        "kernel",
        "Elimination kernel — Graph (sets) vs BitGraph (bitmasks)",
        ["graph", "workload", "set ms", "bit ms", "speedup"],
        rows,
        extra=extra,
    )
    gate = "enforced" if extra["gate_enforced"] else "report-only at this scale"
    print(
        f"median speedup: {extra['median_speedup']:.2f}x "
        f"(target >= {SPEEDUP_TARGET:.0f}x, {gate})"
    )


def test_kernel_speedup(benchmark):
    rows, extra = benchmark.pedantic(
        run_kernel_benchmark, rounds=1, iterations=1
    )
    _report(rows, extra)
    if extra["gate_enforced"]:
        assert extra["median_speedup"] >= SPEEDUP_TARGET


if __name__ == "__main__":
    rows, extra = run_kernel_benchmark()
    _report(rows, extra)
    ok = (not extra["gate_enforced"]) or (
        extra["median_speedup"] >= SPEEDUP_TARGET
    )
    sys.exit(0 if ok else 1)
