"""Warm incremental re-solve vs cold from-scratch solve on an edit stream.

The workload models a live system whose constraint hypergraph drifts one
hyperedge at a time: a mutation stream alternately removes an edge (one
whose removal isolates no vertex) and re-adds it, re-solving after every
step.

* **cold** — a fresh :class:`~repro.portfolio.IncrementalSolver` on a
  copy of the edited hypergraph, ``solve()`` racing the deterministic
  portfolio from scratch (new processes, empty cover caches).
* **warm** — one long-lived solver: ``remove_edge``/``add_edge`` ship
  :class:`~repro.hypergraph.EditTicket`\\ s to the live
  :class:`~repro.setcover.bitcover.BitCoverEngine` (only touched cache
  entries invalidated), then ``resolve_incremental()`` repairs the
  previous witness ordering and runs a short seeded GA in process.

Every step's result — both arms — carries a decomposition certificate
checked by :func:`repro.verify.certify`; a step whose certificate fails
aborts the run.  Warm widths are additionally asserted to match the
cold widths whenever both arms are exact.

Acceptance: median cold/warm speedup >= 5x over the stream, enforced at
``REPRO_BENCH_SCALE >= 0.25``; the CI smoke (0.05) still certifies every
step but reports the timing only.  Results go to
``benchmarks/results/incremental.{txt,json}``.  Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_incremental.py
"""

from __future__ import annotations

import random
import statistics
import sys
import time

from repro.instances import get_instance
from repro.portfolio import IncrementalSolver

from _harness import METRICS, bench_seed, report, scale

SPEEDUP_TARGET = 5.0
COLD_BACKENDS = ["bb-ghw"]


def _config() -> dict:
    if scale() >= 0.25:
        return {"instance": "b06", "steps": 20, "max_nodes": 20_000}
    return {"instance": "grid2d_4", "steps": 4, "max_nodes": 1_000}


def _removable_edge(hypergraph, rng):
    """An edge whose removal leaves every vertex covered (or None)."""
    names = list(hypergraph.edges)
    rng.shuffle(names)
    for name in names:
        members = hypergraph.edges[name]
        if all(
            len(hypergraph.edges_containing(v)) > 1 for v in members
        ):
            return name
    return None


def run_incremental_benchmark() -> tuple[list[list], dict]:
    config = _config()
    hypergraph = get_instance(config["instance"]).build()
    rng = random.Random(bench_seed())
    warm_solver = IncrementalSolver(
        hypergraph, seed=bench_seed(), metrics=METRICS
    )
    base = warm_solver.solve(
        jobs=2, deterministic=True, max_nodes=config["max_nodes"],
        backends=COLD_BACKENDS,
    )
    assert base.certificate.ok

    rows: list[list] = []
    speedups: list[float] = []
    removed: tuple | None = None  # (name, members) pending re-add
    for step in range(config["steps"]):
        if removed is None:
            name = _removable_edge(hypergraph, rng)
            assert name is not None, "mutation stream ran out of edges"
            members = hypergraph.edges[name]
            warm_solver.remove_edge(name)
            removed = (name, members)
            edit = f"-{name}"
        else:
            name, members = removed
            warm_solver.add_edge(members, name=name)
            removed = None
            edit = f"+{name}"

        start = time.perf_counter()
        warm = warm_solver.resolve_incremental()
        t_warm = time.perf_counter() - start
        assert warm.warm and warm.certificate.ok, (step, edit)

        cold_solver = IncrementalSolver(
            hypergraph.copy(), seed=bench_seed(), metrics=METRICS
        )
        start = time.perf_counter()
        cold = cold_solver.solve(
            jobs=2, deterministic=True, max_nodes=config["max_nodes"],
            backends=COLD_BACKENDS,
        )
        t_cold = time.perf_counter() - start
        assert cold.certificate.ok, (step, edit)
        if warm.exact and cold.exact:
            assert warm.width == cold.width, (step, edit)

        speedup = t_cold / t_warm if t_warm > 0 else float("inf")
        speedups.append(speedup)
        rows.append([
            step, edit, warm.width, cold.width,
            t_warm * 1e3, t_cold * 1e3, speedup,
        ])
        METRICS.histogram("incremental.warm_ms").observe(t_warm * 1e3)
        METRICS.histogram("incremental.cold_ms").observe(t_cold * 1e3)

    extra = {
        "instance": config["instance"],
        "steps": config["steps"],
        "max_nodes": config["max_nodes"],
        "median_speedup": statistics.median(speedups),
        "speedup_target": SPEEDUP_TARGET,
        "base_width": base.width,
        "gate_enforced": scale() >= 0.25,
    }
    return rows, extra


def _report(rows: list[list], extra: dict) -> None:
    report(
        "incremental",
        "Incremental re-solve — warm resolve_incremental() vs cold portfolio",
        ["step", "edit", "warm w", "cold w", "warm ms", "cold ms",
         "speedup"],
        rows,
        extra=extra,
    )
    gate = "enforced" if extra["gate_enforced"] else "report-only at this scale"
    print(
        f"median warm-vs-cold speedup on {extra['instance']} "
        f"({extra['steps']}-step mutation stream): "
        f"{extra['median_speedup']:.2f}x "
        f"(target >= {SPEEDUP_TARGET:.0f}x, {gate})"
    )


def _gate_ok(extra: dict) -> bool:
    if not extra["gate_enforced"]:
        return True
    return extra["median_speedup"] >= SPEEDUP_TARGET


def test_incremental_speedup(benchmark):
    rows, extra = benchmark.pedantic(
        run_incremental_benchmark, rounds=1, iterations=1
    )
    _report(rows, extra)
    if extra["gate_enforced"]:
        assert extra["median_speedup"] >= SPEEDUP_TARGET


if __name__ == "__main__":
    bench_rows, bench_extra = run_incremental_benchmark()
    _report(bench_rows, bench_extra)
    sys.exit(0 if _gate_ok(bench_extra) else 1)
