"""Portfolio-vs-single-backend benchmark for the parallel anytime solver.

Per registry instance, every backend of the metric's default set runs
standalone (one worker, no bound exchange) under the same budget; then
the full portfolio races them with ``jobs=2`` and live incumbent
exchange.  Two properties are checked:

* **Width domination** (always enforced): the portfolio's width matches
  or beats every single backend's width — merging the workers' bounds
  can only tighten the answer.
* **Wall-clock win** (enforced at ``REPRO_BENCH_SCALE >= 0.25``,
  report-only below): on at least one instance the portfolio finishes
  faster than some standalone backend.  This is the shared channel
  paying for itself — one search's incumbent or proof prunes the
  other's frontier, and a decided race stops the other searches — not
  mere parallelism (the CI box has a single core).

Results go to ``benchmarks/results/portfolio.{txt,json}`` with the
git SHA / seed / scale stamp.  Runs standalone too::

    PYTHONPATH=src python benchmarks/bench_portfolio.py
"""

from __future__ import annotations

import sys

from repro.instances import get_instance
from repro.portfolio import DEFAULT_BACKENDS, run_portfolio

from _harness import bench_seed, report, scale


def _instances() -> list[tuple[str, str]]:
    pairs = [("myciel3", "tw"), ("myciel4", "tw"), ("adder_10", "ghw")]
    if scale() >= 0.25:
        pairs += [("queen5_5", "tw"), ("grid2d_6", "ghw")]
    if scale() >= 1.0:
        pairs += [("queen6_6", "tw"), ("bridge_10", "ghw")]
    return pairs


def run_portfolio_benchmark() -> tuple[list[list], dict]:
    budget = max(5.0, 60.0 * scale())
    seed = bench_seed()
    rows: list[list] = []
    dominated_everywhere = True
    wallclock_wins: list[str] = []
    for name, metric in _instances():
        structure = get_instance(name).build()
        backends = DEFAULT_BACKENDS[metric]
        standalone: dict[str, tuple[int, float]] = {}
        for backend in backends:
            result = run_portfolio(
                structure,
                backends=[backend],
                jobs=1,
                budget_seconds=budget,
                seed=seed,
                metric=metric,
            )
            standalone[backend] = (result.width, result.elapsed_seconds)
            rows.append([
                name, metric, backend, result.width, result.exact,
                result.elapsed_seconds,
            ])
        race = run_portfolio(
            structure,
            jobs=2,
            budget_seconds=budget,
            seed=seed,
            metric=metric,
        )
        rows.append([
            name, metric, "portfolio", race.width, race.exact,
            race.elapsed_seconds,
        ])
        if any(race.width > width for width, _ in standalone.values()):
            dominated_everywhere = False
        beaten = [
            backend
            for backend, (_, seconds) in standalone.items()
            if race.elapsed_seconds < seconds
        ]
        if beaten:
            wallclock_wins.append(f"{name}: faster than {', '.join(beaten)}")
    extra = {
        "budget_seconds": budget,
        "width_domination": dominated_everywhere,
        "wallclock_wins": wallclock_wins,
        "gate_enforced": scale() >= 0.25,
    }
    return rows, extra


def _report(rows: list[list], extra: dict) -> None:
    report(
        "portfolio",
        "Portfolio (jobs=2, shared bounds) vs standalone backends",
        ["instance", "metric", "backend", "width", "exact", "seconds"],
        rows,
        extra=extra,
    )
    gate = "enforced" if extra["gate_enforced"] else "report-only at this scale"
    wins = extra["wallclock_wins"] or ["none"]
    print(f"width domination: {extra['width_domination']}")
    print(f"wall-clock wins ({gate}): " + "; ".join(wins))


def _gates_pass(extra: dict) -> bool:
    if not extra["width_domination"]:
        return False
    return bool(extra["wallclock_wins"]) or not extra["gate_enforced"]


def test_portfolio_benchmark(benchmark):
    rows, extra = benchmark.pedantic(
        run_portfolio_benchmark, rounds=1, iterations=1
    )
    _report(rows, extra)
    assert extra["width_domination"]
    if extra["gate_enforced"]:
        assert extra["wallclock_wins"]


if __name__ == "__main__":
    rows, extra = run_portfolio_benchmark()
    _report(rows, extra)
    sys.exit(0 if _gates_pass(extra) else 1)
