"""Balanced-separator decomposition benchmark: width and certification
gates.

**Width domination** (always enforced): on the Table 8/9 instance set
the width of ``repro.parallel.balanced_ghw`` matches or beats the
sequential deterministic portfolio's width under a comparable budget —
splitting on balanced separators must not cost width.

Every decomposition the bench touches is re-certified with
``check_ghd`` (always enforced — a certification failure is a bug, not
a performance regression).

Results go to ``benchmarks/results/balanced.{txt,json}``.  Runs
standalone too::

    PYTHONPATH=src python benchmarks/bench_balanced.py
"""

from __future__ import annotations

import sys

from repro.instances import get_instance
from repro.parallel import BalancedConfig, balanced_ghw
from repro.parallel.balanced import as_hypergraph
from repro.portfolio import run_portfolio
from repro.verify import check_ghd

from _harness import bench_seed, report, scale

# The Table 8/9 set (bench_table_8_bb_ghw / bench_table_9_astar_ghw).
EXACT_INSTANCES = [
    "adder_5", "adder_10", "adder_15",
    "clique_6", "clique_8", "clique_10",
    "grid2d_4",
]
BUDGETED_INSTANCES = ["bridge_10", "grid2d_6", "b06", "clique_15"]


def _certified(result, hypergraph) -> bool:
    return not check_ghd(
        result.decomposition, hypergraph, claimed_width=result.width
    )


def _domination_rows() -> tuple[list[list], bool, bool]:
    instances = list(EXACT_INSTANCES)
    if scale() >= 0.25:
        instances += BUDGETED_INSTANCES
    else:
        instances += ["grid2d_6", "b06"]
    budget = max(5.0, 30.0 * scale())
    rows, dominated, all_certified = [], True, True
    for name in instances:
        structure = get_instance(name).build()
        hypergraph = as_hypergraph(structure)
        balanced = balanced_ghw(
            hypergraph,
            BalancedConfig(
                deterministic=True,
                max_subproblems=int(4000 * max(scale(), 0.05)) or 200,
            ),
        )
        all_certified &= _certified(balanced, hypergraph)
        race = run_portfolio(
            structure,
            jobs=1,
            budget_seconds=budget,
            seed=bench_seed(),
            deterministic=True,
            metric="ghw",
        )
        if balanced.width > race.width:
            dominated = False
        rows.append([
            "domination", name, "balanced", balanced.width,
            balanced.stats.get("parallel.splits", 0),
            round(balanced.elapsed_seconds, 3),
        ])
        rows.append([
            "domination", name, "portfolio-seq", race.width, "-",
            round(race.elapsed_seconds, 3),
        ])
    return rows, dominated, all_certified


def run_balanced_benchmark() -> tuple[list[list], dict]:
    rows, dominated, certified = _domination_rows()
    extra = {"width_domination": dominated, "all_certified": certified}
    return rows, extra


def _report(rows: list[list], extra: dict) -> None:
    report(
        "balanced",
        "Balanced-separator splitting: width domination vs the "
        "sequential portfolio",
        ["gate", "instance", "run", "width", "splits", "seconds"],
        rows,
        extra=extra,
    )
    print(f"width domination: {extra['width_domination']}")
    print(f"all decompositions certified: {extra['all_certified']}")


def _gates_pass(extra: dict) -> bool:
    return extra["all_certified"] and extra["width_domination"]


def test_balanced_benchmark(benchmark):
    rows, extra = benchmark.pedantic(
        run_balanced_benchmark, rounds=1, iterations=1
    )
    _report(rows, extra)
    assert extra["all_certified"]
    assert extra["width_domination"]


if __name__ == "__main__":
    rows, extra = run_balanced_benchmark()
    _report(rows, extra)
    sys.exit(0 if _gates_pass(extra) else 1)
