"""Shared helpers for the benchmark suite.

Every ``bench_table_*.py`` module regenerates one table of the thesis:
it runs the corresponding algorithm on the registered instances (scaled
budgets — see DESIGN.md), prints a paper-vs-measured table and appends
it to ``benchmarks/results/``.  Run with::

    pytest benchmarks/ --benchmark-only

Budgets are controlled by the REPRO_BENCH_SCALE environment variable
(default 1.0; larger = longer runs, closer to the thesis' budgets).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
from collections.abc import Sequence

from repro.telemetry import Metrics

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Registry the benchmark modules record into (counters/gauges/histograms);
# ``report`` stamps its snapshot into every results JSON, so a results
# file always says how much work produced it, not just the table.
METRICS = Metrics()


def scale() -> float:
    """Global budget multiplier (REPRO_BENCH_SCALE, default 1.0)."""
    try:
        return max(0.05, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def bench_seed() -> int:
    """Global RNG seed for the benchmark runs (REPRO_BENCH_SEED)."""
    try:
        return int(os.environ.get("REPRO_BENCH_SEED", "0"))
    except ValueError:
        return 0


def git_sha() -> str:
    """The repo's current commit (short SHA; 'unknown' outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    sha = out.stdout.strip()
    # The result files are this harness's own output and are tracked:
    # rewriting them must not mark the run as coming from a dirty tree.
    if subprocess.run(
        ["git", "diff", "--quiet", "HEAD", "--",
         ":(top)", ":(top,exclude)benchmarks/results"],
        cwd=pathlib.Path(__file__).parent,
        capture_output=True,
        timeout=10,
    ).returncode != 0:
        sha += "-dirty"
    return sha


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence]
) -> str:
    """A plain-text table with aligned columns."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    return str(cell)


def report(name: str, title: str, headers, rows, extra: dict | None = None) -> str:
    """Print the table and persist it under benchmarks/results/.

    Writes both a plain-text table (``<name>.txt``) and a
    machine-readable ``<name>.json`` with the raw rows; ``extra`` merges
    additional top-level keys (e.g. summary statistics) into the JSON.
    Every JSON also carries a snapshot of the module-level ``METRICS``
    registry (record into it with ``record_search`` or directly).
    """
    text = format_table(title, headers, rows)
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    payload = {
        "name": name,
        "title": title,
        "git_sha": git_sha(),
        "seed": bench_seed(),
        "scale": scale(),
        "headers": list(headers),
        "rows": [list(row) for row in rows],
        "metrics": METRICS.snapshot(),
    }
    if extra:
        payload.update(extra)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n"
    )
    return text


def provenance_flag(instance) -> str:
    return "" if instance.provenance == "exact" else "*"


def record_search(result, prefix: str = "search") -> None:
    """Fold one :class:`~repro.search.common.SearchResult`'s stats into
    the harness ``METRICS`` (call it per run; ``report`` does the rest).
    """
    stats = result.stats
    METRICS.counter(f"{prefix}.runs").inc()
    METRICS.counter(f"{prefix}.nodes_expanded").inc(stats.nodes_expanded)
    METRICS.counter(f"{prefix}.reductions_forced").inc(
        stats.reductions_forced
    )
    METRICS.counter(f"{prefix}.bounds_published").inc(stats.bounds_published)
    if stats.budget_exhausted:
        METRICS.counter(f"{prefix}.budget_exhausted").inc()
    METRICS.histogram(f"{prefix}.elapsed_seconds").observe(
        stats.elapsed_seconds
    )
    METRICS.histogram(f"{prefix}.max_frontier").observe(stats.max_frontier)
