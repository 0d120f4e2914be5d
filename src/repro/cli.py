"""Command-line interface: width computation and decomposition from the
shell.

Usage::

    python -m repro tw   <instance-or-file> [--budget SECONDS] [--ga]
    python -m repro ghw  <instance-or-file> [--budget SECONDS] [--ga]
    python -m repro fhw  <instance-or-file> [--budget SECONDS] [--ga]
    python -m repro hw   <instance-or-file> [--backend optk|detk|cdcl]
    python -m repro portfolio <instance-or-file> [--jobs N] [--budget S]
    python -m repro balanced <instance-or-file> [--budget S] [--deterministic]
    python -m repro decompose <instance-or-file> [--output FILE]
    python -m repro fuzz [--seed N] [--cases N] [--replay FILE]
    python -m repro serve [--port N] [--cache-size N] [--budget S]
    python -m repro instances [--kind graph|hypergraph]

Solver failures exit with code 1 and a one-line ``error: ...`` on
stderr (no traceback); tracers are flushed and closed either way, so a
``--trace`` file is always valid JSONL up to the failure point.

``<instance-or-file>`` is either a registered benchmark instance name
(see ``python -m repro instances``) or a path to a DIMACS ``.col`` file
(graphs) / hypergraph edge-list file (hyperedges ``name(v1,v2,...)``) —
the format is sniffed from the contents.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys

from .bounds import min_fill_ordering
from .decomposition import bucket_elimination, ordering_width
from .genetic import GAParameters, ga_ghw, ga_treewidth
from .hypergraph import Graph, Hypergraph, parse_dimacs, parse_hypergraph
from .hypergraph.io import write_tree_decomposition
from .instances import UnknownInstanceError, get_instance, list_instances
from .search import (
    SearchBudget,
    astar_treewidth,
    branch_and_bound_ghw,
)
from .telemetry import NULL_TRACER, JsonlTracer, Metrics, replay_counters


def load_structure(spec: str) -> Graph | Hypergraph:
    """Resolve an instance name or parse a file path."""
    path = pathlib.Path(spec)
    if path.exists():
        text = path.read_text()
        stripped = next(
            (line for line in text.splitlines()
             if line.strip() and not line.startswith(("c", "%", "//"))),
            "",
        )
        if stripped.startswith("p tw"):
            from .hypergraph import parse_pace_graph

            return parse_pace_graph(text)
        if stripped.startswith("p ") or stripped.startswith("e "):
            return parse_dimacs(text)
        return parse_hypergraph(text)
    try:
        return get_instance(spec).build()
    except UnknownInstanceError:
        raise SystemExit(
            f"error: {spec!r} is neither a file nor a registered instance "
            "(list them with `python -m repro instances`)"
        )


def _make_tracer(args: argparse.Namespace):
    """The run's tracer (JSONL to ``--trace FILE``) or the no-op one."""
    path = getattr(args, "trace", None)
    if path is None:
        return NULL_TRACER
    return JsonlTracer(path)


def cmd_tw(args: argparse.Namespace) -> int:
    structure = load_structure(args.instance)
    tracer = _make_tracer(args)
    # finally (not a context manager): the tracer must flush and close
    # even when the solver raises, or the trace file ends truncated.
    try:
        if args.ga:
            result = ga_treewidth(
                structure,
                GAParameters(population_size=40, generations=60),
                rng=random.Random(args.seed),
                max_seconds=args.budget,
                tracer=tracer,
            )
            print(f"treewidth <= {result.best_fitness} "
                  f"(GA-tw, {result.evaluations} evaluations)")
            return 0
        search = astar_treewidth(
            structure,
            budget=SearchBudget(max_seconds=args.budget, tracer=tracer),
        )
        if search.exact:
            print(f"treewidth = {search.width} "
                  f"(A*-tw, {search.stats.nodes_expanded} nodes)")
        else:
            print(f"treewidth in [{search.lower_bound}, {search.upper_bound}] "
                  "(budget exhausted)")
        if args.metrics:
            print(search.summary("treewidth"))
        return 0
    finally:
        tracer.close()


def _print_cover_metrics(metrics: Metrics) -> None:
    """One line per non-zero cover / GA / cache counter."""
    counters = metrics.snapshot()["counters"]
    prefixes = ("cover.", "ga.", "cache.")
    interesting = {
        name: value
        for name, value in counters.items()
        if value and name.startswith(prefixes)
    }
    for name, value in sorted(interesting.items()):
        print(f"  {name}: {value}")


def cmd_ghw(args: argparse.Namespace) -> int:
    structure = load_structure(args.instance)
    if isinstance(structure, Graph):
        structure = Hypergraph.from_graph(structure)
    tracer = _make_tracer(args)
    metrics = Metrics() if args.metrics else None
    try:
        if args.ga:
            result = ga_ghw(
                structure,
                GAParameters(population_size=24, generations=40),
                rng=random.Random(args.seed),
                max_seconds=args.budget,
                tracer=tracer,
                metrics=metrics,
            )
            print(f"ghw <= {result.best_fitness} "
                  f"(GA-ghw, {result.evaluations} evaluations)")
            if metrics is not None:
                _print_cover_metrics(metrics)
            return 0
        search = branch_and_bound_ghw(
            structure,
            budget=SearchBudget(max_seconds=args.budget, tracer=tracer),
            metrics=metrics,
        )
        if search.exact:
            print(f"ghw = {search.width} "
                  f"(BB-ghw, {search.stats.nodes_expanded} nodes)")
        else:
            print(f"ghw in [{search.lower_bound}, {search.upper_bound}] "
                  "(budget exhausted)")
        if args.metrics:
            print(search.summary("ghw"))
            _print_cover_metrics(metrics)
        return 0
    finally:
        tracer.close()


def cmd_fhw(args: argparse.Namespace) -> int:
    from .decomposition import fhd_from_ordering
    from .genetic import ga_fhw
    from .search import astar_fhw
    from .verify import check_fhd
    from .widths import format_width

    structure = load_structure(args.instance)
    if isinstance(structure, Graph):
        structure = Hypergraph.from_graph(structure)
    tracer = _make_tracer(args)
    metrics = Metrics() if args.metrics else None
    try:
        if args.ga:
            result = ga_fhw(
                structure,
                GAParameters(population_size=24, generations=40),
                rng=random.Random(args.seed),
                max_seconds=args.budget,
                tracer=tracer,
                metrics=metrics,
            )
            print(f"fhw <= {format_width(result.best_fitness)} "
                  f"(GA-fhw, {result.evaluations} evaluations)")
            if metrics is not None:
                _print_cover_metrics(metrics)
            return 0
        search = astar_fhw(
            structure,
            budget=SearchBudget(max_seconds=args.budget, tracer=tracer),
            metrics=metrics,
        )
        if search.exact:
            # Exact claims ship with their certificate checked: rebuild
            # the FHD from the witness ordering and check its weights.
            certified = ""
            if search.ordering is not None and structure.num_edges:
                fhd = fhd_from_ordering(structure, search.ordering)
                problems = check_fhd(
                    fhd, structure, claimed_width=search.upper_bound
                )
                certified = (
                    ", certified" if not problems
                    else f", CERTIFICATE INVALID: {problems[0]}"
                )
            print(f"fhw = {format_width(search.width)} "
                  f"(A*-fhw, {search.stats.nodes_expanded} nodes{certified})")
        else:
            print(f"fhw in [{format_width(search.lower_bound)}, "
                  f"{format_width(search.upper_bound)}] (budget exhausted)")
        if args.metrics:
            print(search.summary("fhw"))
            _print_cover_metrics(metrics)
        return 0
    finally:
        tracer.close()


def cmd_balanced(args: argparse.Namespace) -> int:
    from .parallel import BalancedConfig, balanced_ghw

    structure = load_structure(args.instance)
    if isinstance(structure, Graph):
        structure = Hypergraph.from_graph(structure)
    tracer = _make_tracer(args)
    metrics = Metrics()
    try:
        result = balanced_ghw(
            structure,
            BalancedConfig(
                deterministic=args.deterministic,
                max_seconds=args.budget,
            ),
            metrics=metrics,
            tracer=tracer,
        )
    finally:
        tracer.close()
    qualifier = "exact, " if result.exact else ""
    print(f"ghw {'=' if result.exact else '<='} {result.width} "
          f"(balanced, {qualifier}certified, "
          f"{result.elapsed_seconds:.2f}s)")
    print(f"  min-fill start: {result.initial_upper}, "
          f"lower bound: {result.lower_bound}, "
          f"k-ladder: {result.attempts}")
    if args.metrics:
        for name, value in sorted(result.stats.items()):
            print(f"  {name}: {value}")
    return 0


def cmd_hw(args: argparse.Namespace) -> int:
    from .search import LadderExhausted

    structure = load_structure(args.instance)
    if isinstance(structure, Graph):
        structure = Hypergraph.from_graph(structure)
    try:
        if args.backend == "detk":
            from .search import hypertree_width

            hw, htd = hypertree_width(structure, max_width=args.max_width)
            detail = f"det-k-decomp, {htd.num_nodes} decomposition nodes"
        elif args.backend == "cdcl":
            from .sat import cdcl_hypertree_width

            result = cdcl_hypertree_width(
                structure, max_width=args.max_width
            )
            if (args.max_width is not None
                    and result.lower > args.max_width):
                raise LadderExhausted(
                    "no hypertree decomposition of width <= "
                    f"{args.max_width}"
                )
            if not result.exact:
                raise LadderExhausted(
                    f"cdcl could not close the bracket "
                    f"[{result.lower}, {result.upper}] within budget"
                )
            hw = result.upper
            detail = (f"cdcl, {result.conflicts} conflicts, "
                      f"{result.rungs} rungs")
        else:
            from .search import opt_k_hypertree_width

            hw, htd = opt_k_hypertree_width(
                structure, max_width=args.max_width
            )
            detail = f"opt-k-decomp, {htd.num_nodes} decomposition nodes"
    except LadderExhausted as exc:
        # An exhausted ladder means the question is OPEN, not answered —
        # one diagnostic line on stderr and a distinct exit code, so
        # scripts can tell "width cap too low / budget too small" apart
        # from both a real width (0) and a crash (1).
        print(f"error: hw: {exc}", file=sys.stderr)
        return 2
    print(f"hypertree width = {hw} ({detail})")
    return 0


def cmd_portfolio(args: argparse.Namespace) -> int:
    from .portfolio import DEFAULT_BACKENDS, run_portfolio

    structure = load_structure(args.instance)
    metric = args.metric
    if metric is None:
        metric = "ghw" if isinstance(structure, Hypergraph) else "tw"
    backends = None
    if args.backends:
        backends = [name.strip() for name in args.backends.split(",")]
    result = run_portfolio(
        structure,
        backends=backends,
        jobs=args.jobs,
        budget_seconds=args.budget,
        max_nodes=args.max_nodes,
        seed=args.seed,
        deterministic=args.deterministic,
        metric=metric,
        trace=args.trace,
    )
    label = {"tw": "treewidth"}.get(result.metric, result.metric)
    names = backends or list(DEFAULT_BACKENDS[result.metric])
    header = (
        f"portfolio ({result.metric}, {len(names)} backends, "
        f"{result.jobs} jobs{', deterministic' if result.deterministic else ''})"
    )
    if result.exact:
        print(f"{header}: {label} = {result.upper_bound} "
              f"(exact, certificate from {result.best_backend}, "
              f"{result.elapsed_seconds:.2f}s)")
    else:
        print(f"{header}: {label} in "
              f"[{result.lower_bound}, {result.upper_bound}] "
              f"(best incumbent from {result.best_backend}, "
              f"{result.elapsed_seconds:.2f}s)")
    for name, report in result.reports.items():
        if report.error is not None:
            print(f"  {name:12s} error: {report.error}")
            continue
        if report.stopped:
            print(f"  {name:12s} stopped: race decided elsewhere "
                  f"{report.elapsed_seconds:.2f}s")
            continue
        lower = "-" if report.lower_bound is None else str(report.lower_bound)
        print(f"  {name:12s} ub={report.upper_bound} lb={lower} "
              f"nodes={report.nodes} {report.elapsed_seconds:.2f}s"
              f"{' (exact)' if report.exact else ''}")
    if args.timeline and result.events:
        print("  bound timeline:")
        for event in result.events:
            print(f"    {event.at:7.3f}s {event.backend:12s} "
                  f"{event.kind}={event.value}")
    if result.trace_path is not None:
        print(f"  trace: {result.trace_path} "
              f"({result.trace_records} records)")
    if args.metrics:
        metrics = Metrics()
        for name, report in result.reports.items():
            if report.error is not None:
                metrics.counter("portfolio.worker_errors").inc()
                continue
            metrics.counter("portfolio.nodes").inc(report.nodes)
            metrics.counter("portfolio.bound_events").inc(len(report.events))
            metrics.histogram("portfolio.worker_seconds").observe(
                report.elapsed_seconds
            )
        snapshot = metrics.snapshot()
        print("  metrics:")
        for name, value in snapshot["counters"].items():
            print(f"    {name} = {value}")
        for name, summary in snapshot["histograms"].items():
            print(f"    {name}: count={summary['count']} "
                  f"mean={summary['mean']:.3f} max={summary['max']:.3f}")
        if result.trace_path is not None:
            from .telemetry import read_jsonl

            replayed = replay_counters(read_jsonl(result.trace_path))
            for name in sorted(replayed):
                print(f"    trace.{name} = {replayed[name]['count']}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .verify.fuzz import (
        DEFAULT_FAMILIES,
        FAULTS,
        KEEP_STORED_FAULT,
        FuzzConfig,
        run_fuzz,
        run_replay,
        write_replay,
    )

    if args.list_faults:
        for name in sorted(FAULTS):
            print(f"{name:22s} {FAULTS[name]}")
        return 0
    tracer = _make_tracer(args)
    try:
        if args.replay:
            fault = args.fault
            if fault is None:
                fault = KEEP_STORED_FAULT
            elif fault in ("none", "off"):
                fault = None
            report = run_replay(args.replay, fault=fault)
        else:
            families = (
                tuple(name.strip() for name in args.families.split(","))
                if args.families
                else DEFAULT_FAMILIES
            )
            report = run_fuzz(FuzzConfig(
                seed=args.seed,
                cases=args.cases,
                families=families,
                fault=args.fault,
                max_failures=args.max_failures,
                portfolio_every=args.portfolio_every,
                tracer=tracer,
            ))
    finally:
        tracer.close()
    print(report.summary())
    for failure in report.failures:
        print(f"  {failure.summary()}")
        for message in failure.violations[:4]:
            print(f"    - {message}")
    if report.failures and not args.replay:
        path = write_replay(report.failures[0], args.write_replay)
        print(f"  minimized counterexample written to {path} "
              f"(re-run: python -m repro fuzz --replay {path})")
    if args.metrics:
        counters = report.metrics.snapshot()["counters"]
        for name in sorted(counters):
            print(f"  {name} = {counters[name]}")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_capacity=args.cache_size,
        max_concurrent_solves=args.concurrency,
        default_budget=args.budget,
        max_budget=args.max_budget,
        portfolio_jobs=args.jobs,
        seed=args.seed,
    )
    tracer = _make_tracer(args)

    def ready(service) -> None:
        print(
            f"repro service listening on {config.host}:{service.port} "
            f"(cache {config.cache_capacity}, "
            f"{config.max_concurrent_solves} concurrent solves, "
            f"default budget {config.default_budget:g}s)",
            flush=True,
        )

    try:
        asyncio.run(run_service(config, tracer=tracer, ready=ready))
    finally:
        tracer.close()
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    structure = load_structure(args.instance)
    ordering = min_fill_ordering(structure)
    td = bucket_elimination(structure, ordering)
    width = ordering_width(structure, ordering)
    print(f"min-fill tree decomposition: {td.num_nodes} bags, "
          f"width {width}")
    if args.output:
        index = {v: i + 1 for i, v in enumerate(structure.vertex_list())}
        bags = {
            node: [index[v] for v in td.bag(node)] for node in td.nodes
        }
        text = write_tree_decomposition(
            bags, td.tree_edges(), len(index)
        )
        pathlib.Path(args.output).write_text(text)
        print(f"written to {args.output} (PACE .td style, vertices "
              "relabelled 1..n)")
    return 0


def cmd_instances(args: argparse.Namespace) -> int:
    for instance in list_instances(kind=args.kind):
        marker = "" if instance.provenance == "exact" else " *"
        print(f"{instance.name:14s} {instance.kind:10s} "
              f"|V|={instance.reported_vertices:<5d} "
              f"|E|={instance.reported_edges:<6d}{marker}")
    print("\n(* = synthetic stand-in at the published size)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tree decomposition / generalized hypertree "
        "decomposition toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, doc in (
        ("tw", cmd_tw, "compute (or bound) the treewidth"),
        ("ghw", cmd_ghw, "compute (or bound) the generalized hypertree width"),
        ("fhw", cmd_fhw, "compute (or bound) the fractional hypertree width"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("instance", help="instance name or file path")
        p.add_argument("--budget", type=float, default=30.0,
                       help="time budget in seconds (default 30)")
        p.add_argument("--ga", action="store_true",
                       help="use the genetic algorithm (upper bound only)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trace", metavar="FILE", default=None,
                       help="write a JSONL telemetry trace of the run")
        p.add_argument("--metrics", action="store_true",
                       help="print the run's full stats summary")
        p.set_defaults(func=func)

    p = sub.add_parser(
        "balanced",
        help="certified ghw by balanced-separator splitting",
    )
    p.add_argument("instance", help="instance name or file path")
    p.add_argument("--budget", type=float, default=30.0,
                   help="time budget in seconds (default 30; ignored "
                   "with --deterministic)")
    p.add_argument("--deterministic", action="store_true",
                   help="subproblem budget instead of wall clock — "
                   "widths independent of machine speed")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write split/stitch events as JSONL telemetry")
    p.add_argument("--metrics", action="store_true",
                   help="print the run's parallel.* counters")
    p.set_defaults(func=cmd_balanced)

    p = sub.add_parser(
        "hw",
        help="compute the exact hypertree width "
        "(opt-k-decomp, det-k-decomp or the CDCL SAT backend)",
    )
    p.add_argument("instance", help="instance name or file path")
    p.add_argument("--max-width", type=int, default=None,
                   help="give up beyond this width (exit code 2 when the "
                   "ladder exhausts without an answer)")
    p.add_argument("--backend", choices=["optk", "detk", "cdcl"],
                   default="optk",
                   help="optk: descending certified ladder (default); "
                   "detk: ascending det-k-decomp ladder; cdcl: the "
                   "pure-python SAT solver with k-ladder assumptions")
    p.set_defaults(func=cmd_hw)

    p = sub.add_parser(
        "portfolio",
        help="race solver backends in parallel with shared incumbent bounds",
    )
    p.add_argument("instance", help="instance name or file path")
    p.add_argument("--jobs", type=int, default=2,
                   help="concurrent worker processes (default 2)")
    p.add_argument("--budget", type=float, default=30.0,
                   help="per-backend time budget in seconds (default 30)")
    p.add_argument("--max-nodes", type=int, default=None,
                   help="per-backend node budget (default unlimited)")
    p.add_argument("--backends", default=None,
                   help="comma-separated backend names "
                   "(default: full set for the metric)")
    p.add_argument("--metric", choices=["tw", "ghw", "fhw", "hw"],
                   default=None,
                   help="width metric (default: tw for graphs, "
                   "ghw for hypergraphs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action="store_true",
                   help="fixed seeds, node/generation budgets and ordered "
                   "bound merging — bit-reproducible results")
    p.add_argument("--timeline", action="store_true",
                   help="print the merged bound-event timeline")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write the merged multi-worker JSONL telemetry "
                   "trace here")
    p.add_argument("--metrics", action="store_true",
                   help="print aggregated run metrics (and trace event "
                   "counts with --trace)")
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser(
        "fuzz",
        help="differentially fuzz the solvers and verify every certificate",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="fuzz run seed (the run is a pure function of it)")
    p.add_argument("--cases", type=int, default=200,
                   help="number of random instances (default 200)")
    p.add_argument("--replay", metavar="FILE", default=None,
                   help="re-run a stored counterexample instead of fuzzing")
    p.add_argument("--write-replay", metavar="FILE",
                   default="fuzz-counterexample.json",
                   help="where to write the first minimized counterexample")
    p.add_argument("--families", default=None,
                   help="comma-separated instance families "
                   "(gnm,gnp,hyper,circuit; default all)")
    p.add_argument("--fault", default=None,
                   help="inject a named pipeline fault (mutation gate; "
                   "see --list-faults)")
    p.add_argument("--list-faults", action="store_true",
                   help="list the injectable faults and exit")
    p.add_argument("--max-failures", type=int, default=None,
                   help="stop after this many failing cases")
    p.add_argument("--portfolio-every", type=int, default=0,
                   help="also race the deterministic portfolio every Nth "
                   "case (spawns processes; default off)")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write failure events as a JSONL telemetry trace")
    p.add_argument("--metrics", action="store_true",
                   help="print the run's fuzz counters")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the decomposition service (JSONL over TCP, "
        "canonical-hash result cache in front of the portfolio)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (0 = ephemeral; default 8642)")
    p.add_argument("--cache-size", type=int, default=512,
                   help="LRU decomposition-cache capacity (default 512)")
    p.add_argument("--concurrency", type=int, default=2,
                   help="concurrent portfolio solves (default 2)")
    p.add_argument("--jobs", type=int, default=2,
                   help="worker processes per portfolio solve (default 2)")
    p.add_argument("--budget", type=float, default=10.0,
                   help="default per-request budget in seconds (default 10)")
    p.add_argument("--max-budget", type=float, default=60.0,
                   help="hard cap on client-requested budgets (default 60)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write service_response events as JSONL telemetry")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("decompose",
                       help="emit a min-fill tree decomposition")
    p.add_argument("instance", help="instance name or file path")
    p.add_argument("--output", help="write PACE-style .td text here")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("instances", help="list registered instances")
    p.add_argument("--kind", choices=["graph", "hypergraph"], default=None)
    p.set_defaults(func=cmd_instances)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # noqa: BLE001 — the CLI boundary
        # One line, nonzero exit: command failures must not dump a
        # traceback on users (tracers were already closed in the
        # commands' finally blocks, so --trace files stay valid).
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
