"""The ``solve`` workload: the solvers themselves, in process.

No service and no worker processes: a fixed list of public solver calls
on named and seeded random instances, run in whole rounds on one
thread.  Set-up builds the instances and makes one warm-up round (the
first opt-k and GA calls pay one-off import and table costs).  The
calls are the exact searches for tw, ghw, fhw and hw, the GAs with a
fixed number of generations and balanced-separator ghw with
``workers=0``.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.genetic import GAParameters, ga_ghw, ga_treewidth
from repro.hypergraph import Graph, Hypergraph
from repro.parallel import BalancedConfig, balanced_ghw
from repro.sat import cdcl_hypertree_width
from repro.search import (
    astar_fhw,
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
    hypertree_width,
    opt_k_hypertree_width,
)
from repro.telemetry import Metrics

import common
import oracle
from checks import References
from inputs import named, random_graph, random_hypergraph

GA_POPULATION = 20
GA_GENERATIONS = 10

# family -> (metric the call answers, how the answer is judged)
FAMILIES = {
    "search.astar_tw": ("tw", "exact"),
    "search.bb_tw": ("tw", "exact"),
    "search.astar_ghw": ("ghw", "exact"),
    "search.bb_ghw": ("ghw", "exact"),
    "search.astar_fhw": ("fhw", "exact"),
    "search.optk_hw": ("hw", "hw"),
    "search.detk_hw": ("hw", "hw"),
    "sat.cdcl_hw": ("hw", "hw"),
    "genetic.ga_tw": ("tw", "upper"),
    "genetic.ga_ghw": ("ghw", "upper"),
    "parallel.balanced_ghw": ("ghw", "ghd"),
}

# The round: (family, instance).  rg*/rh*/rf* are seeded random graphs
# and hypergraphs, the rest are named instances.  The calls fall in three
# bands: 18 under about 6 ms (mostly the random instances), 20 of 6-20
# ms (the GAs and the named searches; p50 lies in here) and 9 of A*-tw
# on the 5 x 5 grid near 25 ms (p90 lies in the middle of these).
ROUND = [
    ("search.astar_tw", "rg1"), ("search.astar_tw", "rg2"),
    ("search.bb_tw", "rg1"), ("search.bb_tw", "rg2"),
    ("search.astar_ghw", "rh1"), ("search.astar_ghw", "rh2"),
    ("search.astar_ghw", "myciel3"),
    ("search.bb_ghw", "rh1"), ("search.bb_ghw", "rh2"),
    ("search.bb_ghw", "myciel3"),
    ("search.astar_fhw", "rf1"), ("search.astar_fhw", "rf2"),
    ("search.optk_hw", "rh1"), ("search.optk_hw", "rh2"),
    ("search.detk_hw", "rh1"), ("search.detk_hw", "rh2"),
    ("sat.cdcl_hw", "fano"), ("sat.cdcl_hw", "grid2d_4"),

    ("genetic.ga_tw", "rg1"), ("genetic.ga_tw", "rg2"),
    ("genetic.ga_tw", "myciel3"), ("genetic.ga_tw", "grid4"),
    ("genetic.ga_ghw", "rh1"), ("genetic.ga_ghw", "rh2"),
    ("genetic.ga_ghw", "myciel3"), ("genetic.ga_ghw", "grid3"),
    ("search.optk_hw", "myciel3"), ("search.optk_hw", "grid4"),
    ("search.detk_hw", "clique_5"),
    # The other CDCL inputs close on their initial bounds with no
    # conflict; on the wheel the solver has to refute a rung.
    ("sat.cdcl_hw", "wheel4"),
    ("search.bb_ghw", "grid4"), ("search.astar_ghw", "grid4"),
    ("parallel.balanced_ghw", "grid3"), ("parallel.balanced_ghw", "rh1"),
    ("search.astar_fhw", "fano"), ("search.astar_fhw", "grid3"),
    ("search.astar_fhw", "clique_6"),
    ("search.bb_tw", "grid5"),
] + [("search.astar_tw", "grid5")] * 9

NAMED = ["myciel3", "grid3", "grid4", "grid5", "fano", "clique_5",
         "clique_6", "grid2d_4"]

# The wheel with four spokes: rim 0-1-2-3, hub 4.
WHEEL4 = [[i, (i + 1) % 4] for i in range(4)] + [[i, 4] for i in range(4)]


@dataclass
class Instance:
    label: str
    named: str | None
    edges: list
    graph: object      # a repro Graph (2-edges) or the hypergraph
    hypergraph: object  # hyperedge i is named f"e{i}"


def make_instances(seed: int) -> dict[str, Instance]:
    rng = random.Random(f"solve-{seed}")
    raw = {name: (name, named(name)) for name in NAMED}
    raw["wheel4"] = (None, WHEEL4)
    raw["rg1"] = (None, random_graph(rng, 12, 28))
    raw["rg2"] = (None, random_graph(rng, 13, 30))
    raw["rh1"] = (None, random_hypergraph(rng, 9, 9))
    raw["rh2"] = (None, random_hypergraph(rng, 9, 10))
    raw["rf1"] = (None, random_hypergraph(rng, 8, 7))
    raw["rf2"] = (None, random_hypergraph(rng, 8, 8))
    out = {}
    for label, (name, edges) in raw.items():
        hypergraph = Hypergraph.from_edges(edges)
        graph = (
            Graph(edges=[tuple(e) for e in edges])
            if all(len(e) == 2 for e in edges)
            else hypergraph
        )
        out[label] = Instance(label, name, edges, graph, hypergraph)
    return out


def call(family: str, inst: Instance, metrics=None):
    """One solver call; returns the solver's own result object."""
    h = inst.hypergraph
    ga = GAParameters(population_size=GA_POPULATION,
                      generations=GA_GENERATIONS)
    if family == "search.astar_tw":
        return astar_treewidth(inst.graph)
    if family == "search.bb_tw":
        return branch_and_bound_treewidth(inst.graph)
    if family == "search.astar_ghw":
        return astar_ghw(h, metrics=metrics)
    if family == "search.bb_ghw":
        return branch_and_bound_ghw(h, metrics=metrics)
    if family == "search.astar_fhw":
        return astar_fhw(h, metrics=metrics)
    if family == "search.optk_hw":
        return opt_k_hypertree_width(h)
    if family == "search.detk_hw":
        return hypertree_width(h)
    if family == "sat.cdcl_hw":
        return cdcl_hypertree_width(h)
    if family == "genetic.ga_tw":
        return ga_treewidth(inst.graph, ga, rng=random.Random(1),
                            metrics=metrics)
    if family == "genetic.ga_ghw":
        return ga_ghw(h, ga, rng=random.Random(1), metrics=metrics)
    if family == "parallel.balanced_ghw":
        return balanced_ghw(
            h, BalancedConfig(workers=0, deterministic=True),
            metrics=metrics,
        )
    raise KeyError(family)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# setup_s is the median of this many set-ups.  A set-up is a fresh
# process that imports the solvers, builds the instances and makes one
# cold warm-up round (the first opt-k and GA calls pay one-off import
# and table costs); it is timed from its start to the end of that round.
SETUPS = 5


def _timed_setup(seed: int) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(common.ROOT / "src")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, str(seed)],
        cwd=common.ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    with proc:
        ready = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.stdout.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode})")
    return took


def warm_up(seed: int) -> dict[str, Instance]:
    instances = make_instances(seed)
    for family, label in ROUND:
        call(family, instances[label])
    return instances


def run(seed: int, seconds: float, trace: bool):
    if trace:
        return _traced(warm_up(seed), seconds)
    setup_times = [_timed_setup(seed) for _ in range(SETUPS)]
    instances = warm_up(seed)
    ops = []
    answers = Answers()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    while True:
        for family, label in ROUND:
            t0 = time.perf_counter()
            result = call(family, instances[label])
            took = time.perf_counter() - t0
            ops.append((answers.add(family, label, result), took))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(ops) >= common.MIN_OPS:
            break
    cpu = _cpu_seconds() - cpu0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = check(instances, ops, answers)
    metrics = common.end_to_end(
        [op[1] for op in ops], elapsed, cpu, setup_times, rss
    )
    return failed == 0, len(ops), failed, metrics


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def _answer(family: str, result):
    """(width, exact, ordering, decomposition) of any result."""
    if family in ("search.optk_hw", "search.detk_hw"):
        width, decomposition = result
        return width, True, None, decomposition
    if family == "sat.cdcl_hw":
        return result.upper, result.exact, None, result.decomposition
    if family.startswith("genetic."):
        return result.best_fitness, False, result.best_individual, None
    if family == "parallel.balanced_ghw":
        return result.width, False, None, result.decomposition
    return result.upper_bound, result.exact, list(result.ordering), None


def _decomposition_problems(inst: Instance, decomposition, width):
    ix = oracle.Indexed(inst.edges)
    nodes = list(decomposition.nodes)
    bags = {n: list(decomposition.bag(n)) for n in nodes}
    covers = {
        n: [inst.edges[int(str(name)[1:])] for name in decomposition.cover(n)]
        for n in nodes
    }
    problems = oracle.check_ghd(ix, bags, decomposition.tree_edges(), covers)
    widest = max((len(c) for c in covers.values()), default=0)
    if widest > width:
        problems.append(f"a cover of {widest} edges in a width-{width} "
                        "decomposition")
    return problems


def check_one(refs: References, inst: Instance, family: str,
              result) -> list[str]:
    metric, judged = FAMILIES[family]
    width, exact, ordering, decomposition = _answer(family, result)
    # Every answer is an upper bound on its width (and ghw <= hw).
    reference = refs.get(inst.label, inst.named, metric, inst.edges, width)
    problems = []
    if judged == "exact":
        if not exact:
            problems.append("not exact")
        if not oracle.widths_equal(metric, width, reference):
            problems.append(f"{metric} {width}, reference {reference}")
    elif judged == "hw":
        if not exact:
            problems.append("not exact")
        if not oracle.hw_plausible(width, reference):
            problems.append(f"hw {width} outside [ghw, 3 ghw + 1] for ghw "
                            f"{reference}")
    elif float(width) < float(reference) - oracle.FHW_TOLERANCE:
        problems.append(f"upper bound {width} below {metric} {reference}")
    if ordering is not None:
        served = oracle.ordering_width(
            oracle.Indexed(inst.edges), ordering, metric
        )
        if not oracle.widths_equal(metric, width, served):
            problems.append(f"ordering has width {served}, not {width}")
    if decomposition is not None:
        problems += _decomposition_problems(inst, decomposition, width)
    return problems


def _signature(family: str, result) -> tuple:
    """Equal signatures mean equal answers, so one check serves both."""
    width, exact, ordering, decomposition = _answer(family, result)
    shape = None
    if decomposition is not None:
        shape = (
            tuple(sorted(
                (repr(n), tuple(sorted(map(repr, decomposition.bag(n)))),
                 tuple(sorted(map(repr, decomposition.cover(n)))))
                for n in decomposition.nodes
            )),
            tuple(sorted(map(repr, decomposition.tree_edges()))),
        )
    return (width, exact,
            None if ordering is None else tuple(ordering), shape)


class Answers:
    """The distinct answers of a run, each kept once with its first
    result.  An operation is recorded as the small index of its answer,
    so neither memory nor the collector's work grows with the run."""

    def __init__(self):
        self.ids: dict = {}
        self.first: list = []

    def add(self, family: str, label: str, result) -> int:
        key = (family, label, _signature(family, result))
        index = self.ids.setdefault(key, len(self.ids))
        if index == len(self.first):
            self.first.append((family, label, result))
        return index


def check(instances, ops, answers: Answers) -> int:
    refs = References()
    verdicts = []
    for family, label, result in answers.first:
        try:
            problems = check_one(refs, instances[label], family, result)
        except (ValueError, KeyError, IndexError) as exc:
            problems = [f"answer unusable: {exc!r}"]
        if problems:
            common.note(f"solve: {family}({label}): {problems[0]}")
        verdicts.append(bool(problems))
    return sum(1 for index, _ in ops if verdicts[index])


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _traced(instances, seconds):
    spans = common.Spans()
    ops = []
    answers = Answers()
    totals = {"nodes": 0, "search_s": 0.0, "conflicts": 0,
              "evaluations": 0, "ga_s": 0.0}
    counters: dict[str, int] = {}
    start = time.perf_counter()
    k = 0
    while True:
        for family, label in ROUND:
            metrics = Metrics()
            with spans.span("op", k):
                with spans.span(family, k):
                    result = call(family, instances[label], metrics)
            took = spans.durations_of_last(family)
            stats = getattr(result, "stats", None)
            if family.startswith("search.") and hasattr(
                stats, "nodes_expanded"
            ):
                totals["nodes"] += stats.nodes_expanded
                totals["search_s"] += took
            if family == "sat.cdcl_hw":
                totals["conflicts"] += result.conflicts
            if family.startswith("genetic."):
                totals["evaluations"] += result.evaluations
                totals["ga_s"] += took
            for name, value in metrics.snapshot()["counters"].items():
                if name.startswith("cover."):
                    counters[name] = counters.get(name, 0) + value
            ops.append((answers.add(family, label, result), took))
            k += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(ops) >= common.MIN_OPS:
            break
    failed = check(instances, ops, answers)
    queries = sum(v for n, v in counters.items()
                  if n.rsplit(".", 1)[-1] in ("hit", "dominance", "computed"))
    answered = sum(v for n, v in counters.items()
                   if n.rsplit(".", 1)[-1] in ("hit", "dominance"))
    values = {f"{family}_s": sum(spans.durations(family))
              for family in FAMILIES}
    called_s = sum(values.values())
    values.update({
        "search.nodes_expanded": totals["nodes"],
        "search.nodes_per_s": (totals["nodes"] / totals["search_s"]
                               if totals["search_s"] else 0.0),
        "setcover.cover_queries": queries,
        "setcover.cache_hit_ratio": answered / queries if queries else 0.0,
        "sat.conflicts": totals["conflicts"],
        "genetic.evals_per_s": (totals["evaluations"] / totals["ga_s"]
                                if totals["ga_s"] else 0.0),
        # The solver calls against the whole timed phase, which also
        # holds the benchmark's own per-call bookkeeping.
        "trace.coverage": called_s / elapsed,
    })
    summary = {
        "workload": "solve",
        "ops": len(ops),
        "op_p50_ms": common.median([op[1] * 1000.0 for op in ops]),
        "op_p90_ms": common.p90([op[1] * 1000.0 for op in ops]),
        **values,
    }
    return failed == 0, len(ops), failed, values, spans, summary


if __name__ == "__main__":
    # One set-up in a fresh process, timed by ``_timed_setup``.
    warm_up(int(sys.argv[1]))
    print("ready", flush=True)
