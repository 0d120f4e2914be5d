"""Deterministic differential fuzz harness over the whole solver zoo.

One fuzz case draws a random instance from
:mod:`repro.hypergraph.generators`, runs independent solvers on it and
cross-examines everything they claim:

* **Differential pairs** — A*-tw and BB-tw must agree, as must BB-ghw
  and A*-ghw; A*-fhw must respect the invariant chain
  ``fhw ≤ ghw ≤ tw + 1``; on small instances (tw up to
  :data:`TW_ORACLE_VERTICES` vertices, ghw and fhw up to
  :data:`HYPER_ORACLE_VERTICES`) every exact width must also match the
  subset-DP brute-force oracles; the deterministic portfolio (optional,
  it spawns processes) must match the exact width.
* **Bound soundness** — GA and min-fill upper bounds may be loose but
  never undercut the exact width; proven lower bounds never exceed
  upper bounds; the hypertree width (det-k-decomp, opt-k-decomp and the
  CDCL backend, which must also agree with each other) never drops
  below ghw.
* **Certificates** — every witness ordering is rebuilt into a
  decomposition and pushed through :mod:`repro.verify.certificate`
  (``check_td`` / ``check_ghd`` / ``check_htd`` with width accounting).

On a failure the instance is delta-debugged: vertices then edges are
deleted one at a time while the *same* check keeps failing, to a
fixpoint, and the minimal counterexample is serialized to a JSON replay
file that ``run_replay`` (or ``python -m repro fuzz --replay FILE``)
re-executes byte-for-byte.

The harness doubles as its own mutation gate: :data:`FAULTS` names
hand-seeded solver/checker faults (dropped tree edge, off-by-one width,
missing λ cover edge, descendant leak, ...) that ``fault=`` injects at
the corresponding pipeline seam; the test suite asserts the fuzzer
detects every one of them with a small shrunk counterexample.

Everything is a pure function of ``FuzzConfig.seed``.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from ..bounds import min_fill_ordering
from ..decomposition import (
    fhd_from_ordering,
    ghd_from_ordering,
    ordering_width,
    td_from_ordering,
)
from ..decomposition.htd import htd_from_ordering
from ..genetic import GAParameters, ga_ghw, ga_treewidth
from ..hypergraph import Graph, Hypergraph
from ..hypergraph.generators import (
    random_circuit_hypergraph,
    random_gnm_graph,
    random_gnp_graph,
    random_hypergraph,
)
from ..search import (
    astar_fhw,
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
    brute_force_fhw,
    brute_force_ghw,
    brute_force_treewidth,
)
from ..setcover.exact import exact_set_cover
from ..telemetry import NULL_TRACER, Metrics
from .certificate import check_fhd, check_ghd, check_htd, check_td

REPLAY_VERSION = 1

# Largest instances checked against the brute-force oracles.
TW_ORACLE_VERTICES = 10
HYPER_ORACLE_VERTICES = 8

DEFAULT_FAMILIES = ("gnm", "gnp", "hyper", "circuit")
_GRAPH_FAMILIES = frozenset({"gnm", "gnp"})

# Hand-seeded faults for the mutation gate: name -> (seam, description).
# ``fault=name`` corrupts exactly that seam of the pipeline; the harness
# must then report at least one failure (and shrink it small).
FAULTS: dict[str, str] = {
    "width-off-by-one": "BB reports an upper bound one below the optimum",
    "lb-overclaim": "A* reports a lower bound above its own upper bound",
    "drop-tree-edge": "a tree edge is dropped from the emitted decomposition",
    "drop-bag-vertex": "one vertex is erased from every bag (coverage hole)",
    "connectedness-break": "a vertex is smuggled into a far-away bag",
    "drop-lambda-edge": "one hyperedge is dropped from a λ-label",
    "ga-undercut": "the GA reports a fitness below the exact width",
    "descendant-leak": "an HTD λ-label reintroduces vertices its subtree "
    "dropped (descendant condition)",
    "fhw-round": "the fhw searches floor a rational width to an integer "
    "instead of staying exact",
    "fhw-integral-cache": "the fhw search answers a fractional query "
    "with the integral cover size",
    "stitch-drop-cover": "the balanced stitcher drops separator edges "
    "from a joint bag's λ-label (coverage hole the certifier must flag)",
    "sat-learn-drop": "the CDCL solver drops a literal from learned "
    "clauses (unsound strengthening; wrong UNSAT answers diverge from "
    "det-k-decomp, wrong models fail witness certification)",
    "optk-descendant-forget": "an opt-k witness bag forgets a λ-vertex "
    "that reappears in the subtree below (the χ-computation bug the "
    "descendant condition exists to catch)",
}


@dataclass
class FuzzConfig:
    """Knobs of a fuzz run.  Two runs with equal configs are identical."""

    seed: int = 0
    cases: int = 100
    max_graph_vertices: int = 9
    max_hyper_vertices: int = 6
    families: tuple[str, ...] = DEFAULT_FAMILIES
    fault: str | None = None
    max_failures: int | None = None  # stop after N failures (None = run all)
    shrink: bool = True
    ga_every: int = 2  # GA bound check on every Nth case (0 = never)
    hw_every: int = 4  # det-k-decomp check on every Nth hypergraph case
    fhw_every: int = 4  # fhw differential/chain check cadence (0 = never)
    portfolio_every: int = 0  # deterministic-portfolio check cadence (0 = off)
    balanced_every: int = 4  # balanced-separator cross-check cadence
    metrics: Metrics | None = None
    tracer: object = NULL_TRACER

    def __post_init__(self) -> None:
        if self.cases < 0:
            raise ValueError("cases must be non-negative")
        unknown = [f for f in self.families if f not in DEFAULT_FAMILIES]
        if unknown:
            raise ValueError(
                f"unknown families {unknown!r} (choose from {DEFAULT_FAMILIES})"
            )
        if not self.families:
            raise ValueError("at least one family is required")
        if self.fault is not None and self.fault not in FAULTS:
            raise ValueError(
                f"unknown fault {self.fault!r} (choose from {sorted(FAULTS)})"
            )


@dataclass
class _Finding:
    """One broken invariant observed while checking a single instance."""

    check: str
    detail: str
    violations: list[str] = field(default_factory=list)


@dataclass
class FuzzFailure:
    """A confirmed, shrunk counterexample."""

    check: str
    detail: str
    violations: list[str]
    family: str
    case_index: int
    case_seed: int
    structure: Graph | Hypergraph
    original_vertices: int
    shrink_steps: int
    fault: str | None = None

    def summary(self) -> str:
        size = (
            f"{self.structure.num_vertices} vertices / "
            f"{self.structure.num_edges} edges"
        )
        shrunk = (
            f" (shrunk from {self.original_vertices} vertices in "
            f"{self.shrink_steps} steps)"
            if self.shrink_steps
            else ""
        )
        return (
            f"case {self.case_index} [{self.family}, seed {self.case_seed}] "
            f"{self.check}: {self.detail} — {size}{shrunk}"
        )


@dataclass
class FuzzReport:
    """Outcome of a fuzz run."""

    seed: int
    cases_run: int
    failures: list[FuzzFailure]
    metrics: Metrics
    elapsed_seconds: float
    fault: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = (
            "all clean"
            if self.ok
            else f"{len(self.failures)} failing case(s)"
        )
        fault = f", fault={self.fault}" if self.fault else ""
        return (
            f"fuzz: {self.cases_run} cases (seed {self.seed}{fault}) — "
            f"{verdict} in {self.elapsed_seconds:.2f}s"
        )


# ----------------------------------------------------------------------
# Instance generation
# ----------------------------------------------------------------------


def _generate(family: str, case_seed: int, config: FuzzConfig):
    rng = random.Random(case_seed)
    if family == "gnm":
        n = rng.randint(2, config.max_graph_vertices)
        m = rng.randint(0, n * (n - 1) // 2)
        return random_gnm_graph(n, m, seed=rng.randrange(2**31))
    if family == "gnp":
        n = rng.randint(2, config.max_graph_vertices)
        return random_gnp_graph(n, rng.uniform(0.0, 0.9),
                                seed=rng.randrange(2**31))
    if family == "hyper":
        n = rng.randint(2, config.max_hyper_vertices)
        e = rng.randint(1, n + 2)
        h = random_hypergraph(n, e, seed=rng.randrange(2**31),
                              min_arity=1, max_arity=min(3, n))
    elif family == "circuit":
        n = rng.randint(3, config.max_hyper_vertices)
        e = rng.randint(2, n + 2)
        h = random_circuit_hypergraph(n, e, seed=rng.randrange(2**31),
                                      max_arity=3)
    else:  # pragma: no cover - guarded by FuzzConfig
        raise ValueError(f"unknown family {family!r}")
    # ghw needs every vertex inside some hyperedge.
    for v in sorted(h.isolated_vertices()):
        h.add_edge({v, (v + 1) % n} if n > 1 else {v}, name=f"iso{v}")
    return h


# ----------------------------------------------------------------------
# Fault injection (the mutation gate's seams)
# ----------------------------------------------------------------------


class _FaultInjector:
    """Applies one named corruption at its pipeline seam.

    All choices are deterministic functions of the artifact being
    corrupted, so a shrink re-run reproduces the same corruption.
    """

    def __init__(self, fault: str | None):
        self.fault = fault
        self.applied = 0

    def result(self, result, role: str) -> None:
        """Corrupt a SearchResult in place (width / bound seams)."""
        if self.fault == "width-off-by-one" and role.startswith("bb"):
            if result.exact and result.upper_bound > 0:
                result.upper_bound -= 1
                result.lower_bound = min(
                    result.lower_bound, result.upper_bound
                )
                self.applied += 1
        elif self.fault == "lb-overclaim" and role.startswith("astar"):
            result.lower_bound = result.upper_bound + 1
            result.exact = False
            self.applied += 1
        elif self.fault == "fhw-round" and role.startswith("fhw"):
            # A Fraction bound is necessarily non-integral (as_width
            # collapses integral rationals to int), so flooring it
            # always understates the width.
            if isinstance(result.upper_bound, Fraction):
                result.upper_bound = int(result.upper_bound)
                if result.lower_bound > result.upper_bound:
                    result.lower_bound = result.upper_bound
                self.applied += 1
        elif self.fault == "fhw-integral-cache" and role == "fhw":
            if isinstance(result.upper_bound, Fraction):
                result.upper_bound = math.ceil(result.upper_bound)
                self.applied += 1

    def ga(self, fitness: int, exact_width: int) -> int:
        """Corrupt a GA fitness claim."""
        if self.fault == "ga-undercut" and exact_width > 0:
            self.applied += 1
            return exact_width - 1
        return fitness

    def decomposition(self, dec) -> None:
        """Corrupt an emitted decomposition in place (checker seams)."""
        if self.fault == "drop-tree-edge":
            edges = sorted(dec.tree_edges(), key=repr)
            if edges:
                a, b = edges[0]
                dec._tree[a].discard(b)  # noqa: SLF001 — deliberate sabotage
                dec._tree[b].discard(a)
                self.applied += 1
        elif self.fault == "drop-bag-vertex":
            vertices = sorted(dec.covered_vertices(), key=repr)
            if vertices:
                victim = vertices[0]
                for node in dec.nodes:
                    bag = dec.bag(node)
                    if victim in bag:
                        dec.set_bag(node, bag - {victim})
                self.applied += 1
        elif self.fault == "connectedness-break":
            self._break_connectedness(dec)
        elif self.fault == "drop-lambda-edge" and hasattr(dec, "covers"):
            candidates = [
                (node, lam) for node, lam in sorted(
                    dec.covers.items(), key=lambda kv: repr(kv[0])
                ) if lam and dec.bag(node)
            ]
            if candidates:
                node, lam = max(candidates, key=lambda kv: len(kv[1]))
                dec.set_cover(node, lam - {sorted(lam, key=repr)[0]})
                self.applied += 1

    def _break_connectedness(self, dec) -> None:
        """Add a vertex to a bag with no tree-neighbour holding it."""
        if dec.num_nodes < 3:
            return
        for vertex in sorted(dec.covered_vertices(), key=repr):
            holders = set(dec.nodes_containing(vertex))
            for node in dec.nodes:
                if node in holders:
                    continue
                if dec.tree_neighbors(node) & holders:
                    continue
                dec.set_bag(node, dec.bag(node) | {vertex})
                self.applied += 1
                return

    def stitch(self, dec, hypergraph: Hypergraph) -> None:
        """Corrupt a balanced-stitched GHD the way a buggy stitcher
        would: drop separator edges from a joint bag's λ-label so the
        bag is no longer covered (χ ⊄ var(λ))."""
        if self.fault != "stitch-drop-cover":
            return
        edges = hypergraph.edges
        for node in sorted(dec.nodes, key=repr):
            bag = dec.bag(node)
            lam = dec.cover(node)
            if not bag or not lam:
                continue
            for name in sorted(lam, key=repr):
                smaller = lam - {name}
                covered = set()
                for other in smaller:
                    covered |= edges.get(other, frozenset())
                if bag - covered:
                    dec.set_cover(node, smaller)
                    self.applied += 1
                    return
        # Redundantly-covered everywhere: strip a whole λ-label, which
        # uncovers any nonempty bag (the guaranteed-violation fallback).
        for node in sorted(dec.nodes, key=repr):
            if dec.bag(node):
                dec.set_cover(node, frozenset())
                self.applied += 1
                return

    def optk(self, htd, hypergraph: Hypergraph) -> None:
        """Corrupt an opt-k witness the way a buggy χ computation would:
        drop from some bag a λ-vertex that reappears in the subtree
        below it.  The descendant condition — var(λ(p)) ∩ χ(T_p) ⊆ χ(p)
        — is then violated at exactly that node, which is the failure
        mode a forgetful ``χ = var(λ) ∩ (Conn ∪ covered vars)``
        implementation produces."""
        if self.fault != "optk-descendant-forget":
            return
        root = htd.effective_root()
        subtree = htd.subtree_variables(root)
        parents = htd.rooted_parents(root)
        edges = hypergraph.edges
        for node in htd.topological_order(root):
            lam_vars: set = set()
            for name in htd.cover(node):
                lam_vars |= edges[name]
            below: set = set()
            for child in htd.tree_neighbors(node):
                if parents.get(child) == node:
                    below |= subtree[child]
            candidates = sorted(htd.bag(node) & lam_vars & below, key=repr)
            if candidates:
                htd.set_bag(node, htd.bag(node) - {candidates[0]})
                self.applied += 1
                return

    def htd(self, htd, hypergraph: Hypergraph) -> None:
        """Corrupt an HTD so that *only* the descendant condition breaks:
        grow a λ-label by an edge whose vertices reappear below."""
        if self.fault != "descendant-leak":
            return
        root = htd.effective_root()
        subtree = htd.subtree_variables(root)
        for node in htd.topological_order(root):
            for name in sorted(hypergraph.edges, key=repr):
                leaked = (
                    (hypergraph.edges[name] & subtree[node]) - htd.bag(node)
                )
                if leaked:
                    htd.set_cover(node, htd.cover(node) | {name})
                    self.applied += 1
                    return


# ----------------------------------------------------------------------
# Per-instance check pipelines
# ----------------------------------------------------------------------

_GA_GRAPH = GAParameters(population_size=8, generations=4)
_GA_HYPER = GAParameters(population_size=8, generations=4)


def _certify_td(graph, result, role, fault) -> list[_Finding]:
    if result.ordering is None:
        return []
    td = td_from_ordering(graph, result.ordering)
    fault.decomposition(td)
    problems = check_td(td, graph, claimed_width=result.upper_bound)
    if problems:
        return [_Finding(
            "td-certificate",
            f"{role} witness ordering builds an invalid tree decomposition",
            [str(p) for p in problems],
        )]
    return []


def _check_graph(graph: Graph, case_seed: int, index: int,
                 config: FuzzConfig) -> list[_Finding]:
    fault = _FaultInjector(config.fault)
    findings: list[_Finding] = []
    try:
        results = {
            "astar": astar_treewidth(graph.copy()),
            "bb": branch_and_bound_treewidth(graph.copy()),
        }
    except Exception as exc:  # noqa: BLE001 — crashes are findings too
        return [_Finding("solver-exception",
                         f"{type(exc).__name__}: {exc}")]
    fault.result(results["astar"], "astar")
    fault.result(results["bb"], "bb")

    for role, result in results.items():
        if result.lower_bound > result.upper_bound:
            findings.append(_Finding(
                "bounds-inconsistent",
                f"{role}: lower bound {result.lower_bound} exceeds upper "
                f"bound {result.upper_bound}",
            ))
    exact_widths = {
        role: r.upper_bound for role, r in results.items() if r.exact
    }
    if len(set(exact_widths.values())) > 1:
        findings.append(_Finding(
            "tw-differential",
            f"exact solvers disagree: {sorted(exact_widths.items())}",
        ))
    if exact_widths and graph.num_vertices <= TW_ORACLE_VERTICES:
        oracle = brute_force_treewidth(graph.copy())
        wrong = {r: w for r, w in exact_widths.items() if w != oracle}
        if wrong:
            findings.append(_Finding(
                "tw-oracle",
                f"brute force says {oracle}, solvers said {sorted(wrong.items())}",
            ))
    for role, result in results.items():
        findings.extend(_certify_td(graph, result, role, fault))

    if exact_widths:
        exact = min(exact_widths.values())
        mf_width = ordering_width(graph, min_fill_ordering(graph))
        if mf_width < exact:
            findings.append(_Finding(
                "heuristic-undercut",
                f"min-fill width {mf_width} undercuts exact width {exact}",
            ))
        if config.ga_every and index % config.ga_every == 0:
            ga = ga_treewidth(graph.copy(), _GA_GRAPH,
                              rng=random.Random(case_seed))
            fitness = fault.ga(int(ga.best_fitness), exact)
            if fitness < exact:
                findings.append(_Finding(
                    "ga-undercut",
                    f"GA-tw fitness {fitness} undercuts exact width {exact}",
                ))
        if config.portfolio_every and index % config.portfolio_every == 0:
            findings.extend(_check_portfolio(graph, "tw", exact))
    return findings


def _check_hypergraph(h: Hypergraph, case_seed: int, index: int,
                      config: FuzzConfig) -> list[_Finding]:
    fault = _FaultInjector(config.fault)
    findings: list[_Finding] = []
    try:
        results = {
            "bb": branch_and_bound_ghw(h.copy()),
            "astar": astar_ghw(h.copy()),
        }
    except Exception as exc:  # noqa: BLE001 — crashes are findings too
        return [_Finding("solver-exception",
                         f"{type(exc).__name__}: {exc}")]
    fault.result(results["bb"], "bb")
    fault.result(results["astar"], "astar")

    for role, result in results.items():
        if result.lower_bound > result.upper_bound:
            findings.append(_Finding(
                "bounds-inconsistent",
                f"{role}: lower bound {result.lower_bound} exceeds upper "
                f"bound {result.upper_bound}",
            ))
    exact_widths = {
        role: r.upper_bound for role, r in results.items() if r.exact
    }
    if len(set(exact_widths.values())) > 1:
        findings.append(_Finding(
            "ghw-differential",
            f"exact solvers disagree: {sorted(exact_widths.items())}",
        ))
    if exact_widths and h.num_vertices <= HYPER_ORACLE_VERTICES:
        oracle = brute_force_ghw(h.copy())
        wrong = {r: w for r, w in exact_widths.items() if w != oracle}
        if wrong:
            findings.append(_Finding(
                "ghw-oracle",
                f"brute force says {oracle}, solvers said {sorted(wrong.items())}",
            ))
    for role, result in results.items():
        if result.ordering is None:
            continue
        ghd = ghd_from_ordering(h, result.ordering,
                                cover_function=exact_set_cover)
        fault.decomposition(ghd)
        problems = check_ghd(ghd, h, claimed_width=result.upper_bound)
        if problems:
            findings.append(_Finding(
                "ghd-certificate",
                f"{role} witness ordering builds an invalid GHD",
                [str(p) for p in problems],
            ))

    exact = min(exact_widths.values()) if exact_widths else None
    htd = htd_from_ordering(h, min_fill_ordering(h))
    fault.htd(htd, h)
    problems = check_htd(htd, h)
    if problems:
        findings.append(_Finding(
            "htd-certificate",
            "min-fill hypertree decomposition is invalid",
            [str(p) for p in problems],
        ))
    elif exact is not None and htd.ghw_width < exact:
        findings.append(_Finding(
            "hw-undercut",
            f"hw upper bound {htd.ghw_width} undercuts ghw {exact}",
        ))

    if exact is not None:
        if config.ga_every and index % config.ga_every == 0:
            ga = ga_ghw(h.copy(), _GA_HYPER, rng=random.Random(case_seed))
            fitness = fault.ga(int(ga.best_fitness), exact)
            if fitness < exact:
                findings.append(_Finding(
                    "ga-undercut",
                    f"GA-ghw fitness {fitness} undercuts exact ghw {exact}",
                ))
        if config.hw_every and index % config.hw_every == 0:
            findings.extend(_check_hw(h, exact, fault))
        if config.portfolio_every and index % config.portfolio_every == 0:
            findings.extend(_check_portfolio(h, "ghw", exact))
    if config.balanced_every and index % config.balanced_every == 0:
        findings.extend(_check_balanced(h, fault, exact))
    if config.fhw_every and index % config.fhw_every == 0:
        findings.extend(_check_fhw(h, fault, exact))
    return findings


def _check_balanced(h: Hypergraph, fault: "_FaultInjector",
                    exact_ghw: int | None) -> list[_Finding]:
    """The balanced-separator leg: ``repro.parallel.balanced_ghw``
    against the exact A*/BB widths.

    Balanced is an anytime *upper-bound* procedure whose every report
    is certified, so the sound invariants are (a) the emitted
    decomposition passes ``check_ghd`` at the claimed width and (b) the
    width never undercuts the exact ghw.  Width above the exact value
    is legal in general (the enumeration is capped by design) and is
    deliberately not flagged.
    """
    from ..parallel import BalancedConfig, balanced_ghw

    try:
        result = balanced_ghw(h.copy(), BalancedConfig(deterministic=True))
    except Exception as exc:  # noqa: BLE001 — crashes are findings too
        return [_Finding("balanced-exception",
                         f"{type(exc).__name__}: {exc}")]
    findings: list[_Finding] = []
    dec = result.decomposition
    fault.stitch(dec, h)
    problems = check_ghd(dec, h, claimed_width=result.width)
    if problems:
        findings.append(_Finding(
            "balanced-certificate",
            f"balanced_ghw width-{result.width} decomposition fails "
            "check_ghd",
            [str(p) for p in problems],
        ))
    if exact_ghw is not None and result.width < exact_ghw:
        findings.append(_Finding(
            "balanced-undercut",
            f"balanced_ghw width {result.width} undercuts exact ghw "
            f"{exact_ghw}",
        ))
    return findings


def _check_fhw(h: Hypergraph, fault: "_FaultInjector",
               exact_ghw: int | None) -> list[_Finding]:
    """The fhw leg: A*-fhw against the brute-force oracle, the
    invariant chain ``fhw ≤ ghw ≤ tw + 1``, and FHD certificates.

    The reverse inequality ``ghw = O(fhw · log n)`` (Marx) is real but
    deliberately *not* asserted: its constant is not pinned down by the
    theorem, so any concrete threshold would be an invented invariant
    that either never fires or flags correct solvers.
    """
    try:
        results = {"fhw": astar_fhw(h.copy())}
    except Exception as exc:  # noqa: BLE001 — crashes are findings too
        return [_Finding("solver-exception",
                         f"fhw: {type(exc).__name__}: {exc}")]
    fault.result(results["fhw"], "fhw")
    findings: list[_Finding] = []
    for role, result in results.items():
        for side, bound in (("lower", result.lower_bound),
                            ("upper", result.upper_bound)):
            if isinstance(bound, float):
                findings.append(_Finding(
                    "fhw-float",
                    f"{role} reports a float {side} bound {bound!r}; fhw "
                    "bounds must be exact rationals",
                ))
        if result.lower_bound > result.upper_bound:
            findings.append(_Finding(
                "bounds-inconsistent",
                f"{role}: lower bound {result.lower_bound} exceeds upper "
                f"bound {result.upper_bound}",
            ))
    exact_widths = {
        role: r.upper_bound for role, r in results.items() if r.exact
    }
    if exact_widths and h.num_vertices <= HYPER_ORACLE_VERTICES:
        oracle = brute_force_fhw(h.copy())
        wrong = {r: w for r, w in exact_widths.items() if w != oracle}
        if wrong:
            findings.append(_Finding(
                "fhw-oracle",
                f"brute force says {oracle}, solvers said "
                f"{sorted(wrong.items())}",
            ))
    if exact_widths:
        fhw = min(exact_widths.values())
        if exact_ghw is not None and fhw > exact_ghw:
            findings.append(_Finding(
                "width-chain",
                f"fhw {fhw} exceeds ghw {exact_ghw}",
            ))
        if exact_ghw is not None:
            tw_result = astar_treewidth(h.primal_graph())
            if tw_result.exact and exact_ghw > tw_result.upper_bound + 1:
                findings.append(_Finding(
                    "width-chain",
                    f"ghw {exact_ghw} exceeds tw + 1 = "
                    f"{tw_result.upper_bound + 1}",
                ))
    for role, result in results.items():
        if result.ordering is None:
            continue
        fhd = fhd_from_ordering(h, result.ordering)
        fault.decomposition(fhd)
        problems = check_fhd(fhd, h, claimed_width=result.upper_bound)
        if problems:
            findings.append(_Finding(
                "fhd-certificate",
                f"{role} witness ordering builds an invalid FHD",
                [str(p) for p in problems],
            ))
    return findings


def _check_hw(h: Hypergraph, exact_ghw: int,
              fault: "_FaultInjector") -> list[_Finding]:
    """The hypertree-width leg: det-k-decomp (the ascending reference
    ladder), opt-k-decomp (descending, cross-rung records) and the CDCL
    SAT backend must all land on one width; ``hw ≥ ghw`` always holds;
    every emitted witness passes ``check_htd`` at its claimed width.

    The CDCL solver runs under a conflict budget — when it cannot close
    the bracket it reports ``exact=False`` and is exempted from the
    differential (its bracket must still contain the true width)."""
    from ..sat import cdcl_hypertree_width
    from ..search import hypertree_width, opt_k_decomp

    findings: list[_Finding] = []
    try:
        det_hw, det_htd = hypertree_width(h.copy())
        optk = opt_k_decomp(h.copy())
        cdcl = cdcl_hypertree_width(
            h.copy(), max_conflicts=20000,
            corrupt_learned=fault.fault == "sat-learn-drop",
        )
    except Exception as exc:  # noqa: BLE001 — crashes are findings too
        return [_Finding("solver-exception",
                         f"hw: {type(exc).__name__}: {exc}")]
    problems = check_htd(det_htd, h, claimed_width=det_hw)
    if problems:
        findings.append(_Finding(
            "htd-certificate",
            "det-k-decomp emitted an invalid hypertree decomposition",
            [str(p) for p in problems],
        ))
    if det_hw < exact_ghw:
        findings.append(_Finding(
            "hw-undercut",
            f"det-k-decomp hw {det_hw} undercuts ghw {exact_ghw}",
        ))
    if optk.exact and optk.width != det_hw:
        findings.append(_Finding(
            "hw-differential",
            f"opt-k-decomp hw {optk.width} != det-k-decomp hw {det_hw}",
        ))
    if optk.decomposition is not None:
        fault.optk(optk.decomposition, h)
        problems = check_htd(optk.decomposition, h,
                             claimed_width=optk.upper)
        if problems:
            findings.append(_Finding(
                "htd-certificate",
                "opt-k-decomp emitted an invalid hypertree decomposition",
                [str(p) for p in problems],
            ))
    if cdcl.exact and cdcl.upper != det_hw:
        findings.append(_Finding(
            "hw-differential",
            f"cdcl hw {cdcl.upper} != det-k-decomp hw {det_hw}",
        ))
    if not cdcl.lower <= det_hw <= cdcl.upper:
        findings.append(_Finding(
            "hw-differential",
            f"cdcl bracket [{cdcl.lower}, {cdcl.upper}] excludes the "
            f"det-k-decomp hw {det_hw}",
        ))
    if cdcl.decomposition is not None:
        problems = check_htd(cdcl.decomposition, h,
                             claimed_width=cdcl.upper)
        if problems:
            findings.append(_Finding(
                "htd-certificate",
                "cdcl emitted an invalid hypertree decomposition",
                [str(p) for p in problems],
            ))
    findings.extend(_check_cdcl_decision(h, det_hw, fault))
    return findings


def _check_cdcl_decision(h: Hypergraph, det_hw: int,
                         fault: "_FaultInjector") -> list[_Finding]:
    """A direct decision query at the known width: ``k = det_hw`` is SAT
    (det-k-decomp holds a witness), so an UNSAT answer is unsound and a
    SAT model must decode into a valid width-≤-hw HTD.

    This is the sharp seam for learned-clause corruption: dropping a
    literal *strengthens* a clause, which can only wrongly prune models
    — i.e. break exactly the SAT side this query pins down.  The full
    ladder above often closes by bounds alone on tiny instances and
    never runs the solver; this query always does."""
    from ..sat import EncodingTooLarge, HwFormula
    from ..sat.solver import SolverBudgetExceeded

    try:
        formula = HwFormula(
            h, max_k=det_hw,
            corrupt_learned=fault.fault == "sat-learn-drop",
        )
        sat = formula.solve(det_hw, max_conflicts=20000)
    except (EncodingTooLarge, SolverBudgetExceeded):
        return []  # budget-bound: no claim made, nothing to cross-examine
    except Exception as exc:  # noqa: BLE001 — crashes are findings too
        return [_Finding("solver-exception",
                         f"cdcl decision: {type(exc).__name__}: {exc}")]
    if fault.fault == "sat-learn-drop":
        fault.applied += 1
    if not sat:
        return [_Finding(
            "hw-differential",
            f"cdcl decides width <= {det_hw} UNSAT but det-k-decomp "
            "holds a witness",
        )]
    witness = formula.decode()
    problems = check_htd(witness, h, claimed_width=det_hw)
    if problems:
        return [_Finding(
            "htd-certificate",
            "cdcl SAT model decodes to an invalid hypertree "
            "decomposition",
            [str(p) for p in problems],
        )]
    return []


def _check_portfolio(structure, metric: str, exact: int) -> list[_Finding]:
    from ..portfolio import run_portfolio

    try:
        result = run_portfolio(
            structure, jobs=2, deterministic=True, metric=metric,
            budget_seconds=30.0,
        )
    except Exception as exc:  # noqa: BLE001
        return [_Finding("solver-exception",
                         f"portfolio: {type(exc).__name__}: {exc}")]
    if result.upper_bound < exact:
        return [_Finding(
            "portfolio-differential",
            f"portfolio {metric} upper bound {result.upper_bound} "
            f"undercuts exact {exact}",
        )]
    if result.exact and result.upper_bound != exact:
        return [_Finding(
            "portfolio-differential",
            f"portfolio claims exact {metric} {result.upper_bound}, "
            f"solvers proved {exact}",
        )]
    return []


def _check_structure(structure, case_seed: int, index: int,
                     config: FuzzConfig) -> list[_Finding]:
    if isinstance(structure, Hypergraph):
        return _check_hypergraph(structure, case_seed, index, config)
    return _check_graph(structure, case_seed, index, config)


# ----------------------------------------------------------------------
# Delta-debugging shrinker
# ----------------------------------------------------------------------


def _deleting_vertex(structure, vertex):
    candidate = structure.copy()
    candidate.remove_vertex(vertex)
    return candidate if candidate.num_vertices >= 1 else None


def _deleting_edge(structure, edge):
    candidate = structure.copy()
    if isinstance(structure, Hypergraph):
        candidate.remove_edge(edge)
    else:
        candidate.remove_edge(*edge)
    return candidate


def _shrink(structure, predicate, max_rounds: int = 16):
    """Greedy ddmin: delete vertices then edges while the failure
    reproduces; iterate to a fixpoint.  Returns (minimal, steps)."""
    steps = 0
    for _ in range(max_rounds):
        changed = False
        for vertex in sorted(structure.vertex_list(), key=repr):
            candidate = _deleting_vertex(structure, vertex)
            if candidate is not None and predicate(candidate):
                structure = candidate
                steps += 1
                changed = True
        edges = (
            sorted(structure.edges, key=repr)
            if isinstance(structure, Hypergraph)
            else sorted(structure.edges(), key=repr)
        )
        for edge in edges:
            try:
                candidate = _deleting_edge(structure, edge)
            except Exception:  # edge already gone via a vertex deletion
                continue
            if predicate(candidate):
                structure = candidate
                steps += 1
                changed = True
        if not changed:
            break
    return structure, steps


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


def run_fuzz(config: FuzzConfig | None = None, **overrides) -> FuzzReport:
    """Run the differential fuzzer; pure function of the config.

    Keyword overrides build a config on the fly:
    ``run_fuzz(seed=7, cases=200)``.
    """
    if config is None:
        config = FuzzConfig(**overrides)
    elif overrides:
        raise ValueError("pass either a config or keyword overrides")
    rng = random.Random(config.seed)
    metrics = config.metrics if config.metrics is not None else Metrics()
    tracer = config.tracer
    failures: list[FuzzFailure] = []
    started = time.monotonic()
    cases_run = 0
    for index in range(config.cases):
        family = config.families[rng.randrange(len(config.families))]
        case_seed = rng.randrange(2**31)
        structure = _generate(family, case_seed, config)
        cases_run += 1
        metrics.counter("fuzz.cases").inc()
        metrics.counter(f"fuzz.family.{family}").inc()
        findings = _check_structure(structure, case_seed, index, config)
        if not findings:
            continue
        finding = findings[0]
        metrics.counter("fuzz.failures").inc()
        metrics.counter(f"fuzz.finding.{finding.check}").inc()
        if tracer is not NULL_TRACER:
            tracer.event(
                "fuzz_failure", case=index, family=family,
                check=finding.check, detail=finding.detail,
            )
        original_vertices = structure.num_vertices
        shrink_steps = 0
        if config.shrink:
            def reproduces(candidate, _check=finding.check):
                return any(
                    f.check == _check
                    for f in _check_structure(candidate, case_seed, index,
                                              config)
                )

            structure, shrink_steps = _shrink(structure, reproduces)
            metrics.counter("fuzz.shrink_steps").inc(shrink_steps)
            # Re-derive the finding on the minimal instance so the
            # replay file describes exactly what it contains.
            minimal = [
                f for f in _check_structure(structure, case_seed, index,
                                            config)
                if f.check == finding.check
            ]
            if minimal:
                finding = minimal[0]
        failures.append(FuzzFailure(
            check=finding.check,
            detail=finding.detail,
            violations=finding.violations,
            family=family,
            case_index=index,
            case_seed=case_seed,
            structure=structure,
            original_vertices=original_vertices,
            shrink_steps=shrink_steps,
            fault=config.fault,
        ))
        if (config.max_failures is not None
                and len(failures) >= config.max_failures):
            break
    return FuzzReport(
        seed=config.seed,
        cases_run=cases_run,
        failures=failures,
        metrics=metrics,
        elapsed_seconds=time.monotonic() - started,
        fault=config.fault,
    )


# ----------------------------------------------------------------------
# Replay files
# ----------------------------------------------------------------------


def _serialize_structure(structure) -> dict:
    if isinstance(structure, Hypergraph):
        return {
            "kind": "hypergraph",
            "vertices": list(structure.vertex_list()),
            "edges": {str(name): sorted(edge, key=repr)
                      for name, edge in structure.edges.items()},
        }
    return {
        "kind": "graph",
        "vertices": list(structure.vertex_list()),
        "edges": [list(edge) for edge in structure.edges()],
    }


def _deserialize_structure(data: dict):
    if data["kind"] == "hypergraph":
        h = Hypergraph(vertices=data["vertices"])
        for name, members in data["edges"].items():
            h.add_edge(members, name=name)
        return h
    g = Graph(vertices=data["vertices"])
    for u, v in data["edges"]:
        g.add_edge(u, v)
    return g


def write_replay(failure: FuzzFailure, path) -> str:
    """Serialize a minimized counterexample; returns the path written."""
    payload = {
        "version": REPLAY_VERSION,
        "check": failure.check,
        "detail": failure.detail,
        "violations": failure.violations,
        "family": failure.family,
        "case_index": failure.case_index,
        "case_seed": failure.case_seed,
        "fault": failure.fault,
        "original_vertices": failure.original_vertices,
        "shrink_steps": failure.shrink_steps,
        "structure": _serialize_structure(failure.structure),
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def load_replay(path) -> tuple[Graph | Hypergraph, dict]:
    """Read a replay file back into (structure, metadata)."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("version") != REPLAY_VERSION:
        raise ValueError(
            f"unsupported replay version {payload.get('version')!r}"
        )
    return _deserialize_structure(payload["structure"]), payload


KEEP_STORED_FAULT = "__stored__"


def run_replay(path, fault: str | None = KEEP_STORED_FAULT) -> FuzzReport:
    """Re-run all checks on a stored counterexample.

    By default the replay re-injects the fault recorded in the file;
    pass ``fault=None`` (CLI: ``--fault none``) to replay without it —
    that is how you confirm a fix — or another fault name to override.
    """
    structure, payload = load_replay(path)
    if fault == KEEP_STORED_FAULT:
        fault = payload.get("fault")
    config = FuzzConfig(
        cases=0,
        fault=fault,
        shrink=False,
        ga_every=1,
        hw_every=1,
        fhw_every=1,
    )
    metrics = Metrics()
    started = time.monotonic()
    findings = _check_structure(
        structure, payload.get("case_seed", 0), 0, config
    )
    metrics.counter("fuzz.cases").inc()
    failures = [
        FuzzFailure(
            check=f.check,
            detail=f.detail,
            violations=f.violations,
            family=payload.get("family", "replay"),
            case_index=payload.get("case_index", 0),
            case_seed=payload.get("case_seed", 0),
            structure=structure,
            original_vertices=structure.num_vertices,
            shrink_steps=0,
            fault=config.fault,
        )
        for f in findings
    ]
    for failure in failures:
        metrics.counter("fuzz.failures").inc()
        metrics.counter(f"fuzz.finding.{failure.check}").inc()
    return FuzzReport(
        seed=payload.get("case_seed", 0),
        cases_run=1,
        failures=failures,
        metrics=metrics,
        elapsed_seconds=time.monotonic() - started,
        fault=config.fault,
    )
