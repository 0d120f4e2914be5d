"""Ordering-based CNF encoding of ``hw(H) ≤ k`` for the CDCL solver.

After the PACE-winning ordering encodings (Schidler & Szeider's frasmt
line of work), adapted to *hypertree* width: the formula describes a
vertex elimination order σ together with, per vertex v, the bag and the
λ-cover of a tree node ``node_v``.  The tree is read off σ: each node's
parent is one of the later vertices in its bag.  Crucially, bags may
also contain σ-**earlier** vertices (``b`` below) — without them the
encoding is incomplete for hw (the triangle already has no model in the
pure fill-closure form, yet hw = 2).  Ancestor variables ``anc`` are
pinned *exactly* to parent-chain reachability (one-directional clauses
would admit spurious ancestor claims, and a model could then satisfy
the earlier-vertex anchoring rule while decoding to a disconnected
occurrence set).

Soundness is enforced twice: every SAT model is decoded into a
:class:`~repro.decomposition.htd.HypertreeDecomposition` and certified
by ``check_htd`` before any width claim leaves this module.  UNSAT
answers are cross-checked against opt-k-decomp by the differential
fuzzer.

The width bound itself is a sequential counter over the λ-selector
variables with a register column per candidate width, so one formula
serves the whole k-ladder through solver *assumptions* — learned
clauses carry over between rungs because they are consequences of the
base formula alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bounds.ghw_lower import ghw_lower_bound
from ..bounds.upper import min_fill_ordering
from ..decomposition.htd import HypertreeDecomposition, htd_from_ordering
from ..hypergraph.hypergraph import Hypergraph
from ..telemetry import NULL_TRACER
from ..verify.certificate import assert_certified
from .solver import CDCLSolver, SolverBudgetExceeded

# Refuse to build formulas past this many clauses: the pure-python
# solver stops being useful long before memory does.
DEFAULT_MAX_CLAUSES = 250_000


class EncodingTooLarge(RuntimeError):
    """The instance needs more clauses than the configured cap."""


class HwFormula:
    """CNF for "``hypergraph`` has an HTD of width ≤ k", k by assumption.

    Variables (i, j, p, q, x index vertices in ``vertex_list`` order;
    ``node_i`` is the tree node introduced for vertex i):

    * ``o(i,j)``  — node_i precedes node_j in σ (sign-encoded pair var)
    * ``b(i,x)``  — vertex x ∈ χ(node_i), x ≠ i (i's own vertex is
      always in its bag)
    * ``par(i,p)`` — node_p is the tree parent of node_i
    * ``anc(i,p)`` — node_p is a proper ancestor of node_i (exact)
    * ``w(i,e)``  — hyperedge e ∈ λ(node_i)
    * ``r(i,e,c)`` — sequential counter: > c of the first e+1 λ-edges
      of node_i are selected

    The width-≤-k query is the assumption set ``¬r(i, m-1, k)`` for
    every node i.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        max_k: int,
        *,
        tracer=NULL_TRACER,
        corrupt_learned: bool = False,
        max_clauses: int = DEFAULT_MAX_CLAUSES,
    ):
        self.hypergraph = hypergraph
        self.vertices = hypergraph.vertex_list()
        self.edge_items = sorted(
            hypergraph.edges.items(), key=lambda item: repr(item[0])
        )
        n = len(self.vertices)
        m = len(self.edge_items)
        self.max_k = max(1, min(max_k, m))
        self._max_clauses = max_clauses
        self._check_size(n, m)
        self.solver = CDCLSolver(
            tracer=tracer, corrupt_learned=corrupt_learned
        )
        self.num_clauses = 0
        self._ord: dict[tuple[int, int], int] = {}
        self._bag: dict[tuple[int, int], int] = {}
        self._par: dict[tuple[int, int], int] = {}
        self._anc: dict[tuple[int, int], int] = {}
        self._cov: dict[tuple[int, int], int] = {}
        self._reg: dict[tuple[int, int, int], int] = {}
        self._build()

    def _check_size(self, n: int, m: int) -> None:
        sizes = [len(edge) for _, edge in self.edge_items]
        estimate = (
            n * (n - 1) * (n - 2)  # transitivity + anc lifting + chains
            + 4 * n * n  # parent/ancestor bookkeeping
            + n * n * (n - 2) * 2  # upward closure + downward chains
            + sum(s * (s - 1) for s in sizes)  # edge containment
            + n * m  # covers
            + n * sum(sizes)  # descendant condition
            + 3 * n * m * (self.max_k + 1)  # counters
        )
        if estimate > self.max_clauses_cap():
            raise EncodingTooLarge(
                f"hw encoding needs ~{estimate} clauses for "
                f"n={n}, m={m}, k≤{self.max_k} "
                f"(cap {self.max_clauses_cap()})"
            )

    def max_clauses_cap(self) -> int:
        return getattr(self, "_max_clauses", DEFAULT_MAX_CLAUSES)

    # ------------------------------------------------------------------
    # Variable access
    # ------------------------------------------------------------------

    def before(self, i: int, j: int) -> int:
        """The literal "node_i precedes node_j"."""
        if i < j:
            return self._ord[(i, j)]
        return -self._ord[(j, i)]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add(self, lits) -> None:
        self.num_clauses += 1
        self.solver.add_clause(lits)

    def _build(self) -> None:
        n = len(self.vertices)
        m = len(self.edge_items)
        new = self.solver.new_var
        for i in range(n):
            for j in range(i + 1, n):
                self._ord[(i, j)] = new()
        for i in range(n):
            for x in range(n):
                if x != i:
                    self._bag[(i, x)] = new()
        for i in range(n):
            for p in range(n):
                if p != i:
                    self._par[(i, p)] = new()
                    self._anc[(i, p)] = new()
        for i in range(n):
            for e in range(m):
                self._cov[(i, e)] = new()
        for i in range(n):
            for e in range(m):
                for c in range(min(e, self.max_k) + 1):
                    self._reg[(i, e, c)] = new()

        bag, par, anc, cov, reg = (
            self._bag, self._par, self._anc, self._cov, self._reg
        )
        before = self.before

        # (1) σ is a total order: forbid both 3-cycles per triple.
        for i in range(n):
            for j in range(i + 1, n):
                for l in range(j + 1, n):
                    self._add([-before(i, j), -before(j, l), before(i, l)])
                    self._add([before(i, j), before(j, l), -before(i, l)])

        vertex_index = {v: i for i, v in enumerate(self.vertices)}
        edge_vertex_ids = [
            sorted(vertex_index[v] for v in edge)
            for _, edge in self.edge_items
        ]

        for i in range(n):
            for p in range(n):
                if p == i:
                    continue
                # (2) the parent is a σ-later vertex of i's own bag.
                self._add([-par[(i, p)], before(i, p)])
                self._add([-par[(i, p)], bag[(i, p)]])
                # (5a) parents are ancestors; ancestors are σ-later.
                self._add([-par[(i, p)], anc[(i, p)]])
                self._add([-anc[(i, p)], before(i, p)])
                # (5c) ancestry exists only through a parent.
                self._add(
                    [-anc[(i, p)]]
                    + [par[(i, q)] for q in range(n) if q != i]
                )
            for x in range(n):
                if x == i:
                    continue
                # (3) a σ-later bag vertex forces a parent to exist.
                self._add(
                    [-bag[(i, x)], -before(i, x)]
                    + [par[(i, p)] for p in range(n) if p != i]
                )
                # (8) a σ-earlier bag vertex anchors i above node_x.
                self._add([-bag[(i, x)], before(i, x), anc[(x, i)]])

        for i in range(n):
            for p in range(n):
                if p == i:
                    continue
                for q in range(n):
                    if q in (i, p):
                        continue
                    # (5b) ancestry is closed under parent chains ...
                    self._add(
                        [-par[(i, q)], -anc[(q, p)], anc[(i, p)]]
                    )
                    # (5d) ... and, exactly, lifts along real parents:
                    # a claimed ancestor of i is the parent itself or a
                    # claimed ancestor of the parent.  (5c)+(5d) kill
                    # spurious anc assignments, which rule (8) would
                    # otherwise satisfy without any real tree path.
                    self._add(
                        [-anc[(i, p)], -par[(i, q)], anc[(q, p)]]
                    )

        # (6) every hyperedge lives in the bag of its σ-first vertex.
        for ids in edge_vertex_ids:
            for u in ids:
                for v in ids:
                    if u != v:
                        self._add([-before(u, v), bag[(u, v)]])

        # (7) σ-later bag vertices propagate to the parent (upward
        # connectivity; the chain stops at node_x itself).
        for i in range(n):
            for x in range(n):
                if x == i:
                    continue
                for p in range(n):
                    if p in (i, x):
                        continue
                    self._add(
                        [
                            -bag[(i, x)],
                            -before(i, x),
                            -par[(i, p)],
                            bag[(p, x)],
                        ]
                    )

        # (9) σ-earlier bag vertices propagate down the tree path toward
        # node_x: the child of a holder that is itself an ancestor of
        # node_x must hold x too (connectivity below the holder).
        for i in range(n):
            for x in range(n):
                if x == i:
                    continue
                for j in range(n):
                    if j in (i, x):
                        continue
                    self._add(
                        [
                            -bag[(i, x)],
                            -par[(j, i)],
                            -anc[(x, j)],
                            bag[(j, x)],
                        ]
                    )

        # (10) λ covers the bag (GHD condition 3).
        edges_holding = [
            [e for e, ids in enumerate(edge_vertex_ids) if x in ids]
            for x in range(n)
        ]
        for i in range(n):
            self._add([cov[(i, e)] for e in edges_holding[i]])
            for x in range(n):
                if x == i:
                    continue
                self._add(
                    [-bag[(i, x)]] + [cov[(i, e)] for e in edges_holding[x]]
                )

        # (11) descendant condition: a λ-edge vertex whose own node lies
        # below i must be in i's bag.  (σ-later λ-vertices in the
        # subtree are already forced into the bag by rule (7).)
        for i in range(n):
            for e, ids in enumerate(edge_vertex_ids):
                for x in ids:
                    if x != i:
                        self._add(
                            [-cov[(i, e)], -anc[(x, i)], bag[(i, x)]]
                        )

        # (12) sequential counter over each node's λ selectors.
        for i in range(n):
            for e in range(m):
                top = min(e, self.max_k)
                self._add([-cov[(i, e)], reg[(i, e, 0)]])
                if e == 0:
                    continue
                prev_top = min(e - 1, self.max_k)
                for c in range(prev_top + 1):
                    self._add([-reg[(i, e - 1, c)], reg[(i, e, c)]])
                for c in range(1, top + 1):
                    self._add(
                        [
                            -cov[(i, e)],
                            -reg[(i, e - 1, c - 1)],
                            reg[(i, e, c)],
                        ]
                    )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def assumptions(self, k: int) -> list[int]:
        """Assumption literals for "width ≤ k"."""
        if not 1 <= k <= self.max_k:
            raise ValueError(f"k={k} outside ladder range 1..{self.max_k}")
        m = len(self.edge_items)
        n = len(self.vertices)
        if k >= m:
            return []  # every λ fits trivially
        return [-self._reg[(i, m - 1, k)] for i in range(n)]

    def solve(self, k: int, max_conflicts: int | None = None) -> bool:
        return self.solver.solve(
            self.assumptions(k), max_conflicts=max_conflicts
        )

    def decode(self) -> HypertreeDecomposition:
        """The HTD encoded by the current model (call after a SAT
        :meth:`solve`).  Node ids are the vertex labels themselves."""
        n = len(self.vertices)
        value = self.solver.model_value
        htd = HypertreeDecomposition()
        for i in range(n):
            chi = {self.vertices[i]}
            for x in range(n):
                if x != i and value(self._bag[(i, x)]):
                    chi.add(self.vertices[x])
            lam = [
                name
                for e, (name, _) in enumerate(self.edge_items)
                if value(self._cov[(i, e)])
            ]
            htd.add_node(self.vertices[i], bag=chi, cover=lam)
        roots = []
        for i in range(n):
            parents = [
                p
                for p in range(n)
                if p != i and value(self._par[(i, p)])
            ]
            if parents:
                # Several par vars may hold; any true one is a valid
                # attachment (the connectivity rules fire for each).
                chosen = min(
                    parents, key=lambda p: sum(
                        value(self.before(q, p)) for q in range(n) if q != p
                    )
                )
                htd.add_tree_edge(self.vertices[i], self.vertices[chosen])
            else:
                roots.append(i)
        # A connected hypergraph yields exactly one root; chain any
        # extras defensively (the caller certifies with check_htd).
        for extra in roots[1:]:
            htd.add_tree_edge(self.vertices[extra], self.vertices[roots[0]])
        htd.root = self.vertices[roots[0]] if roots else None
        return htd


@dataclass
class CdclHwResult:
    """Outcome of :func:`cdcl_hypertree_width`."""

    upper: int
    lower: int
    exact: bool
    decomposition: HypertreeDecomposition | None
    conflicts: int = 0
    rungs: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def width(self) -> int:
        return self.upper


def _component_hypergraph(
    hypergraph: Hypergraph, edge_names
) -> Hypergraph:
    sub = Hypergraph()
    for name in sorted(edge_names, key=repr):
        sub.add_edge(hypergraph.edges[name], name=name)
    return sub


def cdcl_hypertree_width(
    hypergraph: Hypergraph,
    *,
    max_width: int | None = None,
    max_conflicts: int | None = None,
    tracer=NULL_TRACER,
    corrupt_learned: bool = False,
    max_clauses: int = DEFAULT_MAX_CLAUSES,
) -> CdclHwResult:
    """Exact hypertree width via the CDCL k-ladder.

    Starts from a certified ``htd_from_ordering(min-fill)`` incumbent
    and walks the width ladder *downward* with per-k assumptions on one
    shared formula, jumping below the decoded witness width after every
    SAT rung.  Disconnected hypergraphs are solved per component (hw is
    the max over components; per-component witnesses chain safely
    because each component's λ-edges are local to it).

    Every witness is certified by ``check_htd`` before it is trusted.
    On conflict-budget exhaustion the best certified bracket so far is
    returned with ``exact=False``.
    """
    if hypergraph.num_edges == 0:
        return CdclHwResult(
            upper=0, lower=0, exact=True,
            decomposition=HypertreeDecomposition(),
        )
    components = sorted(
        _edge_components_of(hypergraph), key=lambda names: sorted(
            repr(name) for name in names
        )
    )
    upper_parts: list[int] = []
    lower_parts: list[int] = []
    trees: list[HypertreeDecomposition] = []
    witness_ok = True
    exact = True
    conflicts = 0
    rungs = 0
    stats: dict = {}
    budget_left = max_conflicts
    for names in components:
        sub = (
            hypergraph
            if len(components) == 1
            else _component_hypergraph(hypergraph, names)
        )
        part = _solve_component(
            sub,
            max_width=max_width,
            max_conflicts=budget_left,
            tracer=tracer,
            corrupt_learned=corrupt_learned,
            max_clauses=max_clauses,
        )
        upper_parts.append(part.upper)
        lower_parts.append(part.lower)
        exact = exact and part.exact
        conflicts += part.conflicts
        rungs += part.rungs
        for key, delta in part.stats.items():
            stats[key] = stats.get(key, 0) + delta
        if budget_left is not None:
            budget_left = max(0, budget_left - part.conflicts)
        if part.decomposition is None:
            exact = False
            witness_ok = False
        else:
            trees.append(part.decomposition)
    upper = max(upper_parts)
    lower = max(lower_parts)
    witness: HypertreeDecomposition | None = None
    if witness_ok and trees:
        witness = trees[0]
        for other in trees[1:]:
            root = witness.effective_root()
            for node in other.nodes:
                witness.add_node(
                    node, bag=other.bag(node), cover=other.cover(node)
                )
            for a, b in other.tree_edges():
                witness.add_tree_edge(a, b)
            witness.add_tree_edge(other.effective_root(), root)
        if len(trees) > 1:
            assert_certified(witness, hypergraph, "cdcl hw witness")
    return CdclHwResult(
        upper=upper,
        lower=lower,
        exact=exact and lower >= upper,
        decomposition=witness,
        conflicts=conflicts,
        rungs=rungs,
        stats=stats,
    )


def _edge_components_of(hypergraph: Hypergraph) -> list[frozenset]:
    from ..search.detkdecomp import _edge_components

    names = hypergraph.edge_names()
    return _edge_components(
        hypergraph, frozenset(names), frozenset(),
        {name: i for i, name in enumerate(names)},
    )


def _solve_component(
    hypergraph: Hypergraph,
    *,
    max_width: int | None,
    max_conflicts: int | None,
    tracer,
    corrupt_learned: bool,
    max_clauses: int,
) -> CdclHwResult:
    ordering = min_fill_ordering(hypergraph)
    incumbent = htd_from_ordering(hypergraph, ordering)
    assert_certified(incumbent, hypergraph, "cdcl hw witness")
    upper = incumbent.ghw_width
    lower = max(1, ghw_lower_bound(hypergraph))
    if upper <= lower:
        return CdclHwResult(
            upper=upper, lower=lower, exact=True, decomposition=incumbent
        )
    try:
        formula = HwFormula(
            hypergraph,
            max_k=upper - 1,
            tracer=tracer,
            corrupt_learned=corrupt_learned,
            max_clauses=max_clauses,
        )
    except EncodingTooLarge:
        return CdclHwResult(
            upper=upper, lower=lower, exact=False, decomposition=incumbent
        )
    solver = formula.solver
    rungs = 0
    budget_left = max_conflicts
    exact = True
    # A max_width cap jumps the ladder straight to that rung: one
    # UNSAT there already proves hw > max_width.
    k = upper - 1 if max_width is None else min(upper - 1, max_width)
    while k >= lower:
        spent_before = solver.stats.conflicts
        rungs += 1
        try:
            sat = formula.solve(k, max_conflicts=budget_left)
        except SolverBudgetExceeded:
            exact = False
            break
        finally:
            if budget_left is not None:
                budget_left = max(
                    0, budget_left - (solver.stats.conflicts - spent_before)
                )
        tracer.event(
            "sat_rung",
            k=k,
            sat=bool(sat),
            conflicts=solver.stats.conflicts,
            learned=solver.stats.learned,
        )
        if sat:
            witness = formula.decode()
            assert_certified(witness, hypergraph, "cdcl hw witness")
            width = witness.ghw_width
            assert width <= k, (width, k)
            incumbent = witness
            upper = width
            k = width - 1
        else:
            lower = k + 1
            break
    return CdclHwResult(
        upper=upper,
        lower=lower,
        exact=exact and lower >= upper,
        decomposition=incumbent,
        conflicts=solver.stats.conflicts,
        rungs=rungs,
        stats=solver.stats.as_dict(),
    )
