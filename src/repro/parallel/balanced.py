"""Balanced-separator GHD construction in logarithmic recursion depth.

Gottlob–Lanzinger–Okulmus–Pichler ("Fast Parallel Hypertree
Decompositions in Logarithmic Recursion Depth", arXiv:2104.13793, the
BalancedGo line of work) observe that any hypergraph of ghw ≤ k has a
*balanced* separator covered by ≤ k edges: a bag of an optimal GHD
whose removal splits the instance into components of at most half the
(live) vertices.  Splitting on balanced separators therefore loses no
width, and bounds the recursion depth by O(log n).  The recursion runs
in process; the components it splits off are independent subproblems,
solved one after another.

The recursion mirrors det-k-decomp's subproblem scheme
(``decompose(C, Conn)``: component edges ``C`` hanging below a bag that
contains the connector vertices ``Conn``), with two differences:

* λ is not restricted to the normal form of hypertree decompositions —
  any ≤ k edges covering ``Conn`` qualify (we build *generalized*
  hypertree decompositions, no descendant condition);
* candidate separators are scored for balance: every component must
  keep at most ``ratio`` of the subproblem's live vertices (vertices of
  the scope outside χ), with a relaxation ladder ½ → ⅔ → ¾ before the
  rung that accepts any progress-making split (the det-k-style tail —
  the log-depth guarantee is lost there but widths are not).

Correctness invariants, each load-bearing for ``check_ghd``:

* ``Conn ⊆ var(λ)`` is required of every candidate, so ``Conn ⊆ χ`` at
  every subtree root — parent/child connectedness;
* ``χ = var(λ) ∩ (var(C) ∪ Conn)``, so the GHD condition
  ``χ ⊆ var(λ)`` holds by construction;
* a candidate is *accepted* only when it covers at least one component
  edge or splits the remainder in two — with every child a strict
  subset of ``C``, the recursion terminates;
* every assembled decomposition is certified by
  :func:`repro.verify.check_ghd` before being reported (a
  :class:`BalancedCertificationError` is an internal bug, never a wrong
  answer).

Subproblems are memoized in the engine's :class:`CoverCache` keyed by
``(component edge-mask, connector mask, k)`` — two components with
identical edge sets are the same subproblem wherever they arise, and
the ``cache.cross_component_hit`` counter records each such reuse.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

from ..bounds.upper import min_fill_ordering
from ..decomposition.elimination import ghd_from_ordering
from ..decomposition.ghd import GeneralizedHypertreeDecomposition
from ..hypergraph.graph import Graph
from ..hypergraph.hypergraph import Hypergraph
from ..setcover.bitcover import BitCoverEngine
from ..telemetry import Metrics, NULL_TRACER
from ..verify.certificate import check_ghd

#: The balance relaxation ladder of the issue/paper: a component may
#: keep at most this fraction of the subproblem's live vertices.
BALANCE_LADDER = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))

#: The final, always-appended rung: accept any progress-making split.
#: Without it the search would *give up* on widths the instance only
#: admits through unbalanced separators; with it the tail of the search
#: degenerates to a (capped) det-k-style recursion.
UNBALANCED_RUNG = Fraction(1, 1)


class BalancedError(RuntimeError):
    """Base class for balanced-decomposition failures."""


class BalancedBudgetExceeded(BalancedError):
    """The subproblem or wall-clock budget ran out mid-attempt."""


class BalancedCertificationError(BalancedError):
    """An assembled decomposition failed ``check_ghd`` — an internal
    invariant violation (or an injected fault), never a reportable
    answer."""


@dataclass
class BalancedConfig:
    """Knobs for the balanced-separator search.

    The recursion always runs in process: ``workers`` accepts only 0
    and any other value raises ``ValueError``.

    ``deterministic`` ignores ``max_seconds`` and bounds the run by
    ``max_subproblems`` alone, so the result does not depend on the
    machine's speed.  The candidate order is fixed either way.

    ``max_candidates`` caps the systematic ≤ k-edge enumeration per
    subproblem and rung (the combination stream explodes on large
    instances; heuristic BFS-layer separators are enumerated first and
    carry the weight there).  ``max_subproblems`` is the global state
    budget, mirroring det-k-decomp's ``max_states`` safety valve.
    """

    workers: int = 0
    deterministic: bool = False
    ladder: tuple = BALANCE_LADDER
    max_candidates: int = 2048
    heuristic_seeds: int = 4
    exact_leaf_edges: int = 24
    max_subproblems: int = 100_000
    max_seconds: float | None = None

    def __post_init__(self):
        if self.workers != 0:
            raise ValueError(
                f"workers={self.workers}: the balanced recursion runs in "
                "process; workers must be 0"
            )


class _Node:
    """One node of the decomposition under construction."""

    __slots__ = ("chi", "lam", "children")

    def __init__(self, chi: frozenset, lam: frozenset, children: list):
        self.chi = chi
        self.lam = lam
        self.children = children


@dataclass(frozen=True)
class Split:
    """An accepted balanced split of one subproblem.

    ``index`` is the candidate's position in the subproblem's
    deterministic enumeration order.  ``children`` are ``(component,
    connector)`` subproblems, deterministically ordered.  ``balance`` is
    ``(largest component's live vertices, live total)``.
    """

    index: int
    lam: tuple
    chi_mask: int
    covered: frozenset
    children: tuple
    balance: tuple


@dataclass
class BalancedResult:
    """What :func:`balanced_ghw` reports.

    ``width`` is witnessed by ``decomposition`` and certified by
    ``check_ghd`` (``certified`` is always True on a returned result).
    ``attempts`` records the k-ladder: ``(k, success)`` pairs in the
    order tried.  ``stats`` holds the ``parallel.*`` counters of the
    run.
    """

    width: int
    decomposition: GeneralizedHypertreeDecomposition
    certified: bool
    initial_upper: int
    lower_bound: int
    exact: bool
    attempts: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0


def as_hypergraph(structure: Graph | Hypergraph) -> Hypergraph:
    """Lift graphs to hypergraphs (binary edges), like the portfolio's
    ghw backends do."""
    if isinstance(structure, Hypergraph):
        return structure
    return Hypergraph.from_graph(structure)


class BalancedCore:
    """The sequential balanced-separator recursion.

    One instance per (hypergraph, config); reused across the k-ladder
    so the cover cache and the subproblem memo warm up.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        config: BalancedConfig | None = None,
        metrics: Metrics | None = None,
        tracer=None,
    ):
        self.hypergraph = hypergraph
        self.config = config if config is not None else BalancedConfig()
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.engine = BitCoverEngine(hypergraph, self.metrics)
        self.cache = self.engine.cache
        names = self.engine.edge_names
        self.edge_vmask = dict(zip(names, self.engine.edge_masks))
        self.edge_bit = {name: 1 << i for i, name in enumerate(names)}
        self.c_subproblems = self.metrics.counter("parallel.subproblems")
        self.c_candidates = self.metrics.counter("parallel.split_candidates")
        self.c_splits = self.metrics.counter("parallel.splits")
        self.c_leaves = self.metrics.counter("parallel.leaves")
        self.c_relax = self.metrics.counter("parallel.relaxations")
        self.c_failures = self.metrics.counter("parallel.failures")
        self.c_stitches = self.metrics.counter("parallel.stitches")
        self.deadline: float | None = None
        self.states = 0

    # -- bookkeeping ----------------------------------------------------

    def component_mask(self, component) -> int:
        mask = 0
        for name in component:
            mask |= self.edge_bit[name]
        return mask

    def scope_mask(self, component, connector_mask: int) -> int:
        mask = connector_mask
        for name in component:
            mask |= self.edge_vmask[name]
        return mask

    def top_components(self) -> list:
        """The hypergraph's connected components (edge sets), the
        top-level subproblems (empty connectors), deterministically
        ordered."""
        edges = [
            (name, self.edge_vmask[name])
            for name in sorted(self.hypergraph.edge_names(), key=repr)
        ]
        comps = _edge_components(edges, 0)
        return _ordered_components(comps)

    def _check_budget(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BalancedBudgetExceeded("wall-clock budget exhausted")
        if self.states >= self.config.max_subproblems:
            raise BalancedBudgetExceeded(
                "subproblem budget exhausted; raise max_subproblems"
            )

    def ladder(self) -> tuple:
        return tuple(self.config.ladder) + (UNBALANCED_RUNG,)

    # -- the recursion --------------------------------------------------

    def decompose(self, component, connector, k: int, depth: int = 0):
        """Solve one ``(C, Conn)`` subproblem: a width-≤-k subtree whose
        root bag contains ``Conn``, or ``None``."""
        self._check_budget()
        key = (self.component_mask(component),
               self.engine.mask_of(connector), k)
        hit, node = self.cache.component_result(key)
        if hit:
            return node
        self.states += 1
        self.c_subproblems.inc()
        connector_mask = key[1]
        scope = self.scope_mask(component, connector_mask)
        node = self._decompose_scope(
            component, connector_mask, scope, k, depth
        )
        self.cache.store_component(key, node)
        if node is None:
            self.c_failures.inc()
        return node

    def _decompose_scope(
        self, component, connector_mask: int, scope: int, k: int, depth: int
    ):
        leaf = self._leaf(component, scope, k)
        if leaf is not None:
            return leaf
        if (
            connector_mask
            and self.engine.greedy_size(connector_mask) > k
            and self.engine.exact_size(connector_mask) > k
        ):
            # No ≤ k edges can cover the connector, balanced or not.
            # (Greedy ≤ k short-circuits the exact cover search — it can
            # only prune when even the minimum cover exceeds k.)
            return None
        failed: set = set()
        for rung_index, rung in enumerate(self.ladder()):
            if rung_index:
                self.c_relax.inc()
            for split in self.splits(
                component, connector_mask, scope, k, rung, failed
            ):
                node = self.try_split(split, k, depth)
                if node is not None:
                    return node
                # A λ whose children failed is dead at every rung: the
                # split it induces does not depend on the ratio.
                failed.add(split.lam)
        return None

    def _leaf(self, component, scope: int, k: int):
        """The base case: the whole scope covered by ≤ k edges is a
        single node.  Greedy first (cheap, cached), exact only for
        small components (the cover search is itself exponential)."""
        cover = None
        if self.engine.greedy_size(scope) <= k:
            cover = self.engine.greedy_cover(scope)
        elif (
            len(component) <= self.config.exact_leaf_edges
            and self.engine.exact_size(scope) <= k
        ):
            cover = self.engine.exact_cover(scope)
        if cover is None:
            return None
        self.c_leaves.inc()
        chi = frozenset(self.engine.mask_to_vertices(scope))
        return _Node(chi, frozenset(cover), [])

    def try_split(self, split: Split, k: int, depth: int):
        """Recurse into an accepted split's children; stitch on success."""
        self.c_splits.inc()
        self.tracer.event(
            "split",
            depth=depth,
            lam=len(split.lam),
            covered=len(split.covered),
            components=len(split.children),
            balance=f"{split.balance[0]}/{split.balance[1]}",
            index=split.index,
        )
        children = []
        for child_component, child_connector in split.children:
            node = self.decompose(child_component, child_connector, k, depth + 1)
            if node is None:
                return None
            children.append(node)
        return self.stitch(split, children, depth)

    def stitch(self, split: Split, children: list, depth: int) -> _Node:
        """Assemble the subtree node for an accepted split whose
        children all succeeded."""
        self.c_stitches.inc()
        self.tracer.event(
            "stitch", depth=depth, children=len(children), lam=len(split.lam)
        )
        chi = frozenset(self.engine.mask_to_vertices(split.chi_mask))
        return _Node(chi, frozenset(split.lam), list(children))

    # -- candidate separators -------------------------------------------

    def splits(
        self,
        component,
        connector_mask: int,
        scope: int,
        k: int,
        rung: Fraction,
        failed: set,
    ):
        """Acceptable splits at this rung, in deterministic candidate
        order."""
        seen: set = set()
        checked = 0
        for index, lam, lam_vmask in self._candidate_lams(
            component, connector_mask, scope, k
        ):
            checked += 1
            if checked % 32 == 0:
                # Candidate streams on large subproblems are where the
                # time goes — the wall-clock budget must trip here, not
                # only at subproblem entry.
                self._check_budget()
            if lam in failed or lam in seen:
                continue
            seen.add(lam)
            self.c_candidates.inc()
            split = self.evaluate(
                index, lam, lam_vmask, component, connector_mask, scope, rung
            )
            if split is not None:
                yield split

    def _candidate_lams(self, component, connector_mask: int, scope: int, k: int):
        """The indexed candidate stream: heuristic BFS-layer separators
        first, then the capped systematic ≤ k-edge enumeration.  The
        indexing is a pure function of the subproblem."""
        index = 0
        emitted: set = set()
        for lam in self._heuristic_lams(component, connector_mask, scope, k):
            if lam in emitted:
                continue
            emitted.add(lam)
            lam_vmask = 0
            for name in lam:
                lam_vmask |= self.edge_vmask[name]
            yield index, lam, lam_vmask
            index += 1
        budget = self.config.max_candidates
        touching = sorted(
            (
                name
                for name, vmask in self.edge_vmask.items()
                if vmask & scope
            ),
            key=lambda name: (name not in component, repr(name)),
        )
        produced = 0
        examined = 0
        # Combos failing the connector filter don't count as candidates,
        # but generating them is not free either — the examination cap
        # (and the budget check) keeps subproblems with hard-to-cover
        # connectors from spinning in the combination stream.
        examine_cap = budget * 64
        for size in range(1, k + 1):
            for combo in itertools.combinations(touching, size):
                if produced >= budget or examined >= examine_cap:
                    return
                examined += 1
                if examined % 1024 == 0:
                    self._check_budget()
                lam_vmask = 0
                for name in combo:
                    lam_vmask |= self.edge_vmask[name]
                if connector_mask & ~lam_vmask:
                    continue  # every λ must cover the connector
                produced += 1
                lam = tuple(sorted(combo, key=repr))
                if lam in emitted:
                    continue
                emitted.add(lam)
                yield index, lam, lam_vmask
                index += 1

    def _heuristic_lams(self, component, connector_mask: int, scope: int, k: int):
        """Cheap high-quality guesses: BFS-layer vertex separators of
        the subproblem's primal graph, greedily covered by edges (plus
        the connector, which every λ must cover); and the connector's
        own greedy cover (the det-k-decomp-style opening move)."""
        edge_vmask = self.edge_vmask
        comp_edges = [
            edge_vmask[name] & scope
            for name in sorted(component, key=repr)
        ]
        candidates = []
        if connector_mask:
            cover = self.engine.greedy_cover(connector_mask)
            if len(cover) <= k:
                candidates.append(tuple(sorted(cover, key=repr)))
        for seed in self._bfs_seeds(comp_edges, scope):
            layer = self._median_layer(seed, comp_edges, scope)
            if not layer:
                continue
            cover = self.engine.greedy_cover(layer | connector_mask)
            if len(cover) <= k:
                candidates.append(tuple(sorted(cover, key=repr)))
        return candidates

    def _bfs_seeds(self, comp_edges: list, scope: int) -> list:
        """Deterministic BFS source vertices: lowest/highest scope bits
        plus the low bits of a few evenly spaced component edges."""
        seeds = []
        if scope:
            seeds.append(scope & -scope)
            seeds.append(1 << (scope.bit_length() - 1))
        n = len(comp_edges)
        extra = max(self.config.heuristic_seeds - len(seeds), 0)
        for j in range(extra):
            vmask = comp_edges[(n * (j + 1)) // (extra + 1) % n]
            if vmask:
                seeds.append(vmask & -vmask)
        unique = []
        for seed in seeds:
            if seed not in unique:
                unique.append(seed)
        return unique

    def _median_layer(self, seed: int, comp_edges: list, scope: int) -> int:
        """The BFS layer (vertex mask) whose preceding closure first
        reaches half the scope — a vertex separator candidate."""
        visited = seed
        layer = seed
        half = scope.bit_count() // 2
        while layer:
            below = visited & ~layer
            if below.bit_count() >= half:
                return layer
            grown = visited
            for vmask in comp_edges:
                if vmask & visited:
                    grown |= vmask
            nxt = grown & ~visited
            visited = grown
            layer = nxt
        return 0

    def evaluate(
        self,
        index: int,
        lam: tuple,
        lam_vmask: int,
        component,
        connector_mask: int,
        scope: int,
        rung: Fraction,
    ) -> Split | None:
        """Score one candidate λ; an accepted :class:`Split` or None.

        Acceptance = progress (covers an edge or splits in two) and
        balance (every component keeps ≤ ``rung`` of the live
        vertices)."""
        chi_mask = (lam_vmask & scope) | connector_mask
        edge_vmask = self.edge_vmask
        covered = []
        remaining = []
        for name in component:
            vmask = edge_vmask[name]
            if vmask & ~chi_mask == 0:
                covered.append(name)
            else:
                remaining.append((name, vmask))
        comps = _edge_components(remaining, chi_mask)
        if not covered and len(comps) < 2:
            return None  # no progress: the child would be this subproblem
        live_total = (scope & ~chi_mask).bit_count()
        worst = 0
        for _, comp_vmask in comps:
            live = (comp_vmask & ~chi_mask).bit_count()
            if live > worst:
                worst = live
        if worst * rung.denominator > live_total * rung.numerator:
            return None
        children = []
        for comp_edges, comp_vmask in _ordered_components(comps):
            child_connector = frozenset(
                self.engine.mask_to_vertices(comp_vmask & chi_mask)
            )
            children.append((comp_edges, child_connector))
        return Split(
            index=index,
            lam=lam,
            chi_mask=chi_mask,
            covered=frozenset(covered),
            children=tuple(children),
            balance=(worst, live_total),
        )


def _edge_components(edges: list, chi_mask: int) -> list:
    """Connected components of ``edges`` (``(name, vmask)`` pairs) where
    two edges touch iff they share a vertex outside ``chi_mask``.
    Returns ``(frozenset of names, joint vertex mask)`` pairs."""
    items = [(name, vmask, vmask & ~chi_mask) for name, vmask in edges]
    comps = []
    while items:
        name0, vmask0, live0 = items.pop()
        group = [name0]
        joint = vmask0
        frontier = live0
        changed = True
        while changed:
            changed = False
            rest = []
            for entry in items:
                if entry[2] & frontier:
                    group.append(entry[0])
                    joint |= entry[1]
                    frontier |= entry[2]
                    changed = True
                else:
                    rest.append(entry)
            items = rest
        comps.append((frozenset(group), joint))
    return comps


def _ordered_components(comps: list) -> list:
    """Deterministic component order: smallest first, names as the
    tie-break — fail-fast and reproducible."""
    return sorted(
        comps,
        key=lambda comp: (len(comp[0]), tuple(sorted(map(repr, comp[0])))),
    )


def materialize(roots: list) -> GeneralizedHypertreeDecomposition:
    """Flatten node trees into one GHD.  Multiple roots (disconnected
    hypergraphs) are chained — their vertex sets are disjoint, so
    connectedness is preserved."""
    ghd = GeneralizedHypertreeDecomposition()
    counter = itertools.count()

    def add(node: _Node) -> int:
        identifier = next(counter)
        ghd.add_node(identifier, bag=node.chi, cover=node.lam)
        for child in node.children:
            child_id = add(child)
            ghd.add_tree_edge(identifier, child_id)
        return identifier

    root_ids = [add(root) for root in roots]
    for a, b in zip(root_ids, root_ids[1:]):
        ghd.add_tree_edge(a, b)
    ghd.root = root_ids[0] if root_ids else None
    return ghd


def certify_assembly(
    ghd: GeneralizedHypertreeDecomposition,
    hypergraph: Hypergraph,
    k: int | None,
) -> GeneralizedHypertreeDecomposition:
    """Every assembly is certified before being reported; a violation
    here is an internal invariant failure, never a wrong answer."""
    violations = check_ghd(ghd, hypergraph, claimed_width=k)
    if violations:
        raise BalancedCertificationError(
            "assembled decomposition failed certification: "
            + "; ".join(v.message for v in violations[:3])
        )
    return ghd


def decide_balanced_ghw(
    hypergraph: Hypergraph,
    k: int,
    config: BalancedConfig | None = None,
    metrics: Metrics | None = None,
    tracer=None,
    core: BalancedCore | None = None,
) -> GeneralizedHypertreeDecomposition | None:
    """One rung of the k-ladder: a certified width-≤-k GHD, or ``None``
    when the (capped, balance-laddered) search finds no witness.

    ``None`` is *not* a proof that ghw > k — the enumeration caps and
    the balance ladder make the search incomplete by design; it is an
    upper-bound procedure, like the GA."""
    if k < 1:
        raise ValueError("width bound k must be positive")
    if core is None:
        core = BalancedCore(hypergraph, config, metrics, tracer)
    roots = []
    for component, _ in core.top_components():
        node = core.decompose(component, frozenset(), k)
        if node is None:
            return None
        roots.append(node)
    return certify_assembly(materialize(roots), hypergraph, k)


def balanced_ghw(
    structure: Graph | Hypergraph,
    config: BalancedConfig | None = None,
    metrics: Metrics | None = None,
    tracer=None,
    hooks=None,
) -> BalancedResult:
    """Anytime certified ghw upper bounds by balanced-separator
    splitting.

    Starts from the min-fill GHD (certified witness), then walks the
    k-ladder downward — each success replaces the incumbent and is
    published through ``hooks`` (the portfolio's shared-bounds channel);
    external upper bounds are consumed to skip useless rungs.  Stops at
    the first k the split search cannot witness, on budget exhaustion,
    or at the (external) lower bound.
    """
    config = config if config is not None else BalancedConfig()
    metrics = metrics if metrics is not None else Metrics()
    tracer = tracer if tracer is not None else NULL_TRACER
    hypergraph = as_hypergraph(structure)
    isolated = hypergraph.isolated_vertices()
    if isolated:
        raise ValueError(
            f"hypergraph has isolated vertices {sorted(map(repr, isolated))}"
        )
    start = time.monotonic()
    if hypergraph.num_edges == 0:
        ghd = GeneralizedHypertreeDecomposition()
        ghd.add_node("root", bag=(), cover=())
        ghd.root = "root"
        return BalancedResult(
            width=0, decomposition=certify_assembly(ghd, hypergraph, 0),
            certified=True, initial_upper=0, lower_bound=0, exact=True,
            elapsed_seconds=time.monotonic() - start,
        )

    with tracer.span("balanced", edges=hypergraph.num_edges,
                     vertices=hypergraph.num_vertices):
        ordering = min_fill_ordering(hypergraph)
        incumbent = ghd_from_ordering(hypergraph, ordering)
        width = incumbent.ghw_width
        certify_assembly(incumbent, hypergraph, width)
        initial_upper = width
        lower = 1
        if hooks is not None and hooks.publish_upper is not None:
            hooks.publish_upper(width)
        if hooks is not None and hooks.poll_lower is not None:
            external = hooks.poll_lower()
            if external is not None and int(external) == external:
                lower = max(lower, int(external))
        attempts: list = []
        core = BalancedCore(hypergraph, config, metrics, tracer)
        if config.max_seconds is not None and not config.deterministic:
            core.deadline = start + config.max_seconds
        k = width - 1
        while k >= lower:
            if hooks is not None:
                hooks.check_stop()
            if hooks is not None and hooks.poll_upper is not None:
                external = hooks.poll_upper()
                if external is not None and external <= k:
                    # Someone else already witnessed k — only strictly
                    # better rungs are worth our time.
                    k = int(external) - 1
                    if k < lower:
                        break
            try:
                ghd = decide_balanced_ghw(hypergraph, k, core=core)
            except BalancedBudgetExceeded:
                attempts.append((k, False))
                break
            attempts.append((k, ghd is not None))
            if ghd is None:
                break
            incumbent, width = ghd, k
            if hooks is not None and hooks.publish_upper is not None:
                hooks.publish_upper(width)
            k -= 1

        stats = {
            name: value
            for name, value in sorted(
                metrics.snapshot()["counters"].items()
            )
            if name.startswith("parallel.")
            or name == "cache.cross_component_hit"
        }
        tracer.metric("balanced_finish", width=width,
                      initial_upper=initial_upper,
                      attempts=len(attempts))
        return BalancedResult(
            width=width,
            decomposition=incumbent,
            certified=True,
            initial_upper=initial_upper,
            lower_bound=lower,
            exact=width <= lower,
            attempts=attempts,
            stats=stats,
            elapsed_seconds=time.monotonic() - start,
        )
