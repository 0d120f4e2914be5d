"""Hypertree width proper: the opt-k-decomp and CDCL backends.

Covers the pure-python CDCL solver (watched literals, 1UIP learning,
VSIDS, restarts, assumptions), the ordering+arc hw encoding, the
opt-k-decomp descending ladder with cross-rung dominance records, the
three-way differential det-k == opt-k == cdcl, the golden hw values,
a hand-built descendant-condition instance, the exhausted-ladder CLI
contract, and the hw portfolio/service integration.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.decomposition.htd import HypertreeDecomposition, htd_from_ordering
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import fano_plane_hypergraph
from repro.instances import get_instance
from repro.sat import (
    CDCLSolver,
    EncodingTooLarge,
    HwFormula,
    cdcl_hypertree_width,
)
from repro.sat.solver import SolverBudgetExceeded, _luby
from repro.search import (
    LadderExhausted,
    hypertree_width,
    opt_k_decomp,
    opt_k_hypertree_width,
)
from repro.search.common import BoundHooks
from repro.verify import check_htd
from tests.conftest import make_covered_hypergraph


# ----------------------------------------------------------------------
# The CDCL core
# ----------------------------------------------------------------------


def _php(pigeons: int, holes: int) -> list[list[int]]:
    """Pigeonhole clauses over vars v(p,h) = p*holes + h + 1."""
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestCDCLSolver:
    def test_luby_sequence(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_trivial_sat_and_model(self):
        s = CDCLSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a])
        assert s.solve() is True
        assert s.model_value(a) is False
        assert s.model_value(b) is True

    def test_empty_clause_unsat(self):
        s = CDCLSolver()
        a = s.new_var()
        s.add_clause([a])
        s.add_clause([-a])
        assert s.solve() is False

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pigeonhole_unsat(self, n):
        s = CDCLSolver()
        for _ in range(n * (n - 1)):
            s.new_var()
        for clause in _php(n, n - 1):
            s.add_clause(clause)
        assert s.solve() is False

    def test_assumptions_incremental(self):
        """UNSAT under assumptions must not poison later solves: the
        learned clauses are resolvents of base clauses only."""
        s = CDCLSolver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, b])
        s.add_clause([-b, c])
        assert s.solve([a, -c]) is False  # a forces c
        assert s.solve([a]) is True
        assert s.model_value(c) is True
        assert s.solve([-c]) is True  # still SAT with a free
        assert s.model_value(a) is False

    def test_conflict_budget_raises(self):
        s = CDCLSolver()
        for _ in range(5 * 4):
            s.new_var()
        for clause in _php(5, 4):
            s.add_clause(clause)
        with pytest.raises(SolverBudgetExceeded):
            s.solve(max_conflicts=3)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_cnf_vs_brute_force(self, seed):
        rng = random.Random(seed + 777)
        n = rng.randint(2, 7)
        m = rng.randint(1, 4 * n)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, 3)
            lits = []
            for v in rng.sample(range(1, n + 1), min(width, n)):
                lits.append(v if rng.random() < 0.5 else -v)
            clauses.append(lits)
        brute = any(
            all(
                any(
                    (lit > 0) == bool(bits >> (abs(lit) - 1) & 1)
                    for lit in clause
                )
                for clause in clauses
            )
            for bits in range(1 << n)
        )
        s = CDCLSolver()
        for _ in range(n):
            s.new_var()
        for clause in clauses:
            s.add_clause(clause)
        got = s.solve()
        assert got == brute, (seed, clauses)
        if got:
            for clause in clauses:
                assert any(
                    s.model_value(abs(lit)) == (lit > 0) for lit in clause
                ), (seed, clause)


# ----------------------------------------------------------------------
# The hw encoding
# ----------------------------------------------------------------------


class TestHwEncoding:
    def test_triangle_completeness_trap(self):
        """The triangle has NO model under a pure fill-closure bag
        encoding; the bag-extension variables make k=2 SAT.  This is
        the regression that pins the encoding's completeness."""
        tri = Hypergraph(edges={"a": {1, 2}, "b": {2, 3}, "c": {1, 3}})
        formula = HwFormula(tri, max_k=2)
        assert formula.solve(1) is False
        assert formula.solve(2) is True
        htd = formula.decode()
        assert check_htd(htd, tri, claimed_width=2) == []

    def test_incremental_ladder_shares_solver(self):
        h = fano_plane_hypergraph()
        formula = HwFormula(h, max_k=3)
        assert formula.solve(3) is True
        htd = formula.decode()
        assert check_htd(htd, h, claimed_width=3) == []
        assert formula.solve(2) is False  # same solver, new assumptions
        # ... and the k=3 question still answers SAT afterwards.
        assert formula.solve(3) is True

    def test_assumptions_outside_ladder_rejected(self):
        tri = Hypergraph(edges={"a": {1, 2}, "b": {2, 3}, "c": {1, 3}})
        formula = HwFormula(tri, max_k=2)
        with pytest.raises(ValueError):
            formula.assumptions(3)
        with pytest.raises(ValueError):
            formula.assumptions(0)

    def test_size_guard(self):
        h = make_covered_hypergraph(8, 10, seed=991)
        with pytest.raises(EncodingTooLarge):
            HwFormula(h, max_k=3, max_clauses=50)

    def test_driver_empty_hypergraph(self):
        result = cdcl_hypertree_width(Hypergraph())
        assert result.exact and result.upper == result.lower == 0

    def test_driver_budget_returns_bracket(self):
        h = make_covered_hypergraph(7, 9, seed=452)
        result = cdcl_hypertree_width(h, max_conflicts=1)
        assert result.lower <= result.upper
        assert result.decomposition is not None
        assert check_htd(result.decomposition, h) == []


# ----------------------------------------------------------------------
# opt-k-decomp
# ----------------------------------------------------------------------


class TestOptKDecomp:
    def test_isolated_vertices_rejected(self):
        h = Hypergraph(vertices=[1, 2], edges={"a": {1}})
        with pytest.raises(ValueError):
            opt_k_decomp(h)

    def test_max_width_validated(self):
        with pytest.raises(ValueError):
            opt_k_decomp(Hypergraph(edges={"e": {1, 2}}), max_width=0)

    def test_edgeless(self):
        result = opt_k_decomp(Hypergraph())
        assert result.exact and result.width == 0

    def test_triangle(self):
        tri = Hypergraph(edges={"a": {1, 2}, "b": {2, 3}, "c": {1, 3}})
        result = opt_k_decomp(tri)
        assert result.exact and result.width == 2
        assert check_htd(result.decomposition, tri) == []

    def test_ladder_exhausted_below_width(self):
        tri = Hypergraph(edges={"a": {1, 2}, "b": {2, 3}, "c": {1, 3}})
        with pytest.raises(LadderExhausted):
            opt_k_hypertree_width(tri, max_width=1)

    def test_state_budget_yields_anytime_bracket(self):
        h = make_covered_hypergraph(7, 9, seed=7)
        result = opt_k_decomp(h, max_states=1)
        assert result.lower <= result.upper
        assert result.decomposition is not None
        assert check_htd(result.decomposition, h) == []

    def test_bound_hooks_can_close_the_ladder(self):
        """An external exact bound arriving between rungs ends the
        search without re-proving what the portfolio already knows."""
        h = make_covered_hypergraph(6, 8, seed=41)
        hw, _ = hypertree_width(h)
        published = []
        hooks = BoundHooks(
            poll_upper=lambda: hw,
            poll_lower=lambda: hw,
            publish_upper=published.append,
            publish_lower=published.append,
        )
        result = opt_k_decomp(h, hooks=hooks)
        assert result.exact
        assert result.width == hw
        assert published  # bounds were shared back

    @pytest.mark.parametrize("seed", range(20))
    def test_differential_det_k(self, seed):
        """The PR's audit satellite: opt-k-decomp and det-k-decomp land
        on the same width on every instance (they enumerate identical
        separator sequences via the shared ``_iter_separators``)."""
        h = make_covered_hypergraph(6, 8, seed=seed + 14000)
        det_hw, det_htd = hypertree_width(h)
        result = opt_k_decomp(h)
        assert result.exact, seed
        assert result.width == det_hw, seed
        assert check_htd(result.decomposition, h) == [], seed
        assert result.decomposition.ghw_width == det_hw, seed

    def test_cross_rung_records_reused(self):
        """Widths stay correct while the cache layer records cross-rung
        reuse (the metrics counter is the observable)."""
        from repro.telemetry import Metrics

        h = make_covered_hypergraph(7, 9, seed=31)
        metrics = Metrics()
        result = opt_k_decomp(h, metrics=metrics)
        det_hw, _ = hypertree_width(h)
        assert result.exact and result.width == det_hw
        if result.rungs > 1:
            counters = metrics.snapshot()["counters"]
            assert counters.get("cache.cross_component_hit", 0) >= 0


# ----------------------------------------------------------------------
# Three-way differential and the Hypothesis property
# ----------------------------------------------------------------------


@st.composite
def covered_hypergraphs(draw, max_vertices=6):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=n + 2))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return make_covered_hypergraph(n, m, seed=seed)


class TestThreeWayDifferential:
    @settings(max_examples=25, deadline=None)
    @given(covered_hypergraphs())
    def test_cdcl_matches_opt_k(self, h):
        """The PR's acceptance property: the CDCL backend and
        opt-k-decomp agree on every instance where the SAT search
        closes its bracket."""
        optk = opt_k_decomp(h)
        cdcl = cdcl_hypertree_width(h, max_conflicts=20000)
        assert optk.exact
        assert cdcl.lower <= optk.width <= cdcl.upper
        if cdcl.exact:
            assert cdcl.upper == optk.width
            assert check_htd(cdcl.decomposition, h) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_all_three_agree(self, seed):
        h = make_covered_hypergraph(6, 7, seed=seed + 15000)
        det_hw, _ = hypertree_width(h)
        optk = opt_k_decomp(h)
        cdcl = cdcl_hypertree_width(h, max_conflicts=50000)
        assert optk.exact and optk.width == det_hw, seed
        assert cdcl.exact and cdcl.upper == det_hw, seed


# ----------------------------------------------------------------------
# Golden widths and the descendant condition
# ----------------------------------------------------------------------

GOLDEN_HWS = {"fano": 3, "clique_5": 3}


class TestGoldenHw:
    @pytest.mark.parametrize("name,width", sorted(GOLDEN_HWS.items()))
    def test_golden_opt_k(self, name, width):
        result = opt_k_decomp(get_instance(name).build())
        assert result.exact
        assert result.width == width

    @pytest.mark.parametrize("name,width", sorted(GOLDEN_HWS.items()))
    def test_golden_cdcl(self, name, width):
        result = cdcl_hypertree_width(get_instance(name).build())
        assert result.exact
        assert result.upper == width

    def test_golden_queen5_5(self):
        """hw(queen5_5) = 10.  Lower bound: the published tw = 18 gives
        ghw ≥ ⌈(tw+1)/2⌉ = 10 for a graph (binary edges), and
        hw ≥ ghw.  Upper bound: a seeded random-restart over
        ``htd_from_ordering`` witnesses width 10 (min-fill alone gives
        11); the witness is certified.  The instance is far beyond the
        exact searches, so the bound pair IS the proof."""
        h = get_instance("queen5_5").build()
        if not isinstance(h, Hypergraph):
            h = Hypergraph.from_graph(h)

        # Any certified witness at width 10 closes the question.
        rng = random.Random(0)
        best = None
        for _ in range(30):
            ordering = list(h.vertex_list())
            rng.shuffle(ordering)
            htd = htd_from_ordering(h, ordering)
            width = htd.ghw_width
            if best is None or width < best[0]:
                assert check_htd(htd, h) == []
                best = (width, htd)
            if best[0] <= 10:
                break
        assert best[0] == 10, f"restart search found width {best[0]}"
        # The graph-side lower bound: tw = 18 is pinned by the golden
        # treewidth suite; ghw(G) ≥ ⌈(tw+1)/2⌉ because a binary-edge
        # bag of ghw k holds at most 2k vertices.
        tw_golden = 18
        assert -(-(tw_golden + 1) // 2) == 10

    def test_descendant_condition_hand_instance(self):
        """A hand-built path decomposition that satisfies every GHD
        condition but leaks a λ-vertex into its subtree: check_htd must
        flag exactly the descendant condition, and all three hw
        backends must still produce valid width-1 witnesses for the
        underlying (acyclic) hypergraph."""
        h = Hypergraph(edges={
            "e1": {1, 2}, "e2": {2, 3}, "e3": {3, 4},
        })
        htd = HypertreeDecomposition(root="p")
        htd.add_node("p", bag={1, 2}, cover={"e1"})
        # The bug: λ(q) also grabs e3, whose vertex 4 reappears below q
        # but is not in χ(q).
        htd.add_node("q", bag={2, 3}, cover={"e2", "e3"})
        htd.add_node("r", bag={3, 4}, cover={"e3"})
        htd.add_tree_edge("p", "q")
        htd.add_tree_edge("q", "r")
        from repro.verify.certificate import check_ghd

        assert check_ghd(htd, h) == []  # a perfectly fine GHD ...
        problems = check_htd(htd, h)
        assert problems, "descendant leak went unflagged"
        assert any("descendant" in str(p).lower() for p in problems)

        det_hw, det_htd = hypertree_width(h)
        optk = opt_k_decomp(h)
        cdcl = cdcl_hypertree_width(h)
        assert det_hw == optk.width == cdcl.upper == 1
        for witness in (det_htd, optk.decomposition, cdcl.decomposition):
            assert check_htd(witness, h) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_hw_at_least_ghw(self, seed):
        from repro.search import branch_and_bound_ghw

        h = make_covered_hypergraph(6, 8, seed=seed + 16000)
        ghw = branch_and_bound_ghw(h).width
        assert opt_k_decomp(h).width >= ghw, seed
        cdcl = cdcl_hypertree_width(h, max_conflicts=50000)
        if cdcl.exact:
            assert cdcl.upper >= ghw, seed


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------


class TestCli:
    @pytest.mark.parametrize("backend", ["optk", "detk", "cdcl"])
    def test_hw_backends(self, backend, capsys):
        from repro.cli import main

        assert main(["hw", "fano", "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert "hypertree width = 3" in out

    @pytest.mark.parametrize("backend", ["optk", "detk", "cdcl"])
    def test_exhausted_ladder_exits_2_with_diagnostic(self, backend,
                                                      capsys):
        """The bugfix satellite: an exhausted width ladder is an open
        question, not an answer — one line on stderr, exit code 2, and
        crucially NOT the silent success the old path produced."""
        from repro.cli import main

        code = main(["hw", "fano", "--max-width", "2",
                     "--backend", backend])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: hw:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_max_width_zero_exhausts_immediately(self, capsys):
        """max_width=0 must not silently round up to 1 (the old
        det-k-decomp ladder bug)."""
        from repro.cli import main

        code = main(["hw", "fano", "--max-width", "0",
                     "--backend", "detk"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: hw:")


# ----------------------------------------------------------------------
# Portfolio integration
# ----------------------------------------------------------------------


class TestHwPortfolio:
    def test_deterministic_race_on_fano(self):
        from repro.portfolio import run_portfolio

        h = fano_plane_hypergraph()
        result = run_portfolio(
            h, metric="hw", jobs=2, deterministic=True, max_nodes=50000,
        )
        assert result.metric == "hw"
        assert result.exact
        assert result.width == 3
        assert result.ordering is None
        assert type(result.witness) is HypertreeDecomposition
        assert check_htd(result.witness, h) == []
        assert result.witness.ghw_width == 3
        assert set(result.reports) == {"optk-hw"}
        for report in result.reports.values():
            assert report.error is None

    def test_live_race_exchanges_bounds(self):
        from repro.portfolio import run_portfolio

        h = fano_plane_hypergraph()
        result = run_portfolio(
            h, metric="hw", jobs=2, max_nodes=50000, budget_seconds=60.0,
        )
        assert result.exact and result.width == 3
        assert result.witness is not None

    def test_optk_honours_the_time_budget_inside_a_rung(self):
        # opt-k cannot close grid2d_10 in a second; it must return its
        # certified bracket at the budget instead of running into the
        # grace period, where it would be killed without a report.
        from repro.portfolio import run_portfolio

        h = get_instance("grid2d_10").build()
        result = run_portfolio(
            h, metric="hw", backends=["optk-hw"], jobs=1,
            budget_seconds=1.0, grace_seconds=10.0,
        )
        report = result.reports["optk-hw"]
        assert report.error is None
        assert report.elapsed_seconds < 5.0
        assert not result.exact
        assert result.lower_bound <= result.upper_bound
        assert check_htd(result.witness, h) == []
        assert result.witness.ghw_width == result.upper_bound
