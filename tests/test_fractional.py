"""The fractional cover layer (``repro.setcover.fractional``) and the
rational-width plumbing built on it.

Three battlegrounds:

* **The simplex itself** — property-tested against an independent
  brute-force oracle (:func:`enumerate_fractional_cover` solves the LP
  by enumerating basic feasible points via Gaussian elimination, no
  simplex involved) on every bag Hypothesis can draw with at most six
  candidate edges.
* **The engine's cache layers** — fractional ≤ exact ≤ greedy must hold
  through every dominance shortcut, and a cache-warmed engine must
  answer exactly like a cold one regardless of query order.
* **Rational-width regressions** — the latent int/float width
  assumptions that surfaced when widths stopped being integers:
  ``SearchResult.summary`` formatting, the portfolio's shared-bound
  channel and GA fitness reporting, and JSONL trace encoding.  Each has
  a pinned test so the ``int(...)``/f-string habits cannot creep back.
"""

import json
import math
import multiprocessing
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_covered_hypergraph
from repro.hypergraph import Hypergraph
from repro.setcover import (
    BitCoverEngine,
    SetCoverError,
    enumerate_fractional_cover,
    exact_set_cover,
    fractional_set_cover,
)
from repro.telemetry import Metrics
from repro.widths import Width, as_width, format_width, from_ratio, width_ratio


def triangle() -> Hypergraph:
    return Hypergraph(edges={"e1": {1, 2}, "e2": {2, 3}, "e3": {1, 3}})


# ----------------------------------------------------------------------
# Hypothesis: simplex vs brute-force LP enumeration
# ----------------------------------------------------------------------


@st.composite
def hypergraph_and_bag(draw):
    """A small hypergraph (≤ 6 edges) plus a coverable bag inside it."""
    n = draw(st.integers(min_value=2, max_value=6))
    vertices = list(range(n))
    num_edges = draw(st.integers(min_value=1, max_value=6))
    h = Hypergraph(vertices=vertices)
    for i in range(num_edges):
        members = draw(
            st.lists(
                st.sampled_from(vertices),
                min_size=1,
                max_size=min(3, n),
                unique=True,
            )
        )
        h.add_edge(members, name=f"e{i}")
    covered = sorted({v for edge in h.edges.values() for v in edge})
    bag = frozenset(
        draw(
            st.lists(
                st.sampled_from(covered),
                min_size=1,
                max_size=len(covered),
                unique=True,
            )
        )
    )
    return h, bag


class TestSimplexOracle:
    @settings(max_examples=120, deadline=None)
    @given(hypergraph_and_bag())
    def test_simplex_matches_enumeration(self, case):
        h, bag = case
        value, weights = fractional_set_cover(bag, h)
        assert value == enumerate_fractional_cover(bag, h)

    @settings(max_examples=80, deadline=None)
    @given(hypergraph_and_bag())
    def test_weights_are_a_feasible_rational_cover(self, case):
        h, bag = case
        value, weights = fractional_set_cover(bag, h)
        assert isinstance(value, Fraction)
        for name, weight in weights.items():
            assert isinstance(weight, Fraction), name
            assert weight > 0  # support-only weights
        assert sum(weights.values(), Fraction(0)) == value
        edges = h.edges
        for vertex in bag:
            coverage = sum(
                (w for name, w in weights.items() if vertex in edges[name]),
                Fraction(0),
            )
            assert coverage >= 1, vertex

    @settings(max_examples=80, deadline=None)
    @given(hypergraph_and_bag())
    def test_fractional_at_most_integral(self, case):
        h, bag = case
        value, _ = fractional_set_cover(bag, h)
        assert value <= len(exact_set_cover(bag, h))

    def test_uncoverable_bag_raises(self):
        h = Hypergraph(vertices=[1, 2, 3], edges={"e1": {1, 2}})
        with pytest.raises(SetCoverError):
            fractional_set_cover(frozenset({1, 3}), h)

    def test_empty_bag_costs_nothing(self):
        value, weights = fractional_set_cover(frozenset(), triangle())
        assert value == 0 and weights == {}

    def test_triangle_golden(self):
        value, weights = fractional_set_cover(frozenset({1, 2, 3}), triangle())
        assert value == Fraction(3, 2)
        assert set(weights.values()) == {Fraction(1, 2)}

    def test_fano_golden(self):
        from repro.hypergraph.generators import fano_plane_hypergraph

        h = fano_plane_hypergraph()
        value, weights = fractional_set_cover(
            frozenset(h.vertex_list()), h
        )
        assert value == Fraction(7, 3)
        assert enumerate_fractional_cover(frozenset(h.vertex_list()), h) == (
            Fraction(7, 3)
        )


# ----------------------------------------------------------------------
# The bit engine's fractional layer
# ----------------------------------------------------------------------


def _bag_masks(h: Hypergraph, engine: BitCoverEngine, seed: int, count: int):
    rng = random.Random(seed)
    vertices = h.vertex_list()
    covered = sorted({v for e in h.edges.values() for v in e}, key=repr)
    masks = []
    for _ in range(count):
        k = rng.randint(1, len(covered))
        masks.append(engine.mask_of(rng.sample(covered, k)))
    return masks


class TestEngineFractionalLayer:
    def test_chain_fractional_exact_greedy(self):
        for seed in range(6):
            h = make_covered_hypergraph(6, 5, seed=seed)
            engine = BitCoverEngine(h)
            for mask in _bag_masks(h, engine, seed, 12):
                frac = engine.fractional_size(mask)
                exact = engine.exact_size(mask)
                greedy = engine.greedy_size(mask)
                assert frac <= exact <= greedy, (seed, mask)
                assert math.ceil(frac) <= exact

    def test_cache_never_contradicts_a_cold_solve(self):
        # Warm one engine with a shuffled mix of fractional and exact
        # queries, then check every fractional answer against a fresh
        # engine answering that single query first.
        for seed in range(4):
            h = make_covered_hypergraph(6, 5, seed=seed + 40)
            warm = BitCoverEngine(h)
            masks = _bag_masks(h, warm, seed, 10)
            rng = random.Random(seed)
            plan = [(m, "frac") for m in masks] + [(m, "exact") for m in masks]
            rng.shuffle(plan)
            for mask, kind in plan:
                if kind == "frac":
                    warm.fractional_size(mask)
                else:
                    warm.exact_size(mask)
            for mask in masks:
                cold = BitCoverEngine(h)
                assert warm.fractional_size(mask) == cold.fractional_size(
                    mask
                ), (seed, mask)

    def test_engine_agrees_with_frozenset_path(self):
        for seed in range(4):
            h = make_covered_hypergraph(6, 5, seed=seed + 80)
            engine = BitCoverEngine(h)
            for mask in _bag_masks(h, engine, seed, 8):
                bag = frozenset(engine.mask_to_vertices(mask))
                assert engine.fractional_size(mask) == as_width(
                    fractional_set_cover(bag, h)[0]
                )

    def test_never_float(self):
        for seed in range(4):
            h = make_covered_hypergraph(6, 5, seed=seed + 120)
            engine = BitCoverEngine(h)
            for mask in _bag_masks(h, engine, seed, 8):
                value = engine.fractional_size(mask)
                assert isinstance(value, (int, Fraction))
                assert not isinstance(value, (bool, float))

    def test_fractional_cover_weights_witness_the_value(self):
        h = triangle()
        engine = BitCoverEngine(h)
        value, weights = engine.fractional_cover(engine.mask_of({1, 2, 3}))
        assert value == Fraction(3, 2)
        assert sum(weights.values(), Fraction(0)) == value

    def test_fractional_cover_reuses_a_solved_lp(self, monkeypatch):
        # A certificate built after a search takes its weights from the
        # LPs the search already solved; an edit forgets them all.
        h = triangle()
        engine = BitCoverEngine(h)
        mask = engine.mask_of({1, 2, 3})
        solved = engine.fractional_size(mask)

        def unsolvable(bag_mask):
            raise AssertionError("the LP was solved again")

        monkeypatch.setattr(engine, "_fractional_uncached", unsolvable)
        value, weights = engine.fractional_cover(mask)
        assert value == solved == Fraction(3, 2)
        assert sum(weights.values(), Fraction(0)) == value
        weights.clear()  # the caller owns its copy
        assert engine.fractional_cover(mask)[1]
        monkeypatch.undo()
        engine.apply_edit(h.add_edge([1, 2, 3], name="t"))
        assert engine.fractional_cover(mask) == (1, {"t": Fraction(1)})

    def test_counters(self):
        metrics = Metrics()
        h = triangle()
        engine = BitCoverEngine(h, metrics=metrics)
        mask = engine.mask_of({1, 2, 3})
        engine.fractional_size(mask)
        engine.fractional_size(mask)
        counters = metrics.snapshot()["counters"]
        assert counters["cover.fractional.computed"] == 1
        assert counters["cover.fractional.hit"] == 1


class TestSearchAgreement:
    def test_astar_matches_brute_force(self):
        from repro.search import astar_fhw, brute_force_fhw

        for seed in range(3):
            h = make_covered_hypergraph(5, 4, seed=seed + 160)
            result = astar_fhw(h)
            assert result.exact
            assert result.width == brute_force_fhw(h)


# ----------------------------------------------------------------------
# Rational-width regressions (the latent int/float assumptions)
# ----------------------------------------------------------------------


class TestWidthHelpers:
    def test_as_width_collapses_and_rejects(self):
        assert as_width(Fraction(4, 2)) == 2
        assert isinstance(as_width(Fraction(4, 2)), int)
        assert as_width(Fraction(3, 2)) == Fraction(3, 2)
        with pytest.raises(TypeError):
            as_width(1.5)
        with pytest.raises(TypeError):
            as_width(True)

    def test_format_width(self):
        assert format_width(3) == "3"
        assert format_width(Fraction(7, 3)) == "7/3"
        assert format_width(Fraction(6, 3)) == "2"

    def test_ratio_roundtrip(self):
        for value in (0, 5, Fraction(7, 3), Fraction(3, 2)):
            assert from_ratio(*width_ratio(value)) == value


class TestSummaryFormatting:
    def test_integral_output_is_unchanged(self):
        from repro.search.common import SearchResult

        result = SearchResult(3, 3, [1, 2], True)
        assert result.summary().startswith("width = 3 |")
        loose = SearchResult(3, 2, [1, 2], False)
        assert loose.summary().startswith("width in [2, 3] |")

    def test_rational_bounds_render_exactly(self):
        from repro.search.common import SearchResult

        result = SearchResult(Fraction(7, 3), Fraction(7, 3), [1], True)
        assert result.summary("fhw").startswith("fhw = 7/3 |")
        loose = SearchResult(Fraction(5, 2), Fraction(4, 3), [1], False)
        assert loose.summary("fhw").startswith("fhw in [4/3, 5/2] |")

    def test_float_bound_raises_instead_of_printing(self):
        from repro.search.common import SearchResult

        with pytest.raises(TypeError):
            SearchResult(1.5, 1, [1], True).summary()


class TestSharedBoundsRational:
    def test_rational_merge_is_monotone(self):
        from repro.portfolio.shared import SharedBounds

        shared = SharedBounds(multiprocessing.get_context())
        assert shared.propose_upper(3) is True
        assert shared.propose_upper(Fraction(7, 3)) is True  # 7/3 < 3
        assert shared.propose_upper(Fraction(5, 2)) is False  # looser
        assert shared.upper() == Fraction(7, 3)
        assert shared.propose_lower(1) is True
        assert shared.propose_lower(Fraction(3, 2)) is True
        assert shared.propose_lower(Fraction(4, 3)) is False
        assert shared.lower() == Fraction(3, 2)

    def test_integral_values_come_back_as_ints(self):
        from repro.portfolio.shared import SharedBounds

        shared = SharedBounds(multiprocessing.get_context())
        shared.propose_upper(Fraction(4, 2))
        value = shared.upper()
        assert value == 2 and isinstance(value, int)

    def test_float_proposal_rejected_loudly(self):
        from repro.portfolio.shared import SharedBounds

        shared = SharedBounds(multiprocessing.get_context())
        with pytest.raises(TypeError):
            shared.propose_upper(2.5)

    def test_event_recorder_keeps_rationals(self):
        from repro.portfolio.shared import EventRecorder

        recorder = EventRecorder("astar-fhw", t0=0.0)
        recorder.record("ub", Fraction(7, 3))
        assert recorder.events[0].value == Fraction(7, 3)
        assert not isinstance(recorder.events[0].value, float)


class TestTracerEncoding:
    def test_fractions_serialize_exactly(self, tmp_path):
        from repro.telemetry import JsonlTracer, read_jsonl

        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(path)
        tracer.event("bound_publish", kind="ub", value=Fraction(7, 3))
        tracer.close()
        records = list(read_jsonl(path))
        values = [
            r["fields"]["value"]
            for r in records
            if r.get("fields", {}).get("kind") == "ub"
        ]
        assert values == ["7/3"]  # exact string, never a lossy float

    def test_unknown_types_still_raise(self, tmp_path):
        from repro.telemetry import JsonlTracer

        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(path)
        with pytest.raises(TypeError):
            tracer.event("bad", value=object())
        tracer.close()


class TestPortfolioFhw:
    def test_deterministic_fhw_portfolio_is_exact(self):
        from repro.instances import get_instance
        from repro.portfolio import run_portfolio

        result = run_portfolio(
            get_instance("clique_5").build(),
            jobs=2,
            deterministic=True,
            metric="fhw",
            max_nodes=50_000,
        )
        assert result.metric == "fhw"
        assert result.exact
        assert result.width == Fraction(5, 2)
        assert not isinstance(result.width, float)
