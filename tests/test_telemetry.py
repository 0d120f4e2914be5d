"""Tests for the telemetry subsystem: tracer records, schema
validation, the emit → parse → replay round trip, merge ordering,
metrics instruments, and the NullTracer's zero-overhead contract."""

import json
import time

import pytest

from repro.hypergraph.generators import random_gnm_graph
from repro.instances import get_instance
from repro.portfolio import run_portfolio
from repro.search import SearchBudget
from repro.search.astar_tw import astar_treewidth
from repro.search.common import TRACE_NODE_BATCH, BoundHooks, _BudgetClock
from repro.telemetry import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    JsonlTracer,
    MemoryTracer,
    Metrics,
    NullTracer,
    SampleGate,
    TraceSchemaError,
    merge_records,
    read_jsonl,
    replay_counters,
    validate_file,
    validate_record,
    validate_records,
    write_jsonl,
)
from repro.telemetry.schema import main as schema_main


def fake_record(worker, seq, t, kind="event", name="x", fields=None):
    record = {
        "v": 1, "t": t, "worker": worker, "seq": seq,
        "kind": kind, "name": name,
    }
    if fields is not None:
        record["fields"] = fields
    return record


# ----------------------------------------------------------------------
# Tracer records
# ----------------------------------------------------------------------

class TestTracer:
    def test_record_shape_and_seq(self):
        tracer = MemoryTracer(worker="w")
        tracer.event("a", value=1)
        tracer.metric("b", rows=7)
        assert [r["seq"] for r in tracer.records] == [0, 1]
        first = tracer.records[0]
        assert first["v"] == 1
        assert first["worker"] == "w"
        assert first["kind"] == "event"
        assert first["name"] == "a"
        assert first["fields"] == {"value": 1}
        assert first["t"] >= 0
        assert tracer.records[1]["kind"] == "metric"

    def test_span_emits_start_and_end_with_dur(self):
        tracer = MemoryTracer()
        with tracer.span("work", size=3):
            tracer.event("inside")
        kinds = [r["kind"] for r in tracer.records]
        assert kinds == ["span_start", "event", "span_end"]
        start, _, end = tracer.records
        assert start["name"] == end["name"] == "work"
        assert start["fields"] == {"size": 3}
        assert end["fields"]["dur"] >= 0
        assert "error" not in end["fields"]

    def test_span_records_exception_type(self):
        tracer = MemoryTracer()
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("boom")
        end = tracer.records[-1]
        assert end["kind"] == "span_end"
        assert end["fields"]["error"] == "ValueError"

    def test_shared_time_base(self):
        t0 = time.monotonic()
        a = MemoryTracer(worker="a", t0=t0)
        b = MemoryTracer(worker="b", t0=t0)
        a.event("x")
        b.event("y")
        # Both timestamps measure from the same origin.
        assert abs(a.records[0]["t"] - b.records[0]["t"]) < 1.0

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path, worker="w") as tracer:
            with tracer.span("s"):
                tracer.event("e", n=5)
        records = read_jsonl(path)
        assert len(records) == 3
        validate_records(records)
        assert records[1]["fields"] == {"n": 5}

    def test_write_read_jsonl(self, tmp_path):
        path = tmp_path / "out.jsonl"
        records = [fake_record("w", i, float(i)) for i in range(4)]
        assert write_jsonl(path, records) == 4
        assert read_jsonl(path) == records


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------

class TestSchema:
    def test_valid_stream(self):
        records = [
            fake_record("w", 0, 0.0, kind="span_start", name="s"),
            fake_record("w", 1, 0.1),
            fake_record("w", 2, 0.2, kind="span_end", name="s",
                        fields={"dur": 0.2}),
        ]
        summary = validate_records(records)
        assert summary["records"] == 3
        assert summary["workers"] == ["w"]
        assert summary["spans"] == 1
        assert summary["events"] == 1
        assert summary["open_spans"] == {}

    def test_missing_key_rejected(self):
        record = fake_record("w", 0, 0.0)
        del record["worker"]
        with pytest.raises(TraceSchemaError, match="worker"):
            validate_record(record)

    @pytest.mark.parametrize("key,value", [
        ("v", 99), ("t", -1.0), ("worker", ""), ("seq", -1),
        ("kind", "mystery"), ("name", ""), ("fields", "not-a-dict"),
        ("seq", True), ("t", True),
    ])
    def test_bad_values_rejected(self, key, value):
        record = fake_record("w", 0, 0.0)
        record[key] = value
        with pytest.raises(TraceSchemaError):
            validate_record(record)

    def test_span_end_requires_dur(self):
        record = fake_record("w", 0, 0.0, kind="span_end", name="s")
        with pytest.raises(TraceSchemaError, match="dur"):
            validate_record(record)

    def test_seq_gap_rejected(self):
        records = [fake_record("w", 0, 0.0), fake_record("w", 2, 0.1)]
        with pytest.raises(TraceSchemaError, match="seq"):
            validate_records(records)

    def test_per_worker_seq_independent(self):
        records = [
            fake_record("a", 0, 0.0), fake_record("b", 0, 0.1),
            fake_record("a", 1, 0.2), fake_record("b", 1, 0.3),
        ]
        assert validate_records(records)["workers"] == ["a", "b"]

    def test_mismatched_span_end_rejected(self):
        records = [
            fake_record("w", 0, 0.0, kind="span_start", name="outer"),
            fake_record("w", 1, 0.1, kind="span_end", name="other",
                        fields={"dur": 0.1}),
        ]
        with pytest.raises(TraceSchemaError, match="innermost"):
            validate_records(records)

    def test_open_spans_tolerated(self):
        records = [fake_record("w", 0, 0.0, kind="span_start", name="s")]
        assert validate_records(records)["open_spans"] == {"w": ["s"]}

    def test_cli_ok_and_fail(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        write_jsonl(good, [fake_record("w", 0, 0.0)])
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"v": 1}) + "\n")
        assert schema_main([str(good)]) == 0
        assert schema_main([str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "OK" in out and "FAIL" in out


# ----------------------------------------------------------------------
# Emit → parse → replay round trip
# ----------------------------------------------------------------------

class TestReplay:
    def test_replay_matches_emission(self, tmp_path):
        path = tmp_path / "t.jsonl"
        expected_count = 0
        expected_nodes = 0
        with JsonlTracer(path) as tracer:
            for batch in range(1, 6):
                tracer.event("node_batch", nodes=batch * 256)
                expected_count += 1
                expected_nodes += batch * 256
            tracer.event("bound_publish", kind="ub", value=7)
            tracer.metric("csp_node", bag=3, rows=12, label="skip-me")
        records = read_jsonl(path)
        validate_records(records)
        replayed = replay_counters(records)
        assert replayed["node_batch"]["count"] == expected_count
        assert replayed["node_batch"]["sum"]["nodes"] == expected_nodes
        assert replayed["bound_publish"]["sum"]["value"] == 7
        # Non-numeric fields are not summed; numeric ones are.
        assert replayed["csp_node"]["sum"] == {"bag": 3, "rows": 12}

    def test_replay_ignores_spans_and_bools(self):
        records = [
            fake_record("w", 0, 0.0, kind="span_start", name="s"),
            fake_record("w", 1, 0.1, name="done", fields={"ok": True}),
            fake_record("w", 2, 0.2, kind="span_end", name="s",
                        fields={"dur": 0.2}),
        ]
        replayed = replay_counters(records)
        assert "s" not in replayed
        assert replayed["done"] == {"count": 1, "sum": {}}

    def test_search_trace_replays_final_node_count(self):
        # A real traced search: node_batch events replay to within one
        # batch of the reported nodes_expanded.  myciel4 expands >1000
        # nodes, so the search runs (no bounds shortcut) and batches fire.
        graph = get_instance("myciel4").build()
        tracer = MemoryTracer()
        result = astar_treewidth(graph, budget=SearchBudget(tracer=tracer))
        validate_records(tracer.records)
        replayed = replay_counters(tracer.records)
        finish = replayed["search_finish"]["sum"]
        assert finish["nodes_expanded"] == result.stats.nodes_expanded
        if result.stats.nodes_expanded >= TRACE_NODE_BATCH:
            batches = replayed["node_batch"]["count"]
            assert batches == result.stats.nodes_expanded // TRACE_NODE_BATCH


# ----------------------------------------------------------------------
# Merge ordering
# ----------------------------------------------------------------------

class TestMerge:
    def test_chronological_merge_with_tie_breaks(self):
        a = [fake_record("a", 0, 0.1), fake_record("a", 1, 0.5)]
        b = [fake_record("b", 0, 0.1), fake_record("b", 1, 0.3)]
        merged = merge_records([a, b])
        assert [(r["worker"], r["seq"]) for r in merged] == [
            ("a", 0), ("b", 0), ("b", 1), ("a", 1),
        ]
        validate_records(merged)

    def test_deterministic_merge_ignores_time(self):
        # Worker b's clock says it went first; deterministic mode still
        # concatenates in stream order.
        a = [fake_record("a", 0, 9.0), fake_record("a", 1, 9.5)]
        b = [fake_record("b", 0, 0.1)]
        merged = merge_records([a, b], deterministic=True)
        assert [(r["worker"], r["seq"]) for r in merged] == [
            ("a", 0), ("a", 1), ("b", 0),
        ]

    def test_explicit_worker_order_ranks_ties(self):
        a = [fake_record("a", 0, 0.2)]
        b = [fake_record("b", 0, 0.2)]
        merged = merge_records([a, b], worker_order=["b", "a"])
        assert [r["worker"] for r in merged] == ["b", "a"]

    def test_unexpected_worker_rejected(self):
        with pytest.raises(TraceSchemaError, match="unexpected worker"):
            merge_records(
                [[fake_record("rogue", 0, 0.0)]], worker_order=["a"]
            )

    def test_merged_stream_passes_validation(self):
        streams = [
            [
                fake_record(w, 0, t, kind="span_start", name="run"),
                fake_record(w, 1, t + 0.2, kind="span_end", name="run",
                            fields={"dur": 0.2}),
            ]
            for w, t in (("a", 0.0), ("b", 0.05), ("c", 0.1))
        ]
        summary = validate_records(merge_records(streams))
        assert summary["workers"] == ["a", "b", "c"]
        assert summary["spans"] == 3


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetrics:
    def test_instruments(self):
        metrics = Metrics()
        assert not metrics
        metrics.counter("c").inc()
        metrics.counter("c").inc(4)
        metrics.gauge("g").set(2.5)
        for value in (1.0, 3.0, 2.0):
            metrics.histogram("h").observe(value)
        assert metrics
        snap = metrics.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"] == {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_snapshot_is_json_ready(self):
        metrics = Metrics()
        metrics.counter("c").inc()
        metrics.histogram("h").observe(1.5)
        assert json.loads(json.dumps(metrics.snapshot()))

    def test_merge_snapshot(self):
        worker = Metrics()
        worker.counter("nodes").inc(10)
        worker.gauge("frontier").set(4)
        worker.histogram("dur").observe(1.0)
        parent = Metrics()
        parent.counter("nodes").inc(5)
        parent.histogram("dur").observe(3.0)
        parent.merge_snapshot(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["nodes"] == 15
        assert snap["gauges"]["frontier"] == 4
        assert snap["histograms"]["dur"]["count"] == 2
        assert snap["histograms"]["dur"]["min"] == 1.0
        assert snap["histograms"]["dur"]["max"] == 3.0

    def test_sample_gate(self):
        gate = SampleGate(3)
        assert [gate.fire() for _ in range(7)] == [
            False, False, True, False, False, True, False,
        ]
        with pytest.raises(ValueError):
            SampleGate(0)

    def test_instrument_primitives(self):
        c = Counter()
        c.inc()
        assert c.value == 1
        g = Gauge()
        assert g.value is None
        g.set(7)
        assert g.value == 7
        h = Histogram()
        assert h.mean is None


# ----------------------------------------------------------------------
# NullTracer: the zero-overhead contract
# ----------------------------------------------------------------------

class TestNullTracer:
    def test_all_methods_are_noops(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert tracer.event("x", a=1) is None
        assert tracer.metric("x", a=1) is None
        with tracer.span("x", a=1):
            pass
        tracer.close()
        with tracer:
            pass

    def test_untraced_search_emits_nothing(self):
        graph = random_gnm_graph(10, 20, seed=1)
        clock_budget = SearchBudget(hooks=BoundHooks())
        result = astar_treewidth(graph, budget=clock_budget)
        assert result.exact
        # The clock resolved the NullTracer and kept tracing off.
        assert clock_budget.tracer is None

    def test_budget_clock_resolves_null_tracer(self):
        clock = _BudgetClock(SearchBudget())
        assert clock.tracer is NULL_TRACER
        assert clock._tracing is False

    def test_overhead_micro_check(self):
        # The disabled path is one cached-bool branch; even on a slow
        # CI box a million no-op taps must finish in well under a
        # second.  Generous absolute bound to keep this unflaky.
        tracer = NULL_TRACER
        start = time.perf_counter()
        for _ in range(200_000):
            if tracer.enabled:
                tracer.event("node_batch", nodes=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5

    def test_traced_and_untraced_search_agree(self):
        graph = get_instance("myciel4").build()
        plain = astar_treewidth(graph)
        tracer = MemoryTracer()
        traced = astar_treewidth(graph, budget=SearchBudget(tracer=tracer))
        assert plain.upper_bound == traced.upper_bound
        assert plain.stats.nodes_expanded == traced.stats.nodes_expanded
        assert tracer.records  # tracing actually happened


# ----------------------------------------------------------------------
# Portfolio trace integration (the acceptance criterion)
# ----------------------------------------------------------------------

class TestPortfolioTrace:
    def test_live_portfolio_trace(self, tmp_path):
        path = tmp_path / "portfolio.jsonl"
        graph = get_instance("myciel4").build()
        result = run_portfolio(
            graph,
            backends=["bb-tw", "astar-tw"],
            jobs=2,
            budget_seconds=30,
            trace=str(path),
        )
        assert result.trace_path == str(path)
        assert result.trace_records > 0
        summary = validate_file(path)
        records = read_jsonl(path)
        assert len(records) == result.trace_records
        # Spans from >= 2 distinct workers plus the parent.
        span_workers = {
            r["worker"] for r in records if r["kind"] == "span_start"
        }
        assert len(span_workers - {"portfolio"}) >= 2
        # At least one bound-exchange message crossed the channel (the
        # first published bound always tightens it from infinity).
        assert any(r["name"] == "bound_exchange" for r in records)
        assert summary["open_spans"] == {}

    def test_deterministic_portfolio_trace_is_worker_ordered(self, tmp_path):
        path = tmp_path / "det.jsonl"
        graph = get_instance("myciel4").build()
        run_portfolio(
            graph,
            backends=["astar-tw", "bb-tw"],
            jobs=2,
            deterministic=True,
            max_nodes=2000,
            trace=str(path),
        )
        records = read_jsonl(path)
        validate_records(records)
        # Worker blocks are contiguous in declared order: parent first
        # (it traced first), then each backend's whole stream.
        workers = [r["worker"] for r in records]
        seen = []
        for worker in workers:
            if worker not in seen:
                seen.append(worker)
        positions = {w: [i for i, x in enumerate(workers) if x == w]
                     for w in seen}
        for w, idx in positions.items():
            assert idx == list(range(idx[0], idx[0] + len(idx))), w

    def test_untraced_portfolio_has_no_trace(self):
        graph = get_instance("myciel4").build()
        result = run_portfolio(
            graph,
            backends=["bb-tw"],
            jobs=1,
            deterministic=True,
            max_nodes=500,
        )
        assert result.trace_path is None
        assert result.trace_records == 0
