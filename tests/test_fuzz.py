"""Tests for the differential fuzz harness (``repro.verify.fuzz``).

The centrepiece is the mutation gate: for every hand-seeded fault in
:data:`repro.verify.fuzz.FAULTS` the fuzzer must report a failure and
shrink it to a small counterexample.  A harness that cannot catch known
faults would give false confidence on the real pipeline.
"""

import json

import pytest

from repro.cli import main
from repro.hypergraph import Graph, Hypergraph
from repro.verify.fuzz import (
    FAULTS,
    FuzzConfig,
    load_replay,
    run_fuzz,
    run_replay,
    write_replay,
)

# Per-fault knobs: λ / descendant faults only exist on hypergraph
# pipelines, and the GA fault needs the GA check on every case.
_FAULT_SETUP = {
    "drop-lambda-edge": {"families": ("hyper", "circuit")},
    "descendant-leak": {"families": ("hyper", "circuit")},
    "ga-undercut": {"ga_every": 1},
    "fhw-round": {"families": ("hyper", "circuit"), "fhw_every": 1},
    "fhw-integral-cache": {"families": ("hyper", "circuit"), "fhw_every": 1},
    "stitch-drop-cover": {"families": ("hyper", "circuit"),
                          "balanced_every": 1},
    "sat-learn-drop": {"families": ("hyper", "circuit"), "hw_every": 1},
    "optk-descendant-forget": {"families": ("hyper", "circuit"),
                               "hw_every": 1},
}

# Acceptance bar from the issue: every shrunk counterexample stays tiny.
_MAX_SHRUNK_VERTICES = 12


class TestMutationGate:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_is_detected_and_shrunk(self, fault):
        report = run_fuzz(FuzzConfig(
            seed=5,
            cases=30,
            fault=fault,
            max_failures=1,
            **_FAULT_SETUP.get(fault, {}),
        ))
        assert report.failures, f"fault {fault!r} went undetected"
        failure = report.failures[0]
        assert failure.fault == fault
        assert failure.structure.num_vertices <= _MAX_SHRUNK_VERTICES
        assert failure.structure.num_vertices <= failure.original_vertices

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FuzzConfig(fault="not-a-fault")


class TestCleanRun:
    def test_fault_free_run_is_clean(self):
        report = run_fuzz(seed=1, cases=40)
        assert report.ok
        assert report.cases_run == 40
        counters = report.metrics.snapshot()["counters"]
        assert counters["fuzz.cases"] == 40
        assert counters.get("fuzz.failures", 0) == 0

    def test_runs_are_deterministic(self):
        first = run_fuzz(seed=9, cases=15)
        second = run_fuzz(seed=9, cases=15)
        assert first.ok and second.ok
        assert (first.metrics.snapshot()["counters"]
                == second.metrics.snapshot()["counters"])

    def test_portfolio_cross_check_is_clean(self):
        # The deterministic portfolio is opt-in (it spawns processes);
        # a small run must agree with the standalone exact solvers.
        report = run_fuzz(FuzzConfig(
            seed=2, cases=4, families=("gnm",), portfolio_every=2,
        ))
        assert report.ok

    def test_failures_are_traced_even_without_shrinking(self, tmp_path):
        from repro.telemetry import JsonlTracer

        path = tmp_path / "fuzz.jsonl"
        tracer = JsonlTracer(path)
        report = run_fuzz(FuzzConfig(
            seed=5, cases=30, fault="drop-tree-edge",
            max_failures=1, shrink=False, tracer=tracer,
        ))
        tracer.close()
        assert report.failures
        assert report.failures[0].shrink_steps == 0
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert any(r["name"] == "fuzz_failure" for r in records)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown families"):
            FuzzConfig(families=("nope",))
        with pytest.raises(ValueError, match="at least one"):
            FuzzConfig(families=())
        with pytest.raises(ValueError, match="non-negative"):
            FuzzConfig(cases=-1)


class TestReplay:
    def _failing_report(self):
        report = run_fuzz(FuzzConfig(
            seed=5, cases=30, fault="drop-tree-edge", max_failures=1,
        ))
        assert report.failures
        return report

    def test_roundtrip_reproduces_and_fix_clears(self, tmp_path):
        failure = self._failing_report().failures[0]
        path = tmp_path / "counterexample.json"
        write_replay(failure, path)

        structure, payload = load_replay(path)
        assert payload["check"] == failure.check
        assert payload["fault"] == "drop-tree-edge"
        assert structure.num_vertices == failure.structure.num_vertices

        # Stored fault re-injected by default: the failure reproduces.
        replay = run_replay(path)
        assert not replay.ok
        assert any(f.check == failure.check for f in replay.failures)
        # Fault disabled (how a fix is confirmed): all checks pass.
        assert run_replay(path, fault=None).ok

    def test_version_gate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "structure": {}}))
        with pytest.raises(ValueError, match="unsupported replay version"):
            load_replay(path)

    def test_structure_serialization_roundtrip(self, tmp_path):
        from repro.verify.fuzz import (
            _deserialize_structure,
            _serialize_structure,
        )

        g = Graph.from_edges([(1, 2), (2, 3)])
        g2 = _deserialize_structure(json.loads(
            json.dumps(_serialize_structure(g))
        ))
        assert isinstance(g2, Graph)
        assert sorted(map(sorted, g2.edges())) == sorted(map(sorted, g.edges()))

        h = Hypergraph()
        h.add_edge(["a", "b"], name="e1")
        h.add_edge(["b", "c"], name="e2")
        h2 = _deserialize_structure(json.loads(
            json.dumps(_serialize_structure(h))
        ))
        assert isinstance(h2, Hypergraph)
        assert h2.edges == h.edges


class TestFuzzCLI:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--cases", "8", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "all clean" in out

    def test_list_faults(self, capsys):
        assert main(["fuzz", "--list-faults"]) == 0
        out = capsys.readouterr().out
        for name in FAULTS:
            assert name in out

    def test_injected_fault_fails_and_writes_replay(self, capsys, tmp_path):
        replay = tmp_path / "ce.json"
        assert main([
            "fuzz", "--cases", "30", "--seed", "5",
            "--fault", "drop-tree-edge", "--max-failures", "1",
            "--write-replay", str(replay),
        ]) == 1
        out = capsys.readouterr().out
        assert "failing case" in out
        assert replay.exists()
        # Replaying with the stored fault reproduces; without it, passes.
        assert main(["fuzz", "--replay", str(replay)]) == 1
        capsys.readouterr()
        assert main(["fuzz", "--replay", str(replay),
                     "--fault", "none"]) == 0

    def test_metrics_flag_prints_counters(self, capsys):
        assert main(["fuzz", "--cases", "4", "--seed", "2",
                     "--metrics"]) == 0
        assert "fuzz.cases = 4" in capsys.readouterr().out
