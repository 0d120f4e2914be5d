"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, load_structure, main
from repro.hypergraph import Graph, Hypergraph


class TestLoadStructure:
    def test_registered_instance(self):
        structure = load_structure("myciel3")
        assert isinstance(structure, Graph)
        assert structure.num_vertices == 11

    def test_registered_hypergraph(self):
        structure = load_structure("adder_5")
        assert isinstance(structure, Hypergraph)

    def test_dimacs_file(self, tmp_path):
        path = tmp_path / "toy.col"
        path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        structure = load_structure(str(path))
        assert isinstance(structure, Graph)
        assert structure.num_edges == 2

    def test_hypergraph_file(self, tmp_path):
        path = tmp_path / "toy.hg"
        path.write_text("c1(a,b,c),\nc2(c,d),\n")
        structure = load_structure(str(path))
        assert isinstance(structure, Hypergraph)
        assert structure.num_edges == 2

    def test_unknown_instance_exits(self):
        with pytest.raises(SystemExit):
            load_structure("definitely-not-an-instance")


class TestCommands:
    def test_tw_exact(self, capsys):
        assert main(["tw", "myciel3", "--budget", "30"]) == 0
        out = capsys.readouterr().out
        assert "treewidth = 5" in out

    def test_tw_ga(self, capsys):
        assert main(["tw", "myciel3", "--ga", "--budget", "5"]) == 0
        out = capsys.readouterr().out
        assert "treewidth <=" in out

    def test_ghw_exact(self, capsys):
        assert main(["ghw", "adder_5", "--budget", "30"]) == 0
        out = capsys.readouterr().out
        assert "ghw = 2" in out

    def test_ghw_on_graph_instance(self, capsys):
        # graphs are lifted to hypergraphs with binary edges
        assert main(["ghw", "myciel3", "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert "ghw" in out

    def test_ghw_ga(self, capsys):
        assert main(["ghw", "adder_5", "--ga", "--budget", "5"]) == 0
        assert "ghw <=" in capsys.readouterr().out

    def test_hw(self, capsys):
        assert main(["hw", "adder_5"]) == 0
        assert "hypertree width = 2" in capsys.readouterr().out

    def test_hw_on_graph(self, capsys):
        assert main(["hw", "myciel3"]) == 0
        assert "hypertree width" in capsys.readouterr().out

    def test_portfolio_tw(self, capsys):
        assert main([
            "portfolio", "myciel3", "--jobs", "2", "--deterministic",
        ]) == 0
        out = capsys.readouterr().out
        assert "treewidth = 5" in out
        assert "deterministic" in out
        assert "astar-tw" in out and "bb-tw" in out

    def test_portfolio_ghw(self, capsys):
        assert main([
            "portfolio", "adder_5", "--jobs", "2", "--budget", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "ghw = 2" in out

    def test_portfolio_backend_selection_and_timeline(self, capsys):
        assert main([
            "portfolio", "myciel3",
            "--backends", "astar-tw,bb-tw",
            "--jobs", "1", "--budget", "60", "--timeline",
        ]) == 0
        out = capsys.readouterr().out
        assert "treewidth = 5" in out
        assert "2 backends" in out
        assert "bound timeline:" in out

    @pytest.mark.usefixtures("fault_backends")
    def test_portfolio_crashing_backend_reported(self, capsys):
        assert main([
            "portfolio", "myciel3",
            "--backends", "crash,bb-tw", "--jobs", "2", "--budget", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "treewidth = 5" in out
        assert "error:" in out

    def test_fault_backends_are_not_registered(self):
        """``stall`` exists only as a test fixture: from the shell it is
        an unknown backend, rejected before any worker starts."""
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro", "portfolio", "myciel3",
             "--backends", "stall"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert "unknown backend" in done.stderr

    def test_portfolio_unknown_backend(self, capsys):
        # Solver errors surface as a one-line stderr message and a
        # nonzero exit, not a traceback.
        assert main(["portfolio", "myciel3", "--backends", "nope"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown backend" in err

    def test_solver_failure_closes_tracer(self, capsys, tmp_path, monkeypatch):
        # Regression: a raising solver used to leave the --trace file
        # open (truncated, unflushed) and dump a traceback.  The tracer
        # must be closed in ``finally`` and the error reported as one
        # stderr line with a nonzero exit.
        import json

        import repro.cli as cli

        def exploding_solver(structure, budget=None, **kwargs):
            budget.tracer.event("probe", progress=1)
            raise RuntimeError("injected solver failure")

        monkeypatch.setattr(cli, "astar_treewidth", exploding_solver)
        trace = tmp_path / "trace.jsonl"
        assert main(["tw", "myciel3", "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "injected solver failure" in err
        # The pre-crash record made it to disk and every line is JSON.
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert any(record.get("name") == "probe" for record in records)

    def test_ghw_from_hypergraph_file(self, capsys, tmp_path):
        # The file-sniffing path: a hyperedge list (no DIMACS header)
        # must load as a hypergraph and run the ghw pipeline end to end.
        path = tmp_path / "toy.hg"
        path.write_text("c1(a,b,c),\nc2(c,d),\nc3(d,e,a),\n")
        assert main(["ghw", str(path), "--budget", "30"]) == 0
        assert "ghw = " in capsys.readouterr().out

    def test_portfolio_from_hypergraph_file(self, capsys, tmp_path):
        path = tmp_path / "toy.hg"
        path.write_text("c1(a,b,c),\nc2(c,d),\nc3(d,e,a),\n")
        assert main([
            "portfolio", str(path), "--jobs", "2", "--deterministic",
        ]) == 0
        out = capsys.readouterr().out
        assert "portfolio (ghw" in out
        assert "ghw = " in out

    def test_decompose(self, capsys, tmp_path):
        output = tmp_path / "out.td"
        assert main(["decompose", "myciel3", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "width" in out
        text = output.read_text()
        assert text.startswith("s td ")
        assert "b 1 " in text

    def test_instances_listing(self, capsys):
        assert main(["instances"]) == 0
        out = capsys.readouterr().out
        assert "queen5_5" in out
        assert "adder_75" in out

    def test_instances_kind_filter(self, capsys):
        assert main(["instances", "--kind", "hypergraph"]) == 0
        out = capsys.readouterr().out
        assert "adder_75" in out
        assert "queen5_5" not in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_file_roundtrip(self, capsys, tmp_path):
        from repro.hypergraph import write_dimacs
        from repro.hypergraph.generators import cycle_graph

        path = tmp_path / "cycle.col"
        path.write_text(write_dimacs(cycle_graph(6)))
        assert main(["tw", str(path), "--budget", "10"]) == 0
        assert "treewidth = 2" in capsys.readouterr().out
