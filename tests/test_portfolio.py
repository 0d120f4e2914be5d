"""Tests for the parallel anytime portfolio solver.

Covers the shared-bound channel (monotone merges), in-process bound
injection into the searches (soundness: external incumbents can only
prune, never produce a width below the true optimum), determinism under
fixed seeds, live bound-exchange runs, and graceful handling of a worker
that raises.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest

from repro.decomposition import elimination_bags
from repro.hypergraph import Graph, Hypergraph
from repro.hypergraph.generators import cycle_graph
from repro.instances import get_instance
from repro.portfolio import (
    BACKENDS,
    DEFAULT_BACKENDS,
    BackendConfig,
    EventRecorder,
    PortfolioError,
    SharedBounds,
    make_worker_hooks,
    resolve_backends,
    run_portfolio,
)
from repro.service.cache import WITNESS_TYPES
from repro.telemetry import read_jsonl
from repro.verify.certificate import certify
from repro.search import (
    BoundHooks,
    RaceStopped,
    SearchBudget,
    astar_fhw,
    astar_treewidth,
    branch_and_bound_treewidth,
)

MYCIEL3_TW = 5
MYCIEL4_TW = 10


def event_keys(events):
    """Project a bound-event list onto its reproducible fields."""
    return [(e.backend, e.kind, e.value, e.seq) for e in events]


class TestSharedBounds:
    def test_starts_unset(self):
        shared = SharedBounds(multiprocessing.get_context())
        assert shared.upper() is None
        assert shared.lower() is None

    def test_monotone_upper_merge(self):
        shared = SharedBounds(multiprocessing.get_context())
        assert shared.propose_upper(12) is True
        assert shared.propose_upper(15) is False  # looser: rejected
        assert shared.propose_upper(9) is True
        assert shared.upper() == 9

    def test_monotone_lower_merge(self):
        shared = SharedBounds(multiprocessing.get_context())
        assert shared.propose_lower(3) is True
        assert shared.propose_lower(2) is False  # looser: rejected
        assert shared.propose_lower(7) is True
        assert shared.lower() == 7

    def test_worker_hooks_record_only_tightenings(self):
        shared = SharedBounds(multiprocessing.get_context())
        recorder = EventRecorder("w", time.monotonic())
        hooks = make_worker_hooks(shared, recorder)
        hooks.publish_upper(10)
        hooks.publish_upper(12)  # stale: merged away, not recorded
        hooks.publish_upper(8)
        hooks.publish_lower(4)
        assert shared.upper() == 8
        assert shared.lower() == 4
        assert [(e.kind, e.value) for e in recorder.events] == [
            ("ub", 10), ("ub", 8), ("lb", 4),
        ]
        assert [e.seq for e in recorder.events] == [0, 1, 2]

    def test_isolated_hooks_have_no_polls(self):
        recorder = EventRecorder("w", time.monotonic())
        hooks = make_worker_hooks(None, recorder)
        assert hooks.poll_upper is None
        assert hooks.poll_lower is None
        assert hooks.should_stop is None
        hooks.check_stop()  # no stop word wired: never raises
        hooks.publish_upper(6)
        assert [(e.kind, e.value) for e in recorder.events] == [("ub", 6)]

    def test_stop_word_reaches_worker_hooks(self):
        shared = SharedBounds(multiprocessing.get_context())
        hooks = make_worker_hooks(shared, EventRecorder("w", 0.0))
        assert not shared.stopped()
        hooks.check_stop()
        shared.stop()
        assert shared.stopped() and hooks.should_stop()
        with pytest.raises(RaceStopped):
            hooks.check_stop()

    def test_held_lock_reads_as_no_bound(self):
        # A worker that died inside the channel lock leaves it held:
        # reads answer None (never a guess) and proposals are dropped,
        # each after a short wait instead of blocking forever.
        ctx = multiprocessing.get_context()
        shared = SharedBounds(ctx)
        shared.propose_upper(7)
        shared.propose_lower(3)
        holder = ctx.Process(
            target=_hold_locks_forever, args=(shared,), daemon=True
        )
        holder.start()
        try:
            deadline = time.monotonic() + 10.0
            while shared.upper() is not None or shared.lower() is not None:
                assert time.monotonic() < deadline
            started = time.monotonic()
            assert shared.upper() is None
            assert shared.lower() is None
            assert shared.propose_upper(5) is False
            assert time.monotonic() - started < 2.0
        finally:
            holder.kill()
            holder.join()

    def test_concurrent_merges_lose_no_update(self):
        # More proposers than cores, each tightening both bounds on every
        # proposal, interleaved with the others: a lost or torn update
        # would leave a looser bound than the best one proposed.
        ctx = multiprocessing.get_context()
        shared = SharedBounds(ctx)
        workers = [
            ctx.Process(target=_propose_many, args=(shared, offset))
            for offset in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
            assert not worker.is_alive() and worker.exitcode == 0
        assert shared.upper() == Fraction(1, 3)
        assert shared.lower() == Fraction(4 * _PROPOSALS - 2, 3)


_PROPOSALS = 3000


def _propose_many(shared, offset):
    # Worker ``offset`` proposes 4i + offset + 1 (over 3) downwards as
    # upper bounds and upwards as lower bounds.
    for i in range(_PROPOSALS):
        down = _PROPOSALS - 1 - i
        shared.propose_upper(Fraction(4 * down + offset + 1, 3))
        shared.propose_lower(Fraction(4 * i + offset - 1, 3))


def _hold_locks_forever(shared):
    shared._ub.get_lock().acquire()
    shared._lb.get_lock().acquire()
    while True:
        time.sleep(0.05)


class TestBoundInjection:
    """External incumbents fed straight into the in-process searches."""

    def test_external_bounds_prune_but_stay_sound(self):
        # Another (hypothetical) worker witnessed ub=10 and proved lb=10
        # on myciel4.  The search must converge fast and report an
        # honest bracket: its own witnessed ub (>= the true optimum) and
        # a lower bound exactly at the optimum.
        graph = get_instance("myciel4").build()
        hooks = BoundHooks(
            poll_upper=lambda: MYCIEL4_TW,
            poll_lower=lambda: MYCIEL4_TW,
            poll_interval=1,
        )
        result = astar_treewidth(graph, budget=SearchBudget(hooks=hooks))
        assert result.upper_bound >= MYCIEL4_TW  # never below the optimum
        assert result.lower_bound == MYCIEL4_TW
        baseline = astar_treewidth(graph)
        assert result.stats.nodes_expanded < baseline.stats.nodes_expanded

    def test_external_bounds_prune_branch_and_bound(self):
        graph = get_instance("myciel4").build()
        hooks = BoundHooks(
            poll_upper=lambda: MYCIEL4_TW,
            poll_lower=lambda: MYCIEL4_TW,
            poll_interval=1,
        )
        result = branch_and_bound_treewidth(
            graph, budget=SearchBudget(hooks=hooks)
        )
        assert result.upper_bound >= MYCIEL4_TW
        assert result.lower_bound == MYCIEL4_TW
        baseline = branch_and_bound_treewidth(graph)
        assert result.stats.nodes_expanded < baseline.stats.nodes_expanded

    def test_unhelpful_external_bounds_change_nothing(self):
        # Looser-than-local external bounds must not affect the result.
        graph = get_instance("myciel3").build()
        hooks = BoundHooks(
            poll_upper=lambda: 10_000,
            poll_lower=lambda: 0,
            poll_interval=1,
        )
        result = astar_treewidth(graph, budget=SearchBudget(hooks=hooks))
        assert result.exact
        assert result.width == MYCIEL3_TW

    def test_search_publishes_its_bounds(self):
        graph = get_instance("myciel3").build()
        published = []
        hooks = BoundHooks(
            publish_upper=lambda v: published.append(("ub", v)),
            publish_lower=lambda v: published.append(("lb", v)),
        )
        result = astar_treewidth(graph, budget=SearchBudget(hooks=hooks))
        assert result.exact
        kinds = {kind for kind, _ in published}
        assert kinds == {"ub", "lb"}
        assert ("ub", MYCIEL3_TW) in published
        assert result.stats.bounds_published == len(published)


class TestBackendRegistry:
    def test_defaults_resolve(self):
        for metric, names in DEFAULT_BACKENDS.items():
            specs = resolve_backends(None, metric)
            assert [s.name for s in specs] == list(names)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backends(["astar-tw", "nope"], "tw")

    def test_metric_mismatch_rejected(self):
        with pytest.raises(ValueError, match="computes tw, not ghw"):
            resolve_backends(["astar-tw"], "ghw")

    @pytest.mark.usefixtures("fault_backends")
    def test_crash_backend_matches_any_metric(self):
        assert resolve_backends(["crash"], "tw")[0] is BACKENDS["crash"]
        assert resolve_backends(["crash"], "ghw")[0] is BACKENDS["crash"]


class TestBackendReports:
    @pytest.mark.usefixtures("fault_backends")
    def test_every_report_carries_worker_wall_time(self):
        # Both exact searches close a cycle on their root bounds; each
        # still took time.  A crashing worker's error report is stamped
        # too.
        result = run_portfolio(
            cycle_graph(6), backends=["bb-tw", "astar-tw", "crash"],
            jobs=1, deterministic=True,
        )
        assert result.exact
        for name, report in result.reports.items():
            assert report.elapsed_seconds > 0, name

    @pytest.mark.parametrize("metric,structure", [
        ("tw", get_instance("myciel3").build()),
        ("ghw", get_instance("fano").build()),
        ("fhw", get_instance("fano").build()),
        ("hw", get_instance("fano").build()),
    ], ids=["tw", "ghw", "fhw", "hw"])
    def test_first_default_backend_publishes_then_reports(
        self, metric, structure
    ):
        name = DEFAULT_BACKENDS[metric][0]
        uppers, lowers = [], []
        hooks = BoundHooks(publish_upper=uppers.append,
                           publish_lower=lowers.append)
        report = BACKENDS[name].run(structure, BackendConfig(), hooks)
        assert report.backend == name and report.error is None
        assert report.upper_bound in uppers
        assert report.lower_bound in lowers
        assert report.exact == (report.lower_bound >= report.upper_bound)
        if metric == "hw":
            assert report.ordering is None
        else:
            assert sorted(report.ordering) == sorted(structure.vertex_list())
            assert report.witness.bags == elimination_bags(
                structure, report.ordering
            )
        assert type(report.witness) is WITNESS_TYPES[metric]
        assert certify(
            report.witness, structure, claimed_width=report.upper_bound
        ).ok

    @pytest.mark.parametrize("deterministic", [False, True],
                             ids=["live", "deterministic"])
    @pytest.mark.parametrize("metric,structure", [
        ("tw", Graph()),
        ("ghw", Hypergraph()),
        ("fhw", Hypergraph()),
        ("hw", Hypergraph()),
    ], ids=["tw", "ghw", "fhw", "hw"])
    def test_empty_instance_race(self, metric, structure, deterministic):
        result = run_portfolio(
            structure, metric=metric, jobs=2, deterministic=deterministic,
        )
        assert (result.upper_bound, result.lower_bound, result.exact) == (
            0, 0, True
        )
        assert type(result.witness) is WITNESS_TYPES[metric]
        assert certify(result.witness, structure, claimed_width=0).ok

    @pytest.mark.parametrize("deterministic", [False, True],
                             ids=["live", "deterministic"])
    @pytest.mark.parametrize("metric", ["ghw", "fhw", "hw"])
    def test_isolated_vertices_fail_the_race(self, metric, deterministic):
        # No λ-label covers an isolated vertex: every backend refuses
        # the instance, so the race has no width to answer.
        with pytest.raises(
            PortfolioError, match=r"isolated vertices \['1', '2'\]"
        ):
            run_portfolio(
                Hypergraph(vertices=[1, 2]), metric=metric, jobs=2,
                deterministic=deterministic,
            )


class TestPortfolioDeterministic:
    def test_bit_reproducible_under_fixed_seeds(self):
        graph = get_instance("myciel3").build()
        runs = [
            run_portfolio(
                graph, jobs=2, seed=7, deterministic=True, max_nodes=50_000
            )
            for _ in range(2)
        ]
        first, second = runs
        assert first.width == second.width == MYCIEL3_TW
        assert first.exact and second.exact
        assert first.best_backend == second.best_backend
        assert first.ordering == second.ordering
        assert event_keys(first.events) == event_keys(second.events)
        for name in first.reports:
            a, b = first.reports[name], second.reports[name]
            assert (a.upper_bound, a.lower_bound, a.nodes, a.ordering) == (
                b.upper_bound, b.lower_bound, b.nodes, b.ordering
            )

    def test_deterministic_ghw(self):
        hypergraph = get_instance("adder_5").build()
        result = run_portfolio(
            hypergraph, jobs=2, deterministic=True, max_nodes=50_000
        )
        assert result.metric == "ghw"
        assert result.exact
        assert result.width == 2

    def test_deterministic_events_in_backend_order(self):
        graph = get_instance("myciel3").build()
        result = run_portfolio(graph, jobs=2, deterministic=True)
        order = {name: i for i, name in enumerate(DEFAULT_BACKENDS["tw"])}
        keys = [(order[e.backend], e.seq) for e in result.events]
        assert keys == sorted(keys)


class TestPortfolioLive:
    def test_exchange_is_sound_on_known_widths(self):
        # Live bound exchange must still land exactly on the known
        # optimum — shared incumbents prune, they never mislead.
        for name, optimum in (("myciel3", 5), ("queen5_5", 18)):
            result = run_portfolio(
                get_instance(name).build(), jobs=2, budget_seconds=60.0
            )
            assert result.exact, name
            assert result.width == optimum, name
            assert result.lower_bound == optimum, name
            assert result.ordering is not None

    def test_closed_bracket_skips_queued_backends(self, tmp_path):
        # With one job A*-tw runs alone and closes myciel3; the queued
        # BB-tw could only repeat the answer.
        path = tmp_path / "skip.jsonl"
        result = run_portfolio(
            get_instance("myciel3").build(), metric="tw", jobs=1,
            trace=str(path),
        )
        assert result.exact
        assert result.width == MYCIEL3_TW
        assert set(result.reports) == {"astar-tw"}
        skipped = [
            r["fields"]["backend"] for r in read_jsonl(path)
            if r["name"] == "worker_skipped"
        ]
        assert skipped == ["bb-tw"]

    @pytest.mark.usefixtures("fault_backends")
    def test_single_job_serial_waves(self):
        # The first wave finishes without deciding the race, so the
        # second wave still runs and closes it.
        result = run_portfolio(
            get_instance("myciel3").build(),
            backends=["ordering-only", "astar-tw"],
            jobs=1,
            budget_seconds=30.0,
        )
        assert not result.reports["ordering-only"].exact
        assert result.exact
        assert result.width == MYCIEL3_TW
        assert result.best_backend == "astar-tw"

    @pytest.mark.usefixtures("fault_backends")
    def test_crashing_worker_does_not_sink_the_race(self):
        result = run_portfolio(
            get_instance("myciel3").build(),
            backends=["crash", "bb-tw"],
            jobs=2,
            budget_seconds=30.0,
        )
        assert result.reports["crash"].error is not None
        assert "injected" in result.reports["crash"].error
        assert result.exact
        assert result.width == MYCIEL3_TW
        assert result.best_backend == "bb-tw"

    @pytest.mark.usefixtures("fault_backends")
    def test_all_workers_failing_raises(self):
        with pytest.raises(PortfolioError, match="every backend failed"):
            run_portfolio(
                get_instance("myciel3").build(),
                backends=["crash"],
                jobs=1,
                budget_seconds=10.0,
            )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_portfolio(get_instance("myciel3").build(), jobs=0)


class TestDeadlineBracket:
    """Deadline expiry with no finished backend must yield the best
    incumbent bracket from the shared-bounds channel, never None or a
    spurious PortfolioError (regression: the aggregator used to raise
    when every report came back unfinished)."""

    @pytest.mark.usefixtures("fault_backends")
    def test_stalled_race_returns_channel_bracket(self):
        instance = get_instance("myciel3").build()
        result = run_portfolio(
            instance,
            backends=["stall"],  # publishes n as an upper bound, hangs
            jobs=1,
            budget_seconds=0.3,
            grace_seconds=0.5,
        )
        assert result.upper_bound == instance.num_vertices
        assert result.lower_bound == 0
        assert not result.exact
        assert result.ordering is None
        assert result.best_backend == "shared-channel"
        # The hung worker was grace-killed, not awaited to completion.
        assert not multiprocessing.active_children()

    @pytest.mark.usefixtures("fault_backends")
    def test_caller_owned_channel_sees_live_bounds(self):
        shared = SharedBounds(multiprocessing.get_context())
        instance = get_instance("myciel3").build()
        result = run_portfolio(
            instance,
            backends=["stall"],
            jobs=1,
            budget_seconds=0.3,
            grace_seconds=0.5,
            shared_bounds=shared,
        )
        # The caller's channel carries the incumbents the race produced.
        assert shared.upper() == result.upper_bound
        assert result.upper_bound == instance.num_vertices

    @pytest.mark.usefixtures("fault_backends")
    def test_shared_channel_beats_finished_backend_on_lower(self):
        shared = SharedBounds(multiprocessing.get_context())
        shared.propose_lower(2)  # externally injected proof
        result = run_portfolio(
            get_instance("myciel3").build(),
            backends=["ordering-only"],  # finishes proving only 0
            jobs=1,
            budget_seconds=10.0,
            shared_bounds=shared,
        )
        assert result.reports["ordering-only"].lower_bound == 0
        assert result.lower_bound == 2

    def test_shared_bounds_incompatible_with_deterministic(self):
        shared = SharedBounds(multiprocessing.get_context())
        with pytest.raises(ValueError, match="deterministic"):
            run_portfolio(
                get_instance("myciel3").build(),
                deterministic=True,
                shared_bounds=shared,
            )


class TestWorkerCleanup:
    def test_interrupted_wait_loop_leaves_no_live_workers(self, monkeypatch):
        # Regression: an interrupt while waiting for reports used to
        # leak the live worker processes past the call.  Interrupt the
        # first report-queue read (after the wave has started) and
        # check every spawned worker is dead once run_portfolio raises.
        from repro.portfolio import runner as runner_module

        spawned = []
        real_get_context = multiprocessing.get_context

        class InterruptingQueue:
            def __init__(self, inner):
                self._inner = inner

            def get(self, *args, **kwargs):
                raise KeyboardInterrupt

            def __getattr__(self, name):
                return getattr(self._inner, name)

        class RecordingContext:
            def __init__(self, inner):
                self._inner = inner

            def Queue(self, *args, **kwargs):
                return InterruptingQueue(self._inner.Queue(*args, **kwargs))

            def Process(self, *args, **kwargs):
                process = self._inner.Process(*args, **kwargs)
                spawned.append(process)
                return process

            def __getattr__(self, name):
                return getattr(self._inner, name)

        monkeypatch.setattr(
            runner_module.multiprocessing,
            "get_context",
            lambda *a, **k: RecordingContext(real_get_context(*a, **k)),
        )
        with pytest.raises(KeyboardInterrupt):
            run_portfolio(
                get_instance("queen6_6").build(),
                backends=["bb-tw", "astar-tw"],
                jobs=2,
                budget_seconds=60.0,
            )
        assert spawned, "workers must have started before the interrupt"
        for process in spawned:
            process.join(timeout=10.0)
        assert not any(process.is_alive() for process in spawned)


class TestRaceStop:
    """A decided race ends at the losers' next poll: no signal, no
    witness from a loser, no worker alive after the call."""

    @pytest.mark.usefixtures("fault_backends")
    def test_decided_race_stops_a_polling_loser(self, tmp_path):
        path = tmp_path / "stop.jsonl"
        structure = get_instance("myciel3").build()
        started = time.monotonic()
        result = run_portfolio(
            structure, backends=["astar-tw", "poll-until-stopped"],
            jobs=2, budget_seconds=30.0, grace_seconds=30.0,
            trace=str(path),
        )
        assert time.monotonic() - started < 10.0  # long before the grace
        assert not multiprocessing.active_children()
        assert result.exact and result.width == MYCIEL3_TW
        assert result.best_backend == "astar-tw"
        assert certify(result.witness, structure, claimed_width=5).ok
        loser = result.reports["poll-until-stopped"]
        assert loser.stopped and loser.error is None
        assert (loser.upper_bound, loser.lower_bound, loser.witness) == (
            None, None, None
        )
        stopped = [
            r["fields"]["backend"] for r in read_jsonl(path)
            if r["name"] == "worker_stopped"
        ]
        assert stopped == ["poll-until-stopped"]

    @pytest.mark.usefixtures("fault_backends")
    def test_fhw_race_stops_a_polling_loser(self):
        # A*-fhw proves fano at its root; the loser, which only polls
        # the stop word, is stopped and ships no bounds.
        structure = get_instance("fano").build()
        shared = SharedBounds(multiprocessing.get_context())
        result = run_portfolio(
            structure, metric="fhw", jobs=2, budget_seconds=30.0,
            grace_seconds=30.0, shared_bounds=shared,
            backends=["astar-fhw", "poll-until-stopped"],
        )
        assert not multiprocessing.active_children()
        assert result.exact and result.width == Fraction(7, 3)
        assert result.best_backend == "astar-fhw"
        assert certify(
            result.witness, structure, claimed_width=Fraction(7, 3)
        ).ok
        loser = result.reports["poll-until-stopped"]
        assert loser.stopped and loser.error is None
        assert (loser.upper_bound, loser.lower_bound, loser.witness) == (
            None, None, None
        )
        assert shared.stopped()

    def test_fhw_race_leaves_its_proof_in_the_channel(self):
        shared = SharedBounds(multiprocessing.get_context())
        result = run_portfolio(
            get_instance("fano").build(), metric="fhw", jobs=2,
            budget_seconds=30.0, shared_bounds=shared,
        )
        assert result.exact and result.width == Fraction(7, 3)
        assert shared.lower() == Fraction(7, 3)

    def test_astar_fhw_publishes_a_root_proof(self):
        published = []
        hooks = BoundHooks(
            publish_upper=lambda v: published.append(("ub", v)),
            publish_lower=lambda v: published.append(("lb", v)),
        )
        result = astar_fhw(
            get_instance("fano").build(), budget=SearchBudget(hooks=hooks)
        )
        assert result.exact and result.width == Fraction(7, 3)
        assert published == [("lb", Fraction(7, 3)), ("ub", Fraction(7, 3))]

    @pytest.mark.usefixtures("fault_backends")
    def test_worker_dead_in_the_channel_lock_does_not_wedge(self):
        # The lock-stall worker takes the channel's upper-bound lock and
        # is killed at the grace period still holding it.  The race must
        # still return A*-tw's certified answer instead of blocking on
        # the lock forever.
        structure = get_instance("myciel3").build()
        started = time.monotonic()
        result = run_portfolio(
            structure, backends=["astar-tw", "lock-stall"], jobs=2,
            budget_seconds=1.0, grace_seconds=1.0,
        )
        assert time.monotonic() - started < 20.0
        assert not multiprocessing.active_children()
        assert result.exact and result.width == MYCIEL3_TW
        assert result.best_backend == "astar-tw"
        assert certify(result.witness, structure, claimed_width=5).ok
        assert "grace period" in result.reports["lock-stall"].error


_IMPORT_GUARD = textwrap.dedent("""
    import sys

    import repro.service.server  # noqa: F401  (the server's import set)
    from repro.instances import get_instance
    from repro.portfolio.backends import (
        BACKENDS, DEFAULT_BACKENDS, BackendConfig,
    )
    from repro.portfolio.shared import EventRecorder, make_worker_hooks

    INSTANCES = {
        "tw": ["myciel3", "grid3"],
        "ghw": ["fano", "clique_5", "grid2d_4"],
        "fhw": ["fano", "clique_5", "grid2d_4"],
        "hw": ["fano", "clique_5", "clique_6", "grid2d_4"],
    }
    structures = {
        metric: [get_instance(name).build() for name in names]
        for metric, names in INSTANCES.items()
    }
    before = set(sys.modules)
    config = BackendConfig(max_seconds=10.0)
    for metric, names in DEFAULT_BACKENDS.items():
        for name in names:
            for structure in structures[metric]:
                hooks = make_worker_hooks(None, EventRecorder(name, 0.0))
                report = BACKENDS[name].run(structure, config, hooks)
                assert report.witness is not None, name
    print(sorted(m for m in set(sys.modules) - before
                 if m.startswith("repro")))
""")


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this tree's ``src``; its
    stdout, stripped."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_default_backends_import_nothing_in_the_worker():
    # Workers are forked from a process that imported the server; a
    # backend that imports a solver module lazily pays that import in
    # every worker of every race.
    assert _run_python(_IMPORT_GUARD) == "[]"


def test_server_does_not_import_the_sat_solver():
    # No default backend runs the CDCL solver, so the server (and every
    # worker it forks) must not pay its import.
    loaded = _run_python(textwrap.dedent("""
        import sys

        import repro.service.server  # noqa: F401
        print(sorted(m for m in sys.modules if m.startswith("repro.sat")))
    """))
    assert loaded == "[]"
