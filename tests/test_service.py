"""Service-grade tests for the decomposition server: wire protocol,
fault injection (crashing/hanging solvers, malformed and oversized
bodies, doctored certificates), cache semantics (LRU order, collision
safety, verify-on-insert) and a concurrency soak with request
coalescing and clean shutdown."""

import asyncio
import dataclasses
import json
import multiprocessing
import random
import threading
import time

import pytest

from repro.bounds import min_fill_ordering
from repro.decomposition import (
    bucket_elimination,
    elimination_bags,
    ordering_width,
)
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    fano_plane_hypergraph,
    path_graph,
    random_gnm_graph,
)
from repro.instances import get_instance
from repro.portfolio.backends import _certificate
from repro.portfolio.runner import run_portfolio
from repro.service import (
    CertificateRejected,
    DecompositionCache,
    DecompositionService,
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    SolveOutcome,
    canonical_form,
    replay_responses,
)
from repro.telemetry import JsonlTracer, read_jsonl
from repro.telemetry.schema import validate_records
from repro.verify.certificate import certify
from tests.conftest import make_covered_hypergraph
from tests.test_canonical import relabeled_copy


def witness_of(structure, metric, ordering):
    """The decomposition a portfolio backend ships for ``ordering``, and
    its width."""
    witness = _certificate(metric, structure, ordering)
    return witness, certify(witness, structure).measured_width


def honest_outcome(structure, metric) -> SolveOutcome:
    """A fast, certifiable answer: min-fill ordering, the decomposition
    it builds, honest width."""
    ordering = list(min_fill_ordering(structure))
    witness, upper = witness_of(structure, metric, ordering)
    return SolveOutcome(
        upper=upper, lower=0, ordering=ordering, backend="quick",
        witness=witness,
    )


class CountingSolver:
    """Pluggable solver: honest answers, thread-safe launch counting,
    optional per-call delay / gate / mutation."""

    def __init__(self, delay=0.0, gate=None, mutate=None):
        self.calls = 0
        self.keys = []
        self._lock = threading.Lock()
        self.delay = delay
        self.gate = gate          # threading.Event to wait on, if set
        self.mutate = mutate      # fn(SolveOutcome) -> SolveOutcome

    def __call__(self, structure, metric, budget, shared, config):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0)
        if self.delay:
            time.sleep(self.delay)
        outcome = honest_outcome(structure, metric)
        if shared is not None and outcome.upper is not None:
            shared.propose_upper(outcome.upper)
            shared.propose_lower(outcome.lower)
        if self.mutate is not None:
            outcome = self.mutate(outcome)
        return outcome


def make_service(solver=None, tracer=None, **kwargs) -> DecompositionService:
    config = ServiceConfig(port=0, default_budget=5.0, **kwargs)
    return DecompositionService(
        config, solver=solver or CountingSolver(), tracer=tracer
    )


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Wire protocol over a real socket
# ----------------------------------------------------------------------


class TestWireProtocol:
    def test_solve_relabel_hit_stats_shutdown(self):
        async def main():
            solver = CountingSolver()
            service = make_service(solver)
            await service.start()
            server_task = asyncio.ensure_future(service.serve_forever())
            client = await ServiceClient.connect(port=service.port)

            fano = fano_plane_hypergraph()
            first = await client.solve(fano, "ghw", request_id="a")
            assert first["status"] in ("ok", "bracket")
            assert first["cache"] == "miss"
            assert first["certified"] is True
            assert first["id"] == "a"

            copy = relabeled_copy(fano, random.Random(3))
            second = await client.solve(copy, "ghw")
            assert second["cache"] == "hit"
            assert second["width"] == first["width"]
            # The served certificate is in the *copy's* labels.
            assert sorted(map(repr, second["ordering"])) == sorted(
                map(repr, copy.vertex_list())
            )
            assert solver.calls == 1

            assert (await client.ping())["status"] == "ok"
            stats = await client.stats()
            assert stats["cache"]["hits"] == 1
            assert stats["solves"] == 1

            assert (await client.shutdown())["status"] == "ok"
            await client.close()
            await asyncio.wait_for(server_task, timeout=10)

        run(main())

    def test_batch_endpoint_coalesces_duplicates(self):
        async def main():
            solver = CountingSolver(delay=0.05)
            service = make_service(solver)
            await service.start()
            g = Hypergraph.from_graph(random_gnm_graph(8, 13, seed=4))
            body = {
                "metric": "tw",
                "edges": {
                    str(k): sorted(v) for k, v in g.edges.items()
                },
            }
            client = await ServiceClient.connect(port=service.port)
            result = await client.batch(
                [dict(body, id=i) for i in range(4)], request_id="B"
            )
            assert result["status"] == "ok" and result["id"] == "B"
            responses = result["responses"]
            assert [r["id"] for r in responses] == [0, 1, 2, 3]
            assert len({r["width"] for r in responses}) == 1
            assert solver.calls == 1
            dispositions = sorted(r["cache"] for r in responses)
            assert dispositions == ["coalesced"] * 3 + ["miss"]
            await client.close()
            await service.close()

        run(main())

    def test_malformed_then_recovers(self):
        async def main():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b"this is not json\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["status"] == "error"
            assert response["code"] == "bad-request"
            assert "Traceback" not in json.dumps(response)
            # Same connection keeps working.
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            assert json.loads(await reader.readline())["status"] == "ok"
            writer.close()
            await service.close()

        run(main())

    def test_oversized_body_is_rejected(self):
        async def main():
            service = make_service(max_request_bytes=4096)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b'{"edges": [' + b"x" * 20_000 + b"]}\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["status"] == "error"
            assert response["code"] == "too-large"
            writer.close()
            await service.close()

        run(main())

    def test_request_validation_errors(self):
        async def main():
            service = make_service(max_batch=2)
            cases = [
                ({"op": "solve", "metric": "thw", "edges": [[1, 2]]},
                 "unsupported-metric"),
                ({"op": "solve", "metric": "tw"}, "bad-request"),
                ({"op": "solve", "metric": "tw", "edges": "nope"},
                 "bad-request"),
                ({"op": "solve", "metric": "tw", "edges": [[1, 2]],
                  "budget": -3}, "bad-request"),
                ({"op": "solve", "metric": "ghw", "edges": [["a", "b"]],
                  "vertices": ["lonely"]}, "bad-request"),
                ({"op": "batch", "requests": "nope"}, "bad-request"),
                ({"op": "batch",
                  "requests": [{}, {}, {}]}, "too-large"),
            ]
            for request, code in cases:
                response = await service.handle_request(request)
                assert response["status"] == "error", request
                assert response["code"] == code, (request, response)
            # tw tolerates isolated vertices (bags of one vertex).
            ok = await service.handle_request({
                "op": "solve", "metric": "tw", "edges": [["a", "b"]],
                "vertices": ["lonely"],
            })
            assert ok["status"] in ("ok", "bracket")
            await service.close()

        run(main())

    def test_client_relabels_tuple_vertices(self):
        # queen5_5's vertices are (row, column) tuples, which the wire
        # cannot carry; the client sends string labels and maps the
        # served ordering back.
        async def main():
            graph = get_instance("queen5_5").build()
            service = DecompositionService(
                ServiceConfig(port=0, default_budget=60.0)
            )
            await service.start()
            client = await ServiceClient.connect(port=service.port)
            response = await client.solve(graph, "tw")
            assert response["status"] == "ok", response
            assert response["width"] == 18
            assert sorted(response["ordering"]) == sorted(graph.vertex_list())
            assert ordering_width(graph, response["ordering"]) == 18
            # The server stays as strict as before on raw tuple bodies.
            raw = await client.request(
                {"op": "solve", "metric": "tw", "edges": [[[0, 1], [1, 0]]]}
            )
            assert raw["status"] == "error" and raw["code"] == "bad-request"
            await client.close()
            await service.close()

        run(main())


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


class TestFaultInjection:
    def test_crashing_solver_yields_error_and_service_survives(self):
        crashes = {"n": 0}

        def crashing(structure, metric, budget, shared, config):
            crashes["n"] += 1
            raise RuntimeError("injected mid-solve crash")

        async def main():
            service = make_service(crashing)
            response = await service.handle_request({
                "op": "solve", "metric": "tw", "edges": [[1, 2], [2, 3]],
            })
            assert response["status"] == "error"
            assert response["code"] == "solver-error"
            assert "injected mid-solve crash" in response["error"]
            assert "Traceback" not in json.dumps(response)
            # Nothing poisoned: the service answers the next request.
            service.solver = CountingSolver()
            retry = await service.handle_request({
                "op": "solve", "metric": "tw", "edges": [[1, 2], [2, 3]],
            })
            assert retry["status"] in ("ok", "bracket")
            assert retry["cache"] == "miss"  # the failure was not cached
            await service.close()

        run(main())
        assert crashes["n"] == 1

    @pytest.mark.usefixtures("fault_backends")
    def test_portfolio_crash_backend_reports_not_traceback(self):
        def crashing_portfolio(structure, metric, budget, shared, config):
            result = run_portfolio(
                structure, backends=["crash"], jobs=1,
                budget_seconds=budget, metric=metric,
            )
            raise AssertionError(f"unreachable: {result}")

        async def main():
            service = make_service(crashing_portfolio)
            response = await service.handle_request({
                "op": "solve", "metric": "tw",
                "edges": [[1, 2], [2, 3]], "budget": 5,
            })
            assert response["status"] == "error"
            assert response["code"] == "solver-error"
            assert "every backend failed" in response["error"]
            await service.close()

        run(main())

    def test_hanging_solver_degrades_to_channel_bracket(self):
        def hanging(structure, metric, budget, shared, config):
            shared.propose_upper(9)
            shared.propose_lower(2)
            time.sleep(4.0)  # far past budget + slack
            return honest_outcome(structure, metric)

        async def main():
            service = make_service(hanging, deadline_slack=0.1)
            started = time.monotonic()
            response = await service.handle_request({
                "op": "solve", "metric": "tw",
                "edges": [[1, 2], [2, 3], [3, 4]], "budget": 0.2,
            })
            elapsed = time.monotonic() - started
            assert response["status"] == "bracket"
            assert response["upper_bound"] == 9
            assert response["lower_bound"] == 2
            assert response["certified"] is False
            assert response["note"] == "deadline expired"
            assert elapsed < 3.0  # answered at the deadline, not at 4s
            assert service.timeouts == 1
            # The timed-out key was not cached and not left in flight.
            assert len(service.cache) == 0
            assert len(service._inflight) == 0
            await service.close()

        run(main())

    def test_hang_with_empty_channel_still_answers(self):
        def silent_hang(structure, metric, budget, shared, config):
            time.sleep(4.0)
            return honest_outcome(structure, metric)

        async def main():
            service = make_service(silent_hang, deadline_slack=0.1)
            response = await service.handle_request({
                "op": "solve", "metric": "tw",
                "edges": [[1, 2]], "budget": 0.2,
            })
            assert response["status"] == "bracket"
            assert response["upper_bound"] is None
            assert response["lower_bound"] == 0
            await service.close()

        run(main())

    def test_doctored_certificate_is_rejected_on_insert(self):
        def overclaiming(outcome):
            return dataclasses.replace(outcome, upper=outcome.upper - 1)

        async def main():
            solver = CountingSolver(mutate=overclaiming)
            service = make_service(solver)
            request = {
                "op": "solve", "metric": "tw",
                "edges": [[i, i + 1] for i in range(6)] + [[0, 3], [1, 4]],
            }
            response = await service.handle_request(request)
            assert response["status"] == "error"
            assert response["code"] == "certificate-rejected"
            assert service.cache.stats()["rejected"] == 1
            assert len(service.cache) == 0  # the poison never landed
            # A resubmission is a fresh solve, not a poisoned hit.
            response2 = await service.handle_request(request)
            assert response2["status"] == "error"
            assert solver.calls == 2
            await service.close()

        run(main())

    def test_doctored_ordering_is_rejected_on_insert(self):
        def scrambled(outcome):
            return dataclasses.replace(
                outcome, ordering=outcome.ordering[:-1]
            )

        async def main():
            service = make_service(CountingSolver(mutate=scrambled))
            response = await service.handle_request({
                "op": "solve", "metric": "ghw",
                "edges": [[1, 2, 3], [3, 4], [4, 5, 1]],
            })
            assert response["status"] == "error"
            assert response["code"] == "certificate-rejected"
            await service.close()

        run(main())

    def test_cache_poisoning_rejected_directly(self):
        cache = DecompositionCache(capacity=8)
        g = random_gnm_graph(8, 14, seed=9)
        form = canonical_form(g)
        ordering = list(min_fill_ordering(g))
        witness, true_width = witness_of(g, "tw", ordering)
        with pytest.raises(CertificateRejected):
            cache.insert(
                "tw", form, g, upper=true_width - 1, lower=0,
                ordering=ordering, backend="doctored", witness=witness,
            )
        with pytest.raises(CertificateRejected):
            cache.insert(
                "tw", form, g, upper=true_width, lower=0,
                ordering=ordering[1:],  # missing vertex
                backend="doctored", witness=witness,
            )
        assert cache.stats()["rejected"] == 2
        assert len(cache) == 0
        # The honest insert still goes through afterwards.
        entry = cache.insert(
            "tw", form, g, upper=true_width, lower=0,
            ordering=ordering, backend="honest", witness=witness,
        )
        assert entry.upper == true_width
        assert cache.lookup("tw", form) is entry


# ----------------------------------------------------------------------
# The verify-on-insert gate: each doctored answer is checked, not re-solved
# ----------------------------------------------------------------------


def drop_lambda_edge(outcome):
    """The ``drop-lambda-edge`` fuzz fault: one hyperedge leaves the
    largest λ-label (an exact cover minus an edge misses a bag vertex)."""
    witness = outcome.witness.copy()
    node = max(sorted(witness.nodes, key=repr),
               key=lambda n: len(witness.cover(n)))
    witness.set_cover(node, sorted(witness.cover(node), key=repr)[1:])
    return dataclasses.replace(outcome, witness=witness)


def shave_weight(outcome):
    """The ``fhw-weight-shave`` fuzz fault: one positive γ weight of an
    LP-optimal bag drops to 0 (the width shrinks; coverage breaks)."""
    witness = outcome.witness.copy()
    node = sorted(witness.nodes, key=repr)[0]
    gamma = witness.weight_function(node)
    gamma[min((e for e, w in gamma.items() if w > 0), key=repr)] = 0
    witness.set_weights(node, gamma)
    return dataclasses.replace(outcome, witness=witness)


def swap_ends(outcome):
    """A permutation, not a truncation: the first and last vertices
    trade places, so the served ordering's elimination bags are no longer
    the (still valid) witness's bags on a clique-like primal graph."""
    ordering = list(outcome.ordering)
    ordering[0], ordering[-1] = ordering[-1], ordering[0]
    return dataclasses.replace(outcome, ordering=ordering)


def overclaim(outcome):
    return dataclasses.replace(outcome, upper=outcome.upper - 1)


def no_witness(outcome):
    return dataclasses.replace(outcome, witness=None)


GATE_CASES = [
    ("ghw", drop_lambda_edge),
    ("fhw", shave_weight),
    ("ghw", swap_ends),
    ("fhw", overclaim),
]
# What the gate must say about each case: the right check caught it.
GATE_REASONS = {
    drop_lambda_edge: "not covered by λ",
    shave_weight: "coverage below 1",
    swap_ends: "elimination bags are not the witness's bags",
    overclaim: "claimed γ-width",
    no_witness: "witness, not NoneType",
}


class TestInsertGate:
    @pytest.mark.parametrize(
        "metric,doctor", GATE_CASES + [("fhw", no_witness)],
        ids=lambda case: getattr(case, "__name__", case),
    )
    def test_cache_rejects_and_stays_unchanged(self, metric, doctor):
        cache = DecompositionCache(capacity=8)
        kept = _insert_path(cache, 5)
        before = (cache.keys(), cache.stats())
        fano = fano_plane_hypergraph()
        form = canonical_form(fano)
        honest = honest_outcome(fano, metric)
        doctored = doctor(honest)
        if doctor is swap_ends:
            # Guard the case itself: the swap must change the bags
            # while the witness stays valid.
            assert elimination_bags(fano, doctored.ordering) != (
                honest.witness.bags
            )
        with pytest.raises(CertificateRejected, match=GATE_REASONS[doctor]):
            cache.insert(
                metric, form, fano, upper=doctored.upper, lower=0,
                ordering=doctored.ordering, backend="doctored",
                witness=doctored.witness,
            )
        assert cache.keys() == before[0]
        assert cache.stats() == dict(before[1], rejected=1)
        assert cache.lookup(metric, form) is None
        assert cache.lookup("tw", kept) is not None
        # The honest answer it was doctored from goes through.
        entry = cache.insert(
            metric, form, fano, upper=honest.upper, lower=0,
            ordering=honest.ordering, backend="honest",
            witness=honest.witness,
        )
        assert entry.upper == honest.upper

    def test_witness_of_another_metric_is_rejected(self):
        # fano has tw 6 but ghw 3: certify would measure a GHD's λ-width
        # and pass a tw claim of 3 if the gate accepted any class.
        cache = DecompositionCache(capacity=4)
        fano = fano_plane_hypergraph()
        ordering = list(min_fill_ordering(fano))
        ghd, ghw = witness_of(fano, "ghw", ordering)
        with pytest.raises(CertificateRejected, match="needs a TreeDecomp"):
            cache.insert(
                "tw", canonical_form(fano), fano, upper=ghw, lower=0,
                ordering=ordering, backend="doctored", witness=ghd,
            )
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "metric,doctor", GATE_CASES,
        ids=lambda case: getattr(case, "__name__", case),
    )
    def test_server_answers_certificate_rejected(self, metric, doctor):
        async def main():
            service = make_service(CountingSolver(mutate=doctor))
            edges = [
                sorted(members)
                for members in fano_plane_hypergraph().edges.values()
            ]
            response = await service.handle_request({
                "op": "solve", "metric": metric, "edges": edges,
            })
            assert response["status"] == "error"
            assert response["code"] == "certificate-rejected"
            assert GATE_REASONS[doctor] in response["error"]
            assert service.cache.stats()["rejected"] == 1
            assert len(service.cache) == 0
            await service.close()

        run(main())

    def test_missing_witness_is_an_uncached_bracket(self):
        async def main():
            service = make_service(CountingSolver(mutate=no_witness))
            request = {
                "op": "solve", "metric": "tw",
                "edges": [[1, 2], [2, 3], [3, 1], [3, 4]],
            }
            response = await service.handle_request(request)
            assert response["status"] == "bracket"
            assert response["certified"] is False
            assert response["ordering"] is None
            assert response["upper_bound"] == 2
            assert len(service.cache) == 0
            assert service.cache.stats()["rejected"] == 0
            await service.close()

        run(main())


# ----------------------------------------------------------------------
# Cache semantics
# ----------------------------------------------------------------------


def _insert_path(cache: DecompositionCache, n: int):
    g = path_graph(n)
    form = canonical_form(g)
    ordering = list(min_fill_ordering(g))
    witness, width = witness_of(g, "tw", ordering)
    cache.insert(
        "tw", form, g, upper=width, lower=1,
        ordering=ordering, backend="test", witness=witness,
    )
    return form


class TestCacheSemantics:
    def test_lru_eviction_order(self):
        cache = DecompositionCache(capacity=3)
        form_a = _insert_path(cache, 3)
        form_b = _insert_path(cache, 4)
        form_c = _insert_path(cache, 5)
        assert cache.lookup("tw", form_a) is not None  # refresh A
        form_d = _insert_path(cache, 6)  # evicts B (LRU), not A
        assert cache.stats()["evictions"] == 1
        assert cache.lookup("tw", form_b) is None
        for form in (form_a, form_c, form_d):
            assert cache.lookup("tw", form) is not None

    def test_keys_are_metric_scoped(self):
        cache = DecompositionCache(capacity=8)
        h = make_covered_hypergraph(6, 8, seed=1)
        form = canonical_form(h)
        ordering = list(min_fill_ordering(h))
        witness, width = witness_of(h, "ghw", ordering)
        cache.insert(
            "ghw", form, h, upper=width, lower=0, ordering=ordering,
            backend="test", witness=witness,
        )
        assert cache.lookup("tw", form) is None
        assert cache.lookup("ghw", form) is not None

    def test_hash_collision_never_cross_serves(self):
        cache = DecompositionCache(capacity=8)
        form = _insert_path(cache, 5)
        impostor = dataclasses.replace(
            form, edges=form.edges[:-1]  # same key, different structure
        )
        assert cache.lookup("tw", impostor) is None
        assert cache.stats()["collisions"] == 1

    def test_lower_bound_clamped_to_verified_upper(self):
        cache = DecompositionCache(capacity=4)
        g = path_graph(5)
        form = canonical_form(g)
        ordering = list(min_fill_ordering(g))
        entry = cache.insert(
            "tw", form, g, upper=1, lower=7, ordering=ordering,
            backend="test", witness=bucket_elimination(g, ordering),
        )
        assert entry.lower == entry.upper == 1
        assert entry.exact


# ----------------------------------------------------------------------
# Concurrency: coalescing, admission control, soak, clean shutdown
# ----------------------------------------------------------------------


class TestConcurrency:
    def test_inflight_identical_keys_coalesce_to_one_launch(self):
        gate = threading.Event()
        solver = CountingSolver(gate=gate)

        async def main():
            service = make_service(solver)
            request = {
                "op": "solve", "metric": "tw",
                "edges": [[1, 2], [2, 3], [3, 1]],
            }
            tasks = [
                asyncio.ensure_future(service.handle_request(dict(request)))
                for _ in range(8)
            ]
            while not service._inflight:
                await asyncio.sleep(0.01)
            gate.set()
            responses = await asyncio.gather(*tasks)
            assert all(
                r["status"] in ("ok", "bracket") for r in responses
            )
            assert len({r["width"] for r in responses}) == 1
            assert solver.calls == 1
            assert service.coalesced == 7
            assert not service._inflight
            await service.close()

        run(main())

    def test_admission_queue_overflow_rejects_cleanly(self):
        gate = threading.Event()
        solver = CountingSolver(gate=gate)

        async def main():
            service = make_service(
                solver, max_concurrent_solves=1, max_queued_solves=1,
            )
            distinct = [
                {"op": "solve", "metric": "tw",
                 "edges": [[i, i + 1] for i in range(n)]}
                for n in (2, 3, 4)
            ]
            first = asyncio.ensure_future(
                service.handle_request(distinct[0])
            )
            while not service._inflight:
                await asyncio.sleep(0.01)
            second = asyncio.ensure_future(
                service.handle_request(distinct[1])
            )
            while service._waiting < 1:
                await asyncio.sleep(0.01)
            third = await service.handle_request(distinct[2])
            assert third["status"] == "error"
            assert third["code"] == "overloaded"
            gate.set()
            ok = await asyncio.gather(first, second)
            assert all(r["status"] in ("ok", "bracket") for r in ok)
            await service.close()

        run(main())

    def test_soak_mixed_workload_over_sockets(self):
        rng = random.Random(0)
        bases = []
        for seed in range(3):
            bases.append(
                ("tw", Hypergraph.from_graph(
                    random_gnm_graph(8, 13, seed=seed)
                ))
            )
            bases.append(
                ("ghw", make_covered_hypergraph(6, 8, seed=seed))
            )

        # Mixed stream: originals, exact duplicates, isomorphic relabels.
        workload = []
        for metric, h in bases:
            workload.append((metric, h))
            workload.append((metric, h.copy()))
            workload.append((metric, relabeled_copy(h, rng)))
            workload.append((metric, relabeled_copy(h, rng, labels="int")))
        rng.shuffle(workload)

        solver = CountingSolver(delay=0.02)

        async def client_worker(port, jobs, results):
            client = await ServiceClient.connect(port=port)
            for index, metric, structure in jobs:
                results.append(await client.solve(
                    structure, metric, request_id=index
                ))
            await client.close()

        async def main():
            service = make_service(solver, max_concurrent_solves=3)
            await service.start()
            port = service.port
            results: list = []
            indexed = [
                (i, metric, h) for i, (metric, h) in enumerate(workload)
            ]
            shards = [indexed[i::4] for i in range(4)]
            await asyncio.gather(*(
                client_worker(port, shard, results) for shard in shards
            ))
            await service.close()
            return results, service

        results, service = run(main())
        assert len(results) == len(workload)
        assert all(r["status"] in ("ok", "bracket") for r in results)
        distinct = {
            (metric, canonical_form(h).key) for metric, h in workload
        }
        # The load-bearing soak assertion: one portfolio launch per
        # distinct canonical key, everything else served by the cache
        # or coalesced onto an in-flight solve.
        assert solver.calls == len(distinct) == len(bases)
        stats = service.cache.stats()
        assert stats["hits"] + service.coalesced == (
            len(workload) - solver.calls
        )
        assert stats["rejected"] == 0
        # Isomorphic groups agree on the width (join on request id —
        # concurrent clients complete in arbitrary order).
        by_id = {response["id"]: response for response in results}
        by_key: dict = {}
        for index, (metric, h) in enumerate(workload):
            key = (metric, canonical_form(h).key)
            by_key.setdefault(key, set()).add(by_id[index]["width"])
        assert all(len(widths) == 1 for widths in by_key.values())

    def test_portfolio_solver_end_to_end_no_leaked_workers(self):
        async def main():
            service = make_service(
                solver=None,  # the real portfolio solver
                portfolio_jobs=2,
            )
            await service.start()
            client = await ServiceClient.connect(port=service.port)
            fano = fano_plane_hypergraph()
            first = await client.solve(fano, "ghw", budget=30.0)
            # Whether the lower bound closes in time is a timing matter;
            # the certified width is not.
            assert first["status"] in ("ok", "bracket")
            assert first["width"] == 3
            assert first["certified"] is True
            hit = await client.solve(
                relabeled_copy(fano, random.Random(1)),
                "ghw", budget=30.0,
            )
            assert hit["cache"] == "hit" and hit["width"] == 3
            await client.close()
            await service.close()

        run(main())
        # Clean shutdown: no portfolio worker processes survive.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, (
                multiprocessing.active_children()
            )
            time.sleep(0.1)


# ----------------------------------------------------------------------
# Protocol units and entry points
# ----------------------------------------------------------------------


class TestProtocol:
    def test_width_round_trip(self):
        from fractions import Fraction

        from repro.service.protocol import width_from_json, width_to_json

        assert width_to_json(None) is None
        assert width_to_json(3) == 3
        assert width_to_json(Fraction(7, 3)) == "7/3"
        assert width_from_json(None) is None
        assert width_from_json(3) == 3
        assert width_from_json("7/3") == Fraction(7, 3)
        for bad in (True, 2.5, "seven", [3]):
            with pytest.raises(ProtocolError):
                width_from_json(bad)

    def test_decode_structure_limits(self):
        from repro.service.protocol import decode_structure

        with pytest.raises(ProtocolError, match="hyperedges"):
            decode_structure(
                {"edges": [[1, 2]] * 5}, max_edges=3
            )
        with pytest.raises(ProtocolError, match="vertices"):
            decode_structure(
                {"edges": [[i, i + 1] for i in range(9)]}, max_vertices=4
            )
        with pytest.raises(ProtocolError, match="ints or strings"):
            decode_structure({"edges": [[1.5, 2]]})
        with pytest.raises(ProtocolError, match="non-empty list"):
            decode_structure({"edges": [[]]})
        with pytest.raises(ProtocolError, match="empty instance"):
            decode_structure({"edges": []})

    def test_parse_request_shapes(self):
        from repro.service.protocol import parse_request

        with pytest.raises(ProtocolError, match="exceeds"):
            parse_request(b"x" * 100, max_bytes=50)
        with pytest.raises(ProtocolError, match="not JSON"):
            parse_request(b"{nope", max_bytes=1000)
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request(b"[1, 2]", max_bytes=1000)
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request(b'{"op": "explode"}', max_bytes=1000)
        assert parse_request(b'{"op": "ping"}', max_bytes=1000) == {
            "op": "ping"
        }

    def test_fhw_width_travels_as_fraction_string(self):
        from fractions import Fraction

        async def main():
            service = make_service()
            response = await service.handle_request({
                "op": "solve", "metric": "fhw",
                "edges": {
                    str(k): sorted(v)
                    for k, v in fano_plane_hypergraph().edges.items()
                },
            })
            assert response["status"] in ("ok", "bracket")
            assert response["certified"] is True
            # JSON carries the exact rational, never a float.
            assert isinstance(response["width"], str)
            assert Fraction(response["width"]) == Fraction(7, 3)
            await service.close()

        run(main())


class TestEntryPoints:
    def test_run_service_and_solve_sync(self):
        from repro.service import run_service, solve_sync
        from repro.service.server import ServiceConfig

        box: dict = {}
        listening = threading.Event()

        def serve():
            asyncio.run(run_service(
                ServiceConfig(port=0, default_budget=5.0),
                solver=CountingSolver(),
                ready=lambda service: (
                    box.update(port=service.port), listening.set()
                ),
            ))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert listening.wait(timeout=30)
        response = solve_sync(
            path_graph(5), "tw", port=box["port"], budget=5.0
        )
        assert response["status"] in ("ok", "bracket")
        assert response["width"] == 1

        async def down():
            async with await ServiceClient.connect(
                port=box["port"]
            ) as client:
                assert (await client.shutdown())["status"] == "ok"

        asyncio.run(down())
        thread.join(timeout=30)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# Telemetry replay
# ----------------------------------------------------------------------


class TestReplay:
    def test_timeline_replays_the_response_stream(self, tmp_path):
        trace = tmp_path / "service.jsonl"

        async def main():
            tracer = JsonlTracer(str(trace), worker="service")
            service = make_service(CountingSolver(), tracer=tracer)
            responses = []
            fano = fano_plane_hypergraph()
            for structure in (
                fano, relabeled_copy(fano, random.Random(2))
            ):
                responses.append(await service.handle_request({
                    "op": "solve", "metric": "ghw",
                    "edges": {
                        str(k): sorted(v)
                        for k, v in structure.edges.items()
                    },
                    "id": len(responses),
                }))
            await service.close()
            tracer.close()
            return responses

        responses = run(main())
        records = read_jsonl(str(trace))
        validate_records(records)
        replayed = replay_responses(records)
        assert len(replayed) == 2
        for response, event in zip(responses, replayed):
            assert event["status"] == response["status"]
            assert event["cache"] == response["cache"]
            assert event["width"] == response["width"]
            assert event["id"] == response["id"]
            assert event["key"] == response["key"]
        assert replayed[0]["cache"] == "miss"
        assert replayed[1]["cache"] == "hit"
        assert replayed[0]["key"] == replayed[1]["key"]
