"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import time

import pytest

from repro.hypergraph import Graph, Hypergraph
from repro.hypergraph.generators import (
    adder_hypergraph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_gnm_graph,
    random_hypergraph,
)


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def triangle():
    return Graph.from_edges([(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def small_graph():
    """The thesis' Fig. 5.2 running example (6 vertices)."""
    return Graph.from_edges(
        [(1, 2), (1, 3), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6), (3, 6)]
    )


@pytest.fixture
def grid4():
    return grid_graph(4)


@pytest.fixture
def path6():
    return path_graph(6)


@pytest.fixture
def cycle5():
    return cycle_graph(5)


@pytest.fixture
def example_hypergraph():
    """The thesis' example 5 constraint hypergraph (Figs. 2.6–2.9)."""
    return Hypergraph(
        edges={
            "C1": {"x1", "x2", "x3"},
            "C2": {"x1", "x5", "x6"},
            "C3": {"x3", "x4", "x5"},
        }
    )


@pytest.fixture
def adder5():
    return adder_hypergraph(5)


def make_covered_hypergraph(num_vertices: int, num_edges: int, seed: int) -> Hypergraph:
    """A random hypergraph with no isolated vertices (for ghw tests)."""
    h = random_hypergraph(
        num_vertices, num_edges, seed=seed, min_arity=1,
        max_arity=min(3, num_vertices),
    )
    for v in sorted(h.isolated_vertices()):
        h.add_edge({v, (v + 1) % num_vertices} if num_vertices > 1 else {v},
                   name=f"iso{v}")
    return h


def random_graphs(count: int, max_n: int = 9, seed: int = 0):
    """A deterministic batch of random graphs for oracle comparisons."""
    rng = random.Random(seed)
    out = []
    for trial in range(count):
        n = rng.randint(2, max_n)
        m = rng.randint(0, n * (n - 1) // 2)
        out.append(random_gnm_graph(n, m, seed=seed * 1000 + trial))
    return out


# ----------------------------------------------------------------------
# Fault-injection portfolio backends
# ----------------------------------------------------------------------

class _AnyMetric(str):
    """A backend kind equal to every metric: one fault backend serves
    tw, ghw, fhw and hw races alike."""

    def __eq__(self, other):
        return isinstance(other, str)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = str.__hash__


def _crash_backend(structure, config, hooks):
    """Raise at once: the runner's worker-failure path."""
    raise RuntimeError("injected portfolio worker failure (test backend)")


def _stall_backend(structure, config, hooks):
    """Publish a sound trivial bracket to the shared channel, then hang
    until the runner's grace period kills the worker: the deadline-expiry
    path, where the bracket must survive in the channel although no
    report ever comes home.

    ``num_vertices`` is a sound upper bound for every metric: tw <= n-1,
    and ghw/fhw bags of size <= n are covered by <= n hyperedges.
    """
    if hooks.publish_upper is not None:
        hooks.publish_upper(max(structure.num_vertices, 0))
    if hooks.publish_lower is not None:
        hooks.publish_lower(0)
    while True:  # pragma: no cover — terminated by the runner
        time.sleep(0.05)


def _lock_stall_backend(structure, config, hooks):
    """Take the shared channel's upper-bound lock, then hang holding it
    until the grace period kills the worker: a worker that dies inside
    the channel lock, which leaves the lock held for good."""
    channel = hooks.poll_upper.__self__  # the worker's SharedBounds
    channel._ub.get_lock().acquire()
    while True:  # pragma: no cover — terminated by the runner
        time.sleep(0.05)


def _ordering_only_backend(structure, config, hooks):
    """Finish at once with a witnessed but loose tw bracket: the width
    of the graph's own vertex order, and no lower bound beyond 0 (a
    finished backend that decides nothing)."""
    from repro.decomposition import bucket_elimination
    from repro.portfolio.backends import BackendReport

    ordering = structure.vertex_list()
    witness = bucket_elimination(structure, ordering)
    if hooks.publish_upper is not None:
        hooks.publish_upper(witness.width)
    return BackendReport(
        backend="ordering-only", upper_bound=witness.width, lower_bound=0,
        ordering=ordering, witness=witness,
    )


def _poll_until_stopped_backend(structure, config, hooks):
    """Do no work: only poll the race's stop word until the runner
    writes it (a loser that honours the stop and nothing else)."""
    while True:
        hooks.check_stop()
        time.sleep(0.001)


@pytest.fixture
def fault_backends(monkeypatch):
    """Register the ``crash``, ``stall``, ``lock-stall`` and
    ``poll-until-stopped`` backends, and the tw-only ``ordering-only``,
    for one test.

    Portfolio workers look their backend up by name in ``BACKENDS``;
    forked workers inherit the patched registry.
    """
    from repro.portfolio.backends import BACKENDS, BackendSpec

    for name, run in (
        ("crash", _crash_backend),
        ("stall", _stall_backend),
        ("lock-stall", _lock_stall_backend),
        ("poll-until-stopped", _poll_until_stopped_backend),
    ):
        monkeypatch.setitem(
            BACKENDS, name, BackendSpec(name, _AnyMetric("every"), run)
        )
    monkeypatch.setitem(
        BACKENDS, "ordering-only",
        BackendSpec("ordering-only", "tw", _ordering_only_backend),
    )
