"""Tests for tournament selection, the GA engine, GA-tw, GA-ghw and
SAIGA-ghw."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.decomposition import fhd_from_ordering, ordering_width
from repro.genetic import (
    GAParameters,
    PrefixGhwEvaluator,
    SAIGAParameters,
    ga_fhw,
    ga_ghw,
    ga_treewidth,
    ghw_fitness,
    run_permutation_ga,
    saiga_ghw,
    tournament_select_index,
    tournament_selection,
)
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    adder_hypergraph,
    clique_hypergraph,
    cycle_graph,
    grid_graph,
    path_graph,
    queen_graph,
)
from repro.search import astar_treewidth, branch_and_bound_ghw


class TestTournament:
    def test_selects_best_with_large_group(self, rng):
        fitnesses = [5.0, 1.0, 3.0]
        winner = tournament_select_index(fitnesses, group_size=50, rng=rng)
        assert winner == 1

    def test_selection_size(self, rng):
        population = [[0, 1], [1, 0]]
        selected = tournament_selection(population, [1.0, 2.0], 2, rng)
        assert len(selected) == 2
        selected = tournament_selection(population, [1.0, 2.0], 2, rng, count=5)
        assert len(selected) == 5

    def test_selection_copies(self, rng):
        population = [[0, 1, 2]]
        selected = tournament_selection(population, [1.0], 1, rng)
        selected[0][0] = 99
        assert population[0][0] == 0

    def test_empty_population_rejected(self, rng):
        with pytest.raises(ValueError):
            tournament_select_index([], 2, rng)

    def test_bad_group_size(self, rng):
        with pytest.raises(ValueError):
            tournament_select_index([1.0], 0, rng)

    def test_pressure_increases_with_group_size(self):
        rng = random.Random(0)
        fitnesses = list(range(100))
        small = [tournament_select_index(fitnesses, 2, rng) for _ in range(300)]
        big = [tournament_select_index(fitnesses, 8, rng) for _ in range(300)]
        assert sum(big) < sum(small)


class TestEngine:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GAParameters(population_size=1).validate()
        with pytest.raises(ValueError):
            GAParameters(crossover_rate=1.5).validate()
        with pytest.raises(ValueError):
            GAParameters(mutation_rate=-0.1).validate()
        with pytest.raises(ValueError):
            GAParameters(crossover="NOPE").validate()
        with pytest.raises(ValueError):
            GAParameters(mutation="NOPE").validate()
        GAParameters().validate()

    def test_minimizes_simple_objective(self):
        """Sorting as a permutation GA problem: fitness counts inversions."""
        def inversions(perm):
            return sum(
                1
                for i in range(len(perm))
                for j in range(i + 1, len(perm))
                if perm[i] > perm[j]
            )

        result = run_permutation_ga(
            elements=list(range(8)),
            fitness=inversions,
            parameters=GAParameters(population_size=40, generations=60),
            rng=random.Random(7),
        )
        assert result.best_fitness <= 2  # near-sorted

    def test_history_monotone(self):
        result = run_permutation_ga(
            elements=list(range(6)),
            fitness=lambda p: p.index(0),
            parameters=GAParameters(population_size=10, generations=15),
            rng=random.Random(1),
        )
        assert all(
            a >= b for a, b in zip(result.history, result.history[1:])
        )

    def test_seed_individuals(self):
        seed_perm = list(range(6))
        result = run_permutation_ga(
            elements=list(range(6)),
            fitness=lambda p: sum(
                1 for i, v in enumerate(p) if v != i
            ),
            parameters=GAParameters(population_size=8, generations=0),
            rng=random.Random(2),
            seed_individuals=[seed_perm],
        )
        assert result.best_fitness == 0

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            run_permutation_ga(
                elements=[1, 2, 3],
                fitness=len,
                parameters=GAParameters(population_size=4, generations=1),
                rng=random.Random(0),
                seed_individuals=[[1, 2]],
            )

    def test_time_budget_stops_early(self):
        result = run_permutation_ga(
            elements=list(range(30)),
            fitness=lambda p: 0,
            parameters=GAParameters(population_size=20, generations=10**6),
            rng=random.Random(0),
            max_seconds=0.2,
        )
        assert result.generations_run < 10**6

    def test_reproducible(self):
        def fit(p):
            return p.index(3)

        a = run_permutation_ga(
            list(range(8)), fit,
            GAParameters(population_size=10, generations=10),
            random.Random(5),
        )
        b = run_permutation_ga(
            list(range(8)), fit,
            GAParameters(population_size=10, generations=10),
            random.Random(5),
        )
        assert a.best_individual == b.best_individual
        assert a.history == b.history


class TestGATreewidth:
    def test_finds_optimum_on_easy_graphs(self):
        for graph, optimum in [
            (path_graph(10), 1),
            (cycle_graph(8), 2),
            (grid_graph(3), 3),
        ]:
            result = ga_treewidth(
                graph,
                GAParameters(population_size=30, generations=40),
                rng=random.Random(3),
            )
            assert result.best_fitness == optimum

    def test_queen5_reaches_18(self):
        result = ga_treewidth(
            queen_graph(5),
            GAParameters(population_size=40, generations=50),
            rng=random.Random(1),
        )
        assert result.best_fitness == 18

    def test_result_is_achievable_width(self, grid4):
        result = ga_treewidth(
            grid4, GAParameters(population_size=20, generations=20),
            rng=random.Random(2),
        )
        assert ordering_width(grid4, result.best_individual) == \
            result.best_fitness

    def test_upper_bound_of_true_treewidth(self, grid4):
        result = ga_treewidth(
            grid4, GAParameters(population_size=10, generations=5),
            rng=random.Random(4),
        )
        assert result.best_fitness >= astar_treewidth(grid4).width

    def test_empty_graph(self):
        from repro.hypergraph import Graph

        result = ga_treewidth(Graph())
        assert result.best_fitness == 0

    def test_heuristic_seeding(self, grid4):
        result = ga_treewidth(
            grid4, GAParameters(population_size=10, generations=0),
            rng=random.Random(0), seed_with_heuristics=True,
        )
        assert result.best_fitness <= 6  # min-fill quality at generation 0


class TestGAGhw:
    def test_fitness_matches_manual(self, example_hypergraph):
        ordering = example_hypergraph.vertex_list()
        width = ghw_fitness(example_hypergraph, ordering)
        assert width >= 2

    def test_finds_optimum_on_example(self, example_hypergraph):
        result = ga_ghw(
            example_hypergraph,
            GAParameters(population_size=20, generations=20),
            rng=random.Random(1),
        )
        assert result.best_fitness == 2

    def test_adder_small(self):
        result = ga_ghw(
            adder_hypergraph(8),
            GAParameters(population_size=30, generations=40),
            rng=random.Random(2),
        )
        assert result.best_fitness <= 3  # ghw = 2; greedy may cost one

    def test_upper_bound_of_true_ghw(self):
        h = clique_hypergraph(8)
        result = ga_ghw(
            h, GAParameters(population_size=16, generations=10),
            rng=random.Random(3),
        )
        assert result.best_fitness >= branch_and_bound_ghw(h).width

    def test_isolated_vertices_rejected(self):
        h = Hypergraph(vertices=[1, 2], edges={"a": {1}})
        with pytest.raises(ValueError):
            ga_ghw(h)

    def test_heuristic_seeding_matches_min_fill(self):
        """Seeded GA-ghw starts at the min-fill baseline (extension)."""
        from repro.bounds import min_fill_ordering
        from repro.decomposition import ghw_ordering_width

        h = adder_hypergraph(15)
        baseline = ghw_ordering_width(h, min_fill_ordering(h))
        result = ga_ghw(
            h, GAParameters(population_size=8, generations=0),
            rng=random.Random(0), seed_with_heuristics=True,
            rescore_exact=False,
        )
        assert result.best_fitness <= baseline

    def test_rescore_exact_not_larger(self):
        h = clique_hypergraph(10)
        greedy = ga_ghw(
            h, GAParameters(population_size=12, generations=8),
            rng=random.Random(4), rescore_exact=False,
        )
        exact = ga_ghw(
            h, GAParameters(population_size=12, generations=8),
            rng=random.Random(4), rescore_exact=True,
        )
        assert exact.best_fitness <= greedy.best_fitness


@st.composite
def hypergraphs_with_orderings(draw, max_vertices=8, max_edges=8):
    """A hypergraph without isolated vertices plus a few orderings."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    h = Hypergraph(vertices=range(n))
    for i in range(draw(st.integers(min_value=1, max_value=max_edges))):
        size = draw(st.integers(min_value=1, max_value=min(4, n)))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        h.add_edge(members, name=f"e{i}")
    for v in sorted(h.isolated_vertices()):
        h.add_edge({v}, name=f"iso{v}")
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    orderings = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        ordering = h.vertex_list()
        rng.shuffle(ordering)
        orderings.append(ordering)
    return h, orderings


def _same_run(got, want):
    assert got.history == want.history
    assert got.best_fitness == want.best_fitness
    assert got.best_individual == want.best_individual
    assert got.evaluations == want.evaluations


class TestFitnessReferences:
    """Each metric has one GA fitness path; these pin it, value for value
    and run for run, to the reference implementations."""

    @settings(max_examples=60, deadline=None)
    @given(hypergraphs_with_orderings())
    def test_prefix_fitness_equals_ghw_fitness(self, data):
        h, orderings = data
        evaluator = PrefixGhwEvaluator(h)
        want = [ghw_fitness(h, ordering) for ordering in orderings]
        assert [evaluator.fitness(o) for o in orderings] == want
        assert PrefixGhwEvaluator(h).evaluate_population(orderings) == want

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs_with_orderings(), st.integers(0, 2**16))
    def test_ga_ghw_run_equals_reference_run(self, data, seed):
        h, _ = data
        params = GAParameters(population_size=8, generations=5)
        cache: dict = {}
        reference = run_permutation_ga(
            h.vertex_list(),
            lambda ordering: ghw_fitness(h, ordering, cache=cache),
            params, random.Random(seed),
        )
        got = ga_ghw(h, params, rng=random.Random(seed),
                     rescore_exact=False)
        _same_run(got, reference)

    @settings(max_examples=15, deadline=None)
    @given(hypergraphs_with_orderings(max_vertices=6, max_edges=6),
           st.integers(0, 2**16))
    def test_ga_fhw_run_equals_reference_run(self, data, seed):
        h, _ = data
        params = GAParameters(population_size=6, generations=4)
        reference = run_permutation_ga(
            h.vertex_list(),
            lambda ordering: fhd_from_ordering(h, ordering).fhw_width,
            params, random.Random(seed),
        )
        got = ga_fhw(h, params, rng=random.Random(seed))
        _same_run(got, reference)

    @settings(max_examples=25, deadline=None)
    @given(hypergraphs_with_orderings(), st.integers(0, 2**16))
    def test_ga_treewidth_run_equals_reference_run(self, data, seed):
        h, _ = data
        graph = h.primal_graph()
        params = GAParameters(population_size=8, generations=5)
        reference = run_permutation_ga(
            graph.vertex_list(),
            lambda ordering: ordering_width(graph, ordering),
            params, random.Random(seed),
        )
        got = ga_treewidth(h, params, rng=random.Random(seed))
        _same_run(got, reference)

    def test_default_paths_never_import_numpy(self):
        script = (
            "import sys\n"
            "import repro.cli, repro.portfolio, repro.service.server\n"
            "from repro.genetic import ga_ghw, ga_treewidth\n"
            "from repro.hypergraph import Hypergraph\n"
            "from repro.instances import get_instance\n"
            "graph = get_instance('myciel3').build()\n"
            "assert ga_treewidth(graph).best_fitness == 5\n"
            "ga_ghw(Hypergraph.from_graph(graph))\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestSAIGA:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SAIGAParameters(num_islands=1).validate()
        with pytest.raises(ValueError):
            SAIGAParameters(island_population=1).validate()
        SAIGAParameters().validate()

    def test_finds_optimum_on_example(self, example_hypergraph):
        result = saiga_ghw(
            example_hypergraph,
            SAIGAParameters(num_islands=3, island_population=10, epochs=5),
            rng=random.Random(1),
        )
        assert result.best_fitness == 2

    def test_parameters_stay_in_range(self):
        from repro.genetic import PARAMETER_RANGES

        result = saiga_ghw(
            clique_hypergraph(8),
            SAIGAParameters(num_islands=4, island_population=8, epochs=6),
            rng=random.Random(2),
        )
        for vector in result.final_parameters:
            lo, hi = PARAMETER_RANGES["crossover_rate"]
            assert lo <= vector.crossover_rate <= hi
            lo, hi = PARAMETER_RANGES["mutation_rate"]
            assert lo <= vector.mutation_rate <= hi
            lo, hi = PARAMETER_RANGES["tournament_size"]
            assert lo <= vector.tournament_size <= hi

    def test_competitive_with_plain_ga(self):
        """SAIGA's promise: roughly match tuned GA without tuning."""
        h = adder_hypergraph(8)
        plain = ga_ghw(
            h, GAParameters(population_size=32, generations=24),
            rng=random.Random(5),
        )
        adaptive = saiga_ghw(
            h,
            SAIGAParameters(num_islands=4, island_population=8, epochs=6),
            rng=random.Random(5),
        )
        assert adaptive.best_fitness <= plain.best_fitness + 1

    def test_isolated_vertices_rejected(self):
        h = Hypergraph(vertices=[1, 2], edges={"a": {1}})
        with pytest.raises(ValueError):
            saiga_ghw(h)

    def test_reports_evaluations(self):
        result = saiga_ghw(
            clique_hypergraph(6),
            SAIGAParameters(num_islands=2, island_population=6, epochs=3),
            rng=random.Random(0),
        )
        assert result.evaluations >= 2 * 6 * 3
