"""The generic permutation genetic algorithm (thesis Fig. 4.4 / Fig. 6.1).

GA-tw and GA-ghw differ only in their fitness function (tree-decomposition
width vs. GHD width of the elimination ordering), so the evolutionary loop
lives here once:

    initialize -> evaluate -> [select -> recombine -> mutate -> evaluate]*

Selection is tournament selection; recombination pairs up a ``pc``
fraction of the population; mutation hits each individual with
probability ``pm``.  The best individual ever seen is tracked across
generations (the population itself is not elitist, as in the thesis).
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..telemetry import NULL_TRACER
from .operators import CROSSOVER_OPERATORS, MUTATION_OPERATORS
from .selection import tournament_selection

Fitness = Callable[[list], float]

# Traced runs record a "ga_generation" sample this often (improvements
# of the best individual are always recorded, between samples too).
TRACE_GENERATION_SAMPLE = 16


@dataclass
class GAParameters:
    """Control parameters (thesis §4.3 terminology).

    Defaults follow the tuned values of Chapter 6: POS crossover, ISM
    mutation, pc = 1.0, pm = 0.3, tournament size 3.  Population size
    and generations default far below the thesis' 2000 x 2000 so that
    laptop-scale Python runs finish; the benchmarks scale them per
    experiment.
    """

    population_size: int = 60
    generations: int = 80
    crossover_rate: float = 1.0
    mutation_rate: float = 0.3
    tournament_size: int = 3
    crossover: str = "POS"
    mutation: str = "ISM"

    def validate(self) -> None:
        if self.population_size < 2:
            raise ValueError("population size must be at least 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament size must be positive")
        if self.crossover not in CROSSOVER_OPERATORS:
            raise ValueError(f"unknown crossover {self.crossover!r}")
        if self.mutation not in MUTATION_OPERATORS:
            raise ValueError(f"unknown mutation {self.mutation!r}")


@dataclass
class GAResult:
    """Outcome of a GA run."""

    best_fitness: float
    best_individual: list
    generations_run: int
    evaluations: int
    history: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0


def run_permutation_ga(
    elements: Sequence,
    fitness: Fitness,
    parameters: GAParameters,
    rng: random.Random,
    max_seconds: float | None = None,
    seed_individuals: Sequence[Sequence] | None = None,
    tracer=NULL_TRACER,
    fitness_batch: Callable[[list[list]], list[float]] | None = None,
) -> GAResult:
    """Evolve permutations of ``elements`` minimizing ``fitness``.

    ``seed_individuals`` lets callers inject heuristic orderings (e.g.
    min-fill) into the initial population; the rest is random.
    ``tracer`` receives the run's ``ga`` span and its sampled events.

    ``fitness_batch`` replaces the one-by-one evaluation of a whole
    population (same values as mapping ``fitness``, position for
    position); incremental evaluators use it to pick the evaluation
    order that maximizes shared state between individuals.  The GA's
    behaviour must not change: the evolutionary loop consumes no
    randomness during evaluation, so any evaluation order is legal.
    """
    parameters.validate()

    def evaluate(individuals: list[list]) -> list[float]:
        if fitness_batch is not None:
            return list(fitness_batch(individuals))
        return [fitness(ind) for ind in individuals]

    tracing = bool(getattr(tracer, "enabled", False))
    with tracer.span(
        "ga",
        individuals=len(elements),
        population=parameters.population_size,
        generations=parameters.generations,
    ):
        start = time.monotonic()
        crossover = CROSSOVER_OPERATORS[parameters.crossover]
        mutation = MUTATION_OPERATORS[parameters.mutation]
        base = list(elements)

        population: list[list] = []
        if seed_individuals:
            for seed in seed_individuals:
                if set(seed) != set(base) or len(seed) != len(base):
                    raise ValueError("seed individual is not a permutation")
                population.append(list(seed))
        while len(population) < parameters.population_size:
            individual = list(base)
            rng.shuffle(individual)
            population.append(individual)
        population = population[: parameters.population_size]

        fitnesses = evaluate(population)
        evaluations = len(population)
        best_index = min(range(len(population)), key=fitnesses.__getitem__)
        best_fitness = fitnesses[best_index]
        best_individual = list(population[best_index])
        history = [best_fitness]
        if tracing:
            tracer.event("ga_improved", generation=0, best=best_fitness)

        generations_run = 0
        for _generation in range(parameters.generations):
            if (
                max_seconds is not None
                and time.monotonic() - start > max_seconds
            ):
                break
            generations_run += 1
            population = tournament_selection(
                population, fitnesses, parameters.tournament_size, rng
            )
            _recombine(population, crossover, parameters.crossover_rate, rng)
            for i, individual in enumerate(population):
                if rng.random() < parameters.mutation_rate:
                    population[i] = mutation(individual, rng)
            fitnesses = evaluate(population)
            evaluations += len(population)
            gen_best = min(range(len(population)), key=fitnesses.__getitem__)
            if fitnesses[gen_best] < best_fitness:
                best_fitness = fitnesses[gen_best]
                best_individual = list(population[gen_best])
                if tracing:
                    tracer.event(
                        "ga_improved",
                        generation=generations_run,
                        best=best_fitness,
                    )
            history.append(best_fitness)
            if tracing and generations_run % TRACE_GENERATION_SAMPLE == 0:
                tracer.event(
                    "ga_generation",
                    generation=generations_run,
                    best=best_fitness,
                    evaluations=evaluations,
                )

        result = GAResult(
            best_fitness=best_fitness,
            best_individual=best_individual,
            generations_run=generations_run,
            evaluations=evaluations,
            history=history,
            elapsed_seconds=time.monotonic() - start,
        )
        if tracing:
            tracer.event(
                "ga_finish",
                best=best_fitness,
                generations=generations_run,
                evaluations=evaluations,
            )
        return result


def _recombine(
    population: list[list],
    crossover,
    rate: float,
    rng: random.Random,
) -> None:
    """Replace a ``rate`` fraction of the population with offspring.

    Individuals are paired up after a shuffle; each selected pair is
    replaced by two children (the crossover applied both ways), matching
    the thesis' description that e.g. pc = 0.8 recombines 80% of the
    population and leaves 20% unchanged.
    """
    n = len(population)
    indices = list(range(n))
    rng.shuffle(indices)
    pairs = (round(n * rate)) // 2
    for k in range(pairs):
        i, j = indices[2 * k], indices[2 * k + 1]
        first, second = population[i], population[j]
        population[i] = crossover(first, second, rng)
        population[j] = crossover(second, first, rng)
