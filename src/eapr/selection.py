"""Wrapper feature selection with a genetic algorithm.

A subset's fitness is the mean cross-validated accuracy, over algorithms, of
a linear SVM trained on the subset's 2D PCA projection: a subset is good
exactly when the projected space it induces separates GOOD from BAD.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

# train_svm is not called here: perfbench/smoke_test.py checks that its tracer
# rebinds this name along with classify.train_svm.
from .classify import SvmConfig, cross_val_predict, cv_splits, train_svm
from .model import FeatureSubset, InstanceTable
from .project import AllFeaturesDropped, fit_projection
from .ranker import Checked
from .seeds import derive_seed


class DegenerateLabels(Exception):
    pass


class _GaConfigFields(NamedTuple):
    population_size: int = 50
    generations: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    tournament_size: int = 2
    min_k: int = 4
    max_k: int = 12
    cv_folds: int = 5
    seed: int = 0


class GaConfig(Checked, _GaConfigFields):
    """Search parameters. ``mutation_rate`` of None means 1/n per bit."""

    __slots__ = ()

    def _check(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be positive")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be a probability")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be a probability")
        if self.tournament_size < 1 or self.tournament_size > self.population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        if self.min_k < 2:
            raise ValueError("min_k must be >= 2 (2D projection needs 2 features)")
        if self.max_k < self.min_k:
            raise ValueError("max_k must be >= min_k")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")


class FitnessValue(NamedTuple):
    mean_cv_accuracy: float
    subset_size: int


class SelectionResult(NamedTuple):
    best: FeatureSubset
    best_fitness: FitnessValue
    history: tuple[FitnessValue, ...]


# Classifier used inside the fitness function: linear kernel on the 2D
# projection, solved to a loose tolerance. Its cap of 100 * n pair updates,
# like LIBSVM's floor of 100 * l iterations, does not bind on real data, so
# every fold model is converged.
_FITNESS_SVM = SvmConfig(kernel="linear", C=1.0, gamma=1.0, tolerance=1e-2, max_passes=100)


def _order_key(names: tuple[str, ...], fitness: FitnessValue):
    """Total order used everywhere ties must break deterministically:
    higher accuracy, then smaller subset, then lexicographically smaller names.
    Minimal key = best candidate."""
    return (-fitness.mean_cv_accuracy, fitness.subset_size, names)


def evaluate_subsets(
    table: InstanceTable,
    subsets: Sequence[FeatureSubset],
    config: GaConfig,
    seed: int,
) -> list[FitnessValue]:
    """Mean k-fold CV accuracy over algorithms, on each subset's 2D projection.

    Rows are put in sorted-instance-id order before anything else, so the
    result is invariant to the table's row permutation. Algorithms whose
    labels cannot be stratified (single class, or a class with one member)
    are skipped; if every algorithm is skipped, DegenerateLabels is raised
    before any subset is projected. Subsets whose columns collapse under
    standardization score 0. The fold fits of all subsets run as one
    ``classify.cross_val_predict`` batch.
    """
    max_k = min(config.max_k, len(table.feature_names))
    for subset in subsets:
        size = len(subset.selected)
        if not config.min_k <= size <= max_k:
            raise ValueError(f"subset size {size} outside [{config.min_k}, {config.max_k}]")

    ordered = table.take(sorted(range(len(table)), key=table.instance_ids.__getitem__))
    # Labels and folds depend on (seed, algorithm), not on the subset.
    plan = []
    for algorithm in ordered.algorithm_names:
        idx, y = ordered.labeled_indices(algorithm)
        splits = cv_splits(y, config.cv_folds, derive_seed(seed, f"folds:{algorithm}"))
        if splits is not None:
            plan.append((idx, y, splits))

    if not plan:
        raise DegenerateLabels("no algorithm has two stratifiable label classes")

    projected = {}  # subset position -> coordinates, unless every column collapsed
    for pos, subset in enumerate(subsets):
        try:
            _, projected[pos] = fit_projection(ordered, subset)
        except AllFeaturesDropped:
            pass

    tasks = [(coords[idx], y, splits, _FITNESS_SVM)
             for coords in projected.values() for idx, y, splits in plan]
    predictions = iter(cross_val_predict(tasks))

    values = [FitnessValue(0.0, len(subset.selected)) for subset in subsets]
    for pos in projected:
        accuracies = [float(np.mean(next(predictions)[1] == y)) for _, y, _ in plan]
        values[pos] = FitnessValue(float(np.mean(accuracies)), len(subsets[pos].selected))
    return values


def evaluate_subset(
    table: InstanceTable, subset: FeatureSubset, config: GaConfig, seed: int
) -> FitnessValue:
    """``evaluate_subsets`` for one subset."""
    return evaluate_subsets(table, [subset], config, seed)[0]


def run_ga(table: InstanceTable, config: GaConfig) -> SelectionResult:
    """Evolve bitmask-encoded subsets: tournament selection, uniform crossover,
    per-bit mutation, cardinality repair, 1-elitism. Fully seed-deterministic.
    Each generation's fold fits run as one batch."""
    n = len(table.feature_names)
    max_k = min(config.max_k, n)
    if config.min_k > max_k:
        raise ValueError(f"min_k {config.min_k} exceeds available features {n}")
    mutation_rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / n

    names = table.feature_names
    rng = np.random.default_rng(derive_seed(config.seed, "ga"))
    fitness_seed = derive_seed(config.seed, "fitness")
    cache: dict[tuple[int, ...], FitnessValue] = {}

    def evaluate(masks: list[np.ndarray]) -> list[FitnessValue]:
        """Fitness per mask; the uncached ones run as one batch, in mask order,
        and a generation of cached masks runs none."""
        keys = [tuple(np.flatnonzero(mask)) for mask in masks]
        fresh = list(dict.fromkeys(key for key in keys if key not in cache))
        if fresh:
            subsets = [FeatureSubset.of(names[i] for i in key) for key in fresh]
            cache.update(zip(fresh, evaluate_subsets(table, subsets, config, fitness_seed)))
        return [cache[key] for key in keys]

    def subset_names(mask: np.ndarray) -> tuple[str, ...]:
        return tuple(sorted(names[i] for i in np.flatnonzero(mask)))

    def repair(mask: np.ndarray) -> np.ndarray:
        count = int(mask.sum())
        while count < config.min_k:
            absent = np.flatnonzero(~mask)
            mask[rng.choice(absent)] = True
            count += 1
        while count > max_k:
            present = np.flatnonzero(mask)
            mask[rng.choice(present)] = False
            count -= 1
        return mask

    def random_individual() -> np.ndarray:
        k = int(rng.integers(config.min_k, max_k + 1))
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=k, replace=False)] = True
        return mask

    def best_index() -> int:
        return min(
            range(len(population)),
            key=lambda i: _order_key(subset_names(population[i]), fitnesses[i]),
        )

    def tournament() -> np.ndarray:
        picks = rng.integers(0, config.population_size, size=config.tournament_size)
        winner = min(
            picks, key=lambda i: _order_key(subset_names(population[i]), fitnesses[i])
        )
        return population[winner]

    population = [random_individual() for _ in range(config.population_size)]
    fitnesses = evaluate(population)

    elite_idx = best_index()
    best_mask = population[elite_idx].copy()
    best_fitness = fitnesses[elite_idx]
    history = [best_fitness]

    for _ in range(config.generations):
        children = [best_mask.copy()]  # 1-elitism
        while len(children) < config.population_size:
            parent_a = tournament()
            parent_b = tournament()
            if rng.random() < config.crossover_rate:
                take_a = rng.random(n) < 0.5
                child = np.where(take_a, parent_a, parent_b)
            else:
                child = parent_a.copy()
            flips = rng.random(n) < mutation_rate
            child = repair(child ^ flips)
            children.append(child)
        population = children
        fitnesses = evaluate(population)
        gen_best = best_index()
        gen_key = _order_key(subset_names(population[gen_best]), fitnesses[gen_best])
        if gen_key < _order_key(subset_names(best_mask), best_fitness):
            best_mask = population[gen_best].copy()
            best_fitness = fitnesses[gen_best]
        history.append(best_fitness)

    return SelectionResult(
        best=FeatureSubset.of(subset_names(best_mask)),
        best_fitness=best_fitness,
        history=tuple(history),
    )
