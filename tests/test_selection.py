from dataclasses import replace

import numpy as np
import pytest

import eapr.classify as classify
import eapr.selection as selection
from eapr.model import FeatureSubset
from eapr.selection import (
    DegenerateLabels,
    FitnessValue,
    GaConfig,
    _order_key,
    evaluate_subset,
    evaluate_subsets,
    run_ga,
)

from conftest import BAD, GOOD, make_table, planted_table
from test_classify import check_linear_optimum

FAST = GaConfig(population_size=10, generations=5, min_k=2, max_k=3, cv_folds=3, seed=0)


def shuffle_labels(table, seed):
    """Same rows, outcome labels permuted independently per algorithm."""
    rng = np.random.default_rng(seed)
    columns = [
        table.outcomes[rng.permutation(len(table)), j]
        for j in range(len(table.algorithm_names))
    ]
    return replace(table, outcomes=np.column_stack(columns))


def fold_fits(monkeypatch):
    """Record (training coords, labels, model) of every fitness SVM fit, run
    in this process."""
    fits = []
    train_svm = classify.train_svm

    def recording_train_svm(x, y, config):
        model = train_svm(x, y, config)
        fits.append((x, y, model))
        return model

    monkeypatch.setattr(classify, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(classify, "train_svm", recording_train_svm)
    return fits


def majority_rate(table):
    rates = []
    for alg in table.algorithm_names:
        _, y = table.labeled_indices(alg)
        share = float(np.mean(y == 1.0))
        rates.append(max(share, 1.0 - share))
    return float(np.mean(rates))


class TestEvaluateSubset:
    def test_separable_pair_is_perfect(self):
        table = planted_table(90, n_noise=0, seed=3)
        fitness = evaluate_subset(table, FeatureSubset.of(["f1", "f2"]), FAST, seed=1)
        assert fitness == FitnessValue(1.0, 2)

    def test_shuffled_labels_score_near_majority_baseline(self):
        table = planted_table(120, n_noise=0, seed=4)
        baseline = majority_rate(table)
        accs = []
        for seed in range(5):
            shuffled = shuffle_labels(table, seed)
            fitness = evaluate_subset(
                shuffled, FeatureSubset.of(["f1", "f2"]), FAST, seed=seed
            )
            accs.append(fitness.mean_cv_accuracy)
        assert abs(float(np.mean(accs)) - baseline) < 0.1

    def test_deterministic(self):
        table = planted_table(60, n_noise=2, seed=5)
        subset = FeatureSubset.of(["f1", "n00"])
        a = evaluate_subset(table, subset, FAST, seed=9)
        b = evaluate_subset(table, subset, FAST, seed=9)
        assert a == b

    def test_row_permutation_invariant(self):
        table = planted_table(60, n_noise=2, seed=6)
        rng = np.random.default_rng(0)
        shuffled = table.take(rng.permutation(len(table)))
        subset = FeatureSubset.of(["f1", "f2"])
        assert evaluate_subset(table, subset, FAST, seed=2) == evaluate_subset(
            shuffled, subset, FAST, seed=2
        )

    def test_cardinality_bounds_enforced(self):
        table = planted_table(30, n_noise=4, seed=7)
        with pytest.raises(ValueError):
            evaluate_subset(table, FeatureSubset.of(["f1"]), FAST, seed=0)
        too_big = FeatureSubset.of(["f1", "f2", "n00", "n01"])
        with pytest.raises(ValueError):
            evaluate_subset(table, too_big, FAST, seed=0)

    def test_degenerate_labels_raise(self):
        table = make_table(
            ["f1", "f2"],
            ["A"],
            [(f"r{i}", "", (float(i), float(i % 3)), (GOOD,)) for i in range(10)],
        )
        with pytest.raises(DegenerateLabels):
            evaluate_subset(table, FeatureSubset.of(["f1", "f2"]), FAST, seed=0)
        with pytest.raises(DegenerateLabels):  # before any subset is projected
            evaluate_subsets(table, [], FAST, seed=0)

    def test_zero_variance_subset_scores_zero(self):
        rows = [
            (f"r{i}", "", (1.0, 1.0, float(i)), (GOOD if i % 2 else BAD,))
            for i in range(10)
        ]
        table = make_table(["c1", "c2", "f"], ["A"], rows)
        fitness = evaluate_subset(table, FeatureSubset.of(["c1", "c2"]), FAST, seed=0)
        assert fitness.mean_cv_accuracy == 0.0

    def test_golden_fitness(self, monkeypatch):
        # pinned to the bit, so any change to the SMO arithmetic shows here;
        # each fold model is checked to be a tolerance optimum first
        fits = fold_fits(monkeypatch)
        subset = FeatureSubset.of(["f1", "n03", "n07", "n11"])
        fitness = evaluate_subset(planted_table(), subset, GaConfig(), seed=3)
        assert len(fits) == 15  # 3 algorithms x 5 folds
        for x, y, model in fits:
            assert model.converged
            check_linear_optimum(model, x, y)
        assert fitness == FitnessValue(float.fromhex("0x1.6eeeeeeeeeef0p-1"), 4)

    def test_every_fold_fit_converges(self, monkeypatch):
        # the fitness SVM of earlier versions stopped on its 8-pass cap in
        # every one of these fits
        fits = fold_fits(monkeypatch)
        names = planted_table().feature_names
        subsets = [
            FeatureSubset.of(["f1", "f2", "n00", "n01"]),
            FeatureSubset.of(["f2", "n04", "n09", "n13", "n17"]),
            FeatureSubset.of(names[6:18]),
        ]
        evaluate_subsets(planted_table(), subsets, GaConfig(), seed=11)
        assert len(fits) == 3 * 3 * 5
        assert all(model.converged for _, _, model in fits)


class TestRunGa:
    def test_recovers_planted_features(self):
        table = planted_table(120, n_noise=8, seed=8)
        config = GaConfig(
            population_size=12, generations=6, min_k=2, max_k=3, cv_folds=3, seed=5
        )
        result = run_ga(table, config)
        assert {"f1", "f2"} <= set(result.best.selected)
        assert result.best_fitness.mean_cv_accuracy == 1.0

    def test_zero_generations(self):
        table = planted_table(40, n_noise=2, seed=9)
        config = GaConfig(
            population_size=6, generations=0, min_k=2, max_k=3, cv_folds=2, seed=1
        )
        result = run_ga(table, config)
        assert len(result.history) == 1
        assert result.history[0] == result.best_fitness

    def test_seed_determinism(self):
        table = planted_table(40, n_noise=3, seed=10)
        config = GaConfig(
            population_size=8, generations=3, min_k=2, max_k=3, cv_folds=2, seed=13
        )
        assert run_ga(table, config) == run_ga(table, config)

    def test_history_non_decreasing(self):
        table = planted_table(50, n_noise=4, seed=11)
        config = GaConfig(
            population_size=8, generations=5, min_k=2, max_k=4, cv_folds=2, seed=3
        )
        history = run_ga(table, config).history
        assert len(history) == 6
        accs = [h.mean_cv_accuracy for h in history]
        assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_every_evaluated_subset_within_bounds(self, monkeypatch):
        table = planted_table(40, n_noise=6, seed=12)
        config = GaConfig(
            population_size=8, generations=4, min_k=3, max_k=5, cv_folds=2, seed=2
        )
        seen = []
        original = selection.evaluate_subsets

        def spy(tbl, subsets, cfg, seed, pool):
            seen.extend(len(subset) for subset in subsets)
            return original(tbl, subsets, cfg, seed, pool)

        monkeypatch.setattr(selection, "evaluate_subsets", spy)
        run_ga(table, config)
        assert seen
        assert all(3 <= size <= 5 for size in seen)

    def test_all_degenerate_algorithms_rejected(self):
        table = make_table(
            ["f1", "f2"],
            ["A", "B"],
            [(f"r{i}", "", (float(i), 1.0 * i), (GOOD, GOOD)) for i in range(10)],
        )
        with pytest.raises(DegenerateLabels):
            run_ga(table, FAST)

    def test_min_k_beyond_feature_count_rejected(self):
        table = planted_table(20, n_noise=0, seed=13)
        config = GaConfig(
            population_size=4, generations=1, min_k=3, max_k=5, cv_folds=2, seed=0
        )
        with pytest.raises(ValueError):
            run_ga(table, config)


def tie_break(candidates):
    """The best candidate by the ``_order_key`` order that ``run_ga`` uses."""
    return min(candidates, key=lambda c: _order_key(c[0].sorted_names, c[1]))[0]


class TestTieBreak:
    def test_size_breaks_accuracy_tie(self):
        small = FeatureSubset.of(["a", "b"])
        large = FeatureSubset.of(["a", "b", "c"])
        assert tie_break([(small, FitnessValue(0.9, 2)), (large, FitnessValue(0.9, 3))]) == small
        assert tie_break([(large, FitnessValue(0.9, 3)), (small, FitnessValue(0.9, 2))]) == small

    def test_lexicographic_final_tie(self):
        bc = FeatureSubset.of(["b", "c"])
        ad = FeatureSubset.of(["a", "d"])
        assert tie_break([(bc, FitnessValue(0.9, 2)), (ad, FitnessValue(0.9, 2))]) == ad

    def test_accuracy_dominates(self):
        a = FeatureSubset.of(["a"])
        b = FeatureSubset.of(["b"])
        assert tie_break([(a, FitnessValue(0.8, 1)), (b, FitnessValue(0.9, 1))]) == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tie_break([])


class TestGaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaConfig(min_k=1)
        with pytest.raises(ValueError):
            GaConfig(min_k=5, max_k=4)
        with pytest.raises(ValueError):
            GaConfig(tournament_size=100, population_size=10)
        with pytest.raises(ValueError):
            GaConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GaConfig(cv_folds=1)


class TestWorkers:
    """Fold fits run on a pool of one worker per usable CPU; the results must
    be those of the in-process, one-worker run to the bit."""

    def test_run_ga_same_on_one_cpu_and_on_a_pool(self, monkeypatch):
        table = planted_table(60, n_noise=6, seed=14)
        config = GaConfig(population_size=6, generations=3, min_k=2, max_k=4, cv_folds=3, seed=4)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(classify, "_usable_cpus", lambda: cpus)
            results.append(run_ga(table, config))
        assert results[0] == results[1]

    def test_evaluate_subset_same_on_one_cpu_and_on_a_pool(self, monkeypatch):
        table = planted_table(80, n_noise=4, seed=15)
        subsets = [
            FeatureSubset.of(names)
            for names in (["f1", "f2"], ["f1", "n00", "n03"], ["n01", "n02"], ["f2", "n02"])
        ]
        values = []
        for cpus in (1, 2):
            monkeypatch.setattr(classify, "_usable_cpus", lambda: cpus)
            values.append([evaluate_subset(table, s, FAST, seed=6) for s in subsets])
            values.append(evaluate_subsets(table, subsets, FAST, seed=6))
        assert values[0] == values[1] == values[2] == values[3]
