import hashlib
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eapr.classify as classify
from eapr import ranker
from eapr.artifacts import scorer_from_dict, svm_to_dict as model_to_dict
from eapr.classify import (
    SingleClassLabels,
    SvmConfig,
    SvmModel,
    TooFewInstances,
    compute_metrics,
    cross_val_predict,
    cross_validate,
    cv_splits,
    decision_values,
    select_aprt,
    stratified_folds,
    train_svm,
)

from oracles import kernel_sum_decision


def blobs(seed=0, n=20, spread=0.3, centers=((-2.0, -2.0), (2.0, 2.0))):
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(c, spread, (n, 2)) for c in centers])
    y = np.array([-1.0] * n + [1.0] * n)
    return pts, y


def xor_clusters(seed=1, n=15, spread=0.08):
    rng = np.random.default_rng(seed)
    pts = np.vstack(
        [
            rng.normal([0, 0], spread, (n, 2)),
            rng.normal([1, 1], spread, (n, 2)),
            rng.normal([0, 1], spread, (n, 2)),
            rng.normal([1, 0], spread, (n, 2)),
        ]
    )
    y = np.array([1.0] * 2 * n + [-1.0] * 2 * n)
    return pts, y


def check_kkt(model, coords, labels, slack=1e-9):
    """KKT conditions on the full training set at the model's tolerance.

    Training points that coincide and share a label share a margin, so each
    is checked against one of the multipliers stored for its (point, label);
    the ones left over have multiplier 0. Every support vector must be used."""
    tol = model.config.tolerance + slack
    f = decision_values(model, coords)
    margins = labels * f
    alphas_of = defaultdict(list)
    for sv, a, label in zip(model.support_vectors, model.alphas, model.labels):
        alphas_of[(tuple(sv), label)].append(a)
    c = model.config.C
    for point, label, margin in zip(coords, labels, margins):
        stored = alphas_of[(tuple(point), label)]
        alpha = stored.pop() if stored else 0.0
        if alpha <= 0.0:
            assert margin >= 1.0 - tol, (alpha, margin)
        elif alpha >= c:
            assert margin <= 1.0 + tol, (alpha, margin)
        else:
            assert abs(margin - 1.0) <= tol, (alpha, margin)
    assert not any(alphas_of.values()), "a support vector is not a training point"


def duality_gap(model, coords, labels):
    """Primal minus dual objective of a linear model, from its (w, b)."""
    w = (model.alphas * model.labels) @ model.support_vectors
    hinge = np.maximum(0.0, 1.0 - labels * (coords @ w + model.bias))
    primal = 0.5 * (w @ w) + model.config.C * hinge.sum()
    return primal - (model.alphas.sum() - 0.5 * (w @ w))


def check_linear_optimum(model, coords, labels):
    """A converged linear model is a tolerance-optimal solution of its dual.

    Where every margin is within the tolerance of its KKT condition, each
    point adds at most tolerance * (alpha_i + C) to the duality gap."""
    coords = np.asarray(coords, dtype=float)
    labels = np.asarray(labels, dtype=float)
    check_kkt(model, coords, labels)
    assert abs(float(np.sum(model.alphas * model.labels))) < 1e-9
    gap = duality_gap(model, coords, labels)
    c, tol = model.config.C, model.config.tolerance
    assert -1e-9 <= gap <= tol * (model.alphas.sum() + c * len(labels)) + 1e-9, gap


class TestTrain:
    def test_separable_blobs_perfect(self):
        pts, y = blobs()
        model = train_svm(pts, y, SvmConfig(kernel="linear", seed=1))
        values = decision_values(model, pts)
        assert np.all(np.sign(values) == y)
        assert model.converged

    def test_xor_needs_rbf(self):
        pts, y = xor_clusters()
        model = train_svm(pts, y, SvmConfig(kernel="rbf", C=10.0, gamma=2.0, seed=2))
        acc = np.mean(np.sign(decision_values(model, pts)) == y)
        assert acc >= 0.95
        # oracle: grid search confirms such accuracy is attainable, and the
        # chosen config is not an outlier of the grid
        best = 0.0
        for c in (1.0, 10.0):
            for gamma in (0.5, 2.0, 8.0):
                m = train_svm(pts, y, SvmConfig(kernel="rbf", C=c, gamma=gamma, seed=2))
                best = max(best, float(np.mean(np.sign(decision_values(m, pts)) == y)))
        assert best >= 0.95

    def test_deterministic(self):
        pts, y = xor_clusters()
        config = SvmConfig(kernel="rbf", C=5.0, gamma=1.0, seed=3)
        a = train_svm(pts, y, config)
        b = train_svm(pts, y, config)
        assert np.array_equal(a.alphas, b.alphas)
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert a.bias == b.bias

    def test_train_svm_draws_no_random_numbers(self, monkeypatch):
        def no_rng(seed=None):
            raise AssertionError("train_svm drew random numbers")

        pts, y = xor_clusters()
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        for kernel in ("linear", "rbf"):
            assert train_svm(pts, y, SvmConfig(kernel=kernel, seed=3)).converged

    def test_single_class_rejected(self):
        pts = np.random.default_rng(0).normal(0, 1, (10, 2))
        with pytest.raises(SingleClassLabels):
            train_svm(pts, np.ones(10), SvmConfig())

    def test_multiplier_constraint(self):
        pts, y = blobs(seed=4)
        model = train_svm(pts, y, SvmConfig(kernel="rbf", seed=4))
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= model.config.C)
        assert abs(np.sum(model.alphas * model.labels)) < 1e-8

    def test_kkt_on_varied_models(self):
        cases = [
            (blobs(seed=5), SvmConfig(kernel="linear", seed=5)),
            (blobs(seed=6, spread=1.2), SvmConfig(kernel="rbf", seed=6)),
            (xor_clusters(seed=7), SvmConfig(kernel="rbf", C=10.0, gamma=2.0, seed=7)),
        ]
        rng = np.random.default_rng(8)
        noisy = rng.uniform(-1, 1, (80, 2)), np.where(rng.random(80) < 0.5, 1.0, -1.0)
        cases.append((noisy, SvmConfig(kernel="rbf", seed=8)))
        for (pts, y), config in cases:
            model = train_svm(pts, y, config)
            assert model.converged
            check_kkt(model, pts, y)

    def test_translation_equivariance_linear(self):
        pts, y = blobs(seed=9)
        grid = np.array([[gx, gy] for gx in np.linspace(-3, 3, 7) for gy in np.linspace(-3, 3, 7)])
        config = SvmConfig(kernel="linear", seed=9)
        model_a = train_svm(pts, y, config)
        shift = np.array([10.0, -5.0])
        model_b = train_svm(pts + shift, y, config)
        labels_a = np.sign(decision_values(model_a, grid))
        labels_b = np.sign(decision_values(model_b, grid + shift))
        assert np.array_equal(labels_a, labels_b)


def overlapping(seed, n):
    """Two unit-variance Gaussians one unit apart: the classes overlap."""
    rng = np.random.default_rng(seed)
    half = n // 2
    pts = np.vstack(
        [rng.normal((-0.5, 0.0), 1.0, (half, 2)), rng.normal((0.5, 0.0), 1.0, (half, 2))]
    )
    return pts, np.array([-1.0] * half + [1.0] * half)


def model_digest(model):
    return hashlib.sha256(
        json.dumps(model_to_dict(model), sort_keys=True).encode()
    ).hexdigest()


class TestGoldenModels:
    """Trained models pinned to the bit. A change to the SMO loop that keeps
    these digests keeps every fitness value and every models.json as well."""

    def test_rbf_stopped_on_the_cap(self):
        # this solve needs between n and 2 n pair updates; a model cut off by
        # the cap still satisfies the box and sum(alpha y) = 0
        pts, y = overlapping(3, 160)
        config = SvmConfig(kernel="rbf", C=1.0, gamma=1.0, tolerance=1e-2, max_passes=1)
        model = train_svm(pts, y, config)
        assert not model.converged
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= config.C)
        assert abs(float(np.sum(model.alphas * model.labels))) < 1e-9
        assert model_digest(model) == (
            "93a9a4f28a446b66e78c5af0eb1ae45699fd44418bf521e48b9c983348f002af"
        )

    def test_rbf_defaults(self):
        pts, y = overlapping(4, 200)
        model = train_svm(pts, y, SvmConfig(seed=6))
        assert model.converged
        check_kkt(model, pts, y)
        assert model_digest(model) == (
            "492b41944473d8f682e2e3d201d2e5270a42ceeb078881ae5122087f80f05d26"
        )

    def test_fixed_point_break(self):
        # every point appears once per label, so cross-label pairs of equal
        # points have zero curvature; the floored curvature sends each such
        # pair to its box bound, and the optimum has every multiplier at C
        base = np.random.default_rng(2).normal(0.0, 1.0, (12, 2))
        pts = np.vstack([base, base])
        y = np.array([1.0] * 12 + [-1.0] * 12)
        model = train_svm(pts, y, SvmConfig(kernel="linear", seed=2, max_passes=10**6))
        assert model.converged
        check_linear_optimum(model, pts, y)
        assert model_digest(model) == (
            "1009d5b997d8cdb1f85dc14dc45c6f42014da13c214de65fe6cf7a07f6281224"
        )


coordinate = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
# a pairwise distance: non-negative, inf or NaN where a coordinate is, and far
# from overflow when finite
distance = st.floats(0.0, 1e300) | st.sampled_from([np.inf, np.nan])


@st.composite
def two_class_sets(draw):
    """4 to 120 labeled 2D points with both classes, some of them repeated
    with the opposite label (pairs of zero curvature)."""
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=4, max_size=60))
    n = len(points)
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    labels[:2] = [1.0, -1.0]
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=n))
    pts = np.array(points + [points[i] for i in repeats], dtype=float)
    y = np.array(labels + [-labels[i] for i in repeats])
    return pts, y


class TestLinearSolver:
    # WSS2 alone converges linearly, and on these rank-2 kernels it can
    # zig-zag between two pairs that share an index: the sets of
    # test_cap_binds_on_slow_convergence needed up to 12,868 n pair updates.
    # The line search along such a cycle brings each of them under 20 n, far
    # below this test's 10^4 n cap; a draw that reaches the cap is a solver
    # defect, not a reason to raise it.
    @settings(max_examples=200, deadline=None)
    @given(data=two_class_sets(), c=st.sampled_from([0.1, 1.0, 10.0]))
    def test_converges_to_a_tolerance_optimum(self, data, c):
        pts, y = data
        model = train_svm(pts, y, SvmConfig(kernel="linear", C=c, max_passes=10**4))
        assert model.converged
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= c)
        assert abs(float(np.sum(model.alphas * model.labels))) < 1e-9
        check_linear_optimum(model, pts, y)

    def test_cap_binds_on_slow_convergence(self):
        # sets the property test drew on which WSS2 alone zig-zags: without the
        # line search they needed more than 200 n, 12,868 n and 10,758 n pair
        # updates; with it, each converges within the default 200 n cap. One
        # pass (n updates) is still too few, and the cap stops the fit there.
        first = np.array(
            [[0.0, -2.25], [0.0, 0.0], [-3.375, 0.0], [0.0, -3.0], [0.0, 0.0], [0.0, 0.0],
             [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.25, -4.5], [0.0, -2.25], [0.0, -3.0],
             [0.0, -3.0]]
        )
        second = np.array([[0.0, -3.71875], [1.0, 0.0], [-2.0, 0.0], [-1.5, 0.0], [-3.53125, 5.0]])
        third = np.array(
            [[1.697265625, 4.951171875], [0.470703125, 2.982421875], [-3.65625, -3.65625],
             [0.0, 0.0], [0.0, 0.0], [-4.0, 0.0], [0.470703125, 2.982421875],
             [0.470703125, 2.982421875]]
        )
        cases = [
            (first, np.array([1.0] + [-1.0] * 10 + [1.0, 1.0])),
            (second, np.array([1.0, -1.0, -1.0, 1.0, 1.0])),
            (third, np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0])),
        ]
        for pts, y in cases:
            model = train_svm(pts, y, SvmConfig(kernel="linear", C=10.0))
            assert model.converged
            check_linear_optimum(model, pts, y)
            capped = train_svm(pts, y, SvmConfig(kernel="linear", C=10.0, max_passes=1))
            assert not capped.converged
            assert np.all(capped.alphas >= 0.0)
            assert np.all(capped.alphas <= 10.0)
            assert abs(float(np.sum(capped.alphas * capped.labels))) < 1e-9


class TestRbfSolver:
    @settings(max_examples=200, deadline=None)
    @given(
        data=two_class_sets(),
        c=st.sampled_from([0.1, 1.0, 10.0]),
        gamma=st.sampled_from([0.1, 1.0, 10.0, "median-heuristic"]),
    )
    def test_converges_to_a_tolerance_optimum(self, data, c, gamma):
        pts, y = data
        model = train_svm(pts, y, SvmConfig(kernel="rbf", C=c, gamma=gamma, max_passes=10**4))
        assert model.converged
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= c)
        assert abs(float(np.sum(model.alphas * model.labels))) < 1e-9
        check_kkt(model, pts, y)


class TestPredict:
    def test_margin_support_vectors(self):
        pts, y = blobs(seed=10, spread=0.8)
        model = train_svm(pts, y, SvmConfig(kernel="rbf", seed=10))
        margin_svs = [
            sv
            for sv, a in zip(model.support_vectors, model.alphas)
            if 0.0 < a < model.config.C
        ]
        assert margin_svs
        for sv in margin_svs:
            value = decision_values(model, sv)[0]
            assert abs(abs(value) - 1.0) <= model.config.tolerance + 1e-9

    def test_symmetric_midpoint(self):
        pts = np.array([[-1.0, 0.0], [-1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = train_svm(pts, y, SvmConfig(kernel="linear", seed=11))
        value = decision_values(model, (0.0, 0.5))[0]
        assert abs(value) <= model.config.tolerance

    def test_sign_zero_is_positive(self, monkeypatch):
        # a fold fit labels its test points by the sign of the decision value
        model = SvmModel(
            support_vectors=np.zeros((0, 2)),
            alphas=np.zeros(0),
            labels=np.zeros(0),
            bias=0.0,
            gamma=1.0,
            config=SvmConfig(),
            converged=True,
        )
        monkeypatch.setattr(classify, "train_svm", lambda *args: model)
        job = (np.zeros((2, 2)), np.array([1.0, -1.0]), np.array([[1.0, 1.0]]), SvmConfig())
        _, (label,) = classify._fit_fold(job)
        value = decision_values(model, (1.0, 1.0))[0]
        assert value == 0.0
        assert label == 1

    def test_matches_kernel_sum_oracle(self):
        for kernel in ("linear", "rbf"):
            pts, y = blobs(seed=12, spread=1.0)
            model = train_svm(pts, y, SvmConfig(kernel=kernel, seed=12))
            rng = np.random.default_rng(13)
            for point in rng.uniform(-3, 3, (100, 2)):
                value = decision_values(model, point)[0]
                expected = kernel_sum_decision(
                    model.support_vectors,
                    model.alphas,
                    model.labels,
                    model.bias,
                    kernel,
                    model.gamma,
                    point,
                )
                assert value == pytest.approx(expected, abs=1e-8)


class TestMetricsAndCv:
    def test_separable_cv(self):
        pts, y = blobs(seed=14)
        metrics = cross_validate(pts, y, 5, SvmConfig(kernel="linear", seed=14))
        assert metrics.accuracy == 1.0
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0

    def test_degenerate_predictor_arithmetic(self):
        y_true = np.array([1.0] * 60 + [-1.0] * 40)
        y_pred = np.ones(100)
        metrics = compute_metrics(y_true, y_pred)
        assert metrics.accuracy == pytest.approx(0.6)
        assert metrics.precision == pytest.approx(0.6)
        assert metrics.recall == 1.0

    def test_precision_absent_when_no_positive_predictions(self):
        metrics = compute_metrics([1.0, -1.0], [-1.0, -1.0])
        assert metrics.precision is None
        assert metrics.accuracy == 0.5

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(15)
        accs = []
        for seed in range(10):
            pts = rng.uniform(-1, 1, (100, 2))
            y = np.ones(100)
            y[rng.permutation(100)[:50]] = -1.0
            metrics = cross_validate(pts, y, 5, SvmConfig(seed=seed))
            accs.append(metrics.accuracy)
        # 1000 pooled chance-level predictions: mean within 0.5 +/- 0.1
        assert abs(float(np.mean(accs)) - 0.5) < 0.1

    def test_too_few_instances(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(TooFewInstances):
            cross_validate(pts, np.array([1.0, 1.0, -1.0]), 2, SvmConfig())

    def test_cross_val_predict_takes_each_row_from_the_split_that_tests_it(self):
        pts, y = overlapping(5, 40)
        splits = cv_splits(y, 4, 9)
        config = SvmConfig(seed=9)
        with classify.fold_pool() as pool:
            [(models, predicted)] = cross_val_predict([(pts, y, splits, config)], pool)
        assert len(models) == len(splits)
        for model, (test_idx, train) in zip(models, splits):
            fold_model, labels = classify._fit_fold((pts[train], y[train], pts[test_idx], config))
            assert model_digest(model) == model_digest(fold_model)
            assert np.array_equal(predicted[test_idx], labels)

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_cross_val_predict_every_row_split_is_train_svm(self, kernel):
        # the final selector fit of stage_classify is this one-split task
        pts, y = overlapping(6, 30)
        every_row = [(np.arange(len(y)), np.ones(len(y), dtype=bool))]
        config = SvmConfig(kernel=kernel, seed=3)
        with classify.fold_pool() as pool:
            [([model], predicted)] = cross_val_predict([(pts, y, every_row, config)], pool)
        assert model_digest(model) == model_digest(train_svm(pts, y, config))
        assert np.array_equal(predicted, np.where(decision_values(model, pts) >= 0.0, 1.0, -1.0))

    def test_stratified_folds_cover_everything(self):
        rng = np.random.default_rng(16)
        y = np.where(rng.random(53) < 0.3, 1.0, -1.0)
        folds = stratified_folds(y, 5, rng)
        joined = np.concatenate(folds)
        assert sorted(joined) == list(range(53))
        pos_counts = [int(np.sum(y[f] == 1.0)) for f in folds]
        assert max(pos_counts) - min(pos_counts) <= 1


class TestSelect:
    def _fixed_model(self, bias):
        return SvmModel(
            support_vectors=np.zeros((0, 2)),
            alphas=np.zeros(0),
            labels=np.zeros(0),
            bias=bias,
            gamma=1.0,
            config=SvmConfig(),
            converged=True,
        )

    def test_singleton(self):
        ranked = select_aprt({"only": self._fixed_model(0.4)}, (0.0, 0.0))
        assert ranked == [("only", 0.4)]

    def test_ordering(self):
        ranked = select_aprt(
            {"first": self._fixed_model(0.7), "second": self._fixed_model(-0.2)},
            (0.0, 0.0),
        )
        assert [name for name, _ in ranked] == ["first", "second"]

    def test_tie_breaks_lexicographically(self):
        ranked = select_aprt(
            {"zeta": self._fixed_model(0.5), "alpha": self._fixed_model(0.5)},
            (0.0, 0.0),
        )
        assert [name for name, _ in ranked] == ["alpha", "zeta"]

    def test_appending_worse_model_keeps_ranking(self):
        models = {"a": self._fixed_model(0.7), "b": self._fixed_model(-0.2)}
        before = select_aprt(models, (1.0, 1.0))
        models["z"] = self._fixed_model(-100.0)
        after = select_aprt(models, (1.0, 1.0))
        assert after[:2] == before
        assert after[-1][0] == "z"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_aprt({}, (0.0, 0.0))


class TestMisc:
    def test_median_heuristic_degenerate(self):
        config = SvmConfig(gamma="median-heuristic")
        assert train_svm(np.zeros((5, 2)), [1, -1, 1, -1, 1], config).gamma == 1.0

    def test_median_heuristic_value(self):
        pts = np.array([[0.0, 0.0], [0.0, 2.0]])
        config = SvmConfig(gamma="median-heuristic")
        assert train_svm(pts, [1, -1], config).gamma == pytest.approx(1.0 / 8.0)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(distance, min_size=1, max_size=40))
    @example(values=[0.5, np.nan, 2.0, 1.0])
    @example(values=np.random.default_rng(11).uniform(0.0, 5.0, 41).tolist())
    def test_median_is_numpys(self, values):
        v = np.array(values)
        assert np.array_equal(classify._median(v), np.median(v), equal_nan=True)

    def test_fits_import_no_numpy_ma(self):
        # np.unique and np.median import numpy.ma, ~12 ms in each pool worker
        code = (
            "import sys, numpy as np; from eapr.classify import SvmConfig, train_svm; "
            "x = np.random.default_rng(0).normal(size=(30, 2)); y = np.sign(x[:, 0]); "
            "train_svm(x, y, SvmConfig(kernel='linear')); "
            "train_svm(x, y, SvmConfig(kernel='rbf', gamma='median-heuristic')); "
            "print('numpy.ma' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(classify.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout == "False\n"

    def test_serialization_round_trip(self):
        pts, y = blobs(seed=17)
        model = train_svm(pts, y, SvmConfig(kernel="rbf", seed=17))
        restored = scorer_from_dict(json.loads(json.dumps(model_to_dict(model))))
        grid = np.random.default_rng(18).uniform(-3, 3, (50, 2))
        assert np.allclose(
            decision_values(model, grid),
            [ranker.decision_value(restored, tuple(p)) for p in grid.tolist()],
            atol=1e-12,
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SvmConfig(kernel="poly")
        with pytest.raises(ValueError):
            SvmConfig(C=-1.0)
        with pytest.raises(ValueError):
            SvmConfig(gamma="bogus")
        # NaN fails every comparison, so each bound must be written to reject it.
        for bad in (0.0, -3.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SvmConfig(gamma=bad)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SvmConfig(C=bad)
            with pytest.raises(ValueError):
                SvmConfig(tolerance=bad)


def _pid(_job):
    return os.getpid()


def _job_and_square(job):
    return job, job * job


class TestWorkers:
    @pytest.mark.skipif(classify._usable_cpus() < 2, reason="one usable CPU: no pool")
    def test_jobs_run_in_other_processes(self):
        with classify.fold_pool() as pool:
            pids = pool(_pid, list(range(8)))
        assert len(pids) == 8
        assert os.getpid() not in pids

    def test_one_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(classify, "_usable_cpus", lambda: 1)
        with classify.fold_pool() as pool:
            assert pool(_pid, [0, 1, 2]) == [os.getpid()] * 3

    def test_one_pool_serves_empty_and_small_batches(self, monkeypatch):
        # a GA generation whose masks are all cached is a batch of 0 jobs
        monkeypatch.setattr(classify, "_usable_cpus", lambda: 2)
        batches = [list(range(size)) for size in (0, 1, 7, 75)]
        with classify.fold_pool() as pool:
            results = [pool(_job_and_square, jobs) for jobs in batches]
        assert results == [[_job_and_square(job) for job in jobs] for jobs in batches]

    def test_cross_validate_same_on_one_cpu_and_on_a_pool(self, monkeypatch):
        pts, y = overlapping(3, 60)
        tasks = [(pts, y, cv_splits(y, 5, seed), SvmConfig(kernel=kernel, seed=seed))
                 for seed, kernel in ((4, "rbf"), (5, "linear"))]
        metrics, predictions = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(classify, "_usable_cpus", lambda: cpus)
            metrics.append(cross_validate(pts, y, 5, SvmConfig(seed=4)))
            with classify.fold_pool() as pool:
                predictions.append([([model_digest(m) for m in models], predicted.tolist())
                                    for models, predicted in cross_val_predict(tasks, pool)])
        assert metrics[0] == metrics[1]
        assert predictions[0] == predictions[1]
