import numpy as np
import pytest

from eapr.artifacts import pca_from_dict as model_from_dict, pca_to_dict as model_to_dict
from eapr.ingest import aggregate_rows, parse_instance_table
from eapr.model import FeatureSubset
from eapr.project import (
    FeatureMismatch,
    NonFiniteInput,
    PcaModel,
    ScalingParams,
    explained_variance,
    fit_pca,
    fit_projection,
    symmetric_eig,
    transform,
)

from conftest import GOOD, make_table
from oracles import charpoly_roots


def _standardized(data, ddof=0):
    arr = np.asarray(data, dtype=float)
    return (arr - arr.mean(axis=0)) / arr.std(axis=0, ddof=ddof)


class TestEig:
    def test_matches_charpoly_roots(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 4, 5, 6):
            data = rng.normal(0, 1, (30, m))
            cov = np.cov(data, rowvar=False)
            values, vectors = symmetric_eig(cov)
            assert np.abs(values - charpoly_roots(cov)).max() < 1e-8
            assert np.abs(vectors.T @ vectors - np.eye(m)).max() < 1e-9
            recon = vectors @ np.diag(values) @ vectors.T
            assert np.abs(recon - cov).max() < 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            symmetric_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_diagonal_needs_no_sweeps(self):
        values, _ = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
        assert list(values) == [3.0, 2.0, 1.0]

    def test_sign_convention(self):
        rng = np.random.default_rng(1)
        cov = np.cov(rng.normal(0, 1, (20, 4)), rowvar=False)
        _, vectors = symmetric_eig(cov)
        for j in range(4):
            col = vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_exact_ties_ordered_deterministically(self):
        # identity covariance: every eigenvalue ties, vector lex order decides
        values, vectors = symmetric_eig(np.eye(3))
        assert list(values) == [1.0, 1.0, 1.0]
        columns = [tuple(vectors[:, j]) for j in range(3)]
        assert columns == sorted(columns)
        again_values, again_vectors = symmetric_eig(np.eye(3))
        assert np.array_equal(vectors, again_vectors)
        assert np.array_equal(values, again_values)


class TestFitPca:
    def test_collinear_two_features(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        model = fit_pca(_standardized(pts, ddof=1))
        assert model.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-12)
        assert model.explained_variance_2d == 1.0

    def test_two_features_always_fully_explained(self):
        rng = np.random.default_rng(2)
        model = fit_pca(_standardized(rng.normal(0, 1, (25, 2))))
        assert model.explained_variance_2d == 1.0

    def test_random_matrix_matches_charpoly_oracle(self):
        rng = np.random.default_rng(3)
        data = _standardized(rng.normal(0, 1, (5, 4)))
        model = fit_pca(data)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (len(data) - 1)
        assert np.abs(model.eigenvalues - charpoly_roots(cov)).max() < 1e-8

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(4)
        data = _standardized(rng.normal(0, 1, (40, 6)))
        model = fit_pca(data)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (len(data) - 1)
        assert model.eigenvalues.sum() == pytest.approx(np.trace(cov), abs=1e-9)

    def test_loading_columns_orthonormal(self):
        rng = np.random.default_rng(5)
        model = fit_pca(_standardized(rng.normal(0, 1, (30, 5))))
        gram = model.loadings.T @ model.loadings
        assert np.abs(gram - np.eye(2)).max() < 1e-9

    def test_column_order_permutes_loadings(self):
        rng = np.random.default_rng(6)
        data = _standardized(rng.normal(0, 1, (30, 4)))
        perm = [2, 0, 3, 1]
        model_a = fit_pca(data)
        model_b = fit_pca(data[:, perm])
        assert np.allclose(model_a.eigenvalues, model_b.eigenvalues, atol=1e-9)
        assert np.allclose(model_a.loadings[perm, :], model_b.loadings, atol=1e-9)

    def test_row_order_invariant(self):
        rng = np.random.default_rng(7)
        data = _standardized(rng.normal(0, 1, (30, 4)))
        model_a = fit_pca(data)
        model_b = fit_pca(data[rng.permutation(30)])
        assert np.allclose(model_a.loadings, model_b.loadings, atol=1e-9)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            fit_pca(np.zeros((5, 1)))
        with pytest.raises(NonFiniteInput):
            fit_pca(np.full((4, 2), np.nan))


class TestTransform:
    def _fitted(self, seed=8, n=30):
        rng = np.random.default_rng(seed)
        names = ["f1", "f2", "f3"]
        values = rng.normal(2.0, 3.0, (n, 3))
        table = make_table(
            names, ["A"],
            [(f"r{i}", "", tuple(v), (GOOD,)) for i, v in enumerate(values)],
        )
        subset = FeatureSubset.of(names)
        model, coords = fit_projection(table, subset)
        return table, subset, model, coords

    def test_mean_instance_maps_to_origin(self):
        _, subset, model, _ = self._fitted()
        mean_table = make_table(
            list(model.feature_names), ["A"],
            [("mean", "", tuple(model.scaling.means), (GOOD,))],
        )
        z = transform(model, mean_table, subset)
        assert np.abs(z).max() < 1e-12

    def test_reflection_negates(self):
        _, subset, model, _ = self._fitted()
        means = np.asarray(model.scaling.means)
        offset = np.array([1.0, -2.0, 0.5])
        pair = make_table(
            list(model.feature_names), ["A"],
            [
                ("plus", "", tuple(means + offset), (GOOD,)),
                ("minus", "", tuple(means - offset), (GOOD,)),
            ],
        )
        z = transform(model, pair, subset)
        assert np.abs(z[0] + z[1]).max() < 1e-9

    def test_projected_variance_equals_eigenvalue(self):
        _, _, model, coords = self._fitted(n=50)
        assert np.var(coords[:, 0], ddof=1) == pytest.approx(
            model.eigenvalues[0], abs=1e-8
        )
        assert np.var(coords[:, 1], ddof=1) == pytest.approx(
            model.eigenvalues[1], abs=1e-8
        )

    def test_projected_mean_is_zero(self):
        _, _, _, coords = self._fitted(n=40)
        assert np.abs(coords.mean(axis=0)).max() < 1e-9

    def test_subset_mismatch_rejected(self):
        table, _, model, _ = self._fitted()
        with pytest.raises(FeatureMismatch):
            transform(model, table, FeatureSubset.of(["f1", "f2"]))

    def test_fit_projection_equals_transform_to_the_bit(self, synthetic60_path):
        # one projection path: the fit's coordinates are transform's, here
        # with a zero-variance column that the scaling drops
        rows = [line.split(",", 2) for line in synthetic60_path.read_text().splitlines()]
        csv = "\n".join(f"{i},{d},{'z' if n == 0 else 2.5},{rest}"
                        for n, (i, d, rest) in enumerate(rows))
        table = aggregate_rows(parse_instance_table(csv.encode()))
        subset = FeatureSubset.of(["f1", "f3", "f4", "z"])
        model, coords = fit_projection(table, subset)
        assert model.scaling.dropped_features == ("z",)
        assert np.array_equal(coords, transform(model, table, subset))


class TestExplainedVariance:
    def test_ratio_arithmetic(self):
        scaling = ScalingParams(("a", "b"), (0.0, 0.0), (1.0, 1.0), ())
        model = PcaModel(
            scaling=scaling,
            loadings=np.eye(2),
            eigenvalues=np.array([3.0, 1.0]),
            explained_variance_2d=1.0,
        )
        assert list(explained_variance(model)) == [0.75, 0.25]

    def test_isotropic_data(self):
        # build exact identity covariance: orthonormalized centered columns
        rng = np.random.default_rng(9)
        m, n = 4, 30
        raw = rng.normal(0, 1, (n, m))
        centered = raw - raw.mean(axis=0)
        q, _ = np.linalg.qr(centered)
        data = q[:, :m] * np.sqrt(n - 1)
        model = fit_pca(data)
        assert np.allclose(explained_variance(model), 1.0 / m, atol=1e-9)

    def test_ratios_sum_to_one(self):
        rng = np.random.default_rng(10)
        model = fit_pca(_standardized(rng.normal(0, 1, (20, 5))))
        assert explained_variance(model).sum() == pytest.approx(1.0, abs=1e-9)


class TestSerialization:
    # Loading layout kept by the serializer: one row of (z1, z2) weights per
    # selected feature, aligned with the feature list.
    TEMPLATE_FEATURES = (
        "MOA", "AECSL", "PMC", "SPTWNG", "AMC", "CVNI", "VCTC", "CAM", "PUIA",
    )
    TEMPLATE_LOADINGS = (
        (0.38, -0.02),
        (-0.16, 0.19),
        (0.37, -0.04),
        (-0.06, 0.36),
        (0.08, 0.28),
        (0.17, 0.22),
        (0.07, 0.31),
        (-0.34, 0.01),
        (0.12, 0.16),
    )

    def test_nine_feature_layout(self):
        scaling = ScalingParams(
            self.TEMPLATE_FEATURES,
            (0.0,) * 9,
            (1.0,) * 9,
            (),
        )
        model = PcaModel(
            scaling=scaling,
            loadings=np.array(self.TEMPLATE_LOADINGS),
            eigenvalues=np.linspace(3.0, 0.1, 9),
            explained_variance_2d=0.87,
        )
        data = model_to_dict(model)
        assert data["features"] == list(self.TEMPLATE_FEATURES)
        assert len(data["loadings"]) == 9
        assert data["loadings"][0] == [0.38, -0.02]
        assert data["features"][0] == "MOA"
        assert data["loadings"][data["features"].index("CAM")] == [-0.34, 0.01]

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        arr = rng.normal(0, 1, (30, 3))
        names = ["f1", "f2", "f3"]
        table = make_table(
            names, ["A"],
            [(f"r{i}", "", tuple(v), (GOOD,)) for i, v in enumerate(arr)],
        )
        subset = FeatureSubset.of(names)
        model, coords = fit_projection(table, subset)
        restored = model_from_dict(model_to_dict(model))
        assert restored.feature_names == model.feature_names
        assert np.allclose(restored.loadings, model.loadings)
        z = transform(restored, table, subset)
        assert np.allclose(z, coords, atol=1e-12)
