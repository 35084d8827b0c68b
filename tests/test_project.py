import json

import numpy as np
import pytest

from eapr.artifacts import pca_to_dict, projection_from_dict
from eapr.ingest import aggregate_rows, parse_instance_table
from eapr.model import FeatureSubset
from eapr.project import (
    NonFiniteInput,
    explained_variance,
    fit_pca,
    fit_projection,
    project_features,
    symmetric_eig,
)
from eapr.ranker import Projection

from conftest import GOOD, make_table
from oracles import charpoly_roots


def _standardized(data, ddof=0):
    arr = np.asarray(data, dtype=float)
    return (arr - arr.mean(axis=0)) / arr.std(axis=0, ddof=ddof)


def _fit(values):
    """``fit_projection`` of a table with one row per row of ``values``,
    projected on all its columns."""
    names = [f"f{j}" for j in range(values.shape[1])]
    table = make_table(
        names, ["A"], [(f"r{i}", "", tuple(v), (GOOD,)) for i, v in enumerate(values)]
    )
    model, coords = fit_projection(table, FeatureSubset.of(names))
    return table, model, coords


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
        eigenvalues, _, explained = fit_pca(_standardized(pts, ddof=1))
        assert eigenvalues == pytest.approx([2.0, 0.0], abs=1e-12)
        assert explained == 1.0

    def test_two_features_always_fully_explained(self):
        rng = np.random.default_rng(2)
        _, _, explained = fit_pca(_standardized(rng.normal(0, 1, (25, 2))))
        assert explained == 1.0

    def test_random_matrix_matches_charpoly_oracle(self):
        rng = np.random.default_rng(3)
        data = _standardized(rng.normal(0, 1, (5, 4)))
        eigenvalues, _, _ = fit_pca(data)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (len(data) - 1)
        assert np.abs(eigenvalues - charpoly_roots(cov)).max() < 1e-8

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(4)
        data = _standardized(rng.normal(0, 1, (40, 6)))
        eigenvalues, _, _ = fit_pca(data)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (len(data) - 1)
        assert eigenvalues.sum() == pytest.approx(np.trace(cov), abs=1e-9)

    def test_loading_columns_orthonormal(self):
        rng = np.random.default_rng(5)
        _, loadings, _ = fit_pca(_standardized(rng.normal(0, 1, (30, 5))))
        assert loadings.shape == (5, 2)
        gram = loadings.T @ loadings
        assert np.abs(gram - np.eye(2)).max() < 1e-9

    def test_column_order_permutes_loadings(self):
        rng = np.random.default_rng(6)
        data = _standardized(rng.normal(0, 1, (30, 4)))
        perm = [2, 0, 3, 1]
        eigenvalues_a, loadings_a, _ = fit_pca(data)
        eigenvalues_b, loadings_b, _ = fit_pca(data[:, perm])
        assert np.allclose(eigenvalues_a, eigenvalues_b, atol=1e-9)
        assert np.allclose(loadings_a[perm, :], loadings_b, atol=1e-9)

    def test_row_order_invariant(self):
        rng = np.random.default_rng(7)
        data = _standardized(rng.normal(0, 1, (30, 4)))
        _, loadings_a, _ = fit_pca(data)
        _, loadings_b, _ = fit_pca(data[rng.permutation(30)])
        assert np.allclose(loadings_a, loadings_b, atol=1e-9)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            fit_pca(np.zeros((5, 1)))
        with pytest.raises(NonFiniteInput):
            fit_pca(np.full((4, 2), np.nan))


class TestTransform:
    def _fitted(self, seed=8, n=30):
        return _fit(np.random.default_rng(seed).normal(2.0, 3.0, (n, 3)))

    def test_mean_instance_maps_to_origin(self):
        _, model, _ = self._fitted()
        mean_table = make_table(
            list(model.features), ["A"],
            [("mean", "", model.means, (GOOD,))],
        )
        z = project_features(model, mean_table.feature_matrix(model.features))
        assert np.abs(z).max() < 1e-12

    def test_reflection_negates(self):
        _, model, _ = self._fitted()
        means = np.asarray(model.means)
        offset = np.array([1.0, -2.0, 0.5])
        pair = make_table(
            list(model.features), ["A"],
            [
                ("plus", "", tuple(means + offset), (GOOD,)),
                ("minus", "", tuple(means - offset), (GOOD,)),
            ],
        )
        z = project_features(model, pair.feature_matrix(model.features))
        assert np.abs(z[0] + z[1]).max() < 1e-9

    def test_projected_variance_equals_eigenvalue(self):
        _, model, coords = self._fitted(n=50)
        assert np.var(coords[:, 0], ddof=1) == pytest.approx(
            model.eigenvalues[0], abs=1e-8
        )
        assert np.var(coords[:, 1], ddof=1) == pytest.approx(
            model.eigenvalues[1], abs=1e-8
        )

    def test_projected_mean_is_zero(self):
        _, _, coords = self._fitted(n=40)
        assert np.abs(coords.mean(axis=0)).max() < 1e-9

    def test_fit_projection_equals_transform_to_the_bit(self, synthetic60_path):
        # one projection path: the fit's coordinates are project_features' of
        # the table, here with a zero-variance column that the scaling drops
        rows = [line.split(",", 2) for line in synthetic60_path.read_text().splitlines()]
        csv = "\n".join(f"{i},{d},{'z' if n == 0 else 2.5},{rest}"
                        for n, (i, d, rest) in enumerate(rows))
        table = aggregate_rows(parse_instance_table(csv.encode()))
        subset = FeatureSubset.of(["f1", "f3", "f4", "z"])
        model, coords = fit_projection(table, subset)
        assert model.dropped == ("z",)
        raw = table.feature_matrix(model.features)
        assert np.array_equal(coords, project_features(model, raw))


class TestExplainedVariance:
    def test_ratio_arithmetic(self):
        model = Projection(("a", "b"), (), (0.0, 0.0), (1.0, 1.0), ((1.0, 0.0), (0.0, 1.0)),
                           (3.0, 1.0), 1.0)
        assert list(explained_variance(model)) == [0.75, 0.25]

    def test_isotropic_data(self):
        # build exact identity covariance: orthonormalized centered columns
        rng = np.random.default_rng(9)
        m, n = 4, 30
        raw = rng.normal(0, 1, (n, m))
        centered = raw - raw.mean(axis=0)
        q, _ = np.linalg.qr(centered)
        data = q[:, :m] * np.sqrt(n - 1)
        _, model, _ = _fit(data)
        assert np.allclose(explained_variance(model), 1.0 / m, atol=1e-9)

    def test_ratios_sum_to_one(self):
        rng = np.random.default_rng(10)
        _, model, _ = _fit(rng.normal(0, 1, (20, 5)))
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
        model = Projection(
            features=self.TEMPLATE_FEATURES,
            dropped=(),
            means=(0.0,) * 9,
            stds=(1.0,) * 9,
            loadings=self.TEMPLATE_LOADINGS,
            eigenvalues=tuple(np.linspace(3.0, 0.1, 9).tolist()),
            explained_variance_2d=0.87,
        )
        data = pca_to_dict(model)
        assert data["features"] == list(self.TEMPLATE_FEATURES)
        assert len(data["loadings"]) == 9
        assert data["loadings"][0] == [0.38, -0.02]
        assert data["features"][0] == "MOA"
        assert data["loadings"][data["features"].index("CAM")] == [-0.34, 0.01]

    def test_round_trip(self):
        # the model pca_model.json stores is the fitted one, to the bit
        rng = np.random.default_rng(11)
        table, model, coords = _fit(rng.normal(0, 1, (30, 3)))
        restored = projection_from_dict(json.loads(json.dumps(pca_to_dict(model))))
        assert restored == model
        z = project_features(restored, table.feature_matrix(restored.features))
        assert np.array_equal(z, coords)
