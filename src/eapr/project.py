"""Standardization of the selected feature columns and their PCA projection
onto a 2D instance space.

The eigendecomposition is LAPACK's symmetric solver (``np.linalg.eigh``).
``symmetric_eig`` fixes each eigenvector's sign and the order of tied
eigenvalues by its own rules, not by the solver's conventions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Coordinates2D, FeatureSubset, InstanceTable


class NonFiniteInput(Exception):
    pass


class AllFeaturesDropped(ValueError):
    """Too few of a subset's columns keep any variance to project."""


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature standardization parameters (population std, divisor N).

    Zero-variance columns are excluded from ``feature_names`` and listed in
    ``dropped_features``.
    """

    feature_names: tuple[str, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    dropped_features: tuple[str, ...]


@dataclass(frozen=True)
class PcaModel:
    """Standardization parameters plus the top-2 eigenvectors of the covariance.

    ``loadings`` is (m, 2): column j holds eigenvector j, rows aligned with
    ``scaling.feature_names``. ``eigenvalues`` is the full descending list.
    """

    scaling: ScalingParams
    loadings: np.ndarray
    eigenvalues: np.ndarray
    explained_variance_2d: float

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.scaling.feature_names


# Relative threshold under which a column counts as zero-variance.
_ZERO_STD = 1e-12


def standardize(
    table: InstanceTable, subset: FeatureSubset
) -> tuple[np.ndarray, ScalingParams]:
    """Center and scale the subset's columns to mean 0, population std 1.

    Zero-variance columns are dropped and reported. Raises AllFeaturesDropped
    when nothing survives.
    """
    if len(table) < 2:
        raise ValueError("standardize requires at least 2 rows")
    names = table.ordered_subset(subset)
    matrix = table.feature_matrix(names)
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0)  # population (divisor N)

    keep = stds > _ZERO_STD * np.maximum(1.0, np.abs(means))
    dropped = tuple(n for n, k in zip(names, keep) if not k)
    kept_names = tuple(n for n, k in zip(names, keep) if k)
    if not kept_names:
        raise AllFeaturesDropped(f"all {len(names)} columns have zero variance")

    standardized = (matrix[:, keep] - means[keep]) / stds[keep]
    params = ScalingParams(
        feature_names=kept_names,
        means=tuple(float(v) for v in means[keep]),
        stds=tuple(float(v) for v in stds[keep]),
        dropped_features=dropped,
    )
    return standardized, params


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    fixed = vectors.copy()
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0.0:
            fixed[:, j] = -col
    return fixed


def symmetric_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a symmetric matrix with LAPACK (``np.linalg.eigh``).

    Returns eigenvalues in descending order and the matching eigenvectors as
    columns, each sign-fixed. Exact-eigenvalue ties are ordered by the
    lexicographic comparison of the sign-fixed vectors. A LAPACK failure
    raises ``np.linalg.LinAlgError``, a ValueError.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("matrix contains NaN or infinite entries")
    values, v = np.linalg.eigh(a)
    vectors = _fix_signs(v)
    order = sorted(range(len(values)), key=lambda i: (-values[i], tuple(vectors[:, i])))
    return values[order], vectors[:, order]


def fit_pca(
    matrix: np.ndarray,
    feature_names: tuple[str, ...] | None = None,
    scaling: ScalingParams | None = None,
) -> PcaModel:
    """Fit the 2D projection from an already-standardized (n, m) matrix.

    ``scaling`` attaches the parameters used to standardize the input so the
    model can later project raw tables; when omitted, an identity scaling is
    assumed. Covariance uses divisor N-1.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2D matrix")
    n, m = x.shape
    if n < 3:
        raise ValueError("need at least 3 rows")
    if m < 2:
        raise ValueError("need at least 2 columns")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("matrix contains NaN or infinite entries")

    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    values, vectors = symmetric_eig(cov)
    values = np.maximum(values, 0.0)

    total = float(values.sum())
    explained = float(values[0] + values[1]) / total if total > 0.0 else 0.0

    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(m))
    if scaling is None:
        scaling = ScalingParams(
            feature_names=feature_names,
            means=(0.0,) * m,
            stds=(1.0,) * m,
            dropped_features=(),
        )
    if len(scaling.feature_names) != m:
        raise ValueError("scaling does not match matrix width")

    return PcaModel(
        scaling=scaling,
        loadings=vectors[:, :2].copy(),
        eigenvalues=values,
        explained_variance_2d=explained,
    )


def project_features(model: PcaModel, raw: np.ndarray) -> np.ndarray:
    """Standardize raw feature values with the model's scaling and project
    them. The last axis of ``raw`` follows ``model.feature_names``."""
    standardized = (raw - np.asarray(model.scaling.means)) / np.asarray(model.scaling.stds)
    return standardized @ model.loadings


def explained_variance(model: PcaModel) -> np.ndarray:
    """Per-component share of total variance, descending."""
    total = float(model.eigenvalues.sum())
    if total <= 0.0:
        return np.zeros_like(model.eigenvalues)
    return model.eigenvalues / total


def fit_projection(
    table: InstanceTable, subset: FeatureSubset
) -> tuple[PcaModel, Coordinates2D]:
    """Standardize the subset's columns, fit the PCA model, project the table
    by ``project_features``, whose formulas ``ranker.project`` applies to the
    one vector of ``eapr select``.

    Raises AllFeaturesDropped when fewer than 2 columns keep any variance.
    """
    matrix, scaling = standardize(table, subset)
    if matrix.shape[1] < 2:
        raise AllFeaturesDropped(f"only 1 of {len(subset)} columns has variance")
    model = fit_pca(matrix, feature_names=scaling.feature_names, scaling=scaling)
    return model, project_features(model, table.feature_matrix(model.feature_names))
