"""Standardization of the selected feature columns and their PCA projection
onto a 2D instance space. The fitted model is a ``ranker.Projection`` of
floats: the one type that pca_model.json stores and ``eapr select`` reads.

The eigendecomposition is LAPACK's symmetric solver (``np.linalg.eigh``).
``symmetric_eig`` fixes each eigenvector's sign and the order of tied
eigenvalues by its own rules, not by the solver's conventions.
"""
from __future__ import annotations

import numpy as np

from .model import Coordinates2D, FeatureSubset, InstanceTable
from .ranker import Projection


class NonFiniteInput(Exception):
    pass


class AllFeaturesDropped(ValueError):
    """Too few of a subset's columns keep any variance to project."""


# Relative threshold under which a column counts as zero-variance.
_ZERO_STD = 1e-12


def standardize(
    table: InstanceTable, subset: FeatureSubset
) -> tuple[np.ndarray, tuple[str, ...], tuple[float, ...], tuple[float, ...], tuple[str, ...]]:
    """Center and scale the subset's columns to mean 0, population std 1
    (divisor N).

    Returns the standardized matrix, then the kept columns' names, means and
    stds, then the names of the zero-variance columns, which are dropped.
    Raises AllFeaturesDropped when nothing survives.
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
    kept_means, kept_stds = tuple(means[keep].tolist()), tuple(stds[keep].tolist())
    return standardized, kept_names, kept_means, kept_stds, dropped


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


def fit_pca(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Fit the 2D projection of an already-standardized (n, m) matrix.

    Returns the covariance's eigenvalues in descending order, the (m, 2)
    loadings (column j holds eigenvector j) and the share of the variance the
    two keep. Covariance uses divisor N-1.
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
    return values, vectors[:, :2], explained


def project_features(model: Projection, raw: np.ndarray) -> np.ndarray:
    """Standardize raw feature values with the model's means and stds and
    project them. The last axis of ``raw`` follows ``model.features``."""
    standardized = (raw - np.asarray(model.means)) / np.asarray(model.stds)
    return standardized @ np.asarray(model.loadings)


def explained_variance(model: Projection) -> np.ndarray:
    """Per-component share of total variance, descending."""
    eigenvalues = np.asarray(model.eigenvalues)
    total = float(eigenvalues.sum())
    if total <= 0.0:
        return np.zeros_like(eigenvalues)
    return eigenvalues / total


def fit_projection(
    table: InstanceTable, subset: FeatureSubset
) -> tuple[Projection, Coordinates2D]:
    """Standardize the subset's columns, fit the PCA model, project the table
    by ``project_features``, whose formulas ``ranker.project`` applies to the
    one vector of ``eapr select``. The model is the ``Projection`` that
    pca_model.json stores.

    Raises AllFeaturesDropped when fewer than 2 columns keep any variance.
    """
    matrix, names, means, stds, dropped = standardize(table, subset)
    if matrix.shape[1] < 2:
        raise AllFeaturesDropped(f"only 1 of {len(subset.selected)} columns has variance")
    eigenvalues, loadings, explained = fit_pca(matrix)
    model = Projection(
        features=names,
        dropped=dropped,
        means=means,
        stds=stds,
        loadings=tuple(map(tuple, loadings.tolist())),
        eigenvalues=tuple(eigenvalues.tolist()),
        explained_variance_2d=explained,
    )
    return model, project_features(model, table.feature_matrix(names))
