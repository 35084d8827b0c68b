"""Standardization of the selected feature columns and their PCA projection
onto a 2D instance space.

The eigendecomposition is a cyclic Jacobi iteration: the selected feature
count is small (a dozen or so), the covariance is symmetric, and Jacobi keeps
the whole pipeline free of external linear-algebra solvers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Coordinates2D, FeatureSubset, InstanceTable

JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


class NonFiniteInput(Exception):
    pass


class ConvergenceFailure(Exception):
    pass


class FeatureMismatch(Exception):
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


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    if apq == 0.0:
        return
    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
    if theta >= 0.0:
        t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
    else:
        t = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0

    vec_p = v[:, p].copy()
    vec_q = v[:, q].copy()
    v[:, p] = c * vec_p - s * vec_q
    v[:, q] = s * vec_p + c * vec_q


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    fixed = vectors.copy()
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0.0:
            fixed[:, j] = -col
    return fixed


def symmetric_eig(
    matrix: np.ndarray,
    off_tol: float = JACOBI_OFF_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a symmetric matrix by cyclic Jacobi sweeps.

    Returns eigenvalues in descending order and the matching eigenvectors as
    columns, each sign-fixed. Exact-eigenvalue ties are ordered by the
    lexicographic comparison of the sign-fixed vectors.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("matrix contains NaN or infinite entries")
    n = a.shape[0]
    v = np.eye(n)

    for sweep in range(max_sweeps + 1):
        off = np.abs(a - np.diag(np.diag(a))).max() if n > 1 else 0.0
        if off <= off_tol:
            break
        if sweep == max_sweeps:
            raise ConvergenceFailure(f"Jacobi did not converge in {max_sweeps} sweeps")
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, v, p, q)

    values = np.diag(a).copy()
    vectors = _fix_signs(v)
    order = sorted(range(n), key=lambda i: (-values[i], tuple(vectors[:, i])))
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
        raise FeatureMismatch("scaling does not match matrix width")

    return PcaModel(
        scaling=scaling,
        loadings=vectors[:, :2].copy(),
        eigenvalues=values,
        explained_variance_2d=explained,
    )


def transform(
    model: PcaModel, table: InstanceTable, subset: FeatureSubset
) -> Coordinates2D:
    """Project a table's rows into the model's 2D space, one (z1, z2) per row."""
    expected = set(model.feature_names) | set(model.scaling.dropped_features)
    if set(subset.selected) != expected:
        raise FeatureMismatch(
            f"subset {sorted(subset.selected)} does not match model features "
            f"{sorted(expected)}"
        )
    missing = set(model.feature_names) - set(table.feature_names)
    if missing:
        raise FeatureMismatch(f"table lacks features: {sorted(missing)}")
    return project_features(model, table.feature_matrix(model.feature_names))


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
    """Standardize the subset's columns, fit the PCA model, project the table.

    Raises AllFeaturesDropped when fewer than 2 columns keep any variance.
    """
    matrix, scaling = standardize(table, subset)
    if matrix.shape[1] < 2:
        raise AllFeaturesDropped(f"only 1 of {len(subset)} columns has variance")
    model = fit_pca(matrix, feature_names=scaling.feature_names, scaling=scaling)
    return model, matrix @ model.loadings


def model_to_dict(model: PcaModel) -> dict:
    return {
        "features": list(model.feature_names),
        "means": list(model.scaling.means),
        "stds": list(model.scaling.stds),
        "dropped": list(model.scaling.dropped_features),
        "loadings": [[float(a), float(b)] for a, b in model.loadings],
        "eigenvalues": [float(v) for v in model.eigenvalues],
        "explained_variance_2d": float(model.explained_variance_2d),
    }


def model_from_dict(data: dict) -> PcaModel:
    scaling = ScalingParams(
        feature_names=tuple(data["features"]),
        means=tuple(data["means"]),
        stds=tuple(data["stds"]),
        dropped_features=tuple(data["dropped"]),
    )
    return PcaModel(
        scaling=scaling,
        loadings=np.array(data["loadings"], dtype=float),
        eigenvalues=np.array(data["eigenvalues"], dtype=float),
        explained_variance_2d=float(data["explained_variance_2d"]),
    )
