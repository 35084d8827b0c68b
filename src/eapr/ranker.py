"""The ranking of algorithms for one feature vector, on Python floats.

``eapr select`` answers one query per process with a dozen standardized
values, two dot products and one kernel sum per algorithm, so it imports no
numpy: ``project`` and ``decision_value`` apply the formulas of
``project.project_features`` and ``classify.decision_values`` to floats, and
``classify.select_aprt`` ranks by ``rank`` too. ``SvmConfig`` lives here
because models.json stores it with every fit and reading it checks it.

Where numpy gives ``inf`` or ``nan``, a float operation may raise an
``ArithmeticError``: ``ZeroDivisionError`` on a zero std, ``OverflowError``
from ``math.exp``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class SvmConfig:
    """Kernel and optimizer settings.

    ``gamma`` is a positive float or "median-heuristic", which resolves to
    1 / (2 * median(pairwise distances)^2) on the training coordinates.
    Training stops at ``tolerance`` or after ``max_passes * n`` pair updates
    (n training rows). The solver draws no random numbers: ``seed`` seeds only
    the fold split of ``cross_validate`` and labels the model in models.json.
    """

    kernel: str = "rbf"
    C: float = 1.0
    gamma: float | str = "median-heuristic"
    tolerance: float = 1e-3
    max_passes: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not 0.0 < self.C < math.inf:
            raise ValueError("C must be positive and finite")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_passes < 1:
            raise ValueError("max_passes must be positive")
        if isinstance(self.gamma, str):
            if self.gamma != "median-heuristic":
                raise ValueError("gamma must be a float or 'median-heuristic'")
        elif not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")


@dataclass(frozen=True)
class Projection:
    """A ``PcaModel`` as floats: for each of ``features``, in order, its mean,
    its std and its (z1, z2) loadings. ``dropped`` names the zero-variance
    features, which a vector may carry but which are not projected."""

    features: tuple[str, ...]
    dropped: tuple[str, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    loadings: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        m = len(self.features)
        for name in ("means", "stds", "loadings"):
            if len(getattr(self, name)) != m:
                raise ValueError(f"{len(getattr(self, name))} {name} for {m} features")
        if not set(map(len, self.loadings)) <= {2}:
            raise ValueError("a loadings row is not a pair")


@dataclass(frozen=True)
class Scorer:
    """An ``SvmModel``'s decision function as floats."""

    kernel: str
    gamma: float
    support_vectors: tuple[tuple[float, float], ...]
    alphas: tuple[float, ...]
    labels: tuple[float, ...]
    bias: float

    def __post_init__(self) -> None:
        k = len(self.support_vectors)
        if not len(self.alphas) == len(self.labels) == k:
            raise ValueError(
                f"{len(self.alphas)} alphas and {len(self.labels)} labels for {k} support vectors"
            )
        if not set(map(len, self.support_vectors)) <= {2}:
            raise ValueError("a support vector is not a pair")


def project(model: Projection, raw: Sequence[float]) -> tuple[float, float]:
    """Standardize ``raw``, given in ``model.features`` order, and project it."""
    z1 = z2 = 0.0
    for x, mean, std, (l1, l2) in zip(raw, model.means, model.stds, model.loadings, strict=True):
        s = (x - mean) / std
        z1 += s * l1
        z2 += s * l2
    return z1, z2


def decision_value(scorer: Scorer, point: tuple[float, float]) -> float:
    """f(x) = sum_i alpha_i y_i K(x_i, x) + b at one point."""
    if not scorer.support_vectors:
        return scorer.bias
    px, py = point
    linear, gamma = scorer.kernel == "linear", scorer.gamma
    total = 0.0
    for (x, y), a, label in zip(scorer.support_vectors, scorer.alphas, scorer.labels, strict=True):
        if linear:
            k = px * x + py * y
        else:
            dx, dy = px - x, py - y
            k = math.exp(-gamma * (dx * dx + dy * dy))
        total += k * (a * label)
    return total + scorer.bias


def rank(scorers: Mapping[str, Scorer], point: tuple[float, float]) -> list[tuple[str, float]]:
    """Algorithms by descending decision value at ``point``, ties by name."""
    scored = [(name, decision_value(scorer, point)) for name, scorer in scorers.items()]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored
