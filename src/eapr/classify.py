"""Per-algorithm binary SVMs over 2D coordinates, trained with SMO.

Models are one-vs-rest per algorithm (GOOD = +1, BAD = -1); ranking their
decision values on a query point yields the recommended algorithm order.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import ranker
from .model import Coordinates2D
from .ranker import SvmConfig

# Minimum multiplier kept when extracting support vectors.
_SV_EPS = 1e-12
# Floor of the pair curvature in second-order working-set selection, as in
# LIBSVM: it keeps the choice and the step finite where two points coincide.
# Times |d|^2, the curvature below which a line search along d is skipped.
_TAU = 1e-12


class SingleClassLabels(Exception):
    pass


class TooFewInstances(Exception):
    pass


@dataclass(frozen=True)
class SvmModel:
    support_vectors: np.ndarray  # (k, 2)
    alphas: np.ndarray  # (k,)
    labels: np.ndarray  # (k,) of +/-1
    bias: float
    gamma: float  # resolved value actually used
    config: SvmConfig
    converged: bool


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return (diff * diff).sum(axis=2)


def _median(v: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, NaN if it holds a NaN,
    from one partition; ``np.median`` itself imports ``numpy.ma``, which
    would cost each pool worker its import."""
    h = len(v) // 2
    part = np.partition(v, (h - 1, h, -1))  # a NaN sorts last
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[h] if len(v) % 2 else (part[h - 1] + part[h]) / 2.0)


def _median_gamma(sq: np.ndarray) -> float:
    """1 / (2 * median^2) of the pairwise Euclidean distances, from the
    points' squared distance matrix; 1.0 if degenerate."""
    if len(sq) < 2:
        return 1.0
    med = _median(np.sqrt(sq[np.triu_indices(len(sq), k=1)]))
    if med <= 0.0:
        return 1.0
    return 1.0 / (2.0 * med * med)


def _kernel_matrix(kind: str, gamma: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return a @ b.T
    return np.exp(-gamma * _sq_dists(a, b))


def train_svm(
    coords: Coordinates2D, labels: Sequence[float], config: SvmConfig = SvmConfig()
) -> SvmModel:
    """Fit a soft-margin SVM on either kernel by ``_smo_wss2``; the fit is a
    deterministic function of its inputs."""
    x = np.asarray(coords, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("coords and labels must align")
    # comparisons, not np.unique, which imports numpy.ma in each pool worker
    pos, neg = y == 1.0, y == -1.0
    if not (pos | neg).all():
        raise ValueError("labels must be +1/-1")
    if not (pos.any() and neg.any()):
        raise SingleClassLabels("both classes required for training")

    # the squared distances serve both the median heuristic and the rbf kernel
    median = config.gamma == "median-heuristic"
    sq = _sq_dists(x, x) if median or config.kernel == "rbf" else None
    gamma = _median_gamma(sq) if median else float(config.gamma)
    k = x @ x.T if config.kernel == "linear" else np.exp(-gamma * sq)
    alphas, bias, converged = _smo_wss2(k, y, config)

    a = np.array(alphas)
    sv = a > _SV_EPS
    return SvmModel(
        support_vectors=x[sv].copy(),
        alphas=a[sv],
        labels=y[sv].copy(),
        bias=float(bias),
        gamma=gamma,
        config=config,
        converged=converged,
    )


def _smo_wss2(k: np.ndarray, y: np.ndarray, config: SvmConfig) -> tuple[list, float, bool]:
    """SMO with second-order working-set selection (Fan, Chen & Lin 2005, the
    LIBSVM "WSS2" rule) on the kernel matrix ``k``.

    ``F_t = y_t - sum_s alpha_s y_s K_st``. I_up holds the t whose
    ``y_t alpha_t`` may grow, I_low those whose ``y_t alpha_t`` may shrink.
    Each step takes i = argmax F over I_up (m = F_i) and j = argmax
    ``(m - F_t)^2 / a_it`` over the t in I_low with F_t < m, where
    ``a_it = K_ii + K_tt - 2 K_it`` is the curvature along the pair, and
    moves the pair to the optimum on its clipped segment.

    WSS2 converges only linearly (Chen, Fan & Lin 2006), and on flat valleys
    it zig-zags between two pairs that share an index. So a step whose pair
    is that of two steps back, and not that of the last step, is followed by
    one exact line search along d, the sum of the last two steps in
    beta = y alpha space: ``s = F.d / d'Kd``, clipped to the box. The search
    is skipped where ``F.d <= 0`` or ``d'Kd <= _TAU |d|^2``, a floor relative
    to d's scale because these steps can be 1e-7 long. Either way the cycle
    is forgotten. A fit that meets no such cycle takes the WSS2 steps alone.

    Training stops when ``m - M < config.tolerance``, M = min F over I_low
    (Keerthi et al. 2001), or after ``config.max_passes * n`` updates, each
    pair step and each line search counting as one.
    """
    n = len(y)
    c = config.C
    ys = y.tolist()
    diag = k.diagonal()
    curv = diag[:, None] + diag[None, :] - 2.0 * k
    np.maximum(curv, _TAU, out=curv)
    k_rows, curv_rows = list(k), list(curv)
    alphas = [0.0] * n
    # F on I_up (I_low), -inf (+inf) off it: fu peaks on I_up only and fl
    # bottoms out on I_low only. As C > 0, every t is in I_up or I_low, so at
    # least one of the two holds F_t.
    fu = np.where(y > 0.0, y, -np.inf)  # alpha = 0: F = y
    fl = np.where(y > 0.0, np.inf, y)
    gain, row = np.empty(n), np.empty(n)

    def refresh(s: int, f_s: float) -> None:
        """Store F_s in fu/fl according to alpha_s's place in the box."""
        a_s, pos = alphas[s], ys[s] > 0.0
        fu[s] = f_s if (a_s < c if pos else a_s > 0.0) else -np.inf
        fl[s] = f_s if (a_s > 0.0 if pos else a_s < c) else np.inf

    def line_search(*steps: tuple) -> bool:
        """Move beta = y alpha by s d to the optimum of the ray the box leaves,
        d = the sum of the pair ``steps`` (i, j, t); False, with no move,
        where d does not ascend, curves less than _TAU |d|^2 or leaves the
        box at once."""
        d: dict[int, float] = {}
        for i, j, t in steps:
            d[i] = d.get(i, 0.0) + t
            d[j] = d.get(j, 0.0) - t
        # (s, d_s, F_s) of every index d moves
        moved = [(s, d_s, fu.item(s) if fu.item(s) > -np.inf else fl.item(s))
                 for s, d_s in d.items() if d_s != 0.0]
        slope = sum(d_s * f_s for _, d_s, f_s in moved)  # F.d
        if slope <= 0.0:
            return False
        kd = sum(d_s * k_rows[s] for s, d_s, _ in moved)
        curve = sum(d_s * kd.item(s) for s, d_s, _ in moved)  # d'Kd
        if curve <= _TAU * sum(d_s * d_s for _, d_s, _ in moved):
            return False
        size, limit = slope / curve, None
        for s, d_s, _ in moved:  # alpha_s moves by size * y_s d_s
            room = (c - alphas[s] if ys[s] * d_s > 0.0 else -alphas[s]) / (ys[s] * d_s)
            if room <= size:
                size, limit = room, s
        if size <= 0.0:
            return False
        for s, d_s, _ in moved:
            a_s = alphas[s] + size * ys[s] * d_s
            if s == limit:
                a_s = c if ys[s] * d_s > 0.0 else 0.0
            alphas[s] = 0.0 if a_s <= 0.0 else c if a_s >= c else a_s
        np.multiply(kd, size, out=kd)
        np.subtract(fu, kd, out=fu)
        np.subtract(fl, kd, out=fl)
        for s, _, f_s in moved:
            refresh(s, f_s - kd.item(s))
        return True

    converged = False
    before = last = None  # (i, j, t) of the pair steps two back and one back
    updates, cap = 0, config.max_passes * n
    while updates < cap:
        i = int(fu.argmax())
        m = fu.item(i)
        np.subtract(m, fl, out=gain)  # m - F_t on I_low, -inf off it
        if gain.item(gain.argmax()) < config.tolerance:  # m - M
            converged = True
            break
        curv_i = curv_rows[i]
        np.maximum(gain, 0.0, out=gain)
        np.multiply(gain, gain, out=gain)
        np.divide(gain, curv_i, out=gain)
        j = int(gain.argmax())

        # move y_i alpha_i up and y_j alpha_j down by t, keeping sum(alpha y)
        ai, aj, yi, yj, f_j = alphas[i], alphas[j], ys[i], ys[j], fl.item(j)
        room_i = c - ai if yi > 0.0 else ai
        room_j = aj if yj > 0.0 else c - aj
        t = min((m - f_j) / curv_i.item(j), room_i, room_j)
        alphas[i] = (c if yi > 0.0 else 0.0) if t == room_i else ai + yi * t
        alphas[j] = (0.0 if yj > 0.0 else c) if t == room_j else aj - yj * t
        np.subtract(k_rows[i], k_rows[j], out=row)
        np.multiply(row, t, out=row)
        np.subtract(fu, row, out=fu)
        np.subtract(fl, row, out=fl)
        refresh(i, m - row.item(i))
        refresh(j, f_j - row.item(j))
        updates += 1

        step = (i, j, t)
        if before is None or before[:2] != (i, j) or last[:2] == (i, j) or updates == cap:
            before, last = last, step
            continue
        if line_search(last, step):
            updates += 1
        before = last = None

    a = np.array(alphas)
    free = (a > 0.0) & (a < c)
    if free.any():  # a free multiplier's point lies on the margin: b = F_t
        bias = float(fu[free].mean())
    else:
        bias = 0.5 * (float(fu.max()) + float(fl.min()))
    return alphas, bias, converged


def decision_values(model: SvmModel, coords: Coordinates2D) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(x_i, x) + b for each query point."""
    q = np.atleast_2d(np.asarray(coords, dtype=float))
    if model.support_vectors.shape[0] == 0:
        return np.full(q.shape[0], model.bias)
    k = _kernel_matrix(model.config.kernel, model.gamma, q, model.support_vectors)
    return k @ (model.alphas * model.labels) + model.bias


@dataclass(frozen=True)
class ClassifierMetrics:
    """Pooled held-out metrics for one binary classifier. Precision and recall
    are None when undefined (no predicted / no actual positives)."""

    accuracy: float
    precision: float | None
    recall: float | None


def compute_metrics(y_true: Sequence[float], y_pred: Sequence[float]) -> ClassifierMetrics:
    t = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    if t.shape != p.shape or t.size == 0:
        raise ValueError("label vectors must be non-empty and aligned")
    tp = int(np.sum((t == 1.0) & (p == 1.0)))
    fp = int(np.sum((t == -1.0) & (p == 1.0)))
    fn = int(np.sum((t == 1.0) & (p == -1.0)))
    accuracy = float(np.mean(t == p))
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / (tp + fn) if (tp + fn) > 0 else None
    return ClassifierMetrics(accuracy, precision, recall)


def stratified_folds(
    labels: Sequence[float], folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Deal each class's (shuffled) indices round-robin into ``folds`` test sets."""
    y = np.asarray(labels, dtype=float)
    assignments: list[list[int]] = [[] for _ in range(folds)]
    for cls in (1.0, -1.0):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(len(members))]
        for pos, idx in enumerate(members):
            assignments[pos % folds].append(int(idx))
    return [np.array(sorted(a), dtype=int) for a in assignments]


def cv_splits(
    labels: np.ndarray, folds: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """The (test rows, training mask) of each fold of a stratified CV of the
    +1/-1 ``labels`` into k = min(folds, n_pos, n_neg) folds, dealt by
    ``seed``; None, so no CV, unless each class has at least 2 rows."""
    n_pos, n_neg = int(np.sum(labels == 1.0)), int(np.sum(labels == -1.0))
    if min(n_pos, n_neg) < 2:
        return None
    splits = []
    rng = np.random.default_rng(seed)
    for test_idx in stratified_folds(labels, min(folds, n_pos, n_neg), rng):
        train_mask = np.ones(len(labels), dtype=bool)
        train_mask[test_idx] = False
        splits.append((test_idx, train_mask))
    return splits


def cross_val_predict(tasks: list[tuple], pool) -> list[tuple[list[SvmModel], np.ndarray]]:
    """Fit every split of every task ``(x, y, splits, config)``, splits as
    ``cv_splits`` gives them, as one batch of jobs on ``pool`` (see
    ``fold_pool``). Per task, return each split's model and every row's +1/-1
    prediction from the split whose test rows hold it."""
    jobs = [(x[train], y[train], x[test_idx], config)
            for x, y, splits, config in tasks for test_idx, train in splits]
    results = iter(pool(_fit_fold, jobs))
    out = []
    for _, y, splits, _ in tasks:
        models, predicted = [], np.empty(len(y))
        for (test_idx, _), (model, labels) in zip(splits, results):
            models.append(model)
            predicted[test_idx] = labels
        out.append((models, predicted))
    return out


def cross_validate(
    coords: Coordinates2D,
    labels: Sequence[float],
    folds: int,
    config: SvmConfig = SvmConfig(),
    pool=None,
) -> ClassifierMetrics:
    """Stratified k-fold CV (``cv_splits``, seeded by ``config.seed``): the
    metrics of every row's held-out prediction, by ``cross_val_predict`` on
    ``pool`` or on one opened for the call."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    y = np.asarray(labels, dtype=float)
    splits = cv_splits(y, folds, config.seed)
    if splits is None:
        if not ((y == 1.0).any() and (y == -1.0).any()):
            raise SingleClassLabels("both classes required")
        raise TooFewInstances("need at least 2 instances of each class")
    task = (np.asarray(coords, dtype=float), y, splits, config)
    with fold_pool(pool) as pool:
        [(_, predicted)] = cross_val_predict([task], pool)
    return compute_metrics(y, predicted)


def _fit_fold(job: tuple) -> tuple[SvmModel, np.ndarray]:
    """Train on a fold's training rows; return the model and its +1/-1
    predictions on the fold's test rows."""
    train_x, train_y, test_x, config = job
    model = train_svm(train_x, train_y, config)
    return model, np.where(decision_values(model, test_x) >= 0.0, 1.0, -1.0)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the host cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextmanager
def fold_pool(shared=None):
    """Yield ``pool(fn, jobs) -> [fn(job) for job in jobs]`` for every batch
    of fold fits in a run; a ``shared`` pool already open is yielded as is.

    With two or more usable CPUs and ``fork``, every batch runs on one
    process pool with a worker per usable CPU, sent in chunks of about a
    quarter of a worker's share; otherwise the batches run in this process.
    Results come back in job order and each job depends on its own inputs
    alone, so the results do not depend on the number of workers."""
    if shared is not None:
        yield shared
        return
    workers = _usable_cpus() if hasattr(os, "fork") else 1
    executor = None

    def pool(fn, jobs: list) -> list:
        nonlocal executor
        if workers < 2 or not jobs:
            return [fn(job) for job in jobs]
        if executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # fork, not spawn: a spawned worker imports numpy and eapr again,
            # which costs more than a generation's fits. The workers fork at
            # this first batch, before the executor starts its thread; the
            # program starts no threads and OpenBLAS stops its own around a fork.
            context = multiprocessing.get_context("fork")
            executor = ProcessPoolExecutor(workers, mp_context=context)
        chunk = -(-len(jobs) // (4 * workers))
        return list(executor.map(fn, jobs, chunksize=chunk))

    try:
        yield pool
    finally:
        if executor is not None:
            executor.shutdown()


def select_aprt(
    models: Mapping[str, SvmModel], point: Sequence[float]
) -> list[tuple[str, float]]:
    """Rank algorithms for a point by descending decision value, ties by name:
    ``ranker.rank`` on the models' float form, as ``eapr select`` ranks."""
    if not models:
        raise ValueError("at least one model required")
    scorers = {
        name: ranker.Scorer(
            kernel=model.config.kernel,
            gamma=model.gamma,
            support_vectors=tuple(map(tuple, model.support_vectors.tolist())),
            alphas=tuple(model.alphas.tolist()),
            labels=tuple(model.labels.tolist()),
            bias=model.bias,
        )
        for name, model in models.items()
    }
    return ranker.rank(scorers, tuple(np.asarray(point, dtype=float).reshape(2).tolist()))
