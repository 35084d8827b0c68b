"""Independent oracles the tests check the library against.

Each function here deliberately uses a different algorithm than the code
under test: brute-force extremity for hulls, Monte Carlo for areas,
characteristic-polynomial roots for eigenvalues, ray casting for membership,
sorted pairwise summation for means, a row-by-row CSV parse and a group-by-group
aggregation for ingest.
"""
import csv
import io
import itertools

import numpy as np

from eapr.ingest import (
    EmptyTable,
    InconsistentOutcomes,
    MalformedCsv,
    UnparseableCell,
    _NOT_XML,
    _OUTCOME_CELLS,
)
from eapr.model import InstanceTable


def brute_force_hull(points):
    """Extreme points = points not strictly inside any triangle of 3 others.

    O(n^4); intended for small random (general-position) point sets.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 3:
        return {tuple(p) for p in pts}
    triangles = np.array(list(itertools.combinations(range(n), 3)))
    extreme = set()
    for i in range(n):
        mask = (triangles != i).all(axis=1)
        tri = triangles[mask]
        a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
        p = pts[i]
        d1 = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
        d2 = (c[:, 0] - b[:, 0]) * (p[1] - b[:, 1]) - (c[:, 1] - b[:, 1]) * (p[0] - b[:, 0])
        d3 = (a[:, 0] - c[:, 0]) * (p[1] - c[:, 1]) - (a[:, 1] - c[:, 1]) * (p[0] - c[:, 0])
        inside = ((d1 > 0) & (d2 > 0) & (d3 > 0)) | ((d1 < 0) & (d2 < 0) & (d3 < 0))
        if not inside.any():
            extreme.add((float(p[0]), float(p[1])))
    return extreme


def _inside_convex(vertices, samples):
    """Vectorized membership of sample points in a CCW convex polygon."""
    v = np.asarray(vertices, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    edge = nxt - v
    inside = np.ones(len(samples), dtype=bool)
    for (x0, y0), (ex, ey) in zip(v, edge):
        cross = ex * (samples[:, 1] - y0) - ey * (samples[:, 0] - x0)
        inside &= cross >= 0.0
    return inside


def mc_polygon_area(vertices, n_samples, rng):
    """Monte Carlo rejection-sampling estimate of a convex polygon's area."""
    v = np.asarray(vertices, dtype=float)
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    samples = rng.uniform(lo, hi, size=(n_samples, 2))
    box = float(np.prod(hi - lo))
    return _inside_convex(v, samples).mean() * box


def mc_intersection_area(vertices_a, vertices_b, n_samples, rng):
    """Monte Carlo estimate of the area shared by two convex polygons."""
    va = np.asarray(vertices_a, dtype=float)
    vb = np.asarray(vertices_b, dtype=float)
    lo = np.minimum(va.min(axis=0), vb.min(axis=0))
    hi = np.maximum(va.max(axis=0), vb.max(axis=0))
    samples = rng.uniform(lo, hi, size=(n_samples, 2))
    box = float(np.prod(hi - lo))
    both = _inside_convex(va, samples) & _inside_convex(vb, samples)
    return both.mean() * box


def charpoly_coeffs(matrix):
    """Characteristic-polynomial coefficients via Faddeev-LeVerrier
    (matrix products and traces only)."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    coeffs = [1.0]
    mk = m.copy()
    identity = np.eye(n)
    for k in range(1, n + 1):
        ak = -np.trace(mk) / k
        coeffs.append(float(ak))
        if k < n:
            mk = m @ (mk + ak * identity)
    return np.array(coeffs)


def charpoly_roots(matrix):
    """Eigenvalues of a symmetric matrix as char-poly roots, descending."""
    roots = np.roots(charpoly_coeffs(matrix))
    return np.sort(roots.real)[::-1]


def raycast_contains(vertices, point, tol=1e-9):
    """Point-in-polygon by crossing number, boundary counted as inside."""
    v = list(vertices)
    px, py = point
    # Boundary: distance to any edge segment within tol.
    for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]):
        ex, ey = x1 - x0, y1 - y0
        length_sq = ex * ex + ey * ey
        if length_sq == 0.0:
            continue
        t = max(0.0, min(1.0, ((px - x0) * ex + (py - y0) * ey) / length_sq))
        dx, dy = px - (x0 + t * ex), py - (y0 + t * ey)
        if dx * dx + dy * dy <= tol * tol:
            return True
    crossings = 0
    for (x0, y0), (x1, y1) in zip(v, v[1:] + v[:1]):
        if (y0 > py) != (y1 > py):
            x_at = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            if x_at > px:
                crossings += 1
    return crossings % 2 == 1


def pairwise_sorted_mean(values):
    """Mean via sorted pairwise summation (error ~eps log n)."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0] / n


def kernel_sum_decision(support_vectors, alphas, labels, bias, kernel, gamma, point):
    """Recompute an SVM decision value with an explicit python-loop sum."""
    total = 0.0
    for sv, a, y in zip(support_vectors, alphas, labels):
        if kernel == "linear":
            k = sv[0] * point[0] + sv[1] * point[1]
        else:
            d0 = sv[0] - point[0]
            d1 = sv[1] - point[1]
            k = np.exp(-gamma * (d0 * d0 + d1 * d1))
        total += a * y * k
    return total + bias


def rowwise_parse(source: bytes) -> InstanceTable:
    """``ingest.parse_instance_table`` one row and one cell at a time: the
    first bad row or cell in reading order raises."""
    try:
        text = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8", newline="")
        records = list(csv.reader(text))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedCsv(f"unreadable CSV: {exc}") from None

    if not records:
        raise EmptyTable("no header row")
    header = [h.strip() for h in records[0]]

    if "instance_id" not in header:
        raise MalformedCsv("missing id column 'instance_id'")
    for special in ("instance_id", "dataset"):
        if header.count(special) > 1:
            raise MalformedCsv(f"duplicate column {special!r}")
    id_pos = header.index("instance_id")
    dataset_pos = header.index("dataset") if "dataset" in header else None

    algorithm_names, outcome_pos, feature_names, feature_pos = [], [], [], []
    for pos, name in enumerate(header):
        if pos == id_pos or pos == dataset_pos:
            continue
        if name.startswith("aprt:"):
            if name[5:] in algorithm_names:
                raise MalformedCsv(f"duplicate outcome column {name!r}")
            algorithm_names.append(name[5:])
            outcome_pos.append(pos)
        else:
            feature_names.append(name)
            feature_pos.append(pos)

    ids, tags, features, outcomes = [], [], [], []
    for line_no, cells in enumerate(records[1:], start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            raise MalformedCsv(f"row {line_no}: expected {len(header)} cells, got {len(cells)}")
        cells = [c.strip() for c in cells]
        row = []
        for pos, name in zip(feature_pos, feature_names):
            try:
                row.append(float(cells[pos] or "nan"))
            except ValueError:
                raise UnparseableCell(line_no, name, cells[pos]) from None
        codes = []
        for pos, alg in zip(outcome_pos, algorithm_names):
            code = _OUTCOME_CELLS.get(cells[pos])
            if code is None:
                raise UnparseableCell(line_no, "aprt:" + alg, cells[pos])
            codes.append(code)
        ids.append(cells[id_pos])
        tags.append(cells[dataset_pos] if dataset_pos is not None else "")
        features.append(row)
        outcomes.append(codes)

    if not ids:
        raise EmptyTable("no data rows")
    for name in header + tags:
        bad = _NOT_XML.search(name)
        if bad:
            raise MalformedCsv(f"{name!r} holds {bad.group()!r}, which XML cannot hold")
    return InstanceTable(feature_names, algorithm_names, ids, tags, features, outcomes)


def per_group_aggregate(table: InstanceTable) -> InstanceTable:
    """``ingest.aggregate_rows`` one group at a time, in first-row order: each
    group's labels are checked, then its mean taken over axis 0."""
    groups = {}
    for i, key in enumerate(table.instance_ids):
        groups.setdefault(key, []).append(i)

    means = []
    with np.errstate(over="raise", invalid="ignore"):
        for value, rows in groups.items():
            labels = table.outcomes[rows]
            conflicts = np.flatnonzero((labels != labels[0]).any(axis=0))
            if conflicts.size:
                raise InconsistentOutcomes(
                    f"group {value!r}: algorithm {table.algorithm_names[conflicts[0]]!r} "
                    "has conflicting labels"
                )
            try:
                means.append(table.features[rows].mean(axis=0))
            except FloatingPointError:
                raise MalformedCsv(f"group {value!r}: feature mean overflows") from None
    firsts = [rows[0] for rows in groups.values()]
    return InstanceTable(
        table.feature_names,
        table.algorithm_names,
        list(groups),
        [table.dataset_tags[i] for i in firsts],
        means,
        table.outcomes[firsts],
    )
