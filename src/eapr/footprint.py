"""Convex-hull footprints: hulls, shoelace areas, clipping, purity and overlap."""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .model import Coordinates2D, Outcome

Point = tuple[float, float]

# Signed distance under which a point counts as on a polygon boundary.
BOUNDARY_TOL = 1e-9


class DegenerateFootprint(Exception):
    pass


class ConvexPolygon(NamedTuple):
    """Strictly convex polygon: counter-clockwise extreme points only.

    Fewer than 3 non-collinear input points yield the degenerate empty
    polygon, which has zero area. ``len(polygon.vertices)`` counts the
    vertices; ``len(polygon)``, a tuple's, is 1.
    """

    vertices: tuple[Point, ...]

    @property
    def is_degenerate(self) -> bool:
        return len(self.vertices) < 3


EMPTY_POLYGON = ConvexPolygon(())


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Point]) -> ConvexPolygon:
    """Andrew monotone chain; collinear boundary points are excluded."""
    unique = sorted({(float(x), float(y)) for x, y in points})
    if len(unique) < 3:
        return EMPTY_POLYGON

    def build(pts):
        chain: list[Point] = []
        for p in pts:
            while len(chain) > 1 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(unique)
    upper = build(reversed(unique))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return EMPTY_POLYGON
    return ConvexPolygon(tuple(hull))


def polygon_area(poly: ConvexPolygon) -> float:
    """Shoelace area of a CCW polygon; degenerate polygons have area 0."""
    if poly.is_degenerate:
        return 0.0
    verts = poly.vertices
    total = 0.0
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        total += x0 * y1 - y0 * x1
    return 0.5 * total


def contains_point(poly: ConvexPolygon, point: Point) -> bool:
    """Membership in a CCW convex polygon; boundary points count as inside,
    within a signed distance of ``BOUNDARY_TOL`` in coordinate units.
    """
    if poly.is_degenerate:
        return False
    px, py = point
    verts = poly.vertices
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        ex = x1 - x0
        ey = y1 - y0
        cross = ex * (py - y0) - ey * (px - x0)
        norm = (ex * ex + ey * ey) ** 0.5
        if cross < -BOUNDARY_TOL * norm:
            return False
    return True


def convex_intersection(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Intersection of two CCW convex polygons by Sutherland-Hodgman clipping.

    The clipped vertex set is re-canonicalized to CCW extreme points; disjoint
    inputs give the degenerate polygon.
    """
    if a.is_degenerate or b.is_degenerate:
        return EMPTY_POLYGON
    output = list(a.vertices)
    clip = b.vertices
    for (cx0, cy0), (cx1, cy1) in zip(clip, clip[1:] + clip[:1]):
        if not output:
            return EMPTY_POLYGON
        ex = cx1 - cx0
        ey = cy1 - cy0

        def side(p: Point) -> float:  # scaled signed distance; >= 0 is inside
            return ex * (p[1] - cy0) - ey * (p[0] - cx0)

        def intersect(s: Point, e: Point, d_s: float, d_e: float) -> Point:
            # d_s, d_e have opposite signs: t is in [0, 1] even for a segment nearly
            # parallel to the edge, where a line-line solve extrapolates far off
            t = d_s / (d_s - d_e)
            return (s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1]))

        clipped: list[Point] = []
        prev = output[-1]
        d_prev = side(prev)
        for cur in output:
            d_cur = side(cur)
            if d_cur >= 0.0:
                if d_prev < 0.0:
                    clipped.append(intersect(prev, cur, d_prev, d_cur))
                clipped.append(cur)
            elif d_prev >= 0.0:
                clipped.append(intersect(prev, cur, d_prev, d_cur))
            prev, d_prev = cur, d_cur
        output = clipped
    return convex_hull(output)


class Footprint(NamedTuple):
    """Where one algorithm performs well in the 2D instance space.

    area_net subtracts the region contradicted by BAD evidence (the
    intersection of the GOOD and BAD hulls) from the GOOD hull area.
    """

    algorithm: str
    good_hull: ConvexPolygon
    bad_hull: ConvexPolygon
    contradiction: ConvexPolygon
    area_good: float
    area_net: float
    purity: float
    density: float

    @property
    def is_degenerate(self) -> bool:
        return self.good_hull.is_degenerate


def compute_footprint(
    coords: Coordinates2D, labels: Sequence[Outcome] | np.ndarray, algorithm: str
) -> Footprint:
    """Build the footprint of one algorithm from labeled 2D coordinates.

    ``labels`` holds one ``Outcome``, or its int8 code, per row. MISSING
    instances are ignored. Fewer than 3 GOOD points (or collinear ones)
    produce a degenerate footprint with zero areas rather than an error.
    """
    pts = np.asarray(coords, dtype=float)
    codes = np.asarray(labels, dtype=np.int8)
    if pts.shape[0] != len(codes):
        raise ValueError("coords and labels must align")
    good_pts = list(map(tuple, pts[codes == Outcome.GOOD].tolist()))
    bad_pts = list(map(tuple, pts[codes == Outcome.BAD].tolist()))

    good_hull = convex_hull(good_pts)
    bad_hull = convex_hull(bad_pts)
    if good_hull.is_degenerate:
        return Footprint(algorithm, good_hull, bad_hull, EMPTY_POLYGON, 0.0, 0.0, 0.0, 0.0)

    contradiction = convex_intersection(good_hull, bad_hull)
    area_good = polygon_area(good_hull)
    area_net = max(area_good - polygon_area(contradiction), 0.0)

    good_inside = sum(1 for p in good_pts if contains_point(good_hull, p))
    bad_inside = sum(1 for p in bad_pts if contains_point(good_hull, p))
    labeled_inside = good_inside + bad_inside
    purity = good_inside / labeled_inside if labeled_inside else 0.0
    density = good_inside / area_good if area_good > 0.0 else 0.0

    return Footprint(
        algorithm=algorithm,
        good_hull=good_hull,
        bad_hull=bad_hull,
        contradiction=contradiction,
        area_good=area_good,
        area_net=area_net,
        purity=purity,
        density=density,
    )


def footprint_overlap(a: Footprint, b: Footprint) -> float:
    """Shared fraction of two footprints: intersection area over the smaller hull."""
    if a.is_degenerate or b.is_degenerate:
        raise DegenerateFootprint(f"{a.algorithm!r} or {b.algorithm!r} has no footprint")
    shared = polygon_area(convex_intersection(a.good_hull, b.good_hull))
    return shared / min(a.area_good, b.area_good)
