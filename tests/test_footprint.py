import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eapr.footprint import (
    ConvexPolygon,
    DegenerateFootprint,
    compute_footprint,
    contains_point,
    convex_hull,
    convex_intersection,
    footprint_overlap,
    polygon_area,
)
from eapr.model import Outcome

from oracles import brute_force_hull, mc_intersection_area, mc_polygon_area, raycast_contains

GOOD = Outcome.GOOD
BAD = Outcome.BAD

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

coordinate = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
point_sets = st.lists(st.tuples(coordinate, coordinate), min_size=0, max_size=30)
# Bounded and deadline-free so the whole class stays a few seconds long.
PROPERTY = settings(max_examples=200, deadline=None)


class TestHull:
    def test_square_with_interior_point(self):
        hull = convex_hull(UNIT_SQUARE + [(0.5, 0.5)])
        assert set(hull.vertices) == set(UNIT_SQUARE)
        assert polygon_area(hull) == 1.0

    def test_collinear_points_degenerate(self):
        assert convex_hull([(0, 0), (1, 1), (2, 2)]).is_degenerate

    def test_collinear_boundary_point_excluded(self):
        hull = convex_hull(UNIT_SQUARE + [(0.5, 0.0)])
        assert set(hull.vertices) == set(UNIT_SQUARE)

    def test_random_sets_match_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            pts = [tuple(p) for p in rng.uniform(-5, 5, (40, 2))]
            hull = convex_hull(pts)
            assert set(hull.vertices) == brute_force_hull(pts)

    def test_ccw_orientation(self):
        rng = np.random.default_rng(1)
        pts = [tuple(p) for p in rng.normal(0, 1, (30, 2))]
        assert polygon_area(convex_hull(pts)) > 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pts = [tuple(p) for p in rng.normal(0, 1, (25, 2))]
        hull_a = convex_hull(pts)
        hull_b = convex_hull(list(reversed(pts)))
        assert hull_a == hull_b

    def test_monotone_under_point_addition(self):
        rng = np.random.default_rng(3)
        pts = [tuple(p) for p in rng.normal(0, 1, (10, 2))]
        area = polygon_area(convex_hull(pts))
        for extra in rng.normal(0, 2, (20, 2)):
            pts.append(tuple(extra))
            new_area = polygon_area(convex_hull(pts))
            assert new_area >= area - 1e-12
            area = new_area


class TestArea:
    def test_unit_square(self):
        assert polygon_area(ConvexPolygon(tuple(UNIT_SQUARE))) == 1.0

    def test_triangle(self):
        assert polygon_area(ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)))) == 2.0

    def test_degenerate_zero(self):
        assert polygon_area(ConvexPolygon(())) == 0.0

    def test_reversed_orientation_negates_sum(self):
        poly = ConvexPolygon(tuple(UNIT_SQUARE))
        reversed_poly = ConvexPolygon(tuple(reversed(UNIT_SQUARE)))
        assert polygon_area(reversed_poly) == -polygon_area(poly)

    def test_random_hull_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            hull = convex_hull([tuple(p) for p in rng.normal(0, 2, (30, 2))])
            estimate = mc_polygon_area(hull.vertices, 200_000, rng)
            assert polygon_area(hull) == pytest.approx(estimate, rel=0.02)


class TestIntersection:
    def test_self_intersection_identity(self):
        square = convex_hull(UNIT_SQUARE)
        inter = convex_intersection(square, square)
        assert set(inter.vertices) == set(square.vertices)
        assert polygon_area(inter) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        a = convex_hull(UNIT_SQUARE)
        b = convex_hull([(x + 2, y + 2) for x, y in UNIT_SQUARE])
        assert convex_intersection(a, b).is_degenerate

    def test_half_shift(self):
        a = convex_hull(UNIT_SQUARE)
        b = convex_hull([(x + 0.5, y + 0.5) for x, y in UNIT_SQUARE])
        assert polygon_area(convex_intersection(a, b)) == pytest.approx(0.25, abs=1e-12)

    def test_random_pairs_match_monte_carlo(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = convex_hull([tuple(p) for p in rng.normal(0, 1.5, (25, 2))])
            b = convex_hull([tuple(p) for p in rng.normal(0.5, 1.5, (25, 2))])
            area = polygon_area(convex_intersection(a, b))
            estimate = mc_intersection_area(a.vertices, b.vertices, 200_000, rng)
            assert area == pytest.approx(estimate, abs=0.05 * max(estimate, 0.1))

    def test_area_bounded_and_commutative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = convex_hull([tuple(p) for p in rng.normal(0, 1, (15, 2))])
            b = convex_hull([tuple(p) for p in rng.normal(0.3, 1, (15, 2))])
            ab = polygon_area(convex_intersection(a, b))
            ba = polygon_area(convex_intersection(b, a))
            assert ab <= min(polygon_area(a), polygon_area(b)) + 1e-12
            assert ab == pytest.approx(ba, abs=1e-12)

    def test_nearly_parallel_edges_stay_on_the_segment(self):
        # a's left edge and b's left edge meet at (-1, 0) at an angle of
        # ~1e-16 rad; the clip point must not be extrapolated off the segment
        a = convex_hull([(0.0, 0.0), (0.0, 63.46875), (-1.0, 0.0)])
        b = convex_hull([(0.0, 0.0), (1e-14, 63.46875), (-1.0, 0.0)])
        ab = convex_intersection(a, b)
        assert ab.vertices[0] == (-1.0, 0.0)
        assert polygon_area(ab) <= polygon_area(a)
        assert polygon_area(ab) == pytest.approx(polygon_area(convex_intersection(b, a)), rel=1e-12)


class TestProperties:
    @PROPERTY
    @given(point_sets, st.randoms(use_true_random=False))
    def test_hull_ignores_point_order(self, points, random):
        shuffled = list(points)
        random.shuffle(shuffled)
        assert convex_hull(shuffled) == convex_hull(points)

    @PROPERTY
    @given(point_sets)
    def test_hull_of_hull_is_itself(self, points):
        hull = convex_hull(points)
        assert convex_hull(hull.vertices) == hull

    @PROPERTY
    @given(point_sets, point_sets)
    @example(  # found by this test: nearly parallel clip edges
        [(0.0, 0.0), (0.0, 63.46875), (-1.0, 0.0)],
        [(0.0, 0.0), (3.450020580292976e-08, 63.46875), (-1.0, 0.0)],
    )
    def test_intersection_area_commutative(self, points_a, points_b):
        a, b = convex_hull(points_a), convex_hull(points_b)
        ab = polygon_area(convex_intersection(a, b))
        ba = polygon_area(convex_intersection(b, a))
        assert ab == pytest.approx(ba, rel=1e-9, abs=1e-9)

    @PROPERTY
    @given(point_sets, point_sets)
    def test_intersection_area_bounded(self, points_a, points_b):
        a, b = convex_hull(points_a), convex_hull(points_b)
        area = polygon_area(convex_intersection(a, b))
        assert area <= min(polygon_area(a), polygon_area(b)) + 1e-9


class TestContainment:
    def test_boundary_counts_as_inside(self):
        square = convex_hull(UNIT_SQUARE)
        assert contains_point(square, (0.0, 0.5))
        assert contains_point(square, (0.0, 0.0))
        assert contains_point(square, (0.5, 0.5))
        assert not contains_point(square, (1.1, 0.5))

    def test_agrees_with_raycast_oracle(self):
        rng = np.random.default_rng(7)
        hull = convex_hull([tuple(p) for p in rng.normal(0, 1, (20, 2))])
        for p in rng.uniform(-2, 2, (200, 2)):
            assert contains_point(hull, tuple(p)) == raycast_contains(
                hull.vertices, tuple(p)
            )


class TestFootprint:
    def test_all_good(self):
        coords = np.array(UNIT_SQUARE)
        labels = [GOOD] * 4
        fp = compute_footprint(coords, labels, "A")
        assert fp.area_good == 1.0
        assert fp.area_net == 1.0
        assert fp.purity == 1.0
        assert fp.density == 4.0

    def test_disjoint_bad_hull(self):
        coords = np.array(UNIT_SQUARE + [(x + 3, y + 3) for x, y in UNIT_SQUARE])
        labels = [GOOD] * 4 + [BAD] * 4
        fp = compute_footprint(coords, labels, "A")
        assert fp.area_net == fp.area_good == 1.0
        assert fp.purity == 1.0

    def test_quarter_contradiction(self):
        coords = np.array(UNIT_SQUARE + [(x + 0.5, y + 0.5) for x, y in UNIT_SQUARE])
        labels = [GOOD] * 4 + [BAD] * 4
        fp = compute_footprint(coords, labels, "A")
        assert fp.area_good == pytest.approx(1.0, abs=1e-12)
        assert fp.area_net == pytest.approx(0.75, abs=1e-12)
        # one BAD corner (0.5, 0.5) sits inside the GOOD hull
        inside_bad = [
            p for p in [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5), (0.5, 1.5)]
            if raycast_contains(fp.good_hull.vertices, p)
        ]
        assert len(inside_bad) == 1
        assert fp.purity == pytest.approx(4 / 5)
        assert fp.density == pytest.approx(4.0)

    def test_too_few_good_is_degenerate(self):
        coords = np.array([(0, 0), (1, 0), (2, 3), (4, 1)], dtype=float)
        labels = [GOOD, GOOD, BAD, BAD]
        fp = compute_footprint(coords, labels, "A")
        assert fp.is_degenerate
        assert fp.area_good == fp.area_net == 0.0
        assert fp.purity == 0.0
        assert fp.density == 0.0

    def test_missing_excluded(self):
        coords = np.array(UNIT_SQUARE + [(5.0, 5.0)])
        labels = [GOOD] * 4 + [Outcome.MISSING]
        fp = compute_footprint(coords, labels, "A")
        assert fp.area_good == 1.0

    def test_density_times_area_counts_good(self):
        rng = np.random.default_rng(8)
        coords = rng.normal(0, 1, (60, 2))
        labels = [GOOD if i % 3 else BAD for i in range(60)]
        fp = compute_footprint(coords, labels, "A")
        n_good_inside = sum(
            1
            for p, l in zip(coords, labels)
            if l is GOOD and raycast_contains(fp.good_hull.vertices, tuple(p))
        )
        assert fp.density * fp.area_good == pytest.approx(n_good_inside, abs=1e-9)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(9)
        coords = rng.normal(0, 1, (50, 2))
        labels = [GOOD if v > 0 else BAD for v in rng.normal(size=50)]
        fp = compute_footprint(coords, labels, "A")
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = coords @ rot.T + np.array([3.0, -2.0])
        fp2 = compute_footprint(moved, labels, "A")
        assert fp2.area_good == pytest.approx(fp.area_good, abs=1e-9)
        assert fp2.area_net == pytest.approx(fp.area_net, abs=1e-9)
        assert fp2.purity == fp.purity
        assert fp2.density == pytest.approx(fp.density, abs=1e-9)


class TestOverlap:
    def _footprint(self, offset):
        coords = np.array([(x + offset, y) for x, y in UNIT_SQUARE])
        return compute_footprint(coords, [GOOD] * 4, "A")

    def test_identical(self):
        fp = self._footprint(0.0)
        assert footprint_overlap(fp, fp) == 1.0

    def test_disjoint(self):
        assert footprint_overlap(self._footprint(0.0), self._footprint(5.0)) == 0.0

    def test_half_overlap(self):
        assert footprint_overlap(self._footprint(0.0), self._footprint(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_raises(self):
        fp = self._footprint(0.0)
        degenerate = compute_footprint(
            np.array([(0.0, 0.0), (1.0, 1.0)]), [GOOD, GOOD], "B"
        )
        with pytest.raises(DegenerateFootprint):
            footprint_overlap(fp, degenerate)
