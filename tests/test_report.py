import hashlib
import json
import re
from xml.dom import minidom

import numpy as np
import pytest

from eapr.footprint import compute_footprint
from eapr.model import Outcome
from eapr.report import (
    EmptyInput,
    PALETTES,
    PlotSpec,
    ReportInvariantError,
    _gradient_colors,
    canonical_json,
    file_stem,
    read_report,
    render_dataset_svg,
    render_feature_svg,
    render_footprint_svg,
    write_report,
)

GOOD = Outcome.GOOD
BAD = Outcome.BAD

SPEC = PlotSpec()


def circles_of(svg):
    return re.findall(r'<circle cx="([0-9.+-]+)" cy="([0-9.+-]+)"', svg)


def square_footprint():
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    labels = [GOOD, GOOD, BAD, BAD]
    return coords, labels, compute_footprint(coords, labels, "A")


class TestFootprintSvg:
    def test_element_count_and_legend(self):
        coords, labels, fp = square_footprint()
        svg = render_footprint_svg(coords, labels, fp, SPEC)
        assert len(circles_of(svg)) == 4
        assert ">GOOD</text>" in svg
        assert ">BAD</text>" in svg

    def test_byte_determinism(self):
        coords, labels, fp = square_footprint()
        a = render_footprint_svg(coords, labels, fp, SPEC)
        b = render_footprint_svg(coords, labels, fp, SPEC)
        assert a.encode() == b.encode()

    def test_missing_points_not_drawn(self):
        coords = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)])
        labels = [GOOD, GOOD, GOOD, BAD, Outcome.MISSING]
        fp = compute_footprint(coords, labels, "A")
        svg = render_footprint_svg(coords, labels, fp, SPEC)
        assert len(circles_of(svg)) == 4

    def test_random_points_inside_padded_viewport(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(0, 10, (1000, 2))
        labels = [GOOD if i % 2 else BAD for i in range(1000)]
        fp = compute_footprint(coords, labels, "A")
        svg = render_footprint_svg(coords, labels, fp, SPEC)
        pts = circles_of(svg)
        assert len(pts) == 1000
        for cx, cy in pts:
            assert SPEC.margin - 1e-6 <= float(cx) <= SPEC.width - SPEC.margin + 1e-6
            assert SPEC.margin - 1e-6 <= float(cy) <= SPEC.height - SPEC.margin + 1e-6

    def test_axis_mapping_is_order_preserving(self):
        coords = np.array([(0.0, 0.0), (0.5, 0.1), (2.0, -0.3), (3.5, 0.2)])
        labels = [GOOD] * 4
        fp = compute_footprint(coords, labels, "A")
        svg = render_footprint_svg(coords, labels, fp, SPEC)
        xs = [float(cx) for cx, _ in circles_of(svg)]
        assert xs == sorted(xs)

    def test_empty_rejected(self):
        coords, labels, fp = square_footprint()
        with pytest.raises(EmptyInput):
            render_footprint_svg(np.zeros((0, 2)), [], fp, SPEC)


def parse_rgb_percent(color):
    m = re.match(r"rgb\(([0-9.]+)%,([0-9.]+)%,([0-9.]+)%\)", color)
    assert m, color
    return tuple(float(g) for g in m.groups())


class TestFeatureSvg:
    def test_gradient_endpoints(self):
        low, high = _gradient_colors([0.0, 1.0])
        assert parse_rgb_percent(low) == (0.0, 0.0, 100.0)
        assert parse_rgb_percent(high) == (100.0, 100.0, 0.0)

    def test_midpoint_is_exact_average(self):
        low, high, mid = map(parse_rgb_percent, _gradient_colors([0.0, 1.0, 0.5]))
        assert mid == tuple((a + b) / 2 for a, b in zip(low, high))

    def test_point_colors_monotone_along_values(self):
        coords = np.array([(float(i), 0.0) for i in range(10)])
        values = np.linspace(0.0, 1.0, 10)
        svg = render_feature_svg(coords, values, SPEC, name="f")
        colors = re.findall(r'<circle[^>]*fill="(rgb[^"]+)"', svg)
        reds = [parse_rgb_percent(c)[0] for c in colors]
        blues = [parse_rgb_percent(c)[2] for c in colors]
        assert reds == sorted(reds)
        assert blues == sorted(blues, reverse=True)

    def test_colorbar_tick_labels(self):
        coords = np.array([(0.0, 0.0), (1.0, 1.0)])
        svg = render_feature_svg(
            coords, [0.0, 1.0], SPEC, name="wmc", vmin=2.5, vmax=9.0
        )
        assert ">2.50</text>" in svg
        assert ">9.00</text>" in svg

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            render_feature_svg(np.zeros((0, 2)), [], SPEC)


class TestDatasetSvg:
    def test_two_tags_two_legend_entries(self):
        coords = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        svg = render_dataset_svg(coords, ["d1", "d2", "d1"], SPEC)
        assert ">d1</text>" in svg
        assert ">d2</text>" in svg

    def test_single_tag_single_color(self):
        coords = np.array([(0.0, 0.0), (1.0, 1.0)])
        svg = render_dataset_svg(coords, ["only", "only"], SPEC)
        colors = set(re.findall(r'<circle[^>]*fill="(#[0-9A-Fa-f]+)"', svg))
        assert len(colors) == 1

    def test_five_tags_distinct_colors(self):
        coords = np.array([(float(i), 0.0) for i in range(5)])
        tags = [f"d{i}" for i in range(5)]
        svg = render_dataset_svg(coords, tags, SPEC)
        colors = re.findall(r'<circle[^>]*fill="(#[0-9A-Fa-f]+)"', svg)
        assert len(set(colors)) == 5

    def test_legend_sorted(self):
        coords = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        svg = render_dataset_svg(coords, ["zeta", "alpha", "mid"], SPEC)
        assert svg.index(">alpha<") < svg.index(">mid<") < svg.index(">zeta<")

    def test_palette_has_eleven_distinct_entries(self):
        palette = PALETTES["default"]
        assert len(palette) == 11
        assert len(set(palette)) == 11


def tiny_report(**overrides):
    fields = dict(
        provenance={"input_digest": "ab" * 32, "config": {"seed": 1}},
        features={
            "selected": ["f1", "f2"],
            "loadings": [[0.7071, 0.7071], [0.7071, -0.7071]],
            "eigenvalues": [1.5, 0.5],
            "explained_variance_2d": 1.0,
            "explained_variance_ratios": [0.75, 0.25],
        },
        selection={"selected": ["f1", "f2"], "fitness": {"mean_cv_accuracy": 1.0}},
        algorithms=["A", "B"],
        footprints={
            "A": {"area_good": 1.0, "area_net": 0.75, "purity": 0.8, "density": 4.0},
            "B": {"area_good": 2.0, "area_net": 2.0, "purity": 1.0, "density": 1.5},
        },
        overlap=[[1.0, 0.25], [0.25, 1.0]],
        selector={
            "cv": {
                "per_algorithm": {
                    "A": {"accuracy": 0.9, "precision": 0.8, "recall": 0.7},
                    "B": {"accuracy": 1.0, "precision": None, "recall": None},
                },
                "accuracy": 0.95,
                "precision": 0.8,
            },
            "training": {
                "per_algorithm": {
                    "A": {"accuracy": 1.0, "precision": 1.0, "recall": 1.0},
                    "B": {"accuracy": 1.0, "precision": 1.0, "recall": 1.0},
                },
                "accuracy": 1.0,
                "precision": 1.0,
            },
        },
        instances={"count": 10, "datasets": {"d": 10}},
    )
    fields.update(overrides)
    return fields


class TestWriteReport:
    def test_byte_identical_across_writes(self, tmp_path):
        report = tiny_report()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_report(report, p1)
        write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_footprint_refused(self, tmp_path):
        report = tiny_report(
            footprints={"A": {"area_good": 1.0, "area_net": 1.0, "purity": 1.0, "density": 1.0}}
        )
        with pytest.raises(ReportInvariantError):
            write_report(report, tmp_path / "r.json")

    def test_selector_coverage_required(self, tmp_path):
        report = tiny_report(selector={"cv": {"per_algorithm": {}}, "training": {"per_algorithm": {}}})
        with pytest.raises(ReportInvariantError):
            write_report(report, tmp_path / "r.json")

    def test_round_trip(self, tmp_path):
        report = tiny_report()
        path = tmp_path / "r.json"
        write_report(report, path)
        loaded = read_report(path)
        # canonicalizing the parsed dict reproduces the file exactly
        assert canonical_json(loaded).encode() == path.read_bytes()
        assert loaded["algorithms"] == ["A", "B"]
        assert loaded["footprints"]["A"]["area_net"] == 0.75

    def test_floats_rounded_to_six_significant_digits(self):
        out = canonical_json({"v": 0.12345678901234, "w": 123456789.0})
        data = json.loads(out)
        assert data["v"] == 0.123457
        assert data["w"] == 123457000.0

    def test_non_finite_rejected(self):
        with pytest.raises(ReportInvariantError):
            canonical_json({"v": float("nan")})


class TestPlotSpec:
    def test_margin_bound(self):
        with pytest.raises(ValueError):
            PlotSpec(width=90, height=480, margin=48)
        with pytest.raises(ValueError):
            PlotSpec(palette="nope")


# Fixed inputs whose SVG bytes are pinned: duplicated points, -0.0 and values
# below 0, above 1 and exactly 0 and 1, MISSING labels, a footprint with both
# polygons drawn, and one on a zero-span y axis whose hulls are degenerate.
PINNED_COORDS = np.array([
    (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.5, 0.5),
    (-0.0, 0.25), (1.0 / 3.0, 2.0 / 3.0), (0.9, 0.1), (0.2, 0.9), (-1.25, 1e-9),
])
PINNED_VALUES = [-0.0, -0.5, 1.5, 0.0, 1.0, 0.5, 1.0 / 3.0, 0.25, 0.999, 1e-12, 0.7]
PINNED_LABELS = [GOOD, GOOD, GOOD, BAD, GOOD, BAD, Outcome.MISSING, BAD, BAD,
                 Outcome.MISSING, BAD]
PINNED_TAGS = ["d3", "d1", "d1", "d2", "d3", "d3", "d1", "d2", "d2", "d1", "d4"]
FLAT_COORDS = np.array([(0.0, 3.0), (2.0, 3.0), (2.0, 3.0), (1.0, 3.0), (-1.0, 3.0)])
FLAT_LABELS = [GOOD, GOOD, BAD, Outcome.MISSING, GOOD]

PINNED_SVG_SHA256 = {
    "footprint": "4a67c6d4ffe402d811040219960cd5cb7756ecc0d9b9f1d31d42c36724fa6d1a",
    "flat_footprint": "ecefa3f2fc92fb9692cba74ada38c18c2c63f8efc8b7d010e7ec539f83475589",
    "feature": "5f1e112b794203f038aedb7fc99c92042b35c8e73b9262cc8b11ffc569f15944",
    "flat_feature": "08cb2f781a2a902977edc9bf50a1d33125bc8d534a5a04367fcedb4618cd8e90",
    "datasets": "92d7292dc9422dd9469b5af16713b8a7e8bf449c4955ea0f6cf6509dfde6af18",
}


def pinned_svgs():
    fp = compute_footprint(PINNED_COORDS, PINNED_LABELS, "A")
    flat = compute_footprint(FLAT_COORDS, FLAT_LABELS, "B")
    assert not fp.good_hull.is_degenerate and not fp.contradiction.is_degenerate
    assert flat.good_hull.is_degenerate
    return {
        "footprint": render_footprint_svg(PINNED_COORDS, PINNED_LABELS, fp, SPEC),
        "flat_footprint": render_footprint_svg(FLAT_COORDS, FLAT_LABELS, flat, SPEC),
        "feature": render_feature_svg(
            PINNED_COORDS, PINNED_VALUES, SPEC, name="wmc", vmin=-2.5, vmax=7.125
        ),
        "flat_feature": render_feature_svg(
            FLAT_COORDS, [0.0, 1.0, -0.0, 0.5, 2.0], PlotSpec(point_radius=2)
        ),
        "datasets": render_dataset_svg(PINNED_COORDS, PINNED_TAGS, SPEC),
    }


def test_pinned_svg_bytes():
    import hashlib

    digests = {
        name: hashlib.sha256(svg.encode("utf-8")).hexdigest()
        for name, svg in pinned_svgs().items()
    }
    assert digests == PINNED_SVG_SHA256


def test_array_maps_equal_the_scalar_formulas():
    # the per-point float arithmetic the array maps replaced, kept as the reference
    from eapr.report import _AxisMap

    def pixel(axis, v):
        s = axis.spec
        x = s.margin + (float(v[0]) - axis.x0) / (axis.x1 - axis.x0) * (s.width - 2 * s.margin)
        y = s.height - s.margin - (float(v[1]) - axis.y0) / (axis.y1 - axis.y0) * (
            s.height - 2 * s.margin
        )
        return x, y

    def color(t):
        t = min(max(float(t), 0.0), 1.0)
        return f"rgb({100.0 * t:.4f}%,{100.0 * t:.4f}%,{100.0 * (1.0 - t):.4f}%)"

    rng = np.random.default_rng(5)
    for scale in (1e-9, 1.0, 1e6):
        pts = rng.normal(0.0, scale, (500, 2))
        axis = _AxisMap(pts, SPEC)
        assert axis.pixels(pts) == [pixel(axis, p) for p in pts]
    values = np.concatenate([rng.normal(0.5, 0.7, 500), [-0.0, 0.0, 1.0, np.nan, np.inf]])
    expected = [color(t) for t in values]
    assert _gradient_colors(values) == expected
    assert [_gradient_colors([t])[0] for t in values] == expected


def test_file_stem_keeps_plain_names_and_encodes_every_other_byte():
    assert file_stem("Kali-2.0_x.y") == "Kali-2.0_x.y"
    assert file_stem("A/B") == "A%2FB"
    assert file_stem("../../escaped") == "..%2F..%2Fescaped"
    assert file_stem("50%") == "50%25"
    assert file_stem("é~ ") == "%C3%A9%7E%20"
    names = ["A/B", "A%2FB", "A%252FB", "a/b", "", "%", "%25", "é", "%C3%A9"]
    assert len({file_stem(n) for n in names}) == len(names)


def test_file_stem_cuts_a_long_name_outside_a_triple_and_adds_its_digest():
    assert file_stem("a" * 200) == "a" * 200
    name = "a" + "/" * 100  # 301 characters; the 135th is inside the 45th "%2F"
    assert file_stem(name) == "a" + "%2F" * 44 + "~" + hashlib.sha256(name.encode()).hexdigest()
    assert len(file_stem("a" * 201)) == 200
    assert len({file_stem("a" * 201), file_stem("a" * 202), file_stem("a" * 200)}) == 3


def test_names_are_escaped_in_svg_text():
    name = 'C&D<x> "q"'
    fp = compute_footprint(PINNED_COORDS, PINNED_LABELS, name)
    spec = PlotSpec(x_label="z<1>", y_label="&")
    svgs = [
        render_footprint_svg(PINNED_COORDS, PINNED_LABELS, fp, spec),
        render_feature_svg(PINNED_COORDS, PINNED_VALUES, spec, name=name),
        render_dataset_svg(PINNED_COORDS, [name] * len(PINNED_COORDS), spec),
    ]
    for svg in svgs:
        texts = {
            node.firstChild.data
            for tag in ("title", "text")
            for node in minidom.parseString(svg).getElementsByTagName(tag)
        }
        assert {"z<1>", "&"} <= texts
        assert name in texts
