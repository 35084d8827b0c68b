"""SVG instance-space plots and the canonical machine-readable report.

Rendering is a pure function of (data, spec): identical inputs give
byte-identical output. report.json uses sorted keys and floats rounded to
6 significant digits so runs are diffable.
"""
from __future__ import annotations

import hashlib
import json
import math
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .footprint import ConvexPolygon, Footprint
from .model import Coordinates2D, Outcome, json_text

GOOD_COLOR = "#0072B2"
BAD_COLOR = "#D55E00"

# 11-entry colorblind-aware cycle for discrete categories.
PALETTES = {
    "default": (
        "#332288",
        "#88CCEE",
        "#44AA99",
        "#117733",
        "#999933",
        "#DDCC77",
        "#CC6677",
        "#882255",
        "#AA4499",
        "#BBBBBB",
        "#EE7733",
    ),
}


class EmptyInput(Exception):
    pass


class ReportInvariantError(ValueError):
    pass


@dataclass(frozen=True)
class PlotSpec:
    width: int = 640
    height: int = 480
    margin: int = 48
    point_radius: float = 3.0
    palette: str = "default"
    x_label: str = "z1"
    y_label: str = "z2"

    def __post_init__(self) -> None:
        if self.width <= 2 * self.margin or self.height <= 2 * self.margin:
            raise ValueError("width and height must exceed twice the margin")
        if self.palette not in PALETTES:
            raise ValueError(f"unknown palette {self.palette!r}")
        if not 0.0 < self.point_radius < math.inf:
            raise ValueError("point_radius must be positive and finite")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _xml(name: str) -> str:
    """A name as SVG text or attribute value: ``&``, ``<``, ``>`` and ``"`` escaped."""
    return (
        name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


# Bytes a file name keeps as they are; file_stem percent-encodes every other.
_PLAIN_BYTES = frozenset((string.ascii_letters + string.digits + "._-").encode("ascii"))
# The longest stem: with a prefix and ".svg" a file name stays under 255 bytes.
_MAX_STEM = 200


def file_stem(name: str) -> str:
    """A name as part of a file name in the output directory: each UTF-8 byte
    outside ``[A-Za-z0-9._-]`` (``%`` and ``/`` included) becomes ``%XX``, so
    no two names share a file and none leaves the directory. A stem over 200
    characters is cut, outside a ``%XX``, to its first 135 or fewer, then
    ``~`` and the name's sha256 hex; ``~`` is in no uncut stem (it encodes as
    ``%7E``), so a long name never shares a file with a short one."""
    stem = "".join(chr(b) if b in _PLAIN_BYTES else f"%{b:02X}" for b in name.encode("utf-8"))
    if len(stem) <= _MAX_STEM:
        return stem
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()
    prefix = stem[: _MAX_STEM - 1 - len(digest)]
    cut = prefix.rfind("%", len(prefix) - 2)  # a "%" in the last two starts a cut triple
    return f"{prefix[:cut] if cut >= 0 else prefix}~{digest}"


class _AxisMap:
    """Affine, order-preserving map from data coordinates to pixels,
    with 5% padding on each side of the data range."""

    def __init__(self, coords: np.ndarray, spec: PlotSpec):
        xs = coords[:, 0]
        ys = coords[:, 1]
        self.spec = spec
        self.x0, self.x1 = self._padded(float(xs.min()), float(xs.max()))
        self.y0, self.y1 = self._padded(float(ys.min()), float(ys.max()))

    @staticmethod
    def _padded(lo: float, hi: float) -> tuple[float, float]:
        span = hi - lo
        pad = 0.05 * span if span > 0.0 else 0.5
        return lo - pad, hi + pad

    def pixels(self, points) -> list[tuple[float, float]]:
        """The (x, y) pixel of each row of an (n, 2) array of data points,
        bit-identical to the same formula applied to one point's floats."""
        s = self.spec
        pts = np.asarray(points, dtype=float)
        xs = s.margin + (pts[:, 0] - self.x0) / (self.x1 - self.x0) * (s.width - 2 * s.margin)
        ys = s.height - s.margin - (pts[:, 1] - self.y0) / (self.y1 - self.y0) * (
            s.height - 2 * s.margin
        )
        return list(zip(xs.tolist(), ys.tolist()))


def _gradient_colors(values) -> list[str]:
    """Blue-to-yellow linear interpolation, endpoints at t=0 and t=1. Values
    outside [0, 1] are clipped; -0.0 and NaN pass through unchanged."""
    t = np.asarray(values, dtype=float)
    t = np.where(t > 1.0, 1.0, np.where(t < 0.0, 0.0, t))
    rg = (100.0 * t).tolist()
    b = (100.0 * (1.0 - t)).tolist()
    return ["rgb(%.4f%%,%.4f%%,%.4f%%)" % (v, v, w) for v, w in zip(rg, b)]


def _circles(axis: _AxisMap, points, fills: Sequence[str], radius: float) -> list[str]:
    """One ``<circle>`` per data point, in the matching fill."""
    template = '<circle cx="%.2f" cy="%.2f" r="' + f"{radius}" + '" fill="%s"/>'
    return [template % (px, py, fill) for (px, py), fill in zip(axis.pixels(points), fills)]


def _svg_open(spec: PlotSpec) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
    ]


def _axes(axis: _AxisMap, spec: PlotSpec) -> list[str]:
    m = spec.margin
    w, h = spec.width, spec.height
    x_label, y_label = _xml(spec.x_label), _xml(spec.y_label)
    return [
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="#333333" stroke-width="1"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="#333333" stroke-width="1"/>',
        f'<text x="{w - m}" y="{h - m + 28}" font-size="12" text-anchor="end">{x_label}</text>',
        f'<text x="{m - 28}" y="{m}" font-size="12" text-anchor="start">{y_label}</text>',
    ]


def _polygon_element(
    poly: ConvexPolygon, axis: _AxisMap, stroke: str, fill: str, extra: str = ""
) -> str:
    points = " ".join("%.2f,%.2f" % p for p in axis.pixels(poly.vertices))
    return f'<polygon points="{points}" stroke="{stroke}" fill="{fill}"{extra}/>'


def _legend_entry(x: float, y: float, color: str, label: str) -> list[str]:
    return [
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="10" height="10" fill="{color}"/>',
        f'<text x="{_fmt(x + 14)}" y="{_fmt(y + 9)}" font-size="11">{_xml(label)}</text>',
    ]


def render_footprint_svg(
    coords: Coordinates2D,
    labels: Sequence[Outcome],
    footprint: Footprint,
    spec: PlotSpec = PlotSpec(),
) -> str:
    """One algorithm's instance space: labeled points, its GOOD hull, and the
    contradicted region. MISSING instances are not drawn."""
    pts = np.asarray(coords, dtype=float)
    if pts.size == 0:
        raise EmptyInput("no coordinates")
    if pts.shape[0] != len(labels):
        raise ValueError("coords and labels must align")

    axis = _AxisMap(pts, spec)
    parts = _svg_open(spec)
    parts.append(f"<title>{_xml(footprint.algorithm)}</title>")
    parts.extend(_axes(axis, spec))

    if not footprint.good_hull.is_degenerate:
        parts.append(
            _polygon_element(
                footprint.good_hull, axis, GOOD_COLOR, "none", ' stroke-width="1.5"'
            )
        )
    if not footprint.contradiction.is_degenerate:
        parts.append(
            _polygon_element(
                footprint.contradiction,
                axis,
                BAD_COLOR,
                BAD_COLOR,
                ' fill-opacity="0.15" stroke-dasharray="4 3"',
            )
        )

    drawn = [i for i, outcome in enumerate(labels) if outcome is not Outcome.MISSING]
    colors = [GOOD_COLOR if labels[i] is Outcome.GOOD else BAD_COLOR for i in drawn]
    parts.extend(_circles(axis, pts[drawn], colors, spec.point_radius))

    lx = spec.width - spec.margin - 90
    parts.extend(_legend_entry(lx, spec.margin, GOOD_COLOR, "GOOD"))
    parts.extend(_legend_entry(lx, spec.margin + 16, BAD_COLOR, "BAD"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_feature_svg(
    coords: Coordinates2D,
    values: Sequence[float],
    spec: PlotSpec = PlotSpec(),
    name: str = "feature",
    vmin: float = 0.0,
    vmax: float = 1.0,
) -> str:
    """Feature gradient over the instance space: values must be min-max
    normalized to [0, 1]; low is blue, high is yellow. The color bar carries
    ``vmin``/``vmax`` tick labels."""
    pts = np.asarray(coords, dtype=float)
    vals = np.asarray(values, dtype=float)
    if pts.size == 0:
        raise EmptyInput("no coordinates")
    if pts.shape[0] != vals.shape[0]:
        raise ValueError("coords and values must align")

    axis = _AxisMap(pts, spec)
    parts = _svg_open(spec)
    parts.append(f"<title>{_xml(name)}</title>")
    parts.extend(_axes(axis, spec))

    parts.extend(_circles(axis, pts, _gradient_colors(vals), spec.point_radius))

    # Color bar: stacked slices from high (top) to low (bottom).
    bar_x = spec.width - spec.margin + 8
    bar_top = spec.margin
    bar_h = spec.height - 2 * spec.margin
    slices = 32
    colors = _gradient_colors([1.0 - i / slices - 0.5 / slices for i in range(slices)])
    for i, color in enumerate(colors):
        y = bar_top + i * bar_h / slices
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(y)}" width="10" height="{_fmt(bar_h / slices + 0.5)}" '
            f'fill="{color}"/>'
        )
    parts.append(
        f'<text x="{bar_x + 14}" y="{bar_top + 9}" font-size="10">{_fmt(vmax)}</text>'
    )
    parts.append(
        f'<text x="{bar_x + 14}" y="{bar_top + bar_h}" font-size="10">{_fmt(vmin)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_dataset_svg(
    coords: Coordinates2D, tags: Sequence[str], spec: PlotSpec = PlotSpec()
) -> str:
    """Instance space colored by benchmark dataset, legend sorted by tag."""
    pts = np.asarray(coords, dtype=float)
    if pts.size == 0 or not tags:
        raise EmptyInput("no coordinates")
    if pts.shape[0] != len(tags):
        raise ValueError("coords and tags must align")

    palette = PALETTES[spec.palette]
    unique = sorted(set(tags))
    color_of = {tag: palette[i % len(palette)] for i, tag in enumerate(unique)}

    axis = _AxisMap(pts, spec)
    parts = _svg_open(spec)
    parts.append("<title>datasets</title>")
    parts.extend(_axes(axis, spec))
    parts.extend(_circles(axis, pts, [color_of[tag] for tag in tags], spec.point_radius))
    lx = spec.width - spec.margin - 110
    for i, tag in enumerate(unique):
        parts.extend(_legend_entry(lx, spec.margin + 16 * i, color_of[tag], tag))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _check_report(report: dict) -> None:
    names = report["algorithms"]
    algos = set(names)
    if len(names) != len(algos):
        raise ReportInvariantError("duplicate algorithm names")
    if set(report["footprints"]) != algos:
        raise ReportInvariantError(
            f"footprints cover {sorted(report['footprints'])}, expected {sorted(algos)}"
        )
    for block in ("cv", "training"):
        covered = set(report["selector"].get(block, {}).get("per_algorithm", {}))
        if covered != algos:
            raise ReportInvariantError(
                f"selector.{block} covers {sorted(covered)}, expected {sorted(algos)}"
            )
    n = len(names)
    if len(report["overlap"]) != n or any(len(row) != n for row in report["overlap"]):
        raise ReportInvariantError("overlap matrix shape mismatch")


def _canonical(value):
    """Round floats to 6 significant digits, recursively; reject non-finite."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ReportInvariantError("non-finite number in report")
        return float(f"{v:.6g}")
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_canonical(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(data: dict) -> str:
    return json_text(_canonical(data)) + "\n"


def write_report(report: dict, path: Path) -> None:
    """Write the canonical report; refuses reports that break invariants."""
    _check_report(report)
    path.write_text(canonical_json(report), encoding="utf-8")


def read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
