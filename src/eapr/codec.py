"""The part of the output directory's format that ``eapr select`` loads:
which stage writes each JSON artifact, the one read, which maps any failure
(a missing, unreadable or malformed file, ``NaN``, ``Infinity`` and nesting
too deep to parse included) to ``E_STAGE <stage that writes it>``, the value
checks, and the decoders of the two model files into ``ranker``'s float
forms. ``artifacts`` holds the rest and builds on this module.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from . import ranker

# Artifact -> the stage that writes it.
WRITTEN_BY = {
    "table.json": "ingest", "selection.json": "select-features", "pca_model.json": "project",
    "coordinates.json": "project", "footprints.json": "footprint", "models.json": "classify",
    "metrics.json": "classify",
}


class CliFailure(Exception):
    """Carries a machine-parsable error code; printed as `CODE detail`."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code} {detail}".strip())
        self.code = code
        self.detail = detail


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _parse(raw: bytes):
    return json.loads(raw.decode("utf-8"), parse_constant=_no_constant)


def read(out_dir: Path, name: str, decode=lambda data: data, parse=_parse):
    """Load one artifact: parse its bytes, then decode the result; a failure
    of either gives `E_STAGE <stage that writes it>`."""
    try:
        return decode(parse((out_dir / name).read_bytes()))
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CliFailure("E_STAGE", WRITTEN_BY[name]) from exc


def _number(value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, not {type(value).__name__}")
    if not math.isfinite(value):  # 1e999 parses as inf
        raise ValueError("expected a finite number")
    return float(value)


def _floats(values) -> tuple[float, ...]:
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise TypeError("expected a list of numbers")
    floats = tuple(map(float, values))
    if not all(map(math.isfinite, floats)):
        raise ValueError("expected finite numbers")
    return floats


def _names(values) -> tuple[str, ...]:
    if type(values) is not list or not set(map(type, values)) <= {str}:
        raise TypeError("expected a list of names")
    return tuple(values)


def _typed(value, kind: type):
    if type(value) is not kind:  # so a bool is no int
        raise TypeError(f"expected {kind.__name__}, not {type(value).__name__}")
    return value


def projection_from_dict(data: dict) -> ranker.Projection:
    """pca_model.json, every list checked against the features; the
    eigenvalues, which only report.json uses, are checked to be numbers."""
    return ranker.Projection(
        features=_names(data["features"]),
        dropped=_names(data["dropped"]),
        means=_floats(data["means"]),
        stds=_floats(data["stds"]),
        loadings=tuple(map(_floats, data["loadings"])),
        eigenvalues=_floats(data["eigenvalues"]),
        explained_variance_2d=_number(data["explained_variance_2d"]),
    )


def scorer_from_dict(data: dict) -> ranker.Scorer:
    """One models.json block as floats: each setting checked to be of its
    JSON type, then all checked as an ``SvmConfig``, and its alphas and labels
    checked against its support vectors."""
    config = ranker.SvmConfig(
        kernel=_typed(data["kernel"], str),
        C=_number(data["C"]),
        gamma=_number(data["gamma"]),
        tolerance=_number(data["tolerance"]),
        max_passes=_typed(data["max_passes"], int),
        seed=_typed(data["seed"], int),
    )
    _typed(data["converged"], bool)
    return ranker.Scorer(
        kernel=config.kernel,
        gamma=config.gamma,
        support_vectors=tuple(map(_floats, data["support_vectors"])),
        alphas=_floats(data["alphas"]),
        labels=_floats(data["labels"]),
        bias=_number(data["bias"]),
    )


def scorers_from_dict(data: dict) -> dict[str, ranker.Scorer]:
    """models.json as each algorithm's float decision function. A name that
    UTF-8 cannot encode (a lone surrogate, which a JSON escape can hold)
    raises UnicodeEncodeError, a ValueError, here rather than when printed."""
    if type(data["models"]) is not dict:
        raise TypeError("expected an object of models")
    scorers = {}
    for algorithm, block in data["models"].items():
        algorithm.encode("utf-8")
        scorers[algorithm] = scorer_from_dict(block)
    return scorers
