"""The output directory's format: which stage writes each JSON artifact, and
how each is written and read back.

Every artifact is the text of ``model.json_text`` plus a newline. A read that
fails in any way (a missing, unreadable or malformed file, ``NaN``,
``Infinity`` and nesting too deep to parse included, or a stale one) gives
``E_STAGE <stage that writes it>``. ``report.json`` is written by
``report.write_report``, and the SVGs, which no stage reads, by the ``plot``
stage.

``eapr select`` reads the model files through this module into the float
forms of ``ranker``, so the module imports numpy and the numpy-backed
modules only inside the codecs that build or read their objects, and a
``select`` imports none of them. A record, a NamedTuple, is written through
its codec's dict (``pca_to_dict``, ``svm_to_dict``, ``footprint_block``),
never as itself: ``model.json_text`` would write a tuple subclass as a list.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from . import ranker

if TYPE_CHECKING:
    import numpy as np

    from . import classify, footprint as fp
    from .model import InstanceTable

# Artifact -> the stage that writes it.
WRITTEN_BY = {
    "table.json": "ingest",
    "selection.json": "select-features",
    "pca_model.json": "project",
    "coordinates.json": "project",
    "footprints.json": "footprint",
    "models.json": "classify",
    "metrics.json": "classify",
}


class CliFailure(Exception):
    """Carries a machine-parsable error code; printed as `CODE detail`."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code} {detail}".strip())
        self.code = code
        self.detail = detail


def write(out_dir: Path, name: str, data) -> bytes:
    """Write one artifact and return its bytes."""
    from .model import json_text

    raw = (json_text(data) + "\n").encode("utf-8")
    (out_dir / name).write_bytes(raw)
    return raw


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


def table_to_dict(table: InstanceTable, digest: str) -> dict:
    """table.json's columns: the ids and dataset tags, one float list per
    feature and one list of outcome names per algorithm, each in the order of
    its names."""
    from .model import Outcome

    text = {outcome.value: outcome.name for outcome in Outcome}  # "GOOD", "BAD", "MISSING"
    return {
        "input_digest": digest,
        "feature_names": list(table.feature_names),
        "algorithm_names": list(table.algorithm_names),
        "ids": list(table.instance_ids),
        "datasets": list(table.dataset_tags),
        "features": table.features.T.tolist(),
        "outcomes": [list(map(text.__getitem__, column)) for column in table.outcomes.T.tolist()],
    }


def _columns(data: dict, key: str, names: tuple[str, ...], n: int, decode) -> list:
    """``data[key]`` as one decoded column per name, each ``n`` long."""
    columns = data[key]
    if type(columns) is not list or len(columns) != len(names):
        raise ValueError(f"{key}: expected {len(names)} columns")
    columns = list(map(decode, columns))
    if any(len(column) != n for column in columns):
        raise ValueError(f"{key}: expected columns of {n} items")
    return columns


def _digest(value) -> str:
    if type(value) is not str or len(value) != 64 or not set(value) <= set("0123456789abcdef"):
        raise ValueError("expected a sha256 as 64 lowercase hex digits")
    return value


def table_from_dict(data: dict) -> tuple[InstanceTable, str]:
    """table.json as (table, input digest), every column checked against its
    names and ``ids``, and the digest a sha256 in hex. A name, id or tag that
    is not a str, or that UTF-8 cannot encode (a lone surrogate, which a JSON
    escape can hold), raises TypeError or UnicodeEncodeError here rather than
    where an SVG file name or text is written."""
    import numpy as np

    from .model import InstanceTable, Outcome

    code = {outcome.name: outcome.value for outcome in Outcome}
    features, algorithms = _names(data["feature_names"]), _names(data["algorithm_names"])
    ids, tags = _names(data["ids"]), _names(data["datasets"])
    if len(tags) != len(ids):
        raise ValueError(f"{len(tags)} dataset tags for {len(ids)} ids")
    columns = _columns(data, "features", features, len(ids), _floats)
    outcomes = _columns(data, "outcomes", algorithms, len(ids), _names)
    table = InstanceTable(
        features,
        algorithms,
        ids,
        tags,
        np.array(columns, dtype=float).T,
        np.array([list(map(code.__getitem__, column)) for column in outcomes], dtype=np.int8).T,
    )
    "".join((*features, *algorithms, *ids, *tags)).encode("utf-8")
    return table, _digest(data["input_digest"])


# The last table.json this process wrote or decoded: [sha256 of its bytes,
# (table, input digest)]. Mutated in place, so no module binding ever changes.
_TABLE_MEMO: list = [None, None]


def write_table(out_dir: Path, table: InstanceTable, digest: str) -> None:
    import hashlib

    raw = write(out_dir, "table.json", table_to_dict(table, digest))
    _TABLE_MEMO[:] = hashlib.sha256(raw).digest(), (table, digest)


def read_table(out_dir: Path) -> tuple[InstanceTable, str]:
    """table.json as (table, input digest); decoded unless its sha256 is the memo's."""
    import hashlib

    def parse(raw: bytes) -> tuple[InstanceTable, str]:
        key = hashlib.sha256(raw).digest()
        if _TABLE_MEMO[0] != key:
            _TABLE_MEMO[:] = key, table_from_dict(_parse(raw))
        return _TABLE_MEMO[1]

    return read(out_dir, "table.json", parse=parse)


def coords_from_dict(data: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """coordinates.json as (ids, (n, 2) array of points), both columns
    checked against ``ids``."""
    import numpy as np

    ids, z1, z2 = _names(data["ids"]), _floats(data["z1"]), _floats(data["z2"])
    if not len(z1) == len(z2) == len(ids):
        raise ValueError(f"expected {len(ids)} points")
    return ids, np.column_stack((z1, z2))


# The last coordinates.json this process wrote or decoded: [sha256 of its
# bytes, (ids, points)]. Mutated in place, like _TABLE_MEMO.
_COORDS_MEMO: list = [None, None]


def write_coords(out_dir: Path, table: InstanceTable, coords: np.ndarray) -> None:
    import hashlib

    z1, z2 = coords.T.tolist()
    data = {"ids": list(table.instance_ids), "z1": z1, "z2": z2}
    raw = write(out_dir, "coordinates.json", data)
    try:
        _COORDS_MEMO[:] = hashlib.sha256(raw).digest(), coords_from_dict(data)
    except ValueError:  # a non-finite point: the file is read, and refused, anew
        _COORDS_MEMO[:] = None, None


def read_coords(out_dir: Path, table: InstanceTable) -> np.ndarray:
    """The projected points as an (n, 2) array, decoded unless the file's
    sha256 is the memo's; coordinates of another table's rows are stale."""
    import hashlib

    def parse(raw: bytes) -> tuple[tuple[str, ...], np.ndarray]:
        key = hashlib.sha256(raw).digest()
        if _COORDS_MEMO[0] != key:
            _COORDS_MEMO[:] = key, coords_from_dict(_parse(raw))
        return _COORDS_MEMO[1]

    def decode(memo: tuple[tuple[str, ...], np.ndarray]) -> np.ndarray:
        ids, points = memo
        if ids != table.instance_ids:
            raise ValueError("coordinates belong to another table")
        return points.copy()

    return read(out_dir, "coordinates.json", decode, parse)


def read_selection(out_dir: Path, table: InstanceTable) -> dict:
    """selection.json; a selection of features the table lacks is stale."""

    def decode(data: dict) -> dict:
        if not set(data["selected"]) <= set(table.feature_names):
            raise ValueError("the selection names features the table lacks")
        return data

    return read(out_dir, "selection.json", decode)


def pca_to_dict(model: ranker.Projection) -> dict:
    return {
        "features": list(model.features),
        "means": list(model.means),
        "stds": list(model.stds),
        "dropped": list(model.dropped),
        "loadings": [list(row) for row in model.loadings],
        "eigenvalues": list(model.eigenvalues),
        "explained_variance_2d": model.explained_variance_2d,
    }


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


def read_pca(out_dir: Path, selected: list[str]) -> ranker.Projection:
    """pca_model.json; a model of other features than ``selected`` is stale."""

    def decode(data: dict) -> ranker.Projection:
        model = projection_from_dict(data)
        if {*model.features, *model.dropped} != set(selected):
            raise ValueError("the projection is not of the selected features")
        return model

    return read(out_dir, "pca_model.json", decode)


def svm_to_dict(model: classify.SvmModel) -> dict:
    """The model's config, with ``gamma`` the value it resolved to, and its fit."""
    return {
        **model.config._asdict(),
        "gamma": model.gamma,
        "support_vectors": model.support_vectors.tolist(),
        "alphas": model.alphas.tolist(),
        "labels": model.labels.tolist(),
        "bias": model.bias,
        "converged": model.converged,
    }


def _typed(value, kind: type):
    if type(value) is not kind:  # so a bool is no int
        raise TypeError(f"expected {kind.__name__}, not {type(value).__name__}")
    return value


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


# The footprints.json block fields holding hull vertices; the other fields,
# but "algorithm", are the metrics report.json carries.
_HULLS = ("good_hull", "bad_hull", "contradiction")


def footprint_block(print_: fp.Footprint, norm: float) -> dict:
    """One footprints.json block: the footprint's fields, each hull as its
    vertices, the two areas over ``norm``, and whether it is degenerate."""
    block = print_._asdict()
    block.update((h, block[h].vertices) for h in _HULLS)
    block.update(
        area_good_norm=print_.area_good / norm,
        area_net_norm=print_.area_net / norm,
        degenerate=print_.is_degenerate,
    )
    return block


def _check_algorithms(listed, table: InstanceTable, artifact: str) -> None:
    if sorted(listed) != sorted(table.algorithm_names):
        raise ValueError(f"{artifact} belong to another table")


def read_footprints(
    out_dir: Path, table: InstanceTable
) -> tuple[dict[str, fp.Footprint], dict[str, dict], list[tuple[float, ...]]]:
    """footprints.json as each listed algorithm's Footprint, in its order, the
    metrics report.json carries for it, and the n x n overlap. Every hull
    vertex is a pair of numbers, every area, purity and density a number, and
    ``degenerate`` the bool the good hull implies; footprints of another
    table's algorithms are stale."""
    from .footprint import ConvexPolygon, Footprint

    def hull(vertices) -> ConvexPolygon:
        points = tuple(map(_floats, vertices))
        if not set(map(len, points)) <= {2}:
            raise ValueError("a hull vertex is not a pair")
        return ConvexPolygon(points)

    def decode(data: dict):
        algorithms = _names(data["algorithms"])
        _check_algorithms(algorithms, table, "footprints")
        prints, metrics = {}, {}
        for algorithm in algorithms:
            block = data["footprints"][algorithm]
            if block["algorithm"] != algorithm:
                raise ValueError(f"the footprint of {algorithm!r} names another algorithm")
            numbers = {
                k: _number(block[k]) for k in Footprint._fields if k not in (*_HULLS, "algorithm")
            }
            print_ = Footprint(algorithm=algorithm, **{h: hull(block[h]) for h in _HULLS}, **numbers)
            if _typed(block["degenerate"], bool) is not print_.is_degenerate:
                raise ValueError(f"the footprint of {algorithm!r} is misflagged as degenerate")
            prints[algorithm] = print_
            metrics[algorithm] = {
                **numbers,
                "area_good_norm": _number(block["area_good_norm"]),
                "area_net_norm": _number(block["area_net_norm"]),
                "degenerate": print_.is_degenerate,
            }
        return prints, metrics, _columns(data, "overlap", algorithms, len(algorithms), _floats)

    return read(out_dir, "footprints.json", decode)


def _optional_number(value) -> float | None:
    return None if value is None else _number(value)


def _selector_metrics(data: dict, table: InstanceTable) -> dict:
    """One metrics.json block: each algorithm's accuracy, precision and
    recall, then the two aggregates, each a number or null."""
    per_algorithm = data["per_algorithm"]
    _check_algorithms(per_algorithm, table, "metrics")
    return {
        "per_algorithm": {
            algorithm: {
                k: _optional_number(per_algorithm[algorithm][k])  # TypeError unless a dict
                for k in ("accuracy", "precision", "recall")
            }
            for algorithm in per_algorithm
        },
        "accuracy": _optional_number(data["accuracy"]),
        "precision": _optional_number(data["precision"]),
    }


def read_metrics(out_dir: Path, table: InstanceTable) -> dict:
    """metrics.json, its every metric a number or null; selector metrics of
    another table's algorithms are stale."""

    def decode(data: dict) -> dict:
        return {block: _selector_metrics(data[block], table) for block in ("cv", "training")}

    return read(out_dir, "metrics.json", decode)
