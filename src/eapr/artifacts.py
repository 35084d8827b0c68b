"""The output directory's format: how each JSON artifact is written and read
back. ``codec``, which ``eapr select`` loads alone, holds the part the model
files need: which stage writes each artifact, the one read, the value checks
and the two model decoders; they are imported here too, so
``artifacts.read`` is ``codec.read``.

Every artifact is the text of ``model.json_text`` plus a newline. A read that
fails in any way (a missing, unreadable or malformed file, ``NaN``,
``Infinity`` and nesting too deep to parse included, or a stale one) gives
``E_STAGE <stage that writes it>``. ``report.json`` is written by
``report.write_report``, and the SVGs, which no stage reads, by the ``plot``
stage. numpy and the numpy-backed modules are imported only inside the codecs
that build or read their objects. A record, a NamedTuple, is written through
its codec's dict (``pca_to_dict``, ``svm_to_dict``, ``footprint_block``),
never as itself: ``model.json_text`` would write a tuple subclass as a list.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .codec import (WRITTEN_BY, CliFailure, _floats, _names, _number, _parse, _typed,
                    projection_from_dict, read, scorer_from_dict, scorers_from_dict)

if TYPE_CHECKING:
    from pathlib import Path

    import numpy as np

    from . import classify, footprint as fp, ranker
    from .model import InstanceTable


def write(out_dir: Path, name: str, data) -> bytes:
    """Write one artifact and return its bytes."""
    from .model import json_text

    raw = (json_text(data) + "\n").encode("utf-8")
    (out_dir / name).write_bytes(raw)
    return raw


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


def _exact(block, keys: tuple[str, ...]) -> dict:
    """``block``, an object of exactly ``keys``."""
    if type(block) is not dict or block.keys() != set(keys):
        raise ValueError(f"expected an object of {', '.join(keys)}")
    return block


def read_selection(out_dir: Path, table: InstanceTable) -> dict:
    """selection.json, decoded: the selected features, without duplicates;
    the final subset's fitness; the frequency of each feature a repeat chose;
    and each repeat's winner (its features, accuracy and size) and history.
    Every object has exactly its keys; a selection of features the table
    lacks is stale."""

    def features(values) -> tuple[str, ...]:
        names = _names(values)
        if not set(names) <= set(table.feature_names):
            raise ValueError("the selection names features the table lacks")
        return names

    def repeat(block) -> dict:
        _exact(block, ("features", "accuracy", "size", "history"))
        return {
            "features": features(block["features"]),
            "accuracy": _number(block["accuracy"]),
            "size": _typed(block["size"], int),
            "history": _floats(block["history"]),
        }

    def decode(data) -> dict:
        _exact(data, ("selected", "fitness", "frequencies", "repeats"))
        selected = features(data["selected"])
        if len(set(selected)) != len(selected):
            raise ValueError("the selection names a feature twice")
        fitness = _exact(data["fitness"], ("mean_cv_accuracy", "subset_size"))
        frequencies = _typed(data["frequencies"], dict)
        return {
            "selected": selected,
            "fitness": {
                "mean_cv_accuracy": _number(fitness["mean_cv_accuracy"]),
                "subset_size": _typed(fitness["subset_size"], int),
            },
            "frequencies": dict(zip(features(list(frequencies)),
                                    map(_number, frequencies.values()))),
            "repeats": list(map(repeat, _typed(data["repeats"], list))),
        }

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
