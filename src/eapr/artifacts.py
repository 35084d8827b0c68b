"""The output directory's format: which stage writes each JSON artifact, and
how each is written and read back.

Every artifact is the text of ``model.json_text`` plus a newline. A read that
fails in any way (a missing, unreadable or malformed file, ``NaN`` and
``Infinity`` included, or a stale one) gives ``E_STAGE <stage that writes
it>``. ``report.json`` is written by ``report.write_report``, and the SVGs,
which no stage reads, by the ``plot`` stage.

``eapr select`` reads the model files through this module into the float
forms of ``ranker``, so the module imports numpy and the numpy-backed modules
only inside the codecs that build their objects.
"""
from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import ranker

if TYPE_CHECKING:
    import numpy as np

    from . import classify, footprint as fp, project
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
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliFailure("E_STAGE", WRITTEN_BY[name]) from exc


def table_to_dict(table: InstanceTable, digest: str) -> dict:
    from .model import Outcome

    text = {outcome.value: outcome.name for outcome in Outcome}  # "GOOD", "BAD", "MISSING"
    algorithms = table.algorithm_names
    return {
        "input_digest": digest,
        "feature_names": list(table.feature_names),
        "algorithm_names": list(algorithms),
        "rows": [
            {
                "id": row_id,
                "dataset": tag,
                "features": features,
                "outcomes": {a: text[c] for a, c in zip(algorithms, codes)},
            }
            for row_id, tag, features, codes in zip(
                table.instance_ids,
                table.dataset_tags,
                table.features.tolist(),
                table.outcomes.tolist(),
            )
        ],
    }


def table_from_dict(data: dict) -> tuple[InstanceTable, str]:
    from .model import InstanceTable, Outcome

    code = {outcome.name: outcome.value for outcome in Outcome}
    rows = data["rows"]
    algorithms = data["algorithm_names"]
    table = InstanceTable(
        data["feature_names"],
        algorithms,
        [r["id"] for r in rows],
        [r["dataset"] for r in rows],
        [r["features"] for r in rows],
        [[code[r["outcomes"][a]] for a in algorithms] for r in rows],
    )
    return table, data["input_digest"]


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


def write_coords(out_dir: Path, table: InstanceTable, coords: np.ndarray) -> None:
    write(out_dir, "coordinates.json", {"ids": table.instance_ids, "coords": coords.tolist()})


def read_coords(out_dir: Path, table: InstanceTable) -> np.ndarray:
    """The projected points; coordinates of another table's rows are stale."""
    import numpy as np

    def decode(data: dict) -> np.ndarray:
        if data["ids"] != list(table.instance_ids):
            raise ValueError("coordinates belong to another table")
        return np.array(data["coords"], dtype=float).reshape(-1, 2)

    return read(out_dir, "coordinates.json", decode)


def read_selection(out_dir: Path, table: InstanceTable) -> dict:
    """selection.json; a selection of features the table lacks is stale."""

    def decode(data: dict) -> dict:
        if not set(data["selected"]) <= set(table.feature_names):
            raise ValueError("the selection names features the table lacks")
        return data

    return read(out_dir, "selection.json", decode)


def pca_to_dict(model: project.PcaModel) -> dict:
    return {
        "features": list(model.feature_names),
        "means": list(model.scaling.means),
        "stds": list(model.scaling.stds),
        "dropped": list(model.scaling.dropped_features),
        "loadings": model.loadings.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "explained_variance_2d": float(model.explained_variance_2d),
    }


def _number(value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, not {type(value).__name__}")
    return float(value)


def _floats(values) -> tuple[float, ...]:
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise TypeError("expected a list of numbers")
    return tuple(map(float, values))


def _names(values) -> tuple[str, ...]:
    if type(values) is not list or any(type(v) is not str for v in values):
        raise TypeError("expected a list of names")
    return tuple(values)


def projection_from_dict(data: dict) -> ranker.Projection:
    """pca_model.json as floats, every list checked against the features; the
    eigenvalues, which a projection does not use, are checked too."""
    _floats(data["eigenvalues"])
    _number(data["explained_variance_2d"])
    return ranker.Projection(
        features=_names(data["features"]),
        dropped=_names(data["dropped"]),
        means=_floats(data["means"]),
        stds=_floats(data["stds"]),
        loadings=tuple(map(_floats, data["loadings"])),
    )


def pca_from_dict(data: dict) -> project.PcaModel:
    import numpy as np

    from .project import PcaModel, ScalingParams

    p = projection_from_dict(data)
    return PcaModel(
        scaling=ScalingParams(p.features, p.means, p.stds, p.dropped),
        loadings=np.array(p.loadings, dtype=float),
        eigenvalues=np.array(data["eigenvalues"], dtype=float),
        explained_variance_2d=float(data["explained_variance_2d"]),
    )


def read_pca(out_dir: Path, selected: list[str]) -> project.PcaModel:
    """pca_model.json; a model of other features than ``selected`` is stale."""

    def decode(data: dict) -> project.PcaModel:
        model = pca_from_dict(data)
        if {*model.feature_names, *model.scaling.dropped_features} != set(selected):
            raise ValueError("the projection is not of the selected features")
        return model

    return read(out_dir, "pca_model.json", decode)


def svm_to_dict(model: classify.SvmModel) -> dict:
    """The model's config, with ``gamma`` the value it resolved to, and its fit."""
    return {
        **asdict(model.config),
        "gamma": model.gamma,
        "support_vectors": model.support_vectors.tolist(),
        "alphas": model.alphas.tolist(),
        "labels": model.labels.tolist(),
        "bias": model.bias,
        "converged": model.converged,
    }


def scorer_from_dict(data: dict) -> ranker.Scorer:
    """One models.json block as floats: its settings checked as an
    ``SvmConfig``, its alphas and labels against its support vectors."""
    config = ranker.SvmConfig(**{f.name: data[f.name] for f in fields(ranker.SvmConfig)})
    return ranker.Scorer(
        kernel=config.kernel,
        gamma=float(config.gamma),
        support_vectors=tuple(map(_floats, data["support_vectors"])),
        alphas=_floats(data["alphas"]),
        labels=_floats(data["labels"]),
        bias=_number(data["bias"]),
    )


def scorers_from_dict(data: dict) -> dict[str, ranker.Scorer]:
    """models.json as each algorithm's float decision function."""
    if type(data["models"]) is not dict:
        raise TypeError("expected an object of models")
    return {algorithm: scorer_from_dict(block) for algorithm, block in data["models"].items()}


# The footprints.json block fields holding hull vertices; the other fields,
# but "algorithm", are the metrics report.json carries.
_HULLS = ("good_hull", "bad_hull", "contradiction")


def footprint_block(print_: fp.Footprint, norm: float) -> dict:
    """One footprints.json block: the footprint's fields, each hull as its
    vertices, the two areas over ``norm``, and whether it is degenerate."""
    block = dict(vars(print_))
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
) -> tuple[dict, dict[str, fp.Footprint], dict[str, dict]]:
    """footprints.json, each listed algorithm's Footprint, and its metrics;
    footprints of another table's algorithms are stale."""
    from .footprint import ConvexPolygon, Footprint

    def decode(data: dict):
        _check_algorithms(data["algorithms"], table, "footprints")
        prints, metrics = {}, {}
        for algorithm in data["algorithms"]:
            block = data["footprints"][algorithm]
            args = {f.name: block[f.name] for f in fields(Footprint)}
            args.update((h, ConvexPolygon(tuple(map(tuple, args[h])))) for h in _HULLS)
            prints[algorithm] = Footprint(**args)
            metrics[algorithm] = {
                k: v for k, v in block.items() if k not in _HULLS and k != "algorithm"
            }
        return data, prints, metrics

    return read(out_dir, "footprints.json", decode)


def read_metrics(out_dir: Path, table: InstanceTable) -> dict:
    """metrics.json; selector metrics of another table's algorithms are stale."""

    def decode(data: dict) -> dict:
        for block in ("cv", "training"):
            _check_algorithms(data[block]["per_algorithm"], table, "metrics")
        return data

    return read(out_dir, "metrics.json", decode)
