"""The output directory's format: which stage writes each JSON artifact, and
how each is written and read back.

Every artifact is the text of ``model.json_text`` plus a newline. A read that
fails in any way (a missing, unreadable or malformed file, ``NaN`` and
``Infinity`` included, or a stale one) gives ``E_STAGE <stage that writes
it>``. ``report.json`` is written by ``report.write_report``, and the SVGs,
which no stage reads, by the ``plot`` stage.
"""
from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import classify, project
from .model import OUTCOME_CODES, InstanceTable, json_text

if TYPE_CHECKING:
    from . import footprint as fp

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
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliFailure("E_STAGE", WRITTEN_BY[name]) from exc


# Outcome code <-> its table.json text, "GOOD", "BAD" or "MISSING".
_OUTCOME_TEXT = {code: outcome.value for outcome, code in OUTCOME_CODES.items()}
_OUTCOME_CODE = {text: code for code, text in _OUTCOME_TEXT.items()}


def table_to_dict(table: InstanceTable, digest: str) -> dict:
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
                "outcomes": {a: _OUTCOME_TEXT[c] for a, c in zip(algorithms, codes)},
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
    rows = data["rows"]
    algorithms = data["algorithm_names"]
    table = InstanceTable(
        data["feature_names"],
        algorithms,
        [r["id"] for r in rows],
        [r["dataset"] for r in rows],
        [r["features"] for r in rows],
        [[_OUTCOME_CODE[r["outcomes"][a]] for a in algorithms] for r in rows],
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

    def decode(data: dict) -> np.ndarray:
        if data["ids"] != list(table.instance_ids):
            raise ValueError("coordinates belong to another table")
        return np.array(data["coords"], dtype=float).reshape(-1, 2)

    return read(out_dir, "coordinates.json", decode)


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


def pca_from_dict(data: dict) -> project.PcaModel:
    scaling = project.ScalingParams(
        feature_names=tuple(data["features"]),
        means=tuple(data["means"]),
        stds=tuple(data["stds"]),
        dropped_features=tuple(data["dropped"]),
    )
    return project.PcaModel(
        scaling=scaling,
        loadings=np.array(data["loadings"], dtype=float),
        eigenvalues=np.array(data["eigenvalues"], dtype=float),
        explained_variance_2d=float(data["explained_variance_2d"]),
    )


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


def svm_from_dict(data: dict) -> classify.SvmModel:
    return classify.SvmModel(
        support_vectors=np.array(data["support_vectors"], dtype=float).reshape(-1, 2),
        alphas=np.array(data["alphas"], dtype=float),
        labels=np.array(data["labels"], dtype=float),
        bias=float(data["bias"]),
        gamma=float(data["gamma"]),
        config=classify.SvmConfig(**{f.name: data[f.name] for f in fields(classify.SvmConfig)}),
        converged=bool(data["converged"]),
    )


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


def read_footprints(out_dir: Path) -> tuple[dict, dict[str, fp.Footprint], dict[str, dict]]:
    """footprints.json, each listed algorithm's Footprint, and its metrics."""
    from .footprint import ConvexPolygon, Footprint

    def decode(data: dict):
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
