"""CSV ingestion, sub-program aggregation, and min-max normalization.

Input format is a comma-separated UTF-8 table:

    instance_id,dataset,<feature columns...>,<outcome columns prefixed "aprt:">

Outcome cells are "1" (GOOD), "0" (BAD) or empty (MISSING). The dataset
column is optional. Empty feature cells parse as NaN and are surfaced later
by validate_table rather than rejected here.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import BinaryIO, Sequence

import numpy as np

from .model import OUTCOME_CODES, InstanceTable, Outcome


class IngestError(Exception):
    """Base class for ingestion failures."""


class MalformedCsv(IngestError):
    pass


class UnparseableCell(IngestError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}, column {column!r}: cannot parse {value!r}")
        self.row = row
        self.column = column
        self.value = value


class EmptyTable(IngestError):
    pass


class InconsistentOutcomes(IngestError):
    pass


@dataclass(frozen=True)
class ColumnSchema:
    """Designates the id column, the optional dataset column, and the prefix
    marking per-algorithm outcome columns."""

    id_column: str = "instance_id"
    dataset_column: str = "dataset"
    outcome_prefix: str = "aprt:"


@dataclass(frozen=True)
class MinMaxParams:
    vmin: float
    vmax: float

    def __post_init__(self) -> None:
        if self.vmax < self.vmin:
            raise ValueError("max must be >= min")

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MinMaxParams":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("empty value vector")
        return cls(float(arr.min()), float(arr.max()))


# Outcome cell text -> its code in InstanceTable.outcomes.
_OUTCOME_CELLS = {
    "1": OUTCOME_CODES[Outcome.GOOD],
    "0": OUTCOME_CODES[Outcome.BAD],
    "": OUTCOME_CODES[Outcome.MISSING],
}


def parse_instance_table(
    source: BinaryIO | bytes, schema: ColumnSchema = ColumnSchema()
) -> InstanceTable:
    """Parse a CSV byte stream into an InstanceTable.

    Raises MalformedCsv on structural problems, UnparseableCell on bad cells
    and EmptyTable when no data rows are present.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    try:
        records = list(csv.reader(io.TextIOWrapper(source, encoding="utf-8", newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedCsv(f"unreadable CSV: {exc}") from None

    if not records:
        raise EmptyTable("no header row")
    header = [h.strip() for h in records[0]]

    if schema.id_column not in header:
        raise MalformedCsv(f"missing id column {schema.id_column!r}")
    id_pos = header.index(schema.id_column)
    dataset_pos = header.index(schema.dataset_column) if schema.dataset_column in header else None

    algorithm_names: list[str] = []
    outcome_pos: list[int] = []
    feature_names: list[str] = []
    feature_pos: list[int] = []
    for pos, name in enumerate(header):
        if pos == id_pos or pos == dataset_pos:
            continue
        if name.startswith(schema.outcome_prefix):
            algorithm = name[len(schema.outcome_prefix):]
            if algorithm in algorithm_names:
                raise MalformedCsv(f"duplicate outcome column {name!r}")
            algorithm_names.append(algorithm)
            outcome_pos.append(pos)
        else:
            feature_names.append(name)
            feature_pos.append(pos)

    ids: list[str] = []
    tags: list[str] = []
    features: list[list[float]] = []
    outcomes: list[list[int]] = []
    for line_no, cells in enumerate(records[1:], start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            raise MalformedCsv(
                f"row {line_no}: expected {len(header)} cells, got {len(cells)}"
            )
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
                raise UnparseableCell(line_no, schema.outcome_prefix + alg, cells[pos])
            codes.append(code)
        ids.append(cells[id_pos])
        tags.append(cells[dataset_pos] if dataset_pos is not None else "")
        features.append(row)
        outcomes.append(codes)

    if not ids:
        raise EmptyTable("no data rows")
    return InstanceTable(feature_names, algorithm_names, ids, tags, features, outcomes)


def aggregate_rows(table: InstanceTable, group_key: str = "instance_id") -> InstanceTable:
    """Collapse sub-program rows to one row per group.

    ``group_key`` is "instance_id" or "dataset". Groups keep the order of their
    first row. Feature values become the arithmetic mean over the group;
    outcome labels must be identical within a group and are carried through
    (InconsistentOutcomes otherwise). A mean that overflows float64 raises
    MalformedCsv.
    """
    if group_key == "instance_id":
        keys = table.instance_ids
    elif group_key == "dataset":
        keys = table.dataset_tags
    else:
        raise KeyError(f"group key must be 'instance_id' or 'dataset', got {group_key!r}")

    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)

    means = []
    with np.errstate(over="raise"):
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
    firsts = table.take(rows[0] for rows in groups.values())
    return replace(firsts, instance_ids=tuple(groups), features=means)


def minmax_normalize(values: Sequence[float]) -> np.ndarray:
    """Affine rescale to [0, 1]; a constant vector maps to all 0.5."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty value vector")
    vmin = arr.min()
    vmax = arr.max()
    if vmax - vmin <= 0.0:
        return np.full(arr.shape, 0.5)
    return (arr - vmin) / (vmax - vmin)
