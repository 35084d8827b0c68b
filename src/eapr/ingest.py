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
import re
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


ID_COLUMN = "instance_id"
DATASET_COLUMN = "dataset"
OUTCOME_PREFIX = "aprt:"

# Outcome cell text -> its code in InstanceTable.outcomes.
_OUTCOME_CELLS = {
    "1": OUTCOME_CODES[Outcome.GOOD],
    "0": OUTCOME_CODES[Outcome.BAD],
    "": OUTCOME_CODES[Outcome.MISSING],
}


# Characters XML 1.0 forbids even as character references: no SVG can hold a
# name that has one.
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _first_unparseable(cells: list[str]) -> int:
    """The index of the first cell that float() rejects, in cells that hold one."""
    for i, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return i


def parse_instance_table(source: BinaryIO | bytes) -> InstanceTable:
    """Parse a CSV byte stream into an InstanceTable.

    Raises MalformedCsv on structural problems, UnparseableCell on bad cells
    and EmptyTable when no data rows are present. The error raised is the
    first one met reading the data rows in order, and a row's cells in
    order after its length. Then a column name or dataset tag holding a
    character XML 1.0 forbids raises MalformedCsv.
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

    if ID_COLUMN not in header:
        raise MalformedCsv(f"missing id column {ID_COLUMN!r}")
    for special in (ID_COLUMN, DATASET_COLUMN):
        if header.count(special) > 1:
            raise MalformedCsv(f"duplicate column {special!r}")
    id_pos = header.index(ID_COLUMN)
    dataset_pos = header.index(DATASET_COLUMN) if DATASET_COLUMN in header else None

    algorithm_names: list[str] = []
    outcome_pos: list[int] = []
    feature_names: list[str] = []
    feature_pos: list[int] = []
    for pos, name in enumerate(header):
        if pos == id_pos or pos == dataset_pos:
            continue
        if name.startswith(OUTCOME_PREFIX):
            algorithm = name[len(OUTCOME_PREFIX):]
            if algorithm in algorithm_names:
                raise MalformedCsv(f"duplicate outcome column {name!r}")
            algorithm_names.append(algorithm)
            outcome_pos.append(pos)
        else:
            feature_names.append(name)
            feature_pos.append(pos)

    # Blank records are skipped; a row's number counts them, the header is 1.
    line_nos = [no for no, cells in enumerate(records[1:], start=2) if cells]
    rows = [cells for cells in records[1:] if cells]
    width = len(header)
    n = next((i for i, cells in enumerate(rows) if len(cells) != width), len(rows))
    # The rows before the first one of the wrong length, as columns of stripped cells.
    columns = [list(map(str.strip, column)) for column in zip(*rows[:n])] or [[]] * width

    # (row, column order, error) of the first bad cell of each column.
    errors: list[tuple[int, int, IngestError]] = []
    features = np.empty((n, len(feature_pos)))
    for j, (pos, name) in enumerate(zip(feature_pos, feature_names)):
        cells = [cell or "nan" for cell in columns[pos]]
        try:
            features[:, j] = list(map(float, cells))
        except ValueError:
            i = _first_unparseable(cells)
            errors.append((i, j, UnparseableCell(line_nos[i], name, cells[i])))
    outcomes = np.empty((n, len(outcome_pos)), dtype=np.int8)
    for j, (pos, algorithm) in enumerate(zip(outcome_pos, algorithm_names)):
        codes = list(map(_OUTCOME_CELLS.get, columns[pos]))
        if None in codes:
            i = codes.index(None)
            cell = UnparseableCell(line_nos[i], OUTCOME_PREFIX + algorithm, columns[pos][i])
            errors.append((i, len(feature_pos) + j, cell))
        else:
            outcomes[:, j] = codes
    if errors:
        raise min(errors, key=lambda error: error[:2])[2]
    if n < len(rows):
        raise MalformedCsv(f"row {line_nos[n]}: expected {width} cells, got {len(rows[n])}")

    if not rows:
        raise EmptyTable("no data rows")
    tags = columns[dataset_pos] if dataset_pos is not None else [""] * n
    for name in (*header, *dict.fromkeys(tags)):
        if bad := _NOT_XML.search(name):
            raise MalformedCsv(f"{name!r} holds {bad.group()!r}, which XML cannot hold")
    return InstanceTable(feature_names, algorithm_names, columns[id_pos], tags, features, outcomes)


def _overflows(values: np.ndarray) -> bool:
    """Whether the mean over axis 0 overflows float64."""
    try:
        with np.errstate(over="raise", invalid="ignore"):
            values.mean(axis=0)
    except FloatingPointError:
        return True
    return False


def aggregate_rows(table: InstanceTable) -> InstanceTable:
    """Collapse sub-program rows to one row per instance id.

    Groups keep the order of their first row. Feature values become the
    arithmetic mean over the group; outcome labels must be identical within a
    group and are carried through (InconsistentOutcomes otherwise). A mean that
    overflows float64 raises MalformedCsv. The error is the first failing
    group's, and a group with conflicting labels fails on those.

    Groups of one size k are averaged together, as one ``(groups, k, m)``
    stack: its mean over axis 1 sums each group's rows in the same sequence
    as the group's own mean over axis 0, so the values are bit-identical.
    """
    index: dict[str, int] = {}
    group_of = np.array(
        [index.setdefault(key, len(index)) for key in table.instance_ids], dtype=np.intp
    )
    order = np.argsort(group_of, kind="stable")  # row indices, group by group
    sizes = np.bincount(group_of, minlength=len(index))
    starts = np.cumsum(sizes) - sizes
    firsts = order[starts]

    labels = table.outcomes
    failed = set(group_of[(labels != labels[firsts[group_of]]).any(axis=1)].tolist())
    conflicted = min(failed, default=len(index))
    means = np.empty((len(index), len(table.feature_names)))
    for k in sorted(set(sizes.tolist())):
        groups = np.flatnonzero(sizes == k)
        stack = table.features[order[starts[groups, None] + np.arange(k)]]
        try:
            # inf and -inf in one group make a NaN mean: validate_table drops it
            with np.errstate(over="raise", invalid="ignore"):
                means[groups] = stack.mean(axis=1)
        except FloatingPointError:
            failed.add(next(g for g, rows in zip(groups.tolist(), stack) if _overflows(rows)))

    if failed:
        g = min(failed)
        key = list(index)[g]
        if g == conflicted:
            rows = labels[order[starts[g]:starts[g] + sizes[g]]]
            conflict = np.flatnonzero((rows != rows[0]).any(axis=0))[0]
            raise InconsistentOutcomes(
                f"group {key!r}: algorithm {table.algorithm_names[conflict]!r} "
                "has conflicting labels"
            )
        raise MalformedCsv(f"group {key!r}: feature mean overflows")
    return InstanceTable(
        table.feature_names,
        table.algorithm_names,
        index,
        [table.dataset_tags[i] for i in firsts.tolist()],
        means,
        labels[firsts],
    )


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
