"""CSV ingestion, sub-program aggregation, and min-max normalization.

Input format is a comma-separated UTF-8 table, with or without a byte-order
mark:

    instance_id,dataset,<feature columns...>,<outcome columns prefixed "aprt:">

Outcome cells are "1" (GOOD), "0" (BAD) or empty (MISSING). Every row needs
a non-empty instance id. The dataset column is optional. Empty feature cells
parse as NaN and are surfaced later by validate_table rather than rejected
here.
"""
from __future__ import annotations

import collections
import csv
import io
import itertools
import re
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .model import InstanceTable, Outcome


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

# Outcome cell text -> its code in InstanceTable.outcomes, as a plain int
# (numpy stores a list of ints faster than a list of enum members).
_OUTCOME_CELLS = {"1": Outcome.GOOD.value, "0": Outcome.BAD.value, "": Outcome.MISSING.value}


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


# Data records read, checked and converted at a time: the table's columns grow
# chunk by chunk, and no list of every record is kept.
_CHUNK_ROWS = 512


def parse_instance_table(source: BinaryIO | bytes) -> InstanceTable:
    """Parse a CSV byte stream into an InstanceTable.

    Raises MalformedCsv on structural problems (an empty id among them),
    UnparseableCell on bad cells and EmptyTable when no data rows are
    present. A file that UTF-8 or the CSV reader rejects anywhere gives its
    ``unreadable CSV`` error. Otherwise the error raised is the first one met
    reading the data rows in order, and a row's cells after its length: its
    id, its features, then its outcomes. Then a column name or dataset tag
    holding a character XML 1.0 forbids raises MalformedCsv.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    records = csv.reader(io.TextIOWrapper(source, encoding="utf-8-sig", newline=""))
    try:
        try:
            return _parse_records(records)
        except IngestError:
            collections.deque(records, maxlen=0)  # an unreadable rest wins
            raise
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedCsv(f"unreadable CSV: {exc}") from None


def _parse_records(records: Iterator[list[str]]) -> InstanceTable:
    header = next(records, None)
    if header is None:
        raise EmptyTable("no header row")
    header = [h.strip() for h in header]

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

    width = len(header)
    ids: list[str] = []
    tags: list[str] = []
    feature_blocks: list[np.ndarray] = []
    outcome_blocks: list[np.ndarray] = []
    first = 2  # the row number of the chunk's first record; the header is 1
    while chunk := list(itertools.islice(records, _CHUNK_ROWS)):
        # Blank records are skipped; a row's number counts them.
        line_nos = range(first, first + len(chunk))
        first += len(chunk)
        if [] in chunk:
            line_nos = [no for no, cells in zip(line_nos, chunk) if cells]
            chunk = [cells for cells in chunk if cells]
        n = next((i for i, cells in enumerate(chunk) if len(cells) != width), len(chunk))
        # The rows before the first one of the wrong length, as columns.
        columns = list(zip(*chunk[:n])) or [()] * width

        # (row, column order, error) of the first bad cell of each column; the
        # id cell counts as a row's first. float() and the outcome lookup take
        # most cells as they are (float() strips what str.strip does); a column
        # with a cell either rejects is stripped and read again.
        errors: list[tuple[int, int, IngestError]] = []
        chunk_ids = list(map(str.strip, columns[id_pos]))
        if "" in chunk_ids:
            i = chunk_ids.index("")
            empty = MalformedCsv(f"row {line_nos[i]}, column {ID_COLUMN!r}: empty id")
            errors.append((i, -1, empty))
        features = np.empty((n, len(feature_pos)))
        for j, (pos, name) in enumerate(zip(feature_pos, feature_names)):
            try:
                features[:, j] = list(map(float, columns[pos]))
            except ValueError:
                cells = [cell.strip() or "nan" for cell in columns[pos]]
                try:
                    features[:, j] = list(map(float, cells))
                except ValueError:
                    i = _first_unparseable(cells)
                    errors.append((i, j, UnparseableCell(line_nos[i], name, cells[i])))
        outcomes = np.empty((n, len(outcome_pos)), dtype=np.int8)
        for j, (pos, algorithm) in enumerate(zip(outcome_pos, algorithm_names)):
            codes = list(map(_OUTCOME_CELLS.get, columns[pos]))
            if None in codes:
                cells = list(map(str.strip, columns[pos]))
                codes = list(map(_OUTCOME_CELLS.get, cells))
                if None in codes:
                    i = codes.index(None)
                    cell = UnparseableCell(line_nos[i], OUTCOME_PREFIX + algorithm, cells[i])
                    errors.append((i, len(feature_pos) + j, cell))
                    continue
            outcomes[:, j] = codes
        if errors:
            raise min(errors, key=lambda error: error[:2])[2]
        if n < len(chunk):
            raise MalformedCsv(f"row {line_nos[n]}: expected {width} cells, got {len(chunk[n])}")

        ids += chunk_ids
        if dataset_pos is not None:
            tags += map(str.strip, columns[dataset_pos])
        feature_blocks.append(features)
        outcome_blocks.append(outcomes)

    if not ids:
        raise EmptyTable("no data rows")
    if dataset_pos is None:
        tags = [""] * len(ids)
    for name in (*header, *dict.fromkeys(tags)):
        if bad := _NOT_XML.search(name):
            raise MalformedCsv(f"{name!r} holds {bad.group()!r}, which XML cannot hold")
    features, outcomes = np.concatenate(feature_blocks), np.concatenate(outcome_blocks)
    return InstanceTable(feature_names, algorithm_names, ids, tags, features, outcomes)


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
    arithmetic mean over the group; the dataset tag and the outcome labels
    must be identical within a group and are carried through. The error is
    the first failing group's, and a group fails on the first of: conflicting
    dataset tags (MalformedCsv), conflicting labels (InconsistentOutcomes), a
    mean that overflows float64 (MalformedCsv).

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

    lead = firsts[group_of]  # each row's group's first row
    tags = np.array(table.dataset_tags, dtype=object)
    mixed_tags = set(group_of[tags != tags[lead]].tolist())
    labels = table.outcomes
    mixed_labels = set(group_of[(labels != labels[lead]).any(axis=1)].tolist())
    failed = mixed_tags | mixed_labels
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
        rows = order[starts[g]:starts[g] + sizes[g]]
        if g in mixed_tags:
            first, *rest = (table.dataset_tags[i] for i in rows.tolist())
            other = next(tag for tag in rest if tag != first)
            raise MalformedCsv(
                f"group {key!r}: conflicting dataset tags {first!r} and {other!r}"
            )
        if g in mixed_labels:
            rows = labels[rows]
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
