"""Shared domain types: instance tables, outcome labels, table validation,
and the JSON text every artifact is written in."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Sequence

import numpy as np

# Geometric stages (hulls, PCA) need at least this many rows.
MIN_GEOMETRY_ROWS = 3


class Outcome(enum.Enum):
    """Per-algorithm label: patched (GOOD), not patched (BAD), never attempted (MISSING)."""

    GOOD = "GOOD"
    BAD = "BAD"
    MISSING = "MISSING"


@dataclass(frozen=True)
class Violation:
    """One broken table invariant. ``row`` is an instance id, ``column`` a field name;
    either may be None for table-level rules."""

    row: str | None
    column: str | None
    rule: str

    def __str__(self) -> str:
        loc = ", ".join(p for p in (self.row, self.column) if p)
        return f"{self.rule} ({loc})" if loc else self.rule


@dataclass(frozen=True)
class FeatureSubset:
    """A non-empty set of feature names chosen out of a table's candidates."""

    selected: frozenset[str]

    def __post_init__(self) -> None:
        if not self.selected:
            raise ValueError("feature subset must be non-empty")

    @classmethod
    def of(cls, names: Iterable[str]) -> "FeatureSubset":
        return cls(frozenset(names))

    @property
    def sorted_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.selected))

    def __len__(self) -> int:
        return len(self.selected)


# Per-instance (z1, z2) pairs as an (n, 2) float array, row-aligned with the table.
Coordinates2D = np.ndarray


# The int8 code of each outcome in ``InstanceTable.outcomes``.
OUTCOME_CODES = {Outcome.GOOD: 1, Outcome.BAD: -1, Outcome.MISSING: 0}
_OUTCOME_OF_CODE = {code: outcome for outcome, code in OUTCOME_CODES.items()}


def _frozen_array(values, dtype, shape: tuple[int, int]) -> np.ndarray:
    """A read-only C-contiguous copy of ``values`` with the given shape."""
    array = np.array(values, dtype=dtype)
    if array.size == 0:
        array = array.reshape(shape)
    if array.shape != shape:
        raise ValueError(f"expected shape {shape}, got {array.shape}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class InstanceTable:
    """Instances crossed with features and per-algorithm outcomes, as columns.

    Row i is instance ``instance_ids[i]``. ``features`` is an (n, m) float64
    array, columns ordered like ``feature_names``; ``outcomes`` is an (n, a)
    int8 array, columns ordered like ``algorithm_names``, holding
    ``OUTCOME_CODES`` (+1 GOOD, -1 BAD, 0 MISSING). Both arrays are read-only
    copies of what the constructor was given.
    """

    feature_names: tuple[str, ...]
    algorithm_names: tuple[str, ...]
    instance_ids: tuple[str, ...]
    dataset_tags: tuple[str, ...]
    features: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        fix = lambda name, value: object.__setattr__(self, name, value)
        for name in ("feature_names", "algorithm_names", "instance_ids", "dataset_tags"):
            fix(name, tuple(getattr(self, name)))
        n = len(self.instance_ids)
        if len(self.dataset_tags) != n:
            raise ValueError(f"{len(self.dataset_tags)} dataset tags for {n} rows")
        fix("features", _frozen_array(self.features, np.float64, (n, len(self.feature_names))))
        outcomes = _frozen_array(self.outcomes, np.int8, (n, len(self.algorithm_names)))
        if not np.isin(outcomes, tuple(_OUTCOME_OF_CODE)).all():
            raise ValueError("outcome codes must be +1, -1 or 0")
        fix("outcomes", outcomes)

    def __len__(self) -> int:
        return len(self.instance_ids)

    def take(self, rows: Iterable[int]) -> "InstanceTable":
        """The table of the given rows, in the given order."""
        rows = [int(i) for i in rows]
        return InstanceTable(
            self.feature_names,
            self.algorithm_names,
            tuple(self.instance_ids[i] for i in rows),
            tuple(self.dataset_tags[i] for i in rows),
            self.features[rows],
            self.outcomes[rows],
        )

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature: {name}") from None

    def ordered_subset(self, subset: FeatureSubset) -> tuple[str, ...]:
        """Subset names in this table's column order."""
        missing = subset.selected - set(self.feature_names)
        if missing:
            raise KeyError(f"features not in table: {sorted(missing)}")
        return tuple(n for n in self.feature_names if n in subset.selected)

    def feature_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Dense (n_rows, n_features) copy, columns in ``names`` order."""
        if names is None:
            names = self.feature_names
        return self.features[:, [self.feature_index(n) for n in names]]

    def _outcome_column(self, algorithm: str) -> np.ndarray:
        try:
            return self.outcomes[:, self.algorithm_names.index(algorithm)]
        except ValueError:
            raise KeyError(f"unknown algorithm: {algorithm}") from None

    def outcome_labels(self, algorithm: str) -> tuple[Outcome, ...]:
        return tuple(_OUTCOME_OF_CODE[c] for c in self._outcome_column(algorithm).tolist())

    def labeled_indices(self, algorithm: str) -> tuple[np.ndarray, np.ndarray]:
        """Row indices with a non-MISSING label for ``algorithm`` and their
        +/-1 encoding (GOOD=+1, BAD=-1)."""
        column = self._outcome_column(algorithm)
        idx = np.flatnonzero(column)
        return idx, column[idx].astype(float)


def validate_table(table: InstanceTable) -> list[Violation]:
    """Check every table invariant; violations are returned, never raised.

    Empty result means the table is acceptable to every downstream stage's
    shape preconditions. Row rules are reported row by row, in table order.
    """
    violations: list[Violation] = []

    seen_features: set[str] = set()
    for name in table.feature_names:
        if not name:
            violations.append(Violation(None, name, "empty feature name"))
        elif name in seen_features:
            violations.append(Violation(None, name, "duplicate feature name"))
        seen_features.add(name)

    if len(table) < MIN_GEOMETRY_ROWS:
        violations.append(Violation(None, None, "too few rows"))
    if len(table.feature_names) < 2:
        violations.append(Violation(None, None, "too few features"))

    finite = np.isfinite(table.features)
    non_finite_rows = set(np.flatnonzero(~finite.all(axis=1)).tolist())
    seen_ids: set[str] = set()
    for i, row_id in enumerate(table.instance_ids):
        if row_id in seen_ids:
            violations.append(Violation(row_id, "instance_id", "duplicate id"))
        seen_ids.add(row_id)
        if i in non_finite_rows:
            for j in np.flatnonzero(~finite[i]).tolist():
                violations.append(
                    Violation(row_id, table.feature_names[j], "non-finite feature")
                )

    return violations


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True or key is False or key is None:
        return "true" if key else "false" if key is False else "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_value(value, indent: str) -> str:
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        separator = ",\n" + inner
        if type(value[0]) is float:
            try:
                body = separator.join(map(float.__repr__, value))
            except TypeError:  # an item that is not a float
                body = "n"
            if "n" not in body:  # no "nan" or "inf": every float is finite
                return f"[\n{inner}{body}\n{indent}]"
        body = separator.join([_json_value(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join(
            [
                f"{_json_string(key if type(key) is str else _json_key(key))}: "
                f"{_json_value(item, inner)}"
                for key, item in sorted(value.items())
            ]
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, character for character.

    With ``indent``, Python's ``json`` encodes in pure Python, one generator
    step per value. This writer joins each container's items once, and a
    list of finite floats in one ``join``.
    """
    return _json_value(value, "")
