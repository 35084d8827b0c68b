import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eapr.model import FeatureSubset, Outcome, json_text, validate_table

from conftest import BAD, GOOD, make_table


def test_snapshot_rows_pass_validation(snapshot_table):
    assert validate_table(snapshot_table) == []


def test_duplicate_instance_id_reported():
    table = make_table(
        ["f1"],
        ["A"],
        [
            ("x", "", (1.0,), (GOOD,)),
            ("x", "", (2.0,), (BAD,)),
            ("y", "", (3.0,), (GOOD,)),
        ],
    )
    dups = [v for v in validate_table(table) if v.rule == "duplicate id"]
    assert len(dups) == 1
    assert dups[0].row == "x"
    assert dups[0].column == "instance_id"


def test_nan_feature_reported():
    table = make_table(
        ["f1", "f2"],
        ["A"],
        [
            ("a", "", (1.0, 2.0), (GOOD,)),
            ("b", "", (float("nan"), 1.0), (BAD,)),
            ("c", "", (3.0, float("inf")), (GOOD,)),
        ],
    )
    bad = [v for v in validate_table(table) if v.rule == "non-finite feature"]
    assert {(v.row, v.column) for v in bad} == {("b", "f1"), ("c", "f2")}


def test_too_few_rows_reported():
    table = make_table(
        ["f1"], ["A"], [("a", "", (1.0,), (GOOD,)), ("b", "", (2.0,), (BAD,))]
    )
    assert any(v.rule == "too few rows" for v in validate_table(table))


def test_too_few_features_reported():
    table = make_table(
        ["f1"],
        ["A"],
        [(f"r{i}", "", (float(i),), (GOOD,)) for i in range(5)],
    )
    assert any(v.rule == "too few features" for v in validate_table(table))


def test_feature_length_mismatch_reported():
    with pytest.raises(ValueError):
        make_table(
            ["f1", "f2"],
            ["A"],
            [
                ("a", "", (1.0, 2.0), (GOOD,)),
                ("b", "", (1.0,), (BAD,)),
                ("c", "", (1.0, 2.0), (GOOD,)),
            ],
        )


def test_validation_is_pure(snapshot_table):
    assert validate_table(snapshot_table) == validate_table(snapshot_table)


def test_empty_subset_rejected():
    with pytest.raises(ValueError):
        FeatureSubset(frozenset())


def test_labeled_indices_excludes_missing():
    table = make_table(
        ["f1"],
        ["A"],
        [
            ("a", "", (1.0,), (GOOD,)),
            ("b", "", (2.0,), (Outcome.MISSING,)),
            ("c", "", (3.0,), (BAD,)),
        ],
    )
    idx, y = table.labeled_indices("A")
    assert list(idx) == [0, 2]
    assert list(y) == [1.0, -1.0]


def test_subset_ordering_follows_table():
    table = make_table(
        ["z", "a", "m"],
        ["A"],
        [("r1", "", (1.0, 2.0, 3.0), (GOOD,))] * 1,
    )
    assert table.ordered_subset(FeatureSubset.of(["m", "z"])) == ("z", "m")
    with pytest.raises(KeyError):
        table.ordered_subset(FeatureSubset.of(["nope"]))


floats = st.floats() | st.sampled_from([-0.0, 0.0, 1e308, -1e-308, 5e-324, 0.1, 1e16])
# Non-ASCII text and lone surrogates, which json.dumps escapes as \uXXXX
texts = st.text(st.characters() | st.characters(categories=["Cs"]))
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | floats
    | floats.map(np.float64)
    | texts
)
# A list whose first item is a str or a float is joined in one go unless an
# item of another type sends it down the per-item path.
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children)
    | st.lists(floats)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1)
    | st.lists(texts, min_size=1)
    | st.tuples(texts, st.lists(texts | floats | st.integers() | children, min_size=1)).map(
        lambda first_rest: [first_rest[0], *first_rest[1]]),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_json_text_is_json_dumps_sorted_and_indented(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [[], {}, [[]], {"": {}}, [1.5, 2, 3.0], [0.5, float("nan")], ("é", "\u2028", "\x00"),
     ["GOOD", "\ud800", 1, None], ["a", ["b"]], ["a", 0.5],
     {"b": [-0.0, float("inf")], "a": -(10**30)}, {"b": 0, "B": 1, "é": 2, "": 3},
     {'"\u2028\\': {"\x00": [None]}}],
)
def test_json_text_edge_values(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [object(), [np.int64(1)], {(1, 2): 0}, ["a", np.int64(1)]])
def test_json_text_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        json_text(value)


@pytest.mark.parametrize("value", [{1.5: None, True: 1, 2: 2}, {None: 0}, {"a": {1: 0}}])
def test_json_text_rejects_keys_that_are_not_strings(value):
    # json.dumps writes these keys as strings; no artifact has one
    with pytest.raises(TypeError):
        json_text(value)
