import pytest

from eapr.model import FeatureSubset, Outcome, validate_table

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
