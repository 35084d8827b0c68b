import math

import numpy as np
import pytest

from eapr.ingest import (
    ColumnSchema,
    EmptyTable,
    InconsistentOutcomes,
    MalformedCsv,
    MinMaxParams,
    UnparseableCell,
    aggregate_rows,
    minmax_normalize,
    parse_instance_table,
)
from eapr.model import FeatureSubset, Outcome
from eapr.project import AllFeaturesDropped, standardize

from conftest import BAD, GOOD, MISSING, make_table
from oracles import pairwise_sorted_mean

SNAPSHOT_CSV = b"""instance_id,wmc,dit,noc,cbo,aprt:Kali,aprt:Arja
Jackrabbit,9.37,0.78,0.23,12.51,1,0
Accumulo,11.94,0.81,0.22,13.23,1,0
Flink,8.43,0.75,0.31,10.79,1,1
Wicket,8.84,0.58,0.41,11.01,0,1
"""


class TestParse:
    def test_snapshot_row(self):
        table = parse_instance_table(SNAPSHOT_CSV)
        assert table.feature_names == ("wmc", "dit", "noc", "cbo")
        assert table.algorithm_names == ("Kali", "Arja")
        assert table.instance_ids[0] == "Jackrabbit"
        assert table.features[0, 0] == 9.37
        assert table.outcome_labels("Kali")[0] is Outcome.GOOD
        assert table.outcome_labels("Arja")[0] is Outcome.BAD

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyTable):
            parse_instance_table(b"instance_id,f1,aprt:A\n")

    def test_garbage_feature_cell(self):
        csv = b"instance_id,f1,aprt:A\nx,abc,1\n"
        with pytest.raises(UnparseableCell) as err:
            parse_instance_table(csv)
        assert err.value.row == 2
        assert err.value.column == "f1"

    def test_garbage_outcome_cell(self):
        with pytest.raises(UnparseableCell):
            parse_instance_table(b"instance_id,f1,aprt:A\nx,1.0,2\n")

    def test_row_length_mismatch(self):
        with pytest.raises(MalformedCsv):
            parse_instance_table(b"instance_id,f1,aprt:A\nx,1.0\n")

    def test_missing_id_column(self):
        with pytest.raises(MalformedCsv):
            parse_instance_table(b"name,f1,aprt:A\nx,1.0,1\n")

    def test_duplicate_outcome_column(self):
        with pytest.raises(MalformedCsv):
            parse_instance_table(b"instance_id,f1,aprt:A,aprt:A\nx,1.0,1,0\n")

    def test_empty_outcome_is_missing(self):
        table = parse_instance_table(b"instance_id,f1,aprt:A\nx,1.0,\n")
        assert table.outcome_labels("A")[0] is Outcome.MISSING

    def test_dataset_column_optional(self):
        table = parse_instance_table(b"instance_id,f1,aprt:A\nx,1.0,1\n")
        assert table.dataset_tags[0] == ""
        table = parse_instance_table(
            b"instance_id,dataset,f1,aprt:A\nx,Defects4J,1.0,1\n"
        )
        assert table.dataset_tags[0] == "Defects4J"

    def test_empty_feature_cell_parses_as_nan(self):
        table = parse_instance_table(b"instance_id,f1,aprt:A\nx,,1\n")
        assert math.isnan(table.features[0, 0])

    def test_custom_schema(self):
        csv = b"bug,suite,f1,ran:K\nx,d4j,2.0,0\n"
        schema = ColumnSchema(id_column="bug", dataset_column="suite", outcome_prefix="ran:")
        table = parse_instance_table(csv, schema)
        assert table.algorithm_names == ("K",)
        assert table.outcome_labels("K")[0] is Outcome.BAD


class TestAggregate:
    def test_two_row_group_mean(self):
        table = make_table(
            ["wmc"],
            ["A"],
            [
                ("prog", "d", (4.0,), (GOOD,)),
                ("prog", "d", (6.0,), (GOOD,)),
            ],
        )
        out = aggregate_rows(table, "instance_id")
        assert len(out) == 1
        assert out.features.tolist() == [[5.0]]
        assert out.outcome_labels("A") == (GOOD,)

    def test_single_row_group_identity(self):
        table = make_table(["f1"], ["A"], [("only", "d", (3.25,), (BAD,))])
        out = aggregate_rows(table, "instance_id")
        assert (out.instance_ids, out.dataset_tags) == (table.instance_ids, table.dataset_tags)
        assert np.array_equal(out.features, table.features)
        assert np.array_equal(out.outcomes, table.outcomes)

    def test_mean_matches_pairwise_summation_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-1e6, 1e6, 7)
        table = make_table(
            ["f1"],
            ["A"],
            [(f"g", "d", (float(v),), (GOOD,)) for v in values],
        )
        out = aggregate_rows(table, "instance_id")
        expected = pairwise_sorted_mean(values)
        assert out.features[0, 0] == pytest.approx(expected, abs=1e-12 * 1e6)

    def test_overflowing_mean_rejected(self):
        table = make_table(
            ["f1", "f2"],
            ["A"],
            [("big", "d", (1e308, 1.0), (GOOD,)), ("big", "d", (1e308, 2.0), (GOOD,))],
        )
        with pytest.raises(MalformedCsv, match="'big'"):
            aggregate_rows(table, "instance_id")

    def test_conflicting_outcomes_rejected(self):
        table = make_table(
            ["f1"],
            ["A"],
            [("prog", "d", (1.0,), (GOOD,)), ("prog", "d", (2.0,), (BAD,))],
        )
        with pytest.raises(InconsistentOutcomes):
            aggregate_rows(table, "instance_id")

    def test_missing_must_also_match(self):
        table = make_table(
            ["f1"],
            ["A"],
            [("prog", "d", (1.0,), (GOOD,)), ("prog", "d", (2.0,), (MISSING,))],
        )
        with pytest.raises(InconsistentOutcomes):
            aggregate_rows(table, "instance_id")

    def test_group_by_dataset(self):
        table = make_table(
            ["f1"],
            ["A"],
            [
                ("a", "d1", (1.0,), (GOOD,)),
                ("b", "d1", (3.0,), (GOOD,)),
                ("c", "d2", (5.0,), (BAD,)),
            ],
        )
        out = aggregate_rows(table, "dataset")
        assert out.instance_ids == ("d1", "d2")
        assert out.features[0].tolist() == [2.0]

    def test_unknown_group_key(self):
        table = make_table(["f1"], ["A"], [("a", "d", (1.0,), (GOOD,))])
        with pytest.raises(KeyError):
            aggregate_rows(table, "f1")

    def test_row_count_equals_distinct_keys(self):
        rng = np.random.default_rng(5)
        keys = [f"p{int(k)}" for k in rng.integers(0, 12, 80)]
        table = make_table(
            ["f1"],
            ["A"],
            [(k, "d", (float(rng.normal()),), (GOOD,)) for k in keys],
        )
        out = aggregate_rows(table, "instance_id")
        assert len(out) == len(set(keys))


class TestStandardize:
    def test_three_value_column(self):
        table = make_table(
            ["f1"], ["A"],
            [("a", "", (1.0,), (GOOD,)), ("b", "", (2.0,), (GOOD,)), ("c", "", (3.0,), (BAD,))],
        )
        matrix, params = standardize(table, FeatureSubset.of(["f1"]))
        assert matrix[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)
        assert params.means == (2.0,)
        assert params.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_constant_column_dropped(self):
        table = make_table(
            ["f1", "f2"], ["A"],
            [
                ("a", "", (5.0, 1.0), (GOOD,)),
                ("b", "", (5.0, 2.0), (GOOD,)),
                ("c", "", (5.0, 3.0), (BAD,)),
            ],
        )
        matrix, params = standardize(table, FeatureSubset.of(["f1", "f2"]))
        assert params.dropped_features == ("f1",)
        assert params.feature_names == ("f2",)
        assert matrix.shape == (3, 1)

    def test_all_dropped_raises(self):
        table = make_table(
            ["f1"], ["A"],
            [("a", "", (5.0,), (GOOD,)), ("b", "", (5.0,), (BAD,))],
        )
        with pytest.raises(AllFeaturesDropped):
            standardize(table, FeatureSubset.of(["f1"]))

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(1)
        values = rng.normal(3.0, 2.5, (40, 3))
        names = ["f1", "f2", "f3"]
        table = make_table(
            names, ["A"],
            [(f"r{i}", "", tuple(v), (GOOD,)) for i, v in enumerate(values)],
        )
        once, _ = standardize(table, FeatureSubset.of(names))
        table2 = make_table(
            names, ["A"],
            [(f"r{i}", "", tuple(v), (GOOD,)) for i, v in enumerate(once)],
        )
        twice, _ = standardize(table2, FeatureSubset.of(names))
        assert np.abs(twice - once).max() < 1e-9

    def test_requires_two_rows(self):
        table = make_table(["f1"], ["A"], [("a", "", (1.0,), (GOOD,))])
        with pytest.raises(ValueError):
            standardize(table, FeatureSubset.of(["f1"]))


class TestMinMax:
    def test_affine_rescale(self):
        assert list(minmax_normalize([2.0, 4.0, 6.0])) == [0.0, 0.5, 1.0]

    def test_singleton_maps_to_half(self):
        assert list(minmax_normalize([7.0])) == [0.5]

    def test_constant_vector_maps_to_half(self):
        assert list(minmax_normalize([3.0, 3.0, 3.0])) == [0.5, 0.5, 0.5]

    def test_order_preserved_on_random_vector(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 10, 100)
        out = minmax_normalize(values)
        assert out.min() == 0.0
        assert out.max() == 1.0
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert np.sign(out[i] - out[j]) == np.sign(values[i] - values[j])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minmax_normalize([])

    def test_minmax_params(self):
        params = MinMaxParams.from_values([3.0, -1.0, 2.0])
        assert (params.vmin, params.vmax) == (-1.0, 3.0)
        with pytest.raises(ValueError):
            MinMaxParams(2.0, 1.0)
