import csv
import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eapr import ingest
from eapr.artifacts import _parse, table_from_dict, table_to_dict
from eapr.ingest import (
    EmptyTable,
    IngestError,
    InconsistentOutcomes,
    MalformedCsv,
    UnparseableCell,
    aggregate_rows,
    minmax_normalize,
    parse_instance_table,
)
from eapr.model import FeatureSubset, InstanceTable, Outcome, json_text
from eapr.project import AllFeaturesDropped, standardize

from conftest import BAD, GOOD, MISSING, make_table
from oracles import pairwise_sorted_mean, per_group_aggregate, rowwise_parse

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

    @pytest.mark.parametrize("column", ["instance_id", "dataset"])
    def test_duplicate_special_column(self, column):
        csv = f"instance_id,dataset,f1,{column},aprt:A\nx,d,1.0,z,1\n".encode()
        with pytest.raises(MalformedCsv, match=f"^duplicate column '{column}'$"):
            parse_instance_table(csv)

    @pytest.mark.parametrize(
        "csv, error",
        [
            # Rows in order: a ragged row or a bad cell, whichever comes first.
            (b"instance_id,f1,aprt:A\nx,1.0\ny,abc,1\n", "row 2: expected 3 cells, got 2"),
            (b"instance_id,f1,aprt:A\nx,1.0,2\ny,abc,1,\n",
             "row 2, column 'aprt:A': cannot parse '2'"),
            # In a row: features in header order, then outcomes.
            (b"instance_id,aprt:A,f2,f1\nx,2,0.5,abc\ny,1,z,1\n",
             "row 2, column 'f1': cannot parse 'abc'"),
            (b"instance_id,f2,f1,aprt:A\nx,0.5,1,2\ny,w,z,1\n",
             "row 2, column 'aprt:A': cannot parse '2'"),
            # Blank records count in the row number.
            (b"instance_id,f1,aprt:A\n\nx,1.0,1\n\ny, 1x ,1\n",
             "row 5, column 'f1': cannot parse '1x'"),
            # An empty id is its row's first error, wherever the id column is.
            (b"instance_id,f1,aprt:A\nx,1.0,1\n ,abc,2\n",
             "row 3, column 'instance_id': empty id"),
            (b"f1,aprt:A,instance_id\nabc,1,x\n1.0,2,\n",
             "row 2, column 'f1': cannot parse 'abc'"),
            (b"f1,aprt:A,instance_id\n1.0,2,\n",
             "row 2, column 'instance_id': empty id"),
        ],
    )
    def test_first_error_in_reading_order(self, csv, error):
        with pytest.raises(IngestError) as err:
            parse_instance_table(csv)
        assert str(err.value) == error

    def test_empty_ids_do_not_merge_into_one_group(self):
        csv = b"instance_id,f1,aprt:A\nx,1.0,1\n,2.0,0\n,3.0,0\n"
        with pytest.raises(MalformedCsv, match="^row 3, column 'instance_id': empty id$"):
            parse_instance_table(csv)

    def test_byte_order_mark_is_not_part_of_the_header(self):
        plain = parse_instance_table(SNAPSHOT_CSV)
        marked = parse_instance_table(b"\xef\xbb\xbf" + SNAPSHOT_CSV)
        assert table_to_dict(marked, "") == table_to_dict(plain, "")

    def test_cells_parse_like_python_float(self):
        table = parse_instance_table(b"instance_id,f1,f2,aprt:A\nx, 1_000 ,  ,1\n")
        assert table.features[0, 0] == 1000.0
        assert math.isnan(table.features[0, 1])


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
        out = aggregate_rows(table)
        assert len(out) == 1
        assert out.features.tolist() == [[5.0]]
        assert out.outcome_labels("A") == (GOOD,)

    def test_single_row_group_identity(self):
        table = make_table(["f1"], ["A"], [("only", "d", (3.25,), (BAD,))])
        out = aggregate_rows(table)
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
        out = aggregate_rows(table)
        expected = pairwise_sorted_mean(values)
        assert out.features[0, 0] == pytest.approx(expected, abs=1e-12 * 1e6)

    def test_overflowing_mean_rejected(self):
        table = make_table(
            ["f1", "f2"],
            ["A"],
            [("big", "d", (1e308, 1.0), (GOOD,)), ("big", "d", (1e308, 2.0), (GOOD,))],
        )
        with pytest.raises(MalformedCsv, match="'big'"):
            aggregate_rows(table)

    def test_overflow_of_finite_values_rejected_past_an_inf(self):
        # 1e308 + 1e308 overflows before the -inf is added: rejected, as in
        # a group mean taken on its own. An inf met first absorbs the sum.
        rows = [("a", "d", (v,), (GOOD,)) for v in (1e308, 1e308, -math.inf)]
        rows += [("b", "d", (v,), (GOOD,)) for v in (math.inf, 1e308, 1e308)]
        with pytest.raises(MalformedCsv, match="^group 'a': feature mean overflows$"):
            aggregate_rows(make_table(["f1"], ["A"], rows))
        out = aggregate_rows(make_table(["f1"], ["A"], rows[3:]))
        assert out.features[0, 0] == math.inf

    def test_first_failing_group_is_reported(self):
        # c (overflow) comes before b (conflict) in first-row order; within
        # c, its conflicting labels come before its overflow.
        rows = [
            ("a", "d", (1.0,), (GOOD,)),
            ("c", "d", (1e308,), (GOOD,)),
            ("b", "d", (1.0,), (GOOD,)),
            ("c", "d", (1e308,), (GOOD,)),
            ("b", "d", (1.0,), (BAD,)),
        ]
        with pytest.raises(MalformedCsv, match="'c'"):
            aggregate_rows(make_table(["f1"], ["A"], rows))
        rows[3] = ("c", "d", (1e308,), (BAD,))
        with pytest.raises(InconsistentOutcomes, match="'c'"):
            aggregate_rows(make_table(["f1"], ["A"], rows))

    def test_conflicting_dataset_tags_rejected(self):
        # p1's tag would depend on the row order
        rows = [
            ("p1", "d1", (1.0,), (GOOD,)),
            ("p2", "d1", (1.0,), (GOOD,)),
            ("p1", "d2", (2.0,), (GOOD,)),
        ]
        message = "^group 'p1': conflicting dataset tags 'd1' and 'd2'$"
        with pytest.raises(MalformedCsv, match=message):
            aggregate_rows(make_table(["f1"], ["A"], rows))
        with pytest.raises(MalformedCsv, match=message):
            per_group_aggregate(make_table(["f1"], ["A"], rows))

    def test_a_groups_tags_are_checked_before_its_labels(self):
        # a (labels) comes before b (tags and labels) in first-row order;
        # within b, its tags come before its labels
        rows = [
            ("a", "d", (1.0,), (GOOD,)),
            ("b", "d1", (1.0,), (GOOD,)),
            ("b", "d2", (1.0,), (BAD,)),
            ("a", "d", (1.0,), (BAD,)),
        ]
        for aggregate in (aggregate_rows, per_group_aggregate):
            with pytest.raises(InconsistentOutcomes, match="^group 'a'"):
                aggregate(make_table(["f1"], ["A"], rows))
            with pytest.raises(MalformedCsv, match="^group 'b': conflicting dataset tags"):
                aggregate(make_table(["f1"], ["A"], rows[1:3]))

    def test_conflicting_outcomes_rejected(self):
        table = make_table(
            ["f1"],
            ["A"],
            [("prog", "d", (1.0,), (GOOD,)), ("prog", "d", (2.0,), (BAD,))],
        )
        with pytest.raises(InconsistentOutcomes):
            aggregate_rows(table)

    def test_missing_must_also_match(self):
        table = make_table(
            ["f1"],
            ["A"],
            [("prog", "d", (1.0,), (GOOD,)), ("prog", "d", (2.0,), (MISSING,))],
        )
        with pytest.raises(InconsistentOutcomes):
            aggregate_rows(table)

    def test_row_count_equals_distinct_keys(self):
        rng = np.random.default_rng(5)
        keys = [f"p{int(k)}" for k in rng.integers(0, 12, 80)]
        table = make_table(
            ["f1"],
            ["A"],
            [(k, "d", (float(rng.normal()),), (GOOD,)) for k in keys],
        )
        out = aggregate_rows(table)
        assert len(out) == len(set(keys))


# Cells a fuzzed feature column may hold: near-overflow values and infinities
# (so group sums overflow, or meet an inf first), and cells float() reads
# oddly or rejects.
HUGE_CELLS = ["1e308", "-1e308", "1.7e308", "inf", "-inf", "1.0", "-0.0"]
ODD_CELLS = ["", "  ", " 2.5 ", "nan", "1_000", "x", "0x1p3", "1e-320", "infinity",
             "\u2003 1.5\u2003", "\u0663"]  # float() strips em spaces, reads "٣" as 3


@st.composite
def sub_program_csv(draw) -> bytes:
    """Interleaved sub-program rows of up to 6 ids with 1-20 rows each, and
    rare defects: odd or bad cells, a dataset tag XML cannot hold, conflicting
    tags or labels, ragged rows and blank records."""
    rare = lambda n: draw(st.sampled_from([False] * n + [True]))  # p = 1 / (n + 1)
    features = [f"f{j}" for j in range(draw(st.integers(1, 4)))]
    huge = {name: draw(st.booleans()) for name in features}
    algorithms = [f"aprt:{a}" for a in "ABC"[: draw(st.integers(0, 3))]]
    dataset = ["dataset"] if draw(st.booleans()) else []
    header = draw(st.permutations(["instance_id", *dataset, *features, *algorithms]))
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=6))
    ids = draw(st.permutations([f"p{g}" for g, k in enumerate(sizes) for _ in range(k)]))
    label = st.sampled_from(["", "0", "1"])
    labels = {(rid, a): draw(label) for rid in sorted(set(ids)) for a in algorithms}
    tag = st.sampled_from(["Defects4J", "Bears", ""])
    tags = {rid: draw(tag) for rid in sorted(set(ids))}
    lines = [",".join(header)]
    for rid in ids:
        row = []
        for name in header:
            if name == "instance_id":
                cell = " " if rare(300) else rid  # strips to an empty id
            elif name == "dataset":
                cell = tags[rid]
                if rare(60):
                    cell = draw(tag)
                elif rare(500):
                    cell = "Be\x1fars"  # XML cannot hold it
            elif name.startswith("aprt:"):
                cell = labels[rid, name]
                if rare(60):
                    cell = draw(st.sampled_from(["", "0", "1", " 1 "]))
                elif rare(300):
                    cell = draw(st.sampled_from(["2", "GOOD"]))
            elif rare(150):
                cell = draw(st.sampled_from(ODD_CELLS))
            elif huge[name]:
                cell = draw(st.sampled_from(HUGE_CELLS))
            else:
                cell = repr(draw(st.floats(-1e6, 1e6)))
            row.append(cell)
        if rare(500):
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
        if rare(60):
            lines.append("")
    bom = b"\xef\xbb\xbf" if rare(20) else b""  # as Excel's "CSV UTF-8" writes
    return bom + ("\n".join(lines) + "\n").encode()


def _ingested(parse, aggregate, dumps, data: bytes):
    """The table.json text of the aggregated table, or the error's type and text."""
    try:
        return dumps(table_to_dict(aggregate(parse(data)), ""))
    except IngestError as exc:
        return type(exc), str(exc)


# Each CSV is also parsed in chunks of a few rows, so that bad cells, blank
# records, ragged rows and empty ids fall across chunk boundaries.
@settings(max_examples=300, deadline=None)
@given(sub_program_csv(), st.integers(1, 7))
def test_columnar_ingest_equals_the_rowwise_oracle(data, chunk_rows):
    oracle = _ingested(
        rowwise_parse, per_group_aggregate, lambda d: json.dumps(d, sort_keys=True, indent=2), data
    )
    assert _ingested(parse_instance_table, aggregate_rows, json_text, data) == oracle
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        assert _ingested(parse_instance_table, aggregate_rows, json_text, data) == oracle


_ROWS = b"".join(b"p%d,%d.5,1\n" % (i, i) for i in range(3000))


# A defect the chunked parse meets in its first chunk, then, thousands of rows
# on, a byte UTF-8 rejects or a field over the CSV reader's size limit: the
# unreadable file's error wins, as when every record was read first.
@pytest.mark.parametrize("head", [
    b"instance_id,f1,aprt:A\np0,x,1\n",  # a bad cell
    b"instance_id,f1,aprt:A\np0,1.5\n",  # a ragged row
    b"instance_id,f1,aprt:A\n ,1.5,1\n",  # an empty id
    b"name,f1,aprt:A\np0,1.5,1\n",  # no id column
], ids=["cell", "ragged", "empty-id", "no-id-column"])
@pytest.mark.parametrize("tail", [
    b"p1,\xff,1\n",
    b'p1,"' + b"9" * (csv.field_size_limit() + 1) + b'",1\n',
], ids=["not-utf-8", "over-field-limit"])
def test_an_unreadable_csv_wins_over_an_earlier_defect(head, tail):
    data = head + _ROWS + tail + _ROWS
    with pytest.raises(MalformedCsv) as oracle:
        rowwise_parse(data)
    assert str(oracle.value).startswith("unreadable CSV: ")
    with pytest.raises(MalformedCsv) as err:
        parse_instance_table(data)
    assert str(err.value) == str(oracle.value)


@st.composite
def instance_tables(draw) -> InstanceTable:
    """Any table ingest could write: names, ids and tags of any text UTF-8 can
    encode, any finite features, and any outcome codes. The arrays are given
    in C or Fortran order."""
    names = st.lists(st.text(max_size=4), max_size=4, unique=True)
    features, algorithms = draw(names), draw(names)
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n))
    tags = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(np.float64, (len(features), n), elements=finite))
    codes = draw(arrays(np.int8, (len(algorithms), n), elements=st.sampled_from(list(Outcome))))
    if draw(st.booleans()):
        return InstanceTable(features, algorithms, ids, tags, values.T, codes.T)
    return InstanceTable(features, algorithms, ids, tags, values.T.copy(), codes.T.copy())


# table.json's input_digest: the sha256 of the CSV, in lowercase hex.
DIGEST = hashlib.sha256(SNAPSHOT_CSV).hexdigest()


@settings(max_examples=200, deadline=None)
@given(instance_tables())
def test_table_json_round_trip_gives_the_same_table(table):
    raw = (json_text(table_to_dict(table, DIGEST)) + "\n").encode("utf-8")
    decoded, digest = table_from_dict(_parse(raw))
    assert digest == DIGEST
    for name in ("feature_names", "algorithm_names", "instance_ids", "dataset_tags"):
        assert getattr(decoded, name) == getattr(table, name)
    for name in ("features", "outcomes"):
        got, want = getattr(decoded, name), getattr(table, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()  # bit for bit: -0.0 stays -0.0


def _table_dict(n=3):
    rows = [(f"p{i}", "d", (float(i), 0.5), (GOOD, BAD)) for i in range(n)]
    return json.loads(json_text(table_to_dict(make_table(["f1", "f2"], ["A", "B"], rows), DIGEST)))


@pytest.mark.parametrize("n, edit, error", [
    (3, lambda d: d["features"].pop(), "features: expected 2 columns"),
    (0, lambda d: d["features"].pop(), "features: expected 2 columns"),
    (0, lambda d: d["outcomes"].append([]), "outcomes: expected 2 columns"),
    (3, lambda d: d["outcomes"][1].pop(), "outcomes: expected columns of 3 items"),
    (3, lambda d: [column.pop() for column in d["features"]],
     "features: expected columns of 3 items"),
    (3, lambda d: d["datasets"].pop(), "2 dataset tags for 3 ids"),
    (3, lambda d: d["features"][1].__setitem__(0, True), "expected a list of numbers"),
    (3, lambda d: d["outcomes"].__setitem__(0, "GOOD"), "expected a list of names"),
    (3, lambda d: d.__setitem__("input_digest", [1, {"x": True}]),
     "expected a sha256 as 64 lowercase hex digits"),
    (3, lambda d: d.__setitem__("input_digest", DIGEST.upper()),
     "expected a sha256 as 64 lowercase hex digits"),
    (3, lambda d: d.__setitem__("input_digest", DIGEST[:-1]),
     "expected a sha256 as 64 lowercase hex digits"),
])
def test_table_reader_checks_every_column(n, edit, error):
    data = _table_dict(n)
    edit(data)
    with pytest.raises((ValueError, TypeError), match=f"^{error}$"):
        table_from_dict(data)


class TestStandardize:
    def test_three_value_column(self):
        table = make_table(
            ["f1"], ["A"],
            [("a", "", (1.0,), (GOOD,)), ("b", "", (2.0,), (GOOD,)), ("c", "", (3.0,), (BAD,))],
        )
        matrix, names, means, stds, dropped = standardize(table, FeatureSubset.of(["f1"]))
        assert matrix[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)
        assert (names, means, dropped) == (("f1",), (2.0,), ())
        assert stds[0] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_constant_column_dropped(self):
        table = make_table(
            ["f1", "f2"], ["A"],
            [
                ("a", "", (5.0, 1.0), (GOOD,)),
                ("b", "", (5.0, 2.0), (GOOD,)),
                ("c", "", (5.0, 3.0), (BAD,)),
            ],
        )
        matrix, names, means, stds, dropped = standardize(table, FeatureSubset.of(["f1", "f2"]))
        assert dropped == ("f1",)
        assert names == ("f2",)
        assert means == (2.0,)
        assert stds == pytest.approx((math.sqrt(2.0 / 3.0),))
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
        once, *_ = standardize(table, FeatureSubset.of(names))
        table2 = make_table(
            names, ["A"],
            [(f"r{i}", "", tuple(v), (GOOD,)) for i, v in enumerate(once)],
        )
        twice, *_ = standardize(table2, FeatureSubset.of(names))
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
