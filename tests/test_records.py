"""Record validation, dataset IO, temporal splits, synthetic generation."""

import json
import sys
import time
from datetime import date, datetime
from fractions import Fraction

import numpy as np
import pytest

from selcert import (
    Dataset,
    DatasetIOError,
    Decisions,
    DomainError,
    DuplicateIdError,
    GuaranteeTrials,
    MissingDateError,
    RiskConfig,
    SchemaError,
    SelcertError,
    SyntheticScorerSpec,
    apply_certificate,
    certify_threshold,
    generate_synthetic,
    load_dataset,
    read_decisions,
    temporal_split,
    tradeoff_curve,
    validate_guarantee,
    write_dataset,
    write_decisions,
)
from selcert.calibrate import CertificateGrid
from selcert.records import ColumnTable


def make_dataset():
    return Dataset(["a", "b", "c"], [0.91, 0.12, 0.5], [1, 0, 1],
                   dates=[date(2019, 3, 1), date(2020, 6, 15), date(2021, 1, 1)],
                   groups=["phase-1", "phase-2", None])


class TestRowRules:
    # a Dataset checks every row's cells when it is built
    def test_int_score_coerced(self):
        score = Dataset(["x"], [1], [1]).scores.tolist()[0]
        assert score == 1.0 and type(score) is float

    @pytest.mark.parametrize("bad", ["", None, 3])
    def test_bad_id(self, bad):
        with pytest.raises(SchemaError) as err:
            Dataset(["a", bad], [0.5, 0.5], [1, 1])
        assert str(err.value) == f"id must be a nonempty string, got {bad!r} (row 2, column 'id')"

    @pytest.mark.parametrize("bad", [-0.01, 1.01, "0.5", True, float("nan")])
    def test_bad_score(self, bad):
        with pytest.raises(SchemaError) as err:
            Dataset(["x"], [bad], [1])
        assert str(err.value) == f"score must be a number within [0, 1], got '{bad}' (row 1, column 'score')"

    @pytest.mark.parametrize("bad", [2, -1, 0.0, "1", True])
    def test_bad_label(self, bad):
        with pytest.raises(SchemaError) as err:
            Dataset(["x"], [0.5], [bad])
        assert str(err.value) == f"label must be 0 or 1, got '{bad}' (row 1, column 'label')"

    # a number str() cannot spell is quoted by its size, the same in every run
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer digit limit on this Python")
    @pytest.mark.parametrize("column, rule, cell, quote", [
        ("score", "a number within [0, 1]", 10**5000, f"an integer of {(10**5000).bit_length()} bits"),
        ("label", "0 or 1", 10**5000, f"an integer of {(10**5000).bit_length()} bits"),
        ("score", "a number within [0, 1]", Fraction(10**5000),
         f"a fraction with a {(10**5000).bit_length()}-bit numerator and a 1-bit denominator"),
    ], ids=["score", "label", "score fraction"])
    def test_integer_past_the_digit_limit(self, column, rule, cell, quote):
        cells = {"score": [0.5, 0.5], "label": [0, 1]}
        cells[column][1] = cell
        with pytest.raises(SchemaError) as err:
            Dataset(["a", "b"], cells["score"], cells["label"])
        assert str(err.value) == f"{column} must be {rule}, got {quote} (row 2, column '{column}')"


class TestDataset:
    def test_accessors(self):
        data = make_dataset()
        assert len(data) == 3
        assert data.ids.tolist() == ["a", "b", "c"]
        assert np.array_equal(data.scores, [0.91, 0.12, 0.5])
        assert np.array_equal(data.labels, [1, 0, 1])
        assert data.groups.tolist() == ["phase-1", "phase-2", None]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            Dataset(["a", "a"], [0.5, 0.5], [1, 1])

    def test_empty_is_allowed(self):
        assert len(Dataset([], [], [])) == 0


class TestCsvIO:
    def test_round_trip_exact(self, tmp_path):
        # repr-written scores must reload to the very same floats
        data = make_dataset()
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        back = load_dataset(path)
        assert back._values() == data._values()

    def test_awkward_float_round_trip(self, tmp_path):
        data = Dataset(["a"], [0.1 + 0.2], [1])
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        assert load_dataset(path).scores[0] == 0.1 + 0.2

    def test_minimal_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label\nr1,0.7,1\nr2,0.2,0\n")
        data = load_dataset(path)
        assert len(data) == 2 and data.dates[0] is None

    def test_optional_columns_written_only_when_present(self, tmp_path):
        data = Dataset(["a"], [0.5], [1])
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        assert path.read_text().splitlines()[0] == "id,score,label"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,score\nr1,1,0.7\n")
        with pytest.raises(SchemaError, match="header"):
            load_dataset(path)

    def test_rejects_group_before_date(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label,group,date\nr1,0.7,1,g,2020-01-01\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_bad_score_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label\nr1,0.7,1\nr2,high,0\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.row == 2 and err.value.column == "score"

    def test_out_of_range_score(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label\nr1,1.2,1\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label\nr1,0.7,2\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.column == "label"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label\nr1,0.7\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.row == 1

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label\nr1,0.7,1\nr1,0.2,0\n")
        with pytest.raises(DuplicateIdError):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_custom_date_format(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label,date\nr1,0.7,1,15/06/2020\n")
        data = load_dataset(path, date_format="%d/%m/%Y")
        assert data.dates[0] == date(2020, 6, 15)

    def test_bad_date(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label,date\nr1,0.7,1,June 2020\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.column == "date"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetIOError):
            load_dataset(tmp_path / "nope.csv")


class TestJsonIO:
    def test_round_trip(self, tmp_path):
        data = make_dataset()
        path = tmp_path / "d.json"
        write_dataset(data, path)
        assert load_dataset(path)._values() == data._values()

    def test_plain_records(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('[{"id": "r1", "score": 0.7, "label": 1}]')
        data = load_dataset(path)
        assert data.scores[0] == 0.7

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('[{"id": "r1", "score": 0.7, "label": 1, "weight": 2}]')
        with pytest.raises(SchemaError, match="unknown"):
            load_dataset(path)

    def test_rejects_mixed_key_sets(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            '[{"id": "r1", "score": 0.7, "label": 1},'
            ' {"id": "r2", "score": 0.2, "label": 0, "group": "g"}]'
        )
        with pytest.raises(SchemaError, match="key set"):
            load_dataset(path)

    def test_rejects_missing_required_key(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('[{"id": "r1", "score": 0.7}]')
        with pytest.raises(SchemaError, match="missing"):
            load_dataset(path)

    def test_rejects_non_array(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"id": "r1"}')
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("[{")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_rejects_boolean_score(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('[{"id": "r1", "score": true, "label": 1}]')
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_integer_score_beyond_float_range(self, tmp_path):
        huge = "1" + "0" * 400
        path = tmp_path / "d.json"
        path.write_text(f'[{{"id": "r1", "score": 0.5, "label": 1}},'
                        f' {{"id": "r2", "score": {huge}, "label": 0}}]')
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert str(err.value) == ("score must be a number within [0, 1], got '1" + "0" * 37 + "..." + "0" * 39
                                  + "' (row 2, column 'score')")
        assert (err.value.row, err.value.column) == (2, "score")

    def test_integer_score_beyond_float_range_keeps_rule_order(self, tmp_path):
        huge = "-1" + "0" * 400
        path = tmp_path / "d.json"
        # an earlier row's bad label is reported first
        path.write_text(f'[{{"id": "r1", "score": 0.5, "label": 2}},'
                        f' {{"id": "r2", "score": {huge}, "label": 0}}]')
        with pytest.raises(SchemaError, match=r"^label must be 0 or 1, got '2' \(row 1"):
            load_dataset(path)
        # within a row the score rule comes before the label rule
        path.write_text(f'[{{"id": "r1", "score": {huge}, "label": 2}}]')
        with pytest.raises(SchemaError,
                           match=r"^score must be a number within \[0, 1\], got '-10{36}\.\.\.0{39}' \(row 1"):
            load_dataset(path)

    def test_nested_past_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(SchemaError, match="^invalid JSON: maximum recursion depth exceeded"):
            load_dataset(path)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer digit limit on this Python")
    def test_integer_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "d.json"
        digits = sys.get_int_max_str_digits() + 1
        path.write_text('[{"id": "r1", "score": 1' + "0" * digits + ', "label": 1}]')
        with pytest.raises(SchemaError, match="^invalid JSON: Exceeds the limit"):
            load_dataset(path)


class TestFormatInference:
    # the messages name the keyword the readers and writers take
    UNKNOWN_SUFFIX = r"^cannot infer format of .*d\.dat'; pass fmt='csv' or 'json'$"
    BAD_FORMAT = r"^fmt must be 'csv' or 'json', got 'xml'$"

    def test_explicit_format_wins_over_suffix(self, tmp_path):
        path = tmp_path / "d.dat"
        path.write_text("id,score,label\nr1,0.7,1\n")
        assert len(load_dataset(path, fmt="csv")) == 1

    def test_unknown_suffix_needs_format(self, tmp_path):
        path = tmp_path / "d.dat"
        path.write_text("id,score,label\n")
        with pytest.raises(DomainError, match=self.UNKNOWN_SUFFIX):
            load_dataset(path)

    def test_unknown_suffix_needs_format_to_write(self, tmp_path):
        path = tmp_path / "d.dat"
        with pytest.raises(DomainError, match=self.UNKNOWN_SUFFIX):
            write_dataset(make_dataset(), path)
        assert not path.exists()

    def test_bad_format_name(self, tmp_path):
        with pytest.raises(DomainError, match=self.BAD_FORMAT):
            load_dataset(tmp_path / "d.csv", fmt="xml")

    def test_bad_format_name_to_write(self, tmp_path):
        path = tmp_path / "d.csv"
        with pytest.raises(DomainError, match=self.BAD_FORMAT):
            write_dataset(make_dataset(), path, fmt="xml")
        assert not path.exists()


class TestTemporalSplit:
    def test_boundary_goes_to_test(self):
        data = make_dataset()
        train, test = temporal_split(data, date(2020, 6, 15))
        assert train.ids.tolist() == ["a"]
        assert test.ids.tolist() == ["b", "c"]

    def test_undated_records_rejected(self):
        data = Dataset(["a"], [0.5], [1])
        with pytest.raises(MissingDateError) as err:
            temporal_split(data, date(2020, 1, 1))
        assert err.value.ids == ["a"]

    def test_undated_ids_are_quoted_as_values(self):
        long_id = "x" * 100_000
        data = Dataset([long_id, *"abcdefghijk"], [0.5] * 12, [1] * 12)
        with pytest.raises(MissingDateError) as err:
            temporal_split(data, date(2020, 1, 1))
        shown = "'" + "x" * 37 + "..." + "x" * 38 + "'"  # 80 characters, quotes included
        assert str(err.value) == f"12 record(s) have no date: {shown}, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', ..."
        assert err.value.ids == data.ids.tolist()

    def test_all_on_one_side(self):
        data = make_dataset()
        train, test = temporal_split(data, date(2030, 1, 1))
        assert len(train) == 3 and len(test) == 0

    # read as a dataset reads a date cell: a datetime, text or None is no date, checked before any record's date
    @pytest.mark.parametrize("split_date, shown", [
        (datetime(2021, 1, 1), "datetime.datetime(2021, 1, 1, 0, 0)"),
        ("2021-01-01", "'2021-01-01'"),
        (None, "None"),
    ])
    def test_split_date_must_be_a_date(self, split_date, shown):
        with pytest.raises(DomainError) as err:
            temporal_split(Dataset(["a"], [0.5], [1]), split_date)
        assert str(err.value) == f"split_date must be a datetime.date, got {shown}"


class TestSyntheticGenerator:
    def test_draw_order_contract(self):
        # the stream layout is frozen: labels first from uniform, then
        # positive-class scores in record order, then negative-class scores
        spec = SyntheticScorerSpec(n=50, prevalence=0.4, pos_shape=(3, 2), neg_shape=(2, 3), seed=123)
        data = generate_synthetic(spec)
        rng = np.random.default_rng(123)
        labels = (rng.random(50) < 0.4).astype(int)
        scores = np.empty(50)
        n_pos = int(labels.sum())
        scores[labels == 1] = rng.beta(3, 2, n_pos)
        scores[labels == 0] = rng.beta(2, 3, 50 - n_pos)
        assert np.array_equal(data.labels, labels)
        assert np.array_equal(data.scores, scores)

    def test_ids(self):
        data = generate_synthetic(
            SyntheticScorerSpec(n=3, prevalence=0.5, pos_shape=(2, 2), neg_shape=(2, 2), seed=9)
        )
        assert data.ids.tolist() == ["syn-0", "syn-1", "syn-2"]

    def test_same_seed_same_data(self):
        spec = SyntheticScorerSpec(n=20, prevalence=0.5, pos_shape=(8, 2), neg_shape=(2, 8), seed=7)
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticScorerSpec(5, 0.5, (2, 2), (2, 2), 1))
        b = generate_synthetic(SyntheticScorerSpec(5, 0.5, (2, 2), (2, 2), 2))
        assert not np.array_equal(a.scores, b.scores)

    def test_n_past_memory_fails_at_once(self):
        # 2**62 records cannot be allocated: the draw fails before it starts, naming n
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"^n={2**62} is too large: its arrays do not fit in memory$"):
            generate_synthetic(SyntheticScorerSpec(2**62, 0.5, (2, 2), (2, 2), 1))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(prevalence=0.0),
            dict(prevalence=1.0),
            dict(pos_shape=(0.0, 1.0)),
            dict(neg_shape=(2.0,)),
            dict(seed="eight"),
        ],
    )
    def test_spec_validation(self, kwargs):
        base = dict(n=10, prevalence=0.5, pos_shape=(2.0, 2.0), neg_shape=(2.0, 2.0), seed=0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            SyntheticScorerSpec(**base)

    @pytest.mark.parametrize("shapes, message", [
        (((0.0, 2.0), (2, 2)), "pos_shape[0] must be within (0, inf), got 0.0"),
        (((2.0, 0.0), (2, 2)), "pos_shape[1] must be within (0, inf), got 0.0"),
        (((2, 2), (-1, 2)), "neg_shape[0] must be within (0, inf), got -1"),
        (((2, 2), (2, "x")), "neg_shape[1] must be a number, got 'x'"),
    ])
    def test_shape_fault_names_its_position(self, shapes, message):
        with pytest.raises(DomainError) as err:
            SyntheticScorerSpec(3, 0.5, *shapes, 0)
        assert str(err.value) == message


# A quoted field one character over the csv module's default field size limit
OVERSIZED_FIELD = '"' + "x" * 131073 + '"'


class TestUnreadableFiles:
    def test_oversized_csv_field_is_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(f"id,score,label\na,0.5,1\n{OVERSIZED_FIELD},0.5,1\n")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert str(err.value) == "malformed CSV: field larger than field limit (131072) (row 2)"
        assert (err.value.row, err.value.column) == (2, None)

    def test_oversized_csv_header_field(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(f"{OVERSIZED_FIELD},score,label\na,0.5,1\n")
        with pytest.raises(SchemaError, match=r"^malformed CSV header: field larger") as err:
            load_dataset(path)
        assert err.value.row is None

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_non_utf8_file(self, tmp_path, suffix):
        path = tmp_path / f"d.{suffix}"
        path.write_bytes(b"id,score,label\n\xff,0.5,1\n")
        with pytest.raises(DatasetIOError, match="cannot read .*'utf-8' codec can't decode byte 0xff"):
            load_dataset(path)


class TestCsvQuotingAndBom:
    @pytest.mark.parametrize("rec_id", ["a\nb", "a\r\nb", "a\rb", 'say "hi", then\nleave'])
    def test_line_breaks_in_ids_round_trip(self, tmp_path, rec_id):
        data = Dataset([rec_id, "plain"], [0.25, 0.75], [0, 1], groups=["g\nh", None])
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        assert load_dataset(path)._values() == data._values()

    def test_quoted_newline_is_one_record(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('id,score,label\n"a\nb",0.7,1\nc,0.2,0\n', newline="")
        assert load_dataset(path).ids.tolist() == ["a\nb", "c"]

    def test_rows_count_records_not_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('id,score,label\n"a\nb",0.7,1\nc,high,0\n', newline="")
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.row == 2 and err.value.column == "score"

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_utf8_bom_accepted(self, tmp_path, suffix):
        data = make_dataset()
        plain = tmp_path / f"plain.{suffix}"
        write_dataset(data, plain)
        path = tmp_path / f"bom.{suffix}"
        path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_dataset(path)._values() == data._values()


def _rows_file(tmp_path, fmt, corrupt, n=1000):
    """A grouped n-row dataset file; `corrupt` maps 1-based rows to row rewriters.

    fmt is "csv" or "json", with a "+date" suffix for a date column before the group.
    """
    fmt, dated = fmt.removesuffix("+date"), fmt.endswith("+date")
    path = tmp_path / f"d.{fmt}"
    rows = []
    for i in range(1, n + 1):
        row = {"id": f"r{i}", "score": (i % 97) / 97, "label": i % 2}
        if dated:
            row["date"] = f"2020-01-{i % 28 + 1:02d}"
        row["group"] = f"g{i % 3}"
        rows.append(row)
    header = list(rows[0])
    if fmt == "csv":
        rows = [[repr(v) if isinstance(v, float) else str(v) for v in row.values()] for row in rows]
    for row, rewrite in corrupt.items():
        rows[row - 1] = rewrite(rows[row - 1])
    if fmt == "csv":
        path.write_text(",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows))
    else:
        path.write_text(json.dumps(rows))
    return path


def _set(key, value):
    def corrupt(row):
        row = list(row) if isinstance(row, list) else dict(row)
        row[key] = value
        return row
    return corrupt


def _drop(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


# Exception class, row, column and message for one bad cell at row 737 of a
# 1000-row file, as the record-by-record loader reported them.
FIRST_BAD_ROW = [
    ("csv", "field count", lambda r: r[:3], SchemaError, 737, None,
     "expected 4 fields, got 3 (row 737)"),
    ("csv", "empty id", _set(0, ""), SchemaError, 737, "id",
     "id must be a nonempty string, got '' (row 737, column 'id')"),
    ("csv", "duplicate id", _set(0, "r5"), DuplicateIdError, None, None,
     "duplicate record id 'r5' at row 737"),
    ("csv", "non-numeric score", _set(1, "high"), SchemaError, 737, "score",
     "score must be a number within [0, 1], got 'high' (row 737, column 'score')"),
    ("csv", "out-of-range score", _set(1, "1.5"), SchemaError, 737, "score",
     "score must be a number within [0, 1], got '1.5' (row 737, column 'score')"),
    ("csv", "nan score", _set(1, "nan"), SchemaError, 737, "score",
     "score must be a number within [0, 1], got 'nan' (row 737, column 'score')"),
    ("csv", "bad label", _set(2, "2"), SchemaError, 737, "label",
     "label must be 0 or 1, got '2' (row 737, column 'label')"),
    ("json", "missing key", _drop("label"), SchemaError, 737, None,
     "missing required key(s) ['label'] (row 737)"),
    ("json", "key set", _drop("group"), SchemaError, 737, None,
     "records must share one key set; expected ['group', 'id', 'label', 'score'] (row 737)"),
    ("json", "empty id", _set("id", ""), SchemaError, 737, "id",
     "id must be a nonempty string, got '' (row 737, column 'id')"),
    ("json", "duplicate id", _set("id", "r5"), DuplicateIdError, None, None,
     "duplicate record id 'r5' at row 737"),
    ("json", "non-numeric score", _set("score", "high"), SchemaError, 737, "score",
     "score must be a number within [0, 1], got 'high' (row 737, column 'score')"),
    ("json", "out-of-range score", _set("score", 1.5), SchemaError, 737, "score",
     "score must be a number within [0, 1], got '1.5' (row 737, column 'score')"),
    ("json", "nan score", _set("score", float("nan")), SchemaError, 737, "score",
     "score must be a number within [0, 1], got 'nan' (row 737, column 'score')"),
    ("json", "bad label", _set("label", 2), SchemaError, 737, "label",
     "label must be 0 or 1, got '2' (row 737, column 'label')"),
    ("csv+date", "bad date", _set(3, "someday"), SchemaError, 737, "date",
     "bad date 'someday': Invalid isoformat string: 'someday' (row 737, column 'date')"),
    ("json", "non-object record", lambda obj: [obj], SchemaError, 737, None,
     "record must be an object (row 737)"),
    ("json", "unknown key", _set("weight", 1), SchemaError, 737, None,
     "unknown key(s) ['weight'] (row 737)"),
    ("json+date", "non-string date", _set("date", 20200101), SchemaError, 737, "date",
     "date must be a datetime.date or None, got 20200101 (row 737, column 'date')"),
    ("json+date", "bad date", _set("date", "someday"), SchemaError, 737, "date",
     "bad date 'someday': Invalid isoformat string: 'someday' (row 737, column 'date')"),
    ("json", "non-string group", _set("group", 7), SchemaError, 737, "group",
     "group must be a string or None, got 7 (row 737, column 'group')"),
]


class TestFirstBadRow:
    @pytest.mark.parametrize(
        "fmt, name, corrupt, exc_type, row, column, message", FIRST_BAD_ROW,
        ids=[f"{case[0]}-{case[1]}" for case in FIRST_BAD_ROW],
    )
    def test_error_matches_row_by_row_loader(
        self, tmp_path, fmt, name, corrupt, exc_type, row, column, message
    ):
        with pytest.raises(exc_type) as err:
            load_dataset(_rows_file(tmp_path, fmt, {737: corrupt}))
        assert type(err.value) is exc_type
        assert str(err.value) == message
        assert getattr(err.value, "row", None) == row
        assert getattr(err.value, "column", None) == column

    @pytest.mark.parametrize("date_format", [None, "%Y-%m-%d"])
    def test_a_long_bad_date_cell_is_quoted_once(self, tmp_path, date_format):
        path = tmp_path / "d.csv"
        path.write_text("id,score,label,date\na,0.5,1," + "9" * 5000 + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_dataset(path, date_format=date_format)
        assert str(err.value).startswith("bad date '999") and str(err.value).endswith("(row 1, column 'date')")
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_earliest_bad_row_wins_over_check_order(self, tmp_path, fmt):
        # a bad label at row 300 is reported before a bad score at row 737
        score, label = (1, 2) if fmt == "csv" else ("score", "label")
        path = _rows_file(tmp_path, fmt, {737: _set(score, "high"), 300: _set(label, "7")})
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert (err.value.row, err.value.column) == (300, "label")

    def test_first_bad_cell_within_a_row(self, tmp_path):
        # score is checked before label within one row, as before
        path = _rows_file(tmp_path, "csv", {737: lambda r: [r[0], "high", "7", r[3]]})
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert (err.value.row, err.value.column) == (737, "score")


# One bad row 2, between two good rows, given as CSV text, as JSON text and to
# the Dataset constructor: each change to the row, the sources that can hold it,
# and the one error all of them must raise.
SAME_FAULT = [
    ("empty id", {"id": ""}, ("csv", "json", "columns"), SchemaError, 2, "id",
     "id must be a nonempty string, got '' (row 2, column 'id')"),
    ("repeated id", {"id": "r1"}, ("csv", "json", "columns"), DuplicateIdError, None, None,
     "duplicate record id 'r1' at row 2"),
    ("score 1.5", {"score": 1.5}, ("csv", "json", "columns"), SchemaError, 2, "score",
     "score must be a number within [0, 1], got '1.5' (row 2, column 'score')"),
    ("non-number score", {"score": "high"}, ("csv", "json", "columns"), SchemaError, 2, "score",
     "score must be a number within [0, 1], got 'high' (row 2, column 'score')"),
    ("label 2", {"label": 2}, ("csv", "json", "columns"), SchemaError, 2, "label",
     "label must be 0 or 1, got '2' (row 2, column 'label')"),
    # a CSV group cell is always a string
    ("group 3", {"group": 3}, ("json", "columns"), SchemaError, 2, "group",
     "group must be a string or None, got 3 (row 2, column 'group')"),
    # text float() would read: an underscore, surrounding space, a non-ASCII digit
    ("score 0.2_5", {"score": "0.2_5"}, ("csv", "json", "columns"), SchemaError, 2, "score",
     "score must be a number within [0, 1], got '0.2_5' (row 2, column 'score')"),
    ("score ' 0.75 '", {"score": " 0.75 "}, ("csv", "json", "columns"), SchemaError, 2, "score",
     "score must be a number within [0, 1], got ' 0.75 ' (row 2, column 'score')"),
    ("score '\u0660.5'", {"score": "\u0660.5"}, ("csv", "json", "columns"), SchemaError, 2, "score",
     "score must be a number within [0, 1], got '\u0660.5' (row 2, column 'score')"),
    # a long cell is cut alike, whether its text reads as a number (csv) or not (json, columns)
    ("score of 500 characters", {"score": "1" + "0" * 498 + "1"}, ("csv", "json", "columns"), SchemaError, 2, "score",
     "score must be a number within [0, 1], got '1" + "0" * 37 + "..." + "0" * 38 + "1' (row 2, column 'score')"),
    # a lone surrogate, which no UTF-8 file can hold and so no table may hold either
    ("id lone surrogate", {"id": "r\ud800"}, ("json", "columns"), SchemaError, 2, "id",
     "id must be encodable as UTF-8, got 'r\\ud800' (row 2, column 'id')"),
    ("group lone surrogate", {"group": "\udfff"}, ("json", "columns"), SchemaError, 2, "group",
     "group must be encodable as UTF-8, got '\\udfff' (row 2, column 'group')"),
]


def _load_row_fault(tmp_path, source, rows):
    """The error of loading `rows` from `source`, as (class, message, row, column)."""
    with pytest.raises(SelcertError) as err:
        if source == "columns":
            Dataset(*([row[key] for row in rows] for key in ("id", "score", "label")),
                    groups=[row["group"] for row in rows])
        else:
            path = tmp_path / f"d.{source}"
            if source == "csv":
                path.write_text("id,score,label,group\n"
                                + "".join(",".join(map(str, row.values())) + "\n" for row in rows))
            else:
                path.write_text(json.dumps(rows))
            load_dataset(path)
    return type(err.value), str(err.value), getattr(err.value, "row", None), getattr(err.value, "column", None)


@pytest.mark.parametrize("name, change, sources, exc_type, row, column, message", SAME_FAULT,
                         ids=[case[0] for case in SAME_FAULT])
def test_one_bad_row_is_one_error_from_every_source(tmp_path, name, change, sources, exc_type, row, column,
                                                    message):
    rows = [{"id": "r1", "score": 0.25, "label": 0, "group": "g"},
            {"id": "r2", "score": 0.5, "label": 1, "group": "g", **change},
            {"id": "r3", "score": 0.75, "label": 1, "group": "h"}]
    errors = [_load_row_fault(tmp_path, source, rows) for source in sources]
    assert errors == [(exc_type, message, row, column)] * len(sources)


class TestConstructorMeetsTheReaders:
    """A Dataset built in code holds only what its files can hold."""

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_blank_group_is_read_as_none(self, tmp_path, suffix):
        data = Dataset(["a", "b"], [0.5, 0.7], [1, 0], groups=["", "g"])
        assert data.groups.tolist() == [None, "g"]
        write_dataset(data, tmp_path / f"d.{suffix}")
        assert load_dataset(tmp_path / f"d.{suffix}")._values() == data._values()

    @pytest.mark.parametrize("dates, message", [
        (["2020-01-01"], "date must be a datetime.date or None, got '2020-01-01' (row 1, column 'date')"),
        ([datetime(2020, 1, 1)],
         "date must be a datetime.date or None, got datetime.datetime(2020, 1, 1, 0, 0) (row 1, column 'date')"),
        ([20200101], "date must be a datetime.date or None, got 20200101 (row 1, column 'date')"),
    ])
    def test_dates_must_be_dates(self, dates, message):
        with pytest.raises(SchemaError) as err:
            Dataset(["a"], [0.5], [1], dates=dates)
        assert str(err.value) == message

    def test_groups_must_be_strings(self):
        with pytest.raises(SchemaError) as err:
            Dataset(["a", "b"], [0.5, 0.7], [1, 0], groups=[3, "x"])
        assert str(err.value) == "group must be a string or None, got 3 (row 1, column 'group')"

    def test_first_bad_cell_in_column_order(self):
        # row 1's date and group are both bad: the date, the earlier column, is named
        with pytest.raises(SchemaError) as err:
            Dataset(["a", "b"], [0.5, 0.7], [1, 0], dates=["x", None], groups=[3, "g"])
        assert (err.value.row, err.value.column) == (1, "date")
        # a bad id in row 2 comes after every fault of row 1
        with pytest.raises(SchemaError) as err:
            Dataset(["a", ""], [0.5, 0.7], [2, 0])
        assert (err.value.row, err.value.column) == (1, "label")

    def test_numpy_columns_and_cells(self):
        data = Dataset(np.array(["a", "b"]), np.array([0.5, 1.0], dtype=np.float32),
                                    [np.int64(1), np.uint8(0)], groups=np.array(["g", ""]))
        assert data.ids.tolist() == ["a", "b"] and data.labels.tolist() == [1, 0]
        assert data.groups.tolist() == ["g", None]
        with pytest.raises(SchemaError, match=r"^label must be 0 or 1, got '18446744073709551615' \(row 2"):
            Dataset(["a", "b"], [0.5, 0.5], np.array([1, 2**64 - 1], dtype=np.uint64))
        with pytest.raises(SchemaError, match=r"^score must be a number within \[0, 1\], got 'True' \(row 1"):
            Dataset(["a"], np.array([True]), [1])
        # a typed label array is read as its cells are: integers only, so a bool or 1.0 is no label
        assert Dataset(["a", "b"], [0.5, 0.5], np.array([0, 1])).labels.tolist() == [0, 1]
        for labels in (np.array([True, False]), np.array([1.0, 0.0]), [1, (0, [1])]):
            with pytest.raises(SchemaError, match=r"^label must be 0 or 1, got .* \(row (1|2)"):
                Dataset(["a", "b"], [0.5, 0.5], labels)


# the four tables on the one column base, and the repr each gives
TABLES = {
    "Dataset": (lambda: Dataset(["a", "b", "c"], [0.9, 0.2, 0.5], [1, 0, 1]), "Dataset(<3 rows>)"),
    "Decisions": (lambda: Decisions(["a", "b", "c"], [1, -1, 0], [0.9, 0.6, 0.75]), "Decisions(<3 rows>)"),
    # the curve has no constructor: its producer is its one way in
    "TradeoffCurve": (lambda: tradeoff_curve(Dataset(["a", "b", "c", "d"], [0.9, 0.2, 0.7, 0.5], [1, 0, 0, 1]),
                                             [0.6, 0.8, 0.95]),
                      "TradeoffCurve(<3 rows>)"),
    "CertificateGrid": (lambda: CertificateGrid([0.6, 0.8, 0.9], [3, 2, 1], [1, 1, 0],
                                                [1 / 3, 0.5, 0.0], [0.9, 0.95, 0.9]),
                        "CertificateGrid(<3 rows>)"),
    # nor have the trials, which no caller builds from columns
    "GuaranteeTrials": (lambda: validate_guarantee(SyntheticScorerSpec(1, 0.5, (4, 1), (1, 4), 0),
                                                   RiskConfig(alpha=0.3, beta=0.2, min_count=5), 3, 40, 40, 1),
                        "GuaranteeTrials(<3 rows>)"),
}


@pytest.mark.parametrize("name", TABLES)
def test_column_base_contract(name):
    build, shown = TABLES[name]
    table = build()
    columns = [getattr(table, column) for column in table._columns]
    arrays = [column for column in columns if isinstance(column, np.ndarray)]
    assert arrays and all(len(column) == 3 for column in columns)
    for column in arrays:
        with pytest.raises(ValueError):
            column[0] = column[1]
    with pytest.raises(TypeError):
        hash(table)
    assert repr(table) == shown
    assert len(table) == 3 and table == build() and table != "abc"
    with pytest.raises(TypeError):
        table[1]  # read by column, never by row
    if isinstance(table, (Dataset, GuaranteeTrials)):
        with pytest.raises(TypeError):
            iter(table)
    else:  # read-only row views, built on each pass; a table equals only a table
        views = list(table)
        assert len(views) == 3 and views == list(table) and table != views and views != table


def test_equality_compares_every_column(tmp_path):
    cells = dict(ids=["a", "b"], scores=[0.9, 0.2], labels=[1, 0], dates=[date(2020, 1, 1), None], groups=[None, "g"])
    data = Dataset(**cells)
    assert data == Dataset(**cells)
    for name, changed in (("ids", ["a", "c"]), ("scores", [0.9, 0.3]), ("labels", [1, 1]),
                          ("dates", [None, None]), ("groups", [None, None])):
        assert data != Dataset(**{**cells, name: changed}), name
    # where a dataset was read from is no part of it
    write_dataset(data, tmp_path / "one.csv")
    write_dataset(data, tmp_path / "two.json")
    assert load_dataset(tmp_path / "one.csv") == load_dataset(tmp_path / "two.json") == data
    # two curves alike but for one accuracy, with None where nothing is kept
    curve = tradeoff_curve(Dataset(["a", "b"], [0.9, 0.2], [1, 0]), [0.6, 0.8, 0.95])
    assert curve.selective_accuracy.tolist() == [1.0, 1.0, None]
    assert curve == tradeoff_curve(Dataset(["c", "d"], [0.9, 0.2], [1, 0]), [0.6, 0.8, 0.95])
    assert curve != tradeoff_curve(Dataset(["a", "b"], [0.9, 0.2], [1, 1]), [0.6, 0.8, 0.95])


def test_every_table_is_listed():
    assert {type(build()) for build, _ in TABLES.values()} == set(ColumnTable.__subclasses__())


def every_way_built(tmp_path) -> list:
    """Each table from its constructor, the two readers, and every builder that skips the checks."""
    data = generate_synthetic(SyntheticScorerSpec(40, 0.5, (4, 1), (1, 4), 2))
    cert = certify_threshold(data, RiskConfig(alpha=0.5, beta=0.2, min_count=10))
    assert cert.feasible
    decisions = apply_certificate(data, cert)
    write_dataset(data, tmp_path / "d.csv")
    write_decisions(decisions, tmp_path / "dec.csv")
    constructed = [build() for build, _ in TABLES.values()]
    return [*constructed, load_dataset(tmp_path / "d.csv"), read_decisions(tmp_path / "dec.csv"),
            decisions, cert.grid, data, data.take(data.labels == 1), tradeoff_curve(data)]


def test_every_column_is_a_read_only_array_read_as_an_attribute(tmp_path):
    tables = every_way_built(tmp_path)
    assert {type(table) for table in tables} == set(ColumnTable.__subclasses__())
    for table in tables:
        for name in table._columns:
            column = getattr(table, name)
            assert isinstance(column, np.ndarray) and not column.flags.writeable, (type(table).__name__, name)
            assert not hasattr(type(table), name), (type(table).__name__, name)  # no method of a column's name
        assert set(vars(table)) == set(table._columns), type(table).__name__  # and nothing else


class TestColumns:
    def test_column_types(self):
        data = make_dataset()
        assert data.scores.dtype == np.float64 and data.labels.dtype == np.int64
        assert type(data.scores.tolist()[0]) is float and type(data.labels.tolist()[0]) is int

    def test_columns_are_read_only(self):
        data = make_dataset()
        with pytest.raises(ValueError):
            data.scores[0] = 0.0

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(ids=["a", "a"]), DuplicateIdError),
            (dict(ids=["a", ""]), SchemaError),
            (dict(ids=["a", 7]), SchemaError),
            (dict(scores=[0.5, 1.5]), SchemaError),
            (dict(scores=[0.5, float("nan")]), SchemaError),
            (dict(scores=["0.5", "0.6"]), SchemaError),
            (dict(labels=[0, 2]), SchemaError),
            (dict(labels=[True, False]), SchemaError),
            (dict(labels=[0.0, 1.0]), SchemaError),
            (dict(labels=[0]), SchemaError),
            (dict(groups=["g"]), SchemaError),
            (dict(scores=[np.float32(0.5), 10**400]), SchemaError),
            (dict(scores=[np.float32(0.5), Fraction(10**400)]), SchemaError),
        ],
    )
    def test_constructor_validates(self, kwargs, error):
        columns = dict(ids=["a", "b"], scores=[0.5, 0.6], labels=[0, 1])
        columns.update(kwargs)
        with pytest.raises(error):
            Dataset(**columns)

    def test_unchecked_builders_agree_with_a_checked_build(self, tmp_path):
        # generate_synthetic and load_dataset check their columns once and build unchecked
        data = generate_synthetic(SyntheticScorerSpec(50, 0.3, (4, 2), (2, 4), 5))
        assert data.labels.dtype == np.int64 and data.scores.dtype == np.float64
        checked = Dataset(data.ids, data.scores, data.labels)
        assert data == checked
        for suffix in ("csv", "json"):
            write_dataset(data, tmp_path / f"d.{suffix}")
            loaded = load_dataset(tmp_path / f"d.{suffix}")
            assert loaded._values() == data._values() and loaded.ids.tolist() == data.ids.tolist()

    def test_take(self):
        data = make_dataset()
        picked = data.take(np.array([2, 0]))
        assert picked.ids.tolist() == ["c", "a"]
        assert picked._values() == [[column[2], column[0]] for column in data._values()]
        assert data.take(data.labels == 1).ids.tolist() == ["a", "c"]
