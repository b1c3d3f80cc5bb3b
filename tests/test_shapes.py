"""One rule for what holds cells, at every entry point that takes a collection.

A column is a list, tuple, range or 1-d array; text, bytes, a mapping, a
set, an iterator, a scalar and a 0-d or 2-d array are not, and a table's
columns share one length (`records._columns`). Rows of a table's views come
from any iterable but a set or a mapping, whose order is not defined, and
each row must be the table's own view (`ColumnTable._columns_of`). A pair is
a column of length 2. Each entry point raises its own error type, naming the
argument: never a bare TypeError, ValueError or AttributeError, and never a
quiet reading of the value.
"""

from datetime import date

import numpy as np
import pytest

from selcert import (
    Dataset,
    Decision,
    Decisions,
    DomainError,
    GridPoint,
    PredictionRecord,
    RiskConfig,
    SchemaError,
    SyntheticScorerSpec,
    ThresholdCertificate,
    TradeoffCurve,
    TradeoffPoint,
    UnsortedLambdasError,
    f1_accuracy,
    pr_auc,
    retain_rate,
    risk_upper_bound,
    roc_auc,
    selective_report,
    tradeoff_curve,
    write_decisions,
)
from selcert.calibrate import CertificateGrid
from selcert.records import ColumnTable

COLUMN = "must be a column (a list, tuple, range or 1-d array)"
DATA = Dataset(["a", "b"], [0.9, 0.2], [1, 0])
DECISIONS = [Decision("a", 1, 0.9), Decision("b", None, 0.8)]  # DATA's ids

# entry point -> (call, its column arguments' names and good values, its error); each key is the
# entry point's test id, which for `Dataset` and `TradeoffCurve` is the name their constructors had
# first, `Dataset.from_columns` and `TradeoffCurve.from_columns`
COLUMN_ENTRY_POINTS = {
    "Dataset.from_columns": (Dataset, {
        "ids": ["a", "b"], "scores": [0.9, 0.2], "labels": [1, 0], "dates": [date(2020, 1, 1), None],
        "groups": ["g", None]}, SchemaError),
    "Decisions": (Decisions, {"ids": ["a", "b"], "prediction": [1, -1], "confidence": [0.9, 0.6]}, DomainError),
    "CertificateGrid": (CertificateGrid, {
        "lam": [0.6, 0.8], "n_at": [3, 2], "errors_at": [1, 1], "risk_hat": [1 / 3, 0.5],
        "risk_plus": [0.9, 0.95]}, DomainError),
    "TradeoffCurve.from_columns": (TradeoffCurve, {
        "lam": [0.6, 0.8], "fraction_kept": [1.0, 0.5], "selective_accuracy": [0.75, None]}, DomainError),
    "roc_auc": (roc_auc, {"scores": [0.9, 0.2], "labels": [1, 0]}, DomainError),
    "pr_auc": (pr_auc, {"scores": [0.9, 0.2], "labels": [1, 0]}, DomainError),
    "f1_accuracy": (f1_accuracy, {"scores": [0.9, 0.2], "labels": [1, 0]}, DomainError),
    "tradeoff_curve": (lambda lambdas: tradeoff_curve(DATA, lambdas), {"lambdas": [0.6, 0.8]},
                       UnsortedLambdasError),
}

# entry point -> (call taking rows and a scratch directory, the rows' argument name, good rows, its error);
# the keys `Dataset` and `TradeoffCurve`, test ids as above, stand for `Dataset.of` and `TradeoffCurve.of`
ROW_ENTRY_POINTS = {
    "Dataset": (lambda rows, _: Dataset.of(rows), "rows", list(DATA), SchemaError),
    "TradeoffCurve": (lambda rows, _: TradeoffCurve.of(rows), "rows",
                      [TradeoffPoint(0.6, 1.0, 0.75), TradeoffPoint(0.8, 0.5, None)], DomainError),
    "Decisions.of": (lambda rows, _: Decisions.of(rows), "decisions", DECISIONS, DomainError),
    "retain_rate": (lambda rows, _: retain_rate(rows), "decisions", DECISIONS, DomainError),
    "write_decisions": (lambda rows, tmp: write_decisions(rows, tmp / "decisions.csv"), "decisions", DECISIONS,
                        DomainError),
    "selective_report": (lambda rows, _: selective_report(DATA, rows), "decisions", DECISIONS, DomainError),
    "ThresholdCertificate.grid": (
        lambda rows, _: ThresholdCertificate("infeasible", None, rows, RiskConfig(0.5, 0.2), 3), "grid",
        [GridPoint(0.6, 3, 1, 1 / 3, 0.9), GridPoint(0.8, 2, 1, 0.5, 0.95)], DomainError),
}

# entry point -> (call taking the pair, the pair's argument name, a good pair)
PAIR_ENTRY_POINTS = {
    "SyntheticScorerSpec.pos_shape": (lambda v: SyntheticScorerSpec(3, 0.5, v, (2, 8), 0), "pos_shape", [2.0, 8.0]),
    "SyntheticScorerSpec.neg_shape": (lambda v: SyntheticScorerSpec(3, 0.5, (8, 2), v, 0), "neg_shape", [8.0, 2.0]),
    "risk_upper_bound.tail": (lambda v: risk_upper_bound(v, 0.1), "tail", [3, 10]),
}

# values that hold cells but are no column, each built from a good column of length 2
NOT_COLUMNS = {
    "set": set,
    "frozenset": frozenset,
    "dict": lambda good: dict(zip(good, good)),
    "str": lambda good: "ab",
    "bytes": lambda good: bytes([1, 0]),
    "generator": lambda good: (cell for cell in good),
    "int": lambda good: 2,
    "0-d array": lambda good: np.array(good[0]),
    "2-d array": lambda good: np.array(good, dtype=object)[:, None],
}
# well-formed columns, each equal to the list `good`
COLUMNS = {"tuple": tuple, "1-d array": np.array}


def _call(entry, argument, value):
    """The entry point's call with one column argument replaced by `value`, the others good."""
    call, good, _ = COLUMN_ENTRY_POINTS[entry]
    return call(*(value if name == argument else cells for name, cells in good.items()))


COLUMN_ARGUMENTS = [(entry, argument) for entry, (_, good, _) in COLUMN_ENTRY_POINTS.items() for argument in good]
# the arguments after each entry point's first, whose length the first sets
LATER_ARGUMENTS = [(entry, argument) for entry, (_, good, _) in COLUMN_ENTRY_POINTS.items()
                   for argument in list(good)[1:]]


@pytest.mark.parametrize("kind", NOT_COLUMNS)
@pytest.mark.parametrize("entry, argument", COLUMN_ARGUMENTS)
def test_column_that_is_no_column_rejected(entry, argument, kind):
    _, good, error = COLUMN_ENTRY_POINTS[entry]
    first = next(iter(good))
    with pytest.raises(error) as err:
        _call(entry, argument, NOT_COLUMNS[kind](good[argument]))
    size = "" if argument == first else f" of one length with {first} (2)"
    assert type(err.value) is error and str(err.value).startswith(f"{argument} {COLUMN}{size}, got ")


@pytest.mark.parametrize("entry, argument", LATER_ARGUMENTS)
def test_column_of_another_length_rejected(entry, argument):
    _, good, error = COLUMN_ENTRY_POINTS[entry]
    first = next(iter(good))
    for cells in (good[argument][:1], good[argument] * 2):
        with pytest.raises(error) as err:
            _call(entry, argument, cells)
        assert type(err.value) is error
        assert str(err.value) == f"{argument} {COLUMN} of one length with {first} (2), got list of length {len(cells)}"


@pytest.mark.parametrize("kind", COLUMNS)
@pytest.mark.parametrize("entry, argument", COLUMN_ARGUMENTS)
def test_columns_read_alike(entry, argument, kind):
    _, good, _ = COLUMN_ENTRY_POINTS[entry]
    assert _call(entry, argument, COLUMNS[kind](good[argument])) == _call(entry, argument, good[argument])


def test_ranges_read_as_lists():
    labels = Dataset(["a", "b"], [0.2, 0.9], [0, 1])
    assert Dataset(["a", "b"], [0.2, 0.9], range(2)) == labels
    assert Decisions(["a", "b"], range(-1, 1), [0.6, 0.9]) == Decisions(["a", "b"], [-1, 0], [0.6, 0.9])
    assert tradeoff_curve(DATA, range(1, 2)) == tradeoff_curve(DATA, [1])
    assert SyntheticScorerSpec(3, 0.5, range(2, 9, 6), (2, 8), 0) == SyntheticScorerSpec(3, 0.5, (2, 8), (2, 8), 0)


# rows that are no ordered collection of views -> the argument the error names, "" for the rows
# themselves, "[i]" for row i
NOT_ROWS = {
    "set": (set, ""),
    "frozenset": (frozenset, ""),
    "dict": (lambda rows: dict(enumerate(rows)), ""),
    "str": (lambda rows: "ab", "[0]"),
    "bytes": (lambda rows: bytes([1, 0]), "[0]"),
    "generator of numbers": (lambda rows: (cell for cell in [0.9, 0.1]), "[0]"),
    "int": (lambda rows: 2, ""),
    "0-d array": (lambda rows: np.array(0.5), ""),
    "2-d array": (lambda rows: np.array([[0.9, 0.1]]), "[0]"),
    "row that is no view": (lambda rows: [rows[0], 5], "[1]"),
    "another table's view": (lambda rows: [rows[0], _foreign_view(rows[0])], "[1]"),
}


def _foreign_view(view):
    """A view of a table other than `view`'s."""
    return PredictionRecord("b", 0.9, 1) if isinstance(view, Decision) else Decision("b", 1, 0.9)


GOOD_ROWS = {"list": list, "tuple": tuple, "generator": lambda rows: (row for row in rows)}


@pytest.mark.parametrize("kind", NOT_ROWS)
@pytest.mark.parametrize("entry", ROW_ENTRY_POINTS)
def test_rows_that_are_no_views_rejected(entry, kind, tmp_path):
    call, argument, good, error = ROW_ENTRY_POINTS[entry]
    build, where = NOT_ROWS[kind]
    with pytest.raises(error) as err:
        call(build(good), tmp_path)
    assert type(err.value) is error and str(err.value).startswith(f"{argument}{where} must be ")
    assert list(tmp_path.iterdir()) == []  # nothing written


@pytest.mark.parametrize("kind", GOOD_ROWS)
@pytest.mark.parametrize("entry", ROW_ENTRY_POINTS)
def test_rows_read_alike(entry, kind, tmp_path):
    call, _, good, _ = ROW_ENTRY_POINTS[entry]
    assert call(GOOD_ROWS[kind](good), tmp_path) == call(good, tmp_path)


# each table -> its entry points from columns and from rows, by their keys above
TABLES = {
    Dataset: ("Dataset.from_columns", "Dataset"),
    Decisions: ("Decisions", "Decisions.of"),
    CertificateGrid: ("CertificateGrid", "ThresholdCertificate.grid"),
    TradeoffCurve: ("TradeoffCurve.from_columns", "TradeoffCurve"),
}


def test_every_table_is_on_the_rule():
    # a table added later fails here until its entry points join the matrices above
    assert set(ColumnTable.__subclasses__()) == set(TABLES)
    for columns, rows in TABLES.values():
        assert columns in COLUMN_ENTRY_POINTS and rows in ROW_ENTRY_POINTS


NOT_PAIRS = {**NOT_COLUMNS, "one": lambda good: good[:1], "three": lambda good: [*good, good[0]],
             "empty": lambda good: []}


@pytest.mark.parametrize("kind", NOT_PAIRS)
@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS)
def test_pair_that_is_no_pair_rejected(entry, kind):
    call, argument, good = PAIR_ENTRY_POINTS[entry]
    with pytest.raises(DomainError) as err:
        call(NOT_PAIRS[kind](good))
    assert type(err.value) is DomainError and str(err.value).startswith(f"{argument} {COLUMN} of length 2, got ")


@pytest.mark.parametrize("kind", COLUMNS)
@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS)
def test_pairs_read_alike(entry, kind):
    call, _, good = PAIR_ENTRY_POINTS[entry]
    assert call(COLUMNS[kind](good)) == call(good)


RECORDS = [PredictionRecord("b", 0.9, 1), PredictionRecord("a", 0.8, 0), PredictionRecord("c", 0.7, 1)]


@pytest.mark.parametrize("call, error", [
    # the shapes would be read in set order, swapped here
    (lambda: SyntheticScorerSpec(3, 0.5, {2.0, 8.0}, (2, 8), 0), DomainError),
    # a mapping's keys, or the bytes' values, would be read as the labels
    (lambda: Dataset(["a", "b"], [0.9, 0.2], {1: 0, 0: 1}), SchemaError),
    (lambda: Dataset(["a", "b"], [0.9, 0.2], b"\x01\x00"), SchemaError),
    (lambda: roc_auc([0.9, 0.2], {1: "x", 0: "y"}), DomainError),
    # rows would be ordered by string hash, which differs from one process to the next
    (lambda: Decisions({"b", "a", "c"}, [0, 1, -1], [0.9, 0.8, 0.7]), DomainError),
    (lambda: Dataset.of(set(RECORDS)), SchemaError),
], ids=["set shapes", "mapping labels", "bytes labels", "mapping labels in roc_auc", "set of ids",
        "set of records"])
def test_values_once_read_quietly_rejected(call, error):
    with pytest.raises(error):
        call()
