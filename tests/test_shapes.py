"""One rule for what holds cells, at every entry point that takes a collection.

A column is a list, tuple, range or 1-d array; text, bytes (a bytearray or
memoryview too), a mapping, a set, an iterator, a scalar and a 0-d or 2-d
array are not, and a table's columns share one length (`records._columns`).
An argument that takes a table takes that table alone: not rows of its
views, its columns, or another table (`ColumnTable._given`).
A pair is a column of length 2. Each entry point raises its own error type,
naming the argument: never a bare TypeError, ValueError or AttributeError,
and never a quiet reading of the value.
"""

from datetime import date

import numpy as np
import pytest

from selcert import (
    Dataset,
    Decisions,
    DomainError,
    RiskConfig,
    SchemaError,
    SyntheticScorerSpec,
    ThresholdCertificate,
    TradeoffCurve,
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
DECISIONS = Decisions(["a", "b"], [1, -1], [0.9, 0.8])  # DATA's ids
GRID = CertificateGrid([0.6, 0.8], [3, 2], [1, 1], [1 / 3, 0.5], [0.9, 0.95])

# entry point -> (call, its column arguments' names and good values, its error); each key is the
# entry point's test id
COLUMN_ENTRY_POINTS = {
    "Dataset": (Dataset, {
        "ids": ["a", "b"], "scores": [0.9, 0.2], "labels": [1, 0], "dates": [date(2020, 1, 1), None],
        "groups": ["g", None]}, SchemaError),
    "Decisions": (Decisions, {"ids": ["a", "b"], "prediction": [1, -1], "confidence": [0.9, 0.6]}, DomainError),
    "CertificateGrid": (CertificateGrid, {
        "lam": [0.6, 0.8], "n_at": [3, 2], "errors_at": [1, 1], "risk_hat": [1 / 3, 0.5],
        "risk_plus": [0.9, 0.95]}, DomainError),
    "TradeoffCurve": (TradeoffCurve, {
        "lam": [0.6, 0.8], "fraction_kept": [1.0, 0.5], "selective_accuracy": [0.75, None]}, DomainError),
    "roc_auc": (roc_auc, {"scores": [0.9, 0.2], "labels": [1, 0]}, DomainError),
    "pr_auc": (pr_auc, {"scores": [0.9, 0.2], "labels": [1, 0]}, DomainError),
    "f1_accuracy": (f1_accuracy, {"scores": [0.9, 0.2], "labels": [1, 0]}, DomainError),
    "tradeoff_curve": (lambda lambdas: tradeoff_curve(DATA, lambdas), {"lambdas": [0.6, 0.8]},
                       UnsortedLambdasError),
}

# entry point -> (call taking a table and a scratch directory, the table's argument name, a good table)
TABLE_ENTRY_POINTS = {
    "retain_rate": (lambda table, _: retain_rate(table), "decisions", DECISIONS),
    "write_decisions": (lambda table, tmp: write_decisions(table, tmp / "decisions.csv"), "decisions", DECISIONS),
    "selective_report": (lambda table, _: selective_report(DATA, table), "decisions", DECISIONS),
    "ThresholdCertificate.grid": (
        lambda table, _: ThresholdCertificate("infeasible", None, table, RiskConfig(0.5, 0.2), 3), "grid", GRID),
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
    "bytearray": lambda good: bytearray([1, 0]),
    "memoryview": lambda good: memoryview(bytes([1, 0])),
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


CURVE = TradeoffCurve([0.6, 0.8], [1.0, 0.5], [0.75, None])


def _foreign_views(table):
    """Row views of an iterable table other than `table`'s kind."""
    return list(GRID if isinstance(table, Decisions) else DECISIONS)


# values that are no table, each built from a good table: its row views, its columns, or neither
NOT_TABLES = {
    "list of views": list,
    "tuple of views": tuple,
    "generator of views": lambda table: (row for row in table),
    "set of views": set,
    "frozenset of views": frozenset,
    "dict of views": lambda table: dict(enumerate(table)),
    "list of columns": lambda table: [getattr(table, name) for name in table._columns],
    "dict of columns": lambda table: {name: getattr(table, name) for name in table._columns},
    "2-d array of columns": lambda table: np.array([getattr(table, name) for name in table._columns], dtype=object),
    "str": lambda table: "ab",
    "bytes": lambda table: bytes([1, 0]),
    "generator of numbers": lambda table: (cell for cell in [0.9, 0.1]),
    "int": lambda table: 2,
    "0-d array": lambda table: np.array(0.5),
    "view and number": lambda table: [next(iter(table)), 5],
    "another table's views": _foreign_views,
}


def _rejected(entry, value, tmp_path):
    """Check that the entry point rejects `value` with its own error naming the argument, writing nothing."""
    call, argument, good = TABLE_ENTRY_POINTS[entry]
    with pytest.raises(DomainError) as err:
        call(value, tmp_path)
    assert type(err.value) is DomainError
    assert str(err.value) == f"{argument} must be a {type(good).__name__}, got {type(value).__name__}"
    assert list(tmp_path.iterdir()) == []  # nothing written


@pytest.mark.parametrize("kind", NOT_TABLES)
@pytest.mark.parametrize("entry", TABLE_ENTRY_POINTS)
def test_value_that_is_no_table_rejected(entry, kind, tmp_path):
    _rejected(entry, NOT_TABLES[kind](TABLE_ENTRY_POINTS[entry][2]), tmp_path)


OTHER_TABLES = {"Dataset": DATA, "Decisions": DECISIONS, "CertificateGrid": GRID, "TradeoffCurve": CURVE}


@pytest.mark.parametrize("entry, other", [
    (entry, other) for entry, (_, _, good) in TABLE_ENTRY_POINTS.items()
    for other, table in OTHER_TABLES.items() if type(table) is not type(good)])
def test_another_table_rejected(entry, other, tmp_path):
    _rejected(entry, OTHER_TABLES[other], tmp_path)


@pytest.mark.parametrize("kind", COLUMNS)
@pytest.mark.parametrize("entry", TABLE_ENTRY_POINTS)
def test_tables_read_alike(entry, kind, tmp_path):
    # a table built from tuples or arrays gives what the one built from lists gives
    call, _, good = TABLE_ENTRY_POINTS[entry]
    table = type(good)(*(COLUMNS[kind](getattr(good, name).tolist()) for name in good._columns))
    (tmp_path / "lists").mkdir()
    (tmp_path / kind).mkdir()
    assert call(table, tmp_path / kind) == call(good, tmp_path / "lists")
    assert [path.read_bytes() for path in (tmp_path / kind).iterdir()] == [
        path.read_bytes() for path in (tmp_path / "lists").iterdir()]


# each table -> its entry point from columns, by its key above
TABLES = {Dataset: "Dataset", Decisions: "Decisions", CertificateGrid: "CertificateGrid",
          TradeoffCurve: "TradeoffCurve"}


def test_every_table_is_on_the_rule():
    # a table added later fails here until its entry point joins the matrix above
    assert set(ColumnTable.__subclasses__()) == set(TABLES)
    assert set(TABLES.values()) <= set(COLUMN_ENTRY_POINTS)


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


@pytest.mark.parametrize("call, error", [
    # the shapes would be read in set order, swapped here
    (lambda: SyntheticScorerSpec(3, 0.5, {2.0, 8.0}, (2, 8), 0), DomainError),
    # a mapping's keys, or the bytes' values, would be read as the labels
    (lambda: Dataset(["a", "b"], [0.9, 0.2], {1: 0, 0: 1}), SchemaError),
    (lambda: Dataset(["a", "b"], [0.9, 0.2], b"\x01\x00"), SchemaError),
    (lambda: roc_auc([0.9, 0.2], {1: "x", 0: "y"}), DomainError),
    # rows would be ordered by string hash, which differs from one process to the next
    (lambda: Decisions({"b", "a", "c"}, [0, 1, -1], [0.9, 0.8, 0.7]), DomainError),
], ids=["set shapes", "mapping labels", "bytes labels", "mapping labels in roc_auc", "set of ids"])
def test_values_once_read_quietly_rejected(call, error):
    with pytest.raises(error):
        call()
