"""One table writer: `Table` renders as the rows it holds, in JSON and in CSV (needs hypothesis).

The generic `dumps` of the same rows as a list of dicts is the JSON
reference, and the original row-by-row csv.writer loop (rowwise_csv.py) is
the CSV reference.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rowwise_csv import csv_text_rowwise  # noqa: E402
from selcert import jsonio  # noqa: E402
from selcert.jsonio import Exact, Table, csv_text, dumps  # noqa: E402

# text mixing CSV-special characters, braces and percent signs (which a row
# template must not read as its own), and non-ASCII; surrogates cannot be
# written as UTF-8 and so are left out
TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(',"\r\n{}%\\é€'), st.characters(blacklist_categories=("Cs",))),
    max_size=8,
)
PLAIN = st.text(alphabet="abc-_ .", max_size=6)
# one special character at a time, so a table may need quoting for just one
SPECIAL = st.sampled_from(["", '"', 'a"b', ",", "\r", "\n", "{}", "%s", "é"])
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = [st.none(), st.booleans(), st.integers(), FINITE, FINITE.map(Exact), TEXT, PLAIN, SPECIAL]
VALUE = st.one_of(*SCALARS)
# the element strategy and dtype of a numeric array column
ARRAYS = [(FINITE, np.float64), (st.integers(-2**63, 2**63 - 1), np.int64), (st.booleans(), np.bool_)]


@st.composite
def tables(draw):
    """A table and, for reference, its columns with each float in an exact column made `Exact`."""
    names = draw(st.lists(st.one_of(TEXT, PLAIN, SPECIAL), max_size=4, unique=True))
    n = draw(st.integers(0, 6))
    # a column holds one value type (formatted in one pass) or several, or
    # is a numeric array, which holds its values as the list `tolist` gives
    columns = {}
    for name in names:
        if draw(st.booleans()):
            columns[name] = draw(st.lists(draw(st.sampled_from([VALUE, *SCALARS])), min_size=n, max_size=n))
        else:
            element, dtype = draw(st.sampled_from(ARRAYS))
            columns[name] = np.array(draw(st.lists(element, min_size=n, max_size=n)), dtype=dtype)
    exact = [name for name in names if draw(st.booleans())]
    reference = {name: [Exact(v) if name in exact and type(v) is float else v
                        for v in (values.tolist() if isinstance(values, np.ndarray) else values)]
                 for name, values in columns.items()}
    return Table(columns, exact=exact), reference


def rows_of(columns: dict) -> list[dict]:
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


SETTINGS = settings(max_examples=200, deadline=None)


@SETTINGS
@given(drawn=tables())
def test_table_dumps_as_its_rows(drawn):
    table, columns = drawn
    assert dumps(table) == dumps(rows_of(columns))
    # nested, so the row template is indented to its level
    doc = {"a": [rows_of(columns)], "b": rows_of(columns)}
    assert dumps({"a": [table], "b": table}) == dumps(doc)
    # the standard library spells everything but a plain float the same way
    if not any(type(value) is float for column in columns.values() for value in column):
        assert dumps({"a": [table], "b": table}) == json.dumps(doc, indent=2) + "\n"


@SETTINGS
@given(drawn=tables(), json_first=st.booleans())
def test_csv_text_equals_rowwise_writer(drawn, json_first):
    table, columns = drawn
    if json_first:  # so CSV reads the text JSON kept
        dumps(table)
    assert csv_text(table) == csv_text_rowwise(columns)


def test_numbers_formatted_once_for_both_formats(monkeypatch):
    calls = []

    def counted(values, exact):
        calls.append(list(values))
        return numbers(values, exact)

    numbers = jsonio._numbers
    monkeypatch.setattr(jsonio, "_numbers", counted)
    table = Table({"x": np.array([0.5, 0.25]), "y": [1.5, None], "z": ["a", "b"]})
    text = csv_text(table), dumps(table), csv_text(table)
    assert calls == [[0.5, 0.25], [1.5]]
    assert text[0] == text[2] == "x,y,z\n0.5,1.5,a\n0.25,,b\n"


def test_empty_tables():
    assert dumps(Table({})) == dumps(Table({"a": [], "b": []})) == "[]\n"
    assert csv_text(Table({"a": [], "b": []})) == "a,b\n"


def test_cells_are_spelled_by_type():
    table = Table({"x": [None, True, 3, 0.1 + 0.2, Exact(0.1 + 0.2), "a,b"], "y": ["é"] * 6})
    assert csv_text(table) == 'x,y\n,é\ntrue,é\n3,é\n0.3,é\n0.30000000000000004,é\n"a,b",é\n'
    assert [line.strip() for line in dumps(table).splitlines()[2:4]] == ['"x": null,', '"y": "\\u00e9"']
    assert json.loads(dumps(table))[4]["x"] == 0.1 + 0.2


def test_exact_columns_print_floats_with_repr():
    table = Table({"x": [0.1 + 0.2, 1, None, True], "y": [0.1 + 0.2, 1, None, True]}, exact=["x"])
    assert csv_text(table) == "x,y\n0.30000000000000004,0.3\n1,1\n,\ntrue,true\n"


@pytest.mark.parametrize("cell", [",", '"', "\n", "\r", "\0", "a\nb", 'x"'])
def test_one_cell_needing_csv_writer(cell):
    # every other cell could be joined as it is; this one sends the table through csv.writer
    columns = {"id": ["a", cell, "c"], "x": [0.5, 1.5, None], "n": [1, 2, 3]}
    assert csv_text(Table(columns)) == csv_text_rowwise(columns)


def test_lone_empty_field_is_quoted_as_csv_writer_does():
    assert csv_text(Table({"x": ["", None, "a"]})) == 'x\n""\n""\na\n'


def test_table_rejects_ragged_columns_and_bad_values():
    with pytest.raises(ValueError, match="one length"):
        Table({"a": [1, 2], "b": [1]})
    with pytest.raises(ValueError, match="non-finite number in output: inf"):
        dumps(Table({"a": [1.0, float("inf")]}))
    with pytest.raises(ValueError, match="non-finite number in output: nan"):
        csv_text(Table({"a": [None, float("nan")]}))
    with pytest.raises(ValueError, match="non-finite number in output: inf"):
        csv_text(Table({"a": np.array([0.5, np.inf])}, exact=["a"]))
    with pytest.raises(TypeError, match="cannot serialize bytes"):
        dumps(Table({"a": [b"x"]}))
