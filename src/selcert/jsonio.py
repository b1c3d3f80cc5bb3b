"""Deterministic JSON and CSV rendering for every file the tool writes.

Outputs must be byte-identical across runs, so every value is spelled here:
floats at a fixed 12 significant digits, keys in insertion order. A float
wrapped in `Exact` is printed with repr instead, so it loads back bit for
bit; that is for values a reader acts on, such as certified thresholds and
dataset scores. A `Table` holds named columns of one length, one row per
item; `dumps` renders it as the JSON array of objects its rows would give,
`csv_text` as CSV, each formatting a column in one pass per value type. The
two spell numbers and booleans alike, so a table keeps that text once
spelled, and one written in both formats formats each number once.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import filterfalse, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

from .errors import _shown

_INDENT = 2


class Exact(float):
    """A float that `dumps` renders with repr, so it round-trips exactly."""


class Table:
    """Named columns of one length, rendered one row per item by `dumps` and `csv_text`.

    A column is a sequence or a 1-D array, a numeric one written as its `tolist`.
    Floats in the columns named in `exact` are printed with repr, as `Exact` ones are.
    The columns must not change once the table is rendered.
    """

    def __init__(self, columns: dict[str, Sequence], exact: Sequence[str] = ()) -> None:
        self.columns = dict(columns)
        self.exact = frozenset(exact)
        lengths = set(map(len, self.columns.values()))
        if len(lengths) > 1:
            raise ValueError(f"table columns must all have one length, got {sorted(lengths)}")
        # per column, the text of its numbers and booleans, keyed by value type
        self._spelled: dict[str, dict[type, list[str]]] = {name: {} for name in self.columns}

    def cells(self, spelling: dict) -> list[list[str]]:
        """The text of every column, in order."""
        return [_cells(values, spelling, name in self.exact, self._spelled[name])
                for name, values in self.columns.items()]


def _numbers(values: Sequence, exact: bool) -> list[str]:
    """Finite numbers at 12 significant digits, or with repr when `exact`."""
    bad = next(filterfalse(math.isfinite, values), None)
    if bad is not None:
        raise ValueError(f"non-finite number in output: {_shown(bad)}")
    if exact:
        return list(map(float.__repr__, values))
    return list(map(format, map(float, values), repeat(".12g")))


# How each value type is spelled, a column of that type at a time, keyed in
# isinstance order: bool before int, Exact before float.
_SPELLING = {
    bool: lambda values: ["true" if x else "false" for x in values],
    int: lambda values: list(map(str, values)),
    Exact: lambda values: _numbers(values, exact=True),
    float: lambda values: _numbers(values, exact=False),
}
_JSON = {type(None): lambda values: ["null"] * len(values),
         **_SPELLING, str: lambda values: list(map(encode_basestring_ascii, values))}
_CSV = {type(None): lambda values: [""] * len(values), **_SPELLING, str: list}


def format_number(x: float) -> str:
    """Render a float at 12 significant digits, or with repr if it is `Exact`."""
    return _numbers([x], isinstance(x, Exact))[0]


def _cells(values: Sequence, spelling: dict, exact: bool = False,
           spelled: dict[type, list[str]] | None = None) -> list[str]:
    """The text of every value in a column, each value type in one pass; floats with repr if `exact`.

    `spelled`, when given, keeps the text of the numbers and booleans of each
    value type for the next call on the same column, in either format.
    """
    def spell(cls: type, kind: type, part: Sequence) -> list[str]:
        if spelled is None or kind not in _SPELLING:
            return spelling[kind](part)
        if cls not in spelled:
            spelled[cls] = spelling[kind](part)
        return spelled[cls]

    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "biuf":
        kind = {"b": bool, "f": Exact if exact else float}.get(values.dtype.kind, int)
        return spell(kind, kind, values.tolist())
    kinds = {cls: next((kind for kind in spelling if issubclass(cls, kind)), None)
             for cls in set(map(type, values))}
    for cls, kind in kinds.items():
        if kind is None:
            raise TypeError(f"cannot serialize {cls.__name__} to JSON")
        if exact and kind is float:
            kinds[cls] = Exact
    if len(kinds) == 1:
        return spell(*kinds.popitem(), values)
    types = list(map(type, values))
    text = [""] * len(values)
    for cls, kind in kinds.items():
        where = [i for i, t in enumerate(types) if t is cls]
        for i, cell in zip(where, spell(cls, kind, [values[i] for i in where])):
            text[i] = cell
    return text


def csv_text(table: Table) -> str:
    """A table as CSV: a header of column names, then one line per row, each ending "\\n".

    None is an empty field, booleans true/false, strings raw and numbers as in
    JSON. csv.writer does not quote a "\\r" when the line end is "\\n", so rows
    holding one are written fully quoted. When no cell holds a comma, quote,
    line break or NUL and no row is one empty field, which csv.writer would
    quote, the rows are joined as they are, without it.
    """
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    plain.writerow(table.columns)
    columns = table.cells(_CSV)
    text = "".join(map("".join, columns))
    if not any(char in text for char in ',"\n\r\0') and (len(columns) != 1 or all(columns[0])):
        row = ",".join(["%s"] * len(columns)) + "\n"
        return out.getvalue() + "".join(map(row.__mod__, zip(*columns)))
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in zip(*columns):
        (quoted if "\r" in "".join(row) else plain).writerow(row)
    return out.getvalue()


def dumps(obj: Any) -> str:
    """Serialize to JSON text with fixed float formatting and an indent of 2.

    Accepts None, bool, int, float, str, list/tuple, dict (string keys,
    insertion order preserved) and Table. Ends with a newline.
    """
    return _render(obj, "") + "\n"


def _render(obj: Any, pad: str) -> str:
    inner = pad + " " * _INDENT
    if isinstance(obj, Table):
        # every row from one template, each column formatted in one pass
        fields = ",\n".join(inner + " " * _INDENT + encode_basestring_ascii(name).replace("%", "%%")
                            + ": %s" for name in obj.columns)
        brackets, items = "[]", map(f"{{\n{fields}\n{inner}}}".__mod__, zip(*obj.cells(_JSON)))
    elif isinstance(obj, dict):  # encode_basestring_ascii raises TypeError on a key not a str
        brackets = "{}"
        items = (encode_basestring_ascii(key) + ": " + _render(value, inner) for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", (_render(item, inner) for item in obj)
    else:
        return _cells([obj], _JSON)[0]
    text = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{text}\n{pad}{brackets[1]}" if text else brackets
