"""Datasets, dataset files, temporal splits and synthetic scores.

A dataset is an ordered collection of (id, score, label) rows, optionally
dated and grouped, read from CSV or JSON. It holds its rows as read-only numpy
columns, built from columns by `Dataset` and read as attributes.
`ColumnTable` is that pattern, written once: the base of `Dataset`, the
decisions, the certificate grid, the tradeoff curve and simulate's trials,
each read by its column attributes and, where a caller builds it, built
from columns by its constructor. Every number is read here, a cell by
`_floats` or `_types_in` and a scalar argument by the checks through them;
every other scalar argument, a path, a text or a bool, is checked by its
kind (`_check_kind`, and `_path` for every path, before a file is opened).

A table states its row rules once, as one located list in `_raise_first`'s
form (`_dataset_faults`, with `_id_faults`, the id rules every table shares),
run by its constructor and its readers alike. A reader keeps only
what text alone needs, the field count or key set and a date's parse
message; a cell that does not parse becomes a value its rule rejects (a
number cell parses in float()'s syntax, less the underscores, whitespace and
non-ASCII digits float() lets pass). Each cell rule is one `_cell_fault`.
The error names the first bad row and, within it, the first bad cell: a
number cell quoted by its text (`errors._as_text`), so a file and a column
in code give one error, any other cell by `errors._shown`, each cut past 80
characters. Loading is all-or-nothing; CSV text is read into columns by
`csv_columns`, which the decisions reader shares.

Synthetic scores and labels come from one draw function, `_draw`:
`generate_synthetic` wraps its arrays in a Dataset, and simulate's trials
read them as they are.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date, datetime
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import (
    DatasetIOError,
    DomainError,
    DuplicateIdError,
    MissingDateError,
    SchemaError,
    _as_text,
    _cut,
    _shown,
)
from .jsonio import Table, csv_text, dumps

_BASE_COLUMNS = ("id", "score", "label")
_OPTIONAL_COLUMNS = ("date", "group")


class ColumnTable:
    """Rows held as equal-length, read-only columns.

    The one column pattern, the base of `Dataset`, `calibrate.Decisions`,
    `calibrate.CertificateGrid`, `sim.TradeoffCurve` and `sim.GuaranteeTrials`.
    A table is its columns and nothing else. A table a caller can build has
    one way in: its `__init__` takes its columns and checks them.
    `_unchecked` builds one from columns the package has already checked, of
    their final types; the tradeoff curve and the trials, which the package
    only produces, have no other way in. Every table has one way out: each
    column is a numpy array, marked read-only, read as the attribute
    `_columns` names. `len` reads the first column, and `==` compares the
    columns' values.

    A table that names a `_view`, a frozen dataclass of one row, can also be
    iterated, read-only, one view per row, built on each pass: the
    decisions, the grid and the curve, whose rows the benchmark harness
    (perfbench/child.py) still reads. A view reads its columns as they are,
    the `tolist()` values at its row, abstention's -1 included. `Dataset`
    and the trials cannot be iterated.
    """

    _columns: tuple[str, ...]  # the column attributes, in the field order of `_view` where there is one
    _view: type  # the frozen dataclass viewing one row
    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def _unchecked(cls, *columns):
        return cls.__new__(cls)._set(*columns)

    @classmethod
    def _given(cls, table, name: str):
        """`table` itself when it is one of this class, else a DomainError naming the argument `name`."""
        if not isinstance(table, cls):
            raise DomainError(f"{name} must be a {cls.__name__}, got {type(table).__name__}")
        return table

    def _set(self, *columns):
        for column in columns:
            column.flags.writeable = False
        self.__dict__.update(zip(self._columns, columns))
        return self

    def _values(self) -> list:
        """Each column as a list of plain Python values, in field order."""
        return [getattr(self, name).tolist() for name in self._columns]

    def __len__(self) -> int:
        return len(getattr(self, self._columns[0]))

    def __iter__(self) -> Iterator:
        return map(self._view, *self._values())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} rows>)"


class Dataset(ColumnTable):
    """Ordered rows held as columns.

    The columns are ids (an object array of unique nonempty strings), scores
    (float64 in [0, 1]), labels (int64, 0 or 1), dates (an object array of
    `datetime.date`s) and groups (an object array of strings, "" read as
    None), None where a row has no date or group. `Dataset(ids, scores,
    labels, ...)` checks them together, vectorised, by `_dataset_faults`, and
    they are read-only afterwards. A dataset is read by its columns alone.
    """

    _columns = ("ids", "scores", "labels", "dates", "groups")
    __iter__ = None  # type: ignore[assignment]

    def __init__(self, ids: Sequence[str], scores, labels, dates: Sequence[date | None] | None = None,
                 groups: Sequence[str | None] | None = None) -> None:
        optional = {name: cells for name, cells in (("dates", dates), ("groups", groups)) if cells is not None}
        n = _columns(SchemaError, ids=ids, scores=scores, labels=labels, **optional)
        dates = _object_column([None] * n if dates is None else dates)
        groups = _group_column([None] * n if groups is None else groups)
        columns = _object_column(ids), _floats(scores), _coded(labels, _LABELS, -1, integral=True), dates, groups
        _raise_first(_dataset_faults(*columns, scores, labels), n)
        self._set(*columns)

    def take(self, index) -> "Dataset":
        """Rows at `index` (integer positions or a boolean mask), in that order."""
        return Dataset._unchecked(*(getattr(self, name)[index] for name in self._columns))


def _object_column(values: Sequence) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def _first(mask: np.ndarray) -> int:
    """Index of the first True in `mask`, or its length when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else len(mask)


def _group_column(values: Sequence) -> np.ndarray:
    """Group cells as an object column, "" read as None, as both file formats read it."""
    column = _object_column(values)
    column[column == ""] = None
    return column


def _is_kind(kind: type, types) -> bool:
    """Whether a value of type `kind` is one of `types`; a bool is no number here, a datetime no date."""
    return issubclass(kind, types) and not issubclass(kind, (bool, datetime))


def _types_in(values: Sequence, types) -> np.ndarray:
    """Mask of the values that are instances of `types`, by `_is_kind`."""
    typed = isinstance(values, np.ndarray) and values.dtype != object
    kinds = {values.dtype.type} if typed else set(map(type, values))  # a typed array's cells share one type
    rejected = {kind for kind in kinds if not _is_kind(kind, types)}
    if not rejected:  # the common case, a pass over the values' types alone
        return np.ones(len(values), dtype=bool)
    return np.fromiter((type(value) not in rejected for value in values), bool, len(values))


def _columns(error: type[Exception], length: int | None = None, /, **columns) -> int:
    """The one length of the named columns (`length`, if given), else `error` naming the first value that breaks
    the package's one rule of what holds cells: a column is a list, tuple, range or 1-d array, not text or bytes."""
    first = None
    for name, cells in columns.items():
        column = cells.ndim == 1 if isinstance(cells, np.ndarray) else (
            isinstance(cells, Sequence) and not isinstance(cells, (str, bytes, bytearray, memoryview)))
        if column and length is None:
            length, first = len(cells), name
        if not column or len(cells) != length:
            size = f" of one length with {first} ({length})" if first else "" if length is None else f" of length {length}"
            got = f"{type(cells).__name__} of length {len(cells)}" if column else _shown(cells)
            raise error(f"{name} must be a column (a list, tuple, range or 1-d array){size}, got {got}")
    return length


def _floats(cells: Sequence) -> np.ndarray:
    """Cells as float64: NaN where a cell is not a real number, ±inf where it is past the float range."""
    real = _types_in(cells, numbers.Real)
    if not real.all():
        cells = [cell if ok else math.nan for cell, ok in zip(cells, real)]
    try:
        return np.array(cells, dtype=np.float64)
    except OverflowError:  # an integer or fraction beyond the float range, read as the infinity of its sign
        # (only rationals are compared: a float32 cell would cast float_info.max to float32, and warn)
        return np.array([cell if not isinstance(cell, numbers.Rational) or abs(cell) <= sys.float_info.max
                         else math.inf if cell > 0 else -math.inf for cell in cells], dtype=np.float64)


def _counts(cells: Sequence) -> np.ndarray:
    """Cells as int64: -1 where a cell is not an integer (a bool is none) within [0, 2**63)."""
    column = _object_column(cells)
    column[~_types_in(cells, numbers.Integral)] = -1
    column[(column < 0) | (column >= 2**63)] = -1
    return column.astype(np.int64)


def check_real(name: str, value, low: float, high: float, closed: bool = False) -> float:
    """`value` as a float, if it reads as a number cell (`_floats`) within the interval.

    The interval runs from low to high, open unless `closed`; anything else
    raises a DomainError naming `name`.
    """
    number = float(_floats([value])[0])
    if number != number:
        raise DomainError(f"{name} must be a number, got {_shown(value)}")
    if not (low <= number <= high if closed else low < number < high):
        ends = "[]" if closed else "()"
        raise DomainError(f"{name} must be within {ends[0]}{low}, {high}{ends[1]}, got {_shown(value)}")
    return number


def check_int(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """`value` as an int, if it is an integer cell (`_is_kind`) from minimum up to any maximum."""
    if not _is_kind(type(value), numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" + ("" if maximum is None else f" and <= {maximum}")
        raise DomainError(f"{name} must be an integer {bound}, got {_shown(value)}")
    return int(value)


def _check_kind(name: str, value, kinds, rule: str, choices: tuple | None = None):
    """`value` if it is an instance of `kinds` and, where `choices` are given, one of them; else a
    DomainError "{name} must be {rule}, got <value>" naming the argument. Membership is tested only on a
    value of the right kind, so an array or any other value with its own `==` cannot pass as a choice."""
    if not isinstance(value, kinds) or (choices is not None and value not in choices):
        raise DomainError(f"{name} must be {rule}, got {_shown(value)}")
    return value


def _path(path):
    """A path argument, if it is a str or an os.PathLike of a str; checked before anything is opened, as
    `open` would take an int (a bool too) as a file descriptor and read, write or close it."""
    _check_kind("path", os.fspath(path) if isinstance(path, os.PathLike) else path, str, "a str or an os.PathLike")
    return path


def check_beta(beta) -> float:
    """`beta` as a float, if it is within (0, 1) and 1 - beta is a float below 1.

    At beta <= 2**-54, 1.0 - beta rounds to 1.0: the solver has no start at
    such a level, and its absolute tolerance says nothing about the root.
    Every entry point that reads a beta checks it here.
    """
    number = check_real("beta", beta, 0, 1)
    if 1.0 - number == 1.0:
        raise DomainError(f"beta must be within (0, 1) with 1 - beta below 1 as a float, got {_shown(number)}")
    return number


def _coded(cells: Sequence, codes: dict, missing: int, integral: bool = False) -> np.ndarray:
    """Cells as int64 through `codes`: `missing` where a cell has no code or, if `integral`, is no integer."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "biuf":
        # a number finds the one key it equals, so a typed array adds up its numeric keys' codes
        column = np.full(len(cells), missing, dtype=np.int64)
        for key in filter(lambda key: isinstance(key, numbers.Number), codes):
            column += (cells == key) * (codes[key] - missing)
    else:
        try:
            column = np.fromiter(map(codes.get, cells, repeat(missing)), np.int64, len(cells))
        except TypeError:  # an unhashable cell (a list, or a tuple holding one) has no code
            column = np.fromiter(map(_code, repeat(codes), cells, repeat(missing)), np.int64, len(cells))
    if integral:  # 1.0 and True found the code of 1
        column[~_types_in(cells, numbers.Integral)] = missing
    return column


def _code(codes: dict, cell, missing: int) -> int:
    """`cell`'s code, or `missing` where it has none or cannot be hashed."""
    try:
        return codes.get(cell, missing)
    except TypeError:
        return missing


def _unencodable(cells: Sequence) -> np.ndarray:
    """Mask of the string cells UTF-8 cannot encode (they hold a lone surrogate)."""
    try:
        "".join(filter(None, cells)).encode()  # the common case: all the text at once
        return np.zeros(len(cells), dtype=bool)
    except (TypeError, UnicodeEncodeError):  # a cell that is not a string is left to its own rule
        return np.fromiter((isinstance(cell, str) and cell.encode(errors="replace").decode() != cell
                            for cell in cells), bool, len(cells))


def _id_faults(ids: Sequence) -> list:
    """The id rules of every table, in `_raise_first`'s form: each a nonempty UTF-8 string, none repeated."""
    empty = ~_types_in(ids, str) | (_object_column(ids) == "")
    bad, seen = _first(empty), set()
    repeated = bad if len(set(ids[:bad])) == bad else next(
        i for i, rec_id in enumerate(ids[:bad]) if rec_id in seen or seen.add(rec_id))
    return [
        _cell_fault(empty, "id", "a nonempty string", ids),
        _cell_fault(_unencodable(ids), "id", "encodable as UTF-8", ids),
        (repeated, lambda i: DuplicateIdError(f"duplicate record id {_shown(ids[i])} at row {i + 1}")),
    ]


def _dataset_faults(ids, scores, labels, dates, groups, score_cells, label_cells, date_parse=None) -> list:
    """The dataset row rules, in `_raise_first`'s form and cell order.

    scores is NaN, and labels -1, where a cell is not a number or integer;
    the messages quote the `*_cells` as the caller wrote them. A reader's
    date parse fault, `date_parse`, goes before the date rule.
    """
    return [
        *_id_faults(ids),
        _cell_fault(~((scores >= 0.0) & (scores <= 1.0)), "score", "a number within [0, 1]", score_cells, _as_text),
        _cell_fault((labels != 0) & (labels != 1), "label", "0 or 1", label_cells, _as_text),
        *filter(None, [date_parse]),
        _cell_fault(~_types_in(dates, (date, type(None))), "date", "a datetime.date or None", dates),
        _cell_fault(~_types_in(groups, (str, type(None))), "group", "a string or None", groups),
        _cell_fault(_unencodable(groups), "group", "encodable as UTF-8", groups),
    ]


@dataclass(frozen=True)
class SyntheticScorerSpec:
    """Parameters of the synthetic binary scorer.

    Labels are i.i.d. Bernoulli(prevalence); scores are Beta(pos_shape) for
    positives and Beta(neg_shape) for negatives. Output is a pure function of
    this spec, including the seed.
    """

    n: int
    prevalence: float
    pos_shape: tuple[float, float]
    neg_shape: tuple[float, float]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        object.__setattr__(self, "prevalence", check_real("prevalence", self.prevalence, 0, 1))
        _columns(DomainError, 2, pos_shape=self.pos_shape, neg_shape=self.neg_shape)
        for name in ("pos_shape", "neg_shape"):
            object.__setattr__(self, name, tuple(check_real(f"{name}[{i}]", v, 0, math.inf)
                                                 for i, v in enumerate(getattr(self, name))))
        object.__setattr__(self, "seed", check_int("seed", self.seed, float("-inf")))


def _infer_format(path: str | Path, fmt: str | None) -> str:
    suffix = Path(_path(path)).suffix.lower()
    if fmt is None and suffix not in (".csv", ".json"):
        raise DomainError(f"cannot infer format of {_shown(str(path))}; pass fmt='csv' or 'json'")
    return _check_kind("fmt", fmt, (str, type(None)), "'csv' or 'json'", ("csv", "json", None)) or suffix[1:]


def _to_date(text: str, date_format: str | None) -> date:
    if date_format is None:
        return date.fromisoformat(text)
    return datetime.strptime(text, date_format).date()


def _parse_cells(parse, cells: Sequence, bad) -> tuple[list, int, ValueError | None]:
    """parse(cell) for each cell, `bad` where it raises ValueError; and the first error's index and error."""
    try:
        return list(map(parse, cells)), len(cells), None
    except ValueError:
        pass
    parsed, first, error = [], len(cells), None
    for i, cell in enumerate(cells):
        try:
            parsed.append(parse(cell))
        except ValueError as exc:
            parsed.append(bad)
            if error is None:
                first, error = i, exc
    return parsed, first, error


def _lax_number(text: str) -> bool:
    """Whether number text holds what float() reads past: an underscore, whitespace or a non-ASCII character."""
    return "_" in text or not text.isascii() or "".join(text.split()) != text


def _float_cells(cells: Sequence[str]) -> np.ndarray:
    """CSV number cells as float64: NaN where a cell is not in float()'s syntax, or is `_lax_number`."""
    if _lax_number("".join(cells)):  # the rare case: such cells are read as "nan"
        cells = ["nan" if _lax_number(cell) else cell for cell in cells]
    return np.array(_parse_cells(float, cells, math.nan)[0], dtype=np.float64)


def _parsed_dates(cells: Sequence | None, parse, n: int) -> tuple[np.ndarray, tuple | None]:
    """A reader's n date cells (None if it has none) as an object column, and their parse fault."""
    if cells is None:
        return np.empty(n, dtype=object), None  # a new object array holds None everywhere
    dates, first, error = _parse_cells(parse, cells, None)
    return _object_column(dates), (first, lambda i: SchemaError(
        f"bad date {_shown(cells[i])}: {_cut(str(error))}", row=i + 1, column="date"))


def _raise_first(checks: list[tuple[int, Callable[[int], Exception]]], n_rows: int) -> None:
    """Raise the error of the earliest bad row, from the first listed check failing there.

    Each check, listed in cell order, pairs the 0-based index of the first row
    it fails (any index >= n_rows when none does) with a function wording the
    error for that index. A check run only on the rows before some earlier
    listed check's first failure reports that failure's index when it passes.
    """
    first = min((index for index, _ in checks), default=n_rows)
    if first < n_rows:
        raise next(error for index, error in checks if index == first)(first)


def _cell_fault(bad, column: str, rule: str, cells: Sequence, quote: Callable[[object], str] = _shown):
    """`_value_fault` for a table's cells, quoted by `quote`: a SchemaError located at row i + 1 and `column`."""
    return _first(bad), lambda i: SchemaError(f"{column} must be {rule}, got {quote(cells[i])}", row=i + 1,
                                              column=column)


def _value_fault(bad, where: str, rule: str, cells: Sequence, error: type[Exception] = DomainError):
    """The first index where `bad` and its error, "{where} must be {rule}, got <that cell>", for `_raise_first`."""
    return _first(bad), lambda i: error(f"{where.format(i)} must be {rule}, got {_shown(cells[i])}")


def read_text(path: str | Path) -> str:
    """A file's text: UTF-8, with or without a byte-order mark, line ends untouched."""
    try:
        with open(_path(path), encoding="utf-8-sig", newline="") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetIOError(f"cannot read {path}: {exc}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8, line ends untouched; failure is a DatasetIOError."""
    path, text = _path(path), _check_kind("text", text, str, "a str")
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise DatasetIOError(f"cannot write {path}: {exc}") from exc


class CsvColumns(NamedTuple):
    """CSV text as columns, read up to its first ragged row.

    header is the first record's fields, or None when the text holds no
    record. columns holds one list per header field, its cells in data rows
    1 to n. width is the field count of data row n + 1, the first whose count
    differs from the header's (a blank row has none), or None when every data
    row matches.
    """

    header: list[str] | None
    columns: list[list[str]]
    n: int
    width: int | None


def csv_columns(text: str) -> CsvColumns:
    """The header and data columns of CSV text; a quoted field may hold line breaks.

    Text with no '"', "\\r" or NUL, no blank or ragged row and no line longer
    than `csv.field_size_limit()` is split on "\\n" and "," straight into
    columns; any other text is read by csv.reader. Either way the columns are
    those of csv.reader's rows. Malformed CSV raises SchemaError naming the
    header or the 1-based data row.
    """
    lines = _plain_lines(_check_kind("text", text, str, "a str"))
    if lines is not None:
        header = lines[0].split(",")
        cells = ",".join(lines[1:]).split(",") if len(lines) > 1 else []
        return CsvColumns(header, [cells[j::len(header)] for j in range(len(header))],
                          len(lines) - 1, None)
    rows: list[list[str]] = []
    try:
        # extend keeps the rows read before the error, so len(rows) locates it
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        if not rows:
            raise SchemaError(f"malformed CSV header: {exc}") from None
        raise SchemaError(f"malformed CSV: {exc}", row=len(rows)) from None
    if not rows:
        return CsvColumns(None, [], 0, None)
    header, body = rows[0], rows[1:]
    n = _first(np.fromiter(map(len, body), np.intp, len(body)) != len(header))
    columns = list(map(list, zip(*body[:n]))) if n else [[] for _ in header]
    return CsvColumns(header, columns, n, len(body[n]) if n < len(body) else None)


def _plain_lines(text: str) -> list[str] | None:
    """The lines of text that csv.reader would split on "\\n" and "," alone, or None.

    That is text with no quote, carriage return or NUL, whose lines all hold
    the header's number of commas, none blank and none longer than the field
    size limit.
    """
    if not text or '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":  # the text ends with a line break
        lines.pop()
    if ("" in lines or set(map(str.count, lines, repeat(","))) != {lines[0].count(",")}
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    return lines


def load_dataset(
    path: str | Path,
    fmt: str | None = None,
    date_format: str | None = None,
) -> Dataset:
    """Load a dataset from CSV or JSON, rejecting the whole file on any bad row.

    CSV needs the exact header id,score,label with optional trailing date
    and/or group columns; quoted fields may hold commas, quotes and line
    breaks. JSON is an array of objects sharing one key set. Either may start
    with a UTF-8 byte-order mark. `date_format` is a strptime pattern;
    default is ISO-8601. Columns are checked once, vectorised; the error names
    the first bad row and, within it, the first bad cell.
    """
    fmt = _infer_format(path, fmt)
    _check_kind("date_format", date_format, (str, type(None)), "None or a str")
    text = read_text(path)
    read = _columns_from_csv if fmt == "csv" else _columns_from_json
    return Dataset._unchecked(*read(text, date_format))


_LABELS = {0: 0, 1: 1, "0": 0, "1": 1}  # a label from an integer, or from CSV text


def _columns_from_csv(text: str, date_format: str | None) -> tuple:
    header, columns, n, width = csv_columns(text)
    if header is None:
        raise SchemaError("empty file: missing header")
    optional = ([], ["date"], ["group"], ["date", "group"])
    if header[:3] != list(_BASE_COLUMNS) or header[3:] not in optional:
        raise SchemaError(
            "header must be id,score,label with optional date and/or group columns, "
            f"got {_shown(','.join(header))}"
        )
    # every check runs on the rows before the first ragged one
    cells = dict(zip(header, columns))
    score_text, label_text = cells["score"], cells["label"]
    dates, date_parse = _parsed_dates(cells.get("date"), lambda t: None if t == "" else _to_date(t, date_format), n)
    columns = (_object_column(cells["id"]),
               _float_cells(score_text),
               _coded(label_text, _LABELS, -1),
               dates, _group_column(cells.get("group", (None,) * n)))
    _raise_first([
        (n, lambda i: SchemaError(f"expected {len(header)} fields, got {width}", row=i + 1)),
        *_dataset_faults(*columns, score_text, label_text, date_parse),
    ], n + (width is not None))
    return columns


def _columns_from_json(text: str, date_format: str | None) -> tuple:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise SchemaError("top level must be an array of record objects")
    # every check runs on the leading objects that share the first one's valid key set
    key_sets = list(map(frozenset, data[:_first(~_types_in(data, dict))]))
    key_set = key_sets[0] if key_sets else frozenset()
    n = 0
    if set(_BASE_COLUMNS) <= key_set <= set(_BASE_COLUMNS + _OPTIONAL_COLUMNS):
        n = _first(np.fromiter(map(key_set.__ne__, key_sets), bool, len(key_sets)))
    cells = {name: list(map(itemgetter(name), data[:n])) for name in key_set} if n else {}
    raw_scores, raw_labels = cells.get("score", []), cells.get("label", [])
    # a date that is not a string is left for the date rule to reject
    dates, date_parse = _parsed_dates(cells.get("date"),
                                      lambda t: _to_date(t, date_format) if isinstance(t, str) else t, n)
    columns = (_object_column(cells.get("id", [])), _floats(raw_scores), _coded(raw_labels, _LABELS, -1, integral=True),
               dates, _group_column(cells.get("group", [None] * n)))
    _raise_first([
        (n, lambda i: _key_error(data[i], key_set, i + 1)),
        *_dataset_faults(*columns, raw_scores, raw_labels, date_parse),
    ], len(data))
    return columns


def _key_error(obj, key_set: frozenset, row: int) -> SchemaError:
    """The error for JSON record `row` (1-based) whose keys break the schema.

    key_set is the first record's key set, which every record must share.
    """
    if not isinstance(obj, dict):
        return SchemaError("record must be an object", row=row)
    keys = set(obj)
    if not keys >= set(_BASE_COLUMNS):
        return SchemaError(f"missing required key(s) {sorted(set(_BASE_COLUMNS) - keys)}", row=row)
    extra = keys - set(_BASE_COLUMNS) - set(_OPTIONAL_COLUMNS)
    if extra:
        return SchemaError(f"unknown key(s) {sorted(extra)}", row=row)
    return SchemaError(f"records must share one key set; expected {sorted(key_set)}", row=row)


def write_dataset(data: Dataset, path: str | Path, fmt: str | None = None) -> None:
    """Write a dataset so that loading it back reproduces every record exactly.

    Scores are written in shortest exact form (repr), dates in ISO-8601.
    Optional columns appear only when some record carries them.
    """
    data = Dataset._given(data, "data")
    fmt = _infer_format(path, fmt)
    columns = {"id": data.ids, "score": data.scores, "label": data.labels}
    if np.not_equal(data.dates, None).any():
        columns["date"] = [None if d is None else d.isoformat() for d in data.dates.tolist()]
    if np.not_equal(data.groups, None).any():
        columns["group"] = data.groups.tolist()
    write_text(path, (csv_text if fmt == "csv" else dumps)(Table(columns, exact=["score"])))


def temporal_split(data: Dataset, split_date: date) -> tuple[Dataset, Dataset]:
    """Split by record date: strictly before `split_date` is train, the rest test."""
    data = Dataset._given(data, "data")
    cell = [split_date]  # read as a dataset reads a date cell
    _raise_first([_value_fault(~_types_in(cell, date), "split_date", "a datetime.date", cell)], 1)
    undated = np.equal(data.dates, None)
    if undated.any():
        raise MissingDateError(data.ids[undated].tolist())
    before = data.dates < split_date
    return data.take(before), data.take(~before)


def generate_synthetic(spec: SyntheticScorerSpec) -> Dataset:
    """Draw a synthetic dataset, ids syn-0, syn-1, ...; a pure function of the spec and its seed.

    The ids' memory (per record, the longest id's string and a slot in the id
    list and in each of three object columns) is allocated and freed before
    anything is drawn, so an n whose ids memory cannot hold is a DomainError.
    """
    _allocated("n", spec.n, (spec.n, sys.getsizeof(f"syn-{spec.n - 1}") + 4 * np.dtype(object).itemsize), np.uint8)
    scores, labels = _draw(spec, spec.n, spec.seed)
    ids = _object_column([f"syn-{i}" for i in range(spec.n)])
    undated, ungrouped = np.empty(spec.n, dtype=object), np.empty(spec.n, dtype=object)
    return Dataset._unchecked(ids, scores, labels, undated, ungrouped)


def _draw(spec: SyntheticScorerSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels of n records from spec's scorer, drawn from `seed`.

    spec's own n and seed are not read. This is the one place that fixes the
    order of the random draws, so `generate_synthetic` and simulate's trials,
    which skip building a Dataset, draw the same records from one seed. The
    scores are allocated before anything is drawn, so an n that memory
    cannot hold is a DomainError at once.
    """
    scores = _allocated("n", n, n)
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    labels = (rng.random(n) < spec.prevalence).astype(np.int64)
    n_pos = int(labels.sum())
    scores[labels == 1] = rng.beta(spec.pos_shape[0], spec.pos_shape[1], n_pos)
    scores[labels == 0] = rng.beta(spec.neg_shape[0], spec.neg_shape[1], n - n_pos)
    return scores, labels


def _allocated(name: str, value: int, shape, dtype: type = float) -> np.ndarray:
    """`np.empty(shape, dtype)` for the argument `name`, whose value is `value`.

    Where memory cannot hold the array (a MemoryError, or numpy's ValueError
    past the address space) it is a DomainError naming the argument, so a
    size too large fails at once, before any work is done for it.
    """
    try:
        return np.empty(shape, dtype)
    except (MemoryError, ValueError):
        raise DomainError(f"{name}={value} is too large: its arrays do not fit in memory") from None
