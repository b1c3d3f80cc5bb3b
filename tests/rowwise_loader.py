"""A record-by-record dataset loader, kept as a reference for `load_dataset`.

This is the package's original loader loop: it checks each row cell by cell
and stops at the first bad one. It reads files with the package's
`read_text` (UTF-8 with an optional byte-order mark) and splits CSV with
csv.reader itself, in `csv_rows`, so it shares no CSV code with the package.
The vectorised loader must raise the same error class, message, row and
column, and load the same records.

A message quotes a cell by reprlib's rule at 80 characters: a longer repr
keeps its first 38 and last 39 characters around "...". It cuts the
parser's error the same way.
"""

import csv
import io
import json
import re
import reprlib
from datetime import date, datetime
from pathlib import Path

from selcert import Dataset, DuplicateIdError, SchemaError
from selcert.records import read_text

BASE_COLUMNS = ("id", "score", "label")
OPTIONAL_COLUMNS = ("date", "group")

_QUOTE = reprlib.Repr()
_QUOTE.maxstring = 80


def _cut(text):
    return text if len(text) <= 80 else text[:38] + "..." + text[-39:]


def csv_rows(text):
    """csv.reader's rows of the text; malformed CSV names the header or the 1-based data row."""
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return rows
        except csv.Error as exc:
            if not rows:
                raise SchemaError(f"malformed CSV header: {exc}") from None
            raise SchemaError(f"malformed CSV: {exc}", row=len(rows)) from None
        rows.append(row)


def load_dataset_rowwise(path, date_format=None) -> Dataset:
    text = read_text(path)
    if Path(path).suffix == ".csv":
        records = _records_from_csv(text, date_format)
    else:
        records = _records_from_json(text, date_format)
    columns = [list(column) for column in zip(*records)] or [[] for _ in range(5)]
    return Dataset(*columns, provenance=str(path))


def _parse_date(text, date_format, row):
    try:
        if date_format is None:
            return date.fromisoformat(text)
        return datetime.strptime(text, date_format).date()
    except ValueError as exc:
        raise SchemaError(f"bad date {_QUOTE.repr(text)}: {_cut(str(exc))}", row=row, column="date") from None


def _score_error(value, row):
    return SchemaError(f"score must be a number within [0, 1], got '{value}'", row=row, column="score")


def parse_number(text):
    """A number cell as float, in float()'s syntax written with ASCII letters, digits, signs and
    points alone: no underscore, no surrounding space."""
    if not re.fullmatch("[0-9A-Za-z.+-]*", text):
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def _parse_score(value, row):
    try:
        score = parse_number(value)
    except ValueError:
        raise _score_error(value, row) from None
    if not (0.0 <= score <= 1.0):
        raise _score_error(value, row)
    return score


def _parse_label(value, row):
    if value not in ("0", "1"):
        raise SchemaError(f"label must be 0 or 1, got '{value}'", row=row, column="label")
    return int(value)


def _records_from_csv(text, date_format):
    rows = csv_rows(text)
    if not rows:
        raise SchemaError("empty file: missing header")
    header = rows[0]
    allowed = [
        list(BASE_COLUMNS),
        list(BASE_COLUMNS) + ["date"],
        list(BASE_COLUMNS) + ["group"],
        list(BASE_COLUMNS) + ["date", "group"],
    ]
    if header not in allowed:
        raise SchemaError(
            "header must be id,score,label with optional date and/or group columns, "
            f"got {','.join(header)!r}"
        )
    records = []
    seen = set()
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise SchemaError(f"expected {len(header)} fields, got {len(row)}", row=i, column=None)
        cell = dict(zip(header, row))
        rec_id = cell["id"]
        if not rec_id:
            raise SchemaError("id must be a nonempty string, got ''", row=i, column="id")
        if rec_id in seen:
            raise DuplicateIdError(f"duplicate record id {_QUOTE.repr(rec_id)} at row {i}")
        seen.add(rec_id)
        score = _parse_score(cell["score"], i)
        label = _parse_label(cell["label"], i)
        rec_date = None
        if "date" in cell and cell["date"] != "":
            rec_date = _parse_date(cell["date"], date_format, i)
        group = cell.get("group") or None
        records.append((rec_id, score, label, rec_date, group))
    return records


def _records_from_json(text, date_format):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise SchemaError("top level must be an array of record objects")
    records = []
    seen = set()
    key_set = None
    for i, obj in enumerate(data, start=1):
        if not isinstance(obj, dict):
            raise SchemaError("record must be an object", row=i)
        keys = set(obj)
        if not keys >= set(BASE_COLUMNS):
            missing = sorted(set(BASE_COLUMNS) - keys)
            raise SchemaError(f"missing required key(s) {missing}", row=i)
        extra = keys - set(BASE_COLUMNS) - set(OPTIONAL_COLUMNS)
        if extra:
            raise SchemaError(f"unknown key(s) {sorted(extra)}", row=i)
        if key_set is None:
            key_set = keys
        elif keys != key_set:
            raise SchemaError(f"records must share one key set; expected {sorted(key_set)}", row=i)
        rec_id = obj["id"]
        if not isinstance(rec_id, str) or not rec_id:
            raise SchemaError(f"id must be a nonempty string, got {rec_id!r}", row=i, column="id")
        if rec_id in seen:
            raise DuplicateIdError(f"duplicate record id {_QUOTE.repr(rec_id)} at row {i}")
        seen.add(rec_id)
        score = obj["score"]
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise _score_error(score, i)
        if not (0.0 <= float(score) <= 1.0):
            raise _score_error(score, i)
        label = obj["label"]
        if isinstance(label, bool) or not isinstance(label, int) or label not in (0, 1):
            raise SchemaError(f"label must be 0 or 1, got '{label}'", row=i, column="label")
        rec_date = None
        raw_date = obj.get("date")
        if raw_date is not None:
            if not isinstance(raw_date, str):
                raise SchemaError(f"date must be a datetime.date or None, got {raw_date!r}",
                                  row=i, column="date")
            rec_date = _parse_date(raw_date, date_format, i)
        group = obj.get("group")
        if group is not None and not isinstance(group, str):
            raise SchemaError(f"group must be a string or None, got {group!r}", row=i, column="group")
        records.append((rec_id, float(score), label, rec_date, group or None))
    return records
