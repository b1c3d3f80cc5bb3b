"""Prediction records, dataset files, temporal splits and synthetic scores.

A dataset is an ordered collection of (id, score, label) rows, optionally
dated and grouped, read from CSV or JSON. It holds its rows as numpy columns,
built with `Dataset.from_columns` or from `PredictionRecord`s, and hands out
records only as views. Loading is all-or-nothing: one bad row rejects the
whole file with an error naming the first bad row and column.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import date, datetime
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import (
    DatasetIOError,
    DomainError,
    DuplicateIdError,
    MissingDateError,
    SchemaError,
)

_BASE_COLUMNS = ("id", "score", "label")
_OPTIONAL_COLUMNS = ("date", "group")


@dataclass(frozen=True)
class PredictionRecord:
    """One scored example: classifier score for class 1 plus the true label."""

    id: str
    score: float
    label: int
    date: date | None = None
    group: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise SchemaError(f"record id must be a nonempty string, got {self.id!r}")
        if isinstance(self.score, bool) or not isinstance(self.score, (int, float)):
            raise SchemaError(f"score must be a number, got {self.score!r}")
        object.__setattr__(self, "score", float(self.score))
        if not (0.0 <= self.score <= 1.0):
            raise SchemaError(f"score must be within [0, 1], got {self.score!r}")
        if isinstance(self.label, bool) or not isinstance(self.label, int):
            raise SchemaError(f"label must be an integer, got {self.label!r}")
        if self.label not in (0, 1):
            raise SchemaError(f"label must be 0 or 1, got {self.label!r}")


class Dataset:
    """Ordered rows held as columns, plus a provenance note.

    The columns are ids (unique nonempty strings), scores (floats in [0, 1]),
    labels (0 or 1) and optional dates and groups (None where a row has
    none). They are validated together, vectorised, when the dataset is built
    and are read-only afterwards. `records`, iteration and `by_id()` give
    PredictionRecord views, built on first use.
    """

    def __init__(self, records: Iterable[PredictionRecord] = (), provenance: str = "") -> None:
        records = tuple(records)
        self._set_columns(
            [rec.id for rec in records],
            [rec.score for rec in records],
            [rec.label for rec in records],
            [rec.date for rec in records],
            [rec.group for rec in records],
            provenance,
        )
        self._records: tuple[PredictionRecord, ...] | None = records

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[str],
        scores,
        labels,
        dates: Sequence[date | None] | None = None,
        groups: Sequence[str | None] | None = None,
        provenance: str = "",
    ) -> "Dataset":
        """Build a dataset from equal-length columns, validated in one pass."""
        data = cls.__new__(cls)
        data._set_columns(ids, scores, labels, dates, groups, provenance)
        data._records = None
        return data

    def _set_columns(self, ids, scores, labels, dates, groups, provenance: str) -> None:
        ids = _object_column(ids)
        n = len(ids)
        scores, labels = np.asarray(scores), np.asarray(labels)
        # a new object array holds None everywhere
        dates = np.empty(n, dtype=object) if dates is None else _object_column(dates)
        groups = np.empty(n, dtype=object) if groups is None else _object_column(groups)
        if any(len(column) != n for column in (scores, labels, dates, groups)):
            raise SchemaError("columns must all have one length")
        if n and (scores.dtype.kind not in "fiu" or labels.dtype.kind not in "iu"):
            raise SchemaError("scores must be numbers and labels integers")
        scores = scores.astype(np.float64)
        labels = labels.astype(np.int64)
        id_list = ids.tolist()
        bad = min(
            _first(~np.fromiter(map(isinstance, id_list, repeat(str)), bool, n)),
            _first(ids == ""),
        )
        if bad < n:
            raise SchemaError(f"record id must be a nonempty string, got {id_list[bad]!r}", row=bad + 1)
        if len(set(id_list)) != n:
            raise DuplicateIdError(f"duplicate record id {id_list[_first_duplicate(id_list)]!r}")
        bad = _first(~((scores >= 0.0) & (scores <= 1.0)))
        if bad < n:
            raise SchemaError(f"score must be within [0, 1], got {scores[bad].item()!r}", row=bad + 1)
        bad = _first((labels != 0) & (labels != 1))
        if bad < n:
            raise SchemaError(f"label must be 0 or 1, got {labels[bad].item()!r}", row=bad + 1)
        for column in (ids, scores, labels, dates, groups):
            column.flags.writeable = False
        self._ids, self._scores, self._labels = ids, scores, labels
        self._dates, self._groups = dates, groups
        self.provenance = provenance

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[PredictionRecord]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.provenance == other.provenance and self.records == other.records

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Dataset(<{len(self)} rows>, provenance={self.provenance!r})"

    @property
    def records(self) -> tuple[PredictionRecord, ...]:
        if self._records is None:
            self._records = tuple(map(
                PredictionRecord, self._ids.tolist(), self._scores.tolist(),
                self._labels.tolist(), self._dates.tolist(), self._groups.tolist(),
            ))
        return self._records

    def ids(self) -> list[str]:
        return self._ids.tolist()

    def scores(self) -> np.ndarray:
        return self._scores

    def labels(self) -> np.ndarray:
        return self._labels

    def dates(self) -> np.ndarray:
        """Object array of dates, None where a row is undated."""
        return self._dates

    def groups(self) -> np.ndarray:
        """Object array of group names, None where a row is ungrouped."""
        return self._groups

    def by_id(self) -> dict[str, PredictionRecord]:
        return dict(zip(self.ids(), self.records))

    def take(self, index, provenance: str) -> "Dataset":
        """Rows at `index` (integer positions or a boolean mask), in that order."""
        return Dataset.from_columns(
            self._ids[index], self._scores[index], self._labels[index],
            self._dates[index], self._groups[index], provenance,
        )


def _object_column(values: Sequence) -> np.ndarray:
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def _first(mask: np.ndarray) -> int:
    """Index of the first True in `mask`, or its length when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else len(mask)


def _first_duplicate(values: Sequence) -> int:
    """Index of the first value seen earlier in `values`, or its length."""
    if len(set(values)) == len(values):
        return len(values)
    seen: set = set()
    for i, value in enumerate(values):
        if value in seen:
            return i
        seen.add(value)
    return len(values)


@dataclass(frozen=True)
class SplitSpec:
    """Date boundary for a temporal split: train strictly before, test on or after."""

    split_date: date


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
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 < self.prevalence < 1.0):
            raise DomainError(f"prevalence must be in (0, 1), got {self.prevalence!r}")
        for name in ("pos_shape", "neg_shape"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in pair
            ):
                raise DomainError(f"{name} must be a pair of positive numbers, got {pair!r}")
            object.__setattr__(self, name, (float(pair[0]), float(pair[1])))
        if not isinstance(self.seed, int):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")


def _infer_format(path: str | Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise DomainError(f"format must be 'csv' or 'json', got {fmt!r}")
        return fmt
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".json":
        return "json"
    raise DomainError(f"cannot infer format of {path!r}; pass format='csv' or 'json'")


def _to_date(text: str, date_format: str | None) -> date:
    if date_format is None:
        return date.fromisoformat(text)
    return datetime.strptime(text, date_format).date()


def _parse_date(text: str, date_format: str | None, row: int) -> date:
    try:
        return _to_date(text, date_format)
    except ValueError as exc:
        raise SchemaError(f"bad date {text!r}: {exc}", row=row, column="date") from None


def _parse_score(value: str, row: int) -> float:
    try:
        score = float(value)
    except ValueError:
        raise SchemaError(f"score is not a number: {value!r}", row=row, column="score") from None
    if not (0.0 <= score <= 1.0):
        raise SchemaError(f"score out of range [0, 1]: {value!r}", row=row, column="score")
    return score


def _parse_label(value: str, row: int) -> int:
    if value not in ("0", "1"):
        raise SchemaError(f"label must be 0 or 1: {value!r}", row=row, column="label")
    return int(value)


def _parse_prefix(parse, cells: Sequence) -> list:
    """parse(cell) for each cell, up to (not including) the first that raises ValueError."""
    try:
        return list(map(parse, cells))
    except ValueError:
        pass
    parsed = []
    for cell in cells:
        try:
            parsed.append(parse(cell))
        except ValueError:
            break
    return parsed


def _types_in(values: Sequence, types: set) -> np.ndarray:
    """Mask of the values whose exact type is one of `types`."""
    return np.fromiter(map(types.__contains__, map(type, values)), bool, len(values))


def read_text(path: str | Path) -> str:
    """A file's text: UTF-8, with or without a byte-order mark, line ends untouched."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise DatasetIOError(f"cannot read {path}: {exc}") from exc


def csv_rows(text: str) -> list[list[str]]:
    """The records of CSV text; a quoted field may hold line breaks."""
    return list(csv.reader(io.StringIO(text, newline="")))


def write_csv_rows(handle: TextIO, header: list[str], columns: Sequence[Sequence[str]]) -> None:
    """Write a header and the rows of `columns` as CSV with "\\n" line ends.

    csv.writer quotes a field holding "\\n" but not one holding "\\r" when the
    line end is "\\n", so rows with a "\\r" are written fully quoted.
    """
    plain = csv.writer(handle, lineterminator="\n")
    quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(header)
    for row in zip(*columns):
        (quoted if "\r" in "".join(row) else plain).writerow(row)


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
    default is ISO-8601. Columns are checked vectorised; the error names the
    first bad row and, within it, the first bad cell.
    """
    fmt = _infer_format(path, fmt)
    text = read_text(path)
    if fmt == "csv":
        columns = _columns_from_csv(text, date_format)
    else:
        columns = _columns_from_json(text, date_format)
    return Dataset.from_columns(*columns, provenance=str(path))


_CSV_LABELS = {"0": 0, "1": 1}


def _columns_from_csv(text: str, date_format: str | None) -> tuple:
    rows = csv_rows(text)
    if not rows:
        raise SchemaError("empty file: missing header")
    header, rows = rows[0], rows[1:]
    allowed = [
        list(_BASE_COLUMNS),
        list(_BASE_COLUMNS) + ["date"],
        list(_BASE_COLUMNS) + ["group"],
        list(_BASE_COLUMNS) + ["date", "group"],
    ]
    if header not in allowed:
        raise SchemaError(
            "header must be id,score,label with optional date and/or group columns, "
            f"got {','.join(header)!r}"
        )
    # every check runs on the rows before the first ragged one
    n = _first(np.fromiter(map(len, rows), np.intp, len(rows)) != len(header))
    cells = dict(zip(header, zip(*rows[:n]))) if n else {name: () for name in header}
    ids = cells["id"]
    scores = np.array(_parse_prefix(float, cells["score"]), dtype=np.float64)
    labels = np.fromiter(map(_CSV_LABELS.get, cells["label"], repeat(-1)), np.int64, n)
    dates = [None] * n
    if "date" in cells:
        dates = _parse_prefix(lambda t: None if t == "" else _to_date(t, date_format), cells["date"])
    first_bad = min(
        n,
        _first(_object_column(ids) == ""),
        _first_duplicate(ids),
        len(scores),
        _first(~((scores >= 0.0) & (scores <= 1.0))),
        _first(labels < 0),
        len(dates),
    )
    if first_bad < len(rows):
        _check_csv_row(header, rows[first_bad], first_bad + 1, set(ids[:first_bad]), date_format)
    groups = _object_column(cells.get("group", (None,) * n))
    groups[groups == ""] = None
    return ids, scores, labels, dates, groups


def _check_csv_row(header: list[str], row: list[str], i: int, seen: set, date_format: str | None) -> None:
    """Raise the error for the first bad cell of CSV data row i (1-based)."""
    if len(row) != len(header):
        raise SchemaError(f"expected {len(header)} fields, got {len(row)}", row=i, column=None)
    cell = dict(zip(header, row))
    if not cell["id"]:
        raise SchemaError("id must be nonempty", row=i, column="id")
    if cell["id"] in seen:
        raise DuplicateIdError(f"duplicate record id {cell['id']!r} at row {i}")
    _parse_score(cell["score"], i)
    _parse_label(cell["label"], i)
    if cell.get("date", "") != "":
        _parse_date(cell["date"], date_format, i)


def _columns_from_json(text: str, date_format: str | None) -> tuple:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise SchemaError("top level must be an array of record objects")
    # every check runs on the leading objects that share the first one's valid key set
    key_sets = list(map(frozenset, data[:_first(~_types_in(data, {dict}))]))
    key_set = key_sets[0] if key_sets else frozenset()
    n = 0
    if set(_BASE_COLUMNS) <= key_set <= set(_BASE_COLUMNS + _OPTIONAL_COLUMNS):
        n = _first(np.fromiter(map(key_set.__ne__, key_sets), bool, len(key_sets)))
    column = {name: list(map(itemgetter(name), data[:n])) for name in key_set} if n else {}
    ids = column.get("id", [])
    n_ids = min(_first(~_types_in(ids, {str})), _first(_object_column(ids) == ""))
    raw_scores = column.get("score", [])
    n_numbers = _first(~_types_in(raw_scores, {int, float}))
    scores = np.array(raw_scores[:n_numbers], dtype=np.float64)
    raw_labels = _object_column(column.get("label", []))
    good_labels = _types_in(raw_labels, {int}) & ((raw_labels == 0) | (raw_labels == 1))
    raw_dates = column.get("date", [None] * n)
    n_date_strings = _first(~_types_in(raw_dates, {str, type(None)}))
    dates = _parse_prefix(lambda t: None if t is None else _to_date(t, date_format),
                          raw_dates[:n_date_strings])
    groups = _object_column(column.get("group", [None] * n))
    first_bad = min(
        n,
        n_ids,
        _first_duplicate(ids[:n_ids]),
        n_numbers,
        _first(~((scores >= 0.0) & (scores <= 1.0))),
        _first(~good_labels),
        len(dates),
        _first(~_types_in(groups, {str, type(None)})),
    )
    if first_bad < len(data):
        _check_json_row(data[first_bad], first_bad + 1, key_set, set(ids[:first_bad]), date_format)
    groups[groups == ""] = None
    return ids, scores, raw_labels.astype(np.int64), dates, groups


def _check_json_row(obj, i: int, key_set: frozenset, seen: set, date_format: str | None) -> None:
    """Raise the error for the first bad field of JSON record i (1-based).

    key_set is the first record's key set, which every record must share.
    """
    if not isinstance(obj, dict):
        raise SchemaError("record must be an object", row=i)
    keys = set(obj)
    if not keys >= set(_BASE_COLUMNS):
        missing = sorted(set(_BASE_COLUMNS) - keys)
        raise SchemaError(f"missing required key(s) {missing}", row=i)
    extra = keys - set(_BASE_COLUMNS) - set(_OPTIONAL_COLUMNS)
    if extra:
        raise SchemaError(f"unknown key(s) {sorted(extra)}", row=i)
    if keys != key_set:
        raise SchemaError(f"records must share one key set; expected {sorted(key_set)}", row=i)
    rec_id = obj["id"]
    if not isinstance(rec_id, str) or not rec_id:
        raise SchemaError(f"id must be a nonempty string: {rec_id!r}", row=i, column="id")
    if rec_id in seen:
        raise DuplicateIdError(f"duplicate record id {rec_id!r} at row {i}")
    score = obj["score"]
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise SchemaError(f"score must be a number: {score!r}", row=i, column="score")
    if not (0.0 <= float(score) <= 1.0):
        raise SchemaError(f"score out of range [0, 1]: {score!r}", row=i, column="score")
    label = obj["label"]
    if isinstance(label, bool) or not isinstance(label, int) or label not in (0, 1):
        raise SchemaError(f"label must be 0 or 1: {label!r}", row=i, column="label")
    raw_date = obj.get("date")
    if raw_date is not None:
        if not isinstance(raw_date, str):
            raise SchemaError(f"date must be a string: {raw_date!r}", row=i, column="date")
        _parse_date(raw_date, date_format, i)
    group = obj.get("group")
    if group is not None and not isinstance(group, str):
        raise SchemaError(f"group must be a string: {group!r}", row=i, column="group")


def write_dataset(data: Dataset, path: str | Path, fmt: str | None = None) -> None:
    """Write a dataset so that loading it back reproduces every record exactly.

    Scores are written in shortest exact form (repr), dates in ISO-8601.
    Optional columns appear only when some record carries them.
    """
    fmt = _infer_format(path, fmt)
    values = {"id": data.ids(), "score": data.scores().tolist(), "label": data.labels().tolist()}
    for name, column in (("date", data.dates()), ("group", data.groups())):
        if np.not_equal(column, None).any():
            values[name] = column.tolist()
    try:
        if fmt == "csv":
            _write_csv(values, path)
        else:
            _write_json(values, path)
    except OSError as exc:
        raise DatasetIOError(f"cannot write {path}: {exc}") from exc


def _write_csv(values: dict[str, list], path: str | Path) -> None:
    text = [values["id"], list(map(repr, values["score"])), list(map(str, values["label"]))]
    if "date" in values:
        text.append(["" if d is None else d.isoformat() for d in values["date"]])
    if "group" in values:
        text.append(["" if g is None else g for g in values["group"]])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_csv_rows(handle, list(values), text)


def _write_json(values: dict[str, list], path: str | Path) -> None:
    if "date" in values:
        values["date"] = [None if d is None else d.isoformat() for d in values["date"]]
    objs = [dict(zip(values, row)) for row in zip(*values.values())]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(objs, handle, indent=2)
        handle.write("\n")


def temporal_split(data: Dataset, split: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split by record date: strictly before the boundary is train, the rest test."""
    dates = data.dates()
    undated = np.equal(dates, None)
    if undated.any():
        raise MissingDateError(np.array(data.ids(), dtype=object)[undated].tolist())
    before = dates < split.split_date
    boundary = split.split_date.isoformat()
    return (
        data.take(before, provenance=f"{data.provenance} [before {boundary}]"),
        data.take(~before, provenance=f"{data.provenance} [on or after {boundary}]"),
    )


def generate_synthetic(spec: SyntheticScorerSpec) -> Dataset:
    """Draw a synthetic dataset; a pure function of the spec including its seed."""
    rng = np.random.default_rng(spec.seed & ((1 << 64) - 1))
    labels = (rng.random(spec.n) < spec.prevalence).astype(int)
    scores = np.empty(spec.n, dtype=float)
    n_pos = int(labels.sum())
    scores[labels == 1] = rng.beta(spec.pos_shape[0], spec.pos_shape[1], n_pos)
    scores[labels == 0] = rng.beta(spec.neg_shape[0], spec.neg_shape[1], spec.n - n_pos)
    return Dataset.from_columns(
        _synthetic_ids(spec.n), scores, labels, provenance=f"synthetic(seed={spec.seed})"
    )


@lru_cache(maxsize=4)
def _synthetic_ids(n: int) -> np.ndarray:
    """Ids syn-0 ... syn-{n-1}; cached, since simulate draws the same sizes every trial."""
    ids = _object_column([f"syn-{i}" for i in range(n)])
    ids.flags.writeable = False
    return ids
