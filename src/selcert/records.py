"""Prediction records, dataset files, temporal splits and synthetic scores.

A dataset is an ordered collection of (id, score, label) rows, optionally
dated and grouped, read from CSV or JSON. It holds its rows as numpy columns,
built with `Dataset.from_columns` or from `PredictionRecord`s, and hands out
records only as views. Loading is all-or-nothing: one bad row rejects the
whole file with an error naming the first bad row and column. CSV text is
read straight into columns by `csv_columns`, which the decisions reader
shares.

Synthetic scores and labels come from one draw function, `_draw`:
`generate_synthetic` wraps its arrays in a Dataset, and simulate's trials
read them as they are.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import date, datetime
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DatasetIOError,
    DomainError,
    DuplicateIdError,
    MissingDateError,
    SchemaError,
    check_int,
    check_real,
)
from .jsonio import Table, csv_text, dumps

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
        object.__setattr__(self, "score", check_real("score", self.score, 0, 1, closed=True, error=SchemaError))
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
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        object.__setattr__(self, "prevalence", check_real("prevalence", self.prevalence, 0, 1))
        for name in ("pos_shape", "neg_shape"):
            pair = tuple(getattr(self, name))
            if len(pair) != 2:
                raise DomainError(f"{name} must be a pair of positive numbers, got {pair!r}")
            object.__setattr__(self, name, tuple(check_real(name, v, 0, math.inf) for v in pair))
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


def _parse_prefix(parse, cells: Sequence) -> tuple[list, ValueError | None]:
    """parse(cell) for each cell up to the first that raises ValueError, and that error."""
    try:
        return list(map(parse, cells)), None
    except ValueError:
        pass
    parsed = []
    for cell in cells:
        try:
            parsed.append(parse(cell))
        except ValueError as exc:
            return parsed, exc
    return parsed, None


def _types_in(values: Sequence, types: set) -> np.ndarray:
    """Mask of the values whose exact type is one of `types`."""
    return np.fromiter(map(types.__contains__, map(type, values)), bool, len(values))


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


def _cell_error(values: Sequence, column: str, message: Callable[[object], str]):
    """The located error for a bad `column` cell at 0-based index i: message(values[i])."""
    return lambda i: SchemaError(message(values[i]), row=i + 1, column=column)


def _duplicate_error(ids: Sequence[str]):
    return lambda i: DuplicateIdError(f"duplicate record id {ids[i]!r} at row {i + 1}")


def read_text(path: str | Path) -> str:
    """A file's text: UTF-8, with or without a byte-order mark, line ends untouched."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetIOError(f"cannot read {path}: {exc}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8, line ends untouched; failure is a DatasetIOError."""
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
    lines = _plain_lines(text)
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
    header, columns, n, width = csv_columns(text)
    if header is None:
        raise SchemaError("empty file: missing header")
    optional = ([], ["date"], ["group"], ["date", "group"])
    if header[:3] != list(_BASE_COLUMNS) or header[3:] not in optional:
        raise SchemaError(
            "header must be id,score,label with optional date and/or group columns, "
            f"got {','.join(header)!r}"
        )
    # every check runs on the rows before the first ragged one
    cells = dict(zip(header, columns))
    ids, score_text, label_text = cells["id"], cells["score"], cells["label"]
    scores = np.array(_parse_prefix(float, score_text)[0], dtype=np.float64)
    labels = np.fromiter(map(_CSV_LABELS.get, label_text, repeat(-1)), np.int64, n)
    dates, date_exc = [None] * n, None
    if "date" in cells:
        dates, date_exc = _parse_prefix(lambda t: None if t == "" else _to_date(t, date_format),
                                        cells["date"])
    _raise_first([
        (n, lambda i: SchemaError(f"expected {len(header)} fields, got {width}", row=i + 1)),
        (_first(_object_column(ids) == ""), _cell_error(ids, "id", lambda _: "id must be nonempty")),
        (_first_duplicate(ids), _duplicate_error(ids)),
        (len(scores), _cell_error(score_text, "score", "score is not a number: {!r}".format)),
        (_first(~((scores >= 0.0) & (scores <= 1.0))),
         _cell_error(score_text, "score", "score out of range [0, 1]: {!r}".format)),
        (_first(labels < 0), _cell_error(label_text, "label", "label must be 0 or 1: {!r}".format)),
        (len(dates),
         _cell_error(cells.get("date"), "date", lambda text: f"bad date {text!r}: {date_exc}")),
    ], n + (width is not None))
    groups = _object_column(cells.get("group", (None,) * n))
    groups[groups == ""] = None
    return ids, scores, labels, dates, groups


def _columns_from_json(text: str, date_format: str | None) -> tuple:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit
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
    scores = _json_floats(raw_scores[:n_numbers])
    raw_labels = _object_column(column.get("label", []))
    raw_dates = column.get("date", [None] * n)
    n_date_strings = _first(~_types_in(raw_dates, {str, type(None)}))
    dates, date_exc = _parse_prefix(lambda t: None if t is None else _to_date(t, date_format),
                                    raw_dates[:n_date_strings])
    groups = _object_column(column.get("group", [None] * n))
    _raise_first([
        (n, lambda i: _key_error(data[i], key_set, i + 1)),
        (n_ids, _cell_error(ids, "id", "id must be a nonempty string: {!r}".format)),
        (_first_duplicate(ids[:n_ids]), _duplicate_error(ids)),
        (n_numbers, _cell_error(raw_scores, "score", "score must be a number: {!r}".format)),
        (_first(~((scores >= 0.0) & (scores <= 1.0))),
         _cell_error(raw_scores, "score", "score out of range [0, 1]: {!r}".format)),
        (_first(~(_types_in(raw_labels, {int}) & ((raw_labels == 0) | (raw_labels == 1)))),
         _cell_error(raw_labels, "label", "label must be 0 or 1: {!r}".format)),
        (n_date_strings, _cell_error(raw_dates, "date", "date must be a string: {!r}".format)),
        (len(dates), _cell_error(raw_dates, "date", lambda text: f"bad date {text!r}: {date_exc}")),
        (_first(~_types_in(groups, {str, type(None)})),
         _cell_error(groups, "group", "group must be a string: {!r}".format)),
    ], len(data))
    groups[groups == ""] = None
    return ids, scores, raw_labels.astype(np.int64), dates, groups


def _json_floats(numbers: list) -> np.ndarray:
    """JSON numbers as float64; an integer too large for a float becomes inf, out of range."""
    try:
        return np.array(numbers, dtype=np.float64)
    except OverflowError:
        return np.fromiter(map(_float_or_inf, numbers), np.float64, len(numbers))


def _float_or_inf(number: int | float) -> float:
    try:
        return float(number)
    except OverflowError:
        return np.inf


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
    fmt = _infer_format(path, fmt)
    columns = {"id": data.ids(), "score": data.scores(), "label": data.labels()}
    dates, groups = data.dates(), data.groups()
    if np.not_equal(dates, None).any():
        columns["date"] = [None if d is None else d.isoformat() for d in dates.tolist()]
    if np.not_equal(groups, None).any():
        columns["group"] = groups.tolist()
    write_text(path, (csv_text if fmt == "csv" else dumps)(Table(columns, exact=["score"])))


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
    """Draw a synthetic dataset, ids syn-0, syn-1, ...; a pure function of the spec and its seed."""
    scores, labels = _draw(spec, spec.n, spec.seed)
    return Dataset.from_columns([f"syn-{i}" for i in range(spec.n)], scores, labels,
                                provenance=f"synthetic(seed={spec.seed})")


def _draw(spec: SyntheticScorerSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels of n records from spec's scorer, drawn from `seed`.

    spec's own n and seed are not read. This is the one place that fixes the
    order of the random draws, so `generate_synthetic` and simulate's trials,
    which skip building a Dataset, draw the same records from one seed.
    """
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    labels = (rng.random(n) < spec.prevalence).astype(int)
    scores = np.empty(n, dtype=float)
    n_pos = int(labels.sum())
    scores[labels == 1] = rng.beta(spec.pos_shape[0], spec.pos_shape[1], n_pos)
    scores[labels == 0] = rng.beta(spec.neg_shape[0], spec.neg_shape[1], n - n_pos)
    return scores, labels
