"""Properties of dataset and decision files and of the metrics (needs hypothesis).

Files round-trip, the column reader reads what csv.reader reads, the
vectorised loaders word errors as the row-by-row references do, a bad
certificate value fails alike in code and in JSON, the metric kernels
equal the original metric loops and score each bootstrap draw as its drawn
copies, a selective report (and each group's block) is the plain metrics on
its kept records, a tradeoff grid is read as thresholds, a certificate's own grid
decides as the certificate did, and simulate's chunked trials equal their
one-at-a-time reference. Each solved bound is its root to within the
solver's stated step floor, and agrees with an exact or scipy quantile.
"""

import csv
import json
import math
import sys
from datetime import date, datetime
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import reference_metrics  # noqa: E402
from rowwise_decisions import read_decisions_rowwise  # noqa: E402
from rowwise_loader import csv_rows, load_dataset_rowwise  # noqa: E402
from test_calibrate import FIELDS, certificate_json, certificate_of, reference_grid  # noqa: E402
from test_sim import reference_trials  # noqa: E402
from selcert import (  # noqa: E402
    BinomialTail,
    Dataset,
    Decisions,
    DomainError,
    RiskConfig,
    SchemaError,
    SelcertError,
    SyntheticScorerSpec,
    UnsortedLambdasError,
    binom_cdf,
    bootstrap_significance,
    certificate_from_json,
    certificate_to_json,
    certify_threshold,
    f1_accuracy,
    load_dataset,
    pr_auc,
    read_decisions,
    risk_upper_bound,
    roc_auc,
    selective_report,
    tradeoff_curve,
    validate_guarantee,
    write_dataset,
    write_decisions,
)
from selcert.calibrate import ThresholdCertificate, _confidence_correct, _decide  # noqa: E402
from selcert.jsonio import format_number  # noqa: E402
from selcert.metrics import _kernel  # noqa: E402
from selcert.records import csv_columns  # noqa: E402
import selcert.sim as sim  # noqa: E402

# ids mix CSV-special characters with ordinary text; surrogates cannot be
# written as UTF-8 and so are left out
ALPHABET = st.one_of(st.sampled_from(',"\r\n \t\ufeff'), st.characters(blacklist_categories=("Cs",)))
TEXT = st.text(alphabet=ALPHABET, min_size=1, max_size=12)
SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def datasets(draw):
    ids = draw(st.lists(TEXT, max_size=20, unique=True))
    grouped = draw(st.booleans())
    n = len(ids)
    scores = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    groups = draw(st.lists(st.one_of(st.none(), TEXT), min_size=n, max_size=n)) if grouped else None
    return Dataset(ids, scores, labels, groups=groups)


@st.composite
def decision_tables(draw):
    ids = draw(st.lists(TEXT, max_size=20, unique=True))
    n = len(ids)
    prediction = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    confidence = draw(st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=n, max_size=n))
    return Decisions(ids, prediction, confidence)


@pytest.mark.parametrize("suffix", ["csv", "json"])
@SETTINGS
@given(data=datasets())
def test_dataset_round_trip(tmp_path, suffix, data):
    path = tmp_path / f"d.{suffix}"
    write_dataset(data, path)
    assert load_dataset(path)._values() == data._values()


@SETTINGS
@given(decisions=decision_tables())
def test_decisions_round_trip(tmp_path, decisions):
    path = tmp_path / "dec.csv"
    write_decisions(decisions, path)
    back = read_decisions(path)
    assert back.ids.tolist() == decisions.ids.tolist()
    assert back.prediction.tolist() == decisions.prediction.tolist()
    # confidences are written at 12 significant digits
    assert back.confidence.tolist() == [float(format_number(c)) for c in decisions.confidence.tolist()]
    assert back == read_decisions_rowwise(path)


# Valid columns with up to three cells swapped for odd ones: values a file
# cannot hold, and values the constructor reads as a reader would
ODD_CELLS = {
    "ids": ["", "dup", 3, None, np.str_("np-id")],
    "scores": [1.5, -0.0, math.nan, "0.5", True, 10**400, Fraction(10**400), np.float32(0.1)],
    "labels": [2, -1, True, 1.0, "1", np.int64(1)],
    "dates": ["2020-01-01", datetime(2020, 1, 1), 20200101, date.min, date.max],
    "groups": ["", 3, None, "g\r\nh", np.str_("")],
}


@st.composite
def dataset_columns(draw):
    n = draw(st.integers(0, 6))
    columns = {
        "ids": draw(st.lists(TEXT, min_size=n, max_size=n, unique=True)),
        "scores": draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        "labels": draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        "dates": draw(st.lists(st.one_of(st.none(), st.dates()), min_size=n, max_size=n)),
        "groups": draw(st.lists(st.one_of(st.none(), TEXT), min_size=n, max_size=n)),
    }
    return _with_odd_cells(draw, columns, ODD_CELLS)


def _with_odd_cells(draw, columns, odd):
    """`columns` with up to three cells set to one of `odd`'s, "dup" repeating the first id."""
    n = len(columns["ids"])
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        name = draw(st.sampled_from(sorted(columns)))
        cell = draw(st.sampled_from(odd[name]))
        columns[name][draw(st.integers(0, n - 1))] = columns["ids"][0] if cell == "dup" else cell
    return columns


@pytest.mark.parametrize("suffix", ["csv", "json"])
@SETTINGS
@given(columns=dataset_columns())
def test_any_dataset_that_constructs_round_trips(tmp_path, suffix, columns):
    try:
        data = Dataset(**columns)
    except SelcertError:
        return
    path = tmp_path / f"d.{suffix}"
    write_dataset(data, path)
    assert load_dataset(path)._values() == data._values()


ODD_DECISION_CELLS = {
    "ids": ["", "dup", 1, None],
    "prediction": [2, -2, 0.5, True, 1.0, None, np.int64(1)],
    "confidence": [0.4, math.nan, "0.9", True, 1, np.float64(0.75)],
}


@st.composite
def decision_columns(draw):
    n = draw(st.integers(0, 6))
    columns = {
        "ids": draw(st.lists(TEXT, min_size=n, max_size=n, unique=True)),
        "prediction": draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)),
        # confidences are written at 12 significant digits, so drawn at that precision
        "confidence": draw(st.lists(st.floats(0.5, 1.0).map(lambda c: float(format_number(c))),
                                    min_size=n, max_size=n)),
    }
    return _with_odd_cells(draw, columns, ODD_DECISION_CELLS)


@SETTINGS
@given(columns=decision_columns())
def test_any_decisions_that_construct_round_trip(tmp_path, columns):
    try:
        decisions = Decisions(**columns)
    except SelcertError:
        return
    path = tmp_path / "dec.csv"
    write_decisions(decisions, path)
    assert read_decisions(path) == decisions


@SETTINGS
@given(data=datasets(), alpha=st.floats(0.05, 0.95), beta=st.floats(0.05, 0.5))
def test_certificate_round_trip(data, alpha, beta):
    if len(data) == 0:
        return
    cert = certify_threshold(data, RiskConfig(alpha=alpha, beta=beta))
    back = certificate_from_json(certificate_to_json(cert))
    assert back.status == cert.status and back.lambda_hat == cert.lambda_hat
    assert back.grid._values()[:3] == cert.grid._values()[:3]  # lam, n_at and errors_at


@st.composite
def certificate_fields(draw):
    """The fields of any valid certificate: ascending thresholds, counts that fall, any bounds.

    Returned as (status, lambda_hat, grid columns, (alpha, beta, min_count), calib_size).
    """
    lam = sorted(set(draw(st.lists(st.floats(0.5, 1.0), max_size=12))))
    n_at = sorted(draw(st.lists(st.integers(0, 2**62), min_size=len(lam), max_size=len(lam))), reverse=True)
    errors = [draw(st.integers(0, n)) for n in n_at]
    risks = [draw(st.lists(st.floats(0.0, 1.0), min_size=len(lam), max_size=len(lam))) for _ in "hp"]
    lambda_hat = draw(st.sampled_from([None, *lam]))
    budget = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    # a beta must also leave 1.0 - beta below 1.0, which holds above 2**-54
    beta = st.floats(2.0**-54, 1.0, exclude_min=True, exclude_max=True)
    config = (draw(budget), draw(beta), draw(st.integers(1, 2**62)))
    return ["infeasible" if lambda_hat is None else "feasible", lambda_hat, [lam, n_at, errors, *risks],
            config, draw(st.integers(max(n_at[0] if n_at else 0, 1), 2**62))]


def certificates():
    return certificate_fields().map(lambda fields: certificate_of(*fields))


# values that break a certificate rule, or that numpy would cast into a valid one
HOSTILE = st.sampled_from([None, True, False, "0.6", "3", 2.0, 0, -1, 2**63, 2**63 + 5, 10**30, 10**400,
                           math.nan, math.inf, -math.inf, -7.0, 1.5, 0.55, []])


@st.composite
def loose_certificate_fields(draw, values=HOSTILE):
    """A valid certificate's fields with at most one value replaced by one of `values`."""
    fields = draw(certificate_fields())
    where = draw(st.sampled_from(["none", *FIELDS]))
    if where in ("status", "lambda_hat", "calib_size"):
        fields[FIELDS.index(where)] = draw(values)
    elif where == "config":
        config = list(fields[3])
        config[draw(st.integers(0, 2))] = draw(values)
        fields[3] = tuple(config)
    elif where == "grid" and fields[2][0]:
        column = fields[2][draw(st.integers(0, 4))]
        column[draw(st.integers(0, len(column) - 1))] = draw(values)
    return fields


@SETTINGS
@given(fields=loose_certificate_fields())
def test_one_bad_certificate_value_two_sources(fields):
    # the constructors and the loader run one rule list: the same value fails with the same words
    try:
        cert = certificate_of(*fields)
    except DomainError as exc:
        with pytest.raises(SchemaError) as err:
            certificate_from_json(certificate_json(*fields))
        assert str(err.value) == f"malformed certificate: {exc}"
        return
    loaded = certificate_from_json(certificate_json(*fields))
    assert certificate_to_json(loaded) == certificate_to_json(cert)


def built(fields) -> ThresholdCertificate | None:
    try:
        return certificate_of(*fields)
    except DomainError:
        return None


# numpy scalars and fractions reach a constructor from code only; JSON cannot carry them
CODE_VALUES = st.sampled_from([np.float64(0.75), np.float64(math.nan), np.int64(3), np.int64(-1), np.bool_(True),
                               Fraction(10**400), -Fraction(10**400)])


@SETTINGS
@given(cert=certificates() | loose_certificate_fields(HOSTILE | CODE_VALUES).map(built).filter(bool))
def test_certificate_json_round_trip_is_exact(cert):
    # any certificate that constructs writes and loads back: thresholds and counts bit for
    # bit, the rest at 12 digits, stable
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert (back.status, back.calib_size, back.config) == (cert.status, cert.calib_size, cert.config)
    assert (back.lambda_hat is None) == (cert.lambda_hat is None)
    assert np.array(back.lambda_hat, dtype=float).tobytes() == np.array(cert.lambda_hat, dtype=float).tobytes()
    assert back.grid.lam.tobytes() == cert.grid.lam.tobytes()
    assert back.grid.n_at.tolist() == cert.grid.n_at.tolist()
    assert back.grid.errors_at.tolist() == cert.grid.errors_at.tolist()
    assert certificate_to_json(back) == text


# Cells and JSON values that break one load rule or another, mixed with valid ones; the two long
# cells are past where a message cuts the parser's error, and the second past where it cuts a quote
BAD_CELLS = st.sampled_from(["", "r0", "r1", "0", "1", "2", "0.5", "1.5", "-0", "nan", "high",
                             "2020-01-31", "2020-02-30", "someday", "g", "0.2_5", " 0.75 ", "\u0660.5",
                             "2020-01-31" + "x" * 50, "someday " * 12])
BAD_VALUES = st.one_of(
    BAD_CELLS, st.sampled_from([0, 1, 2, -1, 0.5, 1.5, -0.0, True, None, [], {}]), st.floats()
)
EXTRA_COLUMNS = st.sampled_from([[], ["date"], ["group"], ["date", "group"]])
VALID_CELL = {"date": "2020-01-31", "group": "g"}


@st.composite
def corrupted_csv(draw):
    header = ["id", "score", "label", *draw(EXTRA_COLUMNS)]
    n = draw(st.integers(0, 8))
    rows = [[f"r{i}", repr(draw(st.floats(0, 1))), str(draw(st.integers(0, 1))),
             *(VALID_CELL[name] for name in header[3:])] for i in range(n)]
    # up to two bad rows, each with one or more bad cells
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        for column in draw(st.sets(st.integers(0, len(header)), min_size=1)):
            if column == len(header):
                del row[draw(st.integers(0, len(row))):]  # a short row
                row.extend(draw(st.lists(BAD_CELLS, max_size=2)))  # or a long one
            elif column < len(row):
                row[column] = draw(BAD_CELLS)
    return ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)


@st.composite
def corrupted_json(draw):
    keys = ["id", "score", "label", *draw(EXTRA_COLUMNS)]
    records = [{"id": f"r{i}", "score": draw(st.floats(0, 1)), "label": draw(st.integers(0, 1)),
                **{name: VALID_CELL[name] for name in keys[3:]}} for i in range(draw(st.integers(0, 8)))]
    # up to two bad records, each with one or more bad fields
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        i = draw(st.integers(0, len(records) - 1))
        for action in draw(st.lists(st.sampled_from(["set", "set", "set", "drop", "add", "replace"]),
                                    min_size=1, max_size=4)):
            if action == "replace":
                records[i] = draw(st.sampled_from([[], "r", 3, None]))
            elif isinstance(records[i], dict):
                key = draw(st.sampled_from(keys if action != "add" else ["date", "group", "weight"]))
                if action == "drop":
                    records[i].pop(key, None)
                else:
                    records[i][key] = draw(BAD_VALUES)
    return json.dumps(records)


def _outcome(load, path):
    """The records loaded, or the error's class, message, row and column."""
    try:
        return load(path)._values()
    except SelcertError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)


@SETTINGS
@given(text=corrupted_csv())
@example(text="id,score,label,date\nr0,0.5,1,2020-01-31" + "x" * 50 + "\n")
@example(text="id,score,label,date\nr0,0.5,1," + "someday " * 12 + "\nr0,0.5,1,\n")
@example(text="id,score,label\nr0," + "someday " * 12 + ",0\n")  # a number cell past 80 characters is cut
def test_csv_loader_matches_rowwise_reference(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(load_dataset, path) == _outcome(load_dataset_rowwise, path)


@SETTINGS
@given(text=corrupted_json())
@example(text=json.dumps([{"id": "someday " * 12, "score": 0.5, "label": 1}] * 2))
@example(text=json.dumps([{"id": "r0", "score": 0.5, "label": 10**100}]))
def test_json_loader_matches_rowwise_reference(tmp_path, text):
    path = tmp_path / "d.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome(load_dataset, path) == _outcome(load_dataset_rowwise, path)


# Decision cells that break one read rule or another, mixed with valid ones
BAD_DECISION_CELLS = [
    st.sampled_from(["", "r0", "r1", "r2"]),
    st.sampled_from(["abstain", "0", "1", "", "2", "Abstain", " 1", "-1"]),
    st.sampled_from(["0.5", "1", "0.75", "0.49", "1.5", "nan", "inf", "-0", "x", "", " 0.9", "1_0", "0.9_5",
                     "0.6 ", "\u0660.9"]),
]


@st.composite
def corrupted_decisions(draw):
    rows = [[f"r{i}", draw(st.sampled_from(["abstain", "0", "1"])), repr(draw(st.floats(0.5, 1)))]
            for i in range(draw(st.integers(0, 8)))]
    # up to two bad rows, each with one or more bad cells
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        for column in draw(st.sets(st.integers(0, 3), min_size=1)):
            if column == 3:
                del row[draw(st.integers(0, len(row))):]  # a short (or blank) row
                row.extend(draw(st.lists(BAD_DECISION_CELLS[2], max_size=2)))  # or a long one
            elif column < len(row):
                row[column] = draw(BAD_DECISION_CELLS[column])
    header = draw(st.sampled_from(["id,outcome,confidence"] * 3 + ["id,outcome", "id,verdict,confidence"]))
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def _decisions_outcome(read, path):
    """The decisions read, or the error's class, message, row and column."""
    try:
        return read(path)._values()
    except SelcertError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)


@SETTINGS
@given(text=corrupted_decisions())
@example(text="id,outcome,confidence\nr0," + "someday " * 12 + ",0.9\n")  # number cells past 80 characters
@example(text="id,outcome,confidence\nr0,1," + "9" * 100 + "\n")
def test_decisions_reader_matches_rowwise_reference(tmp_path, text):
    path = tmp_path / "dec.csv"
    path.write_text(text, encoding="utf-8")
    assert _decisions_outcome(read_decisions, path) == _decisions_outcome(read_decisions_rowwise, path)


# CSV text for the column reader: cells quote-free (the split path), with
# quotes, or from TEXT's alphabet (line breaks and all); regular, ragged and
# blank rows, "\n" or "\r\n" line ends, with or without a final one, and at
# most one field at or just over csv.field_size_limit()
PLAIN_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\0')
CELLS = st.sampled_from([st.text(alphabet=PLAIN_CHARS, max_size=5),
                         st.text(alphabet=st.one_of(PLAIN_CHARS, st.just('"')), max_size=5),
                         st.text(alphabet=ALPHABET, max_size=5)])


@st.composite
def csv_texts(draw):
    cell = draw(CELLS)
    width = draw(st.integers(1, 4))
    regular = st.lists(cell, min_size=width, max_size=width)
    rows = [draw(regular)] + draw(st.lists(
        st.one_of(regular, regular, st.lists(cell, max_size=width + 2), st.builds(list)), max_size=6))
    if draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row.append("x" * (csv.field_size_limit() + draw(st.integers(-1, 1))))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = end.join(map(",".join, rows)) + draw(st.sampled_from([end, ""]))
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 9)) == 0 else text


def _columns_of_rows(text):
    """csv.reader's rows transposed, up to the first ragged one, or the located error."""
    try:
        rows = csv_rows(text)
    except SelcertError as exc:
        return type(exc), str(exc), exc.row
    if not rows:
        return None, [], 0, None
    header, body = rows[0], rows[1:]
    n = next((i for i, row in enumerate(body) if len(row) != len(header)), len(body))
    columns = [[row[j] for row in body[:n]] for j in range(len(header))]
    return header, columns, n, len(body[n]) if n < len(body) else None


@settings(SETTINGS, max_examples=300)
@given(text=csv_texts())
def test_csv_columns_transpose_csv_reader_rows(text):
    try:
        read = tuple(csv_columns(text))
    except SelcertError as exc:
        read = type(exc), str(exc), exc.row
    assert read == _columns_of_rows(text)


# Score columns: distinct floats, a coarse pool that forces ties, and tiny ones
UNTIED = st.lists(st.floats(0, 1), min_size=1, max_size=40, unique=True)
TIED = st.lists(st.sampled_from([i / 8 for i in range(9)]), min_size=1, max_size=40)
TINY = st.lists(st.sampled_from([0.0, 0.5, 0.5000000000000001, 1.0]), max_size=3)
SCORE_COLUMNS = st.one_of(UNTIED, TIED, TINY)


@st.composite
def scored_labels(draw):
    scores = draw(SCORE_COLUMNS)
    labels = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    return np.array(scores), np.array(labels, dtype=int)


def _metric_outcome(fn, scores, labels):
    """The metric value, or the error's class and message."""
    try:
        return fn(scores, labels)
    except SelcertError as exc:
        return type(exc), str(exc)


@SETTINGS
@given(case=scored_labels())
def test_metrics_equal_reference_loops(case):
    scores, labels = case
    for fn, reference in ((pr_auc, reference_metrics.pr_auc), (roc_auc, reference_metrics.roc_auc),
                          (f1_accuracy, reference_metrics.f1_accuracy)):
        assert _metric_outcome(fn, scores, labels) == _metric_outcome(reference, scores, labels)


@st.composite
def drawn_positions(draw):
    """A scored column and positions drawn from it with replacement: from every record, from those at
    or below one of its scores (the blocks above left undrawn), or from one class alone."""
    scores, labels = draw(scored_labels())
    return scores, labels, _drawn_from_a_pool(draw, scores, labels)


def _drawn_from_a_pool(draw, scores, labels):
    pool = draw(st.sampled_from(["all", "at or below", "negatives", "positives"]))
    if pool == "at or below":
        positions = np.flatnonzero(scores <= draw(st.sampled_from(scores.tolist() or [0.0])))
    else:
        positions = np.flatnonzero({"all": labels >= 0, "negatives": labels == 0, "positives": labels == 1}[pool])
    drawn = draw(st.lists(st.sampled_from(positions.tolist()), max_size=2 * len(scores))) if positions.size else []
    return np.array(drawn, dtype=np.intp)


def _draw_case(scores, labels, drawn):
    return np.array(scores), np.array(labels), np.array(drawn, dtype=np.intp)


PLAIN_METRICS = {"pr_auc": pr_auc, "roc_auc": roc_auc,
                 "f1": lambda s, y: f1_accuracy(s, y)[0], "accuracy": lambda s, y: f1_accuracy(s, y)[1]}


@SETTINGS
@given(case=drawn_positions())
@example(case=_draw_case([0.9, 0.5, 0.1], [1, 1, 0], [1, 2, 2]))  # the top block undrawn: no record through it
@example(case=_draw_case([0.9, 0.5, 0.1, 0.3], [1, 0, 1, 0], [1, 3, 3, 1, 2]))  # a positive never drawn
@example(case=_draw_case([0.5] * 4, [1, 0, 1, 0], [0, 1, 1, 3]))  # a single tie block
@example(case=_draw_case([0.9, 0.2, 0.4], [1, 0, 0], [1, 2, 2]))  # negatives alone
@example(case=_draw_case([0.9, 0.2, 0.4], [1, 0, 0], [0, 0]))  # positives alone
@example(case=_draw_case([0.9, 0.2], [1, 0], []))  # nothing drawn
def test_each_draw_scores_as_the_metric_on_its_copies(case):
    # a bootstrap draw scored from its counts is the plain metric on the drawn copies, bit for bit,
    # or the same error
    scores, labels, drawn = case
    counts = np.bincount(drawn, minlength=len(scores))

    def bits(outcome):
        return outcome.hex() if isinstance(outcome, float) else outcome

    for metric, plain in PLAIN_METRICS.items():
        counted = _metric_outcome(lambda s, y: _kernel(metric, s, y)(counts), scores, labels)
        assert bits(counted) == bits(_metric_outcome(plain, scores[drawn], labels[drawn])), metric


@st.composite
def stacked_draws(draw):
    """A scored column and a (B, n) stack of draws' counts from it, each row drawn as `drawn_positions` draws."""
    scores, labels = draw(scored_labels())
    rows = [np.bincount(_drawn_from_a_pool(draw, scores, labels), minlength=len(scores))
            for _ in range(draw(st.integers(1, 5)))]
    return scores, labels, np.array(rows, dtype=np.int64).reshape(len(rows), len(scores))


@SETTINGS
@given(case=stacked_draws())
@example(case=(np.array([0.9, 0.5, 0.1]), np.array([1, 0, 0]),
               np.array([[0, 1, 1], [1, 1, 1], [0, 0, 0], [2, 0, 0]])))  # rows with no positive, nothing, no negative
@example(case=(np.array([0.5] * 4), np.array([1, 0, 1, 0]), np.array([[1, 1, 0, 0], [0, 2, 0, 1]])))  # one tie block
def test_a_stack_of_draws_scores_each_row_as_its_draw_alone(case):
    # each row of a counts matrix scores as the 1-d kernel scores it, bit for bit, and NaN where the
    # 1-d kernel raises; pyproject turns RuntimeWarning into an error, so an undefined row warns nothing
    scores, labels, counts = case
    for metric in PLAIN_METRICS:
        kernel = _kernel(metric, scores, labels)
        stacked = kernel(counts)
        assert stacked.shape == (len(counts),), metric
        for row, value in zip(counts, stacked.tolist()):
            alone = _metric_outcome(lambda s, y: kernel(row), scores, labels)
            assert value.hex() == (alone.hex() if isinstance(alone, float) else "nan"), metric


@st.composite
def reported_sets(draw):
    """A scored column, the records the decisions keep, and each record's group (None where ungrouped)."""
    scores, labels = draw(scored_labels())
    n = len(scores)
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    groups = draw(st.lists(st.sampled_from([None, "a", "b"]), min_size=n, max_size=n))
    return scores, labels, np.array(kept, dtype=bool), groups


def _report_case(scores, labels, kept, groups):
    return np.array(scores), np.array(labels), np.array(kept, dtype=bool), groups


@SETTINGS
@given(case=reported_sets())
@example(case=_report_case([0.9, 0.2, 0.7], [1, 0, 1], [False] * 3, ["a", "b", None]))  # nothing kept
@example(case=_report_case([0.9, 0.2, 0.7, 0.1], [1, 0, 1, 0], [True, False, True, True],
                           ["a", "b", "a", "b"]))  # group a keeps positives alone, group b negatives alone
@example(case=_report_case([0.5, 0.5, 0.5, 0.8], [1, 0, 0, 1], [True] * 4, ["a", "a", "b", None]))  # ties at 0.5
@example(case=_report_case([], [], [], []))  # no record at all
def test_a_report_is_the_plain_metrics_on_its_kept_records(case):
    # every metric field of the report, and of each group's block, is the plain function on the kept
    # records, bit for bit, and None where the plain function raises
    scores, labels, kept, groups = case
    ids = [f"r{i}" for i in range(len(scores))]
    data = Dataset(ids, scores, labels, groups=groups)
    decisions = Decisions(ids, np.where(kept, scores >= 0.5, -1), np.maximum(scores, 1.0 - scores))
    report = selective_report(data, decisions, by_group=True)
    names = sorted(set(groups) - {None})
    assert list(report.group_breakdown) == names
    in_group = np.array(groups, dtype=object)
    for block, members in [(report, np.ones(len(ids), bool)),
                           *((report.group_breakdown[name], in_group == name) for name in names)]:
        chosen = kept & members
        assert (block.n_total, block.n_retained) == (members.sum(), chosen.sum())
        for metric, plain in PLAIN_METRICS.items():
            expected = _metric_outcome(plain, scores[chosen], labels[chosen])
            value = getattr(block, metric)
            assert (None if value is None else value.hex()) == (
                expected.hex() if isinstance(expected, float) else None), metric


@settings(max_examples=25, deadline=None)
@given(case=scored_labels(), other=SCORE_COLUMNS, seed=st.integers(0, 2**32),
       metric=st.sampled_from(sorted(reference_metrics.METRICS)))
def test_bootstrap_equals_resampling_the_scores(case, other, seed, metric):
    scores_a, labels = case
    # a second scorer over the same records: the other column, cycled to length
    scores_b = np.resize(np.array(other or [0.5]), len(scores_a))
    ids = [f"r{i}" for i in range(len(labels))]
    a = Dataset(ids, scores_a, labels)
    b = Dataset(ids, scores_b, labels)

    def counted():
        result = bootstrap_significance(a, b, metric, resamples=100, seed=seed)
        return result.delta, result.p_value

    def resampled():
        return reference_metrics.bootstrap_reference(
            scores_a, scores_b, labels, metric, resamples=100, seed=seed)

    def outcome(run):
        try:
            return run()
        except SelcertError as exc:
            return type(exc)

    assert outcome(counted) == outcome(resampled)


THRESHOLD_CELLS = st.one_of(
    st.floats(0.45, 1.05), st.floats(), st.integers(-2, 2), st.booleans(), st.none(), st.just(10**400),
    st.sampled_from(["0.6", [0.6], np.float64(0.75), np.int64(1), np.bool_(True)]))
CURVE = Dataset([f"r{i}" for i in range(5)], [0.1, 0.35, 0.6, 0.8, 0.95], [0, 1, 1, 0, 1])


def _first_bad_threshold(cells) -> int:
    """Index of the first cell that is no real number (a bool is none), or no threshold above the last."""
    last = -math.inf
    for i, cell in enumerate(cells):
        if isinstance(cell, (bool, np.bool_)) or not isinstance(cell, (int, float, np.number)) or cell != cell:
            return i
        value = math.inf if isinstance(cell, int) and abs(cell) > 2**1024 else float(cell)
        if not (0.5 <= value <= 1.0 and value > last):
            return i
        last = value
    return len(cells)


@SETTINGS
@given(cells=st.lists(THRESHOLD_CELLS, max_size=5) | st.lists(st.floats(0.5, 1), max_size=5, unique=True).map(sorted))
def test_tradeoff_grid_is_read_as_thresholds(cells):
    # a grid either fails at its first bad cell, named, or is its cells as floats
    bad = _first_bad_threshold(cells)
    try:
        curve = tradeoff_curve(CURVE, cells)
    except SelcertError as exc:
        assert type(exc) is UnsortedLambdasError
        assert str(exc) == "lambda grid must be nonempty" if not cells else f"lambda[{bad}] " in str(exc)
        return
    assert bad == len(cells) > 0
    assert curve.lam.tolist() == [float(cell) for cell in cells]


@SETTINGS
@given(scores=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0]) | st.floats(0, 1), min_size=1,
                       max_size=40),
       wrong=st.lists(st.sampled_from([False] * 5 + [True]), min_size=40, max_size=40), alpha=st.floats(0.02, 0.95),
       beta=st.floats(0.01, 0.49) | st.just(0.5) | st.floats(0.51, 0.99),
       edge=st.sampled_from(["one", "at a run", "above a run", "above n"]), run=st.integers(0, 40))
def test_decide_on_a_certificate_grid_gives_back_its_decision(scores, wrong, alpha, beta, edge, run):
    # tied scores make runs; min_count sits at 1, at a run's n_at, one above it, or above n
    labels = [int((score >= 0.5) != miss) for score, miss in zip(scores, wrong)]
    data = Dataset([f"r{i}" for i in range(len(scores))], scores, labels)
    n_at = certify_threshold(data, RiskConfig(alpha, beta)).grid.n_at
    at_run = int(n_at[run % len(n_at)])
    min_count = {"one": 1, "at a run": at_run, "above a run": at_run + 1, "above n": len(data) + 1}[edge]
    cert = certify_threshold(data, RiskConfig(alpha, beta, min_count))
    g = cert.grid
    (index,) = _decide(np.zeros(len(g)), g.n_at, g.errors_at, cert.config)
    assert (cert.status, cert.lambda_hat) == (("feasible", g.lam[index]) if index >= 0 else ("infeasible", None))
    assert cert.lambda_hat == reference_grid(*_confidence_correct(data.scores, data.labels), cert.config)[3]


SHAPES = st.tuples(st.floats(0.3, 12.0), st.floats(0.3, 12.0))


@SETTINGS
@given(spec=st.builds(SyntheticScorerSpec, n=st.just(1), prevalence=st.floats(0.02, 0.98), pos_shape=SHAPES,
                      neg_shape=SHAPES, seed=st.just(0)),
       config=st.builds(RiskConfig, alpha=st.floats(0.02, 0.6), beta=st.floats(0.01, 0.99),
                        min_count=st.integers(1, 70)),
       trials=st.integers(1, 7), n_calib=st.integers(1, 60), n_test=st.integers(1, 30),
       per_chunk=st.integers(0, 8), seed=st.integers(-(2**63), 2**64 - 1))
def test_simulate_equals_its_per_trial_reference(monkeypatch, spec, config, trials, n_calib, n_test, per_chunk, seed):
    # whatever the chunk holds (0: a budget one record short of one trial),
    # each trial is certify_threshold's threshold and the count on its test set
    monkeypatch.setattr(sim, "_CHUNK_RECORDS", max(per_chunk * (n_calib + n_test), n_calib + n_test - 1))
    got = validate_guarantee(spec, config, trials=trials, n_calib=n_calib, n_test=n_test, seed=seed)
    assert got == reference_trials(spec, config, trials, n_calib, n_test, seed)


def _stated_floor(k, n, beta, v):
    """The solver's step floor at its root v, relative to v.

    A step stops below max(4 eps r, dF / slope), where dF, the CDF's rounding
    bound, is eps times the pmf term's exponent k |log r| + (n - k) |log(1 - r)|,
    times the CDF; the slope is (n - k) pmf / (1 - r), here from lgamma.
    """
    eps = sys.float_info.epsilon
    exponent = -(k * math.log(v) + (n - k) * math.log1p(-v))
    log_pmf = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) - exponent
    slope = (n - k) * math.exp(log_pmf) / (1.0 - v)
    return max(4 * eps, eps * exponent * beta / (slope * v))


def _exact_cdf(k, n, p):
    """CDF(k; n, p) summed in 60-digit decimals from the exact value of the float p."""
    with localcontext() as context:
        context.prec = 60
        p = Decimal(p)
        return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k + 1))


@st.composite
def binomial_tails(draw):
    n = draw(st.integers(1, 10**5))
    return draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1)), n


@SETTINGS
@given(tail=binomial_tails(), beta=st.floats(0.01, 0.9))
@example(tail=(0, 1), beta=0.01).via("k = 0 at n = 1")
@example(tail=(99_999, 10**5), beta=0.9).via("k = n - 1 at the largest n")
def test_bound_is_the_root_within_the_step_floor(tail, beta):
    # the bound is within one floor of the root, and each CDF below carries up
    # to one floor of rounding, so two floors either side bracket the root
    k, n = tail
    v = risk_upper_bound(BinomialTail(k, n), beta).value
    m = 2 * _stated_floor(k, n, beta, v)
    assert binom_cdf(k, n, v * (1 - m)) >= beta >= binom_cdf(k, n, v * (1 + m))
    if k < 30:
        # scipy's quantile is off by up to 3.6e-12 at k = 1 and n near 1e5 (it
        # agrees to 1e-15 at most such points), so an exact sum decides there
        assert _exact_cdf(k, n, v * (1 - 1e-12)) >= Decimal(beta) >= _exact_cdf(k, n, v * (1 + 1e-12))
    else:
        stats = pytest.importorskip("scipy.stats")
        assert v == pytest.approx(stats.beta.ppf(1 - beta, k + 1, n - k), rel=1e-12, abs=0)
