"""Abstention-threshold certification and predict-or-abstain decisions.

The confidence of a binary score w is max(w, 1 - w). Given a calibration set
and a risk budget alpha, the certifier scans the grid of observed confidence
values and picks the smallest threshold whose entire upper grid has an exact
binomial upper risk bound at or below alpha (confidence level 1 - beta per
grid point). Applying a feasible certificate keeps predictions at or above
the threshold and abstains below it. A threshold is a number, finite, within
[0.5, 1] and, in a grid, strictly ascending: one reader, `_thresholds`, run by
`CertificateGrid`, `ThresholdCertificate`, `selective_risk` and
`sim.tradeoff_curve` (on a grid its caller passes).

The retained-set rule, confidence >= lam with ties kept together, is counted
for a whole grid in one place, `_grid`, from one sort of each set of records:
a grid point is the start of a run of tied confidences, and its counts are
what lies from there up; `_decide` and the tradeoff curve read them.
At one threshold, `selective_risk`, `apply_certificate` and simulate's test
sets apply the comparison itself. The decisions are columns, `Decisions`,
which `read_decisions` also returns, and the certificate's grid is columns,
`CertificateGrid`. Both sit on the one column base, `records.ColumnTable`,
are built from columns alone, and state their rules in one located list
each: `_decision_faults` (with the id rules of `records._id_faults`), run by
constructor and reader alike, and the grid constructor's. Each can be
iterated as read-only row views, `Decision` and `GridPoint`, built on each
pass; a view reads its columns as they are, abstention's -1 included. Every
other certificate rule is `RiskConfig`'s or `ThresholdCertificate`'s;
`certificate_from_json` checks only what JSON text needs, and the file's
`status` word, and hands each other field to the constructors as it was
read. A certificate holds no status of its own: it reads its status from
`lambda_hat`, so one built in code cannot contradict itself.

`_decide` needs a yes or no at each grid point, never the bound itself. With
k errors among n retained, k < n, the bound risk_plus is at most alpha
exactly when CDF(k; n, alpha) <= beta, because the CDF is strictly
decreasing in the rate. So `lambda_hat` is decided by that one tail test
per eligible grid point (`binom.tail_at_most`), and the bounds themselves
are solved afterwards, all at once, as the certificate's evidence.

The equivalence is exact in real arithmetic only. The tail test and the
recorded risk_plus both come from a floating-point CDF whose error has no
proven bound yet (ROADMAP item 14 asks for one). Measured against a
40-digit sum at 400 random points (n from 10 to 2e5, p from 0.005 to 0.6,
k within 3 sd of np), its worst relative error was 8.3e-12 to 1.5e-11 over
four such draws, largest at n near 2e5 and p near 0.5. So when alpha is
close to a point's recorded bound the two can land on opposite sides of
it: the certificate may keep a point whose recorded risk_plus is just
above alpha, or stop at one whose risk_plus is just below. Neither side is
exact there; both are within that error of the true root. Over 2000 random
points at each beta from 0.01 to 0.999, they agreed wherever alpha was a
relative 1e-10 from the recorded bound; at 1e-12 they did not agree at
beta 0.99 and 0.999, where the summed CDF F is close to 1.

Thin grid tails carry almost no evidence, so their bounds are close to 1 no
matter how good the classifier is. `RiskConfig.min_count` sets how many
retained calibration points a grid value needs before it can constrain, or
be picked as, the certified threshold; the default of 1 applies no floor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .binom import BinomialTail, risk_upper_bound, risk_upper_bounds, tail_at_most
from .errors import (
    DomainError,
    EmptyCalibrationError,
    InfeasibleCertificateError,
    SchemaError,
    SelcertError,
    _as_text,
    _shown,
)
from .jsonio import Exact, Table, csv_text
from .jsonio import dumps as json_dumps
from .records import (
    ColumnTable,
    Dataset,
    _cell_fault,
    _check_kind,
    _coded,
    _columns,
    _counts,
    _first,
    _float_cells,
    _floats,
    _id_faults,
    _object_column,
    _raise_first,
    _types_in,
    _value_fault,
    check_beta,
    check_int,
    check_real,
    csv_columns,
    read_text,
    write_text,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class RiskConfig:
    """Risk budget alpha, bound confidence parameter beta, and evidence floor."""

    alpha: float
    beta: float
    min_count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", check_real("alpha", self.alpha, 0, 1))
        object.__setattr__(self, "beta", check_beta(self.beta))
        object.__setattr__(self, "min_count", check_int("min_count", self.min_count, 1))


@dataclass(frozen=True)
class GridPoint:
    """Selective risk at one candidate threshold.

    n_at and errors_at count retained predictions and retained mistakes at
    confidence >= lam; risk_hat is their ratio (1.0 by convention when
    nothing is retained) and risk_plus the binomial upper bound on the true
    selective risk.
    """

    lam: float
    n_at: int
    errors_at: int
    risk_hat: float
    risk_plus: float


class CertificateGrid(ColumnTable):
    """The certification grid held as columns, one row per candidate threshold.

    lam is a float array, strictly ascending within [0.5, 1]; n_at and
    errors_at are int arrays with 0 <= errors_at <= n_at and n_at
    non-increasing; risk_hat and risk_plus are float arrays within [0, 1].
    The constructor reads its cells as `_floats` and `_counts` do and checks
    them by one located rule list. Iteration gives a `GridPoint` per row.
    """

    _columns = ("lam", "n_at", "errors_at", "risk_hat", "risk_plus")
    _view = GridPoint

    def __init__(self, lam, n_at, errors_at, risk_hat, risk_plus) -> None:
        _columns(DomainError, lam=lam, n_at=n_at, errors_at=errors_at, risk_hat=risk_hat, risk_plus=risk_plus)
        cells = lam, n_at, errors_at, risk_hat, risk_plus
        lam, lam_faults = _thresholds("grid[{}].lambda", lam)
        columns = lam, n_at, errors_at, risk_hat, risk_plus = (
            lam, _counts(n_at), _counts(errors_at), _floats(risk_hat), _floats(risk_plus))
        _raise_first([  # the grid rules, in cell order; the messages quote the cells
            *lam_faults,
            _value_fault(n_at < 0, "grid[{}].n", "an integer within [0, 2**63)", cells[1]),
            (_first(n_at[1:] > n_at[:-1]) + 1, lambda i: DomainError(
                f"grid n must be non-increasing: grid[{i}].n is {n_at[i]} after {n_at[i - 1]}")),
            (_first((errors_at < 0) | (errors_at > n_at)), lambda i: DomainError(
                f"grid[{i}].errors must be an integer within [0, n], got {_shown(cells[2][i])} with n {n_at[i]}")),
            _value_fault(~((risk_hat >= 0.0) & (risk_hat <= 1.0)), "grid[{}].risk_hat", "a number within [0, 1]",
                         cells[3]),
            _value_fault(~((risk_plus >= 0.0) & (risk_plus <= 1.0)), "grid[{}].risk_plus", "a number within [0, 1]",
                         cells[4]),
        ], len(lam))
        self._set(*columns)


@dataclass(frozen=True)
class ThresholdCertificate:
    """Outcome of a certification scan over one calibration set.

    grid is a `CertificateGrid`, anything else a DomainError naming `grid`.
    calib_size is an integer >= 1, and the grid's bottom point retains at
    most that many records. lambda_hat is None or one of the grid's
    thresholds. A certificate holds no status of its own: `status` and
    `feasible` read `lambda_hat`, so the two cannot disagree. The file's
    `status` word is checked by its loader (`_check_status`).
    """

    lambda_hat: float | None
    grid: CertificateGrid
    config: RiskConfig
    calib_size: int

    def __post_init__(self) -> None:
        CertificateGrid._given(self.grid, "grid")
        object.__setattr__(self, "calib_size", check_int("calib_size", self.calib_size, 1))
        if len(self.grid) and int(self.grid.n_at[0]) > self.calib_size:
            raise DomainError("grid n must not exceed calib_size: "
                              f"grid[0].n is {self.grid.n_at[0]} with calib_size {self.calib_size}")
        if self.lambda_hat is not None:  # read as the grid reads its thresholds
            cell = [self.lambda_hat]
            (lam,), faults = _thresholds("lambda_hat", cell)
            _raise_first([
                *faults, _value_fault([lam not in self.grid.lam], "lambda_hat", "one of the grid's thresholds", cell),
            ], 1)
            object.__setattr__(self, "lambda_hat", float(lam))

    @property
    def status(self) -> str:
        return INFEASIBLE if self.lambda_hat is None else FEASIBLE

    @property
    def feasible(self) -> bool:
        return self.lambda_hat is not None


@dataclass(frozen=True)
class Decision:
    """Predict-or-abstain outcome for one record, a row of `Decisions`.

    prediction is the predicted label (0 or 1) or -1 for abstention, as in
    the column; confidence is max(score, 1 - score) regardless of the outcome.
    """

    id: str
    prediction: int
    confidence: float

    @property
    def retained(self) -> bool:
        return self.prediction >= 0


class Decisions(ColumnTable):
    """Predict-or-abstain outcomes held as columns: ids, predictions and confidences.

    ids is an object array of unique nonempty strings; prediction is an int array,
    the predicted label (0 or 1) or -1 where the record is abstained on;
    confidence is a float array within [0.5, 1]. The constructor and
    `read_decisions` check them by one rule list, `_decision_faults`.
    Iteration gives a `Decision` per row, the columns' values as they are,
    -1 where the record is abstained on.
    """

    _columns = ("ids", "prediction", "confidence")
    _view = Decision

    def __init__(self, ids: Sequence[str], prediction, confidence) -> None:
        n = _columns(DomainError, ids=ids, prediction=prediction, confidence=confidence)
        columns = _object_column(ids), _coded(prediction, _OUTCOMES, -2, integral=True), _floats(confidence)
        _raise_first(_decision_faults(*columns, prediction, confidence), n)
        self._set(*columns)

    @property
    def retained(self) -> np.ndarray:
        """Mask of the decisions that predict rather than abstain."""
        return self.prediction >= 0


def _decision_faults(ids, prediction, confidence, prediction_cells, confidence_cells) -> list:
    """The decision row rules, in `_raise_first`'s form and cell order.

    prediction is -2, and confidence NaN, where a cell is not an integer or
    number; the messages quote the `*_cells` as the caller wrote them.
    """
    return [
        *_id_faults(ids),
        _cell_fault((prediction < -1) | (prediction > 1), "outcome", "0, 1 or abstain (-1 in code)",
                    prediction_cells, _as_text),
        _cell_fault(~((confidence >= 0.5) & (confidence <= 1.0)), "confidence", "a number within [0.5, 1]",
                    confidence_cells, _as_text),
    ]


def _thresholds(where: str, cells: Sequence, error: type[SelcertError] = DomainError) -> tuple[np.ndarray, list]:
    """Threshold cells read as `_floats` does, and their rules in `_raise_first`'s form, naming cell i
    `where.format(i)`: a number (no bool, text, list or NaN), then finite, within [0.5, 1] and ascending."""
    lam = _floats(cells)
    bad = ~((0.5 <= lam) & (lam <= 1.0) & np.append(True, lam[1:] > lam[:-1]))  # NaN fails
    return lam, [
        _value_fault(np.isnan(lam), where, "a number", cells, error),
        (_first(bad), lambda i: error("thresholds must be finite, within [0.5, 1] and strictly ascending: "
                                      f"{where.format(i)} is {_shown(lam[i])}")),
    ]


def _confidence_correct(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-record confidence max(w, 1 - w) and whether the 0.5-threshold prediction is right.

    scores and labels are checked arrays. The predicted label is 1 where score
    >= 0.5 (ties go to class 1), the rule `predicted_label` applies to one score.
    """
    return np.maximum(scores, 1.0 - scores), (scores >= 0.5) == labels


def confidence(score: float) -> float:
    """Confidence of a binary score: max(score, 1 - score), in [0.5, 1]."""
    score = check_real("score", score, 0, 1, closed=True)
    return max(score, 1.0 - score)


def predicted_label(score: float) -> int:
    """Label with the larger score mass; ties at 0.5 go to class 1."""
    return 1 if check_real("score", score, 0, 1, closed=True) >= 0.5 else 0


def selective_risk(data: Dataset, lam: float, beta: float) -> GridPoint:
    """Empirical selective risk and its upper bound at one threshold.

    Retains records with confidence >= lam (finite, within [0.5, 1], else a
    DomainError), counts wrong predictions among them, and bounds the true
    retained error rate at confidence 1 - beta. An empty retained set reports
    risk_hat = risk_plus = 1 (no evidence, so nothing can be certified there).
    """
    data = Dataset._given(data, "data")
    (lam,), faults = _thresholds("lam", [lam])
    _raise_first(faults, 1)
    beta = check_beta(beta)
    conf, correct = _confidence_correct(data.scores, data.labels)
    kept = conf >= lam
    n_at, errors_at = int(np.count_nonzero(kept)), int(np.count_nonzero(kept & ~correct))
    if n_at == 0:
        return GridPoint(float(lam), 0, 0, 1.0, 1.0)
    risk_plus = risk_upper_bound(BinomialTail(errors_at, n_at), beta).value
    return GridPoint(float(lam), n_at, errors_at, errors_at / n_at, risk_plus)


def certify_threshold(data: Dataset, config: RiskConfig) -> ThresholdCertificate:
    """Scan the observed confidence grid and certify the smallest safe threshold.

    The grid is the sorted set of distinct calibration confidences, so tied
    confidences enter and leave the retained set together. The certified
    threshold is the smallest eligible grid value (n_at >= config.min_count)
    such that every eligible grid value above it also has
    risk_plus <= config.alpha; if no grid value qualifies the certificate is
    infeasible. The threshold is decided on `_grid`'s counts by tail tests
    (`_decide`); the bounds of every grid point are then solved in one
    array call and recorded either way.
    """
    if len(Dataset._given(data, "data")) == 0:
        raise EmptyCalibrationError("cannot certify on an empty calibration set")
    # one row: its grid is the whole of `_grid`'s
    at, lam, n_at, errors = _grid(*_confidence_correct(data.scores[None], data.labels[None]))
    (decided,) = _decide(at // len(data), n_at, errors, config)
    risk_plus, _ = risk_upper_bounds(errors, n_at, config.beta)
    grid = CertificateGrid._unchecked(lam, n_at, errors, errors / n_at, risk_plus)
    return ThresholdCertificate(float(lam[decided]) if decided >= 0 else None, grid, config, len(data))


def _grid(conf: np.ndarray, correct: np.ndarray):
    """Each row's grid (at, lam, n_at, errors), from one sort: the package's one count of a retained set.

    conf and correct are (rows, n) arrays, one set of records per row. A
    row's grid is its distinct confidences, ascending; a point's n_at and
    errors count the records, and the mistakes, with conf >= lam: its run of
    ties and all above. The grids lie end to end, row after row; `at` is a
    point's run start in the flattened sorted rows, so `at // n` is its row.
    """
    n = conf.shape[1]
    order = np.argsort(conf, axis=1)
    conf = np.take_along_axis(conf, order, axis=1)
    # the mistakes at or above each sorted position of its row
    suffix_wrong = np.cumsum(np.take_along_axis(~correct, order, axis=1)[:, ::-1], axis=1)[:, ::-1]
    run_start = np.ones(conf.shape, dtype=bool)
    run_start[:, 1:] = conf[:, 1:] != conf[:, :-1]
    at = np.flatnonzero(run_start)
    return at, conf.ravel()[at], n - at % n, suffix_wrong.ravel()[at]


def _decide(row: np.ndarray, n_at: np.ndarray, errors: np.ndarray, config: RiskConfig) -> np.ndarray:
    """Each row's certified grid index, -1 for none, from `_grid`'s counts, with `row = at // n`.

    Every eligible point (n_at >= config.min_count) of every row gets one
    tail test, CDF(errors; n_at, alpha) <= beta, all in one call; a point's
    result depends on its own (errors, n_at) alone, so the rows stacked with
    it change nothing. A test passes exactly when the point's risk_plus <=
    alpha, up to the rounding the module docstring describes. A row's
    certified point is the lowest of its run of passes that reaches the top
    of its grid; it has none when its top eligible point fails or nothing in
    it is eligible. The point that blocks a row is the eligible one just
    below its certified point, or its top eligible point when it has none.
    """
    eligible = np.flatnonzero(n_at >= config.min_count)
    passes = tail_at_most(errors[eligible], n_at[eligible], config.alpha, config.beta)
    # each row's eligible points lie together in `eligible`, at [low, high)
    high = np.searchsorted(row[eligible], np.arange(int(row[-1]) + 1), side="right")
    low = np.append(0, high[:-1])
    # the last failure below each row's high, -1 for none, found by the count
    # of failures up to there; one in an earlier row leaves the row's run whole
    last_failure = np.append(-1, np.flatnonzero(~passes))[np.append(0, np.cumsum(~passes))[high]]
    first_pass = np.maximum(last_failure + 1, low)
    return np.where(first_pass < high, np.append(eligible, -1)[first_pass], -1)


def apply_certificate(data: Dataset, cert: ThresholdCertificate) -> Decisions:
    """Predict where confidence clears the certified threshold, abstain elsewhere."""
    data = Dataset._given(data, "data")
    if not cert.feasible:
        raise InfeasibleCertificateError(
            "certificate is infeasible; no threshold satisfies the risk budget"
        )
    conf, correct = _confidence_correct(data.scores, data.labels)
    # the predicted label is the true one where the prediction is right
    predicted = np.where(correct, data.labels, 1 - data.labels)
    return Decisions._unchecked(data.ids, np.where(conf >= cert.lambda_hat, predicted, -1), conf)


def retain_rate(decisions: Decisions) -> float:
    """Fraction of decisions that predict rather than abstain."""
    decisions = Decisions._given(decisions, "decisions")
    if not len(decisions):
        return 0.0
    return int(np.count_nonzero(decisions.retained)) / len(decisions)


# ---------------------------------------------------------------------------
# serialization

_GRID_KEYS = ("lambda", "n", "errors", "risk_hat", "risk_plus")  # the grid's columns, in order


def certificate_to_json(cert: ThresholdCertificate, manifest: dict | None = None) -> str:
    """Render a certificate as JSON.

    Thresholds (`lambda_hat` and each grid `lambda`) and the budget (alpha
    and beta) are written with repr, so a loaded certificate retains exactly
    the records the original does, under the same budget; derived
    statistics are written at 12 significant digits.
    """
    doc: dict[str, object] = {
        "status": cert.status,
        "lambda_hat": None if cert.lambda_hat is None else Exact(cert.lambda_hat),
        "alpha": Exact(cert.config.alpha),
        "beta": Exact(cert.config.beta),
        "min_count": cert.config.min_count,
        "calib_size": cert.calib_size,
        "grid": Table(dict(zip(_GRID_KEYS, cert.grid._values())), exact=["lambda"]),
    }
    if manifest is not None:
        doc["manifest"] = manifest
    return json_dumps(doc)


def _check_status(status, lambda_hat) -> None:
    """A certificate file's `status` word, which a certificate built in code does not hold: feasible or
    infeasible, and feasible exactly when the file's `lambda_hat` is present."""
    _check_kind("status", status, str, "feasible or infeasible", (FEASIBLE, INFEASIBLE))
    if (lambda_hat is not None) != (status == FEASIBLE):
        raise DomainError("lambda_hat must be present exactly when status is feasible")


def certificate_from_json(text: str) -> ThresholdCertificate:
    """Load a certificate from its JSON text, checked by its constructors; any fault of the text is a SchemaError.

    The loader itself checks only what JSON text needs: the parse, a
    document that is an object, a grid that is a list of objects, and the
    `status` word (`_check_status`), after the grid's rules and before the
    certificate's. Every other field goes as it was read to `RiskConfig`,
    `CertificateGrid` and `ThresholdCertificate`, whose rules name the first
    bad grid entry and, within it, the first bad field. text must be a str:
    bytes are not read here, as a file's bytes are decoded by one rule,
    `read_text`'s.
    """
    try:
        doc = json.loads(_check_kind("text", text, str, "a str"))
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit
        raise SchemaError(f"invalid certificate JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("malformed certificate: the document must be an object")
    try:
        config = RiskConfig(doc["alpha"], doc["beta"], doc.get("min_count", 1))
        entries = doc["grid"]
        if not isinstance(entries, list):
            raise SchemaError("malformed certificate: grid must be a list")
        objects = _first(~_types_in(entries, dict))  # the grid's rules name any bad entry before it
        grid = CertificateGrid(*([entry.get(key) for entry in entries[:objects]] for key in _GRID_KEYS))
        if objects < len(entries):
            raise SchemaError(f"malformed certificate: grid[{objects}] must be an object")
        # every field is read before the status rule runs, so a missing one is named first
        status, lambda_hat, calib_size = doc["status"], doc["lambda_hat"], doc["calib_size"]
        _check_status(status, lambda_hat)
        return ThresholdCertificate(lambda_hat, grid, config, calib_size)
    except (DomainError, KeyError) as exc:  # a rule of the certificate's own types, or a missing field
        raise SchemaError(f"malformed certificate: {exc}") from None


def load_certificate(path: str | Path) -> ThresholdCertificate:
    return certificate_from_json(read_text(path))


# a prediction from its outcome's CSV text, or from an integer
_OUTCOMES = {"abstain": -1, "0": 0, "1": 1, -1: -1, 0: 0, 1: 1}
_OUTCOME_TEXT = np.array(["abstain", "0", "1"], dtype=object)  # at prediction + 1


def write_decisions(decisions: Decisions, path: str | Path) -> None:
    """Write decisions as CSV with columns id,outcome,confidence."""
    decisions = Decisions._given(decisions, "decisions")
    write_text(path, csv_text(Table({
        "id": decisions.ids,
        "outcome": _OUTCOME_TEXT[decisions.prediction + 1].tolist(),
        "confidence": decisions.confidence,
    })))


def read_decisions(path: str | Path) -> Decisions:
    """Load a decisions CSV, rejecting the whole file on any bad row.

    Columns are checked vectorised, by the rules `Decisions` checks. The
    error names the first bad row and, within it, the first bad cell, in this
    order: field count, id (nonempty, not repeated), outcome (0, 1 or
    abstain), confidence (a number within [0.5, 1]).
    """
    header, columns, n, width = csv_columns(read_text(path))
    if header != ["id", "outcome", "confidence"]:
        raise SchemaError("decisions header must be id,outcome,confidence")
    ids, outcomes, conf_text = columns
    columns = _object_column(ids), _coded(outcomes, _OUTCOMES, -2), _float_cells(conf_text)
    _raise_first([
        (n, lambda i: SchemaError(f"expected 3 fields, got {width}", row=i + 1)),
        *_decision_faults(*columns, outcomes, conf_text),
    ], n + (width is not None))
    return Decisions._unchecked(*columns)
