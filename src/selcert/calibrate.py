"""Abstention-threshold certification and predict-or-abstain decisions.

The confidence of a binary score w is max(w, 1 - w). Given a calibration set
and a risk budget alpha, the certifier scans the grid of observed confidence
values and picks the smallest threshold whose entire upper grid has an exact
binomial upper risk bound at or below alpha (confidence level 1 - beta per
grid point). Applying a feasible certificate keeps predictions at or above
the threshold and abstains below it.

Thin grid tails carry almost no evidence, so their bounds are close to 1 no
matter how good the classifier is. `RiskConfig.min_count` sets how many
retained calibration points a grid value needs before it can constrain, or
be picked as, the certified threshold; the default of 1 applies no floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binom import BinomialTail, risk_upper_bound
from .errors import (
    DatasetIOError,
    DomainError,
    EmptyCalibrationError,
    InfeasibleCertificateError,
    SchemaError,
)
from .jsonio import Exact, format_number
from .jsonio import dumps as json_dumps
from .records import Dataset, csv_rows, read_text, write_csv_rows

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class RiskConfig:
    """Risk budget alpha, bound confidence parameter beta, and evidence floor."""

    alpha: float
    beta: float
    min_count: int = 1

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or math.isnan(v):
                raise DomainError(f"{name} must be a number, got {v!r}")
            if not (0.0 < float(v) < 1.0):
                raise DomainError(f"{name} must be strictly inside (0, 1), got {v!r}")
            object.__setattr__(self, name, float(v))
        if not isinstance(self.min_count, int) or self.min_count < 1:
            raise DomainError(f"min_count must be an integer >= 1, got {self.min_count!r}")


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


@dataclass(frozen=True)
class ThresholdCertificate:
    """Outcome of a certification scan over one calibration set."""

    status: str
    lambda_hat: float | None
    grid: tuple[GridPoint, ...]
    config: RiskConfig
    calib_size: int

    def __post_init__(self) -> None:
        if self.status not in (FEASIBLE, INFEASIBLE):
            raise DomainError(f"status must be feasible or infeasible, got {self.status!r}")
        if (self.lambda_hat is not None) != (self.status == FEASIBLE):
            raise DomainError("lambda_hat must be present exactly when status is feasible")
        object.__setattr__(self, "grid", tuple(self.grid))
        lams = [pt.lam for pt in self.grid]
        if lams != sorted(set(lams)):
            raise DomainError("grid must be strictly ascending in lambda")

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


@dataclass(frozen=True)
class Decision:
    """Predict-or-abstain outcome for one record.

    prediction is the predicted label (0 or 1) or None for abstention;
    confidence is max(score, 1 - score) regardless of the outcome.
    """

    id: str
    prediction: int | None
    confidence: float

    @property
    def retained(self) -> bool:
        return self.prediction is not None

    @property
    def outcome(self) -> str:
        return "abstain" if self.prediction is None else str(self.prediction)


def _confidence_correct(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-record confidence max(w, 1 - w) and whether the 0.5-threshold prediction is right.

    The predicted label is 1 where score >= 0.5 (ties go to class 1), the
    rule `predicted_label` applies to one score.
    """
    scores = np.asarray(scores, dtype=float)
    return np.maximum(scores, 1.0 - scores), (scores >= 0.5) == np.asarray(labels)


def confidence(score: float) -> float:
    """Confidence of a binary score: max(score, 1 - score), in [0.5, 1]."""
    if isinstance(score, bool) or not isinstance(score, (int, float, np.floating)):
        raise DomainError(f"score must be a number, got {score!r}")
    score = float(score)
    if math.isnan(score) or not (0.0 <= score <= 1.0):
        raise DomainError(f"score must be within [0, 1], got {score!r}")
    return max(score, 1.0 - score)


def predicted_label(score: float) -> int:
    """Label with the larger score mass; ties at 0.5 go to class 1."""
    return 1 if score >= 0.5 else 0


def selective_risk(data: Dataset, lam: float, beta: float) -> GridPoint:
    """Empirical selective risk and its upper bound at one threshold.

    Retains records with confidence >= lam, counts wrong predictions among
    them, and bounds the true retained error rate at confidence 1 - beta.
    An empty retained set reports risk_hat = risk_plus = 1 (no evidence, so
    nothing can be certified there).
    """
    conf, correct = _confidence_correct(data.scores(), data.labels())
    kept = conf >= lam
    n_at = int(kept.sum())
    errors_at = int((kept & ~correct).sum())
    if n_at == 0:
        return GridPoint(lam=float(lam), n_at=0, errors_at=0, risk_hat=1.0, risk_plus=1.0)
    bound = risk_upper_bound(BinomialTail(errors_at, n_at), beta)
    return GridPoint(
        lam=float(lam),
        n_at=n_at,
        errors_at=errors_at,
        risk_hat=errors_at / n_at,
        risk_plus=bound.value,
    )


def certify_threshold(data: Dataset, config: RiskConfig) -> ThresholdCertificate:
    """Scan the observed confidence grid and certify the smallest safe threshold.

    The grid is the sorted set of distinct calibration confidences, so tied
    confidences enter and leave the retained set together. The certified
    threshold is the smallest eligible grid value (n_at >= config.min_count)
    such that every eligible grid value above it also has
    risk_plus <= config.alpha; if no grid value qualifies the certificate is
    infeasible. All grid points are recorded either way.
    """
    if len(data) == 0:
        raise EmptyCalibrationError("cannot certify on an empty calibration set")
    conf, correct = _confidence_correct(data.scores(), data.labels())
    order = np.argsort(conf, kind="stable")
    suffix_wrong = np.cumsum(~correct[order][::-1])[::-1]
    grid_values, first_index = np.unique(conf[order], return_index=True)

    n = len(data)
    points: list[GridPoint] = []
    for value, n_at, errors_at in zip(
        grid_values.tolist(), (n - first_index).tolist(), suffix_wrong[first_index].tolist()
    ):
        bound = risk_upper_bound(BinomialTail(errors_at, n_at), config.beta)
        points.append(
            GridPoint(
                lam=value,
                n_at=n_at,
                errors_at=errors_at,
                risk_hat=errors_at / n_at,
                risk_plus=bound.value,
            )
        )

    lambda_hat: float | None = None
    for point in reversed(points):
        if point.n_at < config.min_count:
            continue
        if point.risk_plus > config.alpha:
            break
        lambda_hat = point.lam

    return ThresholdCertificate(
        status=FEASIBLE if lambda_hat is not None else INFEASIBLE,
        lambda_hat=lambda_hat,
        grid=tuple(points),
        config=config,
        calib_size=n,
    )


def apply_certificate(data: Dataset, cert: ThresholdCertificate) -> list[Decision]:
    """Predict where confidence clears the certified threshold, abstain elsewhere."""
    if not cert.feasible:
        raise InfeasibleCertificateError(
            "certificate is infeasible; no threshold satisfies the risk budget"
        )
    labels = data.labels()
    conf, correct = _confidence_correct(data.scores(), labels)
    # the predicted label is the true one where the prediction is right
    predicted = np.where(correct, labels, 1 - labels).astype(object)
    prediction = np.where(conf >= cert.lambda_hat, predicted, None)
    return list(map(Decision, data.ids(), prediction.tolist(), conf.tolist()))


def retain_rate(decisions: list[Decision]) -> float:
    """Fraction of decisions that predict rather than abstain."""
    if not decisions:
        return 0.0
    return sum(1 for d in decisions if d.retained) / len(decisions)


# ---------------------------------------------------------------------------
# serialization

def certificate_to_json(cert: ThresholdCertificate, manifest: dict | None = None) -> str:
    """Render a certificate as JSON.

    Thresholds (`lambda_hat` and each grid `lambda`) are written with repr,
    so a loaded certificate retains exactly the records the original does;
    derived statistics are written at 12 significant digits.
    """
    doc: dict[str, object] = {
        "status": cert.status,
        "lambda_hat": None if cert.lambda_hat is None else Exact(cert.lambda_hat),
        "alpha": cert.config.alpha,
        "beta": cert.config.beta,
        "min_count": cert.config.min_count,
        "calib_size": cert.calib_size,
        "grid": [
            {
                "lambda": Exact(pt.lam),
                "n": pt.n_at,
                "errors": pt.errors_at,
                "risk_hat": pt.risk_hat,
                "risk_plus": pt.risk_plus,
            }
            for pt in cert.grid
        ],
    }
    if manifest is not None:
        doc["manifest"] = manifest
    return json_dumps(doc)


def certificate_from_json(text: str) -> ThresholdCertificate:
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid certificate JSON: {exc}") from None
    try:
        config = RiskConfig(
            alpha=doc["alpha"], beta=doc["beta"], min_count=int(doc.get("min_count", 1))
        )
        grid = tuple(
            GridPoint(
                lam=float(pt["lambda"]),
                n_at=int(pt["n"]),
                errors_at=int(pt["errors"]),
                risk_hat=float(pt["risk_hat"]),
                risk_plus=float(pt["risk_plus"]),
            )
            for pt in doc["grid"]
        )
        lambda_hat = doc["lambda_hat"]
        return ThresholdCertificate(
            status=doc["status"],
            lambda_hat=None if lambda_hat is None else float(lambda_hat),
            grid=grid,
            config=config,
            calib_size=int(doc["calib_size"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed certificate: {exc!r}") from None


def load_certificate(path: str | Path) -> ThresholdCertificate:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetIOError(f"cannot read {path}: {exc}") from exc
    return certificate_from_json(text)


def write_decisions(decisions: list[Decision], path: str | Path) -> None:
    """Write decisions as CSV with columns id,outcome,confidence."""
    columns = (
        [d.id for d in decisions],
        [d.outcome for d in decisions],
        [format_number(d.confidence) for d in decisions],
    )
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_csv_rows(handle, ["id", "outcome", "confidence"], columns)
    except OSError as exc:
        raise DatasetIOError(f"cannot write {path}: {exc}") from exc


def read_decisions(path: str | Path) -> list[Decision]:
    rows = csv_rows(read_text(path))
    if not rows or rows[0] != ["id", "outcome", "confidence"]:
        raise SchemaError("decisions header must be id,outcome,confidence")
    decisions: list[Decision] = []
    seen: set[str] = set()
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 3:
            raise SchemaError(f"expected 3 fields, got {len(row)}", row=i)
        rec_id, outcome, conf_text = row
        if not rec_id or rec_id in seen:
            raise SchemaError(f"bad or duplicate id {rec_id!r}", row=i, column="id")
        seen.add(rec_id)
        if outcome == "abstain":
            prediction = None
        elif outcome in ("0", "1"):
            prediction = int(outcome)
        else:
            raise SchemaError(f"outcome must be 0, 1 or abstain: {outcome!r}", row=i, column="outcome")
        try:
            conf = float(conf_text)
        except ValueError:
            raise SchemaError(f"bad confidence {conf_text!r}", row=i, column="confidence") from None
        if not (0.5 <= conf <= 1.0):
            raise SchemaError(f"confidence out of [0.5, 1]: {conf_text!r}", row=i, column="confidence")
        decisions.append(Decision(id=rec_id, prediction=prediction, confidence=conf))
    return decisions
