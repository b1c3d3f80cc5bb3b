"""Coverage/accuracy tradeoff curves and Monte Carlo guarantee validation.

validate_guarantee checks the marginal selective-accuracy guarantee: over
repeated calibration draws, the fraction of feasible certificates whose test
selective accuracy falls below 1 - alpha should stay near or below beta.
Each trial derives its own seed substream, so trials are reproducible
individually and can run across threads without changing the output.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .calibrate import RiskConfig, ThresholdCertificate, _confidence_correct, certify_threshold
from .errors import DomainError, EmptyInputError, UnsortedLambdasError
from .jsonio import format_number
from .records import Dataset, SyntheticScorerSpec, generate_synthetic
from .rng import substream_seed


@dataclass(frozen=True)
class TradeoffPoint:
    """Coverage and selective accuracy at one threshold (accuracy None when nothing is kept)."""

    lam: float
    fraction_kept: float
    selective_accuracy: float | None


@dataclass(frozen=True)
class TradeoffCurve:
    """Tradeoff points over a strictly increasing threshold grid."""

    points: tuple[TradeoffPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        lams = [p.lam for p in self.points]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise UnsortedLambdasError("curve points must be strictly increasing in lambda")
        kept = [p.fraction_kept for p in self.points]
        if any(b > a for a, b in zip(kept, kept[1:])):
            raise DomainError("fraction_kept must be non-increasing in lambda")


@dataclass(frozen=True)
class GuaranteeTrial:
    """One calibrate-then-test draw. lambda_hat is None when certification failed."""

    trial_index: int
    lambda_hat: float | None
    test_selective_accuracy: float | None
    violated: bool

    @property
    def feasible(self) -> bool:
        return self.lambda_hat is not None


def tradeoff_curve(data: Dataset, lambdas=None) -> TradeoffCurve:
    """Fraction kept and selective accuracy at each threshold in `lambdas`.

    The grid must be strictly increasing within [0.5, 1]; by default it is the
    sorted set of distinct confidences observed in `data`. Selective accuracy
    is None at thresholds that keep nothing.
    """
    if len(data) == 0:
        raise EmptyInputError("tradeoff curve needs at least one record")
    conf, correct = _confidence_correct(data.scores(), data.labels())
    if lambdas is None:
        grid = np.unique(conf)
    else:
        grid = np.asarray(list(lambdas), dtype=float)
        if grid.size == 0:
            raise UnsortedLambdasError("lambda grid must be nonempty")
        if np.any(~np.isfinite(grid)) or grid[0] < 0.5 or grid[-1] > 1.0:
            raise UnsortedLambdasError("lambda grid must lie within [0.5, 1]")
        if np.any(np.diff(grid) <= 0):
            raise UnsortedLambdasError("lambda grid must be strictly increasing")

    order = np.argsort(conf, kind="stable")
    suffix_correct = np.append(np.cumsum(correct[order][::-1])[::-1], 0)
    n = len(data)
    start = np.searchsorted(conf[order], grid, side="left")
    n_kept = n - start
    with np.errstate(invalid="ignore"):
        accuracy = suffix_correct[start] / n_kept
    accuracy = np.where(n_kept > 0, accuracy, None)
    points = map(TradeoffPoint, grid.tolist(), (n_kept / n).tolist(), accuracy.tolist())
    return TradeoffCurve(points=tuple(points))


def _run_trial(
    trial_index: int,
    spec: SyntheticScorerSpec,
    config: RiskConfig,
    n_calib: int,
    n_test: int,
    seed: int,
) -> GuaranteeTrial:
    trial_seed = substream_seed(seed, trial_index)
    calib = generate_synthetic(replace(spec, n=n_calib, seed=substream_seed(trial_seed, 1)))
    test = generate_synthetic(replace(spec, n=n_test, seed=substream_seed(trial_seed, 2)))
    cert: ThresholdCertificate = certify_threshold(calib, config)
    if not cert.feasible:
        return GuaranteeTrial(trial_index, None, None, False)
    conf, correct = _confidence_correct(test.scores(), test.labels())
    kept = conf >= cert.lambda_hat
    n_kept = int(kept.sum())
    if n_kept == 0:
        return GuaranteeTrial(trial_index, cert.lambda_hat, None, False)
    accuracy = int(correct[kept].sum()) / n_kept
    violated = accuracy < 1.0 - config.alpha
    return GuaranteeTrial(trial_index, cert.lambda_hat, accuracy, violated)


def validate_guarantee(
    spec: SyntheticScorerSpec,
    config: RiskConfig,
    trials: int,
    n_calib: int,
    n_test: int,
    seed: int,
    max_workers: int = 1,
) -> list[GuaranteeTrial]:
    """Repeatedly draw calibration/test sets, certify, and check the guarantee.

    Trial t derives its data from substream t of `seed` (fresh calibration and
    test draws each time), certifies on the calibration draw, and measures
    selective accuracy of the certified threshold on the test draw. `spec`
    contributes the score distribution; its own n and seed fields are replaced
    per trial. Results are ordered by trial index regardless of max_workers.
    """
    for name, value in (("trials", trials), ("n_calib", n_calib), ("n_test", n_test)):
        if not isinstance(value, int) or value < 1:
            raise DomainError(f"{name} must be a positive integer, got {value!r}")
    if not isinstance(max_workers, int) or max_workers < 1:
        raise DomainError(f"max_workers must be a positive integer, got {max_workers!r}")

    def run(t: int) -> GuaranteeTrial:
        return _run_trial(t, spec, config, n_calib, n_test, seed)

    if max_workers == 1:
        return [run(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run, range(trials)))


def summarize_trials(trials: list[GuaranteeTrial]) -> dict:
    """Violation rate over feasible trials (None when no trial was feasible)."""
    n_feasible = sum(1 for t in trials if t.feasible)
    n_violated = sum(1 for t in trials if t.violated)
    return {
        "n_trials": len(trials),
        "n_feasible": n_feasible,
        "n_violated": n_violated,
        "violation_rate": (n_violated / n_feasible) if n_feasible > 0 else None,
    }


# ---------------------------------------------------------------------------
# serialization

def curve_to_csv_text(curve: TradeoffCurve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda", "fraction_kept", "selective_accuracy"])
    for p in curve.points:
        writer.writerow([
            format_number(p.lam),
            format_number(p.fraction_kept),
            "" if p.selective_accuracy is None else format_number(p.selective_accuracy),
        ])
    return buf.getvalue()


def curve_to_doc(curve: TradeoffCurve) -> list[dict]:
    return [
        {
            "lambda": p.lam,
            "fraction_kept": p.fraction_kept,
            "selective_accuracy": p.selective_accuracy,
        }
        for p in curve.points
    ]


def trials_to_csv_text(trials: list[GuaranteeTrial]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "lambda_hat", "test_selective_accuracy", "violated"])
    for t in trials:
        writer.writerow([
            str(t.trial_index),
            "" if t.lambda_hat is None else format_number(t.lambda_hat),
            "" if t.test_selective_accuracy is None else format_number(t.test_selective_accuracy),
            "true" if t.violated else "false",
        ])
    return buf.getvalue()


def trials_to_doc(trials: list[GuaranteeTrial]) -> list[dict]:
    return [
        {
            "trial": t.trial_index,
            "lambda_hat": t.lambda_hat,
            "test_selective_accuracy": t.test_selective_accuracy,
            "violated": t.violated,
        }
        for t in trials
    ]
