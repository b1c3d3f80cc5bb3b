"""Coverage/accuracy tradeoff curves and Monte Carlo guarantee validation.

validate_guarantee checks the marginal selective-accuracy guarantee: over
repeated calibration draws, the fraction of feasible certificates whose test
selective accuracy falls below 1 - alpha should stay near or below beta.
Each trial derives its own seed substream, so trials are reproducible
individually; they run one after another in a single thread. A trial draws
its arrays with `records._draw`, the draw behind `generate_synthetic`, so it
sees that call's records without building a Dataset, and it counts retained
records with `calibrate._retained_counts`, as the tradeoff curve does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .calibrate import RiskConfig, _confidence_correct, _retained_counts, _scan, _threshold_fault, _value_fault
from .errors import DomainError, EmptyInputError, UnsortedLambdasError, check_int
from .jsonio import Table
from .records import ColumnTable, Dataset, SyntheticScorerSpec, _draw, _first, _floats, _object_column, _raise_first
from .rng import substream_seed


@dataclass(frozen=True)
class TradeoffPoint:
    """Coverage and selective accuracy at one threshold (accuracy None when nothing is kept)."""

    lam: float
    fraction_kept: float
    selective_accuracy: float | None


class TradeoffCurve(ColumnTable):
    """Tradeoff points over a strictly increasing threshold grid, held as columns.

    lam and fraction_kept are float arrays, fraction_kept non-increasing
    within [0, 1]; selective_accuracy is an object array, a number within
    [0, 1] or None where nothing is kept. They are validated together,
    vectorised, when the curve is built, from TradeoffPoints or with
    `from_columns`, and are read-only afterwards. `points` gives
    TradeoffPoint views, built on first use.
    """

    _columns = ("lam", "fraction_kept", "selective_accuracy")
    _view = TradeoffPoint

    def __init__(self, points: Iterable[TradeoffPoint] = ()) -> None:
        self._set(*self._checked(*self._columns_of(tuple(points))))

    @classmethod
    def from_columns(cls, lam, fraction_kept, selective_accuracy) -> "TradeoffCurve":
        """Build a curve from equal-length columns, validated in one pass."""
        return cls._unchecked(*cls._checked(lam, fraction_kept, selective_accuracy))

    @staticmethod
    def _checked(lam, fraction_kept, selective_accuracy) -> tuple:
        cells = lam, fraction_kept, _object_column(selective_accuracy)
        if len(set(map(len, cells))) > 1:
            raise DomainError("curve columns must all have one length")
        accuracy = _floats(np.where(np.equal(cells[2], None), 0.0, cells[2]))
        lam, fraction_kept = _floats(lam), _floats(fraction_kept)
        _raise_first([
            _threshold_fault("curve lambda", lam, UnsortedLambdasError),
            _value_fault(~((fraction_kept >= 0.0) & (fraction_kept <= 1.0)), "fraction_kept[{}]",
                         "a number within [0, 1]", cells[1]),
            (_first(fraction_kept[1:] > fraction_kept[:-1]) + 1,
             lambda i: DomainError("fraction_kept must be non-increasing in lambda")),
            _value_fault(~((accuracy >= 0.0) & (accuracy <= 1.0)), "selective_accuracy[{}]",
                         "a number within [0, 1] or None", cells[2]),
        ], len(lam))
        return lam, fraction_kept, cells[2]

    points = property(ColumnTable._rows, doc="The rows as TradeoffPoints.")


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

    The grid must be nonempty and strictly increasing within [0.5, 1], else
    an UnsortedLambdasError; by default it is the sorted set of distinct
    confidences observed in `data`. Selective accuracy is None at thresholds
    that keep nothing.
    """
    if len(data) == 0:
        raise EmptyInputError("tradeoff curve needs at least one record")
    conf, correct = _confidence_correct(data.scores(), data.labels())
    grid = np.unique(conf) if lambdas is None else np.asarray(list(lambdas), dtype=float)
    if grid.size == 0:
        raise UnsortedLambdasError("lambda grid must be nonempty")
    _raise_first([_threshold_fault("curve lambda", grid, UnsortedLambdasError)], grid.size)

    n_kept, n_wrong = _retained_counts(conf, correct, grid)
    with np.errstate(invalid="ignore"):
        accuracy = (n_kept - n_wrong) / n_kept
    # the grid is checked; the fractions are right by construction
    return TradeoffCurve._unchecked(grid, n_kept / len(data), np.where(n_kept > 0, accuracy, None))


def _run_trial(
    trial_index: int,
    spec: SyntheticScorerSpec,
    config: RiskConfig,
    n_calib: int,
    n_test: int,
    seed: int,
) -> GuaranteeTrial:
    trial_seed = substream_seed(seed, trial_index)
    calib = _confidence_correct(*_draw(spec, n_calib, substream_seed(trial_seed, 1)))
    # the threshold certify_threshold would certify, without solving its bounds
    lambda_hat = _scan(*calib, config)[3]
    if lambda_hat is None:
        return GuaranteeTrial(trial_index, None, None, False)
    test = _confidence_correct(*_draw(spec, n_test, substream_seed(trial_seed, 2)))
    n_kept, n_wrong = map(int, _retained_counts(*test, lambda_hat))
    if n_kept == 0:
        return GuaranteeTrial(trial_index, lambda_hat, None, False)
    accuracy = (n_kept - n_wrong) / n_kept
    violated = accuracy < 1.0 - config.alpha
    return GuaranteeTrial(trial_index, lambda_hat, accuracy, violated)


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
    contributes the score distribution; its own n and seed fields are not
    read. Results are ordered by trial index.

    `max_workers` is accepted and validated but has no effect: trials run in
    one thread, since a thread pool measured slower than one thread.
    """
    for name, value in (("trials", trials), ("n_calib", n_calib), ("n_test", n_test),
                        ("max_workers", max_workers)):
        check_int(name, value, 1)
    return [_run_trial(t, spec, config, n_calib, n_test, seed) for t in range(trials)]


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

def curve_to_doc(curve: TradeoffCurve) -> Table:
    return Table(dict(zip(("lambda", "fraction_kept", "selective_accuracy"), curve._values())))


def trials_to_doc(trials: list[GuaranteeTrial]) -> Table:
    return Table({
        "trial": [t.trial_index for t in trials],
        "lambda_hat": [t.lambda_hat for t in trials],
        "test_selective_accuracy": [t.test_selective_accuracy for t in trials],
        "violated": [t.violated for t in trials],
    })
