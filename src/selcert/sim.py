"""Coverage/accuracy tradeoff curves and Monte Carlo guarantee validation.

validate_guarantee estimates how often the marginal selective-accuracy
guarantee fails over repeated calibration draws. It counts a violation when
a feasible certificate's selective accuracy on that trial's *test sample*
falls below 1 - alpha, so test-sample noise adds to the count and the rate
overstates the guarantee's failure rate, more so as n_calib grows: at
n_calib 20000 one measurement gave 0.350 against a population rate of 0.090
(ROADMAP item 1, whose fix judges each trial on the exact population risk).
Each trial derives its own seed substream, so trials are reproducible
individually. They run a chunk at a time, in one thread: each trial draws
its arrays with `records._draw`, the draw behind `generate_synthetic`, so it
sees that call's records without building a Dataset; the chunk's
calibration draws go as stacked rows through one `calibrate._grid` and one
`calibrate._decide`, the decision behind `certify_threshold`; and each
feasible trial's test draw is counted at its threshold with one comparison,
conf >= lam. The trials come back as columns, a `GuaranteeTrials` table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import RiskConfig, _confidence_correct, _decide, _grid, _thresholds
from .errors import EmptyInputError, UnsortedLambdasError
from .jsonio import Table
from .records import (ColumnTable, Dataset, SyntheticScorerSpec, _allocated, _columns, _draw, _raise_first,
                      check_int)
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
    [0, 1] or None where nothing is kept. The package only produces a curve,
    so it has no checked constructor: `tradeoff_curve` builds it with
    `_unchecked`, from counts that obey these rules by construction, and its
    columns are read-only afterwards. Iteration, and `points`, give a
    TradeoffPoint per row, built on each pass.
    """

    _columns = ("lam", "fraction_kept", "selective_accuracy")
    _view = TradeoffPoint

    points = property(tuple, doc="The rows as a tuple of TradeoffPoints.")


class GuaranteeTrials(ColumnTable):
    """Simulate's trials held as columns, one row per trial, in trial order.

    trial is an int array of trial indices; lambda_hat and
    test_selective_accuracy are object arrays, a number or None where the
    trial certified nothing or kept no test record; violated is a bool
    array. The package only produces the trials: `validate_guarantee` builds
    them with `_unchecked`. Like a `Dataset`, they are read by their
    columns alone and cannot be iterated.
    """

    _columns = ("trial", "lambda_hat", "test_selective_accuracy", "violated")
    __iter__ = None  # type: ignore[assignment]


def tradeoff_curve(data: Dataset, lambdas=None) -> TradeoffCurve:
    """Fraction kept and selective accuracy at each threshold in `lambdas`.

    A grid the caller passes must be a nonempty column of thresholds
    (`records._columns`), else an UnsortedLambdasError. The counts are
    `calibrate._grid`'s, and by default so is the grid, the certifier's
    grid of `data`. Selective accuracy is None where nothing is kept.
    """
    if len(Dataset._given(data, "data")) == 0:
        raise EmptyInputError("tradeoff curve needs at least one record")
    conf, correct = _confidence_correct(data.scores, data.labels)
    _, grid, n_kept, n_wrong = _grid(conf[None], correct[None])
    if lambdas is not None:
        if not _columns(UnsortedLambdasError, lambdas=lambdas):
            raise UnsortedLambdasError("lambda grid must be nonempty")
        lam, faults = _thresholds("lambda[{}]", lambdas, UnsortedLambdasError)
        _raise_first(faults, lam.size)
        # a threshold keeps what the lowest grid point at or above it keeps, and nothing past the top
        start = np.searchsorted(grid, lam, side="left")
        grid, n_kept, n_wrong = lam, np.append(n_kept, 0)[start], np.append(n_wrong, 0)[start]
    with np.errstate(invalid="ignore"):
        accuracy = (n_kept - n_wrong) / n_kept
    # the grid is checked; the fractions are right by construction
    return TradeoffCurve._unchecked(grid, n_kept / len(data), np.where(n_kept > 0, accuracy, None))


# calibration plus test records one chunk of trials holds at most, unless a
# single trial is larger and runs alone: bounds memory, never results
_CHUNK_RECORDS = 1 << 14


def validate_guarantee(
    spec: SyntheticScorerSpec,
    config: RiskConfig,
    trials: int,
    n_calib: int,
    n_test: int,
    seed: int,
    max_workers: int = 1,
) -> GuaranteeTrials:
    """Repeatedly draw calibration/test sets, certify, and check the guarantee.

    Trial t derives its data from substream t of `seed` (fresh calibration and
    test draws each time), certifies on the calibration draw, and measures
    selective accuracy of the certified threshold on the test draw. A trial
    is `violated` when that test-sample accuracy is below 1 - alpha, which
    judges the guarantee through test noise, not on the population risk (see
    the module docstring). `spec` contributes the score distribution; its
    own n and seed fields are not read. Rows are ordered by trial index.

    Trials run a chunk at a time (`_chunk`), as many as fit in
    `_CHUNK_RECORDS` calibration plus test records; a trial's result depends
    on its seed and index alone, never on the chunking. `max_workers` is
    accepted and validated but has no effect: trials run in one thread,
    since a thread pool measured slower than one thread.
    """
    for name, value in (("trials", trials), ("n_calib", n_calib), ("n_test", n_test),
                        ("max_workers", max_workers)):
        check_int(name, value, 1)
    seed = check_int("seed", seed, float("-inf"))
    size = max(1, _CHUNK_RECORDS // (n_calib + n_test))
    # the result columns and one chunk's draws, which every chunk reuses, are allocated before anything
    # is drawn, so a size that memory cannot hold is a DomainError at once
    columns = [_allocated("trials", trials, trials, dtype) for dtype in (np.int64, object, object, bool)]
    calib = [_allocated("n_calib", n_calib, (size, n_calib), dtype) for dtype in (float, np.int64)]
    test = [_allocated("n_test", n_test, (size, n_test), dtype) for dtype in (float, np.int64)]
    for first in range(0, trials, size):
        stop = min(first + size, trials)
        for column, values in zip(columns, _chunk(range(first, stop), spec, config, seed, calib, test)):
            column[first:stop] = values
    return GuaranteeTrials._unchecked(*columns)


def _chunk(indices: range, spec: SyntheticScorerSpec, config: RiskConfig, seed: int,
           calib: list[np.ndarray], test: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The columns of the trials at `indices`: one decision over their calibration draws, then test draws.

    The draws go into the first rows of the `calib` and `test` scores and
    labels, whose width is n_calib or n_test. `_decide` decides each trial's
    threshold on `_grid`'s counts as `certify_threshold` does, without
    solving bounds. A test set keeps the records with conf >= lam, the
    comparison `apply_certificate` makes. Accuracy is None, and the trial
    not violated, where nothing is kept.
    """
    trial_seeds = [substream_seed(seed, t) for t in indices]
    at, grid, n_at, errors = _grid(*_draws(spec, [substream_seed(s, 1) for s in trial_seeds], *calib))
    decided = _decide(at // calib[0].shape[1], n_at, errors, config)
    feasible = decided >= 0
    lam = grid[decided]  # read only where feasible
    conf, correct = _draws(spec, [substream_seed(trial_seeds[i], 2) for i in np.flatnonzero(feasible)], *test)
    kept = conf >= lam[feasible, None]
    # kept and wrong test records per trial, none where nothing is tested
    n_kept, n_wrong = np.zeros((2, len(indices)), dtype=np.int64)
    n_kept[feasible], n_wrong[feasible] = np.count_nonzero(kept, axis=1), np.count_nonzero(kept & ~correct, axis=1)
    with np.errstate(invalid="ignore"):
        accuracy = (n_kept - n_wrong) / n_kept  # NaN where nothing is kept
    return (np.arange(indices.start, indices.stop), np.where(feasible, lam, None),
            np.where(n_kept > 0, accuracy, None), (n_kept > 0) & (accuracy < 1.0 - config.alpha))


def _draws(spec: SyntheticScorerSpec, seeds: list[int], scores: np.ndarray,
           labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Confidence and correctness of the records drawn from each seed by `records._draw`, one row per seed.

    Each seed draws a row's worth of records into the next row of `scores` and `labels`.
    """
    scores, labels = scores[: len(seeds)], labels[: len(seeds)]
    for row, trial_seed in enumerate(seeds):
        scores[row], labels[row] = _draw(spec, scores.shape[1], trial_seed)
    return _confidence_correct(scores, labels)


def summarize_trials(trials: GuaranteeTrials) -> dict:
    """Violation rate over feasible trials (None when no trial was feasible)."""
    trials = GuaranteeTrials._given(trials, "trials")
    n_feasible = int(np.count_nonzero(np.not_equal(trials.lambda_hat, None)))
    n_violated = int(np.count_nonzero(trials.violated))
    return {
        "n_trials": len(trials),
        "n_feasible": n_feasible,
        "n_violated": n_violated,
        "violation_rate": (n_violated / n_feasible) if n_feasible > 0 else None,
    }


# ---------------------------------------------------------------------------
# serialization

def curve_to_doc(curve: TradeoffCurve) -> Table:
    curve = TradeoffCurve._given(curve, "curve")
    return Table(dict(zip(("lambda", "fraction_kept", "selective_accuracy"), curve._values())))


def trials_to_doc(trials: GuaranteeTrials) -> Table:
    trials = GuaranteeTrials._given(trials, "trials")
    return Table(dict(zip(trials._columns, trials._values())))
