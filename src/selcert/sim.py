"""Coverage/accuracy tradeoff curves and Monte Carlo guarantee validation.

validate_guarantee checks the marginal selective-accuracy guarantee: over
repeated calibration draws, the fraction of feasible certificates whose test
selective accuracy falls below 1 - alpha should stay near or below beta.
Each trial derives its own seed substream, so trials are reproducible
individually. They run a chunk at a time, in one thread: each trial draws
its arrays with `records._draw`, the draw behind `generate_synthetic`, so it
sees that call's records without building a Dataset; the chunk's
calibration draws go as stacked rows through one `calibrate._grid` and one
`calibrate._decide`, the decision behind `certify_threshold`; and each
feasible trial's test draw is counted at its threshold with one comparison,
conf >= lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import RiskConfig, _confidence_correct, _decide, _grid, _thresholds
from .errors import DomainError, EmptyInputError, UnsortedLambdasError, check_int
from .jsonio import Table
from .records import ColumnTable, Dataset, SyntheticScorerSpec, _columns, _draw, _first, _floats, _object_column, _raise_first, _value_fault
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
    [0, 1] or None where nothing is kept. `TradeoffCurve(lam, fraction_kept,
    selective_accuracy)` checks them together, vectorised, and they are
    read-only afterwards. Iteration, and `points`, give a TradeoffPoint per
    row, built on each pass.
    """

    _columns = ("lam", "fraction_kept", "selective_accuracy")
    _view = TradeoffPoint

    def __init__(self, lam, fraction_kept, selective_accuracy) -> None:
        _columns(DomainError, lam=lam, fraction_kept=fraction_kept, selective_accuracy=selective_accuracy)
        cells = lam, fraction_kept, _object_column(selective_accuracy)
        accuracy = _floats(np.where(np.equal(cells[2], None), 0.0, cells[2]))
        lam, lam_faults = _thresholds("lambda[{}]", lam, UnsortedLambdasError)
        fraction_kept = _floats(fraction_kept)
        _raise_first([
            *lam_faults,
            _value_fault(~((fraction_kept >= 0.0) & (fraction_kept <= 1.0)), "fraction_kept[{}]",
                         "a number within [0, 1]", cells[1]),
            (_first(fraction_kept[1:] > fraction_kept[:-1]) + 1,
             lambda i: DomainError("fraction_kept must be non-increasing in lambda")),
            _value_fault(~((accuracy >= 0.0) & (accuracy <= 1.0)), "selective_accuracy[{}]",
                         "a number within [0, 1] or None", cells[2]),
        ], len(lam))
        self._set(lam, fraction_kept, cells[2])

    points = property(tuple, doc="The rows as a tuple of TradeoffPoints.")


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

    A grid the caller passes must be a nonempty column of thresholds
    (`records._columns`), else an UnsortedLambdasError. The counts are
    `calibrate._grid`'s, and by default so is the grid, the certifier's
    grid of `data`. Selective accuracy is None where nothing is kept.
    """
    if len(data) == 0:
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
) -> list[GuaranteeTrial]:
    """Repeatedly draw calibration/test sets, certify, and check the guarantee.

    Trial t derives its data from substream t of `seed` (fresh calibration and
    test draws each time), certifies on the calibration draw, and measures
    selective accuracy of the certified threshold on the test draw. `spec`
    contributes the score distribution; its own n and seed fields are not
    read. Results are ordered by trial index.

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
    return [trial for first in range(0, trials, size)
            for trial in _chunk(range(first, min(first + size, trials)), spec, config, n_calib, n_test, seed)]


def _chunk(indices: range, spec: SyntheticScorerSpec, config: RiskConfig, n_calib: int, n_test: int,
           seed: int) -> list[GuaranteeTrial]:
    """The trials at `indices`: one decision over their calibration draws, then test draws where feasible.

    `_decide` decides each trial's threshold on `_grid`'s counts as
    `certify_threshold` does, without solving bounds. A test set keeps the
    records with conf >= lam, the comparison `apply_certificate` makes.
    """
    trial_seeds = [substream_seed(seed, t) for t in indices]
    at, grid, n_at, errors = _grid(*_draws(spec, n_calib, [substream_seed(s, 1) for s in trial_seeds]))
    decided = _decide(at // n_calib, n_at, errors, config)
    lambda_hat = [lam if i >= 0 else None for i, lam in zip(decided.tolist(), grid[decided].tolist())]
    feasible = np.flatnonzero(decided >= 0)
    conf, correct = _draws(spec, n_test, [substream_seed(trial_seeds[i], 2) for i in feasible])
    kept = conf >= grid[decided[feasible], None]
    accuracy = [None] * len(indices)  # stays None where nothing is tested or kept
    for i, n_kept, n_wrong in zip(feasible.tolist(), np.count_nonzero(kept, axis=1).tolist(),
                                  np.count_nonzero(kept & ~correct, axis=1).tolist()):
        accuracy[i] = (n_kept - n_wrong) / n_kept if n_kept else None
    return [GuaranteeTrial(t, lam, acc, acc is not None and acc < 1.0 - config.alpha)
            for t, lam, acc in zip(indices, lambda_hat, accuracy)]


def _draws(spec: SyntheticScorerSpec, n: int, seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Confidence and correctness of n records drawn from each seed by `records._draw`, one row per seed."""
    scores, labels = np.empty((len(seeds), n)), np.empty((len(seeds), n), dtype=np.int64)
    for row, trial_seed in enumerate(seeds):
        scores[row], labels[row] = _draw(spec, n, trial_seed)
    return _confidence_correct(scores, labels)


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
