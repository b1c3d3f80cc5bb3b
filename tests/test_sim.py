"""Tradeoff curves and the Monte Carlo guarantee harness."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from selcert import (
    Dataset,
    DomainError,
    EmptyInputError,
    GuaranteeTrials,
    RiskConfig,
    SyntheticScorerSpec,
    TradeoffCurve,
    TradeoffPoint,
    UnsortedLambdasError,
    certify_threshold,
    generate_synthetic,
    substream_seed,
    summarize_trials,
    tradeoff_curve,
    validate_guarantee,
)
from selcert.jsonio import Table, csv_text
import selcert.sim as sim
from selcert.records import _draw
from selcert.sim import curve_to_doc, trials_to_doc


def fixture6() -> Dataset:
    rows = [("t1", 0.95, 1), ("t2", 0.90, 1), ("t3", 0.85, 1),
            ("t4", 0.80, 0), ("t5", 0.70, 1), ("t6", 0.60, 0)]
    return Dataset(*map(list, zip(*rows)))


class TestTradeoffCurve:
    def test_default_grid_spans_observed_confidences(self):
        curve = tradeoff_curve(fixture6())
        assert curve.lam.tolist() == [0.6, 0.7, 0.8, 0.85, 0.9, 0.95]

    def test_hand_computed_points(self):
        curve = tradeoff_curve(fixture6())
        assert curve.fraction_kept.tolist() == pytest.approx(
            [1.0, 5 / 6, 4 / 6, 0.5, 2 / 6, 1 / 6]
        )
        assert curve.selective_accuracy.tolist() == pytest.approx(
            [4 / 6, 4 / 5, 3 / 4, 1.0, 1.0, 1.0]
        )

    def test_explicit_grid_with_empty_tail(self):
        curve = tradeoff_curve(fixture6(), [0.5, 0.75, 0.99])
        assert curve.fraction_kept.tolist() == pytest.approx([1.0, 4 / 6, 0.0])
        assert curve.selective_accuracy[1] == pytest.approx(3 / 4)
        assert curve.selective_accuracy[2] is None

    def test_fraction_kept_never_increases(self):
        # the rules a curve keeps, held by its one producer: on tied scores, and on caller grids
        # that run past the top confidence, every count equals a brute-force count
        rng = np.random.default_rng(8)
        for trial in range(40):
            n = int(rng.integers(1, 60))
            scores = rng.random(n)
            if trial % 2:  # few distinct confidences, so that many records tie
                scores = np.round(scores, 1)
            data = Dataset([f"r{i}" for i in range(n)], scores, rng.integers(0, 2, n))
            conf = np.maximum(data.scores, 1.0 - data.scores)
            right = (data.scores >= 0.5) == data.labels
            top = float(conf.max())
            grids = [None, np.unique(rng.uniform(0.5, 1.0, int(rng.integers(1, 8)))),
                     np.unique([0.5, top, min(np.nextafter(top, 2.0), 1.0), 1.0])]
            for grid in grids:
                curve = tradeoff_curve(data, grid)
                lam, kept, accuracy = curve.lam, curve.fraction_kept, curve.selective_accuracy.tolist()
                assert lam.dtype == kept.dtype == np.float64
                assert ((lam >= 0.5) & (lam <= 1.0)).all() and (lam[1:] > lam[:-1]).all()
                assert ((kept >= 0.0) & (kept <= 1.0)).all() and (kept[1:] <= kept[:-1]).all()
                for t, fraction, acc in zip(lam, kept, accuracy):
                    retained = conf >= t
                    assert fraction == np.count_nonzero(retained) / n
                    if retained.any():
                        assert 0.0 <= acc <= 1.0
                        assert acc == np.count_nonzero(retained & right) / np.count_nonzero(retained)
                    else:
                        assert acc is None
            assert tradeoff_curve(data).fraction_kept[-1] > 0  # top of the default grid keeps at least one record

    @pytest.mark.parametrize("grid", [[0.7, 0.6], [0.5, 0.5], [0.4, 0.6], [0.6, 1.01], [],
                                      [math.nan], [0.6, math.nan], [0.6, math.inf], [-math.inf, 0.7]])
    def test_bad_grids_rejected(self, grid):
        with pytest.raises(UnsortedLambdasError):
            tradeoff_curve(fixture6(), grid)

    @pytest.mark.parametrize("grid, shown", [
        (0.6, "0.6"), (np.float64(0.6), "0.6"), (np.array(0.6), "array(0.6)"),
        ("0.6", "'0.6'"), (b"0.6", "b'0.6'"), ({0.6: 1}, "{0.6: 1}"), ({0.6}, "{0.6}"),
        (frozenset([0.6]), "frozenset({0.6})"),
    ])
    def test_grid_that_is_no_sequence_rejected(self, grid, shown):
        # a number, text, a mapping or a set is no column, though some iterate
        with pytest.raises(UnsortedLambdasError) as err:
            tradeoff_curve(fixture6(), grid)
        assert str(err.value) == f"lambdas must be a column (a list, tuple, range or 1-d array), got {shown}"

    def test_grid_sequences_accepted(self):
        expected = tradeoff_curve(fixture6(), [0.6, 0.75])
        for grid in ((0.6, 0.75), np.array([0.6, 0.75])):
            assert tradeoff_curve(fixture6(), grid) == expected

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyInputError):
            tradeoff_curve(Dataset([], [], []))

    def test_curve_invariants_enforced(self):
        # a curve has no constructor, so no caller can build one that breaks the rules
        # `test_fraction_kept_never_increases` checks at its producer
        for columns in (([0.8, 0.7], [1.0, 0.5], [0.5, 0.5]), ([0.7, 0.8], [0.5, 0.9], [0.5, 0.5]),
                        ([0.6, 0.7], [1.0, 0.5], [0.5, 0.5])):
            with pytest.raises(TypeError):
                TradeoffCurve(*columns)

    def test_columns_and_point_views(self):
        curve = tradeoff_curve(fixture6(), [0.5, 0.75, 0.99])
        assert curve.lam.tolist() == [0.5, 0.75, 0.99]
        assert curve.fraction_kept.tolist() == [1.0, 4 / 6, 0.0]
        assert curve.selective_accuracy.tolist() == [4 / 6, 3 / 4, None]
        assert curve.points == (TradeoffPoint(0.5, 1.0, 4 / 6), TradeoffPoint(0.75, 4 / 6, 3 / 4),
                                TradeoffPoint(0.99, 0.0, None))
        assert tradeoff_curve(fixture6(), curve.lam) == curve
        with pytest.raises(ValueError):
            curve.lam[0] = 0.6


SPEC = SyntheticScorerSpec(n=1, prevalence=0.5, pos_shape=(3, 2), neg_shape=(2, 3), seed=0)
CONFIG = RiskConfig(alpha=0.3, beta=0.2, min_count=5)


def rounded(scores, labels):
    """Scores rounded to two decimals, so that many confidences tie."""
    return np.round(scores, 2), labels


def trials_of(rows) -> GuaranteeTrials:
    """The trials with these (trial, lambda_hat, test_selective_accuracy, violated) rows."""
    trial, lambda_hat, accuracy, violated = map(list, zip(*rows))
    return GuaranteeTrials._unchecked(np.array(trial), np.array(lambda_hat, dtype=object),
                                      np.array(accuracy, dtype=object), np.array(violated))


def reference_trials(spec, config, trials, n_calib, n_test, seed, tie=lambda scores, labels: (scores, labels)):
    """validate_guarantee one trial at a time: certify_threshold on generate_synthetic's calibration
    set, then the count on its test set, each drawn as `tie` leaves generate_synthetic's records."""
    out = []
    for t in range(trials):
        calib, test = (Dataset(data.ids, *tie(data.scores, data.labels))
                       for data in (generate_synthetic(replace(spec, n=n, seed=substream_seed(substream_seed(seed, t), i)))
                                    for i, n in ((1, n_calib), (2, n_test))))
        lambda_hat = certify_threshold(calib, config).lambda_hat
        if lambda_hat is None:
            out.append((t, None, None, False))
            continue
        scores = test.scores
        kept = np.maximum(scores, 1.0 - scores) >= lambda_hat
        right = int((kept & ((scores >= 0.5) == test.labels)).sum())
        accuracy = right / int(kept.sum()) if kept.any() else None
        out.append((t, lambda_hat, accuracy, accuracy is not None and accuracy < 1.0 - config.alpha))
    return trials_of(out)


class TestValidateGuarantee:
    def test_reproducible_and_thread_invariant(self):
        kwargs = dict(trials=6, n_calib=80, n_test=120, seed=42)
        serial = validate_guarantee(SPEC, CONFIG, **kwargs)
        again = validate_guarantee(SPEC, CONFIG, **kwargs)
        threaded = validate_guarantee(SPEC, CONFIG, **kwargs, max_workers=3)
        assert serial == again == threaded

    def test_trials_are_indexed_in_order(self):
        trials = validate_guarantee(SPEC, CONFIG, trials=5, n_calib=50, n_test=60, seed=1)
        assert trials.trial.tolist() == [0, 1, 2, 3, 4]

    def test_trials_are_independent_of_count(self):
        # trial t depends only on (seed, t), so a longer run extends a shorter one
        short = validate_guarantee(SPEC, CONFIG, trials=3, n_calib=50, n_test=60, seed=9)
        long = validate_guarantee(SPEC, CONFIG, trials=6, n_calib=50, n_test=60, seed=9)
        assert [column[:3] for column in long._values()] == short._values()

    def test_trial_fields_are_consistent(self):
        trials = validate_guarantee(SPEC, CONFIG, trials=10, n_calib=80, n_test=120, seed=3)
        assert [getattr(trials, name).dtype for name in trials._columns] == [np.int64, object, object, bool]
        for lambda_hat, accuracy, violated in zip(*trials._values()[1:]):
            if lambda_hat is None:
                assert accuracy is None and not violated
            else:
                assert 0.5 <= lambda_hat <= 1.0
                if violated:
                    assert accuracy < 1 - CONFIG.alpha

    def test_trials_have_no_constructor(self):
        # validate_guarantee is their one producer
        trials = validate_guarantee(SPEC, CONFIG, trials=2, n_calib=20, n_test=20, seed=0)
        with pytest.raises(TypeError):
            GuaranteeTrials(*(getattr(trials, name) for name in trials._columns))

    @pytest.mark.parametrize("config", [CONFIG, RiskConfig(alpha=0.3, beta=0.6, min_count=5),
                                        RiskConfig(alpha=0.35, beta=0.9, min_count=1)])
    def test_trial_threshold_is_the_certified_one(self, config):
        # trials decide lambda_hat without solving bounds, and draw arrays
        # rather than Datasets; each threshold must be certify_threshold's, and
        # each accuracy the count on generate_synthetic's test set
        trials = validate_guarantee(SPEC, config, trials=12, n_calib=150, n_test=20, seed=17)
        assert trials == reference_trials(SPEC, config, trials=12, n_calib=150, n_test=20, seed=17)
        assert np.not_equal(trials.test_selective_accuracy, None).any()

    @pytest.mark.parametrize("config, trials, n_calib, n_test, per_chunk", [
        (CONFIG, 11, 60, 40, 4),  # a trial count that is no multiple of the chunk
        (CONFIG, 5, 60, 40, 0),  # each trial above the budget, so alone in its chunk
        (CONFIG, 1, 60, 40, 4),
        (RiskConfig(alpha=0.01, beta=0.01, min_count=5), 7, 60, 40, 3),  # every trial infeasible
        (RiskConfig(alpha=0.3, beta=0.2, min_count=61), 7, 60, 40, 3),  # min_count above n_calib
        (RiskConfig(alpha=0.3, beta=0.5, min_count=5), 9, 60, 40, 4),  # beta >= 1/2 sums every term
        (RiskConfig(alpha=0.35, beta=0.9, min_count=1), 9, 60, 40, 4),
        (RiskConfig(alpha=0.3, beta=0.2, min_count=1), 9, 60, 5, 2),
        (CONFIG, 6, 3000, 1000, None),  # the module's own budget (4 trials a chunk at 1 << 14)
    ])
    def test_chunks_equal_the_per_trial_reference(self, monkeypatch, config, trials, n_calib, n_test, per_chunk):
        # the chunk budget is set so that `per_chunk` trials share a chunk (0: the
        # budget is one record short of one trial); no chunking changes a trial
        if per_chunk is None:
            assert 1 < sim._CHUNK_RECORDS // (n_calib + n_test) < trials  # several trials, several chunks
        else:
            monkeypatch.setattr(sim, "_CHUNK_RECORDS", max(per_chunk * (n_calib + n_test), n_calib + n_test - 1))
        got = validate_guarantee(SPEC, config, trials=trials, n_calib=n_calib, n_test=n_test, seed=5)
        assert got == reference_trials(SPEC, config, trials, n_calib, n_test, seed=5)
        if config.alpha == 0.01 or config.min_count > n_calib:
            assert np.equal(got.lambda_hat, None).all()

    @pytest.mark.parametrize("per_chunk", [0, 3, 50])
    def test_tied_scores_equal_the_per_trial_reference(self, monkeypatch, per_chunk):
        # scores rounded to two decimals tie often; the trials' one-sort scan
        # must still certify what certify_threshold certifies
        monkeypatch.setattr(sim, "_draw", lambda spec, n, seed: rounded(*_draw(spec, n, seed)))
        monkeypatch.setattr(sim, "_CHUNK_RECORDS", max(per_chunk * 400, 399))
        for config in (CONFIG, RiskConfig(alpha=0.3, beta=0.6, min_count=1)):
            got = validate_guarantee(SPEC, config, trials=10, n_calib=200, n_test=200, seed=3)
            assert got == reference_trials(SPEC, config, 10, 200, 200, seed=3, tie=rounded)
            assert np.not_equal(got.lambda_hat, None).any()

    @pytest.mark.parametrize("kwargs", [
        dict(trials=0, n_calib=10, n_test=10, seed=0),
        dict(trials=2, n_calib=0, n_test=10, seed=0),
        dict(trials=2, n_calib=10, n_test=-1, seed=0),
        dict(trials=2, n_calib=10, n_test=10, seed=0, max_workers=0),
    ])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(DomainError):
            validate_guarantee(SPEC, CONFIG, **kwargs)

    @pytest.mark.parametrize("name", ["trials", "n_calib", "n_test"])
    def test_size_past_memory_fails_before_drawing(self, name, monkeypatch):
        # 2**62 records cannot be allocated: the call fails at once, naming its argument, with nothing drawn
        def draw(*args):
            raise AssertionError("drew records")

        monkeypatch.setattr(sim, "_draw", draw)
        kwargs = {**dict(trials=3, n_calib=20, n_test=20, seed=0), name: 2**62}
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"^{name}={2**62} is too large: its arrays do not fit in memory$"):
            validate_guarantee(SPEC, CONFIG, **kwargs)
        assert time.perf_counter() - start < 1.0


class TestSummarizeTrials:
    def test_counts(self):
        trials = trials_of([(0, 0.7, 0.9, False), (1, None, None, False), (2, 0.8, 0.6, True)])
        summary = summarize_trials(trials)
        assert summary == {
            "n_trials": 3,
            "n_feasible": 2,
            "n_violated": 1,
            "violation_rate": 0.5,
        }

    def test_no_feasible_trials(self):
        summary = summarize_trials(trials_of([(0, None, None, False)]))
        assert summary["violation_rate"] is None


class TestSerialization:
    def test_curve_csv_text(self):
        curve = tradeoff_curve(fixture6(), [0.5, 0.99])
        assert csv_text(curve_to_doc(curve)) == (
            "lambda,fraction_kept,selective_accuracy\n"
            "0.5,1,0.666666666667\n"
            "0.99,0,\n"
        )

    def test_curve_doc(self):
        doc = curve_to_doc(tradeoffcurve_small())
        assert isinstance(doc, Table)
        first = {name: column[0] for name, column in doc.columns.items()}
        assert first == {"lambda": 0.6, "fraction_kept": 1.0, "selective_accuracy": 4 / 6}

    def test_trials_csv_text(self):
        trials = trials_of([(0, 0.75, 0.9125, False), (1, None, None, False), (2, 0.55, 0.62, True)])
        assert csv_text(trials_to_doc(trials)) == (
            "trial,lambda_hat,test_selective_accuracy,violated\n"
            "0,0.75,0.9125,false\n"
            "1,,,false\n"
            "2,0.55,0.62,true\n"
        )

    def test_trials_doc(self):
        doc = trials_to_doc(trials_of([(1, None, None, False)]))
        assert isinstance(doc, Table)
        assert [dict(zip(doc.columns, row)) for row in zip(*doc.columns.values())] == [{
            "trial": 1,
            "lambda_hat": None,
            "test_selective_accuracy": None,
            "violated": False,
        }]


def tradeoffcurve_small() -> TradeoffCurve:
    return tradeoff_curve(fixture6())
