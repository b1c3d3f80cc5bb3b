"""Threshold certification, decision application, certificate serialization.

The 6-record fixture has confidences [0.6..0.95] with mistakes at 0.6 and
0.8; its grid bounds at beta=0.2 were frozen from an exact-bisection oracle.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from selcert import (
    BinomialTail,
    Dataset,
    DatasetIOError,
    Decision,
    Decisions,
    DomainError,
    DuplicateIdError,
    EmptyCalibrationError,
    InfeasibleCertificateError,
    RiskConfig,
    SchemaError,
    SelcertError,
    ThresholdCertificate,
    UnsortedLambdasError,
    apply_certificate,
    certificate_from_json,
    certificate_to_json,
    certify_threshold,
    confidence,
    load_certificate,
    predicted_label,
    read_decisions,
    retain_rate,
    risk_upper_bound,
    selective_risk,
    tradeoff_curve,
    write_decisions,
)
from selcert.binom import tail_at_most
from selcert.calibrate import _OUTCOME_TEXT, CertificateGrid, GridPoint, _confidence_correct, _decide, _grid

THRESHOLD_RULE = "thresholds must be finite, within [0.5, 1] and strictly ascending: "

def fixture6() -> Dataset:
    rows = [
        ("t1", 0.95, 1),  # correct
        ("t2", 0.90, 1),  # correct
        ("t3", 0.85, 1),  # correct
        ("t4", 0.80, 0),  # wrong
        ("t5", 0.70, 1),  # correct
        ("t6", 0.60, 0),  # wrong
    ]
    return Dataset(*map(list, zip(*rows)))


def grid_point(grid: CertificateGrid, i: int) -> GridPoint:
    """Row i of a certificate's grid, as `selective_risk` gives one point."""
    return GridPoint(*(column[i] for column in grid._values()))


# ascending grid lambda -> (n_at, errors_at, frozen bound at beta=0.2)
FROZEN_GRID = [
    (0.60, 6, 2, 0.585394235302173),
    (0.70, 5, 1, 0.49019234297219433),
    (0.80, 4, 1, 0.5824535745243332),
    (0.85, 3, 0, 0.41519645235742675),
    (0.90, 2, 0, 0.5527864045000421),
    (0.95, 1, 0, 0.8),
]


class TestConfidence:
    def test_low_score_flips(self):
        assert confidence(0.287) == 1 - 0.287
        assert abs(confidence(0.287) - 0.713) < 1e-15

    def test_midpoint(self):
        assert confidence(0.5) == 0.5

    def test_extremes(self):
        assert confidence(0.0) == 1.0
        assert confidence(1.0) == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), "0.7", None])
    def test_rejects_bad_scores(self, bad):
        with pytest.raises(DomainError):
            confidence(bad)


class TestPredictedLabel:
    def test_threshold_half_goes_positive(self):
        assert predicted_label(0.5) == 1
        assert predicted_label(0.49) == 0
        assert predicted_label(0.51) == 1


class TestSelectiveRisk:
    def test_hand_counted_point(self):
        pt = selective_risk(fixture6(), 0.8, beta=0.2)
        assert (pt.n_at, pt.errors_at, pt.risk_hat) == (4, 1, 0.25)

    def test_frozen_bounds(self):
        data = fixture6()
        for lam, n_at, errors_at, bound in FROZEN_GRID:
            pt = selective_risk(data, lam, beta=0.2)
            assert (pt.n_at, pt.errors_at) == (n_at, errors_at)
            assert pt.risk_plus == pytest.approx(bound, abs=1e-10)

    def test_nothing_retained(self):
        pt = selective_risk(fixture6(), 0.99, beta=0.2)
        assert (pt.n_at, pt.errors_at, pt.risk_hat, pt.risk_plus) == (0, 0, 1.0, 1.0)

    def test_threshold_between_grid_points(self):
        pt = selective_risk(fixture6(), 0.82, beta=0.2)
        assert (pt.n_at, pt.errors_at) == (3, 0)

    def test_empty_dataset_retains_nothing(self):
        # an empty set is a grid of no points: every threshold is past its top
        empty = Dataset([], [], [])
        assert selective_risk(empty, 0.7, beta=0.2) == GridPoint(0.7, 0, 0, 1.0, 1.0)

    @pytest.mark.parametrize("lam", [math.nan, 1.5, math.inf, 0.3])
    def test_rejects_a_threshold_outside_the_rule(self, lam):
        # NaN is no number; the others are numbers but no thresholds
        with pytest.raises(DomainError) as err:
            selective_risk(fixture6(), lam, beta=0.2)
        assert str(err.value) == ("lam must be a number, got nan" if lam != lam else f"{THRESHOLD_RULE}lam is {lam!r}")

    # beta is checked whether or not the threshold retains anything (0.95 retains nothing here)
    @pytest.mark.parametrize("lam", [0.95, 0.8])
    @pytest.mark.parametrize("beta, message", [
        (5, "beta must be within (0, 1), got 5"),
        (math.nan, "beta must be a number, got nan"),
    ])
    def test_rejects_a_bad_beta_at_any_threshold(self, lam, beta, message):
        data = Dataset(["a", "b"], [0.9, 0.2], [1, 0])
        with pytest.raises(DomainError) as err:
            selective_risk(data, lam, beta=beta)
        assert str(err.value) == message


class TestRetainedCounts:
    def test_equals_brute_force_counts(self):
        # the retained set at a caller's thresholds, looked up in the grid by tradeoff_curve and
        # counted by comparison in selective_risk, against the rule it states, conf >= lam, on tied
        # scores: at grid points, between them, just below and just above them, and above the top.
        # Both reject a threshold outside [0.5, 1] before counting, so none is counted there.
        rng = np.random.default_rng(2718)
        for trial in range(200):
            n = int(rng.integers(1, 300))
            scores = np.round(rng.beta(3.0, 2.0, n), int(rng.integers(1, 4)))
            labels = (rng.random(n) < scores).astype(int)
            data = Dataset([f"r{i}" for i in range(n)], scores, labels)
            conf, correct = _confidence_correct(scores, labels)
            grid = np.unique(conf)
            lams = np.concatenate([grid, (grid[:-1] + grid[1:]) / 2, np.nextafter(grid, 0.0),
                                   np.nextafter(grid, 2.0), [grid[-1] + 0.01]])
            lams = np.unique(lams[(lams >= 0.5) & (lams <= 1.0)]).tolist()
            brute = [(int((conf >= lam).sum()), int((~correct & (conf >= lam)).sum())) for lam in lams]
            curve = tradeoff_curve(data, lams)
            assert curve.fraction_kept.tolist() == [kept / n for kept, _ in brute], f"trial {trial}"
            accuracy = [(kept - wrong) / kept if kept else None for kept, wrong in brute]
            assert curve.selective_accuracy.tolist() == accuracy, f"trial {trial}"
            # each selective_risk call solves a bound, so it checks a sample, the top threshold included
            for i in {len(lams) - 1, *rng.integers(0, len(lams), 8).tolist()}:
                point = selective_risk(data, lams[i], 0.1)
                assert (point.n_at, point.errors_at) == brute[i], f"trial {trial}, lambda {lams[i]!r}"


def tied_sets(rng, rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Scores rounded to 1-3 decimals, so that many confidences tie, and labels, one set per row."""
    scores = np.round(rng.beta(3.0, 2.0, (rows, n)), int(rng.integers(1, 4)))
    return scores, (rng.random((rows, n)) < scores).astype(int)


def reference_grid(conf, correct, config):
    """The grid by np.unique and searchsorted, and its lambda_hat by one tail test per point, from the top."""
    lam = np.unique(conf)
    wrong = np.sort(conf[~correct])
    n_at = len(conf) - np.searchsorted(np.sort(conf), lam, side="left")
    errors = len(wrong) - np.searchsorted(wrong, lam, side="left")
    lambda_hat = None
    for i in reversed(range(len(lam))):
        if n_at[i] < config.min_count:
            continue
        if not tail_at_most([int(errors[i])], [int(n_at[i])], config.alpha, config.beta)[0]:
            break
        lambda_hat = float(lam[i])
    return lam, n_at, errors, lambda_hat


def decided(conf, correct, config):
    """`_grid`'s (lam, n_at, errors) for rows of records, and each row's threshold by `_decide`, None for none."""
    at, lam, n_at, errors = _grid(conf, correct)
    index = _decide(at // conf.shape[1], n_at, errors, config)
    return lam, n_at, errors, [float(lam[i]) if i >= 0 else None for i in index]


class TestScan:
    def test_tied_grid_equals_the_unique_reference(self):
        # one sort per calibration set: a grid point is a run of tied
        # confidences, counted from its start up
        rng = np.random.default_rng(1618)
        for trial in range(150):
            n = int(rng.integers(1, 300))
            scores, labels = tied_sets(rng, 1, n)
            config = RiskConfig(alpha=float(rng.uniform(0.05, 0.5)), beta=float(rng.choice([0.05, 0.2, 0.5, 0.9])),
                                min_count=int(rng.integers(1, 40)))
            cert = certify_threshold(Dataset([f"r{i}" for i in range(n)], scores[0], labels[0]), config)
            lam, n_at, errors, lambda_hat = reference_grid(*_confidence_correct(scores[0], labels[0]), config)
            assert cert.grid.lam.tolist() == lam.tolist(), f"trial {trial}"
            assert cert.grid.n_at.tolist() == n_at.tolist() and cert.grid.errors_at.tolist() == errors.tolist()
            assert cert.lambda_hat == lambda_hat, f"trial {trial}"

    @pytest.mark.parametrize("rows, n, min_count", [(1, 1, 1), (7, 40, 5), (12, 150, 1), (5, 30, 31), (9, 3, 2)])
    def test_stacked_rows_equal_each_row_alone(self, rows, n, min_count):
        # rows share one sort call and one tail test call, and nothing else
        rng = np.random.default_rng(rows * 1000 + n)
        for beta in (0.1, 0.6):
            config = RiskConfig(alpha=0.3, beta=beta, min_count=min_count)
            conf, correct = _confidence_correct(*tied_sets(rng, rows, n))
            lam, n_at, errors, lambda_hat = decided(conf, correct, config)
            alone = [decided(conf[[r]], correct[[r]], config) for r in range(rows)]
            for got, parts in zip((lam, n_at, errors, lambda_hat), zip(*alone)):
                assert np.array_equal(got, np.concatenate(parts))
            assert lambda_hat == [reference_grid(conf[r], correct[r], config)[3] for r in range(rows)]
            if min_count > n:
                assert lambda_hat == [None] * rows


class TestOneCountThreePaths:
    def test_grid_curve_and_selective_risk_agree(self):
        # the certificate's grid, the default tradeoff curve and selective_risk
        # count one retained set, on tied scores, and agree bit for bit
        rng = np.random.default_rng(3141)
        for trial in range(12):
            n = int(rng.integers(1, 200))
            scores, labels = tied_sets(rng, 1, n)
            data = Dataset([f"r{i}" for i in range(n)], scores[0], labels[0])
            config = RiskConfig(alpha=0.2, beta=float(rng.choice([0.05, 0.5, 0.9])))
            cert = certify_threshold(data, config)
            for i, lam in enumerate(cert.grid.lam.tolist()):
                assert selective_risk(data, lam, config.beta) == grid_point(cert.grid, i), f"trial {trial}, grid[{i}]"
            curve = tradeoff_curve(data)
            assert curve.lam.tolist() == cert.grid.lam.tolist(), f"trial {trial}"
            # the fraction as the curve computes it: (n_at / n) * n is not always n_at in floats
            assert curve.fraction_kept.tolist() == (cert.grid.n_at / n).tolist(), f"trial {trial}"
            accuracy = (cert.grid.n_at - cert.grid.errors_at) / cert.grid.n_at
            assert curve.selective_accuracy.tolist() == accuracy.tolist(), f"trial {trial}"


class TestCertifyThreshold:
    def test_tight_budget_is_infeasible(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.3, beta=0.2))
        assert cert.status == "infeasible"
        assert cert.lambda_hat is None
        assert not cert.feasible

    def test_loose_budget_certifies_bottom_of_grid(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        assert cert.feasible and cert.lambda_hat == 0.6

    def test_evidence_floor_unlocks_mid_grid(self):
        # with min_count=3 the thin n<3 tail points stop constraining the scan
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        assert cert.feasible and cert.lambda_hat == 0.85

    def test_grid_is_fully_recorded(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.3, beta=0.2))
        assert cert.grid.lam.tolist() == [g[0] for g in FROZEN_GRID]
        assert list(zip(cert.grid.n_at.tolist(), cert.grid.errors_at.tolist())) == [(g[1], g[2]) for g in FROZEN_GRID]
        assert cert.calib_size == 6

    def test_thin_failing_point_does_not_block(self):
        # at alpha=0.5 the n=4 point at 0.8 fails the bound, but with
        # min_count=5 it is exempt; the scan lands on the eligible 0.7
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.5, beta=0.2, min_count=5))
        assert cert.lambda_hat == 0.7
        assert cert.grid.risk_plus[2] > 0.5  # the exempted 0.8 point

    def test_empty_calibration(self):
        with pytest.raises(EmptyCalibrationError):
            certify_threshold(Dataset([], [], []), RiskConfig(alpha=0.3, beta=0.2))

    def test_tied_confidences_share_grid_point(self):
        # 0.3 and 0.7 both map to confidence 0.7
        data = Dataset(["a", "b", "c"], [0.3, 0.7, 0.9], [0, 1, 1])
        cert = certify_threshold(data, RiskConfig(alpha=0.9, beta=0.2))
        assert cert.grid.lam.tolist() == [0.7, 0.9]
        assert cert.grid.n_at[0] == 3

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2024)
        score_pool = np.arange(1, 16) / 16.0
        for trial in range(60):
            n = int(rng.integers(1, 13))
            scores = rng.choice(score_pool, size=n)
            labels = rng.integers(0, 2, size=n)
            alpha = float(rng.uniform(0.05, 0.9))
            beta = float(rng.choice([0.05, 0.1, 0.2, 0.3]))
            min_count = int(rng.integers(1, 4))
            data = Dataset([f"r{i}" for i in range(n)], scores, labels)
            cert = certify_threshold(data, RiskConfig(alpha=alpha, beta=beta, min_count=min_count))
            expected = brute_force_certify(scores, labels, alpha, beta, min_count)
            assert cert.lambda_hat == expected, f"trial {trial}"

    def test_grid_bounds_match_fresh_solves(self):
        rng = np.random.default_rng(77)
        scores = rng.beta(3.0, 2.0, 500)
        labels = (rng.random(500) < scores).astype(int)
        data = Dataset([f"r{i}" for i in range(500)], scores, labels)
        cert = certify_threshold(data, RiskConfig(alpha=0.3, beta=0.1, min_count=10))
        grid = cert.grid
        for k, n, risk_plus in zip(grid.errors_at.tolist(), grid.n_at.tolist(), grid.risk_plus.tolist()):
            assert risk_plus == risk_upper_bound(BinomialTail(k, n), 0.1).value

    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.5, 0.9])
    def test_grid_scale_scipy_oracle(self, beta):
        # every bound of a 20k-point grid is the 1 - beta quantile of Beta(k + 1, n - k)
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(4099)
        scores = rng.beta(4.0, 2.0, 20000)
        labels = (rng.random(20000) < scores).astype(int)
        data = Dataset([f"r{i}" for i in range(20000)], scores, labels)
        config = RiskConfig(alpha=0.1, beta=beta, min_count=25)
        cert = certify_threshold(data, config)
        assert len(cert.grid) == 20000
        k, n, got = cert.grid.errors_at, cert.grid.n_at, cert.grid.risk_plus
        expected = np.where(k < n, stats.beta.ppf(1.0 - beta, k + 1, np.maximum(n - k, 1)), 1.0)
        assert np.max(np.abs(got - expected) / expected) <= 1e-12
        assert cert.lambda_hat == scan_bounds(cert.grid, expected, config)
        assert cert.lambda_hat is not None or beta == 0.05

    def test_decision_equals_scan_over_its_own_bounds(self):
        # lambda_hat comes from one tail test per point; the scan over the
        # certificate's own risk_plus must land on the same threshold
        rng = np.random.default_rng(8128)
        for trial in range(200):
            n = int(rng.integers(1, 400))
            scores = np.round(rng.beta(3.0, 2.0, n), int(rng.integers(1, 4)))  # ties
            labels = (rng.random(n) < scores).astype(int)
            config = RiskConfig(alpha=float(rng.uniform(0.02, 0.6)),
                                beta=float(rng.choice([0.01, 0.1, 0.3, 0.49, 0.5, 0.7, 0.95])),
                                min_count=int(rng.integers(1, 30)))
            data = Dataset([f"r{i}" for i in range(n)], scores, labels)
            cert = certify_threshold(data, config)
            bounds = cert.grid.risk_plus.tolist()
            assert cert.lambda_hat == scan_bounds(cert.grid, bounds, config), f"trial {trial}"

    def test_decision_at_alpha_on_its_own_bounds(self):
        # alpha set to one of the grid's own recorded bounds. A relative 1e-12
        # away, the tail test and the recorded bounds agree point by point, and
        # so do lambda_hat and the scan. Within one unit in the last place they
        # may not: both come from a floating-point CDF, and a disagreement is
        # allowed only where alpha lies at the root to within its rounding,
        # |CDF(k; n, alpha) - beta| <= 1e-13 * beta in exact arithmetic.
        rng = np.random.default_rng(6174)
        for trial in range(30):
            n = int(rng.integers(5, 400))
            scores = np.round(rng.beta(3.0, 2.0, n), int(rng.integers(1, 4)))
            labels = (rng.random(n) < scores).astype(int)
            data = Dataset([f"r{i}" for i in range(n)], scores, labels)
            beta = float(rng.choice([0.01, 0.1, 0.3, 0.5, 0.7, 0.95]))
            grid = certify_threshold(data, RiskConfig(alpha=0.5, beta=beta)).grid
            k, n_at, bounds = grid.errors_at, grid.n_at, grid.risk_plus
            edges = np.unique(bounds[bounds < 1.0])
            for edge in rng.choice(edges, min(len(edges), 12), replace=False).tolist():
                for alpha in (edge * (1.0 - 1e-12), edge * (1.0 + 1e-12)):
                    config = RiskConfig(alpha=alpha, beta=beta)
                    assert np.array_equal(tail_at_most(k, n_at, alpha, beta), bounds <= alpha)
                    assert certify_threshold(data, config).lambda_hat == scan_bounds(grid, bounds, config)
                for alpha in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                    alpha = float(alpha)
                    differ = tail_at_most(k, n_at, alpha, beta) != (bounds <= alpha)
                    for i in np.flatnonzero(differ):
                        gap = exact_cdf(int(k[i]), int(n_at[i]), alpha) - Fraction(beta)
                        assert abs(gap) <= Fraction(1e-13) * Fraction(beta), (
                            f"trial {trial}, alpha {alpha!r}, k={k[i]}, n={n_at[i]}")

    def test_min_count_above_n_is_always_infeasible(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.99, beta=0.2, min_count=7))
        assert not cert.feasible


def scan_bounds(grid, bounds, config):
    """Reference scan from the top of the grid over the given bounds."""
    lambda_hat = None
    for lam, n_at, bound in zip(grid.lam.tolist()[::-1], grid.n_at.tolist()[::-1], list(bounds)[::-1]):
        if n_at < config.min_count:
            continue
        if bound > config.alpha:
            break
        lambda_hat = lam
    return lambda_hat


def exact_cdf(k, n, p):
    """CDF(k; n, p) in rational arithmetic, p taken as the exact value of its float."""
    a, d = p.as_integer_ratio()
    return Fraction(sum(math.comb(n, i) * a**i * (d - a) ** (n - i) for i in range(k + 1)), d**n)


def brute_force_certify(scores, labels, alpha, beta, min_count):
    """Reference scan: try every grid value and recheck its whole suffix."""
    conf = [max(s, 1 - s) for s in scores]
    wrong = [(1 if s >= 0.5 else 0) != y for s, y in zip(scores, labels)]
    grid = sorted(set(conf))
    stats = {}
    for lam in grid:
        kept = [i for i, c in enumerate(conf) if c >= lam]
        k = sum(wrong[i] for i in kept)
        stats[lam] = (len(kept), risk_upper_bound(BinomialTail(k, len(kept)), beta).value)
    for lam in grid:
        if stats[lam][0] < min_count:
            continue
        suffix = [v for v in grid if v >= lam and stats[v][0] >= min_count]
        if all(stats[v][1] <= alpha for v in suffix):
            return lam
    return None


class TestRiskConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, beta=0.1),
        dict(alpha=1.0, beta=0.1),
        dict(alpha=0.1, beta=0.0),
        dict(alpha=0.1, beta=1.0),
        dict(alpha=0.1, beta=0.1, min_count=0),
        dict(alpha=float("nan"), beta=0.1),
        dict(alpha=True, beta=0.1),
        dict(alpha=10**400, beta=0.1),
        dict(alpha=0.1, beta=-10**400),
        dict(alpha=0.1, beta=0.1, min_count=True),
        # past the interpreter's limit on integer digits, so repr fails
        dict(alpha=10**5000, beta=0.1),
        dict(alpha=0.1, beta=0.1, min_count=-10**5000),
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(DomainError):
            RiskConfig(**kwargs)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer digits")
    def test_names_the_size_of_an_unprintable_integer(self):
        with pytest.raises(DomainError, match=r"got a negative integer of 16610 bits"):
            RiskConfig(alpha=0.1, beta=0.1, min_count=-10**5000)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer digits")
    @pytest.mark.parametrize("alpha, shown", [
        ([10**5000, 1], "[an integer of 16610 bits, 1]"),
        ({"a": [-10**5000]}, "{'a': [a negative integer of 16610 bits]}"),
    ])
    def test_names_the_size_of_an_unprintable_integer_in_a_container(self, alpha, shown):
        with pytest.raises(DomainError) as err:
            RiskConfig(alpha=alpha, beta=0.1)
        assert str(err.value) == f"alpha must be a number, got {shown}"


EMPTY_GRID = CertificateGrid([], [], [], [], [])


class TestCertificateInvariants:
    def test_lambda_hat_required_iff_feasible(self):
        config = RiskConfig(alpha=0.5, beta=0.2)
        with pytest.raises(DomainError):
            ThresholdCertificate("feasible", None, EMPTY_GRID, config, 1)
        with pytest.raises(DomainError):
            ThresholdCertificate("infeasible", 0.7, EMPTY_GRID, config, 1)

    def test_rejects_unknown_status(self):
        with pytest.raises(DomainError):
            ThresholdCertificate("maybe", None, EMPTY_GRID, RiskConfig(0.5, 0.2), 1)

    def test_rejects_unsorted_grid(self):
        # (grid lambdas, lambda_hat, the error): out of order, a lone or trailing
        # NaN (no number), out of range, and lambda_hat NaN, inf or below 0.5
        cases = [
            ([0.9, 0.6], None, f"{THRESHOLD_RULE}grid[1].lambda is 0.6"),
            ([math.nan], None, "grid[0].lambda must be a number, got nan"),
            ([0.6, 0.9, math.nan], None, "grid[2].lambda must be a number, got nan"),
            ([0.6, 1.5], None, f"{THRESHOLD_RULE}grid[1].lambda is 1.5"),
            ([0.6, 0.9], math.nan, "lambda_hat must be a number, got nan"),
            ([0.6, 0.9], math.inf, f"{THRESHOLD_RULE}lambda_hat is inf"),
            ([0.6, 0.9], 0.2, f"{THRESHOLD_RULE}lambda_hat is 0.2"),
        ]
        for lams, lambda_hat, message in cases:
            status = "infeasible" if lambda_hat is None else "feasible"
            with pytest.raises(DomainError) as err:
                grid = CertificateGrid(lams, [2] * len(lams), [0] * len(lams), [0.0] * len(lams), [0.5] * len(lams))
                ThresholdCertificate(status, lambda_hat, grid, RiskConfig(0.5, 0.2), 2)
            assert str(err.value) == message

    @pytest.mark.parametrize("n_at, errors_at, calib_size, message", [
        ([3, 2, 2], [1, 3, 0], 3, "grid[1].errors must be an integer within [0, n], got 3 with n 2"),
        ([3, 2, 2], [1, -1, 0], 3, "grid[1].errors must be an integer within [0, n], got -1 with n 2"),
        ([3, 2, 5], [0, 0, 0], 5, "grid n must be non-increasing: grid[2].n is 5 after 2"),
        ([3, 2, 1], [0, 0, 0], 2, "grid n must not exceed calib_size: grid[0].n is 3 with calib_size 2"),
    ])
    def test_grid_counts_checked(self, n_at, errors_at, calib_size, message):
        with pytest.raises(DomainError) as err:
            grid = CertificateGrid([0.6, 0.7, 0.8], n_at, errors_at, [0.0] * 3, [0.5] * 3)
            ThresholdCertificate("infeasible", None, grid, RiskConfig(0.5, 0.2), calib_size)
        assert str(err.value) == message

    # a fraction past the float range is out of range, quoted cut to 80 characters
    @pytest.mark.parametrize("value, quoted", [(Fraction(10**400), f"Fraction(1{'0' * 28}...{'0' * 35}, 1)"),
                                               (-Fraction(10**400), f"Fraction(-1{'0' * 27}...{'0' * 35}, 1)")])
    def test_risk_past_the_float_range_is_out_of_range(self, value, quoted):
        with pytest.raises(DomainError) as err:
            CertificateGrid([0.6], [2], [0], [value], [0.5])
        assert str(err.value) == f"grid[0].risk_hat must be a number within [0, 1], got {quoted}"

    def test_numpy_cells_are_quoted_as_python_values(self):
        with pytest.raises(DomainError) as err:
            CertificateGrid(np.array([0.6]), np.array([2]), np.array([3]), np.array([0.5]), np.array([0.9]))
        assert str(err.value) == "grid[0].errors must be an integer within [0, n], got 3 with n 2"
        with pytest.raises(DomainError) as err:
            RiskConfig(alpha=np.float64(1.5), beta=0.1)
        assert str(err.value) == "alpha must be within (0, 1), got 1.5"

    def test_grid_is_columns_with_point_views(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        assert isinstance(cert.grid, CertificateGrid) and len(cert.grid) == 6
        assert cert.grid.lam.tolist() == [g[0] for g in FROZEN_GRID]
        assert cert.grid.n_at.dtype == cert.grid.errors_at.dtype == np.int64
        assert next(iter(cert.grid)) == GridPoint(0.6, 6, 2, 2 / 6, cert.grid.risk_plus[0])
        rebuilt = ThresholdCertificate(cert.status, cert.lambda_hat, CertificateGrid(*cert.grid._values()),
                                       cert.config, 6)
        assert rebuilt == cert and rebuilt.grid == cert.grid
        with pytest.raises(TypeError):
            hash(cert)


class TestApplyCertificate:
    def test_decisions(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        decisions = apply_certificate(fixture6(), cert)
        assert _OUTCOME_TEXT[decisions.prediction + 1].tolist() == ["1", "1", "1", "abstain", "abstain", "abstain"]
        assert retain_rate(decisions) == 0.5

    def test_abstention_keeps_confidence(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        decisions = apply_certificate(Dataset(["low"], [0.287], [0]), cert)
        assert decisions.prediction.tolist() == [-1]
        assert decisions.confidence[0] == 1 - 0.287

    def test_boundary_score_is_retained(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        decisions = apply_certificate(Dataset(["edge"], [0.85], [1]), cert)
        assert decisions.prediction.tolist() == [1]

    def test_infeasible_certificate_refuses(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.3, beta=0.2))
        with pytest.raises(InfeasibleCertificateError):
            apply_certificate(fixture6(), cert)

    def test_retain_rate_of_nothing(self):
        assert retain_rate(Decisions([], [], [])) == 0.0


class TestDecision:
    def test_retained_flag(self):
        assert Decision("a", 0, 0.9).retained
        assert not Decision("a", None, 0.9).retained


DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="no integer digit limit on this Python")


class TestDecisions:
    ROWS = [Decision("a", 1, 0.9), Decision("b", None, 0.6), Decision("c", 0, 0.75)]

    def test_apply_returns_columns(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        decisions = apply_certificate(fixture6(), cert)
        assert isinstance(decisions, Decisions)
        assert decisions.ids.tolist() == ["t1", "t2", "t3", "t4", "t5", "t6"]
        assert decisions.prediction.tolist() == [1, 1, 1, -1, -1, -1]
        assert decisions.retained.tolist() == [True] * 3 + [False] * 3
        assert decisions.confidence.tolist() == [confidence(s) for s in fixture6().scores.tolist()]

    def test_views_and_equality(self):
        decisions = Decisions(["a", "b", "c"], [1, -1, 0], [0.9, 0.6, 0.75])
        assert len(decisions) == 3
        assert list(decisions) == self.ROWS
        assert decisions == Decisions(["a", "b", "c"], [1, -1, 0], [0.9, 0.6, 0.75])
        assert decisions != Decisions(["c", "b", "a"], [0, -1, 1], [0.75, 0.6, 0.9])
        assert decisions != self.ROWS and self.ROWS != decisions and decisions != "abc"
        assert retain_rate(decisions) == 2 / 3

    def test_columns_are_read_only(self):
        decisions = Decisions(["a"], [1], [0.9])
        with pytest.raises(ValueError):
            decisions.prediction[0] = 0
        with pytest.raises(ValueError):
            decisions.confidence[0] = 0.5

    # a cell fault is located, as read_decisions locates it; the column is named as in a file
    @pytest.mark.parametrize("prediction, confidences, message, error", [
        pytest.param([1, 0], [0.9], "confidence must be a column (a list, tuple, range or 1-d array) of one length "
                     "with ids (2), got list of length 1", DomainError,
                     id="prediction0-confidences0-decision columns of two lengths"),
        ([2], [0.9], "outcome must be 0, 1 or abstain (-1 in code), got '2' (row 1, column 'outcome')",
         SchemaError),
        ([-2], [0.9], "outcome must be 0, 1 or abstain (-1 in code), got '-2' (row 1, column 'outcome')",
         SchemaError),
        # an abstention coded as -0.5 must not be cast to a label-0 prediction
        ([0.6, -0.5], [0.9, 0.8], "outcome must be 0, 1 or abstain (-1 in code), got '0.6' "
         "(row 1, column 'outcome')", SchemaError),
        ([1, -0.5], [0.9, 0.8], "outcome must be 0, 1 or abstain (-1 in code), got '-0.5' "
         "(row 2, column 'outcome')", SchemaError),
        ([1, float("nan")], [0.9, 0.8], "outcome must be 0, 1 or abstain (-1 in code), got 'nan' "
         "(row 2, column 'outcome')", SchemaError),
        ([1, 0], [0.9, 0.1], "confidence must be a number within [0.5, 1], got '0.1' "
         "(row 2, column 'confidence')", SchemaError),
        ([1], [float("nan")], "confidence must be a number within [0.5, 1], got 'nan' "
         "(row 1, column 'confidence')", SchemaError),
        ([1], [1.5], "confidence must be a number within [0.5, 1], got '1.5' (row 1, column 'confidence')",
         SchemaError),
        ([1], ["0.9"], "confidence must be a number within [0.5, 1], got '0.9' (row 1, column 'confidence')",
         SchemaError),
        ([1, True], [0.9, 0.8], "outcome must be 0, 1 or abstain (-1 in code), got 'True' "
         "(row 2, column 'outcome')", SchemaError),
        # a fraction past the float range is out of range
        pytest.param([1], [Fraction(10**400)], "confidence must be a number within [0.5, 1], got '1" + "0" * 37
                     + "..." + "0" * 39 + "' (row 1, column 'confidence')", SchemaError, id="huge fraction"),
        # an integer str() cannot spell is quoted by its size
        pytest.param([1, 10**5000], [0.9, 0.8], "outcome must be 0, 1 or abstain (-1 in code), got an integer of "
                     f"{(10**5000).bit_length()} bits (row 2, column 'outcome')", SchemaError, marks=DIGIT_LIMIT,
                     id="outcome past the digit limit"),
        pytest.param([1], [10**5000], "confidence must be a number within [0.5, 1], got an integer of "
                     f"{(10**5000).bit_length()} bits (row 1, column 'confidence')", SchemaError, marks=DIGIT_LIMIT,
                     id="confidence past the digit limit"),
    ])
    def test_bad_columns_rejected(self, prediction, confidences, message, error):
        with pytest.raises(error) as err:
            Decisions([f"r{i}" for i in range(len(prediction))], prediction, confidences)
        assert type(err.value) is error and str(err.value) == message

    # the id rules datasets keep, so that every Decisions written reads back as it was
    @pytest.mark.parametrize("ids, error, message", [
        (["a", "a"], DuplicateIdError, "duplicate record id 'a' at row 2"),
        (["", "b"], SchemaError, "id must be a nonempty string, got '' (row 1, column 'id')"),
        ([1, 2], SchemaError, "id must be a nonempty string, got 1 (row 1, column 'id')"),
        (["a", None], SchemaError, "id must be a nonempty string, got None (row 2, column 'id')"),
        (["a", "\ud83d"], SchemaError, "id must be encodable as UTF-8, got '\\ud83d' (row 2, column 'id')"),
    ])
    def test_ids_checked_as_a_reader_checks_them(self, ids, error, message):
        with pytest.raises(error) as err:
            Decisions(ids, [1, -1], [0.9, 0.6])
        assert type(err.value) is error and str(err.value) == message


def certificate_of(status, lambda_hat, grid, config, calib_size) -> ThresholdCertificate:
    """Build a certificate from its fields, in the order `certificate_from_json` reads them.

    grid is the five columns; config is (alpha, beta, min_count).
    """
    config = RiskConfig(*config)
    return ThresholdCertificate(status, lambda_hat, CertificateGrid(*grid), config, calib_size)


def certificate_json(status, lambda_hat, grid, config, calib_size) -> str:
    """The certificate document of these fields, written as they are (NaN and Infinity included)."""
    return json.dumps({"status": status, "lambda_hat": lambda_hat, "alpha": config[0], "beta": config[1],
                       "min_count": config[2], "calib_size": calib_size,
                       "grid": [dict(zip(("lambda", "n", "errors", "risk_hat", "risk_plus"), row))
                                for row in zip(*grid)]})


FIELDS = ("status", "lambda_hat", "grid", "config", "calib_size")
GRID_KEYS = ("lambda", "n", "errors", "risk_hat", "risk_plus")


def fixture6_fields(*edits) -> list:
    """The fields of fixture6's certificate at alpha 0.85, beta 0.2 (feasible at 0.6, grid n 6 to 1),
    with each (field, value) or ((grid key, index), value) of `edits` applied."""
    cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
    fields = [cert.status, cert.lambda_hat, [list(column) for column in cert.grid._values()],
              (0.85, 0.2, 1), cert.calib_size]
    for where, value in edits:
        if isinstance(where, tuple):
            fields[2][GRID_KEYS.index(where[0])][where[1]] = value
        else:
            fields[FIELDS.index(where)] = value
    return fields


class TestOneBadValueTwoSources:
    """Each certificate rule is its constructors': code and JSON fail with the same words."""

    @pytest.mark.parametrize("edits, message", [
        # a fractional count, or a bool, that numpy would cast
        ([(("n", 0), 2.7)], "grid[0].n must be an integer within [0, 2**63), got 2.7"),
        ([(("errors", 1), True)], "grid[1].errors must be an integer within [0, n], got True with n 5"),
        # a count past the int64 range
        ([(("n", 0), 2**63 + 5)], "grid[0].n must be an integer within [0, 2**63), got 9223372036854775813"),
        ([(("errors", 0), 2**63 + 5)],
         "grid[0].errors must be an integer within [0, n], got 9223372036854775813 with n 6"),
        # a risk that is NaN, outside [0, 1] or a string
        ([(("risk_plus", 2), math.nan)], "grid[2].risk_plus must be a number within [0, 1], got nan"),
        ([(("risk_plus", 2), -7.0)], "grid[2].risk_plus must be a number within [0, 1], got -7.0"),
        ([(("risk_hat", 3), "0.5")], "grid[3].risk_hat must be a number within [0, 1], got '0.5'"),
        # calib_size a fraction
        ([("calib_size", 5.5)], "calib_size must be an integer, got 5.5"),
        ([("calib_size", 6.0)], "calib_size must be an integer, got 6.0"),
        # lambda_hat a string, a bool, or no threshold of the grid
        ([("lambda_hat", "0.8")], "lambda_hat must be a number, got '0.8'"),
        ([("lambda_hat", True)], "lambda_hat must be a number, got True"),
        ([("lambda_hat", 0.65)], "lambda_hat must be one of the grid's thresholds, got 0.65"),
        # an empty grid evidences nothing: no calibration record, no threshold
        ([("grid", [[]] * 5), ("lambda_hat", 0.9), ("calib_size", 0)], "calib_size must be an integer >= 1, got 0"),
        ([("grid", [[]] * 5), ("lambda_hat", 0.9)], "lambda_hat must be one of the grid's thresholds, got 0.9"),
    ])
    def test_defect(self, edits, message):
        fields = fixture6_fields(*edits)
        with pytest.raises(DomainError) as err:
            certificate_of(*fields)
        assert str(err.value) == message
        with pytest.raises(SchemaError) as err:
            certificate_from_json(certificate_json(*fields))
        assert str(err.value) == "malformed certificate: " + message

    def test_untampered_fields_build_the_certificate_both_ways(self):
        fields = fixture6_fields()
        cert = certificate_of(*fields)
        assert cert == certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        assert certificate_to_json(certificate_from_json(certificate_json(*fields))) == certificate_to_json(cert)


class TestCertificateSerialization:
    # thresholds are written with repr; derived statistics at 12 significant
    # digits, so those load stable under re-serialization, not bit-identical
    def test_round_trip_is_stable(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        text = certificate_to_json(cert)
        loaded = certificate_from_json(text)
        assert certificate_to_json(loaded) == text
        assert loaded.status == cert.status
        assert loaded.lambda_hat == pytest.approx(cert.lambda_hat, rel=1e-11)
        assert loaded.grid.n_at.tolist() == cert.grid.n_at.tolist()
        assert loaded.grid.errors_at.tolist() == cert.grid.errors_at.tolist()

    def test_thresholds_round_trip_exactly(self):
        # confidences with more than 12 significant digits
        scores = [0.5 + i / 7.0 / 3.0 for i in range(1, 8)]
        data = Dataset([f"r{i}" for i in range(len(scores))], scores, [1] * len(scores))
        cert = certify_threshold(data, RiskConfig(alpha=0.9, beta=0.2))
        loaded = certificate_from_json(certificate_to_json(cert))
        assert loaded.lambda_hat == cert.lambda_hat
        assert loaded.grid.lam.tolist() == cert.grid.lam.tolist()

    def test_integer_threshold_is_written_as_a_float(self):
        cert = ThresholdCertificate("infeasible", None, CertificateGrid([1], [0], [0], [1.0], [1.0]),
                                    RiskConfig(alpha=0.5, beta=0.2), 1)
        assert '"lambda": 1.0,' in certificate_to_json(cert)

    def test_round_trip_infeasible(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.3, beta=0.2))
        loaded = certificate_from_json(certificate_to_json(cert))
        assert loaded.status == "infeasible" and loaded.lambda_hat is None

    def test_manifest_is_embedded_but_ignored_on_load(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        text = certificate_to_json(cert, manifest={"command": "calibrate"})
        doc = json.loads(text)
        assert doc["manifest"] == {"command": "calibrate"}
        assert certificate_from_json(text).lambda_hat == cert.lambda_hat

    def test_numbers_use_twelve_significant_digits(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        text = certificate_to_json(cert)
        assert '"risk_plus": 0.415196452357' in text

    def test_key_layout(self):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        doc = json.loads(certificate_to_json(cert))
        assert list(doc) == ["status", "lambda_hat", "alpha", "beta", "min_count", "calib_size", "grid"]
        assert list(doc["grid"][0]) == ["lambda", "n", "errors", "risk_hat", "risk_plus"]

    def test_load_certificate(self, tmp_path):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        path = tmp_path / "cert.json"
        path.write_text(certificate_to_json(cert))
        loaded = load_certificate(path)
        assert loaded.lambda_hat == cert.lambda_hat == 0.6
        assert loaded.config == cert.config

    def test_certificate_with_bom_loads(self, tmp_path):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))
        path = tmp_path / "cert.json"
        text = certificate_to_json(cert)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_certificate(path) == certificate_from_json(text)

    def test_non_utf8_certificate(self, tmp_path):
        path = tmp_path / "cert.json"
        path.write_bytes(b'{"status": "\xff"}')
        with pytest.raises(DatasetIOError, match="'utf-8' codec can't decode"):
            load_certificate(path)

    def test_malformed_certificate(self):
        with pytest.raises(SchemaError):
            certificate_from_json("{not json")
        with pytest.raises(SchemaError):
            certificate_from_json('{"status": "feasible"}')

    @pytest.mark.parametrize("key", ["alpha", "beta", "grid", "status", "lambda_hat", "calib_size"])
    def test_missing_field_is_named(self, key):
        doc = json.loads(certificate_to_json(
            certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))))
        del doc[key]
        with pytest.raises(SchemaError) as err:
            certificate_from_json(json.dumps(doc))
        assert str(err.value) == f"malformed certificate: '{key}'"

    @pytest.mark.parametrize("text", ["[1, 2]", '"certificate"', "null"])
    def test_document_that_is_not_an_object(self, text):
        with pytest.raises(SchemaError) as err:
            certificate_from_json(text)
        assert str(err.value) == "malformed certificate: the document must be an object"

    def test_grid_that_is_not_a_list(self):
        doc = json.loads(certificate_to_json(
            certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))))
        doc["grid"] = {"lambda": 0.6}
        with pytest.raises(SchemaError) as err:
            certificate_from_json(json.dumps(doc))
        assert str(err.value) == "malformed certificate: grid must be a list"

    def test_grid_entry_that_is_not_an_object(self):
        doc = json.loads(certificate_to_json(
            certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))))
        doc["grid"][1] = [0.7, 5, 1]
        with pytest.raises(SchemaError) as err:
            certificate_from_json(json.dumps(doc))
        assert str(err.value) == "malformed certificate: grid[1] must be an object"

    # each count's rule, as its constructor words it, with the grid's n at the index
    COUNT_RULES = {"min_count": "min_count must be an integer, got {}",
                   "calib_size": "calib_size must be an integer, got {}",
                   "n": "grid[{i}].n must be an integer within [0, 2**63), got {}",
                   "errors": "grid[{i}].errors must be an integer within [0, n], got {} with n {n}"}

    @pytest.mark.parametrize("field", ["min_count", "calib_size", "n", "errors"])
    def test_count_beyond_integer_range(self, tmp_path, field):
        # 1e400 loads as float infinity, which no count can be
        doc = json.loads(certificate_to_json(
            certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))))
        (doc["grid"][0] if field in ("n", "errors") else doc)[field] = "@@"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc).replace('"@@"', "1e400"))
        with pytest.raises(SchemaError) as err:
            load_certificate(path)
        assert str(err.value) == "malformed certificate: " + self.COUNT_RULES[field].format("inf", i=0, n=6)

    @pytest.mark.parametrize("value, shown", [("NaN", "nan"), ("-Infinity", "-inf")])
    @pytest.mark.parametrize("field", ["min_count", "calib_size", "n", "errors"])
    def test_count_not_finite(self, field, value, shown):
        doc = json.loads(certificate_to_json(
            certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))))
        (doc["grid"][2] if field in ("n", "errors") else doc)[field] = "@@"
        with pytest.raises(SchemaError) as err:
            certificate_from_json(json.dumps(doc).replace('"@@"', value))
        assert str(err.value) == "malformed certificate: " + self.COUNT_RULES[field].format(shown, i=2, n=4)

    def test_nested_past_the_recursion_limit(self):
        with pytest.raises(SchemaError, match="^invalid certificate JSON: maximum recursion depth"):
            certificate_from_json("[" * 100000 + "]" * 100000)

    @pytest.mark.parametrize("field, value, message", [
        ("lambda_hat", "true", "lambda_hat must be a number, got True"),
        ("lambda_hat", '"0.75"', "lambda_hat must be a number, got '0.75'"),
        ("alpha", "false", "alpha must be a number, got False"),
        ("min_count", "true", "min_count must be an integer, got True"),
        ("min_count", "1.5", "min_count must be an integer, got 1.5"),
        ("calib_size", "5.9", "calib_size must be an integer, got 5.9"),
        ("calib_size", '"6"', "calib_size must be an integer, got '6'"),
        ("n", "2.7", "grid[0].n must be an integer within [0, 2**63), got 2.7"),
        ("errors", "true", "grid[0].errors must be an integer within [0, n], got True with n 6"),
        ("errors", "999", "grid[0].errors must be an integer within [0, n], got 999 with n 6"),
        ("errors", "-1", "grid[0].errors must be an integer within [0, n], got -1 with n 6"),
        ("lambda", "null", "grid[0].lambda must be a number, got None"),
        ("risk_plus", '"1"', "grid[0].risk_plus must be a number within [0, 1], got '1'"),
        ("lambda_hat", "NaN", "lambda_hat must be a number, got nan"),
        ("lambda_hat", "Infinity", f"{THRESHOLD_RULE}lambda_hat is inf"),
        ("lambda_hat", "-Infinity", f"{THRESHOLD_RULE}lambda_hat is -inf"),
        # an integer past the float range reads as inf, as a grid threshold does
        pytest.param("lambda_hat", "1" + "0" * 400, f"{THRESHOLD_RULE}lambda_hat is inf", id="lambda_hat-huge"),
        pytest.param("lambda", "1" + "0" * 400, f"{THRESHOLD_RULE}grid[0].lambda is inf", id="lambda-huge"),
        ("alpha", "NaN", "alpha must be a number, got nan"),
        ("beta", "1e400", "beta must be within (0, 1), got inf"),
        ("lambda", "NaN", "grid[0].lambda must be a number, got nan"),
        ("risk_hat", "-Infinity", "grid[0].risk_hat must be a number within [0, 1], got -inf"),
        ("risk_plus", "NaN", "grid[0].risk_plus must be a number within [0, 1], got nan"),
        ("risk_plus", "Infinity", "grid[0].risk_plus must be a number within [0, 1], got inf"),
    ])
    def test_field_of_the_wrong_type(self, field, value, message):
        doc = json.loads(certificate_to_json(
            certify_threshold(fixture6(), RiskConfig(alpha=0.85, beta=0.2))))
        in_grid = ("lambda", "n", "errors", "risk_hat", "risk_plus")
        (doc["grid"][0] if field in in_grid else doc)[field] = "@@"
        with pytest.raises(SchemaError) as err:
            certificate_from_json(json.dumps(doc).replace('"@@"', value))
        assert str(err.value) == "malformed certificate: " + message

    @pytest.mark.parametrize("tamper, message", [
        # n rises at grid[3]: 4 records retained at 0.8, a million at 0.85
        (lambda doc: doc["grid"][3].update(n=1000000),
         "grid n must be non-increasing: grid[3].n is 1000000 after 4"),
        # the same rule reaches below the grid: the bottom point retains at most calib_size
        (lambda doc: doc.update(calib_size=5),
         "grid n must not exceed calib_size: grid[0].n is 6 with calib_size 5"),
        # errors > n at grid[4], before a threshold out of order at grid[5]
        (lambda doc: (doc["grid"][4].update(errors=3), doc["grid"][5].update({"lambda": 0.6})),
         "grid[4].errors must be an integer within [0, n], got 3 with n 2"),
        # thresholds out of order: 0.8 and 0.85 swapped
        (lambda doc: (doc["grid"][3].update({"lambda": 0.85}), doc["grid"][4].update({"lambda": 0.8})),
         "thresholds must be finite, within [0.5, 1] and strictly ascending: grid[4].lambda is 0.8"),
        # a threshold out of order at grid[1], before a rising n at grid[2]
        (lambda doc: (doc["grid"][1].update({"lambda": 0.55}), doc["grid"][2].update(n=9)),
         "thresholds must be finite, within [0.5, 1] and strictly ascending: grid[1].lambda is 0.55"),
        (lambda doc: doc.update(status="infeasible"),
         "lambda_hat must be present exactly when status is feasible"),
        (lambda doc: doc.update(status="maybe"), "status must be feasible or infeasible, got 'maybe'"),
        (lambda doc: doc.update(alpha=1.5), "alpha must be within (0, 1), got 1.5"),
        # a missing grid field is located, as a null one is
        (lambda doc: doc["grid"][2].pop("risk_plus"), "grid[2].risk_plus must be a number within [0, 1], got None"),
        # the first bad grid entry wins, whether its fault is a field or the entry itself
        (lambda doc: (doc["grid"][1].update(n=2.7), doc["grid"].__setitem__(4, [0.9, 2])),
         "grid[1].n must be an integer within [0, 2**63), got 2.7"),
        (lambda doc: (doc["grid"].__setitem__(1, None), doc["grid"][4].update(n=2.7)),
         "grid[1] must be an object"),
    ])
    def test_tampered_certificate_is_a_located_schema_error(self, tamper, message):
        doc = json.loads(certificate_to_json(
            certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))))
        assert [pt["n"] for pt in doc["grid"]] == [6, 5, 4, 3, 2, 1]
        tamper(doc)
        with pytest.raises(SchemaError) as err:
            certificate_from_json(json.dumps(doc))
        assert str(err.value) == "malformed certificate: " + message

    @pytest.mark.parametrize("name", ["cert.json", "cert_carved.json"])
    def test_golden_certificates_load_unchanged(self, name):
        text = (Path(__file__).parent / "golden" / "outputs" / name).read_text(encoding="utf-8")
        manifest = json.loads(text)["manifest"]
        assert certificate_to_json(certificate_from_json(text), manifest=manifest) == text

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer digit limit on this Python")
    def test_integer_past_the_digit_limit(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(SchemaError, match="^invalid certificate JSON: Exceeds the limit"):
            certificate_from_json('{"min_count": 1' + "0" * digits + "}")


class TestDecisionsIO:
    def test_round_trip(self, tmp_path):
        cert = certify_threshold(fixture6(), RiskConfig(alpha=0.45, beta=0.2, min_count=3))
        decisions = apply_certificate(fixture6(), cert)
        path = tmp_path / "dec.csv"
        write_decisions(decisions, path)
        assert read_decisions(path) == decisions

    def test_header_checked(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("id,verdict,confidence\na,1,0.9\n")
        with pytest.raises(SchemaError):
            read_decisions(path)

    def test_bad_outcome(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("id,outcome,confidence\na,maybe,0.9\n")
        with pytest.raises(SchemaError):
            read_decisions(path)

    def test_confidence_range_checked(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("id,outcome,confidence\na,1,0.2\n")
        with pytest.raises(SchemaError):
            read_decisions(path)

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("id,outcome,confidence\na,1,0.9\na,0,0.8\n")
        with pytest.raises(DuplicateIdError, match=r"^duplicate record id 'a' at row 2$"):
            read_decisions(path)

    @pytest.mark.parametrize("rows, message", [
        # the first bad row, and within it the first failing check
        ("a,1,0.9\nb,2\nc,x,y\n", "expected 3 fields, got 2 (row 2)"),
        ("a,1,0.9\n\nb,1,0.9\n", "expected 3 fields, got 0 (row 2)"),
        # the id rules come before the outcome within a row; a repeat is a DuplicateIdError
        pytest.param("a,1,0.9\na,x,0.2\n", "duplicate record id 'a' at row 2",
                     id="a,1,0.9\na,x,0.2\n-bad or duplicate id before bad outcome"),
        (",x,0.2\n", "id must be a nonempty string, got '' (row 1, column 'id')"),
        ("a,1,0.9\nb,maybe,x\n",
         "outcome must be 0, 1 or abstain (-1 in code), got 'maybe' (row 2, column 'outcome')"),
        ("a,1,high\nb,0,0.2\n", "confidence must be a number within [0.5, 1], got 'high' (row 1, column 'confidence')"),
        ("a,1,0.9\nb,0,nan\nc,0,x\n",
         "confidence must be a number within [0.5, 1], got 'nan' (row 2, column 'confidence')"),
        # text float() would read: an underscore or surrounding space
        ("a,1,0.9_5\n", "confidence must be a number within [0.5, 1], got '0.9_5' (row 1, column 'confidence')"),
        ("a,1,0.9\nb,0, 0.6\n",
         "confidence must be a number within [0.5, 1], got ' 0.6' (row 2, column 'confidence')"),
    ])
    def test_first_bad_row_and_check_named(self, tmp_path, rows, message):
        path = tmp_path / "dec.csv"
        path.write_text("id,outcome,confidence\n" + rows)
        with pytest.raises((SchemaError, DuplicateIdError)) as err:
            read_decisions(path)
        assert str(err.value) == message
        assert type(err.value) is (DuplicateIdError if message.startswith("duplicate") else SchemaError)

    def test_reads_columns(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("id,outcome,confidence\na,1,0.9\nb,abstain,0.5\nc,0,1\n")
        decisions = read_decisions(path)
        assert isinstance(decisions, Decisions)
        assert decisions.prediction.tolist() == [1, -1, 0]
        assert decisions.confidence.tolist() == [0.9, 0.5, 1.0]

    def test_oversized_field_is_located(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text('id,outcome,confidence\na,1,0.9\nb,"' + "x" * 131073 + '",0.8\n')
        with pytest.raises(SchemaError, match="field larger than field limit") as err:
            read_decisions(path)
        assert err.value.row == 2

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_bytes(b"id,outcome,confidence\n\xff,1,0.9\n")
        with pytest.raises(DatasetIOError, match="'utf-8' codec can't decode"):
            read_decisions(path)


class TestDecisionsCsvQuoting:
    @pytest.mark.parametrize("rec_id", ["a\nb", "a\rb", 'x,"y"\r\nz'])
    def test_line_breaks_in_ids_round_trip(self, tmp_path, rec_id):
        decisions = Decisions([rec_id, "plain"], [1, -1], [0.75, 0.5])
        path = tmp_path / "dec.csv"
        write_decisions(decisions, path)
        assert read_decisions(path) == decisions

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_bytes("\ufeffid,outcome,confidence\na,1,0.9\n".encode("utf-8"))
        assert read_decisions(path) == Decisions(["a"], [1], [0.9])


class TestConfidenceCorrectKernel:
    def test_matches_scalar_rules(self):
        scores = np.array([0.0, 0.2, 0.5, 0.5, 0.7, 1.0])
        labels = np.array([0, 1, 1, 0, 1, 0])
        conf, correct = _confidence_correct(scores, labels)
        assert conf.tolist() == [confidence(s) for s in scores]
        assert correct.tolist() == [predicted_label(s) == y for s, y in zip(scores, labels)]


# threshold entry point -> (call taking one threshold cell, how it names that cell, its error)
THRESHOLD_ENTRY_POINTS = {
    "CertificateGrid": (lambda v: CertificateGrid([0.55, v], [2, 1], [0, 0], [0.0, 0.0], [0.5, 0.5]),
                        "grid[1].lambda", DomainError),
    "ThresholdCertificate.lambda_hat": (
        lambda v: ThresholdCertificate("feasible", v, CertificateGrid([0.6], [2], [0], [0.0], [0.5]),
                                       RiskConfig(0.5, 0.2), 2),
        "lambda_hat", DomainError),
    "tradeoff_curve": (lambda v: tradeoff_curve(fixture6(), [0.55, v]), "lambda[1]", UnsortedLambdasError),
    "selective_risk": (lambda v: selective_risk(fixture6(), v, 0.2), "lam", DomainError),
}
# a hostile threshold cell -> the error it gets, given the cell's name: a bool, text, a list and
# NaN are no number, and an integer or fraction past the float range reads as an infinity of its sign
HOSTILE_THRESHOLDS = {
    "True": (True, "{} must be a number, got True"),
    "text": ("0.6", "{} must be a number, got '0.6'"),
    "huge": (10**400, THRESHOLD_RULE + "{} is inf"),
    "negative huge": (-10**400, THRESHOLD_RULE + "{} is -inf"),
    "huge fraction": (Fraction(10**400), THRESHOLD_RULE + "{} is inf"),
    "negative huge fraction": (-Fraction(10**400), THRESHOLD_RULE + "{} is -inf"),
    "nan": (math.nan, "{} must be a number, got nan"),
    "list": ([0.6], "{} must be a number, got [0.6]"),
}


@pytest.mark.parametrize("value", HOSTILE_THRESHOLDS)
@pytest.mark.parametrize("entry", THRESHOLD_ENTRY_POINTS)
def test_one_threshold_rule_at_every_entry_point(entry, value):
    call, where, error = THRESHOLD_ENTRY_POINTS[entry]
    cell, message = HOSTILE_THRESHOLDS[value]
    with pytest.raises(SelcertError) as err:
        call(cell)
    assert type(err.value) is error
    assert str(err.value) == message.format(where)
