"""Every public numeric argument goes through one of two checks in selcert.errors.

A real number inside an interval, or an integer at or above a minimum: bools,
NaN, strings, out-of-range and huge values raise DomainError at every entry
point, and numpy scalars are accepted wherever a Python number is.
"""

import numpy as np
import pytest

from selcert import (
    BinomialTail,
    Dataset,
    DomainError,
    RiskConfig,
    SyntheticScorerSpec,
    binom_cdf,
    bootstrap_significance,
    confidence,
    generate_synthetic,
    risk_upper_bound,
    validate_guarantee,
)
from selcert.binom import risk_upper_bounds, tail_at_most

SPEC = SyntheticScorerSpec(n=30, prevalence=0.5, pos_shape=(3, 2), neg_shape=(2, 3), seed=3)
CONFIG = RiskConfig(alpha=0.3, beta=0.2, min_count=5)


def _bootstrap(resamples, seed=1):
    a = generate_synthetic(SPEC)
    b = Dataset.from_columns(a.ids(), a.scores()[::-1], a.labels())
    return bootstrap_significance(a, b, "roc_auc", resamples=resamples, seed=seed)


# entry point -> (call taking the value under test, kind of value)
ENTRY_POINTS = {
    "RiskConfig.alpha": (lambda v: RiskConfig(alpha=v, beta=0.1), "open unit"),
    "RiskConfig.beta": (lambda v: RiskConfig(alpha=0.1, beta=v), "open unit"),
    "RiskConfig.min_count": (lambda v: RiskConfig(alpha=0.1, beta=0.1, min_count=v), "count"),
    "BinomialTail.k": (lambda v: BinomialTail(v, 10), "bounded count"),
    "BinomialTail.n": (lambda v: BinomialTail(0, v), "count"),
    "binom_cdf.k": (lambda v: binom_cdf(v, 10, 0.5), "bounded count"),
    "binom_cdf.n": (lambda v: binom_cdf(0, v, 0.5), "count"),
    "binom_cdf.p": (lambda v: binom_cdf(1, 10, v), "closed unit"),
    "tail_at_most.p": (lambda v: tail_at_most([1], [10], v, 0.1), "open unit"),
    "tail_at_most.beta": (lambda v: tail_at_most([1], [10], 0.2, v), "open unit"),
    "risk_upper_bound.beta": (lambda v: risk_upper_bound(BinomialTail(1, 10), v), "open unit"),
    "risk_upper_bound.tol": (lambda v: risk_upper_bound(BinomialTail(3, 50), 0.1, tol=v), "tol"),
    "risk_upper_bound.max_iter": (lambda v: risk_upper_bound(BinomialTail(3, 50), 0.1, max_iter=v),
                                  "count"),
    "risk_upper_bounds.beta": (lambda v: risk_upper_bounds([1], [10], v), "open unit"),
    "risk_upper_bounds.tol": (lambda v: risk_upper_bounds([3], [50], 0.1, tol=v), "tol"),
    "risk_upper_bounds.max_iter": (lambda v: risk_upper_bounds([3], [50], 0.1, max_iter=v), "count"),
    "confidence": (confidence, "closed unit"),
    "SyntheticScorerSpec.n": (lambda v: SyntheticScorerSpec(v, 0.5, (2, 2), (2, 2), 0), "count"),
    "SyntheticScorerSpec.prevalence": (lambda v: SyntheticScorerSpec(5, v, (2, 2), (2, 2), 0),
                                       "open unit"),
    "validate_guarantee.trials": (lambda v: validate_guarantee(SPEC, CONFIG, v, 20, 20, 0), "count"),
    "validate_guarantee.n_calib": (lambda v: validate_guarantee(SPEC, CONFIG, 1, v, 20, 0), "count"),
    "validate_guarantee.n_test": (lambda v: validate_guarantee(SPEC, CONFIG, 1, 20, v, 0), "count"),
    "bootstrap_significance.resamples": (_bootstrap, "resamples"),
    "SyntheticScorerSpec.seed": (lambda v: SyntheticScorerSpec(5, 0.5, (2, 2), (2, 2), v), "seed"),
    "validate_guarantee.seed": (lambda v: validate_guarantee(SPEC, CONFIG, 1, 20, 20, v), "seed"),
    "bootstrap_significance.seed": (lambda v: _bootstrap(100, seed=v), "seed"),
}

HUGE = 10**400
COMMON = [True, False, float("nan"), np.float64("nan"), "0.5", None, -HUGE]
BAD = {
    "open unit": COMMON + [HUGE, 0, 1, 0.0, 1.0, -0.1, 1.5, float("inf")],
    "closed unit": COMMON + [HUGE, -0.1, 1.5, float("-inf"), float("inf")],
    "tol": COMMON + [HUGE, 0, 0.0, -1e-10, float("inf")],
    # +HUGE is a legal count wherever there is no maximum
    "count": COMMON + [0, -1, 1.0, 2.5, np.float64(3.0)],
    "bounded count": COMMON + [HUGE, -1, 11, 1.0],
    "resamples": COMMON + [0, 99, 100.0],
    # a seed is any integer, of either sign and any size
    "seed": [True, False, float("nan"), "1", None, 1.5, 1.0, np.float64(3.0)],
}
# numpy scalars of legal values, which every entry point accepts
GOOD = {
    "open unit": [np.float64(0.25), np.float32(0.25)],
    "closed unit": [np.float64(0.25), np.float32(0.25), np.float64(0.0), np.float32(1.0)],
    "tol": [np.float64(1e-10), np.float32(1e-9)],
    "count": [np.int64(5), np.int32(5)],
    "bounded count": [np.int64(3), np.int64(0), np.int64(10)],
    "resamples": [np.int64(100)],
    "seed": [np.int64(5), np.int32(-5), -HUGE, HUGE],
}


def _rows(values_by_kind):
    return [pytest.param(entry, value, id=f"{entry}-{value!r:.20}")
            for entry, (_, kind) in ENTRY_POINTS.items() for value in values_by_kind[kind]]


@pytest.mark.parametrize("entry,value", _rows(BAD))
def test_rejects_bad_value(entry, value):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=r"must be (a number|an integer|within)"):
        call(value)


@pytest.mark.parametrize("entry,value", _rows(GOOD))
def test_accepts_numpy_scalar(entry, value):
    call, _ = ENTRY_POINTS[entry]
    call(value)


def test_huge_integer_is_named_by_its_bit_length():
    with pytest.raises(DomainError, match=r"^p must be within \[0, 1\], got an integer of 1329 bits$"):
        binom_cdf(1, 10, HUGE)
    with pytest.raises(DomainError, match=r"^min_count must be an integer >= 1, got a negative integer"):
        RiskConfig(alpha=0.1, beta=0.1, min_count=-HUGE)


@pytest.mark.parametrize("call", [lambda: binom_cdf(0, HUGE, 0.5),
                                  lambda: risk_upper_bound(BinomialTail(0, HUGE), 0.1)])
def test_count_past_64_bits_cannot_be_summed(call):
    # a legal BinomialTail, but its CDF sum works on 64-bit counts
    with pytest.raises(DomainError, match="64-bit integers"):
        call()


def test_nan_tolerance_is_not_a_converged_bound():
    # a NaN tol makes every residual test false, so one step would pass off
    # its first iterate, 0.1186, as the bound, which is 0.1288
    with pytest.raises(DomainError, match="^tol must be a number, got nan$"):
        risk_upper_bound(BinomialTail(3, 50), 0.1, tol=float("nan"), max_iter=1)
