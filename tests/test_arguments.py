"""Every public numeric argument goes through one of the checks in selcert.records.

A real number inside an interval, or an integer at or above a minimum: bools,
NaN, strings, out-of-range and huge values raise DomainError at every entry
point, and numpy scalars are accepted wherever a Python number is. A beta is
also rejected where 1.0 - beta rounds to 1.0 (`check_beta`). A seed, and each
argument of the `rng` functions, is any integer of either sign and any size.
What holds cells, a column, a row list or a pair, has its own matrix in
test_shapes.py, and a threshold has its own in test_calibrate.py. A test
collects every argument annotated with a number, so a new one cannot escape
these matrices.
"""

import inspect

import numpy as np
import pytest
from test_calibrate import THRESHOLD_ENTRY_POINTS
from test_shapes import annotated_parameters

import selcert
from selcert import (
    BinomialTail,
    Dataset,
    DomainError,
    RiskConfig,
    SyntheticScorerSpec,
    ThresholdCertificate,
    binom_cdf,
    bootstrap_significance,
    confidence,
    generate_synthetic,
    mix64,
    predicted_label,
    risk_upper_bound,
    selective_risk,
    substream,
    substream_seed,
    validate_guarantee,
)
from selcert.binom import risk_upper_bounds, tail_at_most
from selcert.calibrate import CertificateGrid

SPEC = SyntheticScorerSpec(n=30, prevalence=0.5, pos_shape=(3, 2), neg_shape=(2, 3), seed=3)
CONFIG = RiskConfig(alpha=0.3, beta=0.2, min_count=5)
# records retained at lam = 0.5, so selective_risk solves a bound
RETAINED = Dataset(["a", "b"], [0.9, 0.8], [1, 0])
# the smallest legal beta: 1.0 - beta rounds to 1.0 at 2**-54 and below
SMALLEST_BETA = np.nextafter(2.0**-54, 1.0)


def _bootstrap(resamples, seed=1):
    a = generate_synthetic(SPEC)
    b = Dataset(a.ids, a.scores[::-1], a.labels)
    return bootstrap_significance(a, b, "roc_auc", resamples=resamples, seed=seed)


# entry point -> (call taking the value under test, kind of value)
ENTRY_POINTS = {
    "RiskConfig.alpha": (lambda v: RiskConfig(alpha=v, beta=0.1), "open unit"),
    "RiskConfig.beta": (lambda v: RiskConfig(alpha=0.1, beta=v), "beta"),
    "RiskConfig.min_count": (lambda v: RiskConfig(alpha=0.1, beta=0.1, min_count=v), "count"),
    "BinomialTail.k": (lambda v: BinomialTail(v, 10), "bounded count"),
    "BinomialTail.n": (lambda v: BinomialTail(0, v), "count"),
    "binom_cdf.k": (lambda v: binom_cdf(v, 10, 0.5), "bounded count"),
    "binom_cdf.n": (lambda v: binom_cdf(0, v, 0.5), "count"),
    "binom_cdf.p": (lambda v: binom_cdf(1, 10, v), "closed unit"),
    "tail_at_most.p": (lambda v: tail_at_most([1], [10], v, 0.1), "open unit"),
    "tail_at_most.beta": (lambda v: tail_at_most([1], [10], 0.2, v), "beta"),
    "risk_upper_bound.beta": (lambda v: risk_upper_bound(BinomialTail(1, 10), v), "beta"),
    "risk_upper_bounds.beta": (lambda v: risk_upper_bounds([1], [10], v), "beta"),
    "selective_risk.beta": (lambda v: selective_risk(RETAINED, 0.5, v), "beta"),
    "confidence": (confidence, "closed unit"),
    "predicted_label": (predicted_label, "closed unit"),
    "SyntheticScorerSpec.n": (lambda v: SyntheticScorerSpec(v, 0.5, (2, 2), (2, 2), 0), "count"),
    "SyntheticScorerSpec.prevalence": (lambda v: SyntheticScorerSpec(5, v, (2, 2), (2, 2), 0),
                                       "open unit"),
    "validate_guarantee.trials": (lambda v: validate_guarantee(SPEC, CONFIG, v, 20, 20, 0), "count"),
    "validate_guarantee.n_calib": (lambda v: validate_guarantee(SPEC, CONFIG, 1, v, 20, 0), "count"),
    "validate_guarantee.n_test": (lambda v: validate_guarantee(SPEC, CONFIG, 1, 20, v, 0), "count"),
    "validate_guarantee.max_workers": (lambda v: validate_guarantee(SPEC, CONFIG, 1, 20, 20, 0, v), "count"),
    "ThresholdCertificate.calib_size": (
        lambda v: ThresholdCertificate("infeasible", None, CertificateGrid([], [], [], [], []), CONFIG, v), "count"),
    "bootstrap_significance.resamples": (_bootstrap, "resamples"),
    "SyntheticScorerSpec.seed": (lambda v: SyntheticScorerSpec(5, 0.5, (2, 2), (2, 2), v), "seed"),
    "validate_guarantee.seed": (lambda v: validate_guarantee(SPEC, CONFIG, 1, 20, 20, v), "seed"),
    "bootstrap_significance.seed": (lambda v: _bootstrap(100, seed=v), "seed"),
    "mix64.x": (mix64, "seed"),
    "substream_seed.seed": (lambda v: substream_seed(v, 0), "seed"),
    "substream_seed.index": (lambda v: substream_seed(0, v), "seed"),
    "substream.seed": (lambda v: substream(v, 0), "seed"),
    "substream.index": (lambda v: substream(0, v), "seed"),
}

HUGE = 10**400
COMMON = [True, False, float("nan"), np.float64("nan"), "0.5", None, -HUGE]
OPEN_UNIT = COMMON + [HUGE, 0, 1, 0.0, 1.0, -0.1, 1.5, float("inf")]
BAD = {
    "open unit": OPEN_UNIT,
    "closed unit": COMMON + [HUGE, -0.1, 1.5, float("-inf"), float("inf")],
    # and betas at which 1.0 - beta rounds to 1.0
    "beta": OPEN_UNIT + [1e-17, 5e-324, 2.0**-54],
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
    "beta": [np.float64(0.25), np.float32(0.25), SMALLEST_BETA],
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


# numbers the package makes rather than reads from a caller: the records and row views it returns,
# an error's row, a number it spells for output, and the bounds its own checks are given
MADE = {"Decision", "GridPoint", "RiskBound", "SelectiveReport", "SignificanceResult", "TradeoffPoint",
        "SchemaError.row", "format_number.x", "check_int", "check_real"}


def test_every_number_argument_is_on_the_rule():
    # an argument annotated int or float, added later, fails here until it joins ENTRY_POINTS
    # (or the threshold matrix); a function with one argument is listed by its name alone
    listed = {entry if "." in entry else f"{entry}.{next(iter(inspect.signature(getattr(selcert, entry)).parameters))}"
              for entry in ENTRY_POINTS}
    listed |= {f"{entry.split('.')[0]}.{where}" for entry, (_, where, _) in THRESHOLD_ENTRY_POINTS.items()}
    numbers = {f"{name}.{argument}" for name, argument in annotated_parameters(lambda kind: kind in (int, float))
               if name not in MADE and f"{name}.{argument}" not in MADE}
    assert numbers - listed == set()
