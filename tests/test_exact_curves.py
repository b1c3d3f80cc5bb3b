"""The synthetic scorer's exact coverage and selective risk, as an oracle.

A record of the Beta-mixture scorer is positive with probability pi, and
its score is Beta(a_p, b_p) if positive and Beta(a_n, b_n) if negative. At
a threshold lam in [0.5, 1] it is kept when max(s, 1 - s) >= lam and
predicted 1 when s >= 0.5, so the mass kept and wrong, and kept and right,
are

    W(lam) = pi * I_{1-lam}(a_p, b_p) + (1 - pi) * (1 - I_lam(a_n, b_n)),
    C(lam) = pi * (1 - I_lam(a_p, b_p)) + (1 - pi) * I_{1-lam}(a_n, b_n),

with I the regularized incomplete beta function. Coverage is W + C and the
selective risk W / (W + C). For integer shapes, I_x(a, b) = P(Bin(a + b - 1,
x) >= a), computed here with the package's own CDF in the form that sums
no cancelling terms: binom_cdf(b - 1, a + b - 1, 1 - x). The form
1 - binom_cdf(a - 1, a + b - 1, x) loses every digit in the lower tail.
"""

import math

import numpy as np
import pytest

from selcert import SyntheticScorerSpec, binom_cdf, generate_synthetic, tradeoff_curve

SHAPES = [(1, 1), (1, 5), (5, 1), (2, 4), (4, 2), (3, 3), (8, 2), (2, 8), (10, 3), (20, 20)]


def beta_cdf(x: float, a: int, b: int) -> float:
    """I_x(a, b) for integer shapes a, b >= 1 and x in [0, 1]."""
    return binom_cdf(b - 1, a + b - 1, 1.0 - x)


def exact_masses(lam: float, spec: SyntheticScorerSpec) -> tuple[float, float]:
    """W(lam) and C(lam): the probability that a record is kept at lam and wrong, and kept and right."""
    pi, (a_p, b_p), (a_n, b_n) = spec.prevalence, spec.pos_shape, spec.neg_shape
    a_p, b_p, a_n, b_n = (int(shape) for shape in (a_p, b_p, a_n, b_n))
    wrong = pi * beta_cdf(1 - lam, a_p, b_p) + (1 - pi) * (1 - beta_cdf(lam, a_n, b_n))
    right = pi * (1 - beta_cdf(lam, a_p, b_p)) + (1 - pi) * beta_cdf(1 - lam, a_n, b_n)
    return wrong, right


def exact_curves(lam: float, spec: SyntheticScorerSpec) -> tuple[float, float | None]:
    """Coverage W + C and selective risk W / (W + C) at lam; the risk is None where nothing is kept."""
    wrong, right = exact_masses(lam, spec)
    kept = wrong + right
    return kept, wrong / kept if kept > 0 else None


@pytest.mark.parametrize("a, b", SHAPES)
def test_beta_cdf_meets_scipy(a, b):
    betainc = pytest.importorskip("scipy.special").betainc
    x = np.linspace(0.0, 1.0, 199)[1:-1]
    ours = np.array([beta_cdf(float(v), a, b) for v in x])
    # as small as 1e-46 in the lower tail, and every value to about 13 digits
    np.testing.assert_allclose(ours, betainc(a, b, x), rtol=1e-12, atol=0)
    assert (beta_cdf(0.0, a, b), beta_cdf(1.0, a, b)) == (0.0, 1.0)


def test_exact_curves_at_the_ends():
    # at lam = 0.5 every record is kept, and the risk is the 0.5-threshold error rate; at lam = 1 none is
    spec = SyntheticScorerSpec(1, 0.3, (4, 2), (2, 4), 0)
    wrong, right = exact_masses(0.5, spec)
    assert wrong + right == pytest.approx(1.0, abs=1e-15)
    assert wrong == pytest.approx(0.3 * beta_cdf(0.5, 4, 2) + 0.7 * (1 - beta_cdf(0.5, 2, 4)), abs=1e-15)
    assert exact_curves(1.0, spec) == (0.0, None)
    coverage = [exact_curves(float(lam), spec)[0] for lam in np.linspace(0.5, 1.0, 101)]
    assert all(np.diff(coverage) <= 1e-15)  # coverage falls as lam rises


@pytest.mark.parametrize("seed", [11, 12])
def test_drawn_curve_lies_in_the_dkw_band(seed):
    # Massart's DKW bound: with probability at least 1 - delta, the fraction of n drawn records with
    # confidence >= lam is within sqrt(log(2/delta) / (2n)) of the exact coverage at every lam at once.
    # The same holds for the fraction kept and wrong, the DKW bound of the variable that is a wrong
    # record's confidence and 0 for a right one.
    n, delta = 20_000, 1e-6
    spec = SyntheticScorerSpec(n, 0.3, (4, 2), (2, 4), seed)
    lams = np.linspace(0.5, 1.0, 201)
    curve = tradeoff_curve(generate_synthetic(spec), lams)
    wrong, right = np.array([exact_masses(float(lam), spec) for lam in lams]).T
    band = math.sqrt(math.log(2 / delta) / (2 * n))
    assert np.abs(curve.fraction_kept - (wrong + right)).max() < band
    kept, accuracy = curve.fraction_kept, np.array(curve.selective_accuracy.tolist(), dtype=float)
    kept_wrong = np.where(kept > 0, kept * (1 - accuracy), 0.0)
    assert np.abs(kept_wrong - wrong).max() < band
    # on both bands, the drawn risk W_n / K_n is within band * (1 + risk) / K_n of the exact risk,
    # since W_n / K_n - W / K = ((W_n - W) + (W / K) (K - K_n)) / K_n
    risk = np.array([exact_curves(float(lam), spec)[1] for lam in lams], dtype=float)
    where = kept > 0.1
    assert where.sum() > 100
    assert (np.abs((1 - accuracy) - risk)[where] < (band * (1 + risk) / kept)[where]).all()
