"""Binomial tail CDF and upper-bound solver.

Frozen expected values were computed ahead of time with exact rational
arithmetic (Fraction-based CDF, long-running exact bisection) and pasted in
as decimals.
"""

import inspect
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import selcert.binom as binom
from selcert import (
    BinomialTail,
    ConvergenceError,
    DomainError,
    RiskBound,
    binom_cdf,
    risk_upper_bound,
)


def rational_cdf(k: int, n: int, p: Fraction) -> Fraction:
    total = Fraction(0)
    for i in range(k + 1):
        total += math.comb(n, i) * p**i * (1 - p) ** (n - i)
    return total


class TestBinomCdf:
    def test_frozen_value(self):
        # exact rational value of CDF(3; 10, 0.37) rounded to double
        assert binom_cdf(3, 10, 0.37) == pytest.approx(0.45999620731185464, abs=1e-14)

    def test_matches_rational_oracle_small_n(self):
        for n in range(1, 9):
            for k in range(n + 1):
                for p in (0.1, 0.25, 0.5, 0.73, 0.9):
                    expected = float(rational_cdf(k, n, Fraction(p)))
                    assert binom_cdf(k, n, p) == pytest.approx(expected, abs=1e-13)

    def test_edges_exact(self):
        assert binom_cdf(0, 5, 0.0) == 1.0
        assert binom_cdf(3, 7, 0.0) == 1.0
        assert binom_cdf(7, 7, 1.0) == 1.0
        assert binom_cdf(6, 7, 1.0) == 0.0
        assert binom_cdf(4, 4, 0.3) == 1.0

    def test_k_zero_closed_form(self):
        # CDF(0; n, p) = (1-p)^n
        for n in (1, 3, 50, 400):
            for p in (0.01, 0.2, 0.9):
                assert binom_cdf(0, n, p) == pytest.approx((1 - p) ** n, rel=1e-12)

    def test_monotone_decreasing_in_p(self):
        values = [binom_cdf(4, 30, p) for p in np.linspace(0.01, 0.99, 25)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_never_exceeds_one(self):
        assert binom_cdf(999, 1000, 1e-12) <= 1.0

    @pytest.mark.parametrize(
        "k,n,p",
        [(-1, 5, 0.5), (6, 5, 0.5), (0, 0, 0.5), (2, 5, -0.1), (2, 5, 1.5), (2, 5, float("nan"))],
    )
    def test_rejects_bad_arguments(self, k, n, p):
        with pytest.raises(DomainError):
            binom_cdf(k, n, p)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(DomainError):
            binom_cdf(1.5, 5, 0.5)
        with pytest.raises(DomainError):
            binom_cdf(1, 5.0, 0.5)

    def test_table_growth_is_thread_safe(self):
        # hammer a size the shared log-factorial table has not reached yet
        results = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            results.append(binom_cdf(5, 4623, 0.001))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1

    def test_racing_growth_serves_one_table(self):
        # threads outgrow one fresh table in interleaved sizes; each slice must be the reference's
        reference = binom._log_factorials(20001)
        table, failures = binom._LogFactorials(), []

        def work(offset):
            for n in range(offset, 20001, 997):
                if not np.array_equal(table.upto(n), reference[:, : n + 1]):
                    failures.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(0, 800, 100)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and failures == []
        assert not table.upto(5).flags.writeable


class TestRiskUpperBound:
    def test_frozen_k0(self):
        # k=0, n=10, beta=0.1: closed form 1 - 0.1**0.1
        bound = risk_upper_bound(BinomialTail(0, 10), 0.1)
        assert bound.value == pytest.approx(0.2056717652757185, abs=1e-10)
        assert bound.value == pytest.approx(1 - 0.1**0.1, abs=1e-10)

    def test_frozen_k2_n20(self):
        bound = risk_upper_bound(BinomialTail(2, 20), 0.05)
        assert bound.value == pytest.approx(0.2826185248858609, abs=1e-10)

    def test_root_property(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 300))
            k = int(rng.integers(0, n))
            beta = float(rng.uniform(0.01, 0.4))
            bound = risk_upper_bound(BinomialTail(k, n), beta)
            assert abs(binom_cdf(k, n, bound.value) - beta) < 1e-9
            assert bound.residual <= 1e-10

    def test_k_equals_n_is_pinned_at_one(self):
        bound = risk_upper_bound(BinomialTail(7, 7), 0.25)
        assert bound == RiskBound(value=1.0, beta=0.25, residual=0.75)

    def test_monotone_in_k(self):
        values = [risk_upper_bound(BinomialTail(k, 40), 0.1).value for k in range(41)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_bound_exceeds_point_estimate(self):
        for k, n in [(0, 10), (3, 17), (9, 30)]:
            assert risk_upper_bound(BinomialTail(k, n), 0.1).value > k / n

    def test_tighter_with_larger_beta(self):
        loose = risk_upper_bound(BinomialTail(2, 30), 0.01).value
        tight = risk_upper_bound(BinomialTail(2, 30), 0.3).value
        assert tight < loose

    def test_accepts_bare_tuple(self):
        assert risk_upper_bound((0, 10), 0.1) == risk_upper_bound(BinomialTail(0, 10), 0.1)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.3, float("nan"), True])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(DomainError):
            risk_upper_bound(BinomialTail(1, 10), beta)

    def test_tail_validation(self):
        with pytest.raises(DomainError):
            BinomialTail(-1, 4)
        with pytest.raises(DomainError):
            BinomialTail(5, 4)
        with pytest.raises(DomainError):
            BinomialTail(0, 0)

    def test_iteration_budget_is_enforced(self, monkeypatch):
        # one CDF evaluation at the closed-form start cannot meet the tolerance
        monkeypatch.setattr(binom, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            risk_upper_bound(BinomialTail(500, 2000), 0.1)

    @pytest.mark.parametrize("k,n,beta", [(999_999, 10**6, 0.01), (1_999_999, 2 * 10**6, 0.005),
                                          (1_999_999, 2 * 10**6, 0.01)])
    def test_steep_root_stops_at_the_step_floor(self, k, n, beta, monkeypatch):
        # the root is within 1e-8 of 1, where the CDF moves about 1e-10 per unit
        # in the last place of r: Newton stops at the step floor with a residual
        # above DEFAULT_TOL, and the bound there is still the root
        stats = pytest.importorskip("scipy.stats")
        expected = stats.beta.ppf(1 - beta, k + 1, n - k)
        bound = risk_upper_bound(BinomialTail(k, n), beta)
        assert bound.residual > binom.DEFAULT_TOL
        assert bound.value == pytest.approx(expected, rel=1e-12, abs=0)
        values, _ = binom.risk_upper_bounds([k, 3], [n, n], beta)
        assert values[0] == bound.value
        monkeypatch.setattr(binom, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            risk_upper_bound(BinomialTail(k, n), beta)

    def test_result_independent_of_call_order(self, monkeypatch):
        rng = np.random.default_rng(11)
        pairs = [(int(rng.integers(0, n)), int(n)) for n in rng.integers(1, 3000, 60)]

        def solve_all(order):
            # a fresh log-factorial table, so nothing carries over
            monkeypatch.setattr(binom, "_LOG_FACTORIALS", binom._LogFactorials())
            return {pair: risk_upper_bound(BinomialTail(*pair), 0.1) for pair in order}

        forwards = solve_all(pairs)
        backwards = solve_all(pairs[::-1])
        assert forwards == backwards


class TestArrayCalls:
    def test_bounds_equal_one_point_calls(self):
        rng = np.random.default_rng(23)
        n = rng.integers(1, 4000, 300)
        k = (rng.random(300) * (n + 1)).astype(int)  # k = n included
        for beta in (0.05, 0.3, 0.5, 0.8):
            values, residuals = binom.risk_upper_bounds(k, n, beta)
            for i in range(300):
                bound = risk_upper_bound(BinomialTail(int(k[i]), int(n[i])), beta)
                assert (values[i], residuals[i]) == (bound.value, bound.residual)

    def test_blocking_never_changes_a_value(self, monkeypatch):
        rng = np.random.default_rng(29)
        n = rng.integers(1, 3000, 200)
        k = (rng.random(200) * n).astype(int)
        whole = binom.risk_upper_bounds(k, n, 0.1)[0]
        monkeypatch.setattr(binom, "_BLOCK_TERMS", 40)
        assert np.array_equal(binom.risk_upper_bounds(k, n, 0.1)[0], whole)

    def test_convergence_error_names_the_point(self, monkeypatch):
        # k = 0 starts at its exact root; the other point cannot converge in one step
        monkeypatch.setattr(binom, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=r"for k=500, n=2000, beta=0.1$"):
            binom.risk_upper_bounds([0, 500], [10, 2000], 0.1)

    def test_tolerance_is_read_at_call_time(self, monkeypatch):
        # five evaluations leave (3, 50) short of the step floor, with a residual of 4.1e-15
        monkeypatch.setattr(binom, "DEFAULT_MAX_ITER", 5)
        _, residuals = binom.risk_upper_bounds([0, 3], [10, 50], 0.1)
        assert 0 < residuals[1] < binom.DEFAULT_TOL
        monkeypatch.setattr(binom, "DEFAULT_TOL", residuals[1] / 2)
        with pytest.raises(ConvergenceError, match=r"for k=3, n=50, beta=0.1$"):
            binom.risk_upper_bounds([0, 3], [10, 50], 0.1)

    def test_solver_takes_no_tuning_arguments(self):
        assert list(inspect.signature(binom.risk_upper_bound).parameters) == ["tail", "beta"]
        assert list(inspect.signature(binom.risk_upper_bounds).parameters) == ["k", "n", "beta"]

    @pytest.mark.parametrize("k,n", [([1, 2], [3]), ([[1]], [[3]]), ([4], [3]), ([0], [0]),
                                     ([True], [3]), ([0.5], [3]), ([-1], [3])])
    def test_rejects_bad_counts(self, k, n):
        with pytest.raises(DomainError):
            binom.risk_upper_bounds(k, n, 0.1)
        with pytest.raises(DomainError):
            binom.tail_at_most(k, n, 0.2, 0.1)

    @pytest.mark.parametrize("k,n,point", [([1, 5], [3, 4], 1), ([1, 0], [3, 0], 1), ([-1, 9], [3, 2], 0)])
    def test_bad_count_names_its_point(self, k, n, point):
        message = (r"^need n >= 1 and 0 <= k <= n at every point, "
                   rf"got k={k[point]}, n={n[point]} at point {point}$")
        with pytest.raises(DomainError, match=message):
            binom.risk_upper_bounds(k, n, 0.1)
        with pytest.raises(DomainError, match=message):
            binom.tail_at_most(k, n, 0.2, 0.1)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, float("nan"), True])
    def test_tail_test_rejects_bad_p(self, p):
        with pytest.raises(DomainError):
            binom.tail_at_most([1], [10], p, 0.1)

    def test_tail_test_decides_the_bound(self):
        # CDF(k; n, p) <= beta exactly when the bound is at most p, on both sides of 1/2
        rng = np.random.default_rng(31)
        n = rng.integers(1, 3000, 400)
        k = (rng.random(400) * (n + 1)).astype(int)
        for beta in (0.01, 0.1, 0.45, 0.5, 0.7, 0.99):
            values = binom.risk_upper_bounds(k, n, beta)[0]
            for p in rng.uniform(0.0, 1.0, 4):
                p = float(p)
                assert np.array_equal(binom.tail_at_most(k, n, p, beta), values <= p)

    def test_window_leaves_out_no_measurable_mass(self):
        # the terms below each window add under 2**-64 of the CDF at every p >= p0
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(37)
        n = rng.integers(100, 20000, 400)
        k = (rng.random(400) * n).astype(int)
        p0 = np.where(rng.random(400) < 0.5, k / n, rng.uniform(0.0, 1.0, 400))
        start = binom._window_start(k, n, p0)
        assert np.all((0 <= start) & (start <= k))
        assert np.any(start > 0)
        for p in (p0, p0 + (1.0 - p0) * 0.01, p0 + (1.0 - p0) * 0.5):
            cut = start > 0
            missing = stats.binom.cdf(start[cut] - 1, n[cut], p[cut])
            total = stats.binom.cdf(k[cut], n[cut], p[cut])
            assert np.all(missing <= 2.0**-64 * total * (1 + 1e-9))
