"""Binomial tail CDF and upper-bound solver.

Frozen expected values were computed ahead of time with exact rational
arithmetic (Fraction-based CDF, long-running exact bisection) and pasted in
as decimals.
"""

import hashlib
import inspect
import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

import selcert.binom as binom
import selcert.calibrate as calibrate
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

    @pytest.mark.parametrize("k,n,beta", [(999_999, 10**6, 0.2), (1_999_999, 2 * 10**6, 0.005),
                                          (1_999_999, 2 * 10**6, 0.2)])
    def test_steep_root_stops_at_the_step_floor(self, k, n, beta, monkeypatch):
        # the root is within 1e-8 of 1, where the CDF moves about 1e-10 per unit
        # in the last place of r: the solve stops at the step floor with a
        # residual above DEFAULT_TOL, and the bound there is still the root
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


class TestLogFactorialTable:
    def test_table_is_frozen(self):
        # every bit of the compensated sum, as the list-built table of earlier versions gave it
        table = binom._log_factorials(20001)
        assert table.shape == (2, 20001) and not table.flags.writeable
        assert hashlib.sha256(table.tobytes()).hexdigest() == (
            "01a7c5da8b25e0b3dd204de75217758a0fbecf9be50232956fb0b5bcaa629c10")

    @pytest.mark.parametrize("call", [
        lambda n: binom_cdf(1, n, 0.5),
        lambda n: risk_upper_bound(BinomialTail(5, n), 0.1),
        lambda n: binom.tail_at_most([3], [n], 0.5, 0.1),
        lambda n: binom.risk_upper_bounds([1], [n], 0.1),
    ], ids=["binom_cdf", "risk_upper_bound", "tail_at_most", "risk_upper_bounds"])
    def test_n_past_memory_fails_at_once(self, call):
        # a table of 2**62 entries cannot be allocated: the call fails before summing a term
        table = binom._LOG_FACTORIALS._values
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"^n={2**62} is too large: its arrays do not fit in memory$"):
            call(2**62)
        assert time.perf_counter() - start < 1.0
        assert binom._LOG_FACTORIALS._values is table
        call(1000)

    def test_n_whose_doubled_table_cannot_be_allocated(self, monkeypatch):
        # the table grows by doubling, and where only n's own table fits, it gets that one
        build = binom._log_factorials
        table = binom._LogFactorials()
        table.upto(100)

        def build_at_most_151(size):
            if size > 151:  # as `records._allocated` fails
                raise DomainError(f"n={size - 1} is too large: its arrays do not fit in memory")
            return build(size)

        monkeypatch.setattr(binom, "_log_factorials", build_at_most_151)
        assert np.array_equal(table.upto(150), build(151))
        with pytest.raises(DomainError, match="^n=151 is too large"):
            table.upto(151)
        assert table.upto(150).shape == (2, 151)


class TestArrayCalls:
    def test_bounds_equal_one_point_calls(self, monkeypatch):
        # a block whose points stop at different steps builds the windows of the
        # points still going again; a point solved alone never does, so the
        # equality covers that rebuild
        rng = np.random.default_rng(23)
        n = rng.integers(1, 4000, 300)
        k = (rng.random(300) * (n + 1)).astype(int)  # k = n included
        builds = []  # window builds per solved block
        init, solve = binom._Windows.__init__, binom._solve_block

        def counted_init(self, *args):
            builds[-1] += 1
            init(self, *args)

        def counted_solve(*args):
            builds.append(0)
            return solve(*args)

        monkeypatch.setattr(binom._Windows, "__init__", counted_init)
        monkeypatch.setattr(binom, "_solve_block", counted_solve)
        for beta in (0.05, 0.1, 0.3, 0.5, 0.8, 0.9):
            builds.clear()
            values, residuals = binom.risk_upper_bounds(k, n, beta)
            assert max(builds) > 1
            for i in range(300):
                bound = risk_upper_bound(BinomialTail(int(k[i]), int(n[i])), beta)
                assert (values[i], residuals[i]) == (bound.value, bound.residual)

    def test_blocking_never_changes_a_value(self, monkeypatch):
        # at beta 0.9 every window is a full sum of k + 1 terms, so most blocks
        # of 40 terms are one window that alone holds more
        rng = np.random.default_rng(29)
        n = rng.integers(1, 3000, 200)
        k = (rng.random(200) * n).astype(int)
        k[:3], k[3:6] = 0, n[3:6]
        whole = {beta: binom.risk_upper_bounds(k, n, beta) for beta in (0.1, 0.9)}
        monkeypatch.setattr(binom, "_BLOCK_TERMS", 40)
        for beta, (values, residuals) in whole.items():
            blocked = binom.risk_upper_bounds(k, n, beta)
            assert np.array_equal(blocked[0], values) and np.array_equal(blocked[1], residuals)

    def test_blocking_never_changes_a_tail(self, monkeypatch):
        rng = np.random.default_rng(43)
        n = rng.integers(1, 3000, 300)
        k = (rng.random(300) * n).astype(int)
        ps = (0.02, 0.3, 0.8)
        lengths = [k - binom._window_start(*binom._points(k, n), p) + 1 for p in ps]
        assert all(np.any(m < 40) and np.any(m > 40) for m in lengths)
        points = list(zip(k[:40].tolist(), n[:40].tolist()))

        def tails():
            return ([binom._cdf(*binom._points(k, n), p) for p in ps],
                    [binom.tail_at_most(k, n, p, beta) for p in ps for beta in (0.1, 0.6)],
                    [binom_cdf(a, b, p) for a, b in points for p in ps])

        whole = tails()
        monkeypatch.setattr(binom, "_BLOCK_TERMS", 40)
        blocked = tails()
        for expected, got in zip(whole, blocked):
            assert all(np.array_equal(a, b) for a, b in zip(expected, got))

    @pytest.mark.parametrize("call", [lambda k, n: binom.risk_upper_bounds(k, n, 0.1),
                                      lambda k, n: binom.tail_at_most(k, n, 0.2, 0.1)],
                             ids=["risk_upper_bounds", "tail_at_most"])
    def test_blocks_of_one_call_share_their_buffers(self, call, monkeypatch):
        rng = np.random.default_rng(47)
        n = rng.integers(100, 3000, 50)
        k = (rng.random(50) * n * 0.1).astype(int)
        built = []
        init = binom._Windows.__init__

        def recorded_init(self, *args):
            init(self, *args)
            built.append(self.log_coef)

        monkeypatch.setattr(binom._Windows, "__init__", recorded_init)
        monkeypatch.setattr(binom, "_BLOCK_TERMS", 40)
        call(k, n)
        first_call = list(built)
        assert len(first_call) > 1
        assert all(np.shares_memory(log_coef, first_call[0]) for log_coef in first_call)
        built.clear()
        call(k, n)
        assert not any(np.shares_memory(log_coef, first_call[0]) for log_coef in built)

    def test_convergence_error_names_the_point(self, monkeypatch):
        # k = 0 starts at its exact root; the other point cannot converge in one step
        monkeypatch.setattr(binom, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=r"for k=500, n=2000, beta=0.1$"):
            binom.risk_upper_bounds([0, 500], [10, 2000], 0.1)

    def test_tolerance_is_read_at_call_time(self, monkeypatch):
        # two evaluations leave (20, 400) short of the step floor, with a residual of 1.8e-11
        monkeypatch.setattr(binom, "DEFAULT_MAX_ITER", 2)
        _, residuals = binom.risk_upper_bounds([0, 20], [10, 400], 0.1)
        assert 0 < residuals[1] < binom.DEFAULT_TOL
        monkeypatch.setattr(binom, "DEFAULT_TOL", residuals[1] / 2)
        with pytest.raises(ConvergenceError, match=r"for k=20, n=400, beta=0.1$"):
            binom.risk_upper_bounds([0, 20], [10, 400], 0.1)

    def test_a_dense_grid_takes_about_two_evaluations_per_bound(self, monkeypatch):
        # a grid shaped like a 10k-record calibration set with distinct confidences
        # (prevalence 0.3, positives Beta(4, 2), negatives Beta(2, 4)): each bound
        # starts close enough that it stops within four CDF evaluations, and the
        # mean is at most three, on either side of beta = 1/2
        rng = np.random.default_rng(41)
        labels = (rng.random(10_000) < 0.3).astype(int)
        scores = np.where(labels == 1, rng.beta(4, 2, 10_000), rng.beta(2, 4, 10_000))
        _, _, n_at, errors = calibrate._grid(*calibrate._confidence_correct(scores[None], labels[None]))
        live, calls = [], []  # points per CDF evaluation; evaluations per block
        tails, solve = binom._Windows.tails, binom._solve_block

        def counted_tails(self, log_p, log_q):
            live.append(len(self.lengths))
            return tails(self, log_p, log_q)

        def counted_solve(*args):
            first = len(live)
            solved = solve(*args)
            calls.append(len(live) - first)
            return solved

        monkeypatch.setattr(binom._Windows, "tails", counted_tails)
        monkeypatch.setattr(binom, "_solve_block", counted_solve)
        for beta in (0.1, 0.9):
            live.clear()
            calls.clear()
            binom.risk_upper_bounds(errors, n_at, beta)
            assert sum(live) / np.count_nonzero(errors < n_at) <= 3
            assert max(calls) <= 4

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
