"""Exact binomial tail probabilities and upper confidence bounds.

This is the numerical core of the package: certification rests on inverting
the binomial CDF, so it is computed from first principles rather than from a
normal or Wilson approximation. Terms are evaluated in log space from a
compensated double-double log-factorial table and added with numpy.

Everything works on arrays of (k, n) points. Each point's CDF sum runs over
a window of its terms, [start, k], laid end to end with the other points'
windows. A window holds at every p at or above a floor p0: the p itself
for a single evaluation, and a proven lower bound on the root for a solve
(k/n for beta < 1/2; 0, which sums every term, otherwise).
Below the largest term at p0 the terms fall off at least geometrically, so
a geometric tail bound, which holds at every p >= p0, puts the cut where the
missing mass is under 2**-64 of the sum (`_window_start`). Points are
evaluated in blocks of at most `_BLOCK_TERMS` terms, which bounds memory;
each point's value depends on its own (k, n, p) alone, so the blocking
never changes a result. Nothing is cached.

The bound is the root of CDF(k; n, r) = beta, found for every point at once
by Newton steps kept inside a bisection bracket, each point stopping on its
own. It starts from a closed-form guess (exact for k = 0, Wilson score
otherwise) and uses the derivative that the CDF sum already provides.
Deciding whether a bound is at most some p needs no solve at all: it holds
exactly when CDF(k; n, p) <= beta (`tail_at_most`).
"""

from __future__ import annotations

import copy
import math
import sys
import threading
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConvergenceError, DomainError, check_beta, check_int, check_real
from .records import _columns, _first, _raise_first

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
# a Newton step this small (relative to r) is below the CDF's rounding noise
_STEP_FLOOR = 4 * sys.float_info.epsilon
# the most terms one array evaluation holds: bounds memory, never results
_BLOCK_TERMS = 1 << 17
# the terms a window leaves out add at most this fraction of the CDF sum
_LOG_TAIL_CUT = -64 * math.log(2.0)
# a sum whose largest term is this close to i = 0 is not cut: finding the
# cut would cost more than the terms it saves
_FULL_SUM_BELOW = 32


@dataclass(frozen=True)
class BinomialTail:
    """Observed error count k out of n retained predictions."""

    k: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        object.__setattr__(self, "k", check_int("k", self.k, 0, self.n))


@dataclass(frozen=True)
class RiskBound:
    """Upper confidence bound on a binomial proportion.

    `value` is the largest rate still consistent with the observed tail at
    confidence level 1 - beta; `residual` is |CDF(k; n, value) - beta| at the
    returned point. For k < n it is the smallest residual of the solve, which
    stops at a zero residual, a Newton step under the step floor, a bracket
    that no longer splits, or DEFAULT_MAX_ITER CDF evaluations; it is at most
    DEFAULT_TOL unless the step floor stopped it (`risk_upper_bounds`). For
    k = n the bound is pinned at 1 and the residual is 1 - beta because the
    CDF is identically 1 there.
    """

    value: float
    beta: float
    residual: float


class _LogFactorials:
    """Grow-on-demand table of log(i!) as double-double pairs.

    Row 0 holds the rounded value and row 1 what rounding left out, both from
    a running Neumaier-compensated sum of log(j). Differences such as
    log(n!) - log((n-i)!) then keep the precision of the i terms they span
    instead of inheriting the rounding error of log(n!) itself. The running
    compensation is carried across growths, so the table contents never
    depend on the order in which sizes were requested.
    """

    def __init__(self) -> None:
        self._values = np.zeros((2, 1024), dtype=float)
        self._len = 1
        self._sum = 0.0
        self._comp = 0.0
        self._lock = threading.Lock()

    def upto(self, n: int) -> np.ndarray:
        if n >= self._len:
            with self._lock:
                if n >= self._len:
                    self._grow(n)
        return self._values[:, : n + 1]

    def _grow(self, n: int) -> None:
        values = self._values
        if n + 1 > values.shape[1]:
            capacity = max(2 * values.shape[1], n + 1)
            bigger = np.zeros((2, capacity), dtype=float)
            bigger[:, : self._len] = values[:, : self._len]
            values = bigger
        high, low = values
        s, c = self._sum, self._comp
        for j in range(self._len, n + 1):
            x = math.log(j)
            t = s + x
            if abs(s) >= abs(x):
                c += (s - t) + x
            else:
                c += (x - t) + s
            s = t
            high[j] = s + c
            low[j] = c - (high[j] - s)
        self._sum, self._comp = s, c
        # publish the array before the length so readers never over-index
        self._values = values
        self._len = n + 1


_LOG_FACTORIALS = _LogFactorials()


def _points(k, n) -> tuple[np.ndarray, np.ndarray]:
    """k and n, two columns of one length, as int64 arrays, with n >= 1 and 0 <= k <= n; a fault names its point."""
    k, n = np.asarray(k), np.asarray(n)
    _columns(DomainError, k=k, n=n)
    if not all(a.dtype.kind in "iu" or a.size == 0 for a in (k, n)):
        raise DomainError("k and n must hold 64-bit integers")
    k, n = k.astype(np.int64), n.astype(np.int64)
    _raise_first([(_first((n < 1) | (k < 0) | (k > n)), lambda i: DomainError(
        f"need n >= 1 and 0 <= k <= n at every point, got k={k[i]}, n={n[i]} at point {i}"))], len(k))
    return k, n


def _window_start(k: np.ndarray, n: np.ndarray, p0) -> np.ndarray:
    """Lowest term index each CDF sum needs at every p >= p0, for k < n.

    Term i of CDF(k; n, p) is t(i) = C(n, i) p^i (1-p)^(n-i), and the ratio
    t(i-1)/t(i) = i(1-p)/((n-i+1)p) falls as p grows and rises with i. Take
    q = min(k, floor(n p0)), near the largest term at p0. For j < q and every
    p >= p0, each ratio at i <= j is at most rho = j(1-p0)/((n-j+1)p0) < 1,
    so the terms below j add at most t(j) rho/(1 - rho); and t(j)/t(q) is at
    most its value at p0. The sum holds t(q), so the missing mass relative
    to the sum is at most that product, which falls as j falls. The start
    is a j where it is below 2**-64: first where a linear fit of the log
    ratio at q puts it, then twice as far below q wherever the exact bound
    does not hold yet. Points with q <= _FULL_SUM_BELOW sum every term, as
    does p0 = 0.
    """
    p0 = np.broadcast_to(p0, k.shape)
    q = np.minimum(k, np.floor(n * p0).astype(np.int64))
    start = np.zeros_like(k)
    cut = np.flatnonzero(q > _FULL_SUM_BELOW)
    if not cut.size:
        return start
    q, n, p0 = q[cut], n[cut], p0[cut]
    high = _LOG_FACTORIALS.upto(int(n.max()))[0]
    log_odds = np.log(p0) - np.log1p(-p0)
    log_q_factorials = high[q] + high[n - q]
    # the depth q - j at which sum_{i=j+1..q} log(ratio(i)), fitted by a line
    # through log(ratio(q)) with slope d log(ratio)/di = 1/q + 1/(n-q+1), reaches
    # the cut with 4 nats to spare
    log_rho_q = np.log(q * (1.0 - p0)) - np.log((n - q + 1) * p0)
    slope = 1.0 / q + 1.0 / (n - q + 1)
    drop, need = np.maximum(-log_rho_q, 0.0), 4.0 - _LOG_TAIL_CUT
    depth = np.ceil(2.0 * need / (drop + np.sqrt(drop * drop + 2.0 * slope * need))).astype(np.int64) + 1
    while True:
        j = np.maximum(q - depth, 0)
        with np.errstate(divide="ignore"):  # j = 0: nothing missing
            log_missing = ((log_q_factorials - high[j] - high[n - j]) + (j - q) * log_odds
                           + np.log(j * (1.0 - p0)) - np.log((n + 1) * p0 - j))
        short = log_missing > _LOG_TAIL_CUT
        if not short.any():
            break
        depth[short] *= 2
    start[cut] = j
    return start


def _blocks(lengths: np.ndarray):
    """Slices of consecutive points whose windows hold at most _BLOCK_TERMS terms together."""
    ends = np.cumsum(lengths)
    first = 0
    while first < len(lengths):
        taken = ends[first - 1] if first else 0
        stop = max(int(np.searchsorted(ends, taken + _BLOCK_TERMS, side="right")), first + 1)
        yield slice(first, stop)
        first = stop


class _Windows:
    """The terms i = start..k of several points' CDF sums, laid end to end.

    The p-independent parts are computed once: log C(n, i) from the
    double-double table (the high parts of log(n!) and log((n-i)!) cancel
    first, then the low parts add back what rounding the high parts
    dropped), i and n - i.
    """

    def __init__(self, k: np.ndarray, n: np.ndarray, start: np.ndarray) -> None:
        self.lengths = k - start + 1
        ends = np.cumsum(self.lengths)
        self.offsets = ends - self.lengths
        self.last = ends - 1  # the pmf term, i = k
        nn = np.repeat(n, self.lengths)
        i = np.arange(ends[-1]) - np.repeat(self.offsets - start, self.lengths)
        high, low = _LOG_FACTORIALS.upto(int(n.max()))
        self.log_coef = (high[nn] - high[nn - i] - high[i]) + (low[nn] - low[nn - i] - low[i])
        self.i = i.astype(float)
        self.n_minus_i = (nn - i).astype(float)

    def tails(self, log_p, log_q) -> tuple[np.ndarray, np.ndarray]:
        """(CDF, pmf) at each point, given log p and log(1 - p) per point (or one for all).

        The pmf is the last term of the CDF sum, so the solver gets the
        derivative dCDF/dp = -(n - k) / (1 - p) * pmf(k; n, p) for free.
        """
        if np.ndim(log_p):
            log_p, log_q = np.repeat(log_p, self.lengths), np.repeat(log_q, self.lengths)
        terms = np.exp(self.log_coef + self.i * log_p + self.n_minus_i * log_q)
        return np.minimum(np.add.reduceat(terms, self.offsets), 1.0), terms[self.last]

    def keep(self, mask: np.ndarray) -> _Windows:
        """The windows of the points where mask is set, without redoing the table lookups."""
        kept = copy.copy(self)
        terms = np.repeat(mask, self.lengths)
        kept.log_coef, kept.i, kept.n_minus_i = self.log_coef[terms], self.i[terms], self.n_minus_i[terms]
        kept.lengths = self.lengths[mask]
        ends = np.cumsum(kept.lengths)
        kept.offsets, kept.last = ends - kept.lengths, ends - 1
        return kept


def _cdf(k: np.ndarray, n: np.ndarray, p: float) -> np.ndarray:
    """CDF(k; n, p) at each point, for 0 < p < 1 and k < n."""
    start = _window_start(k, n, p)
    cdf = np.empty(len(k))
    log_p, log_q = math.log(p), math.log1p(-p)
    for block in _blocks(k - start + 1):
        cdf[block] = _Windows(k[block], n[block], start[block]).tails(log_p, log_q)[0]
    return cdf


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p).

    Computed as sum_{i<=k} exp(log C(n,i) + i log p + (n-i) log(1-p)) over
    the window of terms the module docstring describes; the terms are
    nonnegative, so the sum keeps the relative error near machine epsilon
    even for n in the thousands. Edge cases are exact: p = 0 gives
    1, p = 1 gives 1 iff k = n (else 0), and k = n gives 1 for any p.
    """
    tail, p = BinomialTail(k, n), check_real("p", p, 0, 1, closed=True)
    k, n = tail.k, tail.n
    if k == n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return float(_cdf(*_points([k], [n]), p)[0])


def tail_at_most(k, n, p: float, beta: float) -> np.ndarray:
    """Whether CDF(k; n, p) <= beta at each (k, n) point, for 0 < p < 1.

    For k < n the CDF is strictly decreasing in p, so this holds exactly
    when the upper bound risk_upper_bound((k, n), beta) is at most p; for
    k = n the CDF is 1 and the bound is 1, so neither holds. A point whose
    proven lower end on that bound (`_lower_ends`) is not below p fails
    without a sum.
    """
    k, n = _points(k, n)
    beta, p = check_beta(beta), check_real("p", p, 0, 1)
    passes = np.zeros(len(k), dtype=bool)
    summed = (k < n) & (_lower_ends(k, n, beta) < p)
    passes[summed] = _cdf(k[summed], n[summed], p) <= beta
    return passes


def _lower_ends(k: np.ndarray, n: np.ndarray, beta: float) -> np.ndarray:
    """A proven lower bound on each root of CDF(k; n, r) = beta, for k <= n.

    For beta < 1/2 the root is above k/n, because the binomial median at
    p = k/n is k, so CDF(k; n, k/n) >= 1/2 > beta (k = n gives 1, never below p).
    Otherwise the bracket starts at 0, whose window is the full sum.
    """
    return k / n if beta < 0.5 else np.zeros(len(k))


def _initial_guesses(k: np.ndarray, n: np.ndarray, beta: float, lo: np.ndarray) -> np.ndarray:
    """Closed-form starts for the roots of CDF(k; n, r) = beta.

    k = 0 has the exact root 1 - beta**(1/n); otherwise the one-sided Wilson
    score upper limit. A guess depends on its point's (k, n, beta) alone, so
    a solve never depends on which other bounds are solved with it.
    """
    z = NormalDist().inv_cdf(1.0 - beta)
    z2n = z * z / n
    p_hat = k / n
    centre = p_hat + 0.5 * z2n
    spread = z * np.sqrt(p_hat * (1.0 - p_hat) / n + 0.25 * z2n / n)
    guess = (centre + spread) / (1.0 + z2n)
    # the solver divides by 1 - r, and the windows hold from lo up; a guess
    # outside [lo, 1) restarts mid-bracket
    guess = np.where((lo <= guess) & (guess < 1.0), guess, 0.5 * (lo + 1.0))
    log_beta = math.log(beta)
    zero = np.flatnonzero(k == 0)
    guess[zero] = [-math.expm1(log_beta / m) for m in n[zero].tolist()]
    return guess


def _solve_block(k, n, start, lo, beta: float):
    """Newton solves of CDF(k; n, r) = beta for k < n; (best value, its residual, floored).

    Every point keeps its own bracket, from its lower end lo, and stops on
    its own; floored marks the points that stopped at the step floor. The
    state arrays hold the points still iterating, whose windows alone are
    evaluated; a point's result is written out when it stops.
    """
    values, residuals = np.zeros(len(k)), np.full(len(k), 1.0 - beta)
    floored = np.zeros(len(k), dtype=bool)
    windows = _Windows(k, n, start)
    live = np.arange(len(k))
    n_minus_k = (n - k).astype(float)
    hi = np.ones(len(k))  # invariant: cdf(lo) >= beta > cdf(hi)
    r = _initial_guesses(k, n, beta, lo)
    best, best_residual = values.copy(), residuals.copy()
    for _ in range(DEFAULT_MAX_ITER):
        f, pmf = windows.tails(np.log(r), np.log1p(-r))
        gap = f - beta
        residual = np.abs(gap)
        better = residual < best_residual
        best, best_residual = np.where(better, r, best), np.where(better, residual, best_residual)
        above = f >= beta
        lo, hi = np.where(above, r, lo), np.where(above, hi, r)
        # Newton step on CDF(r) - beta; a step that leaves the bracket bisects
        slope = n_minus_k * pmf / (1.0 - r)
        step = np.divide(gap, slope, out=np.full(len(r), np.inf), where=slope > 0.0)
        nxt = r + step
        mid = 0.5 * (lo + hi)
        outside = ~((lo < nxt) & (nxt < hi))
        at_floor = np.abs(step) <= _STEP_FLOOR * r
        done = ((residual == 0.0) | at_floor
                | (outside & ((mid == lo) | (mid == hi))))
        r = np.where(outside, mid, nxt)
        if done.any():
            values[live[done]], residuals[live[done]] = best[done], best_residual[done]
            floored[live[done]] = at_floor[done]
            going = ~done
            if not going.any():
                return values, residuals, floored
            live, n_minus_k, lo, hi, r, best, best_residual = (
                a[going] for a in (live, n_minus_k, lo, hi, r, best, best_residual))
            windows = windows.keep(going)
    values[live], residuals[live] = best, best_residual
    return values, residuals, floored


def risk_upper_bounds(k, n, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds and their residuals at every (k, n) point, as arrays.

    The value at each point is the one risk_upper_bound returns for it, and
    the residual that RiskBound's: k = n gives 1 with residual 1 - beta.
    Each root's bracket starts at a proven lower bound (`_lower_ends`), and
    every CDF sum of its solve runs over the window that holds from there up.
    The solve takes no tuning arguments: it reads the module constants
    DEFAULT_TOL and DEFAULT_MAX_ITER when called. Raises ConvergenceError,
    naming the first point whose residual is still above DEFAULT_TOL after
    at most DEFAULT_MAX_ITER CDF evaluations. A point whose Newton
    step fell under the step floor passes: it is at its root to within the
    floor, and its residual, at most the slope times the floor, is all the
    CDF can resolve there, which can exceed DEFAULT_TOL where the CDF is
    steep. beta must leave 1 - beta a float below 1 (`errors.check_beta`).
    """
    k, n = _points(k, n)
    beta = check_beta(beta)
    values, residuals = np.ones(len(k)), np.full(len(k), 1.0 - beta)
    solved = np.flatnonzero(k < n)
    if not solved.size:
        return values, residuals
    k_s, n_s = k[solved], n[solved]
    lo = _lower_ends(k_s, n_s, beta)
    start = _window_start(k_s, n_s, lo)
    floored = np.zeros(len(k), dtype=bool)
    for block in _blocks(k_s - start + 1):
        values[solved[block]], residuals[solved[block]], floored[solved[block]] = _solve_block(
            k_s[block], n_s[block], start[block], lo[block], beta)
    failed = np.flatnonzero((residuals[solved] > DEFAULT_TOL) & ~floored[solved])
    if failed.size:
        i = solved[failed[0]]
        raise ConvergenceError(
            f"Newton solve left residual {residuals[i]:.3e} > {DEFAULT_TOL:.1e} "
            f"for k={k[i]}, n={n[i]}, beta={beta}"
        )
    return values, residuals


def risk_upper_bound(tail: BinomialTail, beta: float) -> RiskBound:
    """Largest error rate r with CDF(k; n, r) still >= beta.

    This is the one-sided exact upper bound at confidence 1 - beta: the CDF is
    continuous and strictly decreasing in r on (0, 1) for k < n, so the
    supremum is the unique root of CDF(k; n, r) = beta. It is the
    one-point call of `risk_upper_bounds`: Newton steps from a closed-form
    start, with a bisection step whenever Newton would leave the bracket, and
    the iterate with the smallest residual returned. Each CDF sum runs over
    the window of terms the module docstring describes. k = n yields exactly
    1.0.
    """
    if not isinstance(tail, BinomialTail):  # a (k, n) pair
        _columns(DomainError, 2, tail=tail)
        tail = BinomialTail(*tail)
    values, residuals = risk_upper_bounds([tail.k], [tail.n], beta)
    return RiskBound(value=float(values[0]), beta=float(beta), residual=float(residuals[0]))
