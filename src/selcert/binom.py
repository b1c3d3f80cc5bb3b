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
never changes a result. The blocks of one call build their terms in one set
of buffers, sized to its largest block and freed when the call returns.
No bound or CDF value is cached; the one thing kept between calls is the
log-factorial table, which grows to the largest n asked for. It is
allocated whole before it is summed, so an n whose table memory cannot hold
is a DomainError at once.

The bound is the root of CDF(k; n, r) = beta, found for every point at once
by Halley steps kept inside a bisection bracket, each point stopping on its
own. It starts from a closed-form guess: exact for k = 0, otherwise
Paulson's cube-root (Wilson-Hilferty) approximation of the Beta(k+1, n-k)
quantile. The step needs the CDF's first and second derivatives, and the
pmf term that the CDF sum already holds gives both. A point stops when its
step falls below the step floor: 4 eps r, or the step that would move the
CDF by its own rounding bound, eps times the pmf term's log-space exponent
k |log r| + (n - k) |log(1 - r)|, times the CDF, if that is larger. Below
it the step is rounding noise. A point typically stops after two or three
CDF evaluations.
Deciding whether a bound is at most some p needs no solve at all: it holds
exactly when CDF(k; n, p) <= beta (`tail_at_most`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConvergenceError, DomainError
from .records import _allocated, _columns, _first, _raise_first, check_beta, check_int, check_real

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
_EPS = sys.float_info.epsilon
# the step floor relative to r, below which a step is lost in the rounding of r
# itself; `_solve_block` raises the floor to the CDF's own rounding bound where
# that is larger, as it is for n in the thousands
_STEP_FLOOR = 4 * _EPS
# the most terms one array evaluation holds (unless one window alone holds more):
# bounds memory, never results; a call's blocks share one set of buffers
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
    stops at a zero residual, a step under the step floor (the larger of
    4 eps r and what moves the CDF by its own rounding bound), a bracket that
    no longer splits, or DEFAULT_MAX_ITER CDF evaluations; it is at most
    DEFAULT_TOL unless the step floor stopped it (`risk_upper_bounds`). For
    k = n the bound is pinned at 1 and the residual is 1 - beta because the
    CDF is identically 1 there.
    """

    value: float
    beta: float
    residual: float


def _log_factorials(size: int) -> np.ndarray:
    """log(i!) for i < size as double-double pairs, read-only.

    Row 0 holds the rounded value and row 1 what rounding left out, both from
    a running Neumaier-compensated sum of log(j) from j = 1. Differences such
    as log(n!) - log((n-i)!) then keep the precision of the i terms they span
    instead of inheriting the rounding error of log(n!) itself. Every table
    runs the same sum, so a larger one extends a smaller one bit for bit. The
    table is allocated whole first, 16 bytes an entry, by the shared size rule
    (`records._allocated`): a size memory cannot hold is a DomainError naming
    n = size - 1 before any term is summed.
    """
    values = _allocated("n", size - 1, (2, size))
    values[:, 0] = 0.0
    high, low = memoryview(values[0]), memoryview(values[1])  # a memoryview sets one float fastest
    s = c = 0.0
    for j in range(1, size):
        x = math.log(j)
        t = s + x
        c += (s - t) + x if s >= x else (x - t) + s  # both are >= 0
        s = t
        high[j] = h = s + c
        low[j] = c - (h - s)
    values.flags.writeable = False
    return values


class _LogFactorials:
    """The shared `_log_factorials` table, replaced by one at least twice its size when a call outgrows it, or by
    one just large enough where the doubled table cannot be allocated."""

    def __init__(self) -> None:
        self._values = _log_factorials(1)

    def upto(self, n: int) -> np.ndarray:
        if n >= self._values.shape[1]:
            try:  # doubled, else n's own size
                self._values = _log_factorials(max(n + 1, 2 * self._values.shape[1]))
            except DomainError:
                self._values = _log_factorials(n + 1)
        return self._values[:, : n + 1]


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


def _blocks(lengths: np.ndarray) -> tuple[list[slice], tuple[np.ndarray, ...]]:
    """Slices of consecutive points whose windows hold at most _BLOCK_TERMS terms together (or one
    window that alone holds more), and the workspace they share: the term index and buffers for
    log_coef, the two scratch buffers, i and n - i, each as long as the largest slice's terms."""
    ends = np.cumsum(lengths)
    blocks, first, size = [], 0, 0
    while first < len(lengths):
        taken = int(ends[first - 1]) if first else 0
        stop = max(int(np.searchsorted(ends, taken + _BLOCK_TERMS, side="right")), first + 1)
        blocks.append(slice(first, stop))
        size = max(size, int(ends[stop - 1]) - taken)
        first = stop
    return blocks, (np.arange(size), *np.empty((5, size)))


class _Windows:
    """The terms i = start..k of several points' CDF sums, laid end to end.

    The p-independent parts are computed once: log C(n, i) from the
    double-double table (the high parts of log(n!) and log((n-i)!) cancel
    first, then the low parts add back what rounding the high parts
    dropped), i and n - i, into the leading slices of a call's workspace
    (`_blocks`).
    """

    def __init__(self, k: np.ndarray, n: np.ndarray, start: np.ndarray, workspace) -> None:
        self.lengths = k - start + 1
        ends = np.cumsum(self.lengths)
        self.offsets = ends - self.lengths
        self.last = ends - 1  # the pmf term, i = k
        # term j of the run is i = j - (offset - start), and n - i = (n + offset - start) - j
        j, log_coef, low_part, buffer, i_float, n_minus_i_float = (a[: ends[-1]] for a in workspace)
        # i and n - i are integers in their float buffers until the table lookups are done
        i, n_minus_i = i_float.view(np.int64), n_minus_i_float.view(np.int64)
        shift = self.offsets - start
        np.subtract(j, np.repeat(shift, self.lengths), out=i)
        np.subtract(np.repeat(n + shift, self.lengths), j, out=n_minus_i)
        high, low = _LOG_FACTORIALS.upto(int(n.max()))
        # (high[n] - high[n - i] - high[i]) + (low[n] - low[n - i] - low[i]), in place; every
        # index is in the table, and "clip" takes into out directly where "raise" copies it
        np.subtract(np.repeat(high[n], self.lengths), high.take(n_minus_i, out=buffer, mode="clip"), out=log_coef)
        log_coef -= high.take(i, out=buffer, mode="clip")
        np.subtract(np.repeat(low[n], self.lengths), low.take(n_minus_i, out=buffer, mode="clip"), out=low_part)
        low_part -= low.take(i, out=buffer, mode="clip")
        log_coef += low_part
        i_float[:], n_minus_i_float[:] = i, n_minus_i
        self.log_coef, self.i, self.n_minus_i = log_coef, i_float, n_minus_i_float
        self._scratch = low_part, buffer  # the buffers `tails` writes its terms into

    def tails(self, log_p, log_q) -> tuple[np.ndarray, np.ndarray]:
        """(CDF, pmf) at each point, given log p and log(1 - p) per point (or one for all).

        The pmf is the last term of the CDF sum, so the solver gets the
        derivative dCDF/dp = -(n - k) / (1 - p) * pmf(k; n, p) for free.
        Each term is exp(log_coef + i log p + (n - i) log(1 - p)), summed in
        that order in the two scratch buffers.
        """
        if np.ndim(log_p):
            log_p, log_q = np.repeat(log_p, self.lengths), np.repeat(log_q, self.lengths)
        terms, scratch = self._scratch
        np.multiply(self.i, log_p, out=terms)
        terms += self.log_coef
        terms += np.multiply(self.n_minus_i, log_q, out=scratch)
        np.exp(terms, out=terms)
        return np.minimum(np.add.reduceat(terms, self.offsets), 1.0), terms[self.last]


def _cdf(k: np.ndarray, n: np.ndarray, p: float) -> np.ndarray:
    """CDF(k; n, p) at each point, for 0 < p < 1 and k < n."""
    start = _window_start(k, n, p)
    cdf = np.empty(len(k))
    log_p, log_q = math.log(p), math.log1p(-p)
    blocks, workspace = _blocks(k - start + 1)
    for block in blocks:
        cdf[block] = _Windows(k[block], n[block], start[block], workspace).tails(log_p, log_q)[0]
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

    The root is the 1 - beta quantile of Beta(a, b), a = k + 1, b = n - k.
    k = 0 has the exact root 1 - beta**(1/n). Otherwise the start is
    Paulson's approximation. The root is r = a x / (b + a x) for x the
    1 - beta quantile of F(2a, 2b), and for the cube root u of x,
    (1 - 1/(9b)) u - (1 - 1/(9a)) is about normal with variance
    1/(9a) + u**2/(9b) (Wilson-Hilferty). So u solves the quadratic that
    sets it to z times its standard deviation, z the normal 1 - beta
    quantile. A guess depends on its point's (k, n, beta) alone, so a solve
    never depends on which other bounds are solved with it.
    """
    z = NormalDist().inv_cdf(1.0 - beta)
    a, b = (k + 1).astype(float), (n - k).astype(float)
    va, vb = 1.0 / (9.0 * a), 1.0 / (9.0 * b)
    ma, mb = 1.0 - va, 1.0 - vb
    # mb u - ma = z sqrt(va + vb u^2), solved for u
    disc = va * mb * mb + vb * ma * ma - z * z * va * vb
    denom = mb * mb - z * z * vb
    u = np.divide(ma * mb + z * np.sqrt(np.maximum(disc, 0.0)), denom,
                  out=np.zeros(len(k)), where=(disc >= 0.0) & (denom > 0.0))
    guess = 1.0 - b / (b + a * u**3)
    # the solver divides by 1 - r, and the windows hold from lo up; a guess
    # outside [lo, 1) (u = 0 among them) restarts mid-bracket
    guess = np.where((lo <= guess) & (guess < 1.0) & (u > 0.0), guess, 0.5 * (lo + 1.0))
    log_beta = math.log(beta)
    zero = np.flatnonzero(k == 0)
    guess[zero] = [-math.expm1(log_beta / m) for m in n[zero].tolist()]
    return guess


def _solve_block(k, n, start, lo, beta: float, workspace):
    """Halley solves of CDF(k; n, r) = beta for k < n; (best value, its residual, floored).

    Every point keeps its own bracket, from its lower end lo, and stops on
    its own; floored marks the points that stopped at the step floor. The
    state arrays hold the points still iterating, whose windows alone are
    evaluated; a point's result is written out when it stops, and the
    windows of the rest are built again in the same workspace.
    """
    values, residuals = np.zeros(len(k)), np.full(len(k), 1.0 - beta)
    floored = np.zeros(len(k), dtype=bool)
    windows = _Windows(k, n, start, workspace)
    live = np.arange(len(k))
    hi = np.ones(len(k))  # invariant: cdf(lo) >= beta > cdf(hi)
    r = _initial_guesses(k, n, beta, lo)
    best, best_residual = values.copy(), residuals.copy()
    for _ in range(DEFAULT_MAX_ITER):
        log_r, log_q = np.log(r), np.log1p(-r)
        f, pmf = windows.tails(log_r, log_q)
        gap = f - beta
        residual = np.abs(gap)
        better = residual < best_residual
        best, best_residual = np.where(better, r, best), np.where(better, residual, best_residual)
        above = f >= beta
        lo, hi = np.where(above, r, lo), np.where(above, hi, r)
        n_minus_k = n - k
        # -dCDF/dr; the Newton step on CDF(r) - beta is gap / slope, NaN (so a
        # bisection) where the slope underflows
        slope = n_minus_k * pmf / (1.0 - r)
        with np.errstate(over="ignore"):  # far from the root a step may overflow
            newton = np.divide(gap, slope, out=np.full(len(r), np.nan), where=slope > 0.0)
            # Halley's step divides Newton's by 1 + newton / 2 * d log(slope)/dr;
            # a divisor off [1/2, 2] means the curvature term is no correction,
            # as far from the root, and Newton's step is taken
            divisor = 1.0 + 0.5 * newton * (k / r - (n_minus_k - 1.0) / (1.0 - r))
            step = np.divide(newton, divisor, out=newton, where=(0.5 <= divisor) & (divisor <= 2.0))
            # the step is below what r can hold, or moves the CDF by less than the
            # sum's own rounding: about eps times its terms' exponent, times the sum
            at_floor = ((np.abs(step) <= _STEP_FLOOR * r)
                        | (np.abs(step) * slope <= _EPS * -(k * log_r + n_minus_k * log_q) * f))
        nxt = r + step
        mid = 0.5 * (lo + hi)
        outside = ~((lo < nxt) & (nxt < hi))
        done = ((residual == 0.0) | at_floor
                | (outside & ((mid == lo) | (mid == hi))))
        r = np.where(outside, mid, nxt)
        if done.any():
            values[live[done]], residuals[live[done]] = best[done], best_residual[done]
            floored[live[done]] = at_floor[done]
            going = ~done
            if not going.any():
                return values, residuals, floored
            live, k, n, start, lo, hi, r, best, best_residual = (
                a[going] for a in (live, k, n, start, lo, hi, r, best, best_residual))
            windows = _Windows(k, n, start, workspace)
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
    at most DEFAULT_MAX_ITER CDF evaluations. A point whose step fell under
    the step floor passes: it is at its root to within the floor. The floor
    is 4 eps r, or the CDF's rounding bound (eps times the pmf term's
    log-space exponent, times the CDF) over the slope where that is larger,
    so the residual is all the CDF can resolve there. It can exceed
    DEFAULT_TOL where the CDF is steep. The CDF is summed as F, not 1 - F,
    so relative accuracy degrades as beta approaches 1: at beta 0.999 a
    bound can be several 1e-12 relative from the root. beta must leave
    1 - beta a float below 1 (`records.check_beta`).
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
    blocks, workspace = _blocks(k_s - start + 1)
    for block in blocks:
        values[solved[block]], residuals[solved[block]], floored[solved[block]] = _solve_block(
            k_s[block], n_s[block], start[block], lo[block], beta, workspace)
    failed = np.flatnonzero((residuals[solved] > DEFAULT_TOL) & ~floored[solved])
    if failed.size:
        i = solved[failed[0]]
        raise ConvergenceError(
            f"bound solve left residual {residuals[i]:.3e} > {DEFAULT_TOL:.1e} "
            f"for k={k[i]}, n={n[i]}, beta={beta}"
        )
    return values, residuals


def risk_upper_bound(tail: BinomialTail, beta: float) -> RiskBound:
    """Largest error rate r with CDF(k; n, r) still >= beta.

    This is the one-sided exact upper bound at confidence 1 - beta: the CDF is
    continuous and strictly decreasing in r on (0, 1) for k < n, so the
    supremum is the unique root of CDF(k; n, r) = beta. It is the
    one-point call of `risk_upper_bounds`: Halley steps from Paulson's
    cube-root start (exact for k = 0), with a bisection step whenever the
    step would leave the bracket, until a step falls under the step floor;
    the iterate with the smallest residual is returned. Each CDF sum runs
    over the window of terms the module docstring describes. k = n yields
    exactly 1.0.
    """
    if not isinstance(tail, BinomialTail):  # a (k, n) pair
        _columns(DomainError, 2, tail=tail)
        tail = BinomialTail(*tail)
    values, residuals = risk_upper_bounds([tail.k], [tail.n], beta)
    return RiskBound(value=float(values[0]), beta=float(beta), residual=float(residuals[0]))
