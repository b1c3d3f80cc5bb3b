"""Exact binomial tail probabilities and upper confidence bounds.

This is the numerical core of the package: certification rests on inverting
the binomial CDF, so it is computed from first principles rather than from a
normal or Wilson approximation. Terms are evaluated in log space from a
compensated double-double log-factorial table and added with numpy's
pairwise summation. The bound is the root of CDF(k; n, r) = beta, found by
a Newton solve kept inside a bisection bracket. It starts from a closed-form
guess (exact for k = 0, Wilson score otherwise) and uses the derivative
that the CDF sum already provides.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import ConvergenceError, DomainError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
# a Newton step this small (relative to r) is below the CDF's rounding noise
_STEP_FLOOR = 4 * sys.float_info.epsilon


@dataclass(frozen=True)
class BinomialTail:
    """Observed error count k out of n retained predictions."""

    k: int
    n: int

    def __post_init__(self) -> None:
        for name in ("k", "n"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise DomainError(f"k and n must be integers, got k={self.k!r}, n={self.n!r}")
            object.__setattr__(self, name, int(v))
        if self.n < 1:
            raise DomainError(f"n must be at least 1, got {self.n}")
        if not (0 <= self.k <= self.n):
            raise DomainError(f"k must satisfy 0 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class RiskBound:
    """Upper confidence bound on a binomial proportion.

    `value` is the largest rate still consistent with the observed tail at
    confidence level 1 - beta; `residual` is |CDF(k; n, value) - beta| at the
    returned point. For k < n the solver drives the residual below its
    tolerance; for k = n the bound is pinned at 1 and the residual is 1 - beta
    because the CDF is identically 1 there.
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
        length = self._len
        if n < length:
            return self._values[:, : n + 1]
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


def _check_args(k: int, n: int, p: float) -> None:
    if not isinstance(k, (int, np.integer)) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"k and n must be integers, got k={k!r}, n={n!r}")
    if n < 1 or not (0 <= k <= n):
        raise DomainError(f"need n >= 1 and 0 <= k <= n, got k={k}, n={n}")
    if isinstance(p, bool) or not isinstance(p, (int, float, np.floating)):
        raise DomainError(f"p must be a number, got {p!r}")
    if math.isnan(p) or not (0.0 <= p <= 1.0):
        raise DomainError(f"p must be within [0, 1], got {p!r}")


def _tail_evaluator(k: int, n: int):
    """p -> (CDF(k; n, p), pmf(k; n, p)), with the p-independent parts precomputed.

    The pmf is the last term of the CDF sum, so the solver gets the
    derivative dCDF/dp = -(n - k) / (1 - p) * pmf(k; n, p) for free.
    """
    high, low = _LOG_FACTORIALS.upto(n)
    # log C(n, i) for i = 0..k: the high parts of log(n!) and log((n-i)!) cancel
    # first, then the low parts add back what rounding the high parts dropped
    high_rev, low_rev = high[n - k : n + 1][::-1], low[n - k : n + 1][::-1]
    log_coef = (high[n] - high_rev - high[: k + 1]) + (low[n] - low_rev - low[: k + 1])
    i = np.arange(k + 1, dtype=float)
    n_minus_i = float(n) - i

    def tail(p: float) -> tuple[float, float]:
        if p <= 0.0:
            return 1.0, float(k == 0)
        if p >= 1.0:
            return 0.0, 0.0  # only called with k < n
        terms = np.exp(log_coef + i * math.log(p) + n_minus_i * math.log1p(-p))
        total = float(terms.sum())
        return (total if total < 1.0 else 1.0), float(terms[-1])

    return tail


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p).

    Computed as sum_{i<=k} exp(log C(n,i) + i log p + (n-i) log(1-p)); the
    terms are nonnegative, so pairwise accumulation keeps the relative error
    near machine epsilon even for n in the thousands. Edge cases are exact:
    p = 0 gives 1, p = 1 gives 1 iff k = n (else 0), and k = n gives 1 for
    any p.
    """
    _check_args(k, n, p)
    k, n, p = int(k), int(n), float(p)
    if k == n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return _tail_evaluator(k, n)(p)[0]


def _initial_guess(k: int, n: int, beta: float) -> float:
    """Closed-form start for the root of CDF(k; n, r) = beta.

    k = 0 has the exact root 1 - beta**(1/n); otherwise the one-sided Wilson
    score upper limit. The guess depends on (k, n, beta) alone, so a solve
    never depends on which bounds were computed before it.
    """
    if k == 0:
        return -math.expm1(math.log(beta) / n)
    z = NormalDist().inv_cdf(1.0 - beta)
    z2n = z * z / n
    p_hat = k / n
    centre = p_hat + 0.5 * z2n
    spread = z * math.sqrt(p_hat * (1.0 - p_hat) / n + 0.25 * z2n / n)
    guess = (centre + spread) / (1.0 + z2n)
    # the solver divides by 1 - r; a guess rounded up to 1 restarts mid-range
    return guess if guess < 1.0 else 0.5


@lru_cache(maxsize=None)
def _solve_upper_bound(k: int, n: int, beta: float, tol: float, max_iter: int) -> RiskBound:
    tail = _tail_evaluator(k, n)
    lo, hi = 0.0, 1.0  # invariant: cdf(lo) >= beta > cdf(hi)
    best_value, best_residual = 0.0, 1.0 - beta
    r = _initial_guess(k, n, beta)
    for _ in range(max_iter):
        f, pmf = tail(r)
        residual = abs(f - beta)
        if residual < best_residual:
            best_value, best_residual = r, residual
        if f >= beta:
            lo = r
        else:
            hi = r
        if residual == 0.0:
            break
        # Newton step on CDF(r) - beta; a step that leaves the bracket bisects
        slope = (n - k) * pmf / (1.0 - r)
        step = (f - beta) / slope if slope > 0.0 else math.inf
        if abs(step) <= _STEP_FLOOR * r:
            break
        nxt = r + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if nxt == lo or nxt == hi:
                break
        r = nxt
    if best_residual > tol:
        raise ConvergenceError(
            f"Newton solve left residual {best_residual:.3e} > {tol:.1e} "
            f"for k={k}, n={n}, beta={beta}"
        )
    return RiskBound(value=best_value, beta=beta, residual=best_residual)


def risk_upper_bound(
    tail: BinomialTail,
    beta: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RiskBound:
    """Largest error rate r with CDF(k; n, r) still >= beta.

    This is the one-sided exact upper bound at confidence 1 - beta: the CDF is
    continuous and strictly decreasing in r on (0, 1) for k < n, so the
    supremum is the unique root of CDF(k; n, r) = beta. It is found by Newton
    steps from a closed-form start, with a bisection step whenever Newton
    would leave the bracket; the iterate with the smallest residual is
    returned (results are cached, keyed by k, n and beta). k = n yields
    exactly 1.0.
    """
    if not isinstance(tail, BinomialTail):
        tail = BinomialTail(*tail)
    if isinstance(beta, bool) or not isinstance(beta, (int, float)):
        raise DomainError(f"beta must be a number, got {beta!r}")
    beta = float(beta)
    if math.isnan(beta) or not (0.0 < beta < 1.0):
        raise DomainError(f"beta must be strictly inside (0, 1), got {beta!r}")
    if tail.k == tail.n:
        return RiskBound(value=1.0, beta=beta, residual=1.0 - beta)
    return _solve_upper_bound(tail.k, tail.n, beta, float(tol), int(max_iter))
