"""Exception types shared across the package.

Everything raised on purpose derives from SelcertError so the CLI can map
failures onto its exit-code contract (1 for usage/schema problems, 2 for an
infeasible certificate).
"""

from __future__ import annotations

import math
import numbers
import reprlib

import numpy as np


class SelcertError(Exception):
    """Base class for all errors raised by selcert."""


class SchemaError(SelcertError):
    """A dataset file or value violates the expected schema.

    Carries the 1-based data row and the column name when they are known, so
    messages can point at the offending cell.
    """

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column '{column}'" if column else "") + ")"
        super().__init__(message + loc)
        self.row = row
        self.column = column


class DatasetIOError(SelcertError):
    """A dataset file could not be read or written."""


class DuplicateIdError(SelcertError):
    """Two records in one dataset share an id."""


class MissingDateError(SelcertError):
    """A temporal split was requested but some records have no date."""

    def __init__(self, ids: list[str]):
        shown = ", ".join(map(_shown, ids[:10])) + (", ..." if len(ids) > 10 else "")
        super().__init__(f"{len(ids)} record(s) have no date: {shown}")
        self.ids = list(ids)


class DomainError(SelcertError):
    """A numeric argument is outside its legal domain."""


def check_real(name: str, value, low: float, high: float, closed: bool = False) -> float:
    """`value` as a float, if it is a real number (not a bool or NaN) within the interval.

    The interval runs from low to high, open unless `closed`; anything else
    raises a DomainError naming `name`.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value:
        raise DomainError(f"{name} must be a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer or fraction beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not (low <= number <= high if closed else low < number < high):
        ends = "[]" if closed else "()"
        raise DomainError(f"{name} must be within {ends[0]}{low}, {high}{ends[1]}, got {_shown(value)}")
    return number


def check_int(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """`value` as an int, if it is an integer (not a bool) from minimum up to any maximum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" + ("" if maximum is None else f" and <= {maximum}")
        raise DomainError(f"{name} must be an integer {bound}, got {_shown(value)}")
    return int(value)


def check_beta(beta) -> float:
    """`beta` as a float, if it is within (0, 1) and 1 - beta is a float below 1.

    At beta <= 2**-54, 1.0 - beta rounds to 1.0: the solver has no start at
    such a level, and its absolute tolerance says nothing about the root.
    Every entry point that reads a beta checks it here.
    """
    number = check_real("beta", beta, 0, 1)
    if 1.0 - number == 1.0:
        raise DomainError(f"beta must be within (0, 1) with 1 - beta below 1 as a float, got {number!r}")
    return number


class _Quote(reprlib.Repr):
    """A message's quote of a value: at most 80 characters and 8 items of a container, an integer past 64 bits its size."""

    def repr1(self, x, level):  # at any depth, where such an integer's repr may be too long to make
        if isinstance(x, int) and x.bit_length() > 64:
            return f"{'a negative' if x < 0 else 'an'} integer of {x.bit_length()} bits"
        return super().repr1(x, level)


_QUOTE = _Quote()
_QUOTE.maxstring = _QUOTE.maxother = 80
_QUOTE.maxtuple = _QUOTE.maxlist = _QUOTE.maxdict = _QUOTE.maxset = _QUOTE.maxfrozenset = _QUOTE.maxdeque = 8


def _shown(value) -> str:
    """repr(value) cut as `_QUOTE` cuts it, a numpy scalar's as its Python value's."""
    if isinstance(value, np.generic):
        value = value.item()
    return _QUOTE.repr(value)


def _cut(text: str) -> str:
    """Text past 80 characters cut to its first 38 and last 39 around "...", as `_QUOTE` cuts a string."""
    return text if len(text) <= 80 else text[:38] + "..." + text[-39:]


class ConvergenceError(SelcertError):
    """The bound solver left a residual above binom.DEFAULT_TOL at some point.

    It is raised after at most binom.DEFAULT_MAX_ITER CDF evaluations, and
    only for a point whose Newton step never fell under the step floor: such
    a step means the root is found to within the floor, whatever the residual.
    """


class EmptyCalibrationError(SelcertError):
    """Certification was attempted on an empty calibration set."""


class InfeasibleCertificateError(SelcertError):
    """An operation required a feasible certificate but got an infeasible one."""


class IdMismatchError(SelcertError):
    """Decision ids do not line up with the dataset they are applied to."""


class UnpairedIdsError(SelcertError):
    """Two datasets that must share an id set do not."""


class DegenerateLabelsError(SelcertError):
    """A metric needs both classes present and the data has only one."""


class EmptyInputError(SelcertError):
    """A metric was asked for on zero records."""


class UnsortedLambdasError(SelcertError):
    """A threshold grid must be strictly increasing and within [0.5, 1]."""


class ResampleCapError(SelcertError):
    """A bootstrap resample kept producing undefined metrics until the cap."""
