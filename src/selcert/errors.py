"""Exception types shared across the package, and the quoting of a bad value in their messages.

Everything raised on purpose derives from SelcertError so the CLI can map
failures onto its exit-code contract (1 for usage/schema problems, 2 for an
infeasible certificate).
"""

from __future__ import annotations

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
            loc = f" (row {row}" + (f", column {_shown(column)}" if column else "") + ")"
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


class _Quote(reprlib.Repr):
    """A message's quote of a value: at most 80 characters and 8 items of a container, an integer past 64 bits its
    size, and a fraction whose repr hits the integer digit limit the sizes of its numerator and denominator."""

    def repr1(self, x, level):  # at any depth, where such a number's repr may be too long to make
        if isinstance(x, int) and x.bit_length() > 64:
            return f"{'a negative' if x < 0 else 'an'} integer of {x.bit_length()} bits"
        if isinstance(x, numbers.Rational) and not isinstance(x, numbers.Integral):
            try:
                repr(x)
            except ValueError:  # reprlib would quote it by its memory address
                return (f"{'a negative' if x < 0 else 'a'} fraction with a {x.numerator.bit_length()}-bit numerator "
                        f"and a {x.denominator.bit_length()}-bit denominator")
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


def _as_text(cell) -> str:
    """A number cell's quote: str(cell), cut as `_cut` cuts it, in single quotes, so that text from a file and
    the value it reads as are quoted alike. A number past str()'s digit limit is quoted by its size (`_shown`)."""
    try:
        return "'" + _cut(str(cell)) + "'"
    except ValueError:
        return _shown(cell)


class ConvergenceError(SelcertError):
    """The bound solver left a residual above binom.DEFAULT_TOL at some point.

    It is raised after at most binom.DEFAULT_MAX_ITER CDF evaluations, and
    only for a point whose step never fell under the step floor. The floor is
    4 eps r, or the step that moves the CDF by its own rounding bound where
    that is larger. A step under it means the root is found to within the
    floor, whatever the residual.
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
