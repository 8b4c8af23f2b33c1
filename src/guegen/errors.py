"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ParameterError and OracleError are
usage/input problems (exit 1); BudgetError and ConvergenceError, with
its subclass CertificateError, are runtime resource or numerical
failures (exit 2).
"""

import numbers
import reprlib

import numpy as np


class GuegenError(Exception):
    """Base class for all package errors."""


class ParameterError(GuegenError, ValueError):
    """An argument is outside its documented domain."""


class BudgetError(GuegenError, RuntimeError):
    """A rejection loop exceeded its proposal/attempt cap."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts


class ConvergenceError(GuegenError, RuntimeError):
    """An iterative numerical routine failed to reach its tolerance."""


class CertificateError(ConvergenceError):
    """A numerical certificate a construction rests on did not hold, such
    as phi_k^2 being strictly decreasing beyond the squeeze window."""


class OracleError(GuegenError, ValueError):
    """A test oracle violated one of its own contracts (e.g. a
    non-monotone CDF handed to a goodness-of-fit test)."""


def whole(name, value, least):
    """The one check of degrees, sizes, counts, budgets and seeds: ``value``
    as an int, or ParameterError unless it is a whole number >= ``least``.
    Integral floats such as 1e4 and numpy integers pass; 2.5, NaN, +-inf,
    strings, None and booleans do not.  An array or list gives an int64
    array."""
    if isinstance(value, (bool, np.bool_)):
        pass  # a flag, not a count: True would pass as 1
    elif isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        if int(value) >= least:
            return int(value)
    elif np.ndim(value):
        a = np.asarray(value)
        if a.dtype.kind in "fu" and np.all((np.abs(a) < 2.0**63) & (a == np.floor(a))):
            a = a.astype(np.int64)
        if a.dtype.kind == "i" and not (a.size and a.min() < least):
            return a.astype(np.int64, copy=False)
    raise ParameterError(f"{name} must be whole and >= {least}, got {reprlib.repr(value)}")
