"""Exception hierarchy shared across the package.

Each error type carries the CLI's exit code for it in ``exit_code``, the
one table of them: ParameterError and OracleError are usage/input
problems (exit 1, the base class's code); BudgetError and
ConvergenceError, with its subclass CertificateError, are runtime
resource or numerical failures (exit 2).
"""

import numbers
import reprlib

import numpy as np


class GuegenError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParameterError(GuegenError, ValueError):
    """An argument is outside its documented domain."""


class BudgetError(GuegenError, RuntimeError):
    """A rejection loop exceeded its proposal/attempt cap."""

    exit_code = 2

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts


class ConvergenceError(GuegenError, RuntimeError):
    """An iterative numerical routine failed to reach its tolerance."""

    exit_code = 2


class CertificateError(ConvergenceError):
    """A numerical certificate a construction rests on did not hold, such
    as phi_k^2 being strictly decreasing beyond the squeeze window."""


class OracleError(GuegenError, ValueError):
    """A test oracle violated one of its own contracts (e.g. a
    non-monotone CDF handed to a goodness-of-fit test)."""


def _flag(value):
    """Whether ``value`` is a boolean or a list or tuple holding one."""
    if isinstance(value, (list, tuple)):
        return any(map(_flag, value))
    return isinstance(value, (bool, np.bool_))


def whole(name, value, least):
    """The one check of degrees, sizes, counts, budgets and seeds: ``value``
    as an int, or ParameterError unless it is a whole number >= ``least``.
    Integral floats such as 1e4 and numpy integers pass; 2.5, NaN, +-inf,
    strings, None and booleans do not, nor lists or tuples holding a
    boolean.  An array or list gives an int64 array, a 0-d array an int."""
    if isinstance(value, np.ndarray) and not value.ndim:
        value = value[()]
    if _flag(value):
        pass  # a flag, not a count: True would pass as 1, in a list too
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
