"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ParameterError and OracleError are
usage/input problems (exit 1); BudgetError and ConvergenceError, with
its subclass CertificateError, are runtime resource or numerical
failures (exit 2).
"""


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
