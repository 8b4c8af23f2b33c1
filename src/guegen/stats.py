"""Goodness-of-fit and scaling-fit helpers for the verification suites.

Both Kolmogorov-Smirnov variants report the raw sup-distance together
with the sqrt(n)-scaled statistic, which acceptance thresholds compare
against the asymptotic critical values c(alpha) = sqrt(-ln(alpha/2) / 2)
(:func:`ks_critical`).

The one-sample statistic is bracketed: of n sorted samples x_0 <= ... <=
x_{n-1}, the reference CDF F is evaluated only at every s-th one, s =
ceil(n / _KS_POINTS), and at the last (:func:`ks_points`).  Between two
evaluated positions a < b every F(x_i) lies in [F(x_a), F(x_b)], so

    D+ = max_i (i+1)/n - F(x_i) <= max(max_a b/n - F(x_a), 1 - F(x_{n-1})),
    D- = max_i F(x_i) - i/n     <= max(max_a F(x_b) - (a+1)/n, F(x_0)),

over consecutive evaluated pairs (a, b).  The reported statistic is this
upper bound on D: never below it, at most (s-1)/n < 1/_KS_POINTS above
it, and equal to it (bit for bit) when n <= _KS_POINTS.  Gating the
bound is stricter than gating D.  It costs at most _KS_POINTS + 1 CDF
evaluations: 4001 at n = 1e5.  The oracle's own checks (shape,
monotonicity, range) see the evaluated points only; the package's CDFs
are checked for monotonicity on dense grids in their own tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError, ParameterError

_MIN_SAMPLES = 100
_KS_POINTS = 4096  # a one-sample KS evaluates its CDF at most this often, plus once


def ks_critical(alpha):
    """Asymptotic two-sided critical value for the scaled KS statistic."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"significance level must be in (0,1), got {alpha}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n_effective: float
    scaled: float


def _result(statistic, n_effective):
    scaled = statistic * math.sqrt(n_effective)
    return KSResult(float(statistic), float(n_effective), float(scaled))


def _finite_sorted(samples):
    """The samples sorted; a NaN or inf would pass for an ordinary point."""
    xs = np.sort(np.asarray(samples, dtype=float))
    if not np.isfinite(xs).all():
        raise ParameterError("samples must be finite, got NaN or infinite values")
    return xs


def ks_points(n):
    """Positions, in sorted order, of the samples whose reference CDF a
    one-sample KS over ``n`` samples evaluates: every
    ceil(n / _KS_POINTS)-th from the first, and the last."""
    step = -(-n // _KS_POINTS)
    return np.append(np.arange(0, n - 1, step), n - 1)


def ks_one_sample(samples, cdf_oracle):
    """Bracketed sup-distance between the empirical CDF and a reference
    CDF: an upper bound on it, exact for up to _KS_POINTS samples (see the
    module docstring).

    ``cdf_oracle`` maps the sorted samples at :func:`ks_points` to an
    array of their shape, nondecreasing with values in [0, 1]; any other
    result raises OracleError, since it means the oracle itself is
    broken.  These checks see the evaluated points only.
    """
    xs = _finite_sorted(samples)
    n = xs.size
    if n < _MIN_SAMPLES:
        raise ParameterError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    at = ks_points(n)
    f = np.asarray(cdf_oracle(xs[at]), dtype=float)
    if f.shape != at.shape:
        raise OracleError(f"reference CDF returned shape {f.shape} for {at.shape} samples")
    if np.any(np.diff(f) < -1e-12):
        raise OracleError("reference CDF is not monotone on the sample points")
    if f.min() < -1e-9 or f.max() > 1.0 + 1e-9:
        raise OracleError("reference CDF left [0, 1]")
    d_plus = max(np.max(at[1:] / n - f[:-1]), 1.0 - f[-1])
    d_minus = max(np.max(f[1:] - (at[:-1] + 1) / n), f[0])
    return _result(max(d_plus, d_minus, 0.0), n)


def ks_two_sample(a, b):
    """Two-sample KS with effective size ab / (a + b)."""
    a, b = _finite_sorted(a), _finite_sorted(b)
    if a.size < _MIN_SAMPLES or b.size < _MIN_SAMPLES:
        raise ParameterError(
            f"need at least {_MIN_SAMPLES} samples per side, got {a.size}, {b.size}"
        )
    pooled = np.concatenate([a, b])
    pooled.sort(kind="mergesort")
    ca = np.searchsorted(a, pooled, side="right") / a.size
    cb = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(ca - cb)))
    n_eff = a.size * b.size / (a.size + b.size)
    return _result(d, n_eff)


def loglog_slope(points):
    """Least-squares slope of log y against log n, with its standard error.

    ``points`` is a sequence of (n, y) pairs, all strictly positive,
    at least three of them.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ParameterError("need at least 3 (n, y) pairs")
    if np.any(arr <= 0.0):
        raise ParameterError("log-log fit needs strictly positive inputs")
    lx = np.log(arr[:, 0])
    ly = np.log(arr[:, 1])
    dx = lx - lx.mean()
    sxx = float(np.sum(dx * dx))
    if sxx == 0.0:
        raise ParameterError("all n values coincide; slope undefined")
    slope = float(np.sum(dx * ly) / sxx)
    resid = ly - ly.mean() - slope * dx
    dof = arr.shape[0] - 2
    stderr = math.sqrt(float(np.sum(resid * resid)) / dof / sxx) if dof else 0.0
    return slope, stderr
