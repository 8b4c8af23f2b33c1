"""Piecewise dominating envelope for the squared Hermite function density.

For degree n the envelope has three pieces in |x|:

* bulk, |x| <= x1:      (8 pi / 3) / sqrt(4n + 2 - x^2)
* plateau, x1 < |x| <= x2:   (8 (pi+1) / 3) n^{-1/6}   (the sup bound)
* tail, |x| > x2:       2 sqrt(2) B^2 n^{-5/6} (|x| - sqrt(4n+2))^{-4}

with B = (pi+1)^2 sqrt(8 (pi+1) / 3).  The breakpoints are chosen so all
three pieces match continuously and every piece integrates in closed
form, which makes exact inversion sampling of the normalized envelope a
constant-time operation: pick a piece proportionally to its mass, then
invert that piece's CDF.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hermite
from .errors import ParameterError

PI = math.pi
EIGHT_PI_3 = 8.0 * PI / 3.0
SUP_COEFF = 8.0 * (PI + 1.0) / 3.0
B_CONST = (PI + 1.0) ** 2 * math.sqrt(8.0 * (PI + 1.0) / 3.0)
TAIL_COEFF = 2.0 * math.sqrt(2.0) * B_CONST**2
# x2 - sqrt(4n+2) = X2_OFFSET * n^{-1/6}
X2_OFFSET = math.sqrt(B_CONST) * (3.0 / (2.0 * math.sqrt(2.0) * (PI + 1.0))) ** 0.25
P3_COEFF = (
    math.sqrt(B_CONST)
    * (2.0 * math.sqrt(2.0) / 3.0) ** 1.75
    * (PI + 1.0) ** 0.75
)


@dataclass(frozen=True)
class DominatorSpec:
    """Precomputed envelope description for one degree n.

    p1, p2, p3 are the closed-form masses of the three pieces over the
    positive half-line; the envelope is even, so its total integral is
    2 (p1 + p2 + p3).
    """

    n: int
    B: float
    x1: float
    x2: float
    p1: float
    p2: float
    p3: float
    edge: float  # sqrt(4n + 2)

    @property
    def half_mass(self):
        return self.p1 + self.p2 + self.p3

    @property
    def mass(self):
        return 2.0 * (self.p1 + self.p2 + self.p3)

    @property
    def sup_value(self):
        return SUP_COEFF * self.n ** (-1.0 / 6.0)


def make_spec(n):
    """Build the envelope description for degree ``n`` from closed forms."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"envelope degree must be >= 1, got {n}")
    edge = math.sqrt(4.0 * n + 2.0)
    x1 = math.sqrt(4.0 * n + 2.0 - PI**2 / (PI + 1.0) ** 2 * n ** (1.0 / 3.0))
    x2 = edge + X2_OFFSET * n ** (-1.0 / 6.0)
    p1 = EIGHT_PI_3 * math.asin(x1 / edge)
    p2 = SUP_COEFF * n ** (-1.0 / 6.0) * (x2 - x1)
    p3 = P3_COEFF * n ** (-1.0 / 3.0)
    return DominatorSpec(n=n, B=B_CONST, x1=x1, x2=x2, p1=p1, p2=p2, p3=p3, edge=edge)


def envelope_many(spec, x):
    """Envelope values at an array of points (even in x)."""
    ax = np.abs(np.asarray(x, dtype=float))
    n = spec.n
    out = np.empty_like(ax)
    bulk = ax <= spec.x1
    tail = ax > spec.x2
    plateau = ~bulk & ~tail
    out[bulk] = EIGHT_PI_3 / np.sqrt(4.0 * n + 2.0 - ax[bulk] ** 2)
    out[plateau] = spec.sup_value
    out[tail] = TAIL_COEFF * n ** (-5.0 / 6.0) / (ax[tail] - spec.edge) ** 4
    return out


# ----------------------------------------------------------------------
# inversion sampling of the normalized envelope
# ----------------------------------------------------------------------


def bulk_inverse(spec, v):
    """Inverse CDF of the bulk piece on [0, x1]; v in [0, 1]."""
    return spec.edge * np.sin(v * np.arcsin(spec.x1 / spec.edge))


def plateau_inverse(spec, v):
    """Inverse CDF of the constant piece on [x1, x2]; v in [0, 1]."""
    return spec.x1 + (spec.x2 - spec.x1) * v


def tail_inverse(spec, v):
    """Inverse (survival-style) CDF of the tail piece; v in (0, 1] maps
    onto [x2, infinity), with v = 1 landing exactly on x2."""
    return spec.edge + (spec.x2 - spec.edge) * v ** (-1.0 / 3.0)


def sample_envelope_many(spec, stream, size):
    """``size`` draws from the normalized envelope density.

    Consumes three uniform arrays of ``size``: signs, piece selectors, and
    the piece-level inversion variates.
    """
    size = int(size)
    s = stream.rademachers(size)
    u = stream.uniforms(size)
    v = stream.uniforms(size)
    t = spec.half_mass
    x = np.empty(size)
    b1 = u < spec.p1 / t
    b2 = ~b1 & (u < (spec.p1 + spec.p2) / t)
    b3 = ~b1 & ~b2
    x[b1] = bulk_inverse(spec, v[b1])
    x[b2] = plateau_inverse(spec, v[b2])
    x[b3] = tail_inverse(spec, 1.0 - v[b3])
    return s * x


def envelope_cdf_abs(spec, x):
    """CDF of |X| under the normalized envelope density (vectorized)."""
    ax = np.abs(np.asarray(x, dtype=float))
    t = spec.half_mass
    out = np.empty_like(ax)
    bulk = ax <= spec.x1
    tail = ax > spec.x2
    plateau = ~bulk & ~tail
    out[bulk] = EIGHT_PI_3 * np.arcsin(ax[bulk] / spec.edge)
    out[plateau] = spec.p1 + spec.sup_value * (ax[plateau] - spec.x1)
    ratio = (spec.x2 - spec.edge) / (ax[tail] - spec.edge)
    out[tail] = spec.p1 + spec.p2 + spec.p3 * (1.0 - ratio**3)
    return out / t


def half_mass_numeric(spec, tol=1e-12):
    """Numerical quadrature of the envelope over [0, infinity).

    Independent check on the closed-form piece masses: bulk and plateau
    panels use the adaptive Gauss-Kronrod rule, the tail uses
    geometrically widening panels out to where the remainder is below
    1e-20 of the tail mass.
    """
    f = lambda xs: envelope_many(spec, xs)
    bulk, _ = hermite.integrate_adaptive(
        f, 0.0, spec.x1, tol * spec.p1, initial_width=spec.x1 / 64.0
    )
    plateau, _ = hermite.integrate_adaptive(f, spec.x1, spec.x2, tol * spec.half_mass)
    c = spec.x2 - spec.edge
    # geometric edges: remainder beyond c * 10^7 is ~1e-21 of the tail mass
    s_edges = c * np.geomspace(1.0, 1e7, 141)
    tail_vals, _ = hermite._gk_panels(f, spec.edge + s_edges[:-1], spec.edge + s_edges[1:])
    return bulk + plateau + float(tail_vals.sum())
