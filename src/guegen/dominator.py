"""Certified dominating hat for the squared Hermite function density.

For degree n >= 1 write f = phi_n, e = 2 sqrt(n+1) (the edge of the van
Veen representation, :mod:`guegen.vanveen`), x_t = sqrt(4n + 2) (the
turning point of f'' = (x^2/4 - n - 1/2) f) and x1 < x_t for the edge of
the squeeze window.  The hat has four pieces in |x|:

* bulk, |x| <= x_c:  C L(x), with L(x) = pref pi e / ((n+1) sqrt(e^2 - x^2)).
  L is pref a^2 with a = sqrt(pi / ((n+1) sin alpha)), and the van Veen
  bound gives phi^2 <= pref (a + 4.2 r)^2 = pref a^2 (1 + 4.2 r/a)^2 with
  r = 1 / (3 (n+1) sin^2 alpha).  r/a grows with |x|, so
  C = (1 + 4.2 r/a)^2 taken at x_c covers the whole piece.
* shoulder, x_c < |x| <= x1:  S(x1), where S = f^2 + f'^2 / q with
  q = n + 1/2 - x^2/4.  S' = x f'^2 / (2 q^2) >= 0 on [0, x_t)
  (Sonine-Polya; Szego, Orthogonal Polynomials, section 7.31), so
  f^2 <= S(x1) on [0, x1].
* plateau, x1 < |x| <= x_t + s:  f(x1)^2, since f^2 is certified strictly
  decreasing beyond x1 (:func:`hermite.decreasing_beyond`).
* tail, |x| > x_t + s:  f(x1)^2 exp(-c sqrt(s) (|x| - x_t)), with
  c = (4/3) sqrt(x_t / 2) and s = c^(-2/3).  Beyond x_t, E = f'^2 - Q f^2
  with Q = x^2/4 - n - 1/2 has E' = -(x/2) f^2 <= 0 and tends to 0, so
  f'/f <= -sqrt(Q) <= -sqrt(x_t (x - x_t) / 2) and
  f^2 <= f(x1)^2 exp(-c t^(3/2)) <= f(x1)^2 exp(-c sqrt(s) t) for
  t = |x| - x_t >= s.

f(x1) and f'(x1) come from the one O(n) scalar pass that certifies the
decrease.  Each level carries a relative slack of 1e-8, because the hat
touches phi_n^2 at x1 and the sampler compares against the float kernel.
x_c minimizes the closed-form mass over [0, x1] (golden-section search
with a fixed step count).  Every piece integrates and inverts in closed
form, so sampling the normalized hat costs one sign, one piece selector
and one inversion variate per draw.  Specs are cached.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hermite, vanveen
from .errors import CertificateError, ParameterError

PI = math.pi
# relative slack on each level: 100x the float kernel's relative error
# against a 60-digit reference (tests/test_hermite.py)
SLACK = 1e-8
_GOLDEN_STEPS = 64  # shrinks the search interval by 0.618^64, about 4e-14
# specs kept; one takes about 0.6 KB with its cache entry (tracemalloc), so
# the cache stays below 0.6 MB
_SPEC_CACHE = 1024


@dataclass(frozen=True, slots=True)
class DominatorSpec:
    """The hat of one degree n: breakpoints, levels and the closed-form
    masses p1 ... p4 of its four pieces over the positive half-line.  The
    hat is even, so its total integral, the mean number of proposals per
    accept, is 2 (p1 + p2 + p3 + p4)."""

    n: int
    x_c: float  # bulk / shoulder breakpoint
    x1: float  # squeeze-window edge: shoulder / plateau breakpoint
    edge: float  # turning point sqrt(4n + 2)
    x_tail: float  # plateau / tail breakpoint, edge + s
    vv_edge: float  # 2 sqrt(n + 1), where the bulk piece's L is singular
    bulk: float  # the bulk piece is bulk / sqrt(vv_edge^2 - x^2)
    shoulder: float  # S(x1)
    plateau: float  # phi_n(x1)^2
    rate: float  # the tail piece is plateau exp(-rate (|x| - edge))
    p1: float
    p2: float
    p3: float
    p4: float

    @property
    def masses(self):
        return (self.p1, self.p2, self.p3, self.p4)

    @property
    def half_mass(self):
        return self.p1 + self.p2 + self.p3 + self.p4

    @property
    def mass(self):
        return 2.0 * self.half_mass


def _golden_min(f, lo, hi):
    """Approximate minimizer of a unimodal ``f`` on [lo, hi]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    return c if fc <= fd else d


@functools.lru_cache(maxsize=_SPEC_CACHE)
def make_spec(n):
    """Build the hat of degree ``n``: one O(n) scalar pass at x1, then
    closed forms.  Raises CertificateError if phi_n^2 is not certified
    decreasing beyond x1."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"envelope degree must be >= 1, got {n}")
    edge = math.sqrt(4.0 * n + 2.0)
    x1 = math.sqrt(4.0 * n + 2.0 - PI**2 / (PI + 1.0) ** 2 * n ** (1.0 / 3.0))
    cert = hermite.decreasing_beyond(n, x1)
    if cert is None:
        raise CertificateError(f"phi_{n}^2 is not certified decreasing beyond x1 = {x1}")
    f, df = cert
    shoulder = (f * f + df * df / (n + 0.5 - 0.25 * x1 * x1)) * (1.0 + SLACK)
    plateau = f * f * (1.0 + SLACK)
    c = 4.0 / 3.0 * math.sqrt(edge / 2.0)
    s = c ** (-2.0 / 3.0)
    rate = c * math.sqrt(s)
    e = vanveen.domain_edge(n)
    level = math.exp(vanveen.log_prefactor(n)) * PI * e / (n + 1.0)
    r_over_a = 1.0 / (3.0 * math.sqrt(PI * (n + 1.0)))  # at x = 0; times sin^(-3/2) alpha

    def bulk(x_c):
        sin_a = math.sqrt(1.0 - (x_c / e) ** 2)
        return level * (1.0 + vanveen.MU_BOUND * r_over_a * sin_a**-1.5) ** 2 * (1.0 + SLACK)

    def inner_mass(x_c):
        return bulk(x_c) * math.asin(x_c / e) + shoulder * (x1 - x_c)

    x_c = _golden_min(inner_mass, 0.0, x1)
    b = bulk(x_c)
    return DominatorSpec(
        n=n,
        x_c=x_c,
        x1=x1,
        edge=edge,
        x_tail=edge + s,
        vv_edge=e,
        bulk=b,
        shoulder=shoulder,
        plateau=plateau,
        rate=rate,
        p1=b * math.asin(x_c / e),
        p2=shoulder * (x1 - x_c),
        p3=plateau * (edge + s - x1),
        p4=plateau * math.exp(-rate * s) / rate,
    )


def envelope_many(spec, x):
    """Hat values at an array of points (even in x)."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.where(ax <= spec.x1, spec.shoulder, spec.plateau)
    bulk = ax <= spec.x_c
    out[bulk] = spec.bulk / np.sqrt(spec.vv_edge**2 - ax[bulk] ** 2)
    tail = ax > spec.x_tail
    out[tail] = spec.plateau * np.exp(-spec.rate * (ax[tail] - spec.edge))
    return out


# ----------------------------------------------------------------------
# inversion sampling of the normalized hat
# ----------------------------------------------------------------------


def piece_inverse(spec, piece, v):
    """Inverse CDF of piece ``piece`` (0 bulk, 1 shoulder, 2 plateau,
    3 tail) restricted to the positive half-line: v in [0, 1) maps onto
    the piece, v = 0 onto its inner end."""
    if piece == 0:
        return spec.vv_edge * np.sin(v * np.arcsin(spec.x_c / spec.vv_edge))
    if piece == 3:
        return spec.x_tail - np.log1p(-v) / spec.rate
    lo, hi = (spec.x_c, spec.x1) if piece == 1 else (spec.x1, spec.x_tail)
    return lo + (hi - lo) * v


def sample_envelope_many(spec, stream, size):
    """``size`` draws from the normalized hat density.

    Consumes three uniform arrays of ``size``: signs, piece selectors, and
    the piece-level inversion variates.
    """
    size = int(size)
    s = stream.rademachers(size)
    u = stream.uniforms(size)
    v = stream.uniforms(size)
    piece = np.searchsorted(np.cumsum(spec.masses[:3]) / spec.half_mass, u, side="right")
    x = np.empty(size)
    for i in range(4):
        mask = piece == i
        x[mask] = piece_inverse(spec, i, v[mask])
    return s * x


def envelope_cdf_abs(spec, x):
    """CDF of |X| under the normalized hat density (vectorized)."""
    ax = np.abs(np.asarray(x, dtype=float))
    p1, p2, p3, p4 = spec.masses
    e = spec.vv_edge
    out = np.where(
        ax <= spec.x1,
        p1 + spec.shoulder * (ax - spec.x_c),
        p1 + p2 + spec.plateau * (ax - spec.x1),
    )
    bulk = ax <= spec.x_c
    out[bulk] = spec.bulk * np.arcsin(ax[bulk] / e)
    tail = ax > spec.x_tail
    out[tail] = p1 + p2 + p3 + p4 * -np.expm1(-spec.rate * (ax[tail] - spec.x_tail))
    return out / spec.half_mass

