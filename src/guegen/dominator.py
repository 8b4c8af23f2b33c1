"""Dominating hats: one per degree for the squared Hermite function
density, certified or level, a grid hat for the one-eigenvalue density
of a small GUE(n), and a grid hat for one small degree.

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
* plateau, x1 < |x| <= x_t + s:  f(x1)^2, since f^2 is strictly decreasing
  beyond x1 by Sturm comparison (:func:`hermite.certify_decreasing`).
* tail, |x| > x_t + s:  f(x1)^2 exp(-c sqrt(s) (|x| - x_t)), with
  c = (4/3) sqrt(x_t / 2) and s = c^(-2/3).  Beyond x_t, E = f'^2 - Q f^2
  with Q = x^2/4 - n - 1/2 has E' = -(x/2) f^2 <= 0 and tends to 0, so
  f'/f <= -sqrt(Q) <= -sqrt(x_t (x - x_t) / 2) and
  f^2 <= f(x1)^2 exp(-c t^(3/2)) <= f(x1)^2 exp(-c sqrt(s) t) for
  t = |x| - x_t >= s.

f(x1) and f'(x1) come from one plain kernel pass for all the degrees a
call builds, and certify the decrease by themselves.  Each level carries
a relative slack of 1e-8, as the hat touches phi_n^2 at x1 and the
sampler compares against the float kernel.
x_c minimizes the closed-form mass over [0, x1]: that mass is convex in
x_c, so x_c is the root of its derivative, found by bracketed secant
steps (Illinois) with a fixed step cap.  Every piece integrates and
inverts in closed form, so sampling the normalized hat costs one sign,
one piece selector and one inversion variate per draw, read as one
uniform array.  The ``_SPEC_CACHE`` newest certified hats are cached, and
the most recently used level hats.

The certificate pass costs O(n), which a group of one draw does not
win back in a smaller hat.  Such groups take the level hat
(:func:`_level_spec`), built from closed forms alone: the same four
pieces with shoulder = plateau = M = ``_CRAMER``, so

* bulk, |x| <= x_c:  C L(x), as above;
* level, x_c < |x| <= x_t + s:  M, which bounds every phi_n^2 by
  Cramer's inequality (Abramowitz and Stegun 22.14.17);
* tail, |x| > x_t + s:  M exp(-c sqrt(s) (|x| - x_t)).  Every zero of f
  lies below x_t, and beyond x_t f'' = Q f makes f positive, convex and
  decaying, so f(x_t)^2 <= M and the E = f'^2 - Q f^2 argument above
  gives f^2 <= M exp(-c t^(3/2)) from x_t on.

M lies 2.5e-5 above Cramer's constant, relative, so it carries no further
slack.  The bulk piece and the van Veen squeeze in |x| <= x1 need no
pass, and x_c comes from the same search, with M as the shoulder level.
That x_c depends on the degree alone, so it is kept in a table by degree
(:func:`_level_splits`): a level hat built again after its eviction
costs 7-10 us instead of 30-47 us with the search (degrees 1 to 1e4,
a 2-core x86-64 box), and the same bits.
The level hat's mass is about 4.5 at n = 100 and 3.8 at n = 1e5, against 3.5 and
2.7 certified.  :func:`_certified_pays` picks the hat from the group's
count alone, as the table in :mod:`guegen.samplers` sets out.

The grid hat (:func:`grid_hat`) covers g_n = (1/n) sum_{k<n} phi_k^2,
the density of one uniformly chosen GUE(n) eigenvalue, directly:

* derivative: averaging the two ladder relations quoted in
  :mod:`guegen.hermite` gives (phi_k^2)' = sqrt(k) phi_k phi_{k-1}
  - sqrt(k+1) phi_{k+1} phi_k, which telescopes to
  (sum_{k<n} phi_k^2)' = -sqrt(n) phi_n phi_{n-1}.  Cramer's inequality
  (Abramowitz and Stegun 22.14.17) bounds every phi_k^2 by
  1.086435^2 / sqrt(2 pi) < 0.4709, so |g_n'| <= L = 0.4709 / sqrt(n).
* cells: [-X, X] is cut into cells of width about ``GRID_STEP`` at
  points placed symmetrically about 0.  On a cell [a, b] of width w,
  g(x) <= min(g(a) + L (x - a), g(b) + L (b - x))
  <= (g(a) + g(b)) / 2 + L w / 2, and likewise
  g(x) >= (g(a) + g(b)) / 2 - L w / 2.  On the kernel's values m at a
  and b, the cell's hat level is (m(a) + m(b)) / 2 (1 + SLACK)
  + L w / 2 (1 + SLACK) and its squeeze level
  (m(a) + m(b)) / 2 (1 - SLACK) - L w / 2 (1 + SLACK), floored at 0, so
  that they also bound the kernel's value at any x of the cell, which
  the exact test reads; a draw in a cell is clamped into it, where the
  bounds hold.
* tails: Mehler's formula gives phi_k^2 <= 0.47 2^k e^(-x^2/6)
  (:func:`hermite._far`), so g_n <= A e^(-x^2/6) with
  A = 0.47 (2^n - 1) / n, and x^2 >= X^2 + 2 X (|x| - X) for |x| >= X
  gives g_n <= A e^(-X^2/6) e^(-(X/3)(|x| - X)).  X^2 = 6 (ln A + 14)
  puts the tail piece at e^(-14) at X; its squeeze level is 0.

The levels come from one kernel pass over the points, so a grid costs
O(n X / GRID_STEP) = O(n^(3/2)) recurrence steps to build; the most
recently used grids are cached.  A draw costs one piece selector, read
through a Walker alias table, and one position variate.  Both grids'
densities are even, so their levels are worked out on the cells of
[0, X] and mirrored.

The degree grid (:func:`degree_grid`) covers g = phi_k^2 itself, for
1 <= k <= ``GRID_DEGREES``, with levels from two-sided Taylor bounds
(after the strip and table methods of Devroye, Non-Uniform Random
Variate Generation, 1986, ch. VIII):

* values: one kernel pass over the cell edges gives f = phi_k and
  f' = sqrt(k) phi_{k-1} - (x/2) phi_k, by the ladder relation quoted in
  :mod:`guegen.hermite` (:func:`hermite.phi_and_slope`), so g = f^2 and
  g' = 2 f f'.
* curvature: f'' = -q f with q = k + 1/2 - x^2/4 (Weber's equation), so
  g'' = 2 f'^2 - 2 q f^2.  Cramer's M bounds phi_k^2 and phi_{k-1}^2, so
  |f'| <= sqrt(M) (sqrt(k) + |x|/2) and
  |g''| <= L2(x) = 2 M ((sqrt(k) + |x|/2)^2 + k + 1/2 + x^2/4)
  (:func:`_bracket`), which grows with |x|; a cell takes it at its
  outer end b.
* levels: on a cell [a, b] of width w, Taylor's theorem with |g''| <= L2
  gives g(x) <= P_a(x) = g(a) + g'(a) (x - a) + L2 (x - a)^2 / 2, and
  g(x) <= P_b(x), the same from b.  Each is a convex quadratic, which
  takes its largest value on the cell at an end, so on the cell
  g <= min(max(g(a), P_a(b)), max(g(b), P_b(a))).  Mirrored, with -L2,
  each of Q_a and Q_b is concave and smallest at an end, so
  g >= max(min(g(a), Q_a(b)), min(g(b), Q_b(a))), floored at 0.
* float slack: the kernel's g carries at most SLACK of relative error,
  as for the other hats.  The error of g' w comes from cancellation
  between the two terms of f', so it is bounded absolutely, by SLACK
  times the bound 2 M (sqrt(k) + b/2) w on |g'| w; it joins the
  curvature term L2 w^2 / 2 on both sides.  The hat level then takes a
  factor 1 + SLACK and the squeeze level 1 - SLACK, so the levels also
  bound the kernel's value at any x of the cell, which the exact test
  reads.
* cells: of one width on [0, X], DEGREE_STEP / sqrt(I) with I the
  integral of (sqrt(k) + x/2)^2 + k + 1/2 + x^2/4 over [0, X], so their
  curvature terms add up to about the same mass at every degree: the hat's
  mass is 1.036-1.050 for k = 1 to 256 (table in :mod:`guegen.samplers`).
* tails: phi_k^2 <= 0.47 2^k e^(-x^2/6), A = 0.47 2^k, as above.

A degree grid costs one kernel pass of k steps over its about X / w
edges on [0, X]: 0.27, 0.33, 0.54, 2.2 and 10 ms to build at k = 1, 10,
30, 100 and 256 (2-core x86-64 box).  It has 1154, 2530, 5680, 18 956
and 55 810 cells there.

:func:`propose` draws proposals from either kind of hat, or from several
degree hats at once, together with their squeeze verdicts, so the
rejection engine of :mod:`guegen.samplers` never asks which kind of hat
it runs.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import hermite, vanveen
from .errors import CertificateError, ParameterError, whole

PI = math.pi
# relative slack on each level: 100x the float kernel's relative error
# against a 60-digit reference (tests/test_hermite.py)
SLACK = 1e-8
_ROOT_STEPS = 100  # cap on the secant steps that find x_c; at most 34 run (k = 1 ... 1e6)
# specs kept; one takes about 0.6 KB with its cache entry (tracemalloc), so
# the cache stays below 0.6 MB
_SPEC_CACHE = 1024
_specs = {}  # degree -> DominatorSpec, oldest first
# the level hats' x_c by degree and the (_CRAMER, SLACK) they were solved at
# (:func:`_level_splits`); at most hermite._COEFF_CAP degrees, 1 MB
_splits = (None, np.empty(0))
# sup phi_k^2 <= 1.086435^2 / sqrt(2 pi) = 0.470888 (Cramer), rounded up
_CRAMER = 0.4709


@dataclass(frozen=True, slots=True)
class DominatorSpec:
    """The hat of one degree n, certified or level: breakpoints, levels and
    the closed-form masses p1 ... p4 of its four pieces over the positive
    half-line.  The hat is even, so its total integral, the mean number of
    proposals per accept, is 2 (p1 + p2 + p3 + p4)."""

    n: int
    x_c: float  # bulk / shoulder breakpoint
    arc: float  # arcsin(x_c / vv_edge), the scale of the bulk piece's inverse CDF
    x1: float  # squeeze-window edge: shoulder / plateau breakpoint
    edge: float  # turning point sqrt(4n + 2)
    x_tail: float  # plateau / tail breakpoint, edge + s
    vv_edge: float  # 2 sqrt(n + 1), where the bulk piece's L is singular
    bulk: float  # the bulk piece is bulk / sqrt(vv_edge^2 - x^2)
    shoulder: float  # S(x1); M for the level hat
    plateau: float  # phi_n(x1)^2; M for the level hat
    rate: float  # the tail piece is plateau exp(-rate (|x| - edge))
    p1: float
    p2: float
    p3: float
    p4: float
    cuts: tuple  # piece selector cut points: (p1, p1 + p2, p1 + p2 + p3) / half_mass

    @property
    def half_mass(self):
        return self.p1 + self.p2 + self.p3 + self.p4

    @property
    def mass(self):
        return 2.0 * self.half_mass

    @property
    def label(self):
        return f"degree {self.n}"

    @property
    def vv_edge2(self):
        return self.vv_edge**2


class HatRows(NamedTuple):
    """The fields of several degree hats that proposing reads, one entry
    per proposal (:func:`_rows`): the fields of the hat each proposal is
    drawn from, under the names :class:`DominatorSpec` gives them.
    :func:`sample_envelope_many`, :func:`envelope_many` and
    :func:`piece_inverse` take either, and read a field of one hat as a
    scalar and a field of rows at the points they work on."""

    n: np.ndarray
    cuts: np.ndarray  # shape (3, proposals)
    x_c: np.ndarray
    x1: np.ndarray
    x_tail: np.ndarray
    edge: np.ndarray
    vv_edge: np.ndarray
    vv_edge2: np.ndarray
    arc: np.ndarray
    bulk: np.ndarray
    shoulder: np.ndarray
    plateau: np.ndarray
    rate: np.ndarray


def _rows(hats, sizes):
    """The :class:`HatRows` of ``sizes[j]`` proposals from ``hats[j]``, for
    each j in turn.  Each field is read from its hat as a scalar, as one
    hat's proposals read it, so every proposal gets the same bits either
    way."""
    table = np.array([h.cuts + _row_fields(h) for h in hats]).T
    cols = table.repeat(sizes, axis=1)  # one contiguous row per field
    return HatRows(np.array([h.n for h in hats]).repeat(sizes), cols[:3], *cols[3:])


_row_fields = operator.attrgetter(*HatRows._fields[2:])


def _at(field, where):
    """A hat field at the points ``where`` picks: one hat's scalar as it
    is, a row of :class:`HatRows` indexed."""
    return field[where] if isinstance(field, np.ndarray) else field


def _root(f, lo, hi):
    """The point in [lo, hi] where ``f`` changes sign once, from negative
    to positive: lo where f(lo) >= 0, hi where f(hi) <= 0, else by
    bracketed secant steps with Illinois halving, until the bracket is a
    few ulps wide, a secant point rounds onto an end of the bracket, or
    after ``_ROOT_STEPS`` steps; then the end where |f| is smaller."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo >= 0.0:
        return lo
    if f_hi <= 0.0:
        return hi
    kept = 0  # the end the last step kept: -1 lo, +1 hi
    for _ in range(_ROOT_STEPS):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            break
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo, f_lo = x, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        if hi - lo <= 4.0 * math.ulp(hi):
            break
    return lo if -f_lo < f_hi else hi


def make_spec(n):
    """The hat of degree ``n``: the one-degree case of :func:`make_specs`."""
    return make_specs([n])[0]


def make_specs(ns):
    """The hats of degrees ``ns``, in order.  Degrees not in the cache are
    certified in one kernel pass, each at its own x1, then built from closed
    forms; CertificateError names a degree that fails, and none is cached."""
    ns = whole("envelope degrees", ns, 1).tolist()
    fresh = sorted(set(ns).difference(_specs))
    if fresh:
        x1 = [_window_edge(n) for n in fresh]
        f, df, ok = hermite.certify_decreasing(fresh, x1)
        for n, x, certified in zip(fresh, x1, ok.tolist()):
            if not certified:
                raise CertificateError(f"phi_{n}^2 is not certified decreasing beyond x1 = {x}")
        _specs.update(zip(fresh, map(_certified, fresh, x1, f.tolist(), df.tolist())))
    specs = [_specs[n] for n in ns]
    for n in list(_specs)[: max(len(_specs) - _SPEC_CACHE, 0)]:
        del _specs[n]  # the oldest first
    return specs


def _certified_pays(count):
    """Whether a degree group of ``count`` draws pays for the certified
    hat's O(n) certificate pass; if not, it takes the level hat.  Reads
    no cache, so draws never depend on which hats are cached."""
    return count > 1


@functools.lru_cache(maxsize=_SPEC_CACHE)
def _level_spec(n):
    """The level hat of degree ``n`` >= 1, from closed forms alone, its
    x_c read from the table of :func:`_level_splits` where solved before."""
    table = _level_splits(n)
    x_c = table.item(n) if n < table.size else math.nan
    spec = _build(n, _window_edge(n), _CRAMER, _CRAMER, None if math.isnan(x_c) else x_c)
    if n < table.size:
        table[n] = spec.x_c
    return spec


def _level_splits(n):
    """The table of level-hat splits x_c by degree, NaN where not yet
    solved, grown to cover degree n below ``hermite._COEFF_CAP``.  x_c
    depends on the degree and on the constants ``_CRAMER`` and ``SLACK``
    alone, so the table is kept with the constants it was solved at and
    starts empty when either differs."""
    global _splits
    solved_at, table = _splits
    if solved_at != (_CRAMER, SLACK):
        solved_at, table = (_CRAMER, SLACK), np.empty(0)
    if table.size <= n < hermite._COEFF_CAP:
        grown = np.full(min(max(n + 1, 2 * table.size), hermite._COEFF_CAP), math.nan)
        grown[: table.size] = table
        table = grown
    _splits = solved_at, table
    return table


def _window_edge(n):  # x1 of degree n, at x_t^2 - x1^2 = (pi / (pi + 1))^2 n^(1/3)
    return math.sqrt(4.0 * n + 2.0 - PI**2 / (PI + 1.0) ** 2 * n ** (1.0 / 3.0))


def _certified(n, x1, f, df):
    """The certified hat of degree n from f = phi_n(x1) and f' = phi_n'(x1)."""
    shoulder = (f * f + df * df / (n + 0.5 - 0.25 * x1 * x1)) * (1.0 + SLACK)
    return _build(n, x1, shoulder, f * f * (1.0 + SLACK))


def _build(n, x1, shoulder, plateau, x_c=None):
    """The hat of degree n with window edge x1 and the given shoulder and
    plateau levels: the bulk piece and x_c follow from closed forms, x_c
    from a root search unless it is given."""
    edge = math.sqrt(4.0 * n + 2.0)
    c = 4.0 / 3.0 * math.sqrt(edge / 2.0)
    s = c ** (-2.0 / 3.0)
    rate = c * math.sqrt(s)
    e = vanveen.domain_edge(n)
    bulk, slope = _inner_mass(n, x1, shoulder)
    if x_c is None:
        x_c = _root(slope, 0.0, x1)
    b = bulk(x_c)
    p1, p2 = b * math.asin(x_c / e), shoulder * (x1 - x_c)
    p3, p4 = plateau * (edge + s - x1), plateau * math.exp(-rate * s) / rate
    half = p1 + p2 + p3 + p4
    return DominatorSpec(
        n=n,
        x_c=x_c,
        arc=float(np.arcsin(x_c / e)),
        x1=x1,
        edge=edge,
        x_tail=edge + s,
        vv_edge=e,
        bulk=b,
        shoulder=shoulder,
        plateau=plateau,
        rate=rate,
        p1=p1,
        p2=p2,
        p3=p3,
        p4=p4,
        cuts=(p1 / half, (p1 + p2) / half, (p1 + p2 + p3) / half),
    )


def _inner_mass(n, x1, shoulder):
    """Two functions of the window split x_c of degree n: the bulk piece's
    constant C pref pi e / (n+1), with C taken at x_c; and the derivative
    of the hat's mass over [0, x1], bulk(x_c) asin(x_c / e) + shoulder
    (x1 - x_c), which increases with x_c, since C, asin(x_c / e) and its
    derivative all do."""
    e, _, _, pref = vanveen.constants(n)
    level = pref * PI * e / (n + 1.0)
    r_over_a = 1.0 / (3.0 * math.sqrt(PI * (n + 1.0)))  # at x = 0; times sin^(-3/2) alpha

    def bulk(x_c):
        sin_a = math.sqrt(1.0 - (x_c / e) ** 2)
        return level * (1.0 + vanveen.MU_BOUND * r_over_a * sin_a**-1.5) ** 2 * (1.0 + SLACK)

    def slope(x_c):
        root = math.sqrt(e * e - x_c * x_c)
        g = vanveen.MU_BOUND * r_over_a * (root / e) ** -1.5  # C = (1 + g)^2
        grow = 3.0 * g * x_c * math.asin(x_c / e) / ((1.0 + g) * root * root)  # C' / C times asin
        return bulk(x_c) * (grow + 1.0 / root) - shoulder

    return bulk, slope


def envelope_many(spec, x):
    """Hat values at an array of points (even in x): of the hat ``spec``,
    or of the hat of each point for :class:`HatRows`."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.where(ax <= spec.x1, spec.shoulder, spec.plateau)
    bulk = ax <= spec.x_c
    out[bulk] = _at(spec.bulk, bulk) / np.sqrt(_at(spec.vv_edge2, bulk) - ax[bulk] ** 2)
    tail = (ax > spec.x_tail).nonzero()[0]
    if tail.size:
        rate, edge = _at(spec.rate, tail), _at(spec.edge, tail)
        out[tail] = _at(spec.plateau, tail) * np.exp(-rate * (ax[tail] - edge))
    return out


# ----------------------------------------------------------------------
# inversion sampling of the normalized hat
# ----------------------------------------------------------------------


def piece_inverse(spec, piece, v, where=slice(None)):
    """Inverse CDF of piece ``piece`` (0 bulk, 1 shoulder, 2 plateau,
    3 tail) restricted to the positive half-line: v in [0, 1) maps onto
    the piece, v = 0 onto its inner end.  For :class:`HatRows`, ``where``
    picks the rows of the variates ``v``."""
    if piece == 0:
        return _at(spec.vv_edge, where) * np.sin(v * _at(spec.arc, where))
    if piece == 3:
        return _at(spec.x_tail, where) - np.log1p(-v) / _at(spec.rate, where)
    lo, hi = (spec.x_c, spec.x1) if piece == 1 else (spec.x1, spec.x_tail)
    lo, hi = _at(lo, where), _at(hi, where)
    return lo + (hi - lo) * v


def sample_envelope_many(spec, words, size):
    """``size`` draws from the normalized hat density ``spec``, or one
    draw from the hat of each row of :class:`HatRows`.

    Reads 3 ``size`` uniform ``words``, a flat array or three rows of
    ``size``: the signs (negative from 0.5 on), the piece selectors, and
    the piece-level inversion variates.
    """
    size = whole("size", size, 0)
    s, u, v = words.reshape(3, size)
    cuts = spec.cuts
    if isinstance(cuts, tuple):
        piece = np.searchsorted(cuts, u, side="right")
    else:
        piece = (u >= cuts).sum(axis=0)  # the cuts at or below u, as searchsorted counts them
    x = np.empty(size)
    for i, drawn in enumerate(np.bincount(piece, minlength=4).tolist()):
        if drawn:
            mask = piece == i
            x[mask] = piece_inverse(spec, i, v[mask], mask)
    return np.negative(x, out=x, where=s >= 0.5)


# ----------------------------------------------------------------------
# the grid hat of the one-eigenvalue density
# ----------------------------------------------------------------------

GRID_STEP = 0.02  # cell width; the samplers module docstring has the mass table
_TAIL_LOG = 14.0  # the tail piece starts at e^(-14) at |x| = X
# mixture grids kept, the most recently used; one takes 36 B a cell, at most
# 120 KB at n <= 256, so the cache stays below 2 MB
_GRID_CACHE = 16
GRID_DEGREES = 256  # K: degree grids serve degrees 1 ... K
DEGREE_STEP = 0.22  # the degree grid's cell width times sqrt(I) (module docstring)
# degree grids kept, the most recently used; one takes 36 B a cell, at most
# 2.0 MB at k <= K (55 810 cells), so the cache stays below 8.1 MB
_DEGREE_GRID_CACHE = 4


class GridHat(NamedTuple):
    """A grid hat (see the module docstring): levels on the cells between
    consecutive ``points``, which cover [-x1, x1], and an exponential tail
    beyond.  Its pieces are the cells from the left, then the left and the
    right tail, and ``keep`` and ``alias`` are their Walker alias table
    (:func:`_alias_table`).  ``n`` is the degree of a degree grid, the
    ensemble size of a mixture's, and ``label`` names which."""

    n: int
    x1: float  # X: the cells cover [-X, X]
    points: np.ndarray  # cell edges, -X ... X, symmetric about 0
    upper: np.ndarray  # hat level of each cell
    lower: np.ndarray  # squeeze level of each cell
    tail: float  # the tail piece at |x| = X
    rate: float  # the tail piece is tail exp(-rate (|x| - X))
    mass: float  # the hat's integral, the mean number of proposals per accept
    keep: np.ndarray
    alias: np.ndarray
    label: str


def grid_hat(n):
    """The grid hat of the GUE(n) one-eigenvalue density, n >= 1, cached."""
    return _grid_hat(whole("ensemble size", n, 1))


def _tail_edge(log_a):
    """X, where the tail bound A e^(-x^2/6), ln A = ``log_a``, is e^(-14)."""
    return math.sqrt(6.0 * (log_a + _TAIL_LOG))


def _half_line(x1, step):
    """The cell edges on [0, x1], about ``step`` apart."""
    return np.linspace(0.0, x1, math.ceil(x1 / step) + 1)


@functools.lru_cache(maxsize=_GRID_CACHE)
def _grid_hat(n):
    # ln A, A = 0.47 (2^n - 1) / n, in logs: 2^n overflows from n = 1024
    log_a = math.log(0.47) + n * math.log(2.0) + math.log1p(-(2.0**-n)) - math.log(n)
    half = _half_line(_tail_edge(log_a), GRID_STEP)
    g = hermite.mixture_density_many(n, half)
    mid = 0.5 * (g[:-1] + g[1:])
    reach = (1.0 + SLACK) * 0.5 * _CRAMER / math.sqrt(n) * np.diff(half)  # L w / 2, with slack
    upper = mid * (1.0 + SLACK) + reach
    lower = np.maximum(mid * (1.0 - SLACK) - reach, 0.0)
    return _assemble(n, f"the n = {n} mixture", log_a, half, upper, lower)


def degree_grid(k):
    """The grid hat of phi_k^2, 1 <= k <= ``GRID_DEGREES``, cached."""
    k = whole("degree", k, 1)
    if k > GRID_DEGREES:
        raise ParameterError(f"degree grids serve degrees 1 to {GRID_DEGREES}, got {k}")
    return _degree_grid(k)


def _degree_edges(k):
    """ln A of the degree-k tail bound, and the grid's half-line cell edges
    on [0, X], about ``DEGREE_STEP / sqrt(I)`` apart, where I is the integral
    of :func:`_bracket` over [0, X] (module docstring)."""
    log_a = math.log(0.47) + k * math.log(2.0)  # phi_k^2 <= 0.47 2^k e^(-x^2/6)
    x1 = _tail_edge(log_a)
    root_k = math.sqrt(k)
    bracket = (2.0 / 3.0) * ((root_k + 0.5 * x1) ** 3 - root_k**3) + (k + 0.5) * x1 + x1**3 / 12.0
    return log_a, _half_line(x1, DEGREE_STEP / math.sqrt(bracket))


def _bracket(k, x):
    """(sqrt(k) + x/2)^2 + k + 1/2 + x^2/4 at x >= 0, which times 2 M bounds
    |(phi_k^2)''| on [-x, x] (module docstring)."""
    return (math.sqrt(k) + 0.5 * x) ** 2 + (k + 0.5) + 0.25 * x * x


@functools.lru_cache(maxsize=_DEGREE_GRID_CACHE)
def _degree_grid(k):
    log_a, half = _degree_edges(k)
    upper, lower = _degree_levels(k, half, *hermite.phi_and_slope(k, half))
    return _assemble(k, f"the degree {k} grid", log_a, half, upper, lower)


def _degree_levels(k, half, f, df):
    """The hat and squeeze levels of the degree-k grid's cells between the
    points ``half`` >= 0, from f = phi_k and f' = phi_k' there (module
    docstring)."""
    g, dg = f * f, 2.0 * f * df
    w = np.diff(half)
    b = half[1:]  # each cell's outer end
    # the curvature term L2 w^2 / 2; then the float error of g' w, at most
    # SLACK times its bound 2 M (sqrt(k) + x/2) w
    reach = _bracket(k, b) * (_CRAMER * w * w)
    reach += (SLACK * 2.0 * _CRAMER) * (math.sqrt(k) + 0.5 * b) * w
    ga, gb = g[:-1], g[1:]
    from_a = ga + dg[:-1] * w  # the Taylor line from a, at b
    from_b = gb - dg[1:] * w  # the Taylor line from b, at a
    upper = np.minimum(np.maximum(ga, from_a + reach), np.maximum(gb, from_b + reach))
    upper *= 1.0 + SLACK
    lower = np.maximum(np.minimum(ga, from_a - reach), np.minimum(gb, from_b - reach))
    lower *= 1.0 - SLACK
    return upper, np.maximum(lower, 0.0, out=lower)


def _assemble(n, label, log_a, half, upper, lower):
    """The grid hat whose cells on [0, X] lie between the points ``half``
    with levels ``upper`` and ``lower``, mirrored onto [-X, 0], and whose
    tails are bounded by A e^(-x^2/6), ln A = ``log_a``."""
    x1 = float(half[-1])
    tail = math.exp(log_a - x1 * x1 / 6.0)
    rate = x1 / 3.0
    # the alias table first, before the mirrored arrays exist, which keeps
    # the build's peak memory down
    masses = np.append(_even(upper * np.diff(half)), [tail / rate] * 2)
    mass = float(masses.sum())
    keep, alias = _alias_table(masses)
    points = np.concatenate((-half[:0:-1], half))
    upper, lower = _even(upper), _even(lower)
    for a in (points, upper, lower, keep, alias):
        a.flags.writeable = False  # shared by every caller of the cache
    return GridHat(n, x1, points, upper, lower, tail, rate, mass, keep, alias, label)


def _even(levels):
    """Levels of the cells on [0, X], from 0 out, extended to the cells
    on [-X, X], from -X: the mirror images first."""
    return np.concatenate((levels[::-1], levels))


def _alias_table(masses):
    """Walker's alias table of the distribution proportional to ``masses``,
    which it scales in place:
    index j, drawn uniformly, is kept with probability ``keep[j]`` and
    otherwise replaced by ``alias[j]``.  Vose's pairing, run on every pair
    at once: each round pairs as many indices of scaled mass below 1 with
    indices at or above 1 as there are of the fewer kind; each of the
    first is finished, and each of the second gives up what its partner
    lacks and joins the first kind if it falls below 1.  Indices left over
    keep their own share (about 1, up to rounding)."""
    p = masses
    p *= masses.size / masses.sum()
    keep = np.ones(masses.size)
    alias = np.arange(masses.size, dtype=np.int32)  # m + 2 < 2^17 (sample_grid_many)
    small, large = np.flatnonzero(p < 1.0), np.flatnonzero(p >= 1.0)
    while small.size and large.size:
        k = min(small.size, large.size)
        s, big = small[:k], large[:k]
        keep[s], alias[s] = p[s], big
        p[big] -= 1.0 - p[s]
        fell = p[big] < 1.0
        small = np.concatenate((small[k:], big[fell]))
        large = np.concatenate((large[k:], big[~fell]))
    return keep, alias


def sample_grid_many(hat, stream, size):
    """``size`` draws from the normalized grid hat, as ``(x, h, lower)``:
    the draws, and the hat and squeeze levels at each (0 in the tails).

    Consumes two uniform arrays of ``size``: the piece selectors u, where
    the integer part of u (m + 2), m the number of cells, picks an
    alias-table entry and its fraction is that entry's coin, then the
    position variates.  A cell's draw is clamped into the cell, where its
    bounds hold.
    """
    cells = hat.upper.size
    u = stream.uniforms(size) * (cells + 2)
    # u < 1 keeps the product below m + 2 after rounding, and m + 2 < 2^17
    # (55 812 at the degree grid of k = K, 3336 at the mixture's of n = 256)
    # leaves the coin at least 36 bits
    j = u.astype(np.intp)
    piece = np.where(u - j < hat.keep[j], j, hat.alias[j])
    v = stream.uniforms(size)
    cell = np.minimum(piece, cells - 1)
    a, b = hat.points[cell], hat.points[cell + 1]
    x = np.minimum(a + (b - a) * v, b)
    h, lower = hat.upper[cell], hat.lower[cell]
    tails = np.flatnonzero(piece >= cells)
    if tails.size:
        t = -np.log1p(-v[tails]) / hat.rate
        x[tails] = np.where(piece[tails] == cells, -1.0, 1.0) * (hat.x1 + t)
        h[tails] = hat.tail * np.exp(-hat.rate * t)
        lower[tails] = 0.0
    return x, h, lower


# ----------------------------------------------------------------------
# proposals and their squeeze verdicts, for either kind of hat
# ----------------------------------------------------------------------


def propose(hats, stream, sizes, squeeze):
    """``sizes[j]`` proposals from each hat ``hats[j]`` in turn, concatenated,
    as ``(x, uh, lower_acc, upper_rej)``: the draws, u h(x) for one uniform
    u each, and the masks of the draws the squeeze accepts (uh at or below
    its lower bound) and rejects (uh above its upper bound).  Without
    ``squeeze`` both masks are all False.

    A grid hat proposes alone: its draws, then one uniform array.  Its
    squeeze is its cell's squeeze level, which only accepts.  Degree hats
    read the stream hat after hat, each its draws' 3 ``sizes[j]`` words,
    then its ``sizes[j]`` words for u, as one hat proposing alone would;
    the words are then put side by side, so that one call each of
    :func:`sample_envelope_many`, :func:`envelope_many` and
    :func:`vanveen.squeeze_bounds_many` serves every hat.  Several hats
    pass their fields as :class:`HatRows`, one entry per proposal; one
    hat passes its :class:`DominatorSpec`, whose fields broadcast as
    scalars, since per-proposal rows would cost it more (a call of 2600
    proposals from the degree-100 hat takes about 636 us on rows against
    478 us on scalars, 2-core x86-64 box).  A degree's squeeze is the van
    Veen sandwich on the draws in its window |x| <= x1.  Each proposal
    gets the bits it gets from its hat proposing alone.
    """
    size = sum(sizes)
    lower_acc = np.zeros(size, dtype=bool)
    upper_rej = np.zeros(size, dtype=bool)
    if isinstance(hats[0], GridHat):
        (hat,) = hats
        x, h, lower = sample_grid_many(hat, stream, size)
        uh = stream.uniforms(size) * h
        if squeeze:
            lower_acc = uh <= lower
        return x, uh, lower_acc, upper_rej
    if len(hats) == 1:  # one hat's fields broadcast as scalars
        hat = hats[0]
        x = sample_envelope_many(hat, stream.uniforms(3 * size), size)
        uh = stream.uniforms(size) * envelope_many(hat, x)
    else:
        words = stream.uniforms(4 * size)
        ends = list(itertools.accumulate(sizes, initial=0))
        words = [words[4 * a : 4 * b].reshape(4, b - a) for a, b in zip(ends, ends[1:])]
        hat, words = _rows(hats, sizes), np.concatenate(words, axis=1)
        x = sample_envelope_many(hat, words[:3], size)
        uh = words[3] * envelope_many(hat, x)
    if squeeze:
        window = np.abs(x) <= hat.x1
        lo, up = vanveen.squeeze_bounds_many(_at(hat.n, window), x[window])
        uhw = uh[window]
        lower_acc[window] = uhw <= lo
        upper_rej[window] = uhw > up
    return x, uh, lower_acc, upper_rej
