"""Squared Hermite function densities, their CDFs, and the certificate
the dominating hat rests on.

The probabilists' Hermite polynomials follow the three-term recurrence
``H_{k+1}(x) = x H_k(x) - k H_{k-1}(x)`` with ``H_0 = 1``, ``H_1 = x``.
Raw values near the spectral edge reach magnitudes around e^k, far past
double range, so everything here works with the normalized
``psi_k = H_k / sqrt(k!)``,

    psi_{k+1} = (x psi_k - sqrt(k) psi_{k-1}) / sqrt(k+1),

and assembles

    phi_k(x)^2 = w(x) psi_k(x)^2,    w(x) = e^{-x^2/2} / sqrt(2 pi),

in log space, so tails underflow cleanly to zero instead of corrupting
the mantissa path.  The kernel runs that recurrence symmetrically
scaled: with y_j = D_j psi_j, D_0 = D_1 = 1 and
D_{j+1} = D_{j-1} sqrt((j+1)/j), it becomes

    y_{j+1} = (c_j x) y_j - y_{j-1},    c_j = D_{j+1} / (sqrt(j+1) D_j),

one coefficient and three float operations per step, the product c_j x
always first, with power-of-two rescaling of the running pair (below);
each point's last pair is divided by (D_{k-1}, D_k) at the end.  D_j
stays small, D_j ~ (pi j / 2)^(1/4), and has the closed forms
D_{2i}^2 = 4^i (i!)^2 / (2i)! and D_{2i+1}^2 = (2i+1)! / (4^i (i!)^2).
:func:`psi_rows` runs the same step and keeps every value, for the
spectrum chain of :mod:`guegen.joint`.
The step coefficients do not depend on the degree, so the one kernel
takes one degree per point and runs the recurrence once, up to the
largest degree, for all of them, ending with each point's last pair
(psi_{k-1}, psi_k).  :func:`phi_squared_degrees` and its one-degree case
:func:`phi_squared_many` read psi_k, and :func:`mixture_density_many`
evaluates (1/n) sum_{k<n} phi_k^2 as the confluent Christoffel-Darboux
closed form on the degree-(n-1) pair.  A single point is a batch of
one: ``phi_squared_many(k, [x])[0]``.  Points in the far tail
(:func:`_far`) skip the kernel: there a density is 0 and a CDF Phi(x).

The kernel rescales the pair only when one rule, :func:`_steps`, says it
could otherwise pass its limit: the coefficients decay like
c_j <= sqrt(2 / (j+1)), so after a rescale at step j the pair may take
about limit / log2(|x| sqrt(2 / (j+1)) + 1) steps, the longer the
further the pass has run.  It rescales once more at the end, so every
pair it returns has its largest magnitude in [0.5, 1).  Rescaling by a
power of two is exact, so the schedule changes no bit, and each value
here is a function of its own (k, x) alone: the same bits in any batch,
one point included, wherever ``_CHUNK`` cuts, on either path.  For
k <= 2e4 that holds at x = 0 and at every |x| >= 1e-305.  At tinier |x|
the product (c_j x) y_j, of the size of c_j |x|, about 0.8 |x| / sqrt(j)
at its smallest, can fall below 2^-1022, where its rounding depends on
the power of two the pair carries, so a lane's last bits can depend on
the batch's schedule or the path.  Measured against one-lane calls on
the float loop, with the numpy loop at the lane's own |x| and in batches
at the schedule of |x| = 90 and 9e75: lanes differ up to 3.5e-306 (k near
2e4), at 3.3e-307 for k = 79-154, at normal points down to 2.2e-308 and
at subnormal points for most k; none differ at 0, 1e-305 and 8 more
points up to 9e-304 (every k <= 2e4), nor at 80 random points from
3.9e-306 to 3.2e-304 (k = 19000-20000).  The values that can differ are
of the size of x, which the densities square and the CDFs add to terms
near 1, so no density or CDF differed (every k < 400 and k = 1201, at 12
points from 5e-324 to 3.3e-307).
The two paths are a numpy loop over all running points per step and a
float loop per point, which takes over once at most ``_FEW_LANES``
points are still running, since a numpy step costs microseconds however
few points it updates; both run each step's float operations in one
order.  A numpy step is dispatch-bound below a few hundred points: with
at most ``_BLOCK_LANES`` running points it reads its products c_j x
from a block formed for many steps by one broadcast multiply, and makes
two ufunc calls instead of three.  Per step against forming c_j x in
the step, at k = 1e4 on a 2-core x86-64 box:

    running points    233         600     900     2000
    block products    0.80-0.86x  ~1.0x   1.3x    1.4-1.5x

so larger passes form c_j x step by step.

The CDFs are closed forms on the same kernel.  The ladder relations
phi_j' = -(x/2) phi_j + sqrt(j) phi_{j-1} and
phi_{j-1}' = (x/2) phi_{j-1} - sqrt(j) phi_j (Szego, Orthogonal
Polynomials, section 5.5) give phi_j^2 = phi_{j-1}^2 - (phi_j phi_{j-1})' / sqrt(j),
and phi_0^2 = w integrates to the normal CDF Phi, so

    F_k(x) = Phi(x) - w(x) sum_{j=1..k} psi_j psi_{j-1} / sqrt(j),

and averaging over k < n gives the mixture CDF with weights (n-j)/n.
The kernel accumulates the weighted sum along its pass, so a CDF costs
one O(k) recurrence per point and no quadrature.

:func:`certify_decreasing` certifies from phi_k and phi_k' at a point,
read off a plain kernel pass, that phi_k^2 is strictly decreasing beyond
it; the dominating hat of :mod:`guegen.dominator` rests on it.
"""

import functools
import math

import numpy as np

from .errors import ParameterError, whole

LN2 = math.log(2.0)
LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# the pair is rescaled before it can pass 2^limit (:func:`_steps`): a plain
# pass has limit 1021 - log2(|x| + 1), so the product c_j x y_j formed first
# stays below 2^1021; a pass whose pair values are squared and summed (a
# ladder sum, :func:`psi_rows`) has limit 448 - 2 log2|x| (448 at |x| <= 1),
# so those products, weighted and summed, stay far from overflow
_PLAIN_LOG2 = 1021.0
_SQUARED_LOG2 = 448.0
# relative slack on the coefficient bound c_j <= sqrt(2 / (j+1)), for the
# rounding of the computed c_j and of the bound itself
_SLACK = 1e-6
# a pass whose running lanes are at most this many finishes each lane as a
# float loop: at k = 1e4 on a 2-core x86-64 box a numpy step with block
# products costs 0.85-1.5 us for 16 to 26 lanes, a float step 43-72 ns per
# lane (both slower together on a busy box), and the two meet near 20-21
_FEW_LANES = 20
# a pass whose running lanes are at most this many forms c_j x for a block of
# steps in one broadcast multiply, into a buffer of at most _BLOCK_ENTRIES
# (module docstring)
_BLOCK_LANES = 500
_BLOCK_ENTRIES = 1 << 15
# step coefficients kept up to this degree: (2 x 32 B + 8 B) x 2^17 = 9 MB
_COEFF_CAP = 1 << 17
_coeffs = ([], [1.0], np.empty(0))  # c_j, 1 / D_j and c_j as an array, replaced whole


def _far(ks, x):
    """True at NaN and in the far tail of degree k, x^2 >= 6 (k ln 2 +
    ln(k+1) + 750), where every density and ladder sum underflows to 0:
    Mehler's formula at rho = 1/2 gives phi_j^2 <= 0.47 2^j e^(-x^2/6), and
    phi_k^2, the mixture density (a mean over j <= k) and a ladder sum (k
    terms |phi_j phi_{j-1}| <= (phi_j^2 + phi_{j-1}^2) / 2, weights <= 1)
    are at most 0.47 (k+1) 2^k e^(-x^2/6) <= 0.47 e^(-750) there, below
    half the least subnormal, e^(-745.1).  The cutoff lies past the turning
    point sqrt(4k+2), since 6 ln 2 > 4, and below 2^33 at any int64 k."""
    return ~(np.abs(x) < np.sqrt(6.0 * (ks * LN2 + np.log1p(ks) + 750.0)))


def certify_decreasing(ks, x):
    """``(phi_k(x), phi_k'(x), certified)`` with one degree per point:
    ``certified`` is True where phi_k^2 is certified strictly decreasing
    on [x, infinity).

    f = phi_k solves f'' + q f = 0, q = k + 1/2 - x^2/4 (Szego, Orthogonal
    Polynomials, section 6.3), with turning point x_t = sqrt(4k+2).  A
    lane is certified when x > 0, f(x) > 0, f'(x) < 0 and either
    q(x) <= 0 or atan(w f(x) / -f'(x)) > w (x_t - x), w = sqrt(q(x)).

    Proof by Sturm comparison: the Prufer angle of f = r sin(theta),
    f' = r cos(theta) obeys theta' = cos^2 theta + q sin^2 theta and starts
    in (pi/2, pi).  q decreases on x > 0, so on [x, x_t] theta >= theta(x)
    stays below the angle of g'' + q(x) g = 0 from f's data at x, which
    reaches pi, g's first zero, at x + atan(w f / -f') / w > x_t.  So f > 0
    and f' < 0 up to x_t.  Where q <= 0, f'' = -q f makes f convex while
    positive, and f decays, so f' cannot rise to zero nor f fall to it.
    At the hat's window edge the atan side is about ten times the other.

    One plain kernel pass, up to the largest degree, gives
    phi_k = psi_k e^(-x^2/4) / (2 pi)^(1/4) and phi_k' = sqrt(k) phi_{k-1}
    - (x/2) phi_k; the test runs on the pair's mantissas, which do not
    underflow where the scaled values do.
    """
    x = np.asarray(x, dtype=float)
    if np.shape(ks) != x.shape or x.ndim != 1:
        raise ParameterError(f"degrees {np.shape(ks)} and points {x.shape} must be one flat shape")
    ks = whole("degrees", ks, 0)
    if not np.all(np.abs(x) <= math.sqrt(np.finfo(float).max)):
        raise ParameterError("points must be finite, with finite squares")
    order = np.argsort(-ks, kind="stable")
    k, xs = ks[order], x[order]
    prev, cur, expo, _ = _psi_scaled_sorted(k, xs)
    slope = np.sqrt(k) * prev - 0.5 * xs * cur
    q = k + 0.5 - 0.25 * xs * xs
    w = np.sqrt(np.maximum(q, 0.0))
    before_turn = np.arctan2(w * cur, -slope) > w * (np.sqrt(4.0 * k + 2.0) - xs)
    certified = (xs > 0.0) & (cur > 0.0) & (slope < 0.0) & ((q <= 0.0) | before_turn)
    scale = np.exp(expo * LN2 - 0.25 * xs * xs - 0.5 * LN_SQRT_2PI)
    back = np.argsort(order)
    return (cur * scale)[back], (slope * scale)[back], certified[back]


def _limit(absx, squared):
    """log2 of the bound a pair may reach between rescales on points of
    magnitude at most ``absx`` (see ``_PLAIN_LOG2`` and ``_SQUARED_LOG2``)."""
    if squared:
        return _SQUARED_LOG2 - 2.0 * math.log2(max(absx, 1.0))
    return _PLAIN_LOG2 - math.log2(absx + 1.0)


def _steps(absx, j, limit):
    """Steps a pair of magnitude at most 1 may take from step j on, at points
    of magnitude at most ``absx``, and stay below 2^limit; at least one.

    Step i gives |y_{i+1}| <= (c_i |x| + 1) max(|y_i|, |y_{i-1}|), and
    c_i <= sqrt(2 / (i+1)), which decreases in i, so s steps from j grow
    the pair by at most (|x| sqrt(2 / (j+1)) + 1)^s.  The coefficient bound,
    an equality at i = 1: with the Wallis ratio P_m = C(2m, m) / 4^m, for
    which P_{m+1} / P_m = (2m+1) / (2m+2), the closed forms of D_j give
    c_{2m} = P_m and c_{2m+1} = 1 / ((2m+1) P_m).  (2m+1) P_m^2 is
    non-increasing from 1, its ratio (2m+1)(2m+3) / (2m+2)^2 < 1, so
    c_{2m}^2 <= 1 / (2m+1); (2m+1)^2 P_m^2 / (m+1) is non-decreasing from
    1, its ratio (2m+3)^2 / (4 (m+1)(m+2)) > 1, so c_{2m+1}^2 <= 1 / (m+1).
    Both are at most 2 / (j+1).
    """
    grow = math.log2(absx * math.sqrt(2.0 / (j + 1.0)) * (1.0 + _SLACK) + 1.0)
    return max(1, int(limit / max(grow, 2.0**-40)))  # grow is 0 at x = 0


def _coefficients(size):
    """(c_j for j < size, 1 / D_j for j <= size) as float lists, and c_j as
    an array, D_j from D_j^2 = D_{j-2}^2 j / (j-1) by a cumulative product
    along each parity."""
    ratio = np.arange(2.0, size + 1.0)
    ratio /= ratio - 1.0  # j / (j - 1) for j = 2 ... size
    d = np.ones(size + 1)
    np.cumprod(ratio[::2], out=d[2::2])
    np.cumprod(ratio[1::2], out=d[3::2])
    del ratio
    np.sqrt(d, out=d)
    c = np.sqrt(np.arange(1.0, size + 1.0))
    c *= d[:-1]
    np.divide(d[1:], c, out=c)
    np.divide(1.0, d, out=d)
    return c.tolist(), d.tolist(), c


def _coefficients_to(top):
    """(c_j, 1 / D_j, c_j array) reaching degree ``top``, kept up to ``_COEFF_CAP``."""
    global _coeffs
    if len(_coeffs[0]) >= top:
        return _coeffs
    fresh = _coefficients(max(top, min(2 * len(_coeffs[0]), _COEFF_CAP)))
    if top <= _COEFF_CAP:
        _coeffs = fresh
    return fresh


def run_starts(a):
    """Where the runs of equal entries of the sorted 1-d array ``a`` start,
    as a list: 0 first, empty for an empty array."""
    return [0, *(np.flatnonzero(a[1:] != a[:-1]) + 1).tolist()] if a.size else []


def _pair_rescale(prev, cur, expo, acc):
    """Scale each lane's pair in place by the power of two that puts its
    largest magnitude in [0.5, 1), and the ladder sum ``acc`` by its
    square, adding the shift to ``expo``; returns the four arrays."""
    big = np.maximum(np.abs(prev), np.abs(cur))
    sh = np.frexp(big)[1]  # 0 where big == 0
    np.ldexp(prev, -sh, out=prev)
    np.ldexp(cur, -sh, out=cur)
    if acc is not None:  # a sum of products scales by the square
        np.ldexp(acc, -2 * sh, out=acc)
    expo += sh
    return prev, cur, expo, acc


def _psi_lane(k, x, j, prev, cur, expo, acc, c, inv_d, wy):
    """Finish one lane of degree k >= j as a float loop from its state before
    step j: the scaled pair (y_{j-1}, y_j), its exponent and its ladder sum
    or None.  Returns (psi_{k-1}, psi_k, exponent, ladder sum), bit for bit
    that lane of the numpy loop: the same float operations per step, with
    the pair rescaled to a largest magnitude in [0.5, 1) on entry and then
    as :func:`_steps` of the lane's own |x| requires, and the division by
    (D_{k-1}, D_k) at the end, after which the pair is normalized as
    :func:`_pair_rescale` normalizes it."""
    absx = abs(x)
    limit = _limit(absx, acc is not None)
    while j < k:
        sh = math.frexp(max(abs(prev), abs(cur)))[1]
        prev, cur, expo = math.ldexp(prev, -sh), math.ldexp(cur, -sh), expo + sh
        end = min(j + _steps(absx, j, limit), k)
        if acc is None:
            for cj in c[j:end]:
                prev, cur = cur, (cj * x) * cur - prev
        else:
            acc = math.ldexp(acc, -2 * sh)
            for cj, wj in zip(c[j:end], wy[j + 1 : end + 1]):
                prev, cur = cur, (cj * x) * cur - prev
                acc += prev * cur * wj
        j = end
    prev, cur = prev * inv_d[k - 1], cur * inv_d[k]
    sh = math.frexp(max(abs(prev), abs(cur)))[1]
    acc = None if acc is None else math.ldexp(acc, -2 * sh)
    return math.ldexp(prev, -sh), math.ldexp(cur, -sh), expo + sh, acc


def _psi_scaled_sorted(ks, x, weights=None):
    """(psi_{k-1}(x), psi_k(x)) per lane, one degree per lane, as two mantissa
    arrays and the pair's shared base-2 exponents; degree 0 gives (0, 1).
    Every returned pair is normalized to a largest magnitude in [0.5, 1).

    ``ks`` must be sorted in descending order. The kernel runs the scaled
    recurrence y_{j+1} = (c_j x) y_j - y_{j-1} from (y_0, y_1) = (1, x), where
    y_j = D_j psi_j, D_0 = D_1 = 1, D_{j+1} = D_{j-1} sqrt((j+1)/j) and
    c_j = D_{j+1} / (sqrt(j+1) D_j) <= sqrt(2 / (j+1)), and divides each
    lane's last pair by (D_{k-1}, D_k). D_j grows like (pi j / 2)^(1/4),
    19.9 at j = 1e5. The coefficients do not depend on the degree, so one
    pass up to the largest degree serves every lane. A pair is rescaled
    as one when :func:`_steps` of the slice's largest |x| (in the float
    loop, of the lane's own |x|) requires it, and at the end. Rescaling
    by a power of two is exact, so the schedule does not change the
    normalized pair: it is a function of the lane's own (k, x) alone, at
    the points the module docstring states.
    Lanes run in a numpy loop, where a lane of degree k stops after step
    k-1 and the lanes still running form a prefix that shrinks at each
    degree boundary; once at most ``_FEW_LANES`` are left, each finishes
    alone as a float loop (:func:`_psi_lane`) from its current state,
    which it first rescales by a power of two. While at most
    ``_BLOCK_LANES`` run, the numpy loop forms c_j x for a block of steps,
    up to the next degree boundary, in one broadcast multiply. Every path
    forms c_j x first and gives the same bits.

    The fourth value is None, or with ``weights`` (one scalar per step,
    indexed by j = 1 ... max degree) the ladder sum
    sum_{j=1..k} weights[j] psi_j psi_{j-1} per lane, accumulated as
    weights[j] / (D_j D_{j-1}) y_j y_{j-1}; its value is that mantissa
    times 2^(2 exponent), and a rescale of the pair by 2^(-sh) rescales it
    by 2^(-2 sh).

    Points must be finite; the densities and CDFs pass only points inside
    the far-tail cutoff of :func:`_far`.
    """
    x = np.ascontiguousarray(x, dtype=float)
    ks = np.asarray(ks)
    last = np.zeros_like(x)
    mant = np.ones_like(x)  # psi_0 = 1
    expo = np.zeros(x.shape, dtype=np.int64)
    total = None if weights is None else np.zeros_like(x)
    # the lanes of degree >= degrees[i] are the first ends[i], degrees ascending
    starts = run_starts(ks)
    degrees = ks[starts].tolist()[::-1]
    ends = [*starts[1:], ks.size][::-1]
    if degrees and degrees[0] == 0:
        degrees, ends = degrees[1:], ends[1:]
    if not degrees:
        return _pair_rescale(last, mant, expo, total)
    top = degrees[-1]
    c, inv_d, cv = _coefficients_to(top)
    wy = None  # weights[j] / (D_j D_{j-1})
    if weights is not None:
        scale = np.asarray(inv_d[: top + 1])
        wy = np.array(weights[: top + 1], dtype=float)
        wy[1:] *= scale[1:] * scale[:-1]
        wy = wy.tolist()
    mul, sub, add = np.multiply, np.subtract, np.add
    m = ends[0]
    xv, ev = x[:m], expo[:m]
    prev, cur, t = np.ones(m), x[:m].copy(), np.empty(m)  # y_0, y_1
    acc = None if wy is None else wy[1] * xv  # y_1 y_0 = x
    buf = None  # the block of products c_j x, made once few enough lanes run
    j = 1
    alone = 0  # lanes finished by the float loop, which returns them normalized
    for i, d in enumerate(degrees):
        m = ends[i]
        if m <= _FEW_LANES:  # finish the running lanes one by one
            state = [a[:m].tolist() for a in (ks, xv, prev, cur, ev)]
            state.append([None] * m if acc is None else acc[:m].tolist())
            for n, (k, xn, p, q, e, a) in enumerate(zip(*state)):
                last[n], mant[n], expo[n], a = _psi_lane(k, xn, j, p, q, e, a, c, inv_d, wy)
                if a is not None:
                    total[n] = a
            alone = m
            break
        if i == 0:  # the numpy loop runs: its rescale rule reads the largest |x|
            absx = float(np.max(np.abs(x)))
            limit = _limit(absx, weights is not None)
            due = _steps(absx, 0, limit)  # from (y_{-1}, y_0) = (0, 1) before step 0
        if m < cur.size:
            xv, ev, prev, cur, t = (a[:m] for a in (xv, ev, prev, cur, t))
            acc = None if acc is None else acc[:m]
        if m <= _BLOCK_LANES and buf is None:
            buf = np.empty(min(_BLOCK_ENTRIES, m * (top - j)))
        blocked, block_end = buf is not None, j
        while j < d:
            if j == due:
                _pair_rescale(prev, cur, ev, acc)
                due = j + _steps(absx, j, limit)
            end = min(due, d)
            if blocked:  # c_j x for the steps j ... from the block, one row a step
                if j == block_end:
                    block_start, block_end = j, min(j + buf.size // m, d)
                    rows = buf[: (block_end - j) * m].reshape(-1, m)
                    mul(cv[j:block_end, None], xv, rows)
                end = min(end, block_end)
                products = rows[j - block_start : end - block_start]
            else:
                products = (mul(xv, cj, t) for cj in c[j:end])
            if acc is None:
                for r in products:
                    mul(r, cur, r)
                    sub(r, prev, prev)
                    prev, cur = cur, prev
            else:
                for r, wj in zip(products, wy[j + 1 : end + 1]):
                    mul(r, cur, r)
                    sub(r, prev, prev)
                    prev, cur = cur, prev
                    mul(prev, cur, t)
                    mul(t, wj, t)
                    add(acc, t, acc)
            j = end
        done = ends[i + 1] if i + 1 < len(ends) else 0  # lanes of degree > d
        mul(prev[done:], inv_d[d - 1], last[done:m])
        mul(cur[done:], inv_d[d], mant[done:m])
        if acc is not None:
            total[done:m] = acc[done:]
    if alone < x.size:
        rest = (last[alone:], mant[alone:], expo[alone:], None if total is None else total[alone:])
        _pair_rescale(*rest)
    return last, mant, expo, total


def psi_rows(n, x):
    """Rows (psi_0(x), ..., psi_{n-1}(x)) of the points ``x``, each up to its
    own power-of-two factor: the kernel's step y_{j+1} = c_j x y_j - y_{j-1},
    keeping every y_j, with the prefix scaled to put the last pair's largest
    magnitude in [0.5, 1) as :func:`_steps` of the largest |x| requires, at
    the limit of a pass whose values are squared and summed, so rows stay
    finite at any n and so do their squared norms; entry j is times 1 / D_j."""
    n = whole("n", n, 1)
    x = np.asarray(x, dtype=float)
    top = float(np.max(np.abs(x), initial=0.0))
    if not math.isfinite(top):
        raise ParameterError("points must be finite")
    c, inv_d, _ = _coefficients_to(n - 1)
    y = np.empty((x.size, n))
    y[:, 0] = 1.0
    if n > 1:
        y[:, 1] = x
    limit = _limit(top, True)
    due = _steps(top, 0, limit)
    for j in range(1, n - 1):
        if j == due:
            sh = np.frexp(np.maximum(np.abs(y[:, j - 1]), np.abs(y[:, j])))[1]
            np.ldexp(y[:, : j + 1], -sh[:, None], out=y[:, : j + 1])
            due = j + _steps(top, j, limit)
        y[:, j + 1] = (c[j] * x) * y[:, j] - y[:, j - 1]
    y *= inv_d[:n]
    return y


_CHUNK = 32768


def _sliced(slice_fn, ks, x, fill=-np.inf):
    """``slice_fn(ks, x)`` over ``_CHUNK``-sized slices of the flat points
    (degrees ``ks`` descending), in the shape of ``x``. Each value depends
    on its own (degree, point) alone (module docstring), so the slicing
    does not change it.
    Lanes in the far tail (:func:`_far`) do not reach ``slice_fn``: they get
    ``fill``, the value their underflow gives, and NaN points NaN."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    near = ~_far(ks, flat)
    if x.size <= _CHUNK and near.all():  # one slice, every lane near
        return slice_fn(ks, flat).reshape(x.shape)
    out = np.full(x.size, fill)
    for lo in range(0, x.size, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        keep = near[chunk]
        out[chunk][keep] = slice_fn(ks[chunk][keep], flat[chunk][keep])
    out[np.isnan(flat)] = np.nan
    return out.reshape(x.shape)


def _exp(log_values):
    """exp without underflow warnings: a density that underflows is 0."""
    with np.errstate(under="ignore"):
        return np.exp(log_values)


def _log_phi_sq_sorted(ks, x):
    """log phi_k(x)^2 over one slice of lanes sorted by degree, largest first."""
    _, mant, expo, _ = _psi_scaled_sorted(ks, x)
    with np.errstate(divide="ignore"):
        lp = 2.0 * (np.log(np.abs(mant)) + expo * LN2)
    return lp - (0.5 * x * x + LN_SQRT_2PI)


def _log_mixture_sorted(ks, x):
    """log of (1/n) sum_{k<n} phi_k(x)^2 with n = ks + 1 per lane, from the
    confluent Christoffel-Darboux form on the pair (b, a) = (psi_{n-2}, psi_{n-1}):

        sum_{k<n} psi_k^2 = n a^2 - x sqrt(n-1) a b + (n-1) b^2.

    The kernel returns the pair normalized to a largest magnitude in
    [0.5, 1), so no intermediate can overflow.
    """
    prev, cur, expo, _ = _psi_scaled_sorted(ks, x)
    n = ks + 1.0
    total = n * cur * cur - np.sqrt(ks) * x * cur * prev + ks * prev * prev
    return np.log(total / n) + 2.0 * expo * LN2 - (0.5 * x * x + LN_SQRT_2PI)


def phi_squared_degrees(ks, x):
    """phi_k(x)^2 with one degree per point: ``ks[i]`` is the degree at ``x[i]``.

    Points are sorted by degree, largest first, and processed in
    ``_CHUNK``-sized slices of that order; each slice runs the recurrence
    once, up to its largest degree. At a single degree the result is
    bit-for-bit :func:`phi_squared_many`.
    """
    x = np.asarray(x, dtype=float)
    if np.shape(ks) != x.shape:
        raise ParameterError(f"degrees {np.shape(ks)} and points {x.shape} differ in shape")
    ks = np.ravel(whole("degrees", ks, 0))
    order = np.argsort(-ks, kind="stable")
    out = np.empty(x.size)
    out[order] = _exp(_sliced(_log_phi_sq_sorted, ks[order], x.ravel()[order]))
    return out.reshape(x.shape)


def phi_squared_many(k, x):
    """Vectorized phi_k^2 over an array of points: the one-degree case of
    :func:`phi_squared_degrees`."""
    ks = np.broadcast_to(np.int64(whole("degree", k, 0)), np.size(x))
    return _exp(_sliced(_log_phi_sq_sorted, ks, x))


def mixture_density_many(n, x):
    """Density of one uniformly chosen eigenvalue: (1/n) sum_{k<n} phi_k^2,
    in closed form on the kernel's degree-(n-1) pair."""
    ks = np.broadcast_to(np.int64(whole("ensemble size", n, 1) - 1), np.size(x))
    return _exp(_sliced(_log_mixture_sorted, ks, x))


# ----------------------------------------------------------------------
# CDFs from the ladder identity
# ----------------------------------------------------------------------


def _ladder_sorted(weights, ks, x):
    """w(x) sum_j weights[j] psi_j(x) psi_{j-1}(x) over one slice of lanes
    sorted by degree, largest first, assembled in log space like the
    densities."""
    _, _, expo, acc = _psi_scaled_sorted(ks, x, weights)
    with np.errstate(divide="ignore", under="ignore"):
        log = np.log(np.abs(acc)) + 2.0 * expo * LN2 - (0.5 * x * x + LN_SQRT_2PI)
        return np.copysign(np.exp(log), acc)


def _ladder_cdf(k, weights, x):
    """Phi(x) - w(x) sum_{j=1..k} weights[j] psi_j(x) psi_{j-1}(x); in the
    far tail, where the sum underflows, exactly Phi(x)."""
    x = np.asarray(x, dtype=float)
    ks = np.broadcast_to(np.int64(k), x.size)
    ladder = _sliced(functools.partial(_ladder_sorted, weights), ks, x, 0.0)
    normal = [0.5 * math.erfc(-t / _SQRT2) for t in x.flat]
    return np.reshape(normal, x.shape) - ladder


def phi_sq_cdf_many(k, x):
    """CDF of the phi_k^2 density at an array of points:
    F_k = Phi - w sum_{j=1..k} psi_j psi_{j-1} / sqrt(j)."""
    k = whole("degree", k, 0)
    j = np.arange(1, k + 1, dtype=float)
    return _ladder_cdf(k, np.concatenate(([0.0], 1.0 / np.sqrt(j))), x)


def mixture_cdf_many(n, x):
    """CDF of the GUE(n) one-eigenvalue density (see
    :func:`mixture_density_many`), the mean of F_0 ... F_{n-1}:
    Phi - (w/n) sum_{j=1..n-1} (n-j) psi_j psi_{j-1} / sqrt(j)."""
    n = whole("ensemble size", n, 1)
    j = np.arange(1, n, dtype=float)
    return _ladder_cdf(n - 1, np.concatenate(([0.0], (n - j) / (n * np.sqrt(j)))), x)
