"""Squared Hermite function densities, their CDFs, and the certificate
the dominating hat rests on.

The probabilists' Hermite polynomials follow the three-term recurrence
``H_{k+1}(x) = x H_k(x) - k H_{k-1}(x)`` with ``H_0 = 1``, ``H_1 = x``.
Raw values near the spectral edge reach magnitudes around e^k, far past
double range, so everything here runs the normalized recurrence over
``psi_k = H_k / sqrt(k!)``,

    psi_{k+1} = (x psi_k - sqrt(k) psi_{k-1}) / sqrt(k+1),

with periodic power-of-two rescaling of the running pair, and assembles

    phi_k(x)^2 = w(x) psi_k(x)^2,    w(x) = e^{-x^2/2} / sqrt(2 pi),

in log space, so tails underflow cleanly to zero instead of corrupting
the mantissa path.  The step coefficients do not depend on the degree,
so the one kernel takes one degree per point and runs the recurrence
once, up to the largest degree, for all of them, ending with each
point's last pair (psi_{k-1}, psi_k).  :func:`phi_squared_degrees` and
its one-degree case :func:`phi_squared_many` read psi_k, and
:func:`mixture_density_many` evaluates (1/n) sum_{k<n} phi_k^2 as the
confluent Christoffel-Darboux closed form on the degree-(n-1) pair.
A single point is a batch of one: ``phi_squared_many(k, [x])[0]``.

The kernel rescales the pair after every ``stride`` steps, one closed
form per slice from its largest |x| and one threshold for every pass,
and once more at the end, so every pair it returns has its largest
magnitude in [0.5, 1).  Rescaling by a power of two is exact, so each
value here is a function of its own (k, x) alone: the same bits in any
batch, one point included, wherever ``_CHUNK`` cuts, on either path.
The two paths are a numpy loop over all points per step and, for slices
of at most ``_FEW_LANES`` points, a float loop per point, since a numpy
step costs microseconds however few points it updates; both run each
step's float operations in one order.

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

from .errors import ParameterError

LN2 = math.log(2.0)
LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# rescale the working pair before it can pass 2^(448 - 2 log2|x|), so that
# a multiply by x cannot overflow and a ladder sum's products, weighted and
# summed, stay far from overflow: counting that the pair starts from
# psi_1 = x at exponent 0, its mantissas stay below 2^449 (and below 2^505
# on the first step when |x| > 2^224)
_RESCALE_LOG2 = 448.0
# densities are 0 at and beyond this |x| at any degree (by Mehler's formula
# phi_k(x)^2 <= 2^k exp(-x^2/6)); the recurrence is not run there, because its
# pair starts from psi_1 = x at exponent 0, so from about 1e77 on a product
# x * psi_j can overflow before the first rescale
_HUGE_X = 1e76
# a kernel slice with at most this many running lanes runs each lane as a
# float loop: a numpy step costs 2.5-5 us at any width up to a few hundred
# lanes, a float step 75-300 ns per lane, and the two meet near 32 lanes
_FEW_LANES = 16
_COEFF_CAP = 1 << 17  # step coefficients kept up to this degree: 2 x 32 B x 2^17 = 8 MB
_coeffs = ([0.0], [])  # sqrt(j) and 1 / sqrt(j + 1), replaced whole, never mutated


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
    ks = np.asarray(ks, dtype=np.int64)
    if ks.shape != x.shape or x.ndim != 1:
        raise ParameterError(f"degrees {ks.shape} and points {x.shape} must be one flat shape")
    if ks.size and (int(ks.min()) < 0 or not np.all(np.abs(x) < _HUGE_X)):
        raise ParameterError("degrees must be >= 0, and points finite and below 1e76")
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


def _stride(absx):
    """Steps between rescales of a pair started from (psi_0, psi_1) at
    points of magnitude at most ``absx``.

    Step j grows the pair by at most (|x| + sqrt(j)) / sqrt(j+1) < |x| + 1,
    so (threshold - 1) / log2(|x| + 2) steps keep it below 2^threshold,
    with the threshold 448 - 2 log2|x| (448 at |x| <= 1).
    """
    threshold = _RESCALE_LOG2 - 2.0 * (math.log2(absx) if absx > 1.0 else 0.0)
    return max(1, int((threshold - 1.0) / math.log2(absx + 2.0)))


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


def _psi_lane(k, x, stride, sq, inv_sq, weights):
    """One lane of degree k >= 1 as a float loop: (psi_{k-1}, psi_k, exponent,
    ladder sum or None), rescaled after every ``stride`` steps and after the
    last one, bit for bit that lane of the numpy loop."""
    prev, cur, expo = 1.0, x, 0  # psi_0, psi_1
    acc = None if weights is None else weights[1] * x
    for start in range(1, k, stride):
        end = min(start + stride, k)
        if acc is None:
            for s, r in zip(sq[start:end], inv_sq[start:end]):
                prev, cur = cur, (x * cur - s * prev) * r
        else:
            for s, r, w in zip(sq[start:end], inv_sq[start:end], weights[start + 1 : end + 1]):
                prev, cur = cur, (x * cur - s * prev) * r
                acc += prev * cur * w
        sh = math.frexp(max(abs(prev), abs(cur)))[1]
        prev, cur, expo = math.ldexp(prev, -sh), math.ldexp(cur, -sh), expo + sh
        if acc is not None:
            acc = math.ldexp(acc, -2 * sh)
    return prev, cur, expo, acc


def _psi_scaled_sorted(ks, x, weights=None):
    """(psi_{k-1}(x), psi_k(x)) per lane, one degree per lane, as two mantissa
    arrays and the pair's shared base-2 exponents; degree 0 gives (0, 1).
    Every returned pair is normalized to a largest magnitude in [0.5, 1).

    ``ks`` must be sorted in descending order. The step-j coefficients of
    the normalized recurrence do not depend on the degree, so one pass up
    to the largest degree serves every lane. A pair is rescaled as one,
    after every :func:`_stride` steps at the slice's largest |x| and at
    the end. Rescaling by a power of two is exact, so the stride does not
    change the normalized pair: it is a function of the lane's own (k, x)
    alone. At most ``_FEW_LANES`` running lanes run one by one as float
    loops (:func:`_psi_lane`); more run in a numpy loop, where a lane of
    degree k stops after step k-1 and the lanes still running form a
    prefix that shrinks at each degree boundary. Both paths give the same
    bits.

    The fourth value is None, or with ``weights`` (one scalar per step,
    indexed by j = 1 ... max degree) the ladder sum
    sum_{j=1..k} weights[j] psi_j psi_{j-1} per lane, whose value is that
    mantissa times 2^(2 exponent); a rescale of the pair by 2^(-sh)
    rescales it by 2^(-2 sh).

    Up to ``_COEFF_CAP`` degrees the step coefficients are kept between
    calls and regrown at least twofold; longer lists change no entry's bits.
    """
    global _coeffs
    x = np.ascontiguousarray(x, dtype=float)
    last = np.zeros_like(x)
    mant = np.ones_like(x)  # psi_0 = 1
    expo = np.zeros(x.shape, dtype=np.int64)
    total = None if weights is None else np.zeros_like(x)
    degrees, counts = np.unique(ks, return_counts=True)
    ends = np.cumsum(counts[::-1])[::-1].tolist()  # lanes of degree >= degrees[i]
    degrees = degrees.tolist()
    if degrees and degrees[0] == 0:
        degrees, ends = degrees[1:], ends[1:]
    if not degrees:
        return _pair_rescale(last, mant, expo, total)
    sq, inv_sq = _coeffs
    if len(inv_sq) < degrees[-1]:
        sq = np.sqrt(np.arange(max(degrees[-1], min(2 * len(inv_sq), _COEFF_CAP)) + 1.0))
        sq, inv_sq = sq.tolist(), (1.0 / sq[1:]).tolist()
        if degrees[-1] <= _COEFF_CAP:
            _coeffs = sq, inv_sq
    stride = _stride(float(np.max(np.abs(x))))
    m = ends[0]
    if m <= _FEW_LANES:
        for i, (k, xi) in enumerate(zip(np.asarray(ks)[:m].tolist(), x[:m].tolist())):
            last[i], mant[i], expo[i], acc = _psi_lane(k, xi, stride, sq, inv_sq, weights)
            if acc is not None:
                total[i] = acc
        return _pair_rescale(last, mant, expo, total)
    xv, ev = x[:m], expo[:m]
    prev, cur = np.ones(m), x[:m].copy()  # psi_0, psi_1
    t1, t2 = np.empty(m), np.empty(m)
    acc = None if weights is None else weights[1] * xv  # psi_1 psi_0 = x
    start = 1
    for i, d in enumerate(degrees):
        m = ends[i]
        if m < cur.size:
            xv, ev, prev, cur, t1, t2 = (a[:m] for a in (xv, ev, prev, cur, t1, t2))
            acc = None if acc is None else acc[:m]
        for j in range(start, d):
            np.multiply(xv, cur, out=t1)
            np.multiply(sq[j], prev, out=t2)
            np.subtract(t1, t2, out=t1)
            np.multiply(t1, inv_sq[j], out=t1)
            prev, cur, t1 = cur, t1, prev
            if acc is not None:
                np.multiply(prev, cur, out=t2)
                np.multiply(t2, weights[j + 1], out=t2)
                np.add(acc, t2, out=acc)
            if j % stride == 0:
                _pair_rescale(prev, cur, ev, acc)
        start = d
        done = ends[i + 1] if i + 1 < len(ends) else 0  # lanes of degree > d
        last[done:m] = prev[done:]
        mant[done:m] = cur[done:]
        if acc is not None:
            total[done:m] = acc[done:]
    return _pair_rescale(last, mant, expo, total)


_CHUNK = 32768


def _sliced(slice_fn, ks, x, fill=-np.inf):
    """``slice_fn(ks, x)`` over ``_CHUNK``-sized slices of the flat points
    (degrees ``ks`` descending), in the shape of ``x``. Each value depends
    on its own (degree, point) alone, so the slicing does not change it.
    Points at or beyond _HUGE_X get ``fill`` and NaN points NaN; both are
    passed in as 0, so that the stride comes from the in-range points."""
    x = np.asarray(x, dtype=float)
    flat = np.ravel(x)
    out = np.empty(x.size)
    for lo in range(0, x.size, _CHUNK):
        xs = flat[lo : lo + _CHUNK]
        safe = np.abs(xs) < _HUGE_X
        values = slice_fn(ks[lo : lo + _CHUNK], np.where(safe, xs, 0.0))
        values[~safe] = fill
        values[np.isnan(xs)] = np.nan
        out[lo : lo + _CHUNK] = values
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
    ks = np.asarray(ks)
    if ks.shape != x.shape:
        raise ParameterError(f"degrees {ks.shape} and points {x.shape} differ in shape")
    ks = np.ravel(ks).astype(np.int64)
    if ks.size and int(ks.min()) < 0:
        raise ParameterError(f"degrees must be >= 0, got {int(ks.min())}")
    order = np.argsort(-ks, kind="stable")
    out = np.empty(x.size)
    out[order] = _sliced(_log_phi_sq_sorted, ks[order], np.ravel(x)[order])
    return _exp(out.reshape(x.shape))


def phi_squared_many(k, x):
    """Vectorized phi_k^2 over an array of points: the one-degree case of
    :func:`phi_squared_degrees`."""
    k = int(k)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    ks = np.broadcast_to(np.int64(k), np.size(x))
    return _exp(_sliced(_log_phi_sq_sorted, ks, x))


def mixture_density_many(n, x):
    """Density of one uniformly chosen eigenvalue: (1/n) sum_{k<n} phi_k^2,
    in closed form on the kernel's degree-(n-1) pair."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"ensemble size must be >= 1, got {n}")
    ks = np.broadcast_to(np.int64(n - 1), np.size(x))
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
    """Phi(x) - w(x) sum_{j=1..k} weights[j] psi_j(x) psi_{j-1}(x); at
    |x| >= _HUGE_X, where every term underflows, exactly Phi(x)."""
    x = np.asarray(x, dtype=float)
    ks = np.broadcast_to(np.int64(k), x.size)
    ladder = _sliced(functools.partial(_ladder_sorted, weights), ks, x, 0.0)
    normal = [0.5 * math.erfc(-t / _SQRT2) for t in x.flat]
    return np.reshape(normal, x.shape) - ladder


def phi_sq_cdf_many(k, x):
    """CDF of the phi_k^2 density at an array of points:
    F_k = Phi - w sum_{j=1..k} psi_j psi_{j-1} / sqrt(j)."""
    k = int(k)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    j = np.arange(1, k + 1, dtype=float)
    return _ladder_cdf(k, [0.0] + (1.0 / np.sqrt(j)).tolist(), x)


def mixture_cdf_many(n, x):
    """CDF of the GUE(n) one-eigenvalue density (see
    :func:`mixture_density_many`), the mean of F_0 ... F_{n-1}:
    Phi - (w/n) sum_{j=1..n-1} (n-j) psi_j psi_{j-1} / sqrt(j)."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"ensemble size must be >= 1, got {n}")
    j = np.arange(1, n, dtype=float)
    return _ladder_cdf(n - 1, [0.0] + ((n - j) / (n * np.sqrt(j))).tolist(), x)
