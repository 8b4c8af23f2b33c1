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
so the one vectorized kernel takes one degree per point and runs the
recurrence once, up to the largest degree, for all of them, ending with
each point's last pair (psi_{k-1}, psi_k).  :func:`phi_squared_degrees`
and its one-degree case :func:`phi_squared_many` read psi_k;
:func:`mixture_density_many` evaluates (1/n) sum_{k<n} phi_k^2 as the
confluent Christoffel-Darboux closed form on the degree-(n-1) pair.
:func:`phi_squared` is only the float reference the kernel is tested
against and the public one-point call.

The CDFs are closed forms on the same kernel.  The ladder relations
phi_j' = -(x/2) phi_j + sqrt(j) phi_{j-1} and
phi_{j-1}' = (x/2) phi_{j-1} - sqrt(j) phi_j (Szego, Orthogonal
Polynomials, section 5.5) give phi_j^2 = phi_{j-1}^2 - (phi_j phi_{j-1})' / sqrt(j),
and phi_0^2 = w integrates to the normal CDF Phi, so

    F_k(x) = Phi(x) - w(x) sum_{j=1..k} psi_j psi_{j-1} / sqrt(j),

and averaging over k < n gives the mixture CDF with weights (n-j)/n.
The kernel accumulates the weighted sum along its pass, so a CDF costs
one O(k) recurrence per point and no quadrature.

:func:`decreasing_beyond` certifies, in one scalar pass, that phi_k^2 is
strictly decreasing beyond a point and returns phi_k and phi_k' there;
the dominating hat of :mod:`guegen.dominator` rests on it.
"""

import functools
import math

import numpy as np

from .errors import ParameterError

LN2 = math.log(2.0)
LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# rescale the working pair before it can pass 2^512; the limit shrinks when
# |x| is so large that one more multiply could overflow
_RESCALE_LOG2 = 512.0
_OVERFLOW_LOG2 = 1000.0
# with a ladder sum the pair is rescaled sooner, so that its products,
# weighted and summed, stay far from overflow: counting that the pair
# starts from psi_1 = x at exponent 0, its mantissas stay below 2^449 (and
# below 2^505 on the first step when |x| > 2^224)
_LADDER_RESCALE_LOG2 = 448.0
# densities are 0 at and beyond this |x| at any degree (by Mehler's formula
# phi_k(x)^2 <= 2^k exp(-x^2/6)); the recurrence is not run there, because its
# budget starts from psi_1 = x at exponent 0, so from about 1e77 on a product
# x * psi_j can overflow before the first rescale
_HUGE_X = 1e76


def _psi_scaled(k, x):
    """Normalized recurrence value psi_k(x) = H_k(x)/sqrt(k!) as (mantissa, exp2)
    at one point, for :func:`phi_squared`."""
    if k == 0:
        return 1.0, 0
    if k == 1:
        return x, 0
    absx = abs(x)
    log2x = math.log2(absx) if absx > 1.0 else 0.0
    threshold = min(_RESCALE_LOG2, _OVERFLOW_LOG2 - log2x)
    prev, cur, expo = 1.0, x, 0
    budget = 1.0
    for j in range(1, k):
        sj = math.sqrt(j)
        sj1 = math.sqrt(j + 1.0)
        prev, cur = cur, (x * cur - sj * prev) / sj1
        growth = (absx + sj) / sj1
        if growth > 1.0:
            budget += math.log2(growth)
        if budget > threshold:
            m = max(abs(prev), abs(cur))
            if m > 0.0:
                sh = math.frexp(m)[1]
                prev = math.ldexp(prev, -sh)
                cur = math.ldexp(cur, -sh)
                expo += sh
            budget = 1.0
    return cur, expo


def phi_squared(k, x):
    """The squared Hermite function density phi_k(x)^2 at one point.

    This is the scalar float reference that the vectorized kernel
    (:func:`phi_squared_degrees`) is tested against: the same normalized
    recurrence, one point at a time, with its own rescaling schedule.
    """
    k = int(k)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    x = float(x)
    if not math.isfinite(x):
        raise ParameterError(f"evaluation point must be finite, got {x}")
    if abs(x) >= _HUGE_X:
        return 0.0
    mant, expo = _psi_scaled(k, x)
    if mant == 0.0:
        return 0.0
    log_phi = 2.0 * (math.log(abs(mant)) + expo * LN2) - 0.5 * x * x - LN_SQRT_2PI
    return math.exp(log_phi) if log_phi > -745.0 else 0.0


def decreasing_beyond(k, x):
    """``(phi_k(x), phi_k'(x))`` when phi_k^2 is certified strictly decreasing
    on [x, infinity), else None.

    Two conditions at one point ``x > 0`` suffice:

    * psi_0(x), ..., psi_k(x) are all positive.  By the Sturm property of
      orthogonal polynomials, the sign changes of that sequence count the
      zeros of H_k above x, so H_k, and with it phi_k, has none there.
    * phi_k'(x) < 0.  With phi_k' = -(x/2) phi_k + sqrt(k) phi_{k-1} (from
      H_k' = k H_{k-1}) this reads sqrt(k) psi_{k-1}(x) < (x/2) psi_k(x).

    phi_k solves f'' = (x^2/4 - k - 1/2) f (Szego, Orthogonal Polynomials,
    section 6.3).  So, with phi_k > 0 on [x, infinity), phi_k' cannot rise
    back to zero there: below the turning point sqrt(4k+2), f'' < 0 makes
    f' strictly decreasing wherever it vanishes, and beyond it f is convex
    and tends to zero.  The check costs one O(k) scalar pass of the
    normalized recurrence, which also yields the returned values, with
    phi_k = psi_k e^(-x^2/4) / (2 pi)^(1/4).
    """
    k = int(k)
    x = float(x)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    if not x > 0.0:
        return None
    limit = 2.0 ** min(_RESCALE_LOG2, _OVERFLOW_LOG2 - max(math.log2(x), 0.0))
    sq = np.sqrt(np.arange(k + 1, dtype=float)).tolist()
    # psi_{-1}, psi_0 for k = 0, else psi_0, psi_1; rescaling by powers of
    # two keeps signs, and the pair's shared exponent is expo
    prev, cur, expo = (0.0, 1.0, 0) if k == 0 else (1.0, x, 0)
    for j in range(1, k):
        prev, cur = cur, (x * cur - sq[j] * prev) / sq[j + 1]
        if not cur > 0.0:
            return None
        if cur > limit:
            sh = math.frexp(cur)[1]
            prev, cur, expo = math.ldexp(prev, -sh), math.ldexp(cur, -sh), expo + sh
    slope = sq[k] * prev - 0.5 * x * cur
    if not slope < 0.0:
        return None
    sh = math.frexp(cur)[1]  # scale so that psi_k is in [0.5, 1)
    scale = math.exp((expo + sh) * LN2 - 0.25 * x * x - 0.5 * LN_SQRT_2PI)
    return math.ldexp(cur, -sh) * scale, math.ldexp(slope, -sh) * scale


def _pair_rescale(prev, cur, expo, acc=None):
    big = np.maximum(np.abs(prev), np.abs(cur))
    sh = np.frexp(big)[1]  # 0 where big == 0
    np.ldexp(prev, -sh, out=prev)
    np.ldexp(cur, -sh, out=cur)
    if acc is not None:  # a sum of pair products scales by the square
        np.ldexp(acc, -2 * sh, out=acc)
    expo += sh
    return prev, cur, expo


def _psi_scaled_sorted(ks, x, weights=None):
    """(psi_{k-1}(x), psi_k(x)) per lane, one degree per lane, as two mantissa
    arrays and the pair's shared base-2 exponents; degree 0 gives (0, 1).

    ``ks`` must be sorted in descending order. The step-j coefficients of
    the normalized recurrence do not depend on the degree, so one pass up
    to the largest degree serves every lane: a lane of degree k stops after
    step k-1, and the lanes still running always form a prefix that
    shrinks at each degree boundary. A pair is rescaled as one.

    The fourth value is None, or with ``weights`` (one scalar per step,
    indexed by j = 1 ... max degree) the ladder sum
    sum_{j=1..k} weights[j] psi_j psi_{j-1} per lane, whose value is that
    mantissa times 2^(2 exponent); a rescale of the pair by 2^(-sh)
    rescales it by 2^(-2 sh).
    """
    x = np.ascontiguousarray(x, dtype=float)
    last = np.zeros_like(x)
    mant = np.ones_like(x)  # psi_0 = 1
    expo = np.zeros(x.shape, dtype=np.int64)
    total = None if weights is None else np.zeros_like(x)
    degrees, counts = np.unique(ks, return_counts=True)
    ends = np.cumsum(counts[::-1])[::-1].tolist()  # lanes of degree >= degrees[i]
    degrees = degrees.tolist()
    if degrees[0] == 0:
        degrees, ends = degrees[1:], ends[1:]
    if not degrees:
        return last, mant, expo, total
    absx = float(np.max(np.abs(x)))
    log2x = math.log2(absx) if absx > 1.0 else 0.0
    threshold = min(_RESCALE_LOG2, _OVERFLOW_LOG2 - log2x)
    if weights is not None:
        threshold = min(threshold, _LADDER_RESCALE_LOG2 - 2.0 * log2x)
    sq = np.sqrt(np.arange(degrees[-1] + 1, dtype=float))
    inv_sq = (1.0 / sq[1:]).tolist()
    sq = sq.tolist()
    m = ends[0]
    xv, ev = x[:m], expo[:m]
    prev, cur = np.ones(m), x[:m].copy()  # psi_0, psi_1
    t1, t2 = np.empty(m), np.empty(m)
    acc = None if weights is None else weights[1] * xv  # psi_1 psi_0 = x
    budget = 1.0
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
            growth = (absx + sq[j]) * inv_sq[j]
            if growth > 1.0:
                budget += math.log2(growth)
            if budget > threshold:
                prev, cur, ev = _pair_rescale(prev, cur, ev, acc)
                budget = 1.0
        start = d
        done = ends[i + 1] if i + 1 < len(ends) else 0  # lanes of degree > d
        last[done:m] = prev[done:]
        mant[done:m] = cur[done:]
        if acc is not None:
            total[done:m] = acc[done:]
    return last, mant, expo, total


_CHUNK = 32768


def _sliced(slice_fn, ks, x, fill=-np.inf):
    """``slice_fn(ks, x)`` over ``_CHUNK``-sized slices of the flat points
    (degrees ``ks`` descending), in the shape of ``x``; points at or beyond
    _HUGE_X are passed in as 0 and get ``fill``."""
    x = np.asarray(x, dtype=float)
    flat = np.ravel(x)
    out = np.empty(x.size)
    for lo in range(0, x.size, _CHUNK):
        xs = flat[lo : lo + _CHUNK]
        safe = np.abs(xs) < _HUGE_X
        values = slice_fn(ks[lo : lo + _CHUNK], np.where(safe, xs, 0.0))
        values[~safe] = fill
        out[lo : lo + _CHUNK] = values
    return out.reshape(x.shape)


def _exp_unless(log_values, return_log=False):
    if return_log:
        return log_values
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

    The pair is normalized to a largest magnitude in [0.5, 1) first, so no
    intermediate can overflow.
    """
    prev, cur, expo, _ = _psi_scaled_sorted(ks, x)
    prev, cur, expo = _pair_rescale(prev, cur, expo)
    n = ks + 1.0
    total = n * cur * cur - np.sqrt(ks) * x * cur * prev + ks * prev * prev
    return np.log(total / n) + 2.0 * expo * LN2 - (0.5 * x * x + LN_SQRT_2PI)


def phi_squared_degrees(ks, x, return_log=False):
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
    return _exp_unless(out.reshape(x.shape), return_log)


def phi_squared_many(k, x, return_log=False):
    """Vectorized phi_k^2 over an array of points: the one-degree case of
    :func:`phi_squared_degrees`."""
    k = int(k)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    ks = np.broadcast_to(np.int64(k), np.size(x))
    return _exp_unless(_sliced(_log_phi_sq_sorted, ks, x), return_log)


def mixture_density_many(n, x):
    """Density of one uniformly chosen eigenvalue: (1/n) sum_{k<n} phi_k^2,
    in closed form on the kernel's degree-(n-1) pair."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"ensemble size must be >= 1, got {n}")
    ks = np.broadcast_to(np.int64(n - 1), np.size(x))
    return _exp_unless(_sliced(_log_mixture_sorted, ks, x))


def mixture_density(n, x):
    """Scalar convenience wrapper for :func:`mixture_density_many`."""
    return float(mixture_density_many(n, np.array([float(x)]))[0])


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


def phi_sq_cdf(k, x):
    """Scalar convenience wrapper for :func:`phi_sq_cdf_many`."""
    return float(phi_sq_cdf_many(k, np.array([float(x)]))[0])


def mixture_cdf_many(n, x):
    """CDF of the GUE(n) one-eigenvalue density (see
    :func:`mixture_density_many`), the mean of F_0 ... F_{n-1}:
    Phi - (w/n) sum_{j=1..n-1} (n-j) psi_j psi_{j-1} / sqrt(j)."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"ensemble size must be >= 1, got {n}")
    j = np.arange(1, n, dtype=float)
    return _ladder_cdf(n - 1, [0.0] + ((n - j) / (n * np.sqrt(j))).tolist(), x)
