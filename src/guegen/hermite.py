"""Numerically stable Hermite polynomial and Hermite function machinery.

The probabilists' Hermite polynomials follow the three-term recurrence
``H_{k+1}(x) = x H_k(x) - k H_{k-1}(x)`` with ``H_0 = 1``, ``H_1 = x``.
Raw values near the spectral edge reach magnitudes around e^k, far past
double range, so the density runs the normalized recurrence over
``psi_k = H_k / sqrt(k!)``,

    psi_{k+1} = (x psi_k - sqrt(k) psi_{k-1}) / sqrt(k+1),

with periodic power-of-two rescaling of the running pair, and assembles
the squared Hermite function density

    phi_k(x)^2 = psi_k(x)^2 e^{-x^2/2} / sqrt(2 pi)

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

:func:`decreasing_beyond` certifies, in one scalar pass, that phi_k^2 is
strictly decreasing beyond a point and returns phi_k and phi_k' there;
the dominating hat of :mod:`guegen.dominator` rests on it.

The module also hosts the quadrature utilities used by the CDF oracles:
an adaptive Gauss-Kronrod (G7/K15) panel integrator whose initial panel
width tracks the local oscillation scale pi / sqrt(4k+2) of phi_k^2.
"""

import math

import numpy as np

from .errors import ConvergenceError, ParameterError

LN2 = math.log(2.0)
LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# rescale the working pair before it can pass 2^512; the limit shrinks when
# |x| is so large that one more multiply could overflow
_RESCALE_LOG2 = 512.0
_OVERFLOW_LOG2 = 1000.0
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


def _pair_rescale(prev, cur, expo):
    big = np.maximum(np.abs(prev), np.abs(cur))
    sh = np.frexp(big)[1]  # 0 where big == 0
    np.ldexp(prev, -sh, out=prev)
    np.ldexp(cur, -sh, out=cur)
    expo += sh
    return prev, cur, expo


def _psi_scaled_sorted(ks, x):
    """(psi_{k-1}(x), psi_k(x)) per lane, one degree per lane, as two mantissa
    arrays and the pair's shared base-2 exponents; degree 0 gives (0, 1).

    ``ks`` must be sorted in descending order. The step-j coefficients of
    the normalized recurrence do not depend on the degree, so one pass up
    to the largest degree serves every lane: a lane of degree k stops after
    step k-1, and the lanes still running always form a prefix that
    shrinks at each degree boundary. A pair is rescaled as one.
    """
    x = np.ascontiguousarray(x, dtype=float)
    last = np.zeros_like(x)
    mant = np.ones_like(x)  # psi_0 = 1
    expo = np.zeros(x.shape, dtype=np.int64)
    degrees, counts = np.unique(ks, return_counts=True)
    ends = np.cumsum(counts[::-1])[::-1].tolist()  # lanes of degree >= degrees[i]
    degrees = degrees.tolist()
    if degrees[0] == 0:
        degrees, ends = degrees[1:], ends[1:]
    if not degrees:
        return last, mant, expo
    absx = float(np.max(np.abs(x)))
    log2x = math.log2(absx) if absx > 1.0 else 0.0
    threshold = min(_RESCALE_LOG2, _OVERFLOW_LOG2 - log2x)
    sq = np.sqrt(np.arange(degrees[-1] + 1, dtype=float))
    inv_sq = (1.0 / sq[1:]).tolist()
    sq = sq.tolist()
    m = ends[0]
    xv, ev = x[:m], expo[:m]
    prev, cur = np.ones(m), x[:m].copy()  # psi_0, psi_1
    t1, t2 = np.empty(m), np.empty(m)
    budget = 1.0
    start = 1
    for i, d in enumerate(degrees):
        m = ends[i]
        if m < cur.size:
            xv, ev, prev, cur, t1, t2 = (a[:m] for a in (xv, ev, prev, cur, t1, t2))
        for j in range(start, d):
            np.multiply(xv, cur, out=t1)
            np.multiply(sq[j], prev, out=t2)
            np.subtract(t1, t2, out=t1)
            np.multiply(t1, inv_sq[j], out=t1)
            prev, cur, t1 = cur, t1, prev
            growth = (absx + sq[j]) * inv_sq[j]
            if growth > 1.0:
                budget += math.log2(growth)
            if budget > threshold:
                prev, cur, ev = _pair_rescale(prev, cur, ev)
                budget = 1.0
        start = d
        done = ends[i + 1] if i + 1 < len(ends) else 0  # lanes of degree > d
        last[done:m] = prev[done:]
        mant[done:m] = cur[done:]
    return last, mant, expo


_CHUNK = 32768


def _sliced(log_slice, ks, x, return_log):
    """``log_slice(ks, x)`` over ``_CHUNK``-sized slices of the flat points
    (degrees ``ks`` descending), as values or exponentials in the shape of
    ``x``; points at or beyond _HUGE_X are passed in as 0 and get -inf."""
    x = np.asarray(x, dtype=float)
    flat = np.ravel(x)
    out = np.empty(x.size)
    for lo in range(0, x.size, _CHUNK):
        xs = flat[lo : lo + _CHUNK]
        safe = np.abs(xs) < _HUGE_X
        values = log_slice(ks[lo : lo + _CHUNK], np.where(safe, xs, 0.0))
        values[~safe] = -np.inf
        out[lo : lo + _CHUNK] = values
    if not return_log:
        with np.errstate(under="ignore"):
            out = np.exp(out)
    return out.reshape(x.shape)


def _log_phi_sq_sorted(ks, x):
    """log phi_k(x)^2 over one slice of lanes sorted by degree, largest first."""
    _, mant, expo = _psi_scaled_sorted(ks, x)
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
    prev, cur, expo = _pair_rescale(*_psi_scaled_sorted(ks, x))
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
    out[order] = _sliced(_log_phi_sq_sorted, ks[order], np.ravel(x)[order], return_log)
    return out.reshape(x.shape)


def phi_squared_many(k, x, return_log=False):
    """Vectorized phi_k^2 over an array of points: the one-degree case of
    :func:`phi_squared_degrees`."""
    k = int(k)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    ks = np.broadcast_to(np.int64(k), np.size(x))
    return _sliced(_log_phi_sq_sorted, ks, x, return_log)


def mixture_density_many(n, x):
    """Density of one uniformly chosen eigenvalue: (1/n) sum_{k<n} phi_k^2,
    in closed form on the kernel's degree-(n-1) pair."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"ensemble size must be >= 1, got {n}")
    ks = np.broadcast_to(np.int64(n - 1), np.size(x))
    return _sliced(_log_mixture_sorted, ks, x, False)


def mixture_density(n, x):
    """Scalar convenience wrapper for :func:`mixture_density_many`."""
    return float(mixture_density_many(n, np.array([float(x)]))[0])


# ----------------------------------------------------------------------
# Gauss-Kronrod quadrature (G7 embedded in K15)
# ----------------------------------------------------------------------

_GK_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_GK_WEIGHTS_K = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_GK_WEIGHTS_G = np.array(
    [
        0.0,
        0.129484966168870,
        0.0,
        0.279705391489277,
        0.0,
        0.381830050505119,
        0.0,
        0.417959183673469,
        0.0,
        0.381830050505119,
        0.0,
        0.279705391489277,
        0.0,
        0.129484966168870,
        0.0,
    ]
)


def _gk_panels(f, left, right):
    """K15 values and |K15-G7| error estimates for a batch of panels."""
    center = 0.5 * (left + right)
    halfw = 0.5 * (right - left)
    nodes = center[:, None] + halfw[:, None] * _GK_NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    ik = (vals @ _GK_WEIGHTS_K) * halfw
    ig = (vals @ _GK_WEIGHTS_G) * halfw
    return ik, np.abs(ik - ig)


def integrate_adaptive(
    f,
    a,
    b,
    tol,
    initial_width=None,
    max_panels=300000,
    max_rounds=30,
    return_panels=False,
):
    """Adaptive panel integration of a vectorized integrand on [a, b].

    Starts from uniform panels of ``initial_width`` (default: one
    sixteenth of the interval) and bisects any panel whose K15-vs-G7
    discrepancy exceeds its share of ``tol`` until the summed estimate
    is below ``tol``.

    Returns ``(value, err)``, or ``(value, err, edges, panel_values)``
    with panel data sorted by position when ``return_panels`` is set.
    """
    if tol <= 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    a, b = float(a), float(b)
    if not b > a:
        if b == a:
            return (0.0, 0.0, np.array([a, b]), np.zeros(1)) if return_panels else (0.0, 0.0)
        raise ParameterError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    if initial_width is None:
        initial_width = (b - a) / 16.0
    count = int(np.clip(math.ceil((b - a) / initial_width), 4, max_panels))
    edges = np.linspace(a, b, count + 1)
    left, right = edges[:-1], edges[1:]
    vals, errs = _gk_panels(f, left, right)
    for _ in range(max_rounds):
        total_err = float(errs.sum())
        if total_err <= tol:
            break
        if left.size >= max_panels:
            raise ConvergenceError(
                f"quadrature needs more than {max_panels} panels for tol={tol}"
            )
        bad = errs > tol / (2.0 * left.size)
        if not bad.any():
            bad = errs == errs.max()
        mid = 0.5 * (left[bad] + right[bad])
        new_left = np.concatenate([left[bad], mid])
        new_right = np.concatenate([mid, right[bad]])
        new_vals, new_errs = _gk_panels(f, new_left, new_right)
        left = np.concatenate([left[~bad], new_left])
        right = np.concatenate([right[~bad], new_right])
        vals = np.concatenate([vals[~bad], new_vals])
        errs = np.concatenate([errs[~bad], new_errs])
    else:
        raise ConvergenceError(
            f"quadrature did not reach tol={tol} in {max_rounds} refinement rounds"
        )
    value = float(vals.sum())
    if return_panels:
        order = np.argsort(left)
        edges = np.append(left[order], right[order][-1])
        return value, float(errs.sum()), edges, vals[order]
    return value, float(errs.sum())


def oscillation_width(k):
    """Bulk oscillation scale of phi_k^2: pi / sqrt(4k+2)."""
    return math.pi / math.sqrt(4.0 * k + 2.0)


def tail_cutoff(k):
    """Point beyond which the phi_k^2 tail mass is negligible (< 1e-18)."""
    base = 2.0 * math.sqrt(k + 1.0) + 2.0 + 12.0 * (k + 1.0) ** (-1.0 / 6.0)
    for _ in range(200):
        if phi_squared_many(k, [base])[0] < 1e-22:
            return base
        base += 1.0 + 0.01 * base
    raise ConvergenceError(f"could not locate a tail cutoff for degree {k}")


def phi_sq_cdf(k, x, tol=1e-10):
    """CDF of the phi_k^2 density at ``x``, by adaptive quadrature.

    Uses evenness: integrates on [0, |x|] and reflects. Absolute accuracy
    ``tol``; raises ConvergenceError when the panel budget cannot reach it.
    """
    k = int(k)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    if tol <= 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    x = float(x)
    ax = abs(x)
    upper = min(ax, tail_cutoff(k))
    if upper == 0.0:
        half = 0.0
    else:
        half, _ = integrate_adaptive(
            lambda xs: phi_squared_many(k, xs),
            0.0,
            upper,
            tol,
            initial_width=oscillation_width(k),
        )
    return 0.5 + half if x >= 0.0 else 0.5 - half


def phi_sq_cdf_many(k, xs, tol=1e-8):
    """CDF of phi_k^2 at many points with one shared quadrature pass.

    The base panel grid (adaptively refined to ``tol``) is merged with
    the query points, each merged panel gets one K15 rule, and the
    cumulative sums give the CDF exactly at every query abscissa.
    """
    k = int(k)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    f = lambda pts: phi_squared_many(k, pts)
    return _even_cdf_many(f, tail_cutoff(k), oscillation_width(k), xs, tol)


def mixture_cdf_many(n, xs, tol=1e-8):
    """CDF of the GUE(n) one-eigenvalue density (see
    :func:`mixture_density_many`) at many points, as :func:`phi_sq_cdf_many`
    does for one degree."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"ensemble size must be >= 1, got {n}")
    f = lambda pts: mixture_density_many(n, pts)
    return _even_cdf_many(f, tail_cutoff(n - 1), oscillation_width(n - 1), xs, tol)


def _even_cdf_many(f, cutoff, width, xs, tol):
    """CDF at ``xs`` of the even density ``f`` with negligible mass beyond
    ``cutoff``, from panels of initial ``width`` refined to ``tol``."""
    xs = np.asarray(xs, dtype=float)
    shape = xs.shape
    xs = np.ravel(xs)
    _, _, base_edges, _ = integrate_adaptive(
        f, 0.0, cutoff, tol, initial_width=width, return_panels=True
    )
    queries = np.clip(np.abs(xs), 0.0, cutoff)
    edges = np.unique(np.concatenate([base_edges, queries]))
    vals, _ = _gk_panels(f, edges[:-1], edges[1:])
    cum = np.concatenate([[0.0], np.cumsum(vals)])
    pos = np.searchsorted(edges, queries)
    half = cum[pos]
    out = np.where(xs >= 0.0, 0.5 + half, 0.5 - half)
    return out.reshape(shape)
