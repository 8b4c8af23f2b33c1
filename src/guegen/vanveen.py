"""Constant-time squeeze bounds for the squared Hermite function density.

On |x| <= 2 sqrt(n+1) the degree-n Hermite polynomial admits the
representation H_n = A_n (B_n + mu R_n) with an explicit amplitude A_n,
oscillatory term B_n, remainder scale R_n, and a constant mu known to
satisfy |mu| <= 4.2.  Dropping the remainder gives the approximation

    f_n(x) = B_n(x)^2 * A_n(x)^2 e^{-x^2/2} / (sqrt(2 pi) n!),

computable in O(1), together with certified envelopes

    eps_plus  = pref * (8.4 (B_n)_+ R_n + 4.2^2 R_n^2)
    eps_minus = pref * 8.4 |B_n R_n|

where pref is the same prefactor, which does not depend on x.  With
|B_n| <= a = sqrt(pi / ((n+1) sin alpha)) (alpha = arccos(x / 2 sqrt(n+1))),
f + eps_plus <= pref (a + 4.2 R_n)^2; the bulk piece of the dominating hat
(:mod:`guegen.dominator`) rests on that bound.  These give the sandwich
(f - eps_minus)_+ <= phi_n^2 <= (f + eps_plus) ^ h_n used by the
squeeze-accelerated rejection sampler: most accept/reject decisions
resolve against the cheap bounds and never touch the O(n) recurrence.

f_n is defined as 0 outside |x| <= 2 sqrt(n+1); no envelopes exist there
and callers must bypass the squeeze.  The module imports no other: the
hat and the sandwich-gap integral of :mod:`guegen.verify` build on it.
"""

import functools
import math

import numpy as np

from .errors import ParameterError, whole

MU_BOUND = 4.2
_LN_PI = math.log(math.pi)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EDGE_GUARD = 1e-12
# degrees whose constants are kept, the most recently used; about 0.3 KB each
_CONSTANTS_CACHE = 1024


def domain_edge(n):
    """Right end of the representation's validity domain: 2 sqrt(n+1)."""
    return 2.0 * math.sqrt(n + 1.0)


def log_prefactor(n):
    """log of the squared-amplitude prefactor pref = A_n^2 e^{-x^2/2} / (sqrt(2 pi) n!),
    which does not depend on x: the x^2/4 of log A_n cancels the weight."""
    np1 = n + 1.0
    log_a = math.lgamma(n + 1.0) - _LN_PI + np1 / 2.0 - (n / 2.0) * math.log(np1)
    return 2.0 * log_a - _LN_SQRT_2PI - math.lgamma(n + 1.0)


@functools.lru_cache(maxsize=_CONSTANTS_CACHE)
def constants(n):
    """(edge, guard, log pref, pref) of degree n: the domain edge
    2 sqrt(n+1), the largest |x| :func:`terms_many` takes, the log
    prefactor and the prefactor; cached, as every squeeze call and hat
    build of the degree reads them."""
    edge = domain_edge(n)
    log_pref = log_prefactor(n)
    return edge, edge * (1.0 - _EDGE_GUARD), log_pref, math.exp(log_pref)


def _raw_terms(n, ax):
    """alpha, log_prefactor, B, R at |x| = ax (scalar or ndarray)."""
    np1 = n + 1.0
    edge, _, log_pref, _ = constants(n)
    alpha = np.arccos(ax / edge)
    sin_a = np.sin(alpha)
    phase = (np1 / 2.0) * (np.sin(2.0 * alpha) - 2.0 * alpha) + alpha / 2.0 + 0.75 * math.pi
    b = math.sqrt(math.pi) / np.sqrt(np1 * sin_a) * np.sin(phase)
    r = 1.0 / (3.0 * np1 * sin_a * sin_a)
    return alpha, log_pref, b, r


def terms_many(n, x):
    """(f, eps_plus, eps_minus) at an array of points, even in x.

    Raises ParameterError unless every |x| is strictly inside the domain
    (sin(alpha) is singular at its edge); the squeeze window used by the
    samplers (|x| <= x1 < 2 sqrt(n+1)) guarantees this.
    """
    n = whole("degree", n, 0)
    ax = np.abs(np.asarray(x, dtype=float))
    edge, guard, _, pref = constants(n)
    if ax.size and float(ax.max()) > guard:
        raise ParameterError(
            f"squeeze evaluated at |x|={float(ax.max())} near/beyond domain edge {edge}"
        )
    _, _, b, r = _raw_terms(n, ax)
    f = b * b * pref
    eps_plus = pref * (2.0 * MU_BOUND * np.maximum(b, 0.0) * r + MU_BOUND**2 * r * r)
    eps_minus = pref * 2.0 * MU_BOUND * np.abs(b * r)
    return f, eps_plus, eps_minus


def squeeze_bounds_many(n, x):
    """Lower and raw upper squeeze bounds: ((f-eps-)_+, f+eps+)."""
    f, ep, em = terms_many(n, x)
    return np.maximum(f - em, 0.0), f + ep
