"""Exact rejection sampler for the full ordered GUE(n) spectrum.

The target is the ordered eigenvalue density proportional to

    1{x_1 <= ... <= x_n} prod_{i<j} (x_j - x_i)^2 prod_i e^{-x_i^2/2}.

An arithmetic-geometric-mean bound turns the interaction product into a
product over symmetric pairs (j, n+1-j): with p_j = 4n - 8j + 2,

    prod_{i<j}(x_j-x_i)^2 <= 2^{2 floor(n/2) - 2 C(n,2)}
                             prod_j (x_{n+1-j} - x_j)^{p_j},

whose right side, combined with the Gaussian weights, factorizes into
independent bivariate proposals.  Each pair is drawn through the
transform (X, Y) = ((Z-W)/2, (Z+W)/2) with Z = sqrt(2) N and
W = 2 sqrt(Gamma((p+1)/2)) independent, which has joint density
proportional to (y-x)^p e^{-x^2/2 - y^2/2} on y > x.  A proposal is
accepted when the concatenated coordinates are strictly increasing and a
uniform passes the (log-space) ratio test against the bound.

The Gaussian beta-ensemble generalization replaces every pair exponent p
by p*beta/2 and rescales the Gaussian components (the Z part of each
pair and the lone middle coordinate for odd n) by sqrt(2/beta); the
half-difference variate W keeps its base scale.  At beta = 2 the block
proposer is bit-identical to the base pair listing (verification
criterion 10).

For odd n the middle coordinate carries no pair partner and is drawn
from the Gaussian factor alone.

:func:`_sample_pair_bound` runs attempts in blocks: :func:`_propose_block`
draws a block of proposals and :func:`_ratio_test` decides them, taking
the log target from the C(n, 2) pair differences x_j - x_i (i < j) of
each row, one (size, C(n, 2)) array per block.  The accepts of a block
and the attempts each one consumed are read off as whole arrays.
Acceptance decays quickly with n: about 5 attempts per accept at n = 4,
230 at n = 6 and 9e4 at n = 8.

At beta = 2 the spectrum is also a determinantal point process with the
projection kernel K(x, y) = sum_{k<n} phi_k(x) phi_k(y), and K(x, x)/n is
the mixture density that :func:`samplers.sample_gue_eigenvalues` draws
from exactly.  :func:`_sample_chain` draws a spectrum in n steps
(Hough, Krishnapur, Peres and Virag, Determinantal processes and
independence, Probab. Surveys 3, 2006, Algorithm 18).  With
v(x) = (psi_0(x), ..., psi_{n-1}(x)) and r_i(x) its residual after
projection onto the span of the v of the i points drawn so far, step i
draws a point with density proportional to ||r_i(x)||^2 w(x).  It does
so by rejection from the mixture (Lavancier, Moller and Rubak,
Determinantal point process models and statistical inference, JRSS-B
77, 2015, Algorithm 1): accept x when u ||v(x)||^2 < ||r_i(x)||^2.  The
test and the unit residuals do not change when v(x) is scaled, so the
Gaussian weight w cancels.  Step i needs n / (n - i) proposals on
average, a spectrum n H_n: 14.7 at n = 6 and 21.7 at n = 8.  All
spectra of a call read their proposals from one shared pool of mixture
draws, and the proposals a spectrum did not read go back to it.

:func:`sample_joint_many` runs the chain at beta = 2 and
n >= ``CHAIN_MIN_N``, and the pair bound otherwise.  Microseconds per
spectrum, medians of 15 interleaved calls of 500 spectra each on a
2-core x86-64 box (Python 3.11, numpy 2.4; the pair bound at n = 7 is
calls of 50 spectra, at n = 8 three calls of 5):

    n            2      3      4      5      6      7      8
    pair bound   0.61   0.78   2.2    11.5   86     2.3e3  4.9e4
    chain        1.6    2.5    3.7    5.1    6.2    8.2    9.0

At these n the chain's mixture draws come from the grid hat
(``samplers.N_GRID``).  Over 40 alternating pairs of calls, the chain
was faster in 39 at n = 5 (medians 5.0 against 8.7 us) and in none at
n = 4 (3.6 against 2.0 us).

Use ``max_attempts`` plus the progress callback to keep long runs
observable.
"""

import math

import numpy as np

from . import hermite, samplers
from .errors import BudgetError, ParameterError, whole

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
PROGRESS_EVERY = 10**5
DEFAULT_MAX_ATTEMPTS = 10**7
CHAIN_MIN_N = 5  # the chain is faster from here on at beta = 2 (table above)
# basis entries (n^2 per spectrum) of one chunk of the chain's spectra
_CHAIN_ENTRIES = 2**19


def pair_exponents(n):
    """Base pair exponents p_j = 4n - 8j + 2 for j = 1 .. floor(n/2)."""
    n = whole("n", n, 2)
    return tuple(4 * n - 8 * j + 2 for j in range(1, n // 2 + 1))


def _validated(n, beta):
    n = whole("n", n, 2)
    beta = float(beta)
    if not 0.0 < beta < math.inf:
        raise ParameterError(f"beta must be finite and > 0, got {beta}")
    return n, beta


def _exponents(n, beta):
    """Pair exponents p_j * beta / 2 as an array."""
    return np.array(pair_exponents(n), dtype=float) * (beta / 2.0)


def _pair_block(q, gauss_scale, stream, size):
    """``size`` draws of one pair (X, Y) with exponent ``q``, and their W.

    At ``gauss_scale`` 1 the joint density is proportional to
    (y-x)^q e^{-x^2/2 - y^2/2} on y > x.  Draws ``size`` normals for Z,
    then ``size`` Gamma((q+1)/2) variates for W.
    """
    z = _SQRT2 * gauss_scale * stream.standard_normals(size)
    w = 2.0 * np.sqrt(stream.gammas((q + 1.0) / 2.0, size))
    return (z - w) / 2.0, (z + w) / 2.0, w


def _propose_block(n, beta, stream, size):
    """``size`` proposals as ``(coords, gaps)``: row i of ``coords``
    (size, n) is proposal i, and ``gaps[j - 1]`` holds the W of pair j,
    which fills positions (j, n+1-j).

    For odd n the middle coordinate is Gaussian.  The stream is read pair
    by pair, then the middle normals.
    """
    gauss_scale = math.sqrt(2.0 / beta)
    q = _exponents(n, beta)
    coords = np.empty((size, n))
    gaps = np.empty((q.size, size))
    for j, qj in enumerate(q):
        coords[:, j], coords[:, n - 1 - j], gaps[j] = _pair_block(qj, gauss_scale, stream, size)
    if n % 2 == 1:
        coords[:, (n - 1) // 2] = gauss_scale * stream.standard_normals(size)
    return coords, gaps


def _ratio_test(coords, gaps, beta, u):
    """Accept mask of a proposal block: strictly increasing rows whose
    uniform ``u`` passes the ratio test against the pair bound.

    In log space, a row is accepted when log u + log bound < log target.
    The Gaussian weights are identical on both sides and cancel, so only
    the interaction factors appear.
    """
    n = coords.shape[1]
    log_const = beta * (n // 2 - n * (n - 1) // 2) * _LN2
    iu = np.triu_indices(n, 1)
    ordered = np.all(np.diff(coords, axis=1) > 0.0, axis=1)
    with np.errstate(divide="ignore"):
        lhs = np.log(u) + log_const + _exponents(n, beta) @ np.log(gaps)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = beta * np.sum(np.log(coords[:, iu[1]] - coords[:, iu[0]]), axis=1)
    return ordered & (lhs < rhs)


def sample_joint_many(
    n,
    count,
    beta=2.0,
    stream=None,
    max_attempts=DEFAULT_MAX_ATTEMPTS,
    progress=None,
):
    """``count`` exact ordered spectra: the projection-DPP chain at
    beta = 2 and n >= ``CHAIN_MIN_N``, the pair bound otherwise.

    Returns ``(values, attempts)`` where ``values`` has shape (count, n)
    and ``attempts[i]`` counts the proposals consumed by spectrum i.
    ``max_attempts`` caps each spectrum's attempts: past it, BudgetError
    is raised.  ``progress``, if given, is called between proposal
    blocks (chain rounds) with the running attempt count once
    ``PROGRESS_EVERY`` attempts have passed since its last call.
    """
    n, beta = _validated(n, beta)
    count = whole("count", count, 0)
    max_attempts = whole("max_attempts", max_attempts, 1)
    if stream is None:
        raise ParameterError("sample_joint_many needs a RandomStream")
    if count == 0:
        return np.empty((0, n)), np.empty(0, dtype=np.int64)
    if beta == 2.0 and n >= CHAIN_MIN_N:
        return _sample_chain(n, count, stream, max_attempts, progress)
    return _sample_pair_bound(n, count, beta, stream, max_attempts, progress)


def _sample_pair_bound(n, count, beta, stream, max_attempts, progress):
    """The pair-bound engine: attempts vectorized in blocks; ``attempts[i]``
    is the gap since the previous accept."""
    values = np.empty((count, n))
    attempts = np.empty(count, dtype=np.int64)
    filled = 0
    carried = 0  # attempts since the last accept, across blocks
    drawn = 0
    last_report = 0
    rate = 0.5  # adaptive acceptance-rate estimate
    block_cap = max(1024, min(400000, 4_000_000 // (n * n)))
    while filled < count:
        block = int(np.clip((count - filled) / rate * 1.2, 512, block_cap))
        coords, gaps = _propose_block(n, beta, stream, block)
        accept = _ratio_test(coords, gaps, beta, stream.uniforms(block))
        pos = np.flatnonzero(accept)[: count - filled]
        tries = np.diff(pos, prepend=-1 - carried)
        carried = block - 1 - int(pos[-1]) if pos.size else carried + block
        end = filled + pos.size
        over = np.flatnonzero(tries > max_attempts)
        if over.size or (end < count and carried > max_attempts):
            raise BudgetError(
                f"sample exceeded {max_attempts} attempts at n={n}",
                attempts=int(tries[over[0]]) if over.size else carried,
            )
        values[filled:end] = coords[pos]
        attempts[filled:end] = tries
        filled = end
        drawn += block
        if filled < count and progress is not None and drawn - last_report >= PROGRESS_EVERY:
            progress(drawn)
            last_report = drawn
        rate = max(filled / drawn, 1e-7)
    return values, attempts


def _sample_chain(n, count, stream, max_attempts, progress):
    """The projection-DPP chain at beta = 2: ``attempts[i]`` counts the
    proposals spectrum i read, at least n.

    Spectra run in chunks of ``_CHAIN_ENTRIES / n^2``, one chunk after
    another, and a chunk runs step-major: every spectrum of it draws its
    point i before any draws point i + 1, so ``basis[:, :i]`` holds the
    unit residuals of the i points each has.  In round r of step i, each
    of the t spectra (of the chunk's m) still missing point i gets
    ceil(n / (n - i)) min(2^r, m // t) proposal slots, or fewer where the
    pool below holds less, so no round of a step has more slots than its
    first.  Each takes its first accept,
    and the uniforms come from one uniforms call per round.  A spectrum
    whose spent proposals plus one per missing point
    exceed ``max_attempts`` raises BudgetError with that sum, which is at
    most what it would spend (so every cap below n raises after step 0,
    reporting n); the stream is read the same way under any cap the run
    stays within.

    Proposals come from one pool of mixture draws shared by every
    spectrum of the call; ``pool[head:]`` holds the values not yet read.
    A round fills its slots, in row-major order, with the next values
    from ``head`` on.  When fewer than t ceil(n / (n - i)) values are
    left, too few for ceil(n / (n - i)) slots per spectrum, one
    :func:`samplers.sample_gue_eigenvalues` call appends
    ceil(1.1 E) + 64 draws to them, E being the proposals the rest of the
    chunk expects to read: sum_{j >= i} n / (n - j) for each spectrum
    missing point i, and that sum from i + 1 for each spectrum past it
    (so the pool stays O(``_CHAIN_ENTRIES`` H_n / n) values, like the
    basis).  E is at least t ceil(n / (n - i)), so the pool then holds
    that many, and a round's width is capped at the values left // t: a
    round never asks for more than the pool holds, so a chunk's first
    refill mostly serves the whole chunk (one mixture call per
    500-spectrum call at n = 5, 6 and 8 for each seed 0-99).  After the
    accept test, the slots after a spectrum's first accept were not read;
    their uniforms are dropped, and the k unread values go back, in
    row-major order, into the last k places the round read, so ``head``
    moves on by the slots read and the values left are the unread ones
    followed by the rest of the pool.  Read and rejected proposals are
    consumed.

    Each pool value carries its psi row v(x), formed once: when a round
    reaches values without rows, one :func:`hermite.psi_rows` call forms
    the rows of the next ``_CHAIN_ENTRIES // n`` pool values, and the
    unread slots go back with their rows.  The row buffer keeps the rows
    from ``head`` on, fewer than one round's slots, plus that block, so
    it holds at most 2 ``_CHAIN_ENTRIES`` entries: a block is at most
    ``_CHAIN_ENTRIES`` of them, and so is a round (its m ceil(n / (n - i))
    <= m n slots are at most ``_CHAIN_ENTRIES // n`` while
    n^2 <= ``_CHAIN_ENTRIES``).  Rows are each up to a power-of-two
    factor, which the test and the unit residuals do not see.

    The accept test takes its residual from one projection:
    ||r_i(x)||^2 = ||v||^2 - ||b v||^2, b the spectrum's basis, with one
    batched v @ b^T for every slot of the round.  b is orthonormal to
    working precision, so this rr is off by O(n eps ||v||^2), and the test
    u ||v||^2 < rr moves by about 1e-15 per slot; a negative rr rejects.
    Only each spectrum's accepted slot gets the residual projected out
    twice ("twice is enough"), whose unit vector is its new basis row:
    its v and v b^T are kept, and after the step's last round one
    :func:`_unit_residuals` call over the chunk forms every basis row of
    the step (none after the last step, whose rows no step reads).

    The pool keeps the chain exact.  Pool values are i.i.d. mixture
    draws, independent of the uniforms.  A round's width depends only on
    the past, through the pool's size, and where a spectrum stops reading
    within it only on the slots it read (their values and uniforms) and
    on its past, so the values of its unread slots are
    independent of every decision taken so far and, given which slots
    were unread, still i.i.d. mixture draws.  Putting them back ahead of
    fresh draws keeps the pool a sequence of i.i.d. mixture draws
    independent of the chain's state, which is all each step's rejection
    needs.  Returning read and rejected values would not: a rejected
    value is biased towards where the residual is small.
    """
    values = np.empty((count, n))
    attempts = np.zeros(count, dtype=np.int64)
    first_slots = -(-n // (n - np.arange(n)))  # ceil(n / (n - i))
    # expected proposals a spectrum missing point i still reads; left[0] = n H_n
    left = np.append(np.cumsum(n / (n - np.arange(n))[::-1])[::-1], 0.0)
    capacity = max(1, _CHAIN_ENTRIES // (n * n))
    block = max(1, _CHAIN_ENTRIES // n)  # pool values per psi_rows call
    pool = np.empty(0)  # i.i.d. mixture draws, pool[head:] not yet read
    head = 0
    rows = np.empty((0, n))  # the psi rows of pool[formed - len(rows) : formed]
    formed = 0
    spent = 0  # attempts of all spectra so far
    last_report = 0
    for lo in range(0, count, capacity):
        m = min(capacity, count - lo)
        tries = attempts[lo : lo + m]
        points = np.empty((m, n))
        basis = np.empty((m, n, n))
        hit_rows = np.empty((m, n))  # v of each spectrum's accepted slot at step i
        hit_proj = np.empty((m, n))  # and its v @ b^T, in the first i entries
        for i in range(n):
            todo = np.arange(m)  # the spectra still missing point i
            r = 0
            while todo.size:
                if progress is not None and spent - last_report >= PROGRESS_EVERY:
                    progress(spent)
                    last_report = spent
                t = todo.size
                if pool.size - head < t * first_slots[i]:
                    expect = t * left[i] + (m - t) * left[i + 1]
                    more = math.ceil(1.1 * expect) + 64
                    pool = np.concatenate(
                        [pool[head:], samplers.sample_gue_eigenvalues(n, more, stream)]
                    )
                    formed -= head
                    head = 0
                width = min(first_slots[i] * min(2**r, m // t), (pool.size - head) // t)
                size = t * width
                while formed < head + size:  # the head reached values without rows
                    fresh = hermite.psi_rows(n, pool[formed : formed + block])
                    if formed > head:  # the rows from head on come first
                        fresh = np.concatenate([rows[len(rows) - (formed - head) :], fresh])
                    rows = fresh
                    formed = head + len(rows)
                at = len(rows) - (formed - head)  # the row of pool[head]
                v = rows[at : at + size].reshape(t, width, n)
                u = stream.uniforms(size).reshape(t, width)
                b = basis[todo, :i]
                vv = np.einsum("abj,abj->ab", v, v)
                proj = v @ b.transpose(0, 2, 1)
                accept = u * vv < vv - np.einsum("abk,abk->ab", proj, proj)
                first = accept.argmax(axis=1)
                hit = accept[np.arange(t), first]
                used = np.where(hit, first + 1, width)
                a = np.flatnonzero(hit)
                hits, slot = todo[a], a * width + first[a]  # row-major slot
                points[hits, i] = pool[head + slot]
                hit_rows[hits] = rows[at + slot]
                hit_proj[hits, :i] = proj.reshape(size, i)[slot]
                unread = np.flatnonzero(np.arange(width) >= used[:, None])  # row-major
                k = unread.size
                if k:  # back into the last k places read
                    pool[head + size - k : head + size] = pool[head + unread]
                    rows[at + size - k : at + size] = rows[at + unread]
                head += size - k
                tries[todo] += used
                spent += size - k
                floor = tries[todo] + n - i - hit  # spent plus one per missing point
                over = np.flatnonzero(floor > max_attempts)
                if over.size:
                    raise BudgetError(
                        f"sample exceeded {max_attempts} attempts at n={n}",
                        attempts=int(floor[over[0]]),
                    )
                todo = todo[~hit]
                r += 1
            if i + 1 < n:
                basis[:, i] = _unit_residuals(hit_rows, hit_proj[:, :i], basis[:, :i])
        values[lo : lo + m] = np.sort(points, axis=1)
    return values, attempts


def _unit_residuals(v, proj, b):
    """The chain's new basis rows: the residuals of rows ``v`` (m, n)
    against orthonormal rows ``b`` (m, i, n), given their projections
    ``proj`` = v b^T (m, i), projected out once more ("twice is enough")
    and scaled to unit length."""
    res = v - np.einsum("ak,akj->aj", proj, b)
    res -= np.einsum("ak,akj->aj", np.einsum("aj,akj->ak", res, b), b)
    return res / np.sqrt(np.einsum("aj,aj->a", res, res))[:, None]


def vandermonde_max_log(n):
    """Log of the maximum of prod_{i<j}(x_j - x_i) over ordered points
    pinned to x_1 = 0 and x_n = 1 (interior points free)."""
    n = whole("n", n, 2)
    total = 0.0
    for j in range(n):
        if j > 0:
            total += j * math.log(j)
        total += 0.5 * (j + 1) * math.log(j + 1)
        total -= 0.5 * (j + n - 1) * math.log(j + n - 1)
    return total


def vandermonde_max(n):
    """Closed-form maximum of the pinned Vandermonde product."""
    return math.exp(vandermonde_max_log(n))
