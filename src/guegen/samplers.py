"""Exact single-eigenvalue samplers.

Three layers, all targeting the same densities exactly:

* plain rejection from the piecewise envelope, paying one O(k)
  recurrence evaluation per proposal;
* squeeze-accelerated rejection, which resolves most proposals against
  the constant-time sandwich bounds inside the squeeze window
  |x| <= x1 and against a per-degree tail table outside it, and falls
  back to the exact recurrence only on the inconclusive band and in
  undecided table cells;
* the uniform-index mixture: pick K uniform on {0, ..., n-1}, draw from
  the squared Hermite function density of degree K.  The result is one
  uniformly chosen eigenvalue of an n x n GUE matrix in the unscaled
  convention (spectrum ~ [-2 sqrt(n), 2 sqrt(n)]).

Degree 0 short-circuits to a standard normal draw, since the degree-0
density is exactly the standard normal density.

Both entry points share one rejection engine over (degree, count)
groups.  ``sample_phi_sq_many`` is its one-group case;
``sample_gue_eigenvalues`` draws all mixture indices and hands every
represented degree to the engine as one group.  In each round every
unfinished group draws a proposal block and applies the squeeze, and the
proposals left undecided in all groups share one pass of the exact
recurrence (:func:`hermite.phi_squared_degrees`), which costs the largest
degree of the round in Python-level steps rather than the sum of the
degrees.

The tail table (:class:`TailTable`) holds phi_k^2 at _TABLE_CELLS + 1
points from x1 to a little past the spectral edge.  Before a degree gets
one, :func:`hermite.decreasing_beyond` certifies that phi_k^2 is strictly
decreasing on [x1, infinity), so each cell's end values, widened by a
relative slack of 1e-8 that covers the kernel's float error, bound phi_k^2
from both sides and decide exactly as the recurrence would.  Draws, and
the ``proposals`` and ``accepted`` counters, are therefore the same with
or without tables.  A group uses a table only when its expected
out-of-window proposals pay for building one (:func:`_table_pays`, a rule
on the degree and draw count alone); tables of the last _TABLE_CACHE
degrees are kept, so later calls at the same degree reuse them.  Plain
mode uses no table.

There is one budget: each group may spend ``max_proposals * count``
proposals, where ``count`` is its number of draws, and raises BudgetError
when it needs more.  Every output is a deterministic function of (seed,
parameters).
"""

import functools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dominator, hermite, vanveen
from .errors import BudgetError, ParameterError

DEFAULT_MAX_PROPOSALS = 10**6
_BLOCK_CAP = 1_500_000

# tail table: cells on [x1, edge + _TABLE_REACH * k^(-1/6)], where phi_k^2
# is below 1e-20 of the envelope for k = 1 ... 1e5 but still a normal double
_TABLE_CELLS = 1024
_TABLE_REACH = 10.0
_TABLE_SLACK = 1e-8  # 100x the float kernel's relative error (tests/test_hermite.py)
_TABLE_CACHE = 32  # degrees kept, about 8 KB each; the size is not measured
# one recurrence step costs about 2.4 us of per-step overhead plus 1.2 ns per
# lane, so a pass's overhead is worth about this many lanes
_STEP_OVERHEAD_LANES = 2000


@dataclass
class SamplerStats:
    """Counters describing the work a sampler performed.

    ``exact_evals`` counts proposals whose decision needed the O(k)
    recurrence: in squeeze mode the in-window inconclusive proposals plus
    the out-of-window proposals in an undecided tail-table cell (every
    out-of-window proposal where no table is used); in plain mode every
    proposal.  Decisions made by the tail table count as squeeze accepts
    (``squeeze_lower_accepts``) and rejects (``squeeze_upper_rejects``).
    """

    proposals: int = 0
    squeeze_lower_accepts: int = 0
    squeeze_upper_rejects: int = 0
    exact_evals: int = 0
    accepted: int = 0
    elapsed: float = 0.0


class TailTable(NamedTuple):
    """phi_k^2 tabulated on a grid from the squeeze window's edge x1 outward,
    where it is certified strictly decreasing."""

    start: float  # x1, the first grid point
    step: float  # grid point i is start + i * step
    phi: np.ndarray  # phi_k^2 at the _TABLE_CELLS + 1 grid points

    def bounds(self, x):
        """Certified (lower, upper) bounds on phi_k^2 at points |x| >= x1.

        On cell [t_i, t_{i+1}] the bounds would be phi(t_{i+1}) (1 - s) and
        phi(t_i) (1 + s), and beyond the last point 0 and phi(t_m) (1 + s).
        The cell index comes from arithmetic, which rounding can put one
        cell off, so each bound is taken one cell further out: phi(t_{i-1})
        above and phi(t_{i+2}) below.  The slack s covers the float kernel's
        error at both the grid point and x, so a decision the bounds make is
        the one the exact comparison would make.
        """
        m = self.phi.size - 1
        i = np.minimum((np.abs(x) - self.start) / self.step, m).astype(np.intp)
        upper = self.phi[np.maximum(i - 1, 0)] * (1.0 + _TABLE_SLACK)
        lower = np.append(self.phi, 0.0)[np.minimum(i + 2, m + 1)] * (1.0 - _TABLE_SLACK)
        return lower, upper

    def undecided_bound(self, spec):
        """Upper bound on the envelope mass over [x1, infinity) on which
        :meth:`bounds` leaves a proposal undecided, the integral of
        min(upper, h) - lower; ``spec`` is the degree's envelope."""
        m = self.phi.size - 1
        # a point of cell j gets a computed index within one of j
        j = np.arange(m)
        upper = self.phi[np.maximum(j - 2, 0)] * (1.0 + _TABLE_SLACK)
        lower = np.append(self.phi, 0.0)[np.minimum(j + 3, m + 1)] * (1.0 - _TABLE_SLACK)
        inside = self.step * float(np.sum(upper - lower))
        # beyond the last point the upper bound is at most u, and the envelope
        # is its tail piece T / (x - edge)^4, so min(u, h) integrates to at
        # most (4/3) u^(3/4) T^(1/4)
        u = self.phi[m - 2] * (1.0 + _TABLE_SLACK)
        t = dominator.TAIL_COEFF * spec.n ** (-5.0 / 6.0)
        return float(inside + 4.0 / 3.0 * u**0.75 * t**0.25)


@functools.lru_cache(maxsize=_TABLE_CACHE)
def tail_table(k):
    """The degree-k tail table, or None when monotonicity is not certified.

    The certificate (:func:`hermite.decreasing_beyond` at x1) makes phi_k^2
    strictly decreasing on [x1, infinity); the tabulated values must also
    fall strictly and stay positive, so that float rounding cannot have
    broken the cell bounds.  Results for the last _TABLE_CACHE degrees
    are cached.
    """
    spec = dominator.make_spec(k)
    if not hermite.decreasing_beyond(k, spec.x1):
        return None
    end = spec.edge + _TABLE_REACH * k ** (-1.0 / 6.0)
    step = (end - spec.x1) / _TABLE_CELLS
    phi = hermite.phi_squared_many(k, spec.x1 + step * np.arange(_TABLE_CELLS + 1))
    if not (phi[-1] > 0.0 and np.all(np.diff(phi) < 0.0)):
        return None
    phi.flags.writeable = False
    return TailTable(spec.x1, step, phi)


def _table_pays(spec, count):
    """Whether a group of ``count`` draws at degree ``spec.n`` decides its
    out-of-window proposals from the tail table.

    A table costs one exact pass over its _TABLE_CELLS + 1 lanes, about
    k * (_TABLE_CELLS + _STEP_OVERHEAD_LANES) lane-steps with the pass's
    per-step overhead, and saves k lane-steps on each out-of-window
    proposal it decides.  So a group uses one only when the call's expected
    out-of-window proposals, count * mass * (p2 + p3) / half_mass, cover
    that.  The rule reads (k, count) alone, never the cache, so a cached
    table changes no counter.
    """
    outside = count * spec.mass * (spec.p2 + spec.p3) / spec.half_mass
    return outside >= _TABLE_CELLS + _STEP_OVERHEAD_LANES


@dataclass
class _Group:
    """Rejection state of the draws of one degree inside an engine call."""

    k: int
    count: int
    offset: int  # where the group's draws start in the engine output
    spec: dominator.DominatorSpec
    budget: int
    table: TailTable | None  # decides out-of-window proposals in squeeze mode
    filled: int = 0
    spent: int = 0


class _Block(NamedTuple):
    """One proposal block of a group and the squeeze's verdicts on it."""

    x: np.ndarray  # proposals
    uh: np.ndarray  # u * h(x), compared against the density
    lower_acc: np.ndarray  # accepted by the lower squeeze bound
    upper_rej: np.ndarray  # rejected by the upper squeeze bound
    lanes: np.ndarray  # ascending positions of the proposals left to the exact test


def _check_mode(mode):
    if mode not in ("plain", "squeeze"):
        raise ParameterError(f"mode must be 'plain' or 'squeeze', got {mode!r}")


def _propose(g, stream, use_squeeze):
    """Draw the group's next proposal block and apply the squeeze."""
    need = g.count - g.filled
    block = int(need * g.spec.mass * 1.2) + 32  # mass = mean proposals per accept
    block = min(block, _BLOCK_CAP, g.budget - g.spent)
    if block <= 0:
        raise BudgetError(
            f"no acceptance within {g.budget} proposals at degree {g.k}",
            attempts=g.budget,
        )
    x = dominator.sample_envelope_many(g.spec, stream, block)
    u = stream.uniforms(block)
    uh = u * dominator.envelope_many(g.spec, x)
    lower_acc = np.zeros(block, dtype=bool)
    upper_rej = np.zeros(block, dtype=bool)
    if use_squeeze:
        window = np.abs(x) <= g.spec.x1
        decided = [(window, vanveen.squeeze_bounds_many(g.k, x[window]))]
        if g.table is not None:
            decided.append((~window, g.table.bounds(x[~window])))
        for mask, (lo, up) in decided:
            uhm = uh[mask]
            lower_acc[mask] = uhm <= lo
            upper_rej[mask] = uhm > up
    return _Block(x, uh, lower_acc, upper_rej, np.flatnonzero(~(lower_acc | upper_rej)))


def _decide(batch, pooled, out, stats):
    """Exact-test the undecided proposals of every (group, block) pair in
    ``batch`` with one kernel call, then take each group's accepts.

    Counters reflect the sequential semantics: a block is truncated at the
    proposal that produced the group's last needed accept, and everything
    after it is discarded as if never drawn.
    """
    xs = np.concatenate([b.x[b.lanes] for _, b in batch])
    if not xs.size:
        phi = xs
    elif pooled:
        ks = np.repeat([g.k for g, _ in batch], [b.lanes.size for _, b in batch])
        phi = hermite.phi_squared_degrees(ks, xs)
    else:
        phi = hermite.phi_squared_many(batch[0][0].k, xs)
    start = 0
    for g, b in batch:
        accept = b.lower_acc.copy()
        accept[b.lanes] = b.uh[b.lanes] <= phi[start : start + b.lanes.size]
        start += b.lanes.size
        need = g.count - g.filled
        pos = np.flatnonzero(accept)
        cut = pos[need - 1] + 1 if pos.size >= need else b.x.size
        take = pos[:need]
        out[g.offset + g.filled : g.offset + g.filled + take.size] = b.x[take]
        g.filled += take.size
        g.spent += int(cut)
        stats.proposals += int(cut)
        stats.squeeze_lower_accepts += int(b.lower_acc[:cut].sum())
        stats.squeeze_upper_rejects += int(b.upper_rej[:cut].sum())
        stats.exact_evals += int(np.searchsorted(b.lanes, cut))
        stats.accepted += take.size


def _sample_degrees(degrees, counts, stream, mode, stats, max_proposals):
    """The rejection engine: ``counts[i]`` exact draws from the density of
    degree ``degrees[i]``, returned concatenated in group order.

    Degree-0 groups are standard normal draws. Every other group draws
    proposal blocks sized from its envelope mass until it has its count,
    spending at most ``max_proposals * count`` proposals. In each round
    every unfinished group, in order, draws its block and applies the
    squeeze; the proposals the squeeze leaves undecided in all groups are
    then evaluated together, so one pass of the exact recurrence serves
    every degree of the round. A round's blocks are evaluated in batches
    of about one kernel slice (``hermite._CHUNK``) of undecided proposals,
    and at most about ``_BLOCK_CAP`` proposals. That bounds memory without
    adding recurrence steps per lane, and the stream is consumed the same
    way wherever the batches split.
    """
    t0 = time.perf_counter()
    use_squeeze = mode == "squeeze"
    out = np.empty(sum(counts))
    groups = []
    offset = 0
    for k, count in zip(degrees, counts):
        if k == 0:
            out[offset : offset + count] = stream.standard_normals(count)
            stats.proposals += count
            stats.accepted += count
        elif count:
            spec = dominator.make_spec(k)
            table = tail_table(k) if use_squeeze and _table_pays(spec, count) else None
            groups.append(_Group(k, count, offset, spec, max_proposals * count, table))
        offset += count
    pooled = len(groups) > 1
    while groups:
        batch, size, undecided = [], 0, 0
        for g in groups:
            block = _propose(g, stream, use_squeeze)
            batch.append((g, block))
            size += block.x.size
            undecided += block.lanes.size
            if size >= _BLOCK_CAP or undecided >= hermite._CHUNK:
                _decide(batch, pooled, out, stats)
                batch, size, undecided = [], 0, 0
        if batch:
            _decide(batch, pooled, out, stats)
        groups = [g for g in groups if g.filled < g.count]
    stats.elapsed += time.perf_counter() - t0
    return out


def sample_phi_sq_many(
    k,
    count,
    stream,
    mode="squeeze",
    stats=None,
    max_proposals=DEFAULT_MAX_PROPOSALS,
):
    """``count`` exact draws from the degree-k density, vectorized: the
    one-group case of the rejection engine.

    Proposals are generated in blocks sized from the known acceptance
    rate. Counters in ``stats`` reflect the sequential semantics: blocks
    are truncated at the proposal that produced the last needed accept,
    and everything after it is discarded as if never drawn. The call may
    spend ``max_proposals * count`` proposals, then raises BudgetError.
    """
    k = int(k)
    count = int(count)
    if k < 0:
        raise ParameterError(f"degree must be >= 0, got {k}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    _check_mode(mode)
    if stats is None:
        stats = SamplerStats()
    return _sample_degrees([k], [count], stream, mode, stats, max_proposals)


def sample_gue_eigenvalues(
    n,
    count,
    stream,
    mode="squeeze",
    stats=None,
    max_proposals=DEFAULT_MAX_PROPOSALS,
):
    """``count`` uniformly chosen GUE(n) eigenvalues, vectorized.

    Draws all mixture indices first, then hands every represented degree
    to the rejection engine as one group, so the exact recurrence runs
    once per round for all degrees together. Draw ``i`` comes from the
    degree of index draw ``i``. Each degree group may spend
    ``max_proposals`` times its number of draws in proposals, then raises
    BudgetError.
    """
    n = int(n)
    count = int(count)
    if n < 1:
        raise ParameterError(f"ensemble size must be >= 1, got {n}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    _check_mode(mode)
    if stats is None:
        stats = SamplerStats()
    ks = stream.indices(n, count)
    order = np.argsort(ks, kind="stable")
    degrees, counts = np.unique(ks, return_counts=True)
    draws = _sample_degrees(
        degrees.tolist(), counts.tolist(), stream, mode, stats, max_proposals
    )
    out = np.empty(count)
    out[order] = draws
    return out


# ----------------------------------------------------------------------
# benchmarking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    """Per-degree aggregate of a benchmark run.

    ``cost_proxy`` is the Wald-style work estimate per accepted draw:
    (proposals + n * exact_evals) / accepted, counting one unit per
    constant-time proposal and n units per exact recurrence evaluation.
    The per-degree tail table is cached setup, built once per degree
    while the degree stays in the cache, and is not in this per-draw
    proxy.
    """

    n: int
    mode: str
    accepted: int
    proposals: int
    exact_evals: int
    proposals_per_accept: float
    exact_share: float
    cost_proxy: float
    ns_per_sample: float


def benchmark(mode, n_list, samples_per_n, seed=0, max_proposals=DEFAULT_MAX_PROPOSALS):
    """Run the sampler across degrees and aggregate its counters.

    Each degree gets an independent derived stream, so rows do not
    depend on each other or on the order of ``n_list``.
    """
    if not n_list:
        raise ParameterError("n_list must be nonempty")
    from .rng import RandomStream

    master = RandomStream(seed)
    streams = master.spawn(len(n_list))
    rows = []
    for n, st in zip(n_list, streams):
        stats = SamplerStats()
        sample_phi_sq_many(n, samples_per_n, st, mode, stats, max_proposals)
        rows.append(
            BenchRow(
                n=int(n),
                mode=mode,
                accepted=stats.accepted,
                proposals=stats.proposals,
                exact_evals=stats.exact_evals,
                proposals_per_accept=stats.proposals / max(stats.accepted, 1),
                exact_share=stats.exact_evals / max(stats.proposals, 1),
                cost_proxy=(stats.proposals + n * stats.exact_evals)
                / max(stats.accepted, 1),
                ns_per_sample=1e9 * stats.elapsed / max(stats.accepted, 1),
            )
        )
    return rows
