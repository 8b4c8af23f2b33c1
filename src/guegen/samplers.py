"""Exact single-eigenvalue samplers.

Three layers, all targeting the same densities exactly:

* plain rejection from the certified hat of :mod:`guegen.dominator`,
  paying one O(k) recurrence evaluation per proposal;
* squeeze-accelerated rejection, which resolves most proposals inside
  the squeeze window |x| <= x1 against the constant-time sandwich bounds
  and falls back to the exact recurrence on the inconclusive band and
  outside the window;
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

Undecided proposals that lie after a block's ``need``-th lower-squeeze
accept are never evaluated: the group's last needed accept comes at or
before that point, so they lie past the cut and would be discarded.

There is one budget: each group may spend ``max_proposals * count``
proposals, where ``count`` is its number of draws, and raises BudgetError
when it needs more.  Every output is a deterministic function of (seed,
parameters).
"""

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dominator, hermite, vanveen
from .errors import BudgetError, ParameterError

DEFAULT_MAX_PROPOSALS = 10**6
_BLOCK_CAP = 1_500_000


@dataclass
class SamplerStats:
    """Counters describing the work a sampler performed.

    ``exact_in_window`` and ``exact_out_of_window`` count proposals whose
    decision needed the O(k) recurrence, inside the squeeze window
    |x| <= x1 and outside it: in squeeze mode the in-window inconclusive
    proposals and every out-of-window proposal, in plain mode every
    proposal.  ``exact_evals`` is their sum.
    """

    proposals: int = 0
    squeeze_lower_accepts: int = 0
    squeeze_upper_rejects: int = 0
    exact_in_window: int = 0
    exact_out_of_window: int = 0
    accepted: int = 0
    elapsed: float = 0.0

    @property
    def exact_evals(self):
        return self.exact_in_window + self.exact_out_of_window


@dataclass
class _Group:
    """Rejection state of the draws of one degree inside an engine call."""

    k: int
    count: int
    offset: int  # where the group's draws start in the engine output
    spec: dominator.DominatorSpec
    budget: int
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
        lo, up = vanveen.squeeze_bounds_many(g.k, x[window])
        uhw = uh[window]
        lower_acc[window] = uhw <= lo
        upper_rej[window] = uhw > up
    undecided = ~(lower_acc | upper_rej)
    # the group's last needed accept comes at or before its need-th lower
    # accept, so the undecided proposals after that lie past the cut
    accepts = np.flatnonzero(lower_acc)
    if accepts.size >= need:
        undecided[accepts[need - 1] :] = False
    return _Block(x, uh, lower_acc, upper_rej, np.flatnonzero(undecided))


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
        evaluated = b.lanes[: np.searchsorted(b.lanes, cut)]
        outside = int(np.count_nonzero(np.abs(b.x[evaluated]) > g.spec.x1))
        stats.exact_in_window += evaluated.size - outside
        stats.exact_out_of_window += outside
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
            groups.append(_Group(k, count, offset, spec, max_proposals * count))
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
    ``exact_evals`` is ``exact_in_window + exact_out_of_window``.
    """

    n: int
    mode: str
    accepted: int
    proposals: int
    exact_evals: int
    exact_in_window: int
    exact_out_of_window: int
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
    if samples_per_n < 1:
        raise ParameterError(f"samples_per_n must be >= 1, got {samples_per_n}")
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
                exact_in_window=stats.exact_in_window,
                exact_out_of_window=stats.exact_out_of_window,
                proposals_per_accept=stats.proposals / max(stats.accepted, 1),
                exact_share=stats.exact_evals / max(stats.proposals, 1),
                cost_proxy=(stats.proposals + n * stats.exact_evals)
                / max(stats.accepted, 1),
                ns_per_sample=1e9 * stats.elapsed / max(stats.accepted, 1),
            )
        )
    return rows
