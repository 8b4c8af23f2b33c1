"""Exact single-eigenvalue samplers.

Four layers, all targeting the same densities exactly:

* plain rejection from a hat of :mod:`guegen.dominator`, certified or
  level, paying one O(k) recurrence evaluation per proposal;
* squeeze-accelerated rejection, which resolves most proposals inside
  the squeeze window |x| <= x1 against the constant-time sandwich bounds
  and falls back to the exact recurrence on the inconclusive band and
  outside the window;
* the uniform-index mixture: pick K uniform on {0, ..., n-1}, draw from
  the squared Hermite function density of degree K.  The result is one
  uniformly chosen eigenvalue of an n x n GUE matrix in the unscaled
  convention (spectrum ~ [-2 sqrt(n), 2 sqrt(n)]);
* for 2 <= n <= ``N_GRID``, rejection from the certified grid hat of the
  mixture density itself (:func:`dominator.grid_hat`), with no index
  draws: 1.02-1.06 proposals per draw (n = 256 down to 2) against about
  3.1 for the per-degree hats, and a squeeze level per cell that leaves
  4-9% of the draws to one exact mixture-density evaluation each.

Degree 0 short-circuits to a standard normal draw, since the degree-0
density is exactly the standard normal density, and so does n = 1.

Both entry points run one rejection engine, which never asks what kind
of hat it runs.  It takes groups of draws, each with its hat, and the
density the hats bound as an exact test that the caller names:
``sample_phi_sq_many`` passes one degree's hat and
:func:`hermite.phi_squared_many`; ``sample_gue_eigenvalues`` above
``N_GRID`` draws all mixture indices, passes the hat of every
represented degree, and tests them together with
:func:`hermite.phi_squared_degrees`; up to ``N_GRID`` it passes the
grid hat alone and :func:`hermite.mixture_density_many`.

In each round every unfinished group draws a proposal block and its
squeeze verdicts from :func:`dominator.propose`, the one place that
knows how each kind of hat proposes and squeezes, and the proposals
left undecided in all groups share one exact call.  Over mixed degrees
that is one pass of the recurrence, which costs the largest degree of
the round in Python-level steps rather than the sum of the degrees.

Undecided proposals that lie after a block's ``need``-th lower-squeeze
accept are never evaluated: the group's last needed accept comes at or
before that point, so they lie past the cut and would be discarded.

There is one budget: each group may spend ``max_proposals * count``
proposals, where ``count`` is its number of draws, and raises BudgetError
when it needs more.  Every output is a deterministic function of (seed,
parameters), and in both modes the same: squeeze mode only skips exact
tests whose outcome the squeeze already decided.

A degree group takes the certified hat only when its count pays for
the hat's O(k) certificate pass (:func:`dominator._certified_pays`):
a group of one draw takes the level hat, and larger groups the
certified hat.  The rule reads the count alone, never the spec caches,
so a seed's draws do not depend on call history; but what each hat
costs does.  Mean ms of a one-degree ``sample_phi_sq_many(k, count)``
call, level minus certified, paired, with its standard error, over 201
interleaved pairs on fresh seeds on a 2-core x86-64 box (Python 3.11,
numpy 2.4).  "Cold" clears both spec caches before each call, "warm"
has both hats of degree k cached, as a repeated call finds them:

    count   k = 1e2          k = 1e3          k = 1e4          k = 1e5
            cold    warm     cold    warm     cold    warm     cold   warm
    1       -0.09   +0.03    -0.15   +0.06    -0.54   +0.30    -6.1   +1.5
    2       -0.12   +0.04    -0.09   +0.14    -0.25   +0.53    -3.5   +3.5
    3       -0.12   +0.06    -0.06   +0.14    -0.19   +0.96    -2.9   +6.2
    4       -0.11   +0.05    -0.02   +0.19    +0.14   +1.02    -1.0   +6.6
    5       -0.11   +0.06    +0.04   +0.20    +0.61   +1.24    +1.2   +7.0
    6       -0.09   +0.06    +0.07   +0.31    +0.70   +1.65    +2.8   +11.0
    SE      0.01    0.01     0.02    0.02     0.06-0.14        0.4-0.9

The certified call takes 0.6-0.7 ms cold and 0.35-0.5 ms warm at
k = 1e2, and 8.6-13 ms cold and 1.3-5.2 ms warm at k = 1e5.  Cold, the
level hat wins through count 3 at every degree from 1 to 1e5 (count 4
ties at 1e3 to 1e5); its edge at k = 1e2 is the pass's fixed numpy cost of about
0.1 ms and holds through count 10.  Warm, the certified hat wins every
cell, as the level hat's larger mass and exact share are then all that
differs.  The rule takes the level hat where a call made once cold and
once warm costs less on it in total.  Count 1 passes at every degree;
count 2 fails at 1e3 (+0.05 +- 0.03 ms) and 1e4 (+0.28 +- 0.12) and
ties at 1e5 (-0.02 +- 0.8).  Count 1 passes at the degrees around them
too: at k = 1, 3, 10 and 30 counts 1-3 save 0.11-0.13 ms cold and cost
0.00-0.03 ms warm, and at k = 1e6 (41 pairs) count 1 saves 133 +- 9 ms
cold and costs 10 +- 9 ms warm, where the certified call takes 160 ms
cold.  Counts 2-3 at k <= 1e2 (counts 4-10 at 1e2 as well) and count 2
at 1e6 would pass too; the rule keeps one threshold at every degree
instead of fitting those cells, which gives up at most 0.13 ms a
cold-warm pair of calls at k <= 1e2 and about 0.11 s at k = 1e6.  Cold
alone would put the threshold at count 3 or more at every degree; at
k = 1e5 a repeated 3-draw call would then take 9.2 ms instead of 3.0.
The lane-step proxy of :mod:`guegen.verify` criterion 4 (k for the pass
plus count * mass * (1 + k p) for the draws, p the exact share) puts
the cold break-even near count 1.5, 2.1, 3.0 and 4.5 at k = 1e2 ...
1e5; cold wall time is near it at 1e4 and 1e5 and above it at 1e2 and
1e3, where the pass's fixed cost dominates.

The table predates the table of level-hat splits
(:func:`dominator._level_splits`), the cheaper proposal helpers and the
leaner exact-call entry, and was not measured again.  Its "cold" means
nothing cached, that table included, so a cold level hat still pays its
x_c search; one whose x_c is in the table builds in 7-10 us instead of
30-47 us, which favours the level hat further in calls that find it.

Repeated calls at large n and small counts therefore keep paying the
level hat's larger exact share: a warm
``sample_gue_eigenvalues(1e5, 100)`` takes about 140 ms against 60 ms
when its degrees' certified hats were cached, while a cold one takes
about 150 ms against 230 ms, and a cold ``(1e6, 1)`` about 0.8 ms
against 95 ms (medians of 9 on the same box).

The grid costs O(n^(3/2)) recurrence steps to build, which a cold call
pays once; it is then cached.  Milliseconds per call of 1 and of 100
draws on the same box, per-degree engine / grid hat, medians of 15
interleaved calls; "cold" clears every hat cache before each call,
"warm" runs the same call first:

    n       cold 1        warm 1        cold 100       warm 100
    2       0.42 / 0.51   0.10 / 0.09    0.67 / 0.62    0.44 / 0.23
    6       0.46 / 0.51   0.36 / 0.10    1.50 / 0.64    1.03 / 0.22
    16      0.53 / 0.55   0.34 / 0.11    3.24 / 0.66    2.20 / 0.24
    64      0.46 / 0.68   0.37 / 0.10    8.97 / 0.85    6.48 / 0.25
    128     0.47 / 0.90   0.37 / 0.10   11.82 / 1.08    8.51 / 0.27
    256     0.41 / 1.42   0.39 / 0.10   14.41 / 1.57   11.24 / 0.32
    1024    0.55 / 5.58   0.40 / 0.13   16.79 / 5.93   13.62 / 0.57

The grid wins every warm call and every call of 100 draws.  A cold
call of one draw pays the grid's build, which grows like n^(3/2), while
the per-degree engine's level hat needs no set-up: at n = 256 the build
costs about 1.3 ms, which the grid's saving of about 0.11 ms a draw
recovers within about 12 draws, and at n = 1024 about 5.5 ms, recovered
within about 42.  ``N_GRID`` = 256 keeps that one-off cost under 1.5 ms.

The grid hat's cell width ``dominator.GRID_STEP`` = 0.02 comes from
the same box: 8200 draws at n = 6 (the size the chain of
:mod:`guegen.joint` asks for at n = 6) cost, in ms, with the hat's mass
and cell count:

    width    0.1                  0.05                 0.02                 0.01
    n = 6    0.85 (1.186, 194)    0.71 (1.093, 388)    0.65 (1.037, 968)    0.65 (1.019, 1936)
    n = 256  1.44 (1.098, 668)    1.16 (1.049, 1334)   1.03 (1.020, 3334)   1.06 (1.010, 6666)
"""

import itertools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dominator, hermite
from .errors import BudgetError, ParameterError, whole
from .rng import RandomStream

DEFAULT_MAX_PROPOSALS = 10**6
_MAX_BLOCK = 1_500_000  # proposals in one group's block
_BLOCK_CAP = 1_500_000  # proposals in one exact call, about; splits no block
N_GRID = 256  # mixtures of 2 ... N_GRID degrees draw from the grid hat (table above)


@dataclass
class SamplerStats:
    """Counters describing the work a sampler performed.

    ``exact_in_window`` and ``exact_out_of_window`` count proposals whose
    decision needed the O(k) recurrence, inside the squeeze window
    |x| <= x1 and outside it (for the grid hat: on its cells and in its
    tails): in squeeze mode the in-window inconclusive proposals and
    every out-of-window proposal, in plain mode every proposal.
    ``exact_evals`` is their sum.  Like every counter here they stop at
    the group's cut, the proposal that gave its last needed accept.

    ``exact_discarded`` counts the proposals the exact call evaluated past
    the cut, which the counts above leave out: a block's undecided
    proposals all share one exact call, before it is known which of them
    gives the group's last accept.  Evaluating them in rounds until the
    cut is known costs more than it saves: on ``mixture-n1e4`` (n = 1e4,
    4 draws a call) a prototype cut the lane-steps from 15.3k to 13.2k a
    call but raised the exact calls from 0.92 to 1.91, at about 50 us of
    entry each, and the call went from 1.18 to 1.46 ms.

    Four figures derive from the counters, each over max(accepted, 1) or
    max(proposals, 1), so an empty record reads 0: ``proposals_per_accept``;
    ``exact_share``, the share of proposals that needed the recurrence;
    ``ns_per_sample``, wall time per accepted draw; and ``cost_proxy(n)``,
    the Wald-style work per accepted draw, counting one unit per
    constant-time proposal and n per O(n) recurrence evaluation.  It takes
    n because the record does not know it: one call may span many
    degrees, as a mixture's does, so the caller names the degree that
    prices the exact evaluations.
    """

    proposals: int = 0
    squeeze_lower_accepts: int = 0
    squeeze_upper_rejects: int = 0
    exact_in_window: int = 0
    exact_out_of_window: int = 0
    exact_discarded: int = 0
    accepted: int = 0
    elapsed: float = 0.0

    @property
    def exact_evals(self):
        return self.exact_in_window + self.exact_out_of_window

    @property
    def proposals_per_accept(self):
        return self.proposals / max(self.accepted, 1)

    @property
    def exact_share(self):
        return self.exact_evals / max(self.proposals, 1)

    @property
    def ns_per_sample(self):
        return 1e9 * self.elapsed / max(self.accepted, 1)

    def cost_proxy(self, n):
        return (self.proposals + n * self.exact_evals) / max(self.accepted, 1)


@dataclass
class _Group:
    """Rejection state of the draws of one hat inside an engine call: a
    degree's hat, or the grid hat of a mixture."""

    count: int
    offset: int  # where the group's draws start in the engine output
    hat: dominator.DominatorSpec | dominator.GridHat
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


def _checked(count, mode, max_proposals):
    """Check ``mode``; return ``count`` and ``max_proposals`` as ints."""
    if mode not in ("plain", "squeeze"):
        raise ParameterError(f"mode must be 'plain' or 'squeeze', got {mode!r}")
    return whole("count", count, 0), whole("max_proposals", max_proposals, 1)


def _propose(g, stream, use_squeeze):
    """Draw the group's next proposal block and apply the squeeze."""
    need = g.count - g.filled
    block = int(need * g.hat.mass * 1.2) + 32  # mass = mean proposals per accept
    block = min(block, _MAX_BLOCK, g.budget - g.spent)
    if block <= 0:
        raise BudgetError(
            f"no acceptance within {g.budget} proposals at {g.hat.label}", attempts=g.budget
        )
    x, uh, lower_acc, upper_rej = dominator.propose(g.hat, stream, block, use_squeeze)
    lanes = (~(lower_acc | upper_rej)).nonzero()[0]
    # the group's last needed accept comes at or before its need-th lower
    # accept, so the undecided proposals after that lie past the cut
    accepts = lower_acc.nonzero()[0]
    if accepts.size >= need:
        lanes = lanes[: lanes.searchsorted(accepts[need - 1])]
    return _Block(x, uh, lower_acc, upper_rej, lanes)


def _decide(batch, exact, out, stats):
    """Exact-test the undecided proposals of every (group, block) pair in
    ``batch`` with one ``exact`` call, then take each group's accepts.

    Counters reflect the sequential semantics: a block is truncated at the
    proposal that produced the group's last needed accept, and everything
    after it is discarded as if never drawn.
    """
    xs = np.concatenate([b.x[b.lanes] for _, b in batch])
    sizes = [b.lanes.size for _, b in batch]
    phi = exact(xs, [g.hat for g, _ in batch], sizes) if xs.size else xs
    start = 0
    for (g, b), size in zip(batch, sizes):
        accept = b.lower_acc.copy()
        accept[b.lanes] = b.uh[b.lanes] <= phi[start : start + size]
        need = g.count - g.filled
        pos = accept.nonzero()[0]
        cut = int(pos[need - 1]) + 1 if pos.size >= need else b.x.size
        take = pos[:need]
        out[g.offset + g.filled : g.offset + g.filled + take.size] = b.x[take]
        g.filled += take.size
        g.spent += cut
        stats.proposals += cut
        stats.squeeze_lower_accepts += int(np.count_nonzero(b.lower_acc[:cut]))
        stats.squeeze_upper_rejects += int(np.count_nonzero(b.upper_rej[:cut]))
        evaluated = int(b.lanes.searchsorted(cut))  # the lanes before the cut
        outside = int(np.count_nonzero(np.abs(xs[start : start + evaluated]) > g.hat.x1))
        stats.exact_in_window += evaluated - outside
        stats.exact_out_of_window += outside
        stats.exact_discarded += size - evaluated
        stats.accepted += take.size
        start += size


def _sample(hats, counts, exact, stream, mode, stats, max_proposals):
    """The rejection engine: ``counts[i]`` exact draws from the density
    bounded by hat ``i``, returned concatenated in group order.

    ``hats()`` builds the hats, inside the timed span; a group whose hat
    is None draws plain standard normals, the density of degree 0.
    ``exact(x, hats, sizes)`` is the density at the points ``x``, which
    concatenate ``sizes[j]`` proposals from ``hats[j]``.

    Each group draws proposal blocks, sized from its hat's mass, until it
    has its count, spending at most ``max_proposals * count`` proposals.
    In each round every unfinished group, in order, draws its block and
    applies the squeeze; the proposals the squeeze leaves undecided in all
    groups then share one ``exact`` call.  A round's blocks are evaluated
    in batches of at most about ``_BLOCK_CAP`` proposals, which bounds
    memory.  The exact recurrence gives each point the same bits in any
    batch, and the stream is consumed block by block, so where a round
    splits changes no draw, counter or stream position.
    """
    t0 = time.perf_counter()
    stats = SamplerStats() if stats is None else stats
    out = np.empty(sum(counts))
    groups = []
    for hat, count, offset in zip(hats(), counts, itertools.accumulate(counts, initial=0)):
        if hat is None:
            out[offset : offset + count] = stream.standard_normals(count)
            stats.proposals += count
            stats.accepted += count
        elif count:
            groups.append(_Group(count, offset, hat, max_proposals * count))
    while groups:
        batch, size = [], 0
        for g in groups:
            block = _propose(g, stream, mode == "squeeze")
            batch.append((g, block))
            size += block.x.size
            if size >= _BLOCK_CAP:
                _decide(batch, exact, out, stats)
                batch, size = [], 0
        if batch:
            _decide(batch, exact, out, stats)
        groups = [g for g in groups if g.filled < g.count]
    stats.elapsed += time.perf_counter() - t0
    return out


def _degree_hats(degrees, counts):
    """The hat of each degree with draws: the certified hat where the
    group's count pays for its certificate pass, all of them from one
    :func:`dominator.make_specs` call, else the level hat; None for degree
    0, and for degrees without draws, which need no hat and draw nothing."""
    pays = {True: [], False: []}
    for k, count in zip(degrees, counts):
        if k and count:
            pays[dominator._certified_pays(count)].append(k)
    specs = dict(zip(pays[True], dominator.make_specs(pays[True]))) if pays[True] else {}
    specs.update((k, dominator._level_spec(k)) for k in pays[False])
    return [specs.get(k) for k in degrees]


def _degree_density(x, hats, sizes):
    """phi_k^2 at the points of a mixture's batch, k the degree of each
    point's hat: one pass of the recurrence for all the batch's degrees."""
    return hermite.phi_squared_degrees(np.repeat([h.n for h in hats], sizes), x)


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
    k = whole("degree", k, 0)
    count, max_proposals = _checked(count, mode, max_proposals)
    return _sample(
        lambda: _degree_hats([k], [count]),
        [count],
        lambda x, *_: hermite.phi_squared_many(k, x),
        stream, mode, stats, max_proposals,
    )


def sample_gue_eigenvalues(
    n,
    count,
    stream,
    mode="squeeze",
    stats=None,
    max_proposals=DEFAULT_MAX_PROPOSALS,
):
    """``count`` uniformly chosen GUE(n) eigenvalues, vectorized.

    For 2 <= n <= ``N_GRID``, rejection from the grid hat of the mixture
    density, which may spend ``max_proposals * count`` proposals. Above
    ``N_GRID`` (and at n = 1), draws all mixture indices first, then
    hands every represented degree to the rejection engine as one group,
    so the exact recurrence runs once per round for all degrees together;
    draw ``i`` comes from the degree of index draw ``i``, and each degree
    group may spend ``max_proposals`` times its number of draws in
    proposals. Either raises BudgetError past its budget.
    """
    n = whole("ensemble size", n, 1)
    count, max_proposals = _checked(count, mode, max_proposals)
    if 2 <= n <= N_GRID:
        return _sample(
            lambda: [dominator.grid_hat(n)],
            [count],
            lambda x, *_: hermite.mixture_density_many(n, x),
            stream, mode, stats, max_proposals,
        )
    ks = stream.indices(n, count)
    order = np.argsort(ks, kind="stable")
    ks = ks[order]
    starts = hermite.run_starts(ks)
    degrees = ks[starts].tolist()
    counts = np.diff([*starts, count]).tolist()
    out = np.empty(count)
    out[order] = _sample(
        lambda: _degree_hats(degrees, counts),
        counts,
        _degree_density,
        stream, mode, stats, max_proposals,
    )
    return out


# ----------------------------------------------------------------------
# benchmarking
# ----------------------------------------------------------------------


def benchmark(mode, n_list, samples_per_n, seed=0):
    """Run ``sample_phi_sq_many`` at each degree of ``n_list`` and return
    one :class:`SamplerStats` per degree, in the order of ``n_list``;
    ``stats.cost_proxy(n)`` is the record's cost per accepted draw.

    The degrees are checked before anything is drawn.  The i-th degree
    draws from the i-th stream derived from ``seed``, so a record depends
    on its degree and its position, not on the other degrees.
    """
    degrees = whole("degrees", n_list, 0)
    if np.ndim(degrees) != 1 or not np.size(degrees):
        raise ParameterError(f"degrees must be a nonempty list, got {n_list!r}")
    samples_per_n = whole("samples_per_n", samples_per_n, 1)
    records = [SamplerStats() for _ in degrees]
    for n, st, stats in zip(degrees, RandomStream(seed).spawn(len(degrees)), records):
        sample_phi_sq_many(n, samples_per_n, st, mode, stats)
    return records
