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
  4-9% of the draws to one exact mixture-density evaluation each;
* for 1 <= k <= K = ``dominator.GRID_DEGREES`` and counts from T(k) on,
  rejection from the degree grid of phi_k^2 (:func:`dominator.degree_grid`):
  1.036-1.050 proposals per draw against 3.4-3.6 for the degree's hat,
  and 6-7% of the proposals to one exact evaluation each.

Degree 0 short-circuits to a standard normal draw, since the degree-0
density is exactly the standard normal density, and so does n = 1.

Both entry points run one rejection engine, which never asks what kind
of hat it runs.  It takes groups of draws, each with its hat, and the
density the hats bound as an exact test that the caller names:
``sample_phi_sq_many`` passes one degree's hat or degree grid and
:func:`hermite.phi_squared_many`; ``sample_gue_eigenvalues`` above
``N_GRID`` draws all mixture indices, passes the hat of every
represented degree, and tests them together with
:func:`hermite.phi_squared_degrees`; up to ``N_GRID`` it passes the
grid hat alone and :func:`hermite.mixture_density_many`.

A call of one group (one degree, the grid hat, or a mixture whose draws
share one degree) runs its rounds on Python scalars
(:func:`_sample_one`): one block a round, drawn by a
:func:`dominator.propose` call that reads its hat's fields as scalars.
A call of several groups proposes each round's unfinished groups in
passes: :func:`dominator.propose`, the one place that knows how each
kind of hat proposes and squeezes, reads each group's stream words in
turn and then serves every group of the pass with one call each of its
envelope draw, hat values and van Veen squeeze, on the hat fields and
degrees of each proposal.  The proposals left undecided in all groups
share one exact call, and each group's cut, accepts and counters are
then taken by array operations over the pass.  Over mixed degrees the
exact call is one pass of the recurrence, which costs the largest
degree of the round in Python-level steps rather than the sum of the
degrees.  A pass runs over consecutive groups of at most about
``_PASS_CAP`` proposals in all, which bounds the per-proposal hat
fields it holds, and exact calls over passes of at most about
``_BLOCK_CAP``.  Against one :func:`dominator.propose` call and one
bookkeeping step per group, every draw, counter and stream position is
the same.  A call of many groups costs less: medians of seven paired
calls in one process on a 2-core x86-64 box (Python 3.11, numpy 2.4),
per-group rounds / passes: ``sample_gue_eigenvalues(1000, 10 000)``
127 / 44 ms, ``(1e4, 1000)`` 131 / 44 ms, and a fresh process's
``(1e4, 1e6)`` 3.9-4.1 / 3.2-3.3 s at a peak RSS of 124 / 114 MB; a
``mixture-n1e4`` call (four groups) spends about 340 / 190 us
proposing.  A call of one group would cost more in passes, whose array
set-up outweighs what one group saves: paired calls in one process on
the same box read the pass's bookkeeping at 1.20 times the scalar
rounds' time on ``sample_gue_eigenvalues(6, 8200)`` and 1.10 times on
``sample_phi_sq_many(100, 2000)``, and a propose call of 2600 proposals
from one hat at 636 us on per-proposal hat fields against 478 us on
scalars.

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

A ``sample_phi_sq_many(k, count)`` call takes the degree grid when
1 <= k <= K and count >= T(k) (:func:`_grid_pays`), reading (k, count)
alone, by the rule of the level hat: where a call made once cold and
once warm costs less on the grid in total.  Milliseconds of cold plus
warm grid calls minus cold plus warm calls on the degree's hat, medians
of 15-21 interleaved pairs on fresh seeds, 2-core x86-64 box (Python
3.11, numpy 2.4); "cold" clears every hat cache before the call, and a
warm call repeats it on the next seed (rows from separate runs of the
same cell are both shown):

    k     count: grid minus hat, cold + warm                        crossover
    1     1: +0.01   2: -0.18   8: -0.12   50: -0.10   500: -0.65     2
    10    1: +0.10   2: -0.15   10: -0.05  100: -0.10  800: -1.03     2
    30    100: +0.06  200: +0.08, -0.03  250: +0.03  300: -0.07      about 270
    60    450: +0.49  600: +0.21  800: -0.06                          about 780
    100   1000: +0.39, +0.84  1200: +0.07  1300: 0.00  1400: -0.23
          1600: -0.55, -0.64  2000: -1.05, -1.29                      about 1300
    160   2500: +0.12  3000: -0.66  3500: -1.36                       about 2550
    256   5000: +1.7, +1.9  6000: +1.2  7000: -0.10  8000: -2.8, -1.6 about 6900

The grid's cold call pays its build, 0.3 ms at k = 1 and 10 ms at
k = 256 (:mod:`guegen.dominator`), and then saves about 0.75-0.85 us a
draw: 2000 warm draws take 0.2 ms at k = 1 and 0.35 ms at k = 100 on
the grid against 1.9 ms on the hat.  Below k = 20 the hat's fixed cost
per call, about 0.2 ms more than the grid's, also outweighs the build.
T(k) = max(2, ceil(1.45 k^1.5)), the least-squares power law through
the crossovers from k = 60 to 256, gives 2, 46, 239, 674, 1450, 2935 and
5940 at k = 1, 10, 30, 60, 100, 160 and 256.  It keeps calls of up to
about 40 draws at k = 10 to 20 on the hat, where the grid would save at
most 0.15 ms a cold-warm pair.  K = 256 is the largest power of two
whose grid keeps ``dominator.sample_grid_many``'s coin bits with m + 2
< 2^17 (55 810 cells; 2^17 would be passed near k = 520), and its grid
takes 2.0 MB.  The degree grids' cell width is set by
``dominator.DEGREE_STEP`` = 0.22, from 2000-draw warm calls on the same
box, in ms, with the hat's mass and cell count (width = DEGREE_STEP /
sqrt(I), module docstring of :mod:`guegen.dominator`):

    DEGREE_STEP   0.13                   0.22                   0.31
    k = 1         0.20 (1.020, 1922)     0.20 (1.050, 1154)     0.20 (1.093, 824)
    k = 100       0.33 (1.013, 31 594)   0.35 (1.036, 18 956)   0.39 (1.076, 13 540)
    k = 256       0.50 (1.012, 93 016)   0.56 (1.038, 55 810)   0.59 (1.078, 39 864)

and builds in 0.44 / 0.33 / 0.29 ms at k = 1, 5.4 / 2.4 / 2.0 ms at
k = 100 and 22 / 9.0 / 7.1 ms at k = 256: 0.13 costs twice the build
for at most 0.06 ms a call, and 0.31 saves a fifth of it for more
exact evaluations (13% of the proposals at k = 100 against 6.5%).

The grid hat's cell width ``dominator.GRID_STEP`` = 0.02 comes from
the same box: 8200 draws at n = 6 (the size the chain of
:mod:`guegen.joint` asks for at n = 6) cost, in ms, with the hat's mass
and cell count:

    width    0.1                  0.05                 0.02                 0.01
    n = 6    0.85 (1.186, 194)    0.71 (1.093, 388)    0.65 (1.037, 968)    0.65 (1.019, 1936)
    n = 256  1.44 (1.098, 668)    1.16 (1.049, 1334)   1.03 (1.020, 3334)   1.06 (1.010, 6666)
"""

import bisect
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import dominator, hermite
from .errors import BudgetError, ParameterError, whole
from .rng import RandomStream

DEFAULT_MAX_PROPOSALS = 10**6
_MAX_BLOCK = 1_500_000  # proposals in one group's block
_BLOCK_CAP = 1_500_000  # proposals in one exact call, about; splits no pass
_PASS_CAP = 16_384  # proposals in one proposal pass, about; splits no block; rows of about 2 MB
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

    Two timers measure parts of ``elapsed``: ``propose_s``, the seconds in
    proposal passes (envelope draws, hat values, squeeze and lane
    pruning), and ``exact_s``, the seconds spent in exact calls.  They
    count all the work done, past the cut too, and are left out of
    comparisons, so records compare on their counters alone.

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
    propose_s: float = field(default=0.0, compare=False)
    exact_s: float = field(default=0.0, compare=False)

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


class _Groups:
    """Rejection state of the groups of an engine call, one entry per
    group: the draws of one hat, a degree's or the grid hat of a mixture."""

    def __init__(self, hats, counts, offsets, max_proposals):
        self.hats = hats
        self.max_proposals = max_proposals  # a group may spend max_proposals * count
        # budgets past 2^62 proposals are never reached, and stay within int64
        budgets = (min(max_proposals * c, 2**62) for c in counts)
        table = np.array([(h.n, c, o, b) for h, c, o, b in zip(hats, counts, offsets, budgets)])
        self.degree, self.count, self.offset, self.budget = table.T
        self.filled, self.spent = np.zeros((2, len(hats)), dtype=np.int64)
        # each hat's mean proposals per accept, and its squeeze-window edge
        self.mass, self.x1 = np.array([(h.mass, h.x1) for h in hats]).T


class _Block(NamedTuple):
    """Proposals and the squeeze's verdicts on them: the block of a call's
    one group, or the blocks of the consecutive groups of one proposal
    pass, concatenated."""

    x: np.ndarray  # proposals
    uh: np.ndarray  # u * h(x), compared against the density
    lower_acc: np.ndarray  # accepted by the lower squeeze bound
    upper_rej: np.ndarray  # rejected by the upper squeeze bound
    lanes: np.ndarray  # ascending positions of the proposals left to the exact test
    groups: np.ndarray | None = None  # a pass's groups, ascending
    starts: np.ndarray | None = None  # where each group's block starts in a pass, then the end


def _checked(count, mode, max_proposals):
    """Check ``mode``; return ``count`` and ``max_proposals`` as ints."""
    if mode not in ("plain", "squeeze"):
        raise ParameterError(f"mode must be 'plain' or 'squeeze', got {mode!r}")
    return whole("count", count, 0), whole("max_proposals", max_proposals, 1)


def _over_budget(hat, budget):
    return BudgetError(f"no acceptance within {budget} proposals at {hat.label}", attempts=budget)


def _count(stats, spent, lower, evaluated, outside, lanes, took):
    """Add a block, or a pass of blocks, to ``stats``: ``spent`` proposals
    before the cuts, ``lower`` of them lower-squeeze accepts and
    ``evaluated`` of them evaluated lanes, ``outside`` of those outside
    the squeeze window; then ``lanes`` evaluated in all and ``took`` draws
    taken."""
    stats.proposals += spent
    stats.squeeze_lower_accepts += lower
    # before its group's cut a proposal is a lower-squeeze accept, an
    # upper-squeeze reject or an evaluated lane: the pruned lanes lie past it
    stats.squeeze_upper_rejects += spent - lower - evaluated
    stats.exact_in_window += evaluated - outside
    stats.exact_out_of_window += outside
    stats.exact_discarded += lanes - evaluated
    stats.accepted += took


def _sample_one(hat, count, exact, stream, use_squeeze, stats, max_proposals, out):
    """The rounds of a call of one group, on Python scalars: ``count``
    draws from ``hat`` into ``out``.  Each round proposes one block, sized
    from the hat's mass, and leaves out of its lanes the undecided
    proposals after its need-th lower accept, which lie past the cut."""
    budget, filled, spent = max_proposals * count, 0, 0
    while filled < count:
        need = count - filled
        size = min(int(need * hat.mass * 1.2) + 32, _MAX_BLOCK, budget - spent)
        if size <= 0:
            raise _over_budget(hat, budget)
        t1 = time.perf_counter()
        x, uh, lower_acc, upper_rej = dominator.propose([hat], stream, [size], use_squeeze)
        lanes = (~(lower_acc | upper_rej)).nonzero()[0]
        accepts = lower_acc.nonzero()[0]
        if accepts.size >= need:
            lanes = lanes[: lanes.searchsorted(accepts[need - 1])]
        stats.propose_s += time.perf_counter() - t1
        block = _Block(x, uh, lower_acc, upper_rej, lanes)
        took, cut = _decide_one(block, need, hat, exact, out[filled:], stats)
        filled += took
        spent += cut


def _decide_one(b, need, hat, exact, out, stats):
    """Exact-test the lanes of the block ``b`` of a call's one group, take
    its first ``need`` accepts into ``out`` and count the block up to its
    cut; return the draws taken and the cut."""
    xs = b.x[b.lanes]
    accept = b.lower_acc.copy()
    if xs.size:
        t0 = time.perf_counter()
        accept[b.lanes] = b.uh[b.lanes] <= exact(xs, [hat.n], [xs.size])
        stats.exact_s += time.perf_counter() - t0
    pos = accept.nonzero()[0]
    cut = int(pos[need - 1]) + 1 if pos.size >= need else b.x.size
    take = pos[:need]
    out[: take.size] = b.x[take]
    evaluated = int(b.lanes.searchsorted(cut))
    outside = int(np.count_nonzero(np.abs(xs[:evaluated]) > hat.x1))
    lower = int(np.count_nonzero(b.lower_acc[:cut]))
    _count(stats, cut, lower, evaluated, outside, b.lanes.size, take.size)
    return take.size, cut


def _block_sizes(groups, active):
    """The block size of each group of ``active`` this round, sized from
    its hat's mass; BudgetError for the first that has spent its budget."""
    need = groups.count[active] - groups.filled[active]
    sizes = (need * groups.mass[active] * 1.2).astype(np.int64) + 32
    sizes = np.minimum(sizes, np.minimum(groups.budget - groups.spent, _MAX_BLOCK)[active])
    if sizes.min() <= 0:
        g = int(active[(sizes <= 0).argmax()])
        raise _over_budget(groups.hats[g], groups.max_proposals * int(groups.count[g]))
    return need, sizes


def _passes(sizes):
    """Slices of runs of consecutive blocks whose sizes total at most
    ``_PASS_CAP``, or of one block that is larger alone."""
    ends = sizes.cumsum().tolist()
    lo, done = 0, 0
    while lo < len(ends):
        hi = max(bisect.bisect_right(ends, done + _PASS_CAP), lo + 1)
        yield slice(lo, hi)
        lo, done = hi, ends[hi - 1]


def _propose(groups, pass_groups, need, sizes, stream, use_squeeze):
    """Draw the next block of each group of ``pass_groups`` in one proposal
    pass, apply the squeeze, and leave out of each group's lanes the
    undecided proposals after its need-th lower accept."""
    hats = [groups.hats[g] for g in pass_groups.tolist()]
    x, uh, lower_acc, upper_rej = dominator.propose(hats, stream, sizes.tolist(), use_squeeze)
    starts = np.concatenate(([0], sizes.cumsum()))
    lanes = (~(lower_acc | upper_rej)).nonzero()[0]
    # a group's last needed accept comes at or before its need-th lower
    # accept, so the undecided proposals after that lie past the cut
    accepts = lower_acc.nonzero()[0]
    first = accepts.searchsorted(starts)
    enough = first[1:] - first[:-1] >= need
    if enough.any():
        limit = starts[1:].copy()
        limit[enough] = accepts[(first[:-1] + need - 1)[enough]]
        ends = lanes.searchsorted(starts)
        lanes = lanes[lanes < limit.repeat(ends[1:] - ends[:-1])]
    return _Block(x, uh, lower_acc, upper_rej, lanes, pass_groups, starts)


def _decide(batch, exact, groups, out, stats):
    """Exact-test the undecided proposals of every pass in ``batch`` with
    one ``exact`` call, then take each group's accepts.

    Counters reflect the sequential semantics: a group's block is
    truncated at the proposal that produced its last needed accept, and
    everything after it is discarded as if never drawn.  The groups of a
    pass are decided together, by array operations over the pass
    (:func:`_take`).
    """
    ends = [b.lanes.searchsorted(b.starts) for b in batch]
    lane_counts = [e[1:] - e[:-1] for e in ends]
    xs = np.concatenate([b.x[b.lanes] for b in batch])
    phi = xs
    if xs.size:
        t0 = time.perf_counter()
        degrees = np.concatenate([groups.degree[b.groups] for b in batch])
        phi = exact(xs, degrees, np.concatenate(lane_counts))
        stats.exact_s += time.perf_counter() - t0
    start = 0
    for b, counts in zip(batch, lane_counts):
        stop = start + b.lanes.size
        accept = b.lower_acc.copy()
        accept[b.lanes] = b.uh[b.lanes] <= phi[start:stop]
        _take(b, accept, xs[start:stop], counts, groups, out, stats)
        start = stop


def _take(b, accept, xs, counts, groups, out, stats):
    """Take the accepts of the groups of the pass ``b`` by array operations
    over the pass, given ``accept`` on every proposal, ``xs``, the points
    of its lanes, and ``counts``, each group's number of lanes: cut each
    group's block past its need-th accept, fill the group's next slots of
    ``out`` and count the pass up to the cuts."""
    g, starts = b.groups, b.starts
    need = groups.count[g] - groups.filled[g]
    pos = accept.nonzero()[0]
    first = pos.searchsorted(starts)
    have = first[1:] - first[:-1]
    full = have >= need
    cut = starts[1:].copy()  # past the need-th accept, or the whole block
    cut[full] = pos[(first[:-1] + need - 1)[full]] + 1
    spent = cut - starts[:-1]
    live = np.arange(b.x.size) < cut.repeat(starts[1:] - starts[:-1])  # before its group's cut
    # each group's accepts before its cut fill its next slots, in order
    taken = pos[live[pos]]
    took = np.minimum(have, need)
    at = groups.offset[g] + groups.filled[g] - took.cumsum() + took
    out[at.repeat(took) + np.arange(taken.size)] = b.x[taken]
    groups.filled[g] += took
    groups.spent[g] += spent
    lanes_before = live[b.lanes]
    outside = np.count_nonzero(lanes_before & (np.abs(xs) > groups.x1[g].repeat(counts)))
    evaluated = np.count_nonzero(lanes_before)
    lower = np.count_nonzero(b.lower_acc & live)
    _count(stats, int(spent.sum()), lower, evaluated, outside, b.lanes.size, taken.size)


def _sample(hats, counts, exact, stream, mode, stats, max_proposals):
    """The rejection engine: ``counts[i]`` exact draws from the density
    bounded by hat ``i``, returned concatenated in group order.

    ``hats()`` builds the hats, inside the timed span; a group whose hat
    is None draws plain standard normals, the density of degree 0.
    ``exact(x, ks, counts)`` is the density at the points ``x``, which
    come ``counts[j]`` at a time from hats of degree ``ks[j]`` (for the
    grid hat, its n).

    Each group draws proposal blocks, sized from its hat's mass, until it
    has its count, spending at most ``max_proposals * count`` proposals.
    A call of one group runs its rounds on Python scalars
    (:func:`_sample_one`).  With several groups, in each round the
    unfinished groups draw their blocks and apply the squeeze in proposal
    passes, each over consecutive groups whose blocks total at most about
    ``_PASS_CAP`` proposals, which bounds the pass's per-proposal hat
    fields; the proposals the squeeze leaves undecided then share one
    ``exact`` call per batch of passes of at most about ``_BLOCK_CAP``
    proposals, which bounds memory.  The exact recurrence gives each point
    the same bits in any batch, a pass gives each proposal the bits its
    group's block alone gives it, and the stream is consumed block by
    block, so where a round splits changes no draw, counter or stream
    position.
    """
    t0 = time.perf_counter()
    stats = SamplerStats() if stats is None else stats
    out = np.empty(sum(counts))
    kept = []
    for hat, count, offset in zip(hats(), counts, itertools.accumulate(counts, initial=0)):
        if hat is None:
            out[offset : offset + count] = stream.standard_normals(count)
            stats.proposals += count
            stats.accepted += count
        elif count:
            kept.append((hat, count, offset))
    use_squeeze = mode == "squeeze"
    if len(kept) == 1:
        hat, count, offset = kept[0]
        _sample_one(hat, count, exact, stream, use_squeeze, stats, max_proposals, out[offset:])
    elif kept:
        groups = _Groups(*zip(*kept), max_proposals)
        while (active := (groups.filled < groups.count).nonzero()[0]).size:
            need, sizes = _block_sizes(groups, active)
            batch, batched = [], 0
            for run in _passes(sizes):
                t1 = time.perf_counter()
                block = _propose(groups, active[run], need[run], sizes[run], stream, use_squeeze)
                stats.propose_s += time.perf_counter() - t1
                batch.append(block)
                batched += block.x.size
                if batched >= _BLOCK_CAP:
                    _decide(batch, exact, groups, out, stats)
                    batch, batched = [], 0
            if batch:
                _decide(batch, exact, groups, out, stats)
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


def _degree_density(x, ks, counts):
    """phi_k^2 at the points of a mixture's batch, k the degree of each
    point's hat: one pass of the recurrence for all the batch's degrees."""
    return hermite.phi_squared_degrees(np.repeat(ks, counts), x)


def _grid_pays(k, count):
    """Whether a ``sample_phi_sq_many(k, count)`` call takes the degree grid
    (:func:`dominator.degree_grid`): for k <= ``dominator.GRID_DEGREES`` and
    counts from ``_grid_count(k)`` on.  Reads (k, count) alone, never the
    caches, so draws never depend on which hats are cached."""
    return 1 <= k <= dominator.GRID_DEGREES and count >= _grid_count(k)


def _grid_count(k):
    """T(k), the count from which the degree grid's build pays: 1.45 k^1.5,
    at least 2 (table above)."""
    return max(2, math.ceil(1.45 * k**1.5))


def sample_phi_sq_many(
    k,
    count,
    stream,
    mode="squeeze",
    stats=None,
    max_proposals=DEFAULT_MAX_PROPOSALS,
):
    """``count`` exact draws from the degree-k density, vectorized: the
    one-group case of the rejection engine, on the degree grid where
    :func:`_grid_pays` and else on the degree's hat.

    Proposals are generated in blocks sized from the known acceptance
    rate. Counters in ``stats`` reflect the sequential semantics: blocks
    are truncated at the proposal that produced the last needed accept,
    and everything after it is discarded as if never drawn. The call may
    spend ``max_proposals * count`` proposals, then raises BudgetError.
    """
    k = whole("degree", k, 0)
    count, max_proposals = _checked(count, mode, max_proposals)
    grid = _grid_pays(k, count)
    return _sample_degree(k, count, stream, mode, stats, max_proposals, grid)


def _sample_degree(k, count, stream, mode, stats, max_proposals, grid):
    """:func:`sample_phi_sq_many` on the degree grid if ``grid``, else on
    the degree's hat, on checked arguments."""
    hats = (lambda: [dominator.degree_grid(k)]) if grid else (lambda: _degree_hats([k], [count]))
    exact = lambda x, *_: hermite.phi_squared_many(k, x)
    return _sample(hats, [count], exact, stream, mode, stats, max_proposals)


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
