"""The merged proposal pass against the per-group round it replaced.

The engine of :mod:`guegen.samplers` proposes the blocks of all unfinished
degree groups of a round in one pass and decides them with array
operations, and runs a call of one group in scalar rounds.  Below is a
copy of the per-group round it replaced, kept for this test only: each
group draws its block with its own :func:`dominator.propose` call, and
``_decide`` walks the groups one by one.  Both must give the same draws,
every counter of ``SamplerStats`` and the same stream position.
"""

import itertools
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import pytest

from guegen import dominator, hermite, samplers
from guegen.errors import BudgetError
from guegen.rng import RandomStream


@dataclass
class _Group:
    count: int
    offset: int
    hat: object
    budget: int
    filled: int = 0
    spent: int = 0


class _Block(NamedTuple):
    x: np.ndarray
    uh: np.ndarray
    lower_acc: np.ndarray
    upper_rej: np.ndarray
    lanes: np.ndarray


def _propose(g, stream, use_squeeze):
    need = g.count - g.filled
    block = int(need * g.hat.mass * 1.2) + 32
    block = min(block, samplers._MAX_BLOCK, g.budget - g.spent)
    if block <= 0:
        raise BudgetError(
            f"no acceptance within {g.budget} proposals at {g.hat.label}", attempts=g.budget
        )
    x, uh, lower_acc, upper_rej = dominator.propose([g.hat], stream, [block], use_squeeze)
    lanes = (~(lower_acc | upper_rej)).nonzero()[0]
    accepts = lower_acc.nonzero()[0]
    if accepts.size >= need:
        lanes = lanes[: lanes.searchsorted(accepts[need - 1])]
    return _Block(x, uh, lower_acc, upper_rej, lanes)


def _decide(batch, exact, out, stats):
    xs = np.concatenate([b.x[b.lanes] for _, b in batch])
    sizes = [b.lanes.size for _, b in batch]
    ks = np.array([g.hat.n for g, _ in batch])
    phi = exact(xs, ks, np.array(sizes)) if xs.size else xs
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
        evaluated = int(b.lanes.searchsorted(cut))
        outside = int(np.count_nonzero(np.abs(xs[start : start + evaluated]) > g.hat.x1))
        stats.exact_in_window += evaluated - outside
        stats.exact_out_of_window += outside
        stats.exact_discarded += size - evaluated
        stats.accepted += take.size
        start += size


def _reference_sample(hats, counts, exact, stream, mode, stats, max_proposals):
    t0 = time.perf_counter()
    stats = samplers.SamplerStats() if stats is None else stats
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
            if size >= samplers._BLOCK_CAP:
                _decide(batch, exact, out, stats)
                batch, size = [], 0
        if batch:
            _decide(batch, exact, out, stats)
        groups = [g for g in groups if g.filled < g.count]
    stats.elapsed += time.perf_counter() - t0
    return out


def _stand_in_density(ks, x):
    # a cheap deterministic function of (k, x) of the size of phi_k^2 near
    # the bulk, for the plain-mode calls at n = 1e6, where every proposal
    # would run up to 1e6 recurrence steps: both engines see the same one
    return 0.8 / np.sqrt(ks + 1.0) * np.abs(np.sin(7.0 * x + ks))


def _run(call, seed, mode):
    stats, stream = samplers.SamplerStats(), RandomStream(seed)
    draws = call(stream, mode, stats)
    return draws.tobytes(), replace(stats, elapsed=0.0), stream.draw_count


def _both(monkeypatch, call, seed, mode):
    merged = _run(call, seed, mode)
    with monkeypatch.context() as mp:
        mp.setattr(samplers, "_sample", _reference_sample)
        per_group = _run(call, seed, mode)
    return merged, per_group


def _mixture(n, count):
    return lambda s, mode, st: samplers.sample_gue_eigenvalues(n, count, s, mode, st)


@pytest.mark.parametrize("mode", ["squeeze", "plain"])
@pytest.mark.parametrize("count", [1, 4, 40, 1000])
@pytest.mark.parametrize("n", [300, 10**4, 10**6])
def test_merged_round_matches_the_per_group_round(monkeypatch, n, count, mode):
    if n == 10**6 and mode == "plain":
        monkeypatch.setattr(hermite, "phi_squared_degrees", _stand_in_density)
    for seed in (1, 2):
        merged, per_group = _both(monkeypatch, _mixture(n, count), seed, mode)
        assert merged == per_group, (n, count, mode, seed)


def _degree_groups(degrees, counts):
    # the mixture's engine on given degree groups: degree 0, level hats
    # (count 1) and certified hats (count >= 2) in one round
    return lambda s, mode, st: samplers._sample(
        lambda: samplers._degree_hats(degrees, counts),
        counts,
        samplers._degree_density,
        s, mode, st, 1000,
    )


@pytest.mark.parametrize("mode", ["squeeze", "plain"])
def test_merged_round_matches_on_mixed_hats_and_degree_zero(monkeypatch, mode):
    degrees, counts = [0, 1, 3, 40, 41, 2000, 2001], [5, 1, 2, 1, 7, 1, 3]
    hats = samplers._degree_hats(degrees, counts)
    assert hats[0] is None
    assert hats[1] == dominator._level_spec(1) and hats[4] == dominator.make_spec(41)
    for seed in (3, 4, 5):
        merged, per_group = _both(monkeypatch, _degree_groups(degrees, counts), seed, mode)
        assert merged == per_group, (mode, seed)


@pytest.mark.parametrize(
    "call",
    [
        lambda s, mode, st: samplers.sample_phi_sq_many(100, 2000, s, mode, st),
        lambda s, mode, st: samplers.sample_phi_sq_many(10**4, 500, s, mode, st),
        _mixture(6, 2000),
        _mixture(1, 50),
    ],
    ids=["fixed-k100", "fixed-k1e4", "grid-n6", "mixture-n1"],
)
@pytest.mark.parametrize("mode", ["squeeze", "plain"])
def test_one_group_calls_match(monkeypatch, call, mode):
    merged, per_group = _both(monkeypatch, call, 6, mode)
    assert merged == per_group


@pytest.mark.parametrize("caps", [(64, 64), (10**9, 64), (64, 10**9)], ids=str)
def test_split_rounds_match(monkeypatch, caps):
    # small caps split each round into many proposal passes, many exact
    # calls, or both; the per-group round is the same at any cap
    whole = [_run(_mixture(n, count), 7, "squeeze") for n, count in ((2000, 400), (10**4, 40))]
    monkeypatch.setattr(samplers, "_BLOCK_CAP", caps[0])
    monkeypatch.setattr(samplers, "_PASS_CAP", caps[1])
    for (n, count), expected in zip(((2000, 400), (10**4, 40)), whole):
        merged, per_group = _both(monkeypatch, _mixture(n, count), 7, "squeeze")
        assert merged == per_group == expected, (n, count)


def test_passes_are_bounded_and_split_no_block():
    sizes = np.array([5, 3, 20, 1, 1, 1, 7, 30])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samplers, "_PASS_CAP", 10)
        passes = list(samplers._passes(sizes))
    assert passes == [slice(0, 2), slice(2, 3), slice(3, 7), slice(7, 8)]
