import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from guegen import dominator, hermite, samplers, vanveen
from guegen.errors import BudgetError, ParameterError
from guegen.rng import RandomStream
from guegen.stats import ks_critical, ks_one_sample, ks_two_sample


def test_degree_zero_returns_plain_normals():
    a = samplers.sample_phi_sq_many(0, 7, RandomStream(5))
    b = RandomStream(5).standard_normals(7)
    assert np.array_equal(a, b)


def test_batch_deterministic():
    a = samplers.sample_phi_sq_many(12, 500, RandomStream(77), "squeeze")
    b = samplers.sample_phi_sq_many(12, 500, RandomStream(77), "squeeze")
    assert np.array_equal(a, b)


def test_squeeze_decisions_imply_exact_decisions():
    # replay raw proposals: a quick accept must also pass the exact test,
    # a quick reject must also fail it
    for k in (7, 200):
        spec = dominator.make_spec(k)
        stream = RandomStream(1000 + k)
        x = dominator.sample_envelope_many(spec, stream.uniforms(30_000), 10_000)
        u = stream.uniforms(10_000)
        uh = u * dominator.envelope_many(spec, x)
        window = np.abs(x) <= spec.x1
        lo, up = vanveen.squeeze_bounds_many(k, x[window])
        phi = hermite.phi_squared_many(k, x[window])
        uhw = uh[window]
        assert np.all(uhw[uhw <= lo] <= phi[uhw <= lo])
        assert np.all(uhw[uhw > up] > phi[uhw > up])


def test_plain_ks_against_closed_form_cdf():
    xs = samplers.sample_phi_sq_many(1, 20_000, RandomStream(3), "plain")
    res = ks_one_sample(xs, lambda s: hermite.phi_sq_cdf_many(1, s))
    assert res.scaled < 1.95


def test_output_sign_symmetric():
    xs = samplers.sample_phi_sq_many(6, 40_000, RandomStream(8), "squeeze")
    assert abs((xs > 0).mean() - 0.5) < 3.0 * 0.5 / math.sqrt(xs.size)


def test_wald_proposals_per_accept():
    k = 10
    spec = dominator.make_spec(k)
    stats = samplers.SamplerStats()
    samplers.sample_phi_sq_many(k, 20_000, RandomStream(9), "squeeze", stats)
    sigma = math.sqrt((spec.mass**2 - spec.mass) / stats.accepted)
    assert abs(stats.proposals / stats.accepted - spec.mass) < 3.0 * sigma


def test_stats_counter_invariants():
    stats = samplers.SamplerStats()
    samplers.sample_phi_sq_many(100, 5_000, RandomStream(10), "squeeze", stats)
    assert stats.accepted == 5_000
    assert stats.accepted <= stats.proposals
    assert (
        stats.exact_evals
        <= stats.proposals - stats.squeeze_lower_accepts - stats.squeeze_upper_rejects
    )
    assert 0 < stats.exact_discarded < stats.exact_evals
    assert stats.elapsed > 0.0


def test_exact_share_declines_with_degree():
    shares = []
    for k in (100, 10_000):
        stats = samplers.SamplerStats()
        samplers.sample_phi_sq_many(k, 2_000, RandomStream(900 + k), "squeeze", stats)
        shares.append(stats.exact_evals / stats.proposals)
    # in-window sandwich gap plus out-of-window mass, over the hat's half
    # mass: about 0.27 at degree 100 and 0.09 at degree 10^4
    assert shares[1] < shares[0]
    assert shares[1] < 0.30


def test_no_lane_past_the_need_th_lower_accept(monkeypatch):
    # undecided proposals after a group's need-th lower-squeeze accept lie
    # past the cut, so the exact kernel never sees them
    seen = []
    decide = samplers._decide

    def checked(batch, exact, groups, out, stats):
        for b in batch:
            for g, lo, hi in zip(b.groups, b.starts, b.starts[1:]):
                need = groups.count[g] - groups.filled[g]
                accepts = lo + np.flatnonzero(b.lower_acc[lo:hi])
                lanes = b.lanes[(b.lanes >= lo) & (b.lanes < hi)]
                if accepts.size >= need and lanes.size:
                    assert lanes[-1] < accepts[need - 1]
            seen.append(b.lanes.size)
        return decide(batch, exact, groups, out, stats)

    decide_one = samplers._decide_one

    def checked_one(b, need, *rest):
        # a call of one group decides its block alone
        accepts = np.flatnonzero(b.lower_acc)
        if accepts.size >= need and b.lanes.size:
            assert b.lanes[-1] < accepts[need - 1]
        seen.append(b.lanes.size)
        return decide_one(b, need, *rest)

    evaluated = []

    def counted(kernel):
        return lambda *a: evaluated.append(np.size(a[-1])) or kernel(*a)

    for name in ("phi_squared_many", "phi_squared_degrees"):
        monkeypatch.setattr(hermite, name, counted(getattr(hermite, name)))
    monkeypatch.setattr(samplers, "_decide", checked)
    monkeypatch.setattr(samplers, "_decide_one", checked_one)
    samplers.sample_phi_sq_many(100, 3000, RandomStream(66), "squeeze")
    samplers.sample_gue_eigenvalues(300, 500, RandomStream(67), "squeeze")
    assert sum(evaluated) == sum(seen) > 0


def test_pruning_keeps_draws_and_counters():
    # the pruned lanes lie past the cut: the same draws and counters as
    # evaluating every undecided proposal, apart from the count of lanes
    # evaluated past the cut, which pruning lowers
    def run():
        stats = samplers.SamplerStats()
        xs = samplers.sample_gue_eigenvalues(2000, 40, RandomStream(68), "squeeze", stats)
        return xs.tobytes(), replace(stats, elapsed=0.0, exact_discarded=0), stats.exact_discarded

    *pruned, pruned_discarded = run()
    propose = samplers._propose

    def unpruned(*args):
        b = propose(*args)
        lanes = np.flatnonzero(~(b.lower_acc | b.upper_rej))
        return b._replace(lanes=lanes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samplers, "_propose", unpruned)
        *unpruned_run, unpruned_discarded = run()
    assert unpruned_run == pruned
    assert unpruned_discarded > pruned_discarded


def test_round_split_keeps_draws_and_counters(monkeypatch):
    # where a round's blocks split into proposal passes and exact calls
    # changes no draw, counter or word read
    calls = (
        lambda s, st: samplers.sample_gue_eigenvalues(2000, 400, s, "squeeze", st),
        lambda s, st: samplers.sample_phi_sq_many(100, 3000, s, "squeeze", st),
    )
    batches = []
    decide = samplers._decide
    monkeypatch.setattr(samplers, "_decide", lambda *a: batches.append(1) or decide(*a))

    def outputs():
        out = []
        for seed, call in enumerate(calls):
            stats, stream = samplers.SamplerStats(), RandomStream(70 + seed)
            draws = call(stream, stats)
            out.append((draws.tobytes(), replace(stats, elapsed=0.0), stream.draw_count))
        return out

    whole = outputs()
    whole_batches = len(batches)
    monkeypatch.setattr(samplers, "_BLOCK_CAP", 64)
    monkeypatch.setattr(samplers, "_PASS_CAP", 64)
    assert outputs() == whole
    assert len(batches) - whole_batches > 2 * whole_batches  # the small cap split the rounds


@pytest.mark.parametrize("first_passes", [True, False])
def test_exact_discarded_counts_the_lanes_past_the_cut(first_passes):
    # a planted block of one draw: two undecided lanes ahead of a lower-squeeze
    # accept share one exact call.  If the first passes, the draw is its
    # proposal and the second lane was evaluated past the cut.
    groups = samplers._Groups([dominator._level_spec(10)], [1], [0], 100)
    x = np.array([0.5, -0.6, 0.7, 0.8])
    uh = np.array([0.1, 0.1, 0.3, 0.3])
    lower_acc = np.array([False, False, True, False])
    block = samplers._Block(
        x, uh, lower_acc, np.zeros(4, dtype=bool), np.array([0, 1]), np.array([0]), np.array([0, 4])
    )
    phi = np.array([0.2, 0.2]) if first_passes else np.array([0.05, 0.2])

    def exact(*_):
        return phi

    cut = 1 if first_passes else 2
    # as a pass of the many-group rounds, and as the block of a one-group call
    out, stats = np.empty(1), samplers.SamplerStats()
    samplers._decide([block], exact, groups, out, stats)
    assert out.tolist() == [x[cut - 1]] and groups.filled[0] == 1 and groups.spent[0] == cut
    out_one, stats_one = np.empty(1), samplers.SamplerStats()
    assert samplers._decide_one(block, 1, groups.hats[0], exact, out_one, stats_one) == (1, cut)
    assert out_one.tolist() == out.tolist() and stats_one == stats
    assert (stats.proposals, stats.exact_evals, stats.exact_discarded) == (cut, cut, 2 - cut)
    assert (stats.squeeze_lower_accepts, stats.accepted) == (0, 1)


def test_layer_timers_split_the_call_and_stay_out_of_comparisons():
    a, b = samplers.SamplerStats(), samplers.SamplerStats()
    samplers.sample_gue_eigenvalues(10**4, 40, RandomStream(76), stats=a)
    samplers.sample_gue_eigenvalues(10**4, 40, RandomStream(76), stats=b)
    for st in (a, b):
        assert 0.0 < st.propose_s and 0.0 < st.exact_s
        assert st.propose_s + st.exact_s < st.elapsed
    b.propose_s, b.exact_s = 2.0 * a.propose_s, 0.0
    assert replace(a, elapsed=0.0) == replace(b, elapsed=0.0)


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kB, as Linux reports it")
def test_many_group_call_peak_rss():
    # a fresh interpreter makes one call of about 1 s, 10^4 degree groups of
    # about 20 draws, and reports its peak RSS above the peak after import.  On a
    # 2-core x86-64 box (Python 3.11, numpy 2.4) the per-group round this
    # engine replaced measured 61 MB and this engine 51 MB; proposal passes
    # without the _PASS_CAP bound, which hold every group's per-proposal
    # hat fields at once, measured 322 MB.  The bound is the per-group
    # round's 61 MB with a 25% margin for allocators and platforms.
    code = (
        "import resource\n"
        "from guegen import samplers\n"
        "from guegen.rng import RandomStream\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "samplers.sample_gue_eigenvalues(10**4, 2 * 10**5, RandomStream(1))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n"
    )
    src = str(pathlib.Path(samplers.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert int(done.stdout) / 1024 < 1.25 * 61


def test_exact_counter_split():
    for mode in ("squeeze", "plain"):
        stats = samplers.SamplerStats()
        samplers.sample_phi_sq_many(30, 3000, RandomStream(69), mode, stats)
        assert stats.exact_out_of_window > 0 and stats.exact_in_window > 0
        assert stats.exact_evals == stats.exact_in_window + stats.exact_out_of_window
    # plain mode tests every proposal exactly
    assert stats.exact_evals == stats.proposals


def test_budget_error_per_degree_group(monkeypatch):
    # a degree group may spend max_proposals * count proposals in all; the
    # mixture at n = 20 runs on the per-degree engine once above N_GRID
    monkeypatch.setattr(samplers, "N_GRID", 19)
    with pytest.raises(BudgetError):
        samplers.sample_phi_sq_many(5, 4, RandomStream(0), "plain", max_proposals=1)
    with pytest.raises(BudgetError):
        samplers.sample_gue_eigenvalues(20, 4, RandomStream(0), "squeeze", max_proposals=1)
    # about 3.6 proposals per draw at degree 5 (the hat's mass)
    samplers.sample_phi_sq_many(5, 4, RandomStream(0), "plain", max_proposals=1000)


def test_mode_validation():
    with pytest.raises(ParameterError):
        samplers.sample_phi_sq_many(3, 10, RandomStream(1), "fancy")
    with pytest.raises(ParameterError):
        samplers.sample_phi_sq_many(-1, 10, RandomStream(1))
    with pytest.raises(ParameterError):
        samplers.sample_gue_eigenvalues(0, 10, RandomStream(1))
    # a budget below one proposal per draw is refused, not exhausted
    for budget in (0, -4):
        with pytest.raises(ParameterError):
            samplers.sample_phi_sq_many(5, 3, RandomStream(1), max_proposals=budget)
        with pytest.raises(ParameterError):
            samplers.sample_gue_eigenvalues(5, 3, RandomStream(1), max_proposals=budget)


def test_mixture_size_one_is_standard_normal():
    count = 5_000
    xs = samplers.sample_gue_eigenvalues(1, count, RandomStream(44))
    ref_stream = RandomStream(44)
    ref_stream.indices(1, count)  # the mixture draws its indices first
    assert np.array_equal(xs, ref_stream.standard_normals(count))


def _engine_on_degrees(degrees, counts, stream, mode, stats):
    # the engine as the mixture above N_GRID runs it, on given degree groups
    return samplers._sample(
        lambda: samplers._degree_hats(degrees, counts),
        counts,
        samplers._degree_density,
        stream, mode, stats, 1000,
    )


def test_engine_one_group_matches_fixed_degree():
    # the fixed-degree sampler is the one-group case of the mixture's engine,
    # whose pooled exact test gives the same bits at a single degree
    for mode in ("squeeze", "plain"):
        for k, count in ((0, 50), (1, 300), (9, 300), (250, 200)):
            st_a, st_b = samplers.SamplerStats(), samplers.SamplerStats()
            a = _engine_on_degrees([k], [count], RandomStream(60 + k), mode, st_a)
            b = samplers.sample_phi_sq_many(k, count, RandomStream(60 + k), mode, st_b, 1000)
            assert a.tobytes() == b.tobytes()
            assert replace(st_a, elapsed=0.0) == replace(st_b, elapsed=0.0)


def test_engine_mixed_degrees_follow_each_law():
    degrees, count = [2, 30, 400], 3000
    for mode, seed in (("squeeze", 61), ("plain", 62)):
        stats = samplers.SamplerStats()
        draws = _engine_on_degrees(degrees, [count] * 3, RandomStream(seed), mode, stats)
        assert stats.accepted == 3 * count
        for i, k in enumerate(degrees):
            res = ks_one_sample(
                draws[i * count : (i + 1) * count],
                lambda s, k=k: hermite.phi_sq_cdf_many(k, s),
            )
            assert res.scaled < ks_critical(0.001), (mode, k, res.scaled)


def test_mixture_batch_splits_keep_draws(monkeypatch):
    # the pooled exact test slices its lanes every kernel slice; where the
    # slices fall must not change the draws or the counters
    runs = []
    for chunk in (hermite._CHUNK, 64):
        monkeypatch.setattr(hermite, "_CHUNK", chunk)
        stats = samplers.SamplerStats()
        xs = samplers.sample_gue_eigenvalues(300, 2000, RandomStream(65), "squeeze", stats)
        runs.append((xs.tobytes(), stats.proposals, stats.exact_evals, stats.accepted))
    assert runs[0] == runs[1]


def test_mixture_places_each_draw_at_its_degree(monkeypatch):
    n, count = 3, 6000
    monkeypatch.setattr(samplers, "N_GRID", n - 1)  # index draws run above N_GRID
    xs = samplers.sample_gue_eigenvalues(n, count, RandomStream(63))
    ks = RandomStream(63).indices(n, count)  # the mixture draws its indices first
    for k in range(n):
        res = ks_one_sample(xs[ks == k], lambda s, k=k: hermite.phi_sq_cdf_many(k, s))
        assert res.scaled < ks_critical(0.001), (k, res.scaled)


@pytest.mark.parametrize("n", [1000, 10_000])
def test_mixture_law_ks_against_closed_form_cdf(n):
    xs = samplers.sample_gue_eigenvalues(n, 20_000, RandomStream(64))
    res = ks_one_sample(xs, lambda s: hermite.mixture_cdf_many(n, s))
    assert res.scaled < ks_critical(0.001)


def test_mixture_second_moment_short():
    xs = samplers.sample_gue_eigenvalues(50, 30_000, RandomStream(46))
    sq = xs * xs
    assert abs(sq.mean() - 50.0) < 3.0 * sq.std() / math.sqrt(sq.size)


def test_mixture_mass_concentrates_in_bulk():
    # nearly all of the n=1000 spectrum sits inside [-2.1, 2.1] * sqrt(n)
    n = 1000
    xs = samplers.sample_gue_eigenvalues(n, 20_000, RandomStream(49))
    inside = np.abs(xs / math.sqrt(n)) <= 2.1
    assert inside.mean() >= 0.999


def test_plain_and_squeeze_share_acceptance_law():
    a = samplers.sample_phi_sq_many(3, 20_000, RandomStream(47), "plain")
    b = samplers.sample_phi_sq_many(3, 20_000, RandomStream(48), "squeeze")
    assert ks_two_sample(a, b).scaled < ks_critical(0.01)


def test_benchmark_rows():
    # one SamplerStats per degree, in the order of n_list
    records = samplers.benchmark("squeeze", [10, 100], 300, seed=1)
    assert len(records) == 2
    for n, r in zip([10, 100], records):
        assert isinstance(r, samplers.SamplerStats)
        assert r.accepted == 300
        assert r.proposals_per_accept > 1.0
        assert r.cost_proxy(n) >= r.proposals_per_accept
        assert 0.0 <= r.exact_share <= 1.0
        assert r.ns_per_sample > 0.0
    # position i draws from the i-th derived stream, whatever the other degrees
    other = samplers.benchmark("squeeze", [50, 100], 300, seed=1)
    assert _counters(other[1:]) == _counters(records[1:])
    with pytest.raises(ParameterError):
        samplers.benchmark("squeeze", [], 10)
    with pytest.raises(ParameterError):
        samplers.benchmark("squeeze", [10], 0)


def _counters(records):
    return [replace(r, elapsed=0.0) for r in records]


def test_benchmark_checks_its_degrees_before_it_draws(monkeypatch):
    # a numpy array of degrees is a list of degrees, not an ambiguous truth value
    listed = samplers.benchmark("squeeze", [10, 100], 5, seed=3)
    arrayed = samplers.benchmark("squeeze", np.array([10, 100]), 5, seed=3)
    assert _counters(arrayed) == _counters(listed)
    # a bad degree fails the call before any degree draws
    drawn = []
    monkeypatch.setattr(samplers, "sample_phi_sq_many", lambda k, *a: drawn.append(k))
    with pytest.raises(ParameterError, match="degrees"):
        samplers.benchmark("squeeze", [10, -1], 5)
    assert drawn == []


def test_stats_figures():
    st = samplers.SamplerStats(
        proposals=10, exact_in_window=3, exact_out_of_window=1, accepted=4, elapsed=0.5
    )
    assert (st.proposals_per_accept, st.exact_share, st.ns_per_sample) == (2.5, 0.4, 1.25e8)
    assert st.cost_proxy(100) == (10 + 100 * 4) / 4
    # an empty record reads 0, not a division by zero
    empty = samplers.SamplerStats()
    assert (empty.proposals_per_accept, empty.exact_share, empty.ns_per_sample) == (0, 0, 0)
    assert empty.cost_proxy(100) == 0


def test_kernel_paths_give_the_same_draws(monkeypatch):
    # the kernel's numpy loop and float lane loop are the same bits, so the
    # samplers' draws and counters do not depend on which one a pass takes
    runs = (
        lambda st: samplers.sample_gue_eigenvalues(10**4, 4, RandomStream(3), stats=st),
        lambda st: samplers.sample_phi_sq_many(10**4, 500, RandomStream(4), "squeeze", st),
        lambda st: samplers.sample_phi_sq_many(10**4, 500, RandomStream(5), "plain", st),
        lambda st: samplers.sample_phi_sq_many(100, 2000, RandomStream(6), "squeeze", st),
    )
    for run in runs:
        outputs = []
        for few in (0, 10**9):  # numpy loop only, float lane loop only
            monkeypatch.setattr(hermite, "_FEW_LANES", few)
            stats = samplers.SamplerStats()
            draws = run(stats)
            outputs.append((draws, replace(stats, elapsed=0.0)))
        (a, sa), (b, sb) = outputs
        assert np.array_equal(a, b)
        assert sa == sb


def test_grid_budget_error():
    # the grid hat's mass is about 1.04, so 1000 draws in 1000 proposals
    # fail, and twice the proposals suffice
    with pytest.raises(BudgetError, match="n = 6 mixture") as info:
        samplers.sample_gue_eigenvalues(6, 1000, RandomStream(0), max_proposals=1)
    assert info.value.attempts == 1000
    samplers.sample_gue_eigenvalues(6, 1000, RandomStream(0), max_proposals=2)


@pytest.mark.parametrize("n", [2, 6, 64, samplers.N_GRID])
def test_grid_plain_and_squeeze_draw_the_same_bytes(n):
    # a lower-squeeze accept passes the exact test too, so the modes differ
    # only in the exact tests they run
    runs = {}
    for mode in ("plain", "squeeze"):
        stats = samplers.SamplerStats()
        xs = samplers.sample_gue_eigenvalues(n, 3000, RandomStream(70 + n), mode, stats)
        runs[mode] = xs, stats
    (a, plain), (b, squeeze) = runs["plain"], runs["squeeze"]
    assert a.tobytes() == b.tobytes()
    assert plain.proposals == squeeze.proposals and plain.accepted == squeeze.accepted == 3000
    assert plain.exact_evals == plain.proposals and plain.squeeze_lower_accepts == 0
    assert squeeze.squeeze_upper_rejects == plain.squeeze_upper_rejects == 0
    assert squeeze.exact_evals <= squeeze.proposals - squeeze.squeeze_lower_accepts
    assert 0 < squeeze.exact_evals < 0.1 * squeeze.proposals


def test_grid_tails_are_drawn_and_tested_exactly(monkeypatch):
    # with the tail piece started at e^0 instead of e^-14, X is about 3.1
    # at n = 6 and a third of the proposals land in the tails
    dominator._grid_hat.cache_clear()
    monkeypatch.setattr(dominator, "_TAIL_LOG", 0.0)
    try:
        stats = samplers.SamplerStats()
        xs = samplers.sample_gue_eigenvalues(6, 20_000, RandomStream(71), stats=stats)
        x1 = dominator.grid_hat(6).x1
    finally:
        dominator._grid_hat.cache_clear()
    assert np.mean(np.abs(xs) > x1) > 0.05
    assert stats.exact_out_of_window > 0.2 * stats.proposals
    res = ks_one_sample(xs, lambda s: hermite.mixture_cdf_many(6, s))
    assert res.scaled < ks_critical(0.001)


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_grid_path_runs_no_degree_engine(monkeypatch):
    spies = [
        _spy(monkeypatch, dominator, "make_specs"),
        _spy(monkeypatch, hermite, "phi_squared_degrees"),
        _spy(monkeypatch, hermite, "phi_squared_many"),
    ]
    for n in (2, 6, samplers.N_GRID):
        samplers.sample_gue_eigenvalues(n, 500, RandomStream(72), "plain")
    assert spies == [[], [], []]


def test_engine_path_builds_no_grid(monkeypatch):
    built = _spy(monkeypatch, dominator, "grid_hat")
    for n in (1, samplers.N_GRID + 1):
        samplers.sample_gue_eigenvalues(n, 200, RandomStream(73))
    samplers.sample_phi_sq_many(5, 200, RandomStream(74))
    assert built == []


@pytest.mark.parametrize(
    "run, density",
    [
        (lambda s: samplers.sample_phi_sq_many(100, 500, s), "phi_squared_many"),
        (lambda s: samplers.sample_gue_eigenvalues(300, 500, s), "phi_squared_degrees"),
        (lambda s: samplers.sample_gue_eigenvalues(6, 500, s), "mixture_density_many"),
        (lambda s: samplers.sample_gue_eigenvalues(1, 500, s), None),
    ],
    ids=["fixed-k100", "mixture-n300", "grid-n6", "mixture-n1"],
)
def test_each_entry_evaluates_only_its_own_density(monkeypatch, run, density):
    # each entry names the density its hats bound; the engine evaluates
    # that one and no other (n = 1 draws plain normals and evaluates none)
    dominator.grid_hat(6)  # built ahead: the spies see only the engine's evaluations
    names = ("phi_squared_many", "phi_squared_degrees", "mixture_density_many")
    spies = {name: _spy(monkeypatch, hermite, name) for name in names}
    run(RandomStream(75))
    assert [name for name in names if spies[name]] == ([density] if density else [])
