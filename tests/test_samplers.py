import math
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
        x = dominator.sample_envelope_many(spec, stream, 10_000)
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

    def checked(batch, pooled, out, stats):
        for g, b in batch:
            need = g.count - g.filled
            accepts = np.flatnonzero(b.lower_acc)
            if accepts.size >= need and b.lanes.size:
                assert b.lanes[-1] < accepts[need - 1]
            seen.append(b.lanes.size)
        return decide(batch, pooled, out, stats)

    evaluated = []

    def counted(kernel):
        return lambda *a: evaluated.append(np.size(a[-1])) or kernel(*a)

    for name in ("phi_squared_many", "phi_squared_degrees"):
        monkeypatch.setattr(hermite, name, counted(getattr(hermite, name)))
    monkeypatch.setattr(samplers, "_decide", checked)
    samplers.sample_phi_sq_many(100, 3000, RandomStream(66), "squeeze")
    samplers.sample_gue_eigenvalues(300, 500, RandomStream(67), "squeeze")
    assert sum(evaluated) == sum(seen) > 0


def test_pruning_keeps_draws_and_counters():
    # the pruned lanes lie past the cut: the same draws and counters as
    # evaluating every undecided proposal
    def run():
        stats = samplers.SamplerStats()
        xs = samplers.sample_gue_eigenvalues(2000, 40, RandomStream(68), "squeeze", stats)
        return xs.tobytes(), replace(stats, elapsed=0.0)

    pruned = run()
    propose = samplers._propose

    def unpruned(g, stream, use_squeeze):
        b = propose(g, stream, use_squeeze)
        lanes = np.flatnonzero(~(b.lower_acc | b.upper_rej))
        return b._replace(lanes=lanes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samplers, "_propose", unpruned)
        assert run() == pruned


def test_exact_counter_split():
    for mode in ("squeeze", "plain"):
        stats = samplers.SamplerStats()
        samplers.sample_phi_sq_many(30, 3000, RandomStream(69), mode, stats)
        assert stats.exact_out_of_window > 0 and stats.exact_in_window > 0
        assert stats.exact_evals == stats.exact_in_window + stats.exact_out_of_window
    # plain mode tests every proposal exactly
    assert stats.exact_evals == stats.proposals


def test_budget_error_per_degree_group():
    # a degree group may spend max_proposals * count proposals in all
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


def test_mixture_size_one_is_standard_normal():
    count = 5_000
    xs = samplers.sample_gue_eigenvalues(1, count, RandomStream(44))
    ref_stream = RandomStream(44)
    ref_stream.indices(1, count)  # the mixture draws its indices first
    assert np.array_equal(xs, ref_stream.standard_normals(count))


def test_engine_one_group_matches_fixed_degree():
    # the fixed-degree sampler is the one-group case of the mixed engine
    for mode in ("squeeze", "plain"):
        for k, count in ((0, 50), (1, 300), (9, 300), (250, 200)):
            st_a, st_b = samplers.SamplerStats(), samplers.SamplerStats()
            a = samplers._sample_degrees([k], [count], RandomStream(60 + k), mode, st_a, 1000)
            b = samplers.sample_phi_sq_many(k, count, RandomStream(60 + k), mode, st_b, 1000)
            assert a.tobytes() == b.tobytes()
            assert replace(st_a, elapsed=0.0) == replace(st_b, elapsed=0.0)


def test_engine_mixed_degrees_follow_each_law():
    degrees, count = [2, 30, 400], 3000
    for mode, seed in (("squeeze", 61), ("plain", 62)):
        stats = samplers.SamplerStats()
        draws = samplers._sample_degrees(
            degrees, [count] * 3, RandomStream(seed), mode, stats, 1000
        )
        assert stats.accepted == 3 * count
        for i, k in enumerate(degrees):
            res = ks_one_sample(
                draws[i * count : (i + 1) * count],
                lambda s, k=k: hermite.phi_sq_cdf_many(k, s),
            )
            assert res.scaled < ks_critical(0.001), (mode, k, res.scaled)


def test_mixture_batch_splits_keep_draws(monkeypatch):
    # pooled exact tests are flushed every kernel slice of undecided lanes;
    # where the flushes fall must not change the draws or the counters
    runs = []
    for chunk in (hermite._CHUNK, 64):
        monkeypatch.setattr(hermite, "_CHUNK", chunk)
        stats = samplers.SamplerStats()
        xs = samplers.sample_gue_eigenvalues(300, 2000, RandomStream(65), "squeeze", stats)
        runs.append((xs.tobytes(), stats.proposals, stats.exact_evals, stats.accepted))
    assert runs[0] == runs[1]


def test_mixture_places_each_draw_at_its_degree():
    n, count = 3, 6000
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
    assert ks_two_sample(a, b).passes(0.01)


def test_benchmark_rows():
    rows = samplers.benchmark("squeeze", [10, 100], 300, seed=1)
    assert [r.n for r in rows] == [10, 100]
    for r in rows:
        assert r.accepted == 300
        assert r.proposals_per_accept > 1.0
        assert r.cost_proxy >= r.proposals_per_accept
        assert 0.0 <= r.exact_share <= 1.0
    with pytest.raises(ParameterError):
        samplers.benchmark("squeeze", [], 10)
    with pytest.raises(ParameterError):
        samplers.benchmark("squeeze", [10], 0)
