import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guegen.errors import ParameterError
from guegen.rng import RandomStream


def test_uniform_range_and_distinct():
    s = RandomStream(42)
    a, b = s.uniforms(2)
    assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0
    assert a != b


def test_uniform_never_one():
    s = RandomStream(1)
    u = s.uniforms(10**6)
    assert u.max() < 1.0 and u.min() >= 0.0


def test_same_seed_same_sequence():
    a = RandomStream(123)
    b = RandomStream(123)
    assert np.array_equal(a.uniforms(50), b.uniforms(50))
    assert np.array_equal(a.uniforms(1000), b.uniforms(1000))
    assert np.array_equal(a.standard_normals(101), b.standard_normals(101))
    assert np.array_equal(a.gammas(1.5, 100), b.gammas(1.5, 100))


def test_uniform_mean_lln():
    u = RandomStream(7).uniforms(10**6)
    assert abs(u.mean() - 0.5) < 0.002


def test_normal_moments():
    z = RandomStream(8).standard_normals(10**6)
    assert 0.995 <= z.var() <= 1.005
    assert abs(z.mean()) < 0.004
    assert abs((z > 0).mean() - 0.5) < 0.002


def test_rademacher():
    s = RandomStream(10)
    r = s.rademachers(10**6)
    assert set(np.unique(r)) == {-1.0, 1.0}
    assert abs(r.mean()) < 0.004
    assert np.array_equal(RandomStream(10).rademachers(5), RandomStream(10).rademachers(5))


def test_gamma_moments():
    g = RandomStream(11).gammas(1.0, 10**6)
    assert 0.997 <= g.mean() <= 1.003
    g = RandomStream(12).gammas(1.5, 10**6)
    assert abs(g.mean() - 1.5) < 0.004
    # boosted branch, shape < 1
    g = RandomStream(13).gammas(0.5, 10**5)
    assert abs(g.mean() - 0.5) < 0.01
    assert g.min() >= 0.0


def test_gamma_positive_and_deterministic():
    vals = RandomStream(14).gammas(2.5, 1000)
    assert vals.min() > 0.0
    assert np.array_equal(vals, RandomStream(14).gammas(2.5, 1000))


def test_gamma_shape_zero_rejected():
    s = RandomStream(15)
    with pytest.raises(ParameterError):
        s.gammas(0.0, 1)
    with pytest.raises(ParameterError):
        s.gammas(-1.0, 10)
    for shape in (math.inf, math.nan):  # inf would return inf variates
        with pytest.raises(ParameterError):
            s.gammas(shape, 1)


def test_stream_independence_two_seeds():
    a = np.sort(RandomStream(100).uniforms(10**5))
    b = np.sort(RandomStream(200).uniforms(10**5))
    pooled = np.concatenate([a, b])
    pooled.sort()
    ca = np.searchsorted(a, pooled, side="right") / a.size
    cb = np.searchsorted(b, pooled, side="right") / b.size
    d = np.max(np.abs(ca - cb))
    n_eff = a.size * b.size / (a.size + b.size)
    assert d * math.sqrt(n_eff) < math.sqrt(-0.5 * math.log(0.005))  # alpha = 0.01


def test_spawn_derives_independent_reproducible_children():
    kids = RandomStream(77).spawn(3)
    again = RandomStream(77).spawn(3)
    seqs = [k.uniforms(100) for k in kids]
    for s1, s2 in zip(seqs, again):
        assert np.array_equal(s1, s2.uniforms(100))
    assert not np.array_equal(seqs[0], seqs[1])


def test_draw_count_tracks_uniform_consumption():
    s = RandomStream(5)
    s.uniforms(10)
    assert s.draw_count == 10
    s.uniforms(1)
    assert s.draw_count == 11
    before = s.draw_count
    s.standard_normals(1)
    assert s.draw_count > before  # polar method consumed at least one pair


def test_index_bounds():
    s = RandomStream(6)
    ks = s.indices(7, 10000)
    assert ks.min() >= 0 and ks.max() <= 6
    assert s.indices(1, 1)[0] == 0
    with pytest.raises(ParameterError):
        s.indices(0, 1)


def test_indices_are_exact_word_residues():
    # each index is a raw 64-bit word mod n; words at or above the largest
    # multiple of n below 2^64 are redrawn
    n = 3 * 2**61  # 2^64 mod n = 2^62, so a quarter of the words are redrawn
    s = RandomStream(17)
    ks = s.indices(n, 1000)
    assert s.draw_count > 1000
    words = np.random.PCG64(np.random.SeedSequence(17)).random_raw(s.draw_count)
    kept = words[words < np.uint64(2**64 - 2**62)]
    assert kept.size == 1000
    assert np.array_equal(ks, (kept % np.uint64(n)).astype(np.int64))


def test_indices_uniform_one_word_each():
    n, size = 7, 70_000
    s = RandomStream(18)
    ks = s.indices(n, size)
    assert s.draw_count == size
    counts = np.bincount(ks, minlength=n)
    chi2 = float(((counts - size / n) ** 2 / (size / n)).sum())
    assert chi2 < 22.46  # chi-square, 6 degrees of freedom, alpha = 0.001
    t = RandomStream(19)
    word = np.random.PCG64(np.random.SeedSequence(19)).random_raw(1)[0]
    assert t.indices(1000, 1)[0] == word % np.uint64(1000)
    assert t.draw_count == 1
    with pytest.raises(ParameterError):
        t.indices(2**63 + 1, 3)


def test_seed_validation():
    with pytest.raises(ParameterError):
        RandomStream(-1)
    with pytest.raises(ParameterError):
        RandomStream(2**64)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_determinism_property(seed):
    a = RandomStream(seed)
    b = RandomStream(seed)
    assert np.array_equal(a.uniforms(5), b.uniforms(5))
