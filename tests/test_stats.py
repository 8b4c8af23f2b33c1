import math

import numpy as np
import pytest

from guegen.errors import OracleError, ParameterError
from guegen.rng import RandomStream
from guegen.stats import ks_critical, ks_one_sample, ks_points, ks_two_sample, loglog_slope


def test_critical_values():
    assert abs(ks_critical(0.001) - 1.9495) < 1e-3
    assert abs(ks_critical(0.01) - 1.6276) < 1e-3
    with pytest.raises(ParameterError):
        ks_critical(0.0)


def test_one_sample_null_passes():
    u = RandomStream(1).uniforms(10**5)
    res = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0))
    assert res.scaled < ks_critical(0.001)


def test_one_sample_constant_samples_fail_hard():
    xs = np.full(500, 0.999)
    res = ks_one_sample(xs, lambda x: np.clip(x, 0.0, 1.0))
    assert res.statistic > 0.95


def test_one_sample_counts_mass_below_minimum():
    # all samples sit above 0.9, so the oracle CDF below the sample
    # minimum already contributes ~0.9 to the distance
    xs = 0.9 + 0.1 * RandomStream(3).uniforms(1000)
    res = ks_one_sample(xs, lambda x: np.clip(x, 0.0, 1.0))
    assert res.statistic >= 0.89


def _exact_d(xs, cdf):
    # the full statistic: the reference CDF at every sorted sample
    f = cdf(np.sort(xs))
    i = np.arange(f.size)
    return max(np.max((i + 1) / f.size - f), np.max(f - i / f.size), 0.0)


def test_one_sample_is_exact_up_to_4096_samples():
    cdf = lambda x: 0.5 * (1.0 + np.tanh(x))
    for seed, n in enumerate((100, 1000, 4095, 4096)):
        xs = RandomStream(20 + seed).standard_normals(n)
        assert ks_points(n).tolist() == list(range(n))
        assert ks_one_sample(xs, cdf).statistic == _exact_d(xs, cdf)


def test_one_sample_bounds_d_from_above_at_1e5():
    n = 10**5
    u = RandomStream(21).uniforms(n)
    cdf = lambda x: np.clip(x, 0.0, 1.0)
    seen = []
    res = ks_one_sample(u, lambda x: seen.append(x.size) or cdf(x))
    step = math.ceil(n / 4096)
    assert seen == [ks_points(n).size] and seen[0] <= 4097
    exact = _exact_d(u, cdf)
    assert exact <= res.statistic <= exact + 2 * step / n


def test_one_sample_rejects_bad_oracles():
    u = RandomStream(4).uniforms(500)
    with pytest.raises(OracleError):
        ks_one_sample(u, lambda x: np.sin(7 * np.asarray(x)))
    with pytest.raises(OracleError):
        ks_one_sample(u, lambda x: np.asarray(x) * 3.0)
    with pytest.raises(ParameterError):
        ks_one_sample(u[:10], lambda x: x)
    # a scalar or wrongly shaped result is a broken oracle
    with pytest.raises(OracleError):
        ks_one_sample(u, lambda x: 0.5)
    with pytest.raises(OracleError):
        ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0)[:-1])


def test_two_sample_identical_arrays():
    a = RandomStream(5).standard_normals(1000)
    assert ks_two_sample(a, a).statistic == 0.0


def test_two_sample_same_distribution_passes():
    a = RandomStream(6).standard_normals(10**5)
    b = RandomStream(7).standard_normals(10**5)
    assert ks_two_sample(a, b).scaled < ks_critical(0.01)


def test_two_sample_mean_shift_fails():
    a = RandomStream(8).standard_normals(10**4)
    b = RandomStream(9).standard_normals(10**4) + 1.0
    res = ks_two_sample(a, b)
    assert not res.scaled < ks_critical(0.01)
    assert res.n_effective == pytest.approx(5000.0)


def test_non_finite_samples_rejected():
    # a NaN sorts last and an inf beyond every point, so each would read
    # as an ordinary sample in the empirical CDF
    a = RandomStream(10).standard_normals(5000)
    b = RandomStream(11).standard_normals(5000)
    for bad in (math.nan, math.inf, -math.inf):
        spoiled = b.copy()
        spoiled[:20] = bad
        with pytest.raises(ParameterError):
            ks_two_sample(a, spoiled)
        with pytest.raises(ParameterError):
            ks_two_sample(spoiled, a)
        with pytest.raises(ParameterError):
            ks_one_sample(spoiled, lambda x: 0.5 * (1.0 + np.tanh(x)))


def test_two_sample_minimum_size():
    with pytest.raises(ParameterError):
        ks_two_sample(np.ones(50), np.ones(500))


def test_slope_exact_powers():
    ns = [10.0, 100.0, 1000.0, 10000.0]
    slope, err = loglog_slope([(n, n) for n in ns])
    assert abs(slope - 1.0) < 1e-12
    slope, err = loglog_slope([(n, 3.7 * n ** (-1.0 / 3.0)) for n in ns])
    assert abs(slope + 1.0 / 3.0) < 1e-12
    assert err < 1e-12


def test_slope_input_validation():
    with pytest.raises(ParameterError):
        loglog_slope([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ParameterError):
        loglog_slope([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])
    with pytest.raises(ParameterError):
        loglog_slope([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])


def test_slope_reports_noise():
    rng = np.random.default_rng(0)
    pts = [(n, n**0.5 * math.exp(rng.normal() * 0.05)) for n in (10, 100, 1000, 10000, 100000)]
    slope, err = loglog_slope(pts)
    assert abs(slope - 0.5) < 5.0 * max(err, 1e-6)
