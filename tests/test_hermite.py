import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guegen import dominator, hermite, verify
from guegen.errors import ParameterError

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ----------------------------------------------------------------------
# the polynomial recurrence, through the scalar reference
# ----------------------------------------------------------------------


def _density_from_poly(h, k, x):
    """phi_k(x)^2 from a hand value h = H_k(x)."""
    return h * h * math.exp(-x * x / 2.0) / (math.factorial(k) * SQRT_2PI)


def test_polynomial_hand_values():
    # H_0 = 1, H_1(x) = x, H_2(0) = -1; H_2(1)=0, H_3(1)=-2, H_4(1)=1*(-2)-3*0=-2
    for h, k, x in ((1.0, 0, 12.3), (3.5, 1, 3.5), (-1.0, 2, 0.0), (-2.0, 4, 1.0)):
        assert math.isclose(hermite.phi_squared(k, x), _density_from_poly(h, k, x), rel_tol=1e-13)


def test_polynomial_rejects_negative_degree():
    with pytest.raises(ParameterError):
        hermite.phi_squared(-1, 0.0)
    with pytest.raises(ParameterError):
        hermite.phi_squared_many(-1, np.zeros(2))


def test_polynomial_survives_huge_magnitudes():
    # raw H_k near the spectral edge is ~e^k; the rescaled recurrence must
    # carry it to a finite, positive density
    k = 5000
    x = 2.0 * math.sqrt(k)
    scal = hermite.phi_squared(k, x)
    assert 0.0 < scal < 8.0 * (math.pi + 1.0) / 3.0 * k ** (-1.0 / 6.0)
    assert math.isclose(scal, hermite.phi_squared_many(k, np.array([x]))[0], rel_tol=1e-11)


# ----------------------------------------------------------------------
# squared Hermite function density
# ----------------------------------------------------------------------


def test_phi_squared_degree_zero_is_normal_density():
    for x in (-2.0, 0.0, 0.3, 5.0):
        assert math.isclose(
            hermite.phi_squared(0, x), math.exp(-x * x / 2.0) / SQRT_2PI, rel_tol=1e-14
        )


def test_phi_squared_degree_two_at_zero():
    assert math.isclose(hermite.phi_squared(2, 0.0), 1.0 / (2.0 * SQRT_2PI), rel_tol=1e-13)


def test_phi_squared_tail_is_tiny():
    assert hermite.phi_squared(1000, 2.0 * math.sqrt(1001.0) + 5.0) < 1e-10


def test_phi_squared_even_bitwise():
    for k in (1, 2, 9, 400):
        for x in (0.5, 1.7, 11.0, 2 * math.sqrt(k + 1.0) - 0.1):
            assert hermite.phi_squared(k, x) == hermite.phi_squared(k, -x)


def test_phi_squared_batch_matches_scalar():
    for k in (0, 1, 7, 1000):
        xs = np.linspace(-2.0 * math.sqrt(k + 1.0) - 3.0, 2.0 * math.sqrt(k + 1.0) + 3.0, 41)
        batch = hermite.phi_squared_many(k, xs)
        scal = np.array([hermite.phi_squared(k, t) for t in xs])
        assert np.allclose(batch, scal, rtol=1e-12, atol=1e-300)


def test_phi_squared_degrees_matches_single_degree(monkeypatch):
    # one degree per lane: unsorted, duplicated, including degrees 0, 1, 2
    rng = np.random.default_rng(11)
    ks = rng.choice([0, 1, 2, 2, 5, 37, 37, 400, 1000], 500)
    x = rng.uniform(-1.0, 1.0, ks.size) * (2.0 * np.sqrt(ks + 1.0) + 3.0)
    x[::40] = 1e154
    x[1::40] = -1e200
    x[2::40] = 1e6
    for chunk in (hermite._CHUNK, 16):  # one slice, and many slices
        monkeypatch.setattr(hermite, "_CHUNK", chunk)
        got = hermite.phi_squared_degrees(ks, x)
        for k in np.unique(ks):
            sel = ks == k
            ref = hermite.phi_squared_many(k, x[sel])
            assert np.allclose(got[sel], ref, rtol=1e-11, atol=1e-300)
    scal = np.array([hermite.phi_squared(k, t) for k, t in zip(ks, x)])
    assert np.allclose(got, scal, rtol=1e-11, atol=1e-300)
    huge = np.abs(x) >= 1e154
    assert np.all(got[huge] == 0.0)
    assert np.all(hermite.phi_squared_degrees(ks, x, return_log=True)[huge] == -math.inf)
    # at a single degree the kernel is bit-for-bit the one-degree path
    for k in (0, 1, 2, 37, 1000):
        same = np.full(x.shape, k)
        assert np.array_equal(hermite.phi_squared_degrees(same, x), hermite.phi_squared_many(k, x))
        assert np.array_equal(
            hermite.phi_squared_degrees(same, x, return_log=True),
            hermite.phi_squared_many(k, x, return_log=True),
        )


def test_phi_squared_degrees_edge_inputs():
    assert hermite.phi_squared_degrees([], []).shape == (0,)
    grid = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    got = hermite.phi_squared_degrees([[0, 4, 1], [4, 0, 2]], grid)
    assert got.shape == (2, 3)
    assert got[0, 0] == hermite.phi_squared_many(0, grid[0, :1])[0]
    with pytest.raises(ParameterError):
        hermite.phi_squared_degrees([3, -1], [0.0, 1.0])
    with pytest.raises(ParameterError):
        hermite.phi_squared_degrees([3, 4], [0.0, 1.0, 2.0])


def test_phi_squared_extreme_points():
    # tail-piece proposals can be enormous; evaluation must not overflow
    assert hermite.phi_squared(50, 1e6) == 0.0
    assert hermite.phi_squared(50, 1e200) == 0.0
    assert hermite.phi_squared(3, 1e160) == 0.0
    assert hermite.phi_squared_many(3, np.array([1e160]), return_log=True)[0] == -math.inf


@pytest.mark.parametrize("k", [3, 300])
def test_huge_points_underflow_to_zero(k):
    # every density underflows here; the recurrence must not overflow first
    huge = np.array([1e76, 1e100, 1e140, 1e150, 1e153])
    huge = np.concatenate([huge, -huge])
    for x in huge:
        assert hermite.phi_squared(k, x) == 0.0, x
        assert hermite.mixture_density(k, x) == 0.0, x
    # next to an ordinary point, whose value they must not change
    x = np.append(huge, 0.5)
    ks = np.full(x.shape, k)
    for phi in (
        hermite.phi_squared_many(k, x),
        hermite.phi_squared_degrees(ks, x),
        hermite.mixture_density_many(k, x),
    ):
        assert np.all(phi[:-1] == 0.0)
    assert np.all(hermite.phi_squared_many(k, x, return_log=True)[:-1] == -math.inf)
    assert np.all(hermite.phi_squared_degrees(ks, x, return_log=True)[:-1] == -math.inf)
    assert hermite.phi_squared_many(k, x)[-1] == hermite.phi_squared_many(k, [0.5])[0]
    assert hermite.mixture_density_many(k, x)[-1] == hermite.mixture_density(k, 0.5)


def test_phi_squared_bounded_by_sup():
    for k in (1, 5, 60, 2000):
        grid = np.linspace(0.0, 2.0 * math.sqrt(k + 1.0) + 3.0, 4001)
        sup = 8.0 * (math.pi + 1.0) / 3.0 * k ** (-1.0 / 6.0)
        assert hermite.phi_squared_many(k, grid).max() <= sup


def test_phi_squared_dominated_by_envelope():
    for k in (1, 2, 5, 20, 100, 1000, 10**4):
        spec = dominator.make_spec(k)
        grid = np.linspace(
            -2.0 * math.sqrt(k + 1.0) - 3.0, 2.0 * math.sqrt(k + 1.0) + 3.0, 10001
        )
        phi = hermite.phi_squared_many(k, grid)
        env = dominator.envelope_many(spec, grid)
        assert np.all(phi >= 0.0)
        assert np.all(phi <= env + 1e-12 * np.maximum(1.0, env))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=60),
    x=st.floats(min_value=-25.0, max_value=25.0, allow_nan=False),
)
def test_phi_squared_nonnegative_even_property(k, x):
    v = hermite.phi_squared(k, x)
    assert v >= 0.0 and math.isfinite(v)
    assert v == hermite.phi_squared(k, -x)


_PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
_DEC_60 = Context(prec=60, Emax=10**8, Emin=-(10**8))


def _hermite_decimal(n, x):
    """The weight w(x) = e^(-x^2/2) / sqrt(2 pi) and the pairs (H_j(x), j!)
    for j < n, from the raw recurrence H_{j+1} = x H_j - j H_{j-1} in
    60-digit decimal arithmetic, whose exponent range needs no rescaling.
    Call it, and do arithmetic on its values, inside localcontext(_DEC_60)."""
    x = Decimal(x)  # the exact binary value of the float
    weight = (-x * x / 2).exp() / (2 * _PI_60).sqrt()
    prev, cur, fact = Decimal(0), Decimal(1), Decimal(1)  # H_{-1}, H_0, 0!
    pairs = []
    for j in range(n):
        pairs.append((cur, fact))
        prev, cur, fact = cur, x * cur - j * prev, fact * (j + 1)
    return weight, pairs


def _phi_squares_decimal(n, x):
    """phi_0(x)^2, ..., phi_{n-1}(x)^2 in 60-digit decimal arithmetic."""
    with localcontext(_DEC_60):
        weight, pairs = _hermite_decimal(n, x)
        return [h * h / fact * weight for h, fact in pairs]


def _phi_sq_cdf_decimal(k, x):
    """F_k(x) for x >= 0 in 60-digit decimal arithmetic: the ladder sum
    w sum_{j=1..k} psi_j psi_{j-1} / sqrt(j) = w sum_{j=1..k} H_j H_{j-1} / j!
    subtracted from Phi(x) = 1/2 + w sum_{m>=0} x^(2m+1) / (1 3 5 ... (2m+1)),
    a series of positive terms."""
    with localcontext(_DEC_60):
        weight, pairs = _hermite_decimal(k + 1, x)
        ladder = sum(pairs[j][0] * pairs[j - 1][0] / pairs[j][1] for j in range(1, k + 1))
        x = Decimal(x)
        term = series = x
        m = 0
        while term > series * Decimal("1e-62"):
            m += 1
            term = term * x * x / (2 * m + 1)
            series += term
        return Decimal("0.5") + weight * (series - ladder)


def test_phi_squared_matches_decimal_reference():
    # the hat's slack must cover the float kernel's relative error, inside
    # the squeeze window and out past the turning point
    slack = dominator.SLACK
    for k in (10, 1000, 100_000):
        spec = dominator.make_spec(k)
        end = spec.edge + 10.0 * k ** (-1.0 / 6.0)
        xs = [f * spec.x1 for f in (0.0, 0.3, 0.6, 0.9)]
        xs += [spec.x1 + f * (end - spec.x1) for f in (0.0, 0.01, 0.1, 0.5, 1.0)]
        ref = np.array([float(_phi_squares_decimal(k + 1, x)[-1]) for x in xs])
        got = hermite.phi_squared_many(k, np.array(xs))
        assert np.all(ref > 0.0)
        assert np.all(np.abs(got - ref) <= slack / 100.0 * ref), (k, got / ref - 1.0)


def test_decreasing_beyond_certificate():
    for k in (0, 1, 2, 7, 100, 5000):
        x = dominator.make_spec(max(k, 1)).x1
        f, df = hermite.decreasing_beyond(k, x)
        # phi_k and phi_k' = -(x/2) phi_k + sqrt(k) phi_{k-1}, with both
        # phi values positive beyond the last zero
        assert math.isclose(f * f, hermite.phi_squared(k, x), rel_tol=1e-12)
        prev = math.sqrt(hermite.phi_squared(k - 1, x)) if k else 0.0
        assert math.isclose(df, -0.5 * x * f + math.sqrt(k) * prev, rel_tol=1e-10)
        assert df < 0.0
    # inside the bulk phi_k has zeros and maxima further out
    assert not hermite.decreasing_beyond(10, 1.0)
    assert not hermite.decreasing_beyond(100, 19.5)
    # beyond the last zero but before the last maximum: only the slope fails
    k = 100
    zero = np.max(np.polynomial.hermite_e.hermegauss(k)[0])
    assert not hermite.decreasing_beyond(k, zero + 0.01)
    assert not hermite.decreasing_beyond(k, zero - 0.01)  # psi_k < 0 there
    assert not hermite.decreasing_beyond(3, 0.0)


# ----------------------------------------------------------------------
# CDFs from the ladder identity
# ----------------------------------------------------------------------


def _quadrature_cdf(density, grid, width):
    """0.5 plus the integral of an even density from 0 to each point of the
    ascending grid (which starts at 0), by the verification quadrature."""
    parts = [
        verify.integrate_adaptive(density, a, b, 1e-14, initial_width=width)[0]
        for a, b in zip(grid[:-1], grid[1:])
    ]
    return 0.5 + np.concatenate([[0.0], np.cumsum(parts)])


@pytest.mark.parametrize("k", [0, 1, 3, 100, 1000])
def test_cdf_matches_quadrature(k):
    grid = np.linspace(0.0, math.sqrt(4.0 * k + 2.0) + 8.0, 33)
    ref = _quadrature_cdf(
        lambda xs: hermite.phi_squared_many(k, xs), grid, verify._oscillation_width(k)
    )
    assert np.max(np.abs(hermite.phi_sq_cdf_many(k, grid) - ref)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 40, 1000])
def test_mixture_cdf_matches_quadrature(n):
    grid = np.linspace(0.0, math.sqrt(4.0 * n - 2.0) + 8.0, 33)
    ref = _quadrature_cdf(
        lambda xs: hermite.mixture_density_many(n, xs), grid, verify._oscillation_width(n - 1)
    )
    assert np.max(np.abs(hermite.mixture_cdf_many(n, grid) - ref)) < 1e-12


@pytest.mark.parametrize("k", [1000, 10_000])
def test_cdf_matches_decimal_reference(k):
    edge = math.sqrt(4.0 * k + 2.0)
    xs = [f * edge for f in (0.0, 0.37, 0.81, 0.99)]  # bulk
    xs += [edge + d for d in (0.0, 1.0, 4.0, 8.0)]  # edge and tail
    ref = np.array([float(_phi_sq_cdf_decimal(k, x)) for x in xs])
    got = hermite.phi_sq_cdf_many(k, np.array(xs))
    assert np.max(np.abs(got - ref)) < 1e-13, got - ref


def test_cdf_degree_zero_matches_normal():
    assert abs(hermite.phi_sq_cdf(0, 1.0) - 0.8413447460685429) < 1e-15


def test_cdf_at_zero_is_half():
    for k in (0, 3, 50):
        assert hermite.phi_sq_cdf(k, 0.0) == 0.5
        assert hermite.phi_sq_cdf(k, -0.0) == 0.5
    for n in (1, 4, 51):
        assert np.all(hermite.mixture_cdf_many(n, [0.0, -0.0]) == 0.5)


def test_cdf_total_mass_is_one():
    for k in (0, 1, 5, 50, 500):
        assert hermite.phi_sq_cdf(k, 1e9) == 1.0
        assert hermite.phi_sq_cdf(k, -1e9) == 0.0
    # far out every term underflows; the ladder sum must not overflow on
    # the way there (the rescale schedule depends on the largest |x|)
    for k in (3, 60):
        for x in 2.0 ** np.arange(8.0, 252.0):
            assert np.array_equal(hermite.phi_sq_cdf_many(k, [x, -x]), [1.0, 0.0]), (k, x)


def test_cdf_even():
    # F(-x) = 1 - F(x); the ladder sum is odd in x bit for bit, so only the
    # rounding of Phi(-x) against 1 - Phi(x) shows
    for k in (1, 4, 37, 600):
        xs = np.linspace(0.0, math.sqrt(4.0 * k + 2.0) + 6.0, 97)
        got = hermite.phi_sq_cdf_many(k, -xs) - (1.0 - hermite.phi_sq_cdf_many(k, xs))
        assert np.max(np.abs(got)) <= 2e-16, k
    for n in (2, 37):
        xs = np.linspace(0.0, math.sqrt(4.0 * n) + 6.0, 97)
        got = hermite.mixture_cdf_many(n, -xs) - (1.0 - hermite.mixture_cdf_many(n, xs))
        assert np.max(np.abs(got)) <= 2e-16, n


def test_cdf_at_huge_points_is_the_normal_cdf():
    # at +-inf and |x| >= 1e76 the ladder sum is not run: exactly Phi(x)
    huge = np.array([np.inf, 1e76, 1e100, 1e300])
    x = np.concatenate([huge, -huge, [0.5]])
    for k in (0, 3, 300):
        got = hermite.phi_sq_cdf_many(k, x)
        assert np.all(got[:4] == 1.0) and np.all(got[4:8] == 0.0)
        assert got[-1] == hermite.phi_sq_cdf(k, 0.5)
    got = hermite.mixture_cdf_many(40, x)
    assert np.all(got[:4] == 1.0) and np.all(got[4:8] == 0.0)


def test_cdf_many_matches_scalar_and_monotone():
    k = 37
    xs = np.linspace(-14.0, 14.0, 301)
    many = hermite.phi_sq_cdf_many(k, xs)
    assert np.all(np.diff(many) >= -1e-15)
    assert hermite.phi_sq_cdf_many(k, xs.reshape(7, 43)).shape == (7, 43)
    for i in (0, 73, 150, 300):
        assert abs(many[i] - hermite.phi_sq_cdf(k, xs[i])) < 1e-15


def test_cdf_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        hermite.phi_sq_cdf_many(-1, [0.0])
    with pytest.raises(ParameterError):
        hermite.mixture_cdf_many(0, [0.0])


# ----------------------------------------------------------------------
# mixture density
# ----------------------------------------------------------------------


def test_mixture_single_term_is_normal():
    for x in (-1.0, 0.0, 2.2):
        assert math.isclose(
            hermite.mixture_density(1, x), math.exp(-x * x / 2) / SQRT_2PI, rel_tol=1e-13
        )


def test_mixture_two_terms_at_zero():
    # second term vanishes at 0, leaving half the normal density
    assert math.isclose(hermite.mixture_density(2, 0.0), 0.5 / SQRT_2PI, rel_tol=1e-13)


def test_mixture_matches_explicit_sum():
    # the closed form against the sum of its n terms, out past the edge
    for n in (2, 7, 40, 1000):
        xs = np.linspace(-1.0, 1.0, 41) * (2.0 * math.sqrt(n) + 8.0)
        ks = np.repeat(np.arange(n), xs.size)
        terms = hermite.phi_squared_degrees(ks, np.tile(xs, n)).reshape(n, -1)
        got = hermite.mixture_density_many(n, xs)
        assert np.allclose(got, terms.mean(axis=0), rtol=1e-11, atol=0.0)


def test_mixture_matches_decimal_reference():
    n = 1000
    edge = 2.0 * math.sqrt(n)
    xs = [f * edge for f in (0.0, 0.37, 0.81)]  # bulk
    xs += [edge + d for d in (-1.0, 0.0, 1.5, 4.0, 8.0)]  # edge and tail
    ref = np.array([float(sum(_phi_squares_decimal(n, x))) / n for x in xs])
    got = hermite.mixture_density_many(n, np.array(xs))
    assert np.all(ref > 0.0)
    assert np.allclose(got, ref, rtol=1e-10, atol=0.0), got / ref - 1.0


def test_mixture_second_moment_equals_size():
    for n in (2, 7, 50):
        val, _ = verify.integrate_adaptive(
            lambda xs: xs * xs * hermite.mixture_density_many(n, xs),
            0.0,
            math.sqrt(4.0 * n) + 12.0,
            1e-9 * n,
            initial_width=verify._oscillation_width(max(n - 1, 1)),
        )
        assert abs(2.0 * val - n) < 1e-7 * n


# ----------------------------------------------------------------------
# the verification quadrature
# ----------------------------------------------------------------------


def test_integrate_adaptive_polynomial_exact():
    val, err = verify.integrate_adaptive(lambda x: x**4, 0.0, 2.0, 1e-12)
    assert abs(val - 32.0 / 5.0) < 1e-11


def test_integrate_adaptive_needs_positive_tol():
    with pytest.raises(ParameterError):
        verify.integrate_adaptive(lambda x: x, 0.0, 1.0, -1.0)


def test_integrate_adaptive_refines_sharp_peak():
    val, err = verify.integrate_adaptive(
        lambda x: 1.0 / (1e-4 + (x - 0.7) ** 2), 0.0, 1.0, 1e-9
    )
    ref = (math.atan(0.3 / 1e-2) + math.atan(0.7 / 1e-2)) / 1e-2
    assert abs(val - ref) < 1e-7 * ref


def test_integrate_adaptive_raises_on_exhausted_budget():
    from guegen.errors import ConvergenceError

    with pytest.raises(ConvergenceError):
        verify.integrate_adaptive(
            lambda x: 1.0 / (1e-12 + (x - 0.5) ** 2), 0.0, 1.0, 1e-14, max_panels=8
        )
