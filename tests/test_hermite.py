import hashlib
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
# the polynomial recurrence, one point at a time
# ----------------------------------------------------------------------


def _density_from_poly(h, k, x):
    """phi_k(x)^2 from a hand value h = H_k(x)."""
    return h * h * math.exp(-x * x / 2.0) / (math.factorial(k) * SQRT_2PI)


def test_polynomial_hand_values():
    # H_0 = 1, H_1(x) = x, H_2(0) = -1; H_2(1)=0, H_3(1)=-2, H_4(1)=1*(-2)-3*0=-2
    for h, k, x in ((1.0, 0, 12.3), (3.5, 1, 3.5), (-1.0, 2, 0.0), (-2.0, 4, 1.0)):
        got = hermite.phi_squared_many(k, [x])[0]
        assert math.isclose(got, _density_from_poly(h, k, x), rel_tol=1e-13)


def test_polynomial_rejects_negative_degree():
    with pytest.raises(ParameterError):
        hermite.phi_squared_many(-1, np.zeros(2))


def test_polynomial_survives_huge_magnitudes():
    # raw H_k near the spectral edge is ~e^k; the rescaled recurrence must
    # carry it to a finite, positive density
    k = 5000
    x = 2.0 * math.sqrt(k)
    value = hermite.phi_squared_many(k, [x])[0]
    assert 0.0 < value < 8.0 * (math.pi + 1.0) / 3.0 * k ** (-1.0 / 6.0)


# ----------------------------------------------------------------------
# the kernel's two paths: numpy loop and float lane loop
# ----------------------------------------------------------------------


def _kernel_paths(monkeypatch, ks, x, weights=None):
    out = []
    # numpy loop only, numpy loop handing its last half of lanes to the float
    # lane loop (the first split again at one lane), float lane loop only;
    # each under the kernel's rescale rule and under a rescale after every step
    for steps in (hermite._steps, lambda absx, j, limit: 1):
        monkeypatch.setattr(hermite, "_steps", steps)
        for few in sorted({0, len(x) // 2, 10**9}):
            monkeypatch.setattr(hermite, "_FEW_LANES", few)
            out.append(hermite._psi_scaled_sorted(ks, x, weights))
    return out


@pytest.mark.parametrize("lanes", [1, 2, 15, 16, 17, 40])
def test_kernel_paths_agree_bitwise(monkeypatch, lanes):
    # every path split and every rescale schedule gives the same bits:
    # rescaling by a power of two is exact
    rng = np.random.default_rng(lanes)
    # one degree per slice, then mixed descending degrees up to 1e4 (the
    # costly degree, so it gets fewer point scales)
    small = [(np.full(lanes, k), (0.0, 1.0, 1e3, 1e40, 9e75)) for k in (0, 1, 2, 3, 100)]
    mixed = np.sort(rng.choice([0, 1, 2, 3, 100, 10**4], lanes))[::-1]
    mixed[0] = 10**4
    for ks, scales in small + [(mixed, (0.0, 1.0, 9e75))]:
        top = int(ks.max())
        j = np.arange(1.0, top + 1)
        # no ladder sum, and the ladder weights of phi_sq_cdf_many and
        # mixture_cdf_many (n = top + 1)
        ladders = (None, 1.0 / np.sqrt(j), (top + 1.0 - j) / ((top + 1.0) * np.sqrt(j)))
        for scale in scales:
            x = rng.uniform(-1.0, 1.0, lanes)
            x *= 2.0 * math.sqrt(top + 1.0) + 3.0 if scale == 1.0 else scale
            x[::3] = -x[::3]
            for w in ladders:
                w = None if w is None else [0.0] + w.tolist()
                numpy_path, *others = _kernel_paths(monkeypatch, ks, x, w)
                for other in others:
                    for a, b in zip(numpy_path, other):
                        assert (a is None and b is None) or np.array_equal(a, b), (ks, x, w)


def test_kernel_keeps_its_recorded_bits():
    # SHA-256 of _psi_scaled_sorted's four outputs (little-endian float64
    # mantissas and ladder sum, int64 exponents) on this seeded batch, plain
    # and with the phi_sq_cdf_many ladder weights, recorded from the kernel
    # of commit 16ee11d, which rescaled on a fixed stride; a rescale
    # schedule cannot move them.  Only IEEE multiply, subtract, add, divide,
    # sqrt and power-of-two scaling reach these values, so they hold on any
    # platform.
    rng = np.random.default_rng(16)
    ks = np.sort(rng.integers(0, 3001, 600))[::-1]
    ks[:3] = 10**4
    x = rng.uniform(-1.0, 1.0, ks.size) * (2.0 * np.sqrt(ks + 1.0) + 3.0)
    x[::50] *= 1e3
    x[7] = 0.0
    ladder = [0.0] + (1.0 / np.sqrt(np.arange(1.0, 10**4 + 1))).tolist()
    recorded = {
        None: "3ef504b8886f8f866ae73a353a5ae2197666a7f872cd8dade21a7ea084f6c511",
        "ladder": "6e38a66963e64b5f4c30479a02c28763a135ec2d6322f4ab2c59aa87f0d06778",
    }
    for key, weights in ((None, None), ("ladder", ladder)):
        digest = hashlib.sha256()
        for a in hermite._psi_scaled_sorted(ks, x, weights):
            if a is not None:
                digest.update(a.astype("<f8" if a.dtype.kind == "f" else "<i8").tobytes())
        assert digest.hexdigest() == recorded[key], key


@pytest.mark.parametrize("k", [1, 100, 10**4])
def test_block_products_keep_the_bits(monkeypatch, k):
    # a pass that forms c_j x for a block of steps in one multiply gives
    # the bits of one that forms it step by step: never block, always block
    rng = np.random.default_rng(k)
    x = rng.uniform(-1.0, 1.0, 600) * (2.0 * math.sqrt(k + 1.0) + 3.0)
    ks = rng.integers(0, k + 1, x.size)
    outs = []
    for lanes in (0, 10**9):
        monkeypatch.setattr(hermite, "_BLOCK_LANES", lanes)
        outs.append(
            [
                hermite.phi_squared_many(k, x).tobytes(),
                hermite.phi_squared_degrees(ks, x).tobytes(),
                hermite.phi_sq_cdf_many(k, x[:200]).tobytes(),
            ]
        )
    assert outs[0] == outs[1]


def test_coefficient_cache_keeps_bits(monkeypatch):
    ks, x = np.array([2000, 300, 300, 5, 0]), np.array([80.0, -30.0, 1.5, 2.0, 0.5])
    empty = ([], [1.0], np.empty(0))
    monkeypatch.setattr(hermite, "_coeffs", empty)
    fresh = hermite.phi_squared_degrees(ks, x).tobytes()
    assert [len(v) for v in hermite._coeffs] == [2000, 2001, 2000]
    hermite.phi_squared_many(2500, [1.0])  # at least doubles the cached lists
    assert [len(v) for v in hermite._coeffs] == [4000, 4001, 4000]
    assert hermite._coeffs[2].tolist() == hermite._coeffs[0]
    assert hermite.phi_squared_degrees(ks, x).tobytes() == fresh
    # past the cap each call builds its own lists and the cache stays as it was
    monkeypatch.setattr(hermite, "_COEFF_CAP", 100)
    monkeypatch.setattr(hermite, "_coeffs", empty)
    assert hermite.phi_squared_degrees(ks, x).tobytes() == fresh
    assert hermite._coeffs is empty


def test_scaled_recurrence_coefficients(monkeypatch):
    # y_j = D_j psi_j turns the step into y_{j+1} = c_j x y_j - y_{j-1}
    monkeypatch.setattr(hermite, "_coeffs", ([], [1.0], np.empty(0)))
    hermite.phi_squared_many(100_000, [0.5])
    c, inv_d, cv = hermite._coeffs
    assert len(c) == 100_000 and len(inv_d) == 100_001
    # the bound the rescale rule rests on, an equality at j = 1
    bound = np.sqrt(2.0 / np.arange(1.0, len(c) + 1.0)) * (1.0 + hermite._SLACK)
    assert np.all(cv <= bound) and cv[1] == 1.0
    # D_{j+1} = D_{j-1} sqrt((j+1)/j) gives c_j c_{j-1} = 1/j
    j = np.arange(1.0, len(c))
    assert np.max(np.abs(np.array(c[1:]) * np.array(c[:-1]) * j - 1.0)) <= 1e-14
    # D_{2i}^2 = 4^i (i!)^2 / (2i)! and D_{2i+1}^2 = (2i+1)! / (4^i (i!)^2), as
    # the correctly rounded quotient of exact integers
    for j in list(range(300)) + np.geomspace(300, 100_000, 25).astype(int).tolist():
        i, odd = divmod(j, 2)
        central = math.comb(2 * i, i)
        square = (2 * i + 1) * central / 4**i if odd else 4**i / central
        assert abs(math.sqrt(square) * inv_d[j] - 1.0) <= 1e-13, j


def test_psi_rows_keep_their_direction_past_overflow():
    # raw squared norms sum_k psi_k(x)^2 pass the double range near |x| = 38,
    # inside the n = 600 spectrum (edge 2 sqrt(n) = 49); the scaled rows
    # keep the direction of (psi_0, ..., psi_{n-1})
    n = 600
    x = np.array([0.3, -5.0, 20.0, 45.0, -48.9])
    rows = hermite.psi_rows(n, x)
    assert np.all(np.isfinite(rows))
    for xi, row in zip(x, rows):
        # log phi_k(xi)^2, k = n-1 ... 0: the densities themselves underflow
        log_sq = hermite._log_phi_sq_sorted(np.arange(n)[::-1], np.full(n, xi))[::-1]
        ref = np.exp(0.5 * (log_sq - log_sq.max()))  # |psi_k| up to one factor
        got = np.abs(row) / np.linalg.norm(row)
        assert np.allclose(got, ref / np.linalg.norm(ref), rtol=0.0, atol=1e-13)
    for bad in (math.inf, -math.inf, math.nan):  # no finite rescale schedule exists
        with pytest.raises(ParameterError):
            hermite.psi_rows(3, [0.5, bad])


def test_far_tail_lanes_skip_the_kernel(monkeypatch):
    # lanes at x^2 >= 6 (k ln 2 + ln(k+1) + 750) never reach the kernel, and
    # get what their underflow gives: density 0, CDF Phi(x)
    seen = []
    kernel = hermite._psi_scaled_sorted

    def spy(ks, x, weights=None):
        seen.append((np.array(ks), np.array(x)))
        return kernel(ks, x, weights)

    monkeypatch.setattr(hermite, "_psi_scaled_sorted", spy)
    for k in (0, 3, 300, 20_000):
        cut = math.sqrt(6.0 * (k * math.log(2.0) + math.log(k + 1.0) + 750.0))
        x = np.array([0.5, -cut, cut * (1 + 1e-12), 1e40, -9e75, 1e300, np.inf, 0.9 * cut])
        ks = np.full(x.size, k)
        for values in (
            hermite.phi_squared_many(k, x),
            hermite.phi_squared_degrees(ks, x),
            hermite.mixture_density_many(k + 1, x),
        ):
            assert np.all(values[1:7] == 0.0) and values[0] > 0.0
        for cdf in (hermite.phi_sq_cdf_many(k, x), hermite.mixture_cdf_many(k + 1, x)):
            assert np.all(cdf[[2, 3, 5, 6]] == 1.0) and np.all(cdf[[1, 4]] == 0.0)
    assert seen
    for ks, x in seen:
        assert np.all(x * x < 6.0 * (ks * math.log(2.0) + np.log1p(ks) + 750.0)), (ks, x)


# ----------------------------------------------------------------------
# squared Hermite function density
# ----------------------------------------------------------------------


def test_phi_squared_degree_zero_is_normal_density():
    for x in (-2.0, 0.0, 0.3, 5.0):
        assert math.isclose(
            hermite.phi_squared_many(0, [x])[0], math.exp(-x * x / 2.0) / SQRT_2PI, rel_tol=1e-14
        )


def test_phi_squared_degree_two_at_zero():
    value = hermite.phi_squared_many(2, [0.0])[0]
    assert math.isclose(value, 1.0 / (2.0 * SQRT_2PI), rel_tol=1e-13)


def test_phi_squared_tail_is_tiny():
    assert hermite.phi_squared_many(1000, [2.0 * math.sqrt(1001.0) + 5.0])[0] < 1e-10


def test_phi_squared_even_bitwise():
    for k in (1, 2, 9, 400):
        xs = np.array([0.5, 1.7, 11.0, 2 * math.sqrt(k + 1.0) - 0.1])
        assert np.array_equal(hermite.phi_squared_many(k, xs), hermite.phi_squared_many(k, -xs))


def test_phi_squared_batch_matches_scalar():
    for k in (0, 1, 7, 1000):
        xs = np.linspace(-2.0 * math.sqrt(k + 1.0) - 3.0, 2.0 * math.sqrt(k + 1.0) + 3.0, 41)
        one_point = np.concatenate([hermite.phi_squared_many(k, [t]) for t in xs])
        assert np.array_equal(hermite.phi_squared_many(k, xs), one_point)


@pytest.mark.parametrize("k", [0, 1, 3, 1000, 20_000])
def test_batch_values_equal_one_point_values(k):
    # every value is a function of its own (k, x): 21 points run the numpy
    # loop on the rescale schedule of |x| = 9e75, one point the lane loop on
    # its own
    rng = np.random.default_rng(k)
    edge = 2.0 * math.sqrt(k + 1.0) + 3.0
    xs = np.array([0.0, 1e-300, -1e-300, 1e20, -1e20, 9e75, -9e75])
    xs = np.concatenate([xs, rng.uniform(-edge, edge, 14)])
    for f in (
        lambda x: hermite.phi_squared_many(k, x),
        lambda x: hermite.phi_sq_cdf_many(k, x),
        lambda x: hermite.mixture_cdf_many(k + 1, x),
        lambda x: hermite.mixture_density_many(k + 1, x),
    ):
        alone = np.concatenate([f(np.array([t])) for t in xs])
        assert np.array_equal(f(xs), alone)


def _tiny_lane_paths(monkeypatch, ks, x):
    # the kernel's (psi_{k-1}, psi_k, exponent) of the lanes (k, x), k in ks
    # ascending: one-lane calls on the float loop; the numpy loop at the lane's
    # own |x| (a batch of lanes at one |x| runs the one-lane schedule); and
    # lanes of batches on the numpy loop at the schedule of |x| = 90 and 9e75,
    # where 21 lanes of the top degree keep the numpy loop to the end
    paths = [
        [np.concatenate(v) for v in zip(*(
            hermite._psi_scaled_sorted(np.array([k]), np.array([x]))[:3] for k in ks
        ))]
    ]
    with monkeypatch.context() as m:
        m.setattr(hermite, "_FEW_LANES", 0)
        own = hermite._psi_scaled_sorted(ks[::-1].copy(), np.full(ks.size, x))
        paths.append([a[::-1] for a in own[:3]])
    for big in (90.0, 9e75):
        kk = np.concatenate([np.full(21, ks[-1]), ks[::-1]])
        xx = np.concatenate([np.full(21, big), np.full(ks.size, x)])
        paths.append([a[21:][::-1] for a in hermite._psi_scaled_sorted(kk, xx)[:3]])
    return paths


def test_tiny_points_keep_their_bits_from_the_stated_bound(monkeypatch):
    # the module docstring's bound: at x = 0 and at |x| >= 1e-305, k <= 2e4,
    # every path gives a lane the same bits; at 3.3e-307 they differ, for
    # k = 79 ... 154, so the check can see a difference
    ks = np.array([*range(1, 161), *range(19_950, 20_001)])
    for x in (0.0, 1e-305, -1.3e-305, 2.2250738585072014e-305, 1e-304):
        first, *others = _tiny_lane_paths(monkeypatch, ks, x)
        for other in others:
            for a, b in zip(first, other):
                assert a.tobytes() == b.tobytes(), x
    first, *others = _tiny_lane_paths(monkeypatch, ks, 3.3e-307)
    assert any(a.tobytes() != b.tobytes() for other in others for a, b in zip(first, other))


def test_phi_squared_degrees_matches_single_degree(monkeypatch):
    # one degree per lane: unsorted, duplicated, including degrees 0, 1, 2
    rng = np.random.default_rng(11)
    ks = rng.choice([0, 1, 2, 2, 5, 37, 37, 400, 1000], 500)
    x = rng.uniform(-1.0, 1.0, ks.size) * (2.0 * np.sqrt(ks + 1.0) + 3.0)
    x[::40] = 1e154
    x[1::40] = -1e200
    x[2::40] = 1e6
    sliced = []
    for chunk in (hermite._CHUNK, 16):  # one slice, and many slices
        monkeypatch.setattr(hermite, "_CHUNK", chunk)
        got = hermite.phi_squared_degrees(ks, x)
        for k in np.unique(ks):
            sel = ks == k
            assert np.array_equal(got[sel], hermite.phi_squared_many(k, x[sel]))
        sliced.append(got)
    assert np.array_equal(sliced[0], sliced[1])
    one_point = np.concatenate([hermite.phi_squared_many(k, [t]) for k, t in zip(ks, x)])
    assert np.array_equal(got, one_point)
    huge = np.abs(x) >= 1e154
    assert np.all(got[huge] == 0.0)
    # at a single degree the kernel is bit-for-bit the one-degree path
    for k in (0, 1, 2, 37, 1000):
        same = np.full(x.shape, k)
        assert np.array_equal(hermite.phi_squared_degrees(same, x), hermite.phi_squared_many(k, x))


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
    assert np.all(hermite.phi_squared_many(50, [1e6, 1e200]) == 0.0)
    assert hermite.phi_squared_many(3, [1e160])[0] == 0.0


@pytest.mark.parametrize("k", [3, 300])
def test_huge_points_underflow_to_zero(k):
    # every density underflows here; the recurrence must not overflow first
    huge = np.array([1e76, 1e100, 1e140, 1e150, 1e153])
    huge = np.concatenate([huge, -huge])
    for x in huge:
        assert hermite.phi_squared_many(k, [x])[0] == 0.0, x
        assert hermite.mixture_density_many(k, [x])[0] == 0.0, x
    # next to an ordinary point, whose value they must not change
    x = np.append(huge, 0.5)
    ks = np.full(x.shape, k)
    for phi in (
        hermite.phi_squared_many(k, x),
        hermite.phi_squared_degrees(ks, x),
        hermite.mixture_density_many(k, x),
    ):
        assert np.all(phi[:-1] == 0.0)
    assert hermite.phi_squared_many(k, x)[-1] == hermite.phi_squared_many(k, [0.5])[0]
    assert hermite.mixture_density_many(k, x)[-1] == hermite.mixture_density_many(k, [0.5])[0]


def test_nan_points_get_nan():
    # NaN is not a point beyond _HUGE_X: it gets NaN, like the CDFs there,
    # and leaves the other lanes' values (and rescale schedule) alone
    x = np.array([np.nan, 0.5, np.inf, -np.inf, 1e80, -np.nan])
    k = 40
    ks = np.full(x.shape, k)
    for values in (
        hermite.phi_squared_many(k, x),
        hermite.phi_squared_degrees(ks, x),
        hermite.mixture_density_many(k, x),
    ):
        assert np.isnan(values[[0, 5]]).all()
        assert not np.isnan(values[1:5]).any()
        assert values[1] > 0.0 and np.all(values[2:5] == 0.0)
    assert hermite.phi_squared_many(k, x)[1] == hermite.phi_squared_many(k, [0.5])[0]
    assert hermite.mixture_density_many(k, x)[1] == hermite.mixture_density_many(k, [0.5])[0]
    assert np.isnan(hermite.phi_sq_cdf_many(k, x)[[0, 5]]).all()
    assert np.isnan(hermite.mixture_cdf_many(k, x)[[0, 5]]).all()


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
    v, mirror = hermite.phi_squared_many(k, [x, -x])
    assert v >= 0.0 and math.isfinite(v)
    assert v == mirror


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


def _certified(k, x):
    """(f, f', flag) of one lane of hermite.certify_decreasing."""
    f, df, ok = hermite.certify_decreasing([k], [x])
    return float(f[0]), float(df[0]), bool(ok[0])


def test_certify_decreasing():
    for k in (0, 1, 2, 7, 100, 5000):
        x = dominator.make_spec(max(k, 1)).x1
        f, df, ok = _certified(k, x)
        assert ok
        # phi_k and phi_k' = -(x/2) phi_k + sqrt(k) phi_{k-1}, with both
        # phi values positive beyond the last zero
        assert math.isclose(f * f, hermite.phi_squared_many(k, [x])[0], rel_tol=1e-12)
        prev = math.sqrt(hermite.phi_squared_many(k - 1, [x])[0]) if k else 0.0
        assert math.isclose(df, -0.5 * x * f + math.sqrt(k) * prev, rel_tol=1e-10)
        assert df < 0.0
    # inside the bulk phi_k has zeros and maxima further out
    assert not _certified(10, 1.0)[2]
    assert not _certified(100, 19.5)[2]
    # beyond the last zero but before the last maximum: only the slope fails
    k = 100
    zero = np.max(np.polynomial.hermite_e.hermegauss(k)[0])
    assert not _certified(k, zero + 0.01)[2]
    assert not _certified(k, zero - 0.01)[2]  # psi_k < 0 there
    assert not _certified(3, 0.0)[2]
    assert all(v.size == 0 for v in hermite.certify_decreasing([], []))
    # points must be finite with finite squares: beyond 1.3e154 the kernel overflows
    cases = (([-1], [1.0]), ([5], [math.inf]), ([5], [math.nan]), ([1, 2], [1.0]), ([5], [1e200]))
    for ks, xs in cases:
        with pytest.raises(ParameterError):
            hermite.certify_decreasing(ks, xs)


def test_certificate_paths_agree_bitwise():
    # each lane alone runs the float loop, the batch the numpy loop
    zero = float(np.max(np.polynomial.hermite_e.hermegauss(100)[0]))
    lanes = [(k, dominator.make_spec(max(k, 1)).x1) for k in (0, 1, 2, 7, 50, 100, 999, 5000)]
    lanes += [(10, 1.0), (100, 19.5), (100, zero + 0.01), (100, zero - 0.01), (3, 0.0)]
    lanes += [(k, 0.9 * dominator.make_spec(k).x1) for k in (3, 30, 300, 3000)]
    lanes += [(5000, 1e3), (1, -2.0)]
    lanes += [(k, dominator.make_spec(k).x1) for k in (4, 10, 20, 40, 200, 500, 2000)]
    assert len(lanes) > hermite._FEW_LANES
    ks, xs = zip(*lanes)
    batch = hermite.certify_decreasing(ks, xs)
    assert 0 < batch[2].sum() < len(lanes)
    for i, (k, x) in enumerate(lanes):
        alone = hermite.certify_decreasing([k], [x])
        for a, b in zip(alone, batch):
            assert a.tobytes() == b[i : i + 1].tobytes(), (k, x)


def _sturm_decreasing(k, x):
    """The full Sturm criterion in 60-digit arithmetic: x > 0, every
    H_j(x) > 0 for j <= k (so H_k has no zero above x), and phi_k'(x) < 0,
    which with sqrt(k) psi_{k-1} = k H_{k-1} / sqrt(k!) reads
    k H_{k-1}(x) < (x/2) H_k(x)."""
    with localcontext(_DEC_60):
        _, pairs = _hermite_decimal(k + 1, x)
        h = [p[0] for p in pairs]
        below = k * h[k - 1] if k else Decimal(0)
        return x > 0.0 and all(v > 0 for v in h) and below < Decimal(x) / 2 * h[k]


def _assert_certificate_sound(lanes):
    ks, xs = zip(*lanes)
    certified = hermite.certify_decreasing(ks, xs)[2].tolist()
    for (k, x), ok in zip(lanes, certified):
        assert not ok or _sturm_decreasing(k, x), (k, x)
    return certified


def test_certificate_sound_on_adversarial_lanes():
    zeros = np.sort(np.polynomial.hermite_e.hermegauss(100)[0])
    lanes = [(k, dominator.make_spec(max(k, 1)).x1) for k in (0, 1, 2, 7, 100, 5000)]
    # on both sides of the largest zero, and just inside the second largest,
    # where phi_k > 0 and phi_k' < 0 but zeros lie further out
    lanes += [(100, zeros[-1] + 0.01), (100, zeros[-1] - 0.01), (100, zeros[-2] - 0.01)]
    lanes += [(10, 1.0), (100, 19.5)] + [(k, 0.9 * dominator.make_spec(k).x1) for k in (3, 300)]
    lanes += [(3, 0.0), (1, -2.0), (0, -1.0), (0, 0.0), (0, 0.5), (0, 3.0), (5000, 1e3)]
    certified = _assert_certificate_sound(lanes)
    assert 0 < sum(certified) < len(lanes)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=3000),
    u=st.floats(min_value=-6.0, max_value=2.0),
)
def test_certificate_sound_near_edge(k, u):
    # u in units of k^(-1/6) from the turning point covers the last zeros
    # and maxima of phi_k, where the certificate's decision turns
    _assert_certificate_sound([(k, math.sqrt(4.0 * k + 2.0) + u * max(k, 1) ** (-1.0 / 6.0))])


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
    assert abs(hermite.phi_sq_cdf_many(0, [1.0])[0] - 0.8413447460685429) < 1e-15


def test_cdf_at_zero_is_half():
    for k in (0, 3, 50):
        assert np.all(hermite.phi_sq_cdf_many(k, [0.0, -0.0]) == 0.5)
    for n in (1, 4, 51):
        assert np.all(hermite.mixture_cdf_many(n, [0.0, -0.0]) == 0.5)


def test_cdf_total_mass_is_one():
    for k in (0, 1, 5, 50, 500):
        assert np.array_equal(hermite.phi_sq_cdf_many(k, [1e9, -1e9]), [1.0, 0.0])
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
        assert got[-1] == hermite.phi_sq_cdf_many(k, [0.5])[0]
    got = hermite.mixture_cdf_many(40, x)
    assert np.all(got[:4] == 1.0) and np.all(got[4:8] == 0.0)


def test_cdf_many_matches_scalar_and_monotone():
    k = 37
    xs = np.linspace(-14.0, 14.0, 301)
    many = hermite.phi_sq_cdf_many(k, xs)
    assert np.all(np.diff(many) >= -1e-15)
    assert hermite.phi_sq_cdf_many(k, xs.reshape(7, 43)).shape == (7, 43)
    for i in (0, 73, 150, 300):
        assert abs(many[i] - hermite.phi_sq_cdf_many(k, [xs[i]])[0]) < 1e-15


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
            hermite.mixture_density_many(1, [x])[0], math.exp(-x * x / 2) / SQRT_2PI, rel_tol=1e-13
        )


def test_mixture_two_terms_at_zero():
    # second term vanishes at 0, leaving half the normal density
    value = hermite.mixture_density_many(2, [0.0])[0]
    assert math.isclose(value, 0.5 / SQRT_2PI, rel_tol=1e-13)


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


def test_integrate_adaptive_stops_at_the_rounding_floor():
    # a tolerance below what float sums can resolve returns the estimate
    # instead of bisecting to the panel cap
    val, _ = verify.integrate_adaptive(lambda x: np.exp(-x * x), -6.0, 6.0, 1e-17)
    assert abs(val - math.sqrt(math.pi)) < 1e-14


def test_integrate_adaptive_raises_on_exhausted_budget(monkeypatch):
    from guegen.errors import ConvergenceError

    monkeypatch.setattr(verify, "MAX_PANELS", 8)
    with pytest.raises(ConvergenceError):
        verify.integrate_adaptive(lambda x: 1.0 / (1e-12 + (x - 0.5) ** 2), 0.0, 1.0, 1e-14)
