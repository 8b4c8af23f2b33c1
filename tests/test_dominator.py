import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guegen import dominator, hermite, vanveen, verify
from guegen.errors import CertificateError, ConvergenceError, ParameterError
from guegen.rng import RandomStream


def _levels(spec):
    """The hat's piece formulas, written out from the module docstring."""
    n, e = spec.n, 2.0 * math.sqrt(spec.n + 1.0)
    pref = math.exp(vanveen.log_prefactor(n))

    def c_at(x):
        sin_a = math.sqrt(1.0 - x * x / (e * e))
        a = math.sqrt(math.pi / ((n + 1.0) * sin_a))
        r = 1.0 / (3.0 * (n + 1.0) * sin_a * sin_a)
        return (1.0 + 4.2 * r / a) ** 2

    f, df = hermite.decreasing_beyond(n, spec.x1)
    s_x1 = f * f + df * df / (n + 0.5 - spec.x1**2 / 4.0)
    x_t = math.sqrt(4.0 * n + 2.0)
    c = 4.0 / 3.0 * math.sqrt(x_t / 2.0)
    s = c ** (-2.0 / 3.0)
    slack = 1.0 + dominator.SLACK
    bulk = slack * c_at(spec.x_c) * pref * math.pi / (n + 1.0) * e
    return (
        lambda a: bulk / math.sqrt(e * e - a * a),
        lambda a: slack * s_x1,
        lambda a: slack * f * f,
        lambda a: slack * f * f * math.exp(-c * math.sqrt(s) * (a - x_t)),
    )


def _pieces(spec):
    return (
        (0.0, spec.x_c),
        (spec.x_c, spec.x1),
        (spec.x1, spec.x_tail),
        (spec.x_tail, spec.x_tail + 40.0 / spec.rate),
    )


def test_spec_small_case():
    spec = dominator.make_spec(1)
    assert math.isclose(
        spec.x1, math.sqrt(6.0 - math.pi**2 / (math.pi + 1.0) ** 2), rel_tol=1e-12
    )
    assert abs(spec.x1 - 2.32907) < 1e-5


def test_spec_breakpoint_ordering():
    for n in (1, 2, 10, 10**3, 10**5):
        spec = dominator.make_spec(n)
        assert 0.0 < spec.x_c < spec.x1 < spec.edge < spec.x_tail
        assert spec.edge < spec.vv_edge
        assert all(p > 0.0 for p in spec.masses)


def test_spec_rejects_bad_degree():
    with pytest.raises(ParameterError):
        dominator.make_spec(0)


def test_failed_certificate_raises(monkeypatch):
    dominator.make_spec.cache_clear()
    monkeypatch.setattr(hermite, "decreasing_beyond", lambda k, x: None)
    with pytest.raises(CertificateError):
        dominator.make_spec(100)
    assert issubclass(CertificateError, ConvergenceError)  # exit code 2
    monkeypatch.undo()
    dominator.make_spec.cache_clear()
    assert dominator.make_spec(100).x1 > 0.0


def test_envelope_value_at_origin():
    spec = dominator.make_spec(1)
    bulk = _levels(spec)[0]
    assert math.isclose(
        dominator.envelope_many(spec, np.array([0.0]))[0], bulk(0.0), rel_tol=1e-13
    )


def test_envelope_even():
    spec = dominator.make_spec(9)
    xs = np.array([0.3, spec.x_c + 0.1, spec.x1 + 0.01, spec.x_tail + 5.0])
    assert np.array_equal(
        dominator.envelope_many(spec, xs), dominator.envelope_many(spec, -xs)
    )


def test_envelope_matches_piece_formulas():
    for n in (1, 33, 10**4):
        spec = dominator.make_spec(n)
        for (lo, hi), formula in zip(_pieces(spec), _levels(spec)):
            xs = np.linspace(lo, hi, 52)[1:-1]
            ref = np.array([formula(a) for a in xs])
            for signed in (xs, -xs):
                got = dominator.envelope_many(spec, signed)
                assert np.allclose(got, ref, rtol=1e-12, atol=0.0), (n, lo)


def test_piece_masses_match_quadrature():
    for n in (1, 10, 1000, 10**5):
        spec = dominator.make_spec(n)
        quad = verify.half_mass_numeric(spec)
        assert abs(quad / spec.half_mass - 1.0) < 1e-8


def test_tail_mass_scaling():
    # the hat's mass outside the squeeze window falls like n^(-1/3): its two
    # pieces are about n^(-1/6) high and n^(-1/6) long
    scaled = []
    for n in (1, 10, 100, 10**3, 10**4, 10**5):
        spec = dominator.make_spec(n)
        scaled.append((spec.p3 + spec.p4) * n ** (1.0 / 3.0))
    assert max(scaled) / min(scaled) < 1.5, scaled


def test_total_mass_bounded_over_range():
    # the mass is the mean number of proposals per accept
    degrees = list(range(1, 201)) + np.geomspace(200, 10**5, 25).astype(int).tolist()
    masses = [dominator.make_spec(n).mass for n in degrees]
    assert max(masses) <= 3.6 and min(masses) > 2.0


def test_bulk_inverse_roundtrip():
    spec = dominator.make_spec(7)
    v = np.linspace(0.0, 1.0, 100)
    x = dominator.piece_inverse(spec, 0, v)
    back = np.arcsin(x / spec.vv_edge) / np.arcsin(spec.x_c / spec.vv_edge)
    assert np.max(np.abs(back - v)) < 1e-12


@pytest.mark.parametrize("n", [1, 100, 10**4])
def test_piece_inverse_roundtrip(n):
    # the CDF of |X| maps each piece's inverse back onto its share of the mass
    spec = dominator.make_spec(n)
    v = np.linspace(0.0, 0.999, 200)
    start = 0.0
    for piece, p in enumerate(spec.masses):
        x = dominator.piece_inverse(spec, piece, v)
        back = (dominator.envelope_cdf_abs(spec, x) * spec.half_mass - start) / p
        assert np.max(np.abs(back - v)) < 1e-9, piece
        start += p


def test_forced_branch_endpoints():
    spec = dominator.make_spec(4)
    ends = [a for a, _ in _pieces(spec)]
    for piece, lo in enumerate(ends):
        assert dominator.piece_inverse(spec, piece, 0.0) == pytest.approx(lo, abs=1e-15)
    assert math.isclose(dominator.piece_inverse(spec, 0, 1.0), spec.x_c, rel_tol=1e-14)
    assert dominator.piece_inverse(spec, 1, 1.0) == spec.x1
    assert dominator.piece_inverse(spec, 2, 1.0) == spec.x_tail


def test_sampler_matches_analytic_cdf():
    spec = dominator.make_spec(25)
    stream = RandomStream(321)
    xs = np.sort(np.abs(dominator.sample_envelope_many(spec, stream, 10**5)))
    f = dominator.envelope_cdf_abs(spec, xs)
    n = xs.size
    i = np.arange(n)
    d = max(np.max((i + 1) / n - f), np.max(f - i / n))
    assert d * math.sqrt(n) < 1.95  # alpha ~ 0.001


def test_sampler_sign_symmetric():
    spec = dominator.make_spec(3)
    stream = RandomStream(11)
    xs = dominator.sample_envelope_many(spec, stream, 10**5)
    assert abs((xs > 0).mean() - 0.5) < 3.0 * 0.5 / math.sqrt(xs.size)


def test_cdf_abs_hits_piece_masses():
    for n in (1, 12, 10**4):
        spec = dominator.make_spec(n)
        t = spec.half_mass
        cum = np.cumsum(spec.masses) / t
        got = dominator.envelope_cdf_abs(spec, np.array([spec.x_c, spec.x1, spec.x_tail]))
        assert np.allclose(got, cum[:3], rtol=1e-12, atol=0.0)
        assert dominator.envelope_cdf_abs(spec, 0.0) == 0.0
        assert dominator.envelope_cdf_abs(spec, 1e12) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    v=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_branch_inverses_stay_in_their_pieces(n, v):
    spec = dominator.make_spec(n)
    for piece, (lo, hi) in enumerate(_pieces(spec)[:3]):
        x = dominator.piece_inverse(spec, piece, v)
        assert lo - 1e-12 <= x <= hi + 1e-12
    assert dominator.piece_inverse(spec, 3, v) >= spec.x_tail


def test_certificate_holds_over_degree_range():
    # make_spec raises CertificateError wherever the certificate fails
    for n in list(range(1, 3001)) + [10**4, 3 * 10**4, 10**5]:
        spec = dominator.make_spec(n)
        assert 0.0 < spec.plateau < spec.shoulder, n
