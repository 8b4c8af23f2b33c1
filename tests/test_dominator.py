import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guegen import dominator
from guegen.errors import ParameterError
from guegen.rng import RandomStream


def test_spec_small_case():
    spec = dominator.make_spec(1)
    assert math.isclose(
        spec.x1, math.sqrt(6.0 - math.pi**2 / (math.pi + 1.0) ** 2), rel_tol=1e-12
    )
    assert abs(spec.x1 - 2.32907) < 1e-5


def test_spec_breakpoint_ordering():
    for n in (1, 2, 10, 10**3, 10**6):
        spec = dominator.make_spec(n)
        assert 0.0 < spec.x1 < spec.edge < spec.x2
        assert spec.p1 > 0 and spec.p2 > 0 and spec.p3 > 0


def test_spec_rejects_bad_degree():
    with pytest.raises(ParameterError):
        dominator.make_spec(0)


def test_envelope_value_at_origin():
    spec = dominator.make_spec(1)
    assert math.isclose(
        dominator.envelope_many(spec, np.array([0.0]))[0],
        8.0 * math.pi / (3.0 * math.sqrt(6.0)),
        rel_tol=1e-14,
    )


def test_envelope_continuity_at_breakpoints():
    for n in (1, 10, 1000, 10**5):
        spec = dominator.make_spec(n)
        # the bulk formula evaluated exactly at x1 collapses to the plateau
        bulk_at_x1 = dominator.EIGHT_PI_3 / math.sqrt(4.0 * n + 2.0 - spec.x1**2)
        assert math.isclose(bulk_at_x1, spec.sup_value, rel_tol=1e-12)
        tail_at_x2 = (
            dominator.TAIL_COEFF * n ** (-5.0 / 6.0) / (spec.x2 - spec.edge) ** 4
        )
        assert math.isclose(tail_at_x2, spec.sup_value, rel_tol=1e-12)


def test_envelope_even():
    spec = dominator.make_spec(9)
    xs = np.array([0.3, spec.x1 - 0.1, spec.x1 + 0.01, spec.x2 + 5.0])
    assert np.array_equal(
        dominator.envelope_many(spec, xs), dominator.envelope_many(spec, -xs)
    )


def test_envelope_matches_piece_formulas():
    n = 33
    spec = dominator.make_spec(n)
    bulk = lambda a: 8.0 * math.pi / 3.0 / math.sqrt(4 * n + 2 - a * a)
    plateau = lambda a: 8.0 * (math.pi + 1.0) / 3.0 * n ** (-1 / 6)
    tail = lambda a: 2.0 * math.sqrt(2.0) * spec.B**2 * n ** (-5 / 6) / (a - spec.edge) ** 4
    pieces = (
        (np.linspace(0.0, spec.x1, 50), bulk),
        (np.linspace(spec.x1 + 1e-9, spec.x2, 50), plateau),
        (np.linspace(spec.x2 + 1e-9, spec.x2 + 40.0, 50), tail),
    )
    for xs, formula in pieces:
        ref = np.array([formula(a) for a in xs])
        for signed in (xs, -xs):
            # scalar pow and numpy's power-by-squaring differ by an ulp in the tail
            assert np.allclose(dominator.envelope_many(spec, signed), ref, rtol=1e-14, atol=0.0)


def test_piece_masses_match_quadrature():
    for n in (1, 10, 1000, 10**5):
        spec = dominator.make_spec(n)
        quad = dominator.half_mass_numeric(spec)
        assert abs(quad / spec.half_mass - 1.0) < 1e-8


def test_tail_mass_scaling():
    # the tail piece mass falls like n^{-1/3}: times 8 in n halves it
    for n in (1, 5, 1000):
        a = dominator.make_spec(n).p3
        b = dominator.make_spec(8 * n).p3
        assert math.isclose(b, a / 2.0, rel_tol=1e-12)


def test_total_mass_bounded_over_range():
    masses = [dominator.make_spec(n).mass for n in (10, 100, 10**3, 10**4, 10**5, 10**6)]
    assert max(masses) < 110.0 and min(masses) > 20.0
    # the mass beyond x1 falls like n^{-1/3}
    for n in (10, 1000, 10**6):
        spec = dominator.make_spec(n)
        assert 2.0 * (spec.p2 + spec.p3) * n ** (1.0 / 3.0) < 200.0


def test_bulk_inverse_roundtrip():
    spec = dominator.make_spec(7)
    v = np.linspace(0.0, 1.0, 100)
    x = dominator.bulk_inverse(spec, v)
    back = np.arcsin(x / spec.edge) / np.arcsin(spec.x1 / spec.edge)
    assert np.max(np.abs(back - v)) < 1e-12


def test_forced_branch_endpoints():
    spec = dominator.make_spec(4)
    assert dominator.bulk_inverse(spec, 0.0) == 0.0
    assert math.isclose(dominator.bulk_inverse(spec, 1.0), spec.x1, rel_tol=1e-14)
    assert dominator.plateau_inverse(spec, 1.0) == spec.x2
    assert dominator.tail_inverse(spec, 1.0) == spec.x2


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
    spec = dominator.make_spec(12)
    t = spec.half_mass
    assert math.isclose(dominator.envelope_cdf_abs(spec, spec.x1), spec.p1 / t, rel_tol=1e-12)
    assert math.isclose(
        dominator.envelope_cdf_abs(spec, spec.x2), (spec.p1 + spec.p2) / t, rel_tol=1e-12
    )
    assert dominator.envelope_cdf_abs(spec, 1e12) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    v=st.floats(min_value=0.0, max_value=1.0),
)
def test_branch_inverses_stay_in_their_pieces(n, v):
    spec = dominator.make_spec(n)
    assert 0.0 <= dominator.bulk_inverse(spec, v) <= spec.x1 + 1e-12
    assert spec.x1 <= dominator.plateau_inverse(spec, v) <= spec.x2
    if v > 0.0:
        assert dominator.tail_inverse(spec, v) >= spec.x2 - 1e-12
