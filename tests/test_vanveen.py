import math

import numpy as np
import pytest

from guegen import cli, dominator, hermite, samplers, vanveen, verify
from guegen.errors import ParameterError
from guegen.rng import RandomStream


def test_terms_at_origin():
    alpha, _, r = vanveen._raw_terms(11.0, vanveen.domain_edge(10), 0.0)
    assert alpha == math.pi / 2.0
    assert math.isclose(r, 1.0 / 33.0, rel_tol=1e-14)
    f, ep, em = vanveen.terms_many(10, np.array([0.0]))
    assert ep[0] >= 0.0 and em[0] >= 0.0


def test_even_in_x():
    xs = np.array([0.3, 1.75, 4.0, 8.9])
    for a, b in zip(vanveen.terms_many(20, xs), vanveen.terms_many(20, -xs)):
        assert np.array_equal(a, b)


def test_domain_edge_guarded():
    n = 10
    edge = 2.0 * math.sqrt(n + 1.0)
    with pytest.raises(ParameterError):
        vanveen.terms_many(n, np.array([edge]))
    with pytest.raises(ParameterError):
        vanveen.terms_many(n, np.array([-edge * (1.0 - 1e-13)]))
    with pytest.raises(ParameterError):
        vanveen.terms_many(n, np.array([0.0, edge]))
    # comfortably inside is fine
    vanveen.terms_many(n, np.array([edge * 0.9, -edge * 0.9]))


def test_log_prefactor_matches_termwise_factorial():
    # same quantity with log n! summed term by term instead of lgamma
    for n in (3, 25, 150):
        x = 0.37
        log_pref = vanveen.log_prefactor(n)
        log_fact = sum(math.log(j) for j in range(1, n + 1))
        log_a = (
            log_fact
            - math.log(math.pi)
            + (n + 1.0) / 2.0
            + x * x / 4.0
            - (n / 2.0) * math.log(n + 1.0)
        )
        direct = 2.0 * log_a - x * x / 2.0 - 0.5 * math.log(2.0 * math.pi) - log_fact
        assert abs(direct - log_pref) < 1e-9


def test_sandwich_on_dense_grid():
    # degree 10 on [0, x1], the regime the squeeze actually runs in
    n = 10
    spec = dominator.make_spec(n)
    grid = np.linspace(0.0, spec.x1, 2000)
    f, ep, em = vanveen.terms_many(n, grid)
    phi = hermite.phi_squared_many(n, grid)
    h = dominator.envelope_many(spec, grid)
    slack = 1e-10 * h
    assert np.all(np.maximum(f - em, 0.0) <= phi + slack)
    assert np.all(phi <= np.minimum(f + ep, h) + slack)


def test_eps_minus_is_abs_product():
    _, b, r = vanveen._raw_terms(41.0, vanveen.domain_edge(40), 3.3)
    log_pref = vanveen.log_prefactor(40)
    _, _, em = vanveen.terms_many(40, np.array([3.3]))
    assert math.isclose(em[0], 8.4 * math.exp(log_pref) * abs(b * r), rel_tol=1e-13)


def test_gap_nonnegative_everywhere():
    for n in (5, 100):
        spec = dominator.make_spec(n)
        grid = np.linspace(0.0, spec.x1, 1500)
        lower, upper = vanveen.squeeze_bounds_many(n, grid)
        gap = np.minimum(upper, dominator.envelope_many(spec, grid)) - lower
        assert np.all(gap >= 0.0)


def test_gap_integral_finite_and_scaling():
    vals = {}
    for n in (100, 1000):
        val = verify._sandwich_gap(dominator.make_spec(n), 1e-8)
        assert math.isfinite(val) and val > 0.0
        vals[n] = val
    # decreasing roughly like n^{-1/3}
    assert vals[1000] < vals[100]


def test_squeeze_gate_and_table_use_the_sampler_bounds(monkeypatch):
    # the sampler's squeeze, criterion 5 and tabulate-squeeze all read one
    # sandwich, so the last two check the one the first runs
    class Called(Exception):
        pass

    def spy(n, x):
        raise Called

    monkeypatch.setattr(vanveen, "squeeze_bounds_many", spy)
    with pytest.raises(Called):
        samplers.sample_phi_sq_many(100, 5, RandomStream(1), "squeeze")
    with pytest.raises(Called):
        verify.check_squeeze_validity(quick=True)
    with pytest.raises(Called):
        cli.main(["tabulate-squeeze", "--n", "5", "--points", "11"])
