import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guegen import dominator, hermite, samplers, vanveen, verify
from guegen.errors import CertificateError, ConvergenceError, ParameterError
from guegen.rng import RandomStream


def _envelope_cdf_abs(spec, x):
    """CDF of |X| under the normalized hat density (vectorized)."""
    ax = np.abs(np.asarray(x, dtype=float))
    p1, p2, p3, p4 = spec.p1, spec.p2, spec.p3, spec.p4
    e = spec.vv_edge
    out = np.where(
        ax <= spec.x1,
        p1 + spec.shoulder * (ax - spec.x_c),
        p1 + p2 + spec.plateau * (ax - spec.x1),
    )
    bulk = ax <= spec.x_c
    out[bulk] = spec.bulk * np.arcsin(ax[bulk] / e)
    tail = ax > spec.x_tail
    out[tail] = p1 + p2 + p3 + p4 * -np.expm1(-spec.rate * (ax[tail] - spec.x_tail))
    return out / spec.half_mass


def _levels(spec):
    """The hat's piece formulas, written out from the module docstring."""
    n, e = spec.n, 2.0 * math.sqrt(spec.n + 1.0)
    pref = math.exp(vanveen.log_prefactor(n))

    def c_at(x):
        sin_a = math.sqrt(1.0 - x * x / (e * e))
        a = math.sqrt(math.pi / ((n + 1.0) * sin_a))
        r = 1.0 / (3.0 * (n + 1.0) * sin_a * sin_a)
        return (1.0 + 4.2 * r / a) ** 2

    f, df, _ = (float(v[0]) for v in hermite.certify_decreasing([n], [spec.x1]))
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
        assert all(p > 0.0 for p in (spec.p1, spec.p2, spec.p3, spec.p4))


def test_spec_rejects_bad_degree():
    with pytest.raises(ParameterError):
        dominator.make_spec(0)


def test_failed_certificate_raises(monkeypatch):
    # one failing lane among many, in a fresh cache
    monkeypatch.setattr(dominator, "_specs", {})
    certify = hermite.certify_decreasing

    def fail_100(ks, x):
        f, df, ok = certify(ks, x)
        return f, df, ok & (np.asarray(ks) != 100)

    monkeypatch.setattr(hermite, "certify_decreasing", fail_100)
    with pytest.raises(CertificateError, match=r"phi_100\^2 "):
        dominator.make_specs(range(90, 121))
    assert 100 not in dominator._specs
    assert issubclass(CertificateError, ConvergenceError)  # exit code 2
    monkeypatch.setattr(hermite, "certify_decreasing", certify)
    assert dominator.make_spec(100).x1 > 0.0


def test_sampler_certifies_fresh_degrees_in_one_pass(monkeypatch):
    # a fresh cache with room for every degree of the call; the one pass
    # covers exactly the degrees whose groups pay for it
    monkeypatch.setattr(dominator, "_specs", {})
    monkeypatch.setattr(dominator, "_SPEC_CACHE", 4096)
    certify = hermite.certify_decreasing
    passes = []

    def counting(ks, x):
        passes.append(sorted(ks))
        return certify(ks, x)

    monkeypatch.setattr(hermite, "certify_decreasing", counting)
    n, count = 10**4, 5000
    degrees, counts = np.unique(RandomStream(8).indices(n, count), return_counts=True)
    paying = [
        k for k, c in zip(degrees.tolist(), counts.tolist()) if k and dominator._certified_pays(c)
    ]
    assert 50 < len(paying) < degrees.size // 3
    cold = samplers.sample_gue_eigenvalues(n, count, RandomStream(8))
    assert passes == [paying] and sorted(dominator._specs) == paying
    warm = samplers.sample_gue_eigenvalues(n, count, RandomStream(8))
    assert len(passes) == 1
    assert np.array_equal(cold, warm)


def test_draws_do_not_depend_on_the_spec_caches(monkeypatch):
    # the rule reads (degree, count) alone: cold caches, warm caches and a
    # cache holding certified hats of every degree give the same bytes
    monkeypatch.setattr(dominator, "_specs", {})
    monkeypatch.setattr(dominator, "_SPEC_CACHE", 4096)
    runs = (
        lambda st: samplers.sample_gue_eigenvalues(10**4, 300, RandomStream(81), stats=st),
        lambda st: samplers.sample_gue_eigenvalues(1000, 3000, RandomStream(82), stats=st),
        lambda st: samplers.sample_phi_sq_many(10**4, 2, RandomStream(83), stats=st),
        lambda st: samplers.sample_phi_sq_many(10**5, 1, RandomStream(84), "plain", st),
    )

    def draw_all():
        out = []
        for run in runs:
            st = samplers.SamplerStats()
            out.append((run(st).tobytes(), replace(st, elapsed=0.0)))
        return out

    dominator._specs.clear()
    dominator._level_spec.cache_clear()
    cold = draw_all()
    assert draw_all() == cold  # warm
    dominator._level_spec.cache_clear()
    dominator.make_specs(list(range(1, 10**4)) + [10**5])
    assert draw_all() == cold


def test_single_draws_take_the_level_hat():
    # the rule (the samplers module docstring has its table): a group of
    # one draw takes the level hat, a larger group the certified hat
    for n in (1, 10, 100, 10**4, 10**5):
        assert samplers._degree_hats([n], [1]) == [dominator._level_spec(n)]
        assert samplers._degree_hats([n], [2]) == [dominator.make_spec(n)]


def test_level_spec_is_the_certified_layout_at_the_cramer_level():
    for n in (1, 10, 1000, 10**5):
        level = dominator._level_spec(n)
        cert = dominator.make_spec(n)
        assert level.shoulder == level.plateau == dominator._CRAMER
        assert (level.x1, level.edge, level.x_tail, level.rate) == (
            cert.x1, cert.edge, cert.x_tail, cert.rate
        )
        assert 0.0 <= level.x_c < level.x1
        assert dominator._level_spec(n) is level  # cached
        assert dominator._level_spec.__wrapped__(n) == level  # and pure


@pytest.fixture
def fresh_splits(monkeypatch):
    # an empty table of level-hat splits and no cached level hats; the
    # process's own table comes back afterwards
    monkeypatch.setattr(dominator, "_splits", (None, np.empty(0)))
    dominator._level_spec.cache_clear()
    yield
    dominator._level_spec.cache_clear()


def _fresh_level_spec(n):
    # the level hat with x_c from the root search, past the table
    return dominator._build(n, dominator._window_edge(n), dominator._CRAMER, dominator._CRAMER)


def test_level_split_table_holds_the_root_solve(fresh_splits):
    cap = hermite._COEFF_CAP
    degrees = [*range(1, 3001), 10**4, 10**5, cap - 1]
    for n in degrees:
        dominator._level_spec(n)
    solved_at, table = dominator._splits
    assert solved_at == (dominator._CRAMER, dominator.SLACK) and table.size == cap
    for n in degrees:
        x1 = dominator._window_edge(n)
        _, slope = dominator._inner_mass(n, x1, dominator._CRAMER)
        assert table[n].tobytes() == np.float64(dominator._root(slope, 0.0, x1)).tobytes(), n
    # a hat built from the table is the hat built with the search
    dominator._level_spec.cache_clear()
    for n in degrees[::97] + degrees[-3:]:
        assert dominator._level_spec(n) == _fresh_level_spec(n), n


def test_level_split_table_changes_no_draw(fresh_splits, monkeypatch):
    def draws():
        out = []
        for i in range(60):
            if not full:  # every build solves for x_c
                monkeypatch.setattr(dominator, "_splits", (None, np.empty(0)))
            dominator._level_spec.cache_clear()
            stats, stream = samplers.SamplerStats(), RandomStream(1, (i,))
            x = samplers.sample_gue_eigenvalues(10**4, 4, stream, stats=stats)
            out.append((x.tobytes(), stream.draw_count, replace(stats, elapsed=0.0)))
        return out

    full = False
    empty = draws()
    for n in range(1, 10**4):
        dominator._level_spec(n)
    assert not np.isnan(dominator._splits[1][1 : 10**4]).any()
    full = True
    assert draws() == empty


def test_level_split_table_resets_after_a_planted_level(monkeypatch):
    # the 0.6 M defect (test_squeeze_validity_fails_a_level_hat_below_cramer)
    # solves x_c at another level; once the level is restored, the draws are
    # those of a fresh process
    call = "samplers.sample_gue_eigenvalues(400, 40, RandomStream(5)).tobytes().hex()"
    with monkeypatch.context() as planted:
        planted.setattr(dominator, "_CRAMER", 0.6 * dominator._CRAMER)
        dominator._level_spec.cache_clear()
        moved = [dominator._level_spec(n) for n in range(1, 400)]
    dominator._level_spec.cache_clear()
    assert all(m.x_c != _fresh_level_spec(m.n).x_c for m in moved[1:])  # x_c = 0 at n = 1
    here = eval(call, {"samplers": samplers, "RandomStream": RandomStream})
    code = f"from guegen import samplers; from guegen.rng import RandomStream; print({call})"
    src = str(Path(samplers.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert fresh.stdout.strip() == here
    assert dominator._splits[0] == (dominator._CRAMER, dominator.SLACK)


def test_level_split_table_stays_within_its_cap(fresh_splits):
    cap = hermite._COEFF_CAP
    for n in (1, 5, 1000, cap - 1, cap, 10**6):
        spec = dominator._level_spec(n)
        assert dominator._splits[1].size <= cap
        assert spec == _fresh_level_spec(n)
    assert dominator._splits[1].size == cap and dominator._splits[1].nbytes <= 1 << 20


def _clear_hat_caches():
    # hats built under a planted defect must not outlive it
    for cache in (dominator._level_spec, dominator._grid_hat, dominator._degree_grid):
        cache.cache_clear()


@pytest.mark.parametrize(
    "factor, degrees",
    [(0.6, [1]), (0.05, [1, 2, 3, 5, 10, 50, 200, 1000, 10_000, 100_000])],
    ids=["0.6M", "0.05M"],
)
def test_squeeze_validity_fails_a_level_hat_below_cramer(monkeypatch, factor, degrees):
    # planted defect: the level hat at factor * M.  sup phi_k^2 is 0.62 M at
    # k = 1, 0.56 M at k = 2 and 0.09 M at k = 1e5, so 0.6 M is a defect at
    # degree 1 alone and 0.05 M at every degree; criterion 5's whole-line
    # rows must fail exactly there.  Both hats reading the level are built
    # fresh under the defect and dropped after it.
    monkeypatch.setattr(dominator, "_CRAMER", factor * dominator._CRAMER)
    _clear_hat_caches()
    try:
        rows = verify.check_squeeze_validity(quick=True)
    finally:
        _clear_hat_caches()
    name = "squeeze validity: worst phi^2 / level hat over the whole line, degree "
    failed = [int(r.test[len(name):]) for r in rows if not r.passed and r.test.startswith(name)]
    assert failed == degrees
    assert not any("phi^2 / hat over" in r.test for r in rows if not r.passed)


@pytest.mark.parametrize(
    "factor, failing",
    [(0.0, [2, 3, 6, 64, 256]), (0.25, [2, 3, 6, 64]), (0.24, [2, 3, 6, 64, 256])],
    ids=["no-slope", "quarter-slope", "0.24-slope"],
)
def test_grid_domination_fails_a_grid_hat_below_the_slope_bound(monkeypatch, factor, failing):
    # planted defect: the grid hat's slope term L w / 2 at factor * L, with
    # L = M / sqrt(n).  Each cell's level is the mean of g_n at its two ends
    # plus that term, so the worst violation sits at a cell end, and every
    # points-per-cell count from 2 up sees the same worst value.  Without the
    # term the worst (g - hat) / hat reads 8.5e-2 to 9.9e-2.  A quarter of
    # L is no defect at n = 256: max |g_256'| is 0.241 L (on 400 001 points
    # of the line), so the hat still dominates and criterion 5 passes it at
    # any count of points per cell (worst -3.8e-4, the same at 32 and at
    # 4096); 0.24 L is caught there by the 33 points of the quick size.
    monkeypatch.setattr(dominator, "_CRAMER", factor * dominator._CRAMER)
    dominator._grid_hat.cache_clear()
    try:
        rows = {n: verify._mixture_domination(n, 32) for n in (2, 3, 6, 64, samplers.N_GRID)}
    finally:
        dominator._grid_hat.cache_clear()
    assert [n for n, r in rows.items() if not r.passed] == failing, [r.detail for r in rows.values()]


def _plant_shoulder_at_plateau(monkeypatch):
    # the shoulder at phi_n(x1)^2, the plateau's level, not S(x1) = f^2 + f'^2 / q
    build = dominator._build

    def certified(n, x1, f, df):
        level = f * f * (1.0 + dominator.SLACK)
        return build(n, x1, level, level)

    monkeypatch.setattr(dominator, "_certified", certified)


def _plant_doubled_tail_rate(monkeypatch):
    build = dominator._build

    def doubled(*args):
        spec = build(*args)
        return replace(spec, rate=2.0 * spec.rate)

    monkeypatch.setattr(dominator, "_build", doubled)


def _plant_no_slack(monkeypatch):
    monkeypatch.setattr(dominator, "SLACK", 0.0)


_CRITERION_5_DEGREES = [1, 2, 3, 5, 10, 50, 200, 1000, 10_000, 100_000]
_SANDWICH_ROW = "squeeze validity: worst sandwich violation, degree {}"
_HAT_ROW = "squeeze validity: worst phi^2 / hat over the whole line, degree {}"
_DEGREE_GRID_ROW = "squeeze validity: worst violation of squeeze <= phi_k^2 <= degree grid over the hat, k={}"


@pytest.mark.parametrize(
    "plant, sure, kinds",
    [
        (
            _plant_shoulder_at_plateau,
            [_SANDWICH_ROW.format(n) for n in _CRITERION_5_DEGREES[:-1]]
            + [_HAT_ROW.format(n) for n in _CRITERION_5_DEGREES],
            (_SANDWICH_ROW, _HAT_ROW),
        ),
        (
            _plant_doubled_tail_rate,
            [_HAT_ROW.format(n) for n in _CRITERION_5_DEGREES],
            (_HAT_ROW,),
        ),
        (
            _plant_no_slack,
            [_HAT_ROW.format(n) for n in (10_000, 100_000)],
            (_HAT_ROW, _DEGREE_GRID_ROW),
        ),
    ],
    ids=["shoulder-at-plateau", "tail-rate-doubled", "slack-0"],
)
def test_squeeze_validity_fails_a_planted_certified_hat_defect(monkeypatch, plant, sure, kinds):
    # Criterion 5 (quick size) must fail each planted defect of the certified
    # hat, in the rows listed in ``sure`` at least and in no row of another
    # kind.  The shoulder defect fails 19 of 36 rows, the first being the
    # degree-1 sandwich; the doubled rate fails the 10 certified-hat
    # whole-line rows (phi^2 / hat 1.19 to 1.34).  Slack 0 fails 5, by
    # 2e-16 at degree 3 and by 5.8e-13 and 1.0e-11 at degrees 1e4 and 1e5,
    # so only those two are sure to fail on every platform; it also fails
    # the degree-grid rows, by 9e-16 to 3e-15, as a cell's level at its end
    # reads phi_k^2 from another float path than the row's.  The hats are
    # built fresh under the defect and dropped after it.
    monkeypatch.setattr(dominator, "_specs", {})
    plant(monkeypatch)
    _clear_hat_caches()
    try:
        rows = verify.check_squeeze_validity(quick=True)
    finally:
        _clear_hat_caches()
    failed = [r.test for r in rows if not r.passed]
    assert set(sure) <= set(failed), failed
    prefixes = tuple(kind.format("") for kind in kinds)
    assert all(test.startswith(prefixes) for test in failed), failed


def test_cold_draw_slope_fails_when_every_group_pays_the_pass(monkeypatch):
    # criterion 4's cold-draw claim fails when count-1 groups take the
    # certified hat and pay its O(n) pass, as before the level hat
    monkeypatch.setattr(dominator, "_certified_pays", lambda count: True)
    rows = verify._cold_draw_rows((100, 1000, 10_000, 100_000), (40, 30, 20, 10))
    assert not rows[0].passed and rows[0].statistic > 0.85, rows[0].detail
    assert all(r.passed for r in rows[1:]), [r.detail for r in rows[1:]]


@pytest.mark.parametrize("k", [1, 2, 3, 10, 10**2, 10**3, 10**4, 10**5, 10**6])
def test_window_split_minimizes_the_inner_mass(k):
    # x_c, the root of the inner mass's slope, gives the mass a golden-section
    # search over [0, x1] finds, for the certified and the level hat
    e = vanveen.domain_edge(k)
    for spec in (dominator.make_spec(k), dominator._level_spec(k)):
        bulk, _ = dominator._inner_mass(k, spec.x1, spec.shoulder)

        def inner(x_c):  # the hat's mass over [0, x1]
            return bulk(x_c) * math.asin(x_c / e) + spec.shoulder * (spec.x1 - x_c)

        golden = inner(verify._golden_min(inner, 0.0, spec.x1))
        assert 0.0 <= spec.x_c <= spec.x1
        assert math.isclose(spec.p1 + spec.p2, golden, rel_tol=1e-12), (k, spec.x_c)
        assert math.isclose(spec.p1 + spec.p2, inner(spec.x_c), rel_tol=1e-15)


@pytest.mark.parametrize("k", [1, 3, 100, 10**4, 10**6])
def test_window_split_is_well_conditioned(k):
    # a last-bit change of the shoulder level barely moves x_c, so the
    # kernel's last bits, through the certified levels, do not move draws
    for spec in (dominator.make_spec(k), dominator._level_spec(k)):
        assert dominator._build(k, spec.x1, spec.shoulder, spec.plateau) == spec
        for shoulder in (math.nextafter(spec.shoulder, 0.0), math.nextafter(spec.shoulder, 1.0)):
            moved = dominator._build(k, spec.x1, shoulder, spec.plateau)
            assert abs(moved.x_c - spec.x_c) <= 1e-12 * spec.x_c, (k, moved.x_c, spec.x_c)


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
    for piece, p in enumerate((spec.p1, spec.p2, spec.p3, spec.p4)):
        x = dominator.piece_inverse(spec, piece, v)
        back = (_envelope_cdf_abs(spec, x) * spec.half_mass - start) / p
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
    xs = np.sort(np.abs(dominator.sample_envelope_many(spec, stream.uniforms(3 * 10**5), 10**5)))
    f = _envelope_cdf_abs(spec, xs)
    n = xs.size
    i = np.arange(n)
    d = max(np.max((i + 1) / n - f), np.max(f - i / n))
    assert d * math.sqrt(n) < 1.95  # alpha ~ 0.001


def test_sampler_sign_symmetric():
    spec = dominator.make_spec(3)
    stream = RandomStream(11)
    xs = dominator.sample_envelope_many(spec, stream.uniforms(3 * 10**5), 10**5)
    assert abs((xs > 0).mean() - 0.5) < 3.0 * 0.5 / math.sqrt(xs.size)


def test_cdf_abs_hits_piece_masses():
    for n in (1, 12, 10**4):
        spec = dominator.make_spec(n)
        t = spec.half_mass
        cum = np.cumsum((spec.p1, spec.p2, spec.p3, spec.p4)) / t
        got = _envelope_cdf_abs(spec, np.array([spec.x_c, spec.x1, spec.x_tail]))
        assert np.allclose(got, cum[:3], rtol=1e-12, atol=0.0)
        assert _envelope_cdf_abs(spec, 0.0) == 0.0
        assert _envelope_cdf_abs(spec, 1e12) == pytest.approx(1.0, abs=1e-12)


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
    # every degree a mixture call at n <= 1e4 can draw, and two beyond, in one
    # certificate pass: make_specs raises CertificateError wherever it fails
    degrees = list(range(1, 10**4 + 1)) + [3 * 10**4, 10**5]
    for n, spec in zip(degrees, dominator.make_specs(degrees)):
        assert 0.0 < spec.plateau < spec.shoulder, n


@pytest.mark.parametrize("n", [1, 2, 6, 64])
def test_mixture_derivative_telescopes(n):
    # d/dx sum_{k<n} phi_k^2 = -sqrt(n) phi_n phi_{n-1}, the identity the
    # grid hat's Lipschitz bound rests on; psi_rows needs no rescale here
    x = np.linspace(-2.5 * math.sqrt(n) - 2.0, 2.5 * math.sqrt(n) + 2.0, 41)
    step = 1e-5
    slope = n * (
        hermite.mixture_density_many(n, x + step) - hermite.mixture_density_many(n, x - step)
    ) / (2.0 * step)
    psi = hermite.psi_rows(n + 1, x)
    w = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    closed = -math.sqrt(n) * psi[:, n] * psi[:, n - 1] * w
    assert np.max(np.abs(slope - closed)) < 1e-8
    assert np.max(np.abs(closed)) <= 0.4709 * math.sqrt(n)


@pytest.mark.parametrize("n", [2, 6, 256])
def test_grid_alias_table_gives_each_piece_its_mass(n):
    hat = dominator.grid_hat(n)
    masses = np.concatenate((hat.upper * np.diff(hat.points), [hat.tail / hat.rate] * 2))
    assert math.isclose(masses.sum(), hat.mass, rel_tol=1e-12)
    prob = hat.keep.copy()
    np.add.at(prob, hat.alias, 1.0 - hat.keep)
    assert np.allclose(prob / masses.size, masses / hat.mass, rtol=1e-12, atol=0.0)
    assert np.all((hat.keep >= 0.0) & (hat.keep <= 1.0))


def test_grid_draws_carry_their_cells_levels():
    hat = dominator.grid_hat(6)
    x, h, lower = dominator.sample_grid_many(hat, RandomStream(12), 50_000)
    cell = np.searchsorted(hat.points, x, side="right") - 1
    inside = (cell >= 0) & (cell < hat.upper.size)
    assert inside.all()  # the tails carry e^-14 of the mass
    lo, hi = hat.points[cell], hat.points[cell + 1]
    assert np.all((lo <= x) & (x <= hi))
    # a draw on a shared edge may carry either neighbour's levels
    interior = x > lo
    assert np.array_equal(h[interior], hat.upper[cell[interior]])
    assert np.array_equal(lower[interior], hat.lower[cell[interior]])
    # the cells are drawn in proportion to their masses
    counts = np.bincount(cell, minlength=hat.upper.size)
    expect = x.size * hat.upper * np.diff(hat.points) / hat.mass
    assert abs(counts - expect).max() < 6.0 * math.sqrt(expect.max())


def test_grid_hat_is_symmetric_and_cached():
    hat = dominator.grid_hat(6.0)
    assert hat is dominator.grid_hat(6)
    assert np.array_equal(hat.points, -hat.points[::-1])
    assert np.array_equal(hat.upper, hat.upper[::-1])
    with pytest.raises(ValueError):
        hat.upper[0] = 1.0  # shared by every caller of the cache
    with pytest.raises(ParameterError):
        dominator.grid_hat(0)


# ----------------------------------------------------------------------
# the degree grid against its proof, written out
# ----------------------------------------------------------------------

_GRID_DEGREES = [1, 10, 100, dominator.GRID_DEGREES]


def _taylor_sides(k, half):
    """On the degree-k grid's half-line cells [a, b], from phi_k and phi_k'
    at the edges: g(a), g(b), the Taylor lines g(a) + g'(a) w and
    g(b) - g'(b) w, and the reach L2 w^2 / 2 + SLACK 2 M (sqrt(k) + b/2) w
    with L2 = 2 M ((sqrt(k) + b/2)^2 + k + 1/2 + b^2/4), as the dominator
    docstring derives them."""
    f, df, _ = hermite.certify_decreasing([k] * half.size, half)
    g, dg = f * f, 2.0 * f * df
    w, b, m = np.diff(half), half[1:], dominator._CRAMER
    l2 = 2.0 * m * ((math.sqrt(k) + b / 2.0) ** 2 + k + 0.5 + b * b / 4.0)
    reach = l2 * w * w / 2.0 + dominator.SLACK * 2.0 * m * (math.sqrt(k) + b / 2.0) * w
    return g[:-1], g[1:], g[:-1] + dg[:-1] * w, g[1:] - dg[1:] * w, reach


def _level_mismatch(k):
    """Largest relative difference between the degree-k grid's levels and
    the two-sided Taylor levels written out, on every cell of [-X, X]."""
    hat = dominator.degree_grid(k)
    half = hat.points[hat.points.size // 2 :]
    ga, gb, from_a, from_b, reach = _taylor_sides(k, half)
    upper = np.minimum(np.maximum(ga, from_a + reach), np.maximum(gb, from_b + reach))
    lower = np.maximum(np.minimum(ga, from_a - reach), np.minimum(gb, from_b - reach))
    upper, lower = upper * (1.0 + dominator.SLACK), np.maximum(lower * (1.0 - dominator.SLACK), 0.0)
    mirrored = lambda a: np.concatenate((a[::-1], a))
    return max(
        float(np.max(np.abs(hat.upper - mirrored(upper)) / hat.upper)),
        float(np.max(np.abs(hat.lower - mirrored(lower)) / hat.upper)),
    )


@pytest.mark.parametrize("k", _GRID_DEGREES)
def test_degree_grid_levels_follow_the_written_out_bounds(k):
    assert _level_mismatch(k) <= 1e-12


def _levels_from_a_alone(k, half, f, df, levels=dominator._degree_levels):
    # planted defect: the hat level from the Taylor bound at the cell's left
    # end alone, max(g(a), P_a(b)); a valid hat, but looser
    ga, _, from_a, _, reach = _taylor_sides(k, half)
    return np.maximum(ga, from_a + reach) * (1.0 + dominator.SLACK), levels(k, half, f, df)[1]


_LEVEL_DEFECTS = {
    # L2 without its k + 1/2 + x^2/4 term: still a bound on |g''| in
    # practice, so criterion 5 passes the grid it builds at every grid
    # degree (at 2, 3, 5 and 33 points a cell), and only the written-out
    # levels see it
    "no-curvature-term": ("_bracket", lambda k, x: (math.sqrt(k) + 0.5 * x) ** 2),
    # the levels of [0, X] copied onto [-X, 0] unreversed
    "mirror-unreversed": ("_even", lambda levels: np.concatenate((levels, levels))),
    "taylor-from-a-alone": ("_degree_levels", _levels_from_a_alone),
}


@pytest.mark.parametrize("defect", sorted(_LEVEL_DEFECTS))
def test_planted_degree_grid_defects_are_caught(monkeypatch, defect):
    # each defect fails the written-out levels at every grid degree; the
    # unreversed mirror also fails criterion 5's domination rows at every
    # grid degree, by a factor of 60 or more at 2 points a cell
    name, planted = _LEVEL_DEFECTS[defect]
    monkeypatch.setattr(dominator, name, planted)
    dominator._degree_grid.cache_clear()
    try:
        mismatch = {k: _level_mismatch(k) for k in _GRID_DEGREES}
        rows = {k: verify._degree_domination(k, 1) for k in _GRID_DEGREES}
    finally:
        dominator._degree_grid.cache_clear()
    assert all(m > 1e-6 for m in mismatch.values()), mismatch
    dominated = [r.passed for r in rows.values()]
    assert dominated == [defect != "mirror-unreversed"] * len(_GRID_DEGREES)


@pytest.mark.parametrize("k", _GRID_DEGREES)
def test_degree_grid_is_tight_symmetric_and_cached(k):
    hat = dominator.degree_grid(float(k))
    assert hat is dominator.degree_grid(k) and hat.n == k
    assert np.array_equal(hat.points, -hat.points[::-1])
    assert np.array_equal(hat.upper, hat.upper[::-1])
    assert 1.0 < hat.mass < 1.06  # the cell-width rule's design, about 1.04
    # the coin bits of sample_grid_many: m + 2 < 2^17
    assert hat.upper.size + 2 < 2**17
    with pytest.raises(ValueError):
        hat.upper[0] = 1.0  # shared by every caller of the cache


def test_degree_grid_degrees():
    for k in (0, dominator.GRID_DEGREES + 1):
        with pytest.raises(ParameterError):
            dominator.degree_grid(k)


# ----------------------------------------------------------------------
# proposals against the formulas, written out
# ----------------------------------------------------------------------


class _Words:
    """A stream whose uniforms are the given values, in order, counted as
    RandomStream counts them."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.draw_count = 0

    def uniforms(self, size):
        out = self.values[self.draw_count : self.draw_count + size].copy()
        self.draw_count += size
        return out


def _reference_sandwich(n, ax):
    # the van Veen sandwich ((f - eps-)_+, f + eps+), from its formulas
    np1 = n + 1.0
    alpha = np.arccos(ax / (2.0 * math.sqrt(np1)))
    sin_a = np.sin(alpha)
    phase = (np1 / 2.0) * (np.sin(2.0 * alpha) - 2.0 * alpha) + alpha / 2.0 + 0.75 * math.pi
    b = math.sqrt(math.pi) / np.sqrt(np1 * sin_a) * np.sin(phase)
    r = 1.0 / (3.0 * np1 * sin_a * sin_a)
    pref = math.exp(vanveen.log_prefactor(n))
    f = b * b * pref
    eps_plus = pref * (2.0 * 4.2 * np.maximum(b, 0.0) * r + 4.2**2 * r * r)
    eps_minus = pref * 2.0 * 4.2 * np.abs(b * r)
    return np.maximum(f - eps_minus, 0.0), f + eps_plus


def _reference_propose(spec, stream, size, squeeze):
    # propose on a degree's hat: four separate uniform arrays (signs, piece
    # selectors, inversion variates, u), one mask per piece, h from the
    # pieces' |x| thresholds, and the sandwich on |x| <= x1
    sign = np.where(stream.uniforms(size) < 0.5, 1.0, -1.0)
    u, v = stream.uniforms(size), stream.uniforms(size)
    cuts = np.cumsum((spec.p1, spec.p2, spec.p3)) / spec.half_mass
    piece = np.searchsorted(cuts, u, side="right")
    e = spec.vv_edge
    inverses = (
        lambda v: e * np.sin(v * np.arcsin(spec.x_c / e)),
        lambda v: spec.x_c + (spec.x1 - spec.x_c) * v,
        lambda v: spec.x1 + (spec.x_tail - spec.x1) * v,
        lambda v: spec.x_tail - np.log1p(-v) / spec.rate,
    )
    x = np.empty(size)
    for i, inverse in enumerate(inverses):
        mask = piece == i
        x[mask] = inverse(v[mask])
    x = sign * x
    ax = np.abs(x)
    h = np.where(ax <= spec.x1, spec.shoulder, spec.plateau)
    bulk, tail = ax <= spec.x_c, ax > spec.x_tail
    h[bulk] = spec.bulk / np.sqrt(e**2 - ax[bulk] ** 2)
    h[tail] = spec.plateau * np.exp(-spec.rate * (ax[tail] - spec.edge))
    uh = stream.uniforms(size) * h
    lower_acc, upper_rej = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
    if squeeze:
        window = ax <= spec.x1
        lo, up = _reference_sandwich(spec.n, ax[window])
        lower_acc[window], upper_rej[window] = uh[window] <= lo, uh[window] > up
    return x, uh, lower_acc, upper_rej


def _same_proposals(spec, make_stream, size, squeeze):
    got_stream, ref_stream = make_stream(), make_stream()
    got = dominator.propose([spec], got_stream, [size], squeeze)
    ref = _reference_propose(spec, ref_stream, size, squeeze)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (spec.n, size, squeeze)
    assert got_stream.draw_count == ref_stream.draw_count == 4 * size
    return got


_HATS = {"level": dominator._level_spec, "certified": dominator.make_spec}


@pytest.mark.parametrize("kind", sorted(_HATS))
@pytest.mark.parametrize("n", [1, 2, 100, 10**4, 10**6])
def test_propose_follows_the_written_out_formulas(kind, n):
    spec = _HATS[kind](n)
    for size in (0, 1, 37, 5000):
        for squeeze in (False, True):
            _same_proposals(spec, lambda: RandomStream(1000 + size, (n,)), size, squeeze)


@pytest.mark.parametrize("kind", sorted(_HATS))
@pytest.mark.parametrize("n", [2, 100, 10**4])
def test_proposals_on_the_piece_breakpoints(kind, n):
    # v = 0 puts a shoulder draw on x_c, a plateau draw on x1 and a tail draw
    # on x_tail, each with both signs; the hat there is the bulk's, the
    # shoulder's and the plateau's level, and x1 lies in the squeeze window
    spec = _HATS[kind](n)
    c = (0.0, *spec.cuts, 1.0)
    assert all(a < b for a, b in zip(c, c[1:]))
    selectors = [(a + b) / 2.0 for a, b in zip(c, c[1:])] * 2
    signs = [0.0, 0.25, 0.4999999999999999, 0.25, 0.5, 0.75, 0.9999999999999999, 0.5]
    words = signs + selectors + [0.0] * 8 + [0.5] * 8
    x, uh, lower_acc, upper_rej = _same_proposals(spec, lambda: _Words(words), 8, True)
    ends = [0.0, spec.x_c, spec.x1, spec.x_tail]
    assert x.tolist() == ends + [-a for a in ends]
    h = [spec.bulk / spec.vv_edge, spec.bulk / math.sqrt(spec.vv_edge**2 - spec.x_c**2)]
    h += [spec.shoulder, spec.plateau]
    assert np.array_equal(uh, 0.5 * np.array(h * 2))
    assert not (lower_acc[[3, 7]] | upper_rej[[3, 7]]).any()  # outside the window
    # a selector on a cut point opens the next piece
    cuts = (np.cumsum((spec.p1, spec.p2, spec.p3)) / spec.half_mass).tolist()
    words = [0.25] * 3 + cuts + [0.0] * 3 + [0.5] * 3
    x, *_ = _same_proposals(spec, lambda: _Words(words), 3, True)
    assert x.tolist() == ends[1:]
