"""Verification suites for the package's correctness and runtime claims.

Each suite checks one acceptance criterion end to end, returning a list
of :class:`CheckResult` rows with the measured statistic and its
bounds, from which the row works out its own pass flag.  The CLI ``verify`` command renders these as JSON; the
acceptance tests assert them directly.  ``quick=True`` shrinks sample
counts (statistical thresholds adapt automatically where they depend on
the count).

All suites use fixed seeds derived from one base constant, so a passing
run is reproducible bit for bit.

The module also holds the package's only numerical integrator, an
adaptive Gauss-Kronrod (G7/K15) panel rule: the independent reference
that the closed forms (hat mass, sandwich gap, second moment and, in the
tests, the CDFs) are checked against.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dominator, hermite, joint, oracle, samplers, stats, vanveen
from .errors import ConvergenceError, ParameterError
from .rng import RandomStream

BASE_SEED = 20260810


@dataclass
class CheckResult:
    """One row of a report.  It passes when its statistic stands to its
    threshold as ``comparison`` says: "<", "<=" or "==", or for "in-window"
    lower <= statistic <= threshold.  A NaN statistic fails every kind."""

    test: str
    statistic: float
    threshold: float
    comparison: str = "<"
    detail: str = ""
    lower: float | None = None

    def __post_init__(self):
        if (self.comparison == "in-window") != (self.lower is not None):
            raise ValueError(f"an in-window row, and only one, has a lower bound: {self.test}")
        self.statistic, self.threshold = float(self.statistic), float(self.threshold)

    @property
    def passed(self):
        s, t = self.statistic, self.threshold
        if self.comparison == "in-window":
            return self.lower <= s <= t
        return {"<": s < t, "<=": s <= t, "==": s == t}[self.comparison]

    def as_dict(self):
        row = {
            "test": self.test,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "pass": self.passed,
            "detail": self.detail,
        }
        if self.lower is not None:
            row["lower"] = self.lower
        return row


def _window(test, statistic, lower, upper, detail=""):
    return CheckResult(test, statistic, upper, "in-window", detail, float(lower))


def _mean_row(test, values, target):
    """|mean(values) - target| within 3 standard errors of the mean."""
    mean = float(np.mean(values))
    se = float(np.std(values)) / math.sqrt(values.size)
    return CheckResult(test, abs(mean - target), 3.0 * se, detail=f"mean {mean:.4f}")


def _stream(tag):
    return RandomStream(BASE_SEED, spawn_key=(tag,))


# ----------------------------------------------------------------------
# quadrature reference: adaptive Gauss-Kronrod (G7 embedded in K15)
# ----------------------------------------------------------------------

# the K15 nodes in [0, 1) with their K15 weights and, on every other node,
# the G7 weights; both rules are symmetric about 0
_GK_HALF = np.array(
    [
        (0.0, 0.209482141084728, 0.417959183673469),
        (0.207784955007898, 0.204432940075298, 0.0),
        (0.405845151377397, 0.190350578064785, 0.381830050505119),
        (0.586087235467691, 0.169004726639267, 0.0),
        (0.741531185599394, 0.140653259715525, 0.279705391489277),
        (0.864864423359769, 0.104790010322250, 0.0),
        (0.949107912342759, 0.063092092629979, 0.129484966168870),
        (0.991455371120813, 0.022935322010529, 0.0),
    ]
)
_GK_NODES = np.concatenate([-_GK_HALF[:0:-1, 0], _GK_HALF[:, 0]])
_GK_WEIGHTS_K, _GK_WEIGHTS_G = np.concatenate([_GK_HALF[:0:-1, 1:], _GK_HALF[:, 1:]]).T.copy()


# QUADPACK's round-off rule: a K15-G7 difference within this many machine
# epsilons of the panel's K15 integral of |f| is rounding, which bisection
# cannot shrink
_ROUNDOFF = 50.0 * np.finfo(float).eps
# the quadrature's budget: panels, and bisection rounds
MAX_PANELS = 300000
_MAX_ROUNDS = 30


def _gk_panels(f, left, right):
    """K15 values, |K15-G7| errors and K15 integrals of |f| for a batch of panels."""
    center = 0.5 * (left + right)
    halfw = 0.5 * (right - left)
    nodes = center[:, None] + halfw[:, None] * _GK_NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    ik = (vals @ _GK_WEIGHTS_K) * halfw
    ig = (vals @ _GK_WEIGHTS_G) * halfw
    return ik, np.abs(ik - ig), (np.abs(vals) @ _GK_WEIGHTS_K) * halfw


def integrate_adaptive(f, a, b, tol, initial_width=None):
    """Adaptive panel integration of a vectorized integrand on [a, b].

    Starts from uniform panels of ``initial_width`` (default: one
    sixteenth of the interval) and bisects any panel whose K15-vs-G7
    discrepancy exceeds its share of ``tol`` until the summed estimate
    is below ``tol``, or until only panels at the rounding floor
    (``_ROUNDOFF``) are left, whose ``err`` may exceed ``tol``.  Returns
    ``(value, err)``; raises ConvergenceError when the panel or round
    budget (``MAX_PANELS``, ``_MAX_ROUNDS``) runs out first.
    """
    if tol <= 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tol}")
    a, b = float(a), float(b)
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ParameterError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    if initial_width is None:
        initial_width = (b - a) / 16.0
    count = int(np.clip(math.ceil((b - a) / initial_width), 4, MAX_PANELS))
    edges = np.linspace(a, b, count + 1)
    left, right = edges[:-1], edges[1:]
    vals, errs, mags = _gk_panels(f, left, right)
    for _ in range(_MAX_ROUNDS):
        total_err = float(errs.sum())
        if total_err <= tol:
            break
        live = errs > _ROUNDOFF * mags
        if not live.any():
            break
        if left.size >= MAX_PANELS:
            raise ConvergenceError(
                f"quadrature needs more than {MAX_PANELS} panels for tol={tol}"
            )
        bad = live & (errs > tol / (2.0 * left.size))
        if not bad.any():
            bad = live & (errs == errs[live].max())
        mid = 0.5 * (left[bad] + right[bad])
        new_left = np.concatenate([left[bad], mid])
        new_right = np.concatenate([mid, right[bad]])
        new_vals, new_errs, new_mags = _gk_panels(f, new_left, new_right)
        left = np.concatenate([left[~bad], new_left])
        right = np.concatenate([right[~bad], new_right])
        vals = np.concatenate([vals[~bad], new_vals])
        errs = np.concatenate([errs[~bad], new_errs])
        mags = np.concatenate([mags[~bad], new_mags])
    else:
        raise ConvergenceError(
            f"quadrature did not reach tol={tol} in {_MAX_ROUNDS} refinement rounds"
        )
    return float(vals.sum()), float(errs.sum())


def _oscillation_width(k):
    """Bulk oscillation scale of phi_k^2: pi / sqrt(4k+2)."""
    return math.pi / math.sqrt(4.0 * k + 2.0)


def half_mass_numeric(spec):
    """Numerical quadrature of the hat of ``spec`` over [0, infinity).

    Independent check on the closed-form piece masses: adaptive
    Gauss-Kronrod panels on each piece, the tail out to where its
    remainder is e^-50 of its mass, each to 1e-12 of the half mass.
    """
    f = lambda xs: dominator.envelope_many(spec, xs)
    ends = (0.0, spec.x_c, spec.x1, spec.x_tail, spec.x_tail + 50.0 / spec.rate)
    return sum(
        integrate_adaptive(f, a, b, 1e-12 * spec.half_mass)[0]
        for a, b in zip(ends[:-1], ends[1:])
    )


# ----------------------------------------------------------------------
# 1. exactness of single-degree sampling against the closed-form CDF
# ----------------------------------------------------------------------


def _ks_row(sample, where, xs, cdf, note=""):
    """Criterion 1's row: the scaled one-sample KS distance of ``xs`` from
    ``cdf``, bracketed from CDF values at a subset of the draws (an upper
    bound; see ``stats``), gated at 1.95."""
    res = stats.ks_one_sample(xs, cdf)
    return CheckResult(
        f"exactness: KS of {sample} vs ladder-identity CDF, {where}",
        res.scaled,
        1.95,
        detail=f"D<={res.statistic:.3e} from {stats.ks_points(len(xs)).size} CDF evaluations{note}",
    )


def check_exactness(quick=False):
    draws = 10_000 if quick else 100_000
    out = [
        _ks_row(
            f"{draws} squeeze draws",
            f"degree {k}",
            samplers.sample_phi_sq_many(k, draws, _stream(10 + i), "squeeze"),
            lambda s: hermite.phi_sq_cdf_many(k, s),
        )
        for i, k in enumerate((1, 3, 10, 100, 1_000, 10_000, 100_000))
    ]
    for i, (n, count) in enumerate(((6, 400_000), (64, 200_000))):
        count //= 10 if quick else 1
        xs = samplers.sample_gue_eigenvalues(n, count, _stream(120 + i))
        cdf = lambda s: hermite.mixture_cdf_many(n, s)
        out.append(_ks_row(f"{count} grid-hat mixture draws", f"n={n}", xs, cdf))
    # small calls at n = 1e4, whose degree groups mostly hold one draw and
    # so take the level hat
    n, size = 10_000, 500 if quick else 2_000
    xs, level = [], 0
    for i in range(10):
        xs.append(samplers.sample_gue_eigenvalues(n, size, _stream(170 + i)))
        degrees, counts = np.unique(_stream(170 + i).indices(n, size), return_counts=True)
        level += sum(c for k, c in zip(degrees.tolist(), counts.tolist())
                     if k and not dominator._certified_pays(c))
    out.append(
        _ks_row(
            f"10 calls of {size} mixture draws",
            f"n={n}",
            np.concatenate(xs),
            lambda s: hermite.mixture_cdf_many(n, s),
            f"; {level / (10 * size):.1%} of the draws from level hats",
        )
    )
    return out


# ----------------------------------------------------------------------
# 2. plain and squeeze samplers draw the same law
# ----------------------------------------------------------------------


def _same_stream(label, draw):
    """Plain and squeeze runs of ``draw(mode, stats)`` on one seed: the
    squeeze only settles decisions the exact test would take alike, so
    the draws agree byte for byte and so do the proposal counts."""
    runs = []
    for mode in ("plain", "squeeze"):
        counts = samplers.SamplerStats()
        runs.append((draw(mode, counts).tobytes(), counts.proposals, counts.accepted))
    differ = float(sum(a != b for a, b in zip(*runs)))
    return CheckResult(
        f"equivalence: plain and squeeze on one stream, {label}: bytes, proposals, accepts differ",
        differ,
        0.0,
        "==",
        f"{runs[1][2]} draws, {runs[1][1]} proposals",
    )


def check_equivalence(quick=False):
    draws = 20_000 if quick else 100_000
    same = 2_000 if quick else 10_000
    crit = stats.ks_critical(0.01)
    out = []
    for i, k in enumerate((1, 10, 100)):
        a = samplers.sample_phi_sq_many(k, draws, _stream(20 + i), "plain")
        b = samplers.sample_phi_sq_many(k, draws, _stream(30 + i), "squeeze")
        test = f"equivalence: two-sample KS plain vs squeeze, degree {k}, alpha=0.01"
        out.append(CheckResult(test, stats.ks_two_sample(a, b).scaled, crit))
    for i, k in enumerate((1, 10, 100, 10_000)):
        out.append(
            _same_stream(
                f"degree {k}",
                lambda mode, counts: samplers.sample_phi_sq_many(k, same, _stream(140 + i), mode, counts),
            )
        )
    out.append(
        _same_stream(
            "mixture n=300",
            lambda mode, counts: samplers.sample_gue_eigenvalues(300, same, _stream(144), mode, counts),
        )
    )
    return out


# ----------------------------------------------------------------------
# 3. proposals per accept equal the hat mass
# ----------------------------------------------------------------------


def _trials_row(hat, where, mass, counts, over=","):
    """Criterion 3's row: trials per accept are geometric with mean the
    hat's mass, so their mean over ``counts`` must lie within 3 standard
    errors of it."""
    mean_trials = counts.proposals_per_accept
    sigma = math.sqrt((mass**2 - mass) / counts.accepted)
    return CheckResult(
        f"rejection constant: |proposals/accept - {hat} mass| at {where}",
        abs(mean_trials - mass),
        3.0 * sigma,
        detail=f"measured {mean_trials:.4f}{over} mass {mass:.4f}",
    )


def check_rejection_constant(quick=False):
    accepts = 5_000 if quick else 100_000
    level_calls = (300, 300, 150) if quick else (2_000, 2_000, 1_000)
    out = []
    # the certified hat, drawn in one call, and the level hat, which
    # count-1 groups take, drawn one accept per call
    kinds = (
        ("", dominator.make_spec, 40, lambda calls: [accepts]),
        ("level ", dominator._level_spec, 160, lambda calls: [1] * calls),
    )
    for kind, hat, base, sizes in kinds:
        for i, (n, calls) in enumerate(zip((10, 1_000, 100_000), level_calls)):
            spec = hat(n)
            st = _stream(base + i)
            s = samplers.SamplerStats()
            for size in sizes(calls):
                samplers.sample_phi_sq_many(n, size, st, "squeeze", s)
            over = f" over {calls} count-1 calls," if kind else ","
            out.append(_trials_row(f"{kind}hat", f"degree {n}", spec.mass, s, over))
            quad = 2.0 * half_mass_numeric(spec)
            out.append(
                CheckResult(
                    f"rejection constant: closed-form {kind}hat mass vs quadrature, degree {n}",
                    abs(quad / spec.mass - 1.0),
                    1e-8,
                )
            )
    for i, n in enumerate((2, 6, samplers.N_GRID)):
        s = samplers.SamplerStats()
        samplers.sample_gue_eigenvalues(n, accepts, _stream(130 + i), "squeeze", s)
        out.append(_trials_row("grid hat", f"n={n}", dominator.grid_hat(n).mass, s))
    return out


# ----------------------------------------------------------------------
# 4. cost scaling: squeeze sublinear, plain linear
# ----------------------------------------------------------------------


def _sandwich_gap(spec, tol):
    """Integral of the sandwich gap min(f + eps+, h) - (f - eps-)_+ over
    the squeeze window [0, x1], with h the hat ``spec``."""

    def gap(xs):
        lower, upper = vanveen.squeeze_bounds_many(spec.n, xs)
        return np.minimum(upper, dominator.envelope_many(spec, xs)) - lower

    return integrate_adaptive(gap, 0.0, spec.x1, tol, initial_width=_oscillation_width(spec.n))[0]


def _exact_share(spec):
    """The chance that a squeeze proposal from the hat ``spec`` needs the
    exact recurrence: the in-window sandwich gap plus the hat's mass
    outside the window (p3 + p4), over the hat's half mass."""
    # tol 1e-7 is below 1e-7 of the half mass; 1e-9 does not converge at n = 1e5
    return (_sandwich_gap(spec, 1e-7) + spec.p3 + spec.p4) / spec.half_mass


def _slope_row(what, points, lo, hi, detail=""):
    """The in-window row on the least-squares log-log slope of ``points``."""
    slope, _ = stats.loglog_slope(points)
    return _window(f"{what} log-log slope in [{lo:.2f}, {hi:.2f}]", slope, lo, hi, detail)


def _cost_claim(what, lo, hi, n_list, hats, setups=None):
    """The closed-form half of a criterion-4 cost claim.  A squeeze
    proposal from a hat needs the exact recurrence, independently of the
    others, with probability p, the hat's exact share.  So the cost proxy
    per accepted draw, ``SamplerStats.cost_proxy(n)``, has the closed form
    mass * (1 + n p), plus the hat's set-up in ``setups`` for a draw with
    no hat cached.  The claim is on the closed forms' log-log slope, which
    must lie in [lo, hi].  Returns that row, the shares and the closed
    forms, which each measured row must then match."""
    shares = [_exact_share(hat) for hat in hats]
    proxies = [hat.mass * (1.0 + n * p) for n, hat, p in zip(n_list, hats, shares)]
    notes = [""] * len(n_list)
    if setups is not None:
        proxies = [v + setup for v, setup in zip(proxies, setups)]
        notes = [f" (set-up {setup})" for setup in setups]
    detail = "; ".join(f"n={n}: proxy={v:.1f}{note}" for n, v, note in zip(n_list, proxies, notes))
    return _slope_row(what, list(zip(n_list, proxies)), lo, hi, detail), shares, proxies


def _sigma_row(what, n, measured, expected, sigma, detail):
    """A measured figure within 5 sigma of its closed form."""
    return _window(
        f"sublinearity: {what} at n={n} within 5 sigma of the closed form",
        measured - expected,
        -5.0 * sigma,
        5.0 * sigma,
        detail,
    )


def _proxy_row(kind, n, mass, p, measured, expected, accepted, calls=None):
    """The cost proxy measured over ``accepted`` draws (from ``calls``
    count-1 calls, if given) against its closed form.  Each accept costs a
    geometric number G of proposals (variance mass^2 - mass), n units more
    for each binomial exact evaluation among them, so one accept's cost has
    variance Var(G) (1 + n p)^2 + n^2 mass p (1 - p)."""
    var = (mass**2 - mass) * (1.0 + n * p) ** 2 + n * n * mass * p * (1.0 - p)
    sigma = math.sqrt(var / accepted)
    over, more = (f" over {calls} count-1 calls", f", hat mass {mass:.4f}") if calls else ("", "")
    detail = f"measured {measured:.1f}{over}, closed form {expected:.1f}, sigma {sigma:.1f}{more}"
    return _sigma_row(f"{kind} cost proxy", n, measured, expected, sigma, detail)


def _cold_draw_rows(n_list, calls):
    """The cold-draw claim: one draw at degree n with no hat cached costs
    the squeeze proxy of the hat the sampler's rule picks for a count-1
    group plus that hat's set-up, n lane-steps for the certified hat's
    certificate pass and none for the level hat, which is closed-form.
    ``calls[i]`` count-1 calls measure degree ``n_list[i]``."""
    hats = [samplers._degree_hats([n], [1])[0] for n in n_list]
    setups = [n if dominator._certified_pays(1) else 0 for n in n_list]
    row, shares, proxies = _cost_claim(
        "sublinearity: closed-form cold-draw cost proxy, set-up included,",
        0.60,
        0.85,
        n_list,
        hats,
        setups,
    )
    out = [row]
    for i, (n, c, hat, p, setup, expected) in enumerate(
        zip(n_list, calls, hats, shares, setups, proxies)
    ):
        counts = samplers.SamplerStats()
        st = _stream(150 + i)
        for _ in range(c):
            samplers.sample_phi_sq_many(n, 1, st, "squeeze", counts)
        measured = counts.cost_proxy(n) + setup
        out.append(_proxy_row("cold-draw", n, hat.mass, p, measured, expected, counts.accepted, c))
    return out


def check_sublinearity(quick=False):
    n_list = (100, 1_000, 10_000, 100_000)
    if quick:
        squeeze_counts = (1_000, 700, 400, 200)
        plain_counts = (400, 150, 60, 30)
        cold_calls = (400, 300, 200, 100)
    else:
        squeeze_counts = (6_000, 4_000, 2_500, 1_500)
        plain_counts = (6_000, 2_000, 1_000, 600)
        cold_calls = (2_000, 1_500, 1_000, 600)
    specs = [dominator.make_spec(n) for n in n_list]
    row, shares, proxies = _cost_claim(
        "sublinearity: closed-form squeeze cost proxy",
        0.55,
        0.80,
        n_list,
        specs,
    )
    out = [row]
    for n, c, spec, p, expected in zip(n_list, squeeze_counts, specs, shares, proxies):
        (r,) = samplers.benchmark("squeeze", [n], c, seed=BASE_SEED + n)
        # the share: exact evaluations are binomial over the proposals
        sigma = math.sqrt(p * (1.0 - p) / r.proposals)
        detail = (
            f"measured {r.exact_share:.5f}, closed form {p:.5f}, sigma {sigma:.1e},"
            f" {r.proposals} proposals"
        )
        out.append(_sigma_row("exact-evaluation share", n, r.exact_share, p, sigma, detail))
        out.append(_proxy_row("squeeze", n, spec.mass, p, r.cost_proxy(n), expected, r.accepted))
    out += _cold_draw_rows(n_list, cold_calls)
    rows = []
    for n, c in zip(n_list, plain_counts):
        rows += samplers.benchmark("plain", [n], c, seed=BASE_SEED + 7 * n)
    plain = [(n, r.cost_proxy(n)) for n, r in zip(n_list, rows)]
    slope, err = stats.loglog_slope(plain)
    # The plain proxy is (1 + n) * proposals / accepted, so its slope's
    # expectation follows from the closed-form hat masses: about 0.96 over
    # this n range, as the mass falls about n^-0.04.  Its sampling error
    # follows from the counts: log(proposals / accepted) has variance
    # (1 - 1/mass) / accepted for geometric trials, and the least-squares
    # slope weighs row i by dx_i / sum(dx^2).  The window is 5 of those
    # standard errors around the expectation, so a cost that grows faster
    # than the proposals (say an extra n^0.1) fails it.
    masses = [spec.mass for spec in specs]
    expected = stats.loglog_slope([(n, m * (1.0 + n)) for n, m in zip(n_list, masses)])[0]
    dx = np.log(n_list) - np.mean(np.log(n_list))
    weights = dx / np.sum(dx * dx)
    sigma = math.sqrt(
        sum(w * w * (1.0 - 1.0 / m) / r.accepted for w, m, r in zip(weights, masses, rows))
    )
    lo, hi = expected - 5.0 * sigma, expected + 5.0 * sigma
    out.append(
        _window(
            f"linearity: plain cost proxy log-log slope in [{lo:.3f}, {hi:.3f}]"
            " (closed form +- 5 sigma)",
            slope,
            lo,
            hi,
            "; ".join(f"n={n}: proxy={v:.1f}" for n, v in plain)
            + f"; closed-form expectation {expected:.4f}, sampling sigma {sigma:.4f},"
            f" fit stderr {err:.3f}",
        )
    )
    return out


# ----------------------------------------------------------------------
# 5. squeeze sandwich validity and hat domination on grids
# ----------------------------------------------------------------------


def check_squeeze_validity(quick=False):
    points = 2_001 if quick else 10_001
    out = []
    ns = [1, 2, 3, 5, 10, 50, 200, 1000, 10_000, 100_000]
    for n, spec in zip(ns, dominator.make_specs(ns)):
        level = dominator._level_spec(n)
        grid = np.linspace(-spec.x1, spec.x1, points)
        lower, upper = vanveen.squeeze_bounds_many(n, grid)
        h = dominator.envelope_many(spec, grid)
        upper = np.minimum(upper, h)
        phi = hermite.phi_squared_many(n, grid)
        slack = 1e-10 * h
        worst = max(float(np.max(lower - phi - slack)), float(np.max(phi - upper - slack)))
        out.append(
            CheckResult(
                f"squeeze validity: worst sandwich violation, degree {n}",
                worst,
                0.0,
                detail=f"{points} grid points on [-x1, x1]",
            )
        )
        out += _whole_line((spec, level), points)
    # the hat's certificate apart from make_specs, which raises where it fails
    cert_ns = ns if quick else list(range(1, 10**4 + 1)) + [3 * 10**4, 10**5]
    ok = hermite.certify_decreasing(cert_ns, [dominator._window_edge(n) for n in cert_ns])[2]
    failed = np.asarray(cert_ns)[~ok].tolist()
    covered = ", ".join(map(str, ns)) if quick else "1 to 10000, 30000 and 100000"
    detail = f"one certificate pass over degrees {covered}; first failures {failed[:10]}"
    name = "squeeze validity: degrees not certified decreasing beyond x1"
    out.append(CheckResult(name, len(failed), 1, detail=detail))
    for n in (2, 3, 6, 64, samplers.N_GRID):
        out.append(_grid_domination(n, 32 if quick else 128))
    return out


def _whole_line(specs, points):
    """Worst phi^2 / hat over the whole line for each degree hat of one
    degree in ``specs`` (the certified hat, then the level hat), with every
    hat's breakpoints and the points just past them, where it steps down.
    A point where the hat is 0 and phi^2 > 0 counts as a ratio of inf."""
    n = specs[0].n
    end = specs[0].edge + 30.0 * n ** (-1.0 / 6.0) + 5.0
    breaks = np.array([[s.x_c, s.x1, s.x_tail] for s in specs]).ravel()
    line = np.concatenate(
        [np.linspace(0.0, end, 2 * points), breaks, np.nextafter(breaks, np.inf)]
    )
    line = np.concatenate([line, -line])
    phi = hermite.phi_squared_many(n, line)
    out = []
    for spec, kind in zip(specs, ("hat", "level hat")):
        h = dominator.envelope_many(spec, line)
        positive = h > 0.0
        ratio = np.divide(phi, h, out=np.where(phi > 0.0, np.inf, phi), where=positive)
        underflow = float(np.max(phi[~positive], initial=0.0))
        out.append(
            CheckResult(
                f"squeeze validity: worst phi^2 / {kind} over the whole line, degree {n}",
                np.max(ratio),
                1.0,
                "<",
                f"{line.size} points on |x| <= edge + 30 n^(-1/6) + 5 with both hats'"
                f" breakpoints; largest phi^2 where the hat underflows to 0: {underflow:.1e}",
            )
        )
    return out


def _grid_domination(n, per_cell):
    """Worst violation of lower <= g_n <= hat by the grid hat of GUE(n),
    relative to the hat: on ``per_cell`` + 1 evenly spaced points of every
    cell, ends included, and on 400 points of each tail out to where the
    tail piece has fallen by e^-60."""
    hat = dominator.grid_hat(n)
    width = np.diff(hat.points)
    xs = hat.points[:-1, None] + width[:, None] * np.linspace(0.0, 1.0, per_cell + 1)
    g = hermite.mixture_density_many(n, xs)
    over = float(np.max((g - hat.upper[:, None]) / hat.upper[:, None]))
    under = float(np.max((hat.lower[:, None] - g) / hat.upper[:, None]))
    t = np.linspace(0.0, 60.0 / hat.rate, 400)
    tail = hat.tail * np.exp(-hat.rate * t)
    beyond = np.concatenate((-hat.x1 - t, hat.x1 + t))
    tail_over = float(np.max(hermite.mixture_density_many(n, beyond) / np.tile(tail, 2))) - 1.0
    worst = float(np.max([over, under, tail_over]))  # NaN, as from a zero hat, fails
    return CheckResult(
        f"squeeze validity: worst violation of squeeze <= g_n <= grid hat over the hat, n={n}",
        worst,
        0.0,
        "<=",
        f"{per_cell + 1} points on each of {width.size} cells of [-X, X], X = {hat.x1:.3f},"
        f" and 400 on each tail to X + 60 / rate; largest (g - hat) / hat on the cells"
        f" {over:.2e}, (squeeze - g) / hat {under:.2e}, g / hat - 1 in the tails {tail_over:.2e}",
    )


# ----------------------------------------------------------------------
# 6. sandwich gap integral scales like n^(-1/3)
# ----------------------------------------------------------------------


def check_gap_scaling(quick=False):
    ns = (100, 1_000, 10_000)
    integrals = [_sandwich_gap(dominator.make_spec(n), 1e-9) for n in ns]
    scaled = [v * n ** (1.0 / 3.0) for v, n in zip(integrals, ns)]
    ratio = max(scaled) / min(scaled)
    out = [
        CheckResult(
            "gap scaling: spread of n^(1/3) * integral of the sandwich gap",
            ratio,
            3.0,
            detail="; ".join(f"n={n}: {s:.4f}" for n, s in zip(ns, scaled)),
        )
    ]
    out.append(_slope_row("gap scaling: raw gap integral", list(zip(ns, integrals)), -0.45, -0.20))
    return out


# ----------------------------------------------------------------------
# 7. second moment of the mixture equals the matrix size
# ----------------------------------------------------------------------


def check_second_moment(quick=False):
    draws = 10_000 if quick else 100_000
    out = []
    for i, n in enumerate((2, 50, 1000)):
        st = _stream(50 + i)
        xs = samplers.sample_gue_eigenvalues(n, draws, st)
        test = f"second moment: |mean(X^2) - {n}| over {draws} mixture draws"
        out.append(_mean_row(test, xs * xs, n))
        # independent quadrature oracle on the mixture density
        # the density is below 1e-70 beyond the edge plus 12 at these n
        val, _ = integrate_adaptive(
            lambda xs_: xs_ * xs_ * hermite.mixture_density_many(n, xs_),
            0.0,
            math.sqrt(4.0 * n) + 12.0,
            1e-7 * n,
            initial_width=_oscillation_width(max(n - 1, 1)),
        )
        out.append(
            CheckResult(
                f"second moment: quadrature of x^2 * mixture density at n={n}",
                abs(2.0 * val / n - 1.0),
                1e-6,
            )
        )
    return out


# ----------------------------------------------------------------------
# 8. joint sampler at n=2 accepts every proposal
# ----------------------------------------------------------------------


def check_joint_n2(quick=False):
    count = 10_000 if quick else 100_000
    st = _stream(60)
    values, attempts = joint.sample_joint_many(2, count, 2.0, st)
    out = [
        CheckResult(
            f"joint n=2: worst attempt count over {count} samples (must be 1)",
            float(attempts.max()),
            1.0 + 1e-9,
        )
    ]
    total = values.sum(axis=1)
    var = float(np.var(total))
    window = 3.0 * 2.0 * math.sqrt(2.0 / (count - 1))
    out.append(
        CheckResult(
            "joint n=2: |Var(X1 + X2) - 2|",
            abs(var - 2.0),
            window,
            detail=f"Var {var:.4f}",
        )
    )
    return out


# ----------------------------------------------------------------------
# 9. joint sampler == mixture sampler == entrywise matrices
# ----------------------------------------------------------------------


def check_joint_triangle(quick=False):
    """Criterion 9: joint spectra against mixture draws and the eigensolver.

    Each case gives one KS row of a uniformly chosen coordinate against
    mixture draws and one per order statistic against the oracle: spectra
    of entrywise matrices from LAPACK, which shares no code with the
    samplers.
    Every row is gated at 0.01 divided by the number of KS rows, so a
    correct sampler fails the criterion with probability at most 0.01.
    At full sizes the criterion fails a chain that accepts when
    u ||v||^2 < 2 ||r||^2 (two rows, the worst at 2.51 against 2.16),
    but passes one with the factor 1.1 or 1.5 in place of 2, and with
    ``quick`` it passes all three; the attempts-law test in
    ``tests/test_joint.py`` is the chain's sharper check.
    """
    # the pair bound serves n = 2, 3, 4 and the chain n = 5, 6, 8, 16, all
    # through sample_joint_many at beta = 2; the chain is also called
    # directly at n = 3
    draws, chain_draws = (2_000, 1_000) if quick else (10_000, 2_000)
    cases = [(2, draws, "joint"), (3, draws, "joint"), (4, draws, "joint")]
    cases += [(6, chain_draws, "joint"), (8, chain_draws, "joint"), (3, draws, "chain")]
    cases += [(5, chain_draws, "joint")]
    cases += [(16, chain_draws, "joint")]
    rows = sum(n + 1 for n, _, _ in cases)
    alpha = 0.01 / rows
    crit = stats.ks_critical(alpha)
    family = f"alpha {alpha:.3g} per row, 0.01 over the {rows} KS rows"
    out = []
    t0 = time.perf_counter()
    for i, (n, count, name) in enumerate(cases):
        st = _stream(70 + i)
        if name == "chain":
            values, attempts = joint._sample_chain(n, count, st, joint.DEFAULT_MAX_ATTEMPTS, None)
        else:
            values, attempts = joint.sample_joint_many(n, count, 2.0, st)
        coord_idx = st.indices(n, count)
        coords = values[np.arange(count), coord_idx]
        mix = samplers.sample_gue_eigenvalues(n, count, _stream(80 + i))
        spectra = oracle.spectra_many(oracle.sample_gue_matrices(n, count, _stream(90 + i)))
        tried = f"attempts mean {attempts.mean():.1f}, max {int(attempts.max())}; "
        pairs = [(f"{name} coordinate vs mixture draw", coords, mix, tried)]
        pairs += [
            (f"order statistic {j + 1} {name} vs eigensolver", values[:, j], spectra[:, j], "")
            for j in range(n)
        ]
        for what, a, b, note in pairs:
            res = stats.ks_two_sample(a, b)
            test = f"triangle: {what}, n={n}"
            out.append(CheckResult(test, res.scaled, crit, detail=note + family))
    out.append(
        CheckResult(
            "triangle: total runtime (seconds)",
            time.perf_counter() - t0,
            1800.0,
        )
    )
    return out


# ----------------------------------------------------------------------
# 10. beta generalization
# ----------------------------------------------------------------------


def _base_propose(n, beta, stream, size):
    """The pair listing written out directly from the beta rule, for
    bit-comparison: Z and the odd-n middle coordinate scaled by
    sqrt(2/beta), W at its base scale, exponents p * beta / 2."""
    scale = math.sqrt(2.0 / beta)
    values = np.empty((size, n))
    for j, p in enumerate(joint.pair_exponents(n), start=1):
        z = math.sqrt(2.0) * scale * stream.standard_normals(size)
        w = 2.0 * np.sqrt(stream.gammas((p * beta / 2.0 + 1.0) / 2.0, size))
        values[:, j - 1] = (z - w) / 2.0
        values[:, n - j] = (z + w) / 2.0
    if n % 2 == 1:
        values[:, (n - 1) // 2] = scale * stream.standard_normals(size)
    return values


_BETA_CASES = ((2, 2.0), (3, 2.0), (6, 2.0), (3, 1.0), (5, 2.5))


def check_beta(quick=False):
    reps = 100 if quick else 500
    worst = 0.0
    for n, beta in _BETA_CASES:
        general, _ = joint._propose_block(n, beta, _stream(100 + n), reps)
        base = _base_propose(n, beta, _stream(100 + n), reps)
        # np.max propagates NaN, so a NaN coordinate fails the gate
        worst = float(np.max(np.append(np.abs(general - base), worst)))
    out = [
        CheckResult(
            "beta: block proposer is bit-identical to the listing of the beta rule",
            worst,
            0.0,
            "==",
            detail=f"{reps} proposals at (n, beta) in {_BETA_CASES}",
        )
    ]
    count = 10_000 if quick else 100_000
    st = _stream(110)
    values, _ = joint.sample_joint_many(2, count, 1.0, st)
    gap_sq = (values[:, 1] - values[:, 0]) ** 2
    test = "beta: n=2, beta=1 mean squared gap vs 4 * gamma shape (= 4)"
    out.append(_mean_row(test, gap_sq, 4.0))
    return out


# ----------------------------------------------------------------------
# 11. pinned Vandermonde maximum
# ----------------------------------------------------------------------


_GOLDEN_STEPS = 64  # shrinks the search interval by 0.618^64, about 4e-14


def _golden_min(f, lo, hi):
    """Approximate minimizer of a unimodal ``f`` on [lo, hi]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    return c if fc <= fd else d


def _pinned_vandermonde_peak(n):
    """Numerically maximize prod_{i<j}(x_j - x_i) with x_1 = 0, x_n = 1.

    The log objective is concave, so cyclic coordinate ascent with
    golden-section line searches converges to the global maximum; it
    stops once a sweep moves no point by 1e-13, or after 200 sweeps.
    """
    x = np.linspace(0.0, 1.0, n)
    iu = np.triu_indices(n, 1)

    def log_obj(pts):
        d = pts[None, :] - pts[:, None]
        return float(np.sum(np.log(d[iu])))

    for _ in range(200):
        moved = 0.0
        for i in range(1, n - 1):
            start = x[i]

            def neg_log_obj(t):
                x[i] = t
                return -log_obj(x)

            best = _golden_min(neg_log_obj, x[i - 1] + 1e-14, x[i + 1] - 1e-14)
            moved = max(moved, abs(start - best))
            x[i] = best
        if moved < 1e-13:
            break
    return math.exp(log_obj(x))


def check_vandermonde_max(quick=False):
    out = [
        CheckResult(
            "vandermonde max: |log M_2| (closed form, M_2 = 1)",
            abs(joint.vandermonde_max_log(2)),
            1e-12,
        ),
        CheckResult(
            "vandermonde max: |log M_3 - log(1/4)| (closed form, M_3 = 1/4)",
            abs(joint.vandermonde_max_log(3) - math.log(0.25)),
            1e-12,
        ),
    ]
    numeric = _pinned_vandermonde_peak(5)
    out.append(
        CheckResult(
            "vandermonde max: M_5 closed form vs numerical maximization",
            abs(joint.vandermonde_max(5) / numeric - 1.0),
            1e-6,
            detail=f"closed {joint.vandermonde_max(5):.9e}, numeric {numeric:.9e}",
        )
    )
    return out


# ----------------------------------------------------------------------
# suite registry
# ----------------------------------------------------------------------

SUITES = {
    "exactness": check_exactness,
    "equivalence": check_equivalence,
    "rejection-constant": check_rejection_constant,
    "sublinearity": check_sublinearity,
    "squeeze-validity": check_squeeze_validity,
    "gap-scaling": check_gap_scaling,
    "second-moment": check_second_moment,
    "joint-n2": check_joint_n2,
    "joint-triangle": check_joint_triangle,
    "beta": check_beta,
    "vandermonde-max": check_vandermonde_max,
}


def run_suites(names=None, quick=False):
    """Run the requested suites (all by default); returns a JSON-ready dict."""
    if names is None or names == ["all"]:
        names = list(SUITES)
    if not names:
        raise ParameterError("name at least one suite, or 'all'")  # none checked is no pass
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ParameterError(f"unknown suite(s): {', '.join(unknown)}")
    report = {"quick": bool(quick), "suites": {}, "pass": True}
    for name in names:
        t0 = time.perf_counter()
        checks = SUITES[name](quick=quick)
        elapsed = time.perf_counter() - t0
        ok = all(c.passed for c in checks)
        report["suites"][name] = {
            "pass": ok,
            "elapsed_seconds": round(elapsed, 3),
            "checks": [c.as_dict() for c in checks],
        }
        report["pass"] = report["pass"] and ok
    return report
