"""Verification suites for the package's correctness and runtime claims.

Each suite checks one acceptance criterion end to end, returning a list
of :class:`CheckResult` rows with the measured statistic and its
threshold.  The CLI ``verify`` command renders these as JSON; the
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
    test: str
    statistic: float
    threshold: float
    passed: bool
    comparison: str = "<"
    detail: str = ""

    def as_dict(self):
        return {
            "test": self.test,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "pass": bool(self.passed),
            "detail": self.detail,
        }


def _less(test, statistic, threshold, detail=""):
    return CheckResult(test, float(statistic), float(threshold), bool(statistic < threshold), "<", detail)


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


def _gk_panels(f, left, right):
    """K15 values and |K15-G7| error estimates for a batch of panels."""
    center = 0.5 * (left + right)
    halfw = 0.5 * (right - left)
    nodes = center[:, None] + halfw[:, None] * _GK_NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    ik = (vals @ _GK_WEIGHTS_K) * halfw
    ig = (vals @ _GK_WEIGHTS_G) * halfw
    return ik, np.abs(ik - ig)


def integrate_adaptive(
    f,
    a,
    b,
    tol,
    initial_width=None,
    max_panels=300000,
    max_rounds=30,
):
    """Adaptive panel integration of a vectorized integrand on [a, b].

    Starts from uniform panels of ``initial_width`` (default: one
    sixteenth of the interval) and bisects any panel whose K15-vs-G7
    discrepancy exceeds its share of ``tol`` until the summed estimate
    is below ``tol``.  Returns ``(value, err)``; raises ConvergenceError
    when the panel or round budget runs out first.
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
    count = int(np.clip(math.ceil((b - a) / initial_width), 4, max_panels))
    edges = np.linspace(a, b, count + 1)
    left, right = edges[:-1], edges[1:]
    vals, errs = _gk_panels(f, left, right)
    for _ in range(max_rounds):
        total_err = float(errs.sum())
        if total_err <= tol:
            break
        if left.size >= max_panels:
            raise ConvergenceError(
                f"quadrature needs more than {max_panels} panels for tol={tol}"
            )
        bad = errs > tol / (2.0 * left.size)
        if not bad.any():
            bad = errs == errs.max()
        mid = 0.5 * (left[bad] + right[bad])
        new_left = np.concatenate([left[bad], mid])
        new_right = np.concatenate([mid, right[bad]])
        new_vals, new_errs = _gk_panels(f, new_left, new_right)
        left = np.concatenate([left[~bad], new_left])
        right = np.concatenate([right[~bad], new_right])
        vals = np.concatenate([vals[~bad], new_vals])
        errs = np.concatenate([errs[~bad], new_errs])
    else:
        raise ConvergenceError(
            f"quadrature did not reach tol={tol} in {max_rounds} refinement rounds"
        )
    return float(vals.sum()), float(errs.sum())


def _oscillation_width(k):
    """Bulk oscillation scale of phi_k^2: pi / sqrt(4k+2)."""
    return math.pi / math.sqrt(4.0 * k + 2.0)


def half_mass_numeric(spec, tol=1e-12):
    """Numerical quadrature of the hat of ``spec`` over [0, infinity).

    Independent check on the closed-form piece masses: adaptive
    Gauss-Kronrod panels on each piece, the tail out to where its
    remainder is e^-50 of its mass.
    """
    f = lambda xs: dominator.envelope_many(spec, xs)
    ends = (0.0, spec.x_c, spec.x1, spec.x_tail, spec.x_tail + 50.0 / spec.rate)
    return sum(
        integrate_adaptive(f, a, b, tol * spec.half_mass)[0]
        for a, b in zip(ends[:-1], ends[1:])
    )


# ----------------------------------------------------------------------
# 1. exactness of single-degree sampling against the closed-form CDF
# ----------------------------------------------------------------------


def check_exactness(quick=False):
    draws = 10_000 if quick else 100_000
    out = []
    for i, k in enumerate((1, 3, 10, 100, 1_000, 10_000, 100_000)):
        st = _stream(10 + i)
        xs = samplers.sample_phi_sq_many(k, draws, st, "squeeze")
        res = stats.ks_one_sample(xs, lambda s: hermite.phi_sq_cdf_many(k, s))
        out.append(
            _less(
                f"exactness: KS of {draws} squeeze draws vs ladder-identity CDF, degree {k}",
                res.scaled,
                1.95,
                detail=f"D={res.statistic:.3e}",
            )
        )
    return out


# ----------------------------------------------------------------------
# 2. plain and squeeze samplers draw the same law
# ----------------------------------------------------------------------


def check_equivalence(quick=False):
    draws = 20_000 if quick else 100_000
    crit = stats.ks_critical(0.01)
    out = []
    for i, k in enumerate((1, 10, 100)):
        a = samplers.sample_phi_sq_many(k, draws, _stream(20 + i), "plain")
        b = samplers.sample_phi_sq_many(k, draws, _stream(30 + i), "squeeze")
        res = stats.ks_two_sample(a, b)
        out.append(
            _less(
                f"equivalence: two-sample KS plain vs squeeze, degree {k}, alpha=0.01",
                res.scaled,
                crit,
            )
        )
    return out


# ----------------------------------------------------------------------
# 3. proposals per accept equal the hat mass
# ----------------------------------------------------------------------


def check_rejection_constant(quick=False):
    accepts = 5_000 if quick else 100_000
    out = []
    for i, n in enumerate((10, 1_000, 100_000)):
        spec = dominator.make_spec(n)
        st = _stream(40 + i)
        s = samplers.SamplerStats()
        samplers.sample_phi_sq_many(n, accepts, st, "squeeze", s)
        mean_trials = s.proposals / s.accepted
        # trials per accept are geometric with mean = hat mass
        sigma = math.sqrt((spec.mass**2 - spec.mass) / s.accepted)
        out.append(
            _less(
                f"rejection constant: |proposals/accept - hat mass| at degree {n}",
                abs(mean_trials - spec.mass),
                3.0 * sigma,
                detail=f"measured {mean_trials:.4f}, mass {spec.mass:.4f}",
            )
        )
        quad = 2.0 * half_mass_numeric(spec)
        out.append(
            _less(
                f"rejection constant: closed-form mass vs quadrature, degree {n}",
                abs(quad / spec.mass - 1.0),
                1e-8,
            )
        )
    return out


# ----------------------------------------------------------------------
# 4. cost scaling: squeeze sublinear, plain linear
# ----------------------------------------------------------------------


def _sandwich_gap(n, tol):
    """Integral of the sandwich gap over the squeeze window [0, x1]."""
    spec = dominator.make_spec(n)
    gap, _ = integrate_adaptive(
        lambda xs: vanveen.delta_eps_many(n, xs, spec),
        0.0,
        spec.x1,
        tol,
        initial_width=_oscillation_width(n),
    )
    return gap


def check_sublinearity(quick=False):
    n_list = (100, 1_000, 10_000, 100_000)
    if quick:
        squeeze_counts = (1_000, 700, 400, 200)
        plain_counts = (400, 150, 60, 30)
    else:
        squeeze_counts = (6_000, 4_000, 2_500, 1_500)
        plain_counts = (6_000, 2_000, 1_000, 600)
    out = []
    # A squeeze proposal needs the exact recurrence, independently of the
    # others, with probability p: the in-window sandwich gap plus the hat's
    # mass outside the window (p3 + p4), over the hat's half mass.  So the
    # cost proxy per accepted draw, (proposals + n * exact_evals) / accepted,
    # has the closed form mass * (1 + n p).  The sublinearity claim is on
    # those closed forms; each measured row must then match its closed form.
    specs = [dominator.make_spec(n) for n in n_list]
    # tol 1e-7 is below 1e-7 of the half mass; 1e-9 does not converge at n = 1e5
    shares = [
        (_sandwich_gap(n, 1e-7) + spec.p3 + spec.p4) / spec.half_mass
        for n, spec in zip(n_list, specs)
    ]
    proxies = [spec.mass * (1.0 + n * p) for n, spec, p in zip(n_list, specs, shares)]
    slope, _ = stats.loglog_slope(list(zip(n_list, proxies)))
    out.append(
        CheckResult(
            "sublinearity: closed-form squeeze cost proxy log-log slope in [0.55, 0.80]",
            slope,
            0.80,
            0.55 <= slope <= 0.80,
            "in-window",
            "; ".join(f"n={n}: proxy={v:.1f}" for n, v in zip(n_list, proxies)),
        )
    )
    for n, c, spec, p in zip(n_list, squeeze_counts, specs, shares):
        (r,) = samplers.benchmark("squeeze", [n], c, seed=BASE_SEED + n)
        # the share: exact evaluations are binomial over the proposals
        sigma = math.sqrt(p * (1.0 - p) / r.proposals)
        out.append(
            CheckResult(
                f"sublinearity: exact-evaluation share at n={n} within 5 sigma"
                " of the closed form",
                r.exact_share - p,
                5.0 * sigma,
                abs(r.exact_share - p) <= 5.0 * sigma,
                "in-window",
                f"measured {r.exact_share:.5f}, closed form {p:.5f}, sigma {sigma:.1e},"
                f" {r.proposals} proposals",
            )
        )
        # the proxy: each accept costs a geometric number G of proposals
        # (variance mass^2 - mass), n units more for each binomial exact
        # evaluation among them, so one accept's cost has variance
        # Var(G) (1 + n p)^2 + n^2 mass p (1 - p)
        expected = spec.mass * (1.0 + n * p)
        var = (spec.mass**2 - spec.mass) * (1.0 + n * p) ** 2
        var += n * n * spec.mass * p * (1.0 - p)
        sigma = math.sqrt(var / r.accepted)
        out.append(
            CheckResult(
                f"sublinearity: squeeze cost proxy at n={n} within 5 sigma"
                " of the closed form",
                r.cost_proxy - expected,
                5.0 * sigma,
                abs(r.cost_proxy - expected) <= 5.0 * sigma,
                "in-window",
                f"measured {r.cost_proxy:.1f}, closed form {expected:.1f},"
                f" sigma {sigma:.1f}",
            )
        )
    rows = []
    for n, c in zip(n_list, plain_counts):
        rows += samplers.benchmark("plain", [n], c, seed=BASE_SEED + 7 * n)
    slope, err = stats.loglog_slope([(r.n, r.cost_proxy) for r in rows])
    # The plain proxy is (1 + n) * proposals / accepted, so its slope's
    # expectation follows from the closed-form hat masses: about 0.96 over
    # this n range, as the mass falls about n^-0.04.  Its sampling error
    # follows from the counts: log(proposals / accepted) has variance
    # (1 - 1/mass) / accepted for geometric trials, and the least-squares
    # slope weighs row i by dx_i / sum(dx^2).  The window is 5 of those
    # standard errors around the expectation, so a cost that grows faster
    # than the proposals (say an extra n^0.1) fails it.
    masses = [dominator.make_spec(n).mass for n in n_list]
    expected = stats.loglog_slope([(n, m * (1.0 + n)) for n, m in zip(n_list, masses)])[0]
    dx = np.log(n_list) - np.mean(np.log(n_list))
    weights = dx / np.sum(dx * dx)
    sigma = math.sqrt(
        sum(w * w * (1.0 - 1.0 / m) / r.accepted for w, m, r in zip(weights, masses, rows))
    )
    lo, hi = expected - 5.0 * sigma, expected + 5.0 * sigma
    out.append(
        CheckResult(
            f"linearity: plain cost proxy log-log slope in [{lo:.3f}, {hi:.3f}]"
            " (closed form +- 5 sigma)",
            slope,
            hi,
            lo <= slope <= hi,
            "in-window",
            "; ".join(f"n={r.n}: proxy={r.cost_proxy:.1f}" for r in rows)
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
    for n in (1, 2, 3, 5, 10, 50, 200, 1000, 10_000, 100_000):
        spec = dominator.make_spec(n)
        grid = np.linspace(-spec.x1, spec.x1, points)
        f, ep, em = vanveen.terms_many(n, grid)
        lower = np.maximum(f - em, 0.0)
        h = dominator.envelope_many(spec, grid)
        upper = np.minimum(f + ep, h)
        phi = hermite.phi_squared_many(n, grid)
        slack = 1e-10 * h
        worst = max(float(np.max(lower - phi - slack)), float(np.max(phi - upper - slack)))
        out.append(
            _less(
                f"squeeze validity: worst sandwich violation, degree {n}",
                worst,
                0.0,
                detail=f"{points} grid points on [-x1, x1]",
            )
        )
        # the hat over the whole line, with its breakpoints and the points
        # just past them, where it steps down
        end = spec.edge + 30.0 * n ** (-1.0 / 6.0) + 5.0
        breaks = np.array([spec.x_c, spec.x1, spec.x_tail])
        line = np.concatenate(
            [np.linspace(0.0, end, 2 * points), breaks, np.nextafter(breaks, np.inf)]
        )
        line = np.concatenate([line, -line])
        h = dominator.envelope_many(spec, line)
        phi = hermite.phi_squared_many(n, line)
        positive = h > 0.0
        worst = float(np.max(phi[positive] / h[positive]))
        underflow = float(np.max(phi[~positive], initial=0.0))
        out.append(
            CheckResult(
                f"squeeze validity: worst phi^2 / hat over the whole line, degree {n}",
                worst,
                1.0,
                worst < 1.0 and underflow == 0.0,
                "<",
                f"{line.size} points on |x| <= edge + 30 n^(-1/6) + 5 with breakpoints;"
                f" largest phi^2 where the hat underflows to 0: {underflow:.1e}",
            )
        )
        certified = hermite.decreasing_beyond(n, spec.x1) is not None
        out.append(
            CheckResult(
                f"squeeze validity: phi^2 certified decreasing beyond x1, degree {n}",
                float(certified),
                1.0,
                certified,
                "==",
            )
        )
    return out


# ----------------------------------------------------------------------
# 6. sandwich gap integral scales like n^(-1/3)
# ----------------------------------------------------------------------


def check_gap_scaling(quick=False):
    ns = (100, 1_000, 10_000)
    integrals = [_sandwich_gap(n, 1e-9) for n in ns]
    scaled = [v * n ** (1.0 / 3.0) for v, n in zip(integrals, ns)]
    ratio = max(scaled) / min(scaled)
    out = [
        _less(
            "gap scaling: spread of n^(1/3) * integral of the sandwich gap",
            ratio,
            3.0,
            detail="; ".join(f"n={n}: {s:.4f}" for n, s in zip(ns, scaled)),
        )
    ]
    slope, _ = stats.loglog_slope(list(zip(ns, integrals)))
    out.append(
        CheckResult(
            "gap scaling: raw gap integral log-log slope in [-0.45, -0.20]",
            slope,
            -0.20,
            -0.45 <= slope <= -0.20,
            "in-window",
        )
    )
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
        sq = xs * xs
        se = float(np.std(sq)) / math.sqrt(draws)
        out.append(
            _less(
                f"second moment: |mean(X^2) - {n}| over {draws} mixture draws",
                abs(float(np.mean(sq)) - n),
                3.0 * se,
                detail=f"mean {float(np.mean(sq)):.4f}",
            )
        )
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
            _less(
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
        _less(
            f"joint n=2: worst attempt count over {count} samples (must be 1)",
            float(attempts.max()),
            1.0 + 1e-9,
        )
    ]
    total = values.sum(axis=1)
    var = float(np.var(total))
    window = 3.0 * 2.0 * math.sqrt(2.0 / (count - 1))
    out.append(
        _less(
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
    draws = 2_000 if quick else 10_000
    crit = stats.ks_critical(0.01)
    out = []
    t0 = time.perf_counter()
    for i, n in enumerate((2, 3, 4)):
        st = _stream(70 + i)
        values, attempts = joint.sample_joint_many(n, draws, 2.0, st)
        coord_idx = st.indices(n, draws)
        coords = values[np.arange(draws), coord_idx]
        mix = samplers.sample_gue_eigenvalues(n, draws, _stream(80 + i))
        res = stats.ks_two_sample(coords, mix)
        out.append(
            _less(
                f"triangle: joint coordinate vs mixture draw, n={n}, alpha=0.01",
                res.scaled,
                crit,
                detail=f"attempts mean {attempts.mean():.1f}, max {int(attempts.max())}",
            )
        )
        mats = oracle.sample_gue_matrices(n, draws, "unscaled", _stream(90 + i))
        spectra = oracle.spectra_many(mats)
        for pos in range(n):
            res = stats.ks_two_sample(values[:, pos], spectra[:, pos])
            out.append(
                _less(
                    f"triangle: order statistic {pos + 1} joint vs eigensolver, n={n}",
                    res.scaled,
                    crit,
                )
            )
    out.append(
        _less(
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
            worst == 0.0,
            "==",
            detail=f"{reps} proposals at (n, beta) in {_BETA_CASES}",
        )
    ]
    count = 10_000 if quick else 100_000
    st = _stream(110)
    values, _ = joint.sample_joint_many(2, count, 1.0, st)
    gap_sq = (values[:, 1] - values[:, 0]) ** 2
    se = float(np.std(gap_sq)) / math.sqrt(count)
    out.append(
        _less(
            "beta: n=2, beta=1 mean squared gap vs 4 * gamma shape (= 4)",
            abs(float(np.mean(gap_sq)) - 4.0),
            3.0 * se,
            detail=f"mean {float(np.mean(gap_sq)):.4f}",
        )
    )
    return out


# ----------------------------------------------------------------------
# 11. pinned Vandermonde maximum
# ----------------------------------------------------------------------


def _pinned_vandermonde_peak(n, passes=200):
    """Numerically maximize prod_{i<j}(x_j - x_i) with x_1 = 0, x_n = 1.

    The log objective is concave, so cyclic coordinate ascent with
    golden-section line searches converges to the global maximum.
    """
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    x = np.linspace(0.0, 1.0, n)

    def log_obj(pts):
        d = pts[None, :] - pts[:, None]
        iu = np.triu_indices(n, 1)
        return float(np.sum(np.log(d[iu])))

    for _ in range(passes):
        moved = 0.0
        for i in range(1, n - 1):
            lo = x[i - 1] + 1e-14
            hi = x[i + 1] - 1e-14
            start = x[i]

            def f(t):
                x[i] = t
                return log_obj(x)

            a, b = lo, hi
            c = b - gold * (b - a)
            d = a + gold * (b - a)
            fc, fd = f(c), f(d)
            for _ in range(80):
                if fc > fd:
                    b, d, fd = d, c, fc
                    c = b - gold * (b - a)
                    fc = f(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + gold * (b - a)
                    fd = f(d)
            best = c if fc > fd else d
            moved = max(moved, abs(start - best))
            x[i] = best
        if moved < 1e-13:
            break
    return math.exp(log_obj(x))


def check_vandermonde_max(quick=False):
    out = [
        _less(
            "vandermonde max: |log M_2| (closed form, M_2 = 1)",
            abs(joint.vandermonde_max_log(2)),
            1e-12,
        ),
        _less(
            "vandermonde max: |log M_3 - log(1/4)| (closed form, M_3 = 1/4)",
            abs(joint.vandermonde_max_log(3) - math.log(0.25)),
            1e-12,
        ),
    ]
    numeric = _pinned_vandermonde_peak(5)
    out.append(
        _less(
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
