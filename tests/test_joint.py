import math

import numpy as np
import pytest

from guegen import hermite, joint, samplers, verify
from guegen.errors import BudgetError, ParameterError
from guegen.rng import RandomStream
from guegen.stats import ks_critical, ks_two_sample


def test_pair_exponents():
    assert joint.pair_exponents(2) == (2,)
    assert joint.pair_exponents(3) == (6,)
    assert joint.pair_exponents(4) == (10, 2)
    assert joint.pair_exponents(7) == (22, 14, 6)


def test_pair_transform_ordering():
    x, y, _ = joint._pair_block(2.0, 1.0, RandomStream(1), 5000)
    assert np.all(y > x)


def test_pair_transform_p0_half_normal():
    # at p=0 the half-gap sqrt(2)(Y-X)/2 is distributed like |N|
    x, y, _ = joint._pair_block(0.0, 1.0, RandomStream(2), 20000)
    half = (y - x) / 2.0 * math.sqrt(2.0)
    ref = np.abs(RandomStream(3).standard_normals(20000))
    assert ks_two_sample(half, ref).scaled < ks_critical(0.01)


def test_pair_transform_second_moment():
    # E[(Y-X)^2] = E[W^2] = 4 * (p+1)/2
    x, y, _ = joint._pair_block(2.0, 1.0, RandomStream(4), 100_000)
    w2 = (y - x) ** 2
    assert abs(w2.mean() - 6.0) < 3.0 * w2.std() / math.sqrt(w2.size)


def test_pair_transform_rejects_negative_exponent():
    with pytest.raises(ParameterError):
        joint._pair_block(-1.0, 1.0, RandomStream(5), 1)


def test_pair_back_transform_components():
    # X+Y recovers the Gaussian part, (Y-X)^2/4 the gamma part
    p = 3.0
    x, y, _ = joint._pair_block(p, 1.0, RandomStream(17), 100_000)
    z = x + y
    var = z.var()
    assert abs(var - 2.0) < 3.0 * 2.0 * math.sqrt(2.0 / (z.size - 1))
    v = (y - x) ** 2 / 4.0
    # shape (p+1)/2 = 2, so the CDF is exactly 1 - e^-v (1 + v)
    v.sort()
    f = 1.0 - np.exp(-v) * (1.0 + v)
    n = v.size
    i = np.arange(n)
    d = max(np.max((i + 1) / n - f), np.max(f - i / n))
    assert d * math.sqrt(n) < 1.95


def test_propose_layout():
    s = RandomStream(6)
    v, gaps = joint._propose_block(4, 2.0, s, 100)
    assert v.shape == (100, 4) and gaps.shape == (2, 100)
    assert np.all(v[:, 3] > v[:, 0]) and np.all(v[:, 2] > v[:, 1])  # within-pair order
    assert np.allclose(gaps, [v[:, 3] - v[:, 0], v[:, 2] - v[:, 1]], rtol=1e-12, atol=1e-12)
    v3, gaps3 = joint._propose_block(3, 2.0, s, 100)
    assert v3.shape == (100, 3) and gaps3.shape == (1, 100)
    assert np.all(v3[:, 2] > v3[:, 0])


def test_accept_test_certain_at_n2():
    s = RandomStream(7)
    coords, gaps = joint._propose_block(2, 2.0, s, 10_000)
    assert np.all(joint._ratio_test(coords, gaps, 2.0, s.uniforms(10_000)))


def test_accept_test_rejects_unordered():
    coords = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    gaps = np.array([[1.0, 1.0]])
    assert not np.any(joint._ratio_test(coords, gaps, 2.0, np.full(2, 1e-300)))


def test_bound_dominates_target_on_random_tuples():
    # with u = e^(1e-9) a row passes the ratio test only where the log
    # target exceeds the log bound by more than 1e-9
    rng = np.random.default_rng(9)
    for n in (3, 4, 6, 9):
        v = np.sort(rng.normal(size=(2500, n)) * rng.uniform(0.5, 3.0, (2500, 1)), axis=1)
        v = v[np.all(np.diff(v, axis=1) > 0.0, axis=1)]
        gaps = (v[:, ::-1][:, : n // 2] - v[:, : n // 2]).T  # x_{n+1-j} - x_j
        u = np.full(v.shape[0], math.exp(1e-9))
        assert not np.any(joint._ratio_test(v, gaps, 2.0, u))


def test_scalar_sample_n2_structure():
    values, attempts = joint.sample_joint_many(2, 1, 2.0, RandomStream(10))
    # the sampler draws proposal blocks of at least 512: pair normals, then gammas
    ref = RandomStream(10)
    z = math.sqrt(2.0) * ref.standard_normals(512)[0]
    w = 2.0 * math.sqrt(ref.gammas(1.5, 512)[0])
    assert attempts[0] == 1
    assert values[0, 0] == (z - w) / 2.0 and values[0, 1] == (z + w) / 2.0


def test_batch_matches_attempt_budget_semantics():
    with pytest.raises(BudgetError):
        joint.sample_joint_many(6, 3, 2.0, RandomStream(11), max_attempts=2)


@pytest.mark.parametrize(
    "n, beta, count, caps",
    [(5, 2.0, 300, (1, 5, 20, 60, 120)), (8, 1.0, 1, (600, 5000))],
    ids=["5-300-caps0", "8-1-caps1"],
)
def test_budget_error_reports_the_spectrum_over_budget(n, beta, count, caps):
    # the budgeted run of the pair bound (called directly: at n = 5 and
    # beta = 2 sample_joint_many runs the chain) reads the stream of the
    # unbounded one until it raises: at the first spectrum over the cap, or
    # earlier at the end of a block whose trailing gap is already over it
    def pair_bound(cap):
        return joint._sample_pair_bound(n, count, beta, RandomStream(18), cap, None)

    ref_values, ref_attempts = pair_bound(joint.DEFAULT_MAX_ATTEMPTS)
    for cap in caps:
        with pytest.raises(BudgetError) as info:
            pair_bound(cap)
        first_over = ref_attempts[np.argmax(ref_attempts > cap)]
        assert cap < first_over
        assert cap < info.value.attempts <= first_over
    cap = int(ref_attempts.max())  # a spectrum may use the whole budget
    values, attempts = pair_bound(cap)
    assert np.array_equal(values, ref_values) and np.array_equal(attempts, ref_attempts)


def test_batch_outputs_ordered_and_counted():
    values, attempts = joint.sample_joint_many(4, 3000, 2.0, RandomStream(12))
    assert values.shape == (3000, 4)
    assert np.all(np.diff(values, axis=1) > 0.0)
    assert attempts.min() >= 1
    # acceptance at n=4 lands around one in five proposals
    assert 2.0 < attempts.mean() < 12.0


def test_trace_variance_n3():
    values, _ = joint.sample_joint_many(3, 10_000, 2.0, RandomStream(13))
    tr = values.sum(axis=1)
    var = tr.var()
    assert abs(var - 3.0) < 3.0 * 3.0 * math.sqrt(2.0 / (tr.size - 1))


def test_progress_callback_fires(monkeypatch):
    # reports come between proposal blocks, once PROGRESS_EVERY attempts
    # have passed since the last one (here the first block, of 512, passes
    # silently), and not after the last block, which holds the last accept
    monkeypatch.setattr(joint, "PROGRESS_EVERY", 20_000)
    seen = []
    _, attempts = joint.sample_joint_many(7, 10, 3.0, RandomStream(14), progress=seen.append)
    assert len(seen) >= 2
    assert np.all(np.diff(seen, prepend=0) >= 20_000)
    assert seen[-1] < attempts.sum()


def test_parameter_validation():
    with pytest.raises(ParameterError):
        joint.sample_joint_many(1, 1, 2.0, RandomStream(1))
    with pytest.raises(ParameterError):
        joint.sample_joint_many(3, 1, 0.0, RandomStream(1))
    for beta in (math.inf, math.nan):  # not an attempt budget spent in vain
        with pytest.raises(ParameterError):
            joint.sample_joint_many(3, 1, beta, RandomStream(1))
    with pytest.raises(ParameterError):
        joint.sample_joint_many(3, 1, 2.0, RandomStream(1), max_attempts=0)
    with pytest.raises(ParameterError):
        joint.sample_joint_many(3, -1, 2.0, RandomStream(1))
    with pytest.raises(ParameterError):
        joint.sample_joint_many(4, 3)


def test_beta_two_paths_identical():
    # n = 3 runs the pair bound, n = 6 the chain
    for n in (3, 6):
        a, _ = joint.sample_joint_many(n, 200, 2.0, RandomStream(15))
        b, _ = joint.sample_joint_many(n, 200, 2, RandomStream(15))
        assert np.array_equal(a, b)


def test_pair_bound_below_chain_min_n():
    # n = 4 at beta = 2 runs the pair bound, n = 5 the chain; the pair
    # bound's draws at n = 5 are pinned from before the chain was added
    assert joint.CHAIN_MIN_N == 5
    cap = joint.DEFAULT_MAX_ATTEMPTS
    for n, direct in (
        (4, joint._sample_pair_bound(4, 30, 2.0, RandomStream(19), cap, None)),
        (5, joint._sample_chain(5, 30, RandomStream(19), cap, None)),
    ):
        via = joint.sample_joint_many(n, 30, 2.0, RandomStream(19))
        assert all(np.array_equal(a, b) for a, b in zip(direct, via))
    values, attempts = joint._sample_pair_bound(5, 8, 2.0, RandomStream(19), cap, None)
    assert attempts.tolist() == [63, 11, 79, 9, 43, 64, 4, 5]
    ref = [-3.664337294831192, -1.7903092333910722, 0.2706139810448416,
           1.3011034113402193, 3.592105022373506]
    assert values[0].tolist() == pytest.approx(ref, rel=1e-12)
    assert values.sum() == pytest.approx(-0.5435876330040378, rel=1e-12)


@pytest.mark.parametrize("n", [6, 8])
def test_chain_attempts_and_trace_moment(n):
    count = 3000
    values, attempts = joint.sample_joint_many(n, count, 2.0, RandomStream(20 + n))
    assert np.all(np.diff(values, axis=1) > 0.0)
    assert attempts.min() >= n
    # step i accepts a proposal with probability (n - i) / n, so a spectrum
    # reads n H_n proposals on average
    mean = n * sum(1.0 / k for k in range(1, n + 1))
    assert abs(attempts.mean() - mean) < 4.0 * attempts.std() / math.sqrt(count)
    sq = (values**2).sum(axis=1)  # E[sum x^2] = n^2 in the unscaled convention
    assert abs(sq.mean() - n * n) < 4.0 * sq.std() / math.sqrt(count)


def _assert_chain_budget_contract(n, count, seed, caps):
    ref_values, ref_attempts = joint.sample_joint_many(n, count, 2.0, RandomStream(seed))
    top = int(ref_attempts.max())
    values, attempts = joint.sample_joint_many(n, count, 2.0, RandomStream(seed), max_attempts=top)
    assert np.array_equal(values, ref_values) and np.array_equal(attempts, ref_attempts)
    for cap in caps(top):
        with pytest.raises(BudgetError) as info:
            joint.sample_joint_many(n, count, 2.0, RandomStream(seed), max_attempts=cap)
        # spent plus one per missing point: over the cap, and at most what
        # that spectrum spends unbounded
        assert cap < info.value.attempts <= top


def test_chain_budget_contract():
    n = 6
    _assert_chain_budget_contract(n, 400, 21, lambda top: (n, 2 * n, top - 1))
    for cap in range(1, n):  # every spectrum reads at least n proposals
        with pytest.raises(BudgetError) as info:
            joint.sample_joint_many(n, 1, 2.0, RandomStream(21), max_attempts=cap)
        assert info.value.attempts == n


def test_chain_budget_contract_across_chunks(monkeypatch):
    # chunks of 4 spectra run one after another: every cap below the
    # largest spectrum's attempts raises, in whichever chunk it is passed
    n = 6
    monkeypatch.setattr(joint, "_CHAIN_ENTRIES", 4 * n * n)
    _assert_chain_budget_contract(n, 30, 24, lambda top: range(1, top))


def test_chain_progress_between_rounds(monkeypatch):
    monkeypatch.setattr(joint, "PROGRESS_EVERY", 1000)
    seen = []
    _, attempts = joint.sample_joint_many(6, 500, 2.0, RandomStream(14), progress=seen.append)
    assert len(seen) >= 2
    assert np.all(np.diff(seen, prepend=0) >= 1000)
    assert seen[-1] < attempts.sum()


def test_chain_mean_attempts_sees_rejected_slots_put_back():
    # Each spectrum reads sum_i Geometric(p_i) proposals, p_i = (n - i) / n:
    # mean n H_n = 14.7 at n = 6, variance sum (1 - p_i) / p_i^2.  Putting
    # the read and rejected slots back in the pool (values biased towards a
    # small residual) reads z = +9.4 to +11.4 at this size (seeds 1-3); the
    # exact chain reads |z| <= 1.64 over seeds 0-24.  3000 spectra, as in
    # test_chain_attempts_and_trace_moment, would put the defect near z = 1.
    n, count = 6, 400_000
    _, attempts = joint._sample_chain(n, count, RandomStream(2), joint.DEFAULT_MAX_ATTEMPTS, None)
    p = (n - np.arange(n)) / n
    z = (attempts.mean() - (1.0 / p).sum()) / math.sqrt(((1.0 - p) / p**2).sum() / count)
    assert abs(z) < 4.5, z


def _harmonic_attempts(n):
    return n * sum(1.0 / k for k in range(1, n + 1))


def _max_round_slots(n, spectra):
    # a round of step i has at most ceil(n / (n - i)) slots per spectrum of the chunk
    return spectra * max(-(-n // (n - i)) for i in range(n))


def _spy_mixture_calls(monkeypatch):
    sizes = []
    real = samplers.sample_gue_eigenvalues

    def spy(n, count, stream, *args, **kwargs):
        sizes.append(count)
        return real(n, count, stream, *args, **kwargs)

    monkeypatch.setattr(samplers, "sample_gue_eigenvalues", spy)
    return sizes


def test_chain_draws_one_pooled_mixture_call(monkeypatch):
    # every seed, not one that happens to fit: the first refill serves the
    # whole 500-spectrum chunk, as no round asks for more than the pool holds
    sizes = _spy_mixture_calls(monkeypatch)
    count = 500
    for n in (5, 6, 8):
        bound = 1.1 * count * _harmonic_attempts(n) + 64 + _max_round_slots(n, count)
        for seed in range(100):
            sizes.clear()
            _, attempts = joint.sample_joint_many(n, count, 2.0, RandomStream(seed))
            assert len(sizes) == 1, (n, seed)
            assert attempts.sum() <= sizes[0] <= bound, (n, seed)


def test_chain_pool_refills_stay_bounded(monkeypatch):
    # with chunks of 4 spectra, a refill covers at most the rest of one
    # chunk and its shortfall, not all 200 spectra of the call
    n, count = 6, 200
    monkeypatch.setattr(joint, "_CHAIN_ENTRIES", 4 * n * n)
    cap = 4
    sizes = _spy_mixture_calls(monkeypatch)
    values, attempts = joint.sample_joint_many(n, count, 2.0, RandomStream(23))
    assert np.all(np.diff(values, axis=1) > 0.0) and attempts.min() >= n
    bound = 1.1 * cap * _harmonic_attempts(n) + 64 + _max_round_slots(n, cap)
    assert len(sizes) > 1 and max(sizes) <= bound
    assert attempts.sum() <= sum(sizes)


def _reference_chain(n, count, stream, max_attempts, progress):
    # the chain's round in its first form, kept as the reference: psi rows
    # of every slot each round, the twice-projected residual of every slot,
    # and the unread slots put back by concatenating the whole pool
    values = np.empty((count, n))
    attempts = np.zeros(count, dtype=np.int64)
    first_slots = -(-n // (n - np.arange(n)))
    left = np.append(np.cumsum(n / (n - np.arange(n))[::-1])[::-1], 0.0)
    capacity = max(1, joint._CHAIN_ENTRIES // (n * n))
    pool = np.empty(0)
    spent = 0
    last_report = 0
    for lo in range(0, count, capacity):
        m = min(capacity, count - lo)
        tries = attempts[lo : lo + m]
        points = np.empty((m, n))
        basis = np.empty((m, n, n))
        for i in range(n):
            todo = np.arange(m)
            r = 0
            while todo.size:
                if progress is not None and spent - last_report >= joint.PROGRESS_EVERY:
                    progress(spent)
                    last_report = spent
                t = todo.size
                if pool.size < t * first_slots[i]:
                    expect = t * left[i] + (m - t) * left[i + 1]
                    more = math.ceil(1.1 * expect) + 64
                    pool = np.concatenate([pool, samplers.sample_gue_eigenvalues(n, more, stream)])
                width = min(first_slots[i] * min(2**r, m // t), pool.size // t)
                size = t * width
                x = pool[:size].reshape(t, width)
                u = stream.uniforms(size).reshape(t, width)
                v = hermite.psi_rows(n, x.ravel()).reshape(t, width, n)
                b = basis[todo, :i]
                res = v
                for _ in range(2):
                    res = res - (res @ b.transpose(0, 2, 1)) @ b
                rr = np.einsum("abj,abj->ab", res, res)
                accept = u * np.einsum("abj,abj->ab", v, v) < rr
                first = accept.argmax(axis=1)
                hit = accept[np.arange(t), first]
                used = np.where(hit, first + 1, width)
                pool = np.concatenate([x[np.arange(width) >= used[:, None]], pool[size:]])
                tries[todo] += used
                spent += int(used.sum())
                a, c = np.flatnonzero(hit), first[hit]
                points[todo[a], i] = x[a, c]
                basis[todo[a], i] = res[a, c] / np.sqrt(rr[a, c])[:, None]
                floor = tries[todo] + n - i - hit
                over = np.flatnonzero(floor > max_attempts)
                if over.size:
                    raise BudgetError("over", attempts=int(floor[over[0]]))
                todo = todo[~hit]
                r += 1
        values[lo : lo + m] = np.sort(points, axis=1)
    return values, attempts


def _chain_run(engine, n, count, seed, cap):
    # values, attempts (or the BudgetError's attempts), draws and progress calls
    stream, seen = RandomStream(seed), []
    try:
        values, attempts = engine(n, count, stream, cap, seen.append)
    except BudgetError as err:
        values, attempts = None, err.attempts
    return values, attempts, stream.draw_count, seen


@pytest.mark.parametrize(
    "n, count, chunk", [(5, 60, 4), (6, 60, 4), (8, 40, 4), (8, 12, 0.5), (20, 12, 4), (64, 6, 4)]
)
def test_chain_matches_the_reference_round(monkeypatch, n, count, chunk):
    # chunks of 4 spectra and psi_rows blocks of 4 n pool values, so a call
    # spans several chunks, several row blocks and several refills; at
    # chunk 0.5, one spectrum a chunk and blocks of n / 2 values, fewer
    # than a late round's slots
    monkeypatch.setattr(joint, "_CHAIN_ENTRIES", int(chunk * n * n))
    monkeypatch.setattr(joint, "PROGRESS_EVERY", 8 * n)
    seed = 30 + n
    ref = _chain_run(_reference_chain, n, count, seed, joint.DEFAULT_MAX_ATTEMPTS)
    assert len(ref[3]) >= 2  # the progress callback fired
    top = int(ref[1].max())
    # uncapped, capped at the largest spectrum's attempts, and two caps that raise
    runs = ((seed, None, False), (seed, top, False), (seed, top - 1, True), (seed + 10, 2 * n, True))
    for seed, cap, raises in runs:
        want = ref if cap is None else _chain_run(_reference_chain, n, count, seed, cap)
        got = _chain_run(joint._sample_chain, n, count, seed, cap or joint.DEFAULT_MAX_ATTEMPTS)
        assert (want[0] is None) == (got[0] is None) == raises, (seed, cap)
        if not raises:
            assert np.array_equal(got[0], want[0]), (seed, cap)
        assert np.array_equal(got[1], want[1]) and got[2:] == want[2:], (seed, cap)


class _RowBufferSpy:
    # numpy as seen from joint, logging the length of every 2-D concatenation
    # (the chain's psi row buffer)
    def __init__(self, log):
        self.log = log

    def __getattr__(self, name):
        return getattr(np, name)

    def concatenate(self, arrays, *args, **kwargs):
        out = np.concatenate(arrays, *args, **kwargs)
        if out.ndim == 2:
            self.log.append(("rows", len(out)))
        return out


@pytest.mark.parametrize("chunk", [None, 4, 0.5])
def test_chain_forms_each_row_once(monkeypatch, chunk):
    n, count = 6, 200
    if chunk is not None:  # chunk spectra a chunk, blocks of chunk n pool values
        monkeypatch.setattr(joint, "_CHAIN_ENTRIES", int(chunk * n * n))
    block = joint._CHAIN_ENTRIES // n
    sizes = _spy_mixture_calls(monkeypatch)
    log = []
    monkeypatch.setattr(joint, "np", _RowBufferSpy(log))
    real_rows, real_uniforms = hermite.psi_rows, RandomStream.uniforms

    def rows(m, x):
        log.append(("psi", len(x)))
        return real_rows(m, x)

    def uniforms(self, size):
        log.append(("uniforms", int(size)))
        return real_uniforms(self, size)

    monkeypatch.setattr(hermite, "psi_rows", rows)
    monkeypatch.setattr(RandomStream, "uniforms", uniforms)
    _, attempts = joint.sample_joint_many(n, count, 2.0, RandomStream(25))
    formed = [size for kind, size in log if kind == "psi"]
    assert attempts.sum() <= sum(formed) <= sum(sizes)
    assert max(formed) <= block
    # a row buffer holds one block plus what is left of the rows it had,
    # fewer than the slots of the round that formed it (its next uniforms)
    for j, (kind, size) in enumerate(log):
        if kind == "rows":
            round_slots = next(s for k, s in log[j:] if k == "uniforms")
            assert size <= block + round_slots
    if chunk is not None:
        assert len(formed) > 1 and len(sizes) > 1


def _attempts_pmf(n, support):
    # step i reads Geometric((n - i) / n) proposals, independently of the others
    k = np.arange(support)
    pmf = np.zeros(support)
    pmf[0] = 1.0
    for i in range(n):
        p = (n - i) / n
        geom = np.where(k >= 1, p * (1.0 - p) ** np.maximum(k - 1, 0), 0.0)
        pmf = np.convolve(pmf, geom)[:support]
    return pmf


@pytest.mark.parametrize("n", [6, 8])
def test_chain_attempts_follow_the_exact_law(n):
    # the attempts of an exact chain are a sum of independent geometric
    # variables; the continuous KS critical value is conservative here
    count = 20_000
    _, attempts = joint.sample_joint_many(n, count, 2.0, RandomStream(3))
    support = 60 * n * n
    cdf = np.cumsum(_attempts_pmf(n, support))
    assert attempts.max() < support and cdf[-1] > 1.0 - 1e-12
    ecdf = np.cumsum(np.bincount(attempts, minlength=support)) / count
    assert math.sqrt(count) * np.abs(ecdf - cdf).max() < ks_critical(0.01)


def _once_projected(v, proj, b):
    # joint._unit_residuals with the second projection left out
    res = v - np.einsum("ak,akj->aj", proj, b)
    return res / np.sqrt(np.einsum("aj,aj->a", res, res))[:, None]


def _basis_error(unit_residuals, x, n):
    # max |B B^T - I| of the basis the chain builds from the points x, in order
    v = hermite.psi_rows(n, x)
    b = np.empty((1, x.size, n))
    for i in range(x.size):
        proj = v[i : i + 1] @ b[0, :i].T
        b[:, i] = unit_residuals(v[i : i + 1], proj, b[:, :i])
    return np.abs(b[0] @ b[0].T - np.eye(x.size)).max()


@pytest.mark.parametrize("seed", [0, 4])
def test_chain_basis_stays_orthonormal_on_clustered_points(seed):
    # psi rows of nearby points are nearly parallel, so one projection leaves
    # a residual far from orthogonal (0.999 and 0.24 at these seeds); the
    # second brings it back to rounding (4.4e-16 and 6.7e-16)
    x = np.random.default_rng(seed).uniform(-0.1, 0.1, 8)
    assert _basis_error(joint._unit_residuals, x, 64) < 1e-12
    assert _basis_error(_once_projected, x, 64) > 1e-12


def test_criterion_10_fails_an_unscaled_middle_coordinate(monkeypatch):
    # planted defect: at beta != 2 and odd n the block proposer leaves the
    # middle coordinate at base scale, which the bit-identity row sees at
    # (3, 1.0) and (5, 2.5) at the quick size
    real = joint._propose_block

    def unscaled_middle(n, beta, stream, size):
        coords, gaps = real(n, beta, stream, size)
        if n % 2 == 1:
            coords[:, (n - 1) // 2] /= math.sqrt(2.0 / beta)
        return coords, gaps

    monkeypatch.setattr(joint, "_propose_block", unscaled_middle)
    identity = verify.check_beta(quick=True)[0]
    assert "bit-identical" in identity.test and not identity.passed


def test_beta_one_gap_moment():
    values, _ = joint.sample_joint_many(2, 50_000, 1.0, RandomStream(16))
    w2 = (values[:, 1] - values[:, 0]) ** 2
    assert abs(w2.mean() - 4.0) < 3.0 * w2.std() / math.sqrt(w2.size)


def test_vandermonde_max_values():
    assert abs(joint.vandermonde_max_log(2)) < 1e-12
    assert abs(joint.vandermonde_max_log(3) - math.log(0.25)) < 1e-12
    assert joint.vandermonde_max(2) == pytest.approx(1.0, abs=1e-12)
    assert joint.vandermonde_max(3) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ParameterError):
        joint.vandermonde_max(1)


def test_vandermonde_max_monotone_decay():
    vals = [joint.vandermonde_max(n) for n in range(2, 10)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
