import math

import numpy as np
import pytest

from guegen import oracle, verify
from guegen.errors import ConvergenceError, ParameterError
from guegen.rng import RandomStream


def test_diagonal_matrix():
    eig = oracle.spectra_many(np.diag([3.0, 1.0, 2.0]).astype(complex)[None])[0]
    assert np.allclose(eig, [1.0, 2.0, 3.0], atol=1e-12)
    eig = _spectrum(np.diag([3.0, 1.0, 2.0, -7.0, 0.0]))
    assert np.array_equal(eig, [-7.0, 0.0, 1.0, 2.0, 3.0])
    eig = _spectrum(np.diag([1.0, 0.0, -1.0]))
    assert np.array_equal(eig, [-1.0, 0.0, 1.0])


def test_two_by_two_closed_form():
    a, d, b, c = np.random.default_rng(1).normal(size=(4, 100))
    h = np.array([[a, b + 1j * c], [b - 1j * c, d]]).transpose(2, 0, 1)
    lam = oracle.spectra_many(h)
    disc = np.sqrt(((a - d) / 2.0) ** 2 + b * b + c * c)
    ref = np.stack([(a + d) / 2.0 - disc, (a + d) / 2.0 + disc], axis=1)
    rho = np.abs(ref).max(axis=1) + 1e-300
    assert np.all(np.max(np.abs(lam - ref), axis=1) < 1e-10 * rho)


def test_eigen_sum_matches_trace():
    st = RandomStream(2)
    h = oracle.sample_gue_matrices(8, 1, st)[0]
    eig = oracle.spectra_many(h[None])[0]
    assert abs(eig.sum() - np.trace(h).real) < 1e-10 * np.abs(eig).max() * 8


def test_spectra_are_sorted_rows():
    st = RandomStream(3)
    for n, count in ((1, 20), (2, 50), (6, 50), (16, 50), (64, 4), (65, 4)):
        spectra = oracle.spectra_many(oracle.sample_gue_matrices(n, count, st))
        assert spectra.shape == (count, n)
        assert np.all(np.diff(spectra, axis=1) >= 0.0)


def _spectrum(h):
    return oracle.spectra_many(np.asarray(h, dtype=complex)[None])[0]


def test_zero_and_identity_matrices_are_exact():
    assert np.array_equal(_spectrum(np.zeros((5, 5))), np.zeros(5))
    assert np.array_equal(_spectrum(np.eye(65)), np.ones(65))


def test_hermiticity_exact():
    st = RandomStream(4)
    mats = oracle.sample_gue_matrices(5, 200, st)
    assert np.array_equal(mats, np.conj(np.transpose(mats, (0, 2, 1))))
    h = oracle.sample_gue_matrices(3, 1, RandomStream(5))[0]
    assert np.array_equal(h, h.conj().T)
    assert np.all(h.diagonal().imag == 0.0)


def test_size_one_is_standard_normal_draw():
    st = RandomStream(6)
    h = oracle.sample_gue_matrices(1, 1, st)
    assert h.shape == (1, 1, 1)
    assert h[0, 0, 0] == RandomStream(6).standard_normals(1)[0]


def test_trace_variance():
    st = RandomStream(7)
    mats = oracle.sample_gue_matrices(4, 100_000, st)
    tr = np.einsum("bii->b", mats).real
    var = tr.var()
    assert abs(var - 4.0) < 3.0 * 4.0 * math.sqrt(2.0 / (tr.size - 1))


def test_guards():
    for shape in ((1, 0, 0), (2, 3), (2, 3, 4)):
        with pytest.raises(ParameterError):
            oracle.spectra_many(np.zeros(shape))
    with pytest.raises(TypeError):  # the stream is required
        oracle.sample_gue_matrices(3, 2)
    with pytest.raises(ParameterError):
        oracle.sample_gue_matrices(0, 5, RandomStream(1))
    with pytest.raises(ParameterError):
        oracle.sample_gue_matrices(3, -1, RandomStream(1))


def test_eigensolver_failure_is_a_package_error():
    # LAPACK does not converge on a NaN matrix; the caller sees a typed error
    mats = oracle.sample_gue_matrices(4, 3, RandomStream(8))
    mats[1, 0, 2] = mats[1, 2, 0] = np.nan
    with pytest.raises(ConvergenceError):
        oracle.spectra_many(mats)


def test_degenerate_spectra_converge():
    # a repeated eigenvalue next to two split from it by 1e-3
    h = np.diag([2.0, 2.0, 2.0, 5.0]).astype(complex)
    h[0, 1] = h[1, 0] = 1e-3
    eig = _spectrum(h)
    assert np.allclose(eig, [2.0 - 1e-3, 2.0, 2.0 + 1e-3, 5.0], rtol=0.0, atol=1e-12)
    # triple and double eigenvalues in a full complex matrix
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    eig = _spectrum(q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]) @ q.conj().T)
    assert np.allclose(eig, [1.0, 1.0, 1.0, 2.0, 2.0, 3.0], rtol=0.0, atol=1e-13)


def _triangle_failures():
    # criterion 9 at quick size: the KS rows that fail, all against the oracle
    rows = verify.check_joint_triangle(quick=True)
    failed = [r for r in rows if not r.passed]
    assert all("vs eigensolver" in r.test for r in failed)
    return failed


def test_criterion_9_fails_real_symmetric_matrices(monkeypatch):
    # planted defect: the oracle's matrices lose their imaginary parts (44 of
    # the 55 KS rows fail, the worst at about 9 times the critical value)
    real = oracle.sample_gue_matrices
    monkeypatch.setattr(
        oracle, "sample_gue_matrices", lambda n, count, st: real(n, count, st).real.astype(complex)
    )
    failed = _triangle_failures()
    assert len(failed) >= 30
    assert max(r.statistic / r.threshold for r in failed) > 5.0


def test_criterion_9_fails_spectra_scaled_by_five_percent(monkeypatch):
    # planted defect: every eigenvalue 1.05 times too large (24 of 55 rows
    # fail, the worst at about 2.7 times the critical value)
    real = oracle.spectra_many
    monkeypatch.setattr(oracle, "spectra_many", lambda mats: 1.05 * real(mats))
    failed = _triangle_failures()
    assert len(failed) >= 10
    assert max(r.statistic / r.threshold for r in failed) > 2.0
