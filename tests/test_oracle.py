import math

import numpy as np
import pytest

from guegen import oracle
from guegen.errors import ParameterError
from guegen.rng import RandomStream


def test_diagonal_matrix():
    eig = oracle.spectra_many(np.diag([3.0, 1.0, 2.0]).astype(complex)[None])[0]
    assert np.allclose(eig, [1.0, 2.0, 3.0], atol=1e-12)
    eig = _matches_reference(np.diag([3.0, 1.0, 2.0, -7.0, 0.0]))
    assert np.allclose(eig, [-7.0, 0.0, 1.0, 2.0, 3.0], rtol=0.0, atol=1e-15)
    # the first midpoint is the eigenvalue 0: a zero pivot over a zero coupling
    eig = _matches_reference(np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(eig, [-1.0, 0.0, 1.0], rtol=0.0, atol=1e-15)


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


def test_matches_reference_eigensolver():
    st = RandomStream(3)
    for n, count in ((1, 20), (2, 50), (6, 50), (16, 50), (64, 4), (65, 4)):
        mats = oracle.sample_gue_matrices(n, count, st)
        spectra = oracle.spectra_many(mats)
        assert spectra.shape == (count, n)
        assert np.all(np.diff(spectra, axis=1) >= 0.0)
        assert np.max(np.abs(spectra - np.linalg.eigvalsh(mats))) < 1e-11


def _matches_reference(h):
    h = np.asarray(h, dtype=complex)
    eig = oracle.spectra_many(h[None])[0]
    assert np.max(np.abs(eig - np.linalg.eigvalsh(h))) < 1e-11
    return eig


def test_zero_and_identity_matrices_are_exact():
    assert np.array_equal(_matches_reference(np.zeros((5, 5))), np.zeros(5))
    assert np.array_equal(_matches_reference(np.eye(65)), np.ones(65))


def test_zero_householder_columns():
    # columns 0 and 3 below the diagonal are zero, column 3 still so after
    # the reflections that reduce the block in rows 1-3
    h = np.zeros((7, 7), dtype=complex)
    h[0, 0] = 2.0
    h[1:4, 1:4] = [[1.0, 2j, 0.5], [-2j, 3.0, 1.0], [0.5, 1.0, -1.0]]
    h[4:, 4:] = [[0.0, 1 + 1j, 2.0], [1 - 1j, 4.0, 0.0], [2.0, 0.0, 1.0]]
    _matches_reference(h)


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


def test_degenerate_spectra_converge():
    # a repeated eigenvalue next to two split from it by 1e-3
    h = np.diag([2.0, 2.0, 2.0, 5.0]).astype(complex)
    h[0, 1] = h[1, 0] = 1e-3
    eig = oracle.spectra_many(h[None])[0]
    assert np.allclose(eig, np.linalg.eigvalsh(h), atol=1e-12)
    # triple and double eigenvalues in a full complex matrix
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    eig = _matches_reference(q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]) @ q.conj().T)
    assert np.allclose(eig, [1.0, 1.0, 1.0, 2.0, 2.0, 3.0], rtol=0.0, atol=1e-13)
