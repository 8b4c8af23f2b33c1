import math

import numpy as np
import pytest

from guegen import oracle
from guegen.errors import ParameterError
from guegen.rng import RandomStream
from guegen.stats import ks_two_sample


def test_diagonal_matrix():
    eig = oracle.spectra_many(np.diag([3.0, 1.0, 2.0]).astype(complex)[None])[0]
    assert np.allclose(eig, [1.0, 2.0, 3.0], atol=1e-12)


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
    h = oracle.sample_gue_matrices(8, 1, "unscaled", st)[0]
    eig = oracle.spectra_many(h[None])[0]
    assert abs(eig.sum() - np.trace(h).real) < 1e-10 * np.abs(eig).max() * 8


def test_matches_reference_eigensolver():
    st = RandomStream(3)
    mats = oracle.sample_gue_matrices(6, 50, "unscaled", st)
    spectra = oracle.spectra_many(mats)
    ref = np.linalg.eigvalsh(mats)
    assert np.max(np.abs(spectra - ref)) < 1e-9


def test_hermiticity_exact():
    st = RandomStream(4)
    mats = oracle.sample_gue_matrices(5, 200, "unscaled", st)
    assert np.array_equal(mats, np.conj(np.transpose(mats, (0, 2, 1))))
    h = oracle.sample_gue_matrices(3, 1, "unscaled", RandomStream(5))[0]
    assert np.array_equal(h, h.conj().T)
    assert np.all(h.diagonal().imag == 0.0)


def test_size_one_is_standard_normal_draw():
    st = RandomStream(6)
    h = oracle.sample_gue_matrices(1, 1, "unscaled", st)
    assert h.shape == (1, 1, 1)
    assert h[0, 0, 0] == RandomStream(6).standard_normals(1)[0]


def test_trace_variance():
    st = RandomStream(7)
    mats = oracle.sample_gue_matrices(4, 100_000, "unscaled", st)
    tr = np.einsum("bii->b", mats).real
    var = tr.var()
    assert abs(var - 4.0) < 3.0 * 4.0 * math.sqrt(2.0 / (tr.size - 1))


def test_intro_convention_is_exact_rescaling():
    a = oracle.sample_gue_matrices(4, 50, "unscaled", RandomStream(8))
    b = oracle.sample_gue_matrices(4, 50, "intro", RandomStream(8))
    assert np.allclose(b, a / 2.0, rtol=0.0, atol=0.0)


def test_intro_convention_spectra_distribution():
    a = oracle.spectra_many(oracle.sample_gue_matrices(3, 10_000, "unscaled", RandomStream(9)))
    b = oracle.spectra_many(oracle.sample_gue_matrices(3, 10_000, "intro", RandomStream(10)))
    for pos in range(3):
        assert ks_two_sample(a[:, pos] / math.sqrt(3.0), b[:, pos]).passes(0.01)


def test_guards():
    with pytest.raises(ParameterError):
        oracle.spectra_many(np.eye(65, dtype=complex)[None])
    with pytest.raises(ParameterError):
        oracle.sample_gue_matrices(3, 5, "other", RandomStream(1))
    with pytest.raises(ParameterError):
        oracle.sample_gue_matrices(0, 5, "unscaled", RandomStream(1))


def test_degenerate_spectra_converge():
    # repeated eigenvalues exercise the 45-degree rotation branch
    h = np.diag([2.0, 2.0, 2.0, 5.0]).astype(complex)
    h[0, 1] = h[1, 0] = 1e-3
    eig = oracle.spectra_many(h[None])[0]
    assert np.allclose(eig, np.linalg.eigvalsh(h), atol=1e-12)
