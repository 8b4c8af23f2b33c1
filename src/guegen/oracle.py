"""Independent ground truth: entrywise GUE matrices and a small-n
Hermitian eigensolver.

Used only by tests and verification suites to cross-validate the
samplers.  The eigensolver deliberately avoids the package's sampling
machinery and external eigensolvers alike: a Hermitian matrix H = A + iB
embeds into the real symmetric 2n x 2n block matrix [[A, -B], [B, A]],
whose spectrum is that of H with every eigenvalue doubled, and a cyclic
Jacobi sweep diagonalizes it.  Taking every second value of the sorted
doubled spectrum recovers the n eigenvalues.

Conventions: ``unscaled`` draws diagonal entries N(0,1) and off-diagonal
real/imaginary parts N(0, 1/2), giving the spectrum supported on roughly
[-2 sqrt(n), 2 sqrt(n)] that all samplers in this package target;
``intro`` divides every entry by sqrt(n) (spectrum ~ [-2, 2]).
"""

import math

import numpy as np

from .errors import ConvergenceError, ParameterError

_MAX_JACOBI_SWEEPS = 60
_JACOBI_TOL = 1e-14
_MAX_EIG_N = 64

_CONVENTIONS = ("unscaled", "intro")


def _check_convention(convention):
    if convention not in _CONVENTIONS:
        raise ParameterError(
            f"convention must be one of {_CONVENTIONS}, got {convention!r}"
        )


def sample_gue_matrices(n, count, convention="unscaled", stream=None):
    """``count`` GUE(n) matrices as a (count, n, n) complex array.

    Draw order: all diagonals, then real parts, then imaginary parts of
    the upper triangle.
    """
    n = int(n)
    count = int(count)
    if n < 1:
        raise ParameterError(f"matrix size must be >= 1, got {n}")
    _check_convention(convention)
    m = n * (n - 1) // 2
    diag = stream.standard_normals(count * n).reshape(count, n)
    re = stream.standard_normals(count * m).reshape(count, m) if m else None
    im = stream.standard_normals(count * m).reshape(count, m) if m else None
    h = np.zeros((count, n, n), dtype=complex)
    rows, cols = np.triu_indices(n, 1)
    idx = np.arange(n)
    h[:, idx, idx] = diag
    if m:
        off = (re + 1j * im) / math.sqrt(2.0)
        h[:, rows, cols] = off
        h[:, cols, rows] = np.conj(off)
    if convention == "intro":
        h /= math.sqrt(n)
    return h


def _real_embedding(h):
    """[[A, -B], [B, A]] for H = A + iB; doubles every eigenvalue."""
    a = h.real
    b = h.imag
    top = np.concatenate([a, -b], axis=-1)
    bottom = np.concatenate([b, a], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def _jacobi_spectra(mats):
    """Eigenvalues of a batch of real symmetric matrices (B, m, m) by
    cyclic Jacobi rotations applied in lockstep across the batch."""
    a = np.array(mats, dtype=float)
    _, m, _ = a.shape
    if m == 1:
        return a[:, :, 0].copy()
    scale = np.sqrt(np.sum(a * a, axis=(1, 2))) + 1e-300
    idx = np.arange(m)
    for _ in range(_MAX_JACOBI_SWEEPS):
        sq = a * a
        sq[:, idx, idx] = 0.0  # avoids the cancellation of a trace subtraction
        offsq = np.sum(sq, axis=(1, 2))
        if np.all(np.sqrt(offsq) <= _JACOBI_TOL * scale):
            diag = np.diagonal(a, axis1=1, axis2=2).copy()
            diag.sort(axis=1)
            return diag
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[:, p, q]
                app = a[:, p, p]
                aqq = a[:, q, q]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    tau = (aqq - app) / (2.0 * apq)
                    # t = sign(tau)/(|tau| + sqrt(1+tau^2)); the copysign
                    # form gives the correct 45-degree rotation at tau = 0
                    t = 1.0 / (tau + np.copysign(np.sqrt(1.0 + tau * tau), tau))
                t = np.where(apq == 0.0, 0.0, t)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rowp = a[:, p, :].copy()
                rowq = a[:, q, :]
                a[:, p, :] = c[:, None] * rowp - s[:, None] * rowq
                a[:, q, :] = s[:, None] * rowp + c[:, None] * rowq
                colp = a[:, :, p].copy()
                colq = a[:, :, q]
                a[:, :, p] = c[:, None] * colp - s[:, None] * colq
                a[:, :, q] = s[:, None] * colp + c[:, None] * colq
                a[:, p, q] = 0.0
                a[:, q, p] = 0.0
    raise ConvergenceError(
        f"Jacobi sweep did not converge within {_MAX_JACOBI_SWEEPS} sweeps"
    )


def spectra_many(mats):
    """Sorted spectra for a (count, n, n) batch of Hermitian matrices."""
    mats = np.asarray(mats, dtype=complex)
    n = mats.shape[-1]
    if n > _MAX_EIG_N:
        raise ParameterError(f"eigensolver is guarded to n <= {_MAX_EIG_N}, got {n}")
    doubled = _jacobi_spectra(_real_embedding(mats))
    return doubled[:, ::2].copy()
