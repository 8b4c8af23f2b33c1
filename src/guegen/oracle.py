"""Independent ground truth: entrywise GUE matrices and a Hermitian
eigensolver.

Used only by tests and verification suites to cross-validate the
samplers.  The eigensolver deliberately avoids the package's sampling
machinery and external eigensolvers alike.  Householder reflections
reduce each Hermitian matrix to a similar real symmetric tridiagonal
one, and bisection on Sturm counts finds all of its eigenvalues at
once, vectorized over spectra and eigenvalue indices, with a fixed
number of halvings: there is no tolerance and no convergence failure.

The matrices are in the unscaled convention that all samplers here
target: diagonal entries N(0,1) and off-diagonal real and imaginary parts
N(0, 1/2), spectrum on roughly [-2 sqrt(n), 2 sqrt(n)].  Only the CLI
rescales spectra, by 1/sqrt(n), to the intro convention (~ [-2, 2]).
"""

import math

import numpy as np

from .errors import ParameterError, whole

def sample_gue_matrices(n, count, stream):
    """``count`` GUE(n) matrices as a (count, n, n) complex array.

    Draw order: all diagonals, then real parts, then imaginary parts of
    the upper triangle.
    """
    n = whole("matrix size", n, 1)
    count = whole("count", count, 0)
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
    return h


def _tridiagonal(mats):
    """Diagonal and off-diagonal magnitudes of a real symmetric tridiagonal
    matrix similar to each Hermitian matrix of a (count, n, n) batch.

    Householder step k maps column k below the diagonal onto a multiple of
    its first unit vector, whose magnitude, the column's norm, is the
    off-diagonal entry once a diagonal unitary absorbs its phase.  The
    reflector is chosen against the leading entry's phase, so nothing
    cancels, and tau = 2 / |v|^2 is 0 on a zero column.
    """
    a = np.array(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ParameterError(f"need a (count, n, n) batch with n >= 1, got shape {a.shape}")
    count, n, _ = a.shape
    off = np.empty((count, n - 1))
    for k in range(n - 1):
        v = a[:, k + 1 :, k].copy()
        norm = np.linalg.norm(v, axis=1)
        off[:, k] = norm
        lead = np.abs(v[:, 0])
        v[:, 0] += np.exp(1j * np.angle(v[:, 0])) * norm
        tau = np.divide(1.0, norm * (norm + lead), out=np.zeros(count), where=norm > 0.0)
        # B <- (I - tau v v*) B (I - tau v v*) = B - v w* - w v*
        b = a[:, k + 1 :, k + 1 :]
        p = tau[:, None] * np.einsum("bij,bj->bi", b, v)
        w = p - (0.5 * tau * np.einsum("bi,bi->b", v.conj(), p))[:, None] * v
        b -= v[:, :, None] * w[:, None, :].conj() + w[:, :, None] * v[:, None, :].conj()
    return np.diagonal(a, axis1=1, axis2=2).real, off


# halvings of a Gershgorin bracket, at most six times the largest entry
# wide, down to about the rounding of that entry
_HALVINGS = 54


def _bisect(diag, off):
    """Sorted eigenvalues of real symmetric tridiagonal matrices, one per
    row of ``diag`` (count, n) and ``off`` (count, n - 1), by bisection on
    all n eigenvalue indices at once inside the Gershgorin bracket.  The
    Sturm count, the negative pivots of an LDL^T factorization of T - x I,
    is the number of eigenvalues below x (Golub and Van Loan, Matrix
    Computations, section 8.4); a pivot below ``pivmin`` in magnitude is
    replaced by -pivmin, so no division is by zero.
    """
    e = np.pad(off, ((0, 0), (1, 1)))  # no coupling beyond either end
    radius = e[:, :-1] + e[:, 1:]
    lo = np.min(diag - radius, axis=1, keepdims=True)
    hi = np.max(diag + radius, axis=1, keepdims=True)
    sq = e[:, :-1] ** 2  # sq[:, i] couples rows i - 1 and i
    pivmin = np.finfo(float).tiny * max(1.0, float(sq.max(initial=0.0)))
    index = np.arange(diag.shape[1])
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        below, q = 0, 1.0
        for i in index:
            q = (diag[:, i : i + 1] - mid) - sq[:, i : i + 1] / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            below = below + (q < 0.0)
        left = below > index  # eigenvalue `index` lies below mid
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    return 0.5 * (lo + hi)


def spectra_many(mats):
    """Sorted spectra for a (count, n, n) batch of Hermitian matrices."""
    return _bisect(*_tridiagonal(mats))
