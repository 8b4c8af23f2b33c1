"""Independent ground truth: entrywise GUE matrices and their spectra.

Used by the verification suites, the tests and ``guegen oracle`` to
cross-validate the samplers: this is the paper's inexact route, a matrix
built entry by entry and handed to a standard eigensolver.  The spectra
come from LAPACK through ``np.linalg.eigvalsh``, so the oracle shares no
code with the package's Hermite and sampling machinery, and it must
stay that way: it imports nothing from the package but ``errors``
(``tests/test_package.py`` checks this).  A LAPACK failure, such as a
NaN entry, raises ConvergenceError.  Eigenvalues agree with any correct
LAPACK to rounding, but their last bits may differ between LAPACK
builds.

The matrices are in the unscaled convention that all samplers here
target: diagonal entries N(0,1) and off-diagonal real and imaginary parts
N(0, 1/2), spectrum on roughly [-2 sqrt(n), 2 sqrt(n)].  Only the CLI
rescales spectra, by 1/sqrt(n), to the intro convention (~ [-2, 2]).
"""

import math

import numpy as np

from .errors import ConvergenceError, ParameterError, whole


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


def spectra_many(mats):
    """Sorted spectra for a (count, n, n) batch of Hermitian matrices."""
    a = np.asarray(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ParameterError(f"need a (count, n, n) batch with n >= 1, got shape {a.shape}")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from None
