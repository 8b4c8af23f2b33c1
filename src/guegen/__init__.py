"""Exact random variate generation for GUE eigenvalues.

A sublinear-expected-time sampler for one uniformly chosen eigenvalue of
an n x n Gaussian Unitary Ensemble matrix (by squeeze-accelerated
rejection from squared Hermite function densities), a rejection sampler
for the full ordered spectrum, and the verification machinery backing
both.
"""

from .dominator import DominatorSpec, make_spec
from .errors import (
    BudgetError,
    ConvergenceError,
    GuegenError,
    OracleError,
    ParameterError,
)
from .joint import sample_joint_many, vandermonde_max
from .rng import RandomStream
from .samplers import (
    SamplerStats,
    benchmark,
    sample_gue_eigenvalues,
    sample_phi_sq_many,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConvergenceError",
    "DominatorSpec",
    "GuegenError",
    "OracleError",
    "ParameterError",
    "RandomStream",
    "SamplerStats",
    "benchmark",
    "make_spec",
    "sample_gue_eigenvalues",
    "sample_joint_many",
    "sample_phi_sq_many",
    "vandermonde_max",
    "__version__",
]
