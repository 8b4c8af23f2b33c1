import guegen

# the whole public surface; a name added to or removed from __all__ must be
# added to or removed from this list too
PUBLIC = {
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
    "mixture_density",
    "phi_sq_cdf",
    "phi_squared",
    "sample_gue_eigenvalues",
    "sample_joint_many",
    "sample_phi_sq_many",
    "vandermonde_max",
    "__version__",
}


def test_every_exported_name_resolves():
    # a stale entry passes a plain `import guegen` and fails only star imports
    for name in guegen.__all__:
        assert getattr(guegen, name, None) is not None, name
    assert len(set(guegen.__all__)) == len(guegen.__all__)


def test_exports_are_exactly_the_public_surface():
    assert set(guegen.__all__) == PUBLIC
    namespace = {}
    exec("from guegen import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
