import ast
import pathlib

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


def _package_imports():
    """Module name -> the package modules it imports relatively, anywhere in
    its source (``from . import x`` and ``from .x import y``)."""
    graph = {}
    for path in pathlib.Path(guegen.__file__).parent.glob("*.py"):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
        graph[path.stem] = targets
    return graph


def test_oracle_is_independent_of_the_samplers():
    # the ground truth must not share code with what it checks
    assert _package_imports()["oracle"] == {"errors"}


def test_package_imports_are_acyclic():
    graph = _package_imports()
    assert {"vanveen", "dominator", "hermite", "verify"} <= set(graph)
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module) :] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        path.append(module)
        for target in sorted(graph.get(module, ())):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
