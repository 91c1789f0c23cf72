"""The package namespace: one list of public names per module."""

import toricmaxent
from toricmaxent import errors, maxent, ratpoly, toric

MODULES = (errors, maxent, ratpoly, toric)

EXPORTED = {
    "ConstraintMatrix", "DEFAULT_TOL", "DistributionVector", "FitResult", "GREVLEX", "GroebnerBasis",
    "InfeasibleMomentsError", "LEX", "MaxEntProblem", "MembershipReport", "MonomialOrder", "PolySystem",
    "Polynomial", "RankDeficiencyError", "SampleData", "SizeLimitError", "UnsupportedStructureError",
    "buchberger", "direct_system", "dual_objective", "dual_system", "fit_algebraic", "fit_numeric",
    "integer_kernel_basis", "kl_divergence", "laurent_clear", "model_distribution", "moments",
    "multivariate_divide", "normal_form", "parse_poly", "poly_to_text", "s_polynomial", "sample_sums",
    "shannon_entropy", "solve_algebraic", "toric_ideal_generators", "toric_param", "verify_model_membership",
}


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(toricmaxent.__all__) == sorted(names)
    assert len(toricmaxent.__all__) == len(EXPORTED) == 39
    assert set(toricmaxent.__all__) == EXPORTED
    namespace = {}
    exec("from toricmaxent import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED


def test_each_exported_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(toricmaxent, name) is getattr(module, name), (module.__name__, name)
