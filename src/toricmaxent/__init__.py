"""Exact algebra and maximum-entropy fitting for discrete models.

The package has three layers: :mod:`toricmaxent.ratpoly` is an exact sparse
polynomial engine over the rationals with monomial orders, multivariate
division and reduced Groebner bases; :mod:`toricmaxent.toric` builds toric
parametrizations and their vanishing ideals from integer constraint
matrices; :mod:`toricmaxent.maxent` fits maximum-entropy and
minimum-divergence models, numerically or by solving exact polynomial
systems.  :mod:`toricmaxent.cli` wraps it all for the command line.
"""

from .errors import (
    InfeasibleMomentsError,
    RankDeficiencyError,
    SizeLimitError,
    UnsupportedStructureError,
)
from .maxent import (
    DEFAULT_TOL,
    FitResult,
    MaxEntProblem,
    PolySystem,
    SampleData,
    direct_system,
    dual_objective,
    dual_system,
    fit_algebraic,
    fit_numeric,
    kl_divergence,
    model_distribution,
    moments,
    sample_sums,
    shannon_entropy,
    solve_algebraic,
)
from .ratpoly import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    MonomialOrder,
    Polynomial,
    buchberger,
    laurent_clear,
    multivariate_divide,
    normal_form,
    parse_poly,
    poly_to_text,
    s_polynomial,
)
from .toric import (
    ConstraintMatrix,
    DistributionVector,
    MembershipReport,
    integer_kernel_basis,
    toric_ideal_generators,
    toric_param,
    verify_model_membership,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintMatrix",
    "DEFAULT_TOL",
    "DistributionVector",
    "FitResult",
    "GREVLEX",
    "GroebnerBasis",
    "InfeasibleMomentsError",
    "LEX",
    "MaxEntProblem",
    "MembershipReport",
    "MonomialOrder",
    "PolySystem",
    "Polynomial",
    "RankDeficiencyError",
    "SampleData",
    "SizeLimitError",
    "UnsupportedStructureError",
    "buchberger",
    "direct_system",
    "dual_objective",
    "dual_system",
    "fit_algebraic",
    "fit_numeric",
    "integer_kernel_basis",
    "kl_divergence",
    "laurent_clear",
    "model_distribution",
    "moments",
    "multivariate_divide",
    "normal_form",
    "parse_poly",
    "poly_to_text",
    "s_polynomial",
    "sample_sums",
    "shannon_entropy",
    "solve_algebraic",
    "toric_ideal_generators",
    "toric_param",
    "verify_model_membership",
]
