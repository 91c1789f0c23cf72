"""Numeric fitting, polynomial system emission, and the exact solving path."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmaxent.errors import (
    InfeasibleMomentsError,
    RankDeficiencyError,
    SizeLimitError,
    UnsupportedStructureError,
)
from toricmaxent.maxent import (
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
from toricmaxent.ratpoly import Polynomial, parse_poly, poly_to_text
from toricmaxent.toric import ConstraintMatrix, toric_param, verify_model_membership

DICE = ConstraintMatrix([[1, 2, 3, 4, 5, 6]])
QUAD = ConstraintMatrix([[0, 1, 2]])


def t1(text, laurent=False):
    return parse_poly(text, ("t1",), laurent=laurent)


# --- entropy and divergence ---


def test_entropy_of_uniform_is_log_m():
    assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4))


def test_entropy_handles_zero_mass():
    assert shannon_entropy([1.0, 0.0]) == 0.0


def test_entropy_exact_rationals_accepted():
    assert shannon_entropy([Fraction(1, 2), Fraction(1, 2)]) == pytest.approx(math.log(2))


def test_kl_zero_iff_equal():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl_divergence([0.6, 0.4], [0.5, 0.5]) > 0


def test_kl_nonnegative_against_normalized_reference():
    rng = random.Random(1)
    for _ in range(50):
        raw = [rng.uniform(0.05, 1.0) for _ in range(4)]
        p = [v / sum(raw) for v in raw]
        raw2 = [rng.uniform(0.05, 1.0) for _ in range(4)]
        h = [v / sum(raw2) for v in raw2]
        assert kl_divergence(p, h) >= -1e-15


# --- model distribution and moments ---


def test_model_distribution_at_zero_is_prior_normalized():
    p, log_z = model_distribution(DICE, [0.0])
    assert p.as_floats() == pytest.approx([1 / 6] * 6)
    assert log_z == pytest.approx(math.log(6))


def test_model_distribution_with_prior():
    p, log_z = model_distribution(ConstraintMatrix([[1, 2]]), [0.0], prior=[1, 3])
    assert p.as_floats() == pytest.approx([0.25, 0.75])
    assert log_z == pytest.approx(math.log(4))


def test_model_distribution_is_overflow_safe():
    p, log_z = model_distribution(ConstraintMatrix([[0, 1]]), [-800.0])
    assert p.as_floats() == pytest.approx([0.0, 1.0])
    assert math.isfinite(log_z)


def test_model_distribution_matches_monomial_parametrization():
    rng = random.Random(8)
    matrix = ConstraintMatrix([[1, 1, 0, 2], [0, 1, 2, 1]])
    for _ in range(25):
        xi = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        p, _ = model_distribution(matrix, xi)
        q = toric_param(matrix, [math.exp(-v) for v in xi])
        assert p.as_floats() == pytest.approx(q.as_floats(), abs=1e-13)


def test_moments_of_uniform_dice():
    assert moments(DICE, [Fraction(1, 6)] * 6)[0] == pytest.approx(3.5)


def test_sample_sums_counts_and_checks_range():
    data = sample_sums([1, 2, 1, 2], ConstraintMatrix([[1, 2]]))
    assert data == SampleData((1, 2, 1, 2), 4, (6,))
    with pytest.raises(ValueError):
        sample_sums([], DICE)
    with pytest.raises(ValueError):
        sample_sums([0], DICE)
    with pytest.raises(ValueError):
        sample_sums([7], DICE)


# --- problem construction ---


def test_problem_requires_exactly_one_mode():
    with pytest.raises(ValueError):
        MaxEntProblem(DICE)
    with pytest.raises(ValueError):
        MaxEntProblem(DICE, targets=(Fraction(4),), samples=SampleData((1,), 1, (1,)))


def test_problem_validates_shapes():
    with pytest.raises(ValueError):
        MaxEntProblem.from_targets(DICE, [Fraction(4), Fraction(4)])
    with pytest.raises(ValueError):
        MaxEntProblem.from_targets(DICE, [Fraction(4)], prior=[1, 1])
    with pytest.raises(ValueError):
        MaxEntProblem.from_targets(DICE, [Fraction(4)], prior=[1, 1, 1, 1, 1, 0])


PRIOR_ENTRY_POINTS = {
    "MaxEntProblem": lambda h: MaxEntProblem.from_targets(QUAD, [1], prior=h),
    "direct_system": lambda h: direct_system(QUAD, [1], prior=h),
    "dual_system": lambda h: dual_system(QUAD, [1], prior=h),
    "toric_param": lambda h: toric_param(QUAD, [Fraction(1, 2)], h),
    "model_distribution": lambda h: model_distribution(QUAD, [0.0], prior=h),
    "verify_model_membership": lambda h: verify_model_membership([0.25, 0.5, 0.25], QUAD, prior=h),
}


@pytest.mark.parametrize("entry", list(PRIOR_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_every_prior_entry_point_rejects_a_non_finite_weight(entry, bad):
    # one guard serves every entry point, so each gives the same diagnosis
    for h in ([bad, 1, 1], [1, 1.0, bad]):
        with pytest.raises(ValueError) as info:
            PRIOR_ENTRY_POINTS[entry](h)
        assert str(info.value) == "prior weights must be strictly positive and finite"
    with pytest.raises(ValueError) as info:
        PRIOR_ENTRY_POINTS[entry]([1, 1])
    assert str(info.value) == "prior length does not match alphabet size"


def test_exact_prior_weights_beyond_float_range_are_accepted():
    huge = 10**400  # compared with infinity, never converted to a float
    assert MaxEntProblem.from_targets(QUAD, [1], prior=[huge, 1, 1]).prior == (huge, 1, 1)
    (equation,) = direct_system(QUAD, [1], prior=[huge, 1, 1]).equations
    assert equation == t1(f"t1^2 - {huge}")


def test_sample_problems_expose_mean_targets():
    problem = MaxEntProblem.from_samples(ConstraintMatrix([[1, 2]]), [1, 1, 1, 2])
    assert problem.target_values() == (Fraction(5, 4),)


# --- emitted polynomial systems ---


def test_direct_system_integer_target():
    system = direct_system(QUAD, [Fraction(1)])
    assert [poly_to_text(e) for e in system.equations] == ["t1^2 - 1"]
    assert system.provenance == "direct"
    assert system.gradient is None and system.objective is None


def test_direct_system_rational_target():
    system = direct_system(QUAD, [Fraction(1, 2)])
    (eq,) = system.equations
    assert eq == t1("3/2*t1^2 + 1/2*t1 - 1/2")
    assert eq * 2 == t1("3*t1^2 + t1 - 1")


def test_direct_system_with_prior_weights():
    system = direct_system(ConstraintMatrix([[0, 1]]), [Fraction(1, 3)], prior=[2, 1])
    (eq,) = system.equations
    # stationarity of a weighted two-cell model: 2*(0-1/3) + 1*(1-1/3)*theta
    assert eq == t1("2/3*t1 - 2/3")


def test_dual_system_integer_targets():
    system = dual_system(ConstraintMatrix([[0, 1, 2, 3]]), [Fraction(2)])
    assert poly_to_text(system.objective) == "t1^2 + t1 + 1 + t1^-1"
    assert [poly_to_text(g) for g in system.gradient] == ["2*t1 + 1 - t1^-2"]
    assert [poly_to_text(e) for e in system.equations] == ["2*t1^3 + t1^2 - 1"]
    assert system.provenance == "dual"


def test_dual_system_small_worked_case():
    system = dual_system(ConstraintMatrix([[0, 1]]), [Fraction(1)])
    assert poly_to_text(system.objective) == "t1 + 1"


def test_dual_system_rejects_fractional_targets():
    with pytest.raises(ValueError, match="empirical"):
        dual_system(QUAD, [Fraction(1, 2)])


def test_dual_system_empirical():
    data = sample_sums([1, 2, 1, 2], ConstraintMatrix([[1, 2]]))
    system = dual_system(ConstraintMatrix([[1, 2]]), data)
    assert poly_to_text(system.objective) == "t1^2 + t1^-2"
    assert [poly_to_text(e) for e in system.equations] == ["2*t1^4 - 2"]
    assert system.provenance == "dual-empirical"


def test_dual_objective_value():
    system = dual_system(QUAD, [Fraction(1)])
    assert dual_objective(system, [1.0]) == pytest.approx(3.0)
    assert dual_objective(system, [2.0]) == pytest.approx(2.0 + 1.0 + 0.5)


def test_dual_gradient_matches_finite_differences():
    system = dual_system(ConstraintMatrix([[0, 1, 2, 3]]), [Fraction(2)])
    rng = random.Random(17)
    for _ in range(20):
        theta = rng.uniform(0.3, 2.5)
        eps = 1e-6
        fd = (dual_objective(system, [theta + eps]) - dual_objective(system, [theta - eps])) / (2 * eps)
        sym = system.gradient[0].evaluate([theta])
        assert sym == pytest.approx(fd, rel=1e-6)


# --- exact solving ---


def test_solve_direct_integer_target_exactly():
    sols = solve_algebraic(direct_system(QUAD, [Fraction(1)]))
    assert sols == [(Fraction(1),)]


def test_solve_quadratic_target_matches_closed_form():
    sols = solve_algebraic(direct_system(QUAD, [Fraction(1, 2)]))
    (root,) = sols[0]
    assert len(sols) == 1
    assert float(root) == pytest.approx((-1 + math.sqrt(13)) / 6, abs=1e-12)


def test_solve_two_variable_system_exactly():
    matrix = ConstraintMatrix([[1, 1, 0], [0, 1, 2]])
    system = direct_system(matrix, [Fraction(1, 2), Fraction(5, 4)])
    assert solve_algebraic(system) == [(Fraction(1, 2), Fraction(1))]
    p = toric_param(matrix, [Fraction(1, 2), Fraction(1)])
    assert list(p) == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]


def test_solve_returns_all_positive_roots_sorted():
    system = PolySystem(equations=(t1("t1^2 - 3*t1 + 2"),), provenance="direct")
    assert solve_algebraic(system) == [(Fraction(1),), (Fraction(2),)]


def test_solve_unsatisfiable_target_has_no_roots():
    assert solve_algebraic(direct_system(QUAD, [Fraction(3)])) == []


def test_solve_empirical_dual_exactly():
    data = sample_sums([1, 2, 1, 2], ConstraintMatrix([[1, 2]]))
    sols = solve_algebraic(dual_system(ConstraintMatrix([[1, 2]]), data))
    assert sols == [(Fraction(1),)]


def test_solve_dual_root_is_exp_of_fitted_exponent():
    matrix = ConstraintMatrix([[0, 1, 2, 3]])
    (root,), *_ = solve_algebraic(dual_system(matrix, [Fraction(2)]))
    fit = fit_numeric(MaxEntProblem.from_targets(matrix, [Fraction(2)]))
    assert float(root) == pytest.approx(math.exp(fit.xi[0]), abs=1e-9)


def test_solve_variable_count_limit():
    vars = ("a", "b", "c", "d")
    eqs = tuple(Polynomial.variable(vars, v) - 1 for v in vars)
    with pytest.raises(SizeLimitError):
        solve_algebraic(PolySystem(equations=eqs, provenance="direct"))


def test_solve_degree_limit():
    system = PolySystem(equations=(t1("t1^9 - 1"),), provenance="direct")
    with pytest.raises(SizeLimitError):
        solve_algebraic(system)


def test_solve_drops_roots_whose_back_substituted_value_is_not_positive():
    vars = ("t1", "t2")
    # t2 in {1, 2} gives t1 = t2 - 3/2 in {-1/2, 1/2}: only t2 = 2 survives
    eqs = (parse_poly("t1 - t2 + 3/2", vars), parse_poly("t2^2 - 3*t2 + 2", vars))
    assert solve_algebraic(PolySystem(equations=eqs, provenance="direct")) == [(Fraction(1, 2), Fraction(2))]
    eqs = (parse_poly("t1 + t2 - 1", vars), parse_poly("t2 - 2", vars))
    assert solve_algebraic(PolySystem(equations=eqs, provenance="direct")) == []


def test_solve_rejects_nonlinear_back_substitution():
    vars = ("t1", "t2")
    eqs = (parse_poly("t1^2 - t2", vars), parse_poly("t2^3 - 1", vars))
    with pytest.raises(UnsupportedStructureError):
        solve_algebraic(PolySystem(equations=eqs, provenance="direct"))


# --- numeric fitting ---


def dice_problem(target):
    return MaxEntProblem.from_targets(DICE, [Fraction(target)])


def test_newton_fits_loaded_dice():
    fit = fit_numeric(dice_problem(Fraction(9, 2)), solver="newton")
    assert fit.solver == "newton"
    assert fit.residual <= 1e-10
    assert fit.iterations > 0
    assert fit.xi_empirical is None
    assert moments(DICE, list(fit.p))[0] == pytest.approx(4.5, abs=1e-9)


def test_gis_fits_loaded_dice():
    fit = fit_numeric(dice_problem(Fraction(9, 2)), solver="gis")
    assert fit.solver == "gis"
    assert fit.residual <= 1e-10
    assert moments(DICE, list(fit.p))[0] == pytest.approx(4.5, abs=1e-9)


def test_solvers_agree_on_loaded_dice():
    a = fit_numeric(dice_problem(Fraction(9, 2)), solver="newton")
    b = fit_numeric(dice_problem(Fraction(9, 2)), solver="gis")
    assert a.xi[0] == pytest.approx(b.xi[0], abs=1e-8)


def test_newton_matches_exact_root_oracle():
    # stationarity for the loaded-dice mean clears to an integer quintic whose
    # positive root the exact solver isolates independently of the float path
    from toricmaxent.maxent import _positive_real_roots

    coeffs = [Fraction(c) for c in (-7, -5, -3, -1, 1, 3)]
    (root,) = _positive_real_roots(coeffs)
    fit = fit_numeric(dice_problem(Fraction(9, 2)), solver="newton")
    assert fit.xi[0] == pytest.approx(-math.log(float(root)), abs=1e-9)


def test_gis_handles_negative_feature_values():
    matrix = ConstraintMatrix([[-1, 0, 1]])
    fit = fit_numeric(MaxEntProblem.from_targets(matrix, [Fraction(0)]), solver="gis")
    assert fit.p.as_floats() == pytest.approx([1 / 3] * 3, abs=1e-8)


def test_gis_constant_rows():
    # a constant row that meets its target leaves the prior; one that misses it is infeasible
    fit = fit_numeric(MaxEntProblem.from_targets(ConstraintMatrix([[2, 2, 2]]), [2], prior=[1, 2, 1]), solver="gis")
    assert (fit.xi, fit.iterations) == ((0.0,), 0)
    assert fit.p.as_floats() == pytest.approx([0.25, 0.5, 0.25])
    for rows, targets in (([[2, 2, 2]], [3]), ([[0, 1, 2], [2, 2, 2]], [1, 3])):
        problem = MaxEntProblem.from_targets(ConstraintMatrix(rows), targets)
        with pytest.raises(InfeasibleMomentsError, match="^constant constraint row conflicts with its target$"):
            fit_numeric(problem, solver="gis")


def test_two_constraint_fit_reaches_exact_solution():
    matrix = ConstraintMatrix([[1, 1, 0], [0, 1, 2]])
    problem = MaxEntProblem.from_targets(matrix, [Fraction(1, 2), Fraction(5, 4)])
    for solver in ("newton", "gis"):
        fit = fit_numeric(problem, solver=solver)
        assert fit.p.as_floats() == pytest.approx([0.25, 0.25, 0.5], abs=1e-8)


def test_fit_with_matching_prior_is_the_prior():
    matrix = ConstraintMatrix([[1, 2, 3]])
    problem = MaxEntProblem.from_targets(matrix, [Fraction(7, 3)], prior=[1, 2, 3])
    fit = fit_numeric(problem)
    assert fit.xi[0] == pytest.approx(0.0, abs=1e-10)
    assert fit.p.as_floats() == pytest.approx([1 / 6, 2 / 6, 3 / 6], abs=1e-10)


def test_sample_fit_scales_empirical_exponents():
    problem = MaxEntProblem.from_samples(ConstraintMatrix([[1, 2]]), [1, 1, 1, 2])
    fit = fit_numeric(problem)
    assert fit.p.as_floats() == pytest.approx([0.75, 0.25], abs=1e-9)
    assert fit.xi[0] == pytest.approx(math.log(3), abs=1e-9)
    assert fit.xi_empirical[0] == pytest.approx(fit.xi[0] / 4)


def test_fitted_point_zeroes_the_emitted_systems():
    # the numeric fit and the emitted polynomial systems describe the same
    # stationarity conditions, so each side should vanish at the other's answer
    fit = fit_numeric(dice_problem(Fraction(4)), solver="newton")
    primal = [math.exp(-x) for x in fit.xi]
    for eq in direct_system(DICE, [Fraction(4)]).equations:
        assert abs(eq.evaluate(primal)) <= 1e-8
    dual = [math.exp(x) for x in fit.xi]
    for eq in dual_system(DICE, [Fraction(4)]).equations:
        assert abs(eq.evaluate(dual)) <= 1e-8


def test_sample_fit_matches_rescaled_target_fit():
    observations = [1, 2, 2, 3, 3, 3, 5, 6]
    data = sample_sums(observations, DICE)
    from_counts = fit_numeric(MaxEntProblem.from_samples(DICE, observations))
    averaged = [Fraction(s, data.count) for s in data.sums]
    from_targets = fit_numeric(MaxEntProblem.from_targets(DICE, averaged))
    for a, b in zip(from_counts.p, from_targets.p):
        assert a == pytest.approx(b, abs=1e-9)


def test_unknown_solver_rejected():
    with pytest.raises(ValueError):
        fit_numeric(dice_problem(Fraction(9, 2)), solver="annealing")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_float_target_is_an_input_error(bad):
    with pytest.raises(ValueError, match="targets must be finite"):
        MaxEntProblem.from_targets(QUAD, [bad])
    with pytest.raises(ValueError, match="targets must be finite"):
        MaxEntProblem.from_targets(ConstraintMatrix([[0, 1, 2], [1, 0, 0]]), [1.0, bad])


def test_exact_targets_of_any_size_are_accepted():
    huge = 10**400  # beyond float range; only the float conversion of a numeric fit rejects it
    assert MaxEntProblem.from_targets(QUAD, [huge]).targets == (huge,)
    assert MaxEntProblem.from_targets(QUAD, [Fraction(huge, 3)]).targets == (Fraction(huge, 3),)


def test_infeasible_target_raises_for_both_solvers():
    for solver in ("newton", "gis"):
        with pytest.raises(InfeasibleMomentsError):
            fit_numeric(dice_problem(Fraction(13, 2)), solver=solver)


def test_boundary_target_diverges_under_gis():
    with pytest.raises(InfeasibleMomentsError):
        fit_numeric(dice_problem(Fraction(6)), solver="gis")
    # at the lower vertex the shifted target is 0, which GIS rejects before iterating
    with pytest.raises(InfeasibleMomentsError, match="^target on or outside the moment polytope$"):
        fit_numeric(dice_problem(Fraction(1)), solver="gis")


def test_boundary_target_newton_approaches_the_vertex():
    fit = fit_numeric(dice_problem(Fraction(6)), solver="newton")
    assert moments(DICE, list(fit.p))[0] == pytest.approx(6.0, abs=1e-8)


@pytest.mark.parametrize("values, target", [([0, 1, 2, 3], "1"), ([0, 1, 2, 3, 4], "1.34")])
def test_newton_converges_when_the_line_search_test_is_below_float_resolution(values, target):
    matrix = ConstraintMatrix([values])
    fit = fit_numeric(MaxEntProblem.from_targets(matrix, [Fraction(target)]), solver="newton")
    assert fit.residual <= 1e-10
    assert fit.iterations < 10


def test_exhausted_iteration_budget_raises():
    for solver, budget in (("gis", 2), ("newton", 1)):
        with pytest.raises(InfeasibleMomentsError):
            fit_numeric(dice_problem(Fraction(9, 2)), solver=solver, max_iter=budget)


@pytest.mark.parametrize("solver", ["newton", "gis"])
@pytest.mark.parametrize(
    "kwargs",
    [{"max_iter": 0}, {"max_iter": -1}, {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}],
    ids=["max_iter=0", "max_iter=-1", "tol=nan", "tol=inf", "tol=0"],
)
def test_fit_numeric_rejects_invalid_budget(solver, kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        fit_numeric(dice_problem(Fraction(4)), solver=solver, **kwargs)


@pytest.mark.parametrize("solver, cap", [("newton", "NEWTON_MAX_ITER"), ("gis", "GIS_MAX_ITER")])
def test_max_iter_none_takes_the_solver_default_cap(monkeypatch, solver, cap):
    from toricmaxent import maxent

    monkeypatch.setattr(maxent, cap, 1)
    with pytest.raises(InfeasibleMomentsError, match="did not converge in 1 iterations"):
        fit_numeric(dice_problem(Fraction(4)), solver=solver, max_iter=None)


def test_dependent_constraints_raise_rank_error():
    matrix = ConstraintMatrix([[1, 2], [1, 2]])
    problem = MaxEntProblem.from_targets(matrix, [Fraction(5, 4), Fraction(5, 4)])
    with pytest.raises(RankDeficiencyError):
        fit_numeric(problem, solver="newton")


def test_fitted_entropy_dominates_feasible_competitors():
    import numpy as np

    fit = fit_numeric(dice_problem(Fraction(9, 2)), solver="newton", tol=1e-12)
    best = shannon_entropy(list(fit.p))
    p_star = np.array(fit.p.as_floats())
    # perturbations inside the null space of [ones; values] keep both the
    # normalization and the mean, so every sample stays feasible
    span = np.vstack([np.ones(6), np.arange(1.0, 7.0)])
    null = np.linalg.svd(span)[2][2:].T
    rng = np.random.default_rng(23)
    for _ in range(200):
        step = null @ rng.uniform(-0.05, 0.05, size=null.shape[1])
        q = p_star + step
        while q.min() <= 0:
            step *= 0.5
            q = p_star + step
        assert moments(DICE, list(q))[0] == pytest.approx(4.5, abs=1e-12)
        assert shannon_entropy(list(q)) <= best + 1e-9


# --- exact fitting front door ---


def test_fit_algebraic_matches_numeric():
    problem = MaxEntProblem.from_targets(QUAD, [Fraction(1, 2)])
    exact = fit_algebraic(problem)
    numeric = fit_numeric(problem)
    assert exact.solver == "groebner"
    assert exact.iterations == 0
    assert exact.xi[0] == pytest.approx(numeric.xi[0], abs=1e-9)
    assert exact.p.as_floats() == pytest.approx(numeric.p.as_floats(), abs=1e-9)


def test_fit_algebraic_infeasible():
    with pytest.raises(InfeasibleMomentsError):
        fit_algebraic(MaxEntProblem.from_targets(QUAD, [Fraction(3)]))


# --- root isolation against the rational-arithmetic reference ---
#
# The reference below is the Fraction implementation that integer root
# isolation replaced: Euclid over Q, Sturm chain of remainders, bisection
# on Fraction endpoints.  Scaling every polynomial by a positive factor
# keeps every sign it tests, so both must return the same roots exactly.


def _ref_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _ref_eval(c, x):
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def _ref_derivative(c):
    return [i * c[i] for i in range(1, len(c))]


def _ref_divmod(a, b):
    r = _ref_trim(list(a))
    db, lead = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(r) - db, 0)
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        factor = r[-1] / lead
        q[shift] = factor
        for i in range(db + 1):
            r[shift + i] -= factor * b[i]
        r.pop()
        _ref_trim(r)
    return _ref_trim(q), r


def _ref_gcd(a, b):
    a, b = _ref_trim(list(a)), _ref_trim(list(b))
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [v / lead for v in a]
    return a


def _ref_sturm_chain(c):
    chain = [_ref_trim(list(c)), _ref_trim(_ref_derivative(c))]
    while chain[-1]:
        chain.append(_ref_trim([-v for v in _ref_divmod(chain[-2], chain[-1])[1]]))
    chain.pop()
    return chain


def _ref_sign_changes(chain, x):
    signs = []
    for poly in chain:
        v = _ref_eval(poly, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_simplest_between(lo, hi):
    whole = lo.numerator // lo.denominator
    if whole == lo:
        return lo
    if whole + 1 <= hi:
        return Fraction(whole + 1)
    tail = _ref_simplest_between(1 / (hi - whole), 1 / (lo - whole))
    return whole + 1 / tail


def reference_positive_real_roots(coeffs):
    width = Fraction(1, 10**12)
    c = _ref_trim([Fraction(v) for v in coeffs])
    if not c:
        raise ValueError("zero polynomial has every point as a root")
    while c[0] == 0:
        c.pop(0)
    if len(c) == 1:
        return []
    square_free = c
    gcd = _ref_gcd(c, _ref_derivative(c))
    if len(gcd) > 1:
        square_free = _ref_divmod(c, gcd)[0]

    bound = Fraction(1) + max(abs(v) for v in square_free[:-1]) / abs(square_free[-1])
    hi = bound + 1
    while _ref_eval(square_free, hi) == 0:
        hi += 1
    chain = _ref_sturm_chain(square_free)

    def count(lo, hi):
        return _ref_sign_changes(chain, lo) - _ref_sign_changes(chain, hi)

    def split_point(lo, hi):
        mid = (lo + hi) / 2
        step = (hi - lo) / 4
        while _ref_eval(square_free, mid) == 0:
            mid += step
            step /= 2
        return mid

    isolated = []
    stack = [(Fraction(0), hi, count(Fraction(0), hi))]
    while stack:
        lo, hi_, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            isolated.append((lo, hi_))
            continue
        mid = split_point(lo, hi_)
        left = count(lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi_, k - left))

    roots = []
    for lo, hi_ in isolated:
        lo_sign = 1 if _ref_eval(square_free, lo) > 0 else -1
        exact = None
        while hi_ - lo > width:
            mid = (lo + hi_) / 2
            value = _ref_eval(square_free, mid)
            if value == 0:
                exact = mid
                break
            if (1 if value > 0 else -1) == lo_sign:
                lo = mid
            else:
                hi_ = mid
        if exact is None and lo > 0:
            candidate = _ref_simplest_between(lo, hi_)
            if _ref_eval(square_free, candidate) == 0:
                exact = candidate
        roots.append(exact if exact is not None else (lo + hi_) / 2)
    roots.sort()
    return roots


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _product(factors, scale):
    """``scale`` times the product of the polynomials (coefficients low to high)."""
    poly = [scale]
    for factor in factors:
        poly = _times(poly, factor)
    return poly


NONZERO = st.integers(-40, 40).filter(bool)
# (q*x - p) with repeats, a root at 0 when p is 0
LINEAR = st.tuples(st.integers(-30, 30), st.integers(1, 30), st.integers(1, 3)).map(
    lambda f: [[-f[0], f[1]]] * f[2]
)
# x^2 - n for a non-square n (irrational roots), or a quadratic with no real root
IRREDUCIBLE_QUADRATIC = st.integers(1, 500).filter(lambda n: math.isqrt(n) ** 2 != n).flatmap(
    lambda n: st.sampled_from([[-n, 0, 1], [n, 0, 1], [n, -2 * n, n + 1]])
)


@st.composite
def products_with_repeats(draw):
    factors = [f for group in draw(st.lists(LINEAR, min_size=1, max_size=4)) for f in group]
    factors += [f for f in draw(st.lists(IRREDUCIBLE_QUADRATIC, max_size=2)) for _ in range(draw(st.integers(1, 3)))]
    scale = Fraction(draw(NONZERO), draw(st.integers(1, 9)))
    return [scale * v for v in _product(factors, 1)]


@st.composite
def close_roots(draw):
    """Two roots closer than 1e-9: ``p/q`` and ``p/(q+1)``, or ``(p +- sqrt 2)/q``."""
    p = draw(st.integers(1, 10))
    if draw(st.booleans()):
        q = draw(st.integers(10**6, 10**7))
        return _product([[-p, q], [-p, q + 1]], draw(NONZERO))
    q = draw(st.integers(3 * 10**9, 10**10))
    return _product([[p * p - 2, -2 * p * q, q * q]], draw(NONZERO))


@st.composite
def big_coefficients(draw):
    """Dense polynomials with coefficients up to 2^64 in size and zeros at the bottom."""
    body = draw(st.lists(st.integers(-(2**64), 2**64), min_size=2, max_size=7))
    body[-1] = body[-1] or 1
    return [0] * draw(st.integers(0, 2)) + body


ROOT_POLYNOMIALS = st.one_of(products_with_repeats(), close_roots(), big_coefficients())


@settings(max_examples=150, deadline=None)
@given(ROOT_POLYNOMIALS)
def test_integer_root_isolation_matches_the_rational_reference(coeffs):
    from toricmaxent.maxent import _positive_real_roots

    assert _positive_real_roots(coeffs) == reference_positive_real_roots(coeffs)


def test_root_isolation_reference_cases():
    from toricmaxent.maxent import _positive_real_roots

    cases = [
        [-2, 0, 1],  # sqrt 2
        [1, -2, 1],  # (x - 1)^2
        [-3, 7, -5, 1],  # (x - 1)^2 (x - 3): the first midpoint, 3, is a root
        [0, 0, -6, 1, 1],  # x^2 (x - 2)(x + 3)
        [-1, 10**6 + 10**6 + 1, -(10**6) * (10**6 + 1)],  # 1/10^6 and 1/(10^6 + 1)
        [2**64, -(2**64) - 1, 1],  # 1 and 2^64
        [Fraction(-1, 3), Fraction(0), Fraction(-5, 7)],  # no real root
        [-12, 4, 12, -4, -3, 1],  # (x^2 - 2)^2 (x - 3): a repeated irrational root
        # a degree-18 eliminant from a d=3 fit with no positive root: its
        # Sturm chain takes milliseconds only when every remainder in it is
        # made primitive, and does not finish in two minutes otherwise
        [81, 0, -1431, 648, 25029, 14580, -88695, -793773, 540837, 1201014, -4749219, 6920676,
         28260261, 30569782, 62851641, 172867041, 43547544, 306110016, 816293376],
    ]
    for coeffs in cases:
        assert _positive_real_roots(coeffs) == reference_positive_real_roots(coeffs)


@settings(max_examples=60, deadline=None)
@given(ROOT_POLYNOMIALS)
def test_positive_root_count_matches_sympy(coeffs):
    sympy = pytest.importorskip("sympy")
    from toricmaxent.maxent import _positive_real_roots

    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(str(Fraction(v))) for v in reversed(coeffs)], x)
    at_zero = 1 if poly.eval(0) == 0 else 0
    assert len(_positive_real_roots(coeffs)) == poly.count_roots(0) - at_zero
