"""Numeric fitting, polynomial system emission, and the exact solving path."""

import math
import random
import re
from fractions import Fraction

import numpy as np
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
    DEFAULT_TOL,
    DIVERGENCE_BOUND,
    GIS_MAX_ITER,
    NEWTON_MAX_ITER,
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
    _CLASS_MIN_M,
    _column_classes,
)
from toricmaxent.ratpoly import Polynomial, parse_poly, poly_to_text
from toricmaxent.toric import (
    ConstraintMatrix,
    _as_floats,
    _normalize,
    _prior_floats,
    toric_param,
    verify_model_membership,
)

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


def _entropy_loop(p):
    """Reference: ``-sum p_j ln p_j`` summed left to right."""
    total = 0.0
    for x in p:
        x = float(x)
        if x > 0:
            total -= x * math.log(x)
    return total


ENTROPY_ENTRIES = st.one_of(
    st.sampled_from([0, 0.0, 1, 1.0, 5e-324]),
    st.floats(0.0, 1.0),
    st.floats(5e-324, 1e-300),
    st.fractions(0, 1, max_denominator=10**6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTROPY_ENTRIES, max_size=12))
def test_entropy_matches_the_reference_loop_bit_for_bit(p):
    # ``hex`` tells ``+0.0`` from ``-0.0``
    assert shannon_entropy(p).hex() == _entropy_loop(p).hex()


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


@pytest.mark.parametrize("observations, bad", [([1.7, 2.2, True], "1.7"), ([1, True], "True"), ([2.0], "2.0")])
def test_sample_sums_rejects_non_integer_observations(observations, bad):
    # a float or a bool is not a symbol: it is rejected, not truncated
    message = f"^observation {re.escape(bad)} is not an integer$"
    with pytest.raises(ValueError, match=message):
        sample_sums(observations, QUAD)
    with pytest.raises(ValueError, match=message):
        MaxEntProblem.from_samples(QUAD, observations)


def test_sample_sums_are_exact_python_ints():
    assert sample_sums(np.array([1, 3, 3]), QUAD) == SampleData((1, 3, 3), 3, (4,))
    # summed as Python ints: in int64 the first sum would wrap, and 2**70 does not fit at all
    for rows, sums in (([[0, 2**62, 1]], (2**63,)), ([[0, 2**62, 1], [2**70, 1, 1]], (2**63, 2**70 + 2))):
        data = sample_sums([2, 2, 1], ConstraintMatrix(rows))
        assert data.sums == sums
        assert {type(s) for s in (*data.observations, *data.sums)} == {int}


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


def test_newton_backtracks_and_lands_on_the_exact_point(monkeypatch):
    # a target near the lower vertex makes full Newton steps overshoot, so the
    # line search halves them; each halving normalizes one more trial point
    from toricmaxent import maxent

    calls = []
    normalize = maxent._normalize
    monkeypatch.setattr(maxent, "_normalize", lambda *args: calls.append(None) or normalize(*args))
    target = Fraction(110606, 9217)
    fit = fit_numeric(MaxEntProblem.from_targets(ConstraintMatrix([[12, 14]]), [target]), solver="newton")
    assert len(calls) > fit.iterations + 2
    p2 = float((target - 12) / 2)
    assert fit.p.as_floats() == pytest.approx([1 - p2, p2], abs=1e-12)


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


# --- numeric solvers on column classes against the full-matrix reference ---
#
# The references below are the full-matrix GIS and Newton solvers that the
# column-class solvers replaced: they iterate over every symbol.  Merging
# symbols with equal columns only regroups the sums, so both must take the
# same number of iterations to the same p, and fail with the same message.


def _full_gis(arr, h, targets, tol, max_iter):
    d, m = arr.shape
    mins = arr.min(axis=1)
    shifted = arr - mins[:, None]
    shifted_targets = targets - mins
    col_sums = shifted.sum(axis=0)
    cap = col_sums.max()

    log_h = np.log(h)
    active = shifted.max(axis=1) > 0
    if np.any(~active & (np.abs(shifted_targets) > tol)):
        raise InfeasibleMomentsError("constant constraint row conflicts with its target")
    if np.any(shifted_targets[active] <= 0):
        raise InfeasibleMomentsError("target on or outside the moment polytope")
    slack = cap - col_sums
    use_slack = slack.max() > 0
    slack_target = cap - shifted_targets.sum()
    if use_slack and slack_target <= 0:
        raise InfeasibleMomentsError("target on or outside the moment polytope")

    eta = np.zeros(d)
    eta_slack = 0.0
    for iteration in range(1, max_iter + 1):
        p, _ = _normalize(log_h + eta @ shifted + eta_slack * slack)
        if np.max(np.abs(arr @ p - targets)) <= tol:
            return eta_slack - eta, iteration - 1
        current = shifted @ p
        if np.any(current[active] <= 0):
            raise InfeasibleMomentsError("iterative scaling collapsed onto a face")
        eta[active] += np.log(shifted_targets[active] / current[active]) / cap
        if use_slack:
            slack_mean = float(slack @ p)
            if slack_mean <= 0:
                raise InfeasibleMomentsError("iterative scaling collapsed onto a face")
            eta_slack += math.log(slack_target / slack_mean) / cap
        if np.max(np.abs(eta_slack - eta)) > DIVERGENCE_BOUND:
            raise InfeasibleMomentsError("multipliers diverged; moments are not attainable")
    raise InfeasibleMomentsError(f"iterative scaling did not converge in {max_iter} iterations")


def _full_newton(arr, h, targets, tol, max_iter):
    d, m = arr.shape
    log_h = np.log(h)
    xi = np.zeros(d)
    p, log_z = _normalize(log_h)
    for iteration in range(max_iter):
        mom = arr @ p
        gap = mom - targets
        if np.max(np.abs(gap)) <= tol:
            return xi, iteration
        centered = arr - mom[:, None]
        cov = (centered * p) @ centered.T
        try:
            step = np.linalg.solve(cov, gap)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)):
            if iteration == 0:
                raise RankDeficiencyError(
                    "singular moment covariance; remove dependent constraints"
                )
            raise InfeasibleMomentsError("multipliers diverged; moments are not attainable")
        value = log_z + float(xi @ targets)
        slope = float(gap @ step)
        resolvable = value - 1e-4 * slope < value
        alpha = 1.0
        while True:
            trial = xi + alpha * step
            trial_p, trial_log_z = _normalize(log_h - trial @ arr)
            if not resolvable or trial_log_z + float(trial @ targets) <= value - 1e-4 * alpha * slope:
                break
            alpha *= 0.5
            if alpha < 2**-30:
                break
        xi, p, log_z = trial, trial_p, trial_log_z
        if np.max(np.abs(xi)) > DIVERGENCE_BOUND:
            raise InfeasibleMomentsError("multipliers diverged; moments are not attainable")
    raise InfeasibleMomentsError(f"Newton iteration did not converge in {max_iter} iterations")


FULL_SOLVERS = {"gis": (_full_gis, GIS_MAX_ITER), "newton": (_full_newton, NEWTON_MAX_ITER)}


def _seeded_problem(seed, m, d, lo, hi, prior=False, samples=False):
    """Entries in ``lo..hi``; targets are the moments of a random positive distribution."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(lo, hi + 1, size=(d, m)).tolist()
    matrix = ConstraintMatrix(rows)
    weights = rng.integers(1, 6, size=m).tolist() if prior else None
    if samples:
        return MaxEntProblem.from_samples(matrix, rng.integers(1, m + 1, size=50).tolist(), prior=weights)
    q = rng.uniform(0.5, 1.5, size=m)
    return MaxEntProblem.from_targets(matrix, (matrix.to_array() @ (q / q.sum())).tolist(), prior=weights)


def _full_fit(problem, solver):
    """Iterations and fitted p of the full-matrix reference solver."""
    fit, cap = FULL_SOLVERS[solver]
    arr = problem.matrix.to_array()
    h = _prior_floats(problem.matrix, problem.prior)
    xi, iterations = fit(arr, h, _as_floats(problem.target_values(), "targets"), DEFAULT_TOL, cap)
    return iterations, model_distribution(problem.matrix, xi, problem.prior)[0].to_array()


CLASS_FIT_CASES = {
    # m = 300 symbols over at most 9 distinct columns
    "repeated columns": lambda: _seeded_problem(1, 300, 2, 0, 2),
    # K == m, so the solvers take the symbols as they are
    "all distinct": lambda: MaxEntProblem.from_targets(
        ConstraintMatrix([[j % 20 for j in range(300)], [j // 20 for j in range(300)]]), [Fraction(8), Fraction(6)]
    ),
    # K == m / 2: every column twice
    "half distinct": lambda: MaxEntProblem.from_targets(
        ConstraintMatrix([[j % 10 for j in range(300)], [j % 150 // 10 for j in range(300)]]), [4, 6]
    ),
    "prior": lambda: _seeded_problem(2, 400, 3, 0, 2, prior=True),
    "samples": lambda: _seeded_problem(3, 300, 2, 0, 3, samples=True),
    "samples with prior": lambda: _seeded_problem(4, 300, 2, 0, 3, prior=True, samples=True),
    "negative entries": lambda: _seeded_problem(5, 300, 2, -3, 2),
    "prior near float max": lambda: MaxEntProblem.from_targets(
        ConstraintMatrix([[j % 5 for j in range(256)]]),
        [2],
        prior=(np.random.default_rng(8).uniform(0.5, 1.5, size=256) * 1e308).tolist(),
    ),
    # below _CLASS_MIN_M the solvers take the symbols as they are
    "small alphabet": lambda: _seeded_problem(6, 12, 2, 0, 2, prior=True),
}
# entries 0..999 make almost every column distinct (K close to m) in a key
# range beyond m / 2, so the solvers take the symbols as they are; GIS's
# step 1 / cap is tiny there, so that case runs under Newton alone
CLASS_FIT_PARAMS = [(case, solver) for case in CLASS_FIT_CASES for solver in ("newton", "gis")]
CLASS_FIT_CASES["wide entries"] = lambda: _seeded_problem(7, 300, 2, 0, 999, prior=True)
CLASS_FIT_PARAMS.append(("wide entries", "newton"))


# the cases whose solvers take the symbols as they are
UNMERGED_CASES = {"all distinct", "small alphabet", "wide entries"}


@pytest.mark.parametrize("case, solver", CLASS_FIT_PARAMS)
def test_class_solvers_match_the_full_matrix_reference(case, solver):
    problem = CLASS_FIT_CASES[case]()
    merged = _column_classes(problem.matrix.to_array(), np.ones(problem.m))[0].shape[1] < problem.m
    assert (problem.m >= _CLASS_MIN_M and merged) == (case not in UNMERGED_CASES)
    iterations, p = _full_fit(problem, solver)
    fit = fit_numeric(problem, solver=solver)
    assert fit.iterations == iterations > 0
    assert np.allclose(fit.p.to_array(), p, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "rows, targets, solver",
    [
        ([[3, 1], [3, 3]], [Fraction(17, 9), 3], "newton"),
        ([[0, 1, 2]], [2], "gis"),
    ],
    ids=["dependent rows", "vertex target"],
)
def test_class_solvers_fail_like_the_full_matrix_reference(rows, targets, solver):
    # each column 128 times, so that the alphabet reaches _CLASS_MIN_M and
    # the solvers run on the merged classes
    rows = [[v for v in row for _ in range(128)] for row in rows]
    problem = MaxEntProblem.from_targets(ConstraintMatrix(rows), targets)
    arr = problem.matrix.to_array()
    assert problem.m >= _CLASS_MIN_M
    assert _column_classes(arr, np.ones(problem.m))[0].shape[1] == len(set(zip(*rows)))
    with pytest.raises(Exception) as expected:
        _full_fit(problem, solver)
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        fit_numeric(problem, solver=solver)


def _dict_classes(rows, weights):
    """Distinct columns in sorted order and their summed weights, by a plain dict."""
    sums = {}
    for column, w in zip(zip(*rows), weights):
        sums[column] = sums.get(column, 0.0) + w
    keys = sorted(sums)
    return np.array(keys, dtype=float).T, np.array([sums[k] for k in keys])


def _wide_repeated_rows(seed):
    """Four rows with entries up to +-2^40, every column twice, and uneven weights: the key range is beyond int64."""
    rng = random.Random(seed)
    columns = [tuple(rng.randint(-(2**40), 2**40) for _ in range(4)) for _ in range(20)]
    columns += rng.sample(columns, 20)
    return [list(row) for row in zip(*columns)], [rng.uniform(0.01, 100.0) for _ in columns]


COLUMN_CLASS_CASES = {
    "constant rows": ([[3] * 5, [-1] * 5], [0.5, 2.0, 0.25, 1.0, 4.0]),
    "uneven weights": (
        [[0, 1, 0, 2, 1, 0, 2, 1, 0, 2, 2, 1], [1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1]],
        [1e-3, 7.5, 2.0, 1e6, 0.125, 3.0, 1.0, 1e-9, 0.5, 6.0, 1e3, 2.5],
    ),
    "weights near float max": ([[0, 1, 0, 1, 0]], [1.5e308, 1e308, 1.7e308, 0.5e308, 1.2e308]),
    # the second class's weight is below the smallest float once scaled
    "weight far below the largest": ([[0, 1, 0, 0], [2, 2, 2, 2]], [1e300, 1e-30, 3e299, 1e300]),
}


@pytest.mark.parametrize("case", list(COLUMN_CLASS_CASES))
def test_column_classes_match_a_dict_over_the_columns(case):
    rows, weights = COLUMN_CLASS_CASES[case]
    m = len(rows[0])
    weights = np.ones(m) if weights is None else np.array(weights)
    arr = np.array(rows, dtype=float)
    columns, sums, index = _column_classes(arr, weights)
    expected_columns, expected_sums = _dict_classes(rows, (weights / weights.max()).tolist())
    assert columns.shape == expected_columns.shape
    assert (columns == expected_columns).all()
    assert (sums == expected_sums).all()
    assert (columns[:, index] == arr).all()


WIDE_KEY_RANGE_CASES = {
    "all distinct, small range": ([[4, 0, 3, 1, 2], [0, 0, 1, 1, 1]], [1.0] * 5),
    "key range beyond int64": _wide_repeated_rows(11),
    "all distinct, wide range": ([[900, -7, 31, 444, 12], [5, 60, -1, 2, 0]], [1.0] * 5),
    "repeats, wide range": ([[900, -7, 900, 31, -7], [5, 60, 5, 2, 60]], [3.0, 0.5, 1e-4, 2.0, 7.25]),
}


@pytest.mark.parametrize("case", list(WIDE_KEY_RANGE_CASES))
def test_column_classes_leave_a_key_range_beyond_half_of_m_as_it_is(case):
    rows, weights = WIDE_KEY_RANGE_CASES[case]
    arr, h = np.array(rows, dtype=float), np.array(weights)
    columns, sums, index = _column_classes(arr, h)
    assert columns is arr and sums is h and index is None


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
