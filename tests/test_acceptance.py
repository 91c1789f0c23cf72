"""End-to-end acceptance checks.

Each test is one acceptance criterion; the verbose pytest line for each is the
pass/fail record. Tolerances are stated inline next to every assertion.
"""

import io
import json
import math
import os
import random
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricmaxent.errors import InfeasibleMomentsError
from toricmaxent.maxent import (
    DEFAULT_TOL,
    MaxEntProblem,
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
from toricmaxent.ratpoly import (
    GREVLEX,
    LEX,
    buchberger,
    multivariate_divide,
    parse_poly,
    poly_to_text,
    s_polynomial,
)
from toricmaxent.ratpoly import Polynomial
from toricmaxent.toric import (
    ConstraintMatrix,
    integer_kernel_basis,
    toric_ideal_generators,
    toric_param,
    verify_model_membership,
)
from toricmaxent.cli import main as cli_main

DICE = ConstraintMatrix([[1, 2, 3, 4, 5, 6]])
QUAD = ConstraintMatrix([[0, 1, 2]])
INDEPENDENCE = ConstraintMatrix([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])


def run_cli(argv, stdin=None):
    import sys

    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = cli_main(argv, out=out, err=err)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def test_01_loaded_dice_both_solvers_converge_and_agree():
    problem = MaxEntProblem.from_targets(DICE, [Fraction(9, 2)])
    start = time.perf_counter()
    newton = fit_numeric(problem, solver="newton")
    gis = fit_numeric(problem, solver="gis")
    elapsed = time.perf_counter() - start
    assert abs(moments(DICE, list(newton.p))[0] - 4.5) <= 1e-8
    assert abs(moments(DICE, list(gis.p))[0] - 4.5) <= 1e-8
    assert abs(newton.xi[0] - gis.xi[0]) <= 1e-6
    assert elapsed < 1.0


def test_02_unit_target_solves_exactly():
    system = direct_system(QUAD, [Fraction(1)])
    assert system.equations == (parse_poly("t1^2 - 1", ("t1",)),)
    assert all(isinstance(c, Fraction) for c in system.equations[0].terms.values())
    solutions = solve_algebraic(system)
    assert solutions == [(Fraction(1),)]
    p = toric_param(QUAD, list(solutions[0]))
    assert list(p) == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    numeric = fit_numeric(MaxEntProblem.from_targets(QUAD, [Fraction(1)]))
    assert p.as_floats() == pytest.approx(numeric.p.as_floats(), abs=1e-9)


def test_03_rational_target_matches_quadratic_formula():
    system = direct_system(QUAD, [Fraction(1, 2)])
    (eq,) = system.equations
    assert eq * 2 == parse_poly("3*t1^2 + t1 - 1", ("t1",))
    ((root,),) = solve_algebraic(system)
    closed_form = (-1 + math.sqrt(13)) / 6
    assert abs(float(root) - closed_form) <= 1e-10
    z = 1 + closed_form + closed_form**2
    oracle = [1 / z, closed_form / z, closed_form**2 / z]
    p = toric_param(QUAD, [root]).as_floats()
    assert p == pytest.approx(oracle, abs=1e-6)
    assert [round(v, 4) for v in p] == [0.6162, 0.2676, 0.1162]


def test_04_two_sample_empirical_path_is_exact():
    matrix = ConstraintMatrix([[0, 1]])
    data = sample_sums([1, 2], matrix)
    system = dual_system(matrix, data)
    t = ("t1",)
    assert system.objective == parse_poly("t1 + t1^-1", t, laurent=True)
    assert system.equations == (parse_poly("t1^2 - 1", t),)
    solutions = solve_algebraic(system)
    assert solutions == [(Fraction(1),)]
    theta = solutions[0][0] ** (-data.count)
    p = toric_param(matrix, [theta])
    assert list(p) == [Fraction(1, 2), Fraction(1, 2)]


def test_05_independence_ideal_is_the_single_quadric():
    gens = toric_ideal_generators(INDEPENDENCE)
    assert len(gens) == 1
    vars = gens[0].vars
    quadric = parse_poly("p1*p4 - p2*p3", vars)
    assert gens[0] in (quadric, -quadric)
    rng = random.Random(2026)
    for _ in range(100):
        theta = [rng.uniform(0.1, 4.0) for _ in range(INDEPENDENCE.d)]
        point = toric_param(INDEPENDENCE, theta).as_floats()
        assert abs(gens[0].evaluate(point)) < 1e-12


def test_06_groebner_engine_random_suite():
    rng = random.Random(1789)
    names = ("x", "y", "z")

    def rand_poly(vars, max_terms):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * len(vars)
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(len(vars))] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return Polynomial(vars, terms)

    start = time.perf_counter()
    bases = 0
    while bases < 50:
        vars = names[: rng.randint(1, 3)]
        gens = [g for g in (rand_poly(vars, 3) for _ in range(rng.randint(1, 3))) if g.terms]
        if not gens:
            continue
        order = rng.choice([LEX, GREVLEX])
        gb = buchberger(gens, order)
        for g in gens:
            assert gb.reduces_to_zero(g)
        for i in range(len(gb.basis)):
            for j in range(i + 1, len(gb.basis)):
                assert gb.reduces_to_zero(s_polynomial(gb.basis[i], gb.basis[j], order))
        bases += 1
    for _ in range(200):
        vars = names[: rng.randint(1, 3)]
        f = rand_poly(vars, 4)
        divisors = [g for g in (rand_poly(vars, 3) for _ in range(rng.randint(1, 3))) if g.terms]
        if not divisors:
            continue
        order = rng.choice([LEX, GREVLEX])
        quotients, r = multivariate_divide(f, divisors, order)
        assert sum((q * g for q, g in zip(quotients, divisors)), r) == f
        lts = [g.leading_term(order)[0] for g in divisors]
        for exps in r.terms:
            assert not any(all(e >= l for e, l in zip(exps, lt)) for lt in lts)
    assert time.perf_counter() - start < 60.0


def _random_interior_problem(rng, with_prior):
    m = rng.randint(3, 5)
    d = rng.randint(1, 2)
    while True:
        rows = [[rng.randint(0, 3) for _ in range(m)] for _ in range(d)]
        if len({tuple(r) for r in rows}) == d and all(len(set(r)) > 1 for r in rows):
            break
    matrix = ConstraintMatrix(rows)
    weights = [Fraction(rng.randint(1, 5)) for _ in range(m)]
    total = sum(weights)
    p0 = [w / total for w in weights]
    targets = [sum(Fraction(a) * p for a, p in zip(row, p0)) for row in rows]
    prior = [Fraction(rng.randint(1, 4)) for _ in range(m)] if with_prior else None
    return matrix, targets, prior


def _feasible_samples(matrix, p_star, count, seed):
    span = np.vstack([np.ones(matrix.m), matrix.to_array().astype(float)])
    rank = np.linalg.matrix_rank(span)
    null = np.linalg.svd(span)[2][rank:].T
    rng = np.random.default_rng(seed)
    for _ in range(count):
        if null.shape[1] == 0:
            yield p_star
            continue
        step = null @ rng.uniform(-0.1, 0.1, size=null.shape[1])
        q = p_star + step
        while q.min() <= 0:
            step *= 0.5
            q = p_star + step
        yield q


def test_07_fit_maximizes_entropy_and_minimizes_divergence():
    rng = random.Random(31)
    for trial in range(10):
        with_prior = trial >= 5
        matrix, targets, prior = _random_interior_problem(rng, with_prior)
        problem = MaxEntProblem.from_targets(matrix, targets, prior=prior)
        fit = fit_numeric(problem, solver="newton", tol=1e-12)
        p_star = np.array(fit.p.as_floats())
        if with_prior:
            h = [float(v) for v in prior]
            best = kl_divergence(list(p_star), h)
            for q in _feasible_samples(matrix, p_star, 1000, 100 + trial):
                assert kl_divergence(list(q), h) >= best - 1e-9
        else:
            best = shannon_entropy(list(p_star))
            for q in _feasible_samples(matrix, p_star, 1000, 100 + trial):
                assert shannon_entropy(list(q)) <= best + 1e-9


def test_08_dual_objective_gradient_and_partition_identities():
    matrix = ConstraintMatrix([[0, 1, 2, 3]])
    target = Fraction(2)
    system = dual_system(matrix, [target])
    rng = random.Random(47)
    for _ in range(100):
        theta = rng.uniform(0.2, 3.0)
        eps = 1e-6 * theta
        fd = (dual_objective(system, [theta + eps]) - dual_objective(system, [theta - eps])) / (2 * eps)
        sym = float(system.gradient[0].evaluate([theta]))
        assert sym == pytest.approx(fd, rel=1e-6)
    for _ in range(100):
        xi = rng.uniform(-3.0, 3.0)
        _, log_z = model_distribution(matrix, [xi])
        lhs = math.log(dual_objective(system, [math.exp(xi)]))
        assert abs(lhs - (log_z + xi * float(target))) <= 1e-12
    two_row = ConstraintMatrix([[1, 1, 0, 2], [0, 1, 2, 1]])
    for _ in range(100):
        xi = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
        p, _ = model_distribution(two_row, xi)
        q = toric_param(two_row, [math.exp(-v) for v in xi])
        assert max(abs(a - b) for a, b in zip(p.as_floats(), q.as_floats())) <= 1e-12


def test_09_target_outside_moment_polytope_fails_cleanly():
    problem = MaxEntProblem.from_targets(DICE, [Fraction(13, 2)])
    for solver in ("newton", "gis"):
        with pytest.raises(InfeasibleMomentsError):
            fit_numeric(problem, solver=solver)
    payload = json.dumps(
        {"m": 6, "constraints": [{"name": "mean", "values": [1, 2, 3, 4, 5, 6], "target": "13/2"}]}
    )
    code, out, err = run_cli(["fit", "-"], stdin=payload)
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_10_cli_round_trip_and_determinism(tmp_path):
    dice_path = tmp_path / "dice.json"
    dice_path.write_text(
        json.dumps(
            {"m": 6, "constraints": [{"name": "mean", "values": [1, 2, 3, 4, 5, 6], "target": "9/2"}]}
        )
    )
    code, fit_out, _ = run_cli(["fit", str(dice_path), "--format", "json"])
    assert code == 0
    dist_path = tmp_path / "fitted.json"
    dist_path.write_text(json.dumps({"p": json.loads(fit_out)["p"]}))
    code, check_out, err = run_cli(["check", str(dice_path), "--dist", str(dist_path)])
    assert code == 0, err
    assert "passed: True" in check_out

    half = json.dumps({"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1/2"}]})
    _, sys_out, _ = run_cli(["system", "-", "--format", "json"], stdin=half)
    payload = json.loads(sys_out)
    for text in payload["equations"]:
        assert poly_to_text(parse_poly(text, tuple(payload["variables"]))) == text

    ind = json.dumps(
        {
            "m": 4,
            "constraints": [
                {"name": "r1", "values": [1, 1, 0, 0]},
                {"name": "r2", "values": [0, 0, 1, 1]},
                {"name": "c1", "values": [1, 0, 1, 0]},
                {"name": "c2", "values": [0, 1, 0, 1]},
            ],
            "samples": [1],
        }
    )
    _, ideal_out, _ = run_cli(["ideal", "-", "--order", "lex"], stdin=ind)
    vars = ("p1", "p2", "p3", "p4")
    for line in ideal_out.strip().splitlines():
        assert poly_to_text(parse_poly(line, vars), LEX) == line

    unit = json.dumps({"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1"}]})
    for argv, stdin in ((["fit", str(dice_path), "--format", "json"], None), (["dual", "-"], unit)):
        first = run_cli(argv, stdin=stdin)
        second = run_cli(argv, stdin=stdin)
        assert first == second
        assert first[0] == 0


@st.composite
def prior_weighted_problems(draw):
    d = draw(st.integers(1, 2))
    m = draw(st.integers(3, 7))
    rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=m, max_size=m), min_size=d, max_size=d))
    prior = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    xi = draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d))
    return ConstraintMatrix(rows), prior, xi


@pytest.mark.parametrize("solver", ["newton", "gis"])
@settings(max_examples=25, deadline=None)
@given(prior_weighted_problems())
def test_11_fit_then_check_holds_on_random_prior_weighted_models(solver, case):
    matrix, prior, xi = case
    lifted = ConstraintMatrix(((1,) * matrix.m,) + matrix.rows)
    # dependent or constant rows make the fit rank deficient
    assume(np.linalg.matrix_rank(lifted.to_array()) == matrix.d + 1)
    p_model, _ = model_distribution(matrix, xi, prior)
    targets = moments(matrix, list(p_model))
    constraints = [{"name": f"f{i + 1}", "values": list(row), "target": t} for i, (row, t) in enumerate(zip(matrix.rows, targets))]
    doc = json.dumps({"m": matrix.m, "constraints": constraints, "prior": prior})
    code, fitted, err = run_cli(["fit", "-", "--solver", solver, "--format", "json"], stdin=doc)
    # GIS may stop at its iteration cap or divergence bound; Newton must fit every such model
    if solver == "gis" and code == 1:
        return
    assert (code, err) == (0, "")
    p = np.array(json.loads(fitted)["p"])
    # Birch round trip: fitting the moments of a model point returns that point
    assert np.abs(p - p_model.to_array()).max() <= 1e-8

    # check accepts what fit produces, prior included
    with tempfile.TemporaryDirectory() as tmp:
        dist = os.path.join(tmp, "fitted.json")
        with open(dist, "w") as fh:
            fh.write(fitted)
        assert run_cli(["check", "-", "--dist", dist], stdin=doc)[0] == 0

    report = verify_model_membership(p, matrix, tol=DEFAULT_TOL, prior=prior)
    assert report.member, report
    assert max(abs(a - b) for a, b in zip(moments(matrix, list(p)), targets)) <= DEFAULT_TOL
    # only the ratios of the prior matter
    assert verify_model_membership(p, matrix, tol=DEFAULT_TOL, prior=[3 * w for w in prior]).member

    # a symbol in the support of the kernel of [1; A] is not free on the model,
    # so a relative 1e-3 move of its probability leaves the model
    j = next((k for u in integer_kernel_basis(lifted) for k, v in enumerate(u) if v), None)
    assume(j is not None)
    moved = p.copy()
    moved[j] *= 1 + 1e-3
    assert not verify_model_membership(moved / moved.sum(), matrix, tol=DEFAULT_TOL, prior=prior).member


@st.composite
def exact_one_row_problems(draw):
    m = draw(st.integers(2, 8))
    row = draw(st.lists(st.integers(-2, 6), min_size=m, max_size=m).filter(lambda r: len(set(r)) > 1))
    prior = draw(st.none() | st.lists(st.integers(1, 5), min_size=m, max_size=m))
    theta = draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6))
    return ConstraintMatrix([row]), prior, theta


@settings(max_examples=25, deadline=None)
@given(exact_one_row_problems())
def test_12_groebner_and_newton_agree_where_the_exact_path_applies(case):
    matrix, prior, theta = case
    # the exact target of a rational model point; entries in -2..6 keep the
    # cleared direct system within the exact solver's degree limit of 8
    p = toric_param(matrix, [theta], prior)
    target = sum(a * q for a, q in zip(matrix.rows[0], p))
    problem = MaxEntProblem.from_targets(matrix, [target], prior=prior)
    exact = fit_algebraic(problem)
    numeric = fit_numeric(problem, solver="newton")
    # tolerance 1e-9: 10x the default moment tolerance
    assert max(abs(a - b) for a, b in zip(exact.p, numeric.p)) <= 1e-9

    # check accepts what the groebner fit produces, prior included
    target = Fraction(target)
    doc = {"m": matrix.m, "constraints": [{"name": "f1", "values": list(matrix.rows[0]), "target": f"{target.numerator}/{target.denominator}"}]}
    if prior is not None:
        doc["prior"] = prior
    doc = json.dumps(doc)
    code, fitted, _ = run_cli(["fit", "-", "--solver", "groebner", "--format", "json"], stdin=doc)
    assert code == 0
    with tempfile.TemporaryDirectory() as tmp:
        dist = os.path.join(tmp, "fitted.json")
        with open(dist, "w") as fh:
            fh.write(fitted)
        assert run_cli(["check", "-", "--dist", dist], stdin=doc)[0] == 0
