"""Exact polynomial arithmetic: construction, orders, division, Groebner bases, text grammar."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmaxent import ratpoly
from toricmaxent.maxent import PolySystem, direct_system, solve_algebraic
from toricmaxent.ratpoly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    _Packing,
    _PairQueue,
    buchberger,
    laurent_clear,
    multivariate_divide,
    normal_form,
    parse_poly,
    poly_to_text,
    s_polynomial,
)
from toricmaxent.toric import ConstraintMatrix

XY = ("x", "y")
XYZ = ("x", "y", "z")


def p2(text):
    return parse_poly(text, XY)


def p3(text):
    return parse_poly(text, XYZ)


def random_poly(rng, vars, max_exp=3, max_terms=4, laurent=False):
    lo = -max_exp if laurent else 0
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(lo, max_exp) for _ in vars)
        terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(vars, terms, laurent=laurent)


# --- construction and basic arithmetic ---


def test_zero_terms_dropped():
    f = Polynomial(XY, {(1, 0): Fraction(0), (0, 1): 2})
    assert f.terms == {(0, 1): Fraction(2)}


def test_negative_exponent_rejected_outside_laurent_mode():
    with pytest.raises(ValueError):
        Polynomial(XY, {(-1, 0): 1})


def test_equality_ignores_laurent_flag():
    a = Polynomial(XY, {(1, 1): 3})
    b = Polynomial(XY, {(1, 1): 3}, laurent=True)
    assert a == b
    assert not hasattr(b, "laurent")  # Laurent-ness is read from the exponents, never stored


def test_coefficients_coerced_to_fraction():
    f = Polynomial(XY, {(1, 0): 2})
    ((exps, coeff),) = f.terms.items()
    assert isinstance(coeff, Fraction)


def test_scalar_operations():
    x = Polynomial.variable(XY, "x")
    assert 2 * x + 1 == p2("2*x + 1")
    assert (x + 1) - 1 == x
    assert x * Fraction(1, 2) == p2("1/2*x")


def test_power():
    assert p2("x + y") ** 2 == p2("x^2 + 2*x*y + y^2")
    assert p2("x - 1") ** 0 == p2("1")


def test_evaluate_is_exact_on_rationals():
    f = p2("1/2*x^2 - y")
    assert f.evaluate([Fraction(3), Fraction(1, 4)]) == Fraction(17, 4)


def test_evaluate_floats():
    f = p2("x*y + 1")
    assert f.evaluate([2.0, 0.5]) == pytest.approx(2.0)


def test_laurent_evaluate_at_zero_raises():
    f = Polynomial(("t",), {(-1,): 1}, laurent=True)
    with pytest.raises(ZeroDivisionError):
        f.evaluate([Fraction(0)])


def test_differentiate():
    f = p2("x^3*y + 2*x")
    assert f.differentiate(0) == p2("3*x^2*y + 2")
    assert f.differentiate(1) == p2("x^3")


def test_differentiate_laurent():
    f = Polynomial(("t",), {(-1,): 1, (2,): 1}, laurent=True)
    assert f.differentiate(0) == Polynomial(("t",), {(-2,): -1, (1,): 2}, laurent=True)


@st.composite
def poly_strategy(draw, vars=XY, max_exp=3):
    exp = st.tuples(*([st.integers(0, max_exp)] * len(vars)))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = draw(st.dictionaries(exp, coeff, max_size=5))
    return Polynomial(vars, terms)


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(f, g, h):
    zero = Polynomial.zero(XY)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == zero
    assert f * Polynomial.constant(XY, 1) == f
    assert f * zero == zero


@given(poly_strategy(), poly_strategy(), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=2, max_size=2))
def test_arithmetic_commutes_with_evaluation(f, g, point):
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


# --- monomial orders ---


def test_lex_chain_two_vars():
    chain = [(2, 0), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0)]
    for a, b in zip(chain, chain[1:]):
        assert LEX.key(a) > LEX.key(b)


def test_grevlex_degree_dominates():
    assert GREVLEX.key((2, 0)) > GREVLEX.key((1, 1))
    assert GREVLEX.key((0, 3)) > GREVLEX.key((2, 0))


def test_grevlex_degree_two_chain_three_vars():
    # x^2 > xy > y^2 > xz > yz > z^2
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert GREVLEX.key(a) > GREVLEX.key(b)


def test_priority_permutation_reorders_significance():
    y_first = MonomialOrder("lex", (1, 0))
    assert y_first.key((1, 0)) < y_first.key((0, 1))
    assert y_first.key((0, 1)) > y_first.key((5, 0))


def test_order_axioms_on_random_triples():
    rng = random.Random(20260822)
    orders = [LEX, GREVLEX, MonomialOrder("lex", (2, 0, 1)), MonomialOrder("grevlex", (1, 2, 0))]
    for _ in range(1000):
        order = rng.choice(orders)
        key = order.key
        a, b, c = (tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(3))
        # antisymmetry: keys are equal only for equal monomials
        assert (key(a) == key(b)) == (a == b)
        trip = sorted([a, b, c], key=key)
        assert key(trip[0]) <= key(trip[1]) <= key(trip[2])
        assert key(trip[0]) <= key(trip[2])
        # translation invariance: adding a common monomial preserves comparisons
        shifted_a, shifted_b = (tuple(x + y for x, y in zip(v, c)) for v in (a, b))
        assert (key(shifted_a) > key(shifted_b)) == (key(a) > key(b))
        assert (key(shifted_a) == key(shifted_b)) == (key(a) == key(b))
        # the constant monomial is the global minimum
        assert key((0, 0, 0)) <= key(a)


def test_leading_term_and_monic():
    f = p2("2*x^2 + 3*x*y^2 + 1")
    assert f.leading_term(LEX) == ((2, 0), Fraction(2))
    assert f.leading_term(GREVLEX) == ((1, 2), Fraction(3))
    assert f.monic(LEX) == p2("x^2 + 3/2*x*y^2 + 1/2")


# --- division ---


def test_division_worked_example():
    # classic two-divisor example under lex x > y
    f = p2("x^2*y + x*y^2 + y^2")
    divisors = [p2("x*y - 1"), p2("y^2 - 1")]
    quotients, remainder = multivariate_divide(f, divisors, LEX)
    assert quotients == [p2("x + y"), p2("1")]
    assert remainder == p2("x + y + 1")


def test_division_remainder_depends_on_divisor_order():
    f = p2("x^2*y + x*y^2 + y^2")
    divisors = [p2("y^2 - 1"), p2("x*y - 1")]
    _, remainder = multivariate_divide(f, divisors, LEX)
    assert remainder == p2("2*x + 1")


def _divisible(exps, lt_exps):
    return all(e >= l for e, l in zip(exps, lt_exps))


def test_division_identity_random():
    rng = random.Random(7)
    for _ in range(200):
        f = random_poly(rng, XYZ)
        divisors = [g for g in (random_poly(rng, XYZ, max_terms=3) for _ in range(rng.randint(1, 3))) if g.terms]
        if not divisors:
            continue
        order = rng.choice([LEX, GREVLEX])
        quotients, r = multivariate_divide(f, divisors, order)
        recombined = sum((q * g for q, g in zip(quotients, divisors)), r)
        assert recombined == f
        lts = [g.leading_term(order)[0] for g in divisors]
        for exps in r.terms:
            assert not any(_divisible(exps, lt) for lt in lts)


def test_normal_form_of_member_is_zero():
    g = p2("x^2 + y")
    assert normal_form(p2("x^2*y + y^2 + x^2 + y"), [g], LEX) == Polynomial.zero(XY)


def test_division_reads_laurent_from_exponents_not_the_construction_flag():
    # built with laurent=True but no negative exponent: an ordinary polynomial
    flagged = Polynomial(("x",), {(2,): 1, (0,): -1}, laurent=True)
    plain = Polynomial(("x",), {(2,): 1, (0,): -1})
    divisor = parse_poly("x - 1", ("x",))
    gb = buchberger([plain], LEX)
    assert flagged == plain and hash(flagged) == hash(plain)
    assert gb.reduces_to_zero(flagged) is gb.reduces_to_zero(plain) is True
    assert normal_form(flagged, [divisor], LEX) == normal_form(plain, [divisor], LEX) == Polynomial.zero(("x",))
    assert multivariate_divide(flagged, [divisor], LEX) == multivariate_divide(plain, [divisor], LEX)
    assert multivariate_divide(divisor, [flagged], LEX) == multivariate_divide(divisor, [plain], LEX)
    assert buchberger([flagged], LEX) == gb


@pytest.mark.parametrize(
    "call",
    [
        lambda f, g: normal_form(f, [g], LEX),
        lambda f, g: normal_form(g, [f], LEX),
        lambda f, g: multivariate_divide(f, [g], LEX),
        lambda f, g: multivariate_divide(g, [f], LEX),
        lambda f, g: buchberger([g], LEX).reduces_to_zero(f),
        lambda f, g: buchberger([g, f], LEX),
        lambda f, g: solve_algebraic(PolySystem((g, f), "direct")),
    ],
    ids=["normal_form", "normal_form-divisor", "divide", "divide-divisor", "reduces_to_zero", "buchberger", "solve_algebraic"],
)
def test_negative_exponent_is_rejected_by_every_ordinary_ring_operation(call):
    laurent = Polynomial(("t1",), {(1,): 1, (-1,): -2}, laurent=True)
    ordinary = parse_poly("t1^2 - 2", ("t1",))
    with pytest.raises(ValueError, match="^Laurent input; clear denominators first$"):
        call(laurent, ordinary)


def test_s_polynomial_cancels_leading_terms():
    f = p2("x^2*y - 1")
    g = p2("x*y^2 - x")
    s = s_polynomial(f, g, LEX)
    assert s == p2("x^2 - y")


# --- Groebner bases ---


def test_buchberger_unit_ideal():
    gens = [p2("x - 1"), p2("x + 1")]
    gb = buchberger(gens, LEX)
    assert [poly_to_text(b, LEX) for b in gb.basis] == ["1"]


def test_buchberger_twisted_cubic_lex():
    gens = [p3("x^2 - y"), p3("x^3 - z")]
    gb = buchberger(gens, LEX)
    expected = {p3("x^2 - y"), p3("x*y - z"), p3("x*z - y^2"), p3("y^3 - z^2")}
    assert set(gb.basis) == expected


def test_groebner_basis_is_deterministic_and_input_order_free():
    gens = [p3("x*y - z"), p3("y^2 - x"), p3("x^2 - z^2")]
    base = buchberger(gens, GREVLEX).basis
    for perm in ([1, 0, 2], [2, 1, 0], [2, 0, 1]):
        again = buchberger([gens[i] for i in perm], GREVLEX).basis
        assert again == base


def test_groebner_membership_helpers():
    gens = [p2("x^2 + y"), p2("x*y - 1")]
    gb = buchberger(gens, LEX)
    for g in gens:
        assert gb.reduces_to_zero(g)
    combo = gens[0] * p2("x - 3") + gens[1] * p2("y^2")
    assert gb.reduces_to_zero(combo)
    f = p2("x + y + 1")
    nf = gb.normal_form(f)
    assert gb.normal_form(nf) == nf
    assert gb.reduces_to_zero(f - nf)


def _assert_reduced(gb):
    order = gb.order
    lts = [g.leading_term(order)[0] for g in gb.basis]
    for i, g in enumerate(gb.basis):
        assert g.leading_term(order)[1] == 1
        for exps in g.terms:
            assert not any(_divisible(exps, lt) for j, lt in enumerate(lts) if j != i)


def test_buchberger_random_suite_properties():
    rng = random.Random(99)
    for _ in range(30):
        vars = XYZ[: rng.randint(1, 3)]
        gens = [g for g in (random_poly(rng, vars, max_exp=2, max_terms=3) for _ in range(rng.randint(1, 3))) if g.terms]
        if not gens:
            continue
        order = rng.choice([LEX, GREVLEX])
        gb = buchberger(gens, order)
        assert gb.basis
        _assert_reduced(gb)
        for g in gens:
            assert gb.reduces_to_zero(g)
        for i in range(len(gb.basis)):
            for j in range(i + 1, len(gb.basis)):
                s = s_polynomial(gb.basis[i], gb.basis[j], order)
                assert gb.reduces_to_zero(s)


def _naive_reduced_groebner(gens, order):
    # Reference: reduce every S-pair, prune nothing, then inter-reduce.
    basis = [g.monic(order) for g in gens if g.terms]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        r = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if r.terms:
            basis.append(r.monic(order))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    minimal = []
    for g in sorted(basis, key=lambda g: order.key(g.leading_term(order)[0])):
        lt = g.leading_term(order)[0]
        if not any(_divisible(lt, h.leading_term(order)[0]) for h in minimal):
            minimal.append(g)
    return {
        normal_form(g, minimal[:k] + minimal[k + 1 :], order).monic(order) if len(minimal) > 1 else g
        for k, g in enumerate(minimal)
    }


def _with_leading_term(rng, vars, lt, order):
    tail = random_poly(rng, vars, max_exp=2, max_terms=3).terms
    return Polynomial(vars, {lt: rng.randint(1, 3), **{e: c for e, c in tail.items() if order.key(e) < order.key(lt)}})


def test_buchberger_matches_naive_reference():
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        vars = XYZ[: rng.randint(1, 3)]
        n = len(vars)
        order = rng.choice(
            [LEX, GREVLEX, MonomialOrder("lex", tuple(reversed(range(n)))), MonomialOrder("grevlex", tuple(reversed(range(n))))]
        )
        if checked % 2:
            gens = [g for g in (random_poly(rng, vars, max_exp=2, max_terms=3) for _ in range(rng.randint(1, 3))) if g.terms]
        else:
            # chosen leading terms, one of them twice: pairs with equal lcms
            leads = [tuple(rng.randint(0, 1) for _ in vars) for _ in range(rng.randint(1, 3))]
            gens = [_with_leading_term(rng, vars, lt, order) for lt in leads + leads[:1]]
        if not gens:
            continue
        assert set(buchberger(gens, order).basis) == _naive_reduced_groebner(gens, order)
        checked += 1


# --- the fraction-free engine against the rational one ---


def _classical_s_polynomial(f, g, order):
    (fe, fc), (ge, gc) = f.leading_term(order), g.leading_term(order)
    lcm = tuple(map(max, fe, ge))
    mf = Polynomial.monomial(f.vars, [a - b for a, b in zip(lcm, fe)], 1 / fc)
    mg = Polynomial.monomial(g.vars, [a - b for a, b in zip(lcm, ge)], 1 / gc)
    return mf * f - mg * g


def reference_buchberger(generators, order):
    """The rational engine: monic ``Fraction`` elements, the same pair queue.

    Returns the reduced basis and the number of S-pairs reduced.
    """
    basis, lead = [], []
    # 64-bit fields fit every exponent of the systems below, and a queue's packing never widens
    pairs = _PairQueue(_Packing(order, len(generators[0].vars), width=64))

    def adjoin(m):
        basis.append(m)
        lead.append(m.leading_term(order)[0])
        pairs.add(pairs.packing.pack(lead[-1]))

    for g in generators:
        m = g.monic(order) if g.terms else g
        if m.terms and m not in basis:
            adjoin(m)
    reduced_pairs = 0
    for i, j in pairs:
        reduced_pairs += 1
        r = normal_form(_classical_s_polynomial(basis[i], basis[j], order), basis, order)
        if r.terms:
            adjoin(r.monic(order))
    keep = sorted(pairs.minimal(), key=lambda i: order.key(lead[i]))
    kept = [basis[i] for i in keep]
    out = tuple(
        normal_form(g, kept[:k] + kept[k + 1 :], order).monic(order) if len(kept) > 1 else g
        for k, g in enumerate(kept)
    )
    return out, reduced_pairs


def _orders(n):
    back = tuple(reversed(range(n)))
    return [LEX, GREVLEX, MonomialOrder("lex", back), MonomialOrder("grevlex", back)]


def _assert_matches_reference(monkeypatch, gens, order):
    reduced = []
    original = ratpoly.s_polynomial
    with monkeypatch.context() as patch:
        patch.setattr(ratpoly, "s_polynomial", lambda f, g, o: reduced.append(1) or original(f, g, o))
        gb = buchberger(gens, order)
    expected, expected_pairs = reference_buchberger(gens, order)
    assert gb.basis == expected
    assert len(reduced) == expected_pairs
    for g in gb.basis:
        assert all(type(c) is Fraction for c in g.terms.values())


def _random_binomial(rng, vars):
    lead = tuple(rng.randint(0, 3) for _ in vars)
    trail = tuple(rng.randint(0, 3) for _ in vars)
    return Polynomial(vars, {lead: Fraction(rng.randint(1, 5), rng.randint(1, 3)), trail: -rng.randint(1, 4)})


def test_fraction_free_buchberger_matches_rational_engine_on_random_input(monkeypatch):
    rng = random.Random(4711)
    for trial in range(160):
        vars = XYZ[: rng.randint(1, 3)]
        order = _orders(len(vars))[trial % 4]
        if trial % 3 == 2:
            gens = [_random_binomial(rng, vars) for _ in range(rng.randint(2, 4))]
        else:
            # non-monic rational coefficients with large denominators
            gens = [
                Polynomial(vars, {e: c * Fraction(rng.randint(1, 97), rng.randint(1, 89)) for e, c in g.terms.items()})
                for g in (random_poly(rng, vars, max_exp=2, max_terms=4) for _ in range(rng.randint(1, 3)))
            ]
        _assert_matches_reference(monkeypatch, gens, order)


EXACT_SHAPES = {
    "stair": [[0, 1, 2, 3, 4, 4], [0, 1, 1, 2, 2, 4]],
    "tri3": [[0, 1, 0, 0, 1, 1, 0, 1], [0, 0, 1, 0, 1, 0, 1, 1], [0, 0, 0, 1, 0, 1, 1, 1]],
    "kite": [[0, 1, 2, 1], [0, 0, 1, 2]],
    "cube": [[0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]],
}


@pytest.mark.parametrize("shape", sorted(EXACT_SHAPES))
def test_fraction_free_buchberger_matches_rational_engine_on_exact_fit_systems(monkeypatch, shape):
    rows = EXACT_SHAPES[shape]
    m = len(rows[0])
    rng = random.Random(shape)
    for k in range(2):
        weights = [rng.randint(1, 3) for _ in range(m)]
        targets = [Fraction(sum(w * a for w, a in zip(weights, row)), sum(weights)) for row in rows]
        prior = [rng.randint(1, 4) for _ in range(m)] if k else None
        equations = direct_system(ConstraintMatrix(rows), targets, prior).equations
        for order in (LEX, GREVLEX):
            _assert_matches_reference(monkeypatch, equations, order)


def _sympy_reduced_basis(sympy, gens, order):
    arranged = order.arrange(range(len(gens[0].vars)))
    symbols = sympy.symbols(gens[0].vars)
    sym_gens = [symbols[i] for i in arranged]
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(symbols, exps))) for exps, c in g.terms.items())
        for g in gens
    ]
    basis = sympy.groebner(exprs, *sym_gens, order=order.kind, domain="QQ")
    out = set()
    for expr in basis.exprs:
        poly = sympy.Poly(expr, *symbols, domain="QQ")
        out.add(Polynomial(gens[0].vars, {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()}).monic(order))
    return out


def test_fraction_free_buchberger_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(77)
    for trial in range(24):
        vars = XYZ[: rng.randint(2, 3)]
        order = _orders(len(vars))[trial % 4]
        gens = [g for g in (random_poly(rng, vars, max_exp=2, max_terms=3) for _ in range(rng.randint(2, 3))) if g.terms]
        if trial % 3 == 2:
            gens = [_random_binomial(rng, vars) for _ in range(3)]
        if not gens:
            continue
        assert set(buchberger(gens, order).basis) == _sympy_reduced_basis(sympy, gens, order)


def test_s_polynomial_is_classical_on_monic_input_and_a_multiple_otherwise():
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        vars = XYZ[: rng.randint(1, 3)]
        order = _orders(len(vars))[checked % 4]
        f, g = (random_poly(rng, vars, max_exp=3, max_terms=4) for _ in range(2))
        if not f.terms or not g.terms:
            continue
        classical = _classical_s_polynomial(f, g, order)
        assert s_polynomial(f.monic(order), g.monic(order), order) == classical
        s = s_polynomial(f, g, order)
        fc, gc = f.leading_term(order)[1], g.leading_term(order)[1]
        if not classical.terms:
            assert not s.terms
        else:
            # the factor is lc(f)*lc(g)/gcd(lc f, lc g), and the cofactors are coprime integers
            factor = next(s.terms[e] / c for e, c in classical.terms.items())
            assert factor and s == classical * factor
            assert (factor / fc).denominator == 1 and (factor / gc).denominator == 1
            assert math.gcd((factor / fc).numerator, (factor / gc).numerator) == 1
        checked += 1


def test_s_polynomial_keeps_integer_coefficients_integral():
    f = Polynomial._raw(XY, {(2, 1): 6, (0, 0): -4})
    g = Polynomial._raw(XY, {(1, 2): 4, (1, 0): 3})
    s = s_polynomial(f, g, LEX)
    # lc 6 and 4: k = 2, so 2*y*f - 3*x*g
    assert s.terms == {(2, 0): -9, (0, 1): -8}
    assert all(type(c) is int for c in s.terms.values())


# --- Laurent clearing ---


def test_laurent_clear_single_variable():
    f = Polynomial(("t",), {(1,): 1, (-1,): 1}, laurent=True)
    shift, cleared = laurent_clear(f)
    assert shift == (1,)
    assert cleared == parse_poly("t^2 + 1", ("t",))
    assert all(e >= 0 for exps in cleared.terms for e in exps)


def test_laurent_clear_no_negative_exponents_is_identity():
    f = parse_poly("x^2 - y", XY)
    shift, cleared = laurent_clear(f)
    assert shift == (0, 0)
    assert cleared == f


def test_laurent_clear_reconstructs_original():
    rng = random.Random(5)
    for _ in range(100):
        f = random_poly(rng, XY, laurent=True)
        shift, cleared = laurent_clear(f)
        monomial = Polynomial.monomial(XY, tuple(-s for s in shift), 1, laurent=True)
        back = Polynomial(XY, cleared.terms, laurent=True) * monomial
        assert back == f


# --- text grammar ---


def test_poly_to_text_examples():
    f = Polynomial(("t1", "t2"), {(2, -1): Fraction(3, 2), (0, 0): -1}, laurent=True)
    assert poly_to_text(f) == "3/2*t1^2*t2^-1 - 1"
    assert poly_to_text(Polynomial.zero(XY)) == "0"
    assert poly_to_text(p2("x - y")) == "x - y"
    assert poly_to_text(p2("2*x^2 - x + 3")) == "2*x^2 - x + 3"
    assert poly_to_text(Polynomial.constant(XY, Fraction(-1, 3))) == "-1/3"


def test_poly_to_text_respects_order():
    f = p2("x^2 + y^3")
    assert poly_to_text(f, LEX) == "x^2 + y^3"
    assert poly_to_text(f, GREVLEX) == "y^3 + x^2"


def test_parse_rejects_garbage():
    for bad in ("x +", "x^", "2**x", "x y", "q + 1", ""):
        with pytest.raises(ValueError):
            parse_poly(bad, XY)


def test_parse_rejects_negative_exponent_without_laurent():
    with pytest.raises(ValueError):
        parse_poly("x^-1", XY)


def test_text_round_trip_random():
    rng = random.Random(13)
    for _ in range(300):
        laurent = rng.random() < 0.5
        f = random_poly(rng, ("t1", "t2"), laurent=laurent)
        for order in (LEX, GREVLEX):
            text = poly_to_text(f, order)
            assert parse_poly(text, ("t1", "t2"), laurent=laurent) == f
