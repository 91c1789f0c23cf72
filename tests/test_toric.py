"""Constraint matrices, integer kernels, toric ideals, and the monomial parametrization."""

import math
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from toricmaxent.errors import SizeLimitError
from toricmaxent.maxent import MaxEntProblem
from toricmaxent.ratpoly import GREVLEX, LEX, Polynomial, buchberger, normal_form, parse_poly, poly_to_text
import toricmaxent.toric
from toricmaxent.toric import (
    ConstraintMatrix,
    DistributionVector,
    MonomialOrder,
    _binomial_groebner,
    _identity_block,
    _shorten,
    integer_kernel_basis,
    toric_ideal_generators,
    toric_param,
    verify_model_membership,
)

# 2x2 contingency table with row and column marginals fixed.
INDEPENDENCE = ConstraintMatrix([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
# all-ones row plus the sequence 0,1,2,3: monomial curve of degree 3.
CUBIC_CURVE = ConstraintMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])
DICE = ConstraintMatrix([[1, 2, 3, 4, 5, 6]])


def rational_rank(rows):
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


# --- ConstraintMatrix ---


def test_matrix_shape_accessors():
    assert CUBIC_CURVE.d == 2
    assert CUBIC_CURVE.m == 4
    assert CUBIC_CURVE.column(2) == (1, 2)
    assert CUBIC_CURVE.to_array().tolist() == [[1, 1, 1, 1], [0, 1, 2, 3]]


def test_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        ConstraintMatrix([])
    with pytest.raises(ValueError):
        ConstraintMatrix([[1]])
    with pytest.raises(ValueError):
        ConstraintMatrix([[0.5, 1]])
    with pytest.raises(ValueError):
        ConstraintMatrix([[1, 2], [3]])
    # a bool is not an integer entry, in a list as in a numpy bool array
    for rows in ([[True, False, 2]], [[1, 2], [0, True]], np.array([[True, False]])):
        with pytest.raises(ValueError, match="^matrix entries must be integers$"):
            ConstraintMatrix(rows)


def test_matrix_accepts_negative_entries():
    m = ConstraintMatrix([[-1, 2, 0]])
    assert m.rows == ((-1, 2, 0),)


SMALL_ROWS = [[-3, 0, 5, 7], [1, 1, 0, 2]]
# id -> (a factory of a fresh input, the rows it holds)
MATRIX_INPUTS = {
    "list": (lambda: [list(row) for row in SMALL_ROWS], SMALL_ROWS),
    "tuple": (lambda: tuple(map(tuple, SMALL_ROWS)), SMALL_ROWS),
    "int8": (lambda: np.array(SMALL_ROWS, dtype=np.int8), SMALL_ROWS),
    "int32": (lambda: np.array(SMALL_ROWS, dtype=np.int32), SMALL_ROWS),
    "int64": (lambda: np.array(SMALL_ROWS, dtype=np.int64), SMALL_ROWS),
    "uint8": (lambda: np.array([[0, 255, 3]], dtype=np.uint8), [[0, 255, 3]]),
    "int64 bounds": (lambda: [[-(2**63), 2**63 - 1, 0]], [[-(2**63), 2**63 - 1, 0]]),
    "beyond int64": (lambda: [[2**63, -(2**63) - 1, 0], [1, 2, 3]], [[2**63, -(2**63) - 1, 0], [1, 2, 3]]),
    "beyond float": (lambda: [[10**400, 1, 2]], [[10**400, 1, 2]]),
}


@pytest.mark.parametrize("make, expected", MATRIX_INPUTS.values(), ids=MATRIX_INPUTS)
def test_matrix_holds_the_exact_ints_of_any_integer_input(make, expected):
    source = make()
    matrix = ConstraintMatrix(source)
    rows = tuple(map(tuple, expected))
    assert matrix.rows == rows
    assert {type(x) for row in matrix.rows for x in row} == {int}
    assert (matrix.d, matrix.m) == (len(rows), len(rows[0]))
    assert [matrix.column(j) for j in range(matrix.m)] == list(zip(*rows))
    if max(abs(x) for row in rows for x in row) < 2**1000:
        floats = matrix.to_array()
        assert floats.tolist() == [[float(x) for x in row] for row in rows]
        with pytest.raises(ValueError):
            floats[0, 0] = 1.0
    else:
        with pytest.raises(ValueError, match="^constraint values are too large for a float$"):
            matrix.to_array()
    with pytest.raises(ValueError):
        matrix.entries[0, 0] = 1

    # a later write to the caller's input leaves the matrix as it was
    if not isinstance(source, tuple):
        source[0][0] = 9
    assert matrix.rows == rows and matrix.entries.tolist() == list(map(list, rows))

    # value equality and hashing, as a frozen dataclass of ``rows`` gives them
    twin = ConstraintMatrix(list(map(list, rows)))
    assert matrix == twin and hash(matrix) == hash(twin) == hash((rows,))
    assert len({matrix, twin}) == 1
    assert matrix != ConstraintMatrix([[x + (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(rows)])
    assert matrix != rows
    targets = [0] * matrix.d
    problem, same = (MaxEntProblem.from_targets(m, targets, prior=[1] * m.m) for m in (matrix, twin))
    assert problem == same and hash(problem) == hash(same)
    assert problem != MaxEntProblem.from_targets(matrix, [1] * matrix.d, prior=[1] * matrix.m)


# --- DistributionVector ---


def test_distribution_exact_and_float_modes():
    exact = DistributionVector((Fraction(1, 3), Fraction(2, 3)))
    assert exact.exact
    assert exact.as_floats() == pytest.approx([1 / 3, 2 / 3])
    loose = DistributionVector((0.3, 0.7))
    assert not loose.exact


def test_distribution_rejects_bad_vectors():
    with pytest.raises(ValueError):
        DistributionVector((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        DistributionVector((0.5, 0.6))
    with pytest.raises(ValueError):
        DistributionVector((Fraction(3, 2), Fraction(-1, 2)))


def test_distribution_rejects_non_finite_entries():
    nan, inf = float("nan"), float("inf")
    for probs in ((nan, nan), (nan, 1.0), (0.5, 0.5, nan), (inf, 0.0), (1.0, inf, -inf), (-inf, 1.0)):
        with pytest.raises(ValueError):
            DistributionVector(probs)
    with pytest.raises(ValueError, match="not a number"):
        DistributionVector((nan, nan))
    with pytest.raises(ValueError, match="negative probability"):
        DistributionVector((nan, -0.5, 1.5))


def test_distribution_float_sum_tolerance():
    third = 1.0 / 3.0
    DistributionVector((third, third, 1.0 - 2.0 * third))


@pytest.mark.parametrize("probs, message", [
    ((), "empty distribution"),
    ((-0.25, 1.25), "negative probability"),
    ((float("nan"), 1.0), "probability is not a number"),
    ((float("nan"), -0.5, 1.5), "negative probability"),
    ((0.5, 0.5 + 2e-12), "distribution sums to 1.000000000002, not 1"),
    ((2.0, -1.0), "negative probability"),
    ((0.0, float("nan"), 1.0), "probability is not a number"),
    ((1.0, 1e-11), "distribution sums to 1.00000000001, not 1"),
])
def test_distribution_array_is_rejected_as_its_tuple(probs, message):
    # the float tuple, its array, a tuple of numpy floats, the tuple with its
    # integral entries as ints, and the exact tuple where its check is the same
    forms = [probs, np.array(probs, dtype=float), tuple(np.array(probs, dtype=float)),
             tuple(int(x) if x.is_integer() else x for x in probs)]
    if all(map(math.isfinite, probs)) and "sums to" not in message:
        forms.append(tuple(map(Fraction, probs)))
    for given in forms:
        with pytest.raises(ValueError) as info:
            DistributionVector(given)
        assert str(info.value) == message


def test_distribution_array_is_accepted_as_its_tuple():
    probs = (0.1, 0.2, 0.3, 0.4 + 5e-13)
    source = np.array(probs)
    from_array, from_tuple = DistributionVector(source), DistributionVector(probs)
    from_numpy_floats = DistributionVector(tuple(source))
    assert from_array == from_tuple == from_numpy_floats
    assert type(from_array.probs) is tuple and not from_array.exact
    mixed = DistributionVector((0, 0.25, 0.75))
    assert mixed == DistributionVector(np.array([0.0, 0.25, 0.75])) and not mixed.exact
    exact = DistributionVector((Fraction(1, 4), Fraction(3, 4)))
    assert exact.probs == (Fraction(1, 4), Fraction(3, 4)) and exact.exact
    source[0] = 0.5
    for p in (from_array, from_tuple, from_numpy_floats, mixed, exact):
        assert "_floats" in vars(p)  # built at construction, not on first use
        assert p.exact or all(type(x) is float for x in p.probs)
        arr = p.to_array()
        assert arr.dtype == np.float64 and not arr.flags.writeable
        assert arr.tolist() == [float(x) for x in p.probs]
        assert p.to_array() is arr
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(ValueError, match="one-dimensional"):
        DistributionVector(np.full((2, 2), 0.25))


def test_distribution_entries_beyond_float_range():
    # a float check cannot hold a huge int; an exact tuple is checked exactly first
    with pytest.raises(ValueError) as info:
        DistributionVector((10**400, 0.5))
    assert str(info.value) == "probabilities are too large for a float"
    big = 10**400
    p = DistributionVector((Fraction(big, big + 1), Fraction(1, big + 1)))
    assert p.exact and p.to_array().tolist() == [1.0, 0.0]


# --- integer kernel ---


def test_kernel_of_independence_model():
    assert integer_kernel_basis(INDEPENDENCE) == ((1, -1, -1, 1),)


def test_kernel_of_cubic_curve():
    assert integer_kernel_basis(CUBIC_CURVE) == ((1, -2, 1, 0), (0, 1, -2, 1))


def test_kernel_full_rank_matrix_is_empty():
    assert integer_kernel_basis(ConstraintMatrix([[1, 0], [0, 1]])) == ()


def test_kernel_vectors_are_integral_normalized_and_complete():
    rng = random.Random(42)
    for _ in range(60):
        d = rng.randint(1, 3)
        m = rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(d)]
        matrix = ConstraintMatrix(rows)
        vectors = integer_kernel_basis(matrix)
        for u in vectors:
            assert all(isinstance(c, int) for c in u)
            assert all(sum(map(mul, row, u)) == 0 for row in rows)
            lead = next(c for c in u if c != 0)
            assert lead > 0
        assert len(vectors) == m - rational_rank(rows)
        if vectors:
            assert rational_rank(vectors) == len(vectors)


# --- toric ideal generators ---


def test_independence_ideal_single_generator():
    gens = toric_ideal_generators(INDEPENDENCE)
    assert len(gens) == 1
    vars = gens[0].vars
    minor = parse_poly("p1*p4 - p2*p3", vars)
    assert gens[0] in (minor, -minor)


def test_cubic_curve_ideal_contains_all_three_minors():
    # lattice-basis binomials alone miss p1*p4 - p2*p3; saturation must add it
    gens = toric_ideal_generators(CUBIC_CURVE)
    vars = gens[0].vars
    gb = buchberger(list(gens), GREVLEX)
    for text in ("p1*p3 - p2^2", "p2*p4 - p3^2", "p1*p4 - p2*p3"):
        assert gb.reduces_to_zero(parse_poly(text, vars))


def test_generators_are_monic_binomials():
    for matrix in (INDEPENDENCE, CUBIC_CURVE, ConstraintMatrix([[1, 1, 1], [0, 1, 2]])):
        for g in toric_ideal_generators(matrix):
            coeffs = sorted(g.terms.values())
            assert coeffs in ([Fraction(-1), Fraction(1)], [Fraction(1)])


def test_generators_vanish_on_the_model_exactly():
    rng = random.Random(3)
    matrices = [INDEPENDENCE, CUBIC_CURVE, ConstraintMatrix([[1, 1, 1, 1], [0, 1, 0, 2]])]
    for matrix in matrices:
        gens = toric_ideal_generators(matrix)
        for _ in range(20):
            theta = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(matrix.d)]
            p = toric_param(matrix, theta)
            assert p.exact
            for g in gens:
                assert g.evaluate(list(p)) == 0


@pytest.mark.parametrize(
    "rows, count",
    [
        # each of these two ran for minutes when pairs were re-keyed on every selection
        ([[1, 0, 3, 4], [3, 2, 3, 3]], None),
        ([[0, 3, 4, 2], [-2, 2, 0, 1]], None),
        # rational normal curve m=7: the C(6, 2) = 15 quadrics
        ([[1] * 7, list(range(1, 8))], 15),
        # these two ran for 13 s and for over 8 s under the lex saturation with an extra variable
        ([[1, 1, 2, 4], [1, 4, 0, 1]], None),
        ([[1, 4, 1, -1, 1], [-1, -2, 4, 3, 0]], None),
        # 23 s when the kernel basis ((62,-26,-30,-51,0), (1564,-656,-757,-1286,-1)) goes in unshortened
        ([[1, 4, 2, -2, -2], [4, 1, 4, 2, 0], [2, 2, -1, 2, 1]], None),
        # rational normal curve m=10: the C(9, 2) = 36 quadrics
        ([[1] * 10, list(range(1, 11))], 36),
        # over 10 s when the lattice basis was only the first identity block in natural
        # order, not the shortened basis and the block with the smallest entries
        ([[0, 4, 3, 1, 1, 2, -2], [-2, 1, 2, 0, 4, 1, -2], [3, 1, -1, 2, 1, -2, 2]], None),
    ],
)
def test_ideal_generators_of_larger_models(rows, count):
    matrix = ConstraintMatrix(rows)
    gens = toric_ideal_generators(matrix)
    if count is not None:
        assert len(gens) == count
    lattice = integer_kernel_basis(matrix)
    rng = random.Random(11)
    # unnormalized points theta^a_j: without an all-ones row in the row space
    # the binomials need not be homogeneous, so toric_param's 1/Z would not cancel
    points = []
    for _ in range(2):
        theta = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(matrix.d)]
        points.append([math.prod(t**a for t, a in zip(theta, matrix.column(j))) for j in range(matrix.m)])
    for g in gens:
        assert sorted(g.terms.values()) == [Fraction(-1), Fraction(1)]
        plus, minus = g.terms
        u = [a - b for a, b in zip(plus, minus)]
        assert rational_rank([*lattice, u]) == len(lattice)
        for point in points:
            assert g.evaluate(point) == 0
    # the lattice-basis binomials lie in the ideal the generators span
    gb = buchberger(list(gens), GREVLEX)
    for v in lattice:
        binomial = Polynomial(gens[0].vars, {tuple(max(x, 0) for x in v): 1, tuple(max(-x, 0) for x in v): -1})
        assert gb.reduces_to_zero(binomial)


def w_elimination_reference(matrix):
    """The toric ideal by the lex elimination the binomial saturation replaced.

    Adjoin ``w`` with ``w*p1*...*pm - 1`` to the lattice-basis binomials,
    take the reduced lex basis with ``w`` most significant, and keep the
    elements free of ``w``.
    """
    pvars = tuple(f"p{j + 1}" for j in range(matrix.m))
    lattice = integer_kernel_basis(matrix)
    if not lattice:
        return ()
    wvars = ("w",) + pvars
    gens = [
        Polynomial(wvars, {(0,) + tuple(max(v, 0) for v in u): 1, (0,) + tuple(max(-v, 0) for v in u): -1})
        for u in lattice
    ]
    gens.append(Polynomial(wvars, {(1,) * (matrix.m + 1): 1, (0,) * (matrix.m + 1): -1}))
    return tuple(
        Polynomial(pvars, {exps[1:]: c for exps, c in g.terms.items()})
        for g in buchberger(gens, LEX).basis
        if all(exps[0] == 0 for exps in g.terms)
    )


def test_saturation_matches_the_w_elimination_text():
    # non-graded cases first: a zero column, no all-ones row in the row space,
    # negative entries; then seed 7, which keeps every reference well under a second
    matrices = [[[1, -1, 0]], [[1, 0, 2], [2, 0, 1]], [[2, 4, 6]], [[1, -2, 0, 3], [2, 1, -1, 0]]]
    rng = random.Random(7)
    for _ in range(40):
        m, d = rng.randint(2, 5), rng.randint(1, 3)
        matrices.append([[rng.randint(-2, 4) for _ in range(m)] for _ in range(d)])
    for rows in matrices:
        matrix = ConstraintMatrix(rows)
        gens = toric_ideal_generators(matrix)
        reference = w_elimination_reference(matrix)
        for order in (GREVLEX, LEX):
            assert [poly_to_text(g, order) for g in gens] == [poly_to_text(g, order) for g in reference], rows


def all_coordinate_saturation_reference(matrix):
    """The toric ideal by saturating the shortened lattice basis by every coordinate.

    The homogenized binomials of the shortened basis of ``ker A`` get one
    grevlex saturation step for each coordinate that occurs, with no identity
    block; a lex Buchberger with the slack set to 1 gives the reduced basis.
    """
    m = matrix.m
    lattice = [u + (-sum(u),) for u in _shorten(integer_kernel_basis(matrix))]
    if not lattice:
        return ()
    gens = [(tuple(max(v, 0) for v in u), tuple(max(-v, 0) for v in u)) for u in lattice]
    for k in range(m):
        if not any(a[k] or b[k] for a, b in gens):
            continue
        order = MonomialOrder("grevlex", tuple(i for i in range(m + 1) if i != k) + (k,))
        saturated = []
        for a, b in _binomial_groebner(gens, order):
            c = min(a[k], b[k])
            saturated.append((a[:k] + (a[k] - c,) + a[k + 1 :], b[:k] + (b[k] - c,) + b[k + 1 :]))
        gens = saturated
    pvars = tuple(f"p{j + 1}" for j in range(m))
    return buchberger([Polynomial(pvars, {a[:m]: 1, b[:m]: -1}) for a, b in gens], LEX).basis


# the ideal shapes of the benchmark corpus: rational normal curves, the die,
# independence models and a 3-row model
BENCHMARK_IDEALS = [
    [[1, 1, 1, 1], [1, 2, 3, 4]],
    [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]],
    [[1, 1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6]],
    [[1, 2, 3, 4, 5, 6]],
    [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
    [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],
    [
        [1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1],
        [1, 0, 0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0, 0, 1],
    ],
    [
        [1, 1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 1, 1],
        [1, 0, 0, 1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1, 0, 0, 1],
    ],
    [
        [1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1],
        [1, 1, 0, 0, 1, 1, 0, 0], [0, 0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1, 0, 1],
    ],
    [[1, 1, 1, 1, 1, 1, 1], [0, 1, 2, 3, 4, 5, 6], [0, 1, 0, 1, 0, 1, 0]],
]


def test_block_saturation_matches_the_all_coordinate_text():
    rng = random.Random(22)
    matrices = list(BENCHMARK_IDEALS)
    for _ in range(40):
        m, d = rng.randint(3, 7), rng.randint(1, 3)
        matrices.append([[rng.randint(-2, 4) for _ in range(m)] for _ in range(d)])
    blocks = []
    for rows in matrices:
        matrix = ConstraintMatrix(rows)
        basis = _shorten(integer_kernel_basis(matrix))
        blocks.append(bool(basis) and bool(_identity_block(matrix, basis)[0]))
        gens = toric_ideal_generators(matrix)
        reference = all_coordinate_saturation_reference(matrix)
        for order in (GREVLEX, LEX):
            assert [poly_to_text(g, order) for g in gens] == [poly_to_text(g, order) for g in reference], rows
    # every benchmark shape has a block; the random draws have matrices with and without one
    assert all(blocks[: len(BENCHMARK_IDEALS)])
    assert set(blocks[len(BENCHMARK_IDEALS) :]) == {True, False}


def test_identity_block_is_an_integer_kernel_basis():
    rng = random.Random(5)
    for _ in range(30):
        m, d = rng.randint(2, 7), rng.randint(1, 3)
        matrix = ConstraintMatrix([[rng.randint(-2, 4) for _ in range(m)] for _ in range(d)])
        basis = integer_kernel_basis(matrix)
        if not basis:
            continue
        block, unit = _identity_block(matrix, basis)
        if not block:
            continue
        assert len(block) == len(unit) == len(basis)
        for i, u in enumerate(unit):
            assert [u[k] for k in block] == [int(i == n) for n in range(len(block))]
            assert all(sum(map(mul, row, u)) == 0 for row in matrix.rows)


@pytest.mark.parametrize(
    "rows, saturations",
    [([[1, 2, 3, 4, 5, 6]], 1)]
    + [([[1] * m, list(range(1, m + 1))], 2) for m in range(4, 11)]
    + [(BENCHMARK_IDEALS[8], 4)],
)
def test_saturation_steps_skip_the_identity_block(monkeypatch, rows, saturations):
    # one grevlex step per coordinate outside the block: rank A of them, not m
    orders = []

    def counted(binomials, order):
        orders.append(order.kind)
        return _binomial_groebner(binomials, order)

    monkeypatch.setattr(toricmaxent.toric, "_binomial_groebner", counted)
    toric_ideal_generators(ConstraintMatrix(rows))
    assert orders.count("grevlex") == saturations


def test_ideal_alphabet_size_limit():
    wide = ConstraintMatrix([list(range(1, 12))])
    with pytest.raises(SizeLimitError):
        toric_ideal_generators(wide)
    # the kernel itself is not size-limited
    assert len(integer_kernel_basis(wide)) == 10


# --- monomial parametrization ---


def test_toric_param_exact_rational():
    p = toric_param(ConstraintMatrix([[0, 1]]), [Fraction(2, 3)])
    assert p.exact
    assert list(p) == [Fraction(3, 5), Fraction(2, 5)]


def test_toric_param_promotes_integer_parameters():
    p = toric_param(ConstraintMatrix([[0, 1]]), [2])
    assert p.exact
    assert list(p) == [Fraction(1, 3), Fraction(2, 3)]


def test_toric_param_with_prior_weights():
    p = toric_param(ConstraintMatrix([[0, 1]]), [Fraction(1)], h=[1, 3])
    assert list(p) == [Fraction(1, 4), Fraction(3, 4)]


def test_toric_param_rejects_non_finite_parameters():
    inf, nan = float("inf"), float("nan")
    line = ConstraintMatrix([[1, 2, 3]])
    for theta in ([inf], [nan], [-inf]):
        with pytest.raises(ValueError, match="theta"):
            toric_param(line, theta)
    for h in ([1, inf, 1], [1.0, 2.0, nan]):
        with pytest.raises(ValueError, match="weights"):
            toric_param(line, [0.5], h)


def test_toric_param_float_input_gives_floats():
    p = toric_param(DICE, [0.9])
    assert not p.exact
    assert sum(p) == pytest.approx(1.0)


def test_toric_param_float_powers_beyond_float_range():
    # theta^6 = 1e600 overflows a float and 1e-600 underflows; the log-weights do
    # not, and their rounding grows with their size (here up to 1400)
    cases = [([1e100], None, [10**100]), ([1e-100], [1, 2, 3, 4, 5, 6.0], [Fraction(1, 10**100)]), ([0.9], None, [Fraction(9, 10)])]
    for theta, h, exact_theta in cases:
        p = toric_param(DICE, theta, h)
        assert not p.exact
        exact = toric_param(DICE, exact_theta, None if h is None else [int(w) for w in h])
        assert list(p) == pytest.approx([float(x) for x in exact], rel=1e-12, abs=0)


def test_toric_param_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        toric_param(DICE, [Fraction(0)])
    with pytest.raises(ValueError):
        toric_param(DICE, [-1.0])


# --- membership verification ---


def test_membership_accepts_model_points():
    rng = random.Random(11)
    for _ in range(20):
        theta = [rng.uniform(0.2, 3.0) for _ in range(INDEPENDENCE.d)]
        p = toric_param(INDEPENDENCE, theta)
        report = verify_model_membership(list(p), INDEPENDENCE)
        assert report.member
        assert report.max_residual <= 1e-12


def test_membership_rejects_off_model_points():
    report = verify_model_membership([0.4, 0.1, 0.1, 0.4], INDEPENDENCE)
    assert not report.member
    assert report.max_residual == pytest.approx(math.log(2))
    assert report.residuals == (pytest.approx(math.log(2)),) * 4


def test_membership_tolerance_is_adjustable():
    assert verify_model_membership([0.4, 0.1, 0.1, 0.4], INDEPENDENCE, tol=0.7).member
    assert not verify_model_membership([0.4, 0.1, 0.1, 0.4], INDEPENDENCE, tol=0.69).member
