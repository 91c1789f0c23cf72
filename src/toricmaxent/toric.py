"""Toric models of integer constraint matrices and their vanishing ideals.

The parametrization map sends positive parameters through the monomials of
an integer matrix.  The toric ideal comes from a lattice basis of the
integer kernel, joined by a basis that is the identity on ``dim ker A``
coordinates where one exists.  Its binomials, homogenized by a slack
coordinate, are saturated one coordinate at a time by the ``rank A``
coordinates outside that identity block, or by all of them when there is
none, with the binomial Buchberger of ``ratpoly`` under grevlex; one
rational Buchberger under lex then gives the reduced basis.  Membership
of a positive point needs no ideal: on the open orthant the model is
log-linear, and the test is a least-squares fit of its logarithms.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, repeat
from operator import index as as_int, lt, mul
from typing import Sequence

import numpy as np

from .errors import SizeLimitError
from .ratpoly import LEX, MonomialOrder, Polynomial, _binomial_groebner, buchberger

__all__ = [
    "ConstraintMatrix",
    "DistributionVector",
    "MembershipReport",
    "toric_param",
    "integer_kernel_basis",
    "toric_ideal_generators",
    "verify_model_membership",
]

MAX_IDEAL_ALPHABET = 10


def _integers(values) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints, exactly.

    A tuple of ``int`` passes one C-level type check; other entries go
    through ``operator.index``, so numpy integers are taken exactly.  A bool,
    a float or any other non-integer raises ``TypeError`` with that entry as
    its argument.
    """
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    ints = []
    for x in values:
        try:
            if isinstance(x, bool):
                raise TypeError
            ints.append(as_int(x))
        except TypeError:
            raise TypeError(x) from None
    return tuple(ints)


def _int_array(rows) -> np.ndarray:
    """One 2-D array of the Python ints in ``rows``, built in one call.

    It is int64 when every entry fits, else an object array of the same
    exact ints.
    """
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


class ConstraintMatrix:
    """Integer d x m matrix; row i is the i-th constraint function on 1..m.

    The entries are held once, checked at construction, as the read-only
    2-D array ``entries``.  It is int64 when every entry fits, else an object
    array of the exact Python ints.  An integer array is copied in one
    ``astype``.  Any other input, such as a list of rows, is checked entry
    by entry, so a bool or a float is rejected, and converted in one
    ``np.array`` call.  The exact path reads ``rows`` and ``column(j)``,
    which are tuples of Python ints built from ``entries`` on first use.
    The numeric path reads ``to_array()``, a float copy also made on first
    use.  Two matrices are equal, and hash alike, when their entries are.
    """

    def __init__(self, rows) -> None:
        if (
            isinstance(rows, np.ndarray)
            and rows.ndim == 2
            and rows.dtype.kind in "iu"  # a bool array casts to int64 too
            and np.can_cast(rows.dtype, np.int64)
        ):
            entries = rows.astype(np.int64)  # a copy: the caller may write to its array later
        else:
            try:
                rows = [_integers(row) for row in rows]
            except TypeError:
                raise ValueError("matrix entries must be integers") from None
            if len({len(row) for row in rows}) > 1:
                raise ValueError("ragged rows")
            entries = _int_array(rows)
        if len(entries) < 1:
            raise ValueError("need at least one constraint row")
        if entries.shape[1] < 2:
            raise ValueError("alphabet size must be at least 2")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows,))

    def __repr__(self) -> str:
        return f"ConstraintMatrix(rows={self.rows!r})"

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.entries.tolist()))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    @cached_property
    def _floats(self) -> np.ndarray:
        try:
            arr = self.entries.astype(float)
        except OverflowError:
            raise ValueError("constraint values are too large for a float") from None
        arr.flags.writeable = False
        return arr

    def to_array(self) -> np.ndarray:
        """The entries as a read-only float array, converted on first use only."""
        return self._floats


def _as_floats(values, what: str) -> np.ndarray:
    """Float array of exact numbers; a value beyond float range is an input error."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} are too large for a float") from None


def _check_weights(weights, m: int) -> None:
    """Reject a prior that is not ``m`` strictly positive, finite weights.

    Weights are compared, never converted, so an exact weight beyond float
    range passes; a float array is checked in one vectorized pass.  Exact
    weights are finite by type.  NaN fails ``0 < w``, so the maximum taken
    after that pass is well-defined.
    """
    if len(weights) != m or getattr(weights, "ndim", 1) != 1:
        raise ValueError("prior length does not match alphabet size")
    if isinstance(weights, np.ndarray):
        valid = bool(((weights > 0) & (weights < math.inf)).all())
    else:
        valid = all(map(lt, repeat(0), weights)) and (_exact(weights) or max(weights) < math.inf)
    if not valid:
        raise ValueError("prior weights must be strictly positive and finite")


def _prior_floats(matrix: ConstraintMatrix, prior: Sequence | None) -> np.ndarray:
    """Float weights ``h`` of a prior on the alphabet; unit weights when omitted."""
    if prior is None:
        return np.ones(matrix.m)
    h = _as_floats(prior, "prior weights")
    _check_weights(h, matrix.m)
    return h


def _exact_weights(matrix: ConstraintMatrix, prior: Sequence | None) -> list[Fraction]:
    """Exact weights ``h`` of a prior on the alphabet; unit weights when omitted."""
    if prior is None:
        return [Fraction(1)] * matrix.m
    _check_weights(prior, matrix.m)
    return [Fraction(w) for w in prior]


def _normalize(logw: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-subtracted softmax of log-weights: ``(exp(logw) / Z, ln Z)``."""
    peak = logw.max()
    w = np.exp(logw - peak)
    total = w.sum()
    return w / total, float(peak + math.log(total))


def _exact(probs: tuple) -> bool:
    """Whether every entry is an exact rational, an ``int`` or a ``Fraction``."""
    return all(issubclass(kind, (int, Fraction)) for kind in set(map(type, probs)))


@dataclass(frozen=True)
class DistributionVector:
    """Point of the probability simplex; float or exact rational entries.

    A tuple of exact rationals (``int`` or ``Fraction``) is checked exactly
    and stays exact.  Any other input, a tuple with a float entry or a 1-D
    float array, is copied to a float array and checked in vectorized
    passes, and its entries become the Python floats of ``probs``.  Either
    way the float array is built once, at construction, and kept read-only
    for :meth:`to_array`.
    """

    probs: tuple

    def __post_init__(self) -> None:
        probs = self.probs if isinstance(self.probs, np.ndarray) else tuple(self.probs)
        if isinstance(probs, tuple) and _exact(probs):
            if not probs:
                raise ValueError("empty distribution")
            if any(map(lt, probs, repeat(0))):
                raise ValueError("negative probability")
            total = sum(probs)
            if total != 1:
                raise ValueError(f"exact distribution sums to {total}, not 1")
            arr = _as_floats(probs, "probabilities")
        else:
            arr = _as_floats(probs, "probabilities")
            if arr is probs:  # keep a copy: the caller may write to its array later
                arr = arr.copy()
            if arr.ndim != 1:
                raise ValueError("distribution array must be one-dimensional")
            if not arr.size:
                raise ValueError("empty distribution")
            # one pass: NaN fails ``>= 0`` as a negative entry does; +inf fails the sum
            if not (arr >= 0).all():
                raise ValueError("negative probability" if (arr < 0).any() else "probability is not a number")
            # left to right over Python floats: the total a tuple of the same floats has
            probs = arr.tolist()
            total = sum(probs)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"distribution sums to {total!r}, not 1")
            probs = tuple(probs)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_floats", arr)

    @property
    def exact(self) -> bool:
        return _exact(self.probs)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.probs)

    def to_array(self) -> np.ndarray:
        """The entries as a read-only float array, built at construction."""
        return self._floats

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __getitem__(self, j):
        return self.probs[j]


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    max_residual: float
    residuals: tuple[float, ...]


def toric_param(matrix: ConstraintMatrix, theta: Sequence, h: Sequence | None = None) -> DistributionVector:
    """Normalized monomial parametrization ``p_j = h_j * prod_i theta_i^a_ij / Z``.

    Exact when ``theta`` and ``h`` are rational; float otherwise, computed
    from log-weights so that no power overflows.  All parameters must be
    strictly positive and finite.
    """
    if len(theta) != matrix.d:
        raise ValueError("theta length does not match matrix rows")
    if any(not 0 < t < math.inf for t in theta):
        raise ValueError("theta must be strictly positive and finite")
    if not all(isinstance(x, (int, Fraction)) for x in (*theta, *(() if h is None else h))):
        logw = np.log(_prior_floats(matrix, h)) + np.log(_as_floats(theta, "parameters")) @ matrix.to_array()
        return DistributionVector(_normalize(logw)[0])
    theta = [Fraction(t) for t in theta]
    h = _exact_weights(matrix, h)
    weights = []
    for j in range(matrix.m):
        w = h[j]
        for i in range(matrix.d):
            e = matrix.rows[i][j]
            if e:
                w = w * theta[i] ** e
        weights.append(w)
    total = sum(weights)
    return DistributionVector(tuple(w / total for w in weights))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with x*a + y*b == g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_kernel_basis(matrix: ConstraintMatrix) -> tuple[tuple[int, ...], ...]:
    """Basis vectors of ``{u integer : A u = 0}`` via unimodular column reduction.

    The count of basis vectors equals ``m - rank(A)``; each vector's first
    nonzero entry is positive.
    """
    d, m = matrix.d, matrix.m
    work = [list(row) for row in matrix.rows]
    tracker = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    col = 0
    for r in range(d):
        if col == m:
            break
        pivot = next((c for c in range(col, m) if work[r][c]), None)
        if pivot is None:
            continue
        if pivot != col:
            for mat in (work, tracker):
                for row in mat:
                    row[col], row[pivot] = row[pivot], row[col]
        for c in range(col + 1, m):
            b = work[r][c]
            if b == 0:
                continue
            a = work[r][col]
            g, x, y = _xgcd(a, b)
            pa, pb = a // g, b // g
            for mat in (work, tracker):
                for row in mat:
                    u, v = row[col], row[c]
                    row[col] = x * u + y * v
                    row[c] = -pb * u + pa * v
        if work[r][col] < 0:
            for mat in (work, tracker):
                for row in mat:
                    row[col] = -row[col]
        col += 1

    vectors = []
    for c in range(col, m):
        vec = tuple(tracker[i][c] for i in range(m))
        if any(sum(row[j] * vec[j] for j in range(m)) for row in matrix.rows):
            raise AssertionError("kernel reduction produced a non-kernel column")
        lead = next(v for v in vec if v)
        if lead < 0:
            vec = tuple(-v for v in vec)
        vectors.append(vec)
    return tuple(vectors)


def _shorten(vectors: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Pairwise-reduced basis of the lattice that ``vectors`` span.

    Subtract from a vector the nearest integer multiple of another while
    that shortens it, until no such step is left.  Each step lowers an
    integer squared length, so the loop ends.
    """
    basis = list(vectors)
    changed = True
    while changed:
        changed = False
        for i, j in permutations(range(len(basis)), 2):
            u, v = basis[i], basis[j]
            vv = sum(x * x for x in v)
            q = (2 * sum(map(mul, u, v)) + vv) // (2 * vv)  # nearest integer to <u,v>/<v,v>
            w = tuple(x - q * y for x, y in zip(u, v))
            if q and sum(x * x for x in w) < sum(x * x for x in u):
                basis[i] = w
                changed = True
    return basis


def _identity_block(matrix: ConstraintMatrix, basis: Sequence[tuple[int, ...]]):
    """Coordinates ``B`` and a basis ``U`` of ``ker A`` that is the identity on ``B``.

    ``basis`` spans the integer kernel; it has ``r`` vectors.  Every set ``B``
    of ``r`` coordinates whose ``r x r`` minor of ``basis`` has determinant
    +-1 gives one such ``U``, the basis times the inverse of that minor.  Of
    all of them the one whose entries have the smallest absolute sum is
    returned, since short binomials make cheap Buchberger runs.

    ``((), [])`` when no minor is unimodular, or when that sum exceeds four
    times the sum over ``basis``.  In seeded random probes such heavy blocks
    saved little where they helped, and made some saturations several times
    slower, one from 0.4 s to over 20 s.

    The minors are found and inverted in floating point, in one batch; the
    chosen ``U`` is then checked exactly: integer rows in ``ker A``, the
    identity on ``B``.  Such rows are a basis of ``ker A``, whatever
    rounding picked them, since a kernel vector ``u`` is the combination of
    the rows with the integer weights ``u_B``.

    The die's basis projects unimodularly onto every coordinate but the
    first, so only ``p1`` is left to saturate:

    >>> die = ConstraintMatrix([[1, 2, 3, 4, 5, 6]])
    >>> block, unit = _identity_block(die, integer_kernel_basis(die))
    >>> block
    (1, 2, 3, 4, 5)
    >>> unit[0]
    (-2, 1, 0, 0, 0, 0)
    """
    r, m = len(basis), matrix.m
    try:
        vectors = np.array(basis, dtype=float)
    except OverflowError:
        return (), []
    blocks = np.array(list(combinations(range(m), r)))
    minors = vectors[:, blocks].transpose(1, 0, 2)
    with np.errstate(all="ignore"):
        unimodular = np.abs(np.abs(np.linalg.det(minors)) - 1) < 0.5
        if not unimodular.any():
            return (), []
        # a 2-D right-hand side is a stack of vectors to numpy 1.x, so give it the stack's shape
        stacked = np.broadcast_to(vectors, (unimodular.sum(), r, m))
        units = np.rint(np.linalg.solve(minors[unimodular], stacked))
    weights = np.abs(units).sum(axis=(1, 2))
    best = int(weights.argmin())
    if not weights[best] <= 4 * np.abs(vectors).sum():  # also when it is infinite or NaN
        return (), []
    block = tuple(blocks[unimodular][best].tolist())
    unit = [tuple(map(int, u)) for u in units[best].tolist()]
    identity = all(u[k] == (i == n) for i, u in enumerate(unit) for n, k in enumerate(block))
    if not identity or any(sum(map(mul, row, u)) for row in matrix.rows for u in unit):
        return (), []
    return block, unit


def toric_ideal_generators(matrix: ConstraintMatrix) -> tuple[Polynomial, ...]:
    """Reduced lex generators of the toric ideal of ``A`` in variables ``p1..pm``.

    Returns the monic binomials of the reduced basis in ascending order of
    leading terms; ``()`` when the kernel of ``A`` is zero.

    The ideal is the saturation of a lattice-basis ideal by the product of
    the coordinates, computed on binomials one coordinate at a time
    (Sturmfels, *Groebner Bases and Convex Polytopes*, Lemma 12.1 and
    Algorithm 12.3; Hosten and Sturmfels, GRIN, IPCO 1995; Bigatti, La
    Scala and Robbiano, JSC 1999):

    - *Lattice basis.*  Shorten the lattice basis of ``ker A`` pairwise into
      ``S``.  Short vectors make low-degree binomials: the unshortened
      basis, or the basis of the lifted matrix, can have entries in the
      hundreds and saturations that run for minutes.  Where ``ker A`` has a
      basis ``U`` that is the identity on a set ``B`` of ``r = dim ker A``
      coordinates (:func:`_identity_block`), take ``S`` and ``U`` together.
    - *Homogenize.*  Extend each vector ``u`` by a slack coordinate ``t``
      with entry ``-sum(u)``.  This gives vectors of ``ker [1 ... 1 1; A 0]``,
      whose binomials are homogeneous for every ``A``: graded, with negative
      entries or with zero columns alike.  Setting ``t = 1`` maps them back
      onto ``ker A``.
    - *Saturate one coordinate at a time.*  For each ``p_k`` outside ``B``
      that occurs in a generator, compute a binomial Groebner basis under
      grevlex with ``p_k`` least significant and divide every element by its
      power of ``p_k``.  For a homogeneous ideal the result is a Groebner
      basis of the saturation by ``p_k``.  ``t`` needs no step, since setting
      ``t = 1`` maps an ideal and its saturation by ``t`` to the same ideal.
      Without a block ``B`` is empty, and every coordinate gets its step.
    - *Finish in lex.*  Set ``t = 1`` and run :func:`buchberger` under lex
      once.  It returns the unique reduced basis.  It is quick from a
      grevlex basis whose last step was by ``p_m``, the least variable in
      lex, as the loop leaves it when ``p_m`` is not in ``B``.  When it is,
      the last step is by another coordinate, and from such a basis the
      rational Buchberger ran for minutes on an m = 8 matrix that the
      all-coordinate loop finishes in about 7 s.  So then
      :func:`_binomial_groebner` first computes the lex basis on
      binomials, and :func:`buchberger` gets that basis.

    The coordinates in ``B`` need no step.  Let ``L = ker A`` and
    ``u = u+ - u-`` in ``L``.  Since ``U`` is the identity on ``B``,
    ``u = sum_i u_(B_i) U_i``: a walk from ``u+`` to ``u-`` by
    ``|u_(B_i)|`` steps of ``-sign(u_(B_i)) U_i`` for each ``i``.  Only the
    steps by ``U_i`` change coordinate ``B_i``, each by the same sign, so
    along the walk it stays between its end values, which are
    non-negative.  A coordinate outside ``B``, the slack among them, may go
    negative, but after multiplying the walk by a high enough power ``x^c``
    of the coordinates outside ``B`` it does not.  Each step is then a
    multiple of a binomial of ``U``, so ``x^c (x^(u+) - x^(u-))`` lies in
    ``I_U``, and ``I_U`` saturated by the coordinates outside ``B``
    contains ``I_L``.  It lies inside ``I_L``, which is saturated, so the
    two are equal.  ``I_U`` lies inside ``I_(S+U)`` and ``I_(S+U)`` inside
    ``I_L``, so the same saturation of ``I_(S+U)`` is ``I_L`` too.
    """
    if matrix.m > MAX_IDEAL_ALPHABET:
        raise SizeLimitError(
            f"alphabet size {matrix.m} exceeds the exact-ideal limit {MAX_IDEAL_ALPHABET}"
        )
    m = matrix.m
    basis = _shorten(integer_kernel_basis(matrix))
    if not basis:
        return ()
    block, unit = _identity_block(matrix, basis)

    lattice = [u + (-sum(u),) for u in basis + unit]
    gens = [(tuple(max(v, 0) for v in u), tuple(max(-v, 0) for v in u)) for u in lattice]
    for k in range(m):
        if k in block or not any(a[k] or b[k] for a, b in gens):
            continue
        order = MonomialOrder("grevlex", tuple(i for i in range(m + 1) if i != k) + (k,))
        saturated = []
        for a, b in _binomial_groebner(gens, order):
            c = min(a[k], b[k])
            saturated.append((a[:k] + (a[k] - c,) + a[k + 1 :], b[:k] + (b[k] - c,) + b[k + 1 :]))
        gens = saturated
    gens = [(a[:m], b[:m]) for a, b in gens]
    if m - 1 in block:
        gens = _binomial_groebner(gens, LEX)
    pvars = tuple(f"p{j + 1}" for j in range(m))
    polys = [Polynomial(pvars, {a: 1, b: -1}) for a, b in gens]
    return buchberger(polys, LEX).basis


def verify_model_membership(
    p: Sequence, matrix: ConstraintMatrix, tol: float = 1e-9, prior: Sequence | None = None
) -> MembershipReport:
    """Log-linear membership test on the prior-weighted model of ``matrix``.

    A point is on the model exactly when every ``p_j > 0`` and
    ``log(p_j / h_j)`` lies in the row space of the matrix with an all-ones
    row adjoined.  The residuals are the absolute per-symbol errors of the
    least-squares fit of ``log(p / h)`` in that row space, so rescaling ``p``
    or ``h`` leaves them unchanged.  A zero entry has no logarithm: it is
    left out of the fit, reads residual 0, and puts the point off the model.
    """
    point = _as_floats(p, "probabilities")
    if point.shape != (matrix.m,):
        raise ValueError("distribution length does not match alphabet size")
    h = _prior_floats(matrix, prior)
    positive = point > 0
    lifted = np.vstack([np.ones(matrix.m), matrix.to_array()]).T * positive[:, None]
    log_ratio = np.log(np.where(positive, point, h) / h)
    coef = np.linalg.lstsq(lifted, log_ratio, rcond=None)[0]
    residuals = tuple(float(r) for r in np.abs(lifted @ coef - log_ratio))
    max_residual = max(residuals)
    return MembershipReport(bool(positive.all()) and max_residual <= tol, max_residual, residuals)
