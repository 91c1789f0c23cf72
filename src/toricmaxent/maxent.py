"""Maximum-entropy and minimum-divergence fitting over finite alphabets.

Numeric fitting runs in floating point: generalized iterative scaling and a
damped Newton iteration on the dual.  The model is toric, ``p_j = h_j
theta^(a_j) / Z``, so on alphabets of 256 symbols or more whose columns
span at most ``m / 2`` keys, both iterate over the distinct columns of the
matrix with the summed prior weight of each, and the fitted ``p`` is
expanded over the whole alphabet once, at the end.

The algebraic path builds exact polynomial systems whose positive roots are
the fitted parameters after the exponential change of variables, and solves
them with the in-package Groebner engine plus exact univariate root
isolation, which runs in integer arithmetic (one Sturm chain with integer
coefficients per eliminant, which also yields its square-free part, and
bisection on integers over a common denominator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    InfeasibleMomentsError,
    RankDeficiencyError,
    SizeLimitError,
    UnsupportedStructureError,
)
from .ratpoly import LEX, Polynomial, _reject_laurent, buchberger, laurent_clear
from .toric import (
    ConstraintMatrix,
    DistributionVector,
    _as_floats,
    _check_weights,
    _exact_weights,
    _integers,
    _normalize,
    _prior_floats,
)

__all__ = [
    "DEFAULT_TOL",
    "SampleData",
    "MaxEntProblem",
    "FitResult",
    "PolySystem",
    "shannon_entropy",
    "kl_divergence",
    "model_distribution",
    "moments",
    "sample_sums",
    "direct_system",
    "dual_system",
    "dual_objective",
    "fit_numeric",
    "fit_algebraic",
    "solve_algebraic",
]

DEFAULT_TOL = 1e-10
DIVERGENCE_BOUND = 40.0
GIS_MAX_ITER = 10_000
NEWTON_MAX_ITER = 100
MAX_SOLVE_VARIABLES = 3
MAX_SOLVE_DEGREE = 8
ROOT_WIDTH = Fraction(1, 10**12)


@dataclass(frozen=True)
class SampleData:
    """Observed symbols (1-based values in 1..m) with their constraint sums."""

    observations: tuple[int, ...]
    count: int
    sums: tuple[int, ...]


@dataclass(frozen=True)
class MaxEntProblem:
    """A constraint matrix with either moment targets or raw samples.

    ``prior`` holds positive reference weights (unit weights when omitted;
    only their ratios matter).  The polynomial systems of a problem are in
    the parameters ``t1..td``, one per constraint row.
    """

    matrix: ConstraintMatrix
    targets: tuple | None = None
    samples: SampleData | None = None
    prior: tuple | None = None

    def __post_init__(self) -> None:
        if (self.targets is None) == (self.samples is None):
            raise ValueError("provide exactly one of targets or samples")
        if self.targets is not None:
            targets = tuple(self.targets)
            if len(targets) != self.matrix.d:
                raise ValueError("target length does not match constraint count")
            # exact targets stay exact at any size; a float one must be finite
            if not all(math.isfinite(t) for t in targets if isinstance(t, (float, np.floating))):
                raise ValueError("targets must be finite")
            object.__setattr__(self, "targets", targets)
        if self.prior is not None:
            prior = tuple(self.prior)
            _check_weights(prior, self.matrix.m)
            object.__setattr__(self, "prior", prior)

    @classmethod
    def from_targets(cls, matrix: ConstraintMatrix, targets: Sequence, prior: Sequence | None = None) -> "MaxEntProblem":
        return cls(matrix, targets=tuple(targets), prior=None if prior is None else tuple(prior))

    @classmethod
    def from_samples(cls, matrix: ConstraintMatrix, observations: Sequence[int], prior: Sequence | None = None) -> "MaxEntProblem":
        data = sample_sums(observations, matrix)
        return cls(matrix, samples=data, prior=None if prior is None else tuple(prior))

    @property
    def d(self) -> int:
        return self.matrix.d

    @property
    def m(self) -> int:
        return self.matrix.m

    def target_values(self) -> tuple:
        """Moment targets; exact fractions ``sums/count`` in empirical mode."""
        if self.targets is not None:
            return self.targets
        data = self.samples
        return tuple(Fraction(s, data.count) for s in data.sums)


@dataclass(frozen=True)
class FitResult:
    """Fitted multipliers and distribution.

    ``xi`` are the exponential-family parameters (``p_j`` proportional to
    ``h_j * exp(-sum_i xi_i t_i(j))``); ``xi_empirical`` is ``xi / N`` when
    the fit came from samples.
    """

    xi: tuple[float, ...]
    p: DistributionVector
    log_z: float
    residual: float
    iterations: int
    solver: str
    xi_empirical: tuple[float, ...] | None = None


@dataclass(frozen=True)
class PolySystem:
    """Polynomial stationarity system in the fitted parameters.

    ``equations`` are ordinary polynomials (denominators cleared).  Dual
    systems also carry the raw Laurent ``gradient`` and the Laurent
    ``objective`` they differentiate.  ``provenance`` is one of ``direct``,
    ``dual``, ``dual-empirical``.
    """

    equations: tuple[Polynomial, ...]
    provenance: str
    gradient: tuple[Polynomial, ...] | None = None
    objective: Polynomial | None = None

    def __post_init__(self) -> None:
        if self.provenance not in ("direct", "dual", "dual-empirical"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not self.equations:
            raise ValueError("empty system")
        names = self.equations[0].vars
        for eq in self.equations:
            if eq.vars != names:
                raise ValueError("equations over different variable lists")

    @property
    def variables(self) -> tuple[str, ...]:
        return self.equations[0].vars


def shannon_entropy(p: Sequence) -> float:
    """Entropy ``-sum p_j ln p_j`` in nats, with ``0 ln 0 = 0``."""
    # the divergence from unit weights negated, bit for bit: rounding is symmetric
    # under negation, and ``0.0 -`` keeps ``+0.0`` where the running sum is zero
    return 0.0 - kl_divergence(p, [1.0] * len(p))


def kl_divergence(p: Sequence, h: Sequence) -> float:
    """Divergence ``sum p_j ln(p_j / h_j)``; requires ``h > 0`` on the support of ``p``."""
    if len(p) != len(h):
        raise ValueError("distributions have different lengths")
    total = 0.0
    for x, y in zip(p, h):
        x, y = float(x), float(y)
        if x < 0:
            raise ValueError("negative probability")
        if x > 0:
            if y <= 0:
                raise ValueError("reference must be positive wherever p is")
            total += x * math.log(x / y)
    return total


def model_distribution(
    matrix: ConstraintMatrix, xi: Sequence[float], prior: Sequence | None = None
) -> tuple[DistributionVector, float]:
    """Exponential-family distribution for multipliers ``xi``.

    Returns ``(p, log_z)`` where ``p_j = h_j exp(-sum_i xi_i t_i(j)) / Z``
    and ``log_z = ln Z``; the normalizer is computed with max-subtraction
    and never cached.
    """
    arr = matrix.to_array()
    xi = _as_floats(xi, "multipliers")
    if xi.shape != (matrix.d,):
        raise ValueError("xi length does not match constraint count")
    p, log_z = _normalize(np.log(_prior_floats(matrix, prior)) - xi @ arr)
    return DistributionVector(p), log_z


def moments(matrix: ConstraintMatrix, p: Sequence) -> tuple[float, ...]:
    """Constraint expectations ``A @ p``."""
    vec = _as_floats(p, "probabilities")
    if vec.shape != (matrix.m,):
        raise ValueError("distribution length does not match alphabet size")
    return tuple(float(v) for v in matrix.to_array() @ vec)


def sample_sums(observations: Sequence[int], matrix: ConstraintMatrix) -> SampleData:
    """Exact integer constraint sums of a sample of symbols from 1..m.

    An observation must be an integer: a float or a bool is rejected, not
    truncated.  The sampled columns of ``matrix.entries`` are summed as
    Python ints, so no sum overflows.
    """
    try:
        obs = _integers(observations)
    except TypeError as exc:
        raise ValueError(f"observation {exc.args[0]!r} is not an integer") from None
    if not obs:
        raise ValueError("empty sample")
    if not (1 <= min(obs) and max(obs) <= matrix.m):
        bad = next(o for o in obs if not 1 <= o <= matrix.m)
        raise ValueError(f"observation {bad} outside 1..{matrix.m}")
    index = [o - 1 for o in obs]
    sums = tuple(map(sum, matrix.entries[:, index].tolist()))
    return SampleData(obs, len(obs), sums)


def _laurent_sum(d: int, terms) -> Polynomial:
    """Laurent polynomial in ``t1..td`` summing the ``(exponents, coefficient)`` pairs."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in terms:
        acc[exps] = acc.get(exps, 0) + coeff
    return Polynomial(tuple(f"t{i + 1}" for i in range(d)), acc, laurent=True)


def direct_system(matrix: ConstraintMatrix, targets: Sequence, prior: Sequence | None = None) -> PolySystem:
    """Moment-matching system in the primal parameters ``t_k = exp(-xi_k)``.

    Equation i collects ``h_j (t_i(j) - T_i) prod_k t_k^t_k(j)`` over the
    alphabet; targets may be any rationals.  Denominators are cleared, so the
    equations are ordinary polynomials in ``t1..td`` and their positive roots
    are exactly the fitted parameters.
    """
    d = matrix.d
    T = [Fraction(t) for t in targets]
    if len(T) != d:
        raise ValueError("target length does not match constraint count")
    h = _exact_weights(matrix, prior)
    columns = [matrix.column(j) for j in range(matrix.m)]
    equations = []
    for row, t in zip(matrix.rows, T):
        raw = _laurent_sum(d, zip(columns, (w * (a - t) for w, a in zip(h, row))))
        equations.append(laurent_clear(raw)[1])
    return PolySystem(tuple(equations), "direct")


def dual_system(matrix: ConstraintMatrix, targets, prior: Sequence | None = None) -> PolySystem:
    """Stationarity system of the Laurent dual objective in ``t1..td``.

    With integer targets the objective is ``sum_j h_j prod_i t_i^(T_i -
    t_i(j))`` in ``t_i = exp(xi_i)``.  Passing :class:`SampleData` instead
    builds the empirical variant with exponents ``sigma_i - N t_i(j)`` in
    ``t_i = exp(xi_i / N)``, which needs no integrality of the moment
    targets; integer targets are the case ``sigma = T``, ``N = 1``.
    Equations are the cleared partials; the raw Laurent gradient and
    objective ride along.
    """
    d = matrix.d
    h = _exact_weights(matrix, prior)
    if isinstance(targets, SampleData):
        if len(targets.sums) != d:
            raise ValueError("sample sums do not match constraint count")
        sums, count, provenance = targets.sums, targets.count, "dual-empirical"
    else:
        T = [Fraction(t) for t in targets]
        if len(T) != d:
            raise ValueError("target length does not match constraint count")
        if any(t.denominator != 1 for t in T):
            raise ValueError(
                "dual integer mode needs integer targets; build the system "
                "from samples for the empirical variant"
            )
        sums, count, provenance = [int(t) for t in T], 1, "dual"
    exponents = (tuple(s - count * a for s, a in zip(sums, matrix.column(j))) for j in range(matrix.m))
    objective = _laurent_sum(d, zip(exponents, h))
    gradient = tuple(objective.differentiate(k) for k in range(d))
    cleared = tuple(laurent_clear(g)[1] for g in gradient)
    return PolySystem(cleared, provenance, gradient=gradient, objective=objective)


def dual_objective(system: PolySystem, theta: Sequence) -> float:
    """Value of the Laurent dual objective at a positive point."""
    if system.objective is None:
        raise ValueError("system carries no dual objective")
    if any(not t > 0 for t in theta):
        raise ValueError("theta must be strictly positive")
    return float(system.objective.evaluate([float(t) for t in theta]))


# Below this many symbols a solver iteration costs the same whatever the
# number of columns, so merging equal columns cannot repay the keying.
_CLASS_MIN_M = 256


def _column_classes(arr: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct columns ``C`` of ``arr`` in lexicographic order, and the summed weight ``H`` of each.

    Symbols with the same column share ``theta^(a_j)``, so they enter every
    moment and the normalizer only through the sum of their weights.  A
    column's mixed-radix key ``radix @ (a_j - min)`` ranks it lexicographically;
    the weights are binned by key, in alphabet order, and the classes decoded
    from the keys present.  The weights are summed relative to the largest,
    since only their ratios matter and a sum of weights near float range
    would overflow.  Only a key range of at most ``m / 2`` is binned, so that
    merging at least halves the columns; beyond it ``(arr, h)`` come back as
    they are, at the cost of one min and max per row.
    """
    d, m = arr.shape
    mins = arr.min(axis=1)
    spans = (arr.max(axis=1) - mins + 1).tolist()
    size = math.prod(spans)
    if 2 * size > m:
        return arr, h
    radix = [1] * d
    for i in range(d - 1, 0, -1):
        radix[i - 1] = radix[i] * int(spans[i])
    keys = np.dot(np.array(radix, dtype=float), arr - mins[:, None]).astype(np.intp)
    # a class whose weights are all far below the largest may sum to zero
    present = np.bincount(keys, minlength=int(size)).nonzero()[0]
    sums = np.bincount(keys, weights=h / h.max(), minlength=int(size))
    digits = present // np.array(radix)[:, None] % np.array(spans, dtype=np.intp)[:, None]
    return digits + mins[:, None], sums[present]


def _fit_gis(columns, weights, targets, tol, max_iter):
    """GIS on the columns ``columns`` (d x K) weighted by ``weights``; returns ``(xi, iterations)``."""
    d = len(columns)
    mins = columns.min(axis=1)
    shifted = columns - mins[:, None]
    shifted_targets = targets - mins
    col_sums = shifted.sum(axis=0)
    cap = col_sums.max()

    log_weights = np.log(weights)
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
        p, _ = _normalize(log_weights + eta @ shifted + eta_slack * slack)
        if np.max(np.abs(columns @ p - targets)) <= tol:
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


def _fit_newton(columns, weights, targets, tol, max_iter):
    """Damped Newton on the columns ``columns`` (d x K) weighted by ``weights``; returns ``(xi, iterations)``."""
    d = len(columns)
    log_weights = np.log(weights)
    xi = np.zeros(d)
    p, log_z = _normalize(log_weights)
    for iteration in range(max_iter):
        mom = columns @ p
        gap = mom - targets
        if np.max(np.abs(gap)) <= tol:
            return xi, iteration
        centered = columns - mom[:, None]
        cov = (centered * p) @ centered.T
        try:
            step = np.linalg.solve(cov, gap)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)):
            # singular at the start means dependent rows; later singularity
            # comes from the mass collapsing onto a face of the polytope
            if iteration == 0:
                raise RankDeficiencyError(
                    "singular moment covariance; remove dependent constraints"
                )
            raise InfeasibleMomentsError("multipliers diverged; moments are not attainable")
        value = log_z + float(xi @ targets)
        slope = float(gap @ step)
        # when the decrease Armijo asks for is below the float resolution of
        # the dual value, the test only compares rounding noise: take the
        # full Newton step instead of halving it away
        resolvable = value - 1e-4 * slope < value
        alpha = 1.0
        while True:
            trial = xi + alpha * step
            trial_p, trial_log_z = _normalize(log_weights - trial @ columns)
            if not resolvable or trial_log_z + float(trial @ targets) <= value - 1e-4 * alpha * slope:
                break
            alpha *= 0.5
            if alpha < 2**-30:
                break
        xi, p, log_z = trial, trial_p, trial_log_z
        if np.max(np.abs(xi)) > DIVERGENCE_BOUND:
            raise InfeasibleMomentsError("multipliers diverged; moments are not attainable")
    raise InfeasibleMomentsError(f"Newton iteration did not converge in {max_iter} iterations")


def fit_numeric(
    problem: MaxEntProblem,
    solver: str = "newton",
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> FitResult:
    """Fit the multipliers numerically.

    From 256 symbols on, when the columns span at most ``m / 2`` mixed-radix
    keys, both solvers iterate over the distinct columns of the matrix, each
    weighted by the summed prior of its symbols, so an iteration costs time
    in the number of distinct columns, at most ``m / 2``, not in ``m``.
    Otherwise they iterate over the symbols.  The fitted ``p`` is expanded
    over the alphabet once, by :func:`model_distribution`.

    Parameters
    ----------
    problem : MaxEntProblem
        Constraints plus targets or samples.
    solver : str
        ``"gis"`` for generalized iterative scaling (features are shifted
        nonnegative and padded with a slack feature so their sum is
        constant), or ``"newton"`` for a damped Newton iteration using the
        feature covariance as Jacobian with backtracking on the dual value.
    tol : float
        Convergence threshold on the max-norm moment residual.
    max_iter : int, optional
        Iteration cap; defaults to 10000 for GIS and 100 for Newton.

    Raises
    ------
    ValueError
        When ``tol`` is not positive and finite, ``max_iter`` is below 1,
        or the solver is unknown.
    InfeasibleMomentsError
        When the iteration diverges or the cap is reached, which diagnoses
        targets on or outside the moment polytope.
    RankDeficiencyError
        When the covariance is singular from the start (dependent rows).
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    arr = problem.matrix.to_array()
    h = _prior_floats(problem.matrix, problem.prior)
    targets = _as_floats(problem.target_values(), "targets")
    columns, weights = (arr, h) if problem.m < _CLASS_MIN_M else _column_classes(arr, h)
    if solver == "gis":
        xi, iterations = _fit_gis(columns, weights, targets, tol, max_iter or GIS_MAX_ITER)
    elif solver == "newton":
        xi, iterations = _fit_newton(columns, weights, targets, tol, max_iter or NEWTON_MAX_ITER)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return _package_fit(problem, arr, h, targets, np.asarray(xi), iterations, solver)


def _package_fit(problem, arr, h, targets, xi, iterations, solver) -> FitResult:
    p, log_z = model_distribution(problem.matrix, xi, h)
    residual = float(np.max(np.abs(arr @ p.to_array() - targets)))
    xi_empirical = None
    if problem.samples is not None:
        xi_empirical = tuple(float(v) / problem.samples.count for v in xi)
    return FitResult(
        xi=tuple(float(v) for v in xi),
        p=p,
        log_z=log_z,
        residual=residual,
        iterations=iterations,
        solver=solver,
        xi_empirical=xi_empirical,
    )


def fit_algebraic(problem: MaxEntProblem) -> FitResult:
    """Fit by solving the direct polynomial system exactly.

    Builds the moment-matching system with exact rational targets, takes its
    positive roots, and maps the unique solution back through
    ``xi_k = -ln theta_k``.
    """
    targets = [Fraction(t) for t in problem.target_values()]
    system = direct_system(problem.matrix, targets, problem.prior)
    solutions = solve_algebraic(system)
    if not solutions:
        raise InfeasibleMomentsError("direct system has no positive solution")
    theta = solutions[0]
    # 0.0 - ln 1 is 0.0, where -ln 1 would be -0.0 and print as -0
    xi = np.array([0.0 - math.log(float(t)) for t in theta])
    arr = problem.matrix.to_array()
    h = _prior_floats(problem.matrix, problem.prior)
    return _package_fit(problem, arr, h, _as_floats(targets, "targets"), xi, 0, "groebner")


# ---------------------------------------------------------------------------
# exact univariate real-root isolation in integer arithmetic (Sturm chains +
# bisection).  Polynomials are lists of ints, coefficients low to high.  Each
# one is a positive multiple of its rational counterpart, which keeps every
# sign the isolation tests, and a point is an integer over a positive
# denominator.


def _upoly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _upoly_derivative(c: Sequence[int]) -> list[int]:
    return [i * c[i] for i in range(1, len(c))]


def _primitive(c: list[int]) -> list[int]:
    """A nonzero ``c`` divided by the gcd of its coefficients, a positive factor."""
    g = math.gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _upoly_prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of ``a`` by a nonzero ``b``, times a power of ``|lead(b)|``."""
    r = _upoly_trim(list(a))
    db, lead = len(b) - 1, b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(r) - 1 >= db:
        shift = len(r) - 1 - db
        factor = sign * r[-1]
        r = [scale * v for v in r]
        for i in range(db + 1):
            r[shift + i] -= factor * b[i]
        r.pop()  # the top coefficient cancels exactly
        _upoly_trim(r)
    return r


def _upoly_exact_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """``a / b`` for a primitive ``b`` that divides ``a``; the quotient has integer coefficients."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [0] * (len(r) - db)
    for shift in reversed(range(len(q))):
        factor = q[shift] = r[shift + db] // lead
        for i in range(db + 1):
            r[shift + i] -= factor * b[i]
    return q


def _sturm_chain(c: list[int]) -> list[list[int]]:
    """``c``, ``c'``, then the negated remainders, each made primitive."""
    chain = [c, _primitive(_upoly_derivative(c))]
    while True:
        r = _upoly_prem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append(_primitive([-v for v in r]))


def _powers(den: int, n: int) -> list[int]:
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * den)
    return powers


def _sign_at(c: Sequence[int], a: int, powers: Sequence[int]) -> int:
    """Sign of ``c(a / D)`` where ``powers[k] = D^k`` and ``D > 0``.

    Homogeneous Horner gives ``sum c_i a^i D^(n-i)``, which is ``c(a / D)``
    times ``D^n > 0``.
    """
    n = len(c) - 1
    acc = c[n]
    for i in range(n - 1, -1, -1):
        acc = acc * a + c[i] * powers[n - i]
    return (acc > 0) - (acc < 0)


def _sign_changes(chain: list[list[int]], a: int, den: int) -> int:
    """Sign changes of the chain at ``a / den``, zeros skipped."""
    powers = _powers(den, len(chain[0]) - 1)
    changes = last = 0
    for poly in chain:
        sign = _sign_at(poly, a, powers)
        if sign:
            changes += last == -sign
            last = sign
    return changes


def _simplest_between(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Numerator and denominator of the rational with smallest denominator in
    ``[a / b, c / d]``, for ``0 < a / b <= c / d`` and positive ``b``, ``d``.

    Continued fractions: take the integer part ``w`` of the lower end; when
    it is exact or ``w + 1`` fits, stop, else recurse on the reciprocals of
    the fractional parts, ``[d / (c - w d), b / (a - w b)]``.
    """
    terms = []
    while True:
        whole, rest = divmod(a, b)
        if rest == 0:
            num, den = whole, 1
            break
        if (whole + 1) * d <= c:
            num, den = whole + 1, 1
            break
        terms.append(whole)
        a, b, c, d = d, c - whole * d, b, rest
    for whole in reversed(terms):
        num, den = whole * num + den, num
    return num, den


def _positive_real_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All positive real roots, as exact rationals within ``ROOT_WIDTH`` of the truth.

    Isolation runs in integer arithmetic: the Sturm chain of the eliminant
    and its square-free part have integer coefficients, and the endpoints of
    each interval are integers over a common denominator.  One remainder
    sequence serves both: the chain counts distinct roots whether or not a
    root repeats, and its last element is the gcd of the eliminant and its
    derivative, whose quotient is the square-free part that refines each
    interval.  A ``Fraction`` is made only for a returned root.  Rational
    roots of moderate denominator are recovered exactly: once an isolating
    interval has shrunk below ``ROOT_WIDTH``, the smallest-denominator
    rational inside it is tested and returned when it is a genuine root.
    """
    rational = [Fraction(v) for v in coeffs]
    den = math.lcm(*(v.denominator for v in rational))
    c = _upoly_trim([v.numerator * (den // v.denominator) for v in rational])
    if not c:
        raise ValueError("zero polynomial has every point as a root")
    while c[0] == 0:  # roots at zero are not positive; strip them
        c.pop(0)
    if len(c) == 1:
        return []
    c = _primitive(c)
    # the last element of the chain is gcd(c, c') up to sign; by Gauss's
    # lemma the quotient by that primitive gcd is primitive
    chain = _sturm_chain(c)
    square_free = _upoly_exact_quotient(c, chain[-1]) if len(chain[-1]) > 1 else c
    n = len(square_free) - 1

    # every root lies below Cauchy's bound 1 + max|c_i| / |c_n|; start one above it
    lead = abs(square_free[-1])
    top = 2 * lead + max(map(abs, square_free[:-1]))
    isolated: list[tuple[int, int, int]] = []
    # (lo, hi, den, sign changes at lo, sign changes at hi) for [lo / den, hi / den]
    stack = [(0, top, lead, _sign_changes(chain, 0, lead), _sign_changes(chain, top, lead))]
    while stack:
        lo, hi, den, v_lo, v_hi = stack.pop()
        k = v_lo - v_hi
        if k == 0:
            continue
        if k == 1:
            isolated.append((lo, hi, den))
            continue
        # split at the midpoint, moved toward hi by a shrinking step
        # (hi - lo) / 4, / 8, ... while it hits a root
        mid, mid_den, step = lo + hi, 2 * den, hi - lo
        while _sign_at(square_free, mid, _powers(mid_den, n)) == 0:
            mid, mid_den = 2 * mid + step, 2 * mid_den
        scale = mid_den // den
        v_mid = _sign_changes(chain, mid, mid_den)
        stack.append((lo * scale, mid, mid_den, v_lo, v_mid))
        stack.append((mid, hi * scale, mid_den, v_mid, v_hi))

    roots = []
    for lo, hi, den in isolated:
        lo_sign = 1 if _sign_at(square_free, lo, _powers(den, n)) > 0 else -1
        exact = None
        while (hi - lo) * ROOT_WIDTH.denominator > ROOT_WIDTH.numerator * den:
            lo, mid, hi, den = 2 * lo, lo + hi, 2 * hi, 2 * den
            sign = _sign_at(square_free, mid, _powers(den, n))
            if sign == 0:
                exact = Fraction(mid, den)
                break
            if sign == lo_sign:
                lo = mid
            else:
                hi = mid
        if exact is None and lo > 0:
            num, num_den = _simplest_between(lo, den, hi, den)
            if _sign_at(square_free, num, _powers(num_den, n)) == 0:
                exact = Fraction(num, num_den)
        roots.append(exact if exact is not None else Fraction(lo + hi, 2 * den))
    roots.sort()
    return roots


def solve_algebraic(system: PolySystem) -> list[tuple[Fraction, ...]]:
    """Positive real solutions of a cleared polynomial system, exactly isolated.

    Computes the lex Groebner basis with ``t1`` most significant, requires a
    triangular result (a univariate eliminant in the last variable, every
    other variable entering linearly), isolates the eliminant's positive
    roots to width 1e-12 by Sturm bisection in integer arithmetic, and
    back-substitutes in exact rationals.  Roots hit exactly stay exact
    rationals.

    Raises :class:`UnsupportedStructureError` when the basis is not triangular
    (callers fall back to numeric fitting) and :class:`SizeLimitError` beyond
    3 variables or total degree 8.
    """
    equations = [eq for eq in system.equations if eq.terms]
    if not equations:
        raise UnsupportedStructureError("system is identically zero")
    _reject_laurent(equations)
    names = equations[0].vars
    n = len(names)
    if n > MAX_SOLVE_VARIABLES:
        raise SizeLimitError(f"{n} variables exceeds the exact-solve limit {MAX_SOLVE_VARIABLES}")
    degree = max(eq.total_degree() for eq in equations)
    if degree > MAX_SOLVE_DEGREE:
        raise SizeLimitError(f"total degree {degree} exceeds the exact-solve limit {MAX_SOLVE_DEGREE}")

    basis = buchberger(equations, LEX).basis
    if any(g.total_degree() == 0 for g in basis):
        return []  # a nonzero constant generates the unit ideal: no solutions

    pure: dict[int, Polynomial] = {}
    for g in basis:
        exps, _ = g.leading_term(LEX)
        support = [k for k, e in enumerate(exps) if e]
        if len(support) == 1:
            pure.setdefault(support[0], g)
    if set(pure) != set(range(n)):
        raise UnsupportedStructureError("system is not zero-dimensional")

    last = n - 1
    # under lex with t_n least, a monomial below t_n^k is a power of t_n, so the eliminant is univariate
    eliminant = pure[last]
    for v in range(last):
        exps, _ = pure[v].leading_term(LEX)
        if exps[v] != 1:
            raise UnsupportedStructureError(
                f"variable {names[v]} enters nonlinearly; fall back to numeric fitting"
            )

    deg = max(exps[last] for exps in eliminant.terms)
    coeffs = [Fraction(0)] * (deg + 1)
    for exps, coeff in eliminant.terms.items():
        coeffs[exps[last]] = coeff
    root_values = _positive_real_roots(coeffs)

    solutions = []
    for root in root_values:
        # under lex, pure[v] is c*t_v plus terms in t_(v+1)..t_n only, so
        # evaluating it with t_1..t_v at 0 leaves exactly its tail
        values = [0] * last + [root]
        for v in reversed(range(last)):
            g = pure[v]
            _, lead_coeff = g.leading_term(LEX)
            value = -g.evaluate(values) / lead_coeff
            if not value > 0:
                break
            values[v] = value
        else:
            solutions.append(tuple(values))
    solutions.sort()
    return solutions
