"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from integer exponent vectors to nonzero Fraction
coefficients, tagged with a shared variable list.  A polynomial is Laurent
exactly when one of its exponents is negative; ``laurent=True`` at
construction admits such exponents and is not stored.  Division and
Buchberger work in the ordinary ring and reject Laurent input, which callers
first push through :func:`laurent_clear`.

Coefficients are ``Fraction`` at the interface.  Inside :func:`buchberger`
they are integers: every element is a primitive integer polynomial, reduced
by pseudo-division, and the basis turns monic over ``Fraction`` only when it
is returned.  :func:`normal_form` and :func:`multivariate_divide` stay over
``Fraction``.  :func:`_binomial_groebner`, the engine for the pure
binomials of ``toric``, shares its critical-pair queue, and the two are the
only users of packed monomials (:class:`_Packing`): one int per exponent
vector, on which divisibility and lcm are a few int operations.

Example::

    >>> x = Polynomial.variable(("x", "y"), "x")
    >>> y = Polynomial.variable(("x", "y"), "y")
    >>> poly_to_text((x + y) * (x - y))
    'x^2 - y^2'
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, and_, le, lshift, sub
from typing import Iterable, Mapping, Sequence

__all__ = [
    "MonomialOrder",
    "LEX",
    "GREVLEX",
    "Polynomial",
    "multivariate_divide",
    "normal_form",
    "s_polynomial",
    "GroebnerBasis",
    "buchberger",
    "laurent_clear",
    "poly_to_text",
    "parse_poly",
]

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative order on exponent vectors.

    ``priority`` permutes variable indices; position 0 is the most
    significant variable.  ``None`` means the natural order 0, 1, 2, ...
    """

    kind: str = "grevlex"
    priority: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown monomial order kind: {self.kind!r}")
        if self.priority is not None:
            perm = tuple(self.priority)
            if sorted(perm) != list(range(len(perm))):
                raise ValueError("priority must be a permutation of 0..n-1")
            object.__setattr__(self, "priority", perm)

    def arrange(self, exps: Sequence[int]) -> Exponents:
        """Reorder ``exps`` so that index 0 is the most significant variable."""
        if self.priority is None:
            return tuple(exps)
        if len(self.priority) != len(exps):
            raise ValueError("priority length does not match exponent vector")
        return tuple(exps[i] for i in self.priority)

    def key(self, exps: Sequence[int]):
        """Sort key: monomials compare the same way their keys do."""
        arranged = self.arrange(exps)
        if self.kind == "lex":
            return arranged
        return (sum(arranged), tuple(-e for e in reversed(arranged)))


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


class Polynomial:
    """Sparse polynomial with exact rational coefficients.

    Value-semantic: construction canonicalizes (zero coefficients dropped,
    coefficients normalized to ``Fraction``) and no method mutates an
    existing instance.  Two polynomials are equal when their variable lists
    and term maps coincide.  ``laurent=True`` admits negative exponents at
    construction; without it they raise ``ValueError``.
    """

    __slots__ = ("vars", "terms")

    def __init__(
        self,
        vars: Sequence[str],
        terms: Mapping[Sequence[int], object] | None = None,
        laurent: bool = False,
    ) -> None:
        names = tuple(vars)
        if not names:
            raise ValueError("need at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        clean: dict[Exponents, Fraction] = {}
        for raw_exps, raw_coeff in (terms or {}).items():
            exps = tuple(int(e) for e in raw_exps)
            if len(exps) != len(names):
                raise ValueError("exponent vector length does not match variables")
            if not laurent and any(e < 0 for e in exps):
                raise ValueError("negative exponent outside Laurent mode")
            coeff = Fraction(raw_coeff)
            if coeff:
                clean[exps] = coeff
        self.vars = names
        self.terms = clean

    @classmethod
    def _raw(cls, vars: tuple[str, ...], terms: dict[Exponents, Fraction]) -> "Polynomial":
        # internal fast path: caller guarantees canonical terms
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Polynomial":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: Sequence[str], value) -> "Polynomial":
        names = tuple(vars)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def monomial(cls, vars: Sequence[str], exps: Sequence[int], coeff=1, laurent: bool = False) -> "Polynomial":
        return cls(vars, {tuple(exps): coeff}, laurent)

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Polynomial":
        names = tuple(vars)
        idx = names.index(name)
        exps = tuple(1 if k == idx else 0 for k in range(len(names)))
        return cls(names, {exps: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError("polynomials are over different variable lists")
            return other
        return Polynomial.constant(self.vars, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return Polynomial._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            coeff = Fraction(other)
            if not coeff:
                return Polynomial.zero(self.vars)
            return Polynomial._raw(self.vars, {e: c * coeff for e, c in self.terms.items()})
        other = self._coerce(other)
        terms: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                acc = terms.get(exps, 0) + ca * cb
                if acc:
                    terms[exps] = acc
                else:
                    terms.pop(exps, None)
        return Polynomial._raw(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def evaluate(self, point: Sequence) -> object:
        """Evaluate at ``point``; exact for rational inputs, float otherwise.

        Negative exponents at zero raise ``ZeroDivisionError``.
        """
        if len(point) != len(self.vars):
            raise ValueError("point length does not match variables")
        total = 0
        for exps, coeff in self.terms.items():
            value = coeff
            for x, e in zip(point, exps):
                if e:
                    value = value * x**e
            total = total + value
        return total

    def total_degree(self) -> int:
        """Maximum over terms of the exponent sum; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_term(self, order: MonomialOrder) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=order.key)
        return exps, self.terms[exps]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        _, lead = self.leading_term(order)
        if lead == 1:
            return self
        return Polynomial._raw(self.vars, {e: c / lead for e, c in self.terms.items()})

    def differentiate(self, var_index: int) -> "Polynomial":
        """Partial derivative with respect to the variable at ``var_index``."""
        if not 0 <= var_index < len(self.vars):
            raise ValueError("variable index out of range")
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[var_index]
            if e == 0:
                continue
            shifted = exps[:var_index] + (e - 1,) + exps[var_index + 1 :]
            terms[shifted] = coeff * e
        return Polynomial._raw(self.vars, terms)

    def __str__(self) -> str:
        return poly_to_text(self)

    def __repr__(self) -> str:
        return f"<Polynomial {poly_to_text(self)}>"


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _reject_laurent(polys: Iterable[Polynomial]) -> None:
    """Raise ``ValueError`` when a polynomial has a negative exponent."""
    if any(min(exps) < 0 for f in polys for exps in f.terms):
        raise ValueError("Laurent input; clear denominators first")


def _mono_times(p: Polynomial, coeff: Fraction, exps: Exponents) -> Iterable[tuple[Exponents, Fraction]]:
    for e, c in p.terms.items():
        yield tuple(map(add, e, exps)), c * coeff


def multivariate_divide(
    f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder
) -> tuple[list[Polynomial], Polynomial]:
    """Divide ``f`` by an ordered list of divisors.

    Returns ``(quotients, remainder)`` with ``f == sum(q*g) + remainder``
    exactly, and no remainder term divisible by any divisor's leading term.
    """
    divisors = list(divisors)
    if not divisors:
        raise ValueError("empty divisor list")
    _reject_laurent([f, *divisors])
    for g in divisors:
        if g.vars != f.vars:
            raise ValueError("divisor over a different variable list")
        if not g.terms:
            raise ValueError("zero divisor")
    lead = [g.leading_term(order)[0] for g in divisors]
    quotients = [dict() for _ in divisors]
    remainder: dict[Exponents, Fraction] = {}
    work = dict(f.terms)
    while work:
        exps = max(work, key=order.key)
        coeff = work[exps]
        for i, g_exps in enumerate(lead):
            if _divides(g_exps, exps):
                q_exps = tuple(a - b for a, b in zip(exps, g_exps))
                q_coeff = coeff / divisors[i].terms[g_exps]
                quotients[i][q_exps] = quotients[i].get(q_exps, 0) + q_coeff
                for t_exps, t_coeff in _mono_times(divisors[i], q_coeff, q_exps):
                    acc = work.get(t_exps, 0) - t_coeff
                    if acc:
                        work[t_exps] = acc
                    else:
                        work.pop(t_exps, None)
                break
        else:
            remainder[exps] = coeff
            del work[exps]
    qs = [Polynomial._raw(f.vars, {e: c for e, c in q.items() if c}) for q in quotients]
    return qs, Polynomial._raw(f.vars, remainder)


def normal_form(f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Remainder of ``f`` on division by ``divisors`` (quotients discarded)."""
    return multivariate_divide(f, divisors, order)[1]


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """Fraction-free S-polynomial ``b*(l/lt(f))*f - a*(l/lt(g))*g``.

    ``l`` is the lcm of the leading monomials, and ``a/b`` is
    ``lc(f)/lc(g)`` in lowest terms, so the cofactors ``b`` and ``a`` are
    coprime integers (``lc(g)/k`` and ``lc(f)/k`` for the positive rational
    ``k = gcd(lc f, lc g)``).  On monic input this is the classical
    ``(l/lt(f))*f - (l/lt(g))*g``; otherwise it is ``lc(f)*lc(g)/k`` times
    it.  Integer coefficients stay integers, which :func:`buchberger` needs.
    """
    if f.vars != g.vars:
        raise ValueError("polynomials are over different variable lists")
    (fe, fc), (ge, gc) = f.leading_term(order), g.leading_term(order)
    lcm_exps = tuple(map(max, fe, ge))
    fp, fq, gp, gq = fc.numerator, fc.denominator, gc.numerator, gc.denominator
    k = gcd(fp * gq, gp * fq)
    terms = dict(_mono_times(f, gp * fq // k, tuple(map(sub, lcm_exps, fe))))
    for exps, coeff in _mono_times(g, fp * gq // k, tuple(map(sub, lcm_exps, ge))):
        acc = terms.get(exps, 0) - coeff
        if acc:
            terms[exps] = acc
        else:
            terms.pop(exps, None)
    return Polynomial._raw(f.vars, terms)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic elements, no element's term divisible
    by another element's leading term, sorted ascending by leading term."""

    basis: tuple[Polynomial, ...]
    order: MonomialOrder

    def normal_form(self, f: Polynomial) -> Polynomial:
        if not self.basis:
            return f
        return normal_form(f, self.basis, self.order)

    def reduces_to_zero(self, f: Polynomial) -> bool:
        if not f.terms:
            return True
        return not self.normal_form(f).terms


class _Packing:
    """Exponent vectors of ``n`` variables packed into one int each, for ``order``.

    Each variable gets a field of ``width`` bits, laid out by the order's
    priority: under lex the most significant variable sits in the top field,
    so a packed int compares as the order does; under grevlex the least
    significant one does, and the sort key is the degree above the
    complement, ``deg << (width * n) | (FULL - p)`` with ``FULL`` the largest
    packed value (Bachmann and Schoenemann, ISSAC 1998).  A field holds
    values below ``2**(width - spare)``; the ``spare = n.bit_length()`` top
    bits of every field, the ``over`` mask, stay clear, so the degree, the
    sum of all fields, fits in one field and is ``p % (2**width - 1)``.

    On packed exponents, ``e`` is divisible by ``a`` when
    ``((e | guard) - a) & guard == guard``, with ``guard`` the top bit of
    every field; a product is ``+``, a quotient ``-``, and ``a`` and ``b``
    are coprime when their lcm is ``a + b``.  A sum that sets a bit of
    ``over`` has left the fields, and :meth:`pack` raises on an entry that
    does not fit: :func:`_packed_run` then starts the run over at
    :meth:`wider`.  There is no cap on the width.

    >>> order = MonomialOrder("grevlex", (2, 0, 1))
    >>> packing = _Packing(order, 3)
    >>> packing.unpack(packing.pack((7, 0, 2)))
    (7, 0, 2)
    >>> packing.wider().width
    32
    >>> wide = _Packing(order, 3, top=2**40)
    >>> wide.width, wide.unpack(wide.pack((7, 0, 2**40)))
    (64, (7, 0, 1099511627776))
    >>> exps = [(1, 0, 5), (0, 2, 4), (3, 3, 0), (0, 0, 6), (2, 2, 2), (6, 0, 0)]
    >>> for kind in ("lex", "grevlex"):
    ...     order = MonomialOrder(kind, (2, 0, 1))
    ...     packing = _Packing(order, 3)
    ...     print(sorted(exps, key=lambda e: packing.key(packing.pack(e))) == sorted(exps, key=order.key))
    True
    True
    """

    def __init__(self, order: MonomialOrder, n: int, top: int = 0, width: int = 16) -> None:
        spare = n.bit_length()
        while top >> (width - spare - 4):  # room for products of up to 16 times ``top``
            width *= 2
        priority = order.arrange(range(n))
        fields = priority[::-1] if order.kind == "lex" else priority  # field 0 at the bottom
        shifts = [0] * n
        for f, i in enumerate(fields):
            shifts[i] = f * width
        ones = sum(1 << (f * width) for f in range(n))
        self.order, self.n, self.width = order, n, width
        self._shifts = shifts
        self._limit = 1 << (width - spare)
        self._mask = (1 << width) - 1
        self.guard = ones << (width - 1)
        self.over = ones * ((1 << width) - self._limit)
        self._modulus = (1 << width) - 1
        self._span = width * n
        self.key = self._lex_key if order.kind == "lex" else self._grevlex_key

    def wider(self) -> "_Packing":
        """The same layout at double field width."""
        return _Packing(self.order, self.n, width=2 * self.width)

    def pack(self, exps: Sequence[int]) -> int:
        """One int for ``exps``; ``OverflowError`` when an entry does not fit."""
        if min(exps) < 0:
            raise ValueError("negative exponent")
        if max(exps) >= self._limit:
            raise OverflowError("exponent wider than the packed field")
        return sum(map(lshift, exps, self._shifts))

    def unpack(self, p: int) -> Exponents:
        return tuple(map(and_, map(p.__rshift__, self._shifts), repeat(self._mask)))

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum: ``a`` where its field is at least ``b``'s, else ``b``."""
        guard = self.guard
        ge = ((a | guard) - b) & guard
        return b ^ ((a ^ b) & (ge - (ge >> (self.width - 1))))

    @staticmethod
    def _lex_key(p: int) -> int:
        return p

    def _grevlex_key(self, p: int) -> int:
        # ``deg << span | (FULL - p)`` up to a constant: ``p < 2**span``
        return (p % self._modulus << self._span) - p


class _PairQueue:
    """Critical pairs of a Buchberger run under the Gebauer-Moeller update.

    The update needs only the elements' leading exponents, packed by the
    queue's :class:`_Packing` and kept in ``lead`` in the order :meth:`add`
    received them, so the rational and the binomial engines share it;
    :meth:`minimal` picks a minimal basis from the same exponents.  The
    packing is fixed for the queue's life: a lead that does not fit it
    raises, and :func:`_packed_run` starts the run over with a new queue at
    double width.  Pending pairs wait in a heap, keyed once when they are
    made by the packed order key of their leading-term lcm; iterating
    yields the live pair ``(i, j)`` with the smallest lcm until none is
    left, and may be interleaved with ``add``.
    Each new leading exponent ``ht`` goes through the update (Gebauer and
    Moeller, JSC 1988):

    - criterion M drops a new pair whose lcm another new pair's lcm
      divides, and criterion F keeps one new pair per lcm;
    - a new pair whose leading terms are coprime is dropped, after it has
      pruned the pairs its lcm divides;
    - criterion B drops a pending pair ``(f, g)`` whose lcm ``ht``
      divides, unless that lcm equals the lcm of ``f`` or ``g`` with ``ht``.

    An element whose leading exponent ``ht`` divides forms no further pairs
    but stays a reducer.
    """

    def __init__(self, packing: _Packing) -> None:
        self.packing = packing
        self.lead: list[int] = []
        self._active: list[int] = []  # elements that new pairs are formed with
        self._pending: dict[tuple[int, int], int] = {}  # live pairs and their lcms
        self._heap: list = []

    def add(self, ht: int) -> None:
        lead, pending = self.lead, self._pending
        guard, lcm_of = self.packing.guard, self.packing.lcm
        t = len(lead)
        lead.append(ht)
        # criterion B on the pending pairs
        for (i, j), lcm in list(pending.items()):
            if ((lcm | guard) - ht) & guard == guard and lcm != lcm_of(lead[i], ht) and lcm != lcm_of(lead[j], ht):
                del pending[(i, j)]
        # criteria M and F on the new pairs; a coprime pair, lcm ``a + ht``, prunes, then goes
        active = self._active
        lcms = [lcm_of(lead[k], ht) for k in active]
        kept: list[int] = []  # positions in ``active``
        for n, lcm in enumerate(lcms):
            top = lcm | guard
            if lcm == lead[active[n]] + ht or not any(
                (top - other) & guard == guard for other in chain(lcms[n + 1 :], (lcms[q] for q in kept))
            ):
                kept.append(n)
        key = self.packing.key
        for n in kept:
            k = active[n]
            if lcms[n] != lead[k] + ht:
                pending[(k, t)] = lcms[n]
                heapq.heappush(self._heap, (key(lcms[n]), k, t))
        self._active = [k for k in active if ((lead[k] | guard) - ht) & guard != guard] + [t]

    def minimal(self) -> list[int]:
        """Indices of a minimal basis: no other leading exponent divides theirs.

        Of equal leading exponents the first one stays.
        """
        lead, guard = self.lead, self.packing.guard
        keep = []
        for i, a in enumerate(lead):
            top = a | guard
            if not any((top - b) & guard == guard and (b != a or j < i) for j, b in enumerate(lead) if j != i):
                keep.append(i)
        return keep

    def __iter__(self):
        while self._heap:
            _, i, j = heapq.heappop(self._heap)
            if self._pending.pop((i, j), None) is not None:  # else pruned after it was pushed
                yield i, j


def _packed_run(order: MonomialOrder, n: int, top: int, run):
    """``run(packing)`` for exponents up to ``top``, rerun at double width on overflow.

    A run raises ``OverflowError`` when an exponent vector leaves the fields
    of its :class:`_Packing`; this is the one place that catches it.  Packed
    keys order the same at every width, so a rerun takes the same steps.
    """
    packing = _Packing(order, n, top)
    while True:
        try:
            return run(packing)
        except OverflowError:
            packing = packing.wider()


def _primitive(terms: dict[Exponents, int], lc: int) -> dict[Exponents, int]:
    """Integer ``terms`` over their content, signed so that ``lc`` turns positive."""
    k = gcd(*terms.values())
    if lc < 0:
        k = -k
    return terms if k == 1 else {e: c // k for e, c in terms.items()}


def _pseudo_reduce(terms, divisors, lead, key) -> dict[Exponents, int]:
    """Primitive positive multiple of the remainder of ``terms`` on division.

    ``terms`` has integer coefficients; ``divisors`` are integer
    polynomials with positive leading coefficients at the exponents
    ``lead``.  The steps are those of :func:`multivariate_divide`, with each
    rational step ``w - (c/a)*m*g`` replaced by ``(a/k)*w - (c/k)*m*g``,
    ``k = gcd(a, c)``.  The content is taken out after every step, so
    every intermediate is primitive.  ``key`` is the order's sort key, or
    ``None`` where the exponent tuples compare as the order does.
    """
    work = dict(terms)
    rem: dict[Exponents, int] = {}
    while work:
        exps = max(work, key=key)
        c = work[exps]
        for g, g_exps in zip(divisors, lead):
            if all(map(le, g_exps, exps)):
                break
        else:
            rem[exps] = c
            del work[exps]
            continue
        a = g.terms[g_exps]
        k = gcd(a, c)
        if k != a:
            scale = a // k
            work = {e: v * scale for e, v in work.items()}
            rem = {e: v * scale for e, v in rem.items()}
        q = c // k
        shift = tuple(map(sub, exps, g_exps))
        for e, v in g.terms.items():
            t = tuple(map(add, e, shift))
            acc = work.get(t, 0) - q * v
            if acc:
                work[t] = acc
            else:
                del work[t]
        content = gcd(*work.values(), *rem.values())
        if content > 1:
            work = {e: v // content for e, v in work.items()}
            rem = {e: v // content for e, v in rem.items()}
    return _primitive(rem, rem[max(rem, key=key)]) if rem else rem


def buchberger(generators: Sequence[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Buchberger's algorithm with the normal selection strategy, fraction-free.

    Each generator is scaled once to a primitive integer polynomial with a
    positive leading coefficient.  Pairs are made, pruned and selected by
    the Gebauer-Moeller update of :class:`_PairQueue` on packed leading
    exponents, and a lead that outgrows the packing starts the run over at
    double width (:func:`_packed_run`).  The pending pair with the
    smallest leading-term lcm is reduced first.  Its integer
    :func:`s_polynomial` is reduced by pseudo-division, and every element
    kept is primitive.  Each is a positive multiple of the monic element
    that rational arithmetic would keep, so the pairs and their order are
    the same.  The returned basis is fully inter-reduced and made monic,
    with ``Fraction`` coefficients, only at the end.
    """
    gens = [g for g in generators if g.terms]
    _reject_laurent(gens)
    if not gens:
        return GroebnerBasis((), order)
    vars0 = gens[0].vars
    for g in gens:
        if g.vars != vars0:
            raise ValueError("generators over different variable lists")

    key = None if order == LEX else order.key  # under plain lex, tuples compare as the order does

    def run(packing: _Packing):
        basis: list[Polynomial] = []  # primitive integer polynomials, positive leading coefficients
        lead: list[Exponents] = []
        pairs = _PairQueue(packing)

        def adjoin(terms: dict[Exponents, int]) -> None:
            basis.append(Polynomial._raw(vars0, terms))
            lead.append(max(terms, key=key))
            pairs.add(packing.pack(lead[-1]))

        for g in gens:
            den = lcm(*(c.denominator for c in g.terms.values()))
            h = {e: c.numerator * (den // c.denominator) for e, c in g.terms.items()}
            h = _primitive(h, h[max(h, key=key)])
            if all(h != b.terms for b in basis):
                adjoin(h)
        for i, j in pairs:
            s = s_polynomial(basis[i], basis[j], order)
            r = _pseudo_reduce(s.terms, basis, lead, key) if s.terms else s.terms
            if r:
                adjoin(r)
        return basis, lead, pairs.minimal()

    basis, lead, keep = _packed_run(order, len(vars0), max(max(e) for g in gens for e in g.terms), run)
    # tail-reduce every element of a minimal basis against the others
    keep.sort(key=lambda i: order.key(lead[i]))
    kept = [basis[i] for i in keep]
    kept_lead = [lead[i] for i in keep]
    reduced = []
    for idx, g in enumerate(kept):
        terms = g.terms
        if len(kept) > 1:
            terms = _pseudo_reduce(terms, kept[:idx] + kept[idx + 1 :], kept_lead[:idx] + kept_lead[idx + 1 :], key)
        lc = terms[kept_lead[idx]]
        reduced.append(Polynomial._raw(vars0, {e: Fraction(c, lc) for e, c in terms.items()}))
    return GroebnerBasis(tuple(reduced), order)


def _binomial_groebner(
    binomials: Sequence[tuple[Exponents, Exponents]], order: MonomialOrder
) -> list[tuple[Exponents, Exponents]]:
    """Reduced Groebner basis of the ideal of the pure binomials ``x^a - x^b``.

    Each binomial is given as its exponent pair ``(lead, trail)``, leading
    exponent first, and stands for ``x^lead - x^trail``.  Reducing a monomial
    by a monic binomial gives a monomial, so an S-pair reduces to a binomial
    or to zero and every coefficient stays +-1: no ``Fraction`` is needed.
    The run packs each exponent vector once into an int (:class:`_Packing`),
    so a divisibility test is a few int operations and a rewrite step one
    subtraction and one addition; pairs are made and pruned on the packed
    leads by the same Gebauer-Moeller update as :func:`buchberger`.  When a
    rewrite leaves the packed fields, the run starts over at double width
    (:func:`_packed_run`).  Here ``x^999 y^1000`` rewrites by
    ``x - y^1000`` to ``y^1000000``, past the 16-bit fields of the first run:

    >>> _binomial_groebner([((1000, 0), (0, 0)), ((1, 0), (0, 1000))], LEX)
    [((1, 0), (0, 1000)), ((0, 1000000), (0, 0))]
    """
    binomials = list(binomials)
    if not binomials:
        return []

    def run(packing: _Packing) -> list[tuple[Exponents, Exponents]]:
        guard, over, key = packing.guard, packing.over, packing.key
        basis: list[tuple[int, int]] = []
        pairs = _PairQueue(packing)

        def normal(e: int, among) -> int:
            # rewrite x^e until no leading exponent in ``among`` divides it
            while True:
                top = e | guard
                for a, b in among:
                    if (top - a) & guard == guard:  # ``a`` divides ``e``: the hot loop of the saturation
                        e += b - a
                        if e & over:
                            raise OverflowError
                        break
                else:
                    return e

        def adjoin(a: int, b: int) -> None:
            if (a | b) & over:
                raise OverflowError
            a, b = normal(a, basis), normal(b, basis)
            if a != b:
                basis.append((a, b) if key(a) > key(b) else (b, a))
                pairs.add(basis[-1][0])

        for a, b in binomials:
            adjoin(packing.pack(a), packing.pack(b))
        lcm_of = packing.lcm
        for i, j in pairs:
            (a, b), (c, d) = basis[i], basis[j]
            lcm = lcm_of(a, c)
            adjoin(lcm - a + b, lcm - c + d)

        # reduce the trail of every element of a minimal basis
        minimal = [basis[i] for i in pairs.minimal()]
        return [(packing.unpack(a), packing.unpack(normal(b, minimal))) for a, b in minimal]

    return _packed_run(order, len(binomials[0][0]), max(max(a + b) for a, b in binomials), run)


def laurent_clear(f: Polynomial) -> tuple[Exponents, Polynomial]:
    """Multiply through by the smallest monomial making all exponents nonnegative.

    Returns ``(multiplier, g)`` where ``multiplier[k]`` is the power of the
    k-th variable applied and ``g`` is the ordinary polynomial.  Positive
    points keep their zero/nonzero status since the multiplier never
    vanishes on the open orthant.
    """
    shift = tuple(max(0, -min((exps[k] for exps in f.terms), default=0)) for k in range(len(f.vars)))
    if not any(shift):
        return shift, f
    terms = {tuple(map(add, exps, shift)): coeff for exps, coeff in f.terms.items()}
    return shift, Polynomial._raw(f.vars, terms)


def poly_to_text(f: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Render in the term grammar, e.g. ``3/2*t1^2*t2^-1 - 1``.

    Terms are sorted descending under ``order``; the coefficient is omitted
    when it is +-1 and at least one variable appears.
    """
    if not f.terms:
        return "0"
    items = sorted(f.terms.items(), key=lambda t: order.key(t[0]), reverse=True)
    parts = []
    for idx, (exps, coeff) in enumerate(items):
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        factors = []
        for name, e in zip(f.vars, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors or magnitude != 1:
            factors.insert(0, str(magnitude))
        body = "*".join(factors)
        if idx == 0:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<coef>\d+(?:/\d+)?)
      | (?P<var>[A-Za-z_]\w*)(?:\^(?P<exp>-?\d+))?
      | (?P<op>[+*-])
    )""",
    re.VERBOSE,
)


def parse_poly(text: str, vars: Sequence[str], laurent: bool = False) -> Polynomial:
    """Parse the term grammar produced by :func:`poly_to_text`.

    Round-trips bit-exactly: ``parse_poly(poly_to_text(f), f.vars, laurent=True) == f``.
    Without ``laurent=True`` a negative exponent raises ``ValueError``.
    """
    names = tuple(vars)
    index = {name: i for i, name in enumerate(names)}

    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse polynomial at position {pos}: {text[pos:pos + 12]!r}")
        tokens.append(m)
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial text")

    terms: dict[Exponents, Fraction] = {}
    k = 0
    first = True
    while k < len(tokens):
        sign = 1
        op = tokens[k].group("op")
        if op in ("+", "-"):
            if op == "-":
                sign = -1
            k += 1
            if k >= len(tokens):
                raise ValueError("dangling operator at end of polynomial text")
        elif not first:
            raise ValueError("missing +/- between terms")

        coeff = None
        exps = [0] * len(names)
        while True:
            tok = tokens[k]
            if tok.group("coef"):
                if coeff is not None or any(exps):
                    raise ValueError("coefficient must lead its term")
                coeff = Fraction(tok.group("coef"))
            elif tok.group("var"):
                name = tok.group("var")
                if name not in index:
                    raise ValueError(f"unknown variable {name!r}")
                e = int(tok.group("exp") or 1)
                if e < 0 and not laurent:
                    raise ValueError("negative exponent outside Laurent mode")
                exps[index[name]] += e
            else:
                raise ValueError("expected coefficient or variable")
            k += 1
            if k < len(tokens) and tokens[k].group("op") == "*":
                k += 1
                if k >= len(tokens):
                    raise ValueError("dangling '*' at end of polynomial text")
                continue
            break

        value = (coeff if coeff is not None else Fraction(1)) * sign
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + value
        first = False

    return Polynomial(names, terms, laurent)
