"""Packed monomials: the binomial engine and the pair queue against their tuple forms.

``TupleQueue`` and ``tuple_binomial_groebner`` keep the engine as it ran on
exponent tuples before monomials were packed into ints.  The packed engine
must give the same bases, and the packed queue the same pairs in the same
order, for any exponents: past the first field width too, where a run starts
over at double width.
"""

import heapq
from itertools import chain
from operator import add, le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmaxent import ratpoly
from toricmaxent.ratpoly import LEX, MonomialOrder, Polynomial, _binomial_groebner, _Packing, _PairQueue, buchberger

BIG = 2**40


def _divides(a, b):
    return all(map(le, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _coprime(a, b):
    return not any(map(min, a, b))


class TupleQueue:
    """The Gebauer-Moeller pair queue on exponent tuples."""

    def __init__(self, order):
        self._key = order.key
        self.lead = []
        self._active = []
        self._pending = {}
        self._heap = []

    def add(self, ht):
        lead, pending = self.lead, self._pending
        t = len(lead)
        lead.append(ht)
        for (i, j), lcm in list(pending.items()):
            if _divides(ht, lcm) and lcm != _lcm(lead[i], ht) and lcm != _lcm(lead[j], ht):
                del pending[(i, j)]
        active = self._active
        lcms = [_lcm(lead[k], ht) for k in active]
        kept = []
        for n, lcm in enumerate(lcms):
            if _coprime(lead[active[n]], ht) or not any(
                _divides(other, lcm) for other in chain(lcms[n + 1 :], (lcms[q] for q in kept))
            ):
                kept.append(n)
        for n in kept:
            k = active[n]
            if not _coprime(lead[k], ht):
                pending[(k, t)] = lcms[n]
                heapq.heappush(self._heap, (self._key(lcms[n]), k, t))
        self._active = [k for k in active if not _divides(ht, lead[k])] + [t]

    def minimal(self):
        lead = self.lead
        return [
            i for i, a in enumerate(lead)
            if not any(_divides(b, a) and (b != a or j < i) for j, b in enumerate(lead) if j != i)
        ]

    def __iter__(self):
        while self._heap:
            _, i, j = heapq.heappop(self._heap)
            if self._pending.pop((i, j), None) is not None:
                yield i, j


def tuple_binomial_groebner(binomials, order):
    """The binomial engine on exponent tuples."""
    key = order.key
    basis = []
    pairs = TupleQueue(order)

    def normal(e, among):
        while True:
            for a, b in among:
                if _divides(a, e):
                    e = tuple(map(add, map(sub, e, a), b))
                    break
            else:
                return e

    def adjoin(a, b):
        a, b = normal(a, basis), normal(b, basis)
        if a != b:
            basis.append((a, b) if key(a) > key(b) else (b, a))
            pairs.add(basis[-1][0])

    for a, b in binomials:
        adjoin(a, b)
    for i, j in pairs:
        (a, b), (c, d) = basis[i], basis[j]
        lcm = _lcm(a, c)
        adjoin(tuple(map(add, map(sub, lcm, a), b)), tuple(map(add, map(sub, lcm, c), d)))
    minimal = [basis[i] for i in pairs.minimal()]
    return [(a, normal(b, minimal)) for a, b in minimal]


@st.composite
def orders(draw, n):
    kind = draw(st.sampled_from(["lex", "grevlex"]))
    return MonomialOrder(kind, tuple(draw(st.permutations(range(n)))))


@st.composite
def binomial_sets(draw):
    """Binomials of small exponents, some variables scaled by a factor near 2**40.

    Scaling keeps every exponent of a variable a multiple of its factor, so a
    rewrite never steps through 2**40 small powers, while the packed fields
    must be wide enough for the products.
    """
    n = draw(st.integers(1, 5))
    scale = [draw(st.sampled_from([1, 1, BIG - 1, BIG + 3])) for _ in range(n)]
    vector = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(lambda v: tuple(map(int.__mul__, v, scale)))
    binomials = draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=5))
    return binomials, draw(orders(n))


@settings(max_examples=150, deadline=None)
@given(binomial_sets())
def test_packed_binomial_engine_matches_the_tuple_engine(case):
    binomials, order = case
    assert _binomial_groebner(binomials, order) == tuple_binomial_groebner(binomials, order)


@st.composite
def queue_runs(draw):
    """Leading exponents to add, each followed by a number of pairs to take.

    One lead in four has an entry near 2**40, so most runs need fields wider
    than the first width.
    """
    n = draw(st.integers(1, 4))
    small = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    big = st.lists(st.one_of(st.integers(0, 2), st.integers(BIG - 2, BIG + 2)), min_size=n, max_size=n)
    vector = st.one_of(small, small, small, big).map(tuple)
    steps = draw(st.lists(st.tuples(vector, st.integers(0, 2)), min_size=1, max_size=16))
    return steps, draw(orders(n))


@settings(max_examples=300, deadline=None)
@given(queue_runs())
def test_packed_queue_makes_the_pairs_of_the_tuple_queue(run):
    steps, order = run
    # a queue's packing is fixed for its life, so it must fit the largest lead from the start
    top = max(max(exps) for exps, _ in steps)
    packed, plain = _PairQueue(_Packing(order, len(steps[0][0]), top)), TupleQueue(order)
    taken, expected = [], []
    for exps, take in steps:
        packed.add(packed.packing.pack(exps))
        plain.add(exps)
        for _ in range(take):
            taken.append(next(iter(packed), None))
            expected.append(next(iter(plain), None))
    assert taken == expected
    assert list(packed) == list(plain)
    assert packed.minimal() == plain.minimal()
    assert [packed.packing.unpack(p) for p in packed.lead] == plain.lead


# x^999 y^1000 rewrites by x - y^1000 to y^(10**6), past the 2**14 that fits 16 bits
GROWING = [((1000, 0), (0, 0)), ((1, 0), (0, 1000))]
GROWN = [((1, 0), (0, 1000)), ((0, 10**6), (0, 0))]


def test_a_rewrite_past_the_field_width_restarts_wider(monkeypatch):
    widths = []
    wider = _Packing.wider

    def counted(packing):
        widths.append(packing.width)
        return wider(packing)

    monkeypatch.setattr(_Packing, "wider", counted)
    assert _binomial_groebner(GROWING, LEX) == tuple_binomial_groebner(GROWING, LEX) == GROWN
    assert widths == [16]


def test_buchberger_widens_its_queue_for_a_growing_lead(monkeypatch):
    # the lead y^(10**6) does not fit the first queue's fields: the run starts over wider
    widths = []
    wider = _Packing.wider

    def counted(packing):
        widths.append(packing.width)
        return wider(packing)

    monkeypatch.setattr(_Packing, "wider", counted)
    vars = ("x", "y")
    basis = buchberger([Polynomial(vars, {a: 1, b: -1}) for a, b in GROWING], LEX).basis
    assert set(basis) == {Polynomial(vars, {a: 1, b: -1}) for a, b in GROWN}
    assert widths == [16]


class WideFirst(_Packing):
    """A packing whose first width is 64 bits, past every exponent of ``GROWING``."""

    def __init__(self, order, n, top=0, width=64):
        super().__init__(order, n, top, width)


ENGINES = {
    "binomial": lambda: _binomial_groebner(GROWING, LEX),
    "rational": lambda: buchberger([Polynomial(("x", "y"), {a: 1, b: -1}) for a, b in GROWING], LEX).basis,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_restarted_run_repeats_the_run_that_starts_wide(monkeypatch, engine):
    def runs(packing):
        """The engine's result and, per run, its pairs taken and ``s_polynomial`` calls."""
        counts = []
        init, iterate, s_polynomial = _PairQueue.__init__, _PairQueue.__iter__, ratpoly.s_polynomial

        def counted_init(queue, packing):
            init(queue, packing)
            counts.append([0, 0])

        def counted_iter(queue):
            for pair in iterate(queue):
                counts[-1][0] += 1
                yield pair

        def counted_s_polynomial(f, g, order):
            counts[-1][1] += 1
            return s_polynomial(f, g, order)

        with monkeypatch.context() as patch:
            patch.setattr(ratpoly, "_Packing", packing)
            patch.setattr(_PairQueue, "__init__", counted_init)
            patch.setattr(_PairQueue, "__iter__", counted_iter)
            patch.setattr(ratpoly, "s_polynomial", counted_s_polynomial)
            return ENGINES[engine](), counts

    restarted, restarted_counts = runs(_Packing)
    wide, wide_counts = runs(WideFirst)
    assert restarted == wide
    assert len(restarted_counts) == 2 and len(wide_counts) == 1
    assert restarted_counts[-1] == wide_counts[-1]
    assert wide_counts[-1][0] > 0


def test_a_negative_exponent_is_rejected_not_widened():
    # a negative field would read as overflow at every width
    with pytest.raises(ValueError, match="negative exponent"):
        _binomial_groebner([((1, 0), (0, 1)), ((0, -1), (0, 0))], LEX)
