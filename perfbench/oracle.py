"""Output checks that do not run the code path being timed.

Each check takes the request, its exit code and its stdout, and returns
``None`` when the output is right or a one-line reason when it is not.
Fits are checked by recomputing moments from the printed ``p`` with numpy;
ideals by reparsing every generator and testing it on the lattice and at
exact rational model points; polynomial systems against terms the oracle
builds itself from the problem document.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

SUM_TOL = 1e-9
# Groebner and Newton fits of one problem must give the same distribution.
# Newton stops once the moment gap is below its tolerance (1e-6 here), and
# the distribution can then be off by a small multiple of that.
AGREE_TOL = 1e-5


def _load(out: str):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def check_fit(req, rc: int, out: str) -> str | None:
    payload, why = _load(out)
    if why:
        return why
    p = np.asarray(payload.get("p", []), dtype=float)
    rows = np.asarray(req.spec["rows"], dtype=float)
    if p.shape != (rows.shape[1],):
        return f"p has {p.size} entries, expected {rows.shape[1]}"
    if np.any(p < 0):
        return "negative probability"
    if abs(math.fsum(p) - 1.0) > SUM_TOL:
        return f"p sums to {math.fsum(p)!r}"
    residual = float(np.max(np.abs(rows @ p - req.spec["targets"])))
    if residual > req.spec["tol"] + 1e-12:
        return f"moment residual {residual:.3e} exceeds tol {req.spec['tol']:.1e}"
    if not abs(payload.get("residual", math.inf) - residual) <= 1e-12:
        return f"printed residual {payload.get('residual')!r} differs from recomputed {residual:.3e}"
    return None


def check_agreement(p_exact, p_numeric) -> str | None:
    gap = float(np.max(np.abs(np.asarray(p_exact) - np.asarray(p_numeric))))
    if gap > AGREE_TOL:
        return f"groebner and newton disagree by {gap:.3e}"
    return None


def _terms(poly) -> dict:
    return {e: Fraction(c) for e, c in poly.terms.items()}


def _binomial_exponents(terms: dict):
    if len(terms) != 2 or sorted(terms.values()) != [-1, 1]:
        return None
    (plus,) = [e for e, c in terms.items() if c == 1]
    (minus,) = [e for e, c in terms.items() if c == -1]
    return plus, minus


def _evaluate(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= x ** e
        total += value
    return total


def check_ideal(req, rc: int, out: str, parse_poly) -> str | None:
    payload, why = _load(out)
    if why:
        return why
    rows = req.spec["rows"]
    m = len(rows[0])
    names = [f"p{j + 1}" for j in range(m)]
    if payload.get("variables") != names:
        return "wrong variable list"
    gens = payload.get("generators", [])
    if len(gens) != req.spec["count"]:
        return f"{len(gens)} generators, expected {req.spec['count']}"
    # rational model points p_j = prod_i theta_i^a_ij at two fixed parameter vectors
    points = []
    for shift in (2, 3):
        theta = [Fraction(shift + i, shift + 2 * i + 1) for i in range(len(rows))]
        points.append([math.prod(t ** row[j] for t, row in zip(theta, rows)) for j in range(m)])
    for text in gens:
        try:
            terms = _terms(parse_poly(text, names))
        except ValueError as exc:
            return f"generator {text!r} does not reparse: {exc}"
        pair = _binomial_exponents(terms)
        if pair is None:
            return f"generator {text!r} is not a monic binomial"
        diff = [a - b for a, b in zip(*pair)]
        if any(sum(r[j] * diff[j] for j in range(m)) for r in rows):
            return f"generator {text!r} is not in the lattice ideal"
        if any(_evaluate(terms, pt) != 0 for pt in points):
            return f"generator {text!r} does not vanish on the model"
    return None


def check_check(req, rc: int, out: str) -> str | None:
    payload, why = _load(out)
    if why:
        return why
    if payload.get("member") is not req.spec["member"]:
        return f"member is {payload.get('member')!r}, expected {req.spec['member']!r}"
    if payload.get("passed") is not (rc == 0):
        return "passed flag disagrees with the exit code"
    return None


def _column_weights(doc: dict) -> list[Fraction]:
    prior = doc.get("prior")
    return [Fraction(w) for w in prior] if prior else [Fraction(1)] * doc["m"]


def _shift_nonnegative(terms: dict) -> dict:
    n = len(next(iter(terms)))
    shift = [max(0, -min(e[k] for e in terms)) for k in range(n)]
    return {tuple(a + s for a, s in zip(e, shift)): c for e, c in terms.items()}


def _accumulate(pairs) -> dict:
    terms: dict = {}
    for exps, coeff in pairs:
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return {e: c for e, c in terms.items() if c}


def expected_system(doc: dict) -> list[dict]:
    """Direct moment equations ``sum_j h_j (a_ij - T_i) theta^a_j``, cleared."""
    rows = [c["values"] for c in doc["constraints"]]
    m, h = doc["m"], _column_weights(doc)
    if "samples" in doc:
        n = len(doc["samples"])
        targets = [Fraction(sum(r[s - 1] for s in doc["samples"]), n) for r in rows]
    else:
        targets = [Fraction(c["target"]) for c in doc["constraints"]]
    cols = [tuple(r[j] for r in rows) for j in range(m)]
    return [
        _shift_nonnegative(_accumulate((cols[j], h[j] * (row[j] - t)) for j in range(m)))
        for row, t in zip(rows, targets)
    ]


def expected_dual(doc: dict):
    """Empirical dual objective ``sum_j h_j theta^(sigma - N a_j)``, its gradient and cleared form."""
    rows = [c["values"] for c in doc["constraints"]]
    m, h = doc["m"], _column_weights(doc)
    samples = doc["samples"]
    n = len(samples)
    sigma = [sum(r[s - 1] for s in samples) for r in rows]
    objective = _accumulate(
        (tuple(sg - n * r[j] for sg, r in zip(sigma, rows)), h[j]) for j in range(m)
    )
    gradient = []
    for k in range(len(rows)):
        pairs = []
        for exps, coeff in objective.items():
            if exps[k]:
                lowered = list(exps)
                lowered[k] -= 1
                pairs.append((tuple(lowered), coeff * exps[k]))
        gradient.append(_accumulate(pairs))
    equations = [_shift_nonnegative(g) if g else g for g in gradient]
    return objective, gradient, equations


def _compare_polys(texts, expected, names, parse_poly, laurent, label) -> str | None:
    if len(texts) != len(expected):
        return f"{len(texts)} {label}, expected {len(expected)}"
    for text, want in zip(texts, expected):
        try:
            got = _terms(parse_poly(text, names, laurent=laurent))
        except ValueError as exc:
            return f"{label} {text!r} does not reparse: {exc}"
        if got != want:
            return f"{label} {text!r} differs from the expected polynomial"
    return None


def check_system(req, rc: int, out: str, parse_poly) -> str | None:
    payload, why = _load(out)
    if why:
        return why
    doc = req.spec["doc"]
    names = [f"t{i + 1}" for i in range(len(doc["constraints"]))]
    if payload.get("variables") != names or payload.get("provenance") != "direct":
        return "wrong variables or provenance"
    return _compare_polys(payload.get("equations", []), expected_system(doc), names, parse_poly, False, "equation")


def check_dual(req, rc: int, out: str, parse_poly) -> str | None:
    payload, why = _load(out)
    if why:
        return why
    doc = req.spec["doc"]
    names = [f"t{i + 1}" for i in range(len(doc["constraints"]))]
    if payload.get("variables") != names or payload.get("provenance") != "dual-empirical":
        return "wrong variables or provenance"
    objective, gradient, equations = expected_dual(doc)
    return (
        _compare_polys([payload.get("objective", "")], [objective], names, parse_poly, True, "objective")
        or _compare_polys(payload.get("gradient", []), gradient, names, parse_poly, True, "gradient")
        or _compare_polys(payload.get("equations", []), equations, names, parse_poly, False, "equation")
    )


class Oracle:
    """Checks every output of a run; a repeat must match its first output byte for byte."""

    def __init__(self, parse_poly):
        self.parse_poly = parse_poly
        self.checked: dict[str, tuple[bytes, str | None]] = {}
        self.exact_p: dict[str, list] = {}

    def verdict(self, req, rc: int, out: str) -> str | None:
        if rc != req.expect_rc:
            return f"exit code {rc}, expected {req.expect_rc}"
        digest = hashlib.blake2b(out.encode()).digest()
        if req.rid in self.checked:
            first, why = self.checked[req.rid]
            return why if digest == first else "output differs from an earlier call of the same request"
        why = self._check(req, rc, out)
        self.checked[req.rid] = (digest, why)
        return why

    def _check(self, req, rc: int, out: str) -> str | None:
        kind = req.oracle
        if kind == "fit":
            why = check_fit(req, rc, out)
            if why is None and "groebner" in req.argv:
                self.exact_p[req.rid] = json.loads(out)["p"]
            if why is None and req.spec.get("agree_with") in self.exact_p:
                why = check_agreement(self.exact_p[req.spec["agree_with"]], json.loads(out)["p"])
            return why
        if kind == "ideal":
            return check_ideal(req, rc, out, self.parse_poly)
        if kind == "check":
            return check_check(req, rc, out)
        if kind == "system":
            return check_system(req, rc, out, self.parse_poly)
        if kind == "dual":
            return check_dual(req, rc, out, self.parse_poly)
        raise ValueError(f"unknown oracle {kind!r}")
