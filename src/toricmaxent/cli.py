"""Command-line front end: fit, emit polynomial systems, check distributions.

Problems arrive as JSON documents; results go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 solver failure (infeasible moments or
rank deficiency) or, from the console entry, a stdout closed before the
output was written, 2 input error, 3 size limit.  Identical inputs and
flags produce byte-identical output.

A numeric fit of a valid document loops over the alphabet only in C.
A document of at least ``_READ_MIN`` characters is read by
:func:`_load_document`: one regex pass finds each bracketed run of at
least ``_READ_MIN`` characters of digits, commas, minus signs and JSON
whitespace outside any string, and :func:`_read_ints` checks the JSON
integer-array grammar and decodes the digits with whole-array numpy
passes over its bytes, for entries below ``10**18`` in absolute value.
An accepted run reaches the document as an int64 array, and any other
run is left to ``json``.  Shorter documents, and documents with ``NaN``
or ``Infinity`` outside a string, go to ``json.loads`` as they are.  An
int64 ``values`` row needs no further check, and when every row is one
the matrix is one ``np.stack``.  Any other array field
(``values``, ``samples``, ``prior``) is validated in one pass of
``set(map(type, xs))``, plus ``min`` and ``max`` for ``samples`` and
``min`` for ``prior``; ``values`` gets the type check only.  Only when
that fails is the field scanned again in order, so the message names the
first bad index.  Rows that are not all int64 arrays become the matrix
through one ``np.array`` call: an int64 array, or an object array of the
same ints when an entry does not fit, so a huge entry still reaches the
exact path.  A numeric fit converts the matrix to floats
once and never builds tuples of Python ints.

:func:`_emit` is the one serializer.  It writes a payload key by key, as
one JSON object or as ``key: value`` lines, and never holds the whole
output as one string.  A float, a list of numbers and a float array are
all formatted by one function, and :func:`_join_array` writes a list or
an array ``_CHUNK`` entries at a time.
A fitted ``p`` is emitted from the float array of
``DistributionVector.to_array()``.  A fit without a prior whose solver
merged equal columns hands the emitter each symbol's column class, and
when every entry of ``p`` has its class's bits, each class's value is
formatted once and the texts are gathered by class, with no pass over the
alphabet in Python.  Otherwise, when ``p`` is long and at most three
quarters of its entries are distinct, as in a toric model with few
distinct columns and weights, ``np.unique`` finds the distinct values and
each is formatted once.  Either way every distinct text is made before
the first write, and each write gathers the texts of one chunk.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import json

import numpy as np

from .errors import (
    InfeasibleMomentsError,
    RankDeficiencyError,
    SizeLimitError,
    UnsupportedStructureError,
)
from .maxent import (
    DEFAULT_TOL,
    MaxEntProblem,
    direct_system,
    dual_system,
    fit_algebraic,
    fit_numeric,
    kl_divergence,
    moments,
    shannon_entropy,
)
from .ratpoly import GREVLEX, LEX, MonomialOrder, poly_to_text
from .toric import (
    ConstraintMatrix,
    DistributionVector,
    _as_floats,
    _int_array,
    toric_ideal_generators,
    verify_model_membership,
)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_INPUT = 2
EXIT_SIZE = 3


class InputError(Exception):
    """Malformed problem document or flags; message names the field path."""


@dataclass(frozen=True)
class ProblemDef:
    """Validated problem document: constraint matrix, data, prior.

    ``targets`` holds one target per row, or is ``None`` when ``samples``
    are given.
    """

    matrix: ConstraintMatrix
    targets: tuple[int | Fraction, ...] | None
    samples: tuple[int, ...] | None
    prior: tuple[int | Fraction, ...] | None

    def to_problem(self) -> MaxEntProblem:
        if self.samples is not None:
            return MaxEntProblem.from_samples(self.matrix, self.samples, prior=self.prior)
        return MaxEntProblem.from_targets(self.matrix, self.targets, prior=self.prior)


def _as_rational(value, path: str) -> int | Fraction:
    if isinstance(value, bool):
        raise InputError(f"{path}: expected a number, got a boolean")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{path}: cannot parse {value!r} as a rational") from None
    raise InputError(f"{path}: expected a number or 'a/b' string")


def _all_ints(values: list) -> bool:
    """Whether every entry is an ``int`` (bools excluded), in one C-level pass."""
    return set(map(type, values)) <= {int}


# Below this many characters, json reads an integer array about as fast as
# the regex pass and the numpy decoder.  A problem with three rows and a
# prior, in compact JSON, parses through numpy in 0.45x json's time at rows
# of 1025 characters of entries 0..4 (break-even near 300 characters), but
# in 1.2x at rows of 1387 characters of entries 0..255 (break-even between
# 1500 and 1800), so the gate sits between the two.
_READ_MIN = 1024
# a JSON string, kept as it is; a bracketed run long enough to read with
# numpy; or a constant outside any string, which sends the text to json
_TOKENS = re.compile(r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"|\[([-0-9, \t\n\r]{%d,})\]|(NaN|Infinity)' % _READ_MIN)


def _run_count(digit: np.ndarray) -> int:
    """The number of runs of ``True`` in a boolean array."""
    return digit[0] + np.count_nonzero(digit[1:] > digit[:-1])


def _read_ints(body: str) -> np.ndarray | None:
    """The int64 array of a JSON array body, or ``None`` if ``json`` might read it otherwise.

    The body is a run of digits, commas, minus signs and JSON whitespace.
    Whitespace may not split a number (``1 2``, ``- 1``), so it is checked
    and dropped first.  What is left is read only when it is exactly
    ``-?D+(,-?D+)*`` for digit runs ``D`` without a leading zero and of at
    most 18 digits, so every entry is below ``10**18`` in absolute value;
    ``-0`` reads as 0, as in ``json``.

    >>> _read_ints("3, -12,0").tolist()
    [3, -12, 0]
    >>> [_read_ints(body) for body in ("1 2", "- 1", "01", "1,,2", "1-2", " ")]
    [None, None, None, None, None, None]
    """
    raw = body.encode("ascii")
    chars = np.frombuffer(raw, np.uint8)
    if chars.min() < 33:  # whitespace is the only such character the regex passes
        digit = (chars - np.uint8(48)) < 10
        minus = chars == ord("-")
        if (minus[:-1] > digit[1:]).any():  # "- 1"; a final minus sign fails below
            return None
        runs = _run_count(digit)
        chars = np.frombuffer(raw.translate(None, b" \t\n\r"), np.uint8)
        if not len(chars) or _run_count((chars - np.uint8(48)) < 10) != runs:
            return None
    val = chars - np.uint8(48)
    digit = val < 10  # wraps below "0", so only the ten digits pass
    if chars[0] == ord(",") or not digit[-1]:
        return None
    comma = chars == ord(",")
    minus = chars == ord("-")
    signed = minus.any()
    # a comma only after a digit, a minus sign only first or after a comma
    if (comma[1:] > digit[:-1]).any() or signed and (minus[1:] > comma[:-1]).any():
        return None
    count = np.count_nonzero(digit)
    if not signed and len(chars) == 2 * count - 1:  # one digit per entry: "D,D,...,D"
        return val[::2].astype(np.int64)
    first = digit.copy()
    np.greater(digit[1:], digit[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    ints = val[starts].astype(np.int64)
    if len(starts) < count:  # some entry has more than one digit
        last = digit.copy()
        np.greater(digit[:-1], digit[1:], out=last[:-1])
        length = np.flatnonzero(last) - starts + 1
        longest = length.max()
        if longest > 18 or not ints[length > 1].all():
            return None
        for k in range(1, longest):
            ints = np.where(length > k, ints * 10 + val.take(starts + k, mode="clip"), ints)
    if signed:
        # the character before a run at 0 is the last one, a digit
        np.negative(ints, out=ints, where=chars[starts - 1] == ord("-"))
    return ints


def _load_document(text: str):
    """``json.loads(text, parse_float=Fraction)``, with long integer arrays as int64 arrays.

    Each run of ``_TOKENS`` that ``_read_ints`` accepts is replaced by the
    constant ``NaN``, which ``parse_constant`` turns back into its array in
    document order.  A text with ``NaN`` or ``Infinity`` outside a string
    goes to ``json`` as it is, so the rewritten text holds no other
    constant.  Since a string token is kept whole, no bracket or constant
    inside a string is read.  Any decoding error is raised from the
    original text, so its message and position are those of ``json.loads``.
    """
    if len(text) < _READ_MIN:
        return json.loads(text, parse_float=Fraction)
    pieces, arrays, end = [], [], 0
    for match in _TOKENS.finditer(text):
        body, constant = match.groups()
        if constant:
            return json.loads(text, parse_float=Fraction)
        ints = None if body is None else _read_ints(body)
        if ints is not None:
            pieces += text[end:match.start()], "NaN"
            arrays.append(ints)
            end = match.end()
    pieces.append(text[end:])
    read = iter(arrays)
    try:
        return json.loads("".join(pieces), parse_float=Fraction, parse_constant=lambda _: next(read))
    except json.JSONDecodeError:
        return json.loads(text, parse_float=Fraction)


def _listed(value):
    """A long array read by ``_load_document`` as the list ``json`` would have given."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def parse_problem(text: str) -> ProblemDef:
    """Parse and validate a problem document.

    Targets and priors may be integers, which stay ``int``, decimals
    (converted exactly from their literal digits) or ``"a/b"`` strings.
    Constraint values must be integers.
    """
    try:
        doc = _load_document(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("top level: expected an object")
    known = {"m", "constraints", "samples", "prior"}
    for key in doc:
        if key not in known:
            raise InputError(f"{key}: unknown field")

    m = doc.get("m")
    if isinstance(m, bool) or not isinstance(m, int) or m < 2:
        raise InputError("m: expected an integer >= 2")

    raw_constraints = _listed(doc.get("constraints"))
    if not isinstance(raw_constraints, list) or not raw_constraints:
        raise InputError("constraints: expected a nonempty array")

    samples = _listed(doc.get("samples"))
    if samples is not None:
        if not isinstance(samples, list) or not samples:
            raise InputError("samples: expected a nonempty array")
        if not (_all_ints(samples) and 1 <= min(samples) and max(samples) <= m):
            for j, value in enumerate(samples):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise InputError(f"samples[{j}]: expected an integer symbol")
                if not 1 <= value <= m:
                    raise InputError(f"samples[{j}]: symbol {value} outside 1..{m}")
        samples = tuple(samples)

    rows, targets = [], []
    for i, raw in enumerate(raw_constraints):
        path = f"constraints[{i}]"
        if not isinstance(raw, dict):
            raise InputError(f"{path}: expected an object")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise InputError(f"{path}.name: expected a nonempty string")
        values = raw.get("values")
        if not isinstance(values, (list, np.ndarray)) or len(values) != m:
            raise InputError(f"{path}.values: expected an array of length {m}")
        if isinstance(values, list) and not _all_ints(values):
            for j, value in enumerate(values):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise InputError(f"{path}.values[{j}]: integer-valued constraint functions are required")
        target = raw.get("target")
        if target is not None:
            if samples is not None:
                raise InputError(f"{path}.target: targets and samples are mutually exclusive")
            target = _as_rational(target, f"{path}.target")
        elif samples is None:
            raise InputError(f"{path}.target: missing (and no samples given)")
        rows.append(values)
        targets.append(target)

    prior = _listed(doc.get("prior"))
    if prior is not None:
        if not isinstance(prior, list) or len(prior) != m:
            raise InputError(f"prior: expected an array of length {m}")
        if not (_all_ints(prior) and min(prior) > 0):
            weights = []
            for j, value in enumerate(prior):
                w = _as_rational(value, f"prior[{j}]")
                if w <= 0:
                    raise InputError(f"prior[{j}]: weights must be strictly positive")
                weights.append(w)
            prior = weights
        prior = tuple(prior)

    if all(isinstance(row, np.ndarray) for row in rows):
        matrix = ConstraintMatrix(np.stack(rows))
    else:
        # every entry is a Python int by now: one call builds the array, and the matrix copies it
        matrix = ConstraintMatrix(_int_array([_listed(row) for row in rows]))
    return ProblemDef(matrix, None if samples is not None else tuple(targets), samples, prior)


_REAL_FORMAT = "%.17g"

# Below this length, sorting and gathering cost more than formatting every entry.
_GATHER_MIN = 32
# Above this share of distinct entries, gathering costs about as much as
# formatting every entry: at m = 10^3..10^5 the two break even between 0.8
# and 0.9 of m, and gathering takes 0.83-0.87 of the time at 0.75.
_GATHER_SHARE = 0.75
# Entries of a float array formatted or gathered per write, so the text in
# memory at once stays near 1.5 MB whatever the length of the array.
_CHUNK = 1 << 16


def _format_floats(values, sep: str) -> str:
    return sep.join([_REAL_FORMAT] * len(values)) % tuple(values)


def _join_array(out, values, sep: str, classes: np.ndarray | None = None) -> None:
    """Write ``%.17g`` of each entry of a list of numbers or a float64 array, joined by ``sep``.

    Array entries are compared by bit pattern, so ``0.0`` and ``-0.0`` stay
    apart and every NaN prints as itself.  ``classes``, when given, maps
    each entry to one of the classes ``0..K-1``, each of which has an entry,
    as the column classes of a fit without a prior do.  When one vectorized
    comparison finds every entry equal to an entry of its class, that entry
    is formatted once per class and the texts are gathered by class.
    Otherwise, when the array has at least ``_GATHER_MIN`` entries and at
    most ``_GATHER_SHARE`` of them are distinct, ``np.unique`` finds the
    distinct values, each is formatted once and the texts are gathered by
    index.  Each class or distinct value is formatted once for the whole
    array, before the first write, and each write then gathers the texts of
    ``_CHUNK`` entries; without a gather, each write formats ``_CHUNK``
    entries.
    """
    index = None
    if isinstance(values, np.ndarray):
        bits = values.view(np.uint64)
        if classes is not None:
            pick = np.empty(classes.max() + 1, dtype=np.intp)
            pick[classes] = np.arange(len(classes))  # some entry of each class
            if (bits[pick][classes] == bits).all():
                texts, index = values[pick], classes
        if index is None and len(values) >= _GATHER_MIN:
            distinct, inverse = np.unique(bits, return_inverse=True)
            if len(distinct) <= _GATHER_SHARE * len(values):
                texts, index = distinct.view(np.float64), inverse
        if index is not None:
            # no ``%.17g`` text contains a space, so splitting on ``sep`` recovers each one
            texts = np.array(_format_floats(texts, sep).split(sep), dtype=object)
    for start in range(0, len(values), _CHUNK):
        if start:
            out.write(sep)
        stop = start + _CHUNK
        if index is None:
            out.write(_format_floats(values[start:stop], sep))
        else:
            out.write(sep.join(texts[index[start:stop]].tolist()))


def _emit(out, payload: dict, fmt: str, classes=None) -> None:
    """Write ``payload`` key by key, as one JSON object or as ``key: value`` lines.

    A float, a list of numbers and a float array are formatted by
    :func:`_format_floats`, the lists through :func:`_join_array`, which
    takes ``classes`` for the array; JSON puts brackets around the lists.
    Every other value is written by ``json.dumps`` in JSON, and as itself
    in text, where a list of strings takes one line per entry.
    """
    as_json = fmt == "json"
    sep, end = (", ", "") if as_json else (" ", "\n")
    if as_json:
        out.write("{")
    for n, (key, value) in enumerate(payload.items()):
        head = f"{', ' if n else ''}{json.dumps(key)}: " if as_json else f"{key}: "
        strings = isinstance(value, (list, tuple)) and set(map(type, value)) <= {str}
        if strings and not as_json:
            out.writelines(f"{head}{v}\n" for v in value)
        elif isinstance(value, float):
            out.write(head + _format_floats([value], sep) + end)
        elif isinstance(value, (list, tuple, np.ndarray)) and not strings:
            out.write(head + "[" if as_json else head)
            _join_array(out, value, sep, classes)
            out.write("]" if as_json else end)
        else:
            out.write(head + (json.dumps(value) if as_json else str(value)) + end)
    if as_json:
        out.write("}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _read_distribution(path: str, m: int) -> tuple[float, ...]:
    """The ``m`` probabilities of a distribution file, as floats.

    Numbers parse straight to floats, each rounded once, as ``float`` of the
    exact decimal would be; ``+ 0.0`` turns ``-0.0`` into ``0.0``.  A number
    beyond float range reads as infinite and is reported as too large;
    ``NaN`` and ``Infinity``, which JSON does not allow, parse to strings and
    are not numbers.  The floats must then pass :class:`DistributionVector`:
    no negative entry, and a sum within its tolerance of 1.
    """
    text = _read_text(path)
    try:
        doc = json.loads(text, parse_constant=str)
    except json.JSONDecodeError as exc:
        raise InputError(f"distribution file: invalid JSON: {exc}") from None
    if isinstance(doc, dict):
        doc = doc.get("p")
    if not isinstance(doc, list):
        raise InputError("distribution file: expected an array or an object with a 'p' field")
    if len(doc) != m:
        raise InputError(f"distribution file: expected {m} probabilities, got {len(doc)}")
    values = []
    for j, value in enumerate(doc):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"distribution file: p[{j}] is not a number")
        try:
            x = float(value) + 0.0
        except OverflowError:  # an int beyond float range
            x = math.inf
        if math.isinf(x):
            raise InputError(f"distribution file: p[{j}] is too large for a float")
        values.append(x)
    try:
        return DistributionVector(values).probs
    except ValueError as exc:
        raise InputError(f"distribution file: {exc}") from None


def _text_order(args) -> MonomialOrder:
    return LEX if args.order == "lex" else GREVLEX


def _fit_payload(result) -> dict:
    payload = {"solver": result.solver, "iterations": result.iterations, "xi": result.xi}
    if result.xi_empirical is not None:
        payload["xi_empirical"] = result.xi_empirical
    payload.update({"p": result.p.to_array(), "logZ": result.log_z, "residual": result.residual})
    return payload


def _cmd_fit(args, parsed, out, err) -> int:
    problem = parsed.to_problem()
    if args.solver == "groebner":
        try:
            result = fit_algebraic(problem)
        except UnsupportedStructureError as exc:
            err.write(f"warning: algebraic solve unsupported ({exc}); falling back to newton\n")
            result = fit_numeric(problem, solver="newton", tol=args.tol, max_iter=args.max_iter)
    else:
        result = fit_numeric(problem, solver=args.solver, tol=args.tol, max_iter=args.max_iter)
    _emit(out, _fit_payload(result), args.format, result.classes)
    return EXIT_OK


def _cmd_system(args, parsed, out, err) -> int:
    problem = parsed.to_problem()
    system = direct_system(problem.matrix, problem.target_values(), problem.prior)
    order = _text_order(args)
    rendered = [poly_to_text(eq, order) for eq in system.equations]
    if args.format == "json":
        _emit(out, {
            "provenance": system.provenance,
            "variables": list(system.variables),
            "equations": rendered,
        }, "json")
    else:
        for line in rendered:
            out.write(line + "\n")
    return EXIT_OK


def _cmd_dual(args, parsed, out, err) -> int:
    problem = parsed.to_problem()
    source = problem.samples if problem.samples is not None else problem.targets
    system = dual_system(problem.matrix, source, problem.prior)
    order = _text_order(args)
    payload = {
        "provenance": system.provenance,
        "variables": list(system.variables),
        "objective": poly_to_text(system.objective, order),
        "gradient": [poly_to_text(g, order) for g in system.gradient],
        "equations": [poly_to_text(eq, order) for eq in system.equations],
    }
    if args.format == "text":
        payload = {"objective": payload["objective"], "gradient": payload["gradient"], "cleared": payload["equations"]}
    _emit(out, payload, args.format)
    return EXIT_OK


def _cmd_ideal(args, parsed, out, err) -> int:
    matrix = parsed.matrix
    generators = toric_ideal_generators(matrix)
    order = _text_order(args)
    rendered = [poly_to_text(g, order) for g in generators]
    if args.format == "json":
        _emit(out, {
            "variables": [f"p{j + 1}" for j in range(matrix.m)],
            "generators": rendered,
        }, "json")
    else:
        for line in rendered:
            out.write(line + "\n")
    return EXIT_OK


def _cmd_check(args, parsed, out, err) -> int:
    problem = parsed.to_problem()
    p = _read_distribution(args.dist, parsed.matrix.m)
    report = verify_model_membership(p, problem.matrix, tol=args.tol, prior=problem.prior)
    targets = _as_floats(problem.target_values(), "targets").tolist()
    mom = moments(problem.matrix, p)
    residuals = [abs(a - b) for a, b in zip(mom, targets)]
    max_moment = max(residuals)
    passed = report.member and max_moment <= args.tol
    _emit(out, {
        "member": report.member,
        "max_ideal_residual": report.max_residual,
        "ideal_residuals": list(report.residuals),
        "moment_residuals": residuals,
        "max_moment_residual": max_moment,
        "tol": float(args.tol),
        "passed": passed,
    }, args.format)
    if passed:
        return EXIT_OK
    err.write("check failed: distribution is off the model or misses its targets\n")
    return EXIT_SOLVER


def _cmd_entropy(args, parsed, out, err) -> int:
    m = parsed.matrix.m
    p = _read_distribution(args.dist, m)
    if parsed.prior is not None:
        # a weight beyond float range is an input error, as in ``fit`` and ``check``
        _as_floats(parsed.prior, "prior weights")
        total = sum(parsed.prior)
        reference = [float(w / total) for w in parsed.prior]
    else:
        reference = [1.0 / m] * m
    _emit(out, {
        "entropy": shannon_entropy(p),
        "kl_to_prior": kl_divergence(p, reference),
    }, args.format)
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "system": _cmd_system,
    "dual": _cmd_dual,
    "ideal": _cmd_ideal,
    "check": _cmd_check,
    "entropy": _cmd_entropy,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricmaxent",
        description="Fit maximum-entropy models and emit their polynomial systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads
    def common(p: argparse.ArgumentParser, tol=False, order=False, dist=False) -> None:
        p.add_argument("problem", help="problem JSON file, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="text")
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        if order:
            p.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
        if dist:
            p.add_argument("--dist", required=True, help="distribution JSON file, or - for stdin")

    fit = sub.add_parser("fit", help="fit the multipliers and distribution")
    common(fit, tol=True)
    fit.add_argument("--solver", choices=("gis", "newton", "groebner"), default="newton")
    fit.add_argument("--max-iter", type=int, default=None)

    common(sub.add_parser("system", help="emit the direct moment-matching system"), order=True)
    common(sub.add_parser("dual", help="emit the Laurent dual objective and its gradient"), order=True)
    common(sub.add_parser("ideal", help="emit toric ideal generators"), order=True)
    common(sub.add_parser("check", help="membership and moment residuals of a distribution"), tol=True, dist=True)
    common(sub.add_parser("entropy", help="entropy and divergence of a distribution"), dist=True)
    return parser


# Built once at import and shared by every call: parsing keeps no state in
# the parser, each call gets a fresh namespace.
_PARSER = _build_parser()


def main(argv=None, out=None, err=None) -> int:
    """Entry point; returns the process exit code.

    Reentrant: calls share one parser built at import, and argparse's usage,
    errors and ``--help`` go to the ``out`` and ``err`` of the call.  The
    problem document is read and parsed here, once, for every command.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # argparse writes usage, errors and --help to the process streams
        with redirect_stdout(out), redirect_stderr(err):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    if hasattr(args, "tol") and not 0 < args.tol < math.inf:
        err.write("error: --tol must be positive and finite\n")
        return EXIT_INPUT
    if getattr(args, "max_iter", None) is not None and args.max_iter < 1:
        err.write("error: --max-iter must be at least 1\n")
        return EXIT_INPUT
    try:
        return _COMMANDS[args.command](args, parse_problem(_read_text(args.problem)), out, err)
    except (InputError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT
    except SizeLimitError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_SIZE
    except (InfeasibleMomentsError, RankDeficiencyError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_SOLVER


def console_main() -> None:
    """Console entry: ``main`` on the process streams, exiting 1 when stdout is closed."""
    try:
        code = main()
        # flush here, so a closed stdout raises inside this block
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_SOLVER
    raise SystemExit(code)
