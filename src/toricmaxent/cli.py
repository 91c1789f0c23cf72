"""Command-line front end: fit, emit polynomial systems, check distributions.

Problems arrive as JSON documents; results go to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 solver failure (infeasible moments or
rank deficiency) or, from the console entry, a stdout closed before the
output was written, 2 input error, 3 size limit.  Identical inputs and
flags produce byte-identical output.

A numeric fit of a valid document loops over the alphabet only in C.
Each ``values`` row is checked and converted by one ``bytes(values)``
call, which raises on any entry that is not an int in 0..255; when every
row passes, the rows are joined and read by one ``np.frombuffer`` as the
uint8 array of the :class:`ConstraintMatrix`.  ``bytes`` also takes a
bool, which JSON yields only from the literals ``true`` and ``false``, so
a document whose text holds either literal, or a row that ``bytes``
rejects, takes the general path.  There each array field (``values``,
``samples``, ``prior``) is validated in one pass of
``set(map(type, xs))``, plus ``min`` and ``max`` for ``samples`` and
``min`` for ``prior``; ``values`` gets the type check only.  Only when
that fails is the field scanned again in order, so the message names the
first bad index.  On the general path the checked ``values`` of all rows
become the matrix through one ``np.array`` call: an int64 array, or an
object array of the same ints when an entry does not fit, so a huge entry
still reaches the exact path.  A numeric fit converts the matrix to floats
once and never builds tuples of Python ints.  Any list or tuple that is
not all strings is emitted by one ``%`` call.  A fitted ``p`` is emitted
from the float array of ``DistributionVector.to_array()``; when it is long
and at least half its entries repeat, as in a toric model with few
distinct columns and weights, each distinct value is formatted once.
"""

from __future__ import annotations

import argparse
import math
import os
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


def parse_problem(text: str) -> ProblemDef:
    """Parse and validate a problem document.

    Targets and priors may be integers, which stay ``int``, decimals
    (converted exactly from their literal digits) or ``"a/b"`` strings.
    Constraint values must be integers.
    """
    try:
        doc = json.loads(text, parse_float=Fraction)
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

    raw_constraints = doc.get("constraints")
    if not isinstance(raw_constraints, list) or not raw_constraints:
        raise InputError("constraints: expected a nonempty array")

    samples = doc.get("samples")
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

    # ``bytes`` takes a bool as 0 or 1, and JSON yields a bool only from these literals
    packed = None if "true" in text or "false" in text else []
    rows, targets = [], []
    for i, raw in enumerate(raw_constraints):
        path = f"constraints[{i}]"
        if not isinstance(raw, dict):
            raise InputError(f"{path}: expected an object")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise InputError(f"{path}.name: expected a nonempty string")
        values = raw.get("values")
        if not isinstance(values, list) or len(values) != m:
            raise InputError(f"{path}.values: expected an array of length {m}")
        if packed is not None:
            try:
                packed.append(bytes(values))
            except (TypeError, ValueError):
                packed = None
        if packed is None and not _all_ints(values):
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

    prior = doc.get("prior")
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

    if packed is not None:
        matrix = ConstraintMatrix(np.frombuffer(b"".join(packed), np.uint8).reshape(len(packed), m))
    else:
        # every entry is a Python int by now: one call builds the array, and the matrix copies it
        matrix = ConstraintMatrix(_int_array(rows))
    return ProblemDef(matrix, None if samples is not None else tuple(targets), samples, prior)


_REAL_FORMAT = "%.17g"


def _format_real(x: float) -> str:
    return _REAL_FORMAT % float(x)


# Below this length, sorting and gathering cost more than formatting every entry.
_GATHER_MIN = 32


def _format_floats(values, sep: str) -> str:
    return sep.join([_REAL_FORMAT] * len(values)) % tuple(values)


def _join_array(arr: np.ndarray, sep: str) -> str:
    """``%.17g`` of each entry of a float64 array, joined by ``sep``.

    Entries are keyed by bit pattern, so ``0.0`` and ``-0.0`` stay apart and
    every NaN prints as itself.  When the array has at least
    ``_GATHER_MIN`` entries and at least half of them repeat, each distinct
    value is formatted once and the texts are gathered by index; otherwise
    the whole array takes one ``%`` call.
    """
    if len(arr) >= _GATHER_MIN:
        distinct, inverse = np.unique(arr.view(np.uint64), return_inverse=True)
        if 2 * len(distinct) <= len(arr):
            # no ``%.17g`` text contains a space, so splitting on ``sep`` recovers each one
            texts = np.array(_format_floats(distinct.view(np.float64).tolist(), sep).split(sep), dtype=object)
            return sep.join(texts[inverse].tolist())
    return _format_floats(arr.tolist(), sep)


def _to_json(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_real(value)
    if isinstance(value, np.ndarray):
        return "[" + _join_array(value, ", ") + "]"
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= {str}:
            return "[" + ", ".join(map(json.dumps, value)) + "]"
        return "[" + _format_floats(value, ", ") + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {_to_json(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit(out, payload: dict, fmt: str) -> None:
    if fmt == "json":
        out.write(_to_json(payload) + "\n")
        return
    for key, value in payload.items():
        if isinstance(value, float):
            out.write(f"{key}: {_format_real(value)}\n")
        elif isinstance(value, np.ndarray):
            out.write(f"{key}: {_join_array(value, ' ')}\n")
        elif isinstance(value, (list, tuple)) and set(map(type, value)) <= {str}:
            for v in value:
                out.write(f"{key}: {v}\n")
        elif isinstance(value, (list, tuple)):
            out.write(f"{key}: {_format_floats(value, ' ')}\n")
        else:
            out.write(f"{key}: {value}\n")


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
    _emit(out, _fit_payload(result), args.format)
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
