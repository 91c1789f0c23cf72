"""Command-line front end: parsing, commands, exit codes, output formats."""

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmaxent import cli
from toricmaxent.cli import _READ_MIN, InputError, _emit, _load_document, _read_ints, main, parse_problem
from toricmaxent.maxent import fit_numeric
from toricmaxent.ratpoly import parse_poly, poly_to_text

DICE = {"m": 6, "constraints": [{"name": "mean", "values": [1, 2, 3, 4, 5, 6], "target": "9/2"}]}
QUAD = {"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1"}]}
INDEPENDENCE = {
    "m": 4,
    "constraints": [
        {"name": "r1", "values": [1, 1, 0, 0]},
        {"name": "r2", "values": [0, 0, 1, 1]},
        {"name": "c1", "values": [1, 0, 1, 0]},
        {"name": "c2", "values": [0, 1, 0, 1]},
    ],
    "samples": [1],
}


def run(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv, out=out, err=err)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def write_json(tmp_path):
    counter = iter(range(1000))

    def _write(obj):
        path = tmp_path / f"in{next(counter)}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


# --- problem parsing ---


def test_parse_rational_string_target():
    parsed = parse_problem(json.dumps(DICE))
    assert parsed.targets[0] == Fraction(9, 2)


def test_parse_decimal_target_is_exact():
    parsed = parse_problem('{"m":3,"constraints":[{"name":"t","values":[0,1,2],"target":0.1}]}')
    assert parsed.targets[0] == Fraction(1, 10)


def test_parse_sample_mode():
    parsed = parse_problem('{"m":2,"constraints":[{"name":"t","values":[0,1]}],"samples":[1,2]}')
    problem = parsed.to_problem()
    assert problem.samples.sums == (1,)
    assert problem.samples.count == 2


def test_parse_rejects_non_integer_constraint_values():
    text = '{"m":2,"constraints":[{"name":"t","values":[0.5,1]}],"samples":[1]}'
    with pytest.raises(InputError, match="integer-valued"):
        parse_problem(text)


def test_parse_rejects_unknown_fields():
    with pytest.raises(InputError, match="unknown field"):
        parse_problem('{"m":2,"constraints":[{"name":"t","values":[0,1]}],"samples":[1],"x":1}')


def test_parse_requires_exactly_one_of_targets_or_samples():
    with pytest.raises(InputError):
        parse_problem('{"m":2,"constraints":[{"name":"t","values":[0,1]}]}')
    both = {
        "m": 2,
        "constraints": [{"name": "t", "values": [0, 1], "target": "1/2"}],
        "samples": [1],
    }
    with pytest.raises(InputError):
        parse_problem(json.dumps(both))


def test_parse_error_messages_carry_field_paths():
    with pytest.raises(InputError, match=r"constraints\[0\]\.values"):
        parse_problem('{"m":2,"constraints":[{"name":"t","values":[0]}],"samples":[1]}')


def test_parse_rejects_nonpositive_prior():
    bad = {
        "m": 2,
        "constraints": [{"name": "t", "values": [0, 1], "target": "1/2"}],
        "prior": [1, 0],
    }
    with pytest.raises(InputError, match="prior"):
        parse_problem(json.dumps(bad))


def _doc(values=(0, 1, 2), samples=None, prior=None) -> str:
    constraint = {"name": "t", "values": list(values)}
    if samples is None:
        constraint["target"] = "1"
    doc = {"m": 3, "constraints": [constraint]}
    if samples is not None:
        doc["samples"] = samples
    if prior is not None:
        doc["prior"] = prior
    return json.dumps(doc)


# Each field is checked in one pass; a failure is rescanned in order, so the
# message names the first bad index even when a later entry fails a
# different test (the minimum of samples [2, true, 0] sits at index 2).
PARSE_ERRORS = {
    "bool value": (_doc(values=[0, True, 2]), "constraints[0].values[1]: integer-valued constraint functions are required"),
    "float value": (_doc(values=[0, 1, 1.5]), "constraints[0].values[2]: integer-valued constraint functions are required"),
    "value before bool": (_doc(values=[0.5, True, 2]), "constraints[0].values[0]: integer-valued constraint functions are required"),
    "sample 0": (_doc(samples=[1, 0, 2]), "samples[1]: symbol 0 outside 1..3"),
    "sample m+1": (_doc(samples=[1, 2, 4]), "samples[2]: symbol 4 outside 1..3"),
    "bool sample": (_doc(samples=[2, True, 0]), "samples[1]: expected an integer symbol"),
    "float sample": (_doc(samples=[3, 1.0]), "samples[1]: expected an integer symbol"),
    "zero weight": (_doc(prior=[1, 0, 2]), "prior[1]: weights must be strictly positive"),
    "negative weight": (_doc(prior=[1, 2, -3]), "prior[2]: weights must be strictly positive"),
    "negative rational weight": (_doc(prior=["1/2", "-1/3", 0]), "prior[1]: weights must be strictly positive"),
    "bad rational": (_doc(prior=[1, "1/x", 0]), "prior[1]: cannot parse '1/x' as a rational"),
    "weight before bad rational": (_doc(prior=[0, "1/x", 1]), "prior[0]: weights must be strictly positive"),
    "zero denominator": (_doc(prior=["1/0", 1, 1]), "prior[0]: cannot parse '1/0' as a rational"),
    "bool weight": (_doc(prior=[1, 1, False]), "prior[2]: expected a number, got a boolean"),
    "null weight": (_doc(prior=[1, None, 1]), "prior[1]: expected a number or 'a/b' string"),
    "top level array": ("[]", "top level: expected an object"),
    "m of 1": ('{"m": 1, "constraints": [{"name": "t", "values": [0], "target": 0}]}', "m: expected an integer >= 2"),
    "empty constraints": ('{"m": 3, "constraints": []}', "constraints: expected a nonempty array"),
    "empty samples": (_doc(samples=[]), "samples: expected a nonempty array"),
    "constraint not an object": ('{"m": 3, "constraints": [[0, 1, 2]]}', "constraints[0]: expected an object"),
    "empty name": (_doc().replace('"name": "t"', '"name": ""'), "constraints[0].name: expected a nonempty string"),
    "prior length": (_doc(prior=[1, 2]), "prior: expected an array of length 3"),
}


@pytest.mark.parametrize("case", list(PARSE_ERRORS))
def test_parse_error_names_the_first_bad_index(case):
    text, message = PARSE_ERRORS[case]
    with pytest.raises(InputError) as exc:
        parse_problem(text)
    assert str(exc.value) == message
    assert run(["fit", "-"], stdin=text) == (2, "", f"error: {message}\n")


def test_parse_accepts_every_prior_weight_form():
    parsed = parse_problem(_doc(prior=["1/2", 3, 0.25]))
    assert parsed.prior == (Fraction(1, 2), 3, Fraction(1, 4))
    assert parse_problem(_doc(prior=[" 2/4 ", "7", "1e-3"])).prior == (Fraction(1, 2), 7, Fraction(1, 1000))
    assert parse_problem(_doc(prior=[1, 2, 3])).prior == (1, 2, 3)
    parsed = parse_problem(_doc(samples=[3, 1, 3]))
    assert parsed.samples == (3, 1, 3)
    assert parsed.matrix.rows[0] == (0, 1, 2)


def _reference_values(text: str) -> np.ndarray:
    """The ``values`` checks of ``parse_problem`` as a type scan per row, kept here as the oracle.

    A row whose types are not all ``int`` is rescanned in order, so the
    message names its first bad entry; the rows then become one int64
    array, or an object array of the same ints when an entry does not fit.
    """
    rows = []
    for i, raw in enumerate(json.loads(text, parse_float=Fraction)["constraints"]):
        values = raw["values"]
        if not set(map(type, values)) <= {int}:
            for j, value in enumerate(values):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise InputError(f"constraints[{i}].values[{j}]: integer-valued constraint functions are required")
        rows.append(values)
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


_ODD_VALUES = [256, -1, 2**63, -(2**63), 2**63 - 1, -(2**63) - 1, 10**400, 0.0, 1.5, -0.0, 1e300,
               "1", None, [1], [[0, 1]], True, False]
# "true" and "false" inside a name put the literals in the text without a bool in the document
_NAMES = ["f", "true", "false", "untrue", "x-false-y", "True", "FALSE"]


def _drawn_row(draw, m: int, entries):
    """A row of ``m`` drawn entries; a long row repeats a short drawn pattern."""
    if m <= 8:
        return draw(st.lists(entries, min_size=m, max_size=m))
    return (draw(st.lists(entries, min_size=1, max_size=5)) * m)[:m]


@st.composite
def _values_documents(draw):
    """A problem text whose rows are all in 0..255 or mixed with odd entries, and its other fields.

    Rows of m in 300..400 entries are long enough for ``_load_document`` to
    read them with numpy; shorter ones go through ``json`` alone.
    """
    m, d = draw(st.one_of(st.integers(2, 6), st.integers(300, 400))), draw(st.integers(1, 3))
    byte = st.integers(0, 255)
    odd = st.one_of(byte, st.sampled_from(_ODD_VALUES))
    rows = [_drawn_row(draw, m, draw(st.sampled_from([byte, odd]))) for _ in range(d)]
    constraints = [{"name": draw(st.sampled_from(_NAMES)), "values": row} for row in rows]
    doc = {"m": m, "constraints": constraints}
    targets = samples = prior = None
    if draw(st.booleans()):
        samples = tuple(_drawn_row(draw, draw(st.integers(1, 8)) if m <= 6 else m, st.integers(1, m)))
        doc["samples"] = list(samples)
    else:
        targets = tuple(draw(st.lists(st.fractions(-9, 9, max_denominator=7), min_size=d, max_size=d)))
        for c, t in zip(constraints, targets):
            c["target"] = int(t) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"
    if draw(st.booleans()):
        prior = tuple(_drawn_row(draw, m, st.integers(1, 5)))
        doc["prior"] = list(prior)
    return json.dumps(doc), targets, samples, prior


@settings(max_examples=400, deadline=None)
@given(_values_documents())
def test_parse_values_agree_with_the_type_scan(case):
    text, targets, samples, prior = case
    try:
        expected = _reference_values(text)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            parse_problem(text)
        assert str(got.value) == str(exc)
        return
    parsed = parse_problem(text)
    assert parsed.matrix.entries.dtype == expected.dtype
    assert np.array_equal(parsed.matrix.entries, expected)
    assert (parsed.targets, parsed.samples, parsed.prior) == (targets, samples, prior)


def test_true_literal_takes_the_general_values_path_with_the_same_output(write_json, monkeypatch):
    import toricmaxent.cli as cli

    # the text "true" in a name changes nothing: both documents have the same arrays read with numpy
    read = []
    original = cli._read_ints
    monkeypatch.setattr(cli, "_read_ints", lambda body: read.append(original(body)) or read[-1])
    doc = _large_problem(8, 10_000, 3, "prior")
    outputs = []
    for name in ("f1", "true"):
        doc["constraints"][0]["name"] = name
        code, out, err = run(["fit", write_json(doc), "--format", "json"])
        assert (code, err) == (0, "")
        outputs.append(out)
    # three values rows and the prior, in each document
    assert sum(ints is not None for ints in read) == 8 and len(outputs[0]) > 200_000
    assert outputs[0] == outputs[1]


def test_long_row_beyond_int64_keeps_an_exact_object_matrix():
    m = 400
    doc = {"m": m, "constraints": [
        {"name": "fast", "values": [j % 5 for j in range(m)], "target": 2},
        {"name": "huge", "values": [10**20] + [1] * (m - 1), "target": 1},
    ]}
    parsed = parse_problem(json.dumps(doc))
    entries = parsed.matrix.entries
    assert entries.dtype == object
    assert {type(v) for v in entries.ravel().tolist()} == {int}
    assert entries.tolist() == [doc["constraints"][0]["values"], doc["constraints"][1]["values"]]
    assert isinstance(_load_document(json.dumps(doc))["constraints"][0]["values"], np.ndarray)


def _plain(value):
    """A document from ``_load_document`` with each array as the list ``json`` gives."""
    if isinstance(value, np.ndarray):
        assert value.dtype == np.int64 and value.ndim == 1
        return value.tolist()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


# entries of an array body: JSON integers, and what JSON rejects or reads differently
_ENTRIES = ["0", "1", "4", "-3", "17", "123456789012345678", "-999999999999999999",
            "1000000000000000000", "9223372036854775807", "-9223372036854775808",
            "12345678901234567890", "-12345678901234567890", "00", "01", "-0", "+1", "--1", "- 1",
            "1 2", "1-2", "", " ", "\f1", "1\v", "\u0661", "\uff11", "1.5", "1e3", "NaN", "-Infinity", "true"]
_SEPARATORS = [",", ", ", " ,", ",\n", ",\t", ",\r\n  "]
# strings with brackets, escaped quotes and constant names in them
_STRINGS = ["plain", "[1, 2, 3]", 'say \\"[0, 1]\\"', "\\\\", "NaN", "-Infinity", "[", "]\\u005b"]
# values with a constant outside any string
_CONSTANTS = ["NaN", "-Infinity", "Infinity", "[1, NaN]", '{"k": -Infinity}']


@st.composite
def _long_documents(draw):
    """A document text past the loader's length gate, valid or not."""
    pattern = draw(st.lists(st.sampled_from(_ENTRIES), min_size=1, max_size=4))
    clean = st.lists(st.sampled_from(_ENTRIES[:7]), min_size=1, max_size=4)
    parts = []
    for i in range(draw(st.integers(1, 3))):
        entries = pattern if draw(st.integers(0, 2)) == 0 else draw(clean)
        sep = draw(st.sampled_from(_SEPARATORS))
        body = sep.join(entries * (_READ_MIN // len(entries) + draw(st.integers(0, 3))))
        body = draw(st.sampled_from(["", " ", "\n  "])) + body + draw(st.sampled_from(["", " ", "\n", ","]))
        key = draw(st.sampled_from(_STRINGS))
        value = draw(st.sampled_from(["[%s]", "[[%s]]", '{"v": [%s]}', "[%s, [1]]"])) % body
        parts.append('"%s%d": %s' % (key, i, value))
        if draw(st.booleans()):
            parts.append('"s%d": "%s"' % (i, draw(st.sampled_from(_STRINGS))))
        if draw(st.integers(0, 3)) == 0:
            parts.append('"c%d": %s' % (i, draw(st.sampled_from(_CONSTANTS))))
    text = "{" + ", ".join(parts) + "}"
    # half the documents end in a syntax error after their last array
    return text + draw(st.one_of(st.sampled_from(["", "\n"]), st.sampled_from([" x", ",", "}", "]"])))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(_long_documents())
def test_load_document_agrees_with_json(text):
    assert len(text) >= _READ_MIN
    try:
        expected = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        with pytest.raises(InputError) as got:
            parse_problem(text)
        assert str(got.value) == f"invalid JSON: {exc}"
        return
    # repr, since a NaN is not equal to itself
    assert repr(_plain(_load_document(text))) == repr(expected)


def test_read_ints_accepts_exactly_the_json_integer_arrays():
    # every body of 1..6 characters over "01-, \n": 55,986 bodies
    accepted = 0
    for size in range(1, 7):
        for chars in itertools.product("01-, \n", repeat=size):
            body = "".join(chars)
            try:
                expected = json.loads("[" + body + "]")
            except json.JSONDecodeError:
                expected = []
            ints = _read_ints(body)
            if expected:
                assert ints is not None and ints.dtype == np.int64 and ints.tolist() == expected, body
                accepted += 1
            else:
                assert ints is None, body
    assert accepted == 4052


def test_constants_inside_strings_leave_the_arrays_to_numpy(monkeypatch):
    import toricmaxent.cli as cli

    read = []
    original = cli._read_ints
    monkeypatch.setattr(cli, "_read_ints", lambda body: read.append(original(body)) or read[-1])
    row = [j % 5 for j in range(_READ_MIN)]
    doc = {"NaN": row, "note": "NaN, Infinity and -Infinity", "-Infinity": [[-v for v in row]]}
    loaded = _load_document(json.dumps(doc))
    assert sum(ints is not None for ints in read) == 2
    assert isinstance(loaded["NaN"], np.ndarray) and isinstance(loaded["-Infinity"][0], np.ndarray)
    assert _plain(loaded) == doc


@pytest.mark.parametrize("constant", [math.nan, -math.inf])
def test_a_constant_outside_strings_sends_the_document_to_json(constant):
    text = json.dumps({"values": [j % 5 for j in range(_READ_MIN)], "target": constant})
    # repr, since a NaN is not equal to itself; every array stays a list
    assert repr(_load_document(text)) == repr(json.loads(text, parse_float=Fraction))


# --- fit command ---


def test_fit_newton_json_output(write_json):
    code, out, err = run(["fit", write_json(DICE), "--format", "json"])
    assert code == 0 and err == ""
    result = json.loads(out)
    assert result["solver"] == "newton"
    assert result["residual"] <= 1e-10
    mean = sum(v * p for v, p in zip([1, 2, 3, 4, 5, 6], result["p"]))
    assert mean == pytest.approx(4.5, abs=1e-9)


def test_fit_gis_solver_flag(write_json):
    code, out, _ = run(["fit", write_json(DICE), "--solver", "gis", "--format", "json"])
    assert code == 0
    assert json.loads(out)["solver"] == "gis"


def test_fit_groebner_solver(write_json):
    path = write_json({"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1"}]})
    code, out, _ = run(["fit", path, "--format", "json", "--solver", "groebner"])
    assert code == 0
    result = json.loads(out)
    assert result["solver"] == "groebner"
    assert result["iterations"] == 0
    assert result["p"] == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_fit_groebner_falls_back_when_structure_unsupported(write_json):
    # constraint rows summing to a constant column make the direct system
    # scale-invariant, so its variety is a curve and the exact path bows out
    path = write_json({
        "m": 3,
        "constraints": [
            {"name": "a", "values": [2, 0, 1]},
            {"name": "b", "values": [0, 2, 1]},
        ],
        "samples": [1, 2, 3, 3],
    })
    code, out, err = run(["fit", path, "--solver", "groebner", "--format", "json"])
    assert code == 0
    assert "falling back to newton" in err
    assert json.loads(out)["solver"] == "newton"


def test_fit_text_format(write_json):
    code, out, _ = run(["fit", write_json(DICE)])
    assert code == 0
    assert out.startswith("solver: newton\n")
    assert "residual:" in out


def test_fit_sample_problem_reports_empirical_exponents(write_json):
    path = write_json({"m": 2, "constraints": [{"name": "t", "values": [0, 1]}], "samples": [1, 2]})
    code, out, _ = run(["fit", path, "--format", "json"])
    assert code == 0
    result = json.loads(out)
    assert result["xi_empirical"] == pytest.approx([0.0])
    assert result["p"] == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("doc", [QUAD, {"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2]}], "samples": [1, 2, 3]}])
def test_groebner_and_newton_print_the_same_zero_multiplier(write_json, doc):
    # theta = 1 solves both problems, and -ln 1 is -0.0
    path = write_json(doc)
    lines = {}
    for solver in ("groebner", "newton"):
        code, out, _ = run(["fit", path, "--solver", solver])
        assert code == 0
        lines[solver] = [line for line in out.splitlines() if line.startswith("xi")]
    assert lines["groebner"] == lines["newton"]
    assert lines["newton"][0] == "xi: 0"
    if "samples" in doc:
        assert lines["newton"][1] == "xi_empirical: 0"


def test_fit_reads_problem_from_stdin():
    code, out, _ = run(["fit", "-", "--format", "json"], stdin=json.dumps(DICE))
    assert code == 0
    assert json.loads(out)["solver"] == "newton"


# --- system and dual commands ---


def test_system_command_emits_cleared_equation(write_json):
    code, out, _ = run(["system", write_json(QUAD)])
    assert code == 0
    assert out == "t1^2 - 1\n"


def test_system_json_lists_variables(write_json):
    code, out, _ = run(["system", write_json(QUAD), "--format", "json"])
    payload = json.loads(out)
    assert payload == {"provenance": "direct", "variables": ["t1"], "equations": ["t1^2 - 1"]}


def test_system_decimal_target(write_json):
    path = write_json({"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": 0.5}]})
    code, out, _ = run(["system", path])
    assert code == 0
    assert out == "3/2*t1^2 + 1/2*t1 - 1/2\n"


def test_dual_command_integer_target(write_json):
    code, out, _ = run(["dual", write_json(QUAD)])
    assert code == 0
    assert out == "objective: t1 + 1 + t1^-1\ngradient: 1 - t1^-2\ncleared: t1^2 - 1\n"


def test_dual_command_empirical(write_json):
    path = write_json({"m": 2, "constraints": [{"name": "t", "values": [0, 1]}], "samples": [1, 2]})
    code, out, _ = run(["dual", path])
    assert code == 0
    assert out == "objective: t1 + t1^-1\ngradient: 1 - t1^-2\ncleared: t1^2 - 1\n"


def test_dual_rejects_fractional_targets(write_json):
    path = write_json({"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1/2"}]})
    code, out, err = run(["dual", path])
    assert code == 2
    assert out == ""
    assert "integer targets" in err


# `system` and `dual` stdout pinned byte for byte on d = 2 and d = 3 problems
# with a prior, in both formats and under lex and the default grevlex.  The
# samples cases cover the empirical dual; the targets cases the integer one.
D2 = {"m": 4, "constraints": [{"name": "a", "values": [1, 0, 2, 1], "target": 1}, {"name": "b", "values": [0, 2, 1, 3], "target": 2}], "prior": [1, 2, 3, 4]}
D2_SAMPLES = {"m": 4, "constraints": [{"name": "a", "values": [1, 0, 2, 1]}, {"name": "b", "values": [0, 2, 1, 3]}], "samples": [1, 2, 2, 3, 4], "prior": [1, 2, 3, 4]}
D3 = {
    "m": 5,
    "constraints": [
        {"name": "a", "values": [1, 0, 0, 1, 2], "target": 1},
        {"name": "b", "values": [0, 1, 0, 1, 1], "target": 1},
        {"name": "c", "values": [0, 0, 1, 2, 0], "target": 1},
    ],
    "prior": ["1/2", 1, 2, 1, 3],
}
D3_SAMPLES = {
    "m": 5,
    "constraints": [
        {"name": "a", "values": [1, 0, 0, 1, 2]},
        {"name": "b", "values": [0, 1, 0, 1, 1]},
        {"name": "c", "values": [0, 0, 1, 2, 0]},
    ],
    "samples": [1, 2, 3, 4, 5, 5],
    "prior": ["1/2", 1, 2, 1, 3],
}
GOLDEN_SYSTEMS = {
    "system-d2": ("system", D2, {
        ("text", "lex"): "3*t1^2*t2 - 2*t2^2\n-3*t1^2*t2 + 4*t1*t2^3 - 2*t1\n",
        ("text", "grevlex"): "3*t1^2*t2 - 2*t2^2\n4*t1*t2^3 - 3*t1^2*t2 - 2*t1\n",
        ("json", "lex"): '{"provenance": "direct", "variables": ["t1", "t2"], "equations": ["3*t1^2*t2 - 2*t2^2", "-3*t1^2*t2 + 4*t1*t2^3 - 2*t1"]}\n',
        ("json", "grevlex"): '{"provenance": "direct", "variables": ["t1", "t2"], "equations": ["3*t1^2*t2 - 2*t2^2", "4*t1*t2^3 - 3*t1^2*t2 - 2*t1"]}\n',
    }),
    "dual-d2": ("dual", D2, {
        ("text", "lex"): "objective: 2*t1 + t2^2 + 4*t2^-1 + 3*t1^-1*t2\ngradient: 2 - 3*t1^-2*t2\ngradient: 2*t2 - 4*t2^-2 + 3*t1^-1\ncleared: 2*t1^2 - 3*t2\ncleared: 2*t1*t2^3 - 4*t1 + 3*t2^2\n",
        ("text", "grevlex"): "objective: t2^2 + 2*t1 + 3*t1^-1*t2 + 4*t2^-1\ngradient: 2 - 3*t1^-2*t2\ngradient: 2*t2 + 3*t1^-1 - 4*t2^-2\ncleared: 2*t1^2 - 3*t2\ncleared: 2*t1*t2^3 + 3*t2^2 - 4*t1\n",
        ("json", "lex"): '{"provenance": "dual", "variables": ["t1", "t2"], "objective": "2*t1 + t2^2 + 4*t2^-1 + 3*t1^-1*t2", "gradient": ["2 - 3*t1^-2*t2", "2*t2 - 4*t2^-2 + 3*t1^-1"], "equations": ["2*t1^2 - 3*t2", "2*t1*t2^3 - 4*t1 + 3*t2^2"]}\n',
        ("json", "grevlex"): '{"provenance": "dual", "variables": ["t1", "t2"], "objective": "t2^2 + 2*t1 + 3*t1^-1*t2 + 4*t2^-1", "gradient": ["2 - 3*t1^-2*t2", "2*t2 + 3*t1^-1 - 4*t2^-2"], "equations": ["2*t1^2 - 3*t2", "2*t1*t2^3 + 3*t2^2 - 4*t1"]}\n',
    }),
    "dual-d2-samples": ("dual", D2_SAMPLES, {
        ("text", "lex"): "objective: 2*t1^4*t2^-2 + t1^-1*t2^8 + 4*t1^-1*t2^-7 + 3*t1^-6*t2^3\ngradient: 8*t1^3*t2^-2 - t1^-2*t2^8 - 4*t1^-2*t2^-7 - 18*t1^-7*t2^3\ngradient: -4*t1^4*t2^-3 + 8*t1^-1*t2^7 - 28*t1^-1*t2^-8 + 9*t1^-6*t2^2\ncleared: 8*t1^10*t2^5 - t1^5*t2^15 - 4*t1^5 - 18*t2^10\ncleared: -4*t1^10*t2^5 + 8*t1^5*t2^15 - 28*t1^5 + 9*t2^10\n",
        ("text", "grevlex"): "objective: t1^-1*t2^8 + 2*t1^4*t2^-2 + 3*t1^-6*t2^3 + 4*t1^-1*t2^-7\ngradient: -t1^-2*t2^8 + 8*t1^3*t2^-2 - 18*t1^-7*t2^3 - 4*t1^-2*t2^-7\ngradient: 8*t1^-1*t2^7 - 4*t1^4*t2^-3 + 9*t1^-6*t2^2 - 28*t1^-1*t2^-8\ncleared: -t1^5*t2^15 + 8*t1^10*t2^5 - 18*t2^10 - 4*t1^5\ncleared: 8*t1^5*t2^15 - 4*t1^10*t2^5 + 9*t2^10 - 28*t1^5\n",
        ("json", "lex"): '{"provenance": "dual-empirical", "variables": ["t1", "t2"], "objective": "2*t1^4*t2^-2 + t1^-1*t2^8 + 4*t1^-1*t2^-7 + 3*t1^-6*t2^3", "gradient": ["8*t1^3*t2^-2 - t1^-2*t2^8 - 4*t1^-2*t2^-7 - 18*t1^-7*t2^3", "-4*t1^4*t2^-3 + 8*t1^-1*t2^7 - 28*t1^-1*t2^-8 + 9*t1^-6*t2^2"], "equations": ["8*t1^10*t2^5 - t1^5*t2^15 - 4*t1^5 - 18*t2^10", "-4*t1^10*t2^5 + 8*t1^5*t2^15 - 28*t1^5 + 9*t2^10"]}\n',
        ("json", "grevlex"): '{"provenance": "dual-empirical", "variables": ["t1", "t2"], "objective": "t1^-1*t2^8 + 2*t1^4*t2^-2 + 3*t1^-6*t2^3 + 4*t1^-1*t2^-7", "gradient": ["-t1^-2*t2^8 + 8*t1^3*t2^-2 - 18*t1^-7*t2^3 - 4*t1^-2*t2^-7", "8*t1^-1*t2^7 - 4*t1^4*t2^-3 + 9*t1^-6*t2^2 - 28*t1^-1*t2^-8"], "equations": ["-t1^5*t2^15 + 8*t1^10*t2^5 - 18*t2^10 - 4*t1^5", "8*t1^5*t2^15 - 4*t1^10*t2^5 + 9*t2^10 - 28*t1^5"]}\n',
    }),
    "system-d3": ("system", D3, {
        ("text", "lex"): "3*t1^2*t2 - t2 - 2*t3\n-1/2*t1 - 2*t3\n-3*t1^2*t2 + t1*t2*t3^2 - 1/2*t1 - t2\n",
        ("text", "grevlex"): "3*t1^2*t2 - t2 - 2*t3\n-1/2*t1 - 2*t3\nt1*t2*t3^2 - 3*t1^2*t2 - 1/2*t1 - t2\n",
        ("json", "lex"): '{"provenance": "direct", "variables": ["t1", "t2", "t3"], "equations": ["3*t1^2*t2 - t2 - 2*t3", "-1/2*t1 - 2*t3", "-3*t1^2*t2 + t1*t2*t3^2 - 1/2*t1 - t2"]}\n',
        ("json", "grevlex"): '{"provenance": "direct", "variables": ["t1", "t2", "t3"], "equations": ["3*t1^2*t2 - t2 - 2*t3", "-1/2*t1 - 2*t3", "t1*t2*t3^2 - 3*t1^2*t2 - 1/2*t1 - t2"]}\n',
    }),
    "dual-d3": ("dual", D3, {
        ("text", "lex"): "objective: 2*t1*t2 + t1*t3 + 1/2*t2*t3 + t3^-1 + 3*t1^-1*t3\ngradient: 2*t2 + t3 - 3*t1^-2*t3\ngradient: 2*t1 + 1/2*t3\ngradient: t1 + 1/2*t2 - t3^-2 + 3*t1^-1\ncleared: 2*t1^2*t2 + t1^2*t3 - 3*t3\ncleared: 2*t1 + 1/2*t3\ncleared: t1^2*t3^2 + 1/2*t1*t2*t3^2 - t1 + 3*t3^2\n",
        ("text", "grevlex"): "objective: 2*t1*t2 + t1*t3 + 1/2*t2*t3 + 3*t1^-1*t3 + t3^-1\ngradient: 2*t2 + t3 - 3*t1^-2*t3\ngradient: 2*t1 + 1/2*t3\ngradient: t1 + 1/2*t2 + 3*t1^-1 - t3^-2\ncleared: 2*t1^2*t2 + t1^2*t3 - 3*t3\ncleared: 2*t1 + 1/2*t3\ncleared: t1^2*t3^2 + 1/2*t1*t2*t3^2 + 3*t3^2 - t1\n",
        ("json", "lex"): '{"provenance": "dual", "variables": ["t1", "t2", "t3"], "objective": "2*t1*t2 + t1*t3 + 1/2*t2*t3 + t3^-1 + 3*t1^-1*t3", "gradient": ["2*t2 + t3 - 3*t1^-2*t3", "2*t1 + 1/2*t3", "t1 + 1/2*t2 - t3^-2 + 3*t1^-1"], "equations": ["2*t1^2*t2 + t1^2*t3 - 3*t3", "2*t1 + 1/2*t3", "t1^2*t3^2 + 1/2*t1*t2*t3^2 - t1 + 3*t3^2"]}\n',
        ("json", "grevlex"): '{"provenance": "dual", "variables": ["t1", "t2", "t3"], "objective": "2*t1*t2 + t1*t3 + 1/2*t2*t3 + 3*t1^-1*t3 + t3^-1", "gradient": ["2*t2 + t3 - 3*t1^-2*t3", "2*t1 + 1/2*t3", "t1 + 1/2*t2 + 3*t1^-1 - t3^-2"], "equations": ["2*t1^2*t2 + t1^2*t3 - 3*t3", "2*t1 + 1/2*t3", "t1^2*t3^2 + 1/2*t1*t2*t3^2 + 3*t3^2 - t1"]}\n',
    }),
    "dual-d3-samples": ("dual", D3_SAMPLES, {
        ("text", "lex"): "objective: 2*t1^6*t2^4*t3^-3 + t1^6*t2^-2*t3^3 + 1/2*t2^4*t3^3 + t2^-2*t3^-9 + 3*t1^-6*t2^-2*t3^3\ngradient: 12*t1^5*t2^4*t3^-3 + 6*t1^5*t2^-2*t3^3 - 18*t1^-7*t2^-2*t3^3\ngradient: 8*t1^6*t2^3*t3^-3 - 2*t1^6*t2^-3*t3^3 + 2*t2^3*t3^3 - 2*t2^-3*t3^-9 - 6*t1^-6*t2^-3*t3^3\ngradient: -6*t1^6*t2^4*t3^-4 + 3*t1^6*t2^-2*t3^2 + 3/2*t2^4*t3^2 - 9*t2^-2*t3^-10 + 9*t1^-6*t2^-2*t3^2\ncleared: 12*t1^12*t2^6 + 6*t1^12*t3^6 - 18*t3^6\ncleared: 8*t1^12*t2^6*t3^6 - 2*t1^12*t3^12 + 2*t1^6*t2^6*t3^12 - 2*t1^6 - 6*t3^12\ncleared: -6*t1^12*t2^6*t3^6 + 3*t1^12*t3^12 + 3/2*t1^6*t2^6*t3^12 - 9*t1^6 + 9*t3^12\n",
        ("text", "grevlex"): "objective: 2*t1^6*t2^4*t3^-3 + t1^6*t2^-2*t3^3 + 1/2*t2^4*t3^3 + 3*t1^-6*t2^-2*t3^3 + t2^-2*t3^-9\ngradient: 12*t1^5*t2^4*t3^-3 + 6*t1^5*t2^-2*t3^3 - 18*t1^-7*t2^-2*t3^3\ngradient: 8*t1^6*t2^3*t3^-3 - 2*t1^6*t2^-3*t3^3 + 2*t2^3*t3^3 - 6*t1^-6*t2^-3*t3^3 - 2*t2^-3*t3^-9\ngradient: -6*t1^6*t2^4*t3^-4 + 3*t1^6*t2^-2*t3^2 + 3/2*t2^4*t3^2 + 9*t1^-6*t2^-2*t3^2 - 9*t2^-2*t3^-10\ncleared: 12*t1^12*t2^6 + 6*t1^12*t3^6 - 18*t3^6\ncleared: 8*t1^12*t2^6*t3^6 - 2*t1^12*t3^12 + 2*t1^6*t2^6*t3^12 - 6*t3^12 - 2*t1^6\ncleared: -6*t1^12*t2^6*t3^6 + 3*t1^12*t3^12 + 3/2*t1^6*t2^6*t3^12 + 9*t3^12 - 9*t1^6\n",
        ("json", "lex"): '{"provenance": "dual-empirical", "variables": ["t1", "t2", "t3"], "objective": "2*t1^6*t2^4*t3^-3 + t1^6*t2^-2*t3^3 + 1/2*t2^4*t3^3 + t2^-2*t3^-9 + 3*t1^-6*t2^-2*t3^3", "gradient": ["12*t1^5*t2^4*t3^-3 + 6*t1^5*t2^-2*t3^3 - 18*t1^-7*t2^-2*t3^3", "8*t1^6*t2^3*t3^-3 - 2*t1^6*t2^-3*t3^3 + 2*t2^3*t3^3 - 2*t2^-3*t3^-9 - 6*t1^-6*t2^-3*t3^3", "-6*t1^6*t2^4*t3^-4 + 3*t1^6*t2^-2*t3^2 + 3/2*t2^4*t3^2 - 9*t2^-2*t3^-10 + 9*t1^-6*t2^-2*t3^2"], "equations": ["12*t1^12*t2^6 + 6*t1^12*t3^6 - 18*t3^6", "8*t1^12*t2^6*t3^6 - 2*t1^12*t3^12 + 2*t1^6*t2^6*t3^12 - 2*t1^6 - 6*t3^12", "-6*t1^12*t2^6*t3^6 + 3*t1^12*t3^12 + 3/2*t1^6*t2^6*t3^12 - 9*t1^6 + 9*t3^12"]}\n',
        ("json", "grevlex"): '{"provenance": "dual-empirical", "variables": ["t1", "t2", "t3"], "objective": "2*t1^6*t2^4*t3^-3 + t1^6*t2^-2*t3^3 + 1/2*t2^4*t3^3 + 3*t1^-6*t2^-2*t3^3 + t2^-2*t3^-9", "gradient": ["12*t1^5*t2^4*t3^-3 + 6*t1^5*t2^-2*t3^3 - 18*t1^-7*t2^-2*t3^3", "8*t1^6*t2^3*t3^-3 - 2*t1^6*t2^-3*t3^3 + 2*t2^3*t3^3 - 6*t1^-6*t2^-3*t3^3 - 2*t2^-3*t3^-9", "-6*t1^6*t2^4*t3^-4 + 3*t1^6*t2^-2*t3^2 + 3/2*t2^4*t3^2 + 9*t1^-6*t2^-2*t3^2 - 9*t2^-2*t3^-10"], "equations": ["12*t1^12*t2^6 + 6*t1^12*t3^6 - 18*t3^6", "8*t1^12*t2^6*t3^6 - 2*t1^12*t3^12 + 2*t1^6*t2^6*t3^12 - 6*t3^12 - 2*t1^6", "-6*t1^12*t2^6*t3^6 + 3*t1^12*t3^12 + 3/2*t1^6*t2^6*t3^12 + 9*t3^12 - 9*t1^6"]}\n',
    }),
}


@pytest.mark.parametrize("case", list(GOLDEN_SYSTEMS))
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_system_and_dual_output_is_pinned(write_json, case, fmt, order):
    command, doc, expected = GOLDEN_SYSTEMS[case]
    flags = ["--order", "lex"] if order == "lex" else []
    code, out, err = run([command, write_json(doc), "--format", fmt, *flags])
    assert (code, err) == (0, "")
    assert out == expected[fmt, order]


# --- ideal command ---


def test_ideal_command_independence(write_json):
    code, out, _ = run(["ideal", write_json(INDEPENDENCE), "--order", "lex"])
    assert code == 0
    assert out == "p1*p4 - p2*p3\n"


def test_ideal_default_order_same_generator(write_json):
    code, out, _ = run(["ideal", write_json(INDEPENDENCE)])
    assert code == 0
    got = parse_poly(out.strip(), ("p1", "p2", "p3", "p4"))
    want = parse_poly("p1*p4 - p2*p3", ("p1", "p2", "p3", "p4"))
    assert got in (want, -want)


def test_ideal_size_limit_exit_code(write_json):
    wide = {
        "m": 11,
        "constraints": [{"name": "t", "values": list(range(1, 12))}],
        "samples": [1],
    }
    code, out, err = run(["ideal", write_json(wide)])
    assert code == 3
    assert "exceeds" in err


# --- check and entropy commands ---


def test_fit_then_check_round_trip(write_json):
    dice = write_json(DICE)
    code, out, _ = run(["fit", dice, "--format", "json"])
    dist = write_json({"p": json.loads(out)["p"]})
    code2, out2, err2 = run(["check", dice, "--dist", dist])
    assert code2 == 0, err2
    assert "passed: True" in out2


def test_check_rejects_off_model_distribution(write_json):
    ind = {
        "m": 4,
        "constraints": [
            {"name": "r1", "values": [1, 1, 0, 0], "target": "1/2"},
            {"name": "c1", "values": [1, 0, 1, 0], "target": "1/2"},
        ],
    }
    dist = write_json({"p": [0.4, 0.1, 0.1, 0.4]})
    code, out, err = run(["check", write_json(ind), "--dist", dist])
    assert code == 1
    assert "passed: False" in out
    assert "check failed" in err


def test_check_rejects_distribution_missing_targets(write_json):
    dice = write_json(DICE)
    uniform = write_json({"p": [1 / 6] * 6})
    code, out, _ = run(["check", dice, "--dist", uniform])
    assert code == 1
    assert "passed: False" in out


def test_check_accepts_bare_array_distribution(write_json):
    ind = {
        "m": 4,
        "constraints": [
            {"name": "r1", "values": [1, 1, 0, 0], "target": "1/2"},
            {"name": "c1", "values": [1, 0, 1, 0], "target": "1/2"},
        ],
    }
    dist = write_json([0.25, 0.25, 0.25, 0.25])
    code, _, err = run(["check", write_json(ind), "--dist", dist])
    assert code == 0, err


IND_HALF = {
    "m": 4,
    "constraints": [
        {"name": "r1", "values": [1, 1, 0, 0], "target": "1/2"},
        {"name": "r2", "values": [0, 0, 1, 1], "target": "1/2"},
        {"name": "c1", "values": [1, 0, 1, 0], "target": "1/2"},
        {"name": "c2", "values": [0, 1, 0, 1], "target": "1/2"},
    ],
}
CHECK_KEYS = [
    "member", "max_ideal_residual", "ideal_residuals", "moment_residuals", "max_moment_residual", "tol", "passed",
]


def fit_then_check(write_json, problem):
    path = write_json(problem)
    code, out, err = run(["fit", path, "--format", "json"])
    assert code == 0, err
    dist = write_json({"p": json.loads(out)["p"]})
    return run(["check", path, "--dist", dist, "--format", "json"])


def test_check_runs_without_the_ideal_machinery(write_json, monkeypatch):
    import toricmaxent.cli
    import toricmaxent.toric

    def forbidden(*args, **kwargs):
        raise AssertionError("check must not compute a toric ideal")

    for module, name in ((toricmaxent.toric, "toric_ideal_generators"), (toricmaxent.toric, "buchberger"),
                         (toricmaxent.cli, "toric_ideal_generators")):
        monkeypatch.setattr(module, name, forbidden)
    code, out, err = fit_then_check(write_json, DICE)
    assert code == 0, err
    code, out, err = run(["check", write_json(IND_HALF), "--dist", write_json([0.25] * 4)])
    assert code == 0, err


def test_check_accepts_fit_with_prior(write_json):
    problem = {"m": 4, "constraints": [{"name": "t", "values": [0, 1, 2, 3], "target": "3/2"}], "prior": [1, 2, 3, 4]}
    code, out, err = fit_then_check(write_json, problem)
    assert code == 0, err
    payload = json.loads(out)
    assert list(payload) == CHECK_KEYS
    assert payload["member"] is True


def test_check_has_no_alphabet_cap(write_json):
    wide = {"m": 11, "constraints": [{"name": "t", "values": list(range(1, 12)), "target": "5"}]}
    code, out, err = fit_then_check(write_json, wide)
    assert code == 0, err
    assert json.loads(out)["member"] is True
    assert run(["ideal", write_json(wide)])[0] == 3


def test_check_point_with_a_zero_is_off_the_model(write_json):
    ind = {
        "m": 4,
        "constraints": [
            {"name": "r1", "values": [1, 1, 0, 0], "target": "1"},
            {"name": "r2", "values": [0, 0, 1, 1], "target": "0"},
            {"name": "c1", "values": [1, 0, 1, 0], "target": "1/2"},
            {"name": "c2", "values": [0, 1, 0, 1], "target": "1/2"},
        ],
    }
    code, out, err = run(["check", write_json(ind), "--dist", write_json([0.5, 0.5, 0, 0]), "--format", "json"])
    assert code == 1
    assert "check failed" in err

    def reject_constant(token):
        raise AssertionError(f"non-finite token {token} in output")

    payload = json.loads(out, parse_constant=reject_constant)
    assert list(payload) == CHECK_KEYS
    assert payload["member"] is False
    assert payload["max_moment_residual"] == 0.0


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param("fit", "--tol", "nan", id="--tol-nan"),
        pytest.param("fit", "--tol", "inf", id="--tol-inf"),
        pytest.param("fit", "--max-iter", "0", id="--max-iter-0"),
        pytest.param("fit", "--max-iter", "-1", id="--max-iter--1"),
        pytest.param("check", "--tol", "nan", id="check---tol-nan"),
        pytest.param("check", "--tol", "inf", id="check---tol-inf"),
    ],
)
def test_fit_rejects_invalid_numeric_flags(write_json, command, flag, value):
    argv = [command, write_json(DICE), flag, value]
    if command == "check":
        argv += ["--dist", write_json([1 / 6] * 6)]
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert f"error: {flag} must be" in err


# --- flag surface: each command takes only the flags it reads ---

FLAGS_BY_COMMAND = {
    "fit": ["--format", "--max-iter", "--solver", "--tol"],
    "system": ["--format", "--order"],
    "dual": ["--format", "--order"],
    "ideal": ["--format", "--order"],
    "check": ["--dist", "--format", "--tol"],
    "entropy": ["--dist", "--format"],
}


def test_each_command_takes_only_the_flags_it_reads():
    from toricmaxent.cli import _PARSER

    (sub,) = (a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: sorted(o for a in parser._actions for o in a.option_strings if o != "--help" and o.startswith("--"))
        for name, parser in sub.choices.items()
    }
    assert flags == FLAGS_BY_COMMAND
    assert sum(map(len, flags.values())) == 15


def _with_dist(command, argv, write_json):
    """``argv`` plus the uniform distribution, QUAD's fit, where ``command`` needs one."""
    return argv + ["--dist", write_json([1 / 3] * 3)] if command in ("check", "entropy") else argv


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("fit", "--order", "lex"),
        ("check", "--order", "lex"),
        ("entropy", "--order", "lex"),
        ("entropy", "--tol", "1e-6"),
        ("system", "--tol", "1e-6"),
        ("dual", "--tol", "1e-6"),
        ("ideal", "--tol", "1e-6"),
    ],
)
def test_removed_flags_are_unrecognized(write_json, command, flag, value):
    argv = _with_dist(command, [command, write_json(QUAD), flag, value], write_json)
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("fit", ["--tol", "1e-8"]),
        ("fit", ["--solver", "gis"]),
        ("fit", ["--solver", "groebner"]),
        ("fit", ["--max-iter", "50"]),
        ("fit", ["--format", "json"]),
        ("system", ["--order", "lex"]),
        ("system", ["--format", "json"]),
        ("dual", ["--order", "lex"]),
        ("dual", ["--format", "json"]),
        ("ideal", ["--order", "lex"]),
        ("ideal", ["--format", "json"]),
        ("check", ["--tol", "1e-8"]),
        ("check", ["--format", "json"]),
        ("entropy", ["--format", "json"]),
    ],
)
def test_kept_flags_are_accepted(write_json, command, flags):
    code, out, err = run(_with_dist(command, [command, write_json(QUAD), *flags], write_json))
    assert (code, err) == (0, "")
    assert out


def test_entropy_command(write_json):
    import math

    dist = write_json({"p": [0.5, 0.25, 0.25]})
    path = write_json({"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1"}]})
    code, out, _ = run(["entropy", path, "--dist", dist])
    assert code == 0
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    expected = -(0.5 * math.log(0.5) + 0.5 * math.log(0.25))
    assert float(lines["entropy"]) == pytest.approx(expected)
    assert float(lines["kl_to_prior"]) == pytest.approx(math.log(3) - expected)


def test_entropy_uses_supplied_prior(write_json):
    dist = write_json({"p": [0.5, 0.5]})
    prob = {
        "m": 2,
        "constraints": [{"name": "t", "values": [0, 1], "target": "1/2"}],
        "prior": [1, 1],
    }
    code, out, _ = run(["entropy", write_json(prob), "--dist", dist])
    assert code == 0
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert float(lines["kl_to_prior"]) == pytest.approx(0.0)


# --- exit codes and failure modes ---


def test_infeasible_fit_exits_one(write_json):
    bad = dict(DICE, constraints=[{"name": "mean", "values": [1, 2, 3, 4, 5, 6], "target": "13/2"}])
    for solver in ("newton", "gis"):
        code, out, err = run(["fit", write_json(bad), "--solver", solver])
        assert code == 1
        assert out == ""
        assert "error:" in err


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(["fit", str(path)])
    assert code == 2
    assert "error:" in err


def test_non_integer_constraint_exits_two(write_json):
    bad = {"m": 2, "constraints": [{"name": "t", "values": [0.5, 1]}], "samples": [1]}
    code, _, err = run(["fit", write_json(bad)])
    assert code == 2
    assert "integer-valued" in err


def test_missing_file_exits_two():
    code, _, err = run(["fit", "/no/such/file.json"])
    assert code == 2
    assert "cannot read" in err


def test_unknown_command_exits_two(capsys):
    assert run(["frobnicate"])[0] == 2
    capsys.readouterr()


def test_missing_required_flag_exits_two(write_json, capsys):
    assert run(["check", write_json(DICE)])[0] == 2
    capsys.readouterr()


def test_argparse_messages_go_to_the_streams_main_was_given(capsys):
    code, out, err = run(["fit"])
    assert code == 2
    assert out == ""
    assert "usage:" in err
    assert "required: problem" in err
    code, out, err = run(["--help"])
    assert code == 0
    assert out.startswith("usage: toricmaxent")
    assert err == ""
    assert capsys.readouterr() == ("", "")


def test_main_is_reentrant_and_builds_no_parser(write_json, monkeypatch, capsys):
    def no_new_parser(self, *args, **kwargs):
        raise AssertionError("an argparse parser was built after import")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_new_parser)
    path = write_json(DICE)
    sequence = [
        ["--help"],
        ["fit", path, "--no-such-flag"],
        ["fit", path, "--max-iter", "1"],
        ["fit", path],
        ["check", path],
    ]
    first = [run(argv) for argv in sequence]
    assert [run(argv) for argv in sequence] == first
    (help_rc, help_out, help_err), unknown, capped, uncapped, no_dist = first
    assert (help_rc, help_err) == (0, "") and help_out.startswith("usage: toricmaxent")
    assert unknown[:2] == (2, "") and "unrecognized arguments: --no-such-flag" in unknown[2]
    assert capped == (1, "", "error: Newton iteration did not converge in 1 iterations\n")
    # the previous call's --max-iter does not carry over
    assert (uncapped[0], uncapped[2]) == (0, "") and "\niterations: 4\n" in uncapped[1]
    assert no_dist[:2] == (2, "") and "the following arguments are required: --dist" in no_dist[2]
    assert capsys.readouterr() == ("", "")


# --- determinism and grammar round trips ---


def test_reruns_are_byte_identical(write_json):
    path = write_json(DICE)
    outputs = {run(["fit", path, "--format", "json"])[1] for _ in range(3)}
    assert len(outputs) == 1


# `fit --format json` stdout pinned digit for digit, so that a change to the
# numeric core cannot move a result unnoticed.
LOADED_DICE = {"m": 6, "constraints": [{"name": "mean", "values": [1, 2, 3, 4, 5, 6], "target": "4"}]}
GOLDEN_FITS = {
    "newton": ("newton", LOADED_DICE, '{"solver": "newton", "iterations": 3, "xi": [-0.17462893121233786], "p": [0.10306524522459909, 0.12273053351719292, 0.14614804267520148, 0.17403371244043661, 0.20724008691044771, 0.2467823792321221], "logZ": 2.4470219737263186, "residual": 8.6926021936051256e-12}\n'),
    # one feature: the shifted values do not sum to a constant, so GIS pads them with a slack feature
    "gis-slack": ("gis", LOADED_DICE, '{"solver": "gis", "iterations": 37, "xi": [-0.17462893119379769], "p": [0.10306524523033163, 0.12273053352174382, 0.14614804267791115, 0.17403371244043661, 0.20724008690660545, 0.24678237922297139], "logZ": 2.4470219736521579, "residual": 5.9845461919394438e-11}\n'),
    # every column of the 2x2 independence rows sums to 2: GIS needs no slack feature
    "gis-no-slack": (
        "gis",
        {
            "m": 4,
            "constraints": [
                {"name": "r1", "values": [1, 1, 0, 0], "target": "3/5"},
                {"name": "r2", "values": [0, 0, 1, 1], "target": "2/5"},
                {"name": "c1", "values": [1, 0, 1, 0], "target": "1/4"},
                {"name": "c2", "values": [0, 1, 0, 1], "target": "3/4"},
            ],
        },
        '{"solver": "gis", "iterations": 31, "xi": [-0.1755758418415394, 0.22988926607781557, 0.73828844794318094, -0.36032384021334768], "p": [0.15000000004622432, 0.44999999990846146, 0.10000000004969714, 0.29999999999561716], "logZ": 1.3344073784760777, "residual": 9.5921492970774125e-11}\n',
    ),
    "groebner": ("groebner", {"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1/2"}]}, '{"solver": "groebner", "iterations": 0, "xi": [0.834115194352399], "p": [0.61620406037800024, 0.26759187924399852, 0.11620406037800127], "logZ": 0.48417710345796189, "residual": 1.1102230246251565e-15}\n'),
    "prior": (
        "newton",
        {"m": 4, "constraints": [{"name": "t", "values": [0, 1, 2, 3], "target": "3/2"}], "prior": [1, 2, 3, 4]},
        '{"solver": "newton", "iterations": 3, "xi": [0.45531396487918707], "p": [0.22242619994043075, 0.28214710295258166, 0.26842719425315481, 0.2269995028538328], "logZ": 1.5031599180566828, "residual": 2.038968993645085e-11}\n',
    ),
    "samples": (
        "newton",
        {
            "m": 4,
            "constraints": [{"name": "t", "values": [0, 1, 2, 3]}, {"name": "ends", "values": [1, 0, 0, 1]}],
            "samples": [1, 2, 2, 3, 4, 4, 4],
        },
        '{"solver": "newton", "iterations": 4, "xi": [-0.26921620864306067, -0.21730173550912901], "xi_empirical": [-0.038459458377580094, -0.031043105072732717], "p": [0.17622387741246709, 0.1856140820483175, 0.24295734652311038, 0.39520469401610508], "logZ": 1.953301797046157, "residual": 3.7747582837255322e-15}\n',
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_FITS))
def test_fit_json_output_is_pinned(write_json, case):
    solver, doc, expected = GOLDEN_FITS[case]
    code, out, err = run(["fit", write_json(doc), "--solver", solver, "--format", "json"])
    assert (code, err) == (0, "")
    assert out == expected


# `fit --solver groebner` stdout pinned in both formats, so that a change to
# root isolation cannot move an exact result unnoticed.  The die's root is
# irrational (the bisection midpoint is returned); the quad's is exactly 2.
GOLDEN_EXACT_FITS = {
    "die": (
        {"m": 6, "constraints": [{"name": "mean", "values": [1, 2, 3, 4, 5, 6], "target": "9/2"}]},
        '{"solver": "groebner", "iterations": 0, "xi": [-0.37104893808111261], "p": [0.054353167826476437, 0.078771545633037912, 0.11415997722942697, 0.16544680311004678, 0.23977444042690949, 0.34749406577410241], "logZ": 3.2833013195188361, "residual": 1.8207657603852567e-13}\n',
        "solver: groebner\niterations: 0\nxi: -0.37104893808111261\np: 0.054353167826476437 0.078771545633037912 0.11415997722942697 0.16544680311004678 0.23977444042690949 0.34749406577410241\nlogZ: 3.2833013195188361\nresidual: 1.8207657603852567e-13\n",
    ),
    "quad": (
        {"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "10/7"}]},
        '{"solver": "groebner", "iterations": 0, "xi": [-0.69314718055994529], "p": [0.14285714285714285, 0.2857142857142857, 0.5714285714285714], "logZ": 1.9459101490553132, "residual": 2.2204460492503131e-16}\n',
        "solver: groebner\niterations: 0\nxi: -0.69314718055994529\np: 0.14285714285714285 0.2857142857142857 0.5714285714285714\nlogZ: 1.9459101490553132\nresidual: 2.2204460492503131e-16\n",
    ),
    "kite": (
        {"m": 4, "constraints": [{"name": "a", "values": [0, 1, 2, 1], "target": "9/7"}, {"name": "b", "values": [0, 0, 1, 2], "target": "5/7"}]},
        '{"solver": "groebner", "iterations": 0, "xi": [-0.73128279016013931, 0.34925344504337463], "p": [0.13975286404817913, 0.2903707039273673, 0.42546714976294181, 0.1444092822615117], "logZ": 1.9678796730733579, "residual": 4.7672976677404222e-13}\n',
        "solver: groebner\niterations: 0\nxi: -0.73128279016013931 0.34925344504337463\np: 0.13975286404817913 0.2903707039273673 0.42546714976294181 0.1444092822615117\nlogZ: 1.9678796730733579\nresidual: 4.7672976677404222e-13\n",
    ),
    "cube": (
        {"m": 5, "constraints": [{"name": "a", "values": [0, 1, 0, 0, 1], "target": "4/9"}, {"name": "b", "values": [0, 0, 1, 0, 1], "target": "5/9"}, {"name": "c", "values": [0, 0, 0, 1, 1], "target": "1/3"}]},
        '{"solver": "groebner", "iterations": 0, "xi": [-0.27571588867290803, -0.71513511557912846, 0.52681256830883072], "p": [0.15283731923315394, 0.20135911816124033, 0.31247022927236728, 0.090248007050113391, 0.24308532628312507], "logZ": 1.8783811962513588, "residual": 9.4868557454219626e-14}\n',
        "solver: groebner\niterations: 0\nxi: -0.27571588867290803 -0.71513511557912846 0.52681256830883072\np: 0.15283731923315394 0.20135911816124033 0.31247022927236728 0.090248007050113391 0.24308532628312507\nlogZ: 1.8783811962513588\nresidual: 9.4868557454219626e-14\n",
    ),
    "stair": (
        {"m": 6, "constraints": [{"name": "a", "values": [0, 1, 2, 3, 4, 4], "target": "31/12"}, {"name": "b", "values": [0, 1, 1, 2, 2, 4], "target": "23/12"}]},
        '{"solver": "groebner", "iterations": 0, "xi": [-0.004592757526921243, -0.1475438424226381], "p": [0.12655368128407535, 0.14734889000129603, 0.14802718415292318, 0.17235090321861146, 0.17314428964778519, 0.23257505169530884], "logZ": 2.0670887028520637, "residual": 2.0192736371882347e-12}\n',
        "solver: groebner\niterations: 0\nxi: -0.004592757526921243 -0.1475438424226381\np: 0.12655368128407535 0.14734889000129603 0.14802718415292318 0.17235090321861146 0.17314428964778519 0.23257505169530884\nlogZ: 2.0670887028520637\nresidual: 2.0192736371882347e-12\n",
    ),
    "samples": (
        {"m": 5, "constraints": [{"name": "a", "values": [0, 1, 0, 2, 1]}, {"name": "b", "values": [0, 0, 1, 0, 1]}], "samples": [1, 2, 3, 4, 5, 2, 4], "prior": [1, 2, "1/2", 3, 1]},
        '{"solver": "groebner", "iterations": 0, "xi": [0.29355729609462555, -0.28936140808998612], "xi_empirical": [0.041936756584946507, -0.041337344012855159], "p": [0.17174457456473344, 0.25610774271678827, 0.11468882243958796, 0.28643339700419268, 0.17102546327469775], "logZ": 1.7617469375213712, "residual": 1.2856382625159313e-13}\n',
        "solver: groebner\niterations: 0\nxi: 0.29355729609462555 -0.28936140808998612\nxi_empirical: 0.041936756584946507 -0.041337344012855159\np: 0.17174457456473344 0.25610774271678827 0.11468882243958796 0.28643339700419268 0.17102546327469775\nlogZ: 1.7617469375213712\nresidual: 1.2856382625159313e-13\n",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_EXACT_FITS))
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_exact_fit_output_is_pinned(write_json, case, fmt):
    doc, json_out, text_out = GOLDEN_EXACT_FITS[case]
    result = run(["fit", write_json(doc), "--solver", "groebner", "--format", fmt])
    assert result == (0, json_out if fmt == "json" else text_out, "")


def _large_problem(seed: int, m: int, d: int, mode: str) -> dict:
    """Entries 0..4; either samples, or an integer prior with the uniform moments as targets."""
    rng = random.Random(seed)
    rows = [[rng.randrange(5) for _ in range(m)] for _ in range(d)]
    doc = {"m": m, "constraints": [{"name": f"f{i + 1}", "values": row} for i, row in enumerate(rows)]}
    if mode == "samples":
        doc["samples"] = [rng.randrange(1, m + 1) for _ in range(2000)]
    else:
        doc["prior"] = [rng.randrange(1, 4) for _ in range(m)]
        for constraint, row in zip(doc["constraints"], rows):
            constraint["target"] = f"{sum(row)}/{m}"
    return doc


# sha256 of `fit --format json` stdout at m = 10^4, where every float list is
# emitted in bulk; captured before the bulk paths were written, and again when
# the solvers began to iterate over distinct columns (same iteration counts,
# last-digit changes in p).
GOLDEN_LARGE_FITS = {
    "newton-prior": ("newton", "prior", "1b83ecbe183a069117d28429ef00f3a128336fcbbaf605c8c8780fffa427d20f", 239007),
    "gis-samples": ("gis", "samples", "deb01daec4648a8dc1860862a83e8fed2239288efe7ddaf7e080b0f10de98eba", 239053),
}


@pytest.mark.parametrize("case", list(GOLDEN_LARGE_FITS))
def test_large_fit_json_output_is_pinned(write_json, case):
    solver, mode, digest, size = GOLDEN_LARGE_FITS[case]
    code, out, err = run(["fit", write_json(_large_problem(8, 10_000, 3, mode)), "--solver", solver, "--format", "json"])
    assert (code, err) == (0, "")
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == (digest, size)


EDGE_PAYLOADS = {
    "edge floats": (
        {"p": [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]},
        '{"p": [-0, 4.9406564584124654e-324, 1.0000000000000001e+300, nan, inf, -inf]}\n',
        "p: -0 4.9406564584124654e-324 1.0000000000000001e+300 nan inf -inf\n",
    ),
    "numpy floats": (
        {"p": [np.float64(0.1), np.float64(-0.0), np.float64(5e-324)], "x": np.float64(1 / 3)},
        '{"p": [0.10000000000000001, -0, 4.9406564584124654e-324], "x": 0.33333333333333331}\n',
        "p: 0.10000000000000001 -0 4.9406564584124654e-324\nx: 0.33333333333333331\n",
    ),
    "mixed lists": (
        {"p": [1, 0.5, 2, -0.0], "q": [0.25, True, 3], "s": ["a", "b"], "e": [], "f": 1e-300, "n": None, "b": False},
        '{"p": [1, 0.5, 2, -0], "q": [0.25, 1, 3], "s": ["a", "b"], "e": [], "f": 1e-300, "n": null, "b": false}\n',
        "p: 1 0.5 2 -0\nq: 0.25 1 3\ns: a\ns: b\nf: 1e-300\nn: None\nb: False\n",
    ),
}


@pytest.mark.parametrize("case", list(EDGE_PAYLOADS))
def test_emit_bytes_of_edge_values(case):
    payload, as_json, as_text = EDGE_PAYLOADS[case]
    for fmt, expected in (("json", as_json), ("text", as_text)):
        out = io.StringIO()
        _emit(out, payload, fmt)
        assert out.getvalue() == expected


def _emitted(payload, fmt, classes=None) -> str:
    out = io.StringIO()
    _emit(out, payload, fmt, classes)
    return out.getvalue()


def _reference_floats(values, sep) -> str:
    return sep.join("%.17g" % x for x in values)


# Bit patterns cover 0.0 and -0.0, NaNs of any sign and payload, +-inf and
# subnormals; ``repeats`` draws entries from a pool smaller than the array.
_BIT_PATTERNS = st.one_of(
    st.sampled_from([0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000001, 1]),
    st.integers(0, 2**64 - 1),
)


@st.composite
def _float_arrays(draw):
    pool = draw(st.lists(_BIT_PATTERNS, min_size=1, max_size=12))
    if draw(st.booleans()):
        size = draw(st.integers(1, 200))
        bits = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    else:
        bits = pool
    return np.array(bits, dtype=np.uint64).view(np.float64)


# entries per write of a float array: small sizes put chunk boundaries inside
# every array, and ``None`` keeps the module's own size
_CHUNK_SIZES = (1, 2, 7, None)


def _assert_emitted_is_the_formatted_join(arr, classes=None):
    for chunk in _CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(cli, "_CHUNK", chunk)
            assert _emitted({"p": arr}, "json", classes) == '{"p": [' + _reference_floats(arr.tolist(), ", ") + "]}\n"
            assert _emitted({"p": arr}, "text", classes) == "p: " + _reference_floats(arr.tolist(), " ") + "\n"


@settings(max_examples=300, deadline=None)
@given(_float_arrays())
def test_emitted_float_array_equals_the_formatted_join(arr):
    _assert_emitted_is_the_formatted_join(arr)


@pytest.mark.parametrize("values", [
    ([0.25] * 7 + [-0.0, 0.0, -0.0]) * 4,
    [math.nan, -math.nan, math.inf, -math.inf, math.nan, 0.5, 0.5, 0.5] * 5,
    [1 / 3],
    [-0.0, 0.0] * 3,
    [0.1 * k for k in range(50)],
])
def test_emitted_float_array_edge_cases(values):
    arr = np.array(values)
    assert _emitted({"p": arr}, "json") == _emitted({"p": values}, "json")
    assert _emitted({"p": arr}, "text") == _emitted({"p": values}, "text")


@pytest.mark.parametrize("change", [
    "none", "one entry bumped", "0.0 and -0.0 in one class", "one class", "a class only after the first chunk",
])
def test_emitted_classes_equal_the_formatted_join(change):
    # entries meant to be equal per class; where one is not, every entry must still print as itself
    rng = np.random.default_rng(30)
    classes = rng.integers(0, 7, size=300)
    values = rng.random(8)
    if change == "one class":
        classes[:] = 0
    if change == "0.0 and -0.0 in one class":
        values[2] = 0.0
    if change == "a class only after the first chunk":
        classes[[100, 299]] = 7
    arr = values[classes]
    if change == "one entry bumped":
        arr[np.flatnonzero(classes == 4)[1]] = np.nextafter(values[4], 1.0)
    if change == "0.0 and -0.0 in one class":
        arr[np.flatnonzero(classes == 2)[0]] = -0.0
    _assert_emitted_is_the_formatted_join(arr, classes)


def _assert_large_fit_p_field_is_the_formatted_join(write_json, mode, fmt):
    doc = _large_problem(3, 10_000, 3, mode)
    code, out, err = run(["fit", write_json(doc), "--format", fmt])
    assert (code, err) == (0, "")
    fit = fit_numeric(parse_problem(json.dumps(doc)).to_problem())
    # without a prior the emitter is handed each symbol's column class
    assert (fit.classes is None) == (mode == "prior")
    probs = fit.p.probs
    # at most one value per column and prior weight, so each is formatted once
    assert len(set(probs)) <= 5**3 * 3
    if fmt == "json":
        assert f'"p": [{_reference_floats(probs, ", ")}]' in out
    else:
        assert f"\np: {_reference_floats(probs, ' ')}\n" in out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_large_fit_p_field_is_the_formatted_join(write_json, fmt):
    _assert_large_fit_p_field_is_the_formatted_join(write_json, "prior", fmt)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_prior_free_fit_p_field_is_the_formatted_join(write_json, fmt):
    _assert_large_fit_p_field_is_the_formatted_join(write_json, "samples", fmt)


# --- numbers beyond float range ---


HUGE_VALUES = {"m": 3, "constraints": [{"name": "t", "values": [0, 1, 10**400], "target": "1/2"}]}
HUGE_PRIOR = '{"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1/2"}], "prior": [1e400, 1, 1]}'
HUGE_TARGET = '{"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": 1e400}]}'


def _write_text(tmp_path, doc) -> str:
    path = tmp_path / "problem.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("solver", ["newton", "gis"])
def test_fit_values_beyond_float_range_exit_two(tmp_path, solver):
    code, out, err = run(["fit", _write_text(tmp_path, HUGE_VALUES), "--solver", solver])
    assert (code, out, err) == (2, "", "error: constraint values are too large for a float\n")


def test_groebner_fit_values_beyond_float_range_keeps_its_size_limit(tmp_path):
    code, out, err = run(["fit", _write_text(tmp_path, HUGE_VALUES), "--solver", "groebner"])
    assert (code, out) == (3, "")
    assert err.startswith("error: total degree 1" + "0" * 400 + " exceeds the exact-solve limit 8")


@pytest.mark.parametrize("solver", ["newton", "gis", "groebner"])
def test_fit_prior_beyond_float_range_exits_two(tmp_path, solver):
    code, out, err = run(["fit", _write_text(tmp_path, HUGE_PRIOR), "--solver", solver])
    assert (code, out, err) == (2, "", "error: prior weights are too large for a float\n")


@pytest.mark.parametrize("solver", ["newton", "gis", "groebner"])
def test_fit_target_beyond_float_range(tmp_path, solver):
    code, out, err = run(["fit", _write_text(tmp_path, HUGE_TARGET), "--solver", solver])
    if solver == "groebner":
        # the exact path decides it has no positive root before it needs a float
        assert (code, out, err) == (1, "", "error: direct system has no positive solution\n")
    else:
        assert (code, out, err) == (2, "", "error: targets are too large for a float\n")


@pytest.mark.parametrize(
    "doc, message",
    [
        (HUGE_VALUES, "constraint values are too large for a float"),
        (HUGE_TARGET, "targets are too large for a float"),
        (HUGE_PRIOR, "prior weights are too large for a float"),
    ],
    ids=["values", "target", "prior"],
)
def test_check_numbers_beyond_float_range_exit_two(tmp_path, doc, message):
    dist = tmp_path / "p.json"
    dist.write_text("[0.25, 0.5, 0.25]")
    code, out, err = run(["check", _write_text(tmp_path, doc), "--dist", str(dist)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("dist", ["[0.5, 0.25, 0.25]", "[0, 1, 0]"], ids=["full", "one-symbol"])
def test_entropy_prior_beyond_float_range_exits_two(tmp_path, dist):
    # the same diagnosis as ``fit`` and ``check``, whatever the distribution
    dist_path = tmp_path / "p.json"
    dist_path.write_text(dist)
    code, out, err = run(["entropy", _write_text(tmp_path, HUGE_PRIOR), "--dist", str(dist_path)])
    assert (code, out, err) == (2, "", "error: prior weights are too large for a float\n")


# sha256 of the exit code, stdout and stderr of the text and then the json run
WIDE_VALUE_OUTPUTS = {
    "system": "a720d4d073811e7f022e8c1dd4ec027b0055c58ed237c888cb2726daeba0384a",
    "dual": "a0545b2d0b7927da9515f51bd843b965e16deae5bb578db1b427c6877de98811",
    "fit": "23eaf07a7419581010cb2572665ce25c585e7909aa02b24bf0bc08e105550b72",
}


@pytest.mark.parametrize("command", WIDE_VALUE_OUTPUTS)
def test_exact_commands_on_values_beyond_int64_are_pinned(tmp_path, command):
    # a 2**70 entry is held as an exact int; the exact path prints what it printed
    # when the matrix was tuples of Python ints
    doc = {"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2**70]}, {"name": "u", "values": [1, 0, 1]}],
           "samples": [1, 2, 3, 3]}
    path = _write_text(tmp_path, doc)
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        code, out, err = run([command, path, "--format", fmt] + (["--solver", "groebner"] if command == "fit" else []))
        digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == WIDE_VALUE_OUTPUTS[command]


def test_numeric_fit_never_builds_python_int_rows():
    parsed = parse_problem(json.dumps({"m": 300, "constraints": [
        {"name": "t", "values": [j % 5 for j in range(300)], "target": "2"},
        {"name": "u", "values": [j % 3 for j in range(300)], "target": "1"},
    ]}))
    assert parsed.matrix.entries.dtype == np.int64
    for solver in ("newton", "gis"):
        fit_numeric(parsed.to_problem(), solver=solver, tol=1e-8)
    # ``rows`` is a cached property: it is in the instance dict once built
    assert "rows" not in vars(parsed.matrix)
    assert parsed.matrix.rows[1][:4] == (0, 1, 2, 0) and "rows" in vars(parsed.matrix)


@pytest.mark.parametrize("command", ["check", "entropy"])
@pytest.mark.parametrize("entry", ["1e400", "1" + "0" * 400], ids=["decimal", "integer"])
def test_distribution_entry_beyond_float_range_exits_two(tmp_path, command, entry):
    dist = tmp_path / "p.json"
    dist.write_text(f"[{entry}, 0, 0]")
    code, out, err = run([command, _write_text(tmp_path, QUAD), "--dist", str(dist)])
    assert (code, out, err) == (2, "", "error: distribution file: p[0] is too large for a float\n")


# entries at the edges of float parsing, each with its exit code and stderr
# for ``check`` on ``QUAD`` with the distribution ``[entry, 1, 0]``
EDGE_ENTRIES = {
    "-0.0": (1, "check failed: distribution is off the model or misses its targets\n"),
    "1e-400": (1, "check failed: distribution is off the model or misses its targets\n"),
    "-1e-400": (1, "check failed: distribution is off the model or misses its targets\n"),
    "1e400": (2, "error: distribution file: p[0] is too large for a float\n"),
    "-1e400": (2, "error: distribution file: p[0] is too large for a float\n"),
    "1" + "0" * 400: (2, "error: distribution file: p[0] is too large for a float\n"),
    "NaN": (2, "error: distribution file: p[0] is not a number\n"),
    "Infinity": (2, "error: distribution file: p[0] is not a number\n"),
    "-Infinity": (2, "error: distribution file: p[0] is not a number\n"),
    "true": (2, "error: distribution file: p[0] is not a number\n"),
}


@pytest.mark.parametrize("entry", list(EDGE_ENTRIES), ids=lambda e: e if len(e) < 12 else "10**400")
def test_check_reads_edge_distribution_entries(tmp_path, entry):
    problem = _write_text(tmp_path, QUAD)
    dist = tmp_path / "p.json"
    dist.write_text(f"[{entry}, 1, 0]")
    code, out, err = run(["check", problem, "--dist", str(dist)])
    assert (code, err) == EDGE_ENTRIES[entry]
    if code == 1:
        # the entry reads as 0.0: the output is that of a plain zero
        dist.write_text("[0, 1, 0]")
        assert (code, out, err) == run(["check", problem, "--dist", str(dist)])
    else:
        assert out == ""


DIST_ERRORS = {
    "invalid json": ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "no p field": ('{"q": []}', "expected an array or an object with a 'p' field"),
    "wrong length": ("[0.5, 0.5]", "expected 3 probabilities, got 2"),
    "string entry": ('["x", 0.5, 0.5]', "p[0] is not a number"),
    # a negative entry is no point of the simplex, so neither command reads it as one
    "negative entry": ("[-0.5, 1, 0.5]", "negative probability"),
    # nor one whose entries do not sum to 1; the sum is the one each interpreter's sum() gives
    "sum off one": ("[0.2, 0.2, 0.2]", f"distribution sums to {sum([0.2, 0.2, 0.2])!r}, not 1"),
}
DIST_CASES = [(command, case) for case in DIST_ERRORS for command in ("check", "entropy")]


@pytest.mark.parametrize("command, case", DIST_CASES)
def test_bad_distribution_file_exits_two(tmp_path, command, case):
    text, message = DIST_ERRORS[case]
    dist = tmp_path / "p.json"
    dist.write_text(text)
    code, out, err = run([command, _write_text(tmp_path, QUAD), "--dist", str(dist)])
    assert (code, out, err) == (2, "", f"error: distribution file: {message}\n")


def test_emitted_polynomials_reparse_equal(write_json):
    half = write_json({"m": 3, "constraints": [{"name": "t", "values": [0, 1, 2], "target": "1/2"}]})
    _, out, _ = run(["system", half, "--format", "json"])
    payload = json.loads(out)
    vars = tuple(payload["variables"])
    for text in payload["equations"]:
        f = parse_poly(text, vars)
        assert poly_to_text(f) == text


def _module_env() -> dict:
    """The environment in which a child imports the same package as this process, installed or not."""
    import toricmaxent

    src = str(Path(toricmaxent.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point(write_json):
    path = write_json(QUAD)
    proc = subprocess.run(
        [sys.executable, "-m", "toricmaxent", "system", path],
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "t1^2 - 1\n"


def test_closed_stdout_exits_one_without_a_traceback(write_json):
    # the prior-free fit at m = 20000 writes about 0.5 MB of p, more than a
    # pipe buffer, so its pipe breaks inside the writes, not at the last flush
    m = 20_000
    large = {"m": m, "constraints": [{"name": "t", "values": [j % 5 for j in range(m)], "target": "3/2"}]}
    for doc, fmt in ((QUAD, "json"), (large, "json"), (large, "text")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "toricmaxent", "fit", write_json(doc), "--format", fmt],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_module_env(),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")
