"""The benchmark's tracer finds every module attribute it wraps and puts each back; its oracle accepts numeric fits; its selftest passes."""

import importlib.util
import io
import subprocess
import sys
from pathlib import Path

from toricmaxent import cli, maxent, ratpoly, toric

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_every_attribute(monkeypatch):
    spans = load_perfbench_module(monkeypatch, "spans")
    owners = {"cli": cli, "cli.ProblemDef": cli.ProblemDef, "maxent": maxent, "ratpoly": ratpoly, "toric": toric}
    before = {name: dict(vars(owner)) for name, owner in owners.items()}
    tracer = spans.Tracer()
    # install looks up every attribute it wraps, so a renamed one raises here
    spans.install(tracer)
    try:
        patched = {
            (name, attr): value
            for name, owner in owners.items()
            for attr, value in vars(owner).items()
            if value is not before[name].get(attr)
        }
    finally:
        tracer.uninstall()
    assert ("maxent", "model_distribution") in patched
    assert ("cli", "fit_numeric") in patched
    for (name, attr), wrapper in patched.items():
        assert wrapper.__wrapped__ is before[name][attr]
    for name, owner in owners.items():
        after = dict(vars(owner))
        assert after.keys() == before[name].keys()
        assert all(after[attr] is value for attr, value in before[name].items()), name


# one request per solver and mode, m <= 10^4, as the numeric-fit workload sends them
NUMERIC_PLAN = [
    (1000, 1, "newton", "targets", 1), (1000, 3, "newton", "prior", 1), (10000, 2, "newton", "samples", 1),
    (10000, 5, "gis", "targets", 1), (1000, 3, "gis", "prior", 1), (1000, 3, "gis", "samples", 1),
]


def test_numeric_fit_requests_pass_the_benchmark_oracle(monkeypatch, tmp_path):
    corpus = load_perfbench_module(monkeypatch, "corpus")
    oracle = load_perfbench_module(monkeypatch, "oracle").Oracle(ratpoly.parse_poly)
    requests = corpus.numeric_fit_corpus(4, scale={"plan": NUMERIC_PLAN})
    assert len({req.rid for req in requests}) == len(NUMERIC_PLAN) + len(corpus.STALL_PROBES)
    for req in {req.rid: req for req in requests}.values():
        folder = tmp_path / req.rid.replace("/", "_")
        folder.mkdir()
        for name, text in req.files.items():
            (folder / name).write_text(text)
        argv = [str(folder / a[1:]) if a.startswith("@") else a for a in req.argv]
        out, err = io.StringIO(), io.StringIO()
        rc = cli.main(argv, out, err)
        assert oracle.verdict(req, rc, out.getvalue()) is None, (req.rid, err.getvalue())


def test_benchmark_selftest_passes():
    # the selftest traces every workload on a tiny corpus, so a renamed traced
    # attribute or a layer that stops being exercised fails here too
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
