"""The benchmark's tracer finds every module attribute it wraps, and puts each back."""

import importlib.util
import sys
from pathlib import Path

from toricmaxent import cli, maxent, ratpoly, toric

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_every_attribute(monkeypatch):
    spans = load_spans(monkeypatch)
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
